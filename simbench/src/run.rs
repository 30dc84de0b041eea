//! One measured repetition: seed → runnable simulator → run → results,
//! with the correctness checks every repetition must pass.

use std::time::{Duration, Instant};

use dcn_fabric::{FabricSim, RunResults, ShardedFabricSim};
use dcn_net::TrafficClass;
use dcn_sim::{SimRng, SimTime};

use crate::measure::{heap_live_mib, heap_peak_mib, heap_window, process_cpu_s, Reference, Spans};
use crate::workload::{Inputs, Workload};

/// The simulator a workload runs on.
pub enum Engine {
    /// The serial engine.
    Serial(Box<FabricSim>),
    /// The spatially sharded engine.
    Sharded(Box<ShardedFabricSim>),
}

impl Engine {
    /// Builds the workload's engine and registers its flows.
    pub fn build(w: &Workload, inputs: Inputs) -> Engine {
        if w.shards == 0 {
            Engine::Serial(Box::new(serial(inputs)))
        } else {
            let mut sim = ShardedFabricSim::new(inputs.topo, inputs.cfg, w.shards);
            sim.add_flows(inputs.flows);
            Engine::Sharded(Box::new(sim))
        }
    }

    fn run_until_done(&mut self, deadline: SimTime) -> bool {
        match self {
            Engine::Serial(sim) => sim.run_until_done(deadline),
            Engine::Sharded(sim) => sim.run_until_done(deadline),
        }
    }

    fn results(&self) -> RunResults {
        match self {
            Engine::Serial(sim) => sim.results(),
            Engine::Sharded(sim) => sim.results(),
        }
    }
}

/// A serial simulator with `inputs`' flows registered.
pub fn serial(inputs: Inputs) -> FabricSim {
    let mut sim = FabricSim::new(inputs.topo, inputs.cfg);
    sim.add_flows(inputs.flows);
    sim
}

/// A built simulator, ready to run.
pub struct Setup {
    /// The engine with every flow registered.
    pub engine: Engine,
    /// Give-up time of the run.
    pub deadline: SimTime,
    /// Registered flows.
    pub flows: usize,
    /// Seed to runnable simulator, seconds.
    pub setup_s: f64,
}

/// Generates the inputs from `seed` and builds the engine, inside a
/// `setup` span.
pub fn setup(w: &Workload, seed: u64, spans: &mut Spans) -> Setup {
    let span = spans.open("setup", None);
    let inputs = w.inputs(seed, spans, Some(span));
    let deadline = inputs.deadline;
    let flows = inputs.flows.len();
    let engine = spans.time("fabric.build", Some(span), || Engine::build(w, inputs));
    let setup_s = spans.close(span);
    Setup {
        engine,
        deadline,
        flows,
        setup_s,
    }
}

/// Simulated results that a speed-only change must leave identical.
#[derive(Debug, Clone, Copy)]
pub struct ModelOutputs {
    /// 99th-percentile FCT slowdown of RDMA flows.
    pub rdma_p99_slowdown: f64,
    /// 99th-percentile FCT slowdown of TCP flows.
    pub tcp_p99_slowdown: f64,
    /// PFC pause frames sent by all switches.
    pub pause_frames: u64,
}

/// After each repetition, set-up is repeated for this much longer (and
/// at most `MAX_EXTRA_SETUPS` times): set-up takes a millisecond or less,
/// and its median needs many samples, taken across the whole run under
/// the same host conditions as the runs.
const EXTRA_SETUP_S: f64 = 0.1;
const MAX_EXTRA_SETUPS: usize = 200;

/// What one repetition measured.
pub struct Rep {
    /// Seed to runnable simulator, seconds: the repetition's own set-up,
    /// then the extra samples taken after its run.
    pub setup_s: Vec<f64>,
    /// The `run_until_done` call, seconds.
    pub run_s: f64,
    /// Process CPU time during the run, seconds.
    pub cpu_s: f64,
    /// The reference computation's time, the mean of one timing before
    /// the run and one just after.
    pub reference: Reference,
    /// The timing just after the run, which the next repetition takes as
    /// its timing before.
    pub reference_after: Reference,
    /// Completed flows over registered flows.
    pub completed_ratio: f64,
    /// The most heap the repetition held at once, from seed to checked
    /// results, above what was live when it started, MiB. The reference
    /// computation's heap is left out.
    pub peak_heap_mib: f64,
    /// The merged results.
    pub results: RunResults,
    /// Simulated outputs.
    pub model: ModelOutputs,
    /// Correctness violations; empty when the repetition passed.
    pub violations: Vec<String>,
}

/// The simulated outputs of `r`, computed inside a `metrics.fct_stats`
/// span.
pub fn model_outputs(r: &RunResults, spans: &mut Spans) -> ModelOutputs {
    let (rdma, tcp) = spans.time("metrics.fct_stats", None, || {
        // IRN flows keep their lossless spec class in the FCT records.
        (
            r.fct.slowdown_percentile(TrafficClass::Lossless, 0.99),
            r.fct.slowdown_percentile(TrafficClass::Lossy, 0.99),
        )
    });
    ModelOutputs {
        rdma_p99_slowdown: rdma.unwrap_or(f64::NAN),
        tcp_p99_slowdown: tcp.unwrap_or(f64::NAN),
        pause_frames: r.pause_frames(),
    }
}

/// Times the reference computation on as many threads as `w`'s engine.
fn reference(w: &Workload) -> Reference {
    crate::measure::reference(w.shards.max(1))
}

/// Runs one repetition: set-up, the run, results and checks.
/// `reference_before` is a timing of the reference computation taken
/// before the set-up.
pub fn rep(w: &Workload, seed: u64, reference_before: Reference, spans: &mut Spans) -> Rep {
    // Earlier repetitions' results stay live; they are not this one's.
    let heap_base_mib = heap_live_mib();
    heap_window();
    let Setup {
        mut engine,
        deadline,
        flows,
        setup_s,
    } = setup(w, seed, spans);
    let setup_heap_mib = heap_peak_mib();
    heap_window();
    let cpu0 = process_cpu_s();
    let span = spans.open("fabric.run", None);
    let done = engine.run_until_done(deadline);
    let run_s = spans.close(span);
    let cpu_s = process_cpu_s() - cpu0;
    let run_heap_mib = heap_peak_mib();
    let reference_after = reference(w);
    heap_window();
    let results = spans.time("fabric.results", None, || engine.results());
    let model = model_outputs(&results, spans);
    let mut violations = check(w, &results, done);
    if let Engine::Serial(sim) = &engine {
        violations.extend(conservation(sim));
    }
    let peak_heap_mib = setup_heap_mib.max(run_heap_mib).max(heap_peak_mib()) - heap_base_mib;
    drop(engine);
    let mut setups = vec![setup_s];
    let mut extra = 0.0;
    while extra < EXTRA_SETUP_S && setups.len() <= MAX_EXTRA_SETUPS {
        let s = setup(w, seed, spans).setup_s;
        extra += s;
        setups.push(s);
    }
    Rep {
        setup_s: setups,
        run_s,
        cpu_s,
        reference: reference_before.mean(reference_after),
        reference_after,
        completed_ratio: (flows - results.unfinished_flows) as f64 / flows as f64,
        peak_heap_mib,
        results,
        model,
        violations,
    }
}

/// The seed of input set `i` of a run given `seed`: `seed` itself for
/// set 0, then seeds drawn from it.
pub fn input_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        seed
    } else {
        SimRng::seed_from_u64(seed).fork(i).next_u64()
    }
}

/// Repeats [`rep`] on input sets 0, 1, 2, … of `seed` until `seconds`
/// have passed (at least once), then runs set 0 once more, unmeasured.
/// Returns the repetitions and the violations of that re-run, which
/// fails when its digest differs from the first repetition's.
///
/// The host-time and heap metrics depend on the inputs as well as on
/// the host, so a median or mean over several input sets varies less
/// from seed to seed than repetitions of one set would.
pub fn varied_reps(
    w: &Workload,
    seed: u64,
    seconds: u64,
    spans: &mut Spans,
) -> (Vec<Rep>, Vec<String>) {
    let out = timed_reps(w, seconds, spans, |i| input_seed(seed, i as u64));
    let Setup {
        mut engine,
        deadline,
        ..
    } = setup(w, input_seed(seed, 0), spans);
    let done = engine.run_until_done(deadline);
    let results = engine.results();
    let mut violations = check(w, &results, done);
    if let Engine::Serial(sim) = &engine {
        violations.extend(conservation(sim));
    }
    let first = out[0].results.digest();
    if results.digest() != first {
        violations.push(format!(
            "digest {:#018x} differs from the first repetition's {first:#018x}",
            results.digest()
        ));
    }
    (out, violations)
}

/// Repeats [`rep`] until `seconds` have passed (at least once),
/// repetition `i` on the inputs of seed `seed_of(i)`.
fn timed_reps(
    w: &Workload,
    seconds: u64,
    spans: &mut Spans,
    seed_of: impl Fn(usize) -> u64,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut out: Vec<Rep> = Vec::new();
    let mut reference_before = reference(w);
    while out.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let r = rep(w, seed_of(out.len()), reference_before, spans);
        reference_before = r.reference_after;
        out.push(r);
    }
    out
}

/// Repeats [`rep`] on the same inputs until `seconds` have passed (at
/// least once); a repetition whose digest differs from the first one's
/// fails.
pub fn reps(w: &Workload, seed: u64, seconds: u64, spans: &mut Spans) -> Vec<Rep> {
    let mut out = timed_reps(w, seconds, spans, |_| seed);
    let first = out[0].results.digest();
    for r in &mut out[1..] {
        if r.results.digest() != first {
            let v = format!(
                "digest {:#018x} differs from the first repetition's {first:#018x}",
                r.results.digest()
            );
            r.violations.push(v);
        }
    }
    out
}

/// The invariants every run of every workload must hold.
pub fn check(w: &Workload, r: &RunResults, done: bool) -> Vec<String> {
    let mut v = Vec::new();
    if !done || r.unfinished_flows != 0 {
        v.push(format!(
            "{} flows unfinished at the deadline",
            r.unfinished_flows
        ));
    }
    if r.queue.past_clamps != 0 {
        v.push(format!("{} past-time clamps", r.queue.past_clamps));
    }
    if r.queue.stale_timer_pops != 0 {
        v.push(format!("{} stale timer pops", r.queue.stale_timer_pops));
    }
    if r.rdma_stranded != 0 {
        v.push(format!("{} stranded RDMA senders", r.rdma_stranded));
    }
    if w.lossless_rdma() && r.drops.lossless_packets != 0 {
        v.push(format!("{} lossless drops", r.drops.lossless_packets));
    }
    v
}

/// MMU conservation on every switch of a serial simulator.
pub fn conservation(sim: &FabricSim) -> Vec<String> {
    let world = sim.world();
    world
        .topology()
        .switches()
        .filter_map(|id| {
            let sw = world.switch(id).expect("switch ids name switches");
            sw.mmu()
                .check_conservation()
                .err()
                .map(|e| format!("switch {}: MMU conservation: {e}", id.index()))
        })
        .collect()
}
