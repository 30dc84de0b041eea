//! End-to-end events/sec benchmark: fixed seeded hybrid + incast
//! scenarios (small scale) and one paper-scale hybrid run, written to
//! `BENCH_4.json` to extend the perf trajectory started by
//! `BENCH_1.json` (seed engine), `BENCH_2.json` (parallel sweep) and
//! `BENCH_3.json` (indexed 4-ary heap + slab).
//!
//! Run with `cargo run --release -p dcn-bench --bin throughput`. The
//! simulated work is fully deterministic (fixed seed, fixed scale), so
//! `events` and `digest` are reproducible run-to-run; only the wall
//! time varies with the machine. Each scenario is run several times and
//! the best (minimum-wall) repetition is reported, which filters the
//! scheduler noise of shared hosts out of the trajectory number.
//!
//! `events` counts live dispatches only. The recorded baselines also
//! counted one pop per cancelled timer (about 6% of their events), so
//! events/sec against them reads about 6% low at an unchanged wall
//! clock; wall seconds for the same scenario is the like-for-like
//! comparison.
//!
//! With `--check`, skips the JSON and instead asserts the golden event
//! counts, `RunResults` digests and behavior digests of
//! [`dcn_experiments::goldens`] for every golden scenario, plus zero
//! past-time clamps and zero stale timer pops — exits nonzero on any
//! mismatch. CI runs this to pin the timing-wheel refactor to
//! byte-identical simulated behavior. The `hybrid_paper_2ms_trains`
//! row (packet-train coalescing on) is *not* digest-pinned: trains
//! change event counts and can flip exact-nanosecond ties by design,
//! so `--check` instead asserts its per-run reproducibility and that
//! no lossless packet was dropped.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use dcn_experiments::goldens::{self, Golden};
use dcn_experiments::{run_hybrid, run_incast, ExperimentScale, HybridConfig, IncastConfig};
use dcn_fabric::{PolicyChoice, RunResults};
use dcn_sim::SimDuration;

/// Repetitions per small scenario; the fastest is reported.
const REPS: usize = 5;
/// Repetitions for the paper-scale scenario (seconds per run).
const REPS_PAPER: usize = 2;

/// The golden rows `--check` asserts, in scenario order.
const GOLDEN: [Golden; 3] = [
    goldens::HYBRID_SMALL,
    goldens::INCAST_SMALL,
    goldens::HYBRID_PAPER_2MS,
];

struct Scenario {
    name: &'static str,
    results: RunResults,
    best_wall_s: f64,
}

impl Scenario {
    fn events_per_sec(&self) -> f64 {
        self.results.events_processed as f64 / self.best_wall_s
    }
}

fn run_scenario(name: &'static str, reps: usize, mut run: impl FnMut() -> RunResults) -> Scenario {
    let mut best: Option<Scenario> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let results = run();
        let wall = start.elapsed().as_secs_f64();
        if let Some(prev) = &best {
            assert_eq!(
                prev.results.digest(),
                results.digest(),
                "{name}: digest drifted between repetitions"
            );
        }
        if best.as_ref().is_none_or(|b| wall < b.best_wall_s) {
            best = Some(Scenario {
                name,
                results,
                best_wall_s: wall,
            });
        }
    }
    best.expect("reps >= 1")
}

fn paper_hybrid(trains: bool) -> HybridConfig {
    let scale = ExperimentScale::paper().with_window(SimDuration::from_millis(2));
    let scale = if trains { scale.with_trains() } else { scale };
    HybridConfig {
        scale,
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    }
}

fn run_all(reps: usize, reps_paper: usize) -> [Scenario; 4] {
    let scale = ExperimentScale::small();
    let hybrid_scale = scale.clone();
    let hybrid = run_scenario(GOLDEN[0].scenario, reps, move || {
        run_hybrid(&HybridConfig {
            scale: hybrid_scale.clone(),
            policy: PolicyChoice::l2bm(),
            rdma_load: 0.4,
            tcp_load: 0.8,
        })
        .results
    });
    let incast = run_scenario(GOLDEN[1].scenario, reps, move || {
        run_incast(&IncastConfig::paper_defaults(
            scale.clone(),
            PolicyChoice::l2bm(),
            5,
        ))
        .results
    });
    // Paper fabric (128 hosts), short window: ~126k events pending at
    // the high-water mark under the old heap-only engine; wheel timers
    // keep the heap in the low thousands, so this row is where
    // timer-population effects show up (the small scenarios idle
    // under ~2k).
    let paper = run_scenario(GOLDEN[2].scenario, reps_paper, move || {
        run_hybrid(&paper_hybrid(false)).results
    });
    // The same run with host-NIC packet-train coalescing: behaviorally
    // equivalent traffic, fewer scheduler events. Reported separately
    // because batching permutes event sequence numbers and so cannot
    // be pinned to the golden digest.
    let paper_trains = run_scenario("hybrid_paper_2ms_trains", reps_paper, move || {
        run_hybrid(&paper_hybrid(true)).results
    });
    [hybrid, incast, paper, paper_trains]
}

/// Asserts golden events + digests + zero past clamps + zero stale
/// timer pops for every golden scenario, and reproducibility + lossless
/// safety for the trains row. Returns failure instead of panicking so
/// CI logs every mismatch, not just the first.
fn check() -> ExitCode {
    let scenarios = run_all(1, 1);
    let mut ok = true;
    for (s, g) in scenarios.iter().zip(GOLDEN.iter()) {
        let golden = g.verify_results(&s.results);
        let clamps = s.results.queue.past_clamps;
        let stale = s.results.queue.stale_timer_pops;
        let pass = golden.is_ok() && clamps == 0 && stale == 0;
        println!(
            "{}: events {}, digest {:#018x}, behavior digest {:#018x}, \
             past_clamps {clamps} (want 0), stale_timer_pops {stale} (want 0) ... {}",
            g.scenario,
            s.results.events_processed,
            s.results.digest(),
            s.results.behavior_digest(),
            if pass { "ok" } else { "MISMATCH" }
        );
        if let Err(e) = golden {
            println!("  golden drift: {e}");
        }
        ok &= pass;
    }
    let t = &scenarios[3];
    {
        let clamps = t.results.queue.past_clamps;
        let lossless = t.results.drops.lossless_packets;
        let trains = t.results.trains;
        let pass = clamps == 0 && lossless == 0 && trains.trains > 0;
        println!(
            "{}: events {}, behavior digest {:#018x}, trains {} (legs {}, splits {}), \
             past_clamps {clamps} (want 0), lossless_drops {lossless} (want 0) ... {}",
            t.name,
            t.results.events_processed,
            t.results.behavior_digest(),
            trains.trains,
            trains.legs,
            trains.splits,
            if pass { "ok" } else { "MISMATCH" }
        );
        ok &= pass;
    }
    if ok {
        println!("determinism check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        return check();
    }

    let scenarios = run_all(REPS, REPS_PAPER);
    let total_events: u64 = scenarios.iter().map(|s| s.results.events_processed).sum();
    let total_wall: f64 = scenarios.iter().map(|s| s.best_wall_s).sum();

    let mut json = String::from("{\n  \"benchmark\": \"throughput\",\n");
    json.push_str(
        "  \"engine\": \"hierarchical timing wheel (cancellable timers) + indexed 4-ary heap\",\n",
    );
    json.push_str(&format!("  \"reps\": {REPS},\n"));
    // Trajectory context: what the same scenarios measured at each
    // stage. BENCH_1.json was recorded on a different (faster) host;
    // the like-for-like comparison is against the same-host rows below
    // (measured interleaved with this engine on a shared, noisy host,
    // so per-pair ratios rather than absolute numbers carry it).
    json.push_str(concat!(
        "  \"baselines\": [\n",
        "    {\"stage\": \"BENCH_1 (BinaryHeap engine, original host)\", ",
        "\"hybrid_events_per_sec\": 4026337, \"incast_events_per_sec\": 3783803},\n",
        "    {\"stage\": \"BinaryHeap engine, this host\", ",
        "\"hybrid_events_per_sec\": 3581486, \"incast_events_per_sec\": 3233089, ",
        "\"hybrid_paper_2ms_events_per_sec\": 2076218},\n",
        "    {\"stage\": \"BENCH_3 (indexed 4-ary heap + slab), this host\", ",
        "\"hybrid_events_per_sec\": 4678806, \"incast_events_per_sec\": 4487028, ",
        "\"hybrid_paper_2ms_events_per_sec\": 2937962}\n",
        "  ],\n",
    ));
    json.push_str(concat!(
        "  \"notes\": \"hybrid_paper_2ms_trains simulates the same traffic as ",
        "hybrid_paper_2ms with host-NIC packet-train coalescing on (default off), so its ",
        "honest comparison is wall seconds for the same simulated work, not events/sec ",
        "(fewer events by design); measured wall-neutral on this shared host despite ",
        "~6% fewer events. events_processed counts live dispatches only; the baselines ",
        "above also counted one pop per cancelled timer (hybrid 5.8%, incast 4.5%, ",
        "paper 5.4% of their events), so events/sec reads that much lower at the same ",
        "wall clock and is not a regression: compare best_wall_seconds\",\n",
    ));
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let q = &s.results.queue;
        let t = &s.results.trains;
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"events_processed\": {}, \"digest\": \"{:#018x}\", \
             \"best_wall_seconds\": {:.6}, \"events_per_sec\": {:.0}, \
             \"max_pending\": {}, \"max_heap_depth\": {}, \"heap_entry_bytes\": {}, \
             \"slab_slots\": {}, \"past_clamps\": {}, \"stale_timer_pops\": {}, \
             \"trains\": {}, \"train_legs\": {}, \"train_splits\": {}}}{comma}",
            s.name,
            s.results.events_processed,
            s.results.digest(),
            s.best_wall_s,
            s.events_per_sec(),
            q.max_pending,
            q.max_depth,
            q.entry_bytes,
            q.slab_capacity,
            q.past_clamps,
            q.stale_timer_pops,
            t.trains,
            t.legs,
            t.splits,
        )
        .expect("write to string");
    }
    writeln!(
        json,
        "  ],\n  \"total_events_processed\": {total_events},\n  \
         \"total_best_wall_seconds\": {total_wall:.6},\n  \"events_per_sec\": {:.0}\n}}",
        total_events as f64 / total_wall
    )
    .expect("write to string");

    std::fs::write("BENCH_4.json", &json).expect("write BENCH_4.json");
    println!("{json}");
    for s in &scenarios {
        println!(
            "{:<30} {:>12} events {:>9.3} s {:>12.0} events/s (best rep)",
            s.name,
            s.results.events_processed,
            s.best_wall_s,
            s.events_per_sec()
        );
    }
    println!("wrote BENCH_4.json");
    ExitCode::SUCCESS
}
