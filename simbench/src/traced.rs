//! The traced measurement: the per-layer metrics.
//!
//! After the untraced repetitions it runs the same inputs on the serial
//! engine twice more, driven in fixed sim-time slices: once untraced,
//! for per-slice engine cost, and once with the flight recorder on,
//! draining the new records after every slice into per-layer tallies
//! and the first ToR's stream for the switch replay. Both sliced runs
//! must reproduce the one-shot digest.

use std::fmt::Write as _;
use std::time::Instant;

use dcn_fabric::FabricSim;
use dcn_net::{Partition, RoutingTable};
use dcn_sim::{SimTime, TraceConfig, TraceEvent, TraceRecord};

use crate::measure::{high_percentile, median, Spans};
use crate::replay::{self, Capture};
use crate::report::Report;
use crate::run;
use crate::workload::Workload;

/// Set-up layer spans are sampled this often.
const LAYER_SAMPLES: usize = 5;
/// Shards asked of `Partition::new` when timing it on any workload.
const PARTITION_SHARDS: usize = 2;

/// Record counts per event kind, from the flight recorder.
#[derive(Debug, Default)]
struct Tallies {
    enqueues: u64,
    dequeues: u64,
    drops: u64,
    ecn_marks: u64,
    pfc_pauses: u64,
    pfc_resumes: u64,
    tcp_acks: u64,
    tcp_partial_ack_rtx: u64,
    rto_fires: u64,
    rdma_rate_updates: u64,
    irn_nacks: u64,
    irn_retransmits: u64,
}

impl Tallies {
    fn add(&mut self, r: &TraceRecord) {
        let n = match r.event {
            TraceEvent::Enqueue { .. } => &mut self.enqueues,
            TraceEvent::Dequeue { .. } => &mut self.dequeues,
            TraceEvent::Drop { .. } => &mut self.drops,
            TraceEvent::EcnMark { .. } => &mut self.ecn_marks,
            TraceEvent::PfcPause { .. } => &mut self.pfc_pauses,
            TraceEvent::PfcResume { .. } => &mut self.pfc_resumes,
            TraceEvent::TcpCwnd { .. } => &mut self.tcp_acks,
            TraceEvent::TcpPartialAckRetransmit { .. } => &mut self.tcp_partial_ack_rtx,
            TraceEvent::RtoFire { .. } => &mut self.rto_fires,
            TraceEvent::RdmaRate { .. } => &mut self.rdma_rate_updates,
            TraceEvent::IrnNack { .. } => &mut self.irn_nacks,
            TraceEvent::IrnRetransmit { .. } => &mut self.irn_retransmits,
            _ => return,
        };
        *n += 1;
    }
}

/// One sim-time slice of a sliced run.
struct Slice {
    end: SimTime,
    wall_ns: u64,
    events: u64,
    done_flows: usize,
    drops: u64,
    pauses: u64,
    records: u64,
}

/// What a sliced run produced.
struct Sliced {
    sim: FabricSim,
    done: bool,
    run_s: f64,
    slices: Vec<Slice>,
    tallies: Tallies,
    /// Records the ring evicted before a drain saw them.
    unseen: u64,
    capture: Option<Capture>,
}

/// Runs `w`'s inputs on the serial engine in `w.slice` steps of sim
/// time, reading queue, flow and switch counters between slices; with
/// `traced`, the flight recorder is on and drained after every slice.
fn sliced(w: &Workload, seed: u64, traced: bool, spans: &mut Spans) -> Sliced {
    let mut inputs = w.inputs(seed, &mut Spans::new(), None);
    if traced {
        inputs.cfg.trace = TraceConfig::enabled();
    }
    let deadline = inputs.deadline;
    let mut capture = traced.then(|| Capture::new(&inputs.topo));
    let mut sim = run::serial(inputs);
    let name = if traced {
        "fabric.run_traced"
    } else {
        "fabric.run_sliced"
    };
    let run_span = spans.open(name, None);
    let mut slices = Vec::new();
    let mut tallies = Tallies::default();
    let mut unseen = 0u64;
    let mut seen = 0u64;
    let mut end = SimTime::ZERO;
    let mut events = sim.queue_stats().processed;
    let mut run_ns = 0u64;
    let done = loop {
        end = (end + w.slice).min(deadline);
        let t0 = Instant::now();
        let done = sim.run_until_done(end);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        run_ns += wall_ns;
        let now_events = sim.queue_stats().processed;
        let (drops, pauses) = switch_counters(&sim);
        let mut records = 0;
        sim.trace().with(|rec| {
            let total = rec.len() as u64 + rec.evicted();
            records = total - seen;
            seen = total;
            let fresh = records.min(rec.len() as u64);
            unseen += records - fresh;
            for r in rec.records().skip(rec.len() - fresh as usize) {
                tallies.add(r);
                if let Some(c) = capture.as_mut() {
                    c.offer(r);
                }
            }
        });
        slices.push(Slice {
            end,
            wall_ns,
            events: now_events - events,
            done_flows: sim.world().done_flows(),
            drops,
            pauses,
            records,
        });
        events = now_events;
        if done || end >= deadline {
            break done;
        }
    };
    spans.close(run_span);
    Sliced {
        sim,
        done,
        run_s: run_ns as f64 * 1e-9,
        slices,
        tallies,
        unseen,
        capture,
    }
}

/// Total drops and PFC pauses across every switch.
fn switch_counters(sim: &FabricSim) -> (u64, u64) {
    let world = sim.world();
    world
        .topology()
        .switches()
        .filter_map(|id| world.switch(id))
        .fold((0, 0), |(d, p), sw| {
            let dc = sw.drop_counters();
            (
                d + dc.lossy_packets + dc.lossless_packets,
                p + sw.pfc_counters().pause_frames(),
            )
        })
}

fn slices_jsonl(slices: &[Slice]) -> String {
    let mut s = String::new();
    for sl in slices {
        let _ = writeln!(
            s,
            "{{\"end_ns\": {}, \"wall_ns\": {}, \"events\": {}, \"done_flows\": {}, \
             \"drops\": {}, \"pauses\": {}, \"records\": {}}}",
            sl.end.as_nanos(),
            sl.wall_ns,
            sl.events,
            sl.done_flows,
            sl.drops,
            sl.pauses,
            sl.records
        );
    }
    s
}

/// The traced measurement of `w`.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Report {
    let mut spans = Spans::new();
    let mut report = Report::default();

    // Untraced one-shot repetitions: the baseline, and the engine's own
    // queue and shard counters.
    let reps = run::reps(w, seed, seconds, &mut spans);
    for (i, r) in reps.iter().enumerate() {
        report.run(&format!("repetition {i}"), &r.violations);
    }
    let base = &reps[0].results;
    let digest = base.digest();
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let cpu_s: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();

    // The set-up layers that the repetitions do not call on their own.
    for _ in 0..LAYER_SAMPLES {
        let topo = w.inputs(seed, &mut spans, None).topo;
        spans.time("net.routing", None, || RoutingTable::shortest_paths(&topo));
        spans.time("net.partition", None, || {
            Partition::new(&topo, PARTITION_SHARDS)
        });
    }

    // Sliced engine spans, untraced.
    let plain = sliced(w, seed, false, &mut spans);
    let mut v = sliced_checks(w, &plain, digest, "sliced");
    report.run("sliced run", &v);
    let slice_ns: Vec<f64> = plain
        .slices
        .iter()
        .filter(|s| s.events > 0)
        .map(|s| s.wall_ns as f64 / s.events as f64)
        .collect();

    // Traced, sliced run.
    let traced = sliced(w, seed, true, &mut spans);
    v = sliced_checks(w, &traced, digest, "traced");
    if traced.unseen != 0 {
        v.push(format!(
            "{} trace records were evicted before a drain saw them",
            traced.unseen
        ));
    }
    let t = &traced.tallies;
    let r = traced.sim.results();
    if t.drops != r.drops.lossy_packets + r.drops.lossless_packets {
        v.push(format!(
            "trace drops {} differ from the drop counters {}",
            t.drops,
            r.drops.lossy_packets + r.drops.lossless_packets
        ));
    }
    if t.pfc_pauses != r.pause_frames() {
        v.push(format!(
            "trace pauses {} differ from the pause counter {}",
            t.pfc_pauses,
            r.pause_frames()
        ));
    }
    report.run("traced run", &v);
    let max_records = traced.slices.iter().map(|s| s.records).max().unwrap_or(0);
    println!(
        "traced run: {} slices of {} us, largest slice {max_records} records",
        traced.slices.len(),
        w.slice.as_nanos() / 1_000
    );

    // The overhead is measured against an untraced run of the same
    // engine: the one-shot median on serial workloads, the untraced
    // sliced run where the workload itself runs sharded.
    let untraced_s = if w.shards == 0 {
        median(&run_s)
    } else {
        plain.run_s
    };

    // Switch replay.
    let capture = traced.capture.as_ref().expect("traced runs capture");
    let inputs = w.inputs(seed, &mut Spans::new(), None);
    let replayed = replay::replay(capture, &inputs.topo, &inputs.cfg, &inputs.flows);

    // Metrics.
    report.summary("host.run_s", "s", &run_s);
    report.summary("host.cpu_s", "s", &cpu_s);
    let reference: Vec<f64> = reps.iter().map(|r| r.reference.wall_s).collect();
    report.summary("host.reference_s", "s", &reference);
    let secs = |name: &str| spans.secs_of(name);
    report.summary("workload.generate_s", "s", &secs("workload.generate"));
    report.summary("net.topology_s", "s", &secs("net.topology"));
    report.summary("net.routing_s", "s", &secs("net.routing"));
    report.summary("net.partition_s", "s", &secs("net.partition"));
    report.summary("fabric.build_s", "s", &secs("fabric.build"));
    report.value(
        "fabric.ns_per_event",
        "ns",
        median(&run_s) * 1e9 / base.queue.processed as f64,
        "median run_s over dispatched events",
    );
    let (p, hi) = high_percentile(&slice_ns);
    report.value(
        "fabric.slice_ns_per_event_p50",
        "ns",
        median(&slice_ns),
        &format!("over {} slices with events", slice_ns.len()),
    );
    report.value(
        "fabric.slice_ns_per_event_hi",
        "ns",
        hi,
        &format!("p{p:.0} over {} slices with events", slice_ns.len()),
    );
    report.summary("fabric.results_s", "s", &secs("fabric.results"));
    report.summary("metrics.fct_stats_s", "s", &secs("metrics.fct_stats"));

    let q = &base.queue;
    let count = |report: &mut Report, name, n: u64, detail: &str| {
        report.value(name, "count", n as f64, detail);
    };
    let engine = if w.shards == 0 {
        "serial"
    } else {
        "sharded, summed over shards"
    };
    count(&mut report, "sim.events", q.processed, engine);
    count(&mut report, "sim.ghost_pops", q.ghost_pops, engine);
    count(&mut report, "sim.timer_cancels", q.timer_cancels, engine);
    count(&mut report, "sim.max_pending", q.max_pending as u64, engine);
    count(&mut report, "sim.max_depth", u64::from(q.max_depth), engine);
    count(
        &mut report,
        "sim.slab_slots",
        q.slab_capacity as u64,
        engine,
    );
    count(&mut report, "sim.past_clamps", q.past_clamps, engine);
    count(
        &mut report,
        "sim.stale_timer_pops",
        q.stale_timer_pops,
        engine,
    );

    let from_trace = "flight-recorder tally, serial engine";
    count(&mut report, "switch.enqueues", t.enqueues, from_trace);
    count(&mut report, "switch.dequeues", t.dequeues, from_trace);
    count(&mut report, "switch.drops", t.drops, from_trace);
    count(&mut report, "switch.ecn_marks", t.ecn_marks, from_trace);
    count(&mut report, "switch.pfc_pauses", t.pfc_pauses, from_trace);
    count(&mut report, "switch.pfc_resumes", t.pfc_resumes, from_trace);
    match &replayed {
        Ok(c) => {
            let detail = format!(
                "first ToR, {} receive and {} tx_complete calls{}",
                c.receives,
                c.tx_completes,
                if capture.truncated {
                    ", run prefix"
                } else {
                    ""
                }
            );
            report.value("switch.replay_receive_ns", "ns", c.receive_ns, &detail);
            report.value(
                "switch.replay_tx_complete_ns",
                "ns",
                c.tx_complete_ns,
                &detail,
            );
        }
        Err(why) => {
            let detail = format!("unmeasured: {why}");
            report.value("switch.replay_receive_ns", "ns", 0.0, &detail);
            report.value("switch.replay_tx_complete_ns", "ns", 0.0, &detail);
        }
    }
    count(&mut report, "transport.tcp_acks", t.tcp_acks, from_trace);
    count(
        &mut report,
        "transport.tcp_partial_ack_rtx",
        t.tcp_partial_ack_rtx,
        from_trace,
    );
    count(&mut report, "transport.rto_fires", t.rto_fires, from_trace);
    count(
        &mut report,
        "transport.rdma_rate_updates",
        t.rdma_rate_updates,
        from_trace,
    );
    count(&mut report, "transport.irn_nacks", t.irn_nacks, from_trace);
    count(
        &mut report,
        "transport.irn_retransmits",
        t.irn_retransmits,
        from_trace,
    );

    let sh = &base.shards;
    let no_shards = "serial engine: no shards";
    let detail = if sh.is_empty() {
        no_shards
    } else {
        "sharded engine"
    };
    count(
        &mut report,
        "shard.barriers",
        sh.iter().map(|s| s.barriers).max().unwrap_or(0),
        detail,
    );
    count(
        &mut report,
        "shard.handoffs",
        sh.iter().map(|s| s.handoffs_out).sum(),
        detail,
    );
    let share = sh
        .iter()
        .map(|s| s.events_processed)
        .max()
        .map_or(0.0, |m| m as f64 / base.queue.processed as f64);
    report.value("shard.max_event_share", "ratio", share, detail);
    count(
        &mut report,
        "shard.max_window_events",
        sh.iter().map(|s| s.max_window_events).max().unwrap_or(0),
        detail,
    );
    count(
        &mut report,
        "shard.stamp_ambiguities",
        sh.iter().map(|s| s.stamp_ambiguities).sum(),
        detail,
    );
    report.value(
        "shard.cpu_per_wall",
        "ratio",
        median(&cpu_s) / median(&run_s),
        "median cpu_s over median run_s",
    );
    report.value(
        "sim.trace_overhead_s",
        "s",
        traced.run_s - untraced_s,
        &format!(
            "traced {:.3} s against untraced {untraced_s:.3} s",
            traced.run_s
        ),
    );

    let m = reps[0].model;
    report.value(
        "model.rdma_p99_slowdown",
        "x",
        m.rdma_p99_slowdown,
        "simulated",
    );
    report.value(
        "model.tcp_p99_slowdown",
        "x",
        m.tcp_p99_slowdown,
        "simulated",
    );
    count(
        &mut report,
        "model.pause_frames",
        m.pause_frames,
        "simulated",
    );

    report.logs.push((
        format!("{}-seed{seed}-trace1.spans.jsonl", w.name),
        spans.to_jsonl(),
    ));
    report.logs.push((
        format!("{}-seed{seed}-slices.jsonl", w.name),
        slices_jsonl(&plain.slices),
    ));
    report
}

/// The checks of a sliced run: the one-shot invariants, MMU
/// conservation, and the one-shot digest.
fn sliced_checks(w: &Workload, s: &Sliced, digest: u64, what: &str) -> Vec<String> {
    let r = s.sim.results();
    let mut v = run::check(w, &r, s.done);
    v.extend(run::conservation(&s.sim));
    if r.digest() != digest {
        v.push(format!(
            "{what} digest {:#018x} differs from the one-shot digest {digest:#018x}",
            r.digest()
        ));
    }
    v
}
