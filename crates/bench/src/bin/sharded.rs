//! Sharded-executor benchmark: serial vs `--shards N` wall clock on the
//! golden paper-scale hybrid cell, plus a 1024-host fat-tree smoke run,
//! written to `BENCH_5.json` to extend the perf trajectory
//! (`BENCH_4.json` measured the timing-wheel engine these shards run on).
//!
//! Every row is digest-checked: the paper grid must reproduce the
//! golden `hybrid_paper_2ms` digest at every shard count, and the
//! fat-tree run must agree between the serial engine and the sharded
//! executor — the whole point of the conservative window protocol is
//! that parallelism is *free* of result drift, so a bench row that
//! drifts is a failed run, not a data point.
//!
//! With `--check`, runs the small-scale golden hybrid cell at shard
//! counts 0/1/2/8 and asserts the golden digest plus zero ambiguous
//! stamp comparisons — a fast CI gate for the stamp machinery. The
//! paper-scale grid and the fat-tree run are skipped.
//!
//! Wall-clock honesty: parallel speedup is only measurable when the
//! host grants a core per shard. The JSON records the host's available
//! parallelism next to every timing so a single-core container (where
//! N shards time-slice one core and the grid measures *overhead*, not
//! speedup) cannot be misread as a scaling result.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use dcn_experiments::goldens::{HYBRID_PAPER_2MS, HYBRID_SMALL};
use dcn_experiments::{run_hybrid, ExperimentScale, HybridConfig};
use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RunResults, ShardedFabricSim};
use dcn_net::{FatTreeConfig, Priority, Topology, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimRng, SimTime};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

/// Shard counts of the paper-scale grid (0 = serial engine).
const PAPER_SHARD_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// Fat-tree smoke scale: k = 16 → 1024 hosts, 128 edge switches.
const FAT_TREE_K: usize = 16;
/// Traffic window of the fat-tree run (kept short: 1024 hosts generate
/// roughly 16× the events-per-simulated-second of the 128-host paper
/// fabric).
const FAT_TREE_WINDOW: SimDuration = SimDuration::from_micros(200);

fn hybrid_cfg(scale: ExperimentScale, shards: usize) -> HybridConfig {
    HybridConfig {
        scale: scale.with_shards(shards),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    }
}

fn paper_scale() -> ExperimentScale {
    ExperimentScale::paper().with_window(SimDuration::from_millis(2))
}

struct GridRow {
    shards: usize,
    wall_s: f64,
    results: RunResults,
}

impl GridRow {
    /// Events dispatched by the busiest shard — the lower bound on a
    /// one-core-per-shard wall clock, as a fraction of the total.
    fn max_shard_share(&self) -> f64 {
        let max = self
            .results
            .shards
            .iter()
            .map(|s| s.events_processed)
            .max()
            .unwrap_or(self.results.events_processed);
        max as f64 / self.results.events_processed as f64
    }

    fn ambiguities(&self) -> u64 {
        self.results
            .shards
            .iter()
            .map(|s| s.stamp_ambiguities)
            .sum()
    }

    fn handoffs(&self) -> u64 {
        self.results.shards.iter().map(|s| s.handoffs_out).sum()
    }

    fn barriers(&self) -> u64 {
        self.results
            .shards
            .iter()
            .map(|s| s.barriers)
            .max()
            .unwrap_or(0)
    }
}

fn run_grid_row(scale: &ExperimentScale, shards: usize) -> GridRow {
    let start = Instant::now();
    let results = run_hybrid(&hybrid_cfg(scale.clone(), shards)).results;
    GridRow {
        shards,
        wall_s: start.elapsed().as_secs_f64(),
        results,
    }
}

/// The 1024-host fat-tree hybrid workload: RDMA (lossless, load 0.4)
/// and TCP web-search (lossy, load 0.8) Poisson traffic over every
/// host, mirroring the paper hybrid cell's class split.
fn fat_tree_workload() -> (Topology, FabricConfig, Vec<FlowSpec>, SimTime) {
    let cfg = FatTreeConfig::new(FAT_TREE_K);
    let topo = Topology::fat_tree(&cfg);
    let hosts: Vec<_> = topo.hosts().collect();
    let mut rng = SimRng::seed_from_u64(42);
    let mut flows = Vec::new();
    let rdma = PoissonTraffic::builder(hosts.clone(), web_search_cdf())
        .load(0.4)
        .link_rate(cfg.host_rate)
        .class(TrafficClass::Lossless, Priority::new(3))
        .dests(hosts.clone())
        .build();
    flows.extend(rdma.generate(FAT_TREE_WINDOW, &mut rng.fork(1)));
    let tcp = PoissonTraffic::builder(hosts.clone(), web_search_cdf())
        .load(0.8)
        .link_rate(cfg.host_rate)
        .class(TrafficClass::Lossy, Priority::new(1))
        .dests(hosts)
        .first_flow_id(1 << 40)
        .build();
    flows.extend(tcp.generate(FAT_TREE_WINDOW, &mut rng.fork(2)));
    let fabric_cfg = FabricConfig {
        policy: PolicyChoice::l2bm(),
        seed: 42,
        switch: SwitchConfig {
            total_buffer: Bytes::from_mb(4),
            ..SwitchConfig::default()
        },
        ..FabricConfig::default()
    };
    let deadline = SimTime::ZERO + FAT_TREE_WINDOW + SimDuration::from_millis(100);
    (topo, fabric_cfg, flows, deadline)
}

fn run_fat_tree(shards: usize) -> GridRow {
    let (topo, cfg, flows, deadline) = fat_tree_workload();
    let start = Instant::now();
    let results = if shards == 0 {
        let mut sim = FabricSim::new(topo, cfg);
        sim.add_flows(flows);
        sim.run_until_done(deadline);
        sim.results()
    } else {
        let mut sim = ShardedFabricSim::new(topo, cfg, shards);
        sim.add_flows(flows);
        sim.run_until_done(deadline);
        sim.results()
    };
    GridRow {
        shards,
        wall_s: start.elapsed().as_secs_f64(),
        results,
    }
}

/// Fast CI gate: the small-scale golden cell must reproduce its golden
/// digest at every shard count with zero ambiguous stamp comparisons.
fn check() -> ExitCode {
    let scale = ExperimentScale::small();
    let mut ok = true;
    for shards in [0usize, 1, 2, 8] {
        let row = run_grid_row(&scale, shards);
        let golden = HYBRID_SMALL.verify_results(&row.results);
        let ambiguous = row.ambiguities();
        let pass = golden.is_ok() && ambiguous == 0;
        println!(
            "hybrid_l2bm_small shards {shards}: events {}, digest {:#018x}, \
             ambiguous stamp comparisons {ambiguous} (want 0), wall {:.3}s ... {}",
            row.results.events_processed,
            row.results.digest(),
            row.wall_s,
            if pass { "ok" } else { "MISMATCH" }
        );
        if let Err(e) = golden {
            println!("  golden drift: {e}");
        }
        ok &= pass;
    }
    if ok {
        println!("sharded determinism check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn grid_row_json(r: &GridRow, indent: &str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{indent}{{\"shards\": {}, \"wall_s\": {:.3}, \"events\": {}, \
         \"digest\": \"{:#018x}\", \"events_per_sec\": {:.0}",
        r.shards,
        r.wall_s,
        r.results.events_processed,
        r.results.digest(),
        r.results.events_processed as f64 / r.wall_s,
    );
    if !r.results.shards.is_empty() {
        let _ = write!(
            s,
            ", \"barriers\": {}, \"handoffs\": {}, \"max_shard_event_share\": {:.3}, \
             \"ambiguous_stamp_comparisons\": {}",
            r.barriers(),
            r.handoffs(),
            r.max_shard_share(),
            r.ambiguities(),
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        return check();
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Paper-scale grid, golden-pinned at every shard count.
    let scale = paper_scale();
    let mut grid = Vec::new();
    for shards in PAPER_SHARD_COUNTS {
        let row = run_grid_row(&scale, shards);
        if let Err(e) = HYBRID_PAPER_2MS.verify_results(&row.results) {
            panic!("paper grid shards {shards}: {e}");
        }
        println!(
            "hybrid_paper_2ms shards {shards}: {:.3}s, digest ok, \
             ambiguous stamp comparisons {}",
            row.wall_s,
            row.ambiguities(),
        );
        grid.push(row);
    }
    let serial_wall = grid[0].wall_s;
    let oracle_overhead = grid[1].wall_s / serial_wall;

    // 1024-host fat-tree: serial and 4-shard runs must reconcile.
    let ft_serial = run_fat_tree(0);
    println!(
        "fat_tree_1024 serial: {:.3}s, {} events",
        ft_serial.wall_s, ft_serial.results.events_processed
    );
    let ft_sharded = run_fat_tree(4);
    println!(
        "fat_tree_1024 shards 4: {:.3}s, {} events",
        ft_sharded.wall_s, ft_sharded.results.events_processed
    );
    assert_eq!(
        ft_serial.results.digest(),
        ft_sharded.results.digest(),
        "fat-tree 1024-host run: serial and sharded digests diverged"
    );
    assert_eq!(
        ft_serial.results.events_processed,
        ft_sharded.results.events_processed
    );

    let mut json = String::from("{\n  \"benchmark\": \"sharded\",\n");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"scenario\": \"hybrid_paper_2ms (128-host clos, L2BM, rdma 0.4, tcp 0.8)\","
    );
    let _ = writeln!(
        json,
        "  \"golden\": {{\"events\": {}, \"digest\": \"{:#018x}\"}},",
        HYBRID_PAPER_2MS.events, HYBRID_PAPER_2MS.digest,
    );
    json.push_str("  \"paper_grid\": [\n");
    for (i, r) in grid.iter().enumerate() {
        let comma = if i + 1 < grid.len() { "," } else { "" };
        let _ = writeln!(json, "{}{comma}", grid_row_json(r, "    "));
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"single_shard_overhead\": {{\"wall_ratio_vs_serial\": {oracle_overhead:.2}, \
         \"note\": \"shards=1 runs the full stamp machinery (admission stamps, \
         group-sorted dispatch) with no parallelism — the \
         price of determinism, paid once per shard\"}},"
    );
    let ft_k = FAT_TREE_K;
    let _ = writeln!(
        json,
        "  \"fat_tree_1024\": {{\"k\": {ft_k}, \"hosts\": 1024, \
         \"window_us\": {}, \"serial\": {}, \"shards4\": {}, \
         \"digests_reconcile\": true}},",
        FAT_TREE_WINDOW.as_nanos() / 1_000,
        grid_row_json(&ft_serial, ""),
        grid_row_json(&ft_sharded, ""),
    );
    let _ = writeln!(
        json,
        "  \"notes\": \"measured on a {cores}-core container: with fewer cores than \
         shards the workers time-slice one core, so multi-shard wall clock measures \
         synchronization overhead (40k windows x 2 barriers at paper scale), not \
         speedup; max_shard_event_share bounds the achievable one-core-per-shard \
         wall at share x single-shard cost. Every row is digest-identical to the \
         serial engine. ambiguous_stamp_comparisons counts stamp pairs whose \
         truncated histories could not be ordered exactly (deterministic \
         stamp-derived tiebreak, identical at every shard count; zero at small \
         scale, asserted by --check).\"\n}}"
    );
    std::fs::write("BENCH_5.json", json).expect("write BENCH_5.json");
    println!("wrote BENCH_5.json");
    ExitCode::SUCCESS
}
