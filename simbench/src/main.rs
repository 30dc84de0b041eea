//! Outside-in benchmark of the packet-level simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the named workload for `--seconds`
//! seconds and reports the end-to-end metrics; with `--trace 1` it also
//! runs the same inputs in sim-time slices, untraced and then with the
//! flight recorder on, replays one ToR's traffic through a fresh switch,
//! and reports the per-layer metrics. Every run checks its own outputs.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. README.md lists the
//! workloads, the metrics and which layer moves which metric.

mod measure;
mod replay;
mod report;
mod run;
mod traced;
mod workload;

use std::process::ExitCode;

use report::Report;
use workload::{Workload, NAMES};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: simbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.clamp(1, 60),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", args.workload.describe());
    println!(
        "seed {}, {} s per measurement, trace {}, host cores {cores}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report: Report = if args.trace {
        traced::run(&args.workload, args.seed, args.seconds)
    } else {
        report::end_to_end(&args.workload, args.seed, args.seconds)
    };
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Workload {
        Workload::named(name).expect("named workload").tiny()
    }

    /// Metric names declared under `section` in BENCHMARK.json.
    fn declared(section: &str) -> Vec<&'static str> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    fn assert_clean(name: &str, report: &Report, want: &[&str]) {
        assert!(report.attempted >= 1, "{name}: nothing attempted");
        assert_eq!(report.failed, 0, "{name}: failed runs");
        let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, want, "{name}: metric names");
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        }
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        for name in NAMES {
            let report = report::end_to_end(&tiny(name), 7, 0);
            assert_clean(name, &report, &declared("end_to_end"));
        }
    }

    #[test]
    fn every_workload_traces_clean_at_tiny_scale() {
        for name in NAMES {
            let report = traced::run(&tiny(name), 7, 0);
            assert_clean(name, &report, &declared("per_layer"));
            let replay = report
                .metrics
                .iter()
                .find(|m| m.name == "switch.replay_receive_ns")
                .expect("replay metric");
            assert!(
                replay.value > 0.0,
                "{name}: switch replay unmeasured: {}",
                replay.detail
            );
        }
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let w = tiny("hybrid_paper");
        let gen = |seed| w.inputs(seed, &mut measure::Spans::new(), None).flows;
        let (a, b, c) = (gen(3), gen(3), gen(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bytes = |f: &[dcn_workload::FlowSpec]| f.iter().map(|f| f.size.as_u64()).sum::<u64>();
        assert_eq!(a.len(), c.len(), "flow count is fixed per workload");
        assert_eq!(bytes(&a), bytes(&c), "traffic volume is fixed per workload");
    }

    #[test]
    fn input_sets_differ_and_the_first_is_the_seed() {
        assert_eq!(run::input_seed(9, 0), 9);
        let seeds: std::collections::BTreeSet<u64> =
            (0..64).map(|i| run::input_seed(9, i)).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(run::input_seed(9, 5), run::input_seed(9, 5));
        assert_ne!(run::input_seed(9, 5), run::input_seed(10, 5));
    }

    #[test]
    fn heap_window_sees_a_live_allocation() {
        // Other tests allocate and free on their own threads meanwhile,
        // by a few MiB at most, so the block is much larger than that.
        measure::heap_window();
        let before = measure::heap_live_mib();
        let block = vec![0u8; 64 << 20];
        let live = measure::heap_live_mib();
        drop(std::hint::black_box(block));
        let peak = measure::heap_peak_mib();
        assert!(
            live - before >= 48.0 && peak >= live,
            "live {before} MiB, then {live} MiB with the block; peak {peak} MiB"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload hybrid_paper --seed 1 --seconds 5 --trace 0"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload hybrid_paper --seed x --seconds 5 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload hybrid_paper --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload hybrid_paper --seed 1 --seconds 5")).is_err());
    }
}
