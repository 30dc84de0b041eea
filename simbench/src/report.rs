//! The end-to-end measurement and the result report.

use std::fmt::Write as _;

use crate::measure::{high_percentile, median, quantile, Spans};
use crate::run;
use crate::workload::Workload;

/// Where span and slice logs are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// The reported value (a median where there are several samples).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample summary or the reason a metric is unmeasured.
    pub detail: String,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that violated a correctness check.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Log files to write: (file name, contents).
    pub logs: Vec<(String, String)>,
}

impl Report {
    /// Counts one run, failed when `violations` is non-empty.
    pub fn run(&mut self, what: &str, violations: &[String]) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            for v in violations {
                println!("FAILED {what}: {v}");
            }
        }
    }

    /// Adds a metric summarised over `samples`: median, the highest
    /// supported percentile and the sample count.
    pub fn summary(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let (p, hi) = high_percentile(samples);
        self.metrics.push(Metric {
            name,
            value: median(samples),
            unit,
            detail: format!("median of {} samples; p{p:.0} {hi:.6}", samples.len()),
        });
    }

    /// Adds a metric that is the mean of `samples`, with their range and
    /// count.
    pub fn mean(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric {
            name,
            value: samples.iter().sum::<f64>() / samples.len() as f64,
            unit,
            detail: format!(
                "mean of {} samples; min {:.6}, max {:.6}",
                samples.len(),
                quantile(samples, 0.0),
                quantile(samples, 1.0)
            ),
        });
    }

    /// Adds a single-valued metric.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64, detail: &str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            detail: detail.to_string(),
        });
    }

    /// Prints one line per metric, writes the logs, then prints the
    /// result object as the last line.
    pub fn print(mut self) {
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                m.detail = format!("non-finite value {}; reported as 0", m.value);
                m.value = 0.0;
                self.failed = self.failed.max(1);
            }
            println!(
                "{:<34} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
        if !self.logs.is_empty() {
            match std::fs::create_dir_all(OUT_DIR) {
                Ok(()) => {
                    for (name, body) in &self.logs {
                        let path = format!("{OUT_DIR}/{name}");
                        match std::fs::write(&path, body) {
                            Ok(()) => println!("wrote {path}"),
                            Err(e) => println!("could not write {path}: {e}"),
                        }
                    }
                }
                Err(e) => println!("could not create {OUT_DIR}: {e}"),
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The untraced measurement: repetitions for `seconds`, then the
/// end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> Report {
    let mut spans = Spans::new();
    let mut report = Report::default();
    let (reps, rerun) = run::varied_reps(w, seed, seconds, &mut spans);
    for (i, r) in reps.iter().enumerate() {
        println!(
            "repetition {i}: input seed {}, digest {:#018x}, {} events, run {:.6} s, heap {:.3} MiB",
            run::input_seed(seed, i as u64),
            r.results.digest(),
            r.results.queue.processed,
            r.run_s,
            r.peak_heap_mib
        );
        report.run(&format!("repetition {i}"), &r.violations);
    }
    report.run("re-run of input set 0", &rerun);
    let setups: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    if w.shards > 0 {
        let first = run::input_seed(seed, 0);
        sharded_matches_serial(w, first, reps[0].results.digest(), &mut report);
    }
    let col = |f: fn(&run::Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    report.summary("run_ref", "ref", &col(|r| r.run_s / r.reference.wall_s));
    report.summary("setup_s", "s", &setups);
    report.summary("cpu_ref", "ref", &col(|r| r.cpu_s / r.reference.cpu_s));
    // A repetition's peak heap is fixed by its inputs; the host does not
    // move it. So it has no outliers for a median to drop, and the mean
    // over the input sets varies less from seed to seed.
    report.mean("peak_heap_mib", "MiB", &col(|r| r.peak_heap_mib));
    report.summary(
        "flows_completed_ratio",
        "ratio",
        &col(|r| r.completed_ratio),
    );
    // Simulated outputs vary too much from seed to seed to bound, so
    // those of input set 0 are logged here and reported as per-layer
    // metrics. The re-run's digest check holds them fixed per input.
    let m = reps[0].model;
    println!(
        "simulated: rdma_p99_slowdown {}, tcp_p99_slowdown {}, pause_frames {}",
        m.rdma_p99_slowdown, m.tcp_p99_slowdown, m.pause_frames
    );
    let r = &reps[0].results;
    println!(
        "digest {:#018x}, {} flows, {} events dispatched",
        r.digest(),
        r.fct.len(),
        r.queue.processed
    );
    println!(
        "host seconds: run_s median {:.6}, cpu_s median {:.6}, reference wall median {:.6}, \
         reference cpu median {:.6}",
        median(&col(|r| r.run_s)),
        median(&col(|r| r.cpu_s)),
        median(&col(|r| r.reference.wall_s)),
        median(&col(|r| r.reference.cpu_s))
    );
    report.logs.push((
        format!("{}-seed{seed}-trace0.spans.jsonl", w.name),
        spans.to_jsonl(),
    ));
    report
}

/// Runs the serial engine on the sharded workload's inputs and checks
/// that it reproduces the sharded digest.
pub fn sharded_matches_serial(w: &Workload, seed: u64, sharded: u64, report: &mut Report) {
    let inputs = w.inputs(seed, &mut Spans::new(), None);
    let deadline = inputs.deadline;
    let mut sim = run::serial(inputs);
    let done = sim.run_until_done(deadline);
    let r = sim.results();
    let mut v = run::check(w, &r, done);
    v.extend(run::conservation(&sim));
    if r.digest() != sharded {
        v.push(format!(
            "serial digest {:#018x} differs from the sharded digest {sharded:#018x}",
            r.digest()
        ));
    }
    println!(
        "serial engine on the same inputs: digest {:#018x}",
        r.digest()
    );
    report.run("serial cross-check", &v);
}
