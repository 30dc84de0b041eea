//! Golden-digest regression suite: the eviction hook added for Occamy
//! must be *free* for every other policy — zero extra events, zero
//! extra RNG draws, byte-identical results. These tests pin the event
//! counts, `RunResults` digests and behavior digests of
//! [`dcn_experiments::goldens`], the same table
//! `dcn-bench --bin throughput -- --check` asserts in release CI.
//!
//! The two small-scale scenarios run in the plain tier-1 suite; the
//! paper-scale scenario (~7M events) is `#[ignore]`d for debug runs
//! and exercised by the release-mode CI check instead.

use dcn_experiments::goldens::{HYBRID_PAPER_2MS, HYBRID_SMALL, INCAST_SMALL};
use dcn_experiments::{run_hybrid, run_incast, ExperimentScale, HybridConfig, IncastConfig};
use dcn_fabric::PolicyChoice;
use dcn_sim::SimDuration;

#[test]
fn hybrid_small_golden_digest_is_unchanged() {
    let p = run_hybrid(&HybridConfig {
        scale: ExperimentScale::small(),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    HYBRID_SMALL.verify_results(&p.results).unwrap();
    assert_eq!(p.results.drops.evicted_packets, 0, "no policy evicts here");
    assert_eq!(p.results.rdma_stranded, 0, "no DCQCN sender may strand");
}

#[test]
fn incast_small_golden_digest_is_unchanged() {
    let p = run_incast(&IncastConfig::paper_defaults(
        ExperimentScale::small(),
        PolicyChoice::l2bm(),
        5,
    ));
    INCAST_SMALL.verify_results(&p.results).unwrap();
    assert_eq!(p.results.drops.evicted_packets, 0, "no policy evicts here");
    assert_eq!(p.results.rdma_stranded, 0, "no DCQCN sender may strand");
}

#[test]
#[ignore = "paper scale (~7M events); run with --include-ignored in release"]
fn hybrid_paper_golden_digest_is_unchanged() {
    let p = run_hybrid(&HybridConfig {
        scale: ExperimentScale::paper().with_window(SimDuration::from_millis(2)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    HYBRID_PAPER_2MS.verify_results(&p.results).unwrap();
    assert_eq!(p.results.rdma_stranded, 0, "no DCQCN sender may strand");
}
