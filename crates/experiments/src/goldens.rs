//! The golden table: the pinned event count, full digest and behavior
//! digest of every scenario the release gates hold fixed.
//!
//! `throughput --check`, `sharded --check`, `repro irn --check` and the
//! `golden_digests` test suite all read this one table, so a change
//! that moves a golden is re-pinned in one place.
//!
//! The two digests pin different things. [`RunResults::behavior_digest`]
//! fingerprints what the network did (per-flow records, PFC, drops,
//! occupancy, IRN counters); [`RunResults::digest`] also mixes in
//! `events_processed`, the number of live dispatches. A change to event
//! accounting alone moves `events` and `digest` but must leave
//! `behavior_digest` byte-identical.

use dcn_fabric::RunResults;

/// One pinned scenario.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    /// Scenario name, as the gates print it.
    pub scenario: &'static str,
    /// Events dispatched to the model.
    pub events: u64,
    /// [`RunResults::digest`]: behavior plus the event count.
    pub digest: u64,
    /// [`RunResults::behavior_digest`]: behavior only.
    pub behavior_digest: u64,
}

impl Golden {
    /// Checks a run's `(events, digest, behavior digest)` against this
    /// row; the error names every field that drifted.
    pub fn verify(&self, events: u64, digest: u64, behavior_digest: u64) -> Result<(), String> {
        let mut drift = Vec::new();
        if events != self.events {
            drift.push(format!("events {events} (want {})", self.events));
        }
        if digest != self.digest {
            drift.push(format!(
                "digest {digest:#018x} (want {:#018x})",
                self.digest
            ));
        }
        if behavior_digest != self.behavior_digest {
            drift.push(format!(
                "behavior digest {behavior_digest:#018x} (want {:#018x})",
                self.behavior_digest
            ));
        }
        if drift.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", self.scenario, drift.join(", ")))
        }
    }

    /// [`Golden::verify`] on a run's results.
    pub fn verify_results(&self, r: &RunResults) -> Result<(), String> {
        self.verify(r.events_processed, r.digest(), r.behavior_digest())
    }
}

/// `run_hybrid` at small scale: L2BM, RDMA load 0.4, TCP load 0.8.
pub const HYBRID_SMALL: Golden = Golden {
    scenario: "hybrid_l2bm_rdma0.4_tcp0.8",
    events: 876_393,
    digest: 0x51a4_082e_0ecc_b7db,
    behavior_digest: 0x7e05_d359_f690_6c7e,
};

/// `run_incast` at small scale: L2BM, fan-out 5, paper defaults.
pub const INCAST_SMALL: Golden = Golden {
    scenario: "incast_l2bm_fanout5_tcp0.8",
    events: 818_971,
    digest: 0x6cd8_6f5e_0a8f_2f76,
    behavior_digest: 0xf51d_7fdf_2de1_10f0,
};

/// `run_hybrid` on the paper fabric with a 2 ms window: L2BM, RDMA
/// load 0.4, TCP load 0.8.
pub const HYBRID_PAPER_2MS: Golden = Golden {
    scenario: "hybrid_paper_2ms",
    events: 7_058_481,
    digest: 0xc473_a229_a950_926c,
    behavior_digest: 0xd665_887c_f891_ece2,
};

/// The tiny-scale IRN universe cell: L2BM, IRN lossy RDMA, no faults.
pub const IRN_TINY: Golden = Golden {
    scenario: "irn_tiny_l2bm",
    events: 173_263,
    digest: 0x3e04_2bb5_1e4d_279f,
    behavior_digest: 0xd00a_8a5e_a128_834e,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_names_each_drifted_field() {
        let g = HYBRID_SMALL;
        assert_eq!(g.verify(g.events, g.digest, g.behavior_digest), Ok(()));
        let err = g
            .verify(g.events + 1, g.digest, g.behavior_digest ^ 1)
            .unwrap_err();
        assert!(err.starts_with(g.scenario), "{err}");
        assert!(err.contains("events") && err.contains("behavior digest"));
        assert!(
            !err.contains(", digest"),
            "the full digest did not drift: {err}"
        );
    }
}
