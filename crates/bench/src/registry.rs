//! The experiment registry: one descriptor per evaluation experiment, so
//! the harness, the CI smoke job, and the perf gate all enumerate the
//! same list instead of each hardcoding `e1..e15`.
//!
//! Every experiment runs at one of two [`Profile`]s: `Full` is the
//! paper-scale sweep the tables in DESIGN.md §4 quote; `Smoke` is a
//! reduced sweep (small moduli, short thread lists) sized for a CI job,
//! exercising the same code paths end to end.

use crate::experiments as ex;
use crate::table::Table;
use crate::workload::{RSA_SIZES, SIZES};

/// Sweep scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-scale parameters (the numbers DESIGN.md quotes).
    Full,
    /// Reduced parameters for CI: same code paths, small operands.
    Smoke,
}

impl Profile {
    /// The name used in the bench report JSON (`"full"` / `"smoke"`).
    pub fn name(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Smoke => "smoke",
        }
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Stable id (`"e1"`..`"e21"`), the key the perf gate compares by.
    pub id: &'static str,
    /// Short human title for reports.
    pub title: &'static str,
    /// Run the experiment at the given profile and return its table.
    pub run: fn(Profile) -> Table,
}

/// The full-card thread sweep of E5 (paper scale).
const THREAD_SWEEP: [u32; 10] = [1, 2, 4, 8, 16, 30, 60, 120, 180, 240];

macro_rules! profile_run {
    ($full:expr, $smoke:expr) => {
        |p: Profile| match p {
            Profile::Full => $full,
            Profile::Smoke => $smoke,
        }
    };
}

/// Every experiment of the evaluation, in id order.
pub static EXPERIMENTS: [Experiment; 19] = [
    Experiment {
        id: "e1",
        title: "big-integer multiplication latency",
        run: profile_run!(ex::e1_bigmul(&SIZES), ex::e1_bigmul(&[512, 1024])),
    },
    Experiment {
        id: "e2",
        title: "Montgomery multiplication latency",
        run: profile_run!(ex::e2_montmul(&SIZES), ex::e2_montmul(&[512, 1024])),
    },
    Experiment {
        id: "e3",
        title: "Montgomery exponentiation latency",
        run: profile_run!(ex::e3_montexp(&SIZES), ex::e3_montexp(&[512])),
    },
    Experiment {
        id: "e4",
        title: "RSA private-key operation latency",
        run: profile_run!(ex::e4_rsa_private(&RSA_SIZES), ex::e4_rsa_private(&[512])),
    },
    Experiment {
        id: "e5",
        title: "RSA throughput vs threads",
        run: profile_run!(
            ex::e5_thread_scaling(2048, &THREAD_SWEEP),
            ex::e5_thread_scaling(512, &[1, 8, 240])
        ),
    },
    Experiment {
        id: "e6",
        title: "fixed-window width sweep",
        run: profile_run!(
            ex::e6_window_sweep(2048, &[1, 2, 3, 4, 5, 6, 7]),
            ex::e6_window_sweep(512, &[1, 5])
        ),
    },
    Experiment {
        id: "e7",
        title: "CRT ablation",
        run: profile_run!(ex::e7_crt(&RSA_SIZES), ex::e7_crt(&[512])),
    },
    Experiment {
        id: "e8",
        title: "intra-operand vs 16-way batch",
        run: profile_run!(ex::e8_batch(&[1024, 2048]), ex::e8_batch(&[512])),
    },
    Experiment {
        id: "e9",
        title: "TLS handshake throughput",
        run: profile_run!(
            ex::e9_ssl(2048, &[1, 60, 240]),
            ex::e9_ssl(512, &[1, 60, 240])
        ),
    },
    Experiment {
        id: "e10",
        title: "squaring-strategy ablation",
        run: profile_run!(ex::e10_sqr(&SIZES), ex::e10_sqr(&[512])),
    },
    Experiment {
        id: "e11",
        title: "reduction-strategy ablation",
        run: profile_run!(ex::e11_reduction(&SIZES), ex::e11_reduction(&[512])),
    },
    Experiment {
        id: "e12",
        title: "full vs resumed handshake",
        run: profile_run!(ex::e12_resumption(2048), ex::e12_resumption(512)),
    },
    Experiment {
        id: "e13",
        title: "multi-key batched verification",
        run: profile_run!(
            ex::e13_multikey_verify(&[1024, 2048]),
            ex::e13_multikey_verify(&[512])
        ),
    },
    Experiment {
        id: "e14",
        title: "work-conserving batch RSA service",
        run: profile_run!(
            ex::e14_service(1024, &[0.2, 0.5, 0.9, 1.5, 3.0], 512),
            ex::e14_service(512, &[0.2, 3.0], 96)
        ),
    },
    Experiment {
        id: "e15",
        title: "fault-injected offload resilience",
        run: profile_run!(
            ex::e15_fault_resilience(1024, &[0.0, 0.01, 0.05, 0.20, 0.50], 256),
            ex::e15_fault_resilience(512, &[0.0, 0.20, 0.50], 256)
        ),
    },
    Experiment {
        id: "e18",
        title: "truncated Montgomery reduction",
        run: profile_run!(
            ex::e18_truncated(&[1024, 2048, 4096]),
            ex::e18_truncated(&[512, 1024])
        ),
    },
    Experiment {
        id: "e19",
        title: "multi-card fleet scheduler",
        run: profile_run!(
            ex::e19_fleet(1024, &[1, 2, 3, 4], 256),
            ex::e19_fleet(512, &[1, 2], 96)
        ),
    },
    Experiment {
        id: "e20",
        title: "verified offload under silent faults",
        run: profile_run!(
            ex::e20_verified_offload(1024, &[0.0, 1e-4, 1e-3, 1e-2, 0.10, 0.25], 256),
            ex::e20_verified_offload(512, &[0.0, 0.10, 0.25], 256)
        ),
    },
    Experiment {
        id: "e21",
        title: "table-tuned Montgomery kernels",
        run: profile_run!(
            ex::e21_tuned(&[512, 1024, 2048, 4096]),
            ex::e21_tuned(&[512])
        ),
    },
];

/// Look an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// All registered ids, in registry order.
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite this registry exists for: `all` in the harness means
    /// "every registered experiment", and the registry must actually
    /// contain every id the evaluation defines — no more hand-maintained
    /// `(1..=14)` drifting out of sync with the dispatch table.
    #[test]
    fn all_covers_every_registered_experiment() {
        let mut expected: Vec<String> = (1..=15).map(|i| format!("e{i}")).collect();
        // e16 and e17 are unassigned: E16 is the conformance harness's
        // record, and E17's native wall clock is perfbench's channel.
        expected.push("e18".into());
        expected.push("e19".into());
        expected.push("e20".into());
        expected.push("e21".into());
        let got = ids();
        assert_eq!(got.len(), expected.len(), "registry size drifted");
        for id in &expected {
            assert!(
                got.contains(&id.as_str()),
                "experiment {id} missing from the registry"
            );
        }
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let got = ids();
        let mut sorted: Vec<u32> = got
            .iter()
            .map(|id| id.trim_start_matches('e').parse().unwrap())
            .collect();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len(), "duplicate ids");
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "ids out of order");
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert_eq!(find("e5").unwrap().id, "e5");
        assert_eq!(find("e15").unwrap().id, "e15");
        assert!(find("e16").is_none());
        assert!(find("all").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn profile_names_are_stable() {
        assert_eq!(Profile::Full.name(), "full");
        assert_eq!(Profile::Smoke.name(), "smoke");
    }

    #[test]
    fn smoke_profile_runs_a_cheap_experiment() {
        let t = (find("e1").unwrap().run)(Profile::Smoke);
        assert_eq!(t.rows.len(), 2, "smoke e1 sweeps 512 and 1024 bits");
    }
}
