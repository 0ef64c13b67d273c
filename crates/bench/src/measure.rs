//! The measurement wrapper: the modeled KNC cycles of one operation.

use phi_simd::count;
use phi_simd::{CostModel, CycleReport};

/// One measured operation: its modeled-channel report.
#[derive(Debug, Clone, Copy)]
pub struct Modeled {
    /// Modeled KNC report (counts, cycles, single-thread latency).
    pub knc: CycleReport,
}

impl Modeled {
    /// Modeled single-thread latency in microseconds.
    pub fn us(&self) -> f64 {
        self.knc.single_thread_micros
    }

    /// Modeled speedup of `self` over `slower`.
    pub fn speedup_over(&self, slower: &Modeled) -> f64 {
        self.knc.speedup_over(&slower.knc)
    }
}

/// Run `f` once, measuring its instruction counts (this thread), and
/// convert through the frozen KNC model.
pub fn modeled<R>(f: impl FnOnce() -> R) -> (R, Modeled) {
    let (out, counts) = count::measure(f);
    (
        out,
        Modeled {
            knc: CostModel::knc().report(&counts),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::count::{record, OpClass};

    #[test]
    fn modeled_reports_counts_and_time() {
        let ((), m) = modeled(|| record(OpClass::VMul, 500));
        assert_eq!(m.knc.issue_cycles, 500.0);
        assert!(m.us() > 0.0);
    }

    #[test]
    fn speedup_between_measurements() {
        let ((), fast) = modeled(|| record(OpClass::VMul, 100));
        let ((), slow) = modeled(|| record(OpClass::VMul, 300));
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-12);
    }
}
