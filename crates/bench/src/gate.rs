//! The CI perf-regression gate: checks a bench report's integrity and
//! compares a fresh run against the committed baseline.
//!
//! The modeled channel is deterministic — the same code produces the
//! same issue-cycle counts on every machine — so the gate can compare a
//! committed `bench/baseline.json` against a fresh CI run exactly: any
//! drop in modeled throughput is a code change, not noise. The
//! [`REGRESSION_TOLERANCE`] exists to absorb *intentional* small
//! trade-offs, not measurement jitter.

use phi_trace::Report;

/// Experiments the gate compares. A representative slice of the
/// evaluation: E1 (multiplication kernel), E5 (RSA private op feeding
/// the thread-scaling figure), E14 (the batch service end to end), E18
/// (the 16-lane batch ladder at the static point, which runs every
/// release check and every key over 4096 bits).
pub const GATED: [&str; 4] = ["e1", "e5", "e14", "e18"];

/// Maximum tolerated drop in modeled throughput (fraction of baseline).
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// Acceptable span-coverage band: the per-scope exclusive cycles must
/// sum to within 5% of each gated experiment's modeled total, or the
/// trace has stopped accounting for the hot paths.
pub const COVERAGE_BOUNDS: (f64, f64) = (0.95, 1.05);

/// Integrity-check one report: schema validation plus, for every gated
/// experiment, presence and span coverage within [`COVERAGE_BOUNDS`].
/// Returns a list of problems (empty = pass).
pub fn check(report: &Report) -> Vec<String> {
    if let Err(e) = report.validate() {
        return vec![e];
    }
    let mut problems = Vec::new();
    for id in GATED {
        match report.experiment(id) {
            None => problems.push(format!("gated experiment {id} missing from the report")),
            Some(e) => {
                let cov = e.span_coverage();
                if !(COVERAGE_BOUNDS.0..=COVERAGE_BOUNDS.1).contains(&cov) {
                    problems.push(format!(
                        "{id}: span coverage {:.3} outside [{:.2}, {:.2}] — \
                         the trace no longer accounts for the modeled work",
                        cov, COVERAGE_BOUNDS.0, COVERAGE_BOUNDS.1
                    ));
                }
            }
        }
    }
    problems
}

/// Key sizes `perfgate --min-improvement` sweeps. A slice of the E18
/// sweep kept small enough for a CI smoke job.
pub const IMPROVEMENT_SIZES: [u32; 3] = [512, 1024, 2048];

/// One key size's classic-vs-truncated comparison on the modeled channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementLine {
    /// Modulus width in bits.
    pub bits: u32,
    /// Modeled issue cycles of the classic CIOS batch ladder.
    pub classic_cycles: f64,
    /// Modeled issue cycles of the truncated-reduction batch ladder.
    pub truncated_cycles: f64,
    /// Fractional cycle reduction: `1 - truncated / classic`.
    pub improvement: f64,
}

/// Run the deterministic classic-vs-truncated comparison in-process: one
/// 16-lane batch exponentiation per variant per key size, priced on the
/// modeled KNC channel. Panics if the two variants ever disagree — the
/// truncated path is only admissible while it stays bit-identical.
///
/// This is what `perfgate --min-improvement` gates on: the modeled
/// channel is deterministic, so "the truncated variant stopped beating
/// classic" is a code change, never noise.
pub fn measure_truncated_improvement(sizes: &[u32]) -> Vec<ImprovementLine> {
    use phiopenssl::{BatchMont, MontVariant, VMontCtx};
    sizes
        .iter()
        .map(|&bits| {
            let n = crate::workload::modulus(bits);
            let ctx = VMontCtx::new(&n).expect("odd modulus");
            let e = crate::workload::exponent(64);
            let bases: Vec<phi_bigint::BigUint> = (0..phiopenssl::batch::BATCH_WIDTH as u64)
                .map(|j| &crate::workload::operand(bits, 400 + j) % &n)
                .collect();
            let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
            let truncated = BatchMont::with_variant(&ctx, MontVariant::Auto);
            let (r_c, classic) = crate::measure::modeled(|| classic.mod_exp_16(&bases, &e, 5));
            let (r_t, truncated) = crate::measure::modeled(|| truncated.mod_exp_16(&bases, &e, 5));
            assert_eq!(r_c, r_t, "variants disagree at {bits} bits");
            ImprovementLine {
                bits,
                classic_cycles: classic.knc.issue_cycles,
                truncated_cycles: truncated.knc.issue_cycles,
                improvement: 1.0 - truncated.knc.issue_cycles / classic.knc.issue_cycles,
            }
        })
        .collect()
}

/// Key sizes `perfgate --tuned-improvement` sweeps: the sizes where the
/// committed tuning table must keep a clear win over the static point.
/// (The 2048/4096 rows win by only ~4–6%; E21 reports them but the gate
/// does not hold them to the threshold.)
pub const TUNED_GATE_SIZES: [u32; 2] = [512, 1024];

/// One key size's static-vs-table comparison on the modeled channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedLine {
    /// RSA key width in bits.
    pub bits: u32,
    /// Modeled issue cycles of the two CRT half ladders at the static
    /// point.
    pub static_cycles: f64,
    /// Modeled issue cycles of the same ladders at the committed table
    /// point, which the batch engine runs.
    pub tuned_cycles: f64,
    /// Fractional cycle reduction: `1 - tuned / static`.
    pub improvement: f64,
}

/// Run the deterministic static-vs-table comparison in-process: both CRT
/// half ladders of one full-width pass at the static point and at the
/// committed table point for the key size, priced on the modeled KNC
/// channel. Panics if the table has no point for the key size or the two
/// points' results diverge — the committed table is only admissible
/// while it stays bit-identical.
///
/// This is what `perfgate --tuned-improvement` gates on: the modeled
/// channel is deterministic, so "the committed tuning table stopped
/// paying for itself" is a code (or stale-table) change, never noise.
pub fn measure_tuned_improvement(sizes: &[u32]) -> Vec<TunedLine> {
    use crate::workload::half_ladders;
    use phiopenssl::{KernelParams, ResolvedBackend, TuningTable};
    sizes
        .iter()
        .map(|&bits| {
            let key = crate::workload::rsa_key(bits);
            let cts: Vec<phi_bigint::BigUint> = (0..phiopenssl::batch::BATCH_WIDTH as u64)
                .map(|j| &crate::workload::operand(bits, 2200 + j) % key.public().n())
                .collect();
            let table = TuningTable::committed()
                .params_for_modulus(key.public().n().bit_length())
                .unwrap_or_else(|| panic!("committed table must cover {bits}-bit keys"));
            let backend = ResolvedBackend::ModeledKnc;
            let (r_s, st) = half_ladders(&key, &cts, KernelParams::static_defaults(), backend);
            let (r_t, tn) = half_ladders(&key, &cts, table, backend);
            assert_eq!(r_s, r_t, "table point diverged at {bits} bits");
            TunedLine {
                bits,
                static_cycles: st.knc.issue_cycles,
                tuned_cycles: tn.knc.issue_cycles,
                improvement: 1.0 - tn.knc.issue_cycles / st.knc.issue_cycles,
            }
        })
        .collect()
}

/// Parameters of the `perfgate --fleet-speedup` measurement: key size,
/// fleet sizes compared, and modeled ops per card. Small enough for a
/// CI smoke job, saturated enough that the two-card fleet's scaling is
/// limited by the scheduler, not by idle capacity.
pub const FLEET_GATE: (u32, usize, usize, usize) = (512, 1, 2, 96);

/// The two fleet sizes' modeled operating points the fleet gate compares.
#[derive(Debug, Clone)]
pub struct FleetSpeedup {
    /// Modeled throughput of the single-card fleet (ops per second).
    pub one_card: f64,
    /// Modeled throughput of the two-card fleet (ops per second).
    pub two_cards: f64,
    /// `two_cards / one_card`.
    pub speedup: f64,
}

/// Run the deterministic fleet-scaling comparison in-process: the
/// saturated keyless workload of E19's scale panel on one card and on
/// two, through the real router and per-card collectors on a virtual
/// clock. This is what `perfgate --fleet-speedup` gates on: the modeled
/// channel is deterministic, so "two cards stopped beating one" is a
/// scheduler change, never noise.
pub fn measure_fleet_speedup() -> FleetSpeedup {
    let (bits, small, large, ops) = FLEET_GATE;
    let one = crate::experiments::fleet_scaling(bits, small, ops).throughput;
    let two = crate::experiments::fleet_scaling(bits, large, ops).throughput;
    FleetSpeedup {
        one_card: one,
        two_cards: two,
        speedup: two / one,
    }
}

/// Parameters of the `perfgate --verify-overhead` measurement: key size
/// and burst length. The shape of E14's production point — a 1024-bit
/// key driven at full batch width — where the batched public-exponent
/// check amortizes across all 16 lanes exactly like the card pass does.
pub const VERIFY_GATE: (u32, usize) = (1024, 32);

/// The verified service's modeled operating point the verify gate
/// compares: total card-side work against the verification pass layered
/// on top of it.
#[derive(Debug, Clone)]
pub struct VerifyOverhead {
    /// All modeled virtual seconds spent by the verified run.
    pub total_seconds: f64,
    /// Modeled virtual seconds spent inside the verification pass.
    pub verify_seconds: f64,
    /// `verify_seconds / total_seconds`.
    pub overhead: f64,
}

/// Run the deterministic verified-offload measurement in-process: the
/// E14-shaped full-width burst of [`VERIFY_GATE`] through a verified
/// [`RsaBatchService`](phi_rsa::RsaBatchService), fault-free, on the
/// modeled channel. This is what `perfgate --verify-overhead` gates on:
/// the check is fixed-size (~17 full-width Montgomery multiplications at
/// e = 65537 shared by the whole flush) while the CRT ladder scales with
/// the key, so "verification got expensive" is a code change, never
/// noise.
pub fn measure_verify_overhead() -> VerifyOverhead {
    use phi_rsa::RsaBatchService;
    use phi_rt::service::ServiceConfig;
    use phi_rt::ResilienceConfig;
    let (bits, ops) = VERIFY_GATE;
    let key = crate::workload::rsa_key(bits);
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: phiopenssl::batch::BATCH_WIDTH,
            queue_cap: ops.max(phiopenssl::batch::BATCH_WIDTH),
        },
        ..ResilienceConfig::default()
    };
    let phi = phiopenssl::PhiConfig::builder().verified().build();
    let service =
        RsaBatchService::new_fleet(&key, &phi, config, Vec::new()).expect("verified service");
    // Parked whole, the burst leaves in full-width flushes: the shape
    // the gate prices.
    let cts = (0..ops as u64)
        .map(|j| &crate::workload::operand(bits, 7000 + j) % key.public().n())
        .collect();
    let handles = service.submit_many(cts).expect("queue sized for the burst");
    for h in handles {
        h.wait().expect("fault-free run resolves every lane");
    }
    let report = service.shutdown_fleet().merged();
    assert_eq!(
        report.verified_ops as usize, ops,
        "every released result must be checked"
    );
    assert_eq!(report.verify_failures, 0, "honest results never rejected");
    VerifyOverhead {
        total_seconds: report.modeled_virtual_seconds,
        verify_seconds: report.verify_modeled_seconds,
        overhead: report.verify_modeled_seconds / report.modeled_virtual_seconds,
    }
}

/// One gated experiment's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// Experiment id.
    pub id: String,
    /// Baseline modeled throughput (runs per modeled second).
    pub baseline: f64,
    /// Fresh modeled throughput.
    pub fresh: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
    /// Whether the line passes the gate.
    pub ok: bool,
}

/// Compare a fresh report against the baseline on the gated
/// experiments. Errors on structural problems (profile mismatch, a
/// gated experiment missing from either side); otherwise returns one
/// [`GateLine`] per gated experiment, `ok = false` where modeled
/// throughput dropped more than [`REGRESSION_TOLERANCE`].
pub fn compare(baseline: &Report, fresh: &Report) -> Result<Vec<GateLine>, String> {
    if baseline.profile != fresh.profile {
        return Err(format!(
            "profile mismatch: baseline is '{}', fresh run is '{}' — \
             the sweeps are not comparable",
            baseline.profile, fresh.profile
        ));
    }
    if baseline.backend != fresh.backend {
        return Err(format!(
            "backend mismatch: baseline ran on '{}', fresh run on '{}' — \
             modeled cycle counts only gate the modeled backend; regenerate \
             the baseline with the harness",
            baseline.backend, fresh.backend
        ));
    }
    let mut lines = Vec::new();
    for id in GATED {
        let base = baseline.experiment(id).ok_or_else(|| {
            format!("gated experiment {id} missing from the baseline — regenerate it")
        })?;
        let new = fresh
            .experiment(id)
            .ok_or_else(|| format!("gated experiment {id} missing from the fresh report"))?;
        if base.modeled_throughput <= 0.0 {
            return Err(format!("{id}: baseline throughput is not positive"));
        }
        let ratio = new.modeled_throughput / base.modeled_throughput;
        lines.push(GateLine {
            id: id.to_owned(),
            baseline: base.modeled_throughput,
            fresh: new.modeled_throughput,
            ratio,
            ok: ratio >= 1.0 - REGRESSION_TOLERANCE,
        });
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_trace::{ExperimentReport, SpanReport};

    fn experiment(id: &str, cycles: f64, seconds: f64) -> ExperimentReport {
        ExperimentReport {
            id: id.into(),
            title: format!("experiment {id}"),
            modeled_cycles: cycles,
            modeled_seconds: seconds,
            modeled_throughput: 1.0 / seconds,
            wall_seconds: 0.01,
            spans: vec![SpanReport {
                scope: "vmul".into(),
                entries: 1,
                exclusive_cycles: cycles, // full coverage
                total_cycles: cycles,
                exclusive_wall_seconds: 0.005,
            }],
            flush: None,
        }
    }

    fn full_report() -> Report {
        let mut r = Report::new("smoke");
        for id in GATED {
            r.experiments.push(experiment(id, 1e6, 1e-3));
        }
        r
    }

    #[test]
    fn clean_report_passes_check() {
        assert!(check(&full_report()).is_empty());
    }

    #[test]
    fn missing_gated_experiment_fails_check() {
        let mut r = full_report();
        r.experiments.retain(|e| e.id != "e5");
        let problems = check(&r);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("e5"), "{problems:?}");
    }

    #[test]
    fn poor_span_coverage_fails_check() {
        let mut r = full_report();
        r.experiments[0].spans[0].exclusive_cycles = 0.5e6; // 50% coverage
        let problems = check(&r);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("coverage"), "{problems:?}");
    }

    #[test]
    fn invalid_schema_fails_check() {
        let mut r = full_report();
        r.schema = "something-else".into();
        assert!(check(&r)[0].contains("schema"));
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let base = full_report();
        let lines = compare(&base, &base.clone()).unwrap();
        assert_eq!(lines.len(), GATED.len());
        assert!(lines.iter().all(|l| l.ok && (l.ratio - 1.0).abs() < 1e-12));
    }

    #[test]
    fn small_regressions_pass_large_ones_fail() {
        let base = full_report();
        let mut fresh = base.clone();
        // e1 10% slower: within tolerance.
        fresh.experiments[0].modeled_throughput *= 0.90;
        // e5 20% slower: over the line.
        fresh.experiments[1].modeled_throughput *= 0.80;
        let lines = compare(&base, &fresh).unwrap();
        assert!(lines[0].ok, "{:?}", lines[0]);
        assert!(!lines[1].ok, "{:?}", lines[1]);
        assert!(lines[2].ok);
    }

    #[test]
    fn speedups_always_pass() {
        let base = full_report();
        let mut fresh = base.clone();
        for e in &mut fresh.experiments {
            e.modeled_throughput *= 10.0;
        }
        assert!(compare(&base, &fresh).unwrap().iter().all(|l| l.ok));
    }

    #[test]
    fn truncated_improvement_is_positive_and_deterministic() {
        let first = measure_truncated_improvement(&[256]);
        assert_eq!(first.len(), 1);
        let line = &first[0];
        assert_eq!(line.bits, 256);
        assert!(
            line.improvement > 0.10,
            "truncated must clearly beat classic: {line:?}"
        );
        assert!(line.truncated_cycles < line.classic_cycles, "{line:?}");
        // Deterministic channel: a second run reproduces the cycles.
        let second = measure_truncated_improvement(&[256]);
        assert_eq!(first, second, "modeled channel must be deterministic");
    }

    #[test]
    fn tuned_improvement_clears_the_gate_and_is_deterministic() {
        let first = measure_tuned_improvement(&[512]);
        assert_eq!(first.len(), 1);
        let line = &first[0];
        assert_eq!(line.bits, 512);
        assert!(
            line.improvement >= 0.05,
            "the committed table must cut >= 5% at 512 bits: {line:?}"
        );
        assert!(line.tuned_cycles < line.static_cycles, "{line:?}");
        // Deterministic channel: a second run reproduces the cycles.
        let second = measure_tuned_improvement(&[512]);
        assert_eq!(first, second, "modeled channel must be deterministic");
    }

    #[test]
    fn fleet_speedup_clears_the_gate_and_is_deterministic() {
        let first = measure_fleet_speedup();
        assert!(
            first.speedup >= 1.6,
            "two cards must beat one by >= 1.6x: {first:?}"
        );
        assert!(first.one_card > 0.0 && first.two_cards > first.one_card);
        // Deterministic channel: a second run reproduces the numbers.
        let second = measure_fleet_speedup();
        assert_eq!(first.speedup, second.speedup, "must be deterministic");
    }

    #[test]
    fn verify_overhead_clears_the_gate_and_is_deterministic() {
        let first = measure_verify_overhead();
        assert!(
            first.overhead < 0.05,
            "batched verification must stay under 5% of modeled time: {first:?}"
        );
        assert!(first.verify_seconds > 0.0, "the check must be priced");
        assert!(first.total_seconds > first.verify_seconds);
        // Deterministic channel: a second run reproduces the numbers.
        let second = measure_verify_overhead();
        assert_eq!(first.overhead, second.overhead, "must be deterministic");
    }

    #[test]
    fn structural_mismatches_error() {
        let base = full_report();
        let mut fresh = base.clone();
        fresh.profile = "full".into();
        assert!(compare(&base, &fresh).unwrap_err().contains("profile"));

        let mut fresh = base.clone();
        fresh.backend = "native-x86".into();
        assert!(compare(&base, &fresh).unwrap_err().contains("backend"));

        let mut fresh = base.clone();
        fresh.experiments.retain(|e| e.id != "e14");
        assert!(compare(&base, &fresh).unwrap_err().contains("e14"));

        let mut hollow = base.clone();
        hollow.experiments[0].modeled_throughput = 0.0;
        assert!(compare(&hollow, &base).unwrap_err().contains("positive"));
    }
}
