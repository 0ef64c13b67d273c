//! Metric names, units and the result line.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` lists
//! the same names and units (a test keeps the two in step), an untraced
//! run emits every [`E2E`] metric and a traced run every [`per_layer`]
//! metric.

use phi_simd::count::{OpClass, OpCounts};
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("knc_batch_cycles_per_op_1024", "cycles"),
    ("knc_batch_cycles_per_op_2048", "cycles"),
    ("knc_single_cycles_per_op_1024", "cycles"),
    ("knc_single_cycles_per_op_2048", "cycles"),
];

/// Per-layer metrics other than the `simd` op counts: `(name, unit)`.
const LAYER_FIXED: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("ssl.self_ms_per_hs", "ms"),
    ("ssl.resumed_share", "ratio"),
    ("mont.session_setup_ms_per_hs", "ms"),
    ("mont.with_modulus_calls_per_hs", "count"),
    ("core.mod_exp_ms_per_full_hs", "ms"),
    ("core.single_vs_scalar_ratio", "ratio"),
    ("core.pass_ms_occ16", "ms"),
    ("core.pass_ms_occ1", "ms"),
    ("core.batch_vs_scalar_ratio", "ratio"),
    ("rsa.recombine_us_per_full_hs", "us"),
    ("rsa.submit_us_p50", "us"),
    ("rt.flush_wall_p50_ms", "ms"),
    ("rt.flush_wall_p99_ms", "ms"),
    ("rt.flush_overhead_ms", "ms"),
    ("rt.oldest_wait_p50_ms", "ms"),
    ("rt.oldest_wait_p99_ms", "ms"),
    ("rt.deadline_flush_share", "ratio"),
    ("rt.full_flush_share", "ratio"),
    ("rt.mean_occupancy", "lanes"),
    ("rt.lane_waste_share", "ratio"),
    ("rt.flushes", "count"),
    ("rt.card_busy_share", "ratio"),
    ("rt.rejected", "count"),
    ("rt.requeues", "count"),
    ("rt.host_fallback_ops", "count"),
    ("rt.verify_failures", "count"),
    ("rt.verified_ops", "count"),
];

/// The three modeled calls whose op counts the `simd` layer reports.
pub const SIMD_CALLS: [&str; 3] = ["pass", "verify", "single"];

/// The two key sizes of the modeled channel, by slot. Full scale runs
/// exactly these sizes; the tiny self-test scale keeps the names.
pub const KNC_LABELS: [&str; 2] = ["1024", "2048"];

/// Short metric-name form of each op class, in `OpClass::ALL` order.
pub fn class_name(class: OpClass) -> &'static str {
    match class {
        OpClass::VMul => "vmul",
        OpClass::VAlu => "valu",
        OpClass::VPerm => "vperm",
        OpClass::VMem => "vmem",
        OpClass::VMask => "vmask",
        OpClass::SMul64 => "smul64",
        OpClass::SMul32 => "smul32",
        OpClass::SAlu => "salu",
        OpClass::SMem => "smem",
        OpClass::SDiv => "sdiv",
    }
}

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for call in SIMD_CALLS {
        for class in OpClass::ALL {
            for label in KNC_LABELS {
                out.push((
                    format!("simd.{call}.{}_{label}", class_name(class)),
                    "count",
                ));
            }
        }
    }
    for label in KNC_LABELS {
        out.push((format!("simd.verify_share_{label}"), "ratio"));
    }
    out
}

/// Record the op counts of one modeled call under the `simd` names.
pub fn set_counts(m: &mut Metrics, call: &str, label: &str, counts: &OpCounts) {
    for class in OpClass::ALL {
        m.set(
            format!("simd.{call}.{}_{label}", class_name(class)),
            counts.get(class) as f64,
        );
    }
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Every per-layer metric at 0: a layer a workload does not exercise
    /// reads 0 (no handshakes, no flushes, no scheduled sends).
    pub fn layer_defaults() -> Self {
        Metrics(per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over exactly `table`,
    /// failing on a missing, extra or non-finite value.
    pub fn to_json<S: AsRef<str>>(&self, table: &[(S, &str)]) -> Result<String, String> {
        if self.0.len() != table.len() {
            let known: Vec<&str> = table.iter().map(|(n, _)| n.as_ref()).collect();
            let extra: Vec<&str> = self.names().filter(|n| !known.contains(n)).collect();
            if !extra.is_empty() {
                return Err(format!("metrics outside the table: {extra:?}"));
            }
        }
        let mut parts = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let name = name.as_ref();
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_rejects_missing_and_extra() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert_eq!(
            m.to_json(&[("a", "ms")]).unwrap(),
            r#"{"a": {"value": 1.5, "unit": "ms"}}"#
        );
        assert!(m.to_json(&[("a", "ms"), ("b", "s")]).is_err());
        m.set("c", 2.0);
        assert!(m.to_json(&[("a", "ms")]).is_err());
    }
}
