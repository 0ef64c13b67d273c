//! The schema-versioned bench report (`BENCH_*.json`) format.
//!
//! The harness emits one [`Report`] per run: per experiment, the modeled
//! issue cycles and single-thread time, the deterministic modeled
//! throughput the CI perf gate compares, the host wall time and the
//! per-scope span breakdown. Everything round-trips through
//! [`crate::json`] exactly (`f64` shortest-form printing), so a
//! committed baseline file compares bit-for-bit against a fresh run of
//! the same code. The reader skips fields it does not know, so reports
//! that still carry the older per-experiment `flush` block read too.

use crate::json::Value;
use crate::span::TraceSnapshot;

/// Schema identifier written to every report. v2 added the `backend`
/// field (which vector backend the kernels ran on); v1 reports are
/// still accepted on read and default to `modeled-knc`.
pub const SCHEMA: &str = "phi-bench-report/v2";

/// The previous schema version, accepted on read for committed
/// baselines recorded before the `backend` field existed.
pub const SCHEMA_V1: &str = "phi-bench-report/v1";

/// Per-scope numbers inside one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// Scope name (see [`crate::Scope::name`]).
    pub scope: String,
    /// Spans closed against this scope.
    pub entries: u64,
    /// Exclusive modeled issue cycles (nested spans subtracted).
    pub exclusive_cycles: f64,
    /// Inclusive modeled issue cycles.
    pub total_cycles: f64,
    /// Exclusive host wall seconds.
    pub exclusive_wall_seconds: f64,
}

/// One experiment's worth of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id (`e1` … `e14`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Modeled KNC issue cycles for the whole experiment.
    pub modeled_cycles: f64,
    /// Modeled single-thread seconds (issue cycles × front-end penalty
    /// ÷ clock).
    pub modeled_seconds: f64,
    /// Deterministic throughput the perf gate compares: experiment runs
    /// per modeled second (`1 / modeled_seconds`).
    pub modeled_throughput: f64,
    /// Host wall seconds (informational; machine-dependent).
    pub wall_seconds: f64,
    /// Span breakdown; scopes with no entries are omitted.
    pub spans: Vec<SpanReport>,
}

impl ExperimentReport {
    /// Sum of exclusive span cycles — the work the trace attributed.
    pub fn attributed_cycles(&self) -> f64 {
        self.spans.iter().map(|s| s.exclusive_cycles).sum()
    }

    /// Fraction of `modeled_cycles` attributed to spans (0 when the
    /// experiment modeled no work).
    pub fn span_coverage(&self) -> f64 {
        if self.modeled_cycles == 0.0 {
            0.0
        } else {
            self.attributed_cycles() / self.modeled_cycles
        }
    }

    /// Build the span list from a trace snapshot, omitting idle scopes.
    pub fn spans_from_trace(trace: &TraceSnapshot) -> Vec<SpanReport> {
        trace
            .iter()
            .filter(|(_, s)| s.entries > 0)
            .map(|(scope, s)| SpanReport {
                scope: scope.name().to_owned(),
                entries: s.entries,
                exclusive_cycles: s.exclusive_cycles(),
                total_cycles: s.total_cycles(),
                exclusive_wall_seconds: s.exclusive_wall_seconds(),
            })
            .collect()
    }
}

/// A full harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Always [`SCHEMA`] when produced by this crate.
    pub schema: String,
    /// `"full"` or `"smoke"`.
    pub profile: String,
    /// Vector backend the kernels ran on (`modeled-knc`, `native-x86`).
    /// Wall-clock columns are only host-comparable within one backend.
    pub backend: String,
    /// One entry per experiment run, in execution order.
    pub experiments: Vec<ExperimentReport>,
}

impl Report {
    /// A report for the current schema version, on the modeled backend.
    pub fn new(profile: &str) -> Report {
        Report {
            schema: SCHEMA.to_owned(),
            profile: profile.to_owned(),
            backend: "modeled-knc".to_owned(),
            experiments: Vec::new(),
        }
    }

    /// Serialize to a JSON tree.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::Str(self.schema.clone())),
            ("profile".into(), Value::Str(self.profile.clone())),
            ("backend".into(), Value::Str(self.backend.clone())),
            (
                "experiments".into(),
                Value::Array(self.experiments.iter().map(experiment_to_json).collect()),
            ),
        ])
    }

    /// Serialize to pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Deserialize from a JSON tree.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        let schema = req_str(v, "schema")?;
        let profile = req_str(v, "profile")?;
        // v1 predates the field; every v1 run was modeled.
        let backend = req_str(v, "backend").unwrap_or_else(|_| "modeled-knc".to_owned());
        let experiments = v
            .get("experiments")
            .and_then(Value::as_array)
            .ok_or("missing 'experiments' array")?
            .iter()
            .map(experiment_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            schema,
            profile,
            backend,
            experiments,
        })
    }

    /// Parse and deserialize JSON text.
    pub fn from_json_str(text: &str) -> Result<Report, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        Report::from_json(&v)
    }

    /// Find an experiment by id.
    pub fn experiment(&self, id: &str) -> Option<&ExperimentReport> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// Structural validation: schema version, at least one experiment,
    /// unique ids, and finite non-negative numbers throughout.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA && self.schema != SCHEMA_V1 {
            return Err(format!(
                "schema mismatch: got '{}', expected '{SCHEMA}' (or legacy '{SCHEMA_V1}')",
                self.schema
            ));
        }
        if self.experiments.is_empty() {
            return Err("report contains no experiments".into());
        }
        let mut ids: Vec<&str> = self.experiments.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(format!("duplicate experiment id '{}'", pair[0]));
            }
        }
        for e in &self.experiments {
            let named = [
                ("modeled_cycles", e.modeled_cycles),
                ("modeled_seconds", e.modeled_seconds),
                ("modeled_throughput", e.modeled_throughput),
                ("wall_seconds", e.wall_seconds),
            ];
            for (name, x) in named {
                if !x.is_finite() || x < 0.0 {
                    return Err(format!(
                        "{}: {name} = {x} is not a finite non-negative",
                        e.id
                    ));
                }
            }
            for s in &e.spans {
                if !s.exclusive_cycles.is_finite() || s.exclusive_cycles < 0.0 {
                    return Err(format!("{}: span '{}' has bad cycles", e.id, s.scope));
                }
            }
        }
        Ok(())
    }
}

fn experiment_to_json(e: &ExperimentReport) -> Value {
    let spans = e
        .spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("scope".into(), Value::Str(s.scope.clone())),
                ("entries".into(), Value::Num(s.entries as f64)),
                ("exclusive_cycles".into(), Value::Num(s.exclusive_cycles)),
                ("total_cycles".into(), Value::Num(s.total_cycles)),
                (
                    "exclusive_wall_seconds".into(),
                    Value::Num(s.exclusive_wall_seconds),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("id".into(), Value::Str(e.id.clone())),
        ("title".into(), Value::Str(e.title.clone())),
        ("modeled_cycles".into(), Value::Num(e.modeled_cycles)),
        ("modeled_seconds".into(), Value::Num(e.modeled_seconds)),
        (
            "modeled_throughput".into(),
            Value::Num(e.modeled_throughput),
        ),
        ("wall_seconds".into(), Value::Num(e.wall_seconds)),
        ("span_coverage".into(), Value::Num(e.span_coverage())),
        ("spans".into(), Value::Array(spans)),
    ])
}

fn experiment_from_json(v: &Value) -> Result<ExperimentReport, String> {
    let id = req_str(v, "id")?;
    let spans = v
        .get("spans")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{id}: missing 'spans' array"))?
        .iter()
        .map(|s| {
            Ok(SpanReport {
                scope: req_str(s, "scope")?,
                entries: req_u64(s, "entries")?,
                exclusive_cycles: req_f64(s, "exclusive_cycles")?,
                total_cycles: req_f64(s, "total_cycles")?,
                exclusive_wall_seconds: req_f64(s, "exclusive_wall_seconds")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ExperimentReport {
        title: req_str(v, "title")?,
        modeled_cycles: req_f64(v, "modeled_cycles")?,
        modeled_seconds: req_f64(v, "modeled_seconds")?,
        modeled_throughput: req_f64(v, "modeled_throughput")?,
        wall_seconds: req_f64(v, "wall_seconds")?,
        spans,
        id,
    })
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number field '{key}'"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("smoke");
        r.experiments.push(ExperimentReport {
            id: "e1".into(),
            title: "big-number multiplication".into(),
            modeled_cycles: 123456.789,
            modeled_seconds: 2.345e-4,
            modeled_throughput: 1.0 / 2.345e-4,
            wall_seconds: 0.012,
            spans: vec![
                SpanReport {
                    scope: "big_mul".into(),
                    entries: 64,
                    exclusive_cycles: 23456.789,
                    total_cycles: 123000.0,
                    exclusive_wall_seconds: 0.002,
                },
                SpanReport {
                    scope: "vmul".into(),
                    entries: 64,
                    exclusive_cycles: 100000.0,
                    total_cycles: 100000.0,
                    exclusive_wall_seconds: 0.009,
                },
            ],
        });
        r.experiments.push(ExperimentReport {
            id: "e14".into(),
            title: "batch service under load".into(),
            modeled_cycles: 9e6,
            modeled_seconds: 1.7e-2,
            modeled_throughput: 1.0 / 1.7e-2,
            wall_seconds: 0.4,
            spans: vec![],
        });
        r
    }

    #[test]
    fn json_round_trip_is_identical() {
        let r = sample();
        let text = r.to_json_string();
        let back = Report::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        // And a second trip through text is byte-stable.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn validate_accepts_sample_and_rejects_corruption() {
        let r = sample();
        r.validate().unwrap();

        let mut bad = r.clone();
        bad.schema = "phi-bench-report/v0".into();
        assert!(bad.validate().unwrap_err().contains("schema"));

        let mut bad = r.clone();
        bad.experiments[1].id = "e1".into();
        assert!(bad.validate().unwrap_err().contains("duplicate"));

        let mut bad = r.clone();
        bad.experiments[0].modeled_cycles = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = r.clone();
        bad.experiments.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn coverage_sums_exclusive_spans() {
        let r = sample();
        let e1 = r.experiment("e1").unwrap();
        let cov = e1.span_coverage();
        assert!((cov - 123456.789 / 123456.789).abs() < 1e-9, "{cov}");
        assert_eq!(r.experiment("e14").unwrap().span_coverage(), 0.0);
        assert!(r.experiment("e99").is_none());
    }

    #[test]
    fn legacy_v1_reports_parse_and_validate_with_default_backend() {
        let mut v1 = sample();
        v1.schema = SCHEMA_V1.to_owned();
        // Serialize, then strip the backend field as a real v1 file has none.
        let text = v1
            .to_json_string()
            .replace("\n  \"backend\": \"modeled-knc\",", "");
        assert!(!text.contains("backend"));
        let back = Report::from_json_str(&text).unwrap();
        assert_eq!(back.schema, SCHEMA_V1);
        assert_eq!(back.backend, "modeled-knc");
        back.validate().unwrap();
    }

    #[test]
    fn missing_fields_are_reported() {
        let e = Report::from_json_str("{\"schema\":\"x\"}").unwrap_err();
        assert!(e.contains("profile"), "{e}");
        let e = Report::from_json_str("not json").unwrap_err();
        assert!(e.contains("parse error"), "{e}");
    }
}
