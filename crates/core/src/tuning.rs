//! The committed tuning table.
//!
//! `phi-tune --emit` searches the [`crate::params::KernelParams`] space
//! (radix × window) per key size on the deterministic modeled channel
//! and writes `bench/tuning.json`, one row per key size; this module
//! embeds that table at compile time and answers "which point should a
//! modulus of this size run?". Because the search channel is noise-free,
//! the committed table is a reproducible fact about the cost model, not
//! a machine-local measurement — `phi-tune --check` re-derives it in CI
//! and fails on staleness.
//!
//! Every [`BatchCrtEngine`](crate::BatchCrtEngine) runs its key size's
//! row on every backend, and the static point
//! ([`KernelParams::static_defaults`]) where no row admits its CRT
//! halves. A row always names the point to run: where the static point
//! wins the search, the row records it.

use crate::params::KernelParams;
use phi_trace::json::Value;
use std::fmt;
use std::sync::OnceLock;

/// Schema tag the embedded table must carry.
pub const TUNING_SCHEMA: &str = "phi-tuning/v2";

/// The committed table, embedded at compile time.
const COMMITTED_TABLE: &str = include_str!("../../../bench/tuning.json");

/// A malformed tuning table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuningError {
    /// The document was not valid JSON.
    Json(String),
    /// The schema tag was missing or unexpected.
    Schema(String),
    /// An entry was missing a field or carried an invalid value.
    Entry(String),
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuningError::Json(e) => write!(f, "tuning table is not valid JSON: {e}"),
            TuningError::Schema(s) => write!(
                f,
                "unsupported tuning schema {s:?} (want {TUNING_SCHEMA:?})"
            ),
            TuningError::Entry(e) => write!(f, "malformed tuning entry: {e}"),
        }
    }
}

impl std::error::Error for TuningError {}

/// One searched row of the tuning table.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedEntry {
    /// RSA key size this row was searched for (the modulus size; the
    /// CRT engine runs its kernels on the `key_bits / 2` halves).
    pub key_bits: u32,
    /// The parameter point the batch engine runs for this key size.
    pub params: KernelParams,
    /// Modeled cycles of one full-occupancy batch ladder pass at the
    /// static point (per CRT half).
    pub cycles_static: f64,
    /// Modeled cycles of the same pass at `params`.
    pub cycles_tuned: f64,
}

/// A parsed tuning table.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTable {
    /// Schema tag ([`TUNING_SCHEMA`]).
    pub schema: String,
    /// Search seed recorded for reproducibility.
    pub seed: u64,
    /// One entry per searched key size.
    pub entries: Vec<TunedEntry>,
}

impl TuningTable {
    /// The table committed at `bench/tuning.json`, parsed once.
    ///
    /// Panics if the committed file is malformed — that is a build
    /// defect (the file is embedded at compile time and CI regenerates
    /// it), not a runtime condition.
    pub fn committed() -> &'static TuningTable {
        static TABLE: OnceLock<TuningTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            TuningTable::parse(COMMITTED_TABLE).expect("committed bench/tuning.json must parse")
        })
    }

    /// Parse a table document, validating the schema, every entry, and
    /// that no key size has two rows.
    pub fn parse(text: &str) -> Result<TuningTable, TuningError> {
        let doc = Value::parse(text).map_err(|e| TuningError::Json(format!("{e:?}")))?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| TuningError::Schema("<missing>".into()))?;
        if schema != TUNING_SCHEMA {
            return Err(TuningError::Schema(schema.into()));
        }
        let seed = doc.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let raw_entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| TuningError::Entry("missing entries array".into()))?;
        let mut entries: Vec<TunedEntry> = Vec::with_capacity(raw_entries.len());
        for (i, e) in raw_entries.iter().enumerate() {
            let entry =
                parse_entry(e).map_err(|msg| TuningError::Entry(format!("entry {i}: {msg}")))?;
            if entries.iter().any(|seen| seen.key_bits == entry.key_bits) {
                return Err(TuningError::Entry(format!(
                    "entry {i}: a second row for {}-bit keys",
                    entry.key_bits
                )));
            }
            entries.push(entry);
        }
        Ok(TuningTable {
            schema: schema.into(),
            seed,
            entries,
        })
    }

    /// Serialize back to the committed JSON shape (pretty, stable order).
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("key_bits".into(), Value::Num(e.key_bits as f64)),
                    (
                        "params".into(),
                        Value::Object(vec![
                            ("radix_bits".into(), Value::Num(e.params.radix_bits as f64)),
                            ("window".into(), Value::Num(e.params.window as f64)),
                        ]),
                    ),
                    ("cycles_static".into(), Value::Num(e.cycles_static)),
                    ("cycles_tuned".into(), Value::Num(e.cycles_tuned)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::Str(self.schema.clone())),
            ("generator".into(), Value::Str("phi-tune --emit".into())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("entries".into(), Value::Array(entries)),
        ])
        .to_string_pretty()
    }

    /// The row for an exact key size.
    pub fn lookup(&self, key_bits: u32) -> Option<&TunedEntry> {
        self.entries.iter().find(|e| e.key_bits == key_bits)
    }

    /// The row governing a modulus of `mod_bits` bits: the smallest
    /// searched key size that accommodates it (an RSA modulus of a
    /// `k`-bit key has `k` or `k - 1` significant bits, so exact matching
    /// alone would miss half of real keys).
    pub fn entry_for_modulus(&self, mod_bits: u32) -> Option<&TunedEntry> {
        self.entries
            .iter()
            .filter(|e| e.key_bits >= mod_bits)
            .min_by_key(|e| e.key_bits)
    }

    /// The parameter point a modulus's CRT halves run, already
    /// re-validated against the *actual* modulus size — `None` means "no
    /// row admits these halves; run the static point".
    pub fn params_for_modulus(&self, mod_bits: u32) -> Option<KernelParams> {
        let entry = self.entry_for_modulus(mod_bits);
        debug_assert!(
            entry.is_some() || mod_bits > 4096,
            "the table expects a committed row for {mod_bits}-bit moduli"
        );
        let params = entry?.params;
        // The row is keyed by the nominal RSA key size but its kernel
        // runs on the CRT halves (the search validated at `key_bits/2`),
        // so the point is re-validated at the concrete half width here —
        // and once more against each actual half when the kernel is
        // built, which catches oddly split keys.
        params.validate(mod_bits.div_ceil(2)).ok().map(|()| params)
    }
}

fn parse_entry(e: &Value) -> Result<TunedEntry, String> {
    let field_u32 = |v: &Value, key: &str| -> Result<u32, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("missing or invalid {key}"))
    };
    let key_bits = field_u32(e, "key_bits")?;
    let p = e.get("params").ok_or("missing params")?;
    let params = KernelParams {
        radix_bits: field_u32(p, "radix_bits")?,
        window: field_u32(p, "window")?,
    };
    let cycles_static = e
        .get("cycles_static")
        .and_then(Value::as_f64)
        .ok_or("missing cycles_static")?;
    let cycles_tuned = e
        .get("cycles_tuned")
        .and_then(Value::as_f64)
        .ok_or("missing cycles_tuned")?;
    // A row must be runnable at its nominal half size (the CRT engine
    // runs exactly that, or one bit less).
    params
        .validate(key_bits / 2)
        .map_err(|err| format!("point invalid at {key_bits}/2 bits: {err}"))?;
    Ok(TunedEntry {
        key_bits,
        params,
        cycles_static,
        cycles_tuned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_parses_and_is_total() {
        let t = TuningTable::committed();
        assert_eq!(t.schema, TUNING_SCHEMA);
        assert_eq!(t.entries.len(), 4, "one row per key size");
        for key_bits in [512u32, 1024, 2048, 4096] {
            let e = t
                .lookup(key_bits)
                .unwrap_or_else(|| panic!("missing row {key_bits}"));
            e.params.validate(key_bits / 2).unwrap();
        }
    }

    #[test]
    fn round_trips_through_json() {
        let t = TuningTable::committed();
        let again = TuningTable::parse(&t.to_json()).unwrap();
        assert_eq!(&again, t);
    }

    #[test]
    fn modulus_lookup_rounds_up_to_the_nominal_key_size() {
        let t = TuningTable::committed();
        // A 2047-bit modulus (2048-bit key with a short top limb) maps
        // to the 2048 row.
        let e = t.entry_for_modulus(2047).unwrap();
        assert_eq!(e.key_bits, 2048);
        // Beyond the largest searched size there is no row.
        assert!(t.entry_for_modulus(5000).is_none());
        assert_eq!(t.params_for_modulus(5000), None);
    }

    #[test]
    fn table_params_revalidate_at_the_half_width() {
        let t = TuningTable::committed();
        // Every supported key size must hand out params admissible at
        // the CRT half its kernels actually run on — in particular the
        // 1024 row's radix-29 point is inadmissible at 1024 bits but
        // valid at its 512-bit halves.
        for bits in [512u32, 1024, 2048, 4096] {
            let p = t
                .params_for_modulus(bits)
                .expect("committed rows apply at their own key size");
            p.validate(bits / 2).unwrap();
        }
        // A key_bits - 1-bit modulus (short top limb) still resolves.
        assert!(t.params_for_modulus(1023).is_some());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(matches!(
            TuningTable::parse("not json"),
            Err(TuningError::Json(_))
        ));
        assert!(matches!(
            TuningTable::parse(r#"{"schema": "phi-tuning/v0", "entries": []}"#),
            Err(TuningError::Schema(_))
        ));
        let bad_entry = r#"{"schema": "phi-tuning/v2", "entries": [{"key_bits": 512}]}"#;
        assert!(matches!(
            TuningTable::parse(bad_entry),
            Err(TuningError::Entry(_))
        ));
        // A row with an inadmissible radix is rejected.
        let bad_params = r#"{"schema": "phi-tuning/v2", "entries": [{
            "key_bits": 4096, "params": {"radix_bits": 30, "window": 5},
            "cycles_static": 1.0, "cycles_tuned": 1.0}]}"#;
        let err = TuningTable::parse(bad_params).unwrap_err();
        assert!(err.to_string().contains("inadmissible"));
    }

    /// The previous schema's two-column, five-axis document no longer
    /// parses: its per-backend rows and `winner`, `variant`, `unroll`
    /// and `occupancy` fields are gone with the axes they recorded.
    #[test]
    fn rejects_a_v1_document() {
        let v1 = r#"{"schema": "phi-tuning/v1", "seed": 42, "entries": [{
            "key_bits": 512, "backend": "modeled-knc", "winner": "generated",
            "params": {"radix_bits": 29, "window": 4, "variant": "truncated",
                       "unroll": 8, "occupancy": 16},
            "cycles_static": 390271, "cycles_tuned": 334119}]}"#;
        assert_eq!(
            TuningTable::parse(v1),
            Err(TuningError::Schema("phi-tuning/v1".into()))
        );
    }

    /// One row per key size: a second row for a size (what a v1
    /// backend column would be) is a malformed table.
    #[test]
    fn rejects_two_rows_for_one_key_size() {
        let row = r#"{"key_bits": 512, "params": {"radix_bits": 29, "window": 4},
            "cycles_static": 390271, "cycles_tuned": 334119}"#;
        let doc = format!(r#"{{"schema": "phi-tuning/v2", "entries": [{row}, {row}]}}"#);
        let err = TuningTable::parse(&doc).unwrap_err();
        assert!(
            matches!(&err, TuningError::Entry(msg) if msg.contains("second row for 512-bit")),
            "{err}"
        );
    }
}
