//! The modeled KNC channel, probed at the end of every run. Every call
//! runs on this thread under `phi_simd::count::measure` (the counters
//! are thread-local, so the service's worker threads would be missed) and
//! is priced with `CostModel::knc().issue_cycles`.

use crate::inputs;
use crate::metrics::{self, Metrics, KNC_LABELS};
use crate::Tally;
use phi_backend::Backend;
use phi_rsa::RsaOps;
use phi_simd::count::{self, OpCounts};
use phi_simd::CostModel;
use phiopenssl::batch::BATCH_WIDTH;
use phiopenssl::{BatchCrtEngine, BatchMont, CrtKey, MontVariant, PhiConfig, PhiLibrary, VMontCtx};

fn modeled_config() -> PhiConfig {
    PhiConfig::builder()
        .backend(Backend::ModeledKnc)
        .expect("the modeled backend runs on every host")
        .build()
}

/// Op counts of one key size.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotCounts {
    /// One 16-lane `BatchCrtEngine::private_op_masked` pass.
    pub pass: OpCounts,
    /// The release check of that pass: `BatchMont::pow_eq_16`.
    pub verify: OpCounts,
    /// One warm sequential `RsaOps::private_op` on `PhiLibrary`.
    pub single: OpCounts,
}

/// The modeled probe at both key sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    pub slots: Vec<SlotCounts>,
}

fn nonzero(c: &OpCounts) -> bool {
    c.total_vector_ops() + c.total_scalar_ops() > 0
}

/// Run the modeled pass, release check and single op at each size of
/// `bits`, checking every answer into `tally`.
pub fn probe(seed: u64, bits: [u32; 2], tally: &mut Tally) -> Result<Probe, String> {
    let cfg = modeled_config();
    let mut slots = Vec::with_capacity(bits.len());
    for b in bits {
        let key = inputs::key(seed, b);
        let pairs = inputs::pairs(
            &key,
            &mut inputs::rng(seed, &format!("knc{b}")),
            BATCH_WIDTH + 2,
        );
        let (lanes, rest) = pairs.split_at(BATCH_WIDTH);
        let cts: Vec<_> = lanes.iter().map(|p| p.c.clone()).collect();
        let crt = CrtKey::new(key.p(), key.q(), key.d()).map_err(|e| format!("CRT key: {e}"))?;
        let engine = BatchCrtEngine::with_config(&crt, &cfg).map_err(|e| format!("engine: {e}"))?;
        let (plain, pass) = count::measure(|| engine.private_op_masked(&cts));
        tally.check_lanes(&plain, lanes);

        let ctx = VMontCtx::with_backend(key.public().n(), cfg.backend.resolve())
            .map_err(|e| format!("verify context: {e}"))?;
        let mont = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let (verdicts, verify) = count::measure(|| mont.pow_eq_16(&plain, key.public().e(), &cts));
        for v in verdicts {
            tally.check(Ok::<_, ()>(v), &true);
        }

        let ops = RsaOps::new(Box::new(PhiLibrary::with_config(cfg)));
        tally.check(ops.private_op(&key, &rest[0].c), &rest[0].m);
        let (got, single) = count::measure(|| ops.private_op(&key, &rest[1].c));
        tally.check(got, &rest[1].m);

        if !(nonzero(&pass) && nonzero(&verify) && nonzero(&single)) {
            return Err(format!(
                "modeled op counts are zero at {b} bits: the calls did not run on the modeled backend"
            ));
        }
        slots.push(SlotCounts {
            pass,
            verify,
            single,
        });
    }
    Ok(Probe { slots })
}

impl Probe {
    /// `knc_*` end-to-end metrics and the `simd` per-layer counts.
    pub fn record(&self, e2e: &mut Metrics, layer: &mut Metrics) {
        let model = CostModel::knc();
        for (s, label) in self.slots.iter().zip(KNC_LABELS) {
            let pass = model.issue_cycles(&s.pass);
            let verify = model.issue_cycles(&s.verify);
            e2e.set(
                format!("knc_batch_cycles_per_op_{label}"),
                (pass + verify) / BATCH_WIDTH as f64,
            );
            e2e.set(
                format!("knc_single_cycles_per_op_{label}"),
                model.issue_cycles(&s.single),
            );
            metrics::set_counts(layer, "pass", label, &s.pass);
            metrics::set_counts(layer, "verify", label, &s.verify);
            metrics::set_counts(layer, "single", label, &s.single);
            layer.set(
                format!("simd.verify_share_{label}"),
                verify / (pass + verify),
            );
        }
    }
}
