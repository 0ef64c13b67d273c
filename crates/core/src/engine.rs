//! The batched CRT engine: the card-side service loop of the paper's
//! deployment — sixteen RSA private operations per pass, each half of the
//! CRT running through the 16-way lane-batched Montgomery ladder.
//!
//! For a server with one private key, every request shares `(p, q, dp,
//! dq, qInv)`, so a batch of ciphertexts is exactly the shape
//! [`BatchMont`] wants: the two half-size exponentiations run with one
//! shared exponent each, and only the Garner recombination is per-lane.
//!
//! An engine is built one way, from a [`PhiConfig`]: window width,
//! vector backend and [`Tuning`] all come from the config. The batch
//! ladders run the truncated kernel (`MontVariant::Auto`), or the
//! committed generated kernel under [`Tuning::Table`]; single operations
//! run the intra-operand [`VMontCtx`] ladder, as do masked calls with at
//! most [`SINGLE_OP_MAX_LIVE`] live lanes: lanes pay only when enough are.

use crate::batch::{BatchMont, MontVariant, BATCH_WIDTH};
use crate::crt::CrtKey;
use crate::genmont::GenMontCtx;
use crate::library::PhiConfig;
use crate::radix::VecNum;
use crate::tuning::{Tuning, TuningTable};
use crate::vexp::{exp_fixed_window_vec, TableLookup};
use crate::vmont::VMontCtx;
use crate::vmul::big_mul_with_backend;
use phi_backend::ResolvedBackend;
use phi_bigint::{BigIntError, BigUint};

/// The most live lanes [`BatchCrtEngine::private_op_masked`] serves as
/// that many single operations instead of one padded 16-lane pass.
///
/// Two, because a pass costs at least 2.68× a single op: on the modeled
/// KNC channel at least 3.98× under `Tuning::Static` and 2.68× under
/// `Tuning::Table` (tightest at 384 bits), at every key size from 127 to
/// 4096 bits, and 5.9–7.3× on the native backend at 256–2048 bits (one
/// AVX2 Xeon core). Two singles always undercut it; three would not.
pub const SINGLE_OP_MAX_LIVE: usize = 2;

/// A reusable engine executing RSA private operations sixteen at a time.
pub struct BatchCrtEngine {
    ctx_p: VMontCtx,
    ctx_q: VMontCtx,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    n: BigUint,
    window: u32,
    tuning: Tuning,
    /// Generated half-size contexts `(p, q)`, present only when the
    /// tuning policy selected a committed `generated` winner applicable
    /// to both halves.
    generated: Option<(GenMontCtx, GenMontCtx)>,
}

impl BatchCrtEngine {
    /// Build from CRT key material and a validated [`PhiConfig`] (build
    /// one with `PhiConfig::builder()`). Delegates to
    /// [`from_parts`](Self::from_parts).
    pub fn with_config(key: &CrtKey, config: &PhiConfig) -> Result<Self, BigIntError> {
        Self::from_parts(
            key.modulus().clone(),
            key.dp().clone(),
            key.dq().clone(),
            key.qinv().clone(),
            key.p_modulus().clone(),
            key.q_modulus().clone(),
            config,
        )
    }

    /// Build from raw CRT components (`n = p·q` is trusted, not
    /// recomputed); window width, backend and tuning come from `config`.
    ///
    /// Builds exactly one [`VMontCtx`] per half, plus one [`GenMontCtx`]
    /// per half when `config.tuning` selects a generated kernel for this
    /// key size, and never a [`CrtKey`]. Callers that hold a key's parts
    /// (the offload service builds one engine per card) use this rather
    /// than [`with_config`](Self::with_config), whose `CrtKey` costs two
    /// more Montgomery contexts the engine never uses.
    pub fn from_parts(
        n: BigUint,
        dp: BigUint,
        dq: BigUint,
        qinv: BigUint,
        p: BigUint,
        q: BigUint,
        config: &PhiConfig,
    ) -> Result<Self, BigIntError> {
        assert!(
            (1..=7).contains(&config.window),
            "fixed-window width {} outside 1..=7",
            config.window
        );
        let backend = config.backend.resolve();
        let ctx_p = VMontCtx::with_backend(&p, backend)?;
        let ctx_q = VMontCtx::with_backend(&q, backend)?;
        let generated = generated_halves(&n, &p, &q, config.tuning, backend);
        Ok(BatchCrtEngine {
            ctx_p,
            ctx_q,
            p,
            q,
            dp,
            dq,
            qinv,
            n,
            window: config.window,
            tuning: config.tuning,
            generated,
        })
    }

    /// The active tuning policy.
    pub fn tuning(&self) -> Tuning {
        self.tuning
    }

    /// Whether the batch ladders currently dispatch to a generated
    /// (table-selected) kernel rather than the static ones.
    pub fn tuned_kernel_active(&self) -> bool {
        self.generated.is_some()
    }

    /// The backend this engine's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.ctx_p.backend()
    }

    /// The public modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Execute `c^d mod n` for exactly [`BATCH_WIDTH`] ciphertexts.
    pub fn private_op_16(&self, cts: &[BigUint]) -> Vec<BigUint> {
        assert_eq!(cts.len(), BATCH_WIDTH, "need exactly {BATCH_WIDTH} inputs");
        // Two shared-exponent batched ladders, through the generated
        // kernel when the tuning table selected one (bit-identical —
        // only the modeled cycle count moves)…
        let (m1, m2) = if let Some((gp, gq)) = &self.generated {
            (gp.mod_exp_16(cts, &self.dp), gq.mod_exp_16(cts, &self.dq))
        } else {
            let bp = BatchMont::with_variant(&self.ctx_p, MontVariant::Auto);
            let bq = BatchMont::with_variant(&self.ctx_q, MontVariant::Auto);
            (
                bp.mod_exp_16(cts, &self.dp, self.window),
                bq.mod_exp_16(cts, &self.dq, self.window),
            )
        };
        // …then per-lane Garner recombination.
        let _span = phi_trace::span(phi_trace::Scope::CrtRecombine);
        let qinv_mont = self.ctx_p.to_mont_vec(&self.qinv);
        m1.iter()
            .zip(m2.iter())
            .map(|(m1, m2)| self.recombine(&qinv_mont, m1, m2))
            .collect()
    }

    /// Execute 1..=[`BATCH_WIDTH`] operations, each result in input order.
    ///
    /// Up to [`SINGLE_OP_MAX_LIVE`] run one by one through
    /// [`private_op_single`](Self::private_op_single). More run as one
    /// full-width pass whose dead lanes are padded with the ciphertext 1
    /// (whose private op is again 1, a valid residue for every key) and
    /// discarded; that pass costs a full batch whatever its occupancy.
    pub fn private_op_masked(&self, cts: &[BigUint]) -> Vec<BigUint> {
        assert!(
            !cts.is_empty() && cts.len() <= BATCH_WIDTH,
            "need 1..={BATCH_WIDTH} inputs, got {}",
            cts.len()
        );
        if cts.len() <= SINGLE_OP_MAX_LIVE {
            return cts.iter().map(|c| self.private_op_single(c)).collect();
        }
        if cts.len() == BATCH_WIDTH {
            return self.private_op_16(cts);
        }
        let mut padded = cts.to_vec();
        padded.resize(BATCH_WIDTH, BigUint::one());
        let mut out = self.private_op_16(&padded);
        out.truncate(cts.len());
        out
    }

    /// One operation through the intra-operand single-op kernel.
    pub fn private_op_single(&self, c: &BigUint) -> BigUint {
        let half = |ctx: &VMontCtx, d: &BigUint| {
            let r = exp_fixed_window_vec(
                ctx,
                &ctx.to_mont_vec(c),
                d,
                self.window,
                TableLookup::Direct,
            );
            ctx.from_mont_vec(&r)
        };
        let (m1, m2) = (half(&self.ctx_p, &self.dp), half(&self.ctx_q, &self.dq));
        let _span = phi_trace::span(phi_trace::Scope::CrtRecombine);
        let qinv_mont = self.ctx_p.to_mont_vec(&self.qinv);
        self.recombine(&qinv_mont, &m1, &m2)
    }

    /// Garner recombination of one lane's half results:
    /// `m2 + q·(qInv·(m1 − m2) mod p)`.
    fn recombine(&self, qinv_mont: &VecNum, m1: &BigUint, m2: &BigUint) -> BigUint {
        let diff = m1.mod_sub(m2, &self.p);
        let h = self
            .ctx_p
            .mont_mul_vec(qinv_mont, &self.ctx_p.to_vec_form(&diff))
            .to_biguint();
        m2 + &big_mul_with_backend(&h, &self.q, self.backend())
    }
}

/// The generated half-size contexts the committed table selects for an
/// `n`-sized key under `tuning`, or `None` to stay on the static kernels
/// (`Static` never reads the table). Both halves must admit the point,
/// so the two CRT ladders always run the same kernel; a point
/// inapplicable to either half falls back.
fn generated_halves(
    n: &BigUint,
    p: &BigUint,
    q: &BigUint,
    tuning: Tuning,
    backend: ResolvedBackend,
) -> Option<(GenMontCtx, GenMontCtx)> {
    if tuning == Tuning::Static {
        return None;
    }
    let params = TuningTable::committed().params_for_modulus(n.bit_length(), backend.name())?;
    match (
        GenMontCtx::new(p, params, backend),
        GenMontCtx::new(q, params, backend),
    ) {
        (Ok(gp), Ok(gq)) => Some((gp, gq)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_simd::count::{self, OpClass};

    fn demo() -> (BatchCrtEngine, CrtKey, BigUint, BigUint) {
        let p = BigUint::from_hex("ffffffffffffffc5").unwrap(); // 2^64-59
        let q = BigUint::from_hex("7fffffffffffffe7").unwrap(); // 2^63-25
        let e = BigUint::from(65537u64);
        let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
        let d = e.mod_inverse(&phi).unwrap();
        let key = CrtKey::new(&p, &q, &d).unwrap();
        let engine = BatchCrtEngine::with_config(&key, &PhiConfig::default()).unwrap();
        (engine, key, e, d)
    }

    /// The raw-parts constructor over `key`'s components.
    fn from_key(key: &CrtKey, config: &PhiConfig) -> BatchCrtEngine {
        BatchCrtEngine::from_parts(
            key.modulus().clone(),
            key.dp().clone(),
            key.dq().clone(),
            key.qinv().clone(),
            key.p_modulus().clone(),
            key.q_modulus().clone(),
            config,
        )
        .unwrap()
    }

    fn table() -> PhiConfig {
        PhiConfig::builder().tuning(Tuning::Table).build()
    }

    fn ciphertexts(n: &BigUint, e: &BigUint, count: usize) -> (Vec<BigUint>, Vec<BigUint>) {
        let msgs: Vec<BigUint> = (0..count as u64)
            .map(|i| &BigUint::from(0x1234_5678u64 + i * 7919) % n)
            .collect();
        let cts = msgs.iter().map(|m| m.mod_exp(e, n)).collect();
        (msgs, cts)
    }

    #[test]
    fn batch_of_16_decrypts_correctly() {
        let (engine, _, e, _) = demo();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(engine.private_op_16(&cts), msgs);
    }

    #[test]
    fn batch_matches_single_lane_path() {
        let (engine, key, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        let batch = engine.private_op_16(&cts);
        for (i, c) in cts.iter().enumerate() {
            assert_eq!(batch[i], engine.private_op_single(c), "lane {i}");
            assert_eq!(
                batch[i],
                key.private_op(c, 5, TableLookup::Direct),
                "vs CrtKey {i}"
            );
        }
    }

    #[test]
    fn batch_is_cheaper_per_op_than_singles() {
        let (engine, _, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        count::reset();
        let (_, batched) = count::measure(|| engine.private_op_16(&cts));
        let (_, singles) = count::measure(|| {
            cts.iter()
                .map(|c| engine.private_op_single(c))
                .collect::<Vec<_>>()
        });
        let model = phi_simd::CostModel::knc();
        assert!(
            model.issue_cycles(&batched) < model.issue_cycles(&singles),
            "batched {} !< singles {}",
            model.issue_cycles(&batched),
            model.issue_cycles(&singles)
        );
        // And it never touches the scalar multiplier in the ladders.
        let _ = batched.get(OpClass::SMul64);
    }

    #[test]
    fn masked_batch_matches_full_occupancy_semantics() {
        let (engine, _, e, _) = demo();
        for live in [1usize, 2, 7, 15] {
            let (msgs, cts) = ciphertexts(engine.modulus(), &e, live);
            assert_eq!(engine.private_op_masked(&cts), msgs, "live {live}");
        }
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(engine.private_op_masked(&cts), msgs);
    }

    #[test]
    fn masked_batch_costs_full_width() {
        let (engine, _, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        count::reset();
        let (_, full) = count::measure(|| engine.private_op_16(&cts));
        let (_, masked) = count::measure(|| engine.private_op_masked(&cts[..3]));
        // Dead lanes still execute: a 3-live-lane pass issues the same
        // vector work as a full one (ciphertext values change the windowed
        // multiply pattern slightly; vector multiplies dominate and match).
        assert_eq!(masked.get(OpClass::VMul), full.get(OpClass::VMul));
    }

    /// One and two live lanes run as exactly that many single ops, op for
    /// op, and issue fewer cycles than the padded pass they replace.
    #[test]
    fn sparse_masked_calls_cost_exactly_their_singles() {
        let (engine, _, e, _) = demo();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        let model = phi_simd::CostModel::knc();
        count::reset();
        let (_, pass) = count::measure(|| engine.private_op_16(&cts));
        for live in [1usize, 2] {
            let (got, masked) = count::measure(|| engine.private_op_masked(&cts[..live]));
            let (_, singles) = count::measure(|| {
                cts[..live]
                    .iter()
                    .map(|c| engine.private_op_single(c))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, msgs[..live], "live {live}");
            assert_eq!(masked, singles, "live {live}: not the single-op path");
            assert!(
                model.issue_cycles(&masked) < model.issue_cycles(&pass),
                "live {live}: {} !< pass {}",
                model.issue_cycles(&masked),
                model.issue_cycles(&pass)
            );
        }
    }

    /// The crossover on the modeled channel: [`SINGLE_OP_MAX_LIVE`] single
    /// ops undercut one 16-lane pass under both tunings, at the demo key
    /// and at 256-, 384- and 512-bit keys. A kernel change that lets a
    /// pass undercut two singles fails here.
    #[test]
    fn single_ops_undercut_a_pass_up_to_the_crossover() {
        let e = BigUint::from(65537u64);
        // 2^b − k is prime for each (b, k) below.
        let below = |b: u32, k: u64| &BigUint::power_of_two(b) - &BigUint::from(k);
        let mut keys = vec![demo().1];
        for (b, kp, kq) in [(128, 159, 173), (192, 237, 333), (256, 189, 357)] {
            let (p, q) = (below(b, kp), below(b, kq));
            let phi = &(&p - &BigUint::one()) * &(&q - &BigUint::one());
            keys.push(CrtKey::new(&p, &q, &e.mod_inverse(&phi).unwrap()).unwrap());
        }
        let model = phi_simd::CostModel::knc();
        for key in &keys {
            let (msgs, cts) = ciphertexts(key.modulus(), &e, BATCH_WIDTH);
            for config in [PhiConfig::default(), table()] {
                let engine = BatchCrtEngine::with_config(key, &config).unwrap();
                let (out, pass) = count::measure(|| engine.private_op_16(&cts));
                let (one, single) = count::measure(|| engine.private_op_single(&cts[0]));
                assert_eq!(out, msgs);
                assert_eq!(one, msgs[0]);
                let (pass, single) = (model.issue_cycles(&pass), model.issue_cycles(&single));
                assert!(
                    SINGLE_OP_MAX_LIVE as f64 * single < pass,
                    "{}-bit key, {}: pass/single {:.2}",
                    key.modulus().bit_length(),
                    config.tuning,
                    pass / single
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "need 1..=16")]
    fn masked_batch_rejects_oversize() {
        let (engine, _, e, _) = demo();
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH + 1);
        engine.private_op_masked(&cts);
    }

    #[test]
    fn both_constructors_honor_window_and_backend() {
        let (engine, key, e, _) = demo();
        let config = PhiConfig::builder().window(3).unwrap().build();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        for windowed in [
            BatchCrtEngine::with_config(&key, &config).unwrap(),
            from_key(&key, &config),
        ] {
            assert_eq!(windowed.window, 3);
            assert_eq!(windowed.backend(), ResolvedBackend::ModeledKnc);
            assert_eq!(windowed.private_op_16(&cts), msgs);
            assert_eq!(windowed.private_op_single(&cts[0]), msgs[0]);
        }
    }

    #[test]
    fn tuned_table_dispatch_stays_bit_identical() {
        let (engine, key, e, _) = demo();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        let want = engine.private_op_16(&cts);
        assert_eq!(want, msgs);
        // Static never consults the table.
        assert_eq!(engine.tuning(), Tuning::Static);
        assert!(!engine.tuned_kernel_active());
        // The demo key rounds up to the 512-bit table cell, whose
        // generated winner admits the tiny halves — the tuned engine
        // must dispatch it and stay bit-identical, through either
        // constructor.
        for tuned in [
            BatchCrtEngine::with_config(&key, &table()).unwrap(),
            from_key(&key, &table()),
        ] {
            assert_eq!(tuned.tuning(), Tuning::Table);
            assert!(tuned.tuned_kernel_active());
            assert_eq!(tuned.private_op_16(&cts), want);
            assert_eq!(tuned.private_op_masked(&cts[..5]), msgs[..5]);
        }
    }

    /// The setup bill the one raw-parts constructor must keep: one
    /// context per CRT half, two more only when the table selects a
    /// generated kernel, and none for a `CrtKey` — building the key is
    /// what would cost an offload card two unused contexts.
    #[test]
    fn constructors_build_only_the_contexts_the_engine_runs() {
        let (_, key, _, d) = demo();
        let parts = |config: PhiConfig| count::measure_ctx_setups(|| from_key(&key, &config)).1;
        assert_eq!(parts(PhiConfig::default()), 2, "static: one per half");
        assert_eq!(parts(table()), 4, "table: plus one generated per half");
        let (_, with_config) = count::measure_ctx_setups(|| {
            BatchCrtEngine::with_config(&key, &PhiConfig::default()).unwrap()
        });
        assert_eq!(with_config, 2, "a prebuilt CrtKey adds nothing");
        let (_, crt_key) = count::measure_ctx_setups(|| {
            CrtKey::new(key.p_modulus(), key.q_modulus(), &d).unwrap()
        });
        assert_eq!(
            crt_key, 2,
            "building the CrtKey is the cost from_parts avoids"
        );
    }

    #[test]
    fn native_engine_matches_modeled_bit_for_bit() {
        if !phi_backend::CpuFeatures::detect().avx2 {
            return; // no native backend on this host
        }
        let (engine, key, e, _) = demo();
        let config = PhiConfig::builder()
            .backend(phi_backend::Backend::NativeX86)
            .unwrap()
            .build();
        let native = from_key(&key, &config);
        assert_eq!(native.backend(), ResolvedBackend::NativeX86);
        let (_, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        assert_eq!(native.private_op_16(&cts), engine.private_op_16(&cts));
        assert_eq!(
            native.private_op_single(&cts[0]),
            engine.private_op_single(&cts[0])
        );
    }
}
