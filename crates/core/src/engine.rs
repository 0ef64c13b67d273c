//! The batched CRT engine: the card-side service loop of the paper's
//! deployment — sixteen RSA private operations per pass, each half of the
//! CRT running through the 16-way lane-batched Montgomery ladder.
//!
//! For a server with one private key, every request shares `(p, q, dp,
//! dq, qInv)`, so a batch of ciphertexts is exactly the 16-lane
//! shared-modulus shape: the two half-size exponentiations run with one
//! shared exponent each, and only the Garner recombination is per-lane.
//!
//! An engine is built one way, from a [`PhiConfig`], which supplies the
//! vector backend and the single-op window width and table lookup. The batch ladders run
//! the generated kernel ([`GenMontCtx`]) at the committed
//! [`TuningTable`] point for the key size (one row serves every
//! backend), or at [`KernelParams::static_defaults`] where no row admits
//! both halves (keys over 4096 bits); only halves of a single radix-2^27
//! digit run [`BatchMont`]'s classic kernel. Single operations run the
//! intra-operand [`VMontCtx`] ladder, as do masked calls with at most
//! [`SINGLE_OP_MAX_LIVE`] live lanes: lanes pay only when enough are.
//! The release check of a flush crosses over at the same occupancy
//! ([`BatchMont::pow_eq_masked`]).

use crate::batch::{BatchMont, BATCH_WIDTH};
use crate::crt::CrtKey;
use crate::genmont::GenMontCtx;
use crate::library::PhiConfig;
use crate::params::KernelParams;
use crate::radix::VecNum;
use crate::tuning::TuningTable;
use crate::vexp::{exp_fixed_window_vec, TableLookup};
use crate::vmont::VMontCtx;
use crate::vmul::big_mul_with_backend;
use phi_backend::ResolvedBackend;
use phi_bigint::{BigIntError, BigUint};

/// The most live lanes [`BatchCrtEngine::private_op_masked`] serves as
/// that many single operations instead of one padded 16-lane pass, and
/// [`BatchMont::pow_eq_masked`] checks as that many single-lane checks
/// instead of one padded [`BatchMont::pow_eq_16`].
///
/// Two, because a pass costs at least 2.68× a single op on the modeled
/// KNC channel (tightest at 384 bits), at every key size from 127 to
/// 4096 bits. On the native backend it costs 3.6–18× at 256–2048-bit
/// keys (4.25/3.66/8.97/14.0× at 256/512/1024/2048 bits, medians over
/// three runs of the default `x86-64-v3` build pinned to one Xeon core),
/// so three native singles would undercut it too; the modeled crossover
/// sets the constant. The check clears the same
/// bar: one `pow_eq_16` costs 3.8–6.4× a single-lane `pow_eq` on the
/// modeled channel at 256–2048-bit moduli (5.5× at 1024 bits).
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
    /// The single-op ladders' window-table lookup, from
    /// [`PhiConfig::lookup`].
    lookup: TableLookup,
    /// Generated half-size contexts `(p, q)` the batch ladders run:
    /// absent only for halves of a single radix-2^27 digit.
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
    /// recomputed); the single-op window width and table lookup, and the
    /// backend, come from `config`.
    ///
    /// Builds exactly one [`VMontCtx`] and one [`GenMontCtx`] per half
    /// (no `GenMontCtx` for single-digit halves), and never a [`CrtKey`].
    /// Callers that hold a key's parts (the offload service builds one
    /// engine per card) use this rather than
    /// [`with_config`](Self::with_config), whose `CrtKey` costs two more
    /// Montgomery contexts the engine never uses.
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
        let generated = generated_halves(&n, &p, &q, backend);
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
            lookup: config.lookup,
            generated,
        })
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
        let (m1, m2) = self.half_ladders(cts);
        self.recombine_16(&m1, &m2)
    }

    /// The two shared-exponent batched CRT ladders.
    fn half_ladders(&self, cts: &[BigUint]) -> (Vec<BigUint>, Vec<BigUint>) {
        match &self.generated {
            Some((gp, gq)) => (gp.mod_exp_16(cts, &self.dp), gq.mod_exp_16(cts, &self.dq)),
            None => (
                BatchMont::new(&self.ctx_p).mod_exp_16(cts, &self.dp, self.window),
                BatchMont::new(&self.ctx_q).mod_exp_16(cts, &self.dq, self.window),
            ),
        }
    }

    /// Per-lane Garner recombination of the two ladders' results.
    fn recombine_16(&self, m1: &[BigUint], m2: &[BigUint]) -> Vec<BigUint> {
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
            let r = exp_fixed_window_vec(ctx, &ctx.to_mont_vec(c), d, self.window, self.lookup);
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

/// The generated half-size contexts for an `n`-sized key: the committed
/// table point when it admits both halves, else the static point, else
/// `None` (single-digit halves, which run the classic kernel). Both
/// halves run one point, so the two CRT ladders always run the same
/// kernel.
fn generated_halves(
    n: &BigUint,
    p: &BigUint,
    q: &BigUint,
    backend: ResolvedBackend,
) -> Option<(GenMontCtx, GenMontCtx)> {
    let admits = |params: &KernelParams| {
        [p, q]
            .iter()
            .all(|half| params.validate(half.bit_length()).is_ok())
    };
    let params = TuningTable::committed()
        .params_for_modulus(n.bit_length())
        .into_iter()
        .chain([KernelParams::static_defaults()])
        .find(admits)?;
    Some((
        GenMontCtx::new(p, params, backend).ok()?,
        GenMontCtx::new(q, params, backend).ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MontVariant;
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
    fn constant_time_single_op_gathers_the_whole_table_per_window() {
        let (direct, key, e, _) = demo();
        let config = PhiConfig::builder().constant_time().build();
        let ct = BatchCrtEngine::with_config(&key, &config).unwrap();
        let (msgs, cts) = ciphertexts(direct.modulus(), &e, 1);
        count::reset();
        let (m_direct, d_direct) = count::measure(|| direct.private_op_single(&cts[0]));
        let (m_ct, d_ct) = count::measure(|| ct.private_op_single(&cts[0]));
        assert_eq!(m_direct, msgs[0]);
        assert_eq!(m_ct, m_direct);

        // Per window of each half, the gather sets one mask per table
        // entry and loads and blends every chunk of every entry, where
        // the direct read loads the selected entry's chunks.
        let entries = 1u64 << config.window;
        let (mut masks, mut loads, mut blends) = (0, 0, 0);
        for (ctx, d) in [(&ct.ctx_p, &ct.dp), (&ct.ctx_q, &ct.dq)] {
            let windows = d.bit_length().div_ceil(config.window) as u64;
            let chunks = (ctx.padded_digits() / crate::radix::LANES) as u64;
            masks += windows * entries;
            loads += windows * (entries - 1) * chunks;
            blends += windows * entries * chunks;
        }
        assert_eq!(d_direct.get(OpClass::VMask), 0);
        assert_eq!(d_ct.get(OpClass::VMask), masks);
        assert_eq!(d_ct.get(OpClass::VMem) - d_direct.get(OpClass::VMem), loads);
        assert_eq!(
            d_ct.get(OpClass::VAlu) - d_direct.get(OpClass::VAlu),
            blends
        );
        assert_eq!(d_ct.get(OpClass::VMul), d_direct.get(OpClass::VMul));
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
    /// ops undercut one 16-lane pass at the demo key and at 256-, 384-
    /// and 512-bit keys. A kernel change that lets a pass undercut two
    /// singles fails here.
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
            let engine = BatchCrtEngine::with_config(key, &PhiConfig::default()).unwrap();
            let (out, pass) = count::measure(|| engine.private_op_16(&cts));
            let (one, single) = count::measure(|| engine.private_op_single(&cts[0]));
            assert_eq!(out, msgs);
            assert_eq!(one, msgs[0]);
            let (pass, single) = (model.issue_cycles(&pass), model.issue_cycles(&single));
            assert!(
                SINGLE_OP_MAX_LIVE as f64 * single < pass,
                "{}-bit key: pass/single {:.2}",
                key.modulus().bit_length(),
                pass / single
            );
        }
    }

    /// The release check's crossover on the modeled channel:
    /// [`SINGLE_OP_MAX_LIVE`] single-lane checks undercut one `pow_eq_16`
    /// at 256- to 2048-bit moduli. A kernel change that lets the 16-lane
    /// check undercut two singles fails here.
    #[test]
    fn single_checks_undercut_a_pow_eq_16_up_to_the_crossover() {
        let e = BigUint::from(65537u64);
        let model = phi_simd::CostModel::knc();
        for bits in [256u32, 512, 1024, 2048] {
            let n = &BigUint::power_of_two(bits) - &BigUint::from(0x61u64);
            let ctx = VMontCtx::with_backend(&n, ResolvedBackend::ModeledKnc).unwrap();
            let bases: Vec<BigUint> = (1..=BATCH_WIDTH as u64)
                .map(|j| &BigUint::from(j * 0x9E37_79B9) % &n)
                .collect();
            let expected: Vec<BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
            let mont = BatchMont::with_variant(&ctx, MontVariant::Auto);
            let (all, wide) = count::measure(|| mont.pow_eq_16(&bases, &e, &expected));
            let (one, single) = count::measure(|| ctx.pow_eq(&bases[0], &e, &expected[0]));
            assert!(all.iter().all(|&ok| ok) && one);
            let (wide, single) = (model.issue_cycles(&wide), model.issue_cycles(&single));
            assert!(
                SINGLE_OP_MAX_LIVE as f64 * single < wide,
                "{bits}-bit modulus: pow_eq_16/single {:.2}",
                wide / single
            );
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

    /// The demo key rounds up to the 512-bit table row, whose generated
    /// point admits its tiny halves: both constructors run it and stay
    /// bit-identical to the classic kernel's ladders and the oracle.
    #[test]
    fn tuned_table_dispatch_stays_bit_identical() {
        let (engine, key, e, _) = demo();
        let (msgs, cts) = ciphertexts(engine.modulus(), &e, BATCH_WIDTH);
        let classic = |ctx: &VMontCtx, d: &BigUint| BatchMont::new(ctx).mod_exp_16(&cts, d, 5);
        let (m1, m2) = (
            classic(&engine.ctx_p, key.dp()),
            classic(&engine.ctx_q, key.dq()),
        );
        for tuned in [engine, from_key(&key, &PhiConfig::default())] {
            let (gp, _) = tuned.generated.as_ref().expect("the 512-bit row applies");
            assert_eq!(
                *gp.params(),
                TuningTable::committed().params_for_modulus(512).unwrap()
            );
            assert_eq!(tuned.half_ladders(&cts), (m1.clone(), m2.clone()));
            assert_eq!(tuned.private_op_16(&cts), msgs);
            assert_eq!(tuned.private_op_masked(&cts[..5]), msgs[..5]);
        }
    }

    /// The pass is op for op the table point's ladders at 512- to
    /// 4096-bit keys, the static point's above 4096 bits, and the classic
    /// kernel's (at the config's window) for single-digit halves, plus
    /// the recombination.
    #[test]
    fn pass_runs_the_table_point_else_static_else_classic() {
        // Odd halves 2^b − k: the ladders' op counts need no primes.
        let half = |b: u32, k: u64| &BigUint::power_of_two(b) - &BigUint::from(k);
        let table = TuningTable::committed();
        let static_point = KernelParams::static_defaults();
        let config = PhiConfig::builder().window(3).unwrap().build();
        let cases = [
            (256, table.params_for_modulus(512)),
            (512, table.params_for_modulus(1024)),
            (1024, table.params_for_modulus(2048)),
            (2048, table.params_for_modulus(4096)),
            (2050, Some(static_point)),
            (27, None),
        ];
        for (bits, want) in cases {
            let (p, q) = (half(bits, 39), half(bits, 117));
            let n = &p * &q;
            let exp = half(64, 59);
            let engine = BatchCrtEngine::from_parts(
                n.clone(),
                exp.clone(),
                exp.clone(),
                BigUint::one(),
                p.clone(),
                q.clone(),
                &config,
            )
            .unwrap();
            let cts: Vec<BigUint> = (1..=BATCH_WIDTH as u64)
                .map(|j| &BigUint::from(j * 0x9E37_79B9) % &n)
                .collect();
            let (_, pass) = count::measure(|| engine.private_op_16(&cts));
            let gens = want.map(|params| {
                let gen = |h| GenMontCtx::new(h, params, ResolvedBackend::ModeledKnc).unwrap();
                (gen(&p), gen(&q))
            });
            let (bp, bq) = (BatchMont::new(&engine.ctx_p), BatchMont::new(&engine.ctx_q));
            let ((m1, m2), mut bill) = count::measure(|| match &gens {
                Some((gp, gq)) => (gp.mod_exp_16(&cts, &exp), gq.mod_exp_16(&cts, &exp)),
                None => (bp.mod_exp_16(&cts, &exp, 3), bq.mod_exp_16(&cts, &exp, 3)),
            });
            let (_, recombine) = count::measure(|| engine.recombine_16(&m1, &m2));
            bill.accumulate(&recombine);
            assert_eq!(pass, bill, "{bits}-bit halves");
        }
    }

    /// The setup bill the one raw-parts constructor must keep: one vector
    /// and one generated context per CRT half (no generated one for
    /// single-digit halves), and none for a `CrtKey` — building the key
    /// is what would cost an offload card two unused contexts.
    #[test]
    fn constructors_build_only_the_contexts_the_engine_runs() {
        let (_, key, _, d) = demo();
        let parts = |config: PhiConfig| count::measure_ctx_setups(|| from_key(&key, &config)).1;
        assert_eq!(
            parts(PhiConfig::default()),
            4,
            "a vector and a generated context per half"
        );
        let (_, with_config) = count::measure_ctx_setups(|| {
            BatchCrtEngine::with_config(&key, &PhiConfig::default()).unwrap()
        });
        assert_eq!(with_config, 4, "a prebuilt CrtKey adds nothing");
        let (p, q) = (BigUint::from(0x7ff_ffd9u64), BigUint::from(0x7ff_ffc7u64));
        let (_, tiny) = count::measure_ctx_setups(|| {
            BatchCrtEngine::from_parts(
                &p * &q,
                BigUint::from(3u64),
                BigUint::from(3u64),
                BigUint::one(),
                p.clone(),
                q.clone(),
                &PhiConfig::default(),
            )
            .unwrap()
        });
        assert_eq!(tiny, 2, "single-digit halves build no generated context");
        let (_, crt_key) = count::measure_ctx_setups(|| {
            CrtKey::new(key.p_modulus(), key.q_modulus(), &d).unwrap()
        });
        assert_eq!(
            crt_key, 2,
            "building the CrtKey is the cost from_parts avoids"
        );
    }

    /// One table row serves both backends: a native engine runs the
    /// same point as the modeled one at 512- and 2048-bit keys.
    #[test]
    fn native_and_modeled_engines_run_one_table_row() {
        if !phi_backend::CpuFeatures::detect().avx2 {
            return; // no native backend on this host
        }
        let half = |b: u32, k: u64| &BigUint::power_of_two(b) - &BigUint::from(k);
        let native_config = PhiConfig::builder()
            .backend(phi_backend::Backend::NativeX86)
            .unwrap()
            .build();
        for key_bits in [512u32, 2048] {
            let (p, q) = (half(key_bits / 2, 39), half(key_bits / 2, 117));
            let engine = |config: &PhiConfig| {
                let (d, n) = (half(64, 59), &p * &q);
                BatchCrtEngine::from_parts(
                    n,
                    d.clone(),
                    d,
                    BigUint::one(),
                    p.clone(),
                    q.clone(),
                    config,
                )
                .unwrap()
            };
            let points = |e: &BatchCrtEngine| {
                let (gp, gq) = e.generated.as_ref().expect("the table row applies");
                (*gp.params(), *gq.params())
            };
            let (modeled, native) = (engine(&PhiConfig::default()), engine(&native_config));
            assert_eq!(native.backend(), ResolvedBackend::NativeX86);
            let row = TuningTable::committed().lookup(key_bits).unwrap().params;
            assert_eq!(points(&modeled), (row, row), "{key_bits}-bit modeled");
            assert_eq!(points(&native), points(&modeled), "{key_bits}-bit native");
        }
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
