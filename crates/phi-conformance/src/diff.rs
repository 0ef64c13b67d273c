//! The differential check families: every vector kernel cross-checked
//! against the scalar host oracle on adversarial inputs.
//!
//! The oracle is the plain word-level path — `phi_bigint` arithmetic
//! and the scalar Montgomery contexts — which the paper treats as
//! ground truth: the vectorized library must be *bit-identical* to
//! OpenSSL's answers, merely faster. Each family draws its operands
//! from its own [`CaseGen`] stream (salted by the family name, so
//! families are independent of run order) and reports any disagreement
//! as a [`Divergence`] carrying the operands and the replay seed.
//!
//! Fault injection for meta-testing: [`DiffConfig::inject`] names a
//! family whose primary comparison is deliberately corrupted on one
//! seed-chosen case. That is how the harness proves its own replay
//! discipline — an injected divergence must reproduce exactly under
//! `--replay <seed>`.

use crate::gen::CaseGen;
use crate::report::{dump, Divergence};
use phi_bigint::BigUint;
use phi_faults::{FaultInjector, FaultRates, FaultSource};
use phi_mont::exp::mont_exp;
use phi_mont::{
    BarrettCtx, ExpStrategy, Libcrypto, MontCtx32, MontCtx64, MontEngine, MpssBaseline,
    OpensslBaseline,
};
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::ops::{RsaBatchService, RsaOps};
use phi_rt::service::ServiceConfig;
use phi_rt::{FleetConfig, ResilienceConfig, RoutingPolicy};
use phiopenssl::radix::VecNum;
use phiopenssl::vexp::mod_exp_vec;
use phiopenssl::vmul::{big_mul_vectorized, vec_mul, vec_mul_backend, vec_sqr, vec_sqr_backend};
use phiopenssl::vsqr::mont_sqr_sos;
use phiopenssl::{
    BatchCrtEngine, BatchMont, CpuFeatures, CrtKey, MultiBatchMont, PhiConfig, PhiLibrary,
    ResolvedBackend, TableLookup, VMontCtx, DIGIT_BITS,
};
use rand::SeedableRng;
use std::sync::Arc;

/// Tunables of one differential run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// The replay seed (see [`crate::gen::conf_seed`]).
    pub seed: u64,
    /// Base case budget; each family scales it by its own cost weight.
    pub cases: usize,
    /// Largest operand/modulus width the generator draws, in bits.
    pub max_bits: u32,
    /// Corrupt one seed-chosen case of the named family (meta-testing).
    pub inject: Option<String>,
}

/// What a differential run did.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Number of check families executed.
    pub families: usize,
    /// Total cases drawn across all families.
    pub cases: u64,
    /// Every observed disagreement.
    pub divergences: Vec<Divergence>,
}

fn family_salt(name: &str) -> u64 {
    // FNV-1a, folded with the run seed by the callers.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl DiffConfig {
    fn gen_for(&self, family: &str) -> CaseGen {
        CaseGen::new(self.seed ^ family_salt(family))
    }

    /// The case index the injection corrupts, when `inject` names
    /// `family`. Seed-derived, so replaying the seed replays the case.
    fn injected_case(&self, family: &str, cases: u64) -> Option<u64> {
        if self.inject.as_deref() == Some(family) && cases > 0 {
            Some(CaseGen::new(self.seed ^ family_salt(family) ^ 0x1A7E_C7ED).below(cases))
        } else {
            None
        }
    }

    /// The bit-width ladder cases cycle through, capped at `max_bits`.
    fn bits_ladder(&self) -> Vec<u32> {
        [96u32, 256, 512, 1024, 2048]
            .into_iter()
            .filter(|&b| b <= self.max_bits)
            .collect()
    }
}

fn corrupt(got: BigUint, case: u64, inj: Option<u64>) -> BigUint {
    if inj == Some(case) {
        &got + &BigUint::one()
    } else {
        got
    }
}

fn vecnum_of(a: &BigUint) -> VecNum {
    let nd = (a.bit_length().max(1)).div_ceil(DIGIT_BITS) as usize;
    VecNum::from_biguint(a, nd)
}

/// Vectorized schoolbook multiplication vs the word-level product.
fn check_vmul(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "vmul";
    let cases = (cfg.cases * 4) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];
        let a = g.operand(bits);
        let b = if case % 7 == 0 {
            BigUint::zero()
        } else {
            g.operand(bits)
        };
        let want = a.mul_ref(&b);
        let got = corrupt(big_mul_vectorized(&a, &b), case, inj);
        if got != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: dump(&[("a", &a), ("b", &b), ("got", &got), ("want", &want)]),
            });
            continue;
        }
        // The raw digit kernel, below the facade's padding logic.
        let direct = vec_mul(&vecnum_of(&a), &vecnum_of(&b)).to_biguint();
        if direct != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "raw vec_mul disagrees: {}",
                    dump(&[("a", &a), ("b", &b), ("got", &direct), ("want", &want)])
                ),
            });
        }
        // The word-level Karatsuba vs schoolbook self-check keeps the
        // oracle honest too.
        if a.mul_schoolbook(&b) != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "oracle split: karatsuba != schoolbook: {}",
                    dump(&[("a", &a), ("b", &b)])
                ),
            });
        }
    }
    cases
}

/// Vectorized squaring vs the word-level square and the general multiply.
fn check_vsqr(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "vsqr";
    let cases = (cfg.cases * 4) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];
        let a = g.operand(bits);
        let va = vecnum_of(&a);
        let want = a.square();
        let got = corrupt(vec_sqr(&va).to_biguint(), case, inj);
        if got != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: dump(&[("a", &a), ("got", &got), ("want", &want)]),
            });
        } else if vec_mul(&va, &va).to_biguint() != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!("vec_mul(a,a) != a^2: {}", dump(&[("a", &a)])),
            });
        }
    }
    cases
}

/// The vectorized Montgomery kernel vs the modular oracle and both
/// scalar CIOS contexts on the same operands.
fn check_vmont(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "vmont";
    let cases = (cfg.cases * 3) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];
        let n = g.odd_modulus(bits);
        let ctx = VMontCtx::new(&n).expect("generator yields odd moduli");
        let a = g.residue(&n);
        let b = g.residue(&n);
        let want = a.mod_mul(&b, &n);

        let am = ctx.to_mont_vec(&a);
        let bm = ctx.to_mont_vec(&b);
        let got = corrupt(ctx.from_mont_vec(&ctx.mont_mul_vec(&am, &bm)), case, inj);
        if got != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: dump(&[
                    ("n", &n),
                    ("a", &a),
                    ("b", &b),
                    ("got", &got),
                    ("want", &want),
                ]),
            });
            continue;
        }
        if ctx.from_mont_vec(&am) != a {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!("mont roundtrip broke: {}", dump(&[("n", &n), ("a", &a)])),
            });
        }
        // Squaring: the dedicated kernel and the SOS variant must match
        // the general multiply lane for lane.
        let want_sq = a.mod_square(&n);
        let sq = ctx.from_mont_vec(&ctx.mont_sqr_vec(&am));
        let sos = ctx.from_mont_vec(&mont_sqr_sos(&ctx, &am));
        if sq != want_sq || sos != want_sq {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "squaring split: {}",
                    dump(&[
                        ("n", &n),
                        ("a", &a),
                        ("sqr", &sq),
                        ("sos", &sos),
                        ("want", &want_sq)
                    ])
                ),
            });
        }
        // The two scalar CIOS kernels answer the same question.
        for (label, engine) in [
            (
                "ctx64",
                Box::new(MontCtx64::new(&n).unwrap()) as Box<dyn MontEngine>,
            ),
            ("ctx32", Box::new(MontCtx32::new(&n).unwrap())),
        ] {
            let r = engine.from_mont(&engine.mont_mul(&engine.to_mont(&a), &engine.to_mont(&b)));
            if r != want {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "{label} disagrees: {}",
                        dump(&[
                            ("n", &n),
                            ("a", &a),
                            ("b", &b),
                            ("got", &r),
                            ("want", &want)
                        ])
                    ),
                });
            }
        }
    }
    cases
}

/// The vectorized fixed-window ladder at every window width and both
/// table-lookup policies vs the binary mod-exp oracle.
fn check_vexp(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "vexp";
    let cases = (cfg.cases * 2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];
        let n = g.odd_modulus(bits);
        let ctx = VMontCtx::new(&n).expect("odd modulus");
        let base = g.residue(&n);
        let exp = g.exponent(bits);
        let want = base.mod_exp(&exp, &n);
        for window in 1..=7u32 {
            let got = mod_exp_vec(&ctx, &base, &exp, window, TableLookup::Direct);
            let got = if window == 5 {
                corrupt(got, case, inj)
            } else {
                got
            };
            if got != want {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "window={window}: {}",
                        dump(&[
                            ("n", &n),
                            ("base", &base),
                            ("exp", &exp),
                            ("got", &got),
                            ("want", &want)
                        ])
                    ),
                });
            }
        }
        let ct_window = 1 + (case % 7) as u32;
        let ct = mod_exp_vec(&ctx, &base, &exp, ct_window, TableLookup::ConstantTime);
        if ct != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "constant-time lookup, window={ct_window}: {}",
                    dump(&[
                        ("n", &n),
                        ("base", &base),
                        ("exp", &exp),
                        ("got", &ct),
                        ("want", &want)
                    ])
                ),
            });
        }
    }
    cases
}

/// The scalar exponentiation strategies and the Barrett fallback vs the
/// binary oracle (keeping the oracle's own house in order).
fn check_mont_scalar(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "mont-scalar";
    let cases = (cfg.cases * 2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];
        let n = g.odd_modulus(bits);
        let base = g.residue(&n);
        let exp = g.exponent(bits);
        let want = base.mod_exp(&exp, &n);
        let w = 1 + (case % 7) as u32;
        let strategies = [
            ExpStrategy::SquareMultiply,
            ExpStrategy::SlidingWindow(w),
            ExpStrategy::FixedWindow(w),
            ExpStrategy::MontgomeryLadder,
        ];
        let ctx64 = MontCtx64::new(&n).unwrap();
        let ctx32 = MontCtx32::new(&n).unwrap();
        for strategy in strategies {
            let got64 = mont_exp(&ctx64, &base, &exp, strategy);
            let got64 = if strategy == ExpStrategy::SquareMultiply {
                corrupt(got64, case, inj)
            } else {
                got64
            };
            let got32 = mont_exp(&ctx32, &base, &exp, strategy);
            if got64 != want || got32 != want {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "{strategy:?}: {}",
                        dump(&[
                            ("n", &n),
                            ("base", &base),
                            ("exp", &exp),
                            ("got64", &got64),
                            ("got32", &got32),
                            ("want", &want)
                        ])
                    ),
                });
            }
        }
        let barrett = BarrettCtx::new(&n).unwrap();
        let a = g.residue(&n);
        let b = g.residue(&n);
        if barrett.mod_mul(&a, &b) != a.mod_mul(&b, &n) || barrett.mod_exp(&base, &exp) != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "barrett disagrees: {}",
                    dump(&[("n", &n), ("a", &a), ("b", &b)])
                ),
            });
        }
    }
    cases
}

/// Cached [`phi_mont::session::ModulusSession`]s for all library
/// profiles vs their one-shot entry points and the oracle.
fn check_session(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "session";
    let cases = cfg.cases as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];
        let n = g.odd_modulus(bits);
        let base = g.residue(&n);
        let exp = g.exponent(bits);
        let a = g.residue(&n);
        let b = g.residue(&n);
        let want_exp = base.mod_exp(&exp, &n);
        let want_mul = a.mod_mul(&b, &n);
        let libs: Vec<Box<dyn Libcrypto>> = vec![
            Box::new(PhiLibrary::default()),
            Box::new(PhiLibrary::with_config(
                PhiConfig::builder().constant_time().build(),
            )),
            Box::new(MpssBaseline),
            Box::new(OpensslBaseline),
        ];
        for (li, lib) in libs.into_iter().enumerate() {
            let session = lib.with_modulus(&n).expect("odd modulus");
            let got = session.mod_exp(&base, &exp);
            let got = if li == 0 {
                corrupt(got, case, inj)
            } else {
                got
            };
            let one_shot = lib.mod_exp(&base, &exp, &n).expect("odd modulus");
            if got != want_exp || one_shot != want_exp {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "[{}] exp: {}",
                        lib.name(),
                        dump(&[
                            ("n", &n),
                            ("base", &base),
                            ("exp", &exp),
                            ("session", &got),
                            ("one_shot", &one_shot),
                            ("want", &want_exp)
                        ])
                    ),
                });
            }
            if session.mod_mul(&a, &b) != want_mul {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "[{}] mul: {}",
                        lib.name(),
                        dump(&[("n", &n), ("a", &a), ("b", &b), ("want", &want_mul)])
                    ),
                });
            }
        }
    }
    cases
}

/// The corpus fuzz keys, materialized once per family run.
fn fuzz_keys(max_bits: u32) -> Vec<RsaPrivateKey> {
    crate::corpus::rsa_data::FUZZ_KEYS
        .iter()
        .filter(|k| k.bits <= max_bits)
        .map(|k| k.key())
        .collect()
}

/// CRT decomposition/recombination vs the full ladder and the oracle,
/// including ciphertexts that are multiples of a prime factor (the
/// zero-residue corner of Garner recombination).
fn check_crt(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "crt";
    let cases = cfg.cases as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let keys = fuzz_keys(cfg.max_bits);
    for case in 0..cases {
        let key = &keys[case as usize % keys.len()];
        let n = key.public().n();
        let crt = CrtKey::new(key.p(), key.q(), key.d()).expect("corpus primes");
        let c = match case % 4 {
            // Multiples of p (and once of q) pin m1 — or m2 — to zero.
            0 => key.p().mod_mul(&g.residue(key.q()), n),
            1 => key.q().mod_mul(&g.residue(key.p()), n),
            _ => g.residue(n),
        };
        let window = 1 + (case % 7) as u32;
        let lookup = if case % 2 == 0 {
            TableLookup::Direct
        } else {
            TableLookup::ConstantTime
        };
        let want = c.mod_exp(key.d(), n);
        let got = corrupt(crt.private_op(&c, window, lookup), case, inj);
        if got != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "window={window} lookup={lookup:?}: {}",
                    dump(&[("n", n), ("c", &c), ("got", &got), ("want", &want)])
                ),
            });
            continue;
        }
        let no_crt = crt
            .private_op_no_crt(&c, key.d(), window, lookup)
            .expect("odd corpus modulus");
        if no_crt != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "full ladder split, window={window}: {}",
                    dump(&[("n", n), ("c", &c), ("got", &no_crt), ("want", &want)])
                ),
            });
        }
    }
    cases
}

/// The shared-modulus 16-lane batch kernels — `BatchMont`'s classic
/// CIOS kernel and the generated family (DESIGN.md §3.12, §3.15) — vs
/// the scalar oracle on adversarial inputs.
///
/// The truncated reduction elides low partial products and repairs the
/// carry-out with an exact correction, so its admissibility claim is
/// strict bit-identity. Each case stresses where that claim could crack,
/// in two sweeps, every ladder checked against both the classic kernel
/// and the scalar `mod_exp` oracle. On the profile's bit ladder: the
/// generated kernel at the static point (the release check's) at every
/// window width 1–7, with correction-boundary lanes 0, 1 and n−1 (the
/// shapes that pin `D̂ mod R` to zero or the conditional subtract to its
/// edge), and, when the host has AVX2, the native backend lane for lane.
/// Then one committed tuning-table row's point at its CRT-half size,
/// regardless of the profile's bit ladder (the table governs real key
/// sizes, so that is where it must be proven), at occupancy 1–16 with
/// dead lanes padded with 1 as `private_op_masked` pads. Every third case
/// pins both moduli to the dense-top corner `2^bits − d`, every high
/// digit saturated: the boundary columns of the correction and the carry
/// paths at any radix reach their maxima there.
fn check_batch_kernel(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "batch-kernel";
    use phiopenssl::{GenMontCtx, MontVariant, TuningTable};
    let entries = &TuningTable::committed().entries;
    let cases = ((cfg.cases / 2).max(entries.len())) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    let native = CpuFeatures::detect().avx2;
    let modulus = |g: &mut CaseGen, case: u64, bits: u32| {
        if case % 3 == 0 {
            let d = 2 * g.below(1 << 20) + 1;
            &(&BigUint::one() << bits) - &BigUint::from(d)
        } else {
            g.odd_modulus(bits)
        }
    };
    // One divergence per lane where a ladder misses the oracle; true if
    // any did.
    let seed = cfg.seed;
    let lanes_diverge = |out: &mut Vec<Divergence>,
                         case: u64,
                         at: String,
                         n: &BigUint,
                         bases: &[BigUint],
                         exp: &BigUint,
                         ladders: [(&str, &[BigUint]); 2]| {
        let mut bad = false;
        for (lane, base) in bases.iter().enumerate() {
            let want = base.mod_exp(exp, n);
            if ladders.iter().any(|(_, got)| got[lane] != want) {
                bad = true;
                let mut fields = vec![("n", n), ("base", base), ("exp", exp)];
                fields.extend(ladders.iter().map(|&(name, got)| (name, &got[lane])));
                fields.push(("want", &want));
                out.push(Divergence {
                    kernel: NAME,
                    seed,
                    case,
                    detail: format!("lane={lane} {at}: {}", dump(&fields)),
                });
            }
        }
        bad
    };
    let diverge = |case: u64, detail: String| Divergence {
        kernel: NAME,
        seed,
        case,
        detail,
    };
    for case in 0..cases {
        // The bit-ladder sweep: classic vs the static point.
        let bits = ladder[case as usize % ladder.len()].min(512);
        let n = modulus(&mut g, case, bits);
        let ctx = VMontCtx::new(&n).expect("odd modulus");
        let mut bases: Vec<BigUint> = vec![BigUint::zero(), BigUint::one(), &n - &BigUint::one()];
        while bases.len() < 16 {
            bases.push(g.residue(&n));
        }
        let exp = g.exponent(bits);
        let window = 1 + (case % 7) as u32;
        let classic = BatchMont::new(&ctx).mod_exp_16(&bases, &exp, window);
        let mut truncated =
            BatchMont::with_variant(&ctx, MontVariant::Auto).mod_exp_16(&bases, &exp, window);
        if let Some(i) = inj.filter(|&i| i == case) {
            let lane = (i % 16) as usize;
            truncated[lane] = &truncated[lane] + &BigUint::one();
        }
        let ladders = [("truncated", &truncated[..]), ("classic", &classic[..])];
        if lanes_diverge(
            out,
            case,
            format!("window={window}"),
            &n,
            &bases,
            &exp,
            ladders,
        ) {
            continue;
        }

        // Native backend, lane for lane, when the host offers one.
        if native {
            let ctx_n =
                VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).expect("odd modulus");
            let got_n =
                BatchMont::with_variant(&ctx_n, MontVariant::Auto).mod_exp_16(&bases, &exp, window);
            if got_n != classic {
                out.push(diverge(
                    case,
                    format!(
                        "native truncated batch disagrees, window={window}: {}",
                        dump(&[("n", &n), ("exp", &exp)])
                    ),
                ));
                continue;
            }
        }

        // One committed row's point at its half size.
        let entry = &entries[case as usize % entries.len()];
        let bits = entry.key_bits / 2;
        let n = modulus(&mut g, case, bits);
        let params = entry.params;
        let gctx = match GenMontCtx::new(&n, params, ResolvedBackend::ModeledKnc) {
            Ok(c) => c,
            Err(e) => {
                out.push(diverge(
                    case,
                    format!(
                        "committed entry for {} bits rejected its own half size: {e}",
                        entry.key_bits
                    ),
                ));
                continue;
            }
        };
        // Occupancy sweep: `occ` live lanes (correction-boundary values
        // first, then random residues), the rest padded with 1.
        let occ = 1 + (case as usize % 16);
        let mut bases: Vec<BigUint> = vec![&n - &BigUint::one(), BigUint::zero(), BigUint::one()];
        bases.truncate(occ);
        while bases.len() < occ {
            bases.push(g.residue(&n));
        }
        bases.resize(16, BigUint::one());
        // Exponent length scales down with the half size so that a run's
        // total ladder work stays within the profile budget; the window
        // table (the 2^w - 1 multiplies) runs in full either way.
        let exp_bits = (bits.min(cfg.max_bits) / (bits / 256).max(1)).max(48);
        let exp = g.exponent(exp_bits);
        let ctx = VMontCtx::new(&n).expect("odd modulus");
        let classic = BatchMont::new(&ctx).mod_exp_16(&bases, &exp, params.window);
        let got = gctx.mod_exp_16(&bases, &exp);
        let at = format!(
            "entry {}b occ={occ} radix={} window={}",
            entry.key_bits, params.radix_bits, params.window
        );
        let ladders = [("generated", &got[..]), ("classic", &classic[..])];
        lanes_diverge(out, case, at, &n, &bases, &exp, ladders);
    }
    cases
}

/// The per-lane-modulus 16-lane batch ladder vs sixteen scalar answers
/// over sixteen different moduli.
fn check_batch_multi(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "batch-multi";
    let cases = (cfg.cases / 2).max(2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()].min(512);
        let moduli: Vec<BigUint> = (0..16).map(|_| g.odd_modulus(bits)).collect();
        let mbm = MultiBatchMont::new(&moduli).expect("odd moduli");
        let bases: Vec<BigUint> = moduli.iter().map(|n| g.residue(n)).collect();
        let exp = g.exponent(bits);
        let window = 1 + (case % 7) as u32;
        let mut got = mbm.mod_exp_16(&bases, &exp, window);
        if let Some(i) = inj.filter(|&i| i == case) {
            let lane = (i % 16) as usize;
            got[lane] = &got[lane] + &BigUint::one();
        }
        for (lane, ((b, n), got)) in bases.iter().zip(&moduli).zip(&got).enumerate() {
            let want = b.mod_exp(&exp, n);
            if *got != want {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "lane={lane} window={window}: {}",
                        dump(&[
                            ("n", n),
                            ("base", b),
                            ("exp", &exp),
                            ("got", got),
                            ("want", &want)
                        ])
                    ),
                });
            }
        }
        // Domain conversion roundtrip across all sixteen lane moduli.
        let lanes = mbm.to_mont_lanes(&bases);
        let back = mbm.from_mont_lanes(&lanes);
        if back != bases {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: "to_mont_lanes/from_mont_lanes roundtrip broke".into(),
            });
        }
    }
    cases
}

/// The masked batch CRT engine at every occupancy 1..=16 (single ops up
/// to the crossover, a padded pass above it) and window widths 1..=7,
/// each lane against the word-level oracle `c^d mod n`.
fn check_engine_masked(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "engine-masked";
    let cases = (cfg.cases / 2).max(2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let keys = fuzz_keys(cfg.max_bits.min(512));
    for case in 0..cases {
        let key = &keys[case as usize % keys.len()];
        let n = key.public().n();
        let crt = CrtKey::new(key.p(), key.q(), key.d()).expect("corpus primes");
        let window = 1 + (case % 7) as u32;
        let config = phiopenssl::PhiConfig::builder()
            .window(window)
            .expect("window in 1..=7")
            .build();
        let engine = BatchCrtEngine::with_config(&crt, &config).expect("corpus primes");
        let k = 1 + (case as usize % 16);
        let cts: Vec<BigUint> = (0..k).map(|_| g.residue(n)).collect();
        let mut got = engine.private_op_masked(&cts);
        if let Some(i) = inj.filter(|&i| i == case) {
            let lane = i as usize % got.len();
            got[lane] = &got[lane] + &BigUint::one();
        }
        for (lane, (c, got)) in cts.iter().zip(&got).enumerate() {
            let want = c.mod_exp(key.d(), n);
            if *got != want {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "occupancy={k} lane={lane} window={window}: {}",
                        dump(&[("n", n), ("c", c), ("got", got), ("want", &want)])
                    ),
                });
            }
        }
    }
    cases
}

/// RSA operations across all three library profiles: RSAEP/RSADP
/// inversion, CRT on vs off, blinded vs plain — all answers compared to
/// the word-level oracle.
fn check_rsa_ops(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "rsa-ops";
    let cases = (cfg.cases / 2).max(2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let keys = fuzz_keys(cfg.max_bits.min(512));
    for case in 0..cases {
        let key = &keys[case as usize % keys.len()];
        let n = key.public().n();
        let m = g.residue(n);
        let want_c = m.mod_exp(key.public().e(), n);
        let libs: Vec<Box<dyn Libcrypto>> = vec![
            Box::new(PhiLibrary::default()),
            Box::new(MpssBaseline),
            Box::new(OpensslBaseline),
        ];
        for lib in libs {
            let name = lib.name();
            let is_phi = name == PhiLibrary::default().name();
            let ops = RsaOps::new(lib);
            let c = match ops.public_op(key.public(), &m) {
                Ok(c) => c,
                Err(e) => {
                    out.push(Divergence {
                        kernel: NAME,
                        seed: cfg.seed,
                        case,
                        detail: format!("[{name}] RSAEP errored: {e}: {}", dump(&[("m", &m)])),
                    });
                    continue;
                }
            };
            if c != want_c {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "[{name}] RSAEP: {}",
                        dump(&[("m", &m), ("got", &c), ("want", &want_c)])
                    ),
                });
                continue;
            }
            let back = ops.private_op(key, &c).expect("c < n");
            let back = if is_phi {
                corrupt(back, case, inj)
            } else {
                back
            };
            if back != m {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "[{name}] RSADP(CRT): {}",
                        dump(&[("c", &c), ("got", &back), ("want", &m)])
                    ),
                });
            }
        }
        // CRT off must agree with CRT on (one library is enough: the
        // cross-library agreement is already pinned above).
        let plain = RsaOps::without_crt(Box::new(MpssBaseline));
        if plain.private_op(key, &want_c).expect("c < n") != m {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "no-CRT ladder disagrees: {}",
                    dump(&[("c", &want_c), ("m", &m)])
                ),
            });
        }
        // Blinding must be invisible in the answer.
        let ops = RsaOps::new(Box::new(PhiLibrary::default()));
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ case);
        let mut blinding =
            phi_rsa::blinding::Blinding::new(&mut rng, key.public().n(), key.public().e());
        let blinded = ops
            .private_op_blinded(&mut rng, key, &mut blinding, &want_c)
            .expect("c < n");
        if blinded != m {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "blinded RSADP: {}",
                    dump(&[("c", &want_c), ("got", &blinded), ("want", &m)])
                ),
            });
        }
    }
    cases
}

/// The one-card offload service's flush ladder: the all-card path, the
/// all-host degraded path, and the sequential oracle must be
/// bit-identical.
fn check_resilient(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "resilient";
    let cases = (cfg.cases / 6).max(1) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let keys = fuzz_keys(cfg.max_bits.min(512));
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    };
    for case in 0..cases {
        let key = &keys[case as usize % keys.len()];
        let n = key.public().n();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let phi = phiopenssl::PhiConfig::default();
        let card = RsaBatchService::new_fleet(key, &phi, config, Vec::new()).expect("corpus key");
        let faults: Arc<dyn FaultSource> = Arc::new(FaultInjector::new(
            cfg.seed ^ case,
            FaultRates::uniform(1.0),
        ));
        let host =
            RsaBatchService::new_fleet(key, &phi, config, vec![Some(faults)]).expect("corpus key");
        for i in 0..8u64 {
            let m = g.residue(n);
            let c = m.mod_exp(key.public().e(), n);
            let via_card = card.call(c.clone()).expect("card path answers");
            let via_card = if i == 0 {
                corrupt(via_card, case, inj)
            } else {
                via_card
            };
            let via_host = host.call(c.clone()).expect("host fallback answers");
            let via_seq = ops.private_op(key, &c).expect("c < n");
            if via_card != m || via_host != m || via_seq != m || via_card != via_host {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "request {i}: {}",
                        dump(&[
                            ("c", &c),
                            ("card", &via_card),
                            ("host", &via_host),
                            ("seq", &via_seq),
                            ("want", &m)
                        ])
                    ),
                });
            }
        }
        let host_report = host.shutdown_fleet().merged();
        if host_report.host_fallback_ops == 0 {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: "total fault rate never exercised the host fallback".into(),
            });
        }
        card.shutdown_fleet();
    }
    cases
}

/// The N-card fleet scheduler vs the sequential oracle: answers must be
/// bit-identical whatever the fleet size (1–4) or routing policy, and
/// the fleet's resolution ledger must conserve the request count —
/// including under the burst shape that triggers work stealing.
fn check_fleet(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "fleet";
    let cases = (cfg.cases / 6).max(2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let keys = fuzz_keys(cfg.max_bits.min(512));
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    };
    const POLICIES: [RoutingPolicy; 3] = [
        RoutingPolicy::Affinity,
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Random,
    ];
    for case in 0..cases {
        let key = &keys[case as usize % keys.len()];
        let n = key.public().n();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let cards = 1 + (case as usize % 4);
        let phi = phiopenssl::PhiConfig::builder()
            .fleet(FleetConfig {
                cards,
                routing: POLICIES[case as usize % POLICIES.len()],
                // Threshold 1 makes any queue imbalance stealable, so
                // the burst below exercises the steal path too.
                steal_threshold: 1,
                seed: cfg.seed ^ case,
            })
            .expect("valid fleet shape")
            .build();
        let fleet = RsaBatchService::new_fleet(key, &phi, config, Vec::new()).expect("corpus key");
        for i in 0..6u64 {
            let m = g.residue(n);
            let c = m.mod_exp(key.public().e(), n);
            let via_fleet = fleet.call(c.clone()).expect("fleet answers");
            let via_fleet = if i == 0 {
                corrupt(via_fleet, case, inj)
            } else {
                via_fleet
            };
            let via_seq = ops.private_op(key, &c).expect("c < n");
            if via_fleet != m || via_seq != m {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "request {i} ({cards} cards): {}",
                        dump(&[
                            ("c", &c),
                            ("fleet", &via_fleet),
                            ("seq", &via_seq),
                            ("want", &m)
                        ])
                    ),
                });
            }
        }
        // Burst shape: park a batch at once so multi-card fleets see
        // imbalance (and, at threshold 1, steal) — every handle must
        // still resolve to the oracle answer exactly once.
        let wants: Vec<BigUint> = (0..6u64).map(|_| g.residue(n)).collect();
        let cts = wants
            .iter()
            .map(|m| m.mod_exp(key.public().e(), n))
            .collect();
        let handles = fleet.submit_many(cts).expect("fleet accepts the burst");
        for (want, handle) in wants.into_iter().zip(handles) {
            let got = handle.wait().expect("burst request answers");
            if got != want {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "burst ({cards} cards): {}",
                        dump(&[("fleet", &got), ("want", &want)])
                    ),
                });
            }
        }
        let report = fleet.shutdown_fleet();
        if report.cards.len() != cards || report.resolved_ops() != 12 {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "ledger: {} cards reported {} resolved ops (want {cards} cards, 12 ops)",
                    report.cards.len(),
                    report.resolved_ops(),
                ),
            });
        }
    }
    cases
}

/// The native x86 backend vs the modeled-KNC backend vs the word-level
/// oracle, bit-for-bit on adversarial operands, across all four vector
/// kernels (multiply, square, Montgomery multiply, mod-exp).
///
/// Skipped with a notice when the host has no AVX2 — there is no native
/// tier to differ from, and the modeled backend is already covered by
/// the other families.
fn check_backend_parity(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "backend-parity";
    if !CpuFeatures::detect().avx2 {
        eprintln!("notice: {NAME} skipped — host has no AVX2, no native backend tier to check");
        return 0;
    }
    let cases = (cfg.cases * 2) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let ladder = cfg.bits_ladder();
    for case in 0..cases {
        let bits = ladder[case as usize % ladder.len()];

        // Kernel 1+2: raw multiply and square, native vs modeled vs oracle.
        let a = g.operand(bits);
        let b = if case % 5 == 0 {
            // All-ones operand maximizes carries across the 2^27 radix.
            &(&BigUint::one() << bits) - &BigUint::one()
        } else {
            g.operand(bits)
        };
        let (va, vb) = (vecnum_of(&a), vecnum_of(&b));
        let want_mul = a.mul_ref(&b);
        let modeled_mul = vec_mul_backend(&va, &vb, ResolvedBackend::ModeledKnc).to_biguint();
        let native_mul = corrupt(
            vec_mul_backend(&va, &vb, ResolvedBackend::NativeX86).to_biguint(),
            case,
            inj,
        );
        if native_mul != want_mul || modeled_mul != want_mul {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "vec_mul split: {}",
                    dump(&[
                        ("a", &a),
                        ("b", &b),
                        ("native", &native_mul),
                        ("modeled", &modeled_mul),
                        ("want", &want_mul)
                    ])
                ),
            });
            continue;
        }
        let want_sqr = a.square();
        let native_sqr = vec_sqr_backend(&va, ResolvedBackend::NativeX86).to_biguint();
        if native_sqr != want_sqr
            || vec_sqr_backend(&va, ResolvedBackend::ModeledKnc).to_biguint() != want_sqr
        {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "vec_sqr split: {}",
                    dump(&[("a", &a), ("native", &native_sqr), ("want", &want_sqr)])
                ),
            });
        }

        // Kernel 3+4: Montgomery multiply (CIOS and SOS) and the
        // windowed ladder, each context pinned to its own backend.
        let n = g.odd_modulus(bits);
        let ctx_m = VMontCtx::with_backend(&n, ResolvedBackend::ModeledKnc).expect("odd modulus");
        let ctx_n = VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).expect("odd modulus");
        let x = g.residue(&n);
        let y = g.residue(&n);
        let want = x.mod_mul(&y, &n);
        let modeled = ctx_m
            .from_mont_vec(&ctx_m.mont_mul_vec(&ctx_m.to_mont_vec(&x), &ctx_m.to_mont_vec(&y)));
        let xm_n = ctx_n.to_mont_vec(&x);
        let native = ctx_n.from_mont_vec(&ctx_n.mont_mul_vec(&xm_n, &ctx_n.to_mont_vec(&y)));
        if native != want || modeled != want {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "mont_mul split: {}",
                    dump(&[
                        ("n", &n),
                        ("a", &x),
                        ("b", &y),
                        ("native", &native),
                        ("modeled", &modeled),
                        ("want", &want)
                    ])
                ),
            });
            continue;
        }
        let want_sos = x.mod_square(&n);
        let native_sos = ctx_n.from_mont_vec(&mont_sqr_sos(&ctx_n, &xm_n));
        if native_sos != want_sos {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "native mont_sqr_sos: {}",
                    dump(&[
                        ("n", &n),
                        ("a", &x),
                        ("got", &native_sos),
                        ("want", &want_sos)
                    ])
                ),
            });
        }
        let exp = g.exponent(bits);
        let window = 1 + (case % 7) as u32;
        let lookup = if case % 2 == 0 {
            TableLookup::Direct
        } else {
            TableLookup::ConstantTime
        };
        let want_exp = x.mod_exp(&exp, &n);
        let native_exp = mod_exp_vec(&ctx_n, &x, &exp, window, lookup);
        let modeled_exp = mod_exp_vec(&ctx_m, &x, &exp, window, lookup);
        if native_exp != want_exp || modeled_exp != want_exp {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "mod_exp split, window={window} lookup={lookup:?}: {}",
                    dump(&[
                        ("n", &n),
                        ("base", &x),
                        ("exp", &exp),
                        ("native", &native_exp),
                        ("modeled", &modeled_exp),
                        ("want", &want_exp)
                    ])
                ),
            });
        }
    }
    cases
}

/// The verified-offload service: under a *total silent*-fault schedule
/// (every card attempt corrupts a result limb with no detectable error)
/// each released plaintext must still match the sequential oracle —
/// nothing corrupted is ever released — while a healthy card's results
/// must never be rejected by the public-exponent check.
fn check_verified(cfg: &DiffConfig, out: &mut Vec<Divergence>) -> u64 {
    const NAME: &str = "verified";
    let cases = (cfg.cases / 6).max(1) as u64;
    let inj = cfg.injected_case(NAME, cases);
    let mut g = cfg.gen_for(NAME);
    let keys = fuzz_keys(cfg.max_bits.min(512));
    let config = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    };
    for case in 0..cases {
        let key = &keys[case as usize % keys.len()];
        let n = key.public().n();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let phi = phiopenssl::PhiConfig::builder().verified().build();
        let honest = RsaBatchService::new_fleet(key, &phi, config, Vec::new()).expect("corpus key");
        let faults: Arc<dyn FaultSource> =
            Arc::new(FaultInjector::new(cfg.seed ^ case, FaultRates::silent(1.0)));
        let faulted =
            RsaBatchService::new_fleet(key, &phi, config, vec![Some(faults)]).expect("corpus key");
        for i in 0..8u64 {
            let m = g.residue(n);
            let c = m.mod_exp(key.public().e(), n);
            let via_honest = honest.call(c.clone()).expect("honest card answers");
            let via_honest = if i == 0 {
                corrupt(via_honest, case, inj)
            } else {
                via_honest
            };
            let via_faulted = faulted.call(c.clone()).expect("verified ladder answers");
            let via_seq = ops.private_op(key, &c).expect("c < n");
            if via_honest != m || via_faulted != m || via_seq != m {
                out.push(Divergence {
                    kernel: NAME,
                    seed: cfg.seed,
                    case,
                    detail: format!(
                        "request {i}: {}",
                        dump(&[
                            ("c", &c),
                            ("honest", &via_honest),
                            ("faulted", &via_faulted),
                            ("seq", &via_seq),
                            ("want", &m)
                        ])
                    ),
                });
            }
        }
        let honest_report = honest.shutdown_fleet().merged();
        if honest_report.verify_failures != 0 {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: format!(
                    "verification rejected {} honest results",
                    honest_report.verify_failures
                ),
            });
        }
        let faulted_report = faulted.shutdown_fleet().merged();
        if faulted_report.verify_failures == 0 {
            out.push(Divergence {
                kernel: NAME,
                seed: cfg.seed,
                case,
                detail: "total silent-fault rate never tripped the release check".into(),
            });
        }
    }
    cases
}

/// The family names [`DiffConfig::inject`] accepts.
pub const FAMILIES: &[&str] = &[
    "vmul",
    "vsqr",
    "vmont",
    "vexp",
    "mont-scalar",
    "session",
    "crt",
    "batch-kernel",
    "batch-multi",
    "engine-masked",
    "rsa-ops",
    "resilient",
    "fleet",
    "backend-parity",
    "verified",
];

/// Run every differential family under the given configuration.
pub fn run_all(cfg: &DiffConfig) -> DiffOutcome {
    let mut divergences = Vec::new();
    let checks: &[fn(&DiffConfig, &mut Vec<Divergence>) -> u64] = &[
        check_vmul,
        check_vsqr,
        check_vmont,
        check_vexp,
        check_mont_scalar,
        check_session,
        check_crt,
        check_batch_kernel,
        check_batch_multi,
        check_engine_masked,
        check_rsa_ops,
        check_resilient,
        check_fleet,
        check_backend_parity,
        check_verified,
    ];
    debug_assert_eq!(checks.len(), FAMILIES.len());
    let mut cases = 0;
    for check in checks {
        cases += check(cfg, &mut divergences);
    }
    DiffOutcome {
        families: checks.len(),
        cases,
        divergences,
    }
}
