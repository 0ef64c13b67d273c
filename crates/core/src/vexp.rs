//! Fixed-window Montgomery exponentiation over the vector kernel — the
//! exponentiation the paper's customized library uses.
//!
//! The fixed (2^w-ary) window performs exactly `w` squarings and one table
//! multiplication per window regardless of the exponent's bits: a
//! data-independent schedule that keeps the vector pipeline busy and, with
//! the [`TableLookup::ConstantTime`] gather, leaks neither the window value
//! through the memory access pattern.

use crate::radix::{VecNum, LANES};
use crate::vmont::VMontCtx;
use phi_backend::{with_backend, Mask8, VectorBackend, V64};
use phi_bigint::BigUint;
use phi_mont::MontEngine;
use phi_simd::count::OpClass;
use std::borrow::Cow;

/// How the window table is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableLookup {
    /// Direct indexed load of the selected entry.
    #[default]
    Direct,
    /// Constant-time gather: every entry is touched and blended under a
    /// mask, hiding the window value from the access pattern (the cost of
    /// this hardening is quantified in experiment E6).
    ConstantTime,
}

/// Default window width — the paper's choice for RSA-sized exponents.
pub const DEFAULT_WINDOW: u32 = 5;

/// `base^exp mod n` via the vectorized fixed-window ladder.
/// Plain residues in and out.
pub fn mod_exp_vec(
    ctx: &VMontCtx,
    base: &BigUint,
    exp: &BigUint,
    window: u32,
    lookup: TableLookup,
) -> BigUint {
    if ctx.modulus().is_one() {
        return BigUint::zero();
    }
    if exp.is_zero() {
        return BigUint::one();
    }
    let base_m = ctx.to_mont_vec(base);
    let result = exp_fixed_window_vec(ctx, &base_m, exp, window, lookup);
    ctx.from_mont_vec(&result)
}

/// The ladder over Montgomery-domain vector values.
pub fn exp_fixed_window_vec(
    ctx: &VMontCtx,
    base_m: &VecNum,
    exp: &BigUint,
    window: u32,
    lookup: TableLookup,
) -> VecNum {
    with_backend!(ctx.backend(), B => exp_fixed_window_generic::<B>(ctx, base_m, exp, window, lookup))
}

pub(crate) fn exp_fixed_window_generic<B: VectorBackend>(
    ctx: &VMontCtx,
    base_m: &VecNum,
    exp: &BigUint,
    window: u32,
    lookup: TableLookup,
) -> VecNum {
    let _span = phi_trace::span(phi_trace::Scope::VExpWindow);
    assert!((1..=7).contains(&window), "window width out of range");
    let bits = exp.bit_length();
    debug_assert!(bits > 0);

    // Precompute table[v] = base^v for v in [0, 2^w).
    let table_len = 1usize << window;
    let mut table = Vec::with_capacity(table_len);
    table.push(ctx.one_mont_vec());
    for i in 1..table_len {
        let prev: &VecNum = &table[i - 1];
        table.push(ctx.mont_mul_generic::<B>(prev, base_m));
    }

    let windows = bits.div_ceil(window);
    let mut acc = ctx.one_mont_vec();
    for win in (0..windows).rev() {
        for _ in 0..window {
            acc = ctx.mont_mul_generic::<B>(&acc, &acc);
        }
        let lo = win * window;
        let width = window.min(bits - lo);
        let val = exp.extract_bits(lo, width) as usize;
        B::record(OpClass::SAlu, 4); // window extraction glue
        let entry = fetch_entry::<B>(&table, val, lookup);
        acc = ctx.mont_mul_generic::<B>(&acc, &entry);
    }
    acc
}

/// Read `table[val]` with the chosen lookup policy. A direct read
/// borrows the entry, so the ladder copies nothing per window.
fn fetch_entry<B: VectorBackend>(
    table: &[VecNum],
    val: usize,
    lookup: TableLookup,
) -> Cow<'_, VecNum> {
    match lookup {
        TableLookup::Direct => {
            // One vector load per chunk of the selected entry.
            B::record(OpClass::VMem, (table[val].len() / LANES) as u64);
            Cow::Borrowed(&table[val])
        }
        TableLookup::ConstantTime => Cow::Owned(gather_constant_time::<B>(table, val)),
    }
}

/// Touch every table entry, blending the wanted one under a mask — the
/// memory access pattern is independent of `val`.
fn gather_constant_time<B: VectorBackend>(table: &[VecNum], val: usize) -> VecNum {
    let len = table[0].len();
    let chunks = len / LANES;
    let mut out = VecNum::zero(len);
    for (idx, entry) in table.iter().enumerate() {
        // One mask set per entry, all lanes or none, built from the
        // comparison's bit without a branch on the index…
        let mask = Mask8::<B>::from_bits(0u8.wrapping_sub((idx == val) as u8));
        for c in 0..chunks {
            // …then per chunk: load the entry and blend under the mask.
            let cur = V64::<B>::from_slice_folded(&out.digits()[c * LANES..]);
            let ent = V64::<B>::load(&entry.digits()[c * LANES..]);
            let sel = cur.blend(mask, ent);
            let lanes = sel.to_lanes();
            out.digits_mut()[c * LANES..c * LANES + LANES].copy_from_slice(&lanes);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_backend::{ModeledKnc, ResolvedBackend};
    use phi_simd::count;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx256() -> VMontCtx {
        VMontCtx::new(
            &BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn matches_oracle_small_cases() {
        let n = BigUint::from(97u64);
        let ctx = VMontCtx::new(&n).unwrap();
        for w in [1u32, 2, 3, 5] {
            for lookup in [TableLookup::Direct, TableLookup::ConstantTime] {
                for base in [0u64, 1, 2, 50, 96] {
                    for exp in [0u64, 1, 2, 13, 96, 200] {
                        let got =
                            mod_exp_vec(&ctx, &BigUint::from(base), &BigUint::from(exp), w, lookup);
                        let want = BigUint::from(base).mod_exp(&BigUint::from(exp), &n);
                        assert_eq!(got, want, "{base}^{exp} mod 97, w={w}, {lookup:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_oracle_256_bit() {
        let ctx = ctx256();
        let n = ctx.modulus().clone();
        let base = BigUint::from_hex("123456789abcdef00fedcba987654321").unwrap();
        let exp = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let want = base.mod_exp(&exp, &n);
        for w in [1u32, 4, 5, 6, 7] {
            assert_eq!(
                mod_exp_vec(&ctx, &base, &exp, w, TableLookup::Direct),
                want,
                "w = {w}"
            );
        }
    }

    #[test]
    fn constant_time_result_equals_direct() {
        let ctx = ctx256();
        let base = BigUint::from(0xdeadbeefu64);
        let exp = BigUint::from_hex("ffeeddccbbaa99887766554433221100").unwrap();
        assert_eq!(
            mod_exp_vec(&ctx, &base, &exp, 5, TableLookup::Direct),
            mod_exp_vec(&ctx, &base, &exp, 5, TableLookup::ConstantTime)
        );
    }

    #[test]
    fn constant_time_gather_touches_whole_table() {
        let ctx = ctx256();
        let base_m = ctx.to_mont_vec(&BigUint::from(3u64));
        let table: Vec<VecNum> = (0..8)
            .map(|i| ctx.to_mont_vec(&BigUint::from(i as u64 + 2)))
            .collect();
        let chunks = (base_m.len() / LANES) as u64;
        count::reset();
        let (_, d_direct) =
            count::measure(|| fetch_entry::<ModeledKnc>(&table, 3, TableLookup::Direct));
        let (_, d_ct) =
            count::measure(|| fetch_entry::<ModeledKnc>(&table, 3, TableLookup::ConstantTime));
        assert_eq!(d_direct.get(OpClass::VMem), chunks);
        // CT pays one load per chunk per entry.
        assert_eq!(d_ct.get(OpClass::VMem), 8 * chunks);
        assert!(d_ct.get(OpClass::VAlu) >= 8 * chunks);
    }

    #[test]
    fn gather_returns_requested_entry() {
        let ctx = ctx256();
        let table: Vec<VecNum> = (0..4)
            .map(|i| ctx.to_mont_vec(&BigUint::from(i as u64 + 10)))
            .collect();
        for want in 0..4 {
            let got = gather_constant_time::<ModeledKnc>(&table, want);
            assert_eq!(got, table[want], "entry {want}");
        }
    }

    #[test]
    fn exponent_all_ones_and_sparse() {
        let ctx = ctx256();
        let n = ctx.modulus().clone();
        let base = BigUint::from(7u64);
        let dense = &BigUint::power_of_two(200) - &BigUint::one();
        let mut sparse = BigUint::zero();
        sparse.set_bit(0, true);
        sparse.set_bit(199, true);
        for exp in [dense, sparse] {
            let want = base.mod_exp(&exp, &n);
            assert_eq!(mod_exp_vec(&ctx, &base, &exp, 5, TableLookup::Direct), want);
        }
    }

    #[test]
    fn native_backend_exponentiation_matches_modeled() {
        // 256 bits takes the single-op kernel's `Vec` storage, 512 and
        // 1024 bits its 3- and 5-chunk arrays; exponents as wide as the
        // modulus.
        for bits in [256u32, 512, 1024] {
            let mut rng = StdRng::seed_from_u64(u64::from(bits));
            let mut n = BigUint::random_bits(&mut rng, bits);
            n.set_bit(0, true);
            let base = &BigUint::random_bits(&mut rng, bits) % &n;
            let exp = BigUint::random_bits(&mut rng, bits);
            let want = base.mod_exp(&exp, &n);
            let modeled = VMontCtx::new(&n).unwrap();
            let native = VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).unwrap();
            for lookup in [TableLookup::Direct, TableLookup::ConstantTime] {
                for ctx in [&modeled, &native] {
                    assert_eq!(
                        mod_exp_vec(ctx, &base, &exp, DEFAULT_WINDOW, lookup),
                        want,
                        "{bits} bits, {:?}, {lookup:?}",
                        ctx.backend()
                    );
                }
            }
        }
    }

    #[test]
    fn window_cost_tradeoff_visible_in_counts() {
        // Larger windows do fewer multiplications per exponent bit but pay
        // a bigger table; at 256 exponent bits w=5 must beat w=1.
        let ctx = ctx256();
        let base = BigUint::from(3u64);
        let exp = &BigUint::power_of_two(255) - &BigUint::one();
        count::reset();
        let (_, d1) = count::measure(|| mod_exp_vec(&ctx, &base, &exp, 1, TableLookup::Direct));
        let (_, d5) = count::measure(|| mod_exp_vec(&ctx, &base, &exp, 5, TableLookup::Direct));
        assert!(
            d5.get(OpClass::VMul) < d1.get(OpClass::VMul),
            "w=5 {} !< w=1 {}",
            d5.get(OpClass::VMul),
            d1.get(OpClass::VMul)
        );
    }
}
