//! Multi-modulus batched Montgomery: sixteen lanes, sixteen *different*
//! moduli.
//!
//! [`BatchMont`](crate::batch::BatchMont) assumes all lanes share one
//! modulus (one server key). This variant gives every lane its own odd
//! modulus and `n₀'`, which unlocks the other batch-shaped workload:
//! verifying sixteen signatures under sixteen *different* public keys in
//! one pass (everyone's public exponent is 65537, so the ladder schedule
//! is still shared even though the keys differ).
//!
//! All lanes run `k = max kᵢ` reduction rows with the shared radix
//! `R = 2^(27·k)` — perfectly valid Montgomery for the smaller moduli too,
//! their residues just ride in a larger-than-minimal radix. The kernel is
//! [`BatchMont`](crate::batch::BatchMont)'s classic interleaved-CIOS
//! body, fed per-lane modulus columns and `n₀'` instead of broadcast
//! ones; the ladder stays here because its domain entry and exit are
//! priced differently.

use crate::batch::{cios_mont_mul_16, Batch16, BATCH_WIDTH};
use crate::radix::{pad_to_lanes, VecNum, DIGIT_BITS, DIGIT_MASK, LANES};
use crate::vmont::inv_mod_digit;
use phi_backend::{with_backend, ResolvedBackend, VectorBackend, V64};
use phi_bigint::{BigIntError, BigUint};
use phi_simd::count::OpClass;

/// Batched Montgomery arithmetic over sixteen independent odd moduli.
pub struct MultiBatchMont {
    moduli: Vec<BigUint>,
    /// Shared reduction-row count (max over the lanes).
    k: usize,
    /// Shared padded digit width.
    kk: usize,
    /// Per-digit, per-lane modulus digits (transposed halves, lane arrays
    /// so the same data feeds either backend's registers).
    n_halves: Vec<([u64; 8], [u64; 8])>,
    /// Per-lane `-nᵢ⁻¹ mod 2^27` (halves).
    n0_halves: ([u64; 8], [u64; 8]),
    /// Per-lane `R² mod nᵢ` for entering the domain.
    rr: Vec<BigUint>,
    /// Per-lane modulus in digit form (for the conditional subtract).
    n_vecs: Vec<VecNum>,
    /// Which vector backend the kernels run on.
    backend: ResolvedBackend,
}

impl MultiBatchMont {
    /// Build for sixteen odd moduli on the modeled-KNC backend.
    pub fn new(moduli: &[BigUint]) -> Result<Self, BigIntError> {
        Self::with_backend(moduli, ResolvedBackend::ModeledKnc)
    }

    /// Build for sixteen odd moduli on an explicit backend.
    pub fn with_backend(moduli: &[BigUint], backend: ResolvedBackend) -> Result<Self, BigIntError> {
        assert_eq!(moduli.len(), BATCH_WIDTH, "need exactly 16 moduli");
        for n in moduli {
            if n.is_zero() || n.is_even() {
                return Err(BigIntError::EvenModulus);
            }
        }
        let k = moduli
            .iter()
            .map(|n| n.bit_length().div_ceil(DIGIT_BITS) as usize)
            .max()
            .expect("sixteen moduli");
        let kk = pad_to_lanes(k + 1);
        let r_bits = (k as u32) * DIGIT_BITS;

        let n_vecs: Vec<VecNum> = moduli.iter().map(|n| VecNum::from_biguint(n, kk)).collect();
        let mut n_halves = Vec::with_capacity(kk);
        for d in 0..kk {
            let mut lo = [0u64; 8];
            let mut hi = [0u64; 8];
            for j in 0..BATCH_WIDTH {
                let v = n_vecs[j].digit(d);
                if j < 8 {
                    lo[j] = v;
                } else {
                    hi[j - 8] = v;
                }
            }
            with_backend!(backend, B => B::record(OpClass::VPerm, 4));
            n_halves.push((lo, hi));
        }

        let mut lo = [0u64; 8];
        let mut hi = [0u64; 8];
        for (j, n) in moduli.iter().enumerate() {
            let inv = (1u64 << DIGIT_BITS) - inv_mod_digit(n.limbs()[0] & DIGIT_MASK);
            if j < 8 {
                lo[j] = inv;
            } else {
                hi[j - 8] = inv;
            }
        }
        let rr = moduli
            .iter()
            .map(|n| &BigUint::power_of_two(2 * r_bits) % n)
            .collect();
        Ok(MultiBatchMont {
            moduli: moduli.to_vec(),
            k,
            kk,
            n_halves,
            n0_halves: (lo, hi),
            rr,
            n_vecs,
            backend,
        })
    }

    /// The backend this engine's kernels run on.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// Shared padded digit width.
    pub fn padded_digits(&self) -> usize {
        self.kk
    }

    /// The lane moduli.
    pub fn moduli(&self) -> &[BigUint] {
        &self.moduli
    }

    /// Lift per-lane residues into the Montgomery domain (digit form).
    pub fn to_mont_lanes(&self, values: &[BigUint]) -> Batch16 {
        with_backend!(self.backend, B => self.to_mont_lanes_generic::<B>(values))
    }

    fn to_mont_lanes_generic<B: VectorBackend>(&self, values: &[BigUint]) -> Batch16 {
        assert_eq!(values.len(), BATCH_WIDTH);
        let plain: Vec<VecNum> = values
            .iter()
            .zip(&self.moduli)
            .map(|(v, n)| VecNum::from_biguint(&(v % n), self.kk))
            .collect();
        let rrs: Vec<VecNum> = self
            .rr
            .iter()
            .map(|r| VecNum::from_biguint(r, self.kk))
            .collect();
        self.mont_mul_16_generic::<B>(
            &Batch16::transpose_from_impl::<B>(&plain),
            &Batch16::transpose_from_impl::<B>(&rrs),
        )
    }

    /// Map out of the Montgomery domain to plain residues.
    pub fn from_mont_lanes(&self, batch: &Batch16) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.from_mont_lanes_generic::<B>(batch))
    }

    #[allow(clippy::wrong_self_convention)] // mirrors the public from_mont_lanes it backs
    fn from_mont_lanes_generic<B: VectorBackend>(&self, batch: &Batch16) -> Vec<BigUint> {
        let mut one = VecNum::zero(self.kk);
        one.digits_mut()[0] = 1;
        let ones = vec![one; BATCH_WIDTH];
        self.mont_mul_16_generic::<B>(batch, &Batch16::transpose_from_impl::<B>(&ones))
            .transpose_out_impl::<B>()
            .iter()
            .map(|v| v.to_biguint())
            .collect()
    }

    /// Sixteen Montgomery products, lane `j` modulo `moduli[j]`.
    pub fn mont_mul_16(&self, a: &Batch16, b: &Batch16) -> Batch16 {
        with_backend!(self.backend, B => self.mont_mul_16_generic::<B>(a, b))
    }

    fn mont_mul_16_generic<B: VectorBackend>(&self, a: &Batch16, b: &Batch16) -> Batch16 {
        let _span = phi_trace::span(phi_trace::Scope::BatchMont);
        let n_cols: Vec<(V64<B>, V64<B>)> = self
            .n_halves
            .iter()
            .map(|&(lo, hi)| (V64::<B>::from_lanes(lo), V64::<B>::from_lanes(hi)))
            .collect();
        let n0 = (
            V64::<B>::from_lanes(self.n0_halves.0),
            V64::<B>::from_lanes(self.n0_halves.1),
        );
        cios_mont_mul_16::<B>(a, b, self.k, &n_cols, n0, &self.n_vecs)
    }

    /// Sixteen exponentiations with one **shared** exponent but per-lane
    /// moduli — the batched signature-verification shape (`e = 65537`
    /// across different keys).
    pub fn mod_exp_16(&self, bases: &[BigUint], exp: &BigUint, window: u32) -> Vec<BigUint> {
        with_backend!(self.backend, B => self.mod_exp_16_generic::<B>(bases, exp, window))
    }

    fn mod_exp_16_generic<B: VectorBackend>(
        &self,
        bases: &[BigUint],
        exp: &BigUint,
        window: u32,
    ) -> Vec<BigUint> {
        let _span = phi_trace::span(phi_trace::Scope::BatchExp);
        assert_eq!(bases.len(), BATCH_WIDTH);
        assert!((1..=7).contains(&window));
        if exp.is_zero() {
            return vec![BigUint::one(); BATCH_WIDTH];
        }
        let base_b = self.to_mont_lanes_generic::<B>(bases);

        // table[v] = base^v per lane; table[0] = per-lane R mod n.
        let ones: Vec<VecNum> = self
            .moduli
            .iter()
            .map(|n| {
                let r = &BigUint::power_of_two(self.k as u32 * DIGIT_BITS) % n;
                VecNum::from_biguint(&r, self.kk)
            })
            .collect();
        let one_b = Batch16::transpose_from_impl::<B>(&ones);
        let table_len = 1usize << window;
        let mut table = Vec::with_capacity(table_len);
        table.push(one_b);
        for v in 1..table_len {
            let prev: &Batch16 = &table[v - 1];
            table.push(self.mont_mul_16_generic::<B>(prev, &base_b));
        }

        let bits = exp.bit_length();
        let windows = bits.div_ceil(window);
        let mut acc = table[0].clone();
        for win in (0..windows).rev() {
            for _ in 0..window {
                acc = self.mont_mul_16_generic::<B>(&acc, &acc);
            }
            let lo = win * window;
            let width = window.min(bits - lo);
            let val = exp.extract_bits(lo, width) as usize;
            B::record(OpClass::SAlu, 4);
            B::record(OpClass::VMem, 2 * (self.kk / LANES) as u64);
            acc = self.mont_mul_16_generic::<B>(&acc, &table[val]);
        }
        self.from_mont_lanes_generic::<B>(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sixteen_moduli(base_bits: u32) -> Vec<BigUint> {
        // Deterministic odd moduli of *varying* widths.
        let mut state = 0x0DD5_EED5u64;
        (0..BATCH_WIDTH as u32)
            .map(|j| {
                let bits = base_bits + 13 * (j % 4); // four different widths
                let mut limbs = Vec::new();
                for _ in 0..bits.div_ceil(64) {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    limbs.push(state);
                }
                let mut n = BigUint::from_limbs(limbs);
                n.mask_low_bits(bits);
                n.set_bit(bits - 1, true);
                n.set_bit(0, true);
                n
            })
            .collect()
    }

    #[test]
    fn rejects_even_modulus() {
        let mut m = sixteen_moduli(96);
        m[5] = BigUint::from(100u64);
        assert!(MultiBatchMont::new(&m).is_err());
    }

    #[test]
    fn roundtrip_per_lane() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let values: Vec<BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &BigUint::from(0xAA55_0000 + j * 331) % &moduli[j as usize])
            .collect();
        let m = mb.to_mont_lanes(&values);
        assert_eq!(mb.from_mont_lanes(&m), values);
    }

    #[test]
    fn mont_mul_matches_per_lane_oracle() {
        let moduli = sixteen_moduli(128);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let a: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j * 7919 + 3) % &moduli[j as usize])
            .collect();
        let b: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j * 104729 + 5) % &moduli[j as usize])
            .collect();
        let am = mb.to_mont_lanes(&a);
        let bm = mb.to_mont_lanes(&b);
        let got = mb.from_mont_lanes(&mb.mont_mul_16(&am, &bm));
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], a[j].mod_mul(&b[j], &moduli[j]), "lane {j}");
        }
    }

    #[test]
    fn shared_exponent_exp_matches_oracle() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let bases: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j + 2) % &moduli[j as usize])
            .collect();
        let e = BigUint::from(65537u64);
        let got = mb.mod_exp_16(&bases, &e, 5);
        for j in 0..BATCH_WIDTH {
            assert_eq!(got[j], bases[j].mod_exp(&e, &moduli[j]), "lane {j}");
        }
    }

    #[test]
    fn exp_edge_cases() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let bases: Vec<BigUint> = (0..16u64).map(|j| BigUint::from(j + 2)).collect();
        let zeros = mb.mod_exp_16(&bases, &BigUint::zero(), 4);
        assert!(zeros.iter().all(|v| v.is_one()));
        let ones = mb.mod_exp_16(&bases, &BigUint::one(), 4);
        for j in 0..BATCH_WIDTH {
            assert_eq!(ones[j], &bases[j] % &moduli[j], "lane {j}");
        }
    }

    #[test]
    fn native_backend_matches_modeled_per_lane() {
        let moduli = sixteen_moduli(96);
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let nb = MultiBatchMont::with_backend(&moduli, ResolvedBackend::NativeX86).unwrap();
        assert_eq!(nb.backend(), ResolvedBackend::NativeX86);
        let bases: Vec<BigUint> = (0..16u64)
            .map(|j| &BigUint::from(j * 7919 + 11) % &moduli[j as usize])
            .collect();
        let e = BigUint::from(65537u64);
        assert_eq!(mb.mod_exp_16(&bases, &e, 5), nb.mod_exp_16(&bases, &e, 5));
    }

    #[test]
    fn batched_signature_verification_shape() {
        // Sixteen different RSA keys, one shared e: verify 16 "signatures"
        // (raw RSA) in one pass.
        use phi_rsa::key::RsaPrivateKey;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let keys: Vec<RsaPrivateKey> = (0..4)
            .map(|i| RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xAB0 + i), 128).unwrap())
            .collect();
        // Reuse 4 keys across 16 lanes (keygen cost), still 4 distinct moduli.
        let moduli: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| keys[j % 4].public().n().clone())
            .collect();
        let msgs: Vec<BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &BigUint::from(j + 17) % &moduli[j as usize])
            .collect();
        let sigs: Vec<BigUint> = (0..BATCH_WIDTH)
            .map(|j| msgs[j].mod_exp(keys[j % 4].d(), &moduli[j]))
            .collect();
        let mb = MultiBatchMont::new(&moduli).unwrap();
        let recovered = mb.mod_exp_16(&sigs, &BigUint::from(65537u64), 5);
        assert_eq!(recovered, msgs, "all sixteen signatures verify");
    }
}
