//! Inputs made from the seed before any timer starts: keys, checked
//! (plaintext, ciphertext) pairs and the open-loop send schedule.

use phi_bigint::BigUint;
use phi_rsa::RsaPrivateKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One private-operation request and the answer it must produce.
#[derive(Debug, Clone)]
pub struct Pair {
    pub m: BigUint,
    pub c: BigUint,
}

/// A generator for one named stream of the seed, so streams do not
/// shift when another stream draws more values.
pub fn rng(seed: u64, stream: &str) -> StdRng {
    let mix = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ mix)
}

/// The RSA key of size `bits` for `seed` (the same key for every
/// workload that asks for this size).
pub fn key(seed: u64, bits: u32) -> RsaPrivateKey {
    RsaPrivateKey::generate(&mut rng(seed, &format!("key{bits}")), bits)
        .expect("key generation succeeds for sizes of at least 64 bits")
}

/// `count` requests `c = m^e mod n` with random `2 ≤ m < n`.
pub fn pairs(key: &RsaPrivateKey, rng: &mut StdRng, count: usize) -> Vec<Pair> {
    let n = key.public().n();
    let two = BigUint::from(2u64);
    (0..count)
        .map(|_| {
            let m = BigUint::random_range(rng, &two, n);
            let c = m.mod_exp(key.public().e(), n);
            Pair { m, c }
        })
        .collect()
}

/// Send offsets (seconds from the start of the window) of a Poisson
/// process at `rate` per second over `seconds`, conditioned on its mean
/// count `round(rate · seconds)`: that many uniform arrival times,
/// sorted. Fixing the count keeps the offered load equal across seeds.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round().max(1.0) as usize;
    let mut at: Vec<f64> = (0..count)
        .map(|_| (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
        .collect();
    at.sort_by(f64::total_cmp);
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: u64 = rng(5, "x").gen();
        assert_eq!(a, rng(5, "x").gen::<u64>());
        assert_ne!(a, rng(5, "y").gen::<u64>());
        assert_ne!(a, rng(6, "x").gen::<u64>());
    }

    #[test]
    fn schedule_has_the_mean_count_in_the_window() {
        let s = poisson_schedule(&mut rng(1, "s"), 40.0, 2.0);
        assert_eq!(s.len(), 80);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| (0.0..2.0).contains(&t)));
    }
}
