//! The raw RSA operations (`RSAEP` / `RSADP`), generic over the selected
//! big-number library, plus the padded convenience API.
//!
//! The private operation follows OpenSSL's `rsa_ossl_mod_exp`: two CRT
//! half-exponentiations with the library's exponentiation policy, Garner
//! recombination with the library's multiplier, and optional blinding.
//!
//! Montgomery contexts are cached: every modulus an [`RsaOps`] touches
//! (`n`, `p`, `q`) gets one [`ModulusSession`] built on first use and
//! reused for the life of the context. A key's operation stream therefore
//! pays context setup once per modulus, not once per call.
//!
//! For batch-shaped server loads, [`RsaBatchService::new_fleet`] wires a
//! private key into `phi_rt`'s offload service: submissions from any
//! thread aggregate into 16-lane [`BatchCrtEngine`] passes on one or more
//! modeled cards (`PhiConfig::builder().fleet(..)`). Every card runs the
//! fault-tolerant flush ladder over its own engine and Montgomery session
//! cache, with a host-scalar CRT closure as the degradation path, so
//! injected card faults (or a tripped breaker) cost throughput, not
//! answers; `PhiConfig::builder().verified()` adds verify-on-release.
//! Submissions are routed by the key's modulus fingerprint so a key's
//! stream stays on its warm card, and work stealing plus whole-card
//! migration keep answers flowing when one of several cards lags or
//! trips. An [`RsaOps`] with an attached service
//! ([`RsaOps::with_service`]) routes eligible private operations through
//! it and falls back to the sequential CRT path under backpressure.

use crate::blinding::Blinding;
use crate::error::RsaError;
use crate::key::{RsaPrivateKey, RsaPublicKey};
use crate::padding;
use phi_bigint::BigUint;
use phi_faults::FaultSource;
use phi_mont::{Libcrypto, ModulusSession, OpensslBaseline};
use phi_rt::resilient::HostFn;
use phi_rt::service::SubmitError;
use phi_rt::stats::ResilienceReport;
use phi_rt::{
    key_fingerprint, CardSetup, FleetReport, FleetScheduler, IntegrityHooks, ResilienceConfig,
    ResilientHandle,
};
use phiopenssl::{BatchCrtEngine, BatchMont, MontVariant, PhiConfig, VMontCtx};
use rand::Rng;
use std::sync::{Arc, Mutex};

/// A pending plaintext from an [`RsaBatchService`]: redeem with
/// [`RsaTicket::wait`].
pub struct RsaTicket(ResilientHandle<BigUint>);

impl RsaTicket {
    /// Block until the flush carrying this request resolved it — on a
    /// card, on the host fallback, or with a typed error.
    pub fn wait(self) -> Result<BigUint, RsaError> {
        self.0.wait().map_err(RsaError::from)
    }
}

/// A shared work-conserving batch executor for one private key.
///
/// Holds `phi_rt`'s [`FleetScheduler`] — one modeled card or several —
/// with a [`BatchCrtEngine`] built from the key's CRT material on every
/// card. Clone-free sharing: wrap it in an [`Arc`] and hand it to every
/// [`RsaOps`] (or TLS connection) serving that key.
pub struct RsaBatchService {
    fleet: FleetScheduler<BigUint, BigUint>,
    n: BigUint,
    /// [`key_fingerprint`] of `n`'s big-endian bytes — the routing key
    /// every submission carries, precomputed once per service.
    fp: u64,
}

/// The 16-lane card executor for `key`. The engine's vector backend and
/// single-op window width come from `phi`; its batch ladders run the
/// committed tuning table's point for this key size. Built from the
/// key's parts rather than through
/// [`BatchCrtEngine::with_config`], which would first build a
/// [`phiopenssl::CrtKey`] and with it two Montgomery contexts per card
/// that the engine never uses.
fn card_engine(key: &RsaPrivateKey, phi: &PhiConfig) -> Result<BatchCrtEngine, RsaError> {
    Ok(BatchCrtEngine::from_parts(
        key.public().n().clone(),
        key.dp().clone(),
        key.dq().clone(),
        key.qinv().clone(),
        key.p().clone(),
        key.q().clone(),
        phi,
    )?)
}

/// Host-scalar CRT over the host library's Montgomery sessions — the
/// same path [`RsaOps::private_op`] takes with no service, so degraded
/// throughput is priced as what the host can actually do, not as a free
/// pass. Each card owns one.
fn host_crt(key: &RsaPrivateKey) -> Result<HostFn<BigUint, BigUint>, RsaError> {
    let (p, q) = (key.p().clone(), key.q().clone());
    let (dp, dq, qinv) = (key.dp().clone(), key.dq().clone(), key.qinv().clone());
    let sp = OpensslBaseline.with_modulus(key.p())?;
    let sq = OpensslBaseline.with_modulus(key.q())?;
    Ok(Box::new(move |c: &BigUint| {
        let m1 = sp.mod_exp(c, &dp);
        let m2 = sq.mod_exp(c, &dq);
        let h = (&qinv * &m1.mod_sub(&m2, &p))
            .rem_ref(&p)
            .expect("prime modulus is nonzero");
        &m2 + &(&h * &q)
    }))
}

/// Result-integrity hooks for `key`: the corruption model a silent card
/// fault applies to one lane's plaintext (`(m + 1) mod n` — with `e`
/// coprime to `λ(n)` the e-th root of `c` is unique, so *any* change to
/// `m` is guaranteed to fail the check), and the release check itself —
/// the cheap public-exponent test `m^e ≡ c (mod n)` over the whole
/// flush in one [`BatchMont::pow_eq_masked`] call (~17 Montgomery
/// multiplications at e = 65537). The check is sized to the live lanes
/// the way the card pass is: a flush of at most
/// [`SINGLE_OP_MAX_LIVE`](phiopenssl::engine::SINGLE_OP_MAX_LIVE) lanes
/// gets one single-lane check per lane, a fuller one a 16-lane check
/// (the generated kernel's `pow_eq_16` at the static point) whose cost
/// amortizes over every released lane, which is what keeps verification
/// under the `perfgate --verify-overhead` bound. Both contexts are built
/// here, once per card, and run on the card's vector backend
/// (`phi.backend`); no flush builds one. Without this check a silently
/// faulted CRT half leaks the private key via `gcd(s − ŝ, n)` (the
/// Bellcore attack).
fn integrity_hooks(
    key: &RsaPrivateKey,
    phi: &PhiConfig,
) -> Result<IntegrityHooks<BigUint, BigUint>, RsaError> {
    let n = key.public().n().clone();
    let e = key.public().e().clone();
    let ctx = VMontCtx::with_backend(key.public().n(), phi.backend.resolve())?;
    let check = BatchMont::with_variant(&ctx, MontVariant::Auto);
    Ok(IntegrityHooks::verified_batch(
        move |_c: &BigUint, m: &BigUint| (m + 1u64).rem_ref(&n).expect("public modulus is nonzero"),
        move |pairs: &[(&BigUint, &BigUint)]| {
            let (expected, bases): (Vec<BigUint>, Vec<BigUint>) =
                pairs.iter().map(|&(c, m)| (c.clone(), m.clone())).unzip();
            check.pow_eq_masked(&bases, &e, &expected)
        },
    ))
}

impl RsaBatchService {
    /// Start the offload service for `key`.
    ///
    /// The card shape comes from `phi.fleet`
    /// (`PhiConfig::builder().fleet(FleetConfig { cards, .. })`; one card
    /// by default): each modeled KNC card runs the fault-tolerant flush
    /// ladder over its *own* [`BatchCrtEngine`] — built from `phi`, and
    /// therefore with its own warm Montgomery session cache — with its
    /// own circuit breaker, virtual clock and host-scalar CRT fallback.
    /// Submissions carry the key's modulus fingerprint, so affinity
    /// routing keeps one key's stream on the card whose sessions are
    /// warm; work stealing and whole-card migration rebalance when a card
    /// lags or trips. `resilience.service` sets the batch width and the
    /// queue cap. An idle card flushes whatever is parked at once.
    ///
    /// With `phi.verified` set (`PhiConfig::builder().verified()`) every
    /// card plaintext is checked against `m^e ≡ c (mod n)` before it
    /// resolves, and a failed check walks the graded ladder (on-card
    /// re-run → lane quarantine → breaker escalation → host-scalar
    /// fallback). No unverified result is ever released, which closes
    /// the silent-fault / Bellcore key-leak channel.
    ///
    /// `faults` holds one optional fault schedule per card (index =
    /// card); a shorter vector leaves the remaining cards healthy.
    pub fn new_fleet(
        key: &RsaPrivateKey,
        phi: &PhiConfig,
        resilience: ResilienceConfig,
        faults: Vec<Option<Arc<dyn FaultSource>>>,
    ) -> Result<Self, RsaError> {
        let fleet = phi.fleet;
        assert!(
            faults.len() <= fleet.cards,
            "{} fault schedules for a {}-card fleet",
            faults.len(),
            fleet.cards
        );
        let mut faults = faults;
        faults.resize_with(fleet.cards, || None);
        let mut setups = Vec::with_capacity(fleet.cards);
        for card_faults in faults {
            let engine = card_engine(key, phi)?;
            let mut setup = CardSetup::new(move |cts: &[BigUint]| engine.private_op_masked(cts));
            setup.host_fn = Some(host_crt(key)?);
            setup.faults = card_faults;
            if phi.verified {
                setup.integrity = Some(integrity_hooks(key, phi)?);
            }
            setups.push(setup);
        }
        Ok(RsaBatchService {
            fleet: FleetScheduler::new(fleet, resilience, setups),
            fp: key_fingerprint(&key.public().n().to_bytes_be()),
            n: key.public().n().clone(),
        })
    }

    /// The public modulus this service decrypts under.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Submit one ciphertext; redeem the ticket for the plaintext. The
    /// submission carries the modulus fingerprint so affinity routing
    /// keeps this key's stream on its warm card.
    pub fn submit(&self, c: BigUint) -> Result<RsaTicket, SubmitError> {
        Ok(RsaTicket(self.fleet.submit_keyed(Some(self.fp), c)?))
    }

    /// Submit a burst of ciphertexts at once, all or nothing: the burst
    /// is parked whole, so an idle card flushes `min(burst, width)` of
    /// them together, and a burst that does not fit parks nothing and
    /// fails with [`SubmitError::QueueFull`]. See
    /// [`FleetScheduler::submit_many_keyed`].
    pub fn submit_many(&self, cts: Vec<BigUint>) -> Result<Vec<RsaTicket>, SubmitError> {
        let handles = self.fleet.submit_many_keyed(Some(self.fp), cts)?;
        Ok(handles.into_iter().map(RsaTicket).collect())
    }

    /// Submit and block until the flush carrying this request resolved.
    pub fn call(&self, c: BigUint) -> Result<BigUint, RsaError> {
        self.submit(c)?.wait()
    }

    /// Telemetry snapshot so far, every card's report merged. Always
    /// `Some`; the `Option` keeps callers that `flatten()` it compiling.
    pub fn resilience_report(&self) -> Option<ResilienceReport> {
        Some(self.fleet.report().merged())
    }

    /// Drain parked requests, stop every card worker, and return the
    /// final per-card telemetry ([`FleetReport::merged`] rolls it up).
    pub fn shutdown_fleet(self) -> FleetReport {
        self.fleet.shutdown()
    }
}

/// An RSA operation context bound to one big-number library.
///
/// Caches one [`ModulusSession`] per modulus it operates under, so
/// repeated operations never rebuild Montgomery contexts.
pub struct RsaOps {
    lib: Box<dyn Libcrypto>,
    use_crt: bool,
    sessions: Mutex<Vec<(BigUint, Arc<ModulusSession>)>>,
    service: Option<Arc<RsaBatchService>>,
}

impl RsaOps {
    /// Build over the given library, with CRT enabled (the default of
    /// every real RSA implementation).
    pub fn new(lib: Box<dyn Libcrypto>) -> Self {
        RsaOps {
            lib,
            use_crt: true,
            sessions: Mutex::new(Vec::new()),
            service: None,
        }
    }

    /// Disable the CRT path (ablation E7 — a single full-size ladder).
    pub fn without_crt(lib: Box<dyn Libcrypto>) -> Self {
        RsaOps {
            use_crt: false,
            ..Self::new(lib)
        }
    }

    /// Route eligible private operations through a shared batch service.
    ///
    /// A private op goes to the service when CRT is enabled and the key's
    /// modulus matches the service's; on [`SubmitError::QueueFull`] the
    /// operation falls back to this context's sequential CRT path, so
    /// backpressure degrades throughput rather than failing requests.
    pub fn with_service(mut self, service: Arc<RsaBatchService>) -> Self {
        self.service = Some(service);
        self
    }

    /// The wrapped library's display name.
    pub fn lib_name(&self) -> &'static str {
        self.lib.name()
    }

    /// Whether the private path uses the CRT.
    pub fn uses_crt(&self) -> bool {
        self.use_crt
    }

    /// The cached session for `n`, built through the library on first use.
    fn session_for(&self, n: &BigUint) -> Result<Arc<ModulusSession>, RsaError> {
        let mut cache = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, session)) = cache.iter().find(|(m, _)| m == n) {
            return Ok(Arc::clone(session));
        }
        let session = Arc::new(self.lib.with_modulus(n)?);
        cache.push((n.clone(), Arc::clone(&session)));
        Ok(session)
    }

    /// `RSAEP`: `m^e mod n`. Errors if `m ≥ n`.
    pub fn public_op(&self, key: &RsaPublicKey, m: &BigUint) -> Result<BigUint, RsaError> {
        if m >= key.n() {
            return Err(RsaError::InputOutOfRange);
        }
        Ok(self.session_for(key.n())?.mod_exp(m, key.e()))
    }

    /// `RSADP`: `c^d mod n` via CRT (or the full ladder when disabled).
    ///
    /// With an attached [`RsaBatchService`] for this key, the operation
    /// is batched with concurrent requests; under service backpressure it
    /// runs sequentially here instead.
    pub fn private_op(&self, key: &RsaPrivateKey, c: &BigUint) -> Result<BigUint, RsaError> {
        let _span = phi_trace::span(phi_trace::Scope::RsaPrivate);
        if c >= key.public().n() {
            return Err(RsaError::InputOutOfRange);
        }
        if let Some(service) = &self.service {
            if self.use_crt && service.modulus() == key.public().n() {
                match service.call(c.clone()) {
                    Ok(m) => {
                        if phi_trace::is_enabled() {
                            phi_trace::registry().counter_add("rsa.private.batched", 1);
                        }
                        return Ok(m);
                    }
                    Err(RsaError::Service(SubmitError::QueueFull { .. })) => {
                        // Shed to the sequential path below.
                        if phi_trace::is_enabled() {
                            phi_trace::registry().counter_add("rsa.private.shed", 1);
                        }
                    }
                    Err(RsaError::Service(_) | RsaError::Offload(_)) => {
                        // Service gone or offload gave up: this context's
                        // own sequential CRT is the degradation of last
                        // resort — the request still gets its answer.
                        if phi_trace::is_enabled() {
                            phi_trace::registry().counter_add("rsa.private.fallback", 1);
                        }
                    }
                    Err(other) => return Err(other),
                }
            }
        }
        if phi_trace::is_enabled() {
            phi_trace::registry().counter_add("rsa.private.sequential", 1);
        }
        self.private_op_sequential(key, c)
    }

    /// The in-thread private operation (never routed to a service).
    fn private_op_sequential(&self, key: &RsaPrivateKey, c: &BigUint) -> Result<BigUint, RsaError> {
        if !self.use_crt {
            return Ok(self.session_for(key.public().n())?.mod_exp(c, key.d()));
        }
        // m1 = c^dp mod p ; m2 = c^dq mod q
        let m1 = self.session_for(key.p())?.mod_exp(c, key.dp());
        let m2 = self.session_for(key.q())?.mod_exp(c, key.dq());
        // h = qinv · (m1 − m2) mod p  (Garner)
        let diff = m1.mod_sub(&m2, key.p());
        let h = self.lib.big_mul(key.qinv(), &diff).rem_ref(key.p())?;
        // m = m2 + h·q
        Ok(&m2 + &self.lib.big_mul(&h, key.q()))
    }

    /// `RSADP` with multiplicative blinding (the side-channel-hardened
    /// production path).
    pub fn private_op_blinded<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key: &RsaPrivateKey,
        blinding: &mut Blinding,
        c: &BigUint,
    ) -> Result<BigUint, RsaError> {
        let blinded = blinding.blind(c);
        let raw = self.private_op(key, &blinded)?;
        let out = blinding.unblind(&raw);
        blinding.step(rng);
        Ok(out)
    }

    // ----- padded convenience API -----

    /// PKCS#1 v1.5 encryption.
    pub fn encrypt_pkcs1v15<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key: &RsaPublicKey,
        msg: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let em = padding::pkcs1v15::pad_encrypt(rng, msg, key.size_bytes())?;
        let c = self.public_op(key, &BigUint::from_bytes_be(&em))?;
        Ok(c.to_bytes_be_padded(key.size_bytes()))
    }

    /// PKCS#1 v1.5 decryption.
    pub fn decrypt_pkcs1v15(&self, key: &RsaPrivateKey, ct: &[u8]) -> Result<Vec<u8>, RsaError> {
        let c = BigUint::from_bytes_be(ct);
        let em = self
            .private_op(key, &c)?
            .to_bytes_be_padded(key.public().size_bytes());
        padding::pkcs1v15::unpad_encrypt(&em)
    }

    /// PKCS#1 v1.5 signature over a SHA-256 digest of `msg`.
    pub fn sign_pkcs1v15_sha256(
        &self,
        key: &RsaPrivateKey,
        msg: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let em = padding::pkcs1v15::pad_sign_sha256(msg, key.public().size_bytes())?;
        let s = self.private_op(key, &BigUint::from_bytes_be(&em))?;
        Ok(s.to_bytes_be_padded(key.public().size_bytes()))
    }

    /// Verify a PKCS#1 v1.5 / SHA-256 signature.
    pub fn verify_pkcs1v15_sha256(
        &self,
        key: &RsaPublicKey,
        msg: &[u8],
        sig: &[u8],
    ) -> Result<(), RsaError> {
        if sig.len() != key.size_bytes() {
            return Err(RsaError::VerificationFailed);
        }
        let s = BigUint::from_bytes_be(sig);
        let em = self
            .public_op(key, &s)?
            .to_bytes_be_padded(key.size_bytes());
        padding::pkcs1v15::verify_sign_sha256(msg, &em)
    }

    /// OAEP (SHA-256) encryption.
    pub fn encrypt_oaep<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key: &RsaPublicKey,
        msg: &[u8],
        label: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let em = padding::oaep::pad(rng, msg, label, key.size_bytes())?;
        let c = self.public_op(key, &BigUint::from_bytes_be(&em))?;
        Ok(c.to_bytes_be_padded(key.size_bytes()))
    }

    /// OAEP (SHA-256) decryption.
    pub fn decrypt_oaep(
        &self,
        key: &RsaPrivateKey,
        ct: &[u8],
        label: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let c = BigUint::from_bytes_be(ct);
        let em = self
            .private_op(key, &c)?
            .to_bytes_be_padded(key.public().size_bytes());
        padding::oaep::unpad(&em, label)
    }

    /// PSS (SHA-256) signature.
    pub fn sign_pss_sha256<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        key: &RsaPrivateKey,
        msg: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let bits = key.public().bits();
        let em = padding::pss::encode(rng, msg, bits)?;
        let s = self.private_op(key, &BigUint::from_bytes_be(&em))?;
        Ok(s.to_bytes_be_padded(key.public().size_bytes()))
    }

    /// Verify a PSS (SHA-256) signature.
    pub fn verify_pss_sha256(
        &self,
        key: &RsaPublicKey,
        msg: &[u8],
        sig: &[u8],
    ) -> Result<(), RsaError> {
        if sig.len() != key.size_bytes() {
            return Err(RsaError::VerificationFailed);
        }
        let s = BigUint::from_bytes_be(sig);
        let em_int = self.public_op(key, &s)?;
        padding::pss::verify(msg, &em_int, key.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_mont::{MpssBaseline, OpensslBaseline};
    use phi_rt::service::ServiceConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key256() -> RsaPrivateKey {
        RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xA11CE), 256).unwrap()
    }

    fn all_ops() -> Vec<RsaOps> {
        vec![
            RsaOps::new(Box::new(MpssBaseline)),
            RsaOps::new(Box::new(OpensslBaseline)),
        ]
    }

    #[test]
    fn public_private_roundtrip_all_libs() {
        let key = key256();
        let m = BigUint::from(0xDEADBEEFu64);
        for ops in all_ops() {
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(ops.private_op(&key, &c).unwrap(), m, "{}", ops.lib_name());
        }
    }

    #[test]
    fn crt_equals_full_ladder() {
        let key = key256();
        let c = BigUint::from(123456789u64);
        let with = RsaOps::new(Box::new(MpssBaseline))
            .private_op(&key, &c)
            .unwrap();
        let without = RsaOps::without_crt(Box::new(MpssBaseline))
            .private_op(&key, &c)
            .unwrap();
        assert_eq!(with, without);
        assert_eq!(with, c.mod_exp(key.d(), key.public().n()));
    }

    #[test]
    fn out_of_range_inputs_rejected() {
        let key = key256();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let too_big = key.public().n().clone();
        assert!(matches!(
            ops.public_op(key.public(), &too_big),
            Err(RsaError::InputOutOfRange)
        ));
        assert!(matches!(
            ops.private_op(&key, &too_big),
            Err(RsaError::InputOutOfRange)
        ));
    }

    #[test]
    fn blinded_private_op_matches_plain() {
        let key = key256();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let mut rng = StdRng::seed_from_u64(77);
        let mut blinding = Blinding::new(&mut rng, key.public().n(), key.public().e());
        let m = BigUint::from(424242u64);
        let c = ops.public_op(key.public(), &m).unwrap();
        for _ in 0..5 {
            let got = ops
                .private_op_blinded(&mut rng, &key, &mut blinding, &c)
                .unwrap();
            assert_eq!(got, m);
        }
    }

    #[test]
    fn message_zero_and_one() {
        let key = key256();
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for m in [BigUint::zero(), BigUint::one()] {
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(ops.private_op(&key, &c).unwrap(), m);
        }
    }

    /// Regression for the session cache: an operation stream over one key
    /// builds each Montgomery context exactly once — `n` for the public
    /// side, `p` and `q` for the CRT halves — no matter how many
    /// operations run.
    #[test]
    fn operation_stream_builds_each_context_once() {
        let key = key256();
        let m = BigUint::from(0x5EED5u64);
        for lib in [
            Box::new(MpssBaseline) as Box<dyn Libcrypto>,
            Box::new(OpensslBaseline),
            Box::new(phiopenssl::PhiLibrary::default()),
        ] {
            let ops = RsaOps::new(lib);
            let name = ops.lib_name();
            let (_, setups) = phi_simd::count::measure_ctx_setups(|| {
                let c = ops.public_op(key.public(), &m).unwrap();
                for _ in 0..6 {
                    assert_eq!(ops.private_op(&key, &c).unwrap(), m, "{name}");
                }
            });
            assert_eq!(setups, 3, "{name}: one context each for n, p, q");
        }
    }

    #[test]
    fn non_crt_stream_builds_one_context() {
        let key = key256();
        let ops = RsaOps::without_crt(Box::new(MpssBaseline));
        let m = BigUint::from(31337u64);
        let (_, setups) = phi_simd::count::measure_ctx_setups(|| {
            let c = ops.public_op(key.public(), &m).unwrap();
            for _ in 0..4 {
                assert_eq!(ops.private_op(&key, &c).unwrap(), m);
            }
        });
        assert_eq!(setups, 1, "public and full-ladder paths share n's session");
    }

    fn service(key: &RsaPrivateKey, phi: &PhiConfig) -> RsaBatchService {
        RsaBatchService::new_fleet(key, phi, ResilienceConfig::default(), Vec::new())
            .expect("offload service")
    }

    fn verified() -> PhiConfig {
        PhiConfig::builder().verified().build()
    }

    fn two_cards() -> phiopenssl::PhiConfigBuilder {
        PhiConfig::builder()
            .fleet(phiopenssl::FleetConfig {
                cards: 2,
                ..phiopenssl::FleetConfig::default()
            })
            .unwrap()
    }

    fn unshare(service: Arc<RsaBatchService>) -> RsaBatchService {
        Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"))
    }

    #[test]
    fn service_backed_private_op_matches_sequential() {
        let key = key256();
        let service = Arc::new(service(&key, &PhiConfig::default()));
        let ops = RsaOps::new(Box::new(MpssBaseline)).with_service(Arc::clone(&service));
        let plain = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=5 {
            let m = BigUint::from(i * 1_000_003);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(ops.private_op(&key, &c).unwrap(), m);
            assert_eq!(plain.private_op(&key, &c).unwrap(), m);
        }
        drop(ops);
        let report = unshare(service).shutdown_fleet().merged();
        assert_eq!(
            report.service.ops(),
            5,
            "all five private ops went through the service"
        );
    }

    /// An explicit PhiConfig flows through to the card engine: a
    /// native-backend service decrypts identically to the modeled default
    /// (skipped on hosts without AVX2, where native is unavailable).
    #[test]
    fn service_with_native_phi_config_matches_modeled() {
        if !phiopenssl::CpuFeatures::detect().avx2 {
            return;
        }
        let key = key256();
        let phi = PhiConfig::builder()
            .backend(phiopenssl::Backend::NativeX86)
            .expect("AVX2 detected")
            .build();
        let service = Arc::new(service(&key, &phi));
        let ops = RsaOps::new(Box::new(MpssBaseline)).with_service(Arc::clone(&service));
        let m = BigUint::from(0xFEED_F00Du64);
        let c = ops.public_op(key.public(), &m).unwrap();
        assert_eq!(ops.private_op(&key, &c).unwrap(), m);
    }

    /// A service for a *different* key must never capture the operation:
    /// the modulus check routes mismatched keys to the sequential path.
    #[test]
    fn service_for_other_key_is_bypassed() {
        let key = key256();
        let other = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xB0B), 256).unwrap();
        let service = Arc::new(service(&other, &PhiConfig::default()));
        let ops = RsaOps::new(Box::new(MpssBaseline)).with_service(Arc::clone(&service));
        let m = BigUint::from(8675309u64);
        let c = ops.public_op(key.public(), &m).unwrap();
        assert_eq!(ops.private_op(&key, &c).unwrap(), m);
        drop(ops);
        let report = unshare(service).shutdown_fleet();
        assert_eq!(
            report.resolved_ops(),
            0,
            "mismatched modulus must not reach the service"
        );
    }

    #[test]
    fn healthy_single_card_serves_every_op_on_the_card() {
        let key = key256();
        let service = service(&key, &PhiConfig::default());
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=4 {
            let m = BigUint::from(i * 9_999_991);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(service.call(c).unwrap(), m);
        }
        let report = service.shutdown_fleet();
        assert_eq!(report.cards.len(), 1);
        assert_eq!(report.steals, 0, "one card has nobody to steal from");
        assert_eq!(report.migrations, 0);
        assert_eq!(
            report.affinity_hits + report.affinity_misses,
            4,
            "every submission was keyed by the modulus fingerprint"
        );
        let card = report.merged();
        assert_eq!(card.service.ops(), 4, "all ops completed on the card");
        assert_eq!(card.host_fallback_ops, 0);
        assert_eq!(card.errored_ops, 0);
        assert_eq!(card.faults_seen, 0);
    }

    #[test]
    fn service_answers_through_host_under_total_fault_rate() {
        use phi_faults::{FaultInjector, FaultRates, FaultSource};
        let key = key256();
        let faults: Arc<dyn FaultSource> =
            Arc::new(FaultInjector::new(0xBADC0DE, FaultRates::uniform(1.0)));
        let config = ResilienceConfig {
            service: ServiceConfig {
                width: 4,
                ..ServiceConfig::default()
            },
            ..ResilienceConfig::default()
        };
        let service =
            RsaBatchService::new_fleet(&key, &PhiConfig::default(), config, vec![Some(faults)])
                .expect("offload service");
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=6 {
            let m = BigUint::from(i * 1_000_003);
            let c = ops.public_op(key.public(), &m).unwrap();
            // Every card attempt faults, yet the answer is still correct:
            // the host-scalar CRT closure picks up every lane.
            assert_eq!(service.call(c).unwrap(), m);
        }
        let report = service.shutdown_fleet().merged();
        assert_eq!(report.errored_ops, 0, "host fallback leaves no errors");
        assert_eq!(report.host_fallback_ops as usize + report.service.ops(), 6);
        assert!(report.host_fallback_ops > 0, "total fault rate forces host");
        assert!(report.faults_seen > 0);
    }

    #[test]
    fn multi_card_fleet_pins_one_key_to_one_card() {
        let key = key256();
        let phi = PhiConfig::builder()
            .fleet(phiopenssl::FleetConfig {
                cards: 3,
                ..phiopenssl::FleetConfig::default()
            })
            .unwrap()
            .build();
        let service = service(&key, &phi);
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=6 {
            let m = BigUint::from(i * 7_777_777);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(service.call(c).unwrap(), m);
        }
        let report = service.shutdown_fleet();
        assert_eq!(report.cards.len(), 3);
        assert_eq!(report.resolved_ops(), 6);
        assert_eq!(report.affinity_misses, 1, "one cold-key homing");
        assert_eq!(report.affinity_hits, 5, "then every op hit the warm card");
    }

    #[test]
    fn fleet_with_one_faulted_card_still_answers_everything() {
        use phi_faults::{FaultInjector, FaultRates, FaultSource};
        let key = key256();
        let faults: Vec<Option<Arc<dyn FaultSource>>> = vec![Some(Arc::new(FaultInjector::new(
            0xF1EE7,
            FaultRates::uniform(1.0),
        )))];
        let service = RsaBatchService::new_fleet(
            &key,
            &two_cards().build(),
            ResilienceConfig::default(),
            faults,
        )
        .expect("fleet service");
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=5 {
            let m = BigUint::from(i * 31_337);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(service.call(c).unwrap(), m);
        }
        let merged = service.shutdown_fleet().merged();
        assert_eq!(merged.errored_ops, 0);
        assert_eq!(merged.resolved_ops(), 5);
    }

    #[test]
    fn ops_with_faulted_service_stays_correct() {
        use phi_faults::{FaultInjector, FaultRates, FaultSource};
        let key = key256();
        let faults: Arc<dyn FaultSource> =
            Arc::new(FaultInjector::new(0x5EED, FaultRates::uniform(0.5)));
        let service = Arc::new(
            RsaBatchService::new_fleet(
                &key,
                &PhiConfig::default(),
                ResilienceConfig::default(),
                vec![Some(faults)],
            )
            .expect("offload service"),
        );
        let ops = RsaOps::new(Box::new(MpssBaseline)).with_service(Arc::clone(&service));
        for i in 1u64..=5 {
            let m = BigUint::from(i * 31_337);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(ops.private_op(&key, &c).unwrap(), m);
        }
        drop(ops);
        let report = unshare(service).shutdown_fleet().merged();
        assert_eq!(report.errored_ops, 0);
        assert_eq!(report.resolved_ops(), 5);
    }

    /// Push one flush of `lanes` honest ciphertexts through `service`
    /// and return its merged report.
    fn one_flush(key: &RsaPrivateKey, service: RsaBatchService, lanes: u64) -> ResilienceReport {
        let ops = RsaOps::new(Box::new(MpssBaseline));
        let plaintexts: Vec<BigUint> = (1..=lanes).map(|i| BigUint::from(i * 5_555_551)).collect();
        let cts = plaintexts
            .iter()
            .map(|m| ops.public_op(key.public(), m).unwrap())
            .collect();
        let tickets = service.submit_many(cts).unwrap();
        for (ticket, m) in tickets.into_iter().zip(&plaintexts) {
            assert_eq!(&ticket.wait().unwrap(), m);
        }
        let report = service.shutdown_fleet().merged();
        assert_eq!(report.service.flush_count(), 1, "the burst is one flush");
        report
    }

    #[test]
    fn verified_service_checks_honest_results_and_prices_the_check() {
        let key = key256();
        // Drive one full-width flush: the verification pass is a batched
        // vector computation, so its cost amortizes across occupied lanes
        // exactly like the card pass does.  A 1-deep flush would pay the
        // whole pass for a single result (~45% of card work at this key
        // size) — the bound below is about the batch shape the service is
        // built for.
        let service =
            RsaBatchService::new_fleet(&key, &verified(), ResilienceConfig::default(), Vec::new())
                .unwrap();
        let report = one_flush(&key, service, 16);
        assert_eq!(report.verified_ops, 16, "every released result checked");
        assert_eq!(report.verify_failures, 0, "honest results never rejected");
        assert!(
            report.verify_modeled_seconds > 0.0,
            "the public-exponent check is priced on the modeled channel"
        );
        // The batched check (one square-and-multiply ladder over e = 65537,
        // ~17 full-width Montgomery multiplications shared by all 16 lanes)
        // must stay a small fraction of the card's CRT work.  The check is
        // fixed-size while the CRT ladder scales with the private exponent,
        // so the ratio shrinks as keys grow: ~10% at this 256-bit test key,
        // 4% at 1024-bit production size (the perfgate --verify-overhead
        // bound on the E14 batch path).
        let card = report.service.total_modeled_seconds();
        assert!(
            report.verify_modeled_seconds < 0.15 * card,
            "verify {}s vs card {}s: overhead above 15%",
            report.verify_modeled_seconds,
            card
        );
    }

    /// The release check is sized to the live lanes, like the card pass:
    /// a one- or two-lane flush pays one single-lane check per lane, and
    /// two of those undercut the 16-lane check a fuller flush pays.
    #[test]
    fn release_check_is_sized_to_the_live_lanes() {
        let key = key256();
        let check = |lanes: u64| {
            let service = RsaBatchService::new_fleet(
                &key,
                &verified(),
                ResilienceConfig::default(),
                Vec::new(),
            )
            .unwrap();
            let report = one_flush(&key, service, lanes);
            assert_eq!(report.verified_ops, lanes);
            report.verify_modeled_seconds
        };
        let (one, two, full) = (check(1), check(2), check(16));
        assert!(one > 0.0, "a one-lane check is still priced");
        assert!(
            (two - 2.0 * one).abs() <= 1e-9 * two,
            "two lanes, two single-lane checks: {two} vs 2 × {one}"
        );
        assert!(
            two < full,
            "two single-lane checks {two}s !< one 16-lane {full}s"
        );
    }

    /// `lanes` honest `(ciphertext, plaintext)` pairs under `key`.
    fn honest_pairs(key: &RsaPrivateKey, lanes: u64) -> (Vec<BigUint>, Vec<BigUint>) {
        let ms: Vec<BigUint> = (1..=lanes).map(|i| BigUint::from(i * 7_777_771)).collect();
        let cts = ms
            .iter()
            .map(|m| m.mod_exp(key.public().e(), key.public().n()));
        (cts.collect(), ms)
    }

    /// The verified service's check is what the benchmark's modeled probe
    /// prices, `BatchMont::with_variant(&ctx, MontVariant::Auto)
    /// .pow_eq_16`: the same verdicts and the same op counts on the same
    /// 16 pairs.
    #[test]
    fn release_check_is_the_probed_pow_eq_16() {
        let key = key256();
        let hooks = integrity_hooks(&key, &verified()).unwrap();
        let check = hooks.verify.as_ref().expect("verified hooks");
        let (cts, ms) = honest_pairs(&key, 16);
        let pairs: Vec<(&BigUint, &BigUint)> = cts.iter().zip(&ms).collect();
        let (verdicts, service) = phi_simd::count::measure(|| check(&pairs));
        let ctx = VMontCtx::new(key.public().n()).unwrap();
        let probe = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let (probed, priced) =
            phi_simd::count::measure(|| probe.pow_eq_16(&ms, key.public().e(), &cts));
        assert_eq!(verdicts, vec![true; 16]);
        assert_eq!(probed, verdicts);
        assert_eq!(service, priced, "the service checks what the probe prices");
    }

    /// Every context the check runs is built with the service, once per
    /// card: a check after setup builds none. A generated context built
    /// per flush would add its `N'` inverse to every sparse flush.
    #[test]
    fn release_checks_build_no_context_after_setup() {
        let key = key256();
        let hooks = integrity_hooks(&key, &verified()).unwrap();
        let check = hooks.verify.as_ref().expect("verified hooks");
        let (cts, ms) = honest_pairs(&key, 16);
        let pairs: Vec<(&BigUint, &BigUint)> = cts.iter().zip(&ms).collect();
        for lanes in [1, 2, 16] {
            let (verdicts, setups) = phi_simd::count::measure_ctx_setups(|| check(&pairs[..lanes]));
            assert_eq!(verdicts, vec![true; lanes]);
            assert_eq!(setups, 0, "a {lanes}-lane check built a context");
        }
    }

    /// The release check runs on the card's configured backend, not the
    /// modeled default: over the same full flush, a native verified
    /// service spends less on the check than a modeled one (skipped on
    /// hosts without AVX2).
    #[test]
    fn release_check_follows_the_configured_backend() {
        if !phiopenssl::CpuFeatures::detect().avx2 {
            return;
        }
        let key = key256();
        let run = |backend| {
            let phi = PhiConfig::builder()
                .backend(backend)
                .expect("AVX2 detected")
                .verified()
                .build();
            let service =
                RsaBatchService::new_fleet(&key, &phi, ResilienceConfig::default(), Vec::new())
                    .unwrap();
            one_flush(&key, service, 16).verify_modeled_seconds
        };
        let modeled = run(phiopenssl::Backend::ModeledKnc);
        let native = run(phiopenssl::Backend::NativeX86);
        assert!(
            native < modeled,
            "native check {native}s is not cheaper than the modeled {modeled}s"
        );
    }

    #[test]
    fn verified_service_never_releases_silently_corrupted_plaintexts() {
        use phi_faults::{FaultInjector, FaultRates, FaultSource};
        let key = key256();
        // Heavy silent-fault pressure, zero detectable faults: only the
        // verify-on-release check stands between the corruption and the
        // caller.
        let faults: Arc<dyn FaultSource> =
            Arc::new(FaultInjector::new(0xC0FFEE, FaultRates::silent(0.5)));
        let service = RsaBatchService::new_fleet(
            &key,
            &verified(),
            ResilienceConfig::default(),
            vec![Some(faults)],
        )
        .expect("verified service");
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=8 {
            let m = BigUint::from(i * 2_718_281);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(service.call(c).unwrap(), m, "no corrupted result escapes");
        }
        let report = service.shutdown_fleet().merged();
        assert_eq!(report.errored_ops, 0);
        assert_eq!(report.faults_seen, 0, "silent faults stay invisible");
        assert!(report.verify_failures > 0, "a 50% schedule must corrupt");
    }

    #[test]
    fn verified_fleet_survives_a_silently_faulty_card() {
        use phi_faults::{FaultInjector, FaultRates, FaultSource};
        let key = key256();
        let faults: Vec<Option<Arc<dyn FaultSource>>> = vec![Some(Arc::new(FaultInjector::new(
            0xDEAD,
            FaultRates::silent(1.0),
        )))];
        let service = RsaBatchService::new_fleet(
            &key,
            &two_cards().verified().build(),
            ResilienceConfig::default(),
            faults,
        )
        .expect("verified fleet");
        let ops = RsaOps::new(Box::new(MpssBaseline));
        for i in 1u64..=6 {
            let m = BigUint::from(i * 1_234_577);
            let c = ops.public_op(key.public(), &m).unwrap();
            assert_eq!(service.call(c).unwrap(), m);
        }
        let merged = service.shutdown_fleet().merged();
        assert_eq!(merged.errored_ops, 0);
        assert_eq!(merged.resolved_ops(), 6);
        assert!(merged.verified_ops > 0, "the fleet path runs the check");
    }
}
