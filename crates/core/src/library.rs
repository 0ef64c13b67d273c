//! [`PhiLibrary`]: the vectorized library behind the same facade as the
//! two scalar baselines, so benchmarks and RSA code treat all three
//! uniformly.

use crate::truncated::{mod_exp_soa, SoaMontEngine};
use crate::tuning::Tuning;
use crate::vexp::{mod_exp_vec, TableLookup, DEFAULT_WINDOW};
use crate::vmont::VMontCtx;
use crate::vmul::big_mul_with_backend;
use phi_backend::{Backend, BackendUnavailable, CpuFeatures};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::session::{ExpPolicy, ModulusSession};
use phi_mont::{ExpStrategy, Libcrypto, MontEngine};
use phi_rt::FleetConfig;
use std::fmt;

/// An invalid [`PhiConfig`] tunable, rejected at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Fixed-window width outside the supported `1..=7` range.
    WindowOutOfRange(u32),
    /// The requested vector backend cannot run on this host.
    BackendUnavailable(BackendUnavailable),
    /// Fleet shape rejected: a fleet needs at least one card and a
    /// steal threshold of at least one request.
    FleetInvalid {
        /// The rejected card count.
        cards: usize,
        /// The rejected steal threshold.
        steal_threshold: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::WindowOutOfRange(w) => {
                write!(f, "fixed-window width {w} outside supported range 1..=7")
            }
            ConfigError::BackendUnavailable(e) => e.fmt(f),
            ConfigError::FleetInvalid {
                cards,
                steal_threshold,
            } => write!(
                f,
                "fleet shape rejected (cards = {cards}, steal_threshold = \
                 {steal_threshold}): need at least one card and a steal \
                 threshold of at least one request"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<BackendUnavailable> for ConfigError {
    fn from(e: BackendUnavailable) -> Self {
        ConfigError::BackendUnavailable(e)
    }
}

/// Which Montgomery reduction kernel the 16-lane engines run.
///
/// Every variant produces **bit-identical** results (the phi-conformance
/// `mont-truncated` family proves it continuously); the choice is purely
/// a cost trade documented in DESIGN.md §3.12 and measured by E18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MontVariant {
    /// The classic interleaved-CIOS batch kernel everywhere.
    Classic,
    /// The truncated-separated kernel everywhere it applies — including
    /// scalar-shaped single operations, which are routed through the
    /// 16-lane SoA layout at occupancy 1.
    Truncated,
    /// Truncated kernels on the batch/exponentiation paths (where they
    /// win), classic kernels for scalar-shaped single multiplies (where
    /// occupancy-1 SoA padding would waste 15 lanes). The default.
    #[default]
    Auto,
}

impl MontVariant {
    /// Whether 16-lane batch multiplies take the truncated kernel for a
    /// `k`-digit modulus. Single-digit moduli always run classic: the
    /// truncation boundary column `s_{k-2}` does not exist for `k < 2`.
    pub(crate) fn batch_truncated(self, k: usize) -> bool {
        match self {
            MontVariant::Classic => false,
            MontVariant::Truncated | MontVariant::Auto => k >= 2,
        }
    }

    /// Whether scalar-shaped single operations reroute through the SoA
    /// occupancy-1 path.
    pub(crate) fn single_soa(self) -> bool {
        self == MontVariant::Truncated
    }
}

/// Tunables of the vectorized library.
///
/// Construct through [`PhiConfig::builder`], which validates every
/// tunable. The fields remain public for pattern matching and reading,
/// but filling them in by hand is a deprecated pattern — a struct
/// literal can smuggle in a window width the exponentiation kernel will
/// reject much later, at `assert!` distance from the mistake (and a
/// native backend request the host can't serve, which the builder turns
/// into a typed [`ConfigError::BackendUnavailable`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhiConfig {
    /// Fixed-window width for exponentiation (the paper uses 5).
    pub window: u32,
    /// Window-table lookup policy.
    pub lookup: TableLookup,
    /// Which vector backend the kernels execute on.
    pub backend: Backend,
    /// Which Montgomery reduction variant the engines run.
    pub mont_variant: MontVariant,
    /// Shape of the card fleet batch work offloads to. The default is a
    /// single card, the paper's deployment; `cards > 1` puts every
    /// offload service (`phi_rsa::RsaBatchService::new_fleet`) behind
    /// key-affinity routing with work stealing. See DESIGN.md §3.13.
    pub fleet: FleetConfig,
    /// Verify every card result on the host before releasing it (the
    /// cheap public-exponent check), closing the silent-fault /
    /// Bellcore key-leak channel at a small modeled cost. Off by
    /// default; see DESIGN.md §3.14.
    pub verified: bool,
    /// How kernel parameters are chosen per modulus size: the static
    /// hand-picked defaults (bit- and cycle-identical to the pre-tuning
    /// stack, the default), the committed `bench/tuning.json` table, or
    /// the permissive auto policy. See DESIGN.md §3.15.
    pub tuning: Tuning,
}

impl Default for PhiConfig {
    fn default() -> Self {
        PhiConfig {
            window: DEFAULT_WINDOW,
            lookup: TableLookup::Direct,
            // The process default is ModeledKnc unless overridden via
            // PHI_BACKEND or phi_backend::set_process_default (the bench
            // harness's --backend flag).
            backend: phi_backend::process_default(),
            mont_variant: MontVariant::Auto,
            fleet: FleetConfig::default(),
            verified: false,
            tuning: Tuning::Static,
        }
    }
}

impl PhiConfig {
    /// Start a validating builder at the paper's defaults
    /// (window 5, direct table lookup).
    pub fn builder() -> PhiConfigBuilder {
        PhiConfigBuilder {
            config: PhiConfig::default(),
        }
    }
}

/// Validating builder for [`PhiConfig`]; see [`PhiConfig::builder`].
///
/// ```
/// use phiopenssl::{PhiConfig, PhiLibrary};
///
/// # fn main() -> Result<(), phiopenssl::ConfigError> {
/// let config = PhiConfig::builder().window(6)?.constant_time().build();
/// let lib = PhiLibrary::with_config(config);
/// assert_eq!(lib.config.window, 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PhiConfigBuilder {
    config: PhiConfig,
}

impl PhiConfigBuilder {
    /// Set the fixed-window width; widths outside `1..=7` are rejected
    /// (0 would never terminate table fill, above 7 the 2^w-entry table
    /// stops fitting the modeled per-core L2 budget).
    pub fn window(mut self, window: u32) -> Result<Self, ConfigError> {
        if window == 0 || window > 7 {
            return Err(ConfigError::WindowOutOfRange(window));
        }
        self.config.window = window;
        Ok(self)
    }

    /// Use the constant-time (gather-all-rows) window-table lookup.
    pub fn constant_time(mut self) -> Self {
        self.config.lookup = TableLookup::ConstantTime;
        self
    }

    /// Set the window-table lookup policy explicitly.
    pub fn lookup(mut self, lookup: TableLookup) -> Self {
        self.config.lookup = lookup;
        self
    }

    /// Select the Montgomery reduction variant (default
    /// [`MontVariant::Auto`]). All variants are bit-identical; see
    /// DESIGN.md §3.12 for the cost trade.
    pub fn mont_variant(mut self, variant: MontVariant) -> Self {
        self.config.mont_variant = variant;
        self
    }

    /// Set the card-fleet shape (card count, routing policy, steal
    /// threshold, routing seed). Degenerate shapes — zero cards, or a
    /// steal threshold of zero, which would make every idle card steal
    /// constantly — are rejected as [`ConfigError::FleetInvalid`] here
    /// rather than panicking later inside the scheduler.
    pub fn fleet(mut self, fleet: FleetConfig) -> Result<Self, ConfigError> {
        if fleet.cards < 1 || fleet.steal_threshold < 1 {
            return Err(ConfigError::FleetInvalid {
                cards: fleet.cards,
                steal_threshold: fleet.steal_threshold,
            });
        }
        self.config.fleet = fleet;
        Ok(self)
    }

    /// Select the vector backend. An explicit [`Backend::NativeX86`]
    /// request is validated against the running host's CPU features and
    /// rejected with [`ConfigError::BackendUnavailable`] when the host
    /// lacks AVX2; [`Backend::Auto`] and [`Backend::ModeledKnc`] always
    /// succeed.
    pub fn backend(self, backend: Backend) -> Result<Self, ConfigError> {
        self.backend_with_features(backend, &CpuFeatures::detect())
    }

    /// [`backend`](Self::backend) against explicit host features — for
    /// deterministic tests of the unavailable-backend error path.
    #[doc(hidden)]
    pub fn backend_with_features(
        mut self,
        backend: Backend,
        features: &CpuFeatures,
    ) -> Result<Self, ConfigError> {
        backend.ensure_available(features)?;
        self.config.backend = backend;
        Ok(self)
    }

    /// Verify card results on the host before release (see
    /// [`PhiConfig::verified`]). Fault-tolerant services built from this
    /// config walk the verified-release ladder: check → on-card re-run →
    /// lane quarantine → breaker escalation → host fallback.
    pub fn verified(mut self) -> Self {
        self.config.verified = true;
        self
    }

    /// Select how kernel parameters are picked per modulus size (default
    /// [`Tuning::Static`] — the pre-tuning behavior, bit- and
    /// cycle-identical). [`Tuning::Table`] applies the committed
    /// `bench/tuning.json` winners; every table entry is bit-identical
    /// to the static kernels (the `tuned` conformance family proves it).
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.config.tuning = tuning;
        self
    }

    /// Finish, yielding the validated configuration.
    pub fn build(self) -> PhiConfig {
        self.config
    }
}

/// The PhiOpenSSL library profile: vectorized multiplication, vectorized
/// Montgomery kernel, fixed-window exponentiation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhiLibrary {
    /// Configuration applied to every operation.
    pub config: PhiConfig,
}

impl PhiLibrary {
    /// A library with an explicit configuration.
    pub fn with_config(config: PhiConfig) -> Self {
        PhiLibrary { config }
    }

    /// A library hardened with the constant-time table gather.
    pub fn constant_time() -> Self {
        PhiLibrary {
            config: PhiConfig {
                lookup: TableLookup::ConstantTime,
                ..PhiConfig::default()
            },
        }
    }
}

impl Libcrypto for PhiLibrary {
    fn name(&self) -> &'static str {
        "PhiOpenSSL (512-bit vectorized)"
    }

    fn big_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        big_mul_with_backend(a, b, self.config.backend.resolve())
    }

    fn make_engine(&self, n: &BigUint) -> Result<Box<dyn MontEngine + Send + Sync>, BigIntError> {
        let backend = self.config.backend.resolve();
        if self.config.mont_variant.single_soa() {
            Ok(Box::new(SoaMontEngine::with_backend(n, backend)?))
        } else {
            Ok(Box::new(VMontCtx::with_backend(n, backend)?))
        }
    }

    fn strategy_for(&self, _bits: u32) -> ExpStrategy {
        ExpStrategy::FixedWindow(self.config.window)
    }

    fn with_modulus(&self, n: &BigUint) -> Result<ModulusSession, BigIntError> {
        // One context build for both roles: the cloned handle shares the
        // precomputed n'/R² tables, so the session still counts as a
        // single setup.
        let PhiConfig { window, lookup, .. } = self.config;
        if self.config.mont_variant.single_soa() {
            // Scalar-shaped calls reuse the 16-lane SoA engine at
            // occupancy 1. The batch ladder indexes its window table
            // directly (no constant-time gather), so `lookup` does not
            // apply on this path.
            let engine = SoaMontEngine::with_backend(n, self.config.backend.resolve())?;
            let exp_ctx = engine.ctx().clone();
            return Ok(ModulusSession::new(
                self.name(),
                Box::new(engine),
                ExpPolicy::Custom(Box::new(move |base, exp| {
                    mod_exp_soa(&exp_ctx, base, exp, window)
                })),
            ));
        }
        let ctx = VMontCtx::with_backend(n, self.config.backend.resolve())?;
        let exp_ctx = ctx.clone();
        Ok(ModulusSession::new(
            self.name(),
            Box::new(ctx),
            ExpPolicy::Custom(Box::new(move |base, exp| {
                mod_exp_vec(&exp_ctx, base, exp, window, lookup)
            })),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_mont::{MpssBaseline, OpensslBaseline};
    use phi_simd::count::{self, OpClass};

    fn n256() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
            .unwrap()
    }

    #[test]
    fn default_config() {
        let lib = PhiLibrary::default();
        assert_eq!(lib.config.window, 5);
        assert_eq!(lib.config.lookup, TableLookup::Direct);
        assert_eq!(
            PhiLibrary::constant_time().config.lookup,
            TableLookup::ConstantTime
        );
    }

    #[test]
    fn all_three_libraries_agree() {
        let libs: Vec<Box<dyn Libcrypto>> = vec![
            Box::new(PhiLibrary::default()),
            Box::new(MpssBaseline),
            Box::new(OpensslBaseline),
        ];
        let n = n256();
        let base = BigUint::from_hex("123456789abcdef0").unwrap();
        let exp = BigUint::from_hex("fedcba98765432101234").unwrap();
        let want = base.mod_exp(&exp, &n);
        for lib in &libs {
            assert_eq!(
                lib.mod_exp(&base, &exp, &n).unwrap(),
                want,
                "{}",
                lib.name()
            );
        }
        let a = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("eeeeeeeeeeeeeeeeeeeeeeee").unwrap();
        for lib in &libs {
            assert_eq!(lib.big_mul(&a, &b), &a * &b, "{}", lib.name());
        }
    }

    #[test]
    fn phi_library_uses_the_vector_pipe() {
        let lib = PhiLibrary::default();
        let n = n256();
        count::reset();
        let (_, d) = count::measure(|| {
            lib.mod_exp(&BigUint::from(3u64), &BigUint::from(1000001u64), &n)
                .unwrap()
        });
        assert!(d.get(OpClass::VMul) > 0, "vector multiplies expected");
        assert_eq!(d.get(OpClass::SMul64), 0, "no scalar full multiplies");
    }

    #[test]
    fn baselines_use_the_scalar_pipe() {
        let n = n256();
        count::reset();
        let (_, d) = count::measure(|| {
            MpssBaseline
                .mod_exp(&BigUint::from(3u64), &BigUint::from(1000001u64), &n)
                .unwrap()
        });
        assert_eq!(d.get(OpClass::VMul), 0);
        assert!(d.get(OpClass::SMul64) > 0);
    }

    #[test]
    fn strategy_is_fixed_window() {
        assert_eq!(
            PhiLibrary::default().strategy_for(2048),
            ExpStrategy::FixedWindow(5)
        );
    }

    #[test]
    fn engine_through_facade_roundtrips() {
        let lib = PhiLibrary::default();
        let e = lib.make_engine(&n256()).unwrap();
        let a = BigUint::from(999u64);
        assert_eq!(e.from_mont(&e.to_mont(&a)), a);
    }

    #[test]
    fn builder_validates_window() {
        let config = PhiConfig::builder()
            .window(6)
            .unwrap()
            .constant_time()
            .build();
        assert_eq!(config.window, 6);
        assert_eq!(config.lookup, TableLookup::ConstantTime);
        assert_eq!(PhiConfig::builder().build(), PhiConfig::default());
        assert_eq!(
            PhiConfig::builder().window(0).unwrap_err(),
            ConfigError::WindowOutOfRange(0)
        );
        assert_eq!(
            PhiConfig::builder().window(8).unwrap_err(),
            ConfigError::WindowOutOfRange(8)
        );
        assert!(ConfigError::WindowOutOfRange(9)
            .to_string()
            .contains("1..=7"));
    }

    #[test]
    fn builder_validates_fleet_shape() {
        let three = FleetConfig {
            cards: 3,
            ..FleetConfig::default()
        };
        let config = PhiConfig::builder().fleet(three).unwrap().build();
        assert_eq!(config.fleet.cards, 3);
        assert_eq!(PhiConfig::builder().build().fleet, FleetConfig::default());

        let no_cards = FleetConfig {
            cards: 0,
            ..FleetConfig::default()
        };
        assert!(matches!(
            PhiConfig::builder().fleet(no_cards),
            Err(ConfigError::FleetInvalid { cards: 0, .. })
        ));
        let zero_threshold = FleetConfig {
            steal_threshold: 0,
            ..FleetConfig::default()
        };
        let err = PhiConfig::builder().fleet(zero_threshold).unwrap_err();
        assert!(err.to_string().contains("steal"));
    }

    #[test]
    fn builder_selects_and_validates_backend() {
        let config = PhiConfig::builder()
            .backend(Backend::ModeledKnc)
            .unwrap()
            .build();
        assert_eq!(config.backend, Backend::ModeledKnc);
        // Auto always validates (it falls back to modeled when needed).
        assert!(PhiConfig::builder().backend(Backend::Auto).is_ok());

        // An explicit native request on a host without AVX2 is a typed
        // error, not a panic.
        let err = PhiConfig::builder()
            .backend_with_features(Backend::NativeX86, &CpuFeatures::NONE)
            .unwrap_err();
        match err {
            ConfigError::BackendUnavailable(e) => {
                assert_eq!(e.requested, Backend::NativeX86);
            }
            other => panic!("expected BackendUnavailable, got {other:?}"),
        }
        assert!(err.to_string().contains("unavailable"));
    }

    #[test]
    fn native_config_produces_matching_results() {
        let features = CpuFeatures::detect();
        if !(features.x86_64 && features.avx2) {
            return; // nothing to compare on this host
        }
        let native = PhiLibrary::with_config(
            PhiConfig::builder()
                .backend(Backend::NativeX86)
                .unwrap()
                .build(),
        );
        let modeled = PhiLibrary::default();
        let n = n256();
        let base = BigUint::from_hex("123456789abcdef0").unwrap();
        let exp = BigUint::from_hex("fedcba98765432101234").unwrap();
        assert_eq!(
            native.mod_exp(&base, &exp, &n).unwrap(),
            modeled.mod_exp(&base, &exp, &n).unwrap()
        );
        let a = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        assert_eq!(native.big_mul(&a, &a), modeled.big_mul(&a, &a));
    }

    #[test]
    fn session_keeps_the_vector_path_and_config() {
        let lib = PhiLibrary::with_config(PhiConfig::builder().window(4).unwrap().build());
        let n = n256();
        let session = lib.with_modulus(&n).unwrap();
        let base = BigUint::from(3u64);
        let exp = BigUint::from(1000001u64);
        count::reset();
        let (got, d) = count::measure(|| session.mod_exp(&base, &exp));
        assert_eq!(got, base.mod_exp(&exp, &n));
        assert!(d.get(OpClass::VMul) > 0, "session must use the vector pipe");
        assert_eq!(d.get(OpClass::SMul64), 0);
    }

    #[test]
    fn session_builds_one_context_for_mul_and_exp() {
        let n = n256();
        let lib = PhiLibrary::default();
        let ((), setups) = count::measure_ctx_setups(|| {
            let session = lib.with_modulus(&n).unwrap();
            let am = session.engine().to_mont(&BigUint::from(5u64));
            session.mont_mul(&am, &am);
            session.mod_exp(&BigUint::from(5u64), &BigUint::from(65537u64));
        });
        assert_eq!(setups, 1, "mul and exp share the one session context");
    }
}
