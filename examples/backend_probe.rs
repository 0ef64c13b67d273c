//! Backend probe: report what the host CPU supports, which SIMD tier the
//! build compiled for and which one the native lane loops run at, how
//! `Backend::Auto` resolves, and check native-vs-modeled agreement on a
//! quick mod-exp.
//!
//! ```text
//! cargo run --release --example backend_probe
//! ```
//!
//! CI's `test` job runs this and fails unless the `build tier` line names
//! `avx2` or better (the repository's `.cargo/config.toml` baseline); the
//! `native-backend` job runs it to log the feature set of its
//! `-C target-cpu=native` build.

use phi_bigint::BigUint;
use phiopenssl::{Backend, CpuFeatures, PhiConfig, PhiLibrary, ResolvedBackend};
use phiopenssl_suite::backend::{native_tier, NativeTier};
use phiopenssl_suite::mont::Libcrypto;

fn main() {
    let features = CpuFeatures::detect();
    println!("cpu features : {features}");
    println!("build tier   : {}", NativeTier::compiled().name());
    println!("native tier  : {}", native_tier().name());

    let auto = Backend::Auto.resolve();
    println!("Backend::Auto: resolves to {auto}");

    for backend in [Backend::ModeledKnc, Backend::NativeX86] {
        match backend.ensure_available(&features) {
            Ok(()) => println!("{backend:<22}: available"),
            Err(e) => println!("{backend:<22}: unavailable ({e})"),
        }
    }

    // A quick cross-check: both backends must agree bit-for-bit.
    let n = BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff61")
        .unwrap();
    let base = BigUint::from(0x1234_5678u64);
    let exp = BigUint::from(65537u64);

    let modeled = PhiLibrary::with_config(PhiConfig::default());
    let want = modeled.mod_exp(&base, &exp, &n).unwrap();

    if auto == ResolvedBackend::NativeX86 {
        let config = PhiConfig::builder()
            .backend(Backend::Auto)
            .expect("Auto never fails validation")
            .build();
        let native = PhiLibrary::with_config(config);
        let got = native.mod_exp(&base, &exp, &n).unwrap();
        assert_eq!(got, want, "native and modeled backends disagree");
        println!("cross-check  : native == modeled on 256-bit mod-exp ✓");
    } else {
        println!("cross-check  : skipped (no native tier on this host)");
    }
}
