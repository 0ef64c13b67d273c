//! The service-layer surface in one sitting: validated configuration,
//! cached Montgomery sessions, the deadline-driven batch RSA service
//! shared by a burst of concurrent decryptors, the N-card fleet, and
//! table-tuned kernel dispatch.
//!
//! ```text
//! cargo run --release --example batch_service
//! ```

use phi_bigint::BigUint;
use phi_mont::Libcrypto;
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::{RsaBatchService, RsaOps};
use phi_rt::service::{FlushReason, ServiceConfig};
use phi_rt::{FleetConfig, ResilienceConfig};
use phiopenssl::{PhiConfig, PhiLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // --- validated configuration -------------------------------------
    let config = PhiConfig::builder()
        .window(5)
        .expect("5 is in range")
        .constant_time()
        .build();
    println!("builder accepted window 5, constant-time lookup");
    match PhiConfig::builder().window(0) {
        Err(e) => println!("builder rejected window 0: {e}"),
        Ok(_) => unreachable!("window 0 must be rejected"),
    }
    match PhiConfig::builder().window(8) {
        Err(e) => println!("builder rejected window 8: {e}"),
        Ok(_) => unreachable!("window 8 must be rejected"),
    }

    // --- cached Montgomery sessions ----------------------------------
    let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(42), 1024).expect("keygen");
    let lib = PhiLibrary::with_config(config);
    let n = key.public().n().clone();
    let e = key.public().e().clone();
    let m = BigUint::from(0x5eed_f00du64);
    let (ct, setups) = phi_simd::count::measure_ctx_setups(|| {
        let session = lib.with_modulus(&n).expect("odd modulus");
        let mut ct = m.clone();
        for _ in 0..8 {
            ct = session.mod_exp(&ct, &e);
        }
        ct
    });
    println!("8 public ops through one session -> {setups} context setup(s)");
    assert_eq!(setups, 1, "session must cache its Montgomery context");

    // --- the deadline-driven batch service ---------------------------
    // One modeled card (the default fleet shape) with 4-lane batches.
    let narrow = ResilienceConfig {
        service: ServiceConfig {
            width: 4,
            max_wait: 2e-3,
            queue_cap: 64,
        },
        ..ResilienceConfig::default()
    };
    let service = Arc::new(
        RsaBatchService::new_fleet(&key, &PhiConfig::default(), narrow, Vec::new())
            .expect("CRT service"),
    );
    let ops = RsaOps::new(Box::new(PhiLibrary::default()));
    let expected = ops.private_op(&key, &ct).expect("sequential reference");

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let service = Arc::clone(&service);
            let c = ct.clone();
            std::thread::spawn(move || (i, service.call(c).expect("batched op")))
        })
        .collect();
    for w in workers {
        let (i, pt) = w.join().expect("worker");
        assert_eq!(pt, expected, "lane {i} disagrees with sequential CRT");
    }
    let report = Arc::try_unwrap(service)
        .unwrap_or_else(|_| unreachable!("all workers joined"))
        .shutdown_fleet()
        .merged()
        .service;
    println!(
        "batch service: {} ops in {} flushes (full: {}, deadline: {}), mean lane occupancy {:.0}%",
        report.ops(),
        report.flush_count(),
        report.flushes_by(FlushReason::Full),
        report.flushes_by(FlushReason::Deadline),
        100.0 * report.mean_occupancy(),
    );
    println!("every batched plaintext matches the sequential CRT result");

    // A lone request can't fill a batch: the deadline fires instead, and
    // the engine runs its one live lane as a single op, not a padded pass.
    let lone = RsaBatchService::new_fleet(
        &key,
        &PhiConfig::default(),
        ResilienceConfig::default(),
        Vec::new(),
    )
    .expect("CRT service");
    assert_eq!(lone.call(ct.clone()).expect("lone op"), expected);
    let report = lone.shutdown_fleet().merged().service;
    let flush = &report.flushes[0];
    println!(
        "lone request: flushed by {:?} after {:.1} ms with {}/{} lanes live",
        flush.reason,
        1e3 * flush.oldest_wait,
        flush.occupancy,
        flush.width,
    );

    // --- the N-card fleet --------------------------------------------
    // Same service surface, spread over two modeled cards: keyed
    // submissions route by modulus affinity, idle cards steal work, and
    // a tripped card migrates its lanes onto survivors.
    let phi = PhiConfig::builder()
        .fleet(FleetConfig {
            cards: 2,
            ..FleetConfig::default()
        })
        .expect("two cards is a valid fleet shape")
        .build();
    let fleet = RsaBatchService::new_fleet(&key, &phi, ResilienceConfig::default(), Vec::new())
        .expect("fleet service");
    let handles: Vec<_> = (0..8)
        .map(|_| fleet.submit(ct.clone()).expect("queue has room"))
        .collect();
    for h in handles {
        assert_eq!(
            h.wait().expect("fleet op"),
            expected,
            "fleet disagrees with sequential CRT"
        );
    }
    let report = fleet.shutdown_fleet();
    println!(
        "fleet service: {} ops over {} cards ({} affinity hits, {} steals, {} migrations)",
        report.resolved_ops(),
        report.cards.len(),
        report.affinity_hits,
        report.steals,
        report.migrations,
    );

    // --- table-tuned kernel dispatch ---------------------------------
    // `Tuning::Table` consults the committed autotuner result
    // (`bench/tuning.json`); the generated kernel it picks is
    // bit-identical to the static default, just cheaper on the modeled
    // channel. `Tuning::Static` (the default) never reads the table.
    let crt = phiopenssl::CrtKey::new(key.p(), key.q(), key.d()).expect("CRT key");
    let static_engine =
        phiopenssl::BatchCrtEngine::with_config(&crt, &PhiConfig::default()).expect("engine");
    let tuned_engine = phiopenssl::BatchCrtEngine::with_config(
        &crt,
        &PhiConfig::builder()
            .tuning(phiopenssl::Tuning::Table)
            .build(),
    )
    .expect("engine");
    assert!(
        tuned_engine.tuned_kernel_active(),
        "1024-bit keys are in the table"
    );
    let cts: Vec<_> = (0..16).map(|i| BigUint::from(0x1234u64 + i)).collect();
    assert_eq!(
        static_engine.private_op_16(&cts),
        tuned_engine.private_op_16(&cts),
        "tuned dispatch must stay bit-identical"
    );
    let entry = phiopenssl::TuningTable::committed()
        .entry_for_modulus(n.bit_length(), "modeled-knc")
        .expect("committed cell");
    println!(
        "tuned dispatch: 1024-bit key runs the generated r{} w{} kernel, bit-identical to static",
        entry.params.radix_bits, entry.params.window,
    );

    // --- one error type at the workspace rim -------------------------
    let err = phiopenssl_suite::Error::from(PhiConfig::builder().window(0).unwrap_err());
    println!("suite-level error: {err}");
}
