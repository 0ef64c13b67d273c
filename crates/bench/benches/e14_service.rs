//! E14 wall-clock: the live deadline-driven batch service vs sequential
//! private operations, same 16-request burst.
//!
//! The modeled-channel load sweep lives in the harness (`harness e14`);
//! this bench sanity-checks the real threaded offload service (a one-card
//! `RsaBatchService::new_fleet`) end to end: submit a full burst, redeem
//! every ticket, and compare against the same sixteen decryptions run one
//! at a time on a warm session cache.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phi_bench::workload;
use phi_bigint::BigUint;
use phi_rsa::{RsaBatchService, RsaOps};
use phi_rt::service::ServiceConfig;
use phi_rt::ResilienceConfig;
use phiopenssl::batch::BATCH_WIDTH;
use phiopenssl::{PhiConfig, PhiLibrary};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_service");
    g.throughput(Throughput::Elements(BATCH_WIDTH as u64));
    let bits = 1024u32;
    let key = workload::rsa_key(bits);
    let cts: Vec<BigUint> = (0..BATCH_WIDTH as u64)
        .map(|j| &workload::operand(bits, 300 + j) % key.public().n())
        .collect();

    let ops = RsaOps::new(Box::new(PhiLibrary::default()));
    ops.private_op(&key, &cts[0]).unwrap(); // warm the session cache
    g.bench_with_input(BenchmarkId::new("sequential_x16", bits), &bits, |b, _| {
        b.iter(|| {
            cts.iter()
                .map(|ct| ops.private_op(&key, black_box(ct)).unwrap())
                .collect::<Vec<_>>()
        })
    });

    let config = ResilienceConfig {
        service: ServiceConfig {
            width: BATCH_WIDTH,
            max_wait: 2e-3,
            queue_cap: 4 * BATCH_WIDTH,
        },
        ..ResilienceConfig::default()
    };
    let service =
        RsaBatchService::new_fleet(&key, &PhiConfig::default(), config, Vec::new()).unwrap();
    g.bench_with_input(BenchmarkId::new("batched_burst", bits), &bits, |b, _| {
        b.iter(|| {
            let handles: Vec<_> = cts
                .iter()
                .map(|ct| service.submit(black_box(ct.clone())).unwrap())
                .collect();
            handles.into_iter().map(|h| h.wait()).collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group! { name = benches; config = common::config(); targets = bench }
criterion_main!(benches);
