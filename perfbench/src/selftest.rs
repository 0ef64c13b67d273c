//! Tiny-scale self-tests: every workload at RSA-512 for a fraction of a
//! second. Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml`.

use crate::inputs;
use crate::knc;
use crate::metrics::{per_layer, E2E};
use crate::{run, Params, Scale, Tally, Workload};
use phi_mont::OpensslBaseline;
use phi_rsa::RsaOps;
use phiopenssl::{BatchCrtEngine, CrtKey, PhiConfig};

fn tiny(workload: Workload, trace: bool) -> Params {
    Params {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::TINY,
    }
}

fn native_host() -> bool {
    phi_backend::CpuFeatures::detect().avx2
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in Workload::ALL {
        if !native_host() {
            let err = run(&tiny(w, false)).unwrap_err();
            assert!(err.contains("refusing"), "{}: {err}", w.name());
            continue;
        }
        for trace in [false, true] {
            let out = run(&tiny(w, trace)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(out.tally.failed(), 0, "{} failed requests", w.name());
            assert!(out.tally.attempted > 0);
            let e2e = out.e2e.to_json(E2E).unwrap();
            for (name, unit) in E2E {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(e2e.contains(&entry), "{}: {name}", w.name());
                assert!(e2e.contains(&format!("\"unit\": \"{unit}\"")));
                assert!(
                    out.e2e.get(name).unwrap() > 0.0,
                    "{}: {name} is 0",
                    w.name()
                );
            }
            if trace {
                out.layer.to_json(&per_layer()).unwrap();
            }
        }
    }
}

/// The names and units `BENCHMARK.json` lists, one metric per line.
fn declared(section: &str, json: &str) -> Vec<(String, String)> {
    let body = json.split(&format!("\"{section}\"")).nth(1).unwrap();
    let body = &body[..body.find(']').unwrap()];
    let field = |line: &str, key: &str| {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let own = |t: Vec<(String, &str)>| -> Vec<(String, String)> {
        t.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let e2e = own(E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect());
    assert_eq!(declared("end_to_end", &json), e2e);
    assert_eq!(declared("per_layer", &json), own(per_layer()));
}

#[test]
fn a_wrong_expected_plaintext_counts_as_a_failure() {
    let key = inputs::key(3, 512);
    let mut pairs = inputs::pairs(&key, &mut inputs::rng(3, "wrong"), 16);
    pairs[5].m = &pairs[5].m + 1u64;
    let mut tally = Tally::default();

    let scalar = RsaOps::new(Box::new(OpensslBaseline));
    for p in &pairs[..8] {
        tally.check(scalar.private_op(&key, &p.c), &p.m);
    }
    assert_eq!((tally.attempted, tally.wrong, tally.failed()), (8, 1, 1));

    let crt = CrtKey::new(key.p(), key.q(), key.d()).unwrap();
    let engine = BatchCrtEngine::with_config(&crt, &PhiConfig::builder().build()).unwrap();
    let cts: Vec<_> = pairs.iter().map(|p| p.c.clone()).collect();
    tally.check_lanes(&engine.private_op_masked(&cts), &pairs);
    assert_eq!((tally.attempted, tally.wrong), (24, 2));
    assert_eq!(tally.failed_frac(), 2.0 / 24.0);
}

#[test]
fn modeled_counts_repeat_exactly() {
    let (mut a, mut b) = (Tally::default(), Tally::default());
    let first = knc::probe(11, Scale::TINY.knc_bits, &mut a).unwrap();
    let second = knc::probe(11, Scale::TINY.knc_bits, &mut b).unwrap();
    assert_eq!(first, second);
    assert_eq!((a.failed(), b.failed()), (0, 0));
    if !native_host() {
        return;
    }
    // Two different workloads of one seed report identical counts.
    let out = run(&tiny(Workload::OffloadLight, true)).unwrap();
    let again = run(&tiny(Workload::TlsHandshake, true)).unwrap();
    for (name, _) in E2E.iter().filter(|(n, _)| n.starts_with("knc_")) {
        assert_eq!(out.e2e.get(name), again.e2e.get(name), "{name}");
    }
    for (name, _) in per_layer().iter().filter(|(n, _)| n.starts_with("simd.")) {
        assert_eq!(out.layer.get(name), again.layer.get(name), "{name}");
    }
}
