//! The paper's experiments, E1–E9, and the extensions E10–E21 (index in
//! DESIGN.md §4).
//!
//! Every function takes its sweep parameters explicitly so tests can run
//! reduced sweeps; the harness binary passes the full paper-scale lists.
//! All numbers in the returned tables come from the **modeled KNC
//! channel** (single-thread latency unless stated otherwise); host wall
//! clock is measured by the repository benchmark (`perfbench/`).

use crate::measure::{modeled, Modeled};
use crate::table::{fmt_rate, fmt_us, fmt_x, Table};
use crate::workload;
use phi_faults::{correlated_reset_scripts, FaultInjector, FaultRates, FaultSource};
use phi_mont::exp::mont_exp;
use phi_mont::{Libcrypto, MontEngine, MpssBaseline, OpensslBaseline};
use phi_rsa::{RsaBatchService, RsaOps};
use phi_rt::service::{Collector, ServiceConfig};
use phi_rt::{FleetConfig, FleetRouter, ResilienceConfig, RoutingPolicy};
use phi_simd::CostModel;
use phiopenssl::batch::{Batch16, BatchMont, BATCH_WIDTH};
use phiopenssl::engine::SINGLE_OP_MAX_LIVE;
use phiopenssl::vexp::{mod_exp_vec, TableLookup};
use phiopenssl::{PhiConfig, PhiLibrary, VMontCtx};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A library constructor used by the multi-library sweeps.
type LibMaker = fn() -> Box<dyn Libcrypto>;

/// E1 — Table 1: big-integer multiplication latency.
pub fn e1_bigmul(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E1 (Table 1): big-integer multiplication, modeled KNC latency",
        &[
            "bits",
            "PhiOpenSSL µs",
            "MPSS µs",
            "OpenSSL µs",
            "vs MPSS",
            "vs OpenSSL",
        ],
    );
    t.note("single thread; operands of the stated width; modeled channel");
    for &bits in sizes {
        let a = workload::operand(bits, 1);
        let b = workload::operand(bits, 2);
        let (_, phi) = modeled(|| PhiLibrary::default().big_mul(&a, &b));
        let (_, mpss) = modeled(|| MpssBaseline.big_mul(&a, &b));
        let (_, ossl) = modeled(|| OpensslBaseline.big_mul(&a, &b));
        t.row(vec![
            bits.to_string(),
            fmt_us(phi.us()),
            fmt_us(mpss.us()),
            fmt_us(ossl.us()),
            fmt_x(phi.speedup_over(&mpss)),
            fmt_x(phi.speedup_over(&ossl)),
        ]);
    }
    t
}

/// E2 — Table 2: single Montgomery multiplication latency.
pub fn e2_montmul(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E2 (Table 2): Montgomery multiplication, modeled KNC latency",
        &[
            "bits",
            "PhiOpenSSL µs",
            "MPSS µs",
            "OpenSSL µs",
            "vs MPSS",
            "vs OpenSSL",
        ],
    );
    t.note("context setup excluded; operands already in the Montgomery domain");
    for &bits in sizes {
        let n = workload::modulus(bits);
        let a = &workload::operand(bits, 3) % &n;
        let b = &workload::operand(bits, 4) % &n;

        let vctx = VMontCtx::new(&n).expect("odd modulus");
        let av = vctx.to_mont_vec(&a);
        let bv = vctx.to_mont_vec(&b);
        let (_, phi) = modeled(|| vctx.mont_mul_vec(&av, &bv));

        let m64 = phi_mont::MontCtx64::new(&n).unwrap();
        let (am, bm) = (m64.to_mont(&a), m64.to_mont(&b));
        let (_, mpss) = modeled(|| m64.mont_mul(&am, &bm));

        let m32 = phi_mont::MontCtx32::new(&n).unwrap();
        let (am, bm) = (m32.to_mont(&a), m32.to_mont(&b));
        let (_, ossl) = modeled(|| m32.mont_mul(&am, &bm));

        t.row(vec![
            bits.to_string(),
            fmt_us(phi.us()),
            fmt_us(mpss.us()),
            fmt_us(ossl.us()),
            fmt_x(phi.speedup_over(&mpss)),
            fmt_x(phi.speedup_over(&ossl)),
        ]);
    }
    t
}

/// Measure one full modular exponentiation per library.
///
/// Each library gets one cached [`ModulusSession`](phi_mont::ModulusSession)
/// for the shared modulus — the facade's stream path — so the measured
/// region is the exponentiation alone, with context setup paid once
/// outside it.
fn exp_trio(bits: u32) -> (Modeled, Modeled, Modeled) {
    let n = workload::modulus(bits);
    let base = &workload::operand(bits, 5) % &n;
    let e = workload::exponent(bits);

    let s_phi = PhiLibrary::default().with_modulus(&n).unwrap();
    let (r_phi, phi) = modeled(|| s_phi.mod_exp(&base, &e));

    let s_mpss = MpssBaseline.with_modulus(&n).unwrap();
    let (r_mpss, mpss) = modeled(|| s_mpss.mod_exp(&base, &e));

    let s_ossl = OpensslBaseline.with_modulus(&n).unwrap();
    let (r_ossl, ossl) = modeled(|| s_ossl.mod_exp(&base, &e));

    // The three libraries must agree before their timings are comparable.
    assert_eq!(
        r_phi, r_mpss,
        "vector vs 64-bit kernel disagree at {bits} bits"
    );
    assert_eq!(
        r_phi, r_ossl,
        "vector vs half-word kernel disagree at {bits} bits"
    );

    (phi, mpss, ossl)
}

/// E3 — Figure: Montgomery exponentiation latency (the 15.3× headline).
pub fn e3_montexp(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E3 (Figure): Montgomery exponentiation, modeled KNC latency",
        &[
            "bits",
            "PhiOpenSSL µs",
            "MPSS µs",
            "OpenSSL µs",
            "vs MPSS",
            "vs OpenSSL",
        ],
    );
    t.note("full-width exponent; PhiOpenSSL fixed window w=5, baselines sliding window");
    t.note("paper: PhiOpenSSL up to 15.3x over the reference libraries");
    for &bits in sizes {
        let (phi, mpss, ossl) = exp_trio(bits);
        t.row(vec![
            bits.to_string(),
            fmt_us(phi.us()),
            fmt_us(mpss.us()),
            fmt_us(ossl.us()),
            fmt_x(phi.speedup_over(&mpss)),
            fmt_x(phi.speedup_over(&ossl)),
        ]);
    }
    t
}

/// Measure the RSA private operation per library for one key size.
fn rsa_trio(bits: u32) -> (Modeled, Modeled, Modeled) {
    let key = workload::rsa_key(bits);
    let c = &workload::operand(bits, 6) % key.public().n();
    let run = |lib: Box<dyn Libcrypto>| {
        let ops = RsaOps::new(lib);
        let (r, m) = modeled(|| ops.private_op(&key, &c).expect("private op"));
        assert_eq!(r, c.mod_exp(key.d(), key.public().n()), "wrong private op");
        m
    };
    (
        run(Box::<PhiLibrary>::default()),
        run(Box::new(MpssBaseline)),
        run(Box::new(OpensslBaseline)),
    )
}

/// E4 — Table: RSA private-key operation latency (the 1.6–5.7× claim).
pub fn e4_rsa_private(key_sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E4 (Table): RSA private-key operation, modeled KNC latency",
        &[
            "key bits",
            "PhiOpenSSL µs",
            "MPSS µs",
            "OpenSSL µs",
            "vs MPSS",
            "vs OpenSSL",
        ],
    );
    t.note("CRT in every library; each library's own exponentiation policy");
    t.note("paper: PhiOpenSSL 1.6-5.7x over the reference libraries");
    for &bits in key_sizes {
        let (phi, mpss, ossl) = rsa_trio(bits);
        t.row(vec![
            bits.to_string(),
            fmt_us(phi.us()),
            fmt_us(mpss.us()),
            fmt_us(ossl.us()),
            fmt_x(phi.speedup_over(&mpss)),
            fmt_x(phi.speedup_over(&ossl)),
        ]);
    }
    t
}

/// E5 — Figure: thread scaling of RSA throughput on the modeled card.
pub fn e5_thread_scaling(key_bits: u32, threads: &[u32]) -> Table {
    let mut t = Table::new(
        format!("E5 (Figure): RSA-{key_bits} sign throughput vs threads, modeled card (ops/s)"),
        &[
            "threads",
            "Phi compact",
            "Phi scatter",
            "MPSS compact",
            "OpenSSL compact",
        ],
    );
    t.note("60-core KNC; 1 thread/core reaches half issue rate (in-order front end)");
    let (phi, mpss, ossl) = rsa_trio(key_bits);
    let model = CostModel::knc();
    for &n in threads {
        let tp =
            |m: &Modeled, scatter: bool| model.machine().throughput(m.knc.issue_cycles, n, scatter);
        t.row(vec![
            n.to_string(),
            fmt_rate(tp(&phi, false)),
            fmt_rate(tp(&phi, true)),
            fmt_rate(tp(&mpss, false)),
            fmt_rate(tp(&ossl, false)),
        ]);
    }
    t
}

/// E6 — Figure: fixed-window width sweep, with the constant-time gather.
pub fn e6_window_sweep(bits: u32, windows: &[u32]) -> Table {
    let mut t = Table::new(
        format!("E6 (Figure): fixed-window width sweep, {bits}-bit mod-exp, modeled µs"),
        &[
            "window",
            "direct lookup µs",
            "constant-time µs",
            "ct overhead",
        ],
    );
    t.note("PhiOpenSSL vector ladder; the paper uses w=5");
    let n = workload::modulus(bits);
    let base = &workload::operand(bits, 7) % &n;
    let e = workload::exponent(bits);
    let ctx = VMontCtx::new(&n).unwrap();
    for &w in windows {
        let (_, direct) = modeled(|| mod_exp_vec(&ctx, &base, &e, w, TableLookup::Direct));
        let (_, ct) = modeled(|| mod_exp_vec(&ctx, &base, &e, w, TableLookup::ConstantTime));
        t.row(vec![
            w.to_string(),
            fmt_us(direct.us()),
            fmt_us(ct.us()),
            fmt_x(ct.us() / direct.us()),
        ]);
    }
    // The strongest hardening for reference: the Montgomery powering
    // ladder (2 multiplications per bit, data-independent dependencies).
    let (_, ladder) =
        modeled(|| mont_exp(&ctx, &base, &e, phi_mont::ExpStrategy::MontgomeryLadder));
    t.row(vec![
        "ladder".to_string(),
        "-".to_string(),
        fmt_us(ladder.us()),
        fmt_x(
            ladder.us() / {
                let (_, w5) = modeled(|| mod_exp_vec(&ctx, &base, &e, 5, TableLookup::Direct));
                w5.us()
            },
        ),
    ]);
    t
}

/// E7 — Table: CRT on/off ablation for the private operation.
pub fn e7_crt(key_sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E7 (Table): CRT ablation, PhiOpenSSL private operation, modeled µs",
        &["key bits", "with CRT µs", "without CRT µs", "CRT speedup"],
    );
    t.note("two half-size ladders + Garner recombination vs one full-size ladder");
    for &bits in key_sizes {
        let key = workload::rsa_key(bits);
        let c = &workload::operand(bits, 8) % key.public().n();
        let with_ops = RsaOps::new(Box::new(PhiLibrary::default()));
        let without_ops = RsaOps::without_crt(Box::new(PhiLibrary::default()));
        let (r1, with) = modeled(|| with_ops.private_op(&key, &c).unwrap());
        let (r2, without) = modeled(|| without_ops.private_op(&key, &c).unwrap());
        assert_eq!(r1, r2, "CRT and full ladder disagree");
        t.row(vec![
            bits.to_string(),
            fmt_us(with.us()),
            fmt_us(without.us()),
            fmt_x(with.speedup_over(&without)),
        ]);
    }
    t
}

/// E8 — Table: vectorization-strategy ablation (intra-operand vs 16-way
/// batch), Montgomery-multiplication throughput.
pub fn e8_batch(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E8 (Table): intra-operand vs 16-way batched Montgomery multiplication",
        &["bits", "16 singles µs", "one batch16 µs", "batch speedup"],
    );
    t.note("same 16 products either as 16 intra-operand calls or one lane-per-op batch");
    for &bits in sizes {
        let n = workload::modulus(bits);
        let ctx = VMontCtx::new(&n).unwrap();
        let bm = BatchMont::new(&ctx);
        let avs: Vec<_> = (0..BATCH_WIDTH as u64)
            .map(|i| ctx.to_vec_form(&(&workload::operand(bits, 10 + i) % &n)))
            .collect();
        let bvs: Vec<_> = (0..BATCH_WIDTH as u64)
            .map(|i| ctx.to_vec_form(&(&workload::operand(bits, 30 + i) % &n)))
            .collect();
        let ab = Batch16::transpose_from(&avs);
        let bb = Batch16::transpose_from(&bvs);

        let (singles_out, singles) = modeled(|| {
            (0..BATCH_WIDTH)
                .map(|j| ctx.mont_mul_vec(&avs[j], &bvs[j]))
                .collect::<Vec<_>>()
        });
        let (batch_out, batch) = modeled(|| bm.mont_mul_16(&ab, &bb));
        assert_eq!(batch_out.transpose_out(), singles_out, "batch mismatch");

        t.row(vec![
            bits.to_string(),
            fmt_us(singles.us()),
            fmt_us(batch.us()),
            fmt_x(batch.speedup_over(&singles)),
        ]);
    }
    t
}

/// E10 — Table: squaring-strategy ablation (CIOS reuse vs dedicated SOS
/// half-product squaring). A negative result the cost model explains:
/// SOS saves multiplies but pays double-width memory traffic.
pub fn e10_sqr(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E10 (Table): Montgomery squaring strategy, modeled µs per squaring",
        &[
            "bits",
            "CIOS (mul kernel) µs",
            "SOS half-product µs",
            "SOS vs CIOS",
        ],
    );
    t.note("why PhiOpenSSL squares with the multiplication kernel");
    for &bits in sizes {
        let n = workload::modulus(bits);
        let ctx = VMontCtx::new(&n).unwrap();
        let a = ctx.to_mont_vec(&workload::operand(bits, 9));
        let (r1, cios) = modeled(|| ctx.mont_sqr_vec(&a));
        let (r2, sos) = modeled(|| phiopenssl::vsqr::mont_sqr_sos(&ctx, &a));
        assert_eq!(r1, r2, "squaring strategies disagree");
        t.row(vec![
            bits.to_string(),
            fmt_us(cios.us()),
            fmt_us(sos.us()),
            fmt_x(sos.us() / cios.us()),
        ]);
    }
    t
}

/// E11 — Table: reduction-strategy ablation ("why Montgomery"):
/// division vs Barrett vs scalar Montgomery vs vectorized Montgomery,
/// one modular multiplication each.
pub fn e11_reduction(sizes: &[u32]) -> Table {
    let mut t = Table::new(
        "E11 (Table): modular-multiplication strategy, modeled µs per mod-mul",
        &[
            "bits",
            "division µs",
            "Barrett µs",
            "Montgomery-64 µs",
            "vectorized µs",
        ],
    );
    t.note("the reduction lineage: BN_mod -> Barrett -> Montgomery -> vectorized Montgomery");
    for &bits in sizes {
        let n = workload::modulus(bits);
        let a = &workload::operand(bits, 11) % &n;
        let b = &workload::operand(bits, 12) % &n;
        let want = a.mod_mul(&b, &n);

        let (r, div) = modeled(|| phi_mont::barrett::mod_mul_division(&a, &b, &n));
        assert_eq!(r, want);
        let bctx = phi_mont::BarrettCtx::new(&n).unwrap();
        let (r, bar) = modeled(|| bctx.mod_mul(&a, &b));
        assert_eq!(r, want);
        let mctx = phi_mont::MontCtx64::new(&n).unwrap();
        let (am, bm) = (mctx.to_mont(&a), mctx.to_mont(&b));
        let (_, mont) = modeled(|| mctx.mont_mul(&am, &bm));
        let vctx = VMontCtx::new(&n).unwrap();
        let (av, bv) = (vctx.to_mont_vec(&a), vctx.to_mont_vec(&b));
        let (_, vec) = modeled(|| vctx.mont_mul_vec(&av, &bv));

        t.row(vec![
            bits.to_string(),
            fmt_us(div.us()),
            fmt_us(bar.us()),
            fmt_us(mont.us()),
            fmt_us(vec.us()),
        ]);
    }
    t
}

/// E12 — Table: full vs resumed handshake (why the private key operation
/// is the target): session resumption skips RSA entirely, so the gap
/// between the two rows *is* the paper's optimization surface.
pub fn e12_resumption(key_bits: u32) -> Table {
    use phi_ssl::{Client, Server, SessionCache};
    let mut t = Table::new(
        format!("E12 (Table): full vs resumed TLS handshake, {key_bits}-bit key, modeled µs"),
        &[
            "server library",
            "full handshake µs",
            "resumed µs",
            "full/resumed",
        ],
    );
    t.note("resumption skips the RSA key exchange: the gap is the optimization surface");
    let key = workload::rsa_key(key_bits);
    let libs: Vec<(&str, LibMaker)> = vec![
        ("PhiOpenSSL", || Box::new(PhiLibrary::default())),
        ("MPSS", || Box::new(MpssBaseline)),
        ("OpenSSL", || Box::new(OpensslBaseline)),
    ];
    for (name, make) in libs {
        let cache = SessionCache::new(8);
        let mut rng = StdRng::seed_from_u64(0xE12);
        // Full handshake (also populates the cache).
        let mut session = None;
        let (_, full) = modeled(|| {
            let mut server =
                Server::with_cache(&mut rng, key.clone(), RsaOps::new(make()), cache.clone());
            let mut client = Client::new(&mut rng, RsaOps::new(make()));
            phi_ssl::drive_handshake(&mut rng, &mut server, &mut client).expect("full");
            session = client.session();
        });
        let session = session.expect("session issued");
        // Resumed handshake.
        let (_, resumed) = modeled(|| {
            let mut server =
                Server::with_cache(&mut rng, key.clone(), RsaOps::new(make()), cache.clone());
            let mut client =
                Client::with_resumption(&mut rng, RsaOps::new(make()), session.clone());
            phi_ssl::drive_handshake(&mut rng, &mut server, &mut client).expect("resumed");
            assert!(server.is_resumed(), "resumption must engage");
        });
        t.row(vec![
            name.to_string(),
            fmt_us(full.us()),
            fmt_us(resumed.us()),
            fmt_x(resumed.speedup_over(&full)),
        ]);
    }
    t
}

/// E13 — Table: batched signature verification across sixteen *different*
/// keys (shared public exponent 65537) via the multi-modulus batch kernel.
pub fn e13_multikey_verify(sizes: &[u32]) -> Table {
    use phiopenssl::MultiBatchMont;
    let mut t = Table::new(
        "E13 (Table): 16 signature verifications, 16 distinct keys, modeled µs",
        &[
            "bits",
            "16 sequential µs",
            "one multi-key batch µs",
            "batch speedup",
        ],
    );
    t.note("shared e = 65537 keeps the ladder schedule shared across lanes");
    let e = phi_bigint::BigUint::from(65537u64);
    for &bits in sizes {
        // Sixteen distinct deterministic odd moduli of this size.
        let moduli: Vec<phi_bigint::BigUint> = (0..16u64)
            .map(|j| {
                let mut n = workload::operand(bits, 100 + j);
                n.set_bit(0, true);
                n
            })
            .collect();
        let sigs: Vec<phi_bigint::BigUint> = (0..16u64)
            .map(|j| &workload::operand(bits, 200 + j) % &moduli[j as usize])
            .collect();
        let expected: Vec<phi_bigint::BigUint> = sigs
            .iter()
            .zip(&moduli)
            .map(|(s, n)| s.mod_exp(&e, n))
            .collect();

        let (seq_out, seq) = modeled(|| {
            sigs.iter()
                .zip(&moduli)
                .map(|(s, n)| {
                    let ctx = VMontCtx::new(n).unwrap();
                    mod_exp_vec(&ctx, s, &e, 5, TableLookup::Direct)
                })
                .collect::<Vec<_>>()
        });
        let (batch_out, batch) = modeled(|| {
            let mb = MultiBatchMont::new(&moduli).unwrap();
            mb.mod_exp_16(&sigs, &e, 5)
        });
        assert_eq!(seq_out, expected, "sequential path wrong");
        assert_eq!(batch_out, expected, "batched path wrong");
        t.row(vec![
            bits.to_string(),
            fmt_us(seq.us()),
            fmt_us(batch.us()),
            fmt_x(batch.speedup_over(&seq)),
        ]);
    }
    t
}

/// E9 — Table: SSL handshake throughput on the modeled card.
pub fn e9_ssl(key_bits: u32, thread_points: &[u32]) -> Table {
    let mut t = Table::new(
        format!("E9 (Table): TLS-1.2 RSA handshakes/s, {key_bits}-bit server key, modeled card"),
        &["library", "1 thread", "mid", "full card"],
    );
    t.note("full handshake counted (server private op dominates); compact affinity");
    let key = workload::rsa_key(key_bits);
    let model = CostModel::knc();
    let libs: Vec<(&str, LibMaker)> = vec![
        ("PhiOpenSSL", || Box::new(PhiLibrary::default())),
        ("MPSS", || Box::new(MpssBaseline)),
        ("OpenSSL", || Box::new(OpensslBaseline)),
    ];
    assert!(thread_points.len() >= 3, "need low/mid/high thread points");
    for (name, make) in libs {
        let (ok, m) = modeled(|| {
            let mut rng = StdRng::seed_from_u64(0x551);
            let mut server = phi_ssl::Server::new(&mut rng, key.clone(), RsaOps::new(make()));
            let mut client = phi_ssl::Client::new(&mut rng, RsaOps::new(make()));
            phi_ssl::drive_handshake(&mut rng, &mut server, &mut client).is_ok()
        });
        assert!(ok, "handshake failed for {name}");
        let cells: Vec<String> = thread_points
            .iter()
            .map(|&n| fmt_rate(model.machine().throughput(m.knc.issue_cycles, n, false)))
            .collect();
        t.row(vec![
            name.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    t
}

/// One simulated operating point of the batch service (virtual clock).
struct SimPoint {
    throughput: f64,
    p99_wait: f64,
    mean_occupancy: f64,
}

/// Drive the real [`Collector`] through a Poisson arrival schedule on a
/// virtual clock, with a single work-conserving server whose batch
/// execution time is `batch_cost(occupancy)` seconds: whenever the
/// server is free and anything is parked it takes the `min(depth,
/// width)` oldest requests, as a card worker does.
///
/// Waits are measured arrival → flush start. The policy adds no wait of
/// its own (an idle server starts on the arrival itself), so this is the
/// time a request queues behind the flushes ahead of it. Below
/// saturation that stays under about one batch pass; above it the
/// open-loop backlog grows for as long as arrivals keep coming.
fn simulate_service(
    arrivals: &[f64],
    config: ServiceConfig,
    batch_cost: impl Fn(usize) -> f64,
) -> SimPoint {
    let mut collector: Collector<usize> = Collector::new(config);
    let mut now = 0.0f64;
    let mut free_at = 0.0f64;
    let mut next = 0usize;
    let mut waits: Vec<f64> = Vec::with_capacity(arrivals.len());
    let mut occupancies: Vec<usize> = Vec::new();
    let mut done_at = 0.0f64;
    while next < arrivals.len() || !collector.is_empty() {
        let arrival = arrivals.get(next).copied().unwrap_or(f64::INFINITY);
        // A flush starts as soon as the server is free and anything is
        // parked.
        let start = match collector.ready() {
            Some(_) => free_at.max(now),
            None => f64::INFINITY,
        };
        if arrival <= start {
            collector
                .submit(next, arrival)
                .expect("simulation queue_cap is effectively unbounded");
            now = arrival;
            next += 1;
        } else {
            let reason = collector
                .ready()
                .expect("a flush starts only on parked work");
            let batch = collector.take_batch(reason, start);
            for pending in &batch.entries {
                waits.push(start - pending.submitted_at);
            }
            occupancies.push(batch.occupancy());
            now = start;
            free_at = start + batch_cost(batch.occupancy());
            done_at = free_at;
        }
    }
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = waits[((waits.len() as f64 * 0.99) as usize).min(waits.len() - 1)];
    SimPoint {
        throughput: waits.len() as f64 / done_at,
        p99_wait: p99,
        mean_occupancy: occupancies.iter().sum::<usize>() as f64 / occupancies.len().max(1) as f64,
    }
}

/// Poisson arrival times: `count` arrivals at `rate` per second.
fn poisson_arrivals(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0.0f64;
    (0..count)
        .map(|_| {
            // Uniform in (0, 1]: 53 random mantissa bits, flipped so the
            // logarithm below never sees zero.
            let u = 1.0 - (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            now += -u.ln() / rate;
            now
        })
        .collect()
}

/// Per-library modeled costs of E14's service: `(library, T1, T16)`,
/// one sequential private op (warm session cache) and one full-width
/// batch pass, in seconds. Only PhiOpenSSL has a lane engine; a scalar
/// baseline's batch is just a loop over its single op.
fn service_costs(key_bits: u32) -> Vec<(&'static str, f64, f64)> {
    let key = workload::rsa_key(key_bits);
    let cts: Vec<phi_bigint::BigUint> = (0..BATCH_WIDTH as u64)
        .map(|j| &workload::operand(key_bits, 300 + j) % key.public().n())
        .collect();
    let makers: Vec<(&str, LibMaker)> = vec![
        ("PhiOpenSSL", || Box::new(PhiLibrary::default())),
        ("MPSS", || Box::new(MpssBaseline)),
        ("OpenSSL", || Box::new(OpensslBaseline)),
    ];
    let engine = workload::batch_engine(&key, &PhiConfig::default());
    let expected = cts[0].mod_exp(key.d(), key.public().n());
    let mut libs = Vec::new();
    for (name, make) in makers {
        let ops = RsaOps::new(make());
        let warm = ops.private_op(&key, &cts[0]).unwrap();
        assert_eq!(warm, expected, "{name} private op wrong");
        let (_, single) = modeled(|| ops.private_op(&key, &cts[0]).unwrap());
        let t1 = single.us() * 1e-6;
        let t16 = if name == "PhiOpenSSL" {
            let (batch_out, batch) = modeled(|| engine.private_op_16(&cts));
            assert_eq!(batch_out[0], expected, "batch engine wrong");
            batch.us() * 1e-6
        } else {
            BATCH_WIDTH as f64 * t1
        };
        libs.push((name, t1, t16));
    }
    libs
}

/// E14 — Table: work-conserving batch RSA service, offered-load sweep.
///
/// For each library the sweep offers Poisson request arrivals at a
/// multiple of that library's own batched capacity and simulates the
/// service layer's collector (the real `phi_rt` state machine) on a
/// virtual clock. Execution times come from the modeled KNC channel and
/// follow [`BatchCrtEngine::private_op_masked`]: a PhiOpenSSL flush of
/// `k` ≤ [`SINGLE_OP_MAX_LIVE`] lanes costs `k` sequential private ops
/// (`T1`, which runs the engine's single-op `vmont` CRT ladder, within
/// 0.4% of its modeled cycles at 512–2048 bits), a fuller one a
/// full-width pass (`T16`) whatever its occupancy, while the scalar
/// baselines execute a batch as `occupancy` sequential private
/// operations — batching buys them nothing, which is the point. The
/// sequential server is the same simulation at width 1 on the same
/// arrivals, so a scalar baseline's gain reads exactly 1.
///
/// [`BatchCrtEngine::private_op_masked`]: phiopenssl::BatchCrtEngine::private_op_masked
pub fn e14_service(key_bits: u32, load_factors: &[f64], ops_per_point: usize) -> Table {
    let mut t = Table::new(
        format!(
            "E14 (Table): work-conserving batch RSA service, {key_bits}-bit key, \
             offered-load sweep"
        ),
        &[
            "load ×sat",
            "library",
            "offered op/s",
            "seq op/s",
            "batched op/s",
            "gain",
            "mean occ",
            "p99 wait µs",
        ],
    );
    let config = ServiceConfig {
        width: BATCH_WIDTH,
        queue_cap: ops_per_point.max(BATCH_WIDTH),
    };
    t.note(format!(
        "width {}, Poisson arrivals, {} ops per point; an idle server flushes \
         whatever is parked at once; wait = arrival to flush start, the \
         queueing behind flushes already running (above 1x load the open-loop \
         backlog makes it grow with the ops per point); seq = one-at-a-time \
         server (T1 per op) simulated on the same arrivals; a flush of k live \
         lanes costs k·T1, except a PhiOpenSSL flush of k > {} lanes, which \
         costs one 16-lane pass T16",
        config.width, ops_per_point, SINGLE_OP_MAX_LIVE
    ));
    let libs = service_costs(key_bits);

    for (fi, &factor) in load_factors.iter().enumerate() {
        for (li, &(name, t1, t16)) in libs.iter().enumerate() {
            let capacity = BATCH_WIDTH as f64 / t16;
            let offered = factor * capacity;
            let arrivals = poisson_arrivals(offered, ops_per_point, 0xE14 + (fi * 8 + li) as u64);
            let phi = name == "PhiOpenSSL";
            let point = simulate_service(&arrivals, config, |k| {
                if phi && k > SINGLE_OP_MAX_LIVE {
                    t16 // padded pass: full width regardless of occupancy
                } else {
                    k as f64 * t1
                }
            });
            let seq = simulate_service(&arrivals, ServiceConfig { width: 1, ..config }, |_| t1)
                .throughput;
            t.row(vec![
                format!("{factor:.2}"),
                name.to_string(),
                fmt_rate(offered),
                fmt_rate(seq),
                fmt_rate(point.throughput),
                fmt_x(point.throughput / seq),
                format!("{:.1}", point.mean_occupancy),
                fmt_us(point.p99_wait * 1e6),
            ]);
        }
    }
    t
}

/// E15 — Table: offload resilience under injected card faults.
///
/// Runs the one-card batch RSA offload service
/// ([`RsaBatchService::new_fleet`] at the default `PhiConfig`) against a
/// seeded fault schedule at each rate in `rates` (`rates[0]` should be `0.0`: its
/// throughput is the "vs clean" baseline). Requests are parked as one
/// burst ([`RsaBatchService::submit_many`]) so the card flushes
/// full-width batches; the first plaintext of every
/// run is checked against the reference exponentiation. Throughput is
/// resolved operations per modeled virtual second — card passes, fault
/// penalties, backoff waits and host-fallback work all advance the same
/// clock, so the column shows what injected faults cost the client.
pub fn e15_fault_resilience(key_bits: u32, rates: &[f64], ops: usize) -> Table {
    let mut t = Table::new(
        format!("E15 (Table): fault-injected offload resilience, {key_bits}-bit key"),
        &[
            "fault rate",
            "resolved",
            "card",
            "host",
            "faults",
            "retries",
            "trips",
            "modeled op/s",
            "vs clean",
        ],
    );
    t.note(format!(
        "{} ops per point, width {}, seeded injector per rate; every request \
         must resolve correctly — faults cost modeled time, never answers",
        ops, BATCH_WIDTH
    ));
    let key = workload::rsa_key(key_bits);
    let cts: Vec<phi_bigint::BigUint> = (0..ops as u64)
        .map(|j| &workload::operand(key_bits, 700 + j) % key.public().n())
        .collect();
    let expected0 = cts[0].mod_exp(key.d(), key.public().n());
    let mut clean = None::<f64>;
    for (ri, &rate) in rates.iter().enumerate() {
        let faults: Option<std::sync::Arc<dyn FaultSource>> = if rate > 0.0 {
            Some(std::sync::Arc::new(FaultInjector::new(
                0xE15 + ri as u64,
                FaultRates::uniform(rate),
            )))
        } else {
            None
        };
        let config = ResilienceConfig {
            service: ServiceConfig {
                width: BATCH_WIDTH,
                queue_cap: ops.max(BATCH_WIDTH),
            },
            ..ResilienceConfig::default()
        };
        let service =
            RsaBatchService::new_fleet(&key, &PhiConfig::default(), config, vec![faults]).unwrap();
        let handles = service
            .submit_many(cts.clone())
            .expect("queue sized for the burst");
        for (i, h) in handles.into_iter().enumerate() {
            let m = h.wait().expect("host fallback resolves every lane");
            if i == 0 {
                assert_eq!(m, expected0, "offload service answered wrong");
            }
        }
        let report = service.shutdown_fleet().merged();
        let thr = report.effective_throughput();
        let baseline = *clean.get_or_insert(thr);
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            report.resolved_ops().to_string(),
            report.service.ops().to_string(),
            report.host_fallback_ops.to_string(),
            report.faults_seen.to_string(),
            report.retries.to_string(),
            report.breaker_trips.to_string(),
            fmt_rate(thr),
            fmt_x(thr / baseline),
        ]);
    }
    t
}

/// The note naming the SIMD level the native lane loops ran at, beside
/// the host's: `native tier: avx2 (host avx512-ifma)`.
fn native_tier_note() -> String {
    format!(
        "native tier: {} (host {})",
        phi_backend::native_tier().name(),
        phi_backend::NativeTier::detected().name()
    )
}

/// E18 — Table: classic CIOS vs truncated-separated Montgomery reduction
/// (DESIGN.md §3.12), 16-lane batch exponentiation per key size.
///
/// Both variants run the same ladder over the same operands; the
/// truncated kernel (the generated one at the static point, radix 2^27,
/// window 5) elides the low partial products of `m·n`, squares
/// through a half-triangle, and keeps its comba accumulators
/// register-resident, so the modeled `mont_reduce` bill drops while the
/// results stay bit-identical. The `agree` column checks classic,
/// truncated, and (when the host has AVX2) the native-backend truncated
/// kernel against the scalar `mod_exp` oracle.
pub fn e18_truncated(sizes: &[u32]) -> Table {
    use phiopenssl::{MontVariant, ResolvedBackend};
    let mut t = Table::new(
        "E18: classic vs truncated Montgomery reduction, 16-lane batch ladder",
        &["bits", "classic µs", "truncated µs", "speedup", "agree"],
    );
    t.note("same 16-lane batch exponentiation (w=5); truncated = §3.12 separated reduction,");
    t.note("the generated kernel at the static point (r27, loop control charged)");
    t.note("bit-identical by construction; `agree` checks both variants vs the scalar oracle");
    let native = phiopenssl::CpuFeatures::detect().avx2;
    if native {
        t.note("native parity included in `agree`");
        t.note(native_tier_note());
    } else {
        t.note("host has no AVX2 — native parity not checked");
    }
    for &bits in sizes {
        let n = workload::modulus(bits);
        let ctx = VMontCtx::new(&n).expect("odd modulus");
        // A short exponent keeps the full-profile 4096-bit sweep fast;
        // the per-multiplication speedup is exponent-independent.
        let e = workload::exponent(bits.min(512));
        let bases: Vec<phi_bigint::BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &workload::operand(bits, 400 + j) % &n)
            .collect();

        let classic = BatchMont::with_variant(&ctx, MontVariant::Classic);
        let truncated = BatchMont::with_variant(&ctx, MontVariant::Auto);
        let (r_c, mc) = modeled(|| classic.mod_exp_16(&bases, &e, 5));
        let (r_t, mt) = modeled(|| truncated.mod_exp_16(&bases, &e, 5));

        let expected: Vec<phi_bigint::BigUint> = bases.iter().map(|b| b.mod_exp(&e, &n)).collect();
        let mut agree = r_c == expected && r_t == expected;
        if native {
            let ctx_n =
                VMontCtx::with_backend(&n, ResolvedBackend::NativeX86).expect("odd modulus");
            let r_n = BatchMont::with_variant(&ctx_n, MontVariant::Auto).mod_exp_16(&bases, &e, 5);
            agree &= r_n == expected;
        }

        t.row(vec![
            bits.to_string(),
            fmt_us(mc.us()),
            fmt_us(mt.us()),
            fmt_x(mt.speedup_over(&mc)),
            if agree { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

/// Montgomery sessions a simulated card keeps resident at once (LRU).
/// Card memory is finite: a fleet serving more distinct moduli than this
/// per card keeps paying the session-setup bill, which is exactly the
/// thrash key-affinity routing exists to avoid.
const SESSION_SLOTS: usize = 4;

/// One simulated fleet operating point (virtual clock).
#[derive(Debug)]
pub struct FleetSimPoint {
    /// Resolved operations per modeled-virtual second (makespan-based).
    pub throughput: f64,
    /// Keyed requests that found their key's Montgomery session already
    /// resident on the executing card, as a fraction of all keyed
    /// requests (reported as 1.0 for a keyless workload).
    pub session_hit_rate: f64,
    /// Steal raids idle cards made on overloaded peers.
    pub steals: u64,
}

/// Drive the real [`FleetRouter`] plus one [`Collector`] per card
/// through an arrival schedule on a virtual clock — the fleet analogue
/// of [`simulate_service`], with the same work-conserving cards: each
/// card flushes whenever it is free and anything is parked on it. A
/// vector Montgomery pass shares one modulus
/// across all lanes ([`BatchCrtEngine`](phiopenssl::BatchCrtEngine) is
/// built per key), so a flushed batch covering `d` distinct keys
/// executes as `d` masked full-cost
/// passes of `batch_cost` seconds each — mixed-key batches are exactly
/// what key-affinity routing exists to avoid. On top of that, every
/// key whose Montgomery session is not resident in the card's
/// [`SESSION_SLOTS`]-deep LRU cache pays `setup_cost` to (re)build it.
/// Starved cards raid the deepest queue through the production
/// [`FleetRouter::steal_victim`] rule, taking the newest half, exactly
/// as the fleet workers do.
fn simulate_fleet(
    arrivals: &[(f64, Option<u64>)],
    fleet: FleetConfig,
    config: ServiceConfig,
    batch_cost: f64,
    setup_cost: f64,
) -> FleetSimPoint {
    let cards = fleet.cards;
    let mut router = FleetRouter::new(fleet);
    let mut collectors: Vec<Collector<Option<u64>>> =
        (0..cards).map(|_| Collector::new(config)).collect();
    let mut free_at = vec![0.0f64; cards];
    // Per-card resident sessions, LRU order (most recent last).
    let mut sessions: Vec<Vec<u64>> = vec![Vec::new(); cards];
    let online = vec![true; cards];
    let mut now = 0.0f64;
    let mut next = 0usize;
    let mut done_at = 0.0f64;
    let mut steals = 0u64;
    let (mut keyed_hits, mut keyed_total) = (0u64, 0u64);
    while next < arrivals.len() || collectors.iter().any(|c| !c.is_empty()) {
        // Starved cards steal before the next event is chosen: a card
        // raids only when its queue is dry AND it will finish its
        // current batch before new work arrives — a busy card stealing
        // early would split a peer's filling batch into two partial
        // (full-cost, masked) passes and lose throughput.
        let next_arrival = arrivals.get(next).map_or(f64::INFINITY, |&(t, _)| t);
        loop {
            let depths: Vec<usize> = collectors.iter().map(Collector::depth).collect();
            let raid = (0..cards).find_map(|thief| {
                if collectors[thief].is_empty() && free_at[thief] <= next_arrival {
                    router.steal_victim(thief, &depths).map(|v| (thief, v))
                } else {
                    None
                }
            });
            let Some((thief, victim)) = raid else { break };
            let take = (collectors[victim].depth() / 2).max(1);
            let stolen = collectors[victim].steal_back(take);
            collectors[thief].adopt(stolen);
            steals += 1;
        }
        let depths: Vec<usize> = collectors.iter().map(Collector::depth).collect();
        // Each card starts a flush as soon as it is free and anything is
        // parked on it.
        let start_of = |c: usize| match collectors[c].ready() {
            Some(_) => free_at[c].max(now),
            None => f64::INFINITY,
        };
        let (card, start) = (0..cards)
            .map(|c| (c, start_of(c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("a fleet has at least one card");
        if next_arrival <= start {
            let (t, key) = arrivals[next];
            let c = router.route(key, &depths, &online);
            collectors[c]
                .submit(key, t)
                .expect("simulation queue_cap is effectively unbounded");
            now = t;
            next += 1;
        } else {
            let reason = collectors[card]
                .ready()
                .expect("a flush starts only on parked work");
            let batch = collectors[card].take_batch(reason, start);
            now = start;
            // One masked vector pass per distinct modulus in the batch.
            let mut moduli: Vec<Option<u64>> = Vec::new();
            let mut cost = 0.0;
            for entry in &batch.entries {
                if !moduli.contains(&entry.payload) {
                    moduli.push(entry.payload);
                    cost += batch_cost;
                }
                let Some(k) = entry.payload else { continue };
                keyed_total += 1;
                if let Some(pos) = sessions[card].iter().position(|&s| s == k) {
                    keyed_hits += 1;
                    sessions[card].remove(pos);
                } else {
                    cost += setup_cost;
                    if sessions[card].len() == SESSION_SLOTS {
                        sessions[card].remove(0);
                    }
                }
                sessions[card].push(k);
            }
            free_at[card] = start + cost;
            done_at = done_at.max(free_at[card]);
        }
    }
    FleetSimPoint {
        throughput: arrivals.len() as f64 / done_at,
        session_hit_rate: if keyed_total == 0 {
            1.0
        } else {
            keyed_hits as f64 / keyed_total as f64
        },
        steals,
    }
}

/// Modeled unit costs the fleet simulations price batches with for a
/// `key_bits`-bit key: one full-width masked CRT batch pass, and one
/// cold Montgomery-session setup (building the modulus context a card
/// must hold before it can run that key's batches).
fn fleet_costs(key_bits: u32) -> (f64, f64) {
    let key = workload::rsa_key(key_bits);
    let engine = workload::batch_engine(&key, &PhiConfig::default());
    let cts: Vec<phi_bigint::BigUint> = (0..BATCH_WIDTH as u64)
        .map(|j| &workload::operand(key_bits, 500 + j) % key.public().n())
        .collect();
    let (_, batch) = modeled(|| engine.private_op_16(&cts));
    let (_, setup) = modeled(|| workload::batch_engine(&key, &PhiConfig::default()));
    (batch.us() * 1e-6, setup.us() * 1e-6)
}

/// Modeled operating point of an N-card fleet on a saturated keyless
/// workload: `ops` Poisson arrivals **per card** at twice the fleet's
/// aggregate batch capacity (the per-card work is held constant so the
/// ramp-up and drain tails weigh every fleet size equally), driven
/// through the fleet simulator under the default (affinity) routing.
/// Shared by E19's scaling panel and `perfgate --fleet-speedup`, so the
/// CI gate and the published table can never drift apart.
pub fn fleet_scaling(key_bits: u32, cards: usize, ops: usize) -> FleetSimPoint {
    let (t16, _) = fleet_costs(key_bits);
    let capacity_one = BATCH_WIDTH as f64 / t16;
    let offered = 2.0 * cards as f64 * capacity_one;
    let arrivals: Vec<(f64, Option<u64>)> = poisson_arrivals(offered, ops * cards, 0xE19)
        .into_iter()
        .map(|t| (t, None))
        .collect();
    let fleet = FleetConfig {
        cards,
        ..FleetConfig::default()
    };
    let config = ServiceConfig {
        width: BATCH_WIDTH,
        queue_cap: (ops * cards).max(BATCH_WIDTH),
    };
    simulate_fleet(&arrivals, fleet, config, t16, 0.0)
}

/// Distinct moduli the routing panel spreads over the fleet — a
/// server-farm key population, far beyond what the fleet's combined
/// [`SESSION_SLOTS`] can hold resident. No routing policy can keep 2048
/// sessions warm; what affinity *can* exploit is the temporal locality
/// of the arrival stream (each key shows up as a burst of
/// [`ROUTE_BURST`] back-to-back requests, the shape of one client's
/// handshake volley): keeping a burst on one card turns it into a
/// single-setup single-modulus pass, while random routing splits it
/// into mixed-key batches and pays the session setup on every card it
/// touches.
const ROUTE_KEYS: u64 = 2048;

/// Back-to-back requests per key in the routing panel's arrival stream.
const ROUTE_BURST: usize = 4;

/// E19 — Table: multi-card fleet scheduler (DESIGN.md §3.13).
///
/// Three panels in one table:
///
/// * `scale` — keyless saturated load on each fleet size in
///   `cards_sweep`, driven through the real router and per-card
///   collectors on a virtual clock; `gain` is modeled throughput vs the
///   first size (CI gates two cards >= 1.6x one card).
/// * `route` — `ROUTE_KEYS` distinct moduli on the largest fleet in
///   bursts of `ROUTE_BURST`, random vs affinity routing under the
///   same arrival schedule; `hit rate` is the fraction of keyed
///   requests whose Montgomery session was already resident on the
///   executing card, and the affinity row's `gain` is its throughput
///   edge over random.
/// * `drill` — the real [`RsaBatchService`] fleet under a seeded
///   correlated whole-card reset burst: every request must resolve
///   exactly once (checked against the reference exponentiation),
///   survivors and the host fallback absorb the work, and the injected
///   resets cost modeled time only.
pub fn e19_fleet(key_bits: u32, cards_sweep: &[usize], ops: usize) -> Table {
    let mut t = Table::new(
        format!("E19 (Table): multi-card fleet scheduler, {key_bits}-bit key"),
        &[
            "part",
            "cards",
            "policy",
            "resolved",
            "hit rate",
            "steals",
            "faults",
            "host",
            "modeled op/s",
            "gain",
        ],
    );
    let (t16, setup) = fleet_costs(key_bits);
    let capacity_one = BATCH_WIDTH as f64 / t16;
    t.note(format!(
        "{} ops per panel point, width {}; scale = keyless load at 2x aggregate \
         capacity, gain vs the smallest fleet; route = {} keys in bursts of {} \
         on the largest fleet ({}-session card caches), gain vs the random row; \
         drill = real fleet service under a seeded correlated reset burst",
        ops, BATCH_WIDTH, ROUTE_KEYS, ROUTE_BURST, SESSION_SLOTS
    ));
    t.note(format!(
        "modeled batch pass {:.1} µs, cold session setup {:.1} µs",
        t16 * 1e6,
        setup * 1e6
    ));

    // Panel 1 — fleet-size scaling on the saturated keyless workload.
    let mut base = None::<f64>;
    for &cards in cards_sweep {
        let point = fleet_scaling(key_bits, cards, ops);
        let baseline = *base.get_or_insert(point.throughput);
        t.row(vec![
            "scale".into(),
            cards.to_string(),
            "affinity".into(),
            ops.to_string(),
            "-".into(),
            point.steals.to_string(),
            "0".into(),
            "0".into(),
            fmt_rate(point.throughput),
            fmt_x(point.throughput / baseline),
        ]);
    }

    // Panel 2 — affinity vs random routing, a 2048-key population in
    // temporally-local bursts, same arrivals for both policies. The
    // panel sizes its own arrival count so every key actually appears:
    // the routing contrast is a pure scheduler simulation (no bignum
    // work per event), so the larger stream costs microseconds.
    let big = *cards_sweep.iter().max().expect("non-empty sweep");
    let offered = 1.5 * big as f64 * capacity_one;
    let route_ops = ops.max(ROUTE_BURST * ROUTE_KEYS as usize);
    let keyed: Vec<(f64, Option<u64>)> = poisson_arrivals(offered, route_ops, 0xE19B)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, Some((i / ROUTE_BURST) as u64 % ROUTE_KEYS)))
        .collect();
    let config = ServiceConfig {
        width: BATCH_WIDTH,
        queue_cap: route_ops.max(BATCH_WIDTH),
    };
    let mut random_thr = None::<f64>;
    for routing in [RoutingPolicy::Random, RoutingPolicy::Affinity] {
        let fleet = FleetConfig {
            cards: big,
            routing,
            ..FleetConfig::default()
        };
        let point = simulate_fleet(&keyed, fleet, config, t16, setup);
        let baseline = *random_thr.get_or_insert(point.throughput);
        t.row(vec![
            "route".into(),
            big.to_string(),
            match routing {
                RoutingPolicy::Affinity => "affinity".into(),
                RoutingPolicy::RoundRobin => "round-robin".into(),
                RoutingPolicy::Random => "random".into(),
            },
            route_ops.to_string(),
            format!("{:.1}%", point.session_hit_rate * 100.0),
            point.steals.to_string(),
            "0".into(),
            "0".into(),
            fmt_rate(point.throughput),
            fmt_x(point.throughput / baseline),
        ]);
    }

    // Panel 3 — the real fleet service under correlated whole-card
    // resets. Round-robin routing spreads the single key's stream over
    // both cards so the seeded burst is guaranteed to see work.
    const DRILL_CARDS: usize = 2;
    let scripts = correlated_reset_scripts(0xE19C, DRILL_CARDS, 1, 1, 3);
    let faults: Vec<Option<std::sync::Arc<dyn FaultSource>>> = scripts
        .into_iter()
        .map(|s| Some(std::sync::Arc::new(s) as std::sync::Arc<dyn FaultSource>))
        .collect();
    let phi = PhiConfig::builder()
        .fleet(FleetConfig {
            cards: DRILL_CARDS,
            routing: RoutingPolicy::RoundRobin,
            ..FleetConfig::default()
        })
        .expect("two cards is a valid fleet shape")
        .build();
    let resilience = ResilienceConfig {
        service: ServiceConfig {
            width: BATCH_WIDTH,
            queue_cap: ops.max(BATCH_WIDTH),
        },
        ..ResilienceConfig::default()
    };
    let key = workload::rsa_key(key_bits);
    let cts: Vec<phi_bigint::BigUint> = (0..ops as u64)
        .map(|j| &workload::operand(key_bits, 900 + j) % key.public().n())
        .collect();
    let expected0 = cts[0].mod_exp(key.d(), key.public().n());
    let service =
        RsaBatchService::new_fleet(&key, &phi, resilience, faults).expect("fleet service builds");
    let handles = service
        .submit_many(cts.clone())
        .expect("queue sized for the burst");
    for (i, h) in handles.into_iter().enumerate() {
        let m = h.wait().expect("survivors resolve every lane");
        if i == 0 {
            assert_eq!(m, expected0, "fleet answered wrong under resets");
        }
    }
    let report = service.shutdown_fleet();
    let merged = report.merged();
    t.row(vec![
        "drill".into(),
        DRILL_CARDS.to_string(),
        "round-robin".into(),
        report.resolved_ops().to_string(),
        "-".into(),
        report.steals.to_string(),
        merged.faults_seen.to_string(),
        merged.host_fallback_ops.to_string(),
        fmt_rate(merged.effective_throughput()),
        "-".into(),
    ]);
    t
}

/// E20 — Table: verified offload under silent-fault chaos (DESIGN.md
/// §3.14).
///
/// Runs the verify-on-release batch RSA service (a one-card
/// [`RsaBatchService::new_fleet`] with `PhiConfig::builder().verified()`)
/// against a seeded *silent* corruption schedule at each rate in `rates`
/// (`rates[0]` should be `0.0`: its throughput is the "vs clean" baseline
/// and its `verify %` column is the pure price of the public-exponent
/// check, the number `perfgate --verify-overhead` bounds). Silent faults flip
/// result limbs without raising any detectable error, so the
/// detected-fault machinery (retries, breaker) never sees them — only
/// the `m^e ≡ c (mod n)` check on release stands between the corruption
/// and the caller, and one escaped corruption is a Bellcore-style key
/// leak. The harness re-derives every released plaintext's public
/// exponentiation independently; the `leaked` column counts mismatches
/// and the run aborts if it is ever nonzero.
pub fn e20_verified_offload(key_bits: u32, rates: &[f64], ops: usize) -> Table {
    let mut t = Table::new(
        format!("E20 (Table): verified offload under silent faults, {key_bits}-bit key"),
        &[
            "silent rate",
            "resolved",
            "checked",
            "rejected",
            "reruns",
            "quarantines",
            "host",
            "leaked",
            "verify %",
            "modeled op/s",
            "vs clean",
        ],
    );
    t.note(format!(
        "{} ops per point, width {}, seeded silent-corruption injector per \
         rate; every release is re-checked against the public exponent — \
         'leaked' must read 0 at every rate, 'verify %' is verification's \
         share of all modeled time",
        ops, BATCH_WIDTH
    ));
    let key = workload::rsa_key(key_bits);
    let cts: Vec<phi_bigint::BigUint> = (0..ops as u64)
        .map(|j| &workload::operand(key_bits, 2000 + j) % key.public().n())
        .collect();
    let check = OpensslBaseline
        .with_modulus(key.public().n())
        .expect("public modulus is odd");
    let mut clean = None::<f64>;
    for (ri, &rate) in rates.iter().enumerate() {
        let faults: Option<std::sync::Arc<dyn FaultSource>> = if rate > 0.0 {
            Some(std::sync::Arc::new(FaultInjector::new(
                0xE20 + ri as u64,
                FaultRates::silent(rate),
            )))
        } else {
            None
        };
        let config = ResilienceConfig {
            service: ServiceConfig {
                width: BATCH_WIDTH,
                queue_cap: ops.max(BATCH_WIDTH),
            },
            ..ResilienceConfig::default()
        };
        let phi = PhiConfig::builder().verified().build();
        let service = RsaBatchService::new_fleet(&key, &phi, config, vec![faults]).unwrap();
        let handles = service
            .submit_many(cts.clone())
            .expect("queue sized for the burst");
        let mut leaked = 0u64;
        for (c, h) in cts.iter().zip(handles) {
            let m = h.wait().expect("the ladder resolves every lane");
            if check.mod_exp(&m, key.public().e()) != *c {
                leaked += 1;
            }
        }
        assert_eq!(leaked, 0, "verified service released corrupted results");
        let report = service.shutdown_fleet().merged();
        let thr = report.effective_throughput();
        let baseline = *clean.get_or_insert(thr);
        let verify_share = if report.modeled_virtual_seconds > 0.0 {
            report.verify_modeled_seconds / report.modeled_virtual_seconds
        } else {
            0.0
        };
        t.row(vec![
            format!("{}", fmt_fault_rate(rate)),
            report.resolved_ops().to_string(),
            report.verified_ops.to_string(),
            report.verify_failures.to_string(),
            report.verify_reruns.to_string(),
            report.lane_quarantines.to_string(),
            report.host_fallback_ops.to_string(),
            leaked.to_string(),
            format!("{:.1}%", verify_share * 100.0),
            fmt_rate(thr),
            fmt_x(thr / baseline),
        ]);
    }
    t
}

/// E21 — Table: the static point vs the committed table point (DESIGN.md
/// §3.15), both CRT half ladders of one 16-lane pass, per key size.
///
/// Both columns run the generated kernel's two half ladders over the same
/// deterministic ciphertexts: at [`KernelParams::static_defaults`] and at
/// the point the committed `bench/tuning.json` names for the key size
/// (radix / window), which the batch engine runs. The
/// results must stay bit-identical — the point only ever moves the
/// modeled cycle count — and `agree` additionally checks the engine's
/// lane 0 against the scalar private-op oracle. When the host has AVX2
/// the engine and the static ladders are rebuilt on the native backend
/// and asserted bit-identical to the modeled ones.
///
/// [`KernelParams::static_defaults`]: phiopenssl::KernelParams::static_defaults
pub fn e21_tuned(key_sizes: &[u32]) -> Table {
    use phiopenssl::{Backend, KernelParams, ResolvedBackend, TuningTable};

    let mut t = Table::new(
        "E21: static vs table point, both CRT half ladders of a 16-lane pass, modeled KNC latency",
        &[
            "key bits",
            "static µs",
            "table µs",
            "speedup",
            "table point",
            "agree",
        ],
    );
    t.note("static = r27 w5; table = committed bench/tuning.json point (the engine's)");
    t.note("bit-identical by construction; `agree` also checks lane 0 vs the scalar oracle");
    let native = phiopenssl::CpuFeatures::detect().avx2;
    if native {
        t.note(native_tier_note());
    } else {
        t.note("host has no AVX2 — native parity not checked");
    }
    for &bits in key_sizes {
        let key = workload::rsa_key(bits);
        let cts: Vec<phi_bigint::BigUint> = (0..BATCH_WIDTH as u64)
            .map(|j| &workload::operand(bits, 2100 + j) % key.public().n())
            .collect();
        let engine = |backend| {
            let config = PhiConfig::builder()
                .backend(backend)
                .expect("backend checked against the host")
                .build();
            workload::batch_engine(&key, &config)
        };
        let entry = TuningTable::committed()
            .entry_for_modulus(key.public().n().bit_length())
            .expect("committed table covers every supported size");
        let static_point = KernelParams::static_defaults();
        let (r_s, ms) =
            workload::half_ladders(&key, &cts, static_point, ResolvedBackend::ModeledKnc);
        let (r_t, mt) =
            workload::half_ladders(&key, &cts, entry.params, ResolvedBackend::ModeledKnc);
        let pass = engine(Backend::ModeledKnc).private_op_16(&cts);
        let agree = r_s == r_t && pass[0] == cts[0].mod_exp(key.d(), key.public().n());
        if native {
            let (r_n, _) =
                workload::half_ladders(&key, &cts, static_point, ResolvedBackend::NativeX86);
            assert_eq!(r_n, r_s, "native static point diverged at {bits} bits");
            let pass_n = engine(Backend::NativeX86).private_op_16(&cts);
            assert_eq!(pass_n, pass, "native engine diverged at {bits} bits");
        }
        t.row(vec![
            bits.to_string(),
            fmt_us(ms.us()),
            fmt_us(mt.us()),
            fmt_x(mt.speedup_over(&ms)),
            format!("r{} w{}", entry.params.radix_bits, entry.params.window),
            if agree { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

/// Format a silent-fault probability compactly across the sweep's six
/// orders of magnitude (`0`, `1e-4`, … up to whole percents).
fn fmt_fault_rate(rate: f64) -> String {
    if rate == 0.0 {
        "0".into()
    } else if rate >= 0.01 {
        format!("{:.0}%", rate * 100.0)
    } else {
        format!("{rate:.0e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self, Profile};

    // Smoke tests run the reduced sweeps (small sizes) so the full suite
    // stays fast in debug mode; the harness binary runs paper scale.

    #[test]
    fn e1_smoke() {
        let t = e1_bigmul(&[512]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], "512");
    }

    #[test]
    fn e2_smoke_phi_wins() {
        let t = e2_montmul(&[512, 1024]);
        assert_eq!(t.rows.len(), 2);
        // The vs-MPSS speedup column must be > 1 (Phi wins in the model).
        for row in &t.rows {
            let x: f64 = row[4].trim_end_matches('x').parse().unwrap();
            assert!(x > 1.0, "Phi should win: {row:?}");
        }
    }

    #[test]
    fn e6_smoke_window_five_beats_one() {
        let t = e6_window_sweep(512, &[1, 5]);
        let us1: f64 = t.rows[0][1].parse().unwrap();
        let us5: f64 = t.rows[1][1].parse().unwrap();
        assert!(us5 < us1, "w=5 {us5} should beat w=1 {us1}");
    }

    #[test]
    fn e4_smoke_phi_wins() {
        let t = e4_rsa_private(&[512]);
        let x: f64 = t.rows[0][4].trim_end_matches('x').parse().unwrap();
        assert!(x > 1.0, "Phi should win RSA: {x}");
    }

    #[test]
    fn e5_smoke_monotonic_scaling() {
        let t = e5_thread_scaling(512, &[1, 8, 240]);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e7_smoke_crt_wins() {
        let t = e7_crt(&[512]);
        let x: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!(x > 1.5, "CRT should win clearly: {x}");
    }

    #[test]
    fn e9_smoke_three_libraries() {
        let t = e9_ssl(512, &[1, 2, 240]);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "PhiOpenSSL");
    }

    #[test]
    fn e10_smoke_sos_loses() {
        let t = e10_sqr(&[512]);
        let x: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!(x > 1.0, "SOS should lose under the KNC model: {x}");
    }

    #[test]
    fn e11_smoke_ordering() {
        let t = e11_reduction(&[512]);
        let row = &t.rows[0];
        let v: Vec<f64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
        assert!(
            v[0] > v[1] && v[1] > v[2] && v[2] > v[3],
            "lineage must improve: {v:?}"
        );
    }

    #[test]
    fn e12_smoke_resumption_cheaper() {
        let t = e12_resumption(512);
        for row in &t.rows {
            let full: f64 = row[1].parse().unwrap();
            let resumed: f64 = row[2].parse().unwrap();
            assert!(resumed < full, "{row:?}");
        }
    }

    #[test]
    fn e13_smoke_batch_wins() {
        let t = e13_multikey_verify(&[512]);
        let x: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!(x > 1.0, "multi-key batch should win, got {x}");
    }

    #[test]
    fn e8_smoke_batch_wins() {
        let t = e8_batch(&[512]);
        let x: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!(x > 1.0, "batch should win, got {x}");
    }

    #[test]
    fn e14_smoke_batching_pays_at_saturation() {
        let t = e14_service(512, &[0.2, 3.0], 96);
        assert_eq!(t.rows.len(), 6, "two load points x three libraries");
        let costs = service_costs(512);
        for row in &t.rows {
            let factor: f64 = row[0].parse().unwrap();
            let gain: f64 = row[5].trim_end_matches('x').parse().unwrap();
            let p99_us: f64 = row[7].parse().unwrap();
            if row[1] == "PhiOpenSSL" && factor > 1.0 {
                // The acceptance bar: at saturating load, the batched
                // service beats the sequential server by >= 1.3x.
                assert!(gain >= 1.3, "saturated batch gain too small: {row:?}");
            }
            if factor < 1.0 {
                // Below saturation the policy adds no wait of its own: a
                // request queues at most behind the pass already running,
                // which costs the library's own T16 (16·T1 when scalar).
                let t16_us = costs.iter().find(|c| c.0 == row[1]).unwrap().2 * 1e6;
                assert!(
                    p99_us < t16_us,
                    "low-load p99 wait above one pass ({t16_us} µs): {row:?}"
                );
            }
        }
    }

    /// The sequential server runs on the same arrivals as the batched
    /// one, so a library without a lane engine gains exactly nothing at
    /// any load.
    #[test]
    fn e14_smoke_batching_buys_scalar_libraries_nothing() {
        let t = (registry::find("e14").unwrap().run)(Profile::Smoke);
        let scalar: Vec<_> = t.rows.iter().filter(|r| r[1] != "PhiOpenSSL").collect();
        assert!(!scalar.is_empty());
        for row in scalar {
            assert_eq!(row[5], "1.00x", "{row:?}");
        }
    }

    #[test]
    fn e14_simulator_conserves_ops() {
        let arrivals = poisson_arrivals(5_000.0, 64, 7);
        assert_eq!(arrivals.len(), 64);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        let config = ServiceConfig {
            width: 8,
            queue_cap: 64,
        };
        let point = simulate_service(&arrivals, config, |k| k as f64 * 1e-5);
        assert!(point.throughput > 0.0);
        assert!(point.mean_occupancy >= 1.0 && point.mean_occupancy <= 8.0);
        // Arrivals far apart against the flush cost: an idle server
        // starts each request on arrival, alone and without waiting.
        let sparse = poisson_arrivals(10.0, 64, 7);
        let point = simulate_service(&sparse, config, |k| k as f64 * 1e-6);
        assert_eq!(point.p99_wait, 0.0);
        assert_eq!(point.mean_occupancy, 1.0);
    }

    #[test]
    fn e18_smoke_truncated_wins_and_agrees() {
        let t = e18_truncated(&[512]);
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        assert_eq!(row[4], "yes", "variants disagree: {row:?}");
        let x: f64 = row[3].trim_end_matches('x').parse().unwrap();
        assert!(x > 1.0, "truncated should beat classic, got {x}");
    }

    #[test]
    fn e19_smoke_fleet_scales_and_affinity_wins() {
        let t = e19_fleet(512, &[1, 2], 96);
        assert_eq!(t.rows.len(), 5, "2 scale + 2 route + 1 drill rows");
        // Scale panel: two cards beat one by >= 1.6x on the saturated
        // workload — the same bar `perfgate --fleet-speedup` holds CI to.
        let gain2: f64 = t.rows[1][9].trim_end_matches('x').parse().unwrap();
        assert!(gain2 >= 1.6, "two cards must scale: {:?}", t.rows[1]);
        // Route panel: affinity keeps sessions resident, random thrashes.
        let rand_hit: f64 = t.rows[2][4].trim_end_matches('%').parse().unwrap();
        let aff_hit: f64 = t.rows[3][4].trim_end_matches('%').parse().unwrap();
        assert!(
            aff_hit > rand_hit,
            "affinity hit rate {aff_hit}% must beat random {rand_hit}%"
        );
        let aff_gain: f64 = t.rows[3][9].trim_end_matches('x').parse().unwrap();
        assert!(
            aff_gain > 1.0,
            "affinity must out-throughput random: {:?}",
            t.rows[3]
        );
        // Drill panel: conservation under correlated whole-card resets.
        assert_eq!(t.rows[4][3], "96", "lost requests: {:?}", t.rows[4]);
        assert!(
            t.rows[4][6].parse::<u64>().unwrap() >= 1,
            "the reset burst must fire: {:?}",
            t.rows[4]
        );
    }

    #[test]
    fn e19_fleet_scaling_is_deterministic() {
        let first = fleet_scaling(512, 2, 48);
        let second = fleet_scaling(512, 2, 48);
        assert_eq!(
            first.throughput, second.throughput,
            "modeled channel must be deterministic"
        );
        assert_eq!(first.steals, second.steals);
    }

    #[test]
    fn e20_smoke_verified_offload_leaks_nothing() {
        // The injector draws once per flush and 16 ops is a single flush,
        // so the faulted point needs a rate high enough that the one draw
        // lands in the silent band.
        let t = e20_verified_offload(512, &[0.0, 0.9], 16);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            // Conservation and zero-leak at every rate.
            assert_eq!(row[1], "16", "lost requests: {row:?}");
            assert_eq!(row[7], "0", "corrupted release: {row:?}");
        }
        // The clean row: everything checked, nothing rejected, and the
        // verify share is a real, bounded price.
        assert_eq!(t.rows[0][2], "16", "{:?}", t.rows[0]);
        assert_eq!(t.rows[0][3], "0", "{:?}", t.rows[0]);
        let share: f64 = t.rows[0][8].trim_end_matches('%').parse().unwrap();
        assert!(
            share > 0.0 && share < 15.0,
            "verify share out of range: {:?}",
            t.rows[0]
        );
        // The faulted row: the check caught corruption and reran it.
        assert!(t.rows[1][3].parse::<u64>().unwrap() > 0, "{:?}", t.rows[1]);
        let x: f64 = t.rows[1][10].trim_end_matches('x').parse().unwrap();
        assert!(
            x < 1.0,
            "corruption must cost modeled time: {:?}",
            t.rows[1]
        );
    }

    #[test]
    fn e21_smoke_tuned_kernel_wins_and_agrees() {
        let t = e21_tuned(&[512]);
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        assert_eq!(
            row[5], "yes",
            "table point must stay bit-identical: {row:?}"
        );
        let x: f64 = row[3].trim_end_matches('x').parse().unwrap();
        assert!(
            x > 1.05,
            "committed table must cut >5% modeled cycles at 512 bits: {row:?}"
        );
        // The committed 512-bit row: the radix-29 window-4 kernel.
        assert_eq!(row[4], "r29 w4", "{row:?}");
    }

    /// The bursts are parked whole, so flush composition, and with it
    /// every modeled figure, repeats exactly from run to run. Every
    /// faulted smoke row must also draw a fault, or the smoke run never
    /// exercises the ladder its table reports.
    #[test]
    fn e15_and_e20_smoke_rows_are_deterministic() {
        let smoke = |id| (registry::find(id).unwrap().run)(Profile::Smoke).rows;
        let e15 = smoke("e15");
        assert_eq!(e15, smoke("e15"));
        for row in e15.iter().filter(|r| r[0] != "0%") {
            assert!(
                row[4].parse::<u64>().unwrap() > 0,
                "no fault drawn: {row:?}"
            );
        }
        let e20 = smoke("e20");
        assert_eq!(e20, smoke("e20"));
        for row in e20.iter().filter(|r| r[0] != "0") {
            assert!(
                row[3].parse::<u64>().unwrap() > 0,
                "nothing rejected: {row:?}"
            );
        }
    }

    #[test]
    fn e15_smoke_faults_cost_throughput_not_answers() {
        let t = e15_fault_resilience(512, &[0.0, 0.5], 48);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            // Conservation at every rate: all 48 requests resolved.
            assert_eq!(row[1], "48", "lost requests: {row:?}");
        }
        // The clean row saw no faults and is its own baseline.
        assert_eq!(t.rows[0][4], "0");
        assert_eq!(t.rows[0][8], "1.00x");
        // The faulted row saw faults and paid for them in throughput.
        assert!(t.rows[1][4].parse::<u64>().unwrap() > 0, "{:?}", t.rows[1]);
        let x: f64 = t.rows[1][8].trim_end_matches('x').parse().unwrap();
        assert!(x < 1.0, "faults must cost modeled time: {:?}", t.rows[1]);
    }
}
