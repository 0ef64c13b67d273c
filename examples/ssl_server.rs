//! The paper's motivating scenario: an SSL server terminating RSA
//! key-transport handshakes, compared across the three libraries.
//!
//! Runs a burst of TLS-1.2-style handshakes against each backend and
//! reports both host throughput and the modeled Xeon Phi card rate.
//!
//! ```text
//! cargo run --release --example ssl_server
//! ```

use phi_mont::{Libcrypto, MpssBaseline, OpensslBaseline};
use phi_rsa::key::RsaPrivateKey;
use phi_rsa::RsaOps;
use phi_simd::CostModel;
use phi_ssl::driver::handshake_throughput;
use phiopenssl::PhiLibrary;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HANDSHAKES: usize = 32;
const THREADS: u32 = 240;

fn main() {
    println!("generating the server's 1024-bit RSA key…");
    let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(7), 1024).expect("keygen");

    type LibMaker = fn() -> Box<dyn Libcrypto>;
    let backends: Vec<(&str, LibMaker)> = vec![
        ("PhiOpenSSL", || Box::new(PhiLibrary::default())),
        ("MPSS      ", || Box::new(MpssBaseline)),
        ("OpenSSL   ", || Box::new(OpensslBaseline)),
    ];

    let model = CostModel::knc();
    println!(
        "\nterminating {HANDSHAKES} handshakes per backend ({} modeled threads, compact):\n",
        THREADS
    );
    println!("backend      host rate        modeled card rate   modeled 1-thread latency");
    for (name, make) in backends {
        let (ok, report) = handshake_throughput(&key, || RsaOps::new(make()), HANDSHAKES, THREADS);
        assert_eq!(ok, HANDSHAKES, "{name}: some handshakes failed");
        let per_op = report.counts_per_task();
        let card = model.throughput(&per_op, THREADS, false);
        let lat_us = model.single_thread_seconds(&per_op) * 1e6;
        println!(
            "{name}   {:>8.1} hs/s   {:>12.0} hs/s   {:>12.1} µs",
            report.host_throughput(),
            card,
            lat_us
        );
    }
    println!("\n(the modeled card rate is the experiment E9 channel; see EXPERIMENTS.md)");

    // Bonus: what session resumption buys (experiment E12's point) —
    // the abbreviated handshake skips RSA entirely.
    use phi_simd::count;
    use phi_ssl::{drive_handshake, Client, Server, SessionCache};
    let cache = SessionCache::new(8);
    let mut rng = StdRng::seed_from_u64(0x1209);
    let mk = || RsaOps::new(Box::new(PhiLibrary::default()) as Box<dyn Libcrypto>);
    let mut server = Server::with_cache(&mut rng, key.clone(), mk(), cache.clone());
    let mut client = Client::new(&mut rng, mk());
    count::reset();
    let (_, full) = count::measure(|| drive_handshake(&mut rng, &mut server, &mut client).unwrap());
    let session = client.session().expect("session issued");
    let mut server2 = Server::with_cache(&mut rng, key.clone(), mk(), cache);
    let mut client2 = Client::with_resumption(&mut rng, mk(), session);
    let (_, resumed) =
        count::measure(|| drive_handshake(&mut rng, &mut server2, &mut client2).unwrap());
    assert!(server2.is_resumed());
    let fc = model.issue_cycles(&full);
    let rc = model.issue_cycles(&resumed);
    println!(
        "\nsession resumption: full handshake {:.0} modeled cycles, resumed {:.0} ({:.0}x cheaper)",
        fc,
        rc,
        fc / rc
    );
}
