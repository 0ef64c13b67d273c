//! `tls-handshake`: a closed loop of TLS-1.2 RSA key-transport
//! handshakes over the in-memory pipe. Each connection gets a fresh
//! `Server::with_cache` over `RsaOps::new(PhiLibrary)` on the native
//! backend; the client is always the scalar `OpensslBaseline`.

use crate::inputs;
use crate::metrics::{median, ms};
use crate::window::Window;
use crate::{native_config, record_window, timed_setup, Outcome, Params, Tally};
use phi_bigint::{BigIntError, BigUint};
use phi_mont::{ExpPolicy, ExpStrategy, Libcrypto, ModulusSession, MontEngine, OpensslBaseline};
use phi_rsa::{RsaOps, RsaPrivateKey};
use phi_ssl::{drive_handshake, Client, Server, Session, SessionCache};
use phiopenssl::{PhiConfig, PhiLibrary};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections per resumed one: every fourth resumes.
const RESUME_EVERY: u64 = 4;

/// Time spent inside the wrapped library, by entry point.
#[derive(Default)]
struct LibClock {
    setup_ns: AtomicU64,
    setup_calls: AtomicU64,
    exp_ns: AtomicU64,
    mul_ns: AtomicU64,
}

fn add(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_nanos() as u64, Relaxed);
}

/// A `Libcrypto` that delegates to `PhiLibrary` and times `with_modulus`,
/// the session's `mod_exp` and `big_mul` from outside.
struct TimedLib {
    inner: PhiLibrary,
    clock: Arc<LibClock>,
}

/// The wrapped session's engine, shared with the timing exp closure.
struct SharedEngine(Arc<ModulusSession>);

impl MontEngine for SharedEngine {
    fn modulus(&self) -> &BigUint {
        self.0.modulus()
    }
    fn r_bits(&self) -> u32 {
        self.0.engine().r_bits()
    }
    fn to_mont(&self, a: &BigUint) -> BigUint {
        self.0.engine().to_mont(a)
    }
    fn from_mont(&self, a: &BigUint) -> BigUint {
        self.0.engine().from_mont(a)
    }
    fn one_mont(&self) -> BigUint {
        self.0.engine().one_mont()
    }
    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.0.engine().mont_mul(a, b)
    }
    fn mont_sqr(&self, a: &BigUint) -> BigUint {
        self.0.engine().mont_sqr(a)
    }
}

impl Libcrypto for TimedLib {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn big_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let t = Instant::now();
        let r = self.inner.big_mul(a, b);
        add(&self.clock.mul_ns, t);
        r
    }

    fn make_engine(&self, n: &BigUint) -> Result<Box<dyn MontEngine + Send + Sync>, BigIntError> {
        self.inner.make_engine(n)
    }

    fn strategy_for(&self, bits: u32) -> ExpStrategy {
        self.inner.strategy_for(bits)
    }

    fn with_modulus(&self, n: &BigUint) -> Result<ModulusSession, BigIntError> {
        let t = Instant::now();
        let session = Arc::new(self.inner.with_modulus(n)?);
        add(&self.clock.setup_ns, t);
        self.clock.setup_calls.fetch_add(1, Relaxed);
        let (exp_session, clock) = (Arc::clone(&session), Arc::clone(&self.clock));
        Ok(ModulusSession::new(
            self.inner.name(),
            Box::new(SharedEngine(session)),
            ExpPolicy::Custom(Box::new(move |base, exp| {
                let t = Instant::now();
                let r = exp_session.mod_exp(base, exp);
                add(&clock.exp_ns, t);
                r
            })),
        ))
    }
}

/// One connection's result.
struct Handshake {
    ok: bool,
    resumed: bool,
    wall: Duration,
}

/// Connection `i`: a fresh server and client, resuming `last` when `i`
/// is a resumption slot; a completed full handshake replaces `last`.
fn connect(
    i: u64,
    key: &RsaPrivateKey,
    server_ops: RsaOps,
    cache: &Arc<SessionCache>,
    rng: &mut StdRng,
    last: &mut Option<Session>,
    tally: &mut Tally,
) -> Handshake {
    let resume = i % RESUME_EVERY == RESUME_EVERY - 1 && last.is_some();
    let client_ops = RsaOps::new(Box::new(OpensslBaseline));
    let t = Instant::now();
    let mut server = Server::with_cache(rng, key.clone(), server_ops, Arc::clone(cache));
    let mut client = match last.as_ref().filter(|_| resume) {
        Some(session) => Client::with_resumption(rng, client_ops, session.clone()),
        None => Client::new(rng, client_ops),
    };
    let driven = drive_handshake(rng, &mut server, &mut client);
    let wall = t.elapsed();
    let agreed = server.is_established()
        && client.is_established()
        && !server.master_secret().is_empty()
        && server.master_secret() == client.master_secret()
        && server.is_resumed() == resume;
    let ok = tally.check(driven.map(|_| agreed), &true);
    if ok && !resume {
        *last = client.session();
    }
    Handshake {
        ok,
        resumed: resume,
        wall,
    }
}

pub fn handshakes(p: &Params, out: &mut Outcome) -> Result<(), String> {
    let key = inputs::key(p.seed, p.scale.big_bits);
    let probe_pairs = inputs::pairs(
        &key,
        &mut inputs::rng(p.seed, "tls-probe"),
        p.scale.probe_reps + 1,
    );
    let mut rng = inputs::rng(p.seed, "tls");
    let phi = native_config()?.build();
    let plain = || RsaOps::new(Box::new(PhiLibrary::with_config(phi)));

    // Set-up: the shared session cache plus a warm-up of one
    // resumption cycle.
    let (cache, setup) = timed_setup(
        p.scale.setup_reps,
        || {
            let cache = SessionCache::new(64);
            let mut last = None;
            let mut warm = Tally::default();
            for i in 0..RESUME_EVERY {
                connect(i, &key, plain(), &cache, &mut rng, &mut last, &mut warm);
            }
            match warm.failed() {
                0 => Ok(cache),
                n => Err(format!("{n} warm-up handshakes failed")),
            }
        },
        drop,
    )?;
    out.e2e.set("setup_s", setup);

    let clock = Arc::new(LibClock::default());
    let server_ops = || match p.trace {
        true => RsaOps::new(Box::new(TimedLib {
            inner: PhiLibrary::with_config(phi),
            clock: Arc::clone(&clock),
        })),
        false => plain(),
    };
    let mut last = None;
    let (mut done, mut full, mut wall_ms) = (0u64, 0u64, 0.0);
    let mut window = Window::open(Duration::ZERO);
    let start = window.start();
    let end = start + Duration::from_secs_f64(p.seconds);
    while Instant::now() < end {
        let hs = connect(
            done,
            &key,
            server_ops(),
            &cache,
            &mut rng,
            &mut last,
            &mut out.tally,
        );
        if hs.ok {
            window.push(Instant::now(), ms(hs.wall));
            wall_ms += ms(hs.wall);
            full += u64::from(!hs.resumed);
        }
        done += 1;
    }
    record_window(out, &mut window, p.seconds);
    out.notes.push(format!(
        "handshakes: {done} ({full} full, {} resumed)",
        done - full
    ));
    let n = done.max(1) as f64;
    if !p.trace {
        return Ok(());
    }

    let m = &mut out.layer;
    let full = full.max(1) as f64;
    let ns = |c: &AtomicU64| c.load(Relaxed) as f64;
    let lib_ms = (ns(&clock.setup_ns) + ns(&clock.exp_ns) + ns(&clock.mul_ns)) / 1e6;
    m.set("ssl.self_ms_per_hs", (wall_ms - lib_ms) / n);
    m.set("ssl.resumed_share", 1.0 - full / n);
    m.set(
        "mont.session_setup_ms_per_hs",
        ns(&clock.setup_ns) / 1e6 / n,
    );
    m.set("mont.with_modulus_calls_per_hs", ns(&clock.setup_calls) / n);
    m.set(
        "core.mod_exp_ms_per_full_hs",
        ns(&clock.exp_ns) / 1e6 / full,
    );
    m.set(
        "rsa.recombine_us_per_full_hs",
        ns(&clock.mul_ns) / 1e3 / full,
    );
    m.set(
        "core.single_vs_scalar_ratio",
        single_vs_scalar(&key, &phi, &probe_pairs, &mut out.tally),
    );
    Ok(())
}

/// Warm `RsaOps::private_op` on `PhiLibrary` over `OpensslBaseline`,
/// interleaved, as a ratio of median times.
fn single_vs_scalar(
    key: &RsaPrivateKey,
    phi: &PhiConfig,
    pairs: &[inputs::Pair],
    tally: &mut Tally,
) -> f64 {
    let vector = RsaOps::new(Box::new(PhiLibrary::with_config(*phi)));
    let scalar = RsaOps::new(Box::new(OpensslBaseline));
    tally.check(vector.private_op(key, &pairs[0].c), &pairs[0].m);
    tally.check(scalar.private_op(key, &pairs[0].c), &pairs[0].m);
    let (mut tv, mut ts) = (Vec::new(), Vec::new());
    for pair in &pairs[1..] {
        for (ops, times) in [(&vector, &mut tv), (&scalar, &mut ts)] {
            let t = Instant::now();
            let got = ops.private_op(key, &pair.c);
            times.push(ms(t.elapsed()));
            tally.check(got, &pair.m);
        }
    }
    median(&tv) / median(&ts)
}
