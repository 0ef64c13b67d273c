//! The offload workloads: RSA private operations submitted to the
//! verified one-card fleet service (`RsaBatchService::new_fleet` with a
//! native, verified `PhiConfig` and the default `ResilienceConfig`).

use crate::inputs::{self, Pair};
use crate::metrics::{median, ms, percentile, Metrics};
use crate::window::Window;
use crate::{native_config, record_window, timed_setup, Outcome, Params, Tally};
use phi_mont::OpensslBaseline;
use phi_rsa::{RsaBatchService, RsaOps, RsaPrivateKey, RsaTicket};
use phi_rt::service::FlushReason;
use phi_rt::stats::ResilienceReport;
use phi_rt::ResilienceConfig;
use phiopenssl::batch::BATCH_WIDTH;
use phiopenssl::{BatchCrtEngine, CrtKey, PhiConfig};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Start the service and push one full flush through it.
fn start(key: &RsaPrivateKey, phi: &PhiConfig, warm: &[Pair]) -> Result<RsaBatchService, String> {
    let svc = RsaBatchService::new_fleet(key, phi, ResilienceConfig::default(), Vec::new())
        .map_err(|e| format!("starting the fleet service: {e}"))?;
    let tickets = warm
        .iter()
        .map(|p| svc.submit(p.c.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up submit: {e}"))?;
    for (t, p) in tickets.into_iter().zip(warm) {
        if t.wait().map_err(|e| format!("warm-up: {e}"))? != p.m {
            return Err("warm-up returned a wrong plaintext".into());
        }
    }
    Ok(svc)
}

/// Inputs, service and set-up time shared by both offload workloads.
struct Rig {
    key: RsaPrivateKey,
    pairs: Vec<Pair>,
    phi: PhiConfig,
    svc: RsaBatchService,
    /// Merged service report when the window opened (traced runs).
    before: Option<ResilienceReport>,
}

fn rig(p: &Params, bits: u32, stream: &str, out: &mut Outcome) -> Result<Rig, String> {
    let key = inputs::key(p.seed, bits);
    let pairs = inputs::pairs(&key, &mut inputs::rng(p.seed, stream), p.scale.pool);
    let phi = native_config()?.verified().build();
    let (svc, setup) = timed_setup(
        p.scale.setup_reps,
        || start(&key, &phi, &pairs[..BATCH_WIDTH]),
        |svc| drop(svc.shutdown_fleet()),
    )?;
    out.e2e.set("setup_s", setup);
    let before = p.trace.then(|| svc.resilience_report()).flatten();
    Ok(Rig {
        key,
        pairs,
        phi,
        svc,
        before,
    })
}

type Submitted = Result<RsaTicket, phi_rt::service::SubmitError>;

/// Submit one request; returns the ticket and the µs spent in the rsa
/// layer's `submit`.
fn submit(svc: &RsaBatchService, pair: &Pair) -> (Submitted, f64) {
    let c = pair.c.clone();
    let t = Instant::now();
    let r = svc.submit(c);
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// `offload-saturated`: one submitter keeps `outstanding` RSA-2048
/// requests in flight and waits on the oldest.
pub fn saturated(p: &Params, out: &mut Outcome) -> Result<(), String> {
    let rig = rig(p, p.scale.big_bits, "saturated", out)?;
    let (pairs, svc) = (&rig.pairs, &rig.svc);
    let mut submit_us = Vec::new();
    let mut inflight: VecDeque<(RsaTicket, usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let mut window = Window::open(Duration::ZERO);
    let start = window.start();
    let end = start + Duration::from_secs_f64(p.seconds);
    loop {
        while inflight.len() < p.scale.outstanding && Instant::now() < end {
            let i = next % pairs.len();
            next += 1;
            let sent = Instant::now();
            let (ticket, us) = submit(svc, &pairs[i]);
            if p.trace {
                submit_us.push(us);
            }
            match ticket {
                Ok(t) => inflight.push_back((t, i, sent)),
                Err(_) => {
                    out.tally.attempted += 1;
                    out.tally.rejected += 1;
                    break;
                }
            }
        }
        let Some((t, i, sent)) = inflight.pop_front() else {
            break;
        };
        let got = t.wait();
        let done = Instant::now();
        if out.tally.check(got, &pairs[i].m) && done <= end {
            window.push(done, ms(done - sent));
        }
    }
    let span = start.elapsed().as_secs_f64();
    record_window(out, &mut window, p.seconds);
    finish(p, rig, out, span, &submit_us)
}

/// `offload-light`: Poisson arrivals at a fixed rate of RSA-1024
/// requests; one thread sends on schedule, this one waits in order.
pub fn light(p: &Params, out: &mut Outcome) -> Result<(), String> {
    let rig = rig(p, p.scale.small_bits, "light", out)?;
    let schedule = inputs::poisson_schedule(
        &mut inputs::rng(p.seed, "arrivals"),
        p.scale.light_rate,
        p.seconds,
    );
    let (pairs, svc) = (&rig.pairs, &rig.svc);
    struct Sent {
        i: usize,
        due: Instant,
        sent: Instant,
        submit_us: f64,
        ticket: Submitted,
    }
    let mut submit_us = Vec::new();
    let mut late = Vec::with_capacity(schedule.len());
    // A short lead so the first sends are not late by construction.
    let mut window = Window::open(Duration::from_millis(20));
    let t0 = window.start();
    let mut last_done = t0;
    let trace = p.trace;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Sent>();
        let schedule = &schedule;
        s.spawn(move || {
            for (n, &offset) in schedule.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let i = n % pairs.len();
                let sent = Instant::now();
                let (ticket, submit_us) = submit(svc, &pairs[i]);
                if tx
                    .send(Sent {
                        i,
                        due,
                        sent,
                        submit_us,
                        ticket,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        for r in rx {
            late.push(ms(r.sent - r.due));
            if trace {
                submit_us.push(r.submit_us);
            }
            match r.ticket {
                Ok(t) => {
                    let got = t.wait();
                    let done = Instant::now();
                    if out.tally.check(got, &pairs[r.i].m) {
                        window.push(done, ms(done - r.due));
                        last_done = done;
                    }
                }
                Err(_) => {
                    out.tally.attempted += 1;
                    out.tally.rejected += 1;
                }
            }
        }
    });
    // The schedule fixes how many requests arrive, so throughput is the
    // whole window's: the offered load, delivered or not.
    let span = last_done.duration_since(t0).as_secs_f64();
    let completed = window.raw(span + 1.0).samples;
    record_window(out, &mut window, span + 1e-3);
    out.e2e.set("throughput_per_s", completed as f64 / span);
    // The generator fell behind when its p99 send ran later than the
    // mean gap between arrivals: sends then pile up instead of following
    // the schedule, and the offered load is no longer the stated rate.
    let late_limit_ms = 1e3 / p.scale.light_rate;
    let late_p99 = percentile(&late, 0.99);
    out.layer.set("loadgen.late_p99_ms", late_p99);
    out.notes.push(format!(
        "loadgen: {} scheduled sends at {}/s, late p50 {:.3} ms, p99 {late_p99:.3} ms (limit {late_limit_ms} ms), max {:.3} ms",
        schedule.len(),
        p.scale.light_rate,
        percentile(&late, 0.5),
        percentile(&late, 1.0),
    ));
    if late_p99 > late_limit_ms {
        return Err(format!(
            "invalid run: the load generator fell behind (late p99 {late_p99:.3} ms > {late_limit_ms} ms)"
        ));
    }
    finish(p, rig, out, span, &submit_us)
}

/// Shut the service down; in a traced run, read its report and time the
/// core layer directly on the same key and config.
fn finish(
    p: &Params,
    rig: Rig,
    out: &mut Outcome,
    span: f64,
    submit_us: &[f64],
) -> Result<(), String> {
    let report = rig.svc.shutdown_fleet().merged();
    if !p.trace {
        return Ok(());
    }
    let m = &mut out.layer;
    m.set("rsa.submit_us_p50", median(submit_us));
    let pass16 = core_probe(p, &rig.key, &rig.pairs, &rig.phi, m, &mut out.tally)?;
    let before = rig.before.unwrap_or_default();
    record_rt(m, &report, &before, span, pass16);
    Ok(())
}

/// rt-layer metrics from the flushes and counters since the window
/// opened.
fn record_rt(
    m: &mut Metrics,
    after: &ResilienceReport,
    before: &ResilienceReport,
    span: f64,
    pass16_ms: f64,
) {
    let flushes = &after.service.flushes[before.service.flushes.len()..];
    let n = flushes.len().max(1) as f64;
    let wall: Vec<f64> = flushes.iter().map(|f| f.wall_seconds * 1e3).collect();
    let waits: Vec<f64> = flushes.iter().map(|f| f.oldest_wait * 1e3).collect();
    let share = |reason| flushes.iter().filter(|f| f.reason == reason).count() as f64 / n;
    let lanes: usize = flushes.iter().map(|f| f.occupancy).sum();
    let width: usize = flushes.iter().map(|f| f.width).sum();
    m.set("rt.flush_wall_p50_ms", percentile(&wall, 0.5));
    m.set("rt.flush_wall_p99_ms", percentile(&wall, 0.99));
    m.set(
        "rt.flush_overhead_ms",
        wall.iter().sum::<f64>() / n - pass16_ms,
    );
    m.set("rt.oldest_wait_p50_ms", percentile(&waits, 0.5));
    m.set("rt.oldest_wait_p99_ms", percentile(&waits, 0.99));
    m.set("rt.deadline_flush_share", share(FlushReason::Deadline));
    m.set("rt.full_flush_share", share(FlushReason::Full));
    m.set("rt.mean_occupancy", lanes as f64 / n);
    m.set(
        "rt.lane_waste_share",
        1.0 - lanes as f64 / width.max(1) as f64,
    );
    m.set("rt.flushes", flushes.len() as f64);
    m.set("rt.card_busy_share", wall.iter().sum::<f64>() / 1e3 / span);
    let delta = |a: u64, b: u64| a.saturating_sub(b) as f64;
    m.set(
        "rt.rejected",
        delta(after.service.rejected, before.service.rejected),
    );
    m.set("rt.requeues", delta(after.requeues, before.requeues));
    m.set(
        "rt.host_fallback_ops",
        delta(after.host_fallback_ops, before.host_fallback_ops),
    );
    m.set(
        "rt.verify_failures",
        delta(after.verify_failures, before.verify_failures),
    );
    m.set(
        "rt.verified_ops",
        delta(after.verified_ops, before.verified_ops),
    );
}

/// Time `BatchCrtEngine::private_op_masked` at 16 and 1 live lanes and
/// the scalar `OpensslBaseline` private op, interleaved; returns the
/// 16-lane pass in ms.
fn core_probe(
    p: &Params,
    key: &RsaPrivateKey,
    pairs: &[Pair],
    phi: &PhiConfig,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<f64, String> {
    let crt = CrtKey::new(key.p(), key.q(), key.d()).map_err(|e| format!("CRT key: {e}"))?;
    let engine = BatchCrtEngine::with_config(&crt, phi).map_err(|e| format!("engine: {e}"))?;
    let scalar = RsaOps::new(Box::new(OpensslBaseline));
    let lanes = &pairs[..BATCH_WIDTH];
    let cts: Vec<_> = lanes.iter().map(|q| q.c.clone()).collect();
    tally.check_lanes(&engine.private_op_masked(&cts), lanes);
    tally.check(scalar.private_op(key, &pairs[0].c), &pairs[0].m);
    let (mut t16, mut t1, mut ts) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..p.scale.probe_reps {
        let t = Instant::now();
        let got = engine.private_op_masked(&cts);
        t16.push(ms(t.elapsed()));
        tally.check_lanes(&got, lanes);

        let one = &pairs[1 + r % (pairs.len() - 1)];
        let t = Instant::now();
        let got = engine.private_op_masked(std::slice::from_ref(&one.c));
        t1.push(ms(t.elapsed()));
        tally.check_lanes(&got, std::slice::from_ref(one));

        let t = Instant::now();
        let got = scalar.private_op(key, &one.c);
        ts.push(ms(t.elapsed()));
        tally.check(got, &one.m);
    }
    let pass16 = median(&t16);
    m.set("core.pass_ms_occ16", pass16);
    m.set("core.pass_ms_occ1", median(&t1));
    m.set(
        "core.batch_vs_scalar_ratio",
        pass16 / BATCH_WIDTH as f64 / median(&ts),
    );
    Ok(pass16)
}
