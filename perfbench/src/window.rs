//! The timed window: completed requests and the host's speed while they
//! ran.
//!
//! The benchmark host shares its cores with other tenants. For stretches
//! of a fraction of a second to minutes the same code runs up to 1.5
//! times slower (briefly up to 5 times), so raw wall-clock figures spread
//! by 15–28% between runs. The window therefore times a fixed reference
//! kernel of the benchmark's own every tenth of a second, and reports
//! each request's latency, and the window's throughput, scaled to the
//! speed the reference has on the nominal host while they ran. No change
//! to the repository moves the reference, so a faster program still
//! reads faster; a slower neighbour no longer does. The raw figures are
//! printed beside the scaled ones.

use crate::metrics::{median, ms, percentile};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds between host-speed samples.
const SAMPLE_GAP_S: f64 = 0.1;

/// Host-speed samples taken as the window opens and as it closes.
const EDGE_SAMPLES: usize = 5;

/// A request is scaled by the samples taken while it was in flight and
/// within this many seconds either side.
const PAD_S: f64 = 0.5;

/// Time of one [`reference_kernel`] call on the nominal host, in ms:
/// about its median on the 2-vCPU Xeon host the benchmark was defined on.
const NOMINAL_REF_MS: f64 = 1.0;

/// A fixed scalar kernel that gauges how fast the host runs right now:
/// 64-bit schoolbook products of two 32-limb operands, the inner loop
/// of a scalar bignum multiply. Of the kernels tried (this one, an
/// AVX-512 IFMA register loop, a pointer chase through 16 MiB) it is the
/// one whose slowdowns track those of the RSA paths.
fn reference_kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let a: [u64; 32] = std::array::from_fn(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    });
    let mut acc = [0u64; 64];
    for _ in 0..800 {
        let a = black_box(&a);
        for i in 0..32 {
            let mut carry = 0u128;
            for j in 0..32 {
                let p = u128::from(a[i]) * u128::from(a[j]) + u128::from(acc[i + j]) + carry;
                acc[i + j] = p as u64;
                carry = p >> 64;
            }
            acc[i + 32] = carry as u64;
        }
    }
    black_box(acc).iter().fold(0, |h, &v| h ^ v)
}

/// Throughput and latency of a window, scaled to the nominal host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub throughput: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
}

/// Completed requests as (seconds since the window opened, latency ms),
/// and host-speed samples as (seconds since the window opened, reference
/// ms), both in time order.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    done: Vec<(f64, f64)>,
    host: Vec<(f64, f64)>,
}

impl Window {
    /// Sample the host, then open the window `lead` from now.
    pub fn open(lead: Duration) -> Self {
        let opening: Vec<(Instant, f64)> = (0..EDGE_SAMPLES).map(|_| time_reference()).collect();
        let start = Instant::now() + lead;
        Window {
            start,
            done: Vec::new(),
            host: opening
                .into_iter()
                .map(|(t, r)| (secs_since(start, t), r))
                .collect(),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Record a completion, sampling the host when the last sample is
    /// older than [`SAMPLE_GAP_S`].
    pub fn push(&mut self, done: Instant, latency_ms: f64) {
        let at = secs_since(self.start, done);
        self.done.push((at, latency_ms));
        if self.host.last().is_none_or(|s| at - s.0 >= SAMPLE_GAP_S) {
            self.sample_host(1);
        }
    }

    fn sample_host(&mut self, n: usize) {
        for _ in 0..n {
            let (t, r) = time_reference();
            self.host.push((secs_since(self.start, t), r));
        }
    }

    /// Sample the host as the window closes.
    pub fn close(&mut self) {
        self.sample_host(EDGE_SAMPLES);
    }

    /// How much slower than nominal the host ran from `from` to `to`:
    /// the median reference time of the samples within [`PAD_S`] of that
    /// span (or the nearest one), over [`NOMINAL_REF_MS`].
    fn slow_over(&self, from: f64, to: f64) -> f64 {
        let near: Vec<f64> = self
            .host
            .iter()
            .filter(|s| s.0 >= from - PAD_S && s.0 <= to + PAD_S)
            .map(|s| s.1)
            .collect();
        let reference = match near.is_empty() {
            false => median(&near),
            true => self
                .host
                .iter()
                .min_by(|a, b| (a.0 - to).abs().total_cmp(&(b.0 - to).abs()))
                .map_or(NOMINAL_REF_MS, |s| s.1),
        };
        reference / NOMINAL_REF_MS
    }

    /// How much slower than nominal the host ran as the window opened —
    /// the scale of the set-up that came just before it.
    pub fn slow_at_open(&self) -> f64 {
        let opening: Vec<f64> = self.host.iter().take(EDGE_SAMPLES).map(|s| s.1).collect();
        median(&opening) / NOMINAL_REF_MS
    }

    /// Requests completed in `[0, span)`, raw.
    pub fn raw(&self, span: f64) -> Summary {
        let lat: Vec<f64> = self
            .done
            .iter()
            .filter(|d| d.0 < span)
            .map(|d| d.1)
            .collect();
        summary(&lat, span)
    }

    /// Requests completed in `[0, span)`, each latency divided by the
    /// host's slowness while it was in flight, over the window's
    /// nominal-host time.
    pub fn scaled(&self, span: f64) -> Summary {
        let lat: Vec<f64> = self
            .done
            .iter()
            .filter(|d| d.0 < span)
            .map(|&(at, l)| l / self.slow_over(at - l / 1e3, at))
            .collect();
        let steps = ((span / SAMPLE_GAP_S).ceil() as usize).max(1);
        let step = span / steps as f64;
        let nominal: f64 = (0..steps)
            .map(|k| step / self.slow_over(k as f64 * step, (k + 1) as f64 * step))
            .sum();
        summary(&lat, nominal)
    }
}

/// One timed [`reference_kernel`] call: when it started, and its ms.
fn time_reference() -> (Instant, f64) {
    let t = Instant::now();
    black_box(reference_kernel());
    (t, ms(t.elapsed()))
}

/// Signed seconds from `start` to `t`.
fn secs_since(start: Instant, t: Instant) -> f64 {
    match t.checked_duration_since(start) {
        Some(d) => d.as_secs_f64(),
        None => -start.duration_since(t).as_secs_f64(),
    }
}

fn summary(lat: &[f64], seconds: f64) -> Summary {
    Summary {
        throughput: lat.len() as f64 / seconds.max(1e-9),
        p50_ms: percentile(lat, 0.5),
        p90_ms: percentile(lat, 0.9),
        p99_ms: percentile(lat, 0.99),
        samples: lat.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window whose host ran at nominal speed for one second and twice
    /// as slow for the next, with latencies to match.
    fn window() -> Window {
        let mut w = Window::open(Duration::ZERO);
        w.host = (0..20)
            .map(|k| {
                (
                    k as f64 * 0.1,
                    if k < 10 { 1.0 } else { 2.0 } * NOMINAL_REF_MS,
                )
            })
            .collect();
        w.done = (0..20)
            .map(|k| (k as f64 * 0.1 + 0.05, if k < 10 { 5.0 } else { 10.0 }))
            .collect();
        w
    }

    #[test]
    fn raw_figures_are_as_measured() {
        let raw = window().raw(2.0);
        assert_eq!((raw.samples, raw.throughput), (20, 10.0));
        assert_eq!((raw.p50_ms, raw.p99_ms), (5.0, 10.0));
    }

    #[test]
    fn scaled_figures_remove_the_slow_second() {
        let w = window();
        assert_eq!(w.slow_over(0.25, 0.25), 1.0);
        assert_eq!(w.slow_over(1.7, 1.75), 2.0);
        let scaled = w.scaled(2.0);
        // Far from the change every latency scales to 5 ms.
        assert_eq!(scaled.p50_ms, 5.0);
        // One nominal second plus half a nominal second.
        assert!(scaled.throughput > 10.0 && scaled.throughput < 20.0);
    }

    #[test]
    fn the_reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }
}
