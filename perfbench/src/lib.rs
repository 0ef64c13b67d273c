//! The repository benchmark: three workloads driven through the public
//! entry points of the PhiOpenSSL stack, every answer checked, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. See `README.md` beside this crate for the workloads, the
//! metric-to-layer table and the predictions they test.

mod inputs;
mod knc;
pub mod metrics;
mod offload;
#[cfg(test)]
mod selftest;
mod tls;
mod window;

use inputs::Pair;
use metrics::{median, Metrics};
use phi_backend::Backend;
use phi_bigint::BigUint;
use phiopenssl::{PhiConfig, PhiConfigBuilder};
use std::time::Instant;
use window::Window;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, RSA-2048, 64 outstanding on the verified fleet service.
    OffloadSaturated,
    /// Open loop, RSA-1024, Poisson arrivals on the verified fleet service.
    OffloadLight,
    /// Closed loop of TLS-1.2 RSA-2048 handshakes, one resumed in four.
    TlsHandshake,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OffloadSaturated,
        Workload::OffloadLight,
        Workload::TlsHandshake,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OffloadSaturated => "offload-saturated",
            Workload::OffloadLight => "offload-light",
            Workload::TlsHandshake => "tls-handshake",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] runs
/// the same code at RSA-512 in well under a second, for self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Key size of `offload-saturated` and `tls-handshake`.
    pub big_bits: u32,
    /// Key size of `offload-light`.
    pub small_bits: u32,
    /// Key sizes of the modeled-channel probe, by metric slot
    /// (`_1024`, `_2048`).
    pub knc_bits: [u32; 2],
    /// Requests `offload-saturated` keeps outstanding.
    pub outstanding: usize,
    /// Arrival rate of `offload-light`, per second.
    pub light_rate: f64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Repetitions of each direct layer timing in a traced run.
    pub probe_reps: usize,
    /// Distinct request pairs cycled through by the offload workloads.
    pub pool: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        big_bits: 2048,
        small_bits: 1024,
        knc_bits: [1024, 2048],
        outstanding: 64,
        light_rate: 40.0,
        setup_reps: 9,
        probe_reps: 5,
        pool: 256,
    };

    pub const TINY: Scale = Scale {
        big_bits: 512,
        small_bits: 512,
        knc_bits: [512, 512],
        outstanding: 64,
        light_rate: 40.0,
        setup_reps: 2,
        probe_reps: 2,
        pool: 32,
    };
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: the benchmark's own layer timers on.
    pub trace: bool,
    pub scale: Scale,
}

/// How the requests of a run ended.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Refused by the service (`QueueFull`).
    pub rejected: u64,
    /// Resolved with an error.
    pub errored: u64,
    /// Resolved with a wrong answer.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.rejected + self.errored + self.wrong
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Count one checked answer; true when it was right.
    fn check<T: PartialEq, E>(&mut self, got: Result<T, E>, want: &T) -> bool {
        self.attempted += 1;
        match got {
            Ok(v) if &v == want => true,
            Ok(_) => {
                self.wrong += 1;
                false
            }
            Err(_) => {
                self.errored += 1;
                false
            }
        }
    }

    /// Count one answer per request of `want`, lane by lane.
    fn check_lanes(&mut self, got: &[BigUint], want: &[Pair]) {
        for (i, w) in want.iter().enumerate() {
            self.check(got.get(i).cloned().ok_or(()), &w.m);
        }
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    /// Every end-to-end metric (measured in traced runs too, so the two
    /// can be compared).
    pub e2e: Metrics,
    /// Every per-layer metric; only a traced run fills it.
    pub layer: Metrics,
    /// Extra lines for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            tally: Tally::default(),
            e2e: Metrics::default(),
            layer: Metrics::layer_defaults(),
            notes: Vec::new(),
        }
    }
}

/// Run one workload. `Err` means the run could not be made or is
/// invalid; wrong answers are reported in the outcome's tally.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    match p.workload {
        Workload::OffloadSaturated => offload::saturated(p, &mut out)?,
        Workload::OffloadLight => offload::light(p, &mut out)?,
        Workload::TlsHandshake => tls::handshakes(p, &mut out)?,
    }
    // Every run ends with the modeled channel: its counts depend only on
    // the seed's keys and ciphertexts, so each workload reports them.
    let probe = knc::probe(p.seed, p.scale.knc_bits, &mut out.tally)?;
    probe.record(&mut out.e2e, &mut out.layer);
    out.e2e.set("peak_rss_mb", metrics::peak_rss_mb()?);
    Ok(out)
}

/// Set the throughput, latency and set-up metrics from the window,
/// scaled to the nominal host (see [`window`]), and note the raw figures
/// beside them.
fn record_window(out: &mut Outcome, w: &mut Window, span: f64) {
    w.close();
    let (raw, scaled) = (w.raw(span), w.scaled(span));
    out.e2e.set("throughput_per_s", scaled.throughput);
    out.e2e.set("latency_p50_ms", scaled.p50_ms);
    out.e2e.set("latency_p90_ms", scaled.p90_ms);
    out.layer.set("loadgen.latency_p99_ms", scaled.p99_ms);
    let setup = out.e2e.get("setup_s").unwrap_or(0.0);
    let slow = w.slow_at_open();
    out.e2e.set("setup_s", setup / slow);
    out.notes.push(format!(
        "raw {span:.1} s window: {:.2}/s, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {} \
         requests; setup {setup:.4} s at {slow:.3}x nominal host time",
        raw.throughput, raw.p50_ms, raw.p90_ms, raw.p99_ms, raw.samples,
    ));
}

/// The native-backend configuration every wall-clock workload runs,
/// chosen only through `PhiConfig`; refused on a host without AVX2
/// rather than silently running modeled.
fn native_config() -> Result<PhiConfigBuilder, String> {
    PhiConfig::builder()
        .backend(Backend::NativeX86)
        .map_err(|e| format!("refusing a native workload: {e}"))
}

/// Build `reps` times and keep the last build, discarding the others;
/// returns it with the median build time in seconds.
fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one build"), median(&times)))
}

/// Host facts printed with every result: the native tier the kernels
/// resolve to, the CPU model and the available parallelism.
pub fn environment() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "native_tier={} features={} cpu=\"{cpu}\" nproc={nproc}",
        phi_backend::native_tier().name(),
        phi_backend::CpuFeatures::detect(),
    )
}
