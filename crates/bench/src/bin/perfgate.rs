//! The CI perf-regression gate over `BENCH_*.json` reports.
//!
//! ```text
//! # integrity + span-coverage check of one report
//! perfgate --check BENCH_PR2.json
//!
//! # regression gate: fresh run vs committed baseline
//! perfgate --baseline bench/baseline.json BENCH_PR2.json
//!
//! # both in one invocation: integrity-check the fresh report AND hold
//! # it to the regression tolerance against the baseline
//! perfgate --check BENCH_PR2.json --baseline bench/baseline.json
//!
//! # truncated-reduction gate: run the deterministic classic-vs-truncated
//! # comparison in-process and fail unless the truncated variant cuts
//! # modeled cycles by at least the given fraction at every key size
//! perfgate --min-improvement 0.10
//!
//! # tuned-kernel gate: run both CRT half ladders at the static point and
//! # at the committed table point in-process and fail unless the table
//! # cuts modeled cycles by at least the given fraction at every gated
//! # key size
//! perfgate --tuned-improvement 0.05
//!
//! # fleet-scaling gate: run E19's saturated keyless workload on one
//! # card and on two, and fail unless the two-card fleet's modeled
//! # throughput is at least RATIO times the single card's
//! perfgate --fleet-speedup 1.6
//!
//! # verified-offload gate: run the E14-shaped full-width burst through
//! # a verified service and fail if the batched public-exponent check
//! # costs more than the given fraction of all modeled time
//! perfgate --verify-overhead 0.05
//! ```
//!
//! Exit status 0 = pass, 1 = gate failure (regression, bad coverage, or
//! schema-invalid report), 2 = usage error. The modeled channel is
//! deterministic, so a failing gate is a code change, never noise — in
//! particular, a fault-disabled run must land inside the tolerance, which
//! is how CI proves the resilience layer costs nothing when off.

use phi_bench::gate;
use phi_trace::Report;

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: perfgate --check REPORT.json\n\
         \u{20}      perfgate --baseline BASELINE.json REPORT.json\n\
         \u{20}      perfgate --check REPORT.json --baseline BASELINE.json\n\
         \u{20}      perfgate --min-improvement FRACTION\n\
         \u{20}      perfgate --tuned-improvement FRACTION\n\
         \u{20}      perfgate --fleet-speedup RATIO\n\
         \u{20}      perfgate --verify-overhead FRACTION"
    );
    std::process::exit(code);
}

fn load(path: &str) -> Report {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    Report::from_json_str(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid bench report: {e}");
        std::process::exit(1);
    })
}

fn run_check(path: &str) -> i32 {
    let report = load(path);
    let problems = gate::check(&report);
    if problems.is_empty() {
        println!(
            "perfgate --check {path}: ok ({} experiments, gated {})",
            report.experiments.len(),
            gate::GATED.join(" ")
        );
        0
    } else {
        for p in &problems {
            eprintln!("perfgate: {p}");
        }
        1
    }
}

fn run_gate(baseline_path: &str, fresh_path: &str) -> i32 {
    let baseline = load(baseline_path);
    let fresh = load(fresh_path);
    let lines = gate::compare(&baseline, &fresh).unwrap_or_else(|e| {
        eprintln!("perfgate: {e}");
        std::process::exit(1);
    });
    let mut failed = false;
    println!(
        "perfgate: modeled throughput, fresh vs baseline (tolerance -{:.0}%)",
        gate::REGRESSION_TOLERANCE * 100.0
    );
    for l in &lines {
        println!(
            "  {:4}  {:>12.3}  vs  {:>12.3}  ratio {:.4}  {}",
            l.id,
            l.fresh,
            l.baseline,
            l.ratio,
            if l.ok { "ok" } else { "REGRESSION" }
        );
        failed |= !l.ok;
    }
    if failed {
        eprintln!(
            "perfgate: modeled throughput regressed more than {:.0}% on a gated experiment",
            gate::REGRESSION_TOLERANCE * 100.0
        );
        1
    } else {
        0
    }
}

fn run_min_improvement(arg: &str) -> i32 {
    let min: f64 = arg.parse().unwrap_or_else(|_| {
        eprintln!("perfgate: --min-improvement wants a fraction (e.g. 0.10), got '{arg}'");
        std::process::exit(2);
    });
    if !(0.0..1.0).contains(&min) {
        eprintln!("perfgate: --min-improvement fraction must be in [0, 1), got {min}");
        std::process::exit(2);
    }
    let lines = gate::measure_truncated_improvement(&gate::IMPROVEMENT_SIZES);
    let mut failed = false;
    println!(
        "perfgate: truncated vs classic Montgomery reduction, modeled cycles \
         (required cut >= {:.0}%)",
        min * 100.0
    );
    for l in &lines {
        let ok = l.improvement >= min;
        println!(
            "  {:>5} bits  classic {:>14.0}  truncated {:>14.0}  cut {:>6.2}%  {}",
            l.bits,
            l.classic_cycles,
            l.truncated_cycles,
            l.improvement * 100.0,
            if ok { "ok" } else { "TOO SMALL" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "perfgate: truncated reduction no longer cuts modeled cycles by {:.0}% \
             at every gated key size",
            min * 100.0
        );
        1
    } else {
        0
    }
}

fn run_tuned_improvement(arg: &str) -> i32 {
    let min: f64 = arg.parse().unwrap_or_else(|_| {
        eprintln!("perfgate: --tuned-improvement wants a fraction (e.g. 0.05), got '{arg}'");
        std::process::exit(2);
    });
    if !(0.0..1.0).contains(&min) {
        eprintln!("perfgate: --tuned-improvement fraction must be in [0, 1), got {min}");
        std::process::exit(2);
    }
    let lines = gate::measure_tuned_improvement(&gate::TUNED_GATE_SIZES);
    let mut failed = false;
    println!(
        "perfgate: table vs static point, both CRT half ladders, modeled cycles \
         (required cut >= {:.0}%)",
        min * 100.0
    );
    for l in &lines {
        let ok = l.improvement >= min;
        println!(
            "  {:>5} bits  static {:>14.0}  table {:>14.0}  cut {:>6.2}%  {}",
            l.bits,
            l.static_cycles,
            l.tuned_cycles,
            l.improvement * 100.0,
            if ok { "ok" } else { "TOO SMALL" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "perfgate: the committed tuning table no longer cuts modeled cycles by \
             {:.0}% at every gated key size — regenerate it with `phi-tune --emit`",
            min * 100.0
        );
        1
    } else {
        0
    }
}

fn run_fleet_speedup(arg: &str) -> i32 {
    let min: f64 = arg.parse().unwrap_or_else(|_| {
        eprintln!("perfgate: --fleet-speedup wants a ratio (e.g. 1.6), got '{arg}'");
        std::process::exit(2);
    });
    if min < 1.0 {
        eprintln!("perfgate: --fleet-speedup ratio must be >= 1.0, got {min}");
        std::process::exit(2);
    }
    let m = gate::measure_fleet_speedup();
    let (bits, small, large, ops) = gate::FLEET_GATE;
    let ok = m.speedup >= min;
    println!(
        "perfgate: fleet scaling, {bits}-bit key, {ops} ops per card \
         (required >= {min:.2}x)"
    );
    println!(
        "  {small} card  {:>12.3} op/s   {large} cards  {:>12.3} op/s   \
         speedup {:.4}x  {}",
        m.one_card,
        m.two_cards,
        m.speedup,
        if ok { "ok" } else { "TOO SMALL" }
    );
    if ok {
        0
    } else {
        eprintln!(
            "perfgate: the two-card fleet no longer beats one card by {min:.2}x \
             on the saturated workload"
        );
        1
    }
}

fn run_verify_overhead(arg: &str) -> i32 {
    let max: f64 = arg.parse().unwrap_or_else(|_| {
        eprintln!("perfgate: --verify-overhead wants a fraction (e.g. 0.05), got '{arg}'");
        std::process::exit(2);
    });
    if !(0.0..1.0).contains(&max) || max == 0.0 {
        eprintln!("perfgate: --verify-overhead fraction must be in (0, 1), got {max}");
        std::process::exit(2);
    }
    let m = gate::measure_verify_overhead();
    let (bits, ops) = gate::VERIFY_GATE;
    let ok = m.overhead <= max;
    println!(
        "perfgate: verified offload, {bits}-bit key, {ops}-op full-width burst \
         (verification allowed <= {:.1}% of modeled time)",
        max * 100.0
    );
    println!(
        "  card+verify {:>12.6}s   verify {:>12.6}s   share {:>5.2}%  {}",
        m.total_seconds,
        m.verify_seconds,
        m.overhead * 100.0,
        if ok { "ok" } else { "TOO EXPENSIVE" }
    );
    if ok {
        0
    } else {
        eprintln!(
            "perfgate: the public-exponent check costs more than {:.1}% of the \
             verified batch path's modeled time",
            max * 100.0
        );
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--check") if args.len() == 2 => run_check(&args[1]),
        Some("--min-improvement") if args.len() == 2 => run_min_improvement(&args[1]),
        Some("--tuned-improvement") if args.len() == 2 => run_tuned_improvement(&args[1]),
        Some("--fleet-speedup") if args.len() == 2 => run_fleet_speedup(&args[1]),
        Some("--verify-overhead") if args.len() == 2 => run_verify_overhead(&args[1]),
        Some("--check") if args.len() == 4 && args[2] == "--baseline" => {
            run_check(&args[1]).max(run_gate(&args[3], &args[1]))
        }
        Some("--baseline") if args.len() == 3 => run_gate(&args[1], &args[2]),
        Some("--baseline") if args.len() == 4 && args[2] == "--check" => {
            run_check(&args[3]).max(run_gate(&args[1], &args[3]))
        }
        Some("--help") | Some("-h") => usage(0),
        _ => usage(2),
    };
    std::process::exit(code);
}
