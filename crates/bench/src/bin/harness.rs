//! The table harness: regenerates every table and figure of the paper's
//! evaluation from the modeled KNC channel, and emits a schema-versioned
//! machine-readable report (`BENCH_PR2.json`) alongside the human tables.
//!
//! ```text
//! cargo run --release -p phi-bench --bin harness -- all
//! cargo run --release -p phi-bench --bin harness -- e3 e4
//! cargo run --release -p phi-bench --bin harness -- --smoke e1 e5 e14 e18
//! ```
//!
//! Flags:
//!
//! * `--smoke` — run the reduced CI-scale sweeps instead of paper scale.
//! * `--json PATH` — where to write the report (default `BENCH_PR2.json`).
//! * `--no-json` — print tables only, write no report.
//! * `--no-trace` — leave span tracing disabled (implies `--no-json`);
//!   the tables are unchanged either way, since spans never touch the
//!   modeled-op channel.
//!
//! The harness is the modeled channel only: every kernel it prices runs
//! on the modeled-KNC backend. Host wall clock is measured by the
//! repository benchmark (`python3 perfbench/run.py`), pinned and
//! reference-scaled.

use phi_bench::registry::{self, Experiment, Profile};
use phi_simd::{count, CostModel};
use phi_trace::{ExperimentReport, Report};
use std::time::Instant;

const DEFAULT_JSON: &str = "BENCH_PR2.json";

struct Options {
    profile: Profile,
    trace: bool,
    json: Option<String>,
    experiments: Vec<&'static Experiment>,
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage: harness [--smoke] [--json PATH] [--no-json] [--no-trace] [IDS|all]\n\
         experiment ids: {}",
        registry::ids().join(" ")
    );
    std::process::exit(code);
}

fn parse(args: &[String]) -> Options {
    let mut profile = Profile::Full;
    let mut trace = true;
    let mut json_path: Option<String> = None;
    let mut no_json = false;
    let mut experiments: Vec<&'static Experiment> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => profile = Profile::Smoke,
            "--no-trace" => trace = false,
            "--no-json" => no_json = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("--json needs a path");
                    usage(2);
                }
            },
            "--help" | "-h" => usage(0),
            "all" => experiments.extend(registry::EXPERIMENTS.iter()),
            id => match registry::find(id) {
                Some(e) => experiments.push(e),
                None => {
                    // usage() lists the registered ids.
                    eprintln!("unknown experiment id: {id}");
                    usage(2);
                }
            },
        }
    }
    if experiments.is_empty() {
        experiments.extend(registry::EXPERIMENTS.iter());
    }
    let json = if no_json || !trace {
        None
    } else {
        Some(json_path.unwrap_or_else(|| DEFAULT_JSON.to_owned()))
    };
    Options {
        profile,
        trace,
        json,
        experiments,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args);
    if opts.trace {
        phi_trace::enable();
    }
    let model = CostModel::knc();
    let mut report = Report::new(opts.profile.name());
    println!(
        "# PhiOpenSSL evaluation harness (modeled KNC channel, {} profile)\n",
        opts.profile.name()
    );
    for exp in &opts.experiments {
        phi_trace::reset();
        let started = Instant::now();
        let (table, counts) = count::measure(|| (exp.run)(opts.profile));
        let wall_seconds = started.elapsed().as_secs_f64();
        println!("{table}");
        if opts.trace {
            let trace = phi_trace::snapshot();
            let modeled_seconds = model.single_thread_seconds(&counts);
            let entry = ExperimentReport {
                id: exp.id.to_owned(),
                title: exp.title.to_owned(),
                modeled_cycles: model.issue_cycles(&counts),
                modeled_seconds,
                modeled_throughput: if modeled_seconds > 0.0 {
                    1.0 / modeled_seconds
                } else {
                    0.0
                },
                wall_seconds,
                spans: ExperimentReport::spans_from_trace(&trace),
            };
            println!(
                "  [trace] {}: {:.3e} modeled cycles, span coverage {:.1}% across {} scopes\n",
                exp.id,
                entry.modeled_cycles,
                entry.span_coverage() * 100.0,
                entry.spans.len()
            );
            report.experiments.push(entry);
        }
    }
    if let Some(path) = &opts.json {
        if let Err(e) = report.validate() {
            eprintln!("internal error: generated report is invalid: {e}");
            std::process::exit(1);
        }
        let text = report.to_json_string() + "\n";
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {path} ({} experiments, schema {})",
            report.experiments.len(),
            phi_trace::SCHEMA
        );
    }
}
