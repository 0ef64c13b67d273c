//! The autotuner driver.
//!
//! ```text
//! phi-tune --emit  [--out <path>] [--seed <n>]
//! phi-tune --check [--table <path>] [--tolerance <f>] [--out <path>]
//! phi-tune --print [--table <path>]
//! ```
//!
//! * `--emit`: search every supported key size on the modeled channel
//!   and write the schema-versioned table, one row per key size
//!   (default `bench/tuning.json`).
//! * `--check`: re-measure each committed row and fail (exit 1) if any
//!   row's point is no longer the best beyond the tolerance — the CI
//!   staleness gate. With `--out`, also writes the freshly regenerated
//!   table (uploaded as a CI artifact on failure).
//! * `--print`: dump the committed table with per-row improvement.
//!
//! Exit codes: 0 clean, 1 stale/failed, 2 usage error.

use phi_tune::{build_table, check_table, DEFAULT_SEED, DEFAULT_TOLERANCE};
use phiopenssl::tuning::TuningTable;
use std::process::ExitCode;

const DEFAULT_TABLE: &str = "bench/tuning.json";

fn usage() -> ExitCode {
    eprintln!(
        "usage: phi-tune --emit  [--out <path>] [--seed <n>]\n\
         \x20      phi-tune --check [--table <path>] [--tolerance <f>] [--out <path>]\n\
         \x20      phi-tune --print [--table <path>]"
    );
    ExitCode::from(2)
}

#[derive(PartialEq)]
enum Mode {
    Emit,
    Check,
    Print,
}

fn main() -> ExitCode {
    let mut mode: Option<Mode> = None;
    let mut table_path = DEFAULT_TABLE.to_string();
    let mut out_path: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut tolerance = DEFAULT_TOLERANCE;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => mode = Some(Mode::Emit),
            "--check" => mode = Some(Mode::Check),
            "--print" => mode = Some(Mode::Print),
            "--table" => match args.next() {
                Some(p) => table_path = p,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--tolerance" => match args.next().and_then(|s| s.parse().ok()) {
                Some(t) => tolerance = t,
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    match mode {
        Some(Mode::Emit) => {
            eprintln!("phi-tune: searching (seed {seed})…");
            let table = build_table(seed);
            let path = out_path.unwrap_or(table_path);
            if let Err(e) = std::fs::write(&path, table.to_json() + "\n") {
                eprintln!("phi-tune: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            print_table(&table);
            eprintln!("phi-tune: wrote {path}");
            ExitCode::SUCCESS
        }
        Some(Mode::Check) => {
            let committed = match load(&table_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("phi-tune: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "phi-tune: checking {table_path} (seed {}, tolerance {:.1}%)…",
                committed.seed,
                tolerance * 100.0
            );
            let failures = check_table(&committed, tolerance);
            if let Some(path) = out_path {
                // Regenerated table for the CI artifact, whatever the verdict.
                let fresh = build_table(committed.seed);
                if let Err(e) = std::fs::write(&path, fresh.to_json() + "\n") {
                    eprintln!("phi-tune: cannot write {path}: {e}");
                } else {
                    eprintln!("phi-tune: regenerated table at {path}");
                }
            }
            if failures.is_empty() {
                eprintln!("phi-tune: table is current");
                ExitCode::SUCCESS
            } else {
                for f in &failures {
                    eprintln!("phi-tune: STALE: {f}");
                }
                ExitCode::FAILURE
            }
        }
        Some(Mode::Print) => match load(&table_path) {
            Ok(t) => {
                print_table(&t);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("phi-tune: {e}");
                ExitCode::FAILURE
            }
        },
        None => usage(),
    }
}

fn load(path: &str) -> Result<TuningTable, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TuningTable::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn print_table(t: &TuningTable) {
    println!("schema {} seed {}", t.schema, t.seed);
    println!(
        "{:>8}  {:>5} {:>6} {:>14} {:>14} {:>7}",
        "key", "radix", "window", "static cyc", "tuned cyc", "gain"
    );
    for e in &t.entries {
        let gain = (1.0 - e.cycles_tuned / e.cycles_static) * 100.0;
        println!(
            "{:>8}  {:>5} {:>6} {:>14.0} {:>14.0} {:>6.1}%",
            e.key_bits, e.params.radix_bits, e.params.window, e.cycles_static, e.cycles_tuned, gain,
        );
    }
}
