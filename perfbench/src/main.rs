//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! Lines before it start with `#` and are for the human reader. Exits 1
//! on any wrong answer and 2 when the run cannot be made or is invalid.

use phi_perfbench::metrics::{per_layer, E2E};
use phi_perfbench::{environment, run, Params, Scale, Workload};

fn parse() -> Result<Params, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Params {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
    })
}

fn main_inner() -> Result<i32, String> {
    let p = parse()?;
    if std::env::var_os("PHI_BACKEND").is_some() {
        return Err(
            "PHI_BACKEND is set; the benchmark selects backends only through \
                    PhiConfig, so unset it"
                .into(),
        );
    }
    println!("# env {}", environment());
    println!(
        "# run workload={} seed={} seconds={} trace={}",
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace)
    );
    let out = run(&p)?;
    for note in &out.notes {
        println!("# {note}");
    }
    println!("# e2e {}", out.e2e.to_json(E2E)?);
    let t = out.tally;
    println!(
        "# failed_frac {} (attempted {}, rejected {}, errored {}, wrong {})",
        t.failed_frac(),
        t.attempted,
        t.rejected,
        t.errored,
        t.wrong
    );
    let metrics = match p.trace {
        true => out.layer.to_json(&per_layer())?,
        false => out.e2e.to_json(E2E)?,
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        t.wrong == 0,
        t.attempted,
        t.failed()
    );
    Ok(if t.wrong == 0 { 0 } else { 1 })
}

fn main() {
    let code = main_inner().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        2
    });
    std::process::exit(code);
}
