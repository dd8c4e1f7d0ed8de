//! Runs one benchmark workload and prints its record line and, last, its
//! result line.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-onehot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--short` runs a tiny stream instead of `--seconds`. The exit code is 0
//! only when every served answer matched the oracle.

use std::process::ExitCode;

use febim_perfbench::{run, Options, Workload};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "{problem}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--short]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|arg| arg == flag)
            .and_then(|at| args.get(at + 1))
    };
    let Some(workload) = value("--workload").and_then(|name| Workload::parse(name)) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|seed| seed.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let trace = match value("--trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let options = if args.iter().any(|arg| arg == "--short") {
        Options::short(workload, seed, trace)
    } else {
        let Some(seconds) = value("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| s.is_finite() && *s > 0.0)
        else {
            return usage("missing or invalid --seconds");
        };
        Options::new(workload, seed, seconds, trace)
    };
    match run(&options) {
        Ok(report) => {
            println!("{}", report.record_line());
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "output gate: {} answer(s) disagreed with the oracle; first: {}",
                    report.mismatches,
                    report.first_mismatch.as_deref().unwrap_or("?")
                );
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            ExitCode::FAILURE
        }
    }
}
