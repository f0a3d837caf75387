//! Sweeps the property-testing harness over N seeds and reports.
//!
//! ```text
//! dmcp-check [--seeds N] [--seed0 S] [--budget N] [--orders N]
//!            [--serve-every N] [--threads N] [--out PATH] [--only SUBSTR]
//! ```
//!
//! Exits nonzero if any property produced a counterexample. Writes a
//! machine-readable summary (seeds/sec, property-run count,
//! counterexample count) to `--out` (default `BENCH_check.json`).

use dmcp_check::harness::{run_pooled, CheckConfig, CheckReport};
use dmcp_pool::Pool;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: dmcp-check [--seeds N] [--seed0 S] [--budget N] [--orders N] \
                     [--serve-every N] [--threads N] [--out PATH] [--only SUBSTR]";

struct Args {
    cfg: CheckConfig,
    threads: Option<usize>,
    out: String,
}

/// Parses the command line (without the program name); `Ok(None)` when
/// it asks for `--help`.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args =
        Args { cfg: CheckConfig::default(), threads: None, out: "BENCH_check.json".to_string() };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => {
                args.cfg.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed0" => {
                args.cfg.seed0 = value("--seed0")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--budget" => {
                args.cfg.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--orders" => {
                args.cfg.orders = value("--orders")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--serve-every" => {
                args.cfg.serve_every =
                    value("--serve-every")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--threads" => {
                args.threads = Some(value("--threads")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--out" => args.out = value("--out")?,
            "--only" => args.cfg.only = Some(value("--only")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(Some(args))
}

fn render_json(report: &CheckReport, elapsed_s: f64) -> String {
    let seeds_per_s = if elapsed_s > 0.0 { report.seeds as f64 / elapsed_s } else { 0.0 };
    format!(
        "{{\n  \"seeds\": {},\n  \"runs\": {},\n  \"elapsed_s\": {:.3},\n  \
         \"seeds_per_s\": {:.2},\n  \"counterexamples\": {}\n}}\n",
        report.seeds,
        report.runs,
        elapsed_s,
        seeds_per_s,
        report.counterexamples.len()
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Properties probe panics via catch_unwind; silence the default hook's
    // backtrace spam for the duration of the sweep (failures are reported
    // with full context below).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pool = match args.threads {
        Some(n) => Pool::new(n),
        None => Pool::default(),
    };
    let start = Instant::now();
    let report = run_pooled(&args.cfg, &pool);
    let elapsed_s = start.elapsed().as_secs_f64();
    std::panic::set_hook(default_hook);

    println!(
        "dmcp-check: {} seeds, {} property runs in {:.2}s ({:.1} seeds/s)",
        report.seeds,
        report.runs,
        elapsed_s,
        report.seeds as f64 / elapsed_s.max(1e-9)
    );
    for ce in &report.counterexamples {
        eprintln!("\nCOUNTEREXAMPLE [{}] seed {}: {}", ce.property, ce.seed, ce.message);
        if let Some(spec) = &ce.spec {
            eprintln!("shrunken case:\n{spec}");
        }
    }

    let json = render_json(&report, elapsed_s);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    print!("{json}");

    if report.counterexamples.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} counterexample(s) found", report.counterexamples.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn help_is_a_request_not_an_error() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
        assert!(matches!(parse(&["--seeds", "4", "-h"]), Ok(None)));
    }

    #[test]
    fn unknown_or_malformed_flags_are_errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seeds", "many"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn flags_fill_the_settings() {
        let args = parse(&["--seeds", "5", "--threads", "2", "--only", "crash"])
            .expect("parses")
            .expect("not a help request");
        assert_eq!(args.cfg.seeds, 5);
        assert_eq!(args.threads, Some(2));
        assert_eq!(args.cfg.only.as_deref(), Some("crash"));
        assert_eq!(args.out, "BENCH_check.json");
    }
}
