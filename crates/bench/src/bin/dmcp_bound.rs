//! Optimality-gap dashboard over the full 12-workload suite.
//!
//! Plans every workload with the default configuration, computes the
//! per-nest data-movement lower bounds, and writes `BENCH_bound.json`.
//! Exits nonzero if any workload's planner movement drops below its bound
//! (a soundness violation), if any workload row is missing, or if any
//! bound degenerates to zero while the planner moves data (a vacuous
//! bound is a regression of the dashboard itself).
//!
//! With `--pins` it additionally fails if any Tiny-scale workload's gap
//! ratio regresses above its pinned value in [`GAP_RATIO_PINS`] — the
//! CI guard that keeps plan quality relative to the floor from silently
//! eroding. Re-pin (by re-running without `--pins` and copying the table)
//! only alongside an intentional planner change.
//!
//! ```text
//! dmcp-bound [--scale tiny|small|full] [--out BENCH_bound.json] [--pins]
//! ```

use dmcp::bound::{gap_report, GapReport};
use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::MachineConfig;
use dmcp::workloads::{all, Scale};
use std::process::ExitCode;

const USAGE: &str = "usage: dmcp-bound [--scale tiny|small|full] [--out PATH] [--pins]";

const EXPECTED_WORKLOADS: usize = 12;

/// Maximum allowed gap ratio per workload at Tiny scale, as the
/// MST-only planner achieves it with the default configuration.
const GAP_RATIO_PINS: &[(&str, f64)] = &[
    ("Barnes", 2.9116),
    ("Cholesky", 167.3333),
    ("FFT", 8.3439),
    ("FMM", 6.8032),
    ("LU", 60.9783),
    ("Ocean", 4.9918),
    ("Radiosity", 2.5977),
    ("Radix", 2.8267),
    ("Raytrace", 5.6092),
    ("Water", 8.7240),
    ("MiniMD", 5.7497),
    ("MiniXyce", 7.5124),
];

/// Slack for the 4-decimal rendering of the pinned ratios.
const PIN_TOLERANCE: f64 = 5e-5;

fn render_json(reports: &[GapReport], sound: bool) -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"planner_movement\": {}, \"bound\": {}, \
             \"gap_ratio\": {:.4}, \"nests\": [",
            r.name,
            r.planner_movement,
            r.bound,
            r.gap_ratio()
        ));
        for (j, (nb, planner)) in r.nests.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"nest\": {}, \"instances\": {}, \"bound\": {}, \"compulsory\": {}, \
                 \"footprint_lines\": {}, \"planner_movement\": {}}}",
                nb.nest, nb.instances, nb.bound, nb.compulsory, nb.footprint_lines, planner
            ));
        }
        out.push_str("]}");
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str(&format!("  ],\n  \"sound\": {sound}\n}}\n"));
    out
}

struct Args {
    scale: Scale,
    out: String,
    pins: bool,
}

/// Parses the command line (without the program name); `Ok(None)` when
/// it asks for `--help`.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args { scale: Scale::Tiny, out: "BENCH_bound.json".to_string(), pins: false };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    _ => return Err("--scale needs tiny|small|full".to_string()),
                }
            }
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--pins" => args.pins = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.pins && args.scale != Scale::Tiny {
        return Err("--pins is only meaningful at --scale tiny (the pinned table's scale)".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let Args { scale, out: out_path, pins } = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let machine = MachineConfig::knl_like();
    let suite = all(scale);
    let mut reports: Vec<GapReport> = Vec::new();
    for w in &suite {
        let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
        let out = part.plan(&w.program, &w.data, false).expect("valid config");
        reports.push(gap_report(w.name, &w.program, &part, &w.data, &out));
    }

    let mut failures: Vec<String> = Vec::new();
    if reports.len() != EXPECTED_WORKLOADS {
        failures
            .push(format!("expected {EXPECTED_WORKLOADS} workload rows, got {}", reports.len()));
    }
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "workload", "planner-movement", "lower-bound", "gap-ratio"
    );
    for r in &reports {
        println!(
            "{:<12} {:>16} {:>16} {:>9.3}x",
            r.name,
            r.planner_movement,
            r.bound,
            r.gap_ratio()
        );
        if !r.sound() {
            failures.push(format!(
                "{}: planner movement {} below lower bound {} — bound unsound or planner broken",
                r.name, r.planner_movement, r.bound
            ));
        }
        if r.bound == 0 && r.planner_movement > 0 {
            failures.push(format!(
                "{}: vacuous zero bound under planner movement {}",
                r.name, r.planner_movement
            ));
        }
        if !r.gap_ratio().is_finite() {
            failures.push(format!("{}: non-finite gap ratio", r.name));
        }
        if pins {
            match GAP_RATIO_PINS.iter().find(|(n, _)| *n == r.name) {
                Some((_, max)) if r.gap_ratio() > max + PIN_TOLERANCE => {
                    failures.push(format!(
                        "{}: gap ratio {:.4} regressed above its pin {max:.4}",
                        r.name,
                        r.gap_ratio()
                    ));
                }
                Some(_) => {}
                None => failures.push(format!("{}: no gap-ratio pin for this workload", r.name)),
            }
        }
    }

    let sound = failures.is_empty();
    let json = render_json(&reports, sound);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");

    if sound {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("BOUND VIOLATION: {f}");
        }
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
        assert!(matches!(parse(&["--pins", "-h"]), Ok(None)));
    }

    #[test]
    fn unknown_or_malformed_flags_are_errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--scale", "small", "--pins"]).is_err(), "pins are Tiny-scale only");
    }

    #[test]
    fn flags_fill_the_settings() {
        let args = parse(&[]).expect("parses").expect("not a help request");
        assert_eq!(
            (args.scale, args.out.as_str(), args.pins),
            (Scale::Tiny, "BENCH_bound.json", false)
        );
        let args = parse(&["--scale", "small", "--out", "b.json"])
            .expect("parses")
            .expect("not a help request");
        assert_eq!((args.scale, args.out.as_str(), args.pins), (Scale::Small, "b.json", false));
        let args = parse(&["--pins"]).expect("parses").expect("not a help request");
        assert!(args.pins);
    }
}
