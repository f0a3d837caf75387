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

use dmcp_bound::{gap_report, GapReport};
use dmcp_core::{PartitionConfig, Partitioner};
use dmcp_mach::MachineConfig;
use dmcp_workloads::{all, Scale};
use std::process::ExitCode;

const EXPECTED_WORKLOADS: usize = 12;

/// Maximum allowed gap ratio per workload at Tiny scale, as the
/// MST-only planner achieves it with the default configuration.
const GAP_RATIO_PINS: &[(&str, f64)] = &[
    ("Barnes", 2.9054),
    ("Cholesky", 150.2821),
    ("FFT", 8.3439),
    ("FMM", 7.7056),
    ("LU", 92.6884),
    ("Ocean", 4.9918),
    ("Radiosity", 2.5989),
    ("Radix", 2.8190),
    ("Raytrace", 5.9534),
    ("Water", 8.7240),
    ("MiniMD", 5.7728),
    ("MiniXyce", 7.2211),
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

fn main() -> ExitCode {
    let mut scale = Scale::Tiny;
    let mut out_path = "BENCH_bound.json".to_string();
    let mut pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => match it.next().as_deref() {
                Some("tiny") => scale = Scale::Tiny,
                Some("small") => scale = Scale::Small,
                Some("full") => scale = Scale::Full,
                _ => {
                    eprintln!("--scale needs tiny|small|full");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--pins" => pins = true,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: dmcp-bound [--scale S] [--out PATH] [--pins]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if pins && !matches!(scale, Scale::Tiny) {
        eprintln!("--pins is only meaningful at --scale tiny (the pinned table's scale)");
        return ExitCode::FAILURE;
    }

    let machine = MachineConfig::knl_like();
    let suite = all(scale);
    let mut reports: Vec<GapReport> = Vec::new();
    for w in &suite {
        let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
        let out = part.partition_with_data(&w.program, &w.data);
        reports.push(gap_report(w.name, &w.program, part.layout(), &w.data, part.config(), &out));
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
