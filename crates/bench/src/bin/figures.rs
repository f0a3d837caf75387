//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p dmcp-bench --bin figures -- all
//! cargo run --release -p dmcp-bench --bin figures -- fig17 --scale-tiny
//! cargo run --release -p dmcp-bench --bin figures -- fig20 --reuse-agnostic
//! ```
//!
//! The target is the first argument that is not a flag (`all` when there
//! is none); the scale is Small unless `--scale-tiny` or `--scale-full`
//! says otherwise.
//!
//! `figures --pins [--scale-tiny]` runs the `record` target (Figures 17, 13
//! and 24 per workload, for the served and the evaluated planner set-up)
//! and exits 1 when any value drifts from [`PINS_SMALL`] or [`PINS_TINY`].
//!
//! Absolute numbers come from the bundled simulator, so they will not match
//! the paper's KNL measurements; the *shape* (who wins, by roughly what
//! factor) is the reproduction target. `EXPERIMENTS.md` records a captured
//! run against the paper's values.

use dmcp::check::golden::canonical_faults;
use dmcp::core::{PartitionConfig, PlanOptions};
use dmcp::mach::{ClusterMode, FaultState, MachineConfig};
use dmcp::mem::MemoryMode;
use dmcp::pool::Pool;
use dmcp::sim::SimReport;
use dmcp::workloads::{all, meta, Scale, Workload};
use dmcp_bench::scenarios::{run_program, Scenario};
use dmcp_bench::{
    config_exec_time, data_mapping_comparison, evaluate_suite, gap_reports, geomean_reduction,
    served_reductions, standard_config, window_run, AppEval,
};

const USAGE: &str = "usage: figures [TARGET] [--scale-tiny | --scale-full] [--reuse-agnostic]
       figures --pins [--scale-tiny]
targets: all (the default), setup, gap, record, table1-table3, fig13-fig24";

/// Every target `main` knows.
const TARGETS: &[&str] = &[
    "all", "setup", "gap", "record", "table1", "table2", "table3", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
];

/// The record at Small scale, per workload in percent to two decimals:
/// the served set-up's time (Figure 17), per-instance movement (Figure
/// 13) and energy (Figure 24) reductions against its baseline, then the
/// evaluated set-up's. `figures record` prints these rows and `figures
/// --pins` fails when one drifts; a change that moves a plan re-pins them
/// and says so in CHANGES.md.
const PINS_SMALL: &[(&str, [f64; 6])] = &[
    ("Barnes", [0.22, 0.00, 0.01, 0.25, 0.00, 0.00]),
    ("Cholesky", [10.03, 2.25, 22.36, 5.01, 3.24, 23.24]),
    ("FFT", [0.06, 0.00, 0.00, 0.12, 0.00, 0.00]),
    ("FMM", [27.36, -6.45, 2.30, 18.99, 1.28, 3.80]),
    ("LU", [67.08, 61.49, 52.33, 66.65, 63.74, 52.77]),
    ("Ocean", [0.49, 0.00, 0.01, 0.74, 0.00, 0.02]),
    ("Radiosity", [1.46, -105.46, -3.53, 13.51, -103.34, -1.49]),
    ("Radix", [26.11, 20.84, 16.26, 22.00, 20.54, 14.34]),
    ("Raytrace", [12.39, 44.75, 12.92, 6.26, 47.27, 14.64]),
    ("Water", [1.65, 0.00, 0.03, 0.39, 0.00, 0.02]),
    ("MiniMD", [-0.09, -0.01, 0.00, 0.18, 0.00, 0.00]),
    ("MiniXyce", [0.00, 0.00, 0.00, 0.00, 0.00, 0.00]),
];

/// [`PINS_SMALL`] at Tiny scale (`figures --pins --scale-tiny`).
const PINS_TINY: &[(&str, [f64; 6])] = &[
    ("Barnes", [0.12, 0.00, 0.00, 0.06, 0.00, 0.00]),
    ("Cholesky", [25.92, 1.56, 19.99, 24.03, 1.95, 20.37]),
    ("FFT", [-0.11, 0.00, 0.00, 0.00, 0.00, 0.00]),
    ("FMM", [34.79, -15.11, 1.38, 35.70, -9.96, 1.22]),
    ("LU", [75.82, 60.50, 49.08, 75.16, 61.91, 49.24]),
    ("Ocean", [0.47, 0.00, 0.01, 0.24, 0.00, 0.01]),
    ("Radiosity", [8.52, -108.85, -1.60, 3.72, -107.48, -1.18]),
    ("Radix", [21.90, 17.26, 12.41, 16.57, 21.95, 11.55]),
    ("Raytrace", [30.68, 43.72, 10.70, 32.28, 45.12, 11.45]),
    ("Water", [9.26, 0.00, 0.09, 4.35, 0.00, 0.05]),
    ("MiniMD", [-0.13, 0.00, 0.00, 0.26, 0.00, 0.01]),
    ("MiniXyce", [-0.74, 0.00, -0.01, 0.30, 0.00, 0.00]),
];

/// Slack for the two-decimal rendering of the pinned percentages.
const PIN_TOLERANCE: f64 = 0.005 + 1e-9;

#[derive(Debug, PartialEq)]
struct Args {
    target: String,
    scale: Scale,
    reuse_aware: bool,
    pins: bool,
}

/// Parses the command line (without the program name); `Ok(None)` when
/// it asks for `--help`. `--scale-full` wins over `--scale-tiny`;
/// `--pins` runs the `record` target, at Tiny or Small scale only.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut target, mut full, mut tiny, mut reuse_aware) = (None, false, false, true);
    let mut pins = false;
    for arg in argv {
        match arg.as_str() {
            "--scale-full" => full = true,
            "--scale-tiny" => tiny = true,
            "--reuse-agnostic" => reuse_aware = false,
            "--pins" => pins = true,
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag} (try --help)"));
            }
            name if target.is_none() => {
                if !TARGETS.contains(&name) {
                    return Err(format!("unknown target `{name}` (try --help)"));
                }
                target = Some(arg);
            }
            extra => return Err(format!("unexpected argument `{extra}` (try --help)")),
        }
    }
    let scale = if full {
        Scale::Full
    } else if tiny {
        Scale::Tiny
    } else {
        Scale::Small
    };
    if pins {
        if target.as_ref().is_some_and(|t| t != "record") {
            return Err("--pins runs the record target only (try --help)".into());
        }
        if scale == Scale::Full {
            return Err("--pins has tables for Tiny and Small scale only".into());
        }
        target = Some("record".to_string());
    }
    Ok(Some(Args { target: target.unwrap_or_else(|| "all".to_string()), scale, reuse_aware, pins }))
}

fn main() {
    let Args { target, scale, reuse_aware, pins } = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };
    let what = target.as_str();

    let needs_suite = matches!(
        what,
        "all"
            | "record"
            | "table1"
            | "table2"
            | "table3"
            | "fig13"
            | "fig14"
            | "fig15"
            | "fig16"
            | "fig19"
    );
    let suite: Vec<AppEval> =
        if needs_suite { evaluate_suite(scale, Pool::global()) } else { Vec::new() };

    match what {
        "all" => {
            setup(&suite, scale);
            table1(&suite);
            table2(&suite);
            table3(&suite);
            fig13(&suite);
            fig14(&suite);
            fig15(&suite);
            fig16(&suite);
            fig17(scale);
            fig18(scale);
            fig19(&suite);
            fig20_21(scale, reuse_aware);
            fig22(scale);
            fig23(scale);
            fig24(scale);
            gap(scale);
            record(&suite, scale, false);
        }
        "setup" => setup(&evaluate_suite(scale, Pool::global()), scale),
        "gap" => gap(scale),
        "record" => {
            let drifts = record(&suite, scale, pins);
            if !drifts.is_empty() {
                for d in &drifts {
                    eprintln!("RECORD DRIFT: {d}");
                }
                std::process::exit(1);
            }
        }
        "table1" => table1(&suite),
        "table2" => table2(&suite),
        "table3" => table3(&suite),
        "fig13" => fig13(&suite),
        "fig14" => fig14(&suite),
        "fig15" => fig15(&suite),
        "fig16" => fig16(&suite),
        "fig17" => fig17(scale),
        "fig18" => fig18(scale),
        "fig19" => fig19(&suite),
        "fig20" | "fig21" => fig20_21(scale, reuse_aware),
        "fig22" => fig22(scale),
        "fig23" => fig23(scale),
        "fig24" => fig24(scale),
        other => unreachable!("parse_args accepts only known targets, not `{other}`"),
    }
}

/// The optimality-gap dashboard: planner movement against the provable
/// data-movement lower bound (`dmcp::bound`; the paper has no such figure —
/// this quantifies how much of the remaining movement is compulsory).
fn gap(scale: Scale) {
    header("Optimality gap: planner movement vs data-movement lower bound");
    println!("{:<10} {:>12} {:>12} {:>10} {:>8}", "app", "movement", "bound", "gap", "sound");
    for g in gap_reports(scale, Pool::global(), PlanOptions::default()) {
        println!(
            "{:<10} {:>12} {:>12} {:>9.2}x {:>8}",
            g.name,
            g.planner_movement,
            g.bound,
            g.gap_ratio(),
            if g.sound() { "yes" } else { "NO" }
        );
    }
}

/// Section 6.1's setup characterisation: data-set sizes and the original
/// applications' L2 miss rates (the paper reports 661 MB–3.3 GB and
/// 16.4 %–37.2 % on its platform; ours are scaled with the caches).
fn setup(suite: &[AppEval], scale: Scale) {
    header("Setup: data-set sizes and baseline L2 miss rates");
    println!("(scale {scale:?}; the paper runs 661 MB–3.3 GB with 16.4–37.2 % L2 misses)");
    println!("{:<10} {:>10} {:>12} {:>10}", "app", "dataset", "L2-miss", "L1-hit");
    for (e, w) in suite.iter().zip(dmcp::workloads::all(scale)) {
        let bytes: u64 = w.program.arrays().iter().map(|a| a.len() * u64::from(a.elem_size)).sum();
        println!(
            "{:<10} {:>7} KiB {:>11.1}% {:>9.1}%",
            e.name,
            bytes / 1024,
            100.0 * e.r_base.l2_miss_rate(),
            100.0 * e.r_base.l1_hit_rate()
        );
    }
}

fn header(title: &str) {
    println!("\n== {title} ==");
}

/// The geomean of `reductions` clamped at 0 per workload, as the figures
/// plot them, and the unclamped geomean.
fn geomean_pair(reductions: &[f64]) -> (f64, f64) {
    let clamped = geomean_reduction(reductions.iter().map(|r| r.max(0.0)));
    (clamped, geomean_reduction(reductions.iter().copied()))
}

/// [`geomean_pair`] as the figures print it.
fn geomeans(reductions: &[f64]) -> String {
    let (clamped, raw) = geomean_pair(reductions);
    format!("{:.1}% (unclamped {:.1}%)", 100.0 * clamped, 100.0 * raw)
}

/// The measured record: per workload, the simulated time, per-instance
/// movement and energy reductions against the baseline, for the served
/// set-up ([`served_reductions`]) and then the evaluated one (`suite`),
/// with each column's clamped and unclamped geomean. With `pins`, returns
/// every value that drifts from the scale's pinned table (and every
/// missing or extra row).
fn record(suite: &[AppEval], scale: Scale, pins: bool) -> Vec<String> {
    header("Record: reductions vs the baseline, served | evaluated (time / movement / energy)");
    let config = PartitionConfig::default();
    let served = Pool::global().map(&all(scale), |_, w| served_reductions(w, &config, None));
    let rows: Vec<(&str, [f64; 6])> = suite
        .iter()
        .zip(served)
        .map(|(e, s)| {
            let evaluated = [e.exec_reduction(), e.movement_reduction().0, e.energy_reduction()];
            let v = [s[0], s[1], s[2], evaluated[0], evaluated[1], evaluated[2]];
            (e.name, v.map(|x| 100.0 * x))
        })
        .collect();
    println!(
        "{:<10} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "app", "time", "move", "energy", "time", "move", "energy"
    );
    let row = |label: &str, v: &[f64; 6]| {
        println!(
            "{:<10} {:>7.2}% {:>7.2}% {:>7.2}% | {:>7.2}% {:>7.2}% {:>7.2}%",
            label, v[0], v[1], v[2], v[3], v[4], v[5]
        );
    };
    for (name, got) in &rows {
        row(name, got);
    }
    let gm: [(f64, f64); 6] = std::array::from_fn(|k| {
        geomean_pair(&rows.iter().map(|(_, v)| v[k] / 100.0).collect::<Vec<_>>())
    });
    row("geomean", &gm.map(|(clamped, _)| 100.0 * clamped));
    row("unclamped", &gm.map(|(_, raw)| 100.0 * raw));
    if !pins {
        return Vec::new();
    }
    const COLUMNS: [&str; 6] = [
        "served time",
        "served movement",
        "served energy",
        "evaluated time",
        "evaluated movement",
        "evaluated energy",
    ];
    let table = if scale == Scale::Tiny { PINS_TINY } else { PINS_SMALL };
    let mut drifts = Vec::new();
    for (name, got) in &rows {
        let Some((_, pinned)) = table.iter().find(|(n, _)| n == name) else {
            drifts.push(format!("{name}: no pinned row"));
            continue;
        };
        for ((column, g), p) in COLUMNS.iter().zip(got).zip(pinned) {
            if (g - p).abs() > PIN_TOLERANCE {
                drifts.push(format!("{name}: {column} {g:.2}% drifted from its pin {p:.2}%"));
            }
        }
    }
    for (name, _) in table.iter().filter(|(n, _)| !rows.iter().any(|(r, _)| r == n)) {
        drifts.push(format!("{name}: pinned row has no workload"));
    }
    drifts
}

fn table1(suite: &[AppEval]) {
    header("Table 1: fraction of compile-time-analyzable data references");
    println!("{:<10} {:>10} {:>10}", "app", "measured", "paper");
    for e in suite {
        println!(
            "{:<10} {:>9.1}% {:>9.1}%{}",
            e.name,
            100.0 * e.analyzable,
            100.0 * e.paper.analyzable,
            if e.paper.interpolated { "  (paper cell interpolated)" } else { "" }
        );
    }
}

fn table2(suite: &[AppEval]) {
    header("Table 2: cache hit/miss predictor accuracy");
    println!("{:<10} {:>10} {:>10}", "app", "measured", "paper");
    for e in suite {
        println!(
            "{:<10} {:>9.1}% {:>9.1}%",
            e.name,
            100.0 * e.r_opt.predictor_accuracy,
            100.0 * e.paper.predictor_accuracy
        );
    }
}

fn table3(suite: &[AppEval]) {
    header("Table 3: re-mapped operation mix (add/sub | mul/div | other)");
    println!("{:<10} {:>24} {:>24}", "app", "measured", "paper");
    for e in suite {
        let (a, m, o) = e.remapped.fractions();
        let (pa, pm, po) = e.paper.op_mix;
        println!(
            "{:<10} {:>6.1}% {:>6.1}% {:>6.1}%   {:>6.1}% {:>6.1}% {:>6.1}%",
            e.name,
            100.0 * a,
            100.0 * m,
            100.0 * o,
            100.0 * pa,
            100.0 * pm,
            100.0 * po
        );
    }
}

fn fig13(suite: &[AppEval]) {
    header("Figure 13: per-statement data-movement reduction vs default (avg / max)");
    println!("{:<10} {:>8} {:>8} {:>12}", "app", "avg", "max", "paper-avg");
    for e in suite {
        let (avg, max) = e.movement_reduction();
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>11.0}%",
            e.name,
            100.0 * avg,
            100.0 * max,
            100.0 * e.paper.fig13_avg_movement_reduction
        );
    }
    let averages: Vec<f64> = suite.iter().map(|e| e.movement_reduction().0).collect();
    println!(
        "geomean of averages: {} (paper: {:.1}%)",
        geomeans(&averages),
        100.0 * meta::means::MOVEMENT_REDUCTION
    );
}

fn fig14(suite: &[AppEval]) {
    header("Figure 14: degree of subcomputation parallelism (avg / max)");
    println!("{:<10} {:>8} {:>6} {:>10}", "app", "avg", "max", "paper-avg");
    for e in suite {
        println!(
            "{:<10} {:>8.2} {:>6} {:>10.1}",
            e.name,
            e.opt.avg_parallelism(),
            e.opt.max_parallelism(),
            e.paper.fig14_avg_parallelism
        );
    }
}

fn fig15(suite: &[AppEval]) {
    header("Figure 15: synchronizations per statement (after minimisation)");
    println!("{:<10} {:>8} {:>14}", "app", "syncs", "removed-by-TR");
    for e in suite {
        let before: u64 = e.opt.nests.iter().map(|n| n.stats.syncs_before).sum();
        let after: u64 = e.opt.nests.iter().map(|n| n.stats.syncs_after).sum();
        println!(
            "{:<10} {:>8.2} {:>13.1}%",
            e.name,
            e.opt.syncs_per_statement(),
            if before == 0 { 0.0 } else { 100.0 * (before - after) as f64 / before as f64 }
        );
    }
}

fn fig16(suite: &[AppEval]) {
    header("Figure 16: L1 hit-rate improvement over the default placement");
    println!("{:<10} {:>8} {:>8} {:>8} {:>10}", "app", "default", "ours", "delta", "paper");
    for e in suite {
        let d = e.r_opt.l1_hit_rate() - e.r_base.l1_hit_rate();
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>+7.1}% {:>9.1}%",
            e.name,
            100.0 * e.r_base.l1_hit_rate(),
            100.0 * e.r_opt.l1_hit_rate(),
            100.0 * d,
            100.0 * e.paper.fig16_l1_improvement
        );
    }
}

/// `w`'s scenario runs on the KNL-like machine under the standard
/// configuration (computed once per workload).
fn standard_runs(w: &Workload) -> impl Fn(Scenario) -> SimReport + '_ {
    let machine = MachineConfig::knl_like();
    let config = standard_config(w, &machine);
    move |scenario| run_program(&w.program, &w.data, &machine, &config, scenario)
}

fn fig17(scale: Scale) {
    header("Figure 17: execution-time reduction (ours / ideal network / ideal analysis)");
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>10}",
        "app", "ours", "ideal-net", "ideal-analysis", "paper-ours"
    );
    let mut ours_all = Vec::new();
    let mut net_all = Vec::new();
    let mut ana_all = Vec::new();
    for w in all(scale) {
        let run = standard_runs(&w);
        let base = run(Scenario::Baseline);
        let ours = run(Scenario::Optimized).time_reduction_vs(&base);
        let net = run(Scenario::IdealNetwork).time_reduction_vs(&base);
        let ana = run(Scenario::IdealAnalysis).time_reduction_vs(&base);
        println!(
            "{:<10} {:>7.1}% {:>9.1}% {:>11.1}% {:>9.0}%",
            w.name,
            100.0 * ours,
            100.0 * net,
            100.0 * ana,
            100.0 * w.paper.fig17_exec_reduction
        );
        ours_all.push(ours);
        net_all.push(net);
        ana_all.push(ana);
    }
    println!(
        "geomeans: ours {} (paper {:.1}%), ideal-net {} (paper {:.1}%), ideal-analysis {} (paper {:.1}%)",
        geomeans(&ours_all),
        100.0 * meta::means::EXEC_REDUCTION,
        geomeans(&net_all),
        100.0 * meta::means::IDEAL_NETWORK_REDUCTION,
        geomeans(&ana_all),
        100.0 * meta::means::IDEAL_ANALYSIS_REDUCTION,
    );
}

fn fig18(scale: Scale) {
    header("Figure 18: isolated contribution of each metric (exec-time reduction vs default)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "app", "S1:L1", "S2:move", "S3:par", "S4:sync", "full"
    );
    for w in all(scale) {
        let run = standard_runs(&w);
        let base = run(Scenario::Baseline);
        let s = |sc| 100.0 * run(sc).time_reduction_vs(&base);
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            w.name,
            s(Scenario::S1L1Pattern),
            s(Scenario::S2Movement),
            s(Scenario::S3Parallelism),
            s(Scenario::S4Sync),
            s(Scenario::Optimized),
        );
    }
    println!("(paper: movement reduction alone contributes ~77% of the total improvement)");
}

fn fig19(suite: &[AppEval]) {
    header("Figure 19: on-chip network latency reduction (avg / max)");
    println!("{:<10} {:>10} {:>10}", "app", "avg-lat", "max-lat");
    for e in suite {
        let avg = if e.r_base.net_avg_latency > 0.0 {
            1.0 - e.r_opt.net_avg_latency / e.r_base.net_avg_latency
        } else {
            0.0
        };
        let max = if e.r_base.net_max_latency > 0.0 {
            1.0 - e.r_opt.net_max_latency / e.r_base.net_max_latency
        } else {
            0.0
        };
        println!("{:<10} {:>+9.1}% {:>+9.1}%", e.name, 100.0 * avg, 100.0 * max);
    }
}

/// Figures 20/21 at every window size, the default marked `*`: per
/// workload the evaluated set-up's time reduction and L1 hit rate, then
/// the unclamped geomean reductions of the evaluated set-up (time) and of
/// the served one (time / movement / energy), healthy and under the
/// canonical faults: the plans `dmcp-serve` and perfbench make.
fn fig20_21(scale: Scale, reuse_aware: bool) {
    header(if reuse_aware {
        "Figures 20/21: window sizes, * the default (exec reduction | L1 rate)"
    } else {
        "Figures 20/21 (reuse-agnostic ablation): window sizes, * the default"
    });
    let windows: Vec<usize> = PartitionConfig::WINDOWS.collect();
    let default = PartitionConfig::default().window;
    print!("{:<10}", "app");
    for &w in &windows {
        print!(" {:>11}", format!("w{w}{}", if w == default { "*" } else { "" }));
    }
    println!();
    let machine = MachineConfig::knl_like();
    let suite = all(scale);
    let mut evaluated = vec![Vec::new(); windows.len()];
    for w in &suite {
        let config = standard_config(w, &machine);
        let base = run_program(&w.program, &w.data, &machine, &config, Scenario::Baseline);
        print!("{:<10}", w.name);
        for (k, &win) in windows.iter().enumerate() {
            let (t, l1) = window_run(w, &config, win, reuse_aware);
            let red = 1.0 - t / base.exec_time;
            evaluated[k].push(red);
            print!(" {:>5.1}%|{:>3.0}%", 100.0 * red, 100.0 * l1);
        }
        println!();
    }
    let row = |label: &str, cells: Vec<f64>| {
        print!("{label:<10}");
        for c in cells {
            print!(" {:>10.2}%", 100.0 * c);
        }
        println!();
    };
    row("eval time", evaluated.iter().map(|r| geomean_reduction(r.iter().copied())).collect());
    let faults = FaultState::new(canonical_faults(), machine.mesh).expect("canonical faults fit");
    for (label, faults) in [("srv", None), ("deg", Some(&faults))] {
        let per_window: Vec<Vec<[f64; 3]>> = windows
            .iter()
            .map(|&window| {
                let opts = PlanOptions { reuse_aware, ..PlanOptions::default() };
                let config = PartitionConfig { window, opts, ..PartitionConfig::default() };
                Pool::global().map(&suite, |_, w| served_reductions(w, &config, faults))
            })
            .collect();
        for (k, axis) in ["time", "move", "energy"].into_iter().enumerate() {
            let cells = per_window.iter().map(|r| geomean_reduction(r.iter().map(|x| x[k])));
            row(&format!("{label} {axis}"), cells.collect());
        }
    }
}

fn fig22(scale: Scale) {
    header("Figure 22: cluster mode (A/B/C) x memory mode (X/Y/Z) x original(1)/optimized(2)");
    println!("(normalised to (B,X,1): quadrant + flat + original)");
    print!("{:<10}", "app");
    for c in ClusterMode::ALL {
        for m in MemoryMode::ALL {
            print!(" {:>9}", format!("{}{}", c.letter(), m.letter()));
        }
    }
    println!();
    for w in all(scale) {
        let reference = config_exec_time(&w, ClusterMode::Quadrant, MemoryMode::Flat, false);
        print!("{:<10}", w.name);
        for c in ClusterMode::ALL {
            for m in MemoryMode::ALL {
                let orig = config_exec_time(&w, c, m, false) / reference;
                let opt = config_exec_time(&w, c, m, true) / reference;
                print!(" {:>4.2}/{:<4.2}", orig, opt);
            }
        }
        println!();
    }
}

fn fig23(scale: Scale) {
    header("Figure 23: ours vs profile-based data-to-MC mapping vs combined (exec reduction)");
    println!("{:<10} {:>8} {:>10} {:>10}", "app", "ours", "data-map", "combined");
    let mut o_all = Vec::new();
    let mut d_all = Vec::new();
    let mut c_all = Vec::new();
    for w in all(scale) {
        let (ours, dm, comb) = data_mapping_comparison(&w);
        println!(
            "{:<10} {:>7.1}% {:>9.1}% {:>9.1}%",
            w.name,
            100.0 * ours,
            100.0 * dm,
            100.0 * comb
        );
        o_all.push(ours);
        d_all.push(dm);
        c_all.push(comb);
    }
    println!(
        "geomeans: ours {} (paper {:.1}%), data-map {} (paper {:.1}%), combined {} (paper {:.1}%)",
        geomeans(&o_all),
        100.0 * meta::means::EXEC_REDUCTION,
        geomeans(&d_all),
        100.0 * meta::means::DATA_MAPPING_REDUCTION,
        geomeans(&c_all),
        100.0 * meta::means::COMBINED_REDUCTION,
    );
}

fn fig24(scale: Scale) {
    header("Figure 24: energy reduction (ours / ideal network / ideal analysis)");
    println!("{:<10} {:>8} {:>10} {:>14}", "app", "ours", "ideal-net", "ideal-analysis");
    let mut ours_all = Vec::new();
    for w in all(scale) {
        let run = standard_runs(&w);
        let base = run(Scenario::Baseline);
        let ours = run(Scenario::Optimized).energy_reduction_vs(&base);
        let net = run(Scenario::IdealNetwork).energy_reduction_vs(&base);
        let ana = run(Scenario::IdealAnalysis).energy_reduction_vs(&base);
        println!(
            "{:<10} {:>7.1}% {:>9.1}% {:>13.1}%",
            w.name,
            100.0 * ours,
            100.0 * net,
            100.0 * ana
        );
        ours_all.push(ours);
    }
    println!(
        "geomean: ours {} (paper {:.1}%)",
        geomeans(&ours_all),
        100.0 * meta::means::ENERGY_REDUCTION
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn args(target: &str, scale: Scale) -> Args {
        Args { target: target.to_string(), scale, reuse_aware: true, pins: false }
    }

    #[test]
    fn a_flag_first_runs_all() {
        assert_eq!(parse(&["--scale-tiny"]), Ok(Some(args("all", Scale::Tiny))));
        assert_eq!(parse(&[]), Ok(Some(args("all", Scale::Small))));
    }

    #[test]
    fn a_target_first_is_the_target() {
        assert_eq!(parse(&["all", "--scale-tiny"]), Ok(Some(args("all", Scale::Tiny))));
        assert_eq!(
            parse(&["fig20", "--scale-full", "--reuse-agnostic", "--scale-tiny"]),
            Ok(Some(Args { reuse_aware: false, ..args("fig20", Scale::Full) }))
        );
        assert_eq!(parse(&["--scale-tiny", "gap"]), Ok(Some(args("gap", Scale::Tiny))));
    }

    #[test]
    fn unknown_targets_flags_and_extra_arguments_are_errors() {
        assert!(parse(&["fig99"]).is_err());
        assert!(parse(&["--scale-tiny", "bogus"]).is_err());
        assert!(parse(&["--scale", "small"]).is_err());
        assert!(parse(&["fig17", "fig18"]).is_err());
        assert_eq!(parse(&["fig99", "--help"]), Err("unknown target `fig99` (try --help)".into()));
        assert_eq!(parse(&["--help"]), Ok(None));
        assert_eq!(parse(&["fig17", "-h"]), Ok(None));
    }

    #[test]
    fn pins_run_the_record_at_tiny_or_small_scale() {
        let pinned = |scale| Ok(Some(Args { pins: true, ..args("record", scale) }));
        assert_eq!(parse(&["--pins"]), pinned(Scale::Small));
        assert_eq!(parse(&["--pins", "--scale-tiny"]), pinned(Scale::Tiny));
        assert_eq!(parse(&["record", "--pins"]), pinned(Scale::Small));
        assert_eq!(parse(&["record"]), Ok(Some(args("record", Scale::Small))));
        assert!(parse(&["fig17", "--pins"]).is_err());
        assert!(parse(&["--pins", "--scale-full"]).is_err());
    }

    #[test]
    fn pinned_tables_cover_the_suite_once() {
        for table in [PINS_SMALL, PINS_TINY] {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            let suite: Vec<&str> = all(Scale::Tiny).iter().map(|w| w.name).collect();
            assert_eq!(names, suite);
        }
    }
}
