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
//! Absolute numbers come from the bundled simulator, so they will not match
//! the paper's KNL measurements; the *shape* (who wins, by roughly what
//! factor) is the reproduction target. `EXPERIMENTS.md` records a captured
//! run against the paper's values.

use dmcp::mach::ClusterMode;
use dmcp::mem::MemoryMode;
use dmcp::sim::Scenario;
use dmcp::workloads::{all, meta, Scale};
use dmcp_bench::{
    config_exec_time, data_mapping_comparison, evaluate_suite, gap_reports, geomean_reduction,
    scenario_report, window_run, AppEval,
};

const USAGE: &str = "usage: figures [TARGET] [--scale-tiny | --scale-full] [--reuse-agnostic]
targets: all (the default), setup, gap, table1-table3, fig13-fig24";

/// Every target `main` knows.
const TARGETS: &[&str] = &[
    "all", "setup", "gap", "table1", "table2", "table3", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
];

#[derive(Debug, PartialEq)]
struct Args {
    target: String,
    scale: Scale,
    reuse_aware: bool,
}

/// Parses the command line (without the program name); `Ok(None)` when
/// it asks for `--help`. `--scale-full` wins over `--scale-tiny`.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut target, mut full, mut tiny, mut reuse_aware) = (None, false, false, true);
    for arg in argv {
        match arg.as_str() {
            "--scale-full" => full = true,
            "--scale-tiny" => tiny = true,
            "--reuse-agnostic" => reuse_aware = false,
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
    Ok(Some(Args { target: target.unwrap_or_else(|| "all".to_string()), scale, reuse_aware }))
}

fn main() {
    let Args { target, scale, reuse_aware } = match parse_args(std::env::args().skip(1)) {
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
        "all" | "table1" | "table2" | "table3" | "fig13" | "fig14" | "fig15" | "fig16" | "fig19"
    );
    let suite: Vec<AppEval> = if needs_suite { evaluate_suite(scale) } else { Vec::new() };

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
        }
        "setup" => setup(&evaluate_suite(scale), scale),
        "gap" => gap(scale),
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
/// data-movement lower bound (`dmcp-bound`; the paper has no such figure —
/// this quantifies how much of the remaining movement is compulsory).
fn gap(scale: Scale) {
    header("Optimality gap: planner movement vs data-movement lower bound");
    println!("{:<10} {:>12} {:>12} {:>10} {:>8}", "app", "movement", "bound", "gap", "sound");
    for g in gap_reports(scale) {
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
    let gm = geomean_reduction(suite.iter().map(|e| e.movement_reduction().0.max(0.0)));
    println!(
        "geomean of averages: {:.1}% (paper: {:.1}%)",
        100.0 * gm,
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
        let base = scenario_report(&w, Scenario::Baseline);
        let ours = scenario_report(&w, Scenario::Optimized).time_reduction_vs(&base);
        let net = scenario_report(&w, Scenario::IdealNetwork).time_reduction_vs(&base);
        let ana = scenario_report(&w, Scenario::IdealAnalysis).time_reduction_vs(&base);
        println!(
            "{:<10} {:>7.1}% {:>9.1}% {:>11.1}% {:>9.0}%",
            w.name,
            100.0 * ours,
            100.0 * net,
            100.0 * ana,
            100.0 * w.paper.fig17_exec_reduction
        );
        ours_all.push(ours.max(0.0));
        net_all.push(net.max(0.0));
        ana_all.push(ana.max(0.0));
    }
    println!(
        "geomeans: ours {:.1}% (paper {:.1}%), ideal-net {:.1}% (paper {:.1}%), ideal-analysis {:.1}% (paper {:.1}%)",
        100.0 * geomean_reduction(ours_all.into_iter()),
        100.0 * meta::means::EXEC_REDUCTION,
        100.0 * geomean_reduction(net_all.into_iter()),
        100.0 * meta::means::IDEAL_NETWORK_REDUCTION,
        100.0 * geomean_reduction(ana_all.into_iter()),
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
        let base = scenario_report(&w, Scenario::Baseline);
        let s = |sc| 100.0 * scenario_report(&w, sc).time_reduction_vs(&base);
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

fn fig20_21(scale: Scale, reuse_aware: bool) {
    header(if reuse_aware {
        "Figures 20/21: fixed window sizes 1..8 vs adaptive (exec reduction | L1 rate)"
    } else {
        "Figures 20/21 (reuse-agnostic ablation): fixed windows vs adaptive"
    });
    print!("{:<10}", "app");
    for w in 1..=8 {
        print!(" {:>11}", format!("w{w}"));
    }
    println!(" {:>11}", "adaptive");
    for w in all(scale) {
        let base = scenario_report(&w, Scenario::Baseline);
        print!("{:<10}", w.name);
        for win in (1..=8).map(Some).chain([None]) {
            let (t, l1) = window_run(&w, win, reuse_aware);
            let red = 100.0 * (1.0 - t / base.exec_time);
            print!(" {:>5.1}%|{:>3.0}%", red, 100.0 * l1);
        }
        println!();
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
        o_all.push(ours.max(0.0));
        d_all.push(dm.max(0.0));
        c_all.push(comb.max(0.0));
    }
    println!(
        "geomeans: ours {:.1}% (paper {:.1}%), data-map {:.1}% (paper {:.1}%), combined {:.1}% (paper {:.1}%)",
        100.0 * geomean_reduction(o_all.into_iter()),
        100.0 * meta::means::EXEC_REDUCTION,
        100.0 * geomean_reduction(d_all.into_iter()),
        100.0 * meta::means::DATA_MAPPING_REDUCTION,
        100.0 * geomean_reduction(c_all.into_iter()),
        100.0 * meta::means::COMBINED_REDUCTION,
    );
}

fn fig24(scale: Scale) {
    header("Figure 24: energy reduction (ours / ideal network / ideal analysis)");
    println!("{:<10} {:>8} {:>10} {:>14}", "app", "ours", "ideal-net", "ideal-analysis");
    let mut ours_all = Vec::new();
    for w in all(scale) {
        let base = scenario_report(&w, Scenario::Baseline);
        let ours = scenario_report(&w, Scenario::Optimized).energy_reduction_vs(&base);
        let net = scenario_report(&w, Scenario::IdealNetwork).energy_reduction_vs(&base);
        let ana = scenario_report(&w, Scenario::IdealAnalysis).energy_reduction_vs(&base);
        println!(
            "{:<10} {:>7.1}% {:>9.1}% {:>13.1}%",
            w.name,
            100.0 * ours,
            100.0 * net,
            100.0 * ana
        );
        ours_all.push(ours.max(0.0));
    }
    println!(
        "geomean: ours {:.1}% (paper {:.1}%)",
        100.0 * geomean_reduction(ours_all.into_iter()),
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
        Args { target: target.to_string(), scale, reuse_aware: true }
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
}
