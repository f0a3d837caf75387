//! `perfbench` — one command for plan quality, planner cost and serve
//! latency of the dmcp planner, simulator and plan server.
//!
//! ```text
//! perfbench --workload plan_suite|serve_hot|serve_cold --seed N --seconds S --trace 0|1
//!           [--spans PATH]
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric of
//! [`END_TO_END`]; with `--trace 1` it records spans around every call
//! into a layer and prints every per-layer metric of [`per_layer`]
//! instead. Every workload prints the same names: a layer that a workload
//! does not call reads 0. Human-readable lines come first; the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check, and a missing
//! or unexpected metric, exits with code 1, a usage error with code 2.
//! See `README.md` beside this crate for what each workload measures and
//! why.

mod alloc;
mod plan_suite;
mod quality;
mod refk;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics, with their units, that every `--trace 0` run
/// prints; `BENCHMARK.json` lists the same.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wait_refs", "ref"),
    ("sim_refs", "ref"),
    ("plan_exec_cycles", "cycles"),
    ("plan_movement", "links"),
    ("plan_energy", "energy"),
];

/// The planner's passes, in pipeline order, as `Pass::name()` gives them.
/// A pass that no longer runs reads 0; one missing here fails the run.
pub const PASSES: [&str; 6] = ["analyze", "window-search", "steiner", "place", "split", "sync"];

/// Passes whose allocation count is reported. Those of `window-search` and
/// `steiner` differed by 1 to 3 in millions between traced runs of one
/// seed, so they are not counts that repeat exactly.
pub const COUNTED_PASSES: [&str; 4] = ["analyze", "place", "split", "sync"];

/// The Tiny programs of `dmcp::workloads::all`, in its order.
pub const PROGRAMS: [&str; 12] = [
    "Barnes",
    "Cholesky",
    "FFT",
    "FMM",
    "LU",
    "Ocean",
    "Radiosity",
    "Radix",
    "Raytrace",
    "Water",
    "MiniMD",
    "MiniXyce",
];

/// The serve layers timed by the traced replay, in request order.
pub const SERVE_LAYERS: [&str; 10] = [
    "decode_request",
    "key",
    "cache_get",
    "disk_get",
    "decode_plan",
    "compile",
    "encode_plan",
    "disk_put",
    "frame",
    "net",
];

/// The per-layer metrics, with their units, that every `--trace 1` run
/// prints; `BENCHMARK.json` lists the same.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    m.extend(PASSES.iter().map(|p| (format!("core.{p}.refs"), "ref")));
    m.extend(COUNTED_PASSES.iter().map(|p| (format!("core.{p}.allocs"), "count")));
    for (name, unit) in [
        ("core.plan_steps", "steps"),
        ("core.planned_movement", "links"),
        ("sim.steps_per_s", "1/s"),
        ("sim.l1_hit_rate", "fraction"),
        ("sim.l2_miss_rate", "fraction"),
        ("sim.sync_wait_cycles", "cycles"),
        ("sim.net_avg_latency", "cycles"),
        ("sim.messages", "count"),
    ] {
        m.push((name.to_string(), unit));
    }
    m.extend(PROGRAMS.iter().map(|p| (format!("plan.exec_cycles.{p}"), "cycles")));
    m.extend(SERVE_LAYERS.iter().map(|l| (format!("serve.{l}.refs"), "ref")));
    for (name, unit) in [
        ("serve.plan_bytes", "bytes"),
        ("serve.cache_hit_ratio", "fraction"),
        ("serve.compiles", "count"),
        ("serve.rejected", "count"),
        ("serve.timeouts", "count"),
        ("workloads.build_s", "s"),
        ("host.ref_ms", "ms"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

/// Command-line options shared by every workload.
pub struct Opts {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and print per-layer metrics.
    pub trace: bool,
    /// Where to write the recorded spans as JSON lines.
    pub spans: Option<PathBuf>,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Requests or plans attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric; a non-finite value is a failed check instead.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            println!("  {name:<34} {value:>16.6} {unit}");
            self.metrics.push((name, value, unit));
        } else {
            self.problem(format!("metric {name} is {value}"));
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        println!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Records 0 for every per-layer metric, not yet recorded, whose name
    /// `idle` accepts: the layers this workload makes no call into.
    pub fn idle_layers(&mut self, idle: impl Fn(&str) -> bool) {
        for (name, unit) in per_layer() {
            if idle(&name) && !self.metrics.iter().any(|(n, _, _)| *n == name) {
                self.metric(name, 0.0, unit);
            }
        }
    }

    /// Records a failed check for every metric of `expected` the run did
    /// not print, and for every metric it printed that `expected` lacks.
    pub fn expect(&mut self, expected: &[(String, &'static str)]) {
        let mut wrong = Vec::new();
        for (name, unit) in expected {
            match self.metrics.iter().filter(|(n, _, _)| n == name).count() {
                1 => {}
                0 => wrong.push(format!("metric {name} is missing")),
                n => wrong.push(format!("metric {name} is printed {n} times")),
            }
            if self.metrics.iter().any(|(n, _, u)| n == name && u != unit) {
                wrong.push(format!("metric {name} is not in {unit}"));
            }
        }
        for (name, _, _) in &self.metrics {
            if !expected.iter().any(|(n, _)| n == name) {
                wrong.push(format!("metric {name} is not in the manifest"));
            }
        }
        for w in wrong {
            self.problem(w);
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The workload's process peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Records `peak_rss_mb`, the end-to-end metric every workload reports.
pub fn report_peak_rss(report: &mut Report, mb: Option<f64>) {
    match mb {
        Some(mb) => report.metric("peak_rss_mb", mb, "MiB"),
        None => report.problem("cannot read VmHWM from /proc/self/status"),
    }
}

/// Writes the tracer's spans to `--spans PATH`, when given.
pub fn write_spans(opts: &Opts, tracer: &trace::Tracer, report: &mut Report) {
    if let Some(path) = &opts.spans {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            report.problem(format!("writing spans to {}: {e}", path.display()));
        }
    }
}

const USAGE: &str = "usage: perfbench --workload plan_suite|serve_hot|serve_cold --seed N \
                     --seconds S --trace 0|1 [--spans PATH]";

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 1, seconds: 30.0, trace: false, spans: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.trace {
        alloc::enable();
    }
    println!(
        "# perfbench {workload} seed={} seconds={} trace={} cores={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    let mut report = match workload.as_str() {
        "plan_suite" => plan_suite::run(&opts),
        "serve_hot" => serve::run_hot(&opts),
        "serve_cold" => serve::run_cold(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.check(report.attempted > 0, || "the run attempted nothing".to_string());
    if report.correct() {
        let expected = if opts.trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        report.expect(&expected);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_metric_lists_are_the_manifests() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |name: &str, unit: &str| {
            manifest.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(listed(name, unit), "{name} ({unit}) is not in BENCHMARK.json");
        }
        let layers = per_layer();
        for (name, unit) in &layers {
            assert!(listed(name, unit), "{name} ({unit}) is not in BENCHMARK.json");
        }
        let entries = manifest.matches("{\"name\": ").count();
        let workloads = manifest.matches("\"why\": ").count();
        assert_eq!(entries, END_TO_END.len() + layers.len() + workloads);
    }

    #[test]
    fn the_programs_are_the_suite() {
        let suite: Vec<&str> =
            dmcp::workloads::all(dmcp::workloads::Scale::Tiny).iter().map(|w| w.name).collect();
        assert_eq!(suite, PROGRAMS);
    }
}
