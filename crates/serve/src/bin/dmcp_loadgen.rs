//! Open-loop load generator for the plan server.
//!
//! Drives a zipf-skewed request mix over the 12 paper workloads at a fixed
//! arrival rate (open loop: arrival times are scheduled up front, so a slow
//! server accumulates queueing delay instead of silently slowing the
//! generator — latency numbers include the time a request waited past its
//! scheduled arrival). Each client thread runs a [`PlanClient`] with the
//! full timeout/retry/backoff policy; errors and retries are counted, and
//! p50/p99 latency, throughput and error/retry counts land in
//! `BENCH_serve.json`.
//!
//! ```text
//! dmcp-loadgen [--requests N] [--rate RPS] [--clients N] [--zipf S]
//!              [--seed S] [--workers N] [--cache-dir DIR] [--out PATH]
//!              [--addr HOST:PORT] [--restart] [--chaos]
//! ```
//!
//! Without `--addr`, the generator hosts an in-process server on
//! `127.0.0.1:0`. `--restart` (in-process only) runs the mix twice — cold,
//! then against a *fresh* server and service rebuilt over the same cache
//! directory — and exits nonzero if the warm pass recompiled anything:
//! the durable tier must serve a restart entirely from disk.
//!
//! `--chaos` (in-process only) runs the fault-injection acceptance drill:
//! the service's disk tier rides a seeded [`FaultyIo`] over an in-memory
//! store, and client traffic is routed through a [`ChaosProxy`] that
//! corrupts, truncates, splits and delays response frames. Mid-run every
//! disk op starts failing (a storm); the run demands that **every**
//! response that arrives matches an independently compiled reference plan
//! bit for bit, that the tier degrades to memory-only instead of failing
//! requests, and that it recovers (drains its parked writes) once the
//! storm lifts. Each proxied request gets its own client, and so its own
//! scripted connection. Error rate, retry counts and the measured
//! recovery time land in a `"chaos"` section of `BENCH_serve.json`;
//! wrong plans, an unrecovered tier, undrained writes, or wire faults
//! that never fired (no flipped byte, no dropped connection) exit
//! nonzero.

use dmcp_ir::ProgramBuilder;
use dmcp_mach::rng::Rng64;
use dmcp_mach::MachineConfig;
use dmcp_serve::codec::{decode_plan, encode_request};
use dmcp_serve::{
    ChaosAction, ChaosProxy, ClientConfig, ClientError, FaultyIo, MemIo, NetConfig, PlanClient,
    PlanRequest, PlanServer, PlanService, ServeConfig, ServeStats, StorageIo,
};
use dmcp_workloads::Scale;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: usize,
    rate: f64,
    clients: usize,
    zipf: f64,
    seed: u64,
    workers: usize,
    cache_dir: Option<String>,
    out: String,
    addr: Option<String>,
    restart: bool,
    chaos: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            requests: 96,
            rate: 200.0,
            clients: 4,
            zipf: 1.0,
            seed: 0x10AD_4E4E,
            workers: 4,
            cache_dir: None,
            out: "BENCH_serve.json".to_string(),
            addr: None,
            restart: false,
            chaos: false,
        }
    }
}

const USAGE: &str = "usage: dmcp-loadgen [--requests N] [--rate RPS] [--clients N] [--zipf S] \
                     [--seed S] [--workers N] [--cache-dir DIR] [--out PATH] \
                     [--addr HOST:PORT] [--restart] [--chaos]";

/// Parses the command line (without the program name); `Ok(None)` when
/// it asks for `--help`.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        let parse = |s: String| -> Result<usize, String> { s.parse().map_err(|e| format!("{e}")) };
        match flag.as_str() {
            "--requests" => args.requests = parse(value("--requests")?)?,
            "--clients" => args.clients = parse(value("--clients")?)?.max(1),
            "--workers" => args.workers = parse(value("--workers")?)?.max(1),
            "--rate" => {
                args.rate = value("--rate")?.parse().map_err(|e| format!("{e}"))?;
                if args.rate <= 0.0 || !args.rate.is_finite() {
                    return Err("--rate must be positive".to_string());
                }
            }
            "--zipf" => args.zipf = value("--zipf")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--out" => args.out = value("--out")?,
            "--addr" => args.addr = Some(value("--addr")?),
            "--restart" => args.restart = true,
            "--chaos" => args.chaos = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.restart && args.addr.is_some() {
        return Err("--restart drives an in-process server; drop --addr".to_string());
    }
    if args.restart && args.cache_dir.is_none() {
        return Err("--restart needs --cache-dir (the tier that must survive)".to_string());
    }
    if args.chaos && args.addr.is_some() {
        return Err("--chaos drives an in-process server; drop --addr".to_string());
    }
    if args.chaos && args.restart {
        return Err("--chaos and --restart are separate drills; pick one".to_string());
    }
    Ok(Some(args))
}

/// Zipf(s) over `n` ranks: weight of rank `k` (0-based) is `1/(k+1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

fn draw(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
}

/// Outcome of one pass over the mix.
struct PassReport {
    label: String,
    completed: usize,
    errors: usize,
    retries: u64,
    wall_s: f64,
    lat_p50_ms: f64,
    lat_p99_ms: f64,
    lat_max_ms: f64,
    throughput: f64,
    stats: ServeStats,
}

/// Runs `args.requests` open-loop requests against `addr`, drawing
/// workloads zipf-skewed. `payloads` holds each workload's pre-encoded
/// request bytes.
fn run_pass(
    addr: SocketAddr,
    payloads: &[Vec<u8>],
    args: &Args,
    label: &str,
) -> Result<PassReport, String> {
    let cdf = zipf_cdf(payloads.len(), args.zipf);
    let mut rng = Rng64::new(args.seed);
    let picks: Vec<usize> = (0..args.requests).map(|_| draw(&cdf, rng.next_f64())).collect();

    let t0 = Instant::now();
    let per_thread: Vec<(Vec<(f64, bool)>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let picks = &picks;
                let client_config =
                    ClientConfig { seed: args.seed ^ (c as u64) << 32, ..ClientConfig::default() };
                scope.spawn(move || {
                    let mut client =
                        PlanClient::connect(addr, client_config).expect("resolve addr");
                    let mut out = Vec::new();
                    for k in (c..picks.len()).step_by(args.clients) {
                        // Open loop: request k is due at k/rate seconds.
                        let due = t0 + Duration::from_secs_f64(k as f64 / args.rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let ok = client.plan_bytes(&payloads[picks[k]]).is_ok();
                        // Latency from the *scheduled* arrival: waiting in
                        // line past the due time counts against the server.
                        out.push((due.elapsed().as_secs_f64() * 1e3, ok));
                    }
                    (out, client.counters().retries)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let retries: u64 = per_thread.iter().map(|(_, r)| r).sum();
    let mut lats: Vec<f64> = Vec::with_capacity(args.requests);
    let mut errors = 0usize;
    for (results, _) in &per_thread {
        for &(lat_ms, ok) in results {
            if ok {
                lats.push(lat_ms);
            } else {
                errors += 1;
            }
        }
    }
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| -> f64 {
        if lats.is_empty() {
            return 0.0;
        }
        lats[((lats.len() - 1) as f64 * p).round() as usize]
    };

    // Server-side counters over the wire, proving the cache/disk story.
    let mut probe = PlanClient::connect(addr, ClientConfig::default())
        .map_err(|e| format!("stats client: {e}"))?;
    let stats = probe.stats().map_err(|e| format!("stats request: {e}"))?;

    Ok(PassReport {
        label: label.to_string(),
        completed: lats.len(),
        errors,
        retries,
        wall_s,
        lat_p50_ms: pct(0.50),
        lat_p99_ms: pct(0.99),
        lat_max_ms: lats.last().copied().unwrap_or(0.0),
        throughput: if wall_s > 0.0 { lats.len() as f64 / wall_s } else { 0.0 },
        stats,
    })
}

/// Outcome of the `--chaos` drill.
struct ChaosOutcome {
    requests: usize,
    wrong_plans: usize,
    failed_requests: usize,
    retries: u64,
    attempts: u64,
    backoff_ms: f64,
    degraded_observed: bool,
    recovered: bool,
    recovery_ms: f64,
    disk_errors: u64,
    quarantined_segments: u64,
    pending_after: u64,
    proxy_connections: u64,
    proxy_flipped: u64,
    proxy_dropped: u64,
}

impl ChaosOutcome {
    /// The acceptance bar: no wrong plan ever surfaced, the storm and the
    /// wire faults were actually felt, and the tier came back with nothing
    /// parked.
    fn passed(&self) -> bool {
        self.wrong_plans == 0
            && self.degraded_observed
            && self.recovered
            && self.pending_after == 0
            && self.proxy_flipped >= 1
            && self.proxy_dropped >= 1
    }

    fn render_json(&self) -> String {
        format!(
            concat!(
                "{{\n  \"benchmark\": \"dmcp-loadgen chaos\",\n",
                "  \"chaos\": {{\"requests\": {}, \"wrong_plans\": {}, ",
                "\"failed_requests\": {}, \"retries\": {}, \"attempts\": {}, ",
                "\"backoff_ms\": {:.3}, \"degraded_observed\": {}, \"recovered\": {}, ",
                "\"recovery_ms\": {:.3}, \"disk_errors\": {}, \"quarantined_segments\": {}, ",
                "\"pending_after\": {}, \"proxy_connections\": {}, \"proxy_flipped\": {}, ",
                "\"proxy_dropped\": {}}}\n}}\n",
            ),
            self.requests,
            self.wrong_plans,
            self.failed_requests,
            self.retries,
            self.attempts,
            self.backoff_ms,
            self.degraded_observed,
            self.recovered,
            self.recovery_ms,
            self.disk_errors,
            self.quarantined_segments,
            self.pending_after,
            self.proxy_connections,
            self.proxy_flipped,
            self.proxy_dropped,
        )
    }
}

fn render_json(args: &Args, passes: &[PassReport], warm_recompiles: Option<u64>) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"dmcp-loadgen open-loop\",\n");
    out.push_str(&format!(
        "  \"requests\": {}, \"rate_rps\": {:.1}, \"clients\": {}, \"zipf\": {:.2},\n",
        args.requests, args.rate, args.clients, args.zipf
    ));
    if let Some(n) = warm_recompiles {
        out.push_str(&format!("  \"warm_recompiles\": {n},\n"));
    }
    out.push_str("  \"passes\": [\n");
    for (i, p) in passes.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"label\": \"{}\", \"completed\": {}, \"errors\": {}, ",
                "\"retries\": {}, \"wall_s\": {:.6}, \"throughput_rps\": {:.3}, ",
                "\"lat_p50_ms\": {:.4}, \"lat_p99_ms\": {:.4}, \"lat_max_ms\": {:.4}, ",
                "\"compiles\": {}, \"cache_hits\": {}, \"disk_hits\": {}, ",
                "\"disk_writes\": {}, \"rejected\": {}, \"timeouts\": {}}}{}\n",
            ),
            p.label,
            p.completed,
            p.errors,
            p.retries,
            p.wall_s,
            p.throughput,
            p.lat_p50_ms,
            p.lat_p99_ms,
            p.lat_max_ms,
            p.stats.compiles,
            p.stats.cache.hits,
            p.stats.disk.hits,
            p.stats.disk.writes,
            p.stats.rejected,
            p.stats.timeouts,
            if i + 1 == passes.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_pass(p: &PassReport) {
    println!(
        "{:<6} completed={} errors={} retries={} p50={:.2}ms p99={:.2}ms max={:.2}ms \
         rps={:.1} compiles={} cache_hits={} disk_hits={}",
        p.label,
        p.completed,
        p.errors,
        p.retries,
        p.lat_p50_ms,
        p.lat_p99_ms,
        p.lat_max_ms,
        p.throughput,
        p.stats.compiles,
        p.stats.cache.hits,
        p.stats.disk.hits,
    );
}

/// Builds an in-process server over `cache_dir`, returning the server,
/// the service handle and the bound address.
fn spawn_server(args: &Args) -> Result<(PlanServer, Arc<PlanService>, SocketAddr), String> {
    let config = ServeConfig {
        workers: args.workers,
        disk_dir: args.cache_dir.clone().map(Into::into),
        ..ServeConfig::default()
    };
    let service = Arc::new(PlanService::try_new(config).map_err(|e| format!("service: {e}"))?);
    let server = PlanServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    Ok((server, service, addr))
}

/// Stops an in-process server and gracefully drains its service.
fn teardown(server: PlanServer, service: Arc<PlanService>) -> Result<(), String> {
    server.stop();
    let service =
        Arc::try_unwrap(service).map_err(|_| "server still holds the service".to_string())?;
    if !service.shutdown_within(Duration::from_secs(30)) {
        return Err("service failed to drain within 30s".to_string());
    }
    Ok(())
}

/// A tiny synthetic program with a unique cache key per `trips` value —
/// the chaos drill needs fresh keys mid-storm so disk writes happen
/// *while* the disk is failing.
fn chaos_request(trips: i64) -> PlanRequest {
    let mut b = ProgramBuilder::new();
    for name in ["A", "B", "C", "D"] {
        b.array(name, &[4096], 8);
    }
    b.nest(&[("i", 0, trips)], &["A[i] = B[i] + C[i] + D[i]"]).expect("chaos nest");
    PlanRequest::new(b.build(), MachineConfig::knl_like(), <_>::default())
}

/// Sends each of `requests` with `send`, comparing every decoded response
/// against its reference plan. Returns (wrong, failed).
fn chaos_phase(
    mut send: impl FnMut(&[u8]) -> Result<Vec<u8>, ClientError>,
    requests: &[PlanRequest],
    references: &[dmcp_serve::PlanResult],
) -> (usize, usize) {
    let (mut wrong, mut failed) = (0usize, 0usize);
    for (req, reference) in requests.iter().zip(references) {
        let reference = match reference {
            Ok(r) => r,
            Err(_) => continue,
        };
        match send(&encode_request(req)) {
            Ok(bytes) => match decode_plan(&bytes) {
                Ok(plan) if plan == **reference => {}
                _ => wrong += 1,
            },
            Err(_) => failed += 1,
        }
    }
    (wrong, failed)
}

/// The `--chaos` drill: disk faults via [`FaultyIo`], wire faults via
/// [`ChaosProxy`], correctness judged against independently compiled
/// reference plans.
fn run_chaos(args: &Args) -> Result<ChaosOutcome, String> {
    const PER_PHASE: usize = 8;
    // Phase request sets with disjoint keys: healthy, mid-storm, recovered.
    let phases: Vec<Vec<PlanRequest>> = (0..3)
        .map(|p| (0..PER_PHASE).map(|i| chaos_request(16 + (p * PER_PHASE + i) as i64)).collect())
        .collect();
    // References compiled by a service with no cache, no disk, no faults.
    let referee = PlanService::new(ServeConfig { workers: 2, ..ServeConfig::default() });
    let references: Vec<Vec<dmcp_serve::PlanResult>> =
        phases.iter().map(|reqs| reqs.iter().map(|r| referee.plan_uncached(r)).collect()).collect();

    // The service under test: durable tier over a seeded fault injector on
    // an in-memory store (no real files harmed), fast re-probe.
    let mem = MemIo::new();
    let faulty = FaultyIo::new(Arc::new(mem), args.seed);
    let chaos = faulty.chaos();
    let config = ServeConfig {
        workers: args.workers,
        disk_dir: Some("/chaos-cache".into()),
        disk_reprobe: Duration::from_millis(25),
        disk_io: Some(Arc::new(faulty) as Arc<dyn StorageIo>),
        ..ServeConfig::default()
    };
    let service = Arc::new(PlanService::try_new(config).map_err(|e| format!("service: {e}"))?);
    let server = PlanServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();

    // Wire mangling for the storm phase: corruption, truncation, frame
    // splitting, stalls — interleaved with clean connections so retries
    // land. Past the script every connection passes through.
    let script = vec![
        ChaosAction::BitFlip { offset: 16, mask: 0x20 },
        ChaosAction::Pass,
        ChaosAction::Drop { after: 10 },
        ChaosAction::Pass,
        ChaosAction::Split { chunk: 9, gap: Duration::from_millis(1) },
        ChaosAction::Delay(Duration::from_millis(10)),
        ChaosAction::Refuse,
        ChaosAction::Pass,
        ChaosAction::BitFlip { offset: 40, mask: 0x01 },
        ChaosAction::Pass,
        ChaosAction::Drop { after: 3 },
        ChaosAction::Pass,
    ];
    let proxy = ChaosProxy::start(addr, script).map_err(|e| format!("proxy: {e}"))?;

    let client_config = ClientConfig {
        io_timeout: Duration::from_secs(5),
        max_retries: 6,
        backoff_base: Duration::from_millis(10),
        seed: args.seed,
        ..ClientConfig::default()
    };
    let mut direct = PlanClient::connect(addr, client_config.clone())
        .map_err(|e| format!("direct client: {e}"))?;
    let mut probe = PlanClient::connect(addr, client_config.clone())
        .map_err(|e| format!("probe client: {e}"))?;
    let mut counters = Vec::new();
    // One client per proxied request: the proxy scripts its faults per
    // connection, and a client keeps its connection, so requests sharing
    // one client would share one scripted connection.
    let send_proxied = |payload: &[u8]| {
        let mut client = PlanClient::connect(proxy.local_addr(), client_config.clone())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let reply = client.plan_bytes(payload);
        counters.push(client.counters());
        reply
    };

    // Phase 0: healthy baseline, direct.
    let (mut wrong, mut failed) = chaos_phase(|p| direct.plan_bytes(p), &phases[0], &references[0]);
    println!("chaos: healthy phase done (wrong={wrong} failed={failed})");

    // Phase 1: disk storm + wire chaos, through the proxy.
    chaos.set_storm(true);
    let (w, f) = chaos_phase(send_proxied, &phases[1], &references[1]);
    wrong += w;
    failed += f;
    let mid = probe.stats().map_err(|e| format!("mid-storm stats: {e}"))?;
    let degraded_observed = mid.disk.degraded;
    println!(
        "chaos: storm phase done (wrong={w} failed={f} degraded={} disk_errors={})",
        mid.disk.degraded, mid.disk.errors
    );

    // Lift the storm; stats polls double as re-probe opportunities. The
    // clock measures fault-clear to tier-restored.
    chaos.set_storm(false);
    let t0 = Instant::now();
    let mut recovered = false;
    while t0.elapsed() < Duration::from_secs(5) {
        let s = probe.stats().map_err(|e| format!("recovery stats: {e}"))?;
        if !s.disk.degraded && s.disk.pending_records == 0 {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Phase 2: healthy again, direct.
    let (w, f) = chaos_phase(|p| direct.plan_bytes(p), &phases[2], &references[2]);
    wrong += w;
    failed += f;

    let stats = probe.stats().map_err(|e| format!("final stats: {e}"))?;
    let proxy_counters = proxy.counters();
    proxy.stop();
    teardown(server, service)?;

    counters.extend([direct.counters(), probe.counters()]);
    Ok(ChaosOutcome {
        requests: 3 * PER_PHASE,
        wrong_plans: wrong,
        failed_requests: failed,
        retries: counters.iter().map(|c| c.retries).sum(),
        attempts: counters.iter().map(|c| c.attempts).sum(),
        backoff_ms: counters.iter().map(|c| c.backoff.as_secs_f64() * 1e3).sum(),
        degraded_observed,
        recovered,
        recovery_ms,
        disk_errors: stats.disk.errors,
        quarantined_segments: stats.disk.quarantined_segments,
        pending_after: stats.disk.pending_records,
        proxy_connections: proxy_counters.connections,
        proxy_flipped: proxy_counters.flipped,
        proxy_dropped: proxy_counters.dropped,
    })
}

fn chaos_main(args: &Args) -> ExitCode {
    println!("dmcp-loadgen --chaos: disk storm + wire faults, seed {:#x}", args.seed);
    let outcome = match run_chaos(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "chaos: {} requests, wrong_plans={} failed={} retries={} backoff={:.1}ms",
        outcome.requests,
        outcome.wrong_plans,
        outcome.failed_requests,
        outcome.retries,
        outcome.backoff_ms,
    );
    println!(
        "chaos: degraded_observed={} recovered={} in {:.1}ms disk_errors={} pending_after={}",
        outcome.degraded_observed,
        outcome.recovered,
        outcome.recovery_ms,
        outcome.disk_errors,
        outcome.pending_after,
    );
    let json = outcome.render_json();
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    if outcome.passed() {
        println!(
            "chaos drill passed: zero wrong plans, wire faults fired, tier degraded and recovered"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: chaos drill (wrong_plans={} degraded_observed={} recovered={} \
             pending_after={} proxy_flipped={} proxy_dropped={})",
            outcome.wrong_plans,
            outcome.degraded_observed,
            outcome.recovered,
            outcome.pending_after,
            outcome.proxy_flipped,
            outcome.proxy_dropped,
        );
        ExitCode::FAILURE
    }
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
    if args.chaos {
        return chaos_main(&args);
    }

    // Encode every workload's request once; the mix replays the bytes.
    let payloads: Vec<Vec<u8>> = dmcp_workloads::all(Scale::Tiny)
        .into_iter()
        .map(|w| {
            let req = PlanRequest::new(w.program, MachineConfig::knl_like(), <_>::default())
                .with_data(w.data);
            encode_request(&req)
        })
        .collect();
    println!(
        "dmcp-loadgen: {} requests at {:.0} req/s, {} clients, zipf {:.2}, 12 workloads",
        args.requests, args.rate, args.clients, args.zipf
    );

    let outcome = match &args.addr {
        Some(addr) => {
            let addr: SocketAddr = match addr.parse() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("bad --addr {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            run_pass(addr, &payloads, &args, "run").map(|p| (vec![p], None))
        }
        None => run_in_process(&args, &payloads),
    };

    let (passes, warm_recompiles) = match outcome {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    for p in &passes {
        print_pass(p);
    }
    let json = render_json(&args, &passes, warm_recompiles);
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    if let Some(n) = warm_recompiles {
        if n > 0 {
            eprintln!("FAIL: warm restart recompiled {n} plans (durable tier must serve them)");
            return ExitCode::FAILURE;
        }
        println!("warm restart served entirely from the durable tier (0 recompiles)");
    }
    ExitCode::SUCCESS
}

/// Hosts the server in-process. With `--restart`, runs cold + warm passes
/// across a full server/service teardown and rebuild on the same cache
/// directory, and reports how many plans the warm pass recompiled.
fn run_in_process(
    args: &Args,
    payloads: &[Vec<u8>],
) -> Result<(Vec<PassReport>, Option<u64>), String> {
    let (server, service, addr) = spawn_server(args)?;
    let cold = run_pass(addr, payloads, args, if args.restart { "cold" } else { "run" })?;
    teardown(server, service)?;
    if !args.restart {
        return Ok((vec![cold], None));
    }

    // Restart: fresh process state, same cache directory. Zero compiles
    // is the crash-safety acceptance bar.
    let (server, service, addr) = spawn_server(args)?;
    let warm = run_pass(addr, payloads, args, "warm")?;
    let warm_recompiles = warm.stats.compiles;
    teardown(server, service)?;
    Ok((vec![cold, warm], Some(warm_recompiles)))
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
        assert!(matches!(parse(&["--requests", "4", "-h"]), Ok(None)));
    }

    #[test]
    fn unknown_or_malformed_flags_are_errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--requests", "many"]).is_err());
        assert!(parse(&["--rate", "0"]).is_err());
        assert!(parse(&["--restart"]).is_err(), "--restart needs --cache-dir");
    }

    #[test]
    fn flags_fill_the_settings() {
        let args = parse(&["--requests", "7", "--clients", "0", "--restart", "--cache-dir", "d"])
            .expect("parses")
            .expect("not a help request");
        assert_eq!(args.requests, 7);
        assert_eq!(args.clients, 1, "at least one client");
        assert!(args.restart);
        assert_eq!(args.cache_dir.as_deref(), Some("d"));
    }
}
