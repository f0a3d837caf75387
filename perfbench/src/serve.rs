//! `serve_hot` and `serve_cold`: the plan server on loopback.
//!
//! Both workloads run an in-process `PlanServer` with 2 service workers
//! and 2 connection handlers, driven by an open loop: the generator (the
//! main thread) releases request `k` at `k / rate` seconds, and 2 client
//! threads take released requests in order, each a `PlanClient` that opens
//! one connection per request and never retries. Latency runs from each
//! request's due time, so a stall charges every request queued behind it.
//!
//! * `serve_hot` compiles the 12 healthy Tiny requests during set-up, then
//!   sends zipf(1.0)-drawn keys at 50 req/s: every request is a memory
//!   cache hit, and decode, key, cache, encode, frame and network carry
//!   the whole cost.
//! * `serve_cold` adds a disk tier. Its cold phase sends only distinct
//!   keys (a seeded program under a seeded random fault plan with 3 dead
//!   nodes), so every request compiles, inserts, evicts and appends to
//!   disk; its restart phase rebuilds the service and server on the same
//!   directory and replays every key, which must be served from disk.
//!
//! The timed phase runs in blocks; between blocks, with no request in
//! flight, the reference kernel runs, and each latency is reported in
//! units of it (see [`paced`]). After the timed phases every distinct plan
//! a workload received is decoded and simulated, for the plan-quality
//! metrics and `sim_refs`.
//!
//! The traced run replays each request on one thread, layer by layer,
//! inside spans: decode → key → memory cache → disk → compile → encode →
//! frame. A layer a workload never calls reads 0.

use crate::plan_suite::{is_pass_metric, plan_traced};
use crate::quality::{report_quality, report_sim_layers, same_sim, simulate, Bracketed, Outcome};
use crate::rng::{Rng, Zipf};
use crate::stats::{highest_percentile, median, percentile};
use crate::trace::Tracer;
use crate::{peak_rss_mb, refk, report_peak_rss, write_spans, Opts, Report, COUNTED_PASSES};
use dmcp::check::golden::{GOLDEN_HEALTHY, GOLDEN_KEYS};
use dmcp::check::plan_digest;
use dmcp::core::{PartitionConfig, PartitionOutput, Partitioner};
use dmcp::mach::{FaultPlan, FaultState, MachineConfig};
use dmcp::pool::Pool;
use dmcp::serve::codec::{decode_plan, decode_request, encode_plan, encode_request};
use dmcp::serve::wire::{write_frame, FrameKind};
use dmcp::serve::{
    ClientConfig, DiskTier, NetConfig, PlanClient, PlanRequest, PlanServer, PlanService,
    ServeConfig, ServeStats,
};
use dmcp::workloads::{all, Scale, Workload};
use std::collections::HashSet;
use std::fs::File;
use std::io::{ErrorKind, Write as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads, so at most 2 connections at once; also the server's
/// connection handlers.
const CLIENTS: usize = 2;
/// Service workers compiling plans.
const WORKERS: usize = 2;
/// `serve_hot` arrival rate, well below the 2-core knee.
const HOT_RATE: f64 = 50.0;
/// `serve_cold` cold-phase arrival rate: about half of what 2 workers
/// sustain on Tiny compiles.
const COLD_RATE: f64 = 3.6;
/// `serve_cold` restart-phase arrival rate (disk hits).
const RESTART_RATE: f64 = 9.0;
/// Fraction of the 36 nodes a cold key's fault plan kills: 3 nodes.
const DEAD_FRAC: f64 = 3.0 / 36.0;
/// Cold keys re-planned with `plan_uncached` after the timed phases.
const UNCACHED_SAMPLE: usize = 3;
/// `serve_hot` set-ups timed per run; the median is reported. Each one
/// compiles the 12 warm keys.
const HOT_SETUPS: usize = 3;
/// `serve_cold` set-ups timed in each pause of the restart phase, each a
/// few milliseconds, besides the one that builds the run's inputs; the
/// median of all is reported. Spread over the phase, they sample the
/// host's speed over seconds, not only at the run's start; after the cold
/// phase, they stay out of its `peak_rss_mb`.
const COLD_SETUPS_PER_PAUSE: usize = 3;
/// `serve_hot` timed-phase requests per block: 3 s at `HOT_RATE`.
const HOT_BLOCK: usize = 150;
/// `serve_cold` requests per block in both phases: 3.3 s at `COLD_RATE`.
const COLD_BLOCK: usize = 12;
/// Reference-kernel runs in each pause between blocks; the median counts.
const PAUSE_REFS: usize = 5;
/// Passes `serve_hot` simulates its 12 received plans in; the median pass
/// gives `sim_refs`.
const HOT_SIM_PASSES: usize = 5;
/// Passes `serve_cold` simulates its 108 received plans in. With one pass,
/// 3 of 10 runs read 15 % above the rest.
const COLD_SIM_PASSES: usize = 3;

const ZIPF_SALT: u64 = 0x21FF;
const COLD_ORDER_SALT: u64 = 0xC01D;
const FAULT_SALT: u64 = 0xFA17;
/// Seed of the cold keys' fault plans. The key set is the same on every
/// run, so that neither the plans' quality nor the planner's and the
/// simulator's work varies with `--seed`: over 5 seeds with seeded fault
/// plans, the geomean of simulated movement spread by 0.8 %. The seed
/// orders the keys in each phase.
const KEY_SEED: u64 = 0x5EED_0C01D;
const RESTART_SALT: u64 = 0x2E57;
const SAMPLE_SALT: u64 = 0x5A3B;

/// A service with its TCP front end on an ephemeral loopback port.
struct Loopback {
    service: Arc<PlanService>,
    server: PlanServer,
}

impl Loopback {
    fn start(config: ServeConfig) -> Result<Self, String> {
        let service = Arc::new(PlanService::try_new(config).map_err(|e| format!("service: {e}"))?);
        let net =
            NetConfig { io_timeout: Duration::from_secs(60), conn_workers: CLIENTS, conn_queue: 4 };
        let server = PlanServer::start(Arc::clone(&service), "127.0.0.1:0", net)
            .map_err(|e| format!("server: {e}"))?;
        Ok(Self { service, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server (its connections must be closed), then drains and
    /// joins the service.
    fn stop(self) {
        self.server.stop();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Result<Self, String> {
        let path = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once the last run's directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The cold phase's replies, one file per key in a scratch directory, for
/// the byte comparisons that follow it. They stay out of the heap, so that
/// `peak_rss_mb` measures the service rather than the benchmark's copies.
struct Replies(TempDir);

impl Replies {
    fn path(&self, idx: usize) -> PathBuf {
        self.0 .0.join(idx.to_string())
    }

    /// Keeps the reply to key `idx`; a second reply to one key fails.
    fn keep(&self, idx: usize, bytes: &[u8]) -> Result<(), String> {
        let mut file = match File::options().write(true).create_new(true).open(self.path(idx)) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                return Err("key answered twice".to_string())
            }
            Err(e) => return Err(format!("keeping the reply: {e}")),
        };
        file.write_all(bytes).map_err(|e| format!("keeping the reply: {e}"))
    }

    /// The kept reply to key `idx`, if it was answered.
    fn get(&self, idx: usize) -> Option<Vec<u8>> {
        std::fs::read(self.path(idx)).ok()
    }

    /// Whether `bytes` is, byte for byte, the kept reply to key `idx`.
    fn matches(&self, idx: usize, bytes: &[u8]) -> bool {
        self.get(idx).is_some_and(|kept| kept == bytes)
    }
}

/// A client that fails fast: one attempt per request, so a failure is
/// counted instead of hidden behind a retry. Like every `PlanClient`, it
/// opens one connection per request.
fn client(addr: SocketAddr) -> Result<PlanClient, String> {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(60),
        max_retries: 0,
        ..ClientConfig::default()
    };
    PlanClient::connect(addr, config).map_err(|e| format!("client: {e}"))
}

/// One request of an open-loop phase.
struct Sent {
    /// How late the generator released it.
    late_s: f64,
    /// Due time to the moment one of the benchmark's client threads took
    /// it: the load generator's wait for a free client, not a wait inside
    /// the service.
    client_wait_s: f64,
    /// Due time to the last byte of the reply.
    latency_s: f64,
    /// The reference kernel's time around the request's block, in ms.
    ref_ms: f64,
}

impl Sent {
    /// The latency in reference-kernel units.
    fn latency_refs(&self) -> f64 {
        self.latency_s * 1e3 / self.ref_ms
    }
}

/// Handles a reply to key `idx`: checks or keeps its bytes.
type OnReply<'a> = &'a (dyn Fn(usize, Vec<u8>) -> Result<(), String> + Sync);

/// Runs one open-loop phase sending `payloads[order[k]]` at `k / rate`
/// seconds. Returns what was sent and the failures, one line each.
fn open_loop(
    addr: SocketAddr,
    payloads: &[Vec<u8>],
    order: &[usize],
    rate: f64,
    on_reply: OnReply,
) -> (Vec<Sent>, Vec<String>) {
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64)>();
    let rx = Mutex::new(rx);
    let client = || {
        let (mut sent, mut failures) = (Vec::new(), Vec::new());
        let mut client = client(addr);
        loop {
            let job = rx.lock().expect("a client panicked holding the queue").recv();
            let Ok((k, due, late_s)) = job else { break };
            let idx = order[k];
            let start = Instant::now();
            let reply = match &mut client {
                Ok(c) => c.plan_bytes(&payloads[idx]).map_err(|e| e.to_string()),
                Err(e) => Err(e.clone()),
            };
            let done = Instant::now();
            sent.push(Sent {
                late_s,
                client_wait_s: (start - due).as_secs_f64(),
                latency_s: (done - due).as_secs_f64(),
                ref_ms: f64::NAN,
            });
            if let Err(e) = reply.and_then(|bytes| on_reply(idx, bytes)) {
                failures.push(format!("request {k} (key {idx}): {e}"));
            }
        }
        (sent, failures)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
        let t0 = Instant::now() + Duration::from_millis(50);
        for k in 0..order.len() {
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late_s = Instant::now().saturating_duration_since(due).as_secs_f64();
            if tx.send((k, due, late_s)).is_err() {
                break;
            }
        }
        drop(tx);
        let (mut sent, mut failures) = (Vec::new(), Vec::new());
        for h in handles {
            match h.join() {
                Ok((s, f)) => {
                    sent.extend(s);
                    failures.extend(f);
                }
                Err(_) => failures.push("a client thread panicked".to_string()),
            }
        }
        if sent.len() != order.len() {
            failures.push(format!("{} of {} requests were sent", sent.len(), order.len()));
        }
        (sent, failures)
    })
}

/// The reference kernel's median time over one pause, in milliseconds.
fn pause_ref_ms() -> f64 {
    median(&(0..PAUSE_REFS).map(|_| refk::time_once()).collect::<Vec<_>>()) * 1e3
}

/// Runs an open-loop phase as consecutive blocks of `block` requests, each
/// an [`open_loop`] at `rate`. Before the first block and after each one,
/// once all its replies are in, the reference kernel runs; a request's
/// `ref_ms` is the mean of the pauses before and after its block. The
/// kernel so never competes with a request, and it follows the host's
/// speed, which on the host the bounds were set on drifts for tens of
/// seconds at a time. `in_pause` runs in each pause after the kernel.
fn paced(
    addr: SocketAddr,
    payloads: &[Vec<u8>],
    order: &[usize],
    rate: f64,
    block: usize,
    on_reply: OnReply,
    in_pause: &mut dyn FnMut(),
) -> (Vec<Sent>, Vec<String>) {
    let mut before = pause_ref_ms();
    let (mut all, mut failures) = (Vec::new(), Vec::new());
    for chunk in order.chunks(block) {
        let (mut sent, f) = open_loop(addr, payloads, chunk, rate, on_reply);
        let after = pause_ref_ms();
        in_pause();
        for s in &mut sent {
            s.ref_ms = 0.5 * (before + after);
        }
        all.extend(sent);
        failures.extend(f);
        before = after;
    }
    (all, failures)
}

/// Milliseconds of `f` over `sent`.
fn ms(sent: &[Sent], f: fn(&Sent) -> f64) -> Vec<f64> {
    sent.iter().map(|s| f(s) * 1e3).collect()
}

/// Prints a latency sample's size, p50, `tail` percentile and highest
/// supported percentile.
fn summarize(label: &str, samples: &[f64], tail: f64) {
    let at = |p| percentile(samples, p).map_or("n/a".to_string(), |v| format!("{v:.3} ms"));
    let highest = highest_percentile(samples)
        .map_or(String::new(), |(p, v)| format!(", highest supported p{p:.1} {v:.3} ms"));
    println!("# {label}: n={}, p50 {}, p{tail} {}{highest}", samples.len(), at(50.0), at(tail));
}

/// Records the failures of a phase against the report.
fn count_failures(report: &mut Report, phase: &str, failures: Vec<String>) {
    report.failed += failures.len() as u64;
    for f in failures {
        report.problem(format!("{phase}: {f}"));
    }
}

/// Runs `f` and returns its result, its seconds and those seconds in
/// reference-kernel units (the kernel's median just before and just after
/// `f`).
fn timed_in_refs<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = pause_ref_ms();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let refs = secs * 1e3 / median(&[before, pause_ref_ms()]);
    (out, secs, refs)
}

/// The median latency of `sent`, in reference-kernel units.
fn wait_refs(sent: &[Sent]) -> f64 {
    median(&sent.iter().map(Sent::latency_refs).collect::<Vec<_>>())
}

/// The reference kernel's median over the pauses of `sent`, in ms.
fn sent_ref_ms(sent: &[Sent]) -> f64 {
    median(&sent.iter().map(|s| s.ref_ms).collect::<Vec<_>>())
}

/// Simulates a plan the service delivered for `request`, on the machine it
/// was planned for: healthy, or under the request's faults.
fn evaluate(
    request: &PlanRequest,
    program: &'static str,
    plan: &PartitionOutput,
    timer: &mut Bracketed,
) -> Result<Outcome, String> {
    let faults = match &request.faults {
        Some(f) => Some(
            FaultState::new(f.clone(), request.machine.mesh)
                .map_err(|e| format!("faults: {e:?}"))?,
        ),
        None => None,
    };
    let partitioner = match &faults {
        Some(state) => Partitioner::new_degraded(
            &request.machine,
            &request.program,
            request.config.clone(),
            state,
        )
        .map_err(|e| format!("partitioner: {e}"))?,
        None => Partitioner::new(&request.machine, &request.program, request.config.clone()),
    };
    let sim =
        timer.time(|| simulate(&request.program, partitioner.layout(), plan, faults.as_ref()));
    Ok(Outcome::new(program, plan, sim))
}

/// One received plan: the request it answers, its program's name and the
/// reply's bytes, or why they are missing.
type Received<'a> = (&'a PlanRequest, &'static str, Result<Vec<u8>, String>);

/// Decodes and simulates the `n` received plans, `received(i)` for each,
/// `passes` times, each pass timed in reference-kernel units. The first
/// pass gives the outcomes; every later one must agree with it bit for bit.
/// Returns the outcomes, and the median over passes of the seconds and
/// reference units per plan.
fn simulate_received<'a>(
    report: &mut Report,
    passes: usize,
    n: usize,
    received: impl Fn(usize) -> Received<'a>,
) -> (Vec<Outcome>, f64, f64) {
    let mut outcomes: Vec<Outcome> = Vec::new();
    let (mut secs, mut refs) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        let mut timer = Bracketed::default();
        for i in 0..n {
            let (request, name, bytes) = received(i);
            let outcome = bytes
                .and_then(|b| decode_plan(&b).map_err(|e| format!("reply does not decode: {e:?}")))
                .and_then(|plan| evaluate(request, name, &plan, &mut timer));
            match (outcome, outcomes.get(i)) {
                (Err(e), _) => report.problem(format!("{name} (plan {i}): {e}")),
                (Ok(o), None) if pass == 0 => outcomes.push(o),
                (Ok(o), Some(first)) if same_sim(&o.sim, &first.sim) => {}
                (Ok(_), _) => report.problem(format!("{name} (plan {i}): simulations differ")),
            }
        }
        timer.close();
        secs.push(timer.mean_s());
        refs.push(timer.mean_refs());
    }
    (outcomes, median(&secs), median(&refs))
}

/// Per-layer counters from the service's stats over one phase.
fn report_stats(report: &mut Report, before: &ServeStats, after: &ServeStats) {
    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;
    report.metric("serve.cache_hit_ratio", hits as f64 / lookups.max(1) as f64, "fraction");
    report.metric("serve.compiles", (after.compiles - before.compiles) as f64, "count");
    report.metric("serve.rejected", (after.rejected - before.rejected) as f64, "count");
    report.metric("serve.timeouts", (after.timeouts - before.timeouts) as f64, "count");
}

/// Median over the spans named `serve.{layer}`, in milliseconds.
fn span_p50_ms(tracer: &Tracer, layer: &str) -> f64 {
    let v: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name.strip_prefix("serve.") == Some(layer))
        .map(|s| s.ns() as f64 * 1e-6)
        .collect();
    median(&v)
}

/// Reports `serve.{layer}.refs` for each of `layers`: the median span over
/// the replay, in units of the reference kernel's `ref_ms`. Returns their
/// sum.
fn report_serve_layers(report: &mut Report, tracer: &Tracer, layers: &[&str], ref_ms: f64) -> f64 {
    let mut sum = 0.0;
    for layer in layers {
        let refs = span_p50_ms(tracer, layer) / ref_ms;
        sum += refs;
        report.metric(format!("serve.{layer}.refs"), refs, "ref");
    }
    sum
}

/// Reports `serve.net.refs`, the live median minus the replayed parts on
/// the request's path, and checks that it is not negative.
fn report_net(report: &mut Report, live_refs: f64, parts_refs: f64) {
    let net = live_refs - parts_refs;
    println!("# live p50 {live_refs:.4} ref = parts {parts_refs:.4} ref + net {net:.4} ref");
    report.metric("serve.net.refs", net, "ref");
    report.check(net >= 0.0, || {
        format!("serve.net.refs is negative: parts {parts_refs:.4} > live p50 {live_refs:.4}")
    });
}

/// The cost of recording one span, in nanoseconds.
fn span_cost_ns() -> f64 {
    let mut t = Tracer::default();
    let start = Instant::now();
    for _ in 0..10_000 {
        let id = t.enter("probe", None);
        t.exit(id);
    }
    start.elapsed().as_nanos() as f64 / 10_000.0
}

fn healthy_request(w: &Workload, machine: &MachineConfig) -> PlanRequest {
    PlanRequest::new(w.program.clone(), machine.clone(), PartitionConfig::default())
        .with_data(w.data.clone())
}

// ---------------------------------------------------------------- serve_hot

/// The keys of the timed phase: `n` zipf(1.0) draws over `keys` ranks,
/// rank `r` being the `r`-th program of the suite.
fn hot_picks(n: usize, keys: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(keys, 1.0);
    let mut rng = Rng::stream(seed, ZIPF_SALT);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

struct Hot {
    suite: Vec<Workload>,
    requests: Vec<PlanRequest>,
    payloads: Vec<Vec<u8>>,
    plans: Vec<Arc<PartitionOutput>>,
    loopback: Loopback,
    build_s: f64,
}

/// Inputs, server, and the 12 warm keys compiled by both workers.
fn hot_setup() -> Result<Hot, String> {
    let t = Instant::now();
    let suite = all(Scale::Tiny);
    let build_s = t.elapsed().as_secs_f64();
    let machine = MachineConfig::knl_like();
    let requests: Vec<PlanRequest> = suite.iter().map(|w| healthy_request(w, &machine)).collect();
    let payloads = requests.iter().map(encode_request).collect();
    // Room for all 12 plans in every shard: nothing may be evicted.
    let config = ServeConfig { workers: WORKERS, cache_bytes: 1 << 30, ..ServeConfig::default() };
    let loopback = Loopback::start(config)?;
    let tickets = requests
        .iter()
        .map(|r| loopback.service.submit(r.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up submit: {e}"))?;
    let plans = tickets
        .into_iter()
        .map(|t| t.wait())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up compile: {e}"))?;
    Ok(Hot { suite, requests, payloads, plans, loopback, build_s })
}

pub fn run_hot(opts: &Opts) -> Report {
    let mut report = Report::default();
    // Set-up compiles the warm keys, so its time follows the host's compile
    // speed. Each set-up is also timed in reference-kernel units, printed
    // beside the raw seconds, to tell host drift from a program change.
    let (hot, setup_s, setup_refs) = timed_in_refs(hot_setup);
    let hot = match hot {
        Ok(h) => h,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    let (mut setups, mut setups_refs, mut builds) =
        (vec![setup_s], vec![setup_refs], vec![hot.build_s]);
    let service = &hot.loopback.service;

    // Warm-up checks: keys and plans are the goldens, and each key's
    // reply over the wire is the reference for every timed reply.
    for (i, w) in hot.suite.iter().enumerate() {
        let key = hot.requests[i].key().digest();
        let golden_key = GOLDEN_KEYS.iter().find(|(n, _, _)| *n == w.name).map(|&(_, h, _)| h);
        report.check(golden_key == Some(key), || {
            format!("{}: key {key:#018x} is not golden", w.name)
        });
        let digest = plan_digest(&hot.plans[i]);
        let golden = GOLDEN_HEALTHY.iter().find(|(n, _)| *n == w.name).map(|&(_, d)| d);
        report.check(golden == Some(digest), || {
            format!("{}: plan {digest:#018x} is not golden", w.name)
        });
    }
    let mut warm = Vec::with_capacity(hot.payloads.len());
    match client(hot.loopback.addr()) {
        Ok(mut client) => {
            for (i, payload) in hot.payloads.iter().enumerate() {
                report.attempted += 1;
                match client.plan_bytes(payload).map_err(|e| e.to_string()) {
                    Ok(bytes) => {
                        report.check(bytes == encode_plan(&hot.plans[i]), || {
                            format!("{}: warm-up reply is not the compiled plan", hot.suite[i].name)
                        });
                        warm.push(bytes);
                    }
                    Err(e) => count_failures(&mut report, "warm-up", vec![e]),
                }
            }
        }
        Err(e) => report.problem(format!("warm-up: {e}")),
    }
    if warm.len() != hot.payloads.len() {
        hot.loopback.stop();
        return report;
    }

    let n = (HOT_RATE * opts.seconds).round().max(1.0) as usize;
    let picks = hot_picks(n, hot.payloads.len(), opts.seed);
    let before = service.stats();
    let check = |idx: usize, bytes: Vec<u8>| {
        if bytes == warm[idx] {
            Ok(())
        } else {
            Err("reply differs from the warm-up reply".to_string())
        }
    };
    let (sent, failures) =
        paced(hot.loopback.addr(), &hot.payloads, &picks, HOT_RATE, HOT_BLOCK, &check, &mut || {});
    let after = service.stats();
    // Read before the simulations and the repeated set-ups below, which
    // would add their own heap growth to the high-water mark.
    let peak_rss = peak_rss_mb();
    report.attempted += n as u64;
    count_failures(&mut report, "timed", failures);
    report.check(after.compiles == before.compiles, || {
        format!("{} compiles during the timed phase", after.compiles - before.compiles)
    });
    // The raw p50 and p99 are printed, not reported as metrics: the p99
    // followed stalls of the host rather than the program (a 10-run spread
    // of 29 % of the median, up to 163 % over 5 runs).
    summarize("hot latency", &ms(&sent, |s| s.latency_s), 99.0);
    let live_refs = wait_refs(&sent);
    let ref_ms = sent_ref_ms(&sent);

    // The plans as the clients received them, decoded and simulated.
    let received = |i: usize| (&hot.requests[i], hot.suite[i].name, Ok(warm[i].clone()));
    let (outcomes, sim_s, sim_refs) =
        simulate_received(&mut report, HOT_SIM_PASSES, warm.len(), received);
    println!("# host.ref_ms {ref_ms:.4}; sim {:.5} s per plan; wait p50 {live_refs:.4} ref", sim_s);

    if opts.trace {
        let mut tracer = Tracer::default();
        let cache = service.cache();
        for (k, &idx) in picks.iter().enumerate() {
            let req = Some(k as u64);
            let request = tracer.enter("serve.request", req);
            let decoded =
                tracer.span("serve.decode_request", req, || decode_request(&hot.payloads[idx]));
            let Ok(decoded) = decoded else {
                report.problem(format!("replay {k}: request does not decode"));
                break;
            };
            let key = tracer.span("serve.key", req, || decoded.key());
            let Some(plan) = tracer.span("serve.cache_get", req, || cache.get(key)) else {
                report.problem(format!("replay {k}: key {idx} missed the memory cache"));
                break;
            };
            let bytes = tracer.span("serve.encode_plan", req, || encode_plan(&plan));
            let mut frame = Vec::with_capacity(bytes.len() + 32);
            let framed = tracer
                .span("serve.frame", req, || write_frame(&mut frame, FrameKind::PlanOk, &bytes));
            tracer.exit(request);
            report.check(framed.is_ok() && bytes == warm[idx], || {
                format!("replay {k}: reply differs")
            });
        }
        let path = ["decode_request", "key", "cache_get", "encode_plan", "frame"];
        let parts = report_serve_layers(&mut report, &tracer, &path, ref_ms);
        report_net(&mut report, live_refs, parts);
        let overhead_ms = 6.0 * span_cost_ns() * 1e-6;
        println!(
            "# tracing overhead {overhead_ms:.5} ms per replayed request ({:.3} % of the parts)",
            100.0 * overhead_ms / (parts * ref_ms)
        );
        let bytes: usize = warm.iter().map(Vec::len).sum();
        report.metric("serve.plan_bytes", bytes as f64, "bytes");
        report_stats(&mut report, &before, &after);
        report_sim_layers(&mut report, &outcomes, sim_s * outcomes.len() as f64);
        report.metric("host.ref_ms", ref_ms, "ms");
        // A validity check of the load generator, printed: how late it
        // released requests.
        summarize("generator lateness", &ms(&sent, |s| s.late_s), 99.0);
        write_spans(opts, &tracer, &mut report);
    }
    hot.loopback.stop();
    // The remaining set-ups are timed after the measured phase, so that
    // their heap growth stays out of `peak_rss_mb`.
    for _ in 1..HOT_SETUPS {
        match timed_in_refs(hot_setup) {
            (Ok(h), secs, refs) => {
                setups.push(secs);
                setups_refs.push(refs);
                builds.push(h.build_s);
                h.loopback.stop();
            }
            (Err(e), _, _) => report.problem(e),
        }
    }
    if opts.trace {
        report.metric("workloads.build_s", median(&builds), "s");
        // The timed phase compiles nothing, reads no disk and decodes no
        // stored plan.
        let off_path =
            ["disk_get", "decode_plan", "compile", "disk_put"].map(|l| format!("serve.{l}.refs"));
        report.idle_layers(|name| is_pass_metric(name) || off_path.iter().any(|l| l == name));
    } else {
        println!("# set-up median {:.4} s raw = {:.1} ref", median(&setups), median(&setups_refs));
        report.metric("setup_s", median(&setups), "s");
        report_peak_rss(&mut report, peak_rss);
        report.metric("wait_refs", live_refs, "ref");
        report.metric("sim_refs", sim_refs, "ref");
        report_quality(&mut report, &outcomes);
    }
    report
}

// --------------------------------------------------------------- serve_cold

struct Cold {
    suite: Vec<Workload>,
    /// Per key: the workload it plans.
    programs: Vec<usize>,
    /// Per key: the encoded request. The requests themselves are not kept;
    /// `cold_requests` builds them again after the timed phases.
    payloads: Vec<Vec<u8>>,
    dir: TempDir,
    loopback: Loopback,
    build_s: f64,
}

fn cold_config(dir: &TempDir) -> ServeConfig {
    ServeConfig { workers: WORKERS, disk_dir: Some(dir.0.clone()), ..ServeConfig::default() }
}

/// The cold keys: each of the 12 programs equally often, each under its
/// own random fault plan drawn from [`KEY_SEED`]. Keys are distinct: a
/// fault plan that repeats a key is redrawn. Returns each key's program
/// and request.
fn cold_requests(suite: &[Workload], count: usize) -> (Vec<usize>, Vec<PlanRequest>) {
    let machine = MachineConfig::knl_like();
    let programs: Vec<usize> = (0..count).map(|i| i % suite.len()).collect();
    let mut faults = Rng::stream(KEY_SEED, FAULT_SALT);
    let mut seen = HashSet::new();
    let requests = programs
        .iter()
        .map(|&p| loop {
            let plan = FaultPlan::random(machine.mesh, DEAD_FRAC, 0.0, 0.0, 0.0, faults.next_u64());
            let request = healthy_request(&suite[p], &machine).with_faults(plan);
            if seen.insert(request.key()) {
                break request;
            }
        })
        .collect();
    (programs, requests)
}

/// The order of the cold phase's `count` keys for `seed`.
fn cold_order(count: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    Rng::stream(seed, COLD_ORDER_SALT).shuffle(&mut order);
    order
}

/// Inputs and a server over an empty disk directory.
fn cold_setup(opts: &Opts, tag: &str) -> Result<Cold, String> {
    let t = Instant::now();
    let suite = all(Scale::Tiny);
    let build_s = t.elapsed().as_secs_f64();
    let count =
        suite.len() * (COLD_RATE * opts.seconds / suite.len() as f64).ceil().max(1.0) as usize;
    let (programs, requests) = cold_requests(&suite, count);
    let payloads = requests.iter().map(encode_request).collect();
    let dir = TempDir::new(tag)?;
    let loopback = Loopback::start(cold_config(&dir))?;
    Ok(Cold { suite, programs, payloads, dir, loopback, build_s })
}

pub fn run_cold(opts: &Opts) -> Report {
    let mut report = Report::default();
    let t = Instant::now();
    let Cold { suite, programs, payloads, dir, loopback, build_s } = match cold_setup(opts, "cold")
    {
        Ok(c) => c,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    let (mut setups, mut builds) = (vec![t.elapsed().as_secs_f64()], vec![build_s]);
    let mut setup_failures = Vec::new();
    let count = payloads.len();
    let replies = match TempDir::new("replies") {
        Ok(d) => Replies(d),
        Err(e) => {
            report.problem(e);
            loopback.stop();
            return report;
        }
    };
    // Cold phase: every key compiles once.
    let keep = |idx: usize, bytes: Vec<u8>| replies.keep(idx, &bytes);
    let order = cold_order(count, opts.seed);
    let before = loopback.service.stats();
    let (sent, failures) =
        paced(loopback.addr(), &payloads, &order, COLD_RATE, COLD_BLOCK, &keep, &mut || {});
    let after = loopback.service.stats();
    // `peak_rss_mb` is the high-water mark of the cold phase, one service
    // compiling, caching, evicting and appending to disk. The restart
    // phase is left out: its service starts on top of what the allocator
    // kept from the stopped one (80–115 MiB on the host the bounds were
    // set on), which moved the whole run's mark between 170 and 226 MiB
    // over 5 seeds. A restarted server is a fresh process in practice.
    let peak_rss = peak_rss_mb();
    report.attempted += count as u64;
    count_failures(&mut report, "cold", failures);
    report.check(after.compiles - before.compiles == count as u64, || {
        format!("{} compiles for {count} distinct keys", after.compiles - before.compiles)
    });
    loopback.stop();
    let live_refs = wait_refs(&sent);
    let ref_ms = sent_ref_ms(&sent);
    summarize("cold latency", &ms(&sent, |s| s.latency_s), 90.0);
    let answered = (0..count).filter(|&i| replies.path(i).exists()).count();
    if answered != count {
        report.problem(format!("{answered} of {count} cold keys were answered"));
        return report;
    }

    // Restart phase: a fresh service and server over the same directory
    // must answer every key from disk, byte for byte. Its latencies are
    // printed, not reported as metrics: on the host the bounds were set
    // on, three 10-run sets of the raw p50 spread by 13–20 % of the
    // median, too close to the largest bound allowed.
    let restart = match Loopback::start(cold_config(&dir)) {
        Ok(l) => l,
        Err(e) => {
            report.problem(format!("restart: {e}"));
            return report;
        }
    };
    let mut order: Vec<usize> = (0..count).collect();
    Rng::stream(opts.seed, RESTART_SALT).shuffle(&mut order);
    let same = |idx: usize, bytes: Vec<u8>| {
        if replies.matches(idx, &bytes) {
            Ok(())
        } else {
            Err("restart reply differs from the cold reply".to_string())
        }
    };
    let mut rep = 0;
    let mut more_setups = || {
        for _ in 0..COLD_SETUPS_PER_PAUSE {
            rep += 1;
            let t = Instant::now();
            match cold_setup(opts, &format!("setup{rep}")) {
                Ok(c) => {
                    setups.push(t.elapsed().as_secs_f64());
                    builds.push(c.build_s);
                    c.loopback.stop();
                }
                Err(e) => setup_failures.push(e),
            }
        }
    };
    let (sent_restart, failures) =
        paced(restart.addr(), &payloads, &order, RESTART_RATE, COLD_BLOCK, &same, &mut more_setups);
    for e in setup_failures.drain(..) {
        report.problem(e);
    }
    let after_restart = restart.service.stats();
    let run_peak_rss = peak_rss_mb();
    report.attempted += count as u64;
    count_failures(&mut report, "restart", failures);
    report.check(after_restart.compiles == 0, || {
        format!("{} compiles after the restart", after_restart.compiles)
    });
    summarize("restart latency", &ms(&sent_restart, |s| s.latency_s), 90.0);

    // A seeded sample re-planned from scratch, outside the timed phases,
    // from the requests drawn again from the seed.
    let (_, requests) = cold_requests(&suite, count);
    let mut sample: Vec<usize> = (0..count).collect();
    Rng::stream(opts.seed, SAMPLE_SALT).shuffle(&mut sample);
    for &i in sample.iter().take(UNCACHED_SAMPLE) {
        report.attempted += 1;
        match restart.service.plan_uncached(&requests[i]) {
            Ok(plan) => report.check(replies.matches(i, &encode_plan(&plan)), || {
                format!(
                    "key {i} ({}): plan_uncached differs from the served plan",
                    suite[programs[i]].name
                )
            }),
            Err(e) => count_failures(&mut report, "plan_uncached", vec![format!("key {i}: {e}")]),
        }
    }
    restart.stop();

    // Every plan as the clients received it, decoded and simulated under
    // its request's faults. The replies are read back from their files.
    let received = |i: usize| {
        let kept = replies.get(i).ok_or_else(|| "no kept reply".to_string());
        (&requests[i], suite[programs[i]].name, kept)
    };
    let (outcomes, sim_s, sim_refs) =
        simulate_received(&mut report, COLD_SIM_PASSES, count, received);
    println!(
        "# host.ref_ms {ref_ms:.4}; wait p50 {live_refs:.4} ref; sim {:.5} s per plan; client \
         wait p50 {:.3} ms; VmHWM with the restart phase {:.1} MiB",
        sim_s,
        median(&ms(&sent, |s| s.client_wait_s)),
        run_peak_rss.unwrap_or(f64::NAN)
    );

    if opts.trace {
        let mut tracer = Tracer::default();
        let replay =
            cold_replay(&mut report, &mut tracer, &dir, &suite, &programs, &payloads, &replies);
        if let Some((passes, replay_ref_s)) = replay {
            let replay_ref_ms = replay_ref_s * 1e3;
            for &(name, secs, allocs) in &passes {
                let refs = secs / replay_ref_s / count as f64;
                println!(
                    "# core.{name}: {refs:.4} ref per plan = {secs:.4} s raw over {count} compiles"
                );
                report.metric(format!("core.{name}.refs"), refs, "ref");
                if COUNTED_PASSES.contains(&name) {
                    report.metric(format!("core.{name}.allocs"), allocs as f64, "count");
                }
            }
            // The cold request's path; the disk read and the stored plan's
            // decoding are the restart phase's.
            let path = [
                "decode_request",
                "key",
                "cache_get",
                "compile",
                "encode_plan",
                "disk_put",
                "frame",
            ];
            let parts = report_serve_layers(&mut report, &tracer, &path, replay_ref_ms);
            report_net(&mut report, live_refs, parts);
            report_serve_layers(&mut report, &tracer, &["disk_get", "decode_plan"], replay_ref_ms);
            let bytes: u64 =
                (0..count).filter_map(|i| replies.get(i)).map(|r| r.len() as u64).sum();
            report.metric("serve.plan_bytes", bytes as f64, "bytes");
            report_stats(&mut report, &before, &after);
            report_sim_layers(&mut report, &outcomes, sim_s * count as f64);
            report.metric("workloads.build_s", median(&builds), "s");
            report.metric("host.ref_ms", ref_ms, "ms");
            report.idle_layers(is_pass_metric);
            println!(
                "# serve.queue_wait not reported: ServeStats does not expose it, and {CLIENTS} \
                 connections feeding {WORKERS} workers leave the service queue empty"
            );
            let mut late = ms(&sent, |s| s.late_s);
            late.extend(ms(&sent_restart, |s| s.late_s));
            summarize("generator lateness", &late, 99.0);
            write_spans(opts, &tracer, &mut report);
        }
    } else {
        report.metric("setup_s", median(&setups), "s");
        report_peak_rss(&mut report, peak_rss);
        report.metric("wait_refs", live_refs, "ref");
        report.metric("sim_refs", sim_refs, "ref");
        report_quality(&mut report, &outcomes);
    }
    report
}

/// Per pass in pipeline order: its name, seconds and allocations.
type PassTotals = Vec<(&'static str, f64, u64)>;

/// Replays every cold key on one thread through a fresh service over the
/// cold directory: decode → key → memory cache (a miss) → disk get →
/// decode plan → compile, pass by pass → encode → disk put (to a scratch
/// tier) → frame, each in a span. Checks that the disk copy and the
/// recompiled plan both equal the served reply. Returns the passes'
/// totals over all keys and the median reference-kernel time.
fn cold_replay(
    report: &mut Report,
    tracer: &mut Tracer,
    dir: &TempDir,
    suite: &[Workload],
    programs: &[usize],
    payloads: &[Vec<u8>],
    replies: &Replies,
) -> Option<(PassTotals, f64)> {
    let service = match PlanService::try_new(ServeConfig { workers: 1, ..cold_config(dir) }) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("replay service: {e}"));
            return None;
        }
    };
    let scratch = match TempDir::new("scratch") {
        Ok(d) => d,
        Err(e) => {
            report.problem(format!("scratch directory: {e}"));
            return None;
        }
    };
    let scratch_tier = match DiskTier::open(&scratch.0) {
        Ok(t) => t,
        Err(e) => {
            report.problem(format!("scratch tier: {e}"));
            return None;
        }
    };
    let disk = service.disk().expect("the replay service has a disk tier");
    let pool = Pool::single();
    let mut refs = Vec::with_capacity(payloads.len());
    let mut passes = PassTotals::new();
    for (i, payload) in payloads.iter().enumerate() {
        let req = Some(i as u64);
        let name = suite[programs[i]].name;
        let reply = replies.get(i);
        refs.push(refk::time_once());
        let request = tracer.enter("serve.request", req);
        let decoded = tracer.span("serve.decode_request", req, || decode_request(payload));
        let Ok(decoded) = decoded else {
            report.problem(format!("replay {i}: request does not decode"));
            return None;
        };
        let key = tracer.span("serve.key", req, || decoded.key());
        let cached = tracer.span("serve.cache_get", req, || service.cache().get(key));
        report.check(cached.is_none(), || {
            format!("replay {i}: a fresh service hit its memory cache")
        });
        let stored = tracer.span("serve.disk_get", req, || disk.get(key));
        report.check(stored.is_some() && stored == reply, || {
            format!("replay {i} ({name}): disk copy differs")
        });
        if let Some(stored) = &stored {
            let decoded_plan = tracer.span("serve.decode_plan", req, || decode_plan(stored));
            report
                .check(decoded_plan.is_ok(), || format!("replay {i}: stored plan does not decode"));
        }
        let compile = tracer.enter("serve.compile", req);
        let first_pass = tracer.spans().len();
        let plan = compile_traced(&decoded, &pool, tracer);
        tracer.exit(compile);
        for s in &tracer.spans()[first_pass..] {
            if s.parent == Some(compile) {
                match passes.iter_mut().find(|(n, _, _)| *n == s.name) {
                    Some(p) => {
                        p.1 += s.ns() as f64 * 1e-9;
                        p.2 += s.allocs;
                    }
                    None => passes.push((s.name, s.ns() as f64 * 1e-9, s.allocs)),
                }
            }
        }
        let plan = match plan {
            Ok(p) => p,
            Err(e) => {
                report.problem(format!("replay {i} ({name}): {e}"));
                return None;
            }
        };
        let bytes = tracer.span("serve.encode_plan", req, || encode_plan(&plan));
        report.check(reply.as_deref() == Some(&bytes[..]), || {
            format!("replay {i} ({name}): recompiled plan differs")
        });
        let put = tracer.span("serve.disk_put", req, || scratch_tier.put(key, &bytes));
        report.check(put.is_ok(), || format!("replay {i}: scratch disk put failed"));
        let mut frame = Vec::with_capacity(bytes.len() + 32);
        let framed =
            tracer.span("serve.frame", req, || write_frame(&mut frame, FrameKind::PlanOk, &bytes));
        report.check(framed.is_ok(), || format!("replay {i}: framing failed"));
        tracer.exit(request);
    }
    service.shutdown();
    Some((passes, median(&refs)))
}

/// What the service's compile does for a request, with the passes traced.
fn compile_traced(
    request: &PlanRequest,
    pool: &Pool,
    tracer: &mut Tracer,
) -> Result<PartitionOutput, String> {
    let faults = request.faults.clone().unwrap_or_else(FaultPlan::healthy);
    let state =
        FaultState::new(faults, request.machine.mesh).map_err(|e| format!("faults: {e:?}"))?;
    let partitioner = Partitioner::new_degraded(
        &request.machine,
        &request.program,
        request.config.clone(),
        &state,
    )
    .map_err(|e| format!("partitioner: {e}"))?;
    let initial;
    let data = match &request.data {
        Some(d) => d,
        None => {
            initial = request.program.initial_data();
            &initial
        }
    };
    Ok(plan_traced(&partitioner, &request.program, data, pool, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests_fault_plans_and_draws() {
        let suite = all(Scale::Tiny);
        let encoded = || {
            let (programs, requests) = cold_requests(&suite, 24);
            let faults: Vec<_> = requests.iter().map(|r| r.faults.clone()).collect();
            (programs, requests.iter().map(encode_request).collect::<Vec<_>>(), faults)
        };
        assert_eq!(encoded(), encoded());
        assert_eq!(cold_order(108, 5), cold_order(108, 5));
        assert_ne!(cold_order(108, 5), cold_order(108, 6));
        assert_eq!(hot_picks(500, 12, 5), hot_picks(500, 12, 5));
        assert_ne!(hot_picks(500, 12, 5), hot_picks(500, 12, 6));
    }

    #[test]
    fn cold_keys_are_distinct_and_balanced_over_the_suite() {
        let suite = all(Scale::Tiny);
        let (programs, requests) = cold_requests(&suite, 36);
        for p in 0..suite.len() {
            assert_eq!(programs.iter().filter(|&&q| q == p).count(), 3);
        }
        let keys: HashSet<_> = requests.iter().map(PlanRequest::key).collect();
        assert_eq!(keys.len(), requests.len());
        for r in &requests {
            assert_eq!(r.faults.as_ref().map(|f| f.dead_nodes().count()), Some(3));
        }
    }
}
