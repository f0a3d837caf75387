//! The plan server: listens on TCP and serves plan requests over the frame
//! protocol, optionally backed by the durable cache directory.
//!
//! ```text
//! dmcp-serve --listen 127.0.0.1:7117 [--cache-dir DIR] [--workers N]
//!            [--queue-depth N] [--io-timeout-ms N]
//! ```
//!
//! SIGINT/SIGTERM trigger a graceful drain: stop accepting, finish
//! in-flight work, flush the durable tier, then exit. Load and latency
//! numbers come from the benchmark in `perfbench/` (its `serve_hot` and
//! `serve_cold` workloads).

use dmcp_serve::{NetConfig, PlanServer, PlanService, ServeConfig};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Cooperative stop flag flipped by SIGINT/SIGTERM.
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static STOP: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    mod unix {
        use std::sync::atomic::Ordering;

        extern "C" fn on_signal(_signum: i32) {
            super::STOP.store(true, Ordering::SeqCst);
        }

        extern "C" {
            // `signal(2)` straight from libc — the workspace takes no
            // external crates, and an AtomicBool store is async-signal-safe.
            fn signal(signum: i32, handler: usize) -> usize;
        }

        pub fn install() {
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        }
    }

    #[cfg(unix)]
    pub use unix::install;

    #[cfg(not(unix))]
    pub fn install() {}
}

const USAGE: &str = "usage: dmcp-serve --listen ADDR [--cache-dir DIR] [--workers N] \
                     [--queue-depth N] [--io-timeout-ms N]";

struct Args {
    serve: ServeConfig,
    listen: String,
    io_timeout: Duration,
}

/// Parses the command line (without the program name); `Ok(None)` when
/// it asks for `--help`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut serve = ServeConfig::default();
    let mut listen = None;
    let mut io_timeout = Duration::from_secs(10);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workers" => {
                serve.workers = value("--workers")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--queue-depth" => {
                serve.queue_depth = value("--queue-depth")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--listen" => listen = Some(value("--listen")?),
            "--cache-dir" => serve.disk_dir = Some(value("--cache-dir")?.into()),
            "--io-timeout-ms" => {
                io_timeout = Duration::from_millis(
                    value("--io-timeout-ms")?.parse().map_err(|e| format!("{e}"))?,
                );
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    let listen = listen.ok_or_else(|| format!("--listen is required\n{USAGE}"))?;
    Ok(Some(Args { serve, listen, io_timeout }))
}

fn serve_forever(args: &Args) -> ExitCode {
    let addr = args.listen.as_str();
    let service = match PlanService::try_new(args.serve.clone()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("failed to start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(disk) = service.disk() {
        let stats = disk.stats();
        println!(
            "durable tier: {} plans recovered from {} ({} torn bytes truncated)",
            stats.recovered_records,
            disk.dir().display(),
            stats.truncated_bytes,
        );
    }
    let net = NetConfig { io_timeout: args.io_timeout, ..NetConfig::default() };
    let server = match PlanServer::start(Arc::clone(&service), addr, net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    sig::install();
    println!("dmcp-serve listening on {} ({} workers)", server.local_addr(), args.serve.workers);

    while !sig::STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }

    println!("signal received: draining");
    server.stop();
    let service = Arc::try_unwrap(service).map_err(|_| ()).expect("server released the service");
    let stats = service.stats();
    let drained = service.shutdown_within(Duration::from_secs(30));
    println!(
        "drained={drained} submitted={} compiles={} cache_hits={} disk_hits={} disk_writes={}",
        stats.submitted, stats.compiles, stats.cache.hits, stats.disk.hits, stats.disk.writes,
    );
    println!(
        "health: panics={} disk_errors={} disk_degraded={} quarantined_segments={} \
         pending_records={}",
        stats.panics,
        stats.disk.errors,
        stats.disk.degraded,
        stats.disk.quarantined_segments,
        stats.disk.pending_records,
    );
    if drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => serve_forever(&args),
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
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
        assert!(matches!(parse(&["--listen", "127.0.0.1:0", "-h"]), Ok(None)));
    }

    #[test]
    fn unknown_or_malformed_flags_are_errors() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--listen", "127.0.0.1:0", "--workers", "many"]).is_err());
        assert!(parse(&["--listen"]).is_err());
        assert!(parse(&[]).is_err(), "--listen is required");
    }

    #[test]
    fn flags_fill_the_settings() {
        let args = parse(&["--listen", "127.0.0.1:0", "--workers", "3", "--io-timeout-ms", "250"])
            .expect("parses")
            .expect("not a help request");
        assert_eq!(args.listen, "127.0.0.1:0");
        assert_eq!(args.serve.workers, 3);
        assert_eq!(args.io_timeout, Duration::from_millis(250));
    }
}
