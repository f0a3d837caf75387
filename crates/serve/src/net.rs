//! The TCP front end: accepts connections, decodes request frames, drives
//! the [`PlanService`] and answers with plan bytes or typed error frames.
//! A plan reply is the cache's framed `PlanOk` frame, written as it is,
//! and every frame leaves in one write, so a connection serves request
//! after request without waiting on the peer's delayed ACK.
//!
//! Robustness posture:
//!
//! * every connection gets read/write deadlines (`set_read_timeout`) — a
//!   stalled or malicious peer times out instead of pinning a handler;
//! * malformed frames (bad magic/version/kind, oversized length, checksum
//!   mismatch, undecodable request) are answered with a typed error frame
//!   and the connection is closed — once framing desyncs nothing later on
//!   the stream can be trusted;
//! * request-level failures (queue full, wait timeout, compile error)
//!   are answered with a typed error frame and the connection *stays
//!   open* — framing is intact, the client may pipeline the next request;
//! * connections are handled by a bounded [`WorkerPool`]; when it is
//!   saturated the accept loop answers `QueueFull` inline and drops the
//!   connection — load is shed with a typed error, never by hanging;
//! * shutdown stops accepting, finishes in-flight connections, then
//!   returns. The accept loop blocks in `accept` (no polling, so a new
//!   connection is taken the moment it arrives); stopping sets a flag and
//!   then connects to the listener itself to wake it, and the loop drops
//!   whatever it accepts once the flag is set.

use crate::codec::{decode_request, encode_stats};
use crate::service::{PlanService, PlanTicket};
use crate::wire::{encode_error, read_frame, write_frame, ErrorCode, FrameKind, WireError};
use dmcp_pool::{SubmitError, WorkerPool};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Back-off after a failed `accept` (say, out of file descriptors), so an
/// error that persists cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);
/// Deadline of one wake-up connection made by [`PlanServer::stop`].
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// Server knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Per-connection read/write deadline. A peer that stalls mid-frame
    /// for longer than this is disconnected.
    pub io_timeout: Duration,
    /// Threads handling accepted connections.
    pub conn_workers: usize,
    /// Accepted connections waiting for a handler before the accept loop
    /// sheds load with `QueueFull`.
    pub conn_queue: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { io_timeout: Duration::from_secs(10), conn_workers: 8, conn_queue: 64 }
    }
}

/// A running server. Dropping the handle stops it; prefer
/// [`PlanServer::stop`] to make the drain explicit.
pub struct PlanServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl PlanServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and
    /// starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Bind/configuration failures.
    pub fn start(
        service: Arc<PlanService>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_for_loop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("dmcp-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &service, &config, &stop_for_loop))
            .expect("spawn accept thread");
        Ok(Self { local_addr, stop, accept: Some(accept) })
    }

    /// The bound address (the ephemeral port for `127.0.0.1:0` binds).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful stop: no new connections are accepted, in-flight
    /// connections finish, then this returns.
    pub fn stop(mut self) {
        self.halt();
    }

    /// Sets the stop flag, wakes the blocking accept by connecting to the
    /// listener until one connection gets through (or the accept thread
    /// has ended), then joins it. The loop checks the flag after every
    /// accept, so one connection is enough.
    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else { return };
        let wake = wake_addr(self.local_addr);
        while !accept.is_finished() {
            if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
                break;
            }
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
        }
        let _ = accept.join();
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Where to connect to reach a listener bound to `local`: the address
/// itself, or loopback when it is bound to the unspecified address.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<PlanService>,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
) {
    let pool = WorkerPool::new("dmcp-serve-conn", config.conn_workers, config.conn_queue);
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The connection that woke a stopping server, or one that
            // raced it: dropped unanswered.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(config.io_timeout));
                let _ = stream.set_write_timeout(Some(config.io_timeout));
                let service = Arc::clone(service);
                let mut stream_for_job = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let admitted =
                    pool.try_submit(move || handle_connection(&service, &mut stream_for_job));
                if let Err(e) = admitted {
                    // Shed load with a typed frame rather than a hang.
                    let code = match e {
                        SubmitError::QueueFull => ErrorCode::QueueFull,
                        SubmitError::Closed => ErrorCode::ShuttingDown,
                    };
                    let mut stream = stream;
                    let _ = write_frame(
                        &mut stream,
                        FrameKind::Error,
                        &encode_error(code, "connection handlers saturated"),
                    );
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    // Dropping the pool drains connections already admitted.
    drop(pool);
}

/// Serves one connection until clean close, socket error, malformed
/// input or read timeout.
///
/// Each request is additionally wrapped in `catch_unwind`: a panic while
/// answering (a compile bug, a poisoned lock) is contained as a typed
/// `Internal` error frame with the connection *and the handler worker*
/// kept alive — one bad request must not take the whole connection pool
/// with it. (The service's own workers contain compile panics too; this
/// is the second fence, for panics in the answer path itself.)
fn handle_connection(service: &PlanService, stream: &mut TcpStream) {
    loop {
        match read_frame(stream) {
            Ok((FrameKind::PlanRequest, payload)) => {
                let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    answer_plan(service, stream, &payload)
                }));
                match answered {
                    Ok(true) => {}
                    Ok(false) => return,
                    Err(_) => {
                        let payload =
                            encode_error(ErrorCode::Internal, "handler panicked (contained)");
                        if write_frame(stream, FrameKind::Error, &payload).is_err() {
                            return;
                        }
                    }
                }
            }
            Ok((FrameKind::StatsRequest, _)) => {
                let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    encode_stats(&service.stats())
                }));
                let (kind, payload) = match answered {
                    Ok(stats) => (FrameKind::StatsOk, stats),
                    Err(_) => (
                        FrameKind::Error,
                        encode_error(ErrorCode::Internal, "stats handler panicked (contained)"),
                    ),
                };
                if write_frame(stream, kind, &payload).is_err() {
                    return;
                }
            }
            Ok((kind, _)) => {
                // A response kind from a client: protocol misuse; answer
                // and close.
                let payload =
                    encode_error(ErrorCode::Malformed, &format!("unexpected frame kind {kind:?}"));
                let _ = write_frame(stream, FrameKind::Error, &payload);
                return;
            }
            Err(WireError::Closed) => return,
            Err(e) if e.is_malformed() => {
                // Garbage on the stream: answer with a typed frame, then
                // close — after a framing error nothing later can be
                // trusted.
                let code = match e {
                    WireError::TooLarge(_) => ErrorCode::TooLarge,
                    _ => ErrorCode::Malformed,
                };
                let _ = write_frame(stream, FrameKind::Error, &encode_error(code, &e.to_string()));
                return;
            }
            // Socket failure (including read timeout): nothing sensible
            // to answer on a broken socket.
            Err(_) => return,
        }
    }
}

/// Decodes and serves one plan request. Returns `false` when the
/// connection should close (malformed request or socket failure).
fn answer_plan(service: &PlanService, stream: &mut TcpStream, payload: &[u8]) -> bool {
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            let payload = encode_error(ErrorCode::Malformed, &e.to_string());
            let _ = write_frame(stream, FrameKind::Error, &payload);
            return false;
        }
    };
    let outcome = service.submit(request).and_then(PlanTicket::wait_frame);
    let write = match outcome {
        Ok(frame) => stream.write_all(&frame),
        Err(e) => {
            let payload = encode_error(ErrorCode::from(&e), &e.to_string());
            write_frame(stream, FrameKind::Error, &payload)
        }
    };
    write.is_ok()
}
