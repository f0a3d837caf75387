//! The TCP front end: accepts connections, reads request frames, drives
//! the [`PlanService`] and answers with plan bytes or typed error frames.
//! A plan reply is the cache's framed `PlanOk` frame, written as it is,
//! and every frame leaves in one write, so a connection serves request
//! after request without waiting on the peer's delayed ACK. Request bytes
//! equal to those of a request already resolved to a resident cache entry
//! are answered from the service's request-bytes index, undecoded.
//!
//! Connection lifecycle: an accepted connection is *queued* until a
//! handler of the bounded `WorkerPool` takes it; from then on it is
//! *idle* between frames (its handler waits for the first byte of the
//! next one) and *busy* while a frame is read and answered. Clients keep
//! their connections between requests, so an idle connection holds its
//! handler; whenever more connections are open than there are handlers —
//! checked when the accept loop admits one and when a handler goes idle —
//! the longest-idle connection that has answered a request is closed, and
//! its handler takes a queued one. A busy connection is never cut, and a
//! new one gets its first request answered before it can yield.
//!
//! Robustness posture:
//!
//! * every connection gets read/write deadlines (`set_read_timeout`) — a
//!   stalled or malicious peer times out instead of pinning a handler,
//!   and a connection idle for that long is closed;
//! * malformed frames (bad magic/version/kind, oversized length, checksum
//!   mismatch, undecodable request) are answered with a typed error frame
//!   and the connection is closed — once framing desyncs nothing later on
//!   the stream can be trusted;
//! * request-level failures (queue full, wait timeout, compile error)
//!   are answered with a typed error frame and the connection *stays
//!   open* — framing is intact, the client may send the next request;
//! * when the handler pool's queue is full too, the accept loop answers
//!   `QueueFull` inline and drops the connection — load is shed with a
//!   typed error, never by hanging;
//! * shutdown stops accepting, closes every idle connection (and every
//!   queued one, unanswered), lets each busy connection finish its
//!   request, then returns, so a client that keeps its connection cannot
//!   hold a stop for the read deadline. The accept loop blocks in `accept`
//!   (no polling, so a new connection is taken the moment it arrives);
//!   stopping sets a flag and then connects to the listener itself to
//!   wake it, and the loop drops whatever it accepts once the flag is set.

use crate::codec::{decode_request, encode_stats};
use crate::service::PlanService;
use crate::wire::{encode_error, read_frame, write_frame, ErrorCode, FrameKind, WireError};
use crate::{SubmitError, WorkerPool};
use std::io::{self, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Back-off after a failed `accept` (say, out of file descriptors), so an
/// error that persists cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);
/// Deadline of one wake-up connection made by [`PlanServer::stop`].
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// Server knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Per-connection read/write deadline. A peer that stalls mid-frame,
    /// or sends no frame, for longer than this is disconnected.
    pub io_timeout: Duration,
    /// Threads handling accepted connections, one connection each. With
    /// more connections open, the longest-idle one is closed.
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

    /// Graceful stop: no new connections are accepted, idle and queued
    /// connections are closed, each request being answered finishes, then
    /// this returns. A client's kept connection does not hold it up.
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

/// The open connections, shared by the accept loop and the handlers.
struct Conns {
    table: Mutex<Table>,
    /// Connection handlers: with more connections open, idle ones close.
    handlers: usize,
}

#[derive(Default)]
struct Table {
    next_id: u64,
    open: Vec<Conn>,
    /// Set by stop: no connection goes idle again.
    closing: bool,
}

struct Conn {
    id: u64,
    /// A clone of the socket, to close it from outside its handler.
    stream: TcpStream,
    /// Since when its handler has waited for the next frame; `None` while
    /// the connection is queued or a request is being answered.
    idle_since: Option<Instant>,
    /// Whether a frame has been read from it. Only such a connection
    /// yields its handler: on a new one, the client awaits its first reply.
    used: bool,
}

impl Conns {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("connection table poisoned")
    }

    /// Adds an accepted connection, queued; returns its id.
    fn register(&self, stream: TcpStream) -> u64 {
        let mut table = self.lock();
        let id = table.next_id;
        table.next_id += 1;
        table.open.push(Conn { id, stream, idle_since: None, used: false });
        id
    }

    /// Drops connection `id`, if it is still open.
    fn remove(&self, id: u64) {
        self.lock().open.retain(|c| c.id != id);
    }

    /// After an admission: closes idle connections while more are open
    /// than there are handlers.
    fn admitted(&self) {
        self.lock().close_longest_idle(self.handlers);
    }

    /// Marks `id` idle, then lets idle connections yield to queued ones.
    /// `false` when `id` is to close instead: the server is stopping, or it
    /// was the one to yield.
    fn idle(&self, id: u64) -> bool {
        let mut table = self.lock();
        if table.closing {
            return false;
        }
        let Some(conn) = table.open.iter_mut().find(|c| c.id == id) else { return false };
        conn.idle_since = Some(Instant::now());
        table.close_longest_idle(self.handlers);
        table.open.iter().any(|c| c.id == id)
    }

    /// Marks `id` busy: its peer began a frame. `false` when it was closed
    /// while idle.
    fn busy(&self, id: u64) -> bool {
        let mut table = self.lock();
        let Some(conn) = table.open.iter_mut().find(|c| c.id == id) else { return false };
        conn.idle_since = None;
        conn.used = true;
        true
    }

    /// On stop: closes every idle connection; from now on a handler closes
    /// its connection instead of waiting for another frame.
    fn close_idle(&self) {
        let mut table = self.lock();
        table.closing = true;
        for conn in table.open.iter().filter(|c| c.idle_since.is_some()) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        table.open.retain(|c| c.idle_since.is_none());
    }
}

impl Table {
    /// Closes the longest-idle used connection while more than `handlers`
    /// are open. Its handler, woken by the shutdown, returns and takes a
    /// queued connection.
    fn close_longest_idle(&mut self, handlers: usize) {
        while self.open.len() > handlers {
            let used = self.open.iter().enumerate().filter(|(_, c)| c.used);
            let idle = used.filter_map(|(k, c)| Some((c.idle_since?, k)));
            let Some((_, k)) = idle.min() else { break };
            let _ = self.open.swap_remove(k).stream.shutdown(Shutdown::Both);
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<PlanService>,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
) {
    let pool = WorkerPool::new("dmcp-serve-conn", config.conn_workers, config.conn_queue);
    let conns = Arc::new(Conns { table: Mutex::default(), handlers: config.conn_workers.max(1) });
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The connection that woke a stopping server, or one that
            // raced it: dropped unanswered.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(config.io_timeout));
                let _ = stream.set_write_timeout(Some(config.io_timeout));
                let (Ok(mut stream_for_job), Ok(registered)) =
                    (stream.try_clone(), stream.try_clone())
                else {
                    continue;
                };
                let id = conns.register(registered);
                let service = Arc::clone(service);
                let conns_for_job = Arc::clone(&conns);
                let admitted = pool.try_submit(move || {
                    handle_connection(&service, &conns_for_job, id, &mut stream_for_job);
                });
                match admitted {
                    Ok(()) => conns.admitted(),
                    Err(e) => {
                        conns.remove(id);
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
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    conns.close_idle();
    // Dropping the pool drains connections already admitted.
    drop(pool);
}

/// Serves one connection until clean close, socket error, malformed
/// input, read timeout, or the server closing it while idle.
///
/// Each request is additionally wrapped in `catch_unwind`: a panic while
/// answering (a compile bug, a poisoned lock) is contained as a typed
/// `Internal` error frame with the connection *and the handler worker*
/// kept alive — one bad request must not take the whole connection pool
/// with it. (The service's own workers contain compile panics too; this
/// is the second fence, for panics in the answer path itself.)
fn handle_connection(service: &PlanService, conns: &Conns, id: u64, stream: &mut TcpStream) {
    while conns.idle(id) {
        // Idle until the first byte of the next frame arrives: EOF, the
        // shutdown that closes an idle connection, or the read deadline
        // end the connection instead.
        if !matches!(stream.peek(&mut [0u8]), Ok(1..)) || !conns.busy(id) {
            break;
        }
        match read_frame(stream) {
            Ok((FrameKind::PlanRequest, payload)) => {
                let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    answer_plan(service, stream, &payload)
                }));
                match answered {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(_) => {
                        let payload =
                            encode_error(ErrorCode::Internal, "handler panicked (contained)");
                        if write_frame(stream, FrameKind::Error, &payload).is_err() {
                            break;
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
                    break;
                }
            }
            Ok((kind, _)) => {
                // A response kind from a client: protocol misuse; answer
                // and close.
                let payload =
                    encode_error(ErrorCode::Malformed, &format!("unexpected frame kind {kind:?}"));
                let _ = write_frame(stream, FrameKind::Error, &payload);
                break;
            }
            Err(WireError::Closed) => break,
            Err(e) if e.is_malformed() => {
                // Garbage on the stream: answer with a typed frame, then
                // close — after a framing error nothing later can be
                // trusted.
                let code = match e {
                    WireError::TooLarge(_) => ErrorCode::TooLarge,
                    _ => ErrorCode::Malformed,
                };
                let _ = write_frame(stream, FrameKind::Error, &encode_error(code, &e.to_string()));
                break;
            }
            // Socket failure (including read timeout): nothing sensible
            // to answer on a broken socket.
            Err(_) => break,
        }
    }
    conns.remove(id);
}

/// Serves one plan request: from the request-bytes index when it holds
/// these bytes, else decoded and submitted. Returns `false` when the
/// connection should close (malformed request or socket failure).
fn answer_plan(service: &PlanService, stream: &mut TcpStream, payload: &[u8]) -> bool {
    if let Some(frame) = service.indexed_frame(payload) {
        return stream.write_all(&frame).is_ok();
    }
    let request = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            let payload = encode_error(ErrorCode::Malformed, &e.to_string());
            let _ = write_frame(stream, FrameKind::Error, &payload);
            return false;
        }
    };
    let write = match service.answer_decoded(request, payload, |frame| stream.write_all(frame)) {
        Ok(written) => written,
        Err(e) => {
            let payload = encode_error(ErrorCode::from(&e), &e.to_string());
            write_frame(stream, FrameKind::Error, &payload)
        }
    };
    write.is_ok()
}
