//! A scripted loopback TCP shim for wire-level chaos tests.
//!
//! [`ChaosProxy`] sits between a [`PlanClient`](crate::PlanClient) and a
//! [`PlanServer`](crate::PlanServer) on loopback and mangles the
//! *server→client* byte stream per a per-connection script: delay it,
//! refuse the connection, cut it after N bytes (mid-frame truncation),
//! flip one byte (checksum corruption in transit), or split it into tiny
//! chunks with gaps (frame reassembly under partial reads). The
//! client→server direction is relayed faithfully, so the server always
//! sees well-formed requests — what is under test is the client's refusal
//! to ever accept a torn or corrupted response.
//!
//! The script is deterministic: connection *k* (in accept order) gets
//! `script[k]`; connections past the end of the script pass through
//! untouched, so "fail the first N attempts, then heal" is just a script
//! of N faults. A `PlanClient` keeps its connection between requests and
//! opens a fresh one only after a failure, so its retries meet the next
//! scripted connection but its next request does not: to fault every
//! request, give each its own client.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What to do to one proxied connection's server→client stream.
#[derive(Clone, Copy, Debug)]
pub enum ChaosAction {
    /// Relay untouched.
    Pass,
    /// Sleep before relaying the first response bytes.
    Delay(Duration),
    /// Accept, then close immediately without contacting the server.
    Refuse,
    /// Relay `after` response bytes, then cut the connection. `after`
    /// inside a frame is a mid-frame truncation.
    Drop {
        /// Response bytes relayed before the cut.
        after: usize,
    },
    /// XOR `mask` into the response byte at absolute offset `offset`.
    BitFlip {
        /// Absolute offset into the server→client stream.
        offset: usize,
        /// Bits to flip (must be non-zero to corrupt anything).
        mask: u8,
    },
    /// Relay the response in `chunk`-byte pieces with `gap` sleeps
    /// between them (exercises frame reassembly across partial reads).
    Split {
        /// Bytes per piece (zero is treated as one).
        chunk: usize,
        /// Sleep between pieces.
        gap: Duration,
    },
}

/// Counter snapshot of a [`ChaosProxy`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyCounters {
    /// Connections accepted (including refused ones).
    pub connections: u64,
    /// Connections closed immediately by [`ChaosAction::Refuse`].
    pub refused: u64,
    /// Connections cut by [`ChaosAction::Drop`].
    pub dropped: u64,
    /// Bytes corrupted by [`ChaosAction::BitFlip`].
    pub flipped: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    refused: AtomicU64,
    dropped: AtomicU64,
    flipped: AtomicU64,
}

/// A running chaos proxy. Dropping the handle stops the accept loop;
/// in-flight relays finish on their own as the endpoints close.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port forwarding to `upstream`, with
    /// connection *k* mangled per `script[k]` (pass-through past the
    /// script's end).
    ///
    /// # Errors
    ///
    /// Bind/configuration failures.
    pub fn start(upstream: SocketAddr, script: Vec<ChaosAction>) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let stop_for_loop = Arc::clone(&stop);
        let counters_for_loop = Arc::clone(&counters);
        let accept = std::thread::Builder::new()
            .name("dmcp-chaos-accept".to_string())
            .spawn(move || {
                accept_loop(&listener, upstream, &script, &stop_for_loop, &counters_for_loop);
            })
            .expect("spawn chaos accept thread");
        Ok(Self { local_addr, stop, counters, accept: Some(accept) })
    }

    /// The proxy's own address — point the client here.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> ProxyCounters {
        ProxyCounters {
            connections: self.counters.connections.load(Ordering::Relaxed),
            refused: self.counters.refused.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            flipped: self.counters.flipped.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and joins the accept thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    script: &[ChaosAction],
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let k = counters.connections.fetch_add(1, Ordering::Relaxed) as usize;
                let action = script.get(k).copied().unwrap_or(ChaosAction::Pass);
                if matches!(action, ChaosAction::Refuse) {
                    counters.refused.fetch_add(1, Ordering::Relaxed);
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let stop = Arc::clone(stop);
                let counters = Arc::clone(counters);
                let _ = std::thread::Builder::new().name("dmcp-chaos-conn".to_string()).spawn(
                    move || {
                        let _ = proxy_connection(&client, upstream, action, &stop, &counters);
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Relay deadline: a relay side that sees no bytes for this long while
/// the proxy is stopping gives up (keeps test teardown prompt).
const RELAY_POLL: Duration = Duration::from_millis(50);

fn proxy_connection(
    client: &TcpStream,
    upstream: SocketAddr,
    action: ChaosAction,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) -> io::Result<()> {
    let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(2))?;
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();

    // Client→server: faithful relay on its own thread.
    let c2s_from = client.try_clone()?;
    let c2s_to = server.try_clone()?;
    let stop_fwd = Arc::clone(stop);
    let fwd = std::thread::Builder::new()
        .name("dmcp-chaos-fwd".to_string())
        .spawn(move || relay(&c2s_from, &c2s_to, ChaosAction::Pass, &stop_fwd, None))?;

    // Server→client: the mangled direction.
    relay(&server, client, action, stop, Some(counters));
    let _ = fwd.join();
    Ok(())
}

/// Copies `from` into `to`, applying `action` to the stream. Closes both
/// directions on exit so the peer sees EOF rather than a hang.
fn relay(
    from: &TcpStream,
    to: &TcpStream,
    action: ChaosAction,
    stop: &Arc<AtomicBool>,
    counters: Option<&Arc<Counters>>,
) {
    let _ = from.set_read_timeout(Some(RELAY_POLL));
    let mut from = from;
    let mut to = to;
    let mut pos = 0usize; // bytes relayed so far
    let mut buf = [0u8; 4096];
    'outer: loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let mut chunk = buf[..n].to_vec();
        match action {
            ChaosAction::Pass | ChaosAction::Refuse => {}
            ChaosAction::Delay(d) => {
                if pos == 0 {
                    std::thread::sleep(d);
                }
            }
            ChaosAction::BitFlip { offset, mask } => {
                if offset >= pos && offset < pos + n {
                    chunk[offset - pos] ^= mask;
                    if let Some(c) = counters {
                        c.flipped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            ChaosAction::Drop { after } => {
                if pos + n > after {
                    chunk.truncate(after.saturating_sub(pos));
                    let _ = to.write_all(&chunk);
                    if let Some(c) = counters {
                        c.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
            }
            ChaosAction::Split { chunk: piece, gap } => {
                let piece = piece.max(1);
                for part in chunk.chunks(piece) {
                    if to.write_all(part).is_err() {
                        break 'outer;
                    }
                    std::thread::sleep(gap);
                }
                pos += n;
                continue;
            }
        }
        if to.write_all(&chunk).is_err() {
            break;
        }
        pos += n;
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}
