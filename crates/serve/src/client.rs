//! A small TCP client for `dmcp-serve` with timeouts and bounded,
//! jittered exponential-backoff retry.
//!
//! Retry policy: connect failures, socket timeouts, in-transit corruption
//! (a response frame failing its checksum) and the retryable
//! server errors (`QueueFull`, `Timeout`, `ShuttingDown` — see
//! [`ErrorCode::retryable`]) back off and try again, up to
//! [`ClientConfig::max_retries`]; compile errors and malformed-request
//! rejections are the request's own fault and surface immediately. The
//! backoff doubles per attempt, is capped, and is jittered by the in-tree
//! splitmix64 [`Rng64`] so a fleet of clients released by the same event
//! does not stampede the server in lockstep.
//!
//! The client keeps its connection between requests, so a repeated
//! request pays no connect. Any transport or framing failure drops the
//! connection, and the next attempt opens a fresh one, so a retry never
//! reads a half-read stream. The server closes a connection that idles
//! while another waits for a handler, or past its `io_timeout`; a kept
//! connection that fails before the first reply byte arrives (a write
//! error, or EOF or reset where the reply's header should be) was closed
//! that way, and the request is sent again at once on a fresh connection.
//! That resend is not a retry: plan requests are idempotent, so it is safe
//! even with `max_retries: 0`.

use crate::codec::{decode_plan, decode_stats, encode_request, CodecError};
use crate::key::PlanRequest;
use crate::service::ServeStats;
use crate::wire::{decode_error, read_frame, write_frame, ErrorCode, FrameKind, WireError};
use dmcp_core::PartitionOutput;
use dmcp_mach::rng::Rng64;
use std::fmt;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-request read/write deadline (the plan wait happens server-side
    /// within this window).
    pub io_timeout: Duration,
    /// Retries after the first attempt; 0 means fail fast.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            max_retries: 5,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(1),
            seed: 0xC11E_4275,
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect refused, timeout, reset) — retried
    /// until attempts are exhausted.
    Io(String),
    /// The server answered with a typed error frame.
    Server(ErrorCode, String),
    /// A response frame failed to decode.
    Codec(CodecError),
    /// The server answered with a frame kind that makes no sense here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Server(code, msg) => write!(f, "server {code:?}: {msg}"),
            ClientError::Codec(e) => write!(f, "response decode: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether another attempt could succeed.
    #[must_use]
    pub fn retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server(code, _) => code.retryable(),
            ClientError::Codec(_) | ClientError::Protocol(_) => false,
        }
    }
}

/// Cumulative client counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientCounters {
    /// Requests that ultimately succeeded.
    pub ok: u64,
    /// Requests that ultimately failed.
    pub failed: u64,
    /// Extra attempts spent on backoff-and-retry.
    pub retries: u64,
    /// Attempts made (first tries and retries alike). The resend of a
    /// request whose kept connection the server had closed belongs to its
    /// attempt.
    pub attempts: u64,
    /// Total time slept in backoff.
    pub backoff: Duration,
}

/// A plan-service client. Not `Sync`: give each client thread its own.
/// It holds at most one connection, opened by its first request and kept
/// for the next; dropping the client closes it.
pub struct PlanClient {
    addr: SocketAddr,
    config: ClientConfig,
    rng: Rng64,
    counters: ClientCounters,
    /// The kept connection; `None` before the first request and after a
    /// transport or framing failure.
    conn: Option<TcpStream>,
}

impl PlanClient {
    /// A client for the server at `addr`.
    ///
    /// # Errors
    ///
    /// Address resolution failures.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let rng = Rng64::new(config.seed);
        Ok(Self { addr, config, rng, counters: ClientCounters::default(), conn: None })
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// Requests a plan, encoding `request` for the wire. Retries per the
    /// configured policy.
    ///
    /// # Errors
    ///
    /// The last attempt's error once retries are exhausted, or the first
    /// non-retryable error.
    pub fn plan(&mut self, request: &PlanRequest) -> Result<PartitionOutput, ClientError> {
        let payload = encode_request(request);
        let bytes = self.plan_bytes(&payload)?;
        decode_plan(&bytes).map_err(ClientError::Codec)
    }

    /// Requests a plan from an already-encoded request payload, so a
    /// caller that sends one request many times encodes it once.
    ///
    /// # Errors
    ///
    /// Same as [`PlanClient::plan`].
    pub fn plan_bytes(&mut self, request_payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        let out = self.with_retry(|client| {
            client.request(FrameKind::PlanRequest, request_payload, FrameKind::PlanOk)
        });
        match &out {
            Ok(_) => self.counters.ok += 1,
            Err(_) => self.counters.failed += 1,
        }
        out
    }

    /// Fetches the server's stats snapshot (no retry — stats are
    /// advisory).
    ///
    /// # Errors
    ///
    /// Socket, server or decode failures.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        let payload = self.request(FrameKind::StatsRequest, &[], FrameKind::StatsOk)?;
        decode_stats(&payload).map_err(ClientError::Codec)
    }

    /// One exchange whose reply must be a frame of kind `expected` or a
    /// typed error frame ([`ClientError::Server`]). Any other kind means
    /// the peer is not speaking this protocol, and the connection goes.
    fn request(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
        expected: FrameKind,
    ) -> Result<Vec<u8>, ClientError> {
        match self.exchange(kind, payload)? {
            (got, reply) if got == expected => Ok(reply),
            (FrameKind::Error, reply) => {
                let (code, msg) = decode_error(&reply);
                Err(ClientError::Server(code, msg))
            }
            (other, _) => {
                self.conn = None;
                Err(ClientError::Protocol(format!("unexpected response {other:?}")))
            }
        }
    }

    fn with_retry<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut tries = 0u32;
        loop {
            self.counters.attempts += 1;
            match attempt(self) {
                Ok(v) => return Ok(v),
                Err(e) if e.retryable() && tries < self.config.max_retries => {
                    tries += 1;
                    self.counters.retries += 1;
                    self.backoff(tries);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sleeps `base · 2^(attempt−1)`, capped, jittered into `[50%, 100%]`
    /// so synchronized clients decorrelate.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.backoff_max);
        let jitter = 0.5 + 0.5 * self.rng.next_f64();
        let slept = exp.mul_f64(jitter);
        self.counters.backoff += slept;
        std::thread::sleep(slept);
    }

    /// One send–receive exchange: on the kept connection when there is
    /// one, else on a fresh one, which is kept if the exchange succeeds. A
    /// kept connection the server closed while idle gets the request again
    /// on a fresh connection.
    fn exchange(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(FrameKind, Vec<u8>), ClientError> {
        if let Some(mut stream) = self.conn.take() {
            match send_receive(&mut stream, kind, payload) {
                Ok(reply) => {
                    self.conn = Some(stream);
                    return Ok(reply);
                }
                Err(Failure { closed_while_idle: true, .. }) => {}
                Err(failure) => return Err(failure.error),
            }
        }
        let mut stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        stream
            .set_read_timeout(Some(self.config.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.io_timeout)))
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let reply = send_receive(&mut stream, kind, payload).map_err(|f| f.error)?;
        self.conn = Some(stream);
        Ok(reply)
    }
}

/// Why an exchange on one connection failed.
struct Failure {
    error: ClientError,
    /// Whether the failure looks like a connection the server had already
    /// closed: the request could not be written, or the stream ended or
    /// was reset before any byte of the reply.
    closed_while_idle: bool,
}

/// Writes one request frame and reads the reply frame. Any failure leaves
/// the stream unusable, and the caller drops it.
fn send_receive(
    stream: &mut TcpStream,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(FrameKind, Vec<u8>), Failure> {
    let io_failure = |e: io::Error, closed_while_idle| Failure {
        error: ClientError::Io(e.to_string()),
        closed_while_idle,
    };
    write_frame(stream, kind, payload).map_err(|e| io_failure(e, true))?;
    // Wait for the reply's first byte, so that a stream the server closed
    // (EOF or reset here) is told apart from one cut mid-reply.
    match stream.peek(&mut [0u8]) {
        Ok(0) => {
            return Err(Failure {
                error: ClientError::Io("closed before response".to_string()),
                closed_while_idle: true,
            })
        }
        Ok(_) => {}
        Err(e) => {
            let reset =
                matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted);
            return Err(io_failure(e, reset));
        }
    }
    read_frame(stream).map_err(|e| {
        let error = match e {
            // Socket failures (including a server that died mid-response)
            // are retryable. A checksum mismatch is corruption *in
            // transit* — the server never sends a frame that fails its
            // own checksum — so a fresh attempt is the right response,
            // and the torn payload is never surfaced. A decodable-but-
            // wrong frame is not retryable: the peer is not speaking this
            // protocol.
            WireError::Io(io) => ClientError::Io(io.to_string()),
            WireError::Closed => ClientError::Io("closed before response".to_string()),
            WireError::BadChecksum => ClientError::Io("response checksum mismatch".to_string()),
            malformed => ClientError::Protocol(malformed.to_string()),
        };
        Failure { error, closed_while_idle: false }
    })
}
