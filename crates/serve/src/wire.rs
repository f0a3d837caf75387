//! The length-prefixed binary frame protocol `dmcp-serve` speaks over TCP.
//!
//! # Frame layout
//!
//! ```text
//! magic     u32   0x444D_4350 ("DMCP")
//! version   u8    2
//! kind      u8    FrameKind
//! reserved  u16   0
//! len       u32   payload length in bytes
//! payload   len bytes
//! checksum  u64   dmcp_hash::checksum64 over the payload
//! ```
//!
//! Version 2 differs from version 1 only in the checksum: version 1 ran
//! FNV-1a over the payload, a byte-serial multiply chain that cost about
//! 1.7 ms per 900 KB plan on each end. A version-1 frame is refused with
//! [`WireError::BadVersion`]; it is never read under the new checksum.
//!
//! Requests carry an encoded [`crate::key::PlanRequest`]
//! ([`FrameKind::PlanRequest`]) or nothing ([`FrameKind::StatsRequest`]);
//! responses carry encoded plan bytes, an encoded stats snapshot, or a
//! typed error ([`ErrorCode`] + message). The reader is *total*: a bad
//! magic, version, kind, oversized length, short read or checksum mismatch
//! is a typed [`WireError`], never a panic, hang (reads are bounded by the
//! socket's read timeout) or unbounded allocation (the length field is
//! checked against [`MAX_FRAME_BYTES`] before any buffer is sized).

use crate::codec::{Dec, Enc};
use crate::service::ServeError;
use dmcp_hash::checksum64;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic ("DMCP").
pub const FRAME_MAGIC: u32 = 0x444D_4350;
/// Protocol version: 2 since frames carry [`checksum64`] instead of
/// FNV-1a.
pub const WIRE_VERSION: u8 = 2;
/// Fixed bytes before the payload.
pub const FRAME_HEADER_BYTES: usize = 12;
/// Hard ceiling on one frame's payload; larger lengths are rejected
/// before allocation.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an encoded plan request.
    PlanRequest,
    /// Client → server: ask for the service-stats snapshot.
    StatsRequest,
    /// Server → client: encoded plan bytes.
    PlanOk,
    /// Server → client: encoded stats snapshot.
    StatsOk,
    /// Server → client: a typed error ([`ErrorCode`] + message).
    Error,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::PlanRequest => 1,
            FrameKind::StatsRequest => 2,
            FrameKind::PlanOk => 16,
            FrameKind::StatsOk => 17,
            FrameKind::Error => 18,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FrameKind::PlanRequest,
            2 => FrameKind::StatsRequest,
            16 => FrameKind::PlanOk,
            17 => FrameKind::StatsOk,
            18 => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Error codes carried by [`FrameKind::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The service queue is full — retryable.
    QueueFull,
    /// The request's wait deadline elapsed — retryable.
    Timeout,
    /// The service is shutting down — retryable against a restarted
    /// server.
    ShuttingDown,
    /// The compile failed — not retryable, the request itself is at
    /// fault.
    Compile,
    /// The request frame did not decode — not retryable.
    Malformed,
    /// The request frame exceeded [`MAX_FRAME_BYTES`] — not retryable.
    TooLarge,
    /// Anything else server-side.
    Internal,
}

impl ErrorCode {
    /// Whether a client should retry after backoff.
    #[must_use]
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::QueueFull | ErrorCode::Timeout | ErrorCode::ShuttingDown)
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::Timeout => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Compile => 4,
            ErrorCode::Malformed => 5,
            ErrorCode::TooLarge => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::Timeout,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::Compile,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::TooLarge,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl From<&ServeError> for ErrorCode {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::QueueFull => ErrorCode::QueueFull,
            ServeError::Timeout => ErrorCode::Timeout,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::Compile(_) => ErrorCode::Compile,
            ServeError::Disk(_) | ServeError::Internal(_) => ErrorCode::Internal,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes read/write timeouts and
    /// EOF mid-frame).
    Io(io::Error),
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// The magic word did not match — not a dmcp-serve peer.
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// The length field exceeded the frame ceiling.
    TooLarge(u32),
    /// The payload checksum did not verify.
    BadChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Closed => f.write_str("connection closed"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the ceiling"),
            WireError::BadChecksum => f.write_str("frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// `true` for failures of the *peer's bytes* (garbage, truncation,
    /// checksum) as opposed to failures of the socket. The server answers
    /// the former with a typed error frame before closing.
    #[must_use]
    pub fn is_malformed(&self) -> bool {
        matches!(
            self,
            WireError::BadMagic(_)
                | WireError::BadVersion(_)
                | WireError::BadKind(_)
                | WireError::TooLarge(_)
                | WireError::BadChecksum
        )
    }
}

/// Fixed bytes after the payload: its [`checksum64`].
pub(crate) const FRAME_TRAILER_BYTES: usize = 8;

/// One whole frame in one buffer: header, payload and checksum.
pub(crate) fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() as u64 <= u64::from(MAX_FRAME_BYTES));
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + FRAME_TRAILER_BYTES);
    frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame.push(WIRE_VERSION);
    frame.push(kind.to_u8());
    frame.extend_from_slice(&[0, 0]); // reserved
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&checksum64(payload).to_le_bytes());
    frame
}

/// Writes one frame with one `write_all` of one buffer.
///
/// Header, payload and checksum leave together: written apart, the small
/// trailing write waits on a reused connection for the peer's delayed ACK
/// (Nagle's algorithm), 40–90 ms per exchange.
///
/// # Errors
///
/// Propagates socket write errors (including write timeouts).
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(kind, payload))?;
    w.flush()
}

/// Reads one frame, validating magic, version, kind, length ceiling and
/// checksum.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF at a frame boundary; [`WireError`]
/// otherwise.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Distinguish a clean close (no bytes at all) from truncation.
    match r.read(&mut header) {
        Ok(0) => return Err(WireError::Closed),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => r.read_exact(&mut header)?,
        Err(e) => return Err(WireError::Io(e)),
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_u8(header[5]).ok_or(WireError::BadKind(header[5]))?;
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    if u64::from_le_bytes(checksum) != checksum64(&payload) {
        return Err(WireError::BadChecksum);
    }
    Ok((kind, payload))
}

/// Encodes an error-frame payload: code byte + UTF-8 message.
#[must_use]
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(code.to_u8());
    e.str(message);
    e.finish()
}

/// Decodes an error-frame payload.
#[must_use]
pub fn decode_error(payload: &[u8]) -> (ErrorCode, String) {
    let mut d = Dec::new(payload);
    let code = d.u8().ok().and_then(ErrorCode::from_u8).unwrap_or(ErrorCode::Internal);
    let message = d.str("error message").map(str::to_string).unwrap_or_default();
    (code, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_mach::rng::Rng64;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::PlanOk, b"some plan bytes").expect("write");
        let (kind, payload) = read_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(kind, FrameKind::PlanOk);
        assert_eq!(payload, b"some plan bytes");
    }

    /// Counts the `write` calls it takes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b""[..], b"x", &[7u8; 300_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, FrameKind::PlanOk, payload).expect("write");
            assert_eq!(w.writes, 1, "a {}-byte payload", payload.len());
            assert_eq!(w.bytes, frame_bytes(FrameKind::PlanOk, payload));
            let (kind, read) = read_frame(&mut w.bytes.as_slice()).expect("read");
            assert_eq!((kind, read.as_slice()), (FrameKind::PlanOk, payload));
        }
    }

    #[test]
    fn clean_eof_is_closed_and_midframe_eof_is_io() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(WireError::Closed)));

        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::StatsRequest, &[]).expect("write");
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).expect_err("truncated");
            assert!(matches!(err, WireError::Io(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_version_kind_and_length_are_typed() {
        let mut good = Vec::new();
        write_frame(&mut good, FrameKind::PlanRequest, b"x").expect("write");

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::BadMagic(_))));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::BadVersion(99))));

        let mut bad = good.clone();
        bad[5] = 200;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::BadKind(200))));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::TooLarge(_))));

        let mut bad = good;
        let at = FRAME_HEADER_BYTES; // first payload byte
        bad[at] ^= 0x01;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(WireError::BadChecksum)));
    }

    #[test]
    fn version_one_frames_are_refused_by_version() {
        // A frame as version 1 wrote it: the same header with version
        // byte 1, and FNV-1a over the payload.
        let payload = b"a plan in the retired layout";
        let mut old = Vec::new();
        old.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        old.extend_from_slice(&[1, FrameKind::PlanOk.to_u8(), 0, 0]);
        old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        old.extend_from_slice(payload);
        old.extend_from_slice(&dmcp_hash::fnv1a64(payload).to_le_bytes());
        let err = read_frame(&mut old.as_slice()).expect_err("version 1 is retired");
        assert!(matches!(err, WireError::BadVersion(1)), "{err}");
        assert!(err.is_malformed(), "the server answers it with a Malformed frame");
    }

    #[test]
    fn random_byte_soup_never_panics() {
        let mut rng = Rng64::new(0xB17E_50FF);
        for _ in 0..512 {
            let len = rng.gen_range(256) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = read_frame(&mut bytes.as_slice());
        }
    }

    #[test]
    fn error_payload_roundtrip() {
        let payload = encode_error(ErrorCode::QueueFull, "busy");
        let (code, msg) = decode_error(&payload);
        assert_eq!(code, ErrorCode::QueueFull);
        assert_eq!(msg, "busy");
        assert!(code.retryable());
        assert!(!ErrorCode::Compile.retryable());

        // Garbage error payloads degrade to Internal, never panic.
        let (code, _) = decode_error(&[0xFF, 0x01]);
        assert_eq!(code, ErrorCode::Internal);
        let (code, _) = decode_error(&[]);
        assert_eq!(code, ErrorCode::Internal);
    }
}
