//! The durable plan tier: a content-addressed, append-only on-disk store
//! behind the in-memory LRU.
//!
//! # Format
//!
//! A cache directory holds numbered segment files (`seg-000000.log`,
//! `seg-000001.log`, …). A segment is a sequence of records; each record
//! is
//!
//! ```text
//! magic     u32   0x444D_4332 ("DMC2")
//! key       4×u64 the full PlanKey (program, machine, config, faults)
//! len       u32   payload length in bytes
//! checksum  u64   dmcp_hash::checksum64 over the payload
//! payload   len bytes (an encoded plan, crate::codec::encode_plan)
//! ```
//!
//! The first record layout had the same fields under magic `0x444D_4352`
//! ("DMCR") with an FNV-1a checksum, and carried plans in the fixed-width
//! plan layout. A segment of such records verifies nothing under the
//! current magic, so the opening scan quarantines it (see below) and every
//! key it held is compiled again on its next request and written in the
//! current layout. A cache directory from an older version therefore
//! costs one recompile per key, never a wrong or undecodable plan.
//!
//! # Crash safety, by construction
//!
//! Records are only ever *appended*; a completed record is never rewritten
//! or moved. The index is not persisted at all — it is rebuilt by scanning
//! the segments on open. A crash (`kill -9`, power cut after the OS
//! flushed) mid-append therefore leaves exactly one torn record at the
//! tail of the newest segment: its length field or checksum cannot match,
//! the scan stops there and truncates the file back to the last complete
//! record. Everything written before the torn record is served as before;
//! at most the in-flight record is lost.
//!
//! Writes go through a buffered writer that is flushed to the OS after
//! every record (surviving process death); [`DiskTier::sync`] additionally
//! fsyncs (surviving power loss) and runs on graceful shutdown. Segment
//! creation and rotation fsync the cache *directory* too, so the new
//! entry itself survives power loss.
//!
//! # Graceful degradation
//!
//! All file operations go through [`StorageIo`], so the tier never
//! assumes a healthy disk. A write/flush/fsync/rotate failure flips the
//! tier to **memory-only**: `put` enqueues the record on a bounded
//! pending queue and reports success (the in-memory LRU above still
//! serves it), `get` skips the disk, and a time-gated *re-probe* —
//! triggered from `get`/`put`/`sync`/`stats` — tries to rotate onto a
//! fresh segment. When the probe succeeds the tier is restored and the
//! pending queue drains onto disk. A segment whose scan finds nothing
//! valid (or that cannot be truncated) is *quarantined*: renamed aside
//! with a `.quarantine` suffix and counted, never silently re-scanned
//! forever.

use crate::key::PlanKey;
use crate::storage::{RealIo, StorageFile, StorageIo};
use dmcp_hash::checksum64;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-record magic ("DMC2"): records checksummed with [`checksum64`].
/// The retired first layout used `0x444D_4352` ("DMCR") with FNV-1a.
pub const RECORD_MAGIC: u32 = 0x444D_4332;
/// Fixed bytes before a record's payload: magic + key + len + checksum.
pub const RECORD_HEADER_BYTES: u64 = 4 + 32 + 4 + 8;
/// Hard ceiling on one record's payload — anything larger is corruption.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;
/// Default segment-rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 32 << 20;
/// Default interval between re-probes while degraded.
pub const DEFAULT_REPROBE: Duration = Duration::from_millis(500);
/// Suffix appended to a quarantined segment's file name.
pub const QUARANTINE_SUFFIX: &str = ".quarantine";
/// Most records the degraded-mode pending queue holds.
const MAX_PENDING_RECORDS: usize = 256;
/// Most payload bytes the degraded-mode pending queue holds.
const MAX_PENDING_BYTES: u64 = 8 << 20;

/// Counters for the disk tier. All zeros when no tier is configured.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Records appended.
    pub writes: u64,
    /// Records dropped because their payload failed verification when
    /// read back (bit rot after recovery), or did not decode as a plan.
    pub corrupt_drops: u64,
    /// Records currently indexed.
    pub records: u64,
    /// Total segment bytes currently on disk.
    pub bytes: u64,
    /// Complete records recovered by the opening scan.
    pub recovered_records: u64,
    /// Bytes of torn tail discarded by the opening scan.
    pub truncated_bytes: u64,
    /// Disk I/O errors absorbed (each one degrades or keeps the tier
    /// degraded).
    pub errors: u64,
    /// Segments renamed aside because nothing in them verified (or the
    /// torn tail could not be truncated).
    pub quarantined_segments: u64,
    /// Records parked on the degraded-mode pending queue.
    pub pending_records: u64,
    /// `true` while the tier is memory-only (disk writes are failing).
    pub degraded: bool,
}

/// Where one plan's payload lives.
#[derive(Clone, Copy, Debug)]
struct RecordLoc {
    segment: u64,
    /// Offset of the *payload* (header already skipped).
    offset: u64,
    len: u32,
    checksum: u64,
}

struct ActiveSegment {
    id: u64,
    file: Box<dyn StorageFile>,
    len: u64,
}

struct DiskState {
    index: HashMap<PlanKey, RecordLoc>,
    active: ActiveSegment,
    /// Total bytes across all segments (for stats).
    total_bytes: u64,
    /// Writes parked while degraded, drained by a successful re-probe.
    pending: VecDeque<(PlanKey, Vec<u8>)>,
    pending_bytes: u64,
}

/// The durable tier. All methods take `&self`; one mutex serializes
/// writers and the index, reads go through the shared [`StorageIo`].
pub struct DiskTier {
    dir: PathBuf,
    segment_bytes: u64,
    io: Arc<dyn StorageIo>,
    reprobe_interval: Duration,
    state: Mutex<DiskState>,
    degraded: AtomicBool,
    last_probe: Mutex<Instant>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt_drops: AtomicU64,
    recovered_records: AtomicU64,
    truncated_bytes: AtomicU64,
    errors: AtomicU64,
    quarantined: AtomicU64,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.log"))
}

fn segment_ids(io: &dyn StorageIo, dir: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for name in io.list(dir)? {
        if let Some(id) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".log")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Renames a segment aside (`seg-NNNNNN.log.quarantine`) and makes the
/// rename durable.
fn quarantine_segment(io: &dyn StorageIo, dir: &Path, path: &Path) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("segment");
    let aside = dir.join(format!("{name}{QUARANTINE_SUFFIX}"));
    io.rename(path, &aside)?;
    io.sync_dir(dir)
}

/// Outcome of scanning one segment.
struct ScanOutcome {
    /// Byte offset of the first invalid record (= valid length).
    valid_len: u64,
    /// Complete records found, in file order.
    records: Vec<(PlanKey, RecordLoc)>,
}

/// Walks a segment's records, stopping at the first record that is
/// incomplete or fails its checksum. Everything before that point is
/// valid; everything from it on is a torn tail.
fn scan_segment(bytes: &[u8], segment: u64) -> ScanOutcome {
    let mut records = Vec::new();
    let mut pos: u64 = 0;
    let total = bytes.len() as u64;
    loop {
        let remaining = total - pos;
        if remaining == 0 {
            break;
        }
        if remaining < RECORD_HEADER_BYTES {
            break; // torn header
        }
        let at = pos as usize;
        let magic = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if magic != RECORD_MAGIC {
            break;
        }
        let mut words = [0u64; 4];
        for (k, w) in words.iter_mut().enumerate() {
            let off = at + 4 + 8 * k;
            *w = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        }
        let key =
            PlanKey { program: words[0], machine: words[1], config: words[2], faults: words[3] };
        let len = u32::from_le_bytes(bytes[at + 36..at + 40].try_into().expect("4 bytes"));
        let checksum = u64::from_le_bytes(bytes[at + 40..at + 48].try_into().expect("8 bytes"));
        if len > MAX_RECORD_BYTES || u64::from(len) > remaining - RECORD_HEADER_BYTES {
            break; // torn or corrupt length
        }
        let payload_at = at + RECORD_HEADER_BYTES as usize;
        let payload = &bytes[payload_at..payload_at + len as usize];
        if checksum64(payload) != checksum {
            break; // torn payload
        }
        records
            .push((key, RecordLoc { segment, offset: pos + RECORD_HEADER_BYTES, len, checksum }));
        pos += RECORD_HEADER_BYTES + u64::from(len);
    }
    ScanOutcome { valid_len: pos, records }
}

impl DiskTier {
    /// Opens (or creates) a cache directory, scanning every segment to
    /// rebuild the index and truncating any torn tail left by a crash.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory, reading segments, or truncating
    /// a torn tail.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`DiskTier::open`] with an explicit segment-rotation threshold
    /// (tests use small segments to exercise rotation).
    ///
    /// # Errors
    ///
    /// Same as [`DiskTier::open`].
    pub fn open_with_segment_bytes(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        Self::open_with_io(dir, segment_bytes, DEFAULT_REPROBE, Arc::new(RealIo))
    }

    /// Opens the tier over an explicit [`StorageIo`] — the chaos harness
    /// passes a [`FaultyIo`](crate::storage::FaultyIo) here — with an
    /// explicit re-probe interval for degraded mode.
    ///
    /// A segment whose scan finds no valid record (while the file is
    /// non-empty), or whose torn tail cannot be truncated, is quarantined:
    /// renamed aside and counted, its records dropped.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory, reading segments, truncating a
    /// torn tail, quarantining, or opening the active segment. Open does
    /// not degrade — a tier that cannot even be scanned is an error the
    /// caller must see.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        reprobe_interval: Duration,
        io: Arc<dyn StorageIo>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let mut index = HashMap::new();
        let mut total_bytes = 0u64;
        let mut recovered = 0u64;
        let mut truncated = 0u64;
        let mut quarantined = 0u64;
        let ids = segment_ids(io.as_ref(), &dir)?;
        for &id in &ids {
            let path = segment_path(&dir, id);
            let bytes = io.read(&path)?;
            let len = bytes.len() as u64;
            let outcome = scan_segment(&bytes, id);
            if outcome.valid_len == 0 && len > 0 {
                // Nothing in the file verifies: quarantine the whole
                // segment instead of re-scanning the garbage forever.
                quarantine_segment(io.as_ref(), &dir, &path)?;
                quarantined += 1;
                continue;
            }
            if outcome.valid_len < len {
                if io.truncate(&path, outcome.valid_len).is_err() {
                    // Can't cut the torn tail off — rename the segment
                    // aside rather than serve from a file we can't fix.
                    quarantine_segment(io.as_ref(), &dir, &path)?;
                    quarantined += 1;
                    continue;
                }
                truncated += len - outcome.valid_len;
            }
            recovered += outcome.records.len() as u64;
            total_bytes += outcome.valid_len;
            for (key, loc) in outcome.records {
                index.insert(key, loc); // later records win
            }
        }
        let active_id = ids.last().copied().unwrap_or(0);
        let path = segment_path(&dir, active_id);
        let file = io.open_append(&path)?;
        io.sync_dir(&dir)?; // the active segment may be freshly created
        let len = io.file_len(&path)?;
        let state = DiskState {
            index,
            active: ActiveSegment { id: active_id, file, len },
            total_bytes,
            pending: VecDeque::new(),
            pending_bytes: 0,
        };
        Ok(Self {
            dir,
            segment_bytes,
            io,
            reprobe_interval,
            state: Mutex::new(state),
            degraded: AtomicBool::new(false),
            last_probe: Mutex::new(Instant::now()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt_drops: AtomicU64::new(0),
            recovered_records: AtomicU64::new(recovered),
            truncated_bytes: AtomicU64::new(truncated),
            errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(quarantined),
        })
    }

    /// Looks up a plan's payload. Reads re-verify the checksum; a record
    /// that no longer verifies (bit rot) is dropped from the index and
    /// reported as a miss, so corruption degrades to a recompile rather
    /// than a wrong answer. While degraded the disk is not touched at
    /// all — every lookup is a miss (and a re-probe opportunity).
    pub fn get(&self, key: PlanKey) -> Option<Vec<u8>> {
        if self.degraded.load(Ordering::SeqCst) {
            self.maybe_reprobe();
            if self.degraded.load(Ordering::SeqCst) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let loc = {
            let state = self.state.lock().expect("disk tier poisoned");
            state.index.get(&key).copied()
        };
        let Some(loc) = loc else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match self.read_payload(loc) {
            Some(payload) if checksum64(&payload) == loc.checksum => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            _ => {
                self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.state.lock().expect("disk tier poisoned").index.remove(&key);
                None
            }
        }
    }

    /// Drops `key`'s record, whose payload verified but did not decode,
    /// from the index and counts it in `corrupt_drops`. The record stays
    /// in its segment; the next [`DiskTier::put`] of the key appends a
    /// fresh one, which a later open's scan prefers.
    pub(crate) fn discard(&self, key: PlanKey) {
        if self.state.lock().expect("disk tier poisoned").index.remove(&key).is_some() {
            self.corrupt_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn read_payload(&self, loc: RecordLoc) -> Option<Vec<u8>> {
        let path = segment_path(&self.dir, loc.segment);
        self.io.read_at(&path, loc.offset, loc.len as usize).ok()
    }

    /// Appends one plan. A key already on disk is left untouched —
    /// completed records are never rewritten (equal keys hold
    /// bit-identical payloads, so there is nothing to update).
    ///
    /// A disk failure does **not** surface here: the tier flips to
    /// memory-only, the record is parked on the bounded pending queue
    /// (oldest entries dropped past the cap — they only cost a future
    /// recompile) and `Ok` is returned; the next successful re-probe
    /// drains the queue to disk.
    ///
    /// # Errors
    ///
    /// Only `InvalidInput` for an oversized payload (a caller bug, not a
    /// disk fault).
    pub fn put(&self, key: PlanKey, payload: &[u8]) -> io::Result<()> {
        if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "plan payload exceeds the record ceiling",
            ));
        }
        if self.degraded.load(Ordering::SeqCst) {
            self.maybe_reprobe();
        }
        let mut state = self.state.lock().expect("disk tier poisoned");
        if state.index.contains_key(&key) {
            return Ok(());
        }
        if self.degraded.load(Ordering::SeqCst) {
            Self::enqueue_pending(&mut state, key, payload.to_vec());
            return Ok(());
        }
        if self.append_locked(&mut state, key, payload).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.degraded.store(true, Ordering::SeqCst);
            Self::enqueue_pending(&mut state, key, payload.to_vec());
        }
        Ok(())
    }

    /// Parks a write while degraded, bounded by records and bytes.
    fn enqueue_pending(state: &mut DiskState, key: PlanKey, payload: Vec<u8>) {
        if state.pending.iter().any(|(k, _)| *k == key) {
            return;
        }
        state.pending_bytes += payload.len() as u64;
        state.pending.push_back((key, payload));
        while state.pending.len() > MAX_PENDING_RECORDS || state.pending_bytes > MAX_PENDING_BYTES {
            if let Some((_, dropped)) = state.pending.pop_front() {
                state.pending_bytes -= dropped.len() as u64;
            } else {
                break;
            }
        }
    }

    /// Appends one record to the active segment, rotating first when the
    /// segment is full. On error the segment tail is suspect (a prefix of
    /// the record may have landed) — the caller degrades, and recovery
    /// always rotates onto a fresh segment so the torn tail is left for
    /// the next open's scan to truncate.
    fn append_locked(&self, state: &mut DiskState, key: PlanKey, payload: &[u8]) -> io::Result<()> {
        let record_len = RECORD_HEADER_BYTES + payload.len() as u64;
        if state.active.len > 0 && state.active.len + record_len > self.segment_bytes {
            self.rotate_locked(state)?;
        }
        let checksum = checksum64(payload);
        let mut header = Vec::with_capacity(RECORD_HEADER_BYTES as usize);
        header.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        for w in [key.program, key.machine, key.config, key.faults] {
            header.extend_from_slice(&w.to_le_bytes());
        }
        header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        header.extend_from_slice(&checksum.to_le_bytes());
        state.active.file.write_all(&header)?;
        state.active.file.write_all(payload)?;
        state.active.file.flush()?;
        let loc = RecordLoc {
            segment: state.active.id,
            offset: state.active.len + RECORD_HEADER_BYTES,
            len: payload.len() as u32,
            checksum,
        };
        state.active.len += record_len;
        state.total_bytes += record_len;
        state.index.insert(key, loc);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Opens the next segment as the active one and makes the new
    /// directory entry durable. The previous active segment (and any torn
    /// tail it carries) is simply left behind.
    fn rotate_locked(&self, state: &mut DiskState) -> io::Result<()> {
        let next = state.active.id + 1;
        let file = self.io.open_append(&segment_path(&self.dir, next))?;
        self.io.sync_dir(&self.dir)?;
        state.active = ActiveSegment { id: next, file, len: 0 };
        Ok(())
    }

    /// While degraded, and at most once per re-probe interval, tries to
    /// rotate onto a fresh segment. Success restores the tier and drains
    /// the pending queue; failure counts an error and stays memory-only.
    /// Called from `get`/`put`/`sync`/`stats` so any traffic — including
    /// a stats poll — can drive recovery.
    fn maybe_reprobe(&self) {
        if !self.degraded.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut last = self.last_probe.lock().expect("disk tier poisoned");
            if last.elapsed() < self.reprobe_interval {
                return;
            }
            *last = Instant::now();
        }
        let mut state = self.state.lock().expect("disk tier poisoned");
        if !self.degraded.load(Ordering::SeqCst) {
            return; // somebody else re-probed first
        }
        if self.rotate_locked(&mut state).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.degraded.store(false, Ordering::SeqCst);
        while let Some((key, payload)) = state.pending.pop_front() {
            state.pending_bytes -= payload.len() as u64;
            if state.index.contains_key(&key) {
                continue;
            }
            if self.append_locked(&mut state, key, &payload).is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.degraded.store(true, Ordering::SeqCst);
                state.pending_bytes += payload.len() as u64;
                state.pending.push_front((key, payload));
                break;
            }
        }
    }

    /// Fsyncs the active segment — after this returns `Ok`, every
    /// completed record survives power loss, not just process death. An
    /// fsync failure degrades the tier (the kernel may have dropped dirty
    /// pages — the tail is no longer trustworthy).
    ///
    /// # Errors
    ///
    /// The underlying `fsync` failure, or an error naming the degraded
    /// state while the tier is memory-only.
    pub fn sync(&self) -> io::Result<()> {
        self.maybe_reprobe();
        let mut state = self.state.lock().expect("disk tier poisoned");
        if self.degraded.load(Ordering::SeqCst) {
            return Err(io::Error::other("disk tier degraded (memory-only)"));
        }
        match state.active.file.sync() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.degraded.store(true, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// `true` while the tier is memory-only.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Number of indexed records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("disk tier poisoned").index.len()
    }

    /// `true` when no records are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache directory this tier writes to.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot. Doubles as a re-probe opportunity: a degraded
    /// tier polled for stats will try to recover.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        self.maybe_reprobe();
        let (records, bytes, pending_records) = {
            let state = self.state.lock().expect("disk tier poisoned");
            (state.index.len() as u64, state.total_bytes, state.pending.len() as u64)
        };
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt_drops: self.corrupt_drops.load(Ordering::Relaxed),
            records,
            bytes,
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            quarantined_segments: self.quarantined.load(Ordering::Relaxed),
            pending_records,
            degraded: self.degraded.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultyIo, MemIo};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dmcp-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> PlanKey {
        PlanKey { program: n, machine: n ^ 0xAA, config: n ^ 0xBB, faults: n ^ 0xCC }
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let tier = DiskTier::open(&dir).expect("open");
        for n in 0..8u64 {
            let payload = vec![n as u8; 64 + n as usize];
            tier.put(key(n), &payload).expect("put");
            assert_eq!(tier.get(key(n)).as_deref(), Some(&payload[..]));
        }
        assert_eq!(tier.len(), 8);
        assert!(tier.get(key(99)).is_none());
        drop(tier);

        let reopened = DiskTier::open(&dir).expect("reopen");
        assert_eq!(reopened.len(), 8, "index rebuilt by scan");
        assert_eq!(reopened.stats().recovered_records, 8);
        assert_eq!(reopened.stats().truncated_bytes, 0);
        for n in 0..8u64 {
            let payload = vec![n as u8; 64 + n as usize];
            assert_eq!(reopened.get(key(n)).as_deref(), Some(&payload[..]));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_put_is_a_noop() {
        let dir = tmpdir("dup");
        let tier = DiskTier::open(&dir).expect("open");
        tier.put(key(1), b"payload").expect("put");
        let bytes_after_first = tier.stats().bytes;
        tier.put(key(1), b"payload").expect("dup put");
        assert_eq!(tier.stats().bytes, bytes_after_first, "no rewrite");
        assert_eq!(tier.stats().writes, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_all_stay_readable() {
        let dir = tmpdir("rotate");
        // Tiny segments: every record larger than ~200B rotates.
        let tier = DiskTier::open_with_segment_bytes(&dir, 256).expect("open");
        for n in 0..6u64 {
            tier.put(key(n), &[0xAB; 150]).expect("put");
        }
        assert!(segment_ids(&RealIo, &dir).expect("ls").len() > 1, "rotation produced segments");
        drop(tier);
        let reopened = DiskTier::open_with_segment_bytes(&dir, 256).expect("reopen");
        assert_eq!(reopened.len(), 6);
        for n in 0..6u64 {
            assert!(reopened.get(key(n)).is_some(), "record {n} readable after rotation");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_complete_record() {
        let dir = tmpdir("torn");
        let tier = DiskTier::open(&dir).expect("open");
        for n in 0..5u64 {
            tier.put(key(n), &[n as u8; 100]).expect("put");
        }
        drop(tier);

        // Simulate kill -9 mid-append: chop the last record's payload.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).expect("meta").len();
        let f = fs::OpenOptions::new().write(true).open(&seg).expect("open seg");
        f.set_len(len - 37).expect("tear");
        drop(f);

        let recovered = DiskTier::open(&dir).expect("recover");
        let stats = recovered.stats();
        assert_eq!(recovered.len(), 4, "exactly the torn record is lost");
        assert_eq!(stats.recovered_records, 4);
        assert!(stats.truncated_bytes > 0, "torn tail measured");
        assert_eq!(stats.quarantined_segments, 0, "a good prefix is never quarantined");
        for n in 0..4u64 {
            assert_eq!(recovered.get(key(n)).as_deref(), Some(&[n as u8; 100][..]));
        }
        assert!(recovered.get(key(4)).is_none());
        // The file was physically truncated: a further reopen is clean.
        let again = DiskTier::open(&dir).expect("clean reopen");
        assert_eq!(again.stats().truncated_bytes, 0);
        assert_eq!(again.len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_after_recovery_append_cleanly() {
        let dir = tmpdir("append-after");
        let tier = DiskTier::open(&dir).expect("open");
        for n in 0..3u64 {
            tier.put(key(n), &[n as u8; 80]).expect("put");
        }
        drop(tier);
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).expect("meta").len();
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("seg")
            .set_len(len - 10)
            .expect("tear");

        let tier = DiskTier::open(&dir).expect("recover");
        assert_eq!(tier.len(), 2);
        tier.put(key(7), b"fresh after crash").expect("put");
        drop(tier);
        let tier = DiskTier::open(&dir).expect("reopen");
        assert_eq!(tier.len(), 3);
        assert_eq!(tier.get(key(7)).as_deref(), Some(&b"fresh after crash"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_byte_quarantines_the_all_bad_segment() {
        let dir = tmpdir("bitrot");
        let tier = DiskTier::open(&dir).expect("open");
        tier.put(key(1), &[7u8; 50]).expect("put");
        drop(tier);
        // Flip one payload byte in place (not the tail — a mid-file flip).
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("read");
        let at = RECORD_HEADER_BYTES as usize + 10;
        bytes[at] ^= 0x40;
        fs::write(&seg, &bytes).expect("write");

        // The opening scan finds nothing valid in the segment, so the
        // whole file is renamed aside instead of re-scanned forever.
        let tier = DiskTier::open(&dir).expect("open");
        assert_eq!(tier.len(), 0, "corrupt record is not indexed");
        assert!(tier.get(key(1)).is_none());
        assert_eq!(tier.stats().quarantined_segments, 1);
        let aside = dir.join(format!("seg-000000.log{QUARANTINE_SUFFIX}"));
        assert!(aside.exists(), "segment renamed aside");
        // The quarantined file is out of the scan: a reopen is clean.
        drop(tier);
        let again = DiskTier::open(&dir).expect("reopen");
        assert_eq!(again.stats().quarantined_segments, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_layout_segment_is_quarantined_on_open() {
        // A record as the first layout wrote it: magic "DMCR" and FNV-1a.
        let payload = b"a plan in the retired layout";
        let mut record = Vec::new();
        record.extend_from_slice(&0x444D_4352u32.to_le_bytes());
        for w in [7u64, 8, 9, 10] {
            record.extend_from_slice(&w.to_le_bytes());
        }
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&dmcp_hash::fnv1a64(payload).to_le_bytes());
        record.extend_from_slice(payload);
        let mem = MemIo::new();
        mem.create_dir_all(Path::new("/old")).expect("mkdir");
        let mut file = mem.open_append(Path::new("/old/seg-000000.log")).expect("create");
        file.write_all(&record).expect("write");
        drop(file);

        let open = || {
            DiskTier::open_with_io("/old", 1 << 20, Duration::ZERO, Arc::new(Arc::clone(&mem)))
                .expect("open")
        };
        let tier = open();
        assert_eq!(tier.stats().quarantined_segments, 1);
        assert_eq!(tier.stats().recovered_records, 0);
        assert!(tier.get(PlanKey { program: 7, machine: 8, config: 9, faults: 10 }).is_none());
        assert!(mem.bytes(Path::new("/old/seg-000000.log.quarantine")).is_some());
        // The fresh segment takes current-layout records and reopens clean.
        tier.put(key(3), b"current layout").expect("put");
        drop(tier);
        let again = open();
        assert_eq!(again.stats().quarantined_segments, 0);
        assert_eq!(again.get(key(3)).as_deref(), Some(&b"current layout"[..]));
    }

    #[test]
    fn write_failure_degrades_to_memory_only_and_reprobe_restores() {
        let mem = MemIo::new();
        let faulty = FaultyIo::new(Arc::new(Arc::clone(&mem)), 0xD16E57);
        let chaos = faulty.chaos();
        let tier = DiskTier::open_with_io("/chaos", 1 << 20, Duration::ZERO, Arc::new(faulty))
            .expect("open");
        tier.put(key(0), b"before the storm").expect("healthy put");

        chaos.set_storm(true);
        tier.put(key(1), b"during 1").expect("degraded put still Ok");
        tier.put(key(2), b"during 2").expect("degraded put still Ok");
        let s = tier.stats();
        assert!(s.degraded, "write failure flips the tier to memory-only");
        assert!(s.errors >= 1);
        assert_eq!(s.pending_records, 2, "writes parked while degraded");
        assert!(tier.get(key(0)).is_none(), "degraded lookups skip the disk");
        assert!(tier.sync().is_err(), "sync refuses while degraded");

        chaos.set_storm(false);
        let s = tier.stats(); // the stats poll itself re-probes
        assert!(!s.degraded, "re-probe restored the tier");
        assert_eq!(s.pending_records, 0, "pending queue drained to disk");
        assert_eq!(tier.get(key(1)).as_deref(), Some(&b"during 1"[..]));
        assert_eq!(tier.get(key(0)).as_deref(), Some(&b"before the storm"[..]));
        tier.sync().expect("sync healthy again");
        drop(tier);

        // Reopen over the same in-memory filesystem: every record —
        // including the drained pending ones — was committed.
        let clean =
            DiskTier::open_with_io("/chaos", 1 << 20, Duration::ZERO, Arc::new(Arc::clone(&mem)))
                .expect("reopen");
        assert_eq!(clean.len(), 3);
        for (n, payload) in [(0u64, &b"before the storm"[..]), (1, b"during 1"), (2, b"during 2")] {
            assert_eq!(clean.get(key(n)).as_deref(), Some(payload));
        }
    }

    #[test]
    fn fsync_failure_degrades_and_recovery_rotates_to_a_fresh_segment() {
        let mem = MemIo::new();
        let faulty = FaultyIo::new(Arc::new(Arc::clone(&mem)), 0xF5);
        let chaos = faulty.chaos();
        let tier = DiskTier::open_with_io("/fsync", 1 << 20, Duration::ZERO, Arc::new(faulty))
            .expect("open");
        tier.put(key(1), b"one").expect("put");
        chaos.fail_at(chaos.ops());
        assert!(tier.sync().is_err(), "injected fsync failure surfaces");
        assert!(tier.is_degraded());
        // The next sync re-probes (interval zero), rotates and succeeds.
        tier.sync().expect("recovered");
        assert!(!tier.is_degraded());
        assert!(
            mem.bytes(Path::new("/fsync/seg-000001.log")).is_some(),
            "recovery abandoned the suspect segment for a fresh one"
        );
    }
}
