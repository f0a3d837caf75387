//! The storage abstraction under the durable tier, and its chaos twins.
//!
//! [`DiskTier`](crate::disk::DiskTier) performs a small, closed set of
//! file operations — create the cache directory, list/read/truncate/rename
//! segments, append-and-flush records, fsync files and the directory.
//! [`StorageIo`] names exactly that set, so the tier can run over:
//!
//! * [`RealIo`] — `std::fs`, the production implementation;
//! * [`MemIo`] — an in-memory filesystem, used by the crash-consistency
//!   fuzzer to simulate thousands of crashes per second without touching
//!   a real disk;
//! * [`FaultyIo`] — a deterministic, seeded fault injector wrapping any
//!   inner implementation. It can fail the nth operation, apply a *short*
//!   write (a prefix lands, the call errors), simulate a crash at an
//!   exact operation boundary (the in-flight write is torn to a seeded
//!   prefix and every later operation fails), or run a *storm* (every
//!   mutating operation fails until the storm is lifted — the chaos
//!   drill's disk-fault storm in `tests/net_serve.rs`).
//!
//! Fault points are counted over *mutating* operations only (writes,
//! flushes, syncs, truncates, renames, creates), because those are the
//! operations whose partial effects crash consistency is about. The
//! counter is shared through [`ChaosState`], so a test can measure how
//! many write boundaries a scenario has, then re-run it crashing at each.

use dmcp_mach::rng::mix;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An open, append-only file handle.
pub trait StorageFile: Send {
    /// Appends `bytes` at the end of the file.
    ///
    /// # Errors
    ///
    /// I/O failure; a failed append may have applied a prefix (torn
    /// write) — callers must treat the tail as suspect.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flushes buffered bytes to the OS (survives process death).
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn flush(&mut self) -> io::Result<()>;

    /// Fsyncs the file (survives power loss).
    ///
    /// # Errors
    ///
    /// The underlying fsync failure.
    fn sync(&mut self) -> io::Result<()>;
}

/// Every file operation the durable tier performs, as a trait, so faults
/// can be injected at exactly this boundary.
pub trait StorageIo: Send + Sync {
    /// Creates `dir` and its parents.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// File names (not paths) directly inside `dir`.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Reads exactly `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// I/O failure, including a file shorter than `offset + len`.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;

    /// Opens (creating if absent) a file for appending.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Current length of the file at `path`.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Truncates the file to `len` bytes and syncs it.
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Renames `from` to `to` (same directory — quarantine moves).
    ///
    /// # Errors
    ///
    /// I/O failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs the directory itself, making created/renamed entries
    /// durable.
    ///
    /// # Errors
    ///
    /// The underlying fsync failure.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// RealIo
// ---------------------------------------------------------------------------

/// The production implementation over `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

struct RealFile(File);

impl StorageFile for RealFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl StorageIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync makes freshly created/renamed entries durable
        // across power loss (POSIX leaves them floating otherwise).
        File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------------
// MemIo
// ---------------------------------------------------------------------------

/// An in-memory filesystem: a map from path to bytes. Crash simulation
/// reopens the same [`MemIo`] with a fresh tier — whatever bytes were
/// "applied" before the crash are exactly what the new tier sees.
#[derive(Debug, Default)]
pub struct MemIo {
    files: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
}

impl MemIo {
    /// An empty in-memory filesystem.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of a file's bytes (tests inspect torn tails directly).
    #[must_use]
    pub fn bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.files.lock().expect("memio poisoned").get(path).cloned()
    }

    /// Overwrites a file in place (tests plant corruption).
    pub fn write(&self, path: &Path, bytes: Vec<u8>) {
        self.files.lock().expect("memio poisoned").insert(path.to_path_buf(), bytes);
    }
}

struct MemFile {
    io: Arc<MemIo>,
    path: PathBuf,
}

impl StorageFile for MemFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut files = self.io.files.lock().expect("memio poisoned");
        files.entry(self.path.clone()).or_default().extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StorageIo for Arc<MemIo> {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let files = self.files.lock().expect("memio poisoned");
        Ok(files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.bytes(path).ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let bytes = self.read(path)?;
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset beyond file"))?;
        let end = start.checked_add(len).filter(|&e| e <= bytes.len());
        match end {
            Some(end) => Ok(bytes[start..end].to_vec()),
            None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of file")),
        }
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut files = self.files.lock().expect("memio poisoned");
        files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(MemFile { io: Arc::clone(self), path: path.to_path_buf() }))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.read(path).map(|b| b.len() as u64)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().expect("memio poisoned");
        let bytes = files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        bytes.truncate(len as usize);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock().expect("memio poisoned");
        let bytes = files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FaultyIo
// ---------------------------------------------------------------------------

/// Never-fires sentinel for the operation-index knobs.
const NEVER: u64 = u64::MAX;

/// Shared, thread-safe fault switchboard of a [`FaultyIo`]. Tests hold a
/// clone to arm faults and read the operation counter.
#[derive(Debug)]
pub struct ChaosState {
    /// Mutating operations attempted so far (armed or not).
    ops: AtomicU64,
    /// Operation index that fails once, without applying (then disarms).
    fail_at: AtomicU64,
    /// Operation index whose *write* applies only a seeded prefix and
    /// errors (then disarms). Non-write operations just fail.
    short_at: AtomicU64,
    /// Operation index at which the simulated crash happens: the
    /// in-flight write is torn to a seeded prefix, and every operation
    /// from then on fails.
    crash_at: AtomicU64,
    /// While set, every mutating operation fails without applying.
    storm: AtomicBool,
    /// Set once `crash_at` has fired.
    crashed: AtomicBool,
    /// Seed for torn-prefix lengths.
    seed: u64,
    /// Faults actually injected (ops failed or torn).
    injected: AtomicU64,
}

impl ChaosState {
    fn new(seed: u64) -> Self {
        Self {
            ops: AtomicU64::new(0),
            fail_at: AtomicU64::new(NEVER),
            short_at: AtomicU64::new(NEVER),
            crash_at: AtomicU64::new(NEVER),
            storm: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            seed,
            injected: AtomicU64::new(0),
        }
    }

    /// Mutating operations attempted so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far (failed or torn operations).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Arms a one-shot failure at absolute operation index `op`.
    pub fn fail_at(&self, op: u64) {
        self.fail_at.store(op, Ordering::SeqCst);
    }

    /// Arms a one-shot short write at absolute operation index `op`.
    pub fn short_write_at(&self, op: u64) {
        self.short_at.store(op, Ordering::SeqCst);
    }

    /// Arms the crash at absolute operation index `op`.
    pub fn crash_at(&self, op: u64) {
        self.crash_at.store(op, Ordering::SeqCst);
    }

    /// Turns the fault storm on or off.
    pub fn set_storm(&self, on: bool) {
        self.storm.store(on, Ordering::SeqCst);
    }

    /// `true` while the storm is on.
    #[must_use]
    pub fn storm(&self) -> bool {
        self.storm.load(Ordering::SeqCst)
    }

    /// `true` once the armed crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// What fault (if any) applies to the mutating operation being
    /// attempted right now; bumps the operation counter.
    fn admit(&self) -> Fault {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.crashed.load(Ordering::SeqCst) {
            return Fault::Dead;
        }
        if op == self.crash_at.load(Ordering::SeqCst) {
            self.crashed.store(true, Ordering::SeqCst);
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Fault::Crash(op);
        }
        if self.storm.load(Ordering::SeqCst) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Fault::Fail("injected fault storm");
        }
        if op == self.fail_at.swap(NEVER, Ordering::SeqCst) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Fault::Fail("injected one-shot failure");
        }
        if op == self.short_at.swap(NEVER, Ordering::SeqCst) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Fault::Short(op);
        }
        Fault::None
    }

    /// Seeded torn-prefix length for a write of `len` bytes at `op`.
    fn torn_len(&self, op: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (mix(self.seed ^ mix(op)) % (len as u64 + 1)) as usize
    }
}

enum Fault {
    None,
    Fail(&'static str),
    /// Apply a seeded prefix of the write, then error.
    Short(u64),
    /// Apply a seeded prefix of the write, then error, then fail
    /// everything after (simulated process death).
    Crash(u64),
    /// The crash already happened; every operation fails.
    Dead,
}

fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("chaos: {what}"))
}

/// A fault-injecting [`StorageIo`] wrapping any inner implementation.
/// Cloning shares the same [`ChaosState`].
#[derive(Clone)]
pub struct FaultyIo {
    inner: Arc<dyn StorageIo>,
    state: Arc<ChaosState>,
}

impl std::fmt::Debug for FaultyIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyIo").field("state", &self.state).finish_non_exhaustive()
    }
}

impl FaultyIo {
    /// Wraps `inner`, injecting faults per the shared switchboard.
    #[must_use]
    pub fn new(inner: Arc<dyn StorageIo>, seed: u64) -> Self {
        Self { inner, state: Arc::new(ChaosState::new(seed)) }
    }

    /// The shared fault switchboard.
    #[must_use]
    pub fn chaos(&self) -> Arc<ChaosState> {
        Arc::clone(&self.state)
    }

    /// Gate for a non-write mutating operation: the fault either lets it
    /// through or fails it whole (nothing partial to apply).
    fn gate(&self, what: &str) -> io::Result<()> {
        match self.state.admit() {
            Fault::None => Ok(()),
            Fault::Fail(msg) => Err(injected_err(msg)),
            Fault::Short(_) => Err(injected_err("short-write fault on a non-write op")),
            Fault::Crash(_) => Err(injected_err(&format!("crash during {what}"))),
            Fault::Dead => Err(injected_err("process is dead (post-crash)")),
        }
    }
}

struct FaultyFile {
    inner: Box<dyn StorageFile>,
    state: Arc<ChaosState>,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.state.admit() {
            Fault::None => self.inner.write_all(bytes),
            Fault::Fail(msg) => Err(injected_err(msg)),
            Fault::Short(op) | Fault::Crash(op) => {
                // Torn write: a seeded prefix lands, the call errors.
                let n = self.state.torn_len(op, bytes.len());
                self.inner.write_all(&bytes[..n])?;
                Err(injected_err("torn write"))
            }
            Fault::Dead => Err(injected_err("process is dead (post-crash)")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.state.admit() {
            Fault::None => self.inner.flush(),
            _ => Err(injected_err("flush failed")),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.state.admit() {
            Fault::None => self.inner.sync(),
            _ => Err(injected_err("fsync failed")),
        }
    }
}

impl StorageIo for FaultyIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.gate("create_dir_all")?;
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        if self.state.crashed() {
            return Err(injected_err("process is dead (post-crash)"));
        }
        self.inner.list(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.state.crashed() {
            return Err(injected_err("process is dead (post-crash)"));
        }
        self.inner.read(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        if self.state.crashed() {
            return Err(injected_err("process is dead (post-crash)"));
        }
        self.inner.read_at(path, offset, len)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.gate("open_append")?;
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultyFile { inner, state: Arc::clone(&self.state) }))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        if self.state.crashed() {
            return Err(injected_err("process is dead (post-crash)"));
        }
        self.inner.file_len(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.gate("truncate")?;
        self.inner.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate("rename")?;
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.gate("sync_dir")?;
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn memio_append_read_truncate_rename() {
        let mem = MemIo::new();
        let io: &dyn StorageIo = &Arc::clone(&mem);
        io.create_dir_all(&p("/d")).unwrap();
        let mut f = io.open_append(&p("/d/a.log")).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.flush().unwrap();
        assert_eq!(io.read(&p("/d/a.log")).unwrap(), b"hello world");
        assert_eq!(io.read_at(&p("/d/a.log"), 6, 5).unwrap(), b"world");
        assert!(io.read_at(&p("/d/a.log"), 6, 6).is_err(), "read past end");
        assert_eq!(io.file_len(&p("/d/a.log")).unwrap(), 11);
        io.truncate(&p("/d/a.log"), 5).unwrap();
        assert_eq!(io.read(&p("/d/a.log")).unwrap(), b"hello");
        io.rename(&p("/d/a.log"), &p("/d/b.quarantine")).unwrap();
        assert!(io.read(&p("/d/a.log")).is_err());
        let mut names = io.list(&p("/d")).unwrap();
        names.sort();
        assert_eq!(names, ["b.quarantine"]);
    }

    #[test]
    fn faulty_one_shot_failure_fires_once_then_clears() {
        let mem = MemIo::new();
        let io = FaultyIo::new(Arc::new(Arc::clone(&mem)), 7);
        let chaos = io.chaos();
        let mut f = io.open_append(&p("/a")).unwrap(); // op 0
        chaos.fail_at(chaos.ops()); // next op fails
        assert!(f.write_all(b"x").is_err());
        f.write_all(b"y").unwrap();
        assert_eq!(mem.bytes(&p("/a")).unwrap(), b"y");
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn crash_tears_the_inflight_write_and_kills_everything_after() {
        let mem = MemIo::new();
        let io = FaultyIo::new(Arc::new(Arc::clone(&mem)), 0xC4A5);
        let chaos = io.chaos();
        let mut f = io.open_append(&p("/a")).unwrap();
        f.write_all(b"committed.").unwrap();
        chaos.crash_at(chaos.ops());
        let err = f.write_all(b"0123456789abcdef").expect_err("crash");
        assert!(err.to_string().contains("chaos"));
        // A seeded prefix (possibly empty) of the in-flight write landed.
        let bytes = mem.bytes(&p("/a")).unwrap();
        assert!(bytes.starts_with(b"committed."));
        assert!(bytes.len() <= b"committed.".len() + 16);
        // Everything after the crash fails: writes, opens, reads.
        assert!(f.write_all(b"z").is_err());
        assert!(io.open_append(&p("/b")).is_err());
        assert!(io.read(&p("/a")).is_err());
        assert!(chaos.crashed());
        // The inner filesystem is intact for a fresh (reopened) tier.
        assert_eq!(mem.bytes(&p("/a")).unwrap(), bytes);
    }

    #[test]
    fn storm_fails_every_mutating_op_until_lifted() {
        let mem = MemIo::new();
        let io = FaultyIo::new(Arc::new(Arc::clone(&mem)), 1);
        let chaos = io.chaos();
        let mut f = io.open_append(&p("/a")).unwrap();
        chaos.set_storm(true);
        assert!(f.write_all(b"x").is_err());
        assert!(f.flush().is_err());
        assert!(io.sync_dir(&p("/")).is_err());
        chaos.set_storm(false);
        f.write_all(b"x").unwrap();
        f.flush().unwrap();
        assert_eq!(mem.bytes(&p("/a")).unwrap(), b"x");
    }

    #[test]
    fn short_write_applies_a_strict_prefix_and_errors() {
        let mem = MemIo::new();
        let io = FaultyIo::new(Arc::new(Arc::clone(&mem)), 3);
        let chaos = io.chaos();
        let mut f = io.open_append(&p("/a")).unwrap();
        chaos.short_write_at(chaos.ops());
        assert!(f.write_all(b"0123456789").is_err());
        let torn = mem.bytes(&p("/a")).unwrap().len();
        assert!(torn <= 10, "prefix only");
        // Not dead: the next write succeeds (transient fault, not crash).
        f.write_all(b"ok").unwrap();
        assert_eq!(mem.bytes(&p("/a")).unwrap().len(), torn + 2);
    }

    #[test]
    fn torn_len_is_deterministic_per_seed_and_op() {
        let s = ChaosState::new(42);
        assert_eq!(s.torn_len(5, 100), s.torn_len(5, 100));
        assert_eq!(s.torn_len(9, 0), 0);
    }
}
