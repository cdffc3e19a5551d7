//! Fault-injectable filesystem layer.
//!
//! Every durable write the pipeline performs — checkpoint save/rotate, the
//! JSONL trace stream, the imputed-output CSV — goes through the [`GrimpFs`]
//! trait instead of calling `std::fs` directly. Production code uses
//! [`RealFs`] (a thin passthrough); tests and the chaos harness substitute
//! [`FaultFs`], which injects one of four deterministic fault kinds
//! ([`IoFaultKind`]) according to an [`IoFaultPlan`]:
//!
//! - **ENOSPC** — every mutating operation fails with `ENOSPC` (raw OS
//!   error 28), the canonical full-disk behaviour;
//! - **permission denied** — every mutating operation fails with
//!   [`std::io::ErrorKind::PermissionDenied`];
//! - **torn write** — a write persists only the first half of its bytes and
//!   then fails, simulating a crash mid-write (renames and removes pass
//!   through untouched, so rotation ordering is exercised against partial
//!   files);
//! - **transient** — the first `times` mutating operations fail with
//!   [`std::io::ErrorKind::Interrupted`] and later ones succeed, the shape
//!   retried by [`with_retry`].
//!
//! Reads are never faulted: the fault surface under test is the durable
//! write path (corrupt *reads* are covered by the checkpoint CRC tests).
//! Fault decisions depend only on the plan and the running operation count,
//! so a failing run replays bit-identically.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use crate::splitmix64;

/// Filesystem operations the pipeline needs for durable output. Mutating
/// operations are fallible and fault-injectable; `read` is passthrough.
pub trait GrimpFs {
    /// Read a whole file.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;

    /// Write a whole file (create or truncate).
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Create a file that must not already exist (`O_EXCL` semantics — the
    /// primitive behind the checkpoint-directory lock) and write `bytes`.
    fn create_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Open a streaming writer (create or truncate), e.g. for a JSONL
    /// trace. Faults on the returned writer surface per `write` call.
    fn open_writer(&mut self, path: &Path) -> io::Result<Box<dyn Write>>;

    /// Rename a file (the atomic-publish half of tmp + rename).
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file.
    fn remove(&mut self, path: &Path) -> io::Result<()>;

    /// Sync a file's contents to stable storage.
    fn sync(&mut self, path: &Path) -> io::Result<()>;

    /// Create a directory and its parents.
    fn create_dir_all(&mut self, path: &Path) -> io::Result<()>;

    /// Whether `path` exists (passthrough; never faulted).
    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }
}

/// The production filesystem: a thin passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

impl GrimpFs for RealFs {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn create_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)
    }

    fn open_writer(&mut self, path: &Path) -> io::Result<Box<dyn Write>> {
        Ok(Box::new(BufWriter::new(File::create(path)?)))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// The four deterministic fault kinds [`FaultFs`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// `ENOSPC` (raw OS error 28) on every mutating operation: disk full.
    Enospc,
    /// [`io::ErrorKind::PermissionDenied`] on every mutating operation.
    PermissionDenied,
    /// Writes persist only the first half of their bytes, then fail —
    /// a crash mid-write. Non-write operations pass through.
    TornWrite,
    /// The first `times` mutating operations fail with
    /// [`io::ErrorKind::Interrupted`]; later ones succeed.
    Transient,
}

impl IoFaultKind {
    /// Every kind, in a stable order (the chaos matrix iterates this).
    pub fn all() -> [IoFaultKind; 4] {
        [
            IoFaultKind::Enospc,
            IoFaultKind::PermissionDenied,
            IoFaultKind::TornWrite,
            IoFaultKind::Transient,
        ]
    }

    /// Stable lowercase label (used by `GRIMP_FAULT_FS` and reports).
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::PermissionDenied => "perm",
            IoFaultKind::TornWrite => "torn",
            IoFaultKind::Transient => "transient",
        }
    }

    /// Inverse of [`IoFaultKind::label`].
    pub fn from_label(label: &str) -> Option<IoFaultKind> {
        Some(match label {
            "enospc" => IoFaultKind::Enospc,
            "perm" => IoFaultKind::PermissionDenied,
            "torn" => IoFaultKind::TornWrite,
            "transient" => IoFaultKind::Transient,
            _ => return None,
        })
    }

    /// Whether only write-shaped operations consume this fault.
    fn writes_only(self) -> bool {
        matches!(self, IoFaultKind::TornWrite)
    }
}

/// When and how often a [`FaultFs`] injects its fault. Decisions depend
/// only on this plan and the mutating-operation count, never on a clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// The fault to inject.
    pub kind: IoFaultKind,
    /// First mutating-operation index (0-based) at which faults fire.
    pub from_op: usize,
    /// How many faults to inject in total (`usize::MAX` = persistent).
    pub times: usize,
}

impl IoFaultPlan {
    /// A fault that fires on every mutating operation, forever.
    pub fn persistent(kind: IoFaultKind) -> IoFaultPlan {
        IoFaultPlan {
            kind,
            from_op: 0,
            times: usize::MAX,
        }
    }

    /// A transient fault: the first `times` operations fail, then succeed.
    pub fn transient(times: usize) -> IoFaultPlan {
        IoFaultPlan {
            kind: IoFaultKind::Transient,
            from_op: 0,
            times,
        }
    }

    /// Parse a `kind[:times[:from_op]]` spec, the `GRIMP_FAULT_FS` format.
    /// `times` defaults to 2 for `transient` and persistent otherwise.
    pub fn parse(spec: &str) -> Option<IoFaultPlan> {
        let mut parts = spec.split(':');
        let kind = IoFaultKind::from_label(parts.next()?.trim())?;
        let default_times = match kind {
            IoFaultKind::Transient => 2,
            _ => usize::MAX,
        };
        let times = match parts.next() {
            Some(t) => t.trim().parse().ok()?,
            None => default_times,
        };
        let from_op = match parts.next() {
            Some(f) => f.trim().parse().ok()?,
            None => 0,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(IoFaultPlan {
            kind,
            from_op,
            times,
        })
    }
}

#[derive(Debug)]
struct FaultState {
    plan: IoFaultPlan,
    ops: usize,
    injected: usize,
}

impl FaultState {
    /// Count one mutating operation and decide whether it faults.
    fn decide(&mut self, is_write: bool) -> Option<IoFaultKind> {
        let op = self.ops;
        self.ops += 1;
        if self.plan.kind.writes_only() && !is_write {
            return None;
        }
        if op >= self.plan.from_op && self.injected < self.plan.times {
            self.injected += 1;
            Some(self.plan.kind)
        } else {
            None
        }
    }
}

fn fault_error(kind: IoFaultKind) -> io::Error {
    match kind {
        IoFaultKind::Enospc => io::Error::from_raw_os_error(28),
        IoFaultKind::PermissionDenied => io::Error::new(
            io::ErrorKind::PermissionDenied,
            "injected permission denied",
        ),
        IoFaultKind::TornWrite => io::Error::new(
            io::ErrorKind::WriteZero,
            "injected torn write: process crashed mid-write",
        ),
        IoFaultKind::Transient => {
            io::Error::new(io::ErrorKind::Interrupted, "injected transient IO error")
        }
    }
}

/// A [`GrimpFs`] that wraps [`RealFs`] and deterministically injects the
/// faults of one [`IoFaultPlan`]. Writers returned by
/// [`GrimpFs::open_writer`] share the operation counter, so a single plan
/// governs an entire run.
#[derive(Debug)]
pub struct FaultFs {
    real: RealFs,
    state: Rc<RefCell<FaultState>>,
}

impl FaultFs {
    /// A faulting filesystem following `plan`.
    pub fn new(plan: IoFaultPlan) -> FaultFs {
        FaultFs {
            real: RealFs,
            state: Rc::new(RefCell::new(FaultState {
                plan,
                ops: 0,
                injected: 0,
            })),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> usize {
        self.state.borrow().injected
    }

    /// Mutating operations seen so far.
    pub fn ops(&self) -> usize {
        self.state.borrow().ops
    }

    fn decide(&mut self, is_write: bool) -> Option<IoFaultKind> {
        self.state.borrow_mut().decide(is_write)
    }

    /// Perform a whole-file write under the fault plan: torn writes
    /// persist the first half of `bytes` before failing.
    fn faulted_write(
        &mut self,
        path: &Path,
        bytes: &[u8],
        do_write: impl FnOnce(&mut RealFs, &Path, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.decide(true) {
            Some(IoFaultKind::TornWrite) => {
                let half = bytes.len() / 2;
                do_write(&mut self.real, path, &bytes[..half])?;
                Err(fault_error(IoFaultKind::TornWrite))
            }
            Some(kind) => Err(fault_error(kind)),
            None => do_write(&mut self.real, path, bytes),
        }
    }
}

impl GrimpFs for FaultFs {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.real.read(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.faulted_write(path, bytes, |fs, p, b| fs.write(p, b))
    }

    fn create_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.faulted_write(path, bytes, |fs, p, b| fs.create_new(p, b))
    }

    fn open_writer(&mut self, path: &Path) -> io::Result<Box<dyn Write>> {
        // Opening counts as one mutating op (it truncates); subsequent
        // writes through the returned handle each count as one more.
        if let Some(kind) = self.decide(true) {
            if kind != IoFaultKind::TornWrite {
                return Err(fault_error(kind));
            }
        }
        let inner = self.real.open_writer(path)?;
        Ok(Box::new(FaultWriter {
            inner,
            state: Rc::clone(&self.state),
        }))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide(false) {
            Some(kind) => Err(fault_error(kind)),
            None => self.real.rename(from, to),
        }
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        match self.decide(false) {
            Some(kind) => Err(fault_error(kind)),
            None => self.real.remove(path),
        }
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        match self.decide(false) {
            Some(kind) => Err(fault_error(kind)),
            None => self.real.sync(path),
        }
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        match self.decide(false) {
            Some(kind) => Err(fault_error(kind)),
            None => self.real.create_dir_all(path),
        }
    }
}

/// Streaming writer handed out by [`FaultFs::open_writer`]; shares the
/// fault plan's operation counter with the filesystem that created it.
struct FaultWriter {
    inner: Box<dyn Write>,
    state: Rc<RefCell<FaultState>>,
}

impl Write for FaultWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state.borrow_mut().decide(true) {
            Some(IoFaultKind::TornWrite) => {
                let half = buf.len() / 2;
                self.inner.write_all(&buf[..half])?;
                Err(fault_error(IoFaultKind::TornWrite))
            }
            Some(kind) => Err(fault_error(kind)),
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Whether an IO error is worth retrying (the shape [`FaultFs`] injects
/// for [`IoFaultKind::Transient`]).
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Default attempt count for [`with_retry`].
pub const IO_RETRY_ATTEMPTS: usize = 3;

/// The deterministic extra wait added to retry number `attempt` when the
/// base backoff is `delay_ms`: a pure function of `attempt` in
/// `[0, delay_ms / 4]` milliseconds, so every run replays its exact sleep
/// schedule.
pub fn retry_jitter(attempt: u64, delay_ms: u64) -> Duration {
    let quarter = delay_ms / 4;
    if quarter == 0 {
        return Duration::ZERO;
    }
    Duration::from_millis(splitmix64(attempt.wrapping_mul(0x9E37_79B9)) % (quarter + 1))
}

/// Run `f`, retrying transient IO errors up to `attempts` times with a
/// deterministic doubling backoff (1 ms, 2 ms, 4 ms, … capped at 64 ms)
/// plus [`retry_jitter`]. Non-transient errors return immediately.
pub fn with_retry<T, F: FnMut() -> io::Result<T>>(attempts: usize, f: F) -> io::Result<T> {
    with_retry_capped(attempts, None, f)
}

/// [`with_retry`] with a total-elapsed cap: once `cap` wall-clock time has
/// passed (checked *between* attempts, before each backoff sleep), the
/// last transient error is returned instead of sleeping again. This is how
/// a governor deadline reaches the retry loop — a run whose budget is
/// nearly spent must not burn the remainder sleeping on a flaky disk.
/// `cap: None` never gives up early. The first attempt always runs, so an
/// already-expired cap degrades to a single try, not to a synthetic error.
pub fn with_retry_capped<T, F: FnMut() -> io::Result<T>>(
    attempts: usize,
    cap: Option<Duration>,
    mut f: F,
) -> io::Result<T> {
    let attempts = attempts.max(1);
    let start = std::time::Instant::now();
    let mut delay_ms = 1u64;
    let mut attempt = 0;
    loop {
        attempt += 1;
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < attempts => {
                if cap.is_some_and(|cap| start.elapsed() >= cap) {
                    return Err(e);
                }
                let jitter = retry_jitter(attempt as u64, delay_ms);
                std::thread::sleep(Duration::from_millis(delay_ms) + jitter);
                delay_ms = (delay_ms * 2).min(64);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, then rename
/// over the destination. A crash mid-write leaves either the old file or
/// nothing — never a truncated `path`. Transient faults are retried.
pub fn atomic_write(fs: &mut dyn GrimpFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    with_retry(IO_RETRY_ATTEMPTS, || fs.write(&tmp, bytes))?;
    with_retry(IO_RETRY_ATTEMPTS, || fs.rename(&tmp, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("grimp-fs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn real_fs_roundtrips() {
        let dir = tmpdir("real");
        let mut fs = RealFs;
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        fs.write(&a, b"hello").expect("write");
        assert_eq!(fs.read(&a).expect("read"), b"hello");
        fs.rename(&a, &b).expect("rename");
        assert!(!fs.exists(&a) && fs.exists(&b));
        fs.remove(&b).expect("remove");
        assert!(!fs.exists(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_new_refuses_existing_files() {
        let dir = tmpdir("createnew");
        let mut fs = RealFs;
        let p = dir.join("lock");
        fs.create_new(&p, b"1").expect("first create");
        let err = fs.create_new(&p, b"2").expect_err("second create");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_faults_every_mutating_op_and_spares_reads() {
        let dir = tmpdir("enospc");
        let pre = dir.join("pre.bin");
        std::fs::write(&pre, b"data").expect("seed file");
        let mut fs = FaultFs::new(IoFaultPlan::persistent(IoFaultKind::Enospc));
        let err = fs.write(&dir.join("x"), b"x").expect_err("write faults");
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(fs.rename(&pre, &dir.join("y")).is_err());
        assert!(fs.remove(&pre).is_err());
        assert_eq!(fs.read(&pre).expect("reads pass"), b"data");
        assert_eq!(fs.injected(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_persists_half_the_bytes_then_fails() {
        let dir = tmpdir("torn");
        let p = dir.join("torn.bin");
        let mut fs = FaultFs::new(IoFaultPlan::persistent(IoFaultKind::TornWrite));
        let err = fs.write(&p, b"0123456789").expect_err("torn write fails");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(std::fs::read(&p).expect("half on disk"), b"01234");
        // Renames pass through untouched under a torn-write plan.
        fs.rename(&p, &dir.join("moved.bin"))
            .expect("rename passes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fails_n_times_then_succeeds() {
        let dir = tmpdir("transient");
        let p = dir.join("t.bin");
        let mut fs = FaultFs::new(IoFaultPlan::transient(2));
        assert!(fs.write(&p, b"a").is_err());
        assert!(fs.write(&p, b"a").is_err());
        fs.write(&p, b"a").expect("third attempt succeeds");
        assert_eq!(fs.injected(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        for attempt in 0..64u64 {
            let a = retry_jitter(attempt, 64);
            let b = retry_jitter(attempt, 64);
            assert_eq!(a, b, "the same attempt must jitter identically");
            assert!(a <= Duration::from_millis(16), "jitter stays in delay/4");
        }
        // Tiny delays degrade to zero jitter, keeping 1–2 ms backoffs tight.
        for delay in 0..4u64 {
            assert_eq!(retry_jitter(7, delay), Duration::ZERO);
        }
    }

    #[test]
    fn with_retry_recovers_from_transient_faults_only() {
        let dir = tmpdir("retry");
        let p = dir.join("r.bin");
        let mut fs = FaultFs::new(IoFaultPlan::transient(2));
        with_retry(IO_RETRY_ATTEMPTS, || fs.write(&p, b"ok")).expect("retry wins");
        assert_eq!(std::fs::read(&p).expect("file"), b"ok");

        let mut fs = FaultFs::new(IoFaultPlan::persistent(IoFaultKind::PermissionDenied));
        let err = with_retry(IO_RETRY_ATTEMPTS, || fs.write(&p, b"no")).expect_err("no retry");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        // Persistent errors are not retried: exactly one attempt consumed.
        assert_eq!(fs.ops(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_retry_gives_up_once_the_budget_is_spent() {
        // An expired cap (a governor deadline already blown) still runs the
        // first attempt, but never sleeps into a second one.
        let mut calls = 0;
        let err = with_retry_capped(IO_RETRY_ATTEMPTS, Some(Duration::ZERO), || {
            calls += 1;
            Err::<(), _>(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
        })
        .expect_err("budget spent");
        assert!(is_transient(&err));
        assert_eq!(calls, 1, "no retry after the cap expired");

        // A generous cap behaves exactly like the uncapped retry loop.
        let mut calls = 0;
        with_retry_capped(IO_RETRY_ATTEMPTS, Some(Duration::from_secs(60)), || {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(())
            }
        })
        .expect("retry wins under a roomy cap");
        assert_eq!(calls, 3);
    }

    #[test]
    fn capped_retry_still_fails_fast_on_persistent_errors() {
        let mut calls = 0;
        let err = with_retry_capped(IO_RETRY_ATTEMPTS, Some(Duration::from_secs(60)), || {
            calls += 1;
            Err::<(), _>(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        })
        .expect_err("persistent error");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn fault_writer_shares_the_plan_counter() {
        let dir = tmpdir("writer");
        let p = dir.join("w.jsonl");
        // One transient fault: the open consumes it, writes then succeed.
        let mut fs = FaultFs::new(IoFaultPlan::transient(1));
        let err = match fs.open_writer(&p) {
            Err(e) => e,
            Ok(_) => panic!("open must fault"),
        };
        assert!(is_transient(&err));
        let mut w = fs.open_writer(&p).expect("second open passes");
        w.write_all(b"line\n").expect("write passes");
        w.flush().expect("flush");
        drop(w);
        assert_eq!(std::fs::read(&p).expect("file"), b"line\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_never_leaves_a_truncated_destination() {
        let dir = tmpdir("atomic");
        let p = dir.join("out.csv");
        let mut fs = RealFs;
        atomic_write(&mut fs, &p, b"v1").expect("first write");
        assert_eq!(std::fs::read(&p).expect("file"), b"v1");

        // A torn write faults the tmp file; the destination keeps v1.
        let mut faulty = FaultFs::new(IoFaultPlan::persistent(IoFaultKind::TornWrite));
        assert!(atomic_write(&mut faulty, &p, b"v2-much-longer").is_err());
        assert_eq!(std::fs::read(&p).expect("file intact"), b"v1");

        // Transient faults are absorbed by the built-in retry.
        let mut flaky = FaultFs::new(IoFaultPlan::transient(2));
        atomic_write(&mut flaky, &p, b"v3").expect("retried write");
        assert_eq!(std::fs::read(&p).expect("file"), b"v3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_specs_parse_and_reject() {
        assert_eq!(
            IoFaultPlan::parse("enospc"),
            Some(IoFaultPlan::persistent(IoFaultKind::Enospc))
        );
        assert_eq!(
            IoFaultPlan::parse("transient"),
            Some(IoFaultPlan::transient(2))
        );
        assert_eq!(
            IoFaultPlan::parse("torn:1:5"),
            Some(IoFaultPlan {
                kind: IoFaultKind::TornWrite,
                from_op: 5,
                times: 1,
            })
        );
        for bad in ["", "eio", "enospc:x", "enospc:1:2:3"] {
            assert_eq!(IoFaultPlan::parse(bad), None, "{bad:?}");
        }
        for kind in IoFaultKind::all() {
            assert_eq!(IoFaultKind::from_label(kind.label()), Some(kind));
        }
    }
}
