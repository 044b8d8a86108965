//! The crash-safe storage layer.
//!
//! Every byte of persistent state in the pipeline — special-row files,
//! special-column files and the combined Stage-1 checkpoint — goes through
//! this module. At paper scale, Stage 1 keeps the GPU busy for 18.5 hours
//! while streaming rows to a disk area: at that horizon a torn write, a
//! bit-flip or a full disk are not exceptional, they are expected, and
//! each must *degrade* the run (fewer special rows, larger partitions, a
//! lost snapshot) rather than corrupt the alignment.
//!
//! Three mechanisms deliver that:
//!
//! * **Framing.** Each file is `magic + job fingerprint + index + origin +
//!   length + CRC32(payload) + payload`. Readers verify all of it before a
//!   single cell is decoded, so a truncated, bit-flipped, misnamed or
//!   *stale* file (from a different sequence pair, scoring or grid) is
//!   detected and rejected as a typed [`StorageError`] — never fed into
//!   Stage 2's goal-based matching as plausible `H`/`F` values.
//! * **Atomicity.** Writes land in a `.tmp` sibling first and are
//!   `rename`d into place, so a crash mid-write leaves either the old
//!   file or a `.tmp` orphan (swept on the next run), never a half frame
//!   under the real name. Transient errors are retried with a short
//!   backoff; persistent ones surface as [`StorageError::Io`].
//! * **Fault injection.** The [`fault`] hook (mirroring
//!   `gpu_sim::exec::fault`) lets integration tests inject torn writes,
//!   `ENOSPC`, transient failures, corrupt reads and a simulated
//!   kill-at-diagonal into a real pipeline run, which is how the
//!   crash-recovery torture suite exercises every degradation path.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic prefix of a framed line file.
pub const FRAME_MAGIC: [u8; 8] = *b"CAL2SRF1";
/// Magic prefix of a checksummed checkpoint envelope.
pub const CKPT_MAGIC: [u8; 8] = *b"CAL2CKP1";
/// Bytes of a frame header: magic, fingerprint, index, origin, len, CRC.
pub const FRAME_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 8 + 4;
/// Bytes of a checkpoint envelope header: magic, fingerprint, len, CRC.
pub const CKPT_HEADER_BYTES: usize = 8 + 8 + 8 + 4;

/// Attempts per write (1 initial + retries) before giving up.
const WRITE_ATTEMPTS: u32 = 4;
/// Backoff before the first retry (doubled each time, capped).
const BACKOFF: Duration = Duration::from_millis(1);
/// Upper bound on the doubling base: however many attempts a future
/// retry budget allows, no single sleep exceeds this plus its jitter.
const BACKOFF_CAP: Duration = Duration::from_millis(16);

/// A storage failure, typed so callers can choose a reaction: `Io` means
/// the backend refused us (retry exhausted / disk full), `Corrupt` means
/// the bytes on disk are not what we wrote (drop the line and continue),
/// `ForeignFingerprint` means the file belongs to a *different job* and
/// adopting it would silently corrupt the alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The operating system failed the operation after retries.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Operation name (`"write"`, `"rename"`, `"read"`, ...).
        op: &'static str,
        /// The underlying error text.
        msg: String,
    },
    /// The file exists but fails structural or checksum validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What check failed.
        reason: String,
    },
    /// The file carries a valid frame for a different job (other
    /// sequences, scoring or grid) — e.g. stale state from a crashed run
    /// with different inputs in the same directory.
    ForeignFingerprint {
        /// Offending file.
        path: PathBuf,
        /// Fingerprint of the current job.
        expected: u64,
        /// Fingerprint found in the file.
        found: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { path, op, msg } => {
                write!(f, "storage {op} failed on {}: {msg}", path.display())
            }
            StorageError::Corrupt { path, reason } => {
                write!(f, "corrupt storage file {}: {reason}", path.display())
            }
            StorageError::ForeignFingerprint { path, expected, found } => write!(
                f,
                "stale storage file {}: job fingerprint {found:#018x} != expected {expected:#018x}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    fn io(path: &Path, op: &'static str, e: &io::Error) -> Self {
        StorageError::Io { path: path.to_path_buf(), op, msg: e.to_string() }
    }

    fn corrupt(path: &Path, reason: impl Into<String>) -> Self {
        StorageError::Corrupt { path: path.to_path_buf(), reason: reason.into() }
    }
}

/// Little-endian `u64` at byte offset `at`. Reads past the end are
/// zero-filled instead of panicking; every caller validates the buffer
/// length first, this just keeps header decoding panic-free.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    for (d, s) in b.iter_mut().zip(bytes.iter().skip(at)) {
        *d = *s;
    }
    u64::from_le_bytes(b)
}

/// Little-endian `u32` at byte offset `at`; see [`le_u64`].
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    for (d, s) in b.iter_mut().zip(bytes.iter().skip(at)) {
        *d = *s;
    }
    u32::from_le_bytes(b)
}

// ---------------------------------------------------------------------------
// Filesystem access for the rest of the crate
// ---------------------------------------------------------------------------
//
// All persistent state flows through this module (the `fs-isolation` lint
// enforces it), so the few directory-level operations other modules need
// live here as thin, typed wrappers.

/// Create `dir` and any missing parents.
pub fn ensure_dir(dir: &Path) -> Result<(), StorageError> {
    std::fs::create_dir_all(dir).map_err(|e| StorageError::io(dir, "create_dir_all", &e))
}

/// Delete `path`, reporting whether a file was actually removed. Failures
/// (already gone, permissions) are swallowed: callers use this for sweeps
/// and cleanups where the only interesting outcome is the sweep count.
pub fn remove_file_quiet(path: &Path) -> bool {
    std::fs::remove_file(path).is_ok()
}

/// Paths of all entries in `dir`.
pub fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
    let rd = std::fs::read_dir(dir).map_err(|e| StorageError::io(dir, "read_dir", &e))?;
    let mut out = Vec::new();
    for entry in rd {
        out.push(entry.map_err(|e| StorageError::io(dir, "read_dir", &e))?.path());
    }
    Ok(out)
}

/// Size of `path` in bytes, or `None` if it cannot be stat'ed.
pub fn file_len(path: &Path) -> Option<u64> {
    std::fs::metadata(path).map(|m| m.len()).ok()
}

// ---------------------------------------------------------------------------
// CRC32 (ISO-HDLC, the zlib polynomial)
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table of
/// the reflected polynomial `0xEDB88320`, and `CRC_TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes, so eight table lookups
/// advance the CRC by eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32/ISO-HDLC of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32/ISO-HDLC of the concatenation of `parts`, without materializing
/// it. Frames checksum header-fields-plus-payload this way.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(0xFFFF_FFFF, |crc, part| crc32_update(crc, part))
}

/// Advance a (pre-inverted) CRC register over `bytes`, eight bytes per
/// step through [`CRC_TABLES`], then bytewise over the tail.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

// ---------------------------------------------------------------------------
// Job fingerprint
// ---------------------------------------------------------------------------

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Fingerprint of one alignment job: sequence lengths, scoring and both
/// grid shapes (everything that determines which `H`/`F`/`E` values a
/// special line may legally contain). Persistent files carry it in their
/// header; a reopen under any other job rejects them.
pub fn job_fingerprint(
    m: usize,
    n: usize,
    scoring: &sw_core::Scoring,
    grid1: &gpu_sim::GridSpec,
    grid23: &gpu_sim::GridSpec,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, &(m as u64).to_le_bytes());
    fnv(&mut h, &(n as u64).to_le_bytes());
    for v in [scoring.match_score, scoring.mismatch_score, scoring.gap_first, scoring.gap_ext] {
        fnv(&mut h, &v.to_le_bytes());
    }
    for g in [grid1, grid23] {
        for v in [g.blocks, g.threads, g.alpha] {
            fnv(&mut h, &(v as u64).to_le_bytes());
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Framed line files
// ---------------------------------------------------------------------------

/// Header of a framed line file (a special row or column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Job fingerprint the line belongs to.
    pub fingerprint: u64,
    /// Line index (DP row or column number).
    pub index: u64,
    /// First absolute coordinate covered by the payload.
    pub origin: u64,
    /// Number of 8-byte cells in the payload.
    pub len: u64,
}

fn encode_frame(meta: &FrameMeta, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(payload.len() as u64, meta.len * crate::sra::CELL_BYTES);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&meta.fingerprint.to_le_bytes());
    out.extend_from_slice(&meta.index.to_le_bytes());
    out.extend_from_slice(&meta.origin.to_le_bytes());
    out.extend_from_slice(&meta.len.to_le_bytes());
    // The CRC covers the header fields too, so a bit flip in the index
    // or origin cannot pair silently with an intact payload.
    out.extend_from_slice(&crc32_parts(&[&out, payload]).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write a framed line file atomically (tmp sibling + rename), retrying
/// transient failures with backoff. Returns the number of retries used.
pub fn write_frame(path: &Path, meta: &FrameMeta, payload: &[u8]) -> Result<u32, StorageError> {
    write_with_retry(path, &encode_frame(meta, payload), meta.fingerprint)
}

/// Read and fully validate a framed line file: magic, fingerprint,
/// payload length and CRC. Returns the header and the raw payload; no
/// cell is decoded unless every check passed.
pub fn read_frame(path: &Path, expected_fp: u64) -> Result<(FrameMeta, Vec<u8>), StorageError> {
    let mut bytes = std::fs::read(path).map_err(|e| StorageError::io(path, "read", &e))?;
    fault::corrupt_if_armed(&mut bytes);
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(StorageError::corrupt(
            path,
            format!("truncated header ({} of {FRAME_HEADER_BYTES} bytes)", bytes.len()),
        ));
    }
    if bytes[..8] != FRAME_MAGIC {
        return Err(StorageError::corrupt(path, "bad magic"));
    }
    let meta = FrameMeta {
        fingerprint: le_u64(&bytes, 8),
        index: le_u64(&bytes, 16),
        origin: le_u64(&bytes, 24),
        len: le_u64(&bytes, 32),
    };
    if meta.fingerprint != expected_fp {
        return Err(StorageError::ForeignFingerprint {
            path: path.to_path_buf(),
            expected: expected_fp,
            found: meta.fingerprint,
        });
    }
    let want = meta.len.saturating_mul(crate::sra::CELL_BYTES);
    let have = (bytes.len() - FRAME_HEADER_BYTES) as u64;
    if have != want {
        return Err(StorageError::corrupt(
            path,
            format!("payload is {have} bytes, header promises {want}"),
        ));
    }
    let stored_crc = le_u32(&bytes, 40);
    let actual = crc32_parts(&[&bytes[..40], &bytes[FRAME_HEADER_BYTES..]]);
    let payload = bytes.split_off(FRAME_HEADER_BYTES);
    if actual != stored_crc {
        return Err(StorageError::corrupt(
            path,
            format!("checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"),
        ));
    }
    Ok((meta, payload))
}

// ---------------------------------------------------------------------------
// Checksummed checkpoint envelopes
// ---------------------------------------------------------------------------

/// Atomically write `payload` under a checksummed envelope (magic +
/// fingerprint + length + CRC). Used for the Stage-1 combined checkpoint,
/// whose inner format has structure but no integrity check of its own — a
/// bit-flipped bus value would otherwise decode cleanly and poison the
/// resumed wavefront. Returns the number of retries used.
pub fn write_checksummed(
    path: &Path,
    fingerprint: u64,
    payload: &[u8],
) -> Result<u32, StorageError> {
    let mut out = Vec::with_capacity(CKPT_HEADER_BYTES + payload.len());
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32_parts(&[&out, payload]).to_le_bytes());
    out.extend_from_slice(payload);
    write_with_retry(path, &out, fingerprint)
}

/// Read and validate a checksummed envelope written by
/// [`write_checksummed`], returning the payload.
pub fn read_checksummed(path: &Path, expected_fp: u64) -> Result<Vec<u8>, StorageError> {
    let mut bytes = std::fs::read(path).map_err(|e| StorageError::io(path, "read", &e))?;
    fault::corrupt_if_armed(&mut bytes);
    if bytes.len() < CKPT_HEADER_BYTES {
        return Err(StorageError::corrupt(path, "truncated envelope header"));
    }
    if bytes[..8] != CKPT_MAGIC {
        return Err(StorageError::corrupt(path, "bad envelope magic"));
    }
    let found = le_u64(&bytes, 8);
    if found != expected_fp {
        return Err(StorageError::ForeignFingerprint {
            path: path.to_path_buf(),
            expected: expected_fp,
            found,
        });
    }
    let len = le_u64(&bytes, 16);
    if (bytes.len() - CKPT_HEADER_BYTES) as u64 != len {
        return Err(StorageError::corrupt(path, "payload length mismatch"));
    }
    let stored_crc = le_u32(&bytes, 24);
    let actual = crc32_parts(&[&bytes[..24], &bytes[CKPT_HEADER_BYTES..]]);
    let payload = bytes.split_off(CKPT_HEADER_BYTES);
    if actual != stored_crc {
        return Err(StorageError::corrupt(path, "envelope checksum mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Atomic write with bounded retry
// ---------------------------------------------------------------------------

/// The tmp sibling a path is staged under before the atomic rename.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A failed write attempt, tagged with whether retrying can help.
struct AttemptError {
    err: StorageError,
    transient: bool,
}

impl AttemptError {
    fn from_io(path: &Path, op: &'static str, e: &io::Error) -> Self {
        AttemptError { err: StorageError::io(path, op, e), transient: is_transient(e) }
    }
}

/// One staged write: fault hook, then tmp + rename.
fn attempt_write(path: &Path, tmp: &Path, frame: &[u8]) -> Result<(), AttemptError> {
    match fault::take_write_fault() {
        Some(fault::WriteFault::Torn { keep_bytes }) => {
            // Simulate hardware that acknowledged a write it only half
            // performed (e.g. power loss after a lying fsync): a truncated
            // frame lands under the *final* name and the caller is told it
            // succeeded. Readers must catch this via length/CRC checks.
            let keep = keep_bytes.min(frame.len());
            std::fs::write(path, &frame[..keep])
                .map_err(|e| AttemptError::from_io(path, "write", &e))?;
            Ok(())
        }
        Some(fault::WriteFault::Enospc) => Err(AttemptError {
            err: StorageError::Io {
                path: path.to_path_buf(),
                op: "write",
                msg: "injected: no space left on device".into(),
            },
            transient: false,
        }),
        Some(fault::WriteFault::Transient) => {
            Err(AttemptError::from_io(path, "write", &io::Error::from(io::ErrorKind::Interrupted)))
        }
        None => {
            std::fs::write(tmp, frame).map_err(|e| AttemptError::from_io(tmp, "write", &e))?;
            std::fs::rename(tmp, path).map_err(|e| AttemptError::from_io(path, "rename", &e))?;
            Ok(())
        }
    }
}

/// Deterministic backoff before retry `attempt` (0-based) of a write to
/// `path`: a doubling base capped at [`BACKOFF_CAP`], plus a jitter of up
/// to half the base seeded from the path, the attempt, and the caller's
/// `salt` (the job fingerprint) so concurrent strips flushing into one
/// directory — and concurrent *jobs* retrying the same shared path —
/// don't wake in lockstep and re-collide. A pure function of its inputs —
/// fault tests assert the exact schedule.
fn backoff_delay(path: &Path, attempt: u32, salt: u64) -> Duration {
    let base_us =
        ((BACKOFF.as_micros() as u64) << attempt.min(31)).min(BACKOFF_CAP.as_micros() as u64);
    // FNV-1a over the path bytes, folded with the salt and attempt number.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.to_string_lossy().as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in salt.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ u64::from(attempt)).wrapping_mul(0x0000_0100_0000_01b3);
    let jitter_us = if base_us == 0 { 0 } else { h % (base_us / 2 + 1) };
    Duration::from_micros(base_us + jitter_us)
}

/// Write `frame` to `path` atomically, retrying transient failures up to
/// [`WRITE_ATTEMPTS`] times with capped, jittered doubling backoff (see
/// [`backoff_delay`]). Sleeps route through [`fault::backoff_sleep`] so
/// fault tests observe the schedule without real wall-clock sleeps. On
/// final failure the tmp sibling is removed so no orphan survives a
/// *reported* error.
fn write_with_retry(path: &Path, frame: &[u8], salt: u64) -> Result<u32, StorageError> {
    let tmp = tmp_sibling(path);
    let mut attempt = 0;
    loop {
        match attempt_write(path, &tmp, frame) {
            Ok(()) => return Ok(attempt),
            Err(AttemptError { err, transient }) if !transient || attempt + 1 >= WRITE_ATTEMPTS => {
                let _ = std::fs::remove_file(&tmp);
                return Err(err);
            }
            Err(_) => {
                fault::backoff_sleep(backoff_delay(path, attempt, salt));
                attempt += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Runtime fault-injection hooks, mirroring `gpu_sim::exec::fault`.
///
/// `cfg(test)` does not cross crates, so the crash-recovery torture tests
/// (the `tests/tests/` crate) need runtime switches to make disk failures
/// and mid-run kills happen on demand inside a real pipeline run. All
/// state is process-global; tests that arm anything must serialize behind
/// a shared mutex and disarm on exit. Disarmed, the cost per operation is
/// one mutex lock on writes and one relaxed atomic load elsewhere.
#[doc(hidden)]
pub mod fault {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// What an armed write does when its countdown fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WriteFault {
        /// Write only the first `keep_bytes` bytes under the final name
        /// and report success (a torn write the OS never surfaced).
        Torn {
            /// Bytes of the frame that actually reach the disk.
            keep_bytes: usize,
        },
        /// Fail with a non-transient "no space left on device" error.
        Enospc,
        /// Fail with a transient (retryable) error.
        Transient,
    }

    struct WritePlan {
        /// Write attempts left before the fault fires.
        countdown: u64,
        fault: WriteFault,
        /// How many consecutive attempts the fault affects (lets a
        /// transient plan outlast — or not — the retry budget).
        hits_left: u32,
    }

    static WRITE_PLAN: Mutex<Option<WritePlan>> = Mutex::new(None);

    /// The write plan, recovering from poisoning: a panicking test must
    /// not wedge every later storage write behind a poisoned lock.
    fn write_plan() -> std::sync::MutexGuard<'static, Option<WritePlan>> {
        WRITE_PLAN.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replacement for the real backoff sleep. Tests that arm write
    /// faults install one to record the retry schedule (and skip the
    /// wall-clock wait); `None` means sleep for real.
    type SleepHook = Arc<dyn Fn(Duration) + Send + Sync>;
    static SLEEP_HOOK: Mutex<Option<SleepHook>> = Mutex::new(None);

    /// The sleep hook, recovering from poisoning like [`write_plan`].
    fn sleep_hook() -> std::sync::MutexGuard<'static, Option<SleepHook>> {
        SLEEP_HOOK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a replacement for the retry backoff sleep. Cleared by
    /// [`disarm_all`].
    pub fn set_sleep_hook(hook: impl Fn(Duration) + Send + Sync + 'static) {
        *sleep_hook() = Some(Arc::new(hook));
    }

    /// Sleep `d` before a write retry — through the installed hook when
    /// one is armed, else for real. The `std::thread::sleep` here is the
    /// single sanctioned backoff sleep in this crate (see the
    /// `sleep-injection` lint).
    pub(crate) fn backoff_sleep(d: Duration) {
        let hook = sleep_hook().clone();
        match hook {
            Some(h) => h(d),
            None => std::thread::sleep(d),
        }
    }

    /// `< 0`: disarmed. Otherwise the read that decrements it to exactly
    /// zero gets a bit flipped.
    static READ_CORRUPT: AtomicI64 = AtomicI64::new(-1);
    /// `< 0`: disarmed. Otherwise Stage 1 aborts (simulated process kill)
    /// at the first block whose external diagonal reaches this value.
    static STAGE1_KILL: AtomicI64 = AtomicI64::new(-1);

    /// Arm a write fault: the `nth` write attempt from now (0-based)
    /// applies `fault`, and so do the `times - 1` attempts after it.
    pub fn arm_write(nth: u64, fault: WriteFault, times: u32) {
        *write_plan() = Some(WritePlan { countdown: nth, fault, hits_left: times.max(1) });
    }

    /// Arm a corrupt read: the `nth` storage read from now (0-based) has
    /// one payload bit flipped before validation.
    pub fn arm_read_corrupt(nth: u64) {
        READ_CORRUPT.store(nth as i64, Ordering::SeqCst);
    }

    /// Arm a simulated kill: Stage 1 aborts with a typed error at the
    /// first block whose completed-diagonal frontier is `>= diagonal`
    /// (in diagonal order, the first block of that diagonal).
    pub fn arm_stage1_kill(diagonal: usize) {
        STAGE1_KILL.store(diagonal as i64, Ordering::SeqCst);
    }

    /// The armed kill diagonal, if any.
    pub fn stage1_kill() -> Option<usize> {
        let v = STAGE1_KILL.load(Ordering::Relaxed);
        (v >= 0).then_some(v as usize)
    }

    /// Serialize tests that arm faults (or perform disk I/O that an armed
    /// fault could affect). All fault state is process-global, so two
    /// concurrently running tests would otherwise steal each other's
    /// injections. Poisoning is ignored: a failed test must not cascade.
    pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Disarm every hook.
    pub fn disarm_all() {
        *write_plan() = None;
        *sleep_hook() = None;
        READ_CORRUPT.store(-1, Ordering::SeqCst);
        STAGE1_KILL.store(-1, Ordering::SeqCst);
    }

    pub(crate) fn take_write_fault() -> Option<WriteFault> {
        let mut plan = write_plan();
        let p = plan.as_mut()?;
        if p.countdown > 0 {
            p.countdown -= 1;
            return None;
        }
        let fault = p.fault;
        p.hits_left -= 1;
        if p.hits_left == 0 {
            *plan = None;
        }
        Some(fault)
    }

    pub(crate) fn corrupt_if_armed(bytes: &mut [u8]) {
        if READ_CORRUPT.load(Ordering::Relaxed) < 0 {
            return;
        }
        if READ_CORRUPT.fetch_sub(1, Ordering::SeqCst) == 0 && !bytes.is_empty() {
            // Flip a bit past the header when possible so the corruption
            // lands in the payload (the CRC-guarded region).
            let at = if bytes.len() > super::FRAME_HEADER_BYTES {
                super::FRAME_HEADER_BYTES + (bytes.len() - super::FRAME_HEADER_BYTES) / 2
            } else {
                bytes.len() / 2
            };
            bytes[at] ^= 0x10;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cudalign-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Slicing-by-8 against the bytewise table CRC, on random inputs
    /// split into parts at random points (parts of any length, empty ones
    /// included, so every alignment of the 8-byte steps is exercised).
    #[test]
    fn sliced_crc_matches_bytewise_on_random_parts() {
        use rand::{Rng, SeedableRng};
        let bytewise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3);
        for case in 0..300 {
            let len = rng.gen_range(0..600usize);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let cuts = rng.gen_range(0..6usize);
            let mut cuts: Vec<usize> = (0..cuts).map(|_| rng.gen_range(0..len + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([len].iter()) {
                parts.push(&data[from..cut]);
                from = cut;
            }
            assert_eq!(
                crc32_parts(&parts),
                bytewise(&data),
                "case {case}: len {len}, cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn frame_roundtrip_and_validation() {
        let _guard = fault::test_guard();
        let dir = tmpdir("frame");
        let path = dir.join("row-5-0.bin");
        let meta = FrameMeta { fingerprint: 0xABCD, index: 5, origin: 0, len: 2 };
        let payload = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        assert_eq!(write_frame(&path, &meta, &payload).unwrap(), 0);
        assert!(!tmp_sibling(&path).exists(), "tmp sibling renamed away");
        let (got, body) = read_frame(&path, 0xABCD).unwrap();
        assert_eq!(got, meta);
        assert_eq!(body, payload);

        // Foreign fingerprint.
        match read_frame(&path, 0x1234) {
            Err(StorageError::ForeignFingerprint { expected, found, .. }) => {
                assert_eq!(expected, 0x1234);
                assert_eq!(found, 0xABCD);
            }
            other => panic!("expected ForeignFingerprint, got {other:?}"),
        }

        // Truncation at every byte boundary must be Corrupt or Io, never a panic.
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(read_frame(&path, 0xABCD), Err(StorageError::Corrupt { .. })),
                "cut at {cut} must be detected"
            );
        }

        // Single bit-flips anywhere in the frame are detected.
        for at in 0..full.len() {
            let mut bad = full.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_frame(&path, 0xABCD).is_err(), "bit flip at {at} must be detected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_envelope_roundtrip() {
        let _guard = fault::test_guard();
        let dir = tmpdir("ckpt");
        let path = dir.join("stage1.ckpt");
        let payload = b"CKS1-some-inner-bytes".to_vec();
        write_checksummed(&path, 7, &payload).unwrap();
        assert_eq!(read_checksummed(&path, 7).unwrap(), payload);
        assert!(matches!(read_checksummed(&path, 8), Err(StorageError::ForeignFingerprint { .. })));
        let mut bad = std::fs::read(&path).unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(read_checksummed(&path, 7), Err(StorageError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried() {
        let _guard = fault::test_guard();
        let dir = tmpdir("retry");
        let path = dir.join("row-1-0.bin");
        let meta = FrameMeta { fingerprint: 1, index: 1, origin: 0, len: 1 };
        fault::arm_write(0, fault::WriteFault::Transient, 2);
        fault::set_sleep_hook(|_| {});
        let retries = write_frame(&path, &meta, &[0u8; 8]).unwrap();
        fault::disarm_all();
        assert_eq!(retries, 2, "two transient failures then success");
        assert!(read_frame(&path, 1).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_routed_through_hook() {
        let _guard = fault::test_guard();
        let dir = tmpdir("backoff");
        let path = dir.join("row-9-0.bin");
        let meta = FrameMeta { fingerprint: 9, index: 9, origin: 0, len: 1 };

        // Three transient failures exhaust every sleep the budget allows;
        // the hook records them instead of stalling on real wall-clock.
        let slept = std::sync::Arc::new(std::sync::Mutex::new(Vec::<Duration>::new()));
        let rec = std::sync::Arc::clone(&slept);
        fault::set_sleep_hook(move |d| rec.lock().unwrap().push(d));
        fault::arm_write(0, fault::WriteFault::Transient, 3);
        let retries = write_frame(&path, &meta, &[0u8; 8]).unwrap();
        fault::disarm_all();
        assert_eq!(retries, 3);

        let slept = slept.lock().unwrap().clone();
        let expect: Vec<Duration> =
            (0..3).map(|k| backoff_delay(&path, k, meta.fingerprint)).collect();
        assert_eq!(slept, expect, "recorded sleeps match the pure schedule");

        for (k, d) in expect.iter().enumerate() {
            let base = Duration::from_millis(1 << k).min(BACKOFF_CAP);
            assert!(*d >= base, "attempt {k}: jitter only adds");
            assert!(*d <= base + base / 2, "attempt {k}: jitter bounded by half the base");
        }
        // The doubling base saturates at the cap, jitter included.
        let worst = backoff_delay(&path, 40, meta.fingerprint);
        assert!(worst <= BACKOFF_CAP + BACKOFF_CAP / 2);
        assert!(worst >= BACKOFF_CAP);
        // Different paths decorrelate: at least one attempt differs.
        let other = dir.join("row-10-0.bin");
        assert!(
            (0..4).any(|k| backoff_delay(&path, k, 9) != backoff_delay(&other, k, 9)),
            "jitter must depend on the path"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_schedules_of_two_jobs_on_one_path_diverge() {
        // Two concurrent jobs (distinct fingerprints) retrying the *same*
        // shared path must not wake in lockstep: the fingerprint salt has
        // to decorrelate their jitter. Also pins the full-schedule case:
        // no attempt-by-attempt equality across every retry the budget
        // allows.
        let path = Path::new("shared/row-0-0.bin");
        let (fp_a, fp_b) = (0x1111_2222_3333_4444u64, 0x5555_6666_7777_8888u64);
        let a: Vec<Duration> = (0..WRITE_ATTEMPTS).map(|k| backoff_delay(path, k, fp_a)).collect();
        let b: Vec<Duration> = (0..WRITE_ATTEMPTS).map(|k| backoff_delay(path, k, fp_b)).collect();
        assert_ne!(a, b, "same path, different jobs: schedules must diverge");
        // Each job's schedule stays a pure function of its inputs.
        let again: Vec<Duration> =
            (0..WRITE_ATTEMPTS).map(|k| backoff_delay(path, k, fp_a)).collect();
        assert_eq!(a, again, "schedule is deterministic per job");
    }

    #[test]
    fn enospc_is_not_retried_and_leaves_no_tmp() {
        let _guard = fault::test_guard();
        let dir = tmpdir("enospc");
        let path = dir.join("row-2-0.bin");
        let meta = FrameMeta { fingerprint: 1, index: 2, origin: 0, len: 1 };
        fault::arm_write(0, fault::WriteFault::Enospc, 1);
        let err = write_frame(&path, &meta, &[0u8; 8]).unwrap_err();
        fault::disarm_all();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert!(!path.exists());
        assert!(!tmp_sibling(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_caught_by_the_reader() {
        let _guard = fault::test_guard();
        let dir = tmpdir("torn");
        let path = dir.join("row-3-0.bin");
        let meta = FrameMeta { fingerprint: 1, index: 3, origin: 0, len: 4 };
        fault::arm_write(0, fault::WriteFault::Torn { keep_bytes: 17 }, 1);
        // The write itself reports success — the lie torn writes tell.
        write_frame(&path, &meta, &[7u8; 32]).unwrap();
        fault::disarm_all();
        assert!(matches!(read_frame(&path, 1), Err(StorageError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_corruption_is_caught() {
        let _guard = fault::test_guard();
        let dir = tmpdir("readflip");
        let path = dir.join("row-4-0.bin");
        let meta = FrameMeta { fingerprint: 1, index: 4, origin: 0, len: 4 };
        write_frame(&path, &meta, &[3u8; 32]).unwrap();
        fault::arm_read_corrupt(0);
        let err = read_frame(&path, 1).unwrap_err();
        fault::disarm_all();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        // The file itself is intact; only the in-flight read was corrupted.
        assert!(read_frame(&path, 1).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_jobs() {
        let sc = sw_core::Scoring::paper();
        let sc2 = sw_core::Scoring::new(2, -1, 4, 1);
        let g1 = gpu_sim::GridSpec { blocks: 4, threads: 4, alpha: 2 };
        let g2 = gpu_sim::GridSpec { blocks: 2, threads: 4, alpha: 2 };
        let base = job_fingerprint(100, 200, &sc, &g1, &g2);
        assert_eq!(base, job_fingerprint(100, 200, &sc, &g1, &g2), "deterministic");
        assert_ne!(base, job_fingerprint(101, 200, &sc, &g1, &g2), "length m");
        assert_ne!(base, job_fingerprint(100, 201, &sc, &g1, &g2), "length n");
        assert_ne!(base, job_fingerprint(100, 200, &sc2, &g1, &g2), "scoring");
        assert_ne!(base, job_fingerprint(100, 200, &sc, &g2, &g2), "grid");
    }
}
