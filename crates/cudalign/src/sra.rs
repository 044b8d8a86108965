//! The Special Rows Area (SRA) and its column twin.
//!
//! Stage 1 flushes selected DP rows (`H`/`F` per cell, 8 bytes) to a
//! budgeted storage area; Stage 2 reads them back for its matching
//! procedure and writes special *columns* (`H`/`E`) the same way for
//! Stage 3. [`LineStore`] implements both, with a RAM backend for tests
//! and a disk backend that mirrors the paper's on-disk area.
//!
//! Lines are written in *segments* as the wavefront's blocks complete
//! (the "shifted bus" of Figure 5: a special row is scattered across the
//! blocks of an external diagonal and becomes whole only after several
//! diagonals); a line becomes readable once every cell has arrived.
//!
//! # Line layout: the budget is the RAM
//!
//! A line lives in its final `Vec<T>` (8 bytes per cell, the paper's
//! layout) from [`LineStore::try_begin_line`] until it is dropped. The
//! buffer is reserved at the line's exact length and filled as segments
//! land (in-order segments append; one landing past the filled end pads
//! the gap); a per-line coverage bitmap (one bit per cell) records which cells
//! have arrived, so segments may come in any order, overlap, or be
//! replayed from a checkpoint. Completion moves the buffer as it is into
//! [`LineStore`]'s memory index (no copy, no slack capacity) or encodes it
//! in one pass into its disk frame; memory lines are read by borrowing
//! ([`LineStore::get`] returns a [`Cow`]). So the bytes charged to the
//! budget, 8 per cell of every begun or stored memory line, are the bytes
//! the cell buffers hold; the bitmaps (1/64 of that) are the only extra.
//!
//! Disk persistence goes through [`crate::storage`]: every line file is a
//! checksummed frame carrying the job fingerprint, written atomically.
//! Failures *degrade* instead of panicking — an unwritable line is
//! dropped (the pipeline tolerates fewer special lines; partitions just
//! grow) and a corrupt or stale line surfaces as a typed
//! [`StorageError`] for the caller to drop and count. [`StoreStats`]
//! records every such event for [`crate::PipelineStats`].

use crate::config::SraBackend;
use crate::storage::{self, FrameMeta, StorageError};
use gpu_sim::{CellHE, CellHF};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use sw_core::scoring::Score;

/// Bytes per stored cell (two 4-byte values — the paper's layout).
pub const CELL_BYTES: u64 = 8;

/// The [`Score`] stored little-endian at byte offset `at` of a cell.
/// Out-of-range reads are zero-filled rather than panicking; callers only
/// pass offsets 0 and 4 of an 8-byte cell.
fn score_at(b: &[u8; 8], at: usize) -> Score {
    let mut le = [0u8; 4];
    for (d, s) in le.iter_mut().zip(b.iter().skip(at)) {
        *d = *s;
    }
    Score::from_le_bytes(le)
}

/// An owned 8-byte cell from a slice; shorter input is zero-padded (the
/// framing layer has already length-checked every payload it hands out).
fn cell8(c: &[u8]) -> [u8; 8] {
    let mut b = [0u8; 8];
    for (d, s) in b.iter_mut().zip(c) {
        *d = *s;
    }
    b
}

/// A bus cell that can be stored in a [`LineStore`].
pub trait BusCell: Copy + Send + 'static {
    /// Encode into 8 little-endian bytes.
    fn encode(self) -> [u8; 8];
    /// Decode from 8 little-endian bytes.
    fn decode(bytes: [u8; 8]) -> Self;
}

impl BusCell for CellHF {
    fn encode(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.h.to_le_bytes());
        out[4..].copy_from_slice(&self.f.to_le_bytes());
        out
    }
    fn decode(b: [u8; 8]) -> Self {
        CellHF { h: score_at(&b, 0), f: score_at(&b, 4) }
    }
}

impl BusCell for CellHE {
    fn encode(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.h.to_le_bytes());
        out[4..].copy_from_slice(&self.e.to_le_bytes());
        out
    }
    fn decode(b: [u8; 8]) -> Self {
        CellHE { h: score_at(&b, 0), e: score_at(&b, 4) }
    }
}

/// The paper's flush interval: the number of block rows between special
/// rows must be at least `ceil(8 m n / (alpha T |SRA|))` so the area never
/// overflows (Section IV-B). Returns `max(1, ...)`.
pub fn flush_interval(m: usize, n: usize, block_height: usize, sra_bytes: u64) -> usize {
    if sra_bytes == 0 {
        return usize::MAX;
    }
    let numer = (CELL_BYTES as u128) * (m as u128) * (n as u128);
    let denom = (block_height as u128) * (sra_bytes as u128);
    let interval = numer.div_ceil(denom.max(1));
    (interval.min(usize::MAX as u128) as usize).max(1)
}

/// Storage-health counters of one [`LineStore`], aggregated into
/// [`crate::PipelineStats`] so an operator can see a degraded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Completed lines abandoned because their disk write failed after
    /// retries (ENOSPC, persistent I/O error). The run continues with
    /// fewer special lines.
    pub dropped_lines: u64,
    /// Transient write failures that a retry recovered.
    pub write_retries: u64,
    /// Files rejected during [`LineStore::reopen`] (truncated,
    /// bit-flipped, misnamed, or carrying a foreign job fingerprint).
    pub rejected_files: u64,
    /// Orphaned files swept by [`LineStore::new`] (left behind by a
    /// crashed prior run) plus stale tmp siblings removed on reopen.
    pub swept_files: u64,
    /// Most lines in flight (begun or restored, not yet complete) at once.
    pub peak_inflight_lines: u64,
    /// Most budget bytes held by in-flight lines at once (8 per cell).
    pub peak_inflight_bytes: u64,
}

impl StoreStats {
    /// Counters summed and peaks maximized (for aggregating the row and
    /// column stores).
    pub fn merged(self, other: StoreStats) -> StoreStats {
        StoreStats {
            dropped_lines: self.dropped_lines + other.dropped_lines,
            write_retries: self.write_retries + other.write_retries,
            rejected_files: self.rejected_files + other.rejected_files,
            swept_files: self.swept_files + other.swept_files,
            peak_inflight_lines: self.peak_inflight_lines.max(other.peak_inflight_lines),
            peak_inflight_bytes: self.peak_inflight_bytes.max(other.peak_inflight_bytes),
        }
    }
}

/// What [`LineStore::put_segment`] did with a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Put {
    /// Not applied: the line is not in flight (never begun, refused by the
    /// budget, already complete) or the segment does not fit inside it.
    Ignored,
    /// Applied; the line still misses cells.
    Pending,
    /// Applied, and the line is now complete and stored.
    Stored,
    /// Applied and complete, but its disk write failed after retries: the
    /// line is dropped and its budget refunded.
    Dropped,
}

enum Stored<T> {
    Memory(Vec<T>),
    Disk(PathBuf),
}

struct Line<T> {
    origin: usize,
    len: usize,
    data: Stored<T>,
}

/// Which cells of an in-flight line have arrived: one bit per cell.
struct Coverage {
    words: Vec<u64>,
    filled: usize,
}

impl Coverage {
    fn new(len: usize) -> Self {
        Coverage { words: vec![0; len.div_ceil(64)], filled: 0 }
    }

    fn has(&self, k: usize) -> bool {
        self.words[k / 64] >> (k % 64) & 1 != 0
    }

    /// Mark cells `lo..hi` as arrived, counting the newly covered ones.
    fn cover(&mut self, lo: usize, hi: usize) {
        let mut k = lo;
        while k < hi {
            let (w, b) = (k / 64, k % 64);
            let n = (64 - b).min(hi - k);
            let mask = if n == 64 { !0 } else { ((1u64 << n) - 1) << b };
            self.filled += (mask & !self.words[w]).count_ones() as usize;
            self.words[w] |= mask;
            k += n;
        }
    }
}

/// A line being assembled. `cells` has capacity for the whole line and
/// grows as segments land: cells at or past `cells.len()` have not
/// arrived, and cells below it count only where `have` says so (a
/// segment landing past the end pads the gap with [`filler`]).
struct Partial<T> {
    origin: usize,
    len: usize,
    cells: Vec<T>,
    have: Coverage,
}

/// The placeholder a gap cell holds until its segment arrives; never read
/// as data (the coverage bitmap says which cells are real).
fn filler<T: BusCell>() -> T {
    T::decode([0; 8])
}

impl<T: BusCell> Partial<T> {
    fn new(origin: usize, len: usize) -> Self {
        Partial { origin, len, cells: Vec::with_capacity(len), have: Coverage::new(len) }
    }

    /// Write `src` at line offset `base`; `false` (and nothing written)
    /// when it does not fit.
    fn write(&mut self, base: usize, mut src: impl ExactSizeIterator<Item = T>) -> bool {
        let end = match base.checked_add(src.len()) {
            Some(end) if end <= self.len => end,
            _ => return false,
        };
        if base > self.cells.len() {
            self.cells.resize(base, filler());
        }
        let overlap = self.cells.len().min(end) - base;
        for (d, s) in self.cells[base..base + overlap].iter_mut().zip(&mut src) {
            *d = s;
        }
        // `take` keeps an iterator whose `len` lies within the line.
        let rest = end.saturating_sub(self.cells.len());
        self.cells.extend(src.take(rest));
        self.have.cover(base, end.min(self.cells.len()));
        true
    }

    fn is_complete(&self) -> bool {
        self.have.filled == self.len
    }

    /// Budget bytes this line holds.
    fn cost(&self) -> u64 {
        CELL_BYTES * self.len as u64
    }
}

/// In-flight lines parsed from [`LineStore::encode_partials`] output, for
/// [`LineStore::restore_partials`]. Parsing whole before restoring means
/// a malformed snapshot is rejected before any line of it is applied.
pub struct Partials<T>(Vec<(usize, Partial<T>)>);

impl<T: BusCell> Partials<T> {
    /// Parse [`LineStore::encode_partials`] output; `None` on malformed
    /// input.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, k: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..pos.checked_add(k)?)?;
            *pos += k;
            Some(s)
        };
        let u = |pos: &mut usize| Some(u64::from_le_bytes(cell8(take(pos, 8)?)) as usize);
        if take(&mut pos, 4)? != b"SRAP" {
            return None;
        }
        let n = u(&mut pos)?;
        let mut lines = Vec::new();
        for _ in 0..n {
            let (index, origin, len) = (u(&mut pos)?, u(&mut pos)?, u(&mut pos)?);
            if bytes.len() - pos < len {
                return None; // at least 1 byte per cell must remain
            }
            let mut p = Partial::new(origin, len);
            for k in 0..len {
                if take(&mut pos, 1)?[0] != 0 {
                    let cell = T::decode(cell8(take(&mut pos, 8)?));
                    p.write(k, std::iter::once(cell));
                }
            }
            lines.push((index, p));
        }
        Some(Partials(lines))
    }

    /// Indices of the parsed lines, in snapshot order.
    #[cfg(test)]
    pub(crate) fn indices(&self) -> Vec<usize> {
        self.0.iter().map(|(index, _)| *index).collect()
    }
}

/// A budgeted store of special lines (rows or columns).
pub struct LineStore<T: BusCell> {
    budget: u64,
    used: u64,
    dir: Option<PathBuf>,
    prefix: &'static str,
    fingerprint: u64,
    persist: bool,
    stats: StoreStats,
    lines: BTreeMap<usize, Line<T>>,
    partial: HashMap<usize, Partial<T>>,
}

impl<T: BusCell> LineStore<T> {
    fn fresh(
        backend: &SraBackend,
        budget: u64,
        prefix: &'static str,
        fingerprint: u64,
    ) -> Result<Self, StorageError> {
        let dir = match backend {
            SraBackend::Memory => None,
            SraBackend::Disk(d) => {
                storage::ensure_dir(d)?;
                Some(d.clone())
            }
        };
        Ok(LineStore {
            budget,
            used: 0,
            dir,
            prefix,
            fingerprint,
            persist: false,
            stats: StoreStats::default(),
            lines: BTreeMap::new(),
            partial: HashMap::new(),
        })
    }

    /// Files in this store's directory that belong to this store's prefix:
    /// `<prefix>-<index>-<origin>.bin` plus their `.tmp` staging siblings.
    fn own_files(&self) -> Result<Vec<(PathBuf, bool /* is_tmp */)>, StorageError> {
        let Some(dir) = &self.dir else { return Ok(Vec::new()) };
        let mut out = Vec::new();
        for path in storage::list_dir(dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if !name.starts_with(&format!("{}-", self.prefix)) {
                continue;
            }
            if name.ends_with(".bin") {
                out.push((path, false));
            } else if name.ends_with(".bin.tmp") {
                out.push((path, true));
            }
        }
        Ok(out)
    }

    /// Create a store with the given budget. `prefix` names disk files
    /// (`<prefix>-<index>-<origin>.bin`); `fingerprint` identifies the job
    /// (see [`storage::job_fingerprint`]) and is stamped into every frame.
    ///
    /// On a disk backend, orphaned files under this prefix — left behind
    /// by a crashed prior run — are swept (deleted and counted in
    /// [`StoreStats::swept_files`]): a *fresh* store must never silently
    /// coexist with stale state it would otherwise leak forever.
    pub fn new(
        backend: &SraBackend,
        budget: u64,
        prefix: &'static str,
        fingerprint: u64,
    ) -> Result<Self, StorageError> {
        let mut store = Self::fresh(backend, budget, prefix, fingerprint)?;
        for (path, _) in store.own_files()? {
            if storage::remove_file_quiet(&path) {
                store.stats.swept_files += 1;
            }
        }
        Ok(store)
    }

    /// Rebuild a disk-backed store's index from the files a previous run
    /// left behind (crash-recovery for Stage 1's special rows). Every
    /// candidate file is fully validated — magic, job fingerprint, header
    /// vs. file name, payload length, CRC32 — before adoption; files that
    /// fail any check (truncated, bit-flipped, misnamed, foreign job) are
    /// deleted and counted in [`StoreStats::rejected_files`], never
    /// decoded into cells. Stale `.tmp` siblings from an interrupted write
    /// are swept. Completed lines beyond the budget are dropped (and their
    /// files deleted), smallest index first.
    pub fn reopen(
        backend: &SraBackend,
        budget: u64,
        prefix: &'static str,
        fingerprint: u64,
    ) -> Result<Self, StorageError> {
        let mut store = Self::fresh(backend, budget, prefix, fingerprint)?;
        let mut found: Vec<(usize, usize, PathBuf)> = Vec::new();
        for (path, is_tmp) in store.own_files()? {
            if is_tmp {
                // An interrupted write: the frame never made it to its
                // final name, so nothing references it.
                if storage::remove_file_quiet(&path) {
                    store.stats.swept_files += 1;
                }
                continue;
            }
            let named = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix(&format!("{prefix}-")))
                .and_then(|n| n.strip_suffix(".bin"))
                .and_then(|rest| {
                    let (idx, origin) = rest.split_once('-')?;
                    Some((idx.parse::<usize>().ok()?, origin.parse::<usize>().ok()?))
                });
            let Some((idx, origin)) = named else {
                // Matches the prefix but not the naming scheme: reject.
                storage::remove_file_quiet(&path);
                store.stats.rejected_files += 1;
                continue;
            };
            match storage::read_frame(&path, fingerprint) {
                Ok((meta, _)) if meta.index == idx as u64 && meta.origin == origin as u64 => {
                    found.push((idx, origin, path));
                }
                // Valid frame under the wrong name (copied/renamed by
                // hand, or cross-linked by a sick filesystem): the name is
                // what indexing trusts, so treat as corrupt.
                Ok(_) | Err(_) => {
                    storage::remove_file_quiet(&path);
                    store.stats.rejected_files += 1;
                }
            }
        }
        found.sort();
        for (idx, origin, path) in found {
            let len_bytes = storage::file_len(&path)
                .map(|len| len.saturating_sub(storage::FRAME_HEADER_BYTES as u64))
                .unwrap_or(0);
            if store.used + len_bytes > budget {
                if storage::remove_file_quiet(&path) {
                    store.stats.swept_files += 1;
                }
                continue;
            }
            store.used += len_bytes;
            store.lines.insert(
                idx,
                Line { origin, len: (len_bytes / CELL_BYTES) as usize, data: Stored::Disk(path) },
            );
        }
        Ok(store)
    }

    /// Keep (or stop keeping) disk files alive past this store's drop.
    /// The pipeline sets this when checkpointing is on, so an error
    /// return — or a simulated crash — leaves the special lines on disk
    /// for the resumed run to [`LineStore::reopen`].
    pub fn persist_on_drop(&mut self, persist: bool) {
        self.persist = persist;
    }

    /// Storage-health counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The job fingerprint this store stamps into its frames.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Begin accepting segments for line `index`, covering coordinates
    /// `origin .. origin + len`. Returns `false` (and tracks nothing) when
    /// the line would exceed the budget. The line's buffer is reserved at
    /// its exact length here and touched only as segments land.
    pub fn try_begin_line(&mut self, index: usize, origin: usize, len: usize) -> bool {
        let bytes = CELL_BYTES * len as u64;
        if self.used + bytes > self.budget {
            return false;
        }
        if self.lines.contains_key(&index) || self.partial.contains_key(&index) {
            return false;
        }
        self.used += bytes;
        self.track(index, Partial::new(origin, len));
        true
    }

    /// Add an in-flight line (already charged to `used`) and update the
    /// in-flight peaks.
    fn track(&mut self, index: usize, p: Partial<T>) {
        self.partial.insert(index, p);
        let bytes = self.partial.values().map(Partial::cost).sum();
        let st = &mut self.stats;
        st.peak_inflight_lines = st.peak_inflight_lines.max(self.partial.len() as u64);
        st.peak_inflight_bytes = st.peak_inflight_bytes.max(bytes);
    }

    /// Store a segment of line `index` starting at absolute coordinate
    /// `at`: the cells land in place, with one bounds check per segment.
    /// A segment for a line not in flight, or one that does not fit inside
    /// the line (possible via a corrupted restored checkpoint), is
    /// [`Put::Ignored`] and writes nothing. Rewriting cells that already
    /// arrived (a replayed segment) overwrites them.
    ///
    /// The segment that completes the line stores it: in memory the
    /// buffer moves into the index as is; on the disk backend it is
    /// encoded into one frame and persisted through
    /// [`storage::write_frame`] (atomic, retried). If the write still
    /// fails — disk full, persistent I/O error — the line is
    /// [`Put::Dropped`]: its budget is refunded,
    /// [`StoreStats::dropped_lines`] grows, and the store carries on. The
    /// pipeline is correct with any subset of special lines; a panic here
    /// would cost an 18-hour Stage 1.
    pub fn put_segment<I>(&mut self, index: usize, at: usize, cells: I) -> Put
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let Some(p) = self.partial.get_mut(&index) else {
            return Put::Ignored;
        };
        let Some(base) = at.checked_sub(p.origin) else {
            return Put::Ignored;
        };
        if !p.write(base, cells.into_iter()) {
            return Put::Ignored;
        }
        if !p.is_complete() {
            return Put::Pending;
        }
        let Some(p) = self.partial.remove(&index) else { return Put::Ignored };
        let (origin, len) = (p.origin, p.len);
        let mut cells = p.cells;
        debug_assert_eq!(cells.len(), len, "full coverage means every cell landed");
        cells.shrink_to_fit();
        let stored = match &self.dir {
            None => Stored::Memory(cells),
            Some(dir) => {
                let path = dir.join(format!("{}-{index}-{origin}.bin", self.prefix));
                let mut buf = Vec::with_capacity(len * CELL_BYTES as usize);
                for c in &cells {
                    buf.extend_from_slice(&c.encode());
                }
                drop(cells);
                let meta = FrameMeta {
                    fingerprint: self.fingerprint,
                    index: index as u64,
                    origin: origin as u64,
                    len: len as u64,
                };
                match storage::write_frame(&path, &meta, &buf) {
                    Ok(retries) => {
                        self.stats.write_retries += retries as u64;
                        Stored::Disk(path)
                    }
                    Err(_) => {
                        // Degrade: drop this line, refund its budget.
                        self.used -= CELL_BYTES * len as u64;
                        self.stats.dropped_lines += 1;
                        return Put::Dropped;
                    }
                }
            }
        };
        self.lines.insert(index, Line { origin, len, data: stored });
        Put::Stored
    }

    /// Completed line indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        self.lines.keys().copied().collect()
    }

    /// The greatest completed line strictly below `index`.
    pub fn previous_line(&self, index: usize) -> Option<usize> {
        self.lines.range(..index).next_back().map(|(k, _)| *k)
    }

    /// Completed line indices within `(lo, hi)` exclusive.
    pub fn lines_between(&self, lo: usize, hi: usize) -> Vec<usize> {
        if hi <= lo + 1 {
            return Vec::new();
        }
        self.lines.range(lo + 1..hi).map(|(k, _)| *k).collect()
    }

    /// Read a completed line: `Ok(Some((origin, cells)))`. Memory lines
    /// are borrowed, disk lines decoded into an owned buffer. Unknown
    /// indices are `Ok(None)`; a disk line that fails validation
    /// (truncated, bit-flipped, foreign) is a typed error — the caller
    /// decides whether to drop the line and degrade or abort the stage.
    #[allow(clippy::type_complexity)]
    pub fn get(&self, index: usize) -> Result<Option<(usize, Cow<'_, [T]>)>, StorageError> {
        let Some(line) = self.lines.get(&index) else { return Ok(None) };
        let cells = match &line.data {
            Stored::Memory(v) => Cow::Borrowed(v.as_slice()),
            Stored::Disk(path) => {
                let (meta, payload) = storage::read_frame(path, self.fingerprint)?;
                if meta.index != index as u64 || meta.origin != line.origin as u64 {
                    return Err(StorageError::Corrupt {
                        path: path.clone(),
                        reason: format!(
                            "frame header names line {}@{}, store expected {index}@{}",
                            meta.index, meta.origin, line.origin
                        ),
                    });
                }
                Cow::Owned(payload.chunks_exact(8).map(|c| T::decode(cell8(c))).collect())
            }
        };
        Ok(Some((line.origin, cells)))
    }

    /// Serialize the in-flight (incomplete) lines — the state a Stage-1
    /// checkpoint must carry so a crash does not lose the special rows
    /// whose segments were mid-assembly (with `B` block columns, a row's
    /// segments span `B` external diagonals — the paper's Figure 5).
    ///
    /// Segment application is idempotent, so a partial snapshot taken at
    /// any diagonal composes correctly with an engine snapshot taken at a
    /// nearby one.
    pub fn encode_partials(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SRAP");
        out.extend_from_slice(&(self.partial.len() as u64).to_le_bytes());
        let mut keys: Vec<&usize> = self.partial.keys().collect();
        keys.sort();
        for &index in keys {
            let p = &self.partial[&index];
            out.extend_from_slice(&(index as u64).to_le_bytes());
            out.extend_from_slice(&(p.origin as u64).to_le_bytes());
            out.extend_from_slice(&(p.len as u64).to_le_bytes());
            for k in 0..p.len {
                if p.have.has(k) {
                    out.push(1);
                    out.extend_from_slice(&p.cells[k].encode());
                } else {
                    out.push(0);
                }
            }
        }
        out
    }

    /// Restore in-flight lines parsed from [`LineStore::encode_partials`]
    /// output. Lines already completed (or tracked) in this store, and
    /// lines over the budget, are skipped; budget accounting is preserved.
    pub fn restore_partials(&mut self, partials: Partials<T>) {
        for (index, p) in partials.0 {
            let cost = p.cost();
            let tracked = self.lines.contains_key(&index) || self.partial.contains_key(&index);
            if !tracked && self.used + cost <= self.budget {
                self.used += cost;
                self.track(index, p);
            }
        }
    }

    /// Abandon all incomplete lines, refunding their budget. Stage 2 calls
    /// this after each strip aborts early (goal found): partially filled
    /// columns past the abort point will never complete.
    pub fn abort_partials(&mut self) {
        for (_, p) in self.partial.drain() {
            self.used -= p.cost();
        }
    }

    /// Drop a completed line, freeing its budget (and its disk file).
    pub fn remove(&mut self, index: usize) {
        if let Some(line) = self.lines.remove(&index) {
            self.used -= CELL_BYTES * line.len as u64;
            if let Stored::Disk(path) = line.data {
                storage::remove_file_quiet(&path);
            }
        }
    }

    /// Drop every line and partial, deleting all disk files. Called on the
    /// success path so a finished run leaves no state behind regardless of
    /// [`LineStore::persist_on_drop`].
    pub fn clear(&mut self) {
        let indices: Vec<usize> = self.lines.keys().copied().collect();
        for i in indices {
            self.remove(i);
        }
        self.abort_partials();
    }

    /// Bytes currently accounted against the budget.
    pub fn bytes_used(&self) -> u64 {
        self.used
    }

    /// The configured budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of completed lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no line has been completed.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Heap bytes the cell buffers of in-flight and memory lines hold
    /// (capacities, not lengths); coverage bitmaps are not counted.
    #[cfg(test)]
    fn cell_buffer_bytes(&self) -> u64 {
        let size = std::mem::size_of::<T>() as u64;
        let inflight = self.partial.values().map(|p| p.cells.capacity() as u64);
        let stored = self.lines.values().map(|l| match &l.data {
            Stored::Memory(v) => v.capacity() as u64,
            Stored::Disk(_) => 0,
        });
        inflight.chain(stored).sum::<u64>() * size
    }
}

impl<T: BusCell> Drop for LineStore<T> {
    fn drop(&mut self) {
        if self.dir.is_some() && !self.persist {
            let indices: Vec<usize> = self.lines.keys().copied().collect();
            for i in indices {
                self.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::fault;
    use std::fs;
    use sw_core::scoring::NEG_INF;

    const FP: u64 = 0x5EED;

    fn hf(h: Score) -> CellHF {
        CellHF { h, f: h - 7 }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cudalign-sra-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn flush_interval_matches_paper_formula() {
        // 8 m n / (alpha T |SRA|), rounded up.
        assert_eq!(flush_interval(1000, 1000, 100, 8_000_000), 1);
        assert_eq!(flush_interval(1000, 1000, 100, 80_000), 1);
        assert_eq!(flush_interval(10_000, 10_000, 256, 1 << 20), 3);
        assert_eq!(flush_interval(100, 100, 10, 0), usize::MAX);
    }

    #[test]
    fn segments_assemble_into_lines() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "row", FP).unwrap();
        assert!(store.try_begin_line(8, 0, 5));
        assert_eq!(store.put_segment(8, 0, [hf(1), hf(2)]), Put::Pending);
        assert_eq!(store.put_segment(8, 3, [hf(4), hf(5)]), Put::Pending);
        assert_eq!(store.put_segment(8, 2, [hf(3)]), Put::Stored);
        let (origin, cells) = store.get(8).unwrap().unwrap();
        assert_eq!(origin, 0);
        assert_eq!(cells.iter().map(|c| c.h).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes_used(), 40);
    }

    #[test]
    fn budget_is_enforced() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 100, "row", FP).unwrap();
        assert!(store.try_begin_line(1, 0, 10)); // 80 bytes
        assert!(!store.try_begin_line(2, 0, 10), "would exceed 100 bytes");
        assert!(store.try_begin_line(3, 0, 2)); // 16 more = 96
        store.put_segment(1, 0, (0..10).map(hf));
        store.remove(1);
        assert_eq!(store.bytes_used(), 16);
        assert!(store.try_begin_line(4, 0, 10), "freed budget is reusable");
    }

    #[test]
    fn segments_for_untracked_lines_are_ignored() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 64, "row", FP).unwrap();
        assert_eq!(store.put_segment(3, 0, [hf(1)]), Put::Ignored);
        assert!(store.get(3).unwrap().is_none());
    }

    #[test]
    fn duplicate_begin_rejected() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        assert!(store.try_begin_line(5, 0, 4));
        assert!(!store.try_begin_line(5, 0, 4));
    }

    #[test]
    fn navigation_helpers() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        for idx in [4usize, 8, 12] {
            store.try_begin_line(idx, 0, 1);
            store.put_segment(idx, 0, [hf(idx as Score)]);
        }
        assert_eq!(store.indices(), vec![4, 8, 12]);
        assert_eq!(store.previous_line(12), Some(8));
        assert_eq!(store.previous_line(4), None);
        assert_eq!(store.previous_line(5), Some(4));
        assert_eq!(store.lines_between(4, 12), vec![8]);
        assert_eq!(store.lines_between(0, 100), vec![4, 8, 12]);
        assert_eq!(store.lines_between(8, 9), Vec::<usize>::new());
    }

    #[test]
    fn disk_backend_roundtrip() {
        let _guard = fault::test_guard();
        let dir = tmpdir("roundtrip");
        {
            let mut store: LineStore<CellHE> =
                LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "col", FP).unwrap();
            store.try_begin_line(7, 3, 4);
            store.put_segment(
                7,
                3,
                [
                    CellHE { h: 1, e: NEG_INF },
                    CellHE { h: -2, e: 5 },
                    CellHE { h: 3, e: 4 },
                    CellHE { h: 9, e: 9 },
                ],
            );
            let (origin, cells) = store.get(7).unwrap().unwrap();
            assert_eq!(origin, 3);
            assert_eq!(cells[0], CellHE { h: 1, e: NEG_INF });
            assert_eq!(cells[3], CellHE { h: 9, e: 9 });
            // File exists on disk: framed, so header + 32 payload bytes.
            let path = dir.join("col-7-3.bin");
            assert_eq!(fs::metadata(&path).unwrap().len(), storage::FRAME_HEADER_BYTES as u64 + 32);
        }
        // Dropped store cleans its files (persist_on_drop defaults off).
        assert!(fs::read_dir(&dir).map(|d| d.count() == 0).unwrap_or(true));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_sweeps_orphans_but_reopen_adopts() {
        let _guard = fault::test_guard();
        let dir = tmpdir("sweep");
        {
            let mut store: LineStore<CellHF> =
                LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
            store.try_begin_line(5, 0, 2);
            store.put_segment(5, 0, [hf(1), hf(2)]);
            store.persist_on_drop(true);
        }
        // A stale tmp sibling and an unrelated-prefix file join the orphan.
        fs::write(dir.join("row-9-0.bin.tmp"), b"half a frame").unwrap();
        fs::write(dir.join("col-1-0.bin"), b"other store's file").unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 3);

        // reopen adopts the valid line and sweeps only the tmp.
        let reopened: LineStore<CellHF> =
            LineStore::reopen(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
        assert_eq!(reopened.indices(), vec![5]);
        assert_eq!(reopened.get(5).unwrap().unwrap().1.len(), 2);
        assert_eq!(reopened.stats().swept_files, 1, "tmp sibling swept");
        assert_eq!(reopened.stats().rejected_files, 0);
        drop(reopened); // deletes row-5-0.bin (persist off by default)

        fs::write(dir.join("row-3-0.bin"), b"orphan from a crashed run").unwrap();
        fs::write(dir.join("row-4-0.bin.tmp"), b"torn").unwrap();
        let store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.stats().swept_files, 2, "orphan + tmp swept on new");
        assert!(!dir.join("row-3-0.bin").exists());
        assert!(dir.join("col-1-0.bin").exists(), "other prefix untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rejects_foreign_and_corrupt_files() {
        let _guard = fault::test_guard();
        let dir = tmpdir("reject");
        let backend = SraBackend::Disk(dir.clone());
        {
            let mut store: LineStore<CellHF> =
                LineStore::new(&backend, 1 << 20, "row", FP).unwrap();
            for idx in [2usize, 4, 6] {
                store.try_begin_line(idx, 0, 3);
                store.put_segment(idx, 0, (0..3).map(|k| hf(k as Score)));
            }
            store.persist_on_drop(true);
        }
        // Corrupt line 2 (bit flip in the payload), truncate line 4.
        let p2 = dir.join("row-2-0.bin");
        let mut b = fs::read(&p2).unwrap();
        let at = b.len() - 3;
        b[at] ^= 0x40;
        fs::write(&p2, &b).unwrap();
        let p4 = dir.join("row-4-0.bin");
        let b = fs::read(&p4).unwrap();
        fs::write(&p4, &b[..b.len() / 2]).unwrap();

        let reopened: LineStore<CellHF> = LineStore::reopen(&backend, 1 << 20, "row", FP).unwrap();
        assert_eq!(reopened.indices(), vec![6], "only the intact line survives");
        assert_eq!(reopened.stats().rejected_files, 2);
        assert!(!p2.exists() && !p4.exists(), "rejected files are deleted");
        drop(reopened);

        // A whole store written under another job's fingerprint.
        {
            let mut store: LineStore<CellHF> =
                LineStore::new(&backend, 1 << 20, "row", FP + 1).unwrap();
            store.try_begin_line(8, 0, 2);
            store.put_segment(8, 0, [hf(1), hf(2)]);
            store.persist_on_drop(true);
        }
        let reopened: LineStore<CellHF> = LineStore::reopen(&backend, 1 << 20, "row", FP).unwrap();
        assert!(reopened.is_empty(), "foreign-fingerprint file not adopted");
        assert_eq!(reopened.stats().rejected_files, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rejects_misnamed_files() {
        let _guard = fault::test_guard();
        let dir = tmpdir("misnamed");
        let backend = SraBackend::Disk(dir.clone());
        {
            let mut store: LineStore<CellHF> =
                LineStore::new(&backend, 1 << 20, "row", FP).unwrap();
            store.try_begin_line(5, 0, 2);
            store.put_segment(5, 0, [hf(1), hf(2)]);
            store.persist_on_drop(true);
        }
        // A valid frame copied under the wrong name: header says line 5,
        // name says line 7. Adopting it would hand Stage 2 the wrong row.
        fs::copy(dir.join("row-5-0.bin"), dir.join("row-7-0.bin")).unwrap();
        let reopened: LineStore<CellHF> = LineStore::reopen(&backend, 1 << 20, "row", FP).unwrap();
        assert_eq!(reopened.indices(), vec![5]);
        assert_eq!(reopened.stats().rejected_files, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_drops_line_and_degrades() {
        let _guard = fault::test_guard();
        let dir = tmpdir("degrade");
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
        assert!(store.try_begin_line(4, 0, 2));
        let used = store.bytes_used();
        fault::arm_write(0, fault::WriteFault::Enospc, 1);
        let put = store.put_segment(4, 0, [hf(1), hf(2)]);
        fault::disarm_all();
        assert_eq!(put, Put::Dropped, "line completed but was not stored");
        assert!(store.get(4).unwrap().is_none(), "line is gone, not half-stored");
        assert_eq!(store.stats().dropped_lines, 1);
        assert_eq!(store.bytes_used(), used - 16, "budget refunded");
        // The store still works for the next line.
        assert!(store.try_begin_line(8, 0, 1));
        assert_eq!(store.put_segment(8, 0, [hf(9)]), Put::Stored);
        assert!(store.get(8).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_failures_recover_with_retries() {
        let _guard = fault::test_guard();
        let dir = tmpdir("transient");
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
        assert!(store.try_begin_line(2, 0, 1));
        fault::arm_write(0, fault::WriteFault::Transient, 1);
        assert_eq!(store.put_segment(2, 0, [hf(5)]), Put::Stored);
        fault::disarm_all();
        assert_eq!(store.stats().write_retries, 1);
        assert_eq!(store.stats().dropped_lines, 0);
        assert_eq!(store.get(2).unwrap().unwrap().1[0].h, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_get_is_a_typed_error_and_removable() {
        let _guard = fault::test_guard();
        let dir = tmpdir("corrupt-get");
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
        store.try_begin_line(6, 0, 2);
        store.put_segment(6, 0, [hf(1), hf(2)]);
        // Corrupt the file behind the store's back.
        let path = dir.join("row-6-0.bin");
        let mut b = fs::read(&path).unwrap();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        fs::write(&path, &b).unwrap();
        match store.get(6) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        store.remove(6);
        assert!(store.get(6).unwrap().is_none());
        assert_eq!(store.bytes_used(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_everything() {
        let _guard = fault::test_guard();
        let dir = tmpdir("clear");
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Disk(dir.clone()), 1 << 20, "row", FP).unwrap();
        store.try_begin_line(1, 0, 2);
        store.put_segment(1, 0, [hf(1), hf(2)]);
        store.try_begin_line(3, 0, 4);
        store.persist_on_drop(true);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.bytes_used(), 0);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "disk files deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_codecs_roundtrip() {
        let a = CellHF { h: -123456, f: NEG_INF };
        assert_eq!(CellHF::decode(a.encode()), a);
        let b = CellHE { h: i32::MAX / 8, e: -1 };
        assert_eq!(CellHE::decode(b.encode()), b);
    }
}

#[cfg(test)]
mod partial_snapshot_tests {
    use super::*;
    use sw_core::scoring::Score;

    const FP: u64 = 0x5EED;

    fn hf(h: Score) -> CellHF {
        CellHF { h, f: h - 1 }
    }

    #[test]
    fn partials_roundtrip() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        store.try_begin_line(8, 0, 5);
        store.put_segment(8, 1, [hf(10), hf(11)]);
        store.try_begin_line(16, 2, 3);
        store.put_segment(16, 3, [hf(20)]);
        let bytes = store.encode_partials();

        let mut fresh: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        fresh.restore_partials(Partials::decode(&bytes).expect("partials parse"));
        // Completing the restored partials yields identical lines.
        fresh.put_segment(8, 0, [hf(9)]);
        fresh.put_segment(8, 3, [hf(12), hf(13)]);
        let (origin, cells) = fresh.get(8).unwrap().unwrap();
        assert_eq!(origin, 0);
        assert_eq!(cells.iter().map(|c| c.h).collect::<Vec<_>>(), vec![9, 10, 11, 12, 13]);
        // Idempotence: re-putting a segment present in the snapshot is fine.
        fresh.put_segment(16, 3, [hf(20)]);
        fresh.put_segment(16, 2, [hf(19)]);
        assert!(fresh.get(16).unwrap().is_none(), "still missing index 4");
        fresh.put_segment(16, 4, [hf(21)]);
        assert!(fresh.get(16).unwrap().is_some());
    }

    #[test]
    fn restore_rejects_garbage_and_respects_budget() {
        assert!(Partials::<CellHF>::decode(b"nope").is_none());
        assert!(Partials::<CellHF>::decode(b"SRAP\x01\x00\x00\x00\x00\x00\x00\x00").is_none());
        // Oversized partial vs budget: skipped, not an error.
        let mut big: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        big.try_begin_line(1, 0, 100);
        let bytes = big.encode_partials();
        let mut tiny: LineStore<CellHF> = LineStore::new(&SraBackend::Memory, 64, "r", FP).unwrap();
        tiny.restore_partials(Partials::decode(&bytes).expect("partials parse"));
        assert_eq!(tiny.bytes_used(), 0, "over-budget partial skipped");
    }

    #[test]
    fn restore_skips_already_tracked_lines() {
        let mut a: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        a.try_begin_line(4, 0, 2);
        a.put_segment(4, 0, [hf(1)]);
        let bytes = a.encode_partials();
        // The target already completed line 4.
        let mut b: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 20, "r", FP).unwrap();
        b.try_begin_line(4, 0, 2);
        b.put_segment(4, 0, [hf(7), hf(8)]);
        let used = b.bytes_used();
        b.restore_partials(Partials::decode(&bytes).expect("partials parse"));
        assert_eq!(b.bytes_used(), used, "no double accounting");
        assert_eq!(b.get(4).unwrap().unwrap().1[0].h, 7, "completed line untouched");
    }
}

/// [`LineStore`] against a reference model that keeps one `Option` per
/// cell, on random operation sequences.
#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    const FP: u64 = 0x5EED;

    fn hf(h: Score) -> CellHF {
        CellHF { h, f: h - 3 }
    }

    /// The reference: what a store must hold, one `Option` per cell.
    #[derive(Clone, Default)]
    struct Model {
        budget: u64,
        used: u64,
        lines: BTreeMap<usize, (usize, Vec<CellHF>)>,
        partial: BTreeMap<usize, (usize, Vec<Option<CellHF>>)>,
        peak_lines: u64,
        peak_bytes: u64,
    }

    impl Model {
        fn new(budget: u64) -> Self {
            Model { budget, ..Model::default() }
        }

        fn track(&mut self, index: usize, origin: usize, cells: Vec<Option<CellHF>>) {
            self.used += CELL_BYTES * cells.len() as u64;
            self.partial.insert(index, (origin, cells));
            let bytes: usize = self.partial.values().map(|(_, c)| c.len()).sum();
            self.peak_lines = self.peak_lines.max(self.partial.len() as u64);
            self.peak_bytes = self.peak_bytes.max(CELL_BYTES * bytes as u64);
        }

        fn tracked(&self, index: usize) -> bool {
            self.lines.contains_key(&index) || self.partial.contains_key(&index)
        }

        fn begin(&mut self, index: usize, origin: usize, len: usize) -> bool {
            if self.used + CELL_BYTES * len as u64 > self.budget || self.tracked(index) {
                return false;
            }
            self.track(index, origin, vec![None; len]);
            true
        }

        fn put(&mut self, index: usize, at: usize, seg: &[CellHF]) -> Put {
            let Some((origin, cells)) = self.partial.get_mut(&index) else { return Put::Ignored };
            let Some(base) = at.checked_sub(*origin) else { return Put::Ignored };
            if base + seg.len() > cells.len() {
                return Put::Ignored;
            }
            for (k, c) in seg.iter().enumerate() {
                cells[base + k] = Some(*c);
            }
            if cells.iter().any(Option::is_none) {
                return Put::Pending;
            }
            let (origin, cells) = self.partial.remove(&index).unwrap();
            self.lines.insert(index, (origin, cells.into_iter().flatten().collect()));
            Put::Stored
        }

        fn restore(&mut self, snapshot: &BTreeMap<usize, (usize, Vec<Option<CellHF>>)>) {
            for (&index, (origin, cells)) in snapshot {
                let cost = CELL_BYTES * cells.len() as u64;
                if !self.tracked(index) && self.used + cost <= self.budget {
                    self.track(index, *origin, cells.clone());
                }
            }
        }

        fn abort(&mut self) {
            for (_, (_, cells)) in std::mem::take(&mut self.partial) {
                self.used -= CELL_BYTES * cells.len() as u64;
            }
        }

        fn remove(&mut self, index: usize) {
            if let Some((_, cells)) = self.lines.remove(&index) {
                self.used -= CELL_BYTES * cells.len() as u64;
            }
        }

        /// The `SRAP` bytes of the model's in-flight lines, written out
        /// field by field from the format's definition.
        fn encode_partials(&self) -> Vec<u8> {
            let mut out = b"SRAP".to_vec();
            out.extend_from_slice(&(self.partial.len() as u64).to_le_bytes());
            for (&index, (origin, cells)) in &self.partial {
                for v in [index, *origin, cells.len()] {
                    out.extend_from_slice(&(v as u64).to_le_bytes());
                }
                for c in cells {
                    match c {
                        None => out.push(0),
                        Some(c) => {
                            out.push(1);
                            out.extend_from_slice(&c.h.to_le_bytes());
                            out.extend_from_slice(&c.f.to_le_bytes());
                        }
                    }
                }
            }
            out
        }
    }

    fn agree(store: &LineStore<CellHF>, model: &Model, step: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!(store.bytes_used(), model.used, "used bytes, step {}", step);
        prop_assert_eq!(store.indices(), model.lines.keys().copied().collect::<Vec<_>>());
        for (&index, (origin, cells)) in &model.lines {
            let (o, got) = store.get(index).unwrap().expect("completed line readable");
            prop_assert!(matches!(got, Cow::Borrowed(_)), "memory lines are borrowed");
            prop_assert_eq!(o, *origin);
            prop_assert_eq!(&got[..], &cells[..], "line {} cells, step {}", index, step);
        }
        prop_assert_eq!(store.encode_partials(), model.encode_partials(), "SRAP, step {}", step);
        prop_assert!(store.cell_buffer_bytes() <= store.budget(), "cell buffers over budget");
        prop_assert_eq!(store.cell_buffer_bytes(), model.used, "budget = RAM, step {}", step);
        let st = store.stats();
        prop_assert_eq!(st.peak_inflight_lines, model.peak_lines, "peak lines, step {}", step);
        prop_assert_eq!(st.peak_inflight_bytes, model.peak_bytes, "peak bytes, step {}", step);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random begin / put / replay / abort / remove / snapshot /
        /// restore / crash sequences, with segments in any order,
        /// overlapping, out of range or for lines refused by the budget.
        /// After every step the store and the model agree on each put's
        /// report (so on the completion point), the stored cells, the
        /// budget bytes, the `SRAP` bytes and the in-flight peaks, and the
        /// cell buffers hold exactly the budget bytes charged.
        #[test]
        fn line_store_matches_option_model(seed in any::<u64>(), steps in 1usize..120) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let budget = rng.gen_range(0..4000u64);
            let mut store: LineStore<CellHF> =
                LineStore::new(&SraBackend::Memory, budget, "row", FP).unwrap();
            let mut model = Model::new(budget);
            let mut history: Vec<(usize, usize, Vec<CellHF>)> = Vec::new();
            let mut snapshot = (store.encode_partials(), model.partial.clone());
            for step in 0..steps {
                let index = rng.gen_range(0..8usize);
                match rng.gen_range(0..16u32) {
                    0..=2 => {
                        let origin = rng.gen_range(0..5usize);
                        let len = rng.gen_range(0..150usize);
                        let began = store.try_begin_line(index, origin, len);
                        prop_assert_eq!(began, model.begin(index, origin, len), "begin, step {}", step);
                    }
                    3..=10 => {
                        // Mostly in range: positions just past either end
                        // and lengths just past the line's are rejected.
                        let origin = model.partial.get(&index).map_or(0, |(o, _)| *o);
                        let len = model.partial.get(&index).map_or(8, |(_, c)| c.len());
                        let at = (origin + rng.gen_range(0..len + 3)).saturating_sub(1);
                        let n = rng.gen_range(0..(len / 2).max(1) + 3);
                        let seg: Vec<CellHF> =
                            (0..n).map(|_| hf(rng.gen_range(-50..50i32))).collect();
                        let put = store.put_segment(index, at, seg.iter().copied());
                        prop_assert_eq!(put, model.put(index, at, &seg), "put, step {}", step);
                        history.push((index, at, seg));
                    }
                    11 => {
                        if !history.is_empty() {
                            let (index, at, seg) = &history[rng.gen_range(0..history.len())];
                            let put = store.put_segment(*index, *at, seg.iter().copied());
                            prop_assert_eq!(put, model.put(*index, *at, seg), "replay, step {}", step);
                        }
                    }
                    12 => {
                        store.abort_partials();
                        model.abort();
                    }
                    13 => {
                        store.remove(index);
                        model.remove(index);
                    }
                    14 => {
                        snapshot = (store.encode_partials(), model.partial.clone());
                        if rng.gen_bool(0.5) {
                            // Restore into the live store: every line is
                            // tracked already, so nothing changes.
                            store.restore_partials(Partials::decode(&snapshot.0).unwrap());
                            model.restore(&snapshot.1);
                        }
                    }
                    _ => {
                        // Crash: a fresh store resumes from the snapshot.
                        store = LineStore::new(&SraBackend::Memory, budget, "row", FP).unwrap();
                        model = Model::new(budget);
                        store.restore_partials(Partials::decode(&snapshot.0).unwrap());
                        model.restore(&snapshot.1);
                    }
                }
                agree(&store, &model, step)?;
            }
        }
    }

    /// The bytes the cell buffers hold never exceed the budget: lines are
    /// begun until the budget refuses one, filled out of order, completed
    /// and restored from a snapshot, and at every point the buffers'
    /// capacities are exactly the bytes charged.
    #[test]
    fn cell_buffers_never_exceed_the_budget() {
        let budget = 8 * 1000;
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, budget, "row", FP).unwrap();
        let mut index = 0;
        while store.try_begin_line(index, 0, 130) {
            index += 1;
        }
        assert_eq!(index, 7, "seven 130-cell lines fit in 1000 cells");
        assert_eq!(store.cell_buffer_bytes(), store.bytes_used());
        for i in 0..index {
            // Right half first, then the left: the gap is padded, not grown.
            assert_eq!(store.put_segment(i, 65, (65..130).map(hf)), Put::Pending);
            assert!(store.cell_buffer_bytes() <= budget);
            if i % 2 == 0 {
                assert_eq!(store.put_segment(i, 0, (0..65).map(hf)), Put::Stored);
            }
            assert_eq!(store.cell_buffer_bytes(), store.bytes_used());
        }
        let snapshot = Partials::decode(&store.encode_partials()).unwrap();
        let mut fresh: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, budget, "row", FP).unwrap();
        fresh.restore_partials(snapshot);
        assert_eq!(fresh.cell_buffer_bytes(), fresh.bytes_used());
        assert_eq!(fresh.bytes_used(), 3 * 130 * 8, "the three odd lines are in flight");
        assert_eq!(fresh.stats().peak_inflight_lines, 3);
        assert_eq!(fresh.stats().peak_inflight_bytes, 3 * 130 * 8);
        assert!(store.cell_buffer_bytes() <= budget);
    }

    /// The `SRAP` bytes of one partial line, pinned: magic, line count,
    /// then per line its index, origin and length (u64 LE) and per cell a
    /// presence byte followed, when present, by `H` and `F` (i32 LE).
    #[test]
    fn srap_bytes_of_one_partial_line_are_pinned() {
        let mut store: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 10, "row", FP).unwrap();
        assert!(store.try_begin_line(8, 2, 3));
        assert_eq!(store.put_segment(8, 3, [CellHF { h: 10, f: -2 }]), Put::Pending);
        #[rustfmt::skip]
        let want: &[u8] = &[
            b'S', b'R', b'A', b'P',
            1, 0, 0, 0, 0, 0, 0, 0,
            8, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0,
            1, 10, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF,
            0,
        ];
        assert_eq!(store.encode_partials(), want);
        let mut back: LineStore<CellHF> =
            LineStore::new(&SraBackend::Memory, 1 << 10, "row", FP).unwrap();
        back.restore_partials(Partials::decode(want).unwrap());
        assert_eq!(back.encode_partials(), want, "decode then encode is the identity");
    }
}
