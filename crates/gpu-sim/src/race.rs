//! Happens-before race detector for the wavefront engine.
//!
//! Compiled only with the `race-check` feature. The wavefront engine's
//! correctness rests on one ordering argument: blocks of external
//! diagonal `d` read bus cells written by blocks of diagonal `d - 1`, and
//! every schedule orders those writes before the reads — the serial ones
//! by running the producers first on one thread, the strip engine by its
//! border publishes. This module turns the argument into a runtime check:
//!
//! * Every bus cell (horizontal `H`/`F` bus, vertical `H`/`E` bus, and
//!   the corner table) carries a *last-writer record* — which block (or
//!   border initialisation) wrote it, on which diagonal, from which pool
//!   lane, with which scope-FIFO sequence number (see `exec::trace`).
//! * When block `(r, c)` of diagonal `d` starts, the detector checks each
//!   cell it is about to read against the *expected producer* derived
//!   from the grid: the horizontal segment must have been written by
//!   `(r-1, c)` on diagonal `d-1` (or be border/restored state), the
//!   vertical segment by `(r, c-1)`, the corner by `(r-1, c-1)` two
//!   diagonals back. A mismatched identity is a [`ViolationKind::WrongProducer`];
//!   a matching identity whose *barrier epoch* does not precede the
//!   reader's is a [`ViolationKind::UnorderedRead`].
//! * Two blocks writing one cell within the same barrier interval is a
//!   [`ViolationKind::WriteOverlap`] (the segment-splitting invariant).
//! * A multi-device split ([`crate::multi`]) is a strip run with one
//!   strip per card, so its card-to-card border hand-offs are checked by
//!   the strip hand-off shadow counter like any other strip boundary.
//!
//! Striped-kernel writes need no special modelling: the lane-striped
//! kernel (see [`crate::striped`]) is an implementation detail *inside*
//! one `kernel::compute` call. Whether a tile runs scalar, striped, or
//! striped-then-fallback, it still reads its whole bus segments before
//! the call and overwrites them whole by the time it returns, so the
//! per-segment `block_reads`/`block_writes` records around the call (the
//! granularity this detector tracks) describe striped execution exactly;
//! intra-tile lane state lives in kernel-local arrays no other block can
//! observe. A *band* (several blocks of one column in one kernel call,
//! run by a strip runner or by the serial banded walk) reports its blocks
//! one at a time in row order — each block's reads, then its writes —
//! exactly the records of one call per block. The walk's order (a batch
//! of block rows, column by column) satisfies the same epoch rule: a
//! block's producers always sit on the diagonal below it.
//!
//! Violations accumulate in a process-global sink drained by
//! [`take_report`]; tests that arm faults or assert on the report must
//! serialize behind a shared lock (see `tests/race.rs`). The detector
//! never alters engine behaviour — a run with violations still produces
//! its normal result, so a seeded fault can assert both "the output is
//! unchanged" and "the detector saw it".

use crate::exec;
use std::fmt;
use std::sync::Mutex;

/// What produced the current value of a bus cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Border initialisation, or state restored from a checkpoint.
    Border,
    /// Block `(r, c)` running on its scheduled external diagonal.
    Block {
        /// Block row.
        r: usize,
        /// Block column.
        c: usize,
        /// External diagonal the block ran on.
        diagonal: usize,
    },
    /// The fault-injected early run of a block (see
    /// [`exec::fault::arm_reorder_block`]): its writes are recorded here
    /// but never materialized in the real buses.
    Phantom {
        /// Block row.
        r: usize,
        /// Block column.
        c: usize,
        /// External diagonal the block *should* have run on.
        diagonal: usize,
    },
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Border => write!(f, "border"),
            Source::Block { r, c, diagonal } => write!(f, "block ({r},{c})@d{diagonal}"),
            Source::Phantom { r, c, diagonal } => write!(f, "PHANTOM ({r},{c})@d{diagonal}"),
        }
    }
}

/// Classification of a detected ordering violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A cell's last writer is not the producer the grid schedule names.
    WrongProducer,
    /// The producing write's barrier epoch does not precede the read.
    UnorderedRead,
    /// Two blocks wrote one cell within the same barrier interval.
    WriteOverlap,
}

/// One detected violation, with a human-readable account.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Block row of the reader.
    pub r: usize,
    /// Block column of the reader.
    pub c: usize,
    /// External diagonal of the reader.
    pub diagonal: usize,
    /// Full account: cell, expected producer, observed record.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at ({},{})@d{}: {}", self.kind, self.r, self.c, self.diagonal, self.detail)
    }
}

/// Process-global violation sink. Per-cell state is per-[`Session`]; only
/// confirmed violations cross sessions, so concurrent clean engines (e.g.
/// stage-3 partitions) share this without contention.
static SINK: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

fn sink() -> std::sync::MutexGuard<'static, Vec<Violation>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drain and return every violation recorded since the last call.
pub fn take_report() -> Vec<Violation> {
    std::mem::take(&mut *sink())
}

/// Last-writer record of one bus cell.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    source: Source,
    /// Barrier epoch: `diagonal + 1` for block writes, 0 for
    /// border/restored cells. A read on diagonal `d` is ordered iff the
    /// record's epoch is `<= d`.
    epoch: usize,
    /// Pool lane that performed the write (diagnostic tag).
    lane: usize,
    /// Scope-FIFO sequence of the producing job (diagnostic tag).
    seq: u64,
}

struct Inner {
    /// Completed block rows per block column at launch (all 0 for a fresh
    /// run): every block of this cut is border/restored state. Its length
    /// is the grid's block-column count.
    cut: Vec<usize>,
    /// Block rows of the grid, for corner-table bounds.
    block_rows: usize,
    /// Last writer per horizontal-bus cell (one per DP column).
    h: Vec<WriteRec>,
    /// Last writer per vertical-bus cell (one per DP row).
    v: Vec<WriteRec>,
    /// Last writer per corner cell, `(block_rows+1) x (block_cols+1)`.
    corners: Vec<WriteRec>,
    /// Column-strip plan boundaries when the strip scheduler drives this
    /// session (empty = serial diagonal mode).
    strip_bounds: Vec<usize>,
    /// Shadow of each strip's published-row counter. A read that crosses
    /// a strip boundary must be covered by the left strip's publish; the
    /// engine updates this shadow *before* the real counter, so a
    /// consumer the real protocol would admit is always covered here.
    strip_published: Vec<usize>,
}

/// Per-engine-run detector state. Create one per
/// [`crate::wavefront::launch`]; blocks report their bus
/// reads and writes through it and violations land in the global sink.
pub struct Session {
    inner: Mutex<Inner>,
}

impl Session {
    /// A session for a grid of `block_rows x cut.len()` blocks over an
    /// `m x n` DP matrix, starting (or resuming) at `cut`.
    pub fn new(m: usize, n: usize, block_rows: usize, cut: &[usize]) -> Session {
        let border = WriteRec { source: Source::Border, epoch: 0, lane: 0, seq: 0 };
        Session {
            inner: Mutex::new(Inner {
                cut: cut.to_vec(),
                block_rows,
                h: vec![border; n],
                v: vec![border; m],
                corners: vec![border; (block_rows + 1) * (cut.len() + 1)],
                strip_bounds: Vec::new(),
                strip_published: Vec::new(),
            }),
        }
    }

    /// Switch this session to the column-strip protocol: `bounds` are the
    /// plan's strip boundaries (length `strips + 1`), `published` the
    /// initial per-strip published-row counters (non-zero after a resume,
    /// where checkpointed rows count as already handed off).
    pub fn set_strip_plan(&self, bounds: &[usize], published: &[usize]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.strip_bounds = bounds.to_vec();
        inner.strip_published = published.to_vec();
    }

    /// Shadow a strip publish: rows `0..rows` of strip `s` are now
    /// visible to the right neighbour. Monotone, like the real counter.
    pub fn strip_publish(&self, s: usize, rows: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = inner.strip_published.get_mut(s) {
            if rows > *p {
                *p = rows;
            }
        }
    }

    /// Check the reads block `(r, c)` of diagonal `d` performs before it
    /// computes: its horizontal segment (`len_h` cells from absolute
    /// column `h0`), vertical segment (`len_v` cells from absolute row
    /// `v0`) and corner.
    pub fn block_reads(
        &self,
        r: usize,
        c: usize,
        d: usize,
        (h0, len_h): (usize, usize),
        (v0, len_v): (usize, usize),
    ) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // The grid's scheduled producers. A first-row/column block reads
        // border state; so does any block whose producer is in the resumed
        // cut (its writes were restored from the checkpoint).
        let restored = |r: usize, c: usize| r < inner.cut[c];
        let expect_h = if r == 0 || restored(r - 1, c) {
            Source::Border
        } else {
            Source::Block { r: r - 1, c, diagonal: d - 1 }
        };
        let expect_v = if c == 0 || restored(r, c - 1) {
            Source::Border
        } else {
            Source::Block { r, c: c - 1, diagonal: d - 1 }
        };
        let expect_corner = if r == 0 || c == 0 || restored(r - 1, c - 1) {
            Source::Border
        } else {
            Source::Block { r: r - 1, c: c - 1, diagonal: d - 2 }
        };
        let mut pending = Vec::new();
        for (i, rec) in inner.h.iter().enumerate().skip(h0).take(len_h) {
            check_read(&mut pending, "hbus", i, rec, expect_h, r, c, d);
        }
        for (i, rec) in inner.v.iter().enumerate().skip(v0).take(len_v) {
            check_read(&mut pending, "vbus", i, rec, expect_v, r, c, d);
        }
        let ci = r * (inner.cut.len() + 1) + c;
        if let Some(rec) = inner.corners.get(ci) {
            check_read(&mut pending, "corner", ci, rec, expect_corner, r, c, d);
        }
        // Strip protocol: a block on its strip's first column consumes the
        // left strip's border, which is only handed off once that strip
        // publishes rows covering `r + 1`. The shadow counter is updated
        // before the real one, so an uncovered read means the engine let a
        // consumer through before its producer's publish. Restored rows
        // count as published from the start.
        if !inner.strip_bounds.is_empty() && c > 0 {
            let s = inner.strip_bounds.iter().skip(1).position(|&b| c < b).unwrap_or(0);
            if s > 0 && inner.strip_bounds[s] == c {
                let covered = inner.strip_published.get(s - 1).copied().unwrap_or(0);
                if covered < r + 1 {
                    pending.push(Violation {
                        kind: ViolationKind::UnorderedRead,
                        r,
                        c,
                        diagonal: d,
                        detail: format!(
                            "strip hand-off: block ({r},{c}) consumes the border of strip \
                             {} with only {covered} row(s) published (needs {})",
                            s - 1,
                            r + 1
                        ),
                    });
                }
            }
        }
        drop(inner);
        if !pending.is_empty() {
            sink().append(&mut pending);
        }
    }

    /// Record the writes block `(r, c)` of diagonal `d` commits: its
    /// horizontal and vertical segments and the corner below-right of it.
    /// `phantom` marks the fault-injected early run, whose writes exist
    /// only in the detector.
    pub fn block_writes(
        &self,
        r: usize,
        c: usize,
        d: usize,
        (h0, len_h): (usize, usize),
        (v0, len_v): (usize, usize),
        phantom: bool,
    ) {
        let (lane, seq) = exec::trace::current();
        let source = if phantom {
            Source::Phantom { r, c, diagonal: d }
        } else {
            Source::Block { r, c, diagonal: d }
        };
        let rec = WriteRec { source, epoch: d + 1, lane, seq };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut pending = Vec::new();
        for i in h0..(h0 + len_h).min(inner.h.len()) {
            check_write(&mut pending, "hbus", i, &inner.h[i], &rec);
            inner.h[i] = rec;
        }
        for i in v0..(v0 + len_v).min(inner.v.len()) {
            check_write(&mut pending, "vbus", i, &inner.v[i], &rec);
            inner.v[i] = rec;
        }
        if r < inner.block_rows && c < inner.cut.len() {
            let ci = (r + 1) * (inner.cut.len() + 1) + (c + 1);
            check_write(&mut pending, "corner", ci, &inner.corners[ci], &rec);
            inner.corners[ci] = rec;
        }
        drop(inner);
        if !pending.is_empty() {
            sink().append(&mut pending);
        }
    }
}

/// The happens-before check for one cell read: last writer must be the
/// scheduled producer, and its barrier epoch must precede the reader's
/// diagonal (epoch `<= d` means the write was sealed by an earlier
/// scope drain — the FIFO pool's barrier).
#[allow(clippy::too_many_arguments)]
fn check_read(
    pending: &mut Vec<Violation>,
    bus: &str,
    idx: usize,
    rec: &WriteRec,
    expect: Source,
    r: usize,
    c: usize,
    d: usize,
) {
    if rec.source != expect {
        pending.push(Violation {
            kind: ViolationKind::WrongProducer,
            r,
            c,
            diagonal: d,
            detail: format!(
                "{bus}[{idx}] last written by {} (lane {}, seq {}), expected {}",
                rec.source, rec.lane, rec.seq, expect
            ),
        });
    } else if rec.epoch > d {
        pending.push(Violation {
            kind: ViolationKind::UnorderedRead,
            r,
            c,
            diagonal: d,
            detail: format!(
                "{bus}[{idx}] write by {} has epoch {} — not sealed by a barrier before \
                 diagonal {d}",
                rec.source, rec.epoch
            ),
        });
    }
}

/// The exclusivity check for one cell write: nobody else may have written
/// it within the same barrier interval (same epoch).
fn check_write(
    pending: &mut Vec<Violation>,
    bus: &str,
    idx: usize,
    old: &WriteRec,
    new: &WriteRec,
) {
    if old.epoch == new.epoch && old.source != Source::Border {
        pending.push(Violation {
            kind: ViolationKind::WriteOverlap,
            r: 0,
            c: 0,
            diagonal: new.epoch.saturating_sub(1),
            detail: format!(
                "{bus}[{idx}] written by both {} and {} within one barrier interval",
                old.source, new.source
            ),
        });
    }
}
