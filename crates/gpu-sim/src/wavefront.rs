//! The external-diagonal wavefront scheduler.
//!
//! Blocks of one external diagonal are mutually independent: each reads
//! the horizontal-bus segment written by the block above it (previous
//! diagonal) and the vertical-bus segment written by the block to its left
//! (also previous diagonal).
//!
//! Two schedulers implement that dependence structure:
//!
//! * **Diagonal** (serial runs: one lane, or one block column): walk
//!   diagonals in order on the calling thread, computing each diagonal's
//!   blocks and committing them in block order.
//!
//! * **Column-strip** (parallel runs): each worker *owns* a contiguous
//!   strip of block-columns for the whole run ([`StripPlan`]), walking it
//!   one publish batch at a time so tiles stay hot in one worker's cache.
//!   The only cross-strip dependence is the vertical bus / corner
//!   hand-off along the strip boundary, signalled point-to-point by a
//!   published-row counter per strip — several block rows are batched per
//!   publish ([`StripPlan::batch_rows`]) to amortize signalling, and there
//!   is no global barrier anywhere. Each block column's share of a batch
//!   is one kernel call (a *band*, [`kernel::compute`]), which amortizes
//!   the striped rungs' per-column costs over the batch height. When a
//!   plan has more strips than workers (ragged grids), runners that
//!   finish a strip steal the next unclaimed one, in ascending column
//!   order. The calling thread runs strip 0 and *delivers* finished
//!   blocks: in canonical diagonal order, so observers see exactly the
//!   event stream of the diagonal loop, or, for an order-free launch, in
//!   the order they finish (see the `strip` module). Results are
//!   bit-identical to the serial engine's either way.
//!
//! Every completed block is reported, sequentially and on the calling
//! thread, to the caller's [`WavefrontObserver`], which is how the
//! pipeline flushes special rows (Stage 1) and runs goal-based matching
//! with early abort (Stages 2-3). A launch is *order-free* when it has no
//! watch and its observer does not read canonical diagonal order
//! ([`WavefrontObserver::needs_diagonal_order`]). Ordered launches run
//! the two schedulers above in canonical order. An order-free launch on
//! strips delivers in completion order, and on one lane it takes a third
//! schedule:
//!
//! * **Banded walk** (order-free serial runs): walk the grid one publish
//!   batch of [`DEFAULT_BATCH_ROWS`] block rows at a time, column by
//!   column, each column's share of the batch one band computed straight
//!   into the live buses, and deliver each block right after its band.
//!
//! Order-free blocks arrive in walk or completion order, each after the
//! blocks above it and to its left; [`BlockCoords::frontier`] tells the
//! observer which diagonals are complete.
//!
//! Checkpoints and resume do not pick the schedule. A snapshot
//! ([`EngineState`]) holds a *cut*, the completed block rows of each
//! block column; any prefix of any schedule's delivery order that ends on
//! a band boundary is one. Every schedule skips the blocks of a resumed
//! cut and offers snapshots at band boundaries ([`Launch::checkpoint_every`]),
//! so a snapshot from one schedule or worker count resumes under any other.
//!
//! A fresh local run that takes the banded walk at one lane (no watch,
//! checkpoints or resume, an order-free observer) also *prunes* when its
//! observer allows it ([`WavefrontObserver::allows_pruning`]): a band
//! that no path can carry to the best score found up and to its left is
//! not computed (see [`compute_band`]). Strip runners make the same
//! decisions on the same bands, so such runs stay byte-identical across
//! worker counts for one `batch_rows`, and their score, end point and
//! every cell on an optimal path are those of an unpruned run.
//!
//! Every region launch goes through one entry, [`launch`]: the pool, the
//! job, the observer, and a [`Launch`] with the resume snapshot,
//! checkpoint cadence, explicit strip plan and supervision token, all off
//! by default. [`run_pooled`] is its default-options shorthand. Neither
//! panics on caller input or a worker panic: each is an [`ExecError`].

use crate::ctrl::{CancelToken, StripDiag};
use crate::exec::{ExecError, WorkerPool};
use crate::grid::{GridLayout, GridSpec};
use crate::kernel::{self, CellHE, CellHF, KernelPath, Mode, PathCounts, TileOutcome};
use std::ops::{ControlFlow, Range};
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring};

/// Identity and geometry of one block, as seen by observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCoords {
    /// Block row index.
    pub r: usize,
    /// Block column index.
    pub c: usize,
    /// External diagonal (`r + c`).
    pub diagonal: usize,
    /// Completed-diagonal frontier: every block of every diagonal below
    /// it was delivered before this one. It never decreases over a run.
    /// In canonical diagonal order it equals [`BlockCoords::diagonal`];
    /// in the banded walk, where `diagonal` is not monotone, progress,
    /// kill and cancel triggers must read this instead.
    pub frontier: usize,
    /// Inclusive 1-based DP row range `(start, end)` of the block.
    pub rows: (usize, usize),
    /// Inclusive 1-based DP column range `(start, end)` of the block.
    pub cols: (usize, usize),
    /// True when this block is in the last block row.
    pub last_block_row: bool,
    /// True when this block is in the last block column.
    pub last_block_col: bool,
}

/// Observer invoked after each completed block, sequentially on the
/// calling thread.
///
/// Blocks arrive in canonical diagonal order (ascending block column
/// within a diagonal) unless [`WavefrontObserver::needs_diagonal_order`]
/// returns `false` on an unwatched launch: then they arrive in the banded
/// walk's order on one lane and in the order strip runners finish them
/// on several. Either way a block arrives after the blocks above it and
/// to its left, so each block row arrives left to right and every prefix
/// of the stream is a cut.
pub trait WavefrontObserver {
    /// `bottom` is the block's last row (`H`/`F` per column — the
    /// horizontal-bus segment it just wrote, i.e. the special-row
    /// candidate); `right` is its last column (`H`/`E` per row — the
    /// *rectified vertical bus*); `outcome` carries the block's watch hit
    /// and cell count. Return `Break` to abort the launch.
    fn on_block(
        &mut self,
        block: &BlockCoords,
        outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()>;

    /// Called at a band boundary at the cadence configured by
    /// [`Launch::checkpoint_every`], with a snapshot the observer may
    /// persist: every block delivered before the call is in its cut, no
    /// later one is. Default: ignore.
    fn on_checkpoint(&mut self, _state: &EngineState) {}

    /// Called for strip-scheduler protocol events (claims, steals, border
    /// publishes), on the calling thread, interleaved with
    /// [`WavefrontObserver::on_block`] deliveries. Serial runs emit none.
    /// Default: ignore.
    fn on_strip_event(&mut self, _event: &StripEvent) {}

    /// Does this observer depend on canonical diagonal order? Return
    /// `false` only when its results do not depend on the order blocks
    /// arrive in (beyond each block following its upper and left
    /// neighbours) and it reads progress from [`BlockCoords::frontier`].
    /// A launch without a watch then takes the banded walk on one lane
    /// and delivers in completion order on strips (see the module docs).
    /// Default: `true`.
    fn needs_diagonal_order(&self) -> bool {
        true
    }

    /// Does this observer, and the caller reading the launch's result,
    /// need exact values only on cells that can still reach the best
    /// score? Return `true` to let a local, order-free launch prune (see
    /// [`compute_band`]): bands that cannot reach the best score found so
    /// far are skipped and their borders, the buses included, hold the
    /// local floor. The best cell, its score and every cell on an optimal
    /// path stay exact. Default: `false`, every border exact.
    fn allows_pruning(&self) -> bool {
        false
    }
}

/// A protocol event of the column-strip scheduler, surfaced to observers
/// for tracing (`obs::Event::StripProgress` / `StripSteal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripEvent {
    /// A runner took ownership of a strip. `stolen` is true when this is
    /// not the runner's first strip — it finished its own and stole the
    /// next unclaimed one (ragged-edge balancing).
    Claimed {
        /// Runner index (0 = the calling thread).
        runner: usize,
        /// Strip index in the [`StripPlan`].
        strip: usize,
        /// True when the claim is a steal.
        stolen: bool,
    },
    /// A runner published its strip's right-border progress: rows
    /// `0..rows_done` of the vertical-bus/corner hand-off are now visible
    /// to the strip on its right.
    Published {
        /// Runner index.
        runner: usize,
        /// Strip index whose border advanced.
        strip: usize,
        /// Block rows published so far.
        rows_done: usize,
        /// Total block rows of the grid.
        rows_total: usize,
    },
}

/// A no-op observer.
pub struct NoObserver;

impl WavefrontObserver for NoObserver {
    fn on_block(
        &mut self,
        _: &BlockCoords,
        _: &TileOutcome,
        _: &[CellHF],
        _: &[CellHE],
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    fn needs_diagonal_order(&self) -> bool {
        false
    }
}

/// Default number of block rows batched per strip-border publish.
///
/// Larger batches amortize the signalling (one lock + condvar notify per
/// publish) and the striped kernel's per-column costs (one band per block
/// column per batch) over more rows; smaller batches let the right
/// neighbour start sooner. The wavefront pipeline ramps in `batch_rows * strips` diagonals
/// — negligible against the tall grids stage 1 uses.
pub const DEFAULT_BATCH_ROWS: usize = 4;

/// Cells per block below which [`region_workers`] gives a region one lane.
///
/// Every strip-border publish and every launch's pool hand-off is a fixed
/// cost that only large blocks amortize. The `mcups` `smallblock` cases
/// time two homologous global regions in stage 2's view on one lane and
/// on two strip runners: a scaled `chromosome` strip (384x256) and a
/// 1024-row strip swept four strip heights (4096x1024). How many times
/// faster one lane ran (2-CPU AVX-512 host, three full runs, median of 9
/// paired rounds each):
///
/// | block   | cells  | rung    | 384x256    | 4096x1024  |
/// |---------|--------|---------|------------|------------|
/// | 16x16   | 256    | scalar  | 1.56-2.33x | 1.57-1.70x |
/// | 32x32   | 1 024  | scalar  | 1.33-1.36x | 0.93-1.05x |
/// | 64x64   | 4 096  | i8->i16 | 1.03-1.32x | 0.62-0.67x |
/// | 128x128 | 16 384 | i8->i16 | 1.11-1.23x | 0.67-0.69x |
///
/// (The 4096x1024 region's 16-row blocks are 17 wide.) On the tall
/// region the two sides
/// cross between 1 k cells, where they tie, and 4 k cells, where two
/// strips run 1.5-1.6x faster. The short region still favours one lane
/// from 4 k cells on: its right strip waits out [`DEFAULT_BATCH_ROWS`]
/// of only 3-6 block rows, which a rule on block size does not see.
///
/// The table times one block per kernel call on both sides, in diagonal
/// order, as stage 2's watched regions still run. The `smallblock` cases
/// are unwatched, so in the checked-in `BENCH_kernel.json` both sides
/// band: strip runners in bands of [`StripPlan::batch_rows`] blocks, one
/// lane in the banded walk. There one lane runs faster at every block
/// size on the short region, and two strips from 64x64 blocks on the
/// tall one.
pub const HANDOFF_BREAK_EVEN_CELLS: usize = 4096;

/// Lanes to give a region: `1` when a full block of `layout` holds fewer
/// than [`HANDOFF_BREAK_EVEN_CELLS`] cells, `workers` unchanged otherwise.
///
/// Stages 2 and 3 size [`RegionJob::workers`] with this: their scaled
/// grids carve thin strips and partitions into blocks a few dozen cells
/// on a side, and those regions run faster on the calling thread than
/// split across strip runners. Stage 1 keeps the caller's worker count:
/// its grids are sized against the whole matrix, so its blocks are far
/// above the break-even.
pub fn region_workers(layout: &GridLayout, workers: usize) -> usize {
    let height = layout.block_height.min(layout.m);
    let width = layout.n / layout.block_cols;
    if height * width < HANDOFF_BREAK_EVEN_CELLS {
        1
    } else {
        workers
    }
}

/// How block-columns are grouped into persistent ownership strips for the
/// column-strip scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripPlan {
    /// Strip boundaries: strip `s` owns block-columns
    /// `bounds[s]..bounds[s + 1]`. Monotonically increasing, starting at
    /// 0 and ending at the grid's `block_cols`.
    pub bounds: Vec<usize>,
    /// Block rows batched per border publish (at least 1). A strip
    /// runner also computes each block column's share of a batch as one
    /// kernel call (a band), so this is the band height in blocks.
    pub batch_rows: usize,
}

impl StripPlan {
    /// An even split of `block_cols` columns into `min(workers,
    /// block_cols)` strips; the leftmost strips take the remainder, one
    /// extra column each.
    pub fn balanced(block_cols: usize, workers: usize) -> StripPlan {
        let strips = workers.min(block_cols).max(1);
        let base = block_cols / strips;
        let extra = block_cols % strips;
        let mut bounds = Vec::with_capacity(strips + 1);
        let mut next = 0usize;
        bounds.push(0);
        for s in 0..strips {
            next += base + usize::from(s < extra);
            bounds.push(next);
        }
        StripPlan { bounds, batch_rows: DEFAULT_BATCH_ROWS }
    }

    /// Number of strips in the plan.
    pub fn strips(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Does this plan exactly cover a grid `block_cols` wide, with every
    /// strip non-empty and `batch_rows >= 1`?
    pub fn is_valid_for(&self, block_cols: usize) -> bool {
        self.batch_rows >= 1
            && self.bounds.first() == Some(&0)
            && self.bounds.last() == Some(&block_cols)
            && self.bounds.windows(2).all(|w| w[0] < w[1])
    }
}

/// Counters of one column-strip launch, reported on
/// [`RegionResult::strip`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripStats {
    /// Strips in the executed plan.
    pub strips: usize,
    /// Block rows per border publish.
    pub batch_rows: usize,
    /// Claims beyond each runner's first — whole-strip work steals.
    pub steals: u64,
    /// Border publishes that advanced a strip's published-row counter.
    pub batches_published: u64,
    /// Blocks computed per runner (index 0 = the calling thread).
    pub runner_blocks: Vec<u64>,
    /// Most finished blocks parked at once, awaiting delivery with their
    /// border copies. An order-free launch keeps it at most
    /// `batch_rows` × block columns; an ordered one bounds it by the
    /// lead window.
    pub parked_peak: usize,
}

/// One engine launch over a DP region.
#[derive(Debug, Clone, Copy)]
pub struct RegionJob<'a> {
    /// Row sequence (`S0` side of the region).
    pub a: &'a [u8],
    /// Column sequence (`S1` side of the region).
    pub b: &'a [u8],
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Local or global recurrence.
    pub mode: Mode,
    /// Execution configuration.
    pub grid: GridSpec,
    /// Maximum worker threads (`0` = all available cores).
    pub workers: usize,
    /// When set, every block reports the first cell whose `H` equals this
    /// score (Stage 2's start-point detection).
    pub watch: Option<Score>,
}

/// Outcome of an engine launch.
#[derive(Debug, Clone)]
pub struct RegionResult {
    /// Best cell and its position (local mode; `None` when every cell is 0).
    pub best: Option<(Score, usize, usize)>,
    /// Cells covered (excluding borders), pruned ones included.
    pub cells: u64,
    /// Of [`RegionResult::cells`], the cells of pruned blocks, which no
    /// kernel computed.
    pub pruned_cells: u64,
    /// External diagonals this launch completed: how far it moved the
    /// completed-diagonal frontier ([`BlockCoords::frontier`]) past the
    /// resumed cut's ([`EngineState::next_diagonal`], 0 on a fresh run).
    pub diagonals_run: usize,
    /// True when an observer aborted the launch.
    pub aborted: bool,
    /// Blocks completed, restored ones included (busy block-slots summed
    /// over diagonals). See [`RegionResult::utilization`].
    pub busy_slots: u64,
    /// Final horizontal bus: frontier `H`/`F` per column (row `m` for every
    /// column when the launch ran to completion).
    pub hbus: Vec<CellHF>,
    /// Final vertical bus: frontier `H`/`E` per row.
    pub vbus: Vec<CellHE>,
    /// The layout that was executed.
    pub layout: GridLayout,
    /// Precision-ladder outcome counters for the tiles of *this run* —
    /// like [`RegionResult::diagonals_run`], kernel-path counters are not
    /// carried across checkpoint resume.
    pub paths: PathCounts,
    /// Query-profile cache lookups that found a resident band (this run).
    pub profile_hits: u64,
    /// Query-profile cache lookups that built a fresh band (this run).
    pub profile_misses: u64,
    /// Strip-scheduler counters; `None` when a serial schedule (the
    /// diagonal loop or the banded walk) ran.
    pub strip: Option<StripStats>,
}

impl RegionResult {
    /// Fraction of block slots kept busy across the executed diagonals:
    /// `busy_slots / (diagonals_run * block_cols)`.
    ///
    /// This is the quantity CUDAlign 1.0's *cells delegation* maximizes.
    /// With the tall grids the pipeline uses (`block_rows >>
    /// block_cols`), the rectangular wavefront already achieves the
    /// paper's "full parallelism except in the very beginning and very
    /// close to the end": utilization tends to
    /// `block_rows / (block_rows + block_cols - 1)`.
    pub fn utilization(&self) -> f64 {
        let slots = self.diagonals_run as u64 * self.layout.block_cols as u64;
        if slots == 0 {
            return 0.0;
        }
        self.busy_slots as f64 / slots as f64
    }
}

/// Serializable execution state at a completed *cut* — the
/// checkpoint/resume support an 18-hour Stage 1 needs (the real CUDAlign
/// gained incremental execution in its follow-on versions).
///
/// The cut is the set of completed blocks: the first `cut[c]` block rows
/// of each block column `c`. It never increases from left to right, so
/// every block in it has its upper and left neighbours in it too, and
/// the buses hold exactly the borders the blocks outside it read next.
/// Any schedule resumes any cut; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Fingerprint of the job this state belongs to: `(m, n, B, T, alpha)`.
    pub fingerprint: (u64, u64, u64, u64, u64),
    /// The cut's frontier: the lowest external diagonal that still holds
    /// a block outside the cut.
    pub next_diagonal: usize,
    /// Completed block rows per block column, never increasing from left
    /// to right. Empty in a blob an earlier build wrote (magic `CKPT`):
    /// those hold the diagonal cut at [`EngineState::next_diagonal`].
    pub cut: Vec<usize>,
    /// Horizontal bus contents.
    pub hbus: Vec<CellHF>,
    /// Vertical bus contents.
    pub vbus: Vec<CellHE>,
    /// Corner matrix contents.
    pub corners: Vec<Score>,
    /// Best cell so far (local mode).
    pub best: Option<(Score, usize, usize)>,
    /// Cells processed so far.
    pub cells: u64,
    /// Blocks in the cut.
    pub busy_slots: u64,
}

impl EngineState {
    /// The state of `job` at `progress`'s cut. Every schedule builds its
    /// snapshots here, so a blob does not depend on the schedule (or
    /// worker count) that wrote it.
    fn snapshot(
        job: &RegionJob<'_>,
        hbus: &[CellHF],
        vbus: &[CellHE],
        corners: &[Score],
        totals: &Totals,
        progress: &Progress,
    ) -> Self {
        EngineState {
            fingerprint: Self::fingerprint_of(job),
            next_diagonal: progress.front,
            cut: progress.cut.clone(),
            hbus: hbus.to_vec(),
            vbus: vbus.to_vec(),
            corners: corners.to_vec(),
            best: totals.best,
            cells: totals.cells,
            busy_slots: progress.blocks_done(),
        }
    }

    /// Does this snapshot belong to `job`, and is it well formed: buses
    /// and corners of the job's shape, and a cut of its grid whose
    /// frontier is `next_diagonal`? Callers should check before resuming;
    /// [`launch`] returns [`ExecError::ForeignCheckpoint`] otherwise.
    pub fn matches(&self, job: &RegionJob<'_>) -> bool {
        let layout = job.grid.layout(job.a.len(), job.b.len());
        let (br, bc) = (layout.block_rows, layout.block_cols);
        let cut = self.cut_on(&layout);
        self.fingerprint == Self::fingerprint_of(job)
            && self.hbus.len() == layout.n
            && self.vbus.len() == layout.m
            && self.corners.len() == (br + 1) * (bc + 1)
            && cut.len() == bc
            && cut.first().is_some_and(|&k| k <= br)
            && cut.windows(2).all(|w| w[0] >= w[1])
            && Progress::new(&layout, cut).front == self.next_diagonal
    }

    /// The cut on `layout`, reading an empty one as the diagonal cut at
    /// `next_diagonal`.
    fn cut_on(&self, layout: &GridLayout) -> Vec<usize> {
        if !self.cut.is_empty() {
            return self.cut.clone();
        }
        let d = self.next_diagonal;
        (0..layout.block_cols).map(|c| d.saturating_sub(c).min(layout.block_rows)).collect()
    }

    fn fingerprint_of(job: &RegionJob<'_>) -> (u64, u64, u64, u64, u64) {
        // FNV-1a over everything that determines the DP values: sequence
        // content, scoring, mode and grid. Resuming under any other job
        // must be rejected — buses computed with different parameters
        // would silently corrupt the result.
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x100000001b3);
            }
        }
        let mut content = 0xcbf29ce484222325u64;
        fnv(&mut content, job.a);
        fnv(&mut content, job.b);
        let mut params = 0xcbf29ce484222325u64;
        for v in [
            job.scoring.match_score,
            job.scoring.mismatch_score,
            job.scoring.gap_first,
            job.scoring.gap_ext,
        ] {
            fnv(&mut params, &v.to_le_bytes());
        }
        match job.mode {
            Mode::Local => fnv(&mut params, b"local"),
            Mode::Global { origin } => {
                fnv(&mut params, b"global");
                fnv(&mut params, &origin.h0.to_le_bytes());
                fnv(&mut params, &origin.e0.to_le_bytes());
                fnv(&mut params, &origin.f0.to_le_bytes());
            }
        }
        (
            job.a.len() as u64,
            job.b.len() as u64,
            (job.grid.blocks as u64) << 32 | (job.grid.threads as u64) << 8 | job.grid.alpha as u64,
            content,
            params,
        )
    }

    /// Serialize (little-endian, self-describing lengths). The layout is
    /// that of earlier builds' `CKPT` blobs with the cut appended, under
    /// the magic `CKPC`, which those builds reject.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            72 + 8 * (self.hbus.len() + self.vbus.len() + self.cut.len()) + 4 * self.corners.len(),
        );
        out.extend_from_slice(b"CKPC");
        for v in [
            self.fingerprint.0,
            self.fingerprint.1,
            self.fingerprint.2,
            self.fingerprint.3,
            self.fingerprint.4,
            self.next_diagonal as u64,
            self.cells,
            self.busy_slots,
            self.hbus.len() as u64,
            self.vbus.len() as u64,
            self.corners.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match self.best {
            None => out.push(0),
            Some((s, i, j)) => {
                out.push(1);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&(i as u64).to_le_bytes());
                out.extend_from_slice(&(j as u64).to_le_bytes());
            }
        }
        for c in &self.hbus {
            out.extend_from_slice(&c.h.to_le_bytes());
            out.extend_from_slice(&c.f.to_le_bytes());
        }
        for c in &self.vbus {
            out.extend_from_slice(&c.h.to_le_bytes());
            out.extend_from_slice(&c.e.to_le_bytes());
        }
        for &c in &self.corners {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.cut.len() as u64).to_le_bytes());
        for &k in &self.cut {
            out.extend_from_slice(&(k as u64).to_le_bytes());
        }
        out
    }

    /// Deserialize; `None` on any structural mismatch. A `CKPT` blob from
    /// an earlier build decodes with an empty cut (its diagonal cut).
    /// Trailing bytes are ignored, so blobs that earlier builds wrote with
    /// a `STRP` schedule tailer still decode.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, k: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + k)?;
            *pos += k;
            Some(s)
        };
        let has_cut = match take(&mut pos, 4)? {
            b"CKPC" => true,
            b"CKPT" => false,
            _ => return None,
        };
        let u = |pos: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(pos, 8)?.try_into().ok()?))
        };
        let s = |pos: &mut usize| -> Option<Score> {
            Some(Score::from_le_bytes(take(pos, 4)?.try_into().ok()?))
        };
        let fp = (u(&mut pos)?, u(&mut pos)?, u(&mut pos)?, u(&mut pos)?, u(&mut pos)?);
        let next_diagonal = u(&mut pos)? as usize;
        let cells = u(&mut pos)?;
        let busy_slots = u(&mut pos)?;
        let nh = u(&mut pos)? as usize;
        let nv = u(&mut pos)? as usize;
        let nc = u(&mut pos)? as usize;
        // Reject sizes the payload cannot hold (corruption guard), and
        // sizes whose byte count does not even fit a `usize`.
        let need = nh
            .checked_add(nv)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| n.checked_add(nc.checked_mul(4)?))
            .and_then(|n| n.checked_add(1))?;
        if bytes.len().checked_sub(pos)? < need {
            return None;
        }
        let best = match take(&mut pos, 1)?[0] {
            0 => None,
            _ => Some((s(&mut pos)?, u(&mut pos)? as usize, u(&mut pos)? as usize)),
        };
        let hbus = (0..nh).map(|_| Some(CellHF { h: s(&mut pos)?, f: s(&mut pos)? }));
        let hbus = hbus.collect::<Option<Vec<_>>>()?;
        let vbus = (0..nv).map(|_| Some(CellHE { h: s(&mut pos)?, e: s(&mut pos)? }));
        let vbus = vbus.collect::<Option<Vec<_>>>()?;
        let corners = (0..nc).map(|_| s(&mut pos)).collect::<Option<Vec<_>>>()?;
        let nk = if has_cut { u(&mut pos)? } else { 0 };
        let cut = (0..nk).map(|_| Some(u(&mut pos)? as usize)).collect::<Option<Vec<_>>>()?;
        Some(EngineState {
            fingerprint: fp,
            next_diagonal,
            cut,
            hbus,
            vbus,
            corners,
            best,
            cells,
            busy_slots,
        })
    }
}

/// How a [`launch`] runs, beyond its job. `Launch::default()` is a fresh,
/// unsupervised run without checkpoints on the schedule the worker count
/// picks — what [`run_pooled`] runs.
#[derive(Debug, Default)]
pub struct Launch<'t> {
    /// Resume from this snapshot instead of the region's borders: skip
    /// the blocks of its cut. It must belong to the job
    /// ([`EngineState::matches`]).
    pub resume: Option<EngineState>,
    /// Offer [`WavefrontObserver::on_checkpoint`] a snapshot at the first
    /// band boundary where the completed-diagonal frontier has moved this
    /// many external diagonals past the last offer (or the launch's
    /// start), while blocks remain. Neither this nor `resume` changes the
    /// schedule; both turn pruning off.
    pub checkpoint_every: Option<usize>,
    /// Run the column-strip scheduler on this plan, including ragged
    /// plans with more strips than workers (whole-strip work stealing).
    /// It must cover the grid ([`StripPlan::is_valid_for`]). `None`
    /// derives the schedule from the worker count.
    pub plan: Option<StripPlan>,
    /// Supervision token, polled cooperatively by every schedule: the
    /// serial ones between bands, the strip engine in its delivery loop
    /// (which in turn wakes parked runners through the protocol
    /// condvars), and all of them once more after the last block. A
    /// cancelled launch first emits one final
    /// [`WavefrontObserver::on_checkpoint`] with its current cut (when
    /// checkpointing is enabled), so cancellation is always resumable,
    /// then returns with [`RegionResult::aborted`] set, even when the
    /// cancel landed during its last band and every block completed.
    /// Workers bump the token's heartbeat on every computed block /
    /// published border, which is what the stall watchdog observes — no
    /// clock is read anywhere in here.
    pub token: Option<&'t CancelToken>,
}

/// Run a region on a shared persistent [`WorkerPool`] with default
/// [`Launch`] options.
///
/// Scores, endpoints and buses never depend on the pool size or the
/// schedule, and an observer that asks for it
/// ([`WavefrontObserver::needs_diagonal_order`], the default) is notified
/// on the calling thread in canonical diagonal order, so its event stream
/// is identical too. An order-free observer sees the same blocks and
/// borders in banded-walk order on one lane and in completion order on
/// strips.
pub fn run_pooled(
    pool: &WorkerPool,
    job: &RegionJob<'_>,
    observer: &mut dyn WavefrontObserver,
) -> Result<RegionResult, ExecError> {
    launch(pool, job, observer, Launch::default())
}

/// Run a region on a shared persistent [`WorkerPool`] under `opts`: the
/// one engine entry every region launch goes through.
///
/// The effective parallelism is `min(pool.lanes(), job.workers)` (with
/// `job.workers == 0` meaning "no extra cap"), so a job built with
/// `workers: 1` stays serial even on a wide pool — stage 3 relies on that
/// to keep per-partition engines single-lane while partitions fan out,
/// and stages 2-3 size `workers` with [`region_workers`].
///
/// # Errors
/// [`ExecError::ForeignCheckpoint`] when `opts.resume` does not match the
/// job and [`ExecError::PlanMismatch`] when `opts.plan` does not cover the
/// grid, both before any block runs; [`ExecError::WorkerPanic`] when a
/// worker panics.
pub fn launch(
    pool: &WorkerPool,
    job: &RegionJob<'_>,
    observer: &mut dyn WavefrontObserver,
    opts: Launch<'_>,
) -> Result<RegionResult, ExecError> {
    let Launch { resume, checkpoint_every, plan, token } = opts;
    let (m, n) = (job.a.len(), job.b.len());
    let layout = job.grid.layout(m, n);
    if resume.as_ref().is_some_and(|state| !state.matches(job)) {
        return Err(ExecError::ForeignCheckpoint);
    }
    if let Some(p) = plan.as_ref().filter(|p| !p.is_valid_for(layout.block_cols)) {
        return Err(ExecError::PlanMismatch {
            bounds: p.bounds.clone(),
            block_cols: layout.block_cols,
        });
    }

    let (mut hbus, mut vbus, origin_h) = match job.mode {
        Mode::Local => kernel::local_borders(m, n),
        Mode::Global { origin } => kernel::global_borders(m, n, &job.scoring, origin),
    };

    // corners[r][c] = H at (row_end(r-1), col_end(c-1)); row/col 0 hold the
    // border values so block (r, c) always reads corners[r][c]. The origin
    // corner is the origin's H seed — NEG_INF for reverse regions whose
    // path must *begin* inside a gap run.
    let (br, bc) = (layout.block_rows, layout.block_cols);
    let mut corners = vec![0 as Score; (br + 1) * (bc + 1)];
    corners[0] = origin_h;
    for c in 0..bc {
        let (_, ce) = layout.col_range(c);
        corners[c + 1] = if ce == 0 { 0 } else { hbus[ce - 1].h };
    }
    for r in 0..br {
        let (_, re) = layout.row_range(r);
        corners[(r + 1) * (bc + 1)] = if re == 0 { 0 } else { vbus[re - 1].h };
    }

    let workers = pool.lanes_for(job.workers);

    // A launch needs diagonal order when its observer reads it or when it
    // is watched (stage 2 breaks at the first hit in diagonal order).
    // Otherwise one lane takes the banded walk and strips deliver in
    // completion order. A fresh local run without checkpoints whose
    // observer allows it also prunes, on every schedule.
    let order_free = job.watch.is_none() && !observer.needs_diagonal_order();
    let prune = order_free
        && resume.is_none()
        && checkpoint_every.is_none()
        && job.mode.is_local()
        && observer.allows_pruning();
    let cone = prune.then(|| vec![0 as Score; (br + 1) * (bc + 1)]);

    let mut totals = Totals::default();
    let mut cut = vec![0; bc];
    if let Some(state) = resume {
        cut = state.cut_on(&layout);
        hbus = state.hbus;
        vbus = state.vbus;
        corners = state.corners;
        totals.best = state.best;
        totals.cells = state.cells;
    }
    let progress = Progress::new(&layout, cut);

    // One detector session per engine run: shadow last-writer state for
    // every bus cell, checked against the grid's scheduled producers.
    #[cfg(feature = "race-check")]
    let race_session = crate::race::Session::new(m, n, br, &progress.cut);

    // Column-strip dispatch: an explicit plan forces the strip engine;
    // otherwise it engages whenever more than one worker meets more than
    // one block column (the only shape where scheduling matters). The
    // serial fallback below also covers resume-at-end, which has no work.
    let strip_plan = match plan {
        None if workers > 1 && bc > 1 && !progress.finished() => {
            Some(StripPlan::balanced(bc, workers))
        }
        plan => plan,
    };
    if let Some(plan) = strip_plan {
        let params = strip::Params {
            pool,
            job,
            layout: &layout,
            plan: &plan,
            workers,
            checkpoint_every,
            order_free,
            totals,
            progress,
            token,
            #[cfg(feature = "race-check")]
            race: &race_session,
        };
        return strip::run(params, observer, hbus, vbus, corners, cone);
    }

    let mut serial = Serial {
        job,
        layout,
        hbus,
        vbus,
        corners,
        cone,
        totals,
        progress,
        checkpoint_every,
        // One run-wide profile cache: consecutive bands share query rows.
        bands: BandState::default(),
        token,
        #[cfg(feature = "race-check")]
        race: &race_session,
    };
    // A cancel that lands during the last band has no band left to be
    // polled before, so the token is polled once more at the end.
    let aborted = if order_free { serial.walk(observer) } else { serial.diagonals(observer) }
        || cancel_flush(serial.token, serial.checkpoint_every, observer, || serial.snapshot());

    Ok(RegionResult {
        best: serial.totals.best,
        cells: serial.totals.cells,
        pruned_cells: serial.totals.pruned_cells,
        diagonals_run: serial.progress.front - serial.progress.start,
        aborted,
        busy_slots: serial.progress.blocks_done(),
        hbus: serial.hbus,
        vbus: serial.vbus,
        layout,
        paths: serial.totals.paths,
        profile_hits: serial.bands.cache.hits(),
        profile_misses: serial.bands.cache.misses(),
        strip: None,
    })
}

/// Is `token` cancelled? Then offer the observer `snapshot`'s cut when
/// checkpointing, so the cancel stays resumable. Every schedule polls
/// this at its band boundaries and once more after its last band.
fn cancel_flush(
    token: Option<&CancelToken>,
    checkpoint_every: Option<usize>,
    observer: &mut dyn WavefrontObserver,
    snapshot: impl FnOnce() -> EngineState,
) -> bool {
    let cancelled = token.is_some_and(CancelToken::is_cancelled);
    if cancelled && checkpoint_every.is_some() {
        observer.on_checkpoint(&snapshot());
    }
    cancelled
}

/// Running totals over delivered blocks.
#[derive(Default)]
struct Totals {
    best: Option<(Score, usize, usize)>,
    cells: u64,
    pruned_cells: u64,
    paths: PathCounts,
}

impl Totals {
    fn add(&mut self, out: &TileOutcome) {
        self.cells += out.cells;
        if out.path == KernelPath::Pruned {
            self.pruned_cells += out.cells;
        }
        self.paths.count(out.path);
        if let Some(cand) = out.best {
            if self.best.is_none_or(|b| better_endpoint(cand, b)) {
                self.best = Some(cand);
            }
        }
    }
}

/// Which blocks of a launch are complete: the cut ([`EngineState::cut`])
/// and the completed-diagonal frontier it implies. Every schedule keeps
/// one over the blocks it delivers, so resume, checkpoints, progress and
/// [`RegionResult::diagonals_run`] follow one rule on all of them.
struct Progress {
    /// Completed block rows per block column.
    cut: Vec<usize>,
    /// Per external diagonal: its blocks outside the cut.
    open: Vec<usize>,
    /// The lowest diagonal with a block outside the cut (`open.len()`
    /// when none is left): the completed-diagonal frontier.
    front: usize,
    /// The frontier at launch.
    start: usize,
    /// The frontier at the last checkpoint offer, or at launch.
    offered: usize,
}

impl Progress {
    fn new(layout: &GridLayout, cut: Vec<usize>) -> Progress {
        let mut open = vec![0; layout.diagonals()];
        for (c, &done) in cut.iter().enumerate() {
            for r in done..layout.block_rows {
                open[r + c] += 1;
            }
        }
        let front = open.iter().position(|&k| k > 0).unwrap_or(open.len());
        Progress { cut, open, front, start: front, offered: front }
    }

    /// Is block `(r, c)` in the cut?
    fn done(&self, r: usize, c: usize) -> bool {
        r < self.cut[c]
    }

    /// Add block `(r, c)`, the next block of its column, to the cut.
    /// Returns the frontier it is delivered at (before it completes).
    fn complete(&mut self, r: usize, c: usize) -> usize {
        let at = self.front;
        self.cut[c] = r + 1;
        self.open[r + c] -= 1;
        while self.open.get(self.front) == Some(&0) {
            self.front += 1;
        }
        at
    }

    /// Is a snapshot due under `every`: blocks remain, and the frontier
    /// has moved `every` diagonals past the last offer? Records the offer.
    fn checkpoint_due(&mut self, every: Option<usize>) -> bool {
        let due = every.is_some_and(|e| !self.finished() && self.front >= self.offered + e.max(1));
        self.offered = if due { self.front } else { self.offered };
        due
    }

    /// Is every block in the cut?
    fn finished(&self) -> bool {
        self.front == self.open.len()
    }

    /// Blocks in the cut.
    fn blocks_done(&self) -> u64 {
        self.cut.iter().sum::<usize>() as u64
    }
}

/// One lane's reusable kernel state for [`compute_band`]: its query-profile
/// cache, and the cut rows of a band with the bus rows reported at them.
#[derive(Default)]
struct BandState {
    cache: crate::striped::ProfileCache,
    cuts: Vec<usize>,
    cut_rows: Vec<CellHF>,
}

/// Compute block rows `rows` of block column `c` as one kernel call (a
/// *band*, [`kernel::compute`]) against `hseg`, the column's
/// horizontal-bus segment, and `vseg`, the vertical bus over the band's
/// rows. Then hand each block to `each`, in row order, with its outcome,
/// its bottom border (the cut row, or `hseg` for the last block) and its
/// right border (its share of `vseg`). Stops at the first `Break`.
///
/// A band commits all its blocks on one rung. Its best (and watch hit)
/// goes to the block whose rows hold it, which is enough for the region's
/// result because `better_endpoint` is a total order; that block's own
/// best is the same cell.
///
/// # Cone pruning
///
/// `cone_best` is the best score the blocks up and to the left of the
/// band have reached ([`cone_bound`]), on a pruning launch. When even the
/// band's bound — the most any path through it can score
/// ([`out_of_reach`]) — falls strictly below it, no kernel runs: every border the band writes
/// (`hseg`, `vseg`, the cut rows) gets the local floor
/// [`CellHF::FLOOR`] / [`CellHE::FLOOR`], and each block commits as
/// [`KernelPath::Pruned`] with corner 0 and no best. Both are at most the
/// true values, so later cells can only be understated, never overstated.
///
/// The run stays exact. Take an optimal path and the first pruned band on
/// it. Every cell of the path before that band is exact, so the band's
/// bound is at least the path's score, the best score; but the cone is a
/// score some cell reached, so it is at most the best score, and the
/// strict comparison failed. Hence no optimal path crosses a pruned band:
/// the best score, the set of cells that reach it (so the end point), and
/// every cell on an optimal path (so special-row crosspoints) are
/// unchanged. Ties survive because the comparison is strict.
#[allow(clippy::too_many_arguments)]
fn compute_band(
    job: &RegionJob<'_>,
    layout: &GridLayout,
    rows: Range<usize>,
    c: usize,
    corner: Score,
    cone_best: Option<Score>,
    hseg: &mut [CellHF],
    vseg: &mut [CellHE],
    st: &mut BandState,
    mut each: impl FnMut(usize, &TileOutcome, &[CellHF], &[CellHE]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (r0, r_last) = (rows.start, rows.end - 1);
    let (rs, _) = layout.row_range(r0);
    let (_, re) = layout.row_range(r_last);
    let (cs, ce) = layout.col_range(c);
    let width = hseg.len();
    st.cuts.clear();
    st.cuts.extend((r0 + 1..rows.end).map(|k| layout.row_range(k).0 - 1 - rs));
    st.cut_rows.clear();
    let pruned = cone_best.is_some_and(|best| {
        !hseg.is_empty()
            && !vseg.is_empty()
            && out_of_reach(best, &job.scoring, layout, (rs, cs), corner, hseg, vseg)
    });
    let out = if pruned {
        write_floor(hseg, vseg);
        st.cut_rows.resize(st.cuts.len() * width, CellHF::FLOOR);
        TileOutcome {
            corner_out: 0,
            best: None,
            watch_hit: None,
            cells: 0,
            path: KernelPath::Pruned,
        }
    } else {
        st.cut_rows.resize(st.cuts.len() * width, CellHF::UNREACHABLE);
        let tile = kernel::Tile {
            a: &job.a[rs - 1..re],
            b: &job.b[cs - 1..ce],
            row_offset: rs,
            col_offset: cs,
            scoring: &job.scoring,
            local: job.mode.is_local(),
            watch: job.watch,
            corner,
        };
        kernel::compute(
            &tile,
            kernel::Rung::Auto,
            hseg,
            vseg,
            &mut st.cache,
            &st.cuts,
            &mut st.cut_rows,
        )
    };
    for k in rows {
        let (brs, bre) = layout.row_range(k);
        let height = (bre + 1).saturating_sub(brs);
        let holds = |row: usize| (brs..=bre).contains(&row);
        let (bottom, corner_out) = if k == r_last {
            (&*hseg, out.corner_out)
        } else {
            let row = &st.cut_rows[(k - r0) * width..(k - r0 + 1) * width];
            (row, row[width - 1].h)
        };
        let outcome = TileOutcome {
            corner_out,
            best: out.best.filter(|&(_, i, _)| holds(i)),
            watch_hit: out.watch_hit.filter(|&(i, _)| holds(i)),
            cells: (height * width) as u64,
            path: out.path,
        };
        each(k, &outcome, bottom, &vseg[brs - rs..brs - rs + height])?;
    }
    ControlFlow::Continue(())
}

/// What a pruned band or block leaves on its borders: the local floor,
/// `H = 0` with no gap open, at most every true value.
fn write_floor(hseg: &mut [CellHF], vseg: &mut [CellHE]) {
    hseg.fill(CellHF::FLOOR);
    vseg.fill(CellHE::FLOOR);
}

/// Can no local path through a band whose first cell is `(rs, cs)` score
/// `best`? The most such a path can score is the band's *bound*: the best
/// `H` it can enter with (on its top border `hseg`, its left border
/// `vseg`, its corner, or 0 for a path that starts inside), plus the best
/// a diagonal step can add for every diagonal step left between the
/// band's first cell and the end of the matrix. Gaps only subtract
/// (`Scoring` is affine with non-negative penalties). Saturating, so
/// empty layouts bound at the entry.
///
/// The borders are scanned only when the steps alone fall short of
/// `best`, which happens only near the end of the matrix; elsewhere the
/// check costs no pass over the band's borders.
fn out_of_reach(
    best: Score,
    scoring: &Scoring,
    layout: &GridLayout,
    (rs, cs): (usize, usize),
    corner: Score,
    hseg: &[CellHF],
    vseg: &[CellHE],
) -> bool {
    let steps = (layout.m + 1).saturating_sub(rs).min((layout.n + 1).saturating_sub(cs));
    let step = scoring.match_score.max(scoring.mismatch_score);
    let reach = Score::try_from(steps).unwrap_or(Score::MAX).saturating_mul(step);
    reach < best && {
        let entry = hseg.iter().map(|x| x.h).chain(vseg.iter().map(|x| x.h));
        entry.fold(corner.max(0), Score::max).saturating_add(reach) < best
    }
}

/// The score the band of block rows `rows` in column `c` must be able to
/// reach on a pruning launch, read from its cone table through `table`.
///
/// The cone table sits beside the corners and in their layout: entry
/// `(k + 1, c + 1)` holds the best score of block `(k, c)` and of every
/// block up and to the left of it ([`cone_value`]); row and column 0
/// hold 0. The band needs the entries of the block above it and of the
/// block left of its last row, both complete before it starts. Every
/// entry depends on block values alone, so it is the same under every
/// schedule that cuts the same bands.
fn cone_bound(table: impl Fn(usize) -> Score, bc: usize, rows: &Range<usize>, c: usize) -> Score {
    table(rows.start * (bc + 1) + c + 1).max(table(rows.end * (bc + 1) + c))
}

/// Block `(k, c)`'s cone entry, at index `(k + 1) * (bc + 1) + c + 1`:
/// the larger of its upper and left neighbours' entries and its own best.
fn cone_value(
    table: impl Fn(usize) -> Score,
    bc: usize,
    k: usize,
    c: usize,
    out: &TileOutcome,
) -> Score {
    let own = out.best.map_or(0, |(s, _, _)| s);
    table(k * (bc + 1) + c + 1).max(table((k + 1) * (bc + 1) + c)).max(own)
}

/// One past the last block row of the band that starts at block row `r`
/// of column `c`, in a publish batch ending before row `batch_end`: the
/// rest of the column's share of the batch, or `r + 1` alone for a
/// watched job (stage 2 needs each block's own first hit) and for a block
/// shorter than `kernel::MIN_LADDER_ROWS` (the ladder would commit it
/// scalar as a tile of its own). A band stops before such a block, which
/// then runs alone.
fn band_end(layout: &GridLayout, watched: bool, c: usize, r: usize, batch_end: usize) -> usize {
    let (cs, ce) = layout.col_range(c);
    let tall = |k: usize| {
        let (rs, re) = layout.row_range(k);
        (re + 1).saturating_sub(rs) >= kernel::MIN_LADDER_ROWS
    };
    if watched || ce < cs || !tall(r) {
        return r + 1;
    }
    (r + 1..batch_end).find(|&k| !tall(k)).unwrap_or(batch_end)
}

/// The bus segments block `(r, c)` reads and writes, 0-based: `(first
/// column, width)` of the horizontal bus and `(first row, height)` of the
/// vertical bus.
#[cfg(feature = "race-check")]
fn block_segments(layout: &GridLayout, r: usize, c: usize) -> ((usize, usize), (usize, usize)) {
    let (rs, re) = layout.row_range(r);
    let (cs, ce) = layout.col_range(c);
    ((cs - 1, (ce + 1).saturating_sub(cs)), (rs - 1, (re + 1).saturating_sub(rs)))
}

/// Report block `(r, c)`'s bus reads to the race detector.
#[cfg(feature = "race-check")]
fn race_reads(race: &crate::race::Session, layout: &GridLayout, r: usize, c: usize) {
    let (h, v) = block_segments(layout, r, c);
    race.block_reads(r, c, r + c, h, v);
}

/// Report block `(r, c)`'s bus writes to the race detector; `phantom`
/// marks the reorder fault's replay.
#[cfg(feature = "race-check")]
fn race_writes(
    race: &crate::race::Session,
    layout: &GridLayout,
    r: usize,
    c: usize,
    phantom: bool,
) {
    let (h, v) = block_segments(layout, r, c);
    race.block_writes(r, c, r + c, h, v, phantom);
}

/// The armed reorder fault's block, when it lies inside `layout`'s grid.
#[cfg(feature = "race-check")]
fn reorder_fault(layout: &GridLayout) -> Option<(usize, usize)> {
    crate::exec::fault::reorder_block()
        .filter(|&(r, c)| r < layout.block_rows && c < layout.block_cols)
}

/// Replay block `(r, c)`'s bus reads and writes early: the seeded reorder
/// fault. It touches only the detector's shadow state (engine output is
/// byte-identical); the detector must flag the reads as wrong-producer.
#[cfg(feature = "race-check")]
fn replay_phantom(race: &crate::race::Session, layout: &GridLayout, r: usize, c: usize) {
    race_reads(race, layout, r, c);
    race_writes(race, layout, r, c, true);
}

/// The serial schedules' state: live buses, corners, totals and cut, on
/// the calling thread.
struct Serial<'r, 'j> {
    job: &'r RegionJob<'j>,
    layout: GridLayout,
    hbus: Vec<CellHF>,
    vbus: Vec<CellHE>,
    corners: Vec<Score>,
    /// The cone table of a pruning launch ([`cone_bound`]).
    cone: Option<Vec<Score>>,
    totals: Totals,
    progress: Progress,
    checkpoint_every: Option<usize>,
    bands: BandState,
    token: Option<&'r CancelToken>,
    #[cfg(feature = "race-check")]
    race: &'r crate::race::Session,
}

impl Serial<'_, '_> {
    /// The canonical schedule: external diagonals in order, each
    /// diagonal's blocks outside the cut in ascending column, one block
    /// per band. Returns whether the launch aborted.
    fn diagonals(&mut self, observer: &mut dyn WavefrontObserver) -> bool {
        let layout = self.layout;
        for d in self.progress.front..layout.diagonals() {
            // Seeded reorder fault: replay the target block's bus reads
            // and writes one diagonal EARLY — before the diagonal boundary
            // that orders its neighbours' diagonal-d writes.
            #[cfg(feature = "race-check")]
            if let Some((pr, pc)) = reorder_fault(&layout) {
                if d + 1 == pr + pc && !self.progress.done(pr, pc) {
                    replay_phantom(self.race, &layout, pr, pc);
                }
            }
            for (r, c) in layout.diagonal_blocks(d) {
                if !self.progress.done(r, c) && self.step(observer, r..r + 1, c).is_break() {
                    return true;
                }
            }
        }
        false
    }

    /// The banded walk: one publish batch of [`DEFAULT_BATCH_ROWS`] block
    /// rows at a time, column by column, each column's share of the batch
    /// outside the cut one band on the live buses (split by [`band_end`],
    /// as a strip runner splits it). Returns whether the launch aborted.
    fn walk(&mut self, observer: &mut dyn WavefrontObserver) -> bool {
        let layout = self.layout;
        // The walk's analogue of running the armed block one diagonal
        // early: replay it before any block has run.
        #[cfg(feature = "race-check")]
        if let Some((pr, pc)) = reorder_fault(&layout) {
            if !self.progress.done(pr, pc) {
                replay_phantom(self.race, &layout, pr, pc);
            }
        }
        for r0 in (0..layout.block_rows).step_by(DEFAULT_BATCH_ROWS) {
            let batch_end = (r0 + DEFAULT_BATCH_ROWS).min(layout.block_rows);
            for c in 0..layout.block_cols {
                let mut r = r0.max(self.progress.cut[c]);
                while r < batch_end {
                    // The walk never runs watched jobs.
                    let end = band_end(&layout, false, c, r, batch_end);
                    if self.step(observer, r..end, c).is_break() {
                        return true;
                    }
                    r = end;
                }
            }
        }
        false
    }

    /// One band between two band boundaries: poll the token (a cancel
    /// aborts), run the band, and offer a snapshot when one is due.
    fn step(
        &mut self,
        observer: &mut dyn WavefrontObserver,
        rows: Range<usize>,
        c: usize,
    ) -> ControlFlow<()> {
        if cancel_flush(self.token, self.checkpoint_every, observer, || self.snapshot()) {
            return ControlFlow::Break(());
        }
        self.band(observer, rows, c)?;
        if self.progress.checkpoint_due(self.checkpoint_every) {
            observer.on_checkpoint(&self.snapshot());
        }
        ControlFlow::Continue(())
    }

    /// Compute block rows `rows` of column `c` as one band on the live
    /// buses and commit each block: its corner and cone entry, the totals,
    /// the cut, the race detector's records, a heartbeat, then the
    /// observer.
    fn band(
        &mut self,
        observer: &mut dyn WavefrontObserver,
        rows: Range<usize>,
        c: usize,
    ) -> ControlFlow<()> {
        let layout = self.layout;
        let (br, bc) = (layout.block_rows, layout.block_cols);
        let r0 = rows.start;
        let (rs, _) = layout.row_range(r0);
        let (_, re) = layout.row_range(rows.end - 1);
        let cols = layout.col_range(c);
        let width = (cols.1 + 1).saturating_sub(cols.0);
        let height = (re + 1).saturating_sub(rs);
        #[cfg(feature = "race-check")]
        race_reads(self.race, &layout, r0, c);
        let corner = self.corners[r0 * (bc + 1) + c];
        let Serial { job, hbus, vbus, corners, cone, totals, progress, bands, token, .. } = self;
        let cone_best = cone.as_ref().map(|t| cone_bound(|i| t[i], bc, &rows, c));
        #[cfg(feature = "race-check")]
        let race = self.race;
        let hseg = &mut hbus[cols.0 - 1..cols.0 - 1 + width];
        let vseg = &mut vbus[rs - 1..rs - 1 + height];
        let commit = |k, out: &TileOutcome, bottom: &[CellHF], right: &[CellHE]| {
            corners[(k + 1) * (bc + 1) + c + 1] = out.corner_out;
            if let Some(t) = cone.as_mut() {
                t[(k + 1) * (bc + 1) + c + 1] = cone_value(|i| t[i], bc, k, c, out);
            }
            totals.add(out);
            #[cfg(feature = "race-check")]
            {
                // A band's later blocks report their reads after the call,
                // between their upper neighbour's writes and their own.
                if k > r0 {
                    race_reads(race, &layout, k, c);
                }
                race_writes(race, &layout, k, c, false);
            }
            if let Some(t) = token {
                t.beat();
            }
            let coords = BlockCoords {
                r: k,
                c,
                diagonal: k + c,
                frontier: progress.complete(k, c),
                rows: layout.row_range(k),
                cols,
                last_block_row: k + 1 == br,
                last_block_col: c + 1 == bc,
            };
            observer.on_block(&coords, out, bottom, right)
        };
        compute_band(job, &layout, rows, c, corner, cone_best, hseg, vseg, bands, commit)
    }

    /// The state at the current cut.
    fn snapshot(&self) -> EngineState {
        let Serial { job, hbus, vbus, corners, totals, progress, .. } = self;
        EngineState::snapshot(job, hbus, vbus, corners, totals, progress)
    }
}

/// The column-strip scheduler: persistent strip ownership, point-to-point
/// border publishing, bounded whole-strip work stealing.
///
/// # Protocol
///
/// * Runner `i` owns strip `i` from launch (its *home* claim), so every
///   runner is guaranteed at least one whole strip of work. Further
///   strips are claimed — stolen — in ascending index order
///   (`next_strip` counter), so unclaimed strips always form a suffix of
///   the plan and a claimed strip's left neighbour is always claimed.
/// * A runner walks its strip one publish batch (`batch_rows` block rows)
///   at a time, column by column, computing each column's unrestored rows
///   of the batch as one *band* — one kernel call that reports the bus
///   row at every inner block boundary, parked as one result per block.
///   Watched jobs and blocks shorter than [`kernel::MIN_LADDER_ROWS`] run
///   one block per call. Before a band on the strip's *first* column it
///   waits until the left strip's published-row counter covers the band's
///   end — that publish is the only cross-strip synchronisation (there is
///   no global barrier).
/// * A runner publishes after every batch (`batch_rows` rows, or the
///   last rows), under the coordination mutex; consumers re-check under
///   the same mutex, so the lock's release/acquire pair is the
///   happens-before edge that orders the producer's bus writes before the
///   consumer's reads.
/// * The calling thread is runner 0 *and* the deliverer: it takes
///   finished blocks, applies them to shadow ("checkpoint") buses, and
///   invokes the observer. How it takes them depends on the launch:
///   - *Ordered* (watched, or an observer that needs diagonal order):
///     runners park their blocks by coordinates and the deliverer takes
///     them in canonical diagonal order, so the stream is
///     byte-identical to the diagonal loop's. Runners may race ahead of
///     delivery only within a bounded lead window (checked at a band's
///     last block) once every strip is claimed.
///   - *Order-free*: runners push their blocks onto a FIFO and the
///     deliverer pops it. A runner finishes a block after the block
///     above it (its own strip) and after the block to its left (its
///     own strip, or the left strip's, pushed before the publish the
///     runner waited for), so push order is a cut order and every prefix
///     of the stream is a cut. The caller delivers its own bands inline,
///     right after draining the FIFO, and never parks them. Pooled
///     runners may hold at most [`StripPlan::batch_rows`] × block
///     columns undelivered blocks (computing or parked) between them: a
///     band that would pass that cap waits until the deliverer drains.
///     The caller never waits on the cap, so the FIFO always drains.
///
///   Either bound caps the memory held by finished-but-undelivered
///   borders ([`StripStats::parked_peak`]).
///
/// # Why the shadow buses
///
/// Runners mutate the live buses ahead of delivery (that is the point),
/// so on abort the live buses would reflect blocks *past* the abort
/// point. The deliverer therefore maintains its own copies, updated
/// strictly in delivery order; results and checkpoints are built from
/// those, so an aborted or checkpointed state holds exactly the
/// delivered cut.
mod strip {
    use super::*;
    use std::collections::{HashMap, VecDeque};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, MutexGuard};
    use std::time::Duration;

    /// Inputs of one strip launch (everything but the observer and the
    /// live buses, which move separately for borrow-checking reasons).
    pub(super) struct Params<'a, 'j> {
        pub pool: &'a WorkerPool,
        pub job: &'a RegionJob<'j>,
        pub layout: &'a GridLayout,
        pub plan: &'a StripPlan,
        pub workers: usize,
        pub checkpoint_every: Option<usize>,
        /// Deliver in completion order (see the module docs).
        pub order_free: bool,
        /// Totals and cut at launch (a resumed snapshot's, or empty).
        pub totals: Totals,
        pub progress: Progress,
        /// Supervision token polled by the delivery loop; runners bump
        /// its heartbeat on every computed block / published border.
        pub token: Option<&'a CancelToken>,
        #[cfg(feature = "race-check")]
        pub race: &'a crate::race::Session,
    }

    /// Raw shared view of one live bus (or the corner table).
    ///
    /// Runners access disjoint-or-ordered regions of the buses without
    /// `&mut` aliasing: see the SAFETY argument on [`compute_block`].
    struct RawBus<T>(*mut T, usize);

    impl<T> RawBus<T> {
        fn new(v: &mut Vec<T>) -> RawBus<T> {
            RawBus(v.as_mut_ptr(), v.len())
        }

        fn at(&self, i: usize) -> *mut T {
            debug_assert!(i <= self.1);
            // SAFETY: within-allocation offset — `i` is bounded by the
            // bus length captured at construction.
            unsafe { self.0.add(i) }
        }
    }

    // SAFETY: a RawBus is only dereferenced by strip runners following the
    // publish protocol (see `compute_block`'s SAFETY comment), which makes
    // every conflicting access ordered by the coordination mutex; the
    // pointee vectors outlive the pool scope that runs the runners.
    unsafe impl<T: Send> Send for RawBus<T> {}
    // SAFETY: as above — shared references to RawBus only hand out raw
    // pointers; all dereferences follow the strip protocol.
    unsafe impl<T: Send> Sync for RawBus<T> {}

    /// A finished block, parked until the deliverer consumes it.
    struct BlockDone {
        outcome: TileOutcome,
        /// Copies of the block's bottom border (its horizontal-bus segment
        /// right after the tile ran) and right border (vertical-bus
        /// segment). `None` for a pruned block: its borders are the floor
        /// ([`super::write_floor`]), which the deliverer writes itself.
        borders: Option<(Vec<CellHF>, Vec<CellHE>)>,
    }

    /// A finished block and its coordinates `(r, c)`.
    type Finished = ((usize, usize), BlockDone);

    /// Finished, undelivered blocks (see the module docs).
    enum Parked {
        /// Ordered launches: by coordinates, taken in canonical order.
        ByBlock(HashMap<(usize, usize), BlockDone>),
        /// Order-free launches: in push order, a cut order.
        Fifo(VecDeque<Finished>),
    }

    impl Parked {
        fn len(&self) -> usize {
            match self {
                Parked::ByBlock(done) => done.len(),
                Parked::Fifo(queue) => queue.len(),
            }
        }

        fn extend(&mut self, blocks: Vec<Finished>) {
            match self {
                Parked::ByBlock(done) => done.extend(blocks),
                Parked::Fifo(queue) => queue.extend(blocks),
            }
        }
    }

    /// Mutable coordination state, under the one strip mutex.
    struct Coord {
        /// Per strip: block rows published to the right neighbour.
        published: Vec<usize>,
        /// Next unclaimed strip (claims ascend, so unclaimed strips are a
        /// suffix).
        next_strip: usize,
        /// Per runner: strips claimed so far (first claim = ownership,
        /// later claims = steals).
        claims: Vec<u64>,
        /// Per runner: blocks computed.
        blocks: Vec<u64>,
        steals: u64,
        batches: u64,
        /// Query-profile cache hits, folded in from each runner's
        /// private cache as the runner exits.
        profile_hits: u64,
        /// Query-profile cache misses, folded in the same way.
        profile_misses: u64,
        /// Delivery frontier: every block with diagonal < `front` has
        /// been delivered.
        front: usize,
        /// Cooperative cancellation (observer abort, worker panic, body
        /// panic). Runners exit at the next wait or block boundary.
        cancel: bool,
        /// Finished, undelivered blocks.
        parked: Parked,
        /// Order-free launches: blocks of pooled runners' bands admitted
        /// under the cap ([`Shared::cap`]) and not yet delivered,
        /// computing or parked.
        queued: usize,
        /// Most blocks parked at once.
        parked_peak: usize,
        /// Runners waiting on the bound of undelivered blocks.
        held: usize,
        /// Protocol events awaiting delivery to the observer.
        events: Vec<StripEvent>,
    }

    /// Everything the runners share.
    struct Shared<'a, 'j> {
        job: &'a RegionJob<'j>,
        layout: &'a GridLayout,
        plan: &'a StripPlan,
        /// The resumed cut: runners skip its blocks.
        restored: &'a [usize],
        /// Ordered launches: max diagonals a runner may lead the delivery
        /// frontier once all strips are claimed (bounds undelivered-border
        /// memory).
        lead: usize,
        /// Order-free launches: max blocks pooled runners may hold
        /// undelivered ([`Coord::queued`]), one publish batch per block
        /// column. At least one band, so an empty queue admits any band.
        cap: usize,
        strips: usize,
        hbus: RawBus<CellHF>,
        vbus: RawBus<CellHE>,
        corners: RawBus<Score>,
        /// The cone table of a pruning launch ([`cone_bound`]).
        cone: Option<RawBus<Score>>,
        coord: Mutex<Coord>,
        /// Runners park here for publishes / frontier advances / cancel.
        cv_work: Condvar,
        /// The deliverer parks here for block completions / cancel.
        cv_done: Condvar,
        /// Heartbeat sink for the stall watchdog (never polled here).
        token: Option<&'a CancelToken>,
        #[cfg(feature = "race-check")]
        race: &'a crate::race::Session,
    }

    impl Shared<'_, '_> {
        fn lock(&self) -> MutexGuard<'_, Coord> {
            self.coord.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Set `cancel` and wake everyone.
        fn cancel_all(&self) {
            self.lock().cancel = true;
            self.cv_work.notify_all();
            self.cv_done.notify_all();
        }
    }

    /// A runner's position inside its claimed strip: the publish batch
    /// starting at block row `r0`, its block column `c`, and the next
    /// block row `r` of that column to compute.
    struct Cursor {
        s: usize,
        c0: usize,
        c1: usize,
        r0: usize,
        c: usize,
        r: usize,
    }

    impl Cursor {
        /// The start of strip `s`. Runner `i`'s home strip (pre-claimed in
        /// the engine's `Coord` init) is strip `i`.
        fn new(sh: &Shared<'_, '_>, s: usize) -> Cursor {
            let c0 = sh.plan.bounds[s];
            Cursor { s, c0, c1: sh.plan.bounds[s + 1], r0: 0, c: c0, r: 0 }
        }

        /// One past the last block row of the current publish batch.
        fn batch_end(&self, sh: &Shared<'_, '_>) -> usize {
            (self.r0 + sh.plan.batch_rows).min(sh.layout.block_rows)
        }

        /// One past the last block row of the band that starts at `r`
        /// (see [`super::band_end`]).
        fn band_end(&self, sh: &Shared<'_, '_>) -> usize {
            let watched = sh.job.watch.is_some();
            super::band_end(sh.layout, watched, self.c, self.r, self.batch_end(sh))
        }

        /// Must `runner`'s band ending before row `end` wait? On the
        /// strip's first column it consumes the left strip's border, so
        /// that strip's publish must cover `end` (publishes land on batch
        /// ends, so this is the per-block rule). It also waits while it
        /// would pass the bound on undelivered blocks ([`Cursor::held`]).
        fn blocked(&self, sh: &Shared<'_, '_>, co: &Coord, runner: usize, end: usize) -> bool {
            let waits_left = self.c == self.c0 && self.s > 0 && co.published[self.s - 1] < end;
            waits_left || self.held(sh, co, runner, end)
        }

        /// Would the band pass the bound on undelivered blocks? Ordered:
        /// once every strip is claimed, its last block must sit inside the
        /// lead window. Order-free: a pooled runner's band must fit under
        /// the cap; the caller delivers its bands inline and never waits.
        fn held(&self, sh: &Shared<'_, '_>, co: &Coord, runner: usize, end: usize) -> bool {
            match co.parked {
                Parked::ByBlock(_) => {
                    co.next_strip >= sh.strips && end - 1 + self.c >= co.front + sh.lead
                }
                Parked::Fifo(_) => runner > 0 && co.queued + (end - self.r) > sh.cap,
            }
        }
    }

    enum Step {
        /// Computed one band.
        Computed,
        /// The next band is publish-blocked or held by the delivery bound.
        Blocked,
        /// No strip left to claim.
        Idle,
        /// Cancellation observed.
        Cancelled,
        /// The observer aborted the launch during an inline delivery.
        Aborted,
    }

    /// The caller's inline delivery of one of its own blocks: `(r, c)`,
    /// its outcome and its bottom and right borders. `Break` aborts.
    type Inline<'d> =
        dyn FnMut((usize, usize), &TileOutcome, &[CellHF], &[CellHE]) -> ControlFlow<()> + 'd;

    /// Claim the next unclaimed strip for `runner`, if any. Home strips
    /// are pre-claimed, so anything claimed here counts as a steal.
    fn try_claim(sh: &Shared<'_, '_>, runner: usize) -> Option<Cursor> {
        let mut co = sh.lock();
        if co.cancel || co.next_strip >= sh.strips {
            return None;
        }
        let s = co.next_strip;
        co.next_strip += 1;
        let stolen = co.claims[runner] > 0;
        co.claims[runner] += 1;
        if stolen {
            co.steals += 1;
        }
        co.events.push(StripEvent::Claimed { runner, strip: s, stolen });
        drop(co);
        // Claims can unblock lead-window waiters (the window only binds
        // once every strip is claimed) and carry an event for the
        // deliverer.
        sh.cv_work.notify_all();
        sh.cv_done.notify_all();
        Some(Cursor::new(sh, s))
    }

    /// Publish strip `s`'s border progress: rows `0..rows` are complete.
    fn publish(sh: &Shared<'_, '_>, runner: usize, s: usize, rows: usize) {
        // Shadow state first: the detector's published counter must cover
        // a consumer by the time the real counter lets it proceed.
        #[cfg(feature = "race-check")]
        sh.race.strip_publish(s, rows);
        let mut co = sh.lock();
        if rows > co.published[s] {
            co.published[s] = rows;
            co.batches += 1;
            co.events.push(StripEvent::Published {
                runner,
                strip: s,
                rows_done: rows,
                rows_total: sh.layout.block_rows,
            });
            drop(co);
            if let Some(t) = sh.token {
                t.beat();
            }
            sh.cv_work.notify_all();
            // The event itself must reach the deliverer even when no
            // block completion follows promptly.
            sh.cv_done.notify_all();
        }
    }

    /// Advance `cur` by at most one computed band (non-blocking).
    /// `bands` is the calling runner's private kernel state — a strip is
    /// walked one publish batch at a time, column by column within the
    /// batch, so consecutive bands share a query band and its profile
    /// cache pays off. With `inline`, the band's blocks are delivered
    /// through it instead of parked.
    fn step(
        sh: &Shared<'_, '_>,
        runner: usize,
        cur_slot: &mut Option<Cursor>,
        bands: &mut BandState,
        inline: Option<&mut Inline<'_>>,
    ) -> Step {
        let br = sh.layout.block_rows;
        loop {
            let Some(cur) = cur_slot.as_mut() else {
                match try_claim(sh, runner) {
                    Some(c) => {
                        *cur_slot = Some(c);
                        continue;
                    }
                    None => return Step::Idle,
                }
            };
            if cur.r0 == br {
                *cur_slot = None;
                continue;
            }
            let batch_end = cur.batch_end(sh);
            if cur.c == cur.c1 {
                // Batch finished: publish it (batches end on multiples of
                // `batch_rows` or at the last row) so the right neighbour
                // can follow.
                if cur.s + 1 < sh.strips {
                    publish(sh, runner, cur.s, batch_end);
                }
                cur.r0 = batch_end;
                cur.c = cur.c0;
                cur.r = batch_end;
                continue;
            }
            // Rows restored from a checkpoint: nothing to compute.
            cur.r = cur.r.max(sh.restored[cur.c]).min(batch_end);
            if cur.r == batch_end {
                cur.c += 1;
                cur.r = cur.r0;
                continue;
            }
            let end = cur.band_end(sh);
            {
                let mut co = sh.lock();
                if co.cancel {
                    return Step::Cancelled;
                }
                if cur.blocked(sh, &co, runner, end) {
                    return Step::Blocked;
                }
                if matches!(co.parked, Parked::Fifo(_)) && inline.is_none() {
                    co.queued += end - cur.r;
                }
            }
            let step = compute_band(sh, runner, cur.r..end, cur.c, bands, inline);
            cur.r = end;
            return step;
        }
    }

    /// Park until the blocked condition of `cur` clears; false = cancel.
    fn wait_progress(sh: &Shared<'_, '_>, runner: usize, cur: &Cursor) -> bool {
        let end = cur.band_end(sh);
        let mut co = sh.lock();
        loop {
            if co.cancel {
                return false;
            }
            if !cur.blocked(sh, &co, runner, end) {
                return true;
            }
            let held = cur.held(sh, &co, runner, end);
            if held {
                crate::exec::fault::note_delivery_wait();
            }
            co.held += usize::from(held);
            co = sh.cv_work.wait(co).unwrap_or_else(|e| e.into_inner());
            co.held -= usize::from(held);
        }
    }

    /// Body of one pinned runner (runner indices 1..).
    fn runner_loop(sh: &Shared<'_, '_>, runner: usize) {
        let mut bands = BandState::default();
        let mut cur: Option<Cursor> = Some(Cursor::new(sh, runner));
        crate::exec::fault::hold_strip_runner(|| sh.lock().cancel);
        'work: loop {
            match step(sh, runner, &mut cur, &mut bands, None) {
                Step::Computed => {}
                Step::Blocked => {
                    // `cur` is Some whenever step returns Blocked.
                    let Some(c) = cur.as_ref() else { break 'work };
                    if !wait_progress(sh, runner, c) {
                        break 'work;
                    }
                }
                Step::Idle | Step::Cancelled | Step::Aborted => break 'work,
            }
        }
        // Fold this runner's cache traffic into the shared counters on
        // the way out, under the coordination mutex.
        let mut co = sh.lock();
        co.profile_hits += bands.cache.hits();
        co.profile_misses += bands.cache.misses();
        crate::exec::fault::note_runner_exit();
    }

    /// Compute the band of block rows `rows` of column `c` as one kernel
    /// call against the live buses, and hand each block to `inline` or,
    /// without it, park one result per block for the deliverer.
    fn compute_band(
        sh: &Shared<'_, '_>,
        runner: usize,
        rows: std::ops::Range<usize>,
        c: usize,
        bands: &mut BandState,
        mut inline: Option<&mut Inline<'_>>,
    ) -> Step {
        let layout = sh.layout;
        let bc = layout.block_cols;
        let r0 = rows.start;
        let (rs, _) = layout.row_range(r0);
        let (_, re) = layout.row_range(rows.end - 1);
        let (cs, ce) = layout.col_range(c);
        let width = (ce + 1).saturating_sub(cs);
        let height = (re + 1).saturating_sub(rs);

        #[cfg(feature = "race-check")]
        block_reads(sh, r0, c);

        // SAFETY: the strip protocol makes these raw views race-free.
        // - hbus `[cs-1, cs-1+width)`: horizontal-bus columns are
        //   partitioned by strip (strips own disjoint block-column
        //   ranges), and within a strip one runner walks its bands
        //   sequentially, so only this runner ever touches this segment
        //   while it owns the strip; strip hand-offs (steals) happen only
        //   after the previous owner finished the whole strip, ordered by
        //   the coordination mutex in try_claim/publish.
        // - vbus `[rs-1, rs-1+height)`: within a row the segment passes
        //   left-to-right between strips. The left strip stops touching
        //   a batch's cells once it publishes the batch; the right strip
        //   starts only after observing that publish under the same
        //   mutex (step's publish check), whose release/acquire orders
        //   the writes before the reads.
        // - corners: each corner cell is written by exactly one block
        //   and read by exactly one block; same-strip pairs are ordered
        //   by the runner's sequential walk, cross-strip pairs by the
        //   publish that covers the writer's row.
        // - cone: each entry is written by exactly one block, and read
        //   only by blocks below it in its column (same strip) and by the
        //   block right of it and bands whose rows cover its row, which
        //   in another strip wait for the publish that covers that row.
        let (hseg, vseg) = unsafe {
            (
                std::slice::from_raw_parts_mut(sh.hbus.at(cs - 1), width),
                std::slice::from_raw_parts_mut(sh.vbus.at(rs - 1), height),
            )
        };
        // SAFETY: corner reads/writes follow the corner ordering argument
        // above; indices are within the `(br+1)*(bc+1)` table.
        let corner = unsafe { *sh.corners.at(r0 * (bc + 1) + c) };
        // SAFETY: cone reads follow the cone ordering argument above: the
        // band and its blocks read only entries of blocks above them in
        // this column or left of their rows; indices are within the
        // `(br+1)*(bc+1)` table.
        let read = |t: &RawBus<Score>, i| unsafe { *t.at(i) };
        let cone_best = sh.cone.as_ref().map(|t| cone_bound(|i| read(t, i), bc, &rows, c));
        let blocks = rows.len() as u64;
        let mut parked = Vec::with_capacity(if inline.is_some() { 0 } else { rows.len() });
        let flow = super::compute_band(
            sh.job,
            layout,
            rows,
            c,
            corner,
            cone_best,
            hseg,
            vseg,
            bands,
            |k, outcome, bottom, right| {
                // SAFETY: as above — this block is the unique writer of
                // corner and cone entry `(k+1, c+1)`.
                unsafe { *sh.corners.at((k + 1) * (bc + 1) + (c + 1)) = outcome.corner_out };
                if let Some(t) = sh.cone.as_ref() {
                    let v = cone_value(|i| read(t, i), bc, k, c, outcome);
                    // SAFETY: as above — the unique writer of this entry.
                    unsafe { *t.at((k + 1) * (bc + 1) + (c + 1)) = v };
                }
                #[cfg(feature = "race-check")]
                {
                    if k > r0 {
                        block_reads(sh, k, c);
                    }
                    race_writes(sh.race, layout, k, c, false);
                }
                if let Some(deliver) = inline.as_deref_mut() {
                    return deliver((k, c), outcome, bottom, right);
                }
                // A pruned block parks no border copies.
                let borders =
                    (outcome.path != KernelPath::Pruned).then(|| (bottom.to_vec(), right.to_vec()));
                parked.push(((k, c), BlockDone { outcome: *outcome, borders }));
                ControlFlow::Continue(())
            },
        );

        let mut co = sh.lock();
        co.blocks[runner] += blocks;
        let parks = !parked.is_empty();
        if parks {
            co.parked.extend(parked);
            co.parked_peak = co.parked_peak.max(co.parked.len());
        }
        let cancelled = co.cancel;
        drop(co);
        if let Some(t) = sh.token {
            t.beat();
        }
        if parks {
            sh.cv_done.notify_all();
        }
        if flow.is_break() {
            Step::Aborted
        } else if cancelled {
            Step::Cancelled
        } else {
            Step::Computed
        }
    }

    /// Report the bus reads of block `(r, c)` to the race detector, one
    /// block at a time in row order (a band's later blocks report after
    /// the call, between their upper neighbour's writes and their own).
    #[cfg(feature = "race-check")]
    fn block_reads(sh: &Shared<'_, '_>, r: usize, c: usize) {
        let layout = sh.layout;
        // Seeded early-publish fault: model the right neighbour
        // consuming this block's border one publish early — its reads
        // replayed before this block has written. Shadow-only; the real
        // hand-off is untouched.
        if let Some((fr, fc)) = crate::exec::fault::early_publish_block() {
            if fr == r && fc == c && c + 1 < layout.block_cols {
                let (_, (v0, height)) = block_segments(layout, r, c);
                let (h, _) = block_segments(layout, r, c + 1);
                sh.race.block_reads(r, c + 1, r + c + 1, h, (v0, height));
            }
        }
        race_reads(sh.race, layout, r, c);
    }

    /// The deliverer: its place in canonical (serial) block order, and
    /// the shadow buses, corners, totals and cut of every block it has
    /// delivered.
    struct Deliverer<'a, 'j> {
        job: &'a RegionJob<'j>,
        checkpoint_every: Option<usize>,
        /// Diagonal and column right after the last delivered block.
        d: usize,
        c: usize,
        hbus: Vec<CellHF>,
        vbus: Vec<CellHE>,
        corners: Vec<Score>,
        totals: Totals,
        progress: Progress,
    }

    impl Deliverer<'_, '_> {
        /// The state at the delivered cut. The shadow buses hold exactly
        /// its borders after any delivered block, so every block boundary
        /// is a band boundary here.
        fn snapshot(&self) -> EngineState {
            let Deliverer { job, hbus, vbus, corners, totals, progress, .. } = self;
            EngineState::snapshot(job, hbus, vbus, corners, totals, progress)
        }

        /// The next block in canonical order: on the frontier diagonal,
        /// the lowest-column block outside the cut (right of the last
        /// delivered one while the frontier stays on its diagonal).
        fn next(&self, layout: &GridLayout) -> Option<(usize, usize)> {
            let p = &self.progress;
            let from = if p.front == self.d { self.c } else { 0 };
            let open = |&c: &usize| p.cut[c] < layout.block_rows && p.cut[c] + c == p.front;
            (from..layout.block_cols).find(open).map(|c| (p.front - c, c))
        }

        /// Take the next parked block the delivery order allows, if it is
        /// finished: the canonical next block of an ordered launch, the
        /// FIFO's head of an order-free one (releasing its place under
        /// the cap).
        fn take(&self, sh: &Shared<'_, '_>) -> Option<Finished> {
            let mut co = sh.lock();
            let co = &mut *co;
            match &mut co.parked {
                Parked::ByBlock(done) => {
                    let at = self.next(sh.layout)?;
                    done.remove(&at).map(|block| (at, block))
                }
                Parked::Fifo(queue) => {
                    let head = queue.pop_front()?;
                    co.queued -= 1;
                    Some(head)
                }
            }
        }

        /// Deliver every parked block the delivery order allows, and
        /// forward protocol events as they surface. Returns `Break` when
        /// the observer aborts the launch.
        fn deliver_ready(
            &mut self,
            sh: &Shared<'_, '_>,
            observer: &mut dyn WavefrontObserver,
        ) -> ControlFlow<()> {
            let mut drained = false;
            // lint: allow(cancel-coverage): delivers only already-completed blocks and returns Continue when one is not
            // ready; the caller's delivery loop polls the cancel token every round
            loop {
                let events = std::mem::take(&mut sh.lock().events);
                for ev in &events {
                    observer.on_strip_event(ev);
                }
                let Some(((r, c), done)) = self.take(sh) else {
                    break;
                };
                drained = true;
                let borders = done.borders.as_ref().map(|(b, v)| (&b[..], &v[..]));
                self.deliver(sh, observer, (r, c), &done.outcome, borders)?;
            }
            // Runners held by the cap may fit their next band now.
            if drained && sh.lock().held > 0 {
                sh.cv_work.notify_all();
            }
            ControlFlow::Continue(())
        }

        /// Deliver block `(r, c)`: apply its borders (`None`: a pruned
        /// block's floor) to the shadow buses, update counters and the
        /// cut, notify the observer, and offer a snapshot when one is due.
        /// Returns `Break` when the observer aborts the launch.
        fn deliver(
            &mut self,
            sh: &Shared<'_, '_>,
            observer: &mut dyn WavefrontObserver,
            (r, c): (usize, usize),
            outcome: &TileOutcome,
            borders: Option<(&[CellHF], &[CellHE])>,
        ) -> ControlFlow<()> {
            let layout = sh.layout;
            let (br, bc) = (layout.block_rows, layout.block_cols);
            let (rs, re) = layout.row_range(r);
            let (cs, ce) = layout.col_range(c);
            let width = (ce + 1).saturating_sub(cs);
            let height = (re + 1).saturating_sub(rs);
            let bottom = &mut self.hbus[cs - 1..cs - 1 + width];
            let right = &mut self.vbus[rs - 1..rs - 1 + height];
            match borders {
                Some((b, v)) => {
                    bottom.copy_from_slice(b);
                    right.copy_from_slice(v);
                }
                None => super::write_floor(bottom, right),
            }
            self.corners[(r + 1) * (bc + 1) + (c + 1)] = outcome.corner_out;
            self.totals.add(outcome);
            let frontier = self.progress.complete(r, c);
            if self.progress.front > frontier {
                // A diagonal completed: runners may lead further.
                sh.lock().front = self.progress.front;
                sh.cv_work.notify_all();
            }
            (self.d, self.c) = (r + c, c + 1);
            let coords = BlockCoords {
                r,
                c,
                diagonal: r + c,
                frontier,
                rows: (rs, re),
                cols: (cs, ce),
                last_block_row: r + 1 == br,
                last_block_col: c + 1 == bc,
            };
            let (bottom, right) =
                (&self.hbus[cs - 1..cs - 1 + width], &self.vbus[rs - 1..rs - 1 + height]);
            observer.on_block(&coords, outcome, bottom, right)?;
            if self.progress.checkpoint_due(self.checkpoint_every) {
                observer.on_checkpoint(&self.snapshot());
            }
            ControlFlow::Continue(())
        }
    }

    pub(super) fn run(
        p: Params<'_, '_>,
        observer: &mut dyn WavefrontObserver,
        mut hbus: Vec<CellHF>,
        mut vbus: Vec<CellHE>,
        mut corners: Vec<Score>,
        mut cone: Option<Vec<Score>>,
    ) -> Result<RegionResult, ExecError> {
        let layout = *p.layout;
        let bc = layout.block_cols;
        let strips = p.plan.strips();
        // One runner per strip at most; the caller is runner 0.
        let runners = p.workers.min(strips).max(1);
        let restored = p.progress.cut.clone();
        let front = p.progress.front;

        // Resume frontier: rows of each strip already covered by the
        // checkpoint count as published (the cut of the strip's last
        // column, the smallest in the strip).
        let published: Vec<usize> =
            (0..strips).map(|s| restored[p.plan.bounds[s + 1] - 1]).collect();

        #[cfg(feature = "race-check")]
        p.race.set_strip_plan(&p.plan.bounds, &published);

        // Seeded reorder fault (race-check): replay the armed block's bus
        // transactions before any runner has written anything — the strip
        // analogue of running it one diagonal early.
        #[cfg(feature = "race-check")]
        if let Some((pr, pc)) = reorder_fault(&layout) {
            if pr + pc > front && !p.progress.done(pr, pc) {
                replay_phantom(p.race, &layout, pr, pc);
            }
        }

        // Shadow buses: the deliverer's view, in delivery order (see the
        // module docs). Cloned before the raw views are taken.
        let mut dl = Deliverer {
            job: p.job,
            checkpoint_every: p.checkpoint_every,
            d: front,
            c: 0,
            hbus: hbus.clone(),
            vbus: vbus.clone(),
            corners: corners.clone(),
            totals: p.totals,
            progress: p.progress,
        };

        let shared = Shared {
            job: p.job,
            layout: &layout,
            plan: p.plan,
            restored: &restored,
            lead: bc + 8 * p.plan.batch_rows,
            cap: p.plan.batch_rows * bc,
            strips,
            hbus: RawBus::new(&mut hbus),
            vbus: RawBus::new(&mut vbus),
            corners: RawBus::new(&mut corners),
            cone: cone.as_mut().map(RawBus::new),
            coord: Mutex::new(Coord {
                published,
                // Home claims: runner `i` owns strip `i` from launch, so
                // every runner is guaranteed at least one whole strip of
                // work (deterministic utilization floor); the remaining
                // strips are the stealable suffix.
                next_strip: runners,
                claims: vec![1; runners],
                blocks: vec![0; runners],
                steals: 0,
                batches: 0,
                profile_hits: 0,
                profile_misses: 0,
                front,
                cancel: false,
                parked: if p.order_free {
                    Parked::Fifo(VecDeque::new())
                } else {
                    Parked::ByBlock(HashMap::new())
                },
                queued: 0,
                parked_peak: 0,
                held: 0,
                events: (0..runners)
                    .map(|r| StripEvent::Claimed { runner: r, strip: r, stolen: false })
                    .collect(),
            }),
            cv_work: Condvar::new(),
            cv_done: Condvar::new(),
            token: p.token,
            #[cfg(feature = "race-check")]
            race: p.race,
        };

        let mut aborted = false;
        // The calling thread is runner 0; its kernel state lives out here
        // so its profile-cache traffic can be folded in after the scope
        // settles.
        let mut bands0 = BandState::default();

        let sh = &shared;
        let scope_result = p.pool.scope(|scope| {
            // lint: allow(cancel-coverage): bounded spawn fan-out, one pinned task per runner
            for runner in 1..runners {
                scope.spawn_pinned(move || runner_loop(sh, runner));
            }
            // The delivery loop may panic (observer code is arbitrary);
            // runners must still be released before the scope can settle,
            // so catch, cancel, then re-raise.
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut cur: Option<Cursor> = Some(Cursor::new(sh, 0));
                loop {
                    // 0) Cancellation, polled after the last block too (a
                    //    cancel that lands during the last band has no
                    //    band left to be polled before): flush the
                    //    delivered cut so the run stays resumable, then
                    //    tear down (the scope epilogue below wakes every
                    //    parked runner).
                    if cancel_flush(p.token, p.checkpoint_every, observer, || dl.snapshot()) {
                        aborted = true;
                        break;
                    }
                    if dl.progress.finished() {
                        break;
                    }
                    // 1) Deliver everything ready.
                    if dl.deliver_ready(sh, observer).is_break() {
                        aborted = true;
                        break;
                    }
                    if dl.progress.finished() {
                        continue;
                    }
                    if scope.panicked() {
                        // A runner died; the scope will surface the panic
                        // as WorkerPanic once we release the others.
                        break;
                    }
                    // 2) Advance the caller's own strip by one band. On an
                    //    order-free launch it delivers the band's blocks
                    //    itself, each right after draining what is ready:
                    //    the blocks left of the band were pushed before
                    //    the publish it waited for.
                    let mut inline =
                        |at, out: &TileOutcome, bottom: &[CellHF], right: &[CellHE]| {
                            dl.deliver_ready(sh, observer)?;
                            dl.deliver(sh, observer, at, out, Some((bottom, right)))
                        };
                    let inline = p.order_free.then_some(&mut inline as &mut Inline<'_>);
                    match step(sh, 0, &mut cur, &mut bands0, inline) {
                        Step::Computed => continue,
                        Step::Aborted => {
                            aborted = true;
                            break;
                        }
                        Step::Blocked | Step::Idle | Step::Cancelled => {}
                    }
                    // 3) Nothing to compute: park briefly for runner
                    //    completions (timeout bounds the wait so runner
                    //    panics and publish-only progress are noticed).
                    let co = sh.lock();
                    let ready = match &co.parked {
                        Parked::ByBlock(done) => {
                            dl.next(&layout).is_some_and(|at| done.contains_key(&at))
                        }
                        Parked::Fifo(queue) => !queue.is_empty(),
                    };
                    if !ready && co.events.is_empty() && !co.cancel {
                        drop(
                            sh.cv_done
                                .wait_timeout(co, Duration::from_millis(1))
                                .unwrap_or_else(|e| e.into_inner())
                                .0,
                        );
                    }
                }
            }));
            // Release the runners whatever happened above, and drop any
            // runner job that never reached a worker thread (the caller's
            // drain skips pinned jobs, so they would pend forever).
            sh.cancel_all();
            scope.cancel_queued();
            if let Err(payload) = body {
                resume_unwind(payload);
            }
        });
        scope_result?;

        // Final event drain, so claims/publishes that raced the last
        // delivery still reach the observer.
        // lint: allow(cancel-coverage): bounded drain of the already-collected event buffer after the scope settled
        for ev in std::mem::take(&mut shared.lock().events) {
            observer.on_strip_event(&ev);
        }

        let co = shared.lock();
        let stats = StripStats {
            strips,
            batch_rows: p.plan.batch_rows,
            steals: co.steals,
            batches_published: co.batches,
            runner_blocks: co.blocks.clone(),
            parked_peak: co.parked_peak,
        };
        // Fold the pooled runners' cache traffic (deposited by each
        // `runner_loop` on exit) with runner 0's own cache, which lives in
        // this frame and was never routed through the coordinator.
        let profile_hits = co.profile_hits + bands0.cache.hits();
        let profile_misses = co.profile_misses + bands0.cache.misses();
        // Cancelled teardown: park a diagnostic snapshot of the protocol
        // counters in the token, so a stalled run can report where each
        // strip was stuck.
        if let Some(t) = p.token {
            if t.is_cancelled() {
                t.set_strip_diag(StripDiag {
                    published: co.published.clone(),
                    claims: co.claims.clone(),
                    blocks: co.blocks.clone(),
                    front: co.front,
                });
            }
        }
        drop(co);

        Ok(RegionResult {
            best: dl.totals.best,
            cells: dl.totals.cells,
            pruned_cells: dl.totals.pruned_cells,
            diagonals_run: dl.progress.front - dl.progress.start,
            aborted,
            busy_slots: dl.progress.blocks_done(),
            hbus: dl.hbus,
            vbus: dl.vbus,
            layout,
            paths: dl.totals.paths,
            profile_hits,
            profile_misses,
            strip: Some(stats),
        })
    }
}

/// Launch `job` on a pool of its own, `job.workers` lanes wide.
#[cfg(test)]
fn launch_alone(
    job: &RegionJob<'_>,
    observer: &mut dyn WavefrontObserver,
    opts: Launch<'_>,
) -> RegionResult {
    launch(&WorkerPool::new(job.workers), job, observer, opts).expect("no worker panic")
}

/// [`launch_alone`] with no observer and default options.
#[cfg(test)]
fn plain(job: &RegionJob<'_>) -> RegionResult {
    launch_alone(job, &mut NoObserver, Launch::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::generate::dna;
    use sw_core::full::sw_local_score;
    use sw_core::linear::forward_vectors;
    use sw_core::transcript::EdgeState as ES;

    const SC: Scoring = Scoring::paper();

    fn job<'a>(
        a: &'a [u8],
        b: &'a [u8],
        mode: Mode,
        grid: GridSpec,
        workers: usize,
    ) -> RegionJob<'a> {
        RegionJob { a, b, scoring: SC, mode, grid, workers, watch: None }
    }

    #[test]
    fn global_final_row_matches_rowdp() {
        let a = dna(1, 113);
        let b = dna(2, 97);
        for start in [ES::Diagonal, ES::GapS0, ES::GapS1] {
            let res = plain(&job(&a, &b, Mode::global(start), GridSpec::small(), 2));
            assert!(!res.aborted);
            assert_eq!(res.cells, (a.len() * b.len()) as u64);
            let (h, f) = forward_vectors(&a, &b, &SC, start);
            for j in 0..b.len() {
                assert_eq!(res.hbus[j].h, h[j + 1], "H mismatch at {j} start={start:?}");
                assert_eq!(res.hbus[j].f, f[j + 1], "F mismatch at {j} start={start:?}");
            }
        }
    }

    #[test]
    fn local_best_matches_reference() {
        let a = dna(3, 200);
        let mut b = a.clone(); // identical, then perturb
        for i in (0..200).step_by(17) {
            b[i] = b"ACGT"[(i / 17) % 4];
        }
        let res = plain(&job(&a, &b, Mode::Local, GridSpec::small(), 3));
        let (score, end) = sw_local_score(&a, &b, &SC);
        let (s, i, j) = res.best.expect("positive score expected");
        assert_eq!(s, score);
        assert_eq!((i, j), end);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let a = dna(5, 301);
        let b = dna(6, 257);
        let r1 = plain(&job(&a, &b, Mode::Local, GridSpec { blocks: 5, threads: 4, alpha: 3 }, 1));
        let r4 = plain(&job(&a, &b, Mode::Local, GridSpec { blocks: 5, threads: 4, alpha: 3 }, 4));
        assert_eq!(r1.best, r4.best);
        assert_eq!(r1.cells, r4.cells);
        for j in 0..b.len() {
            assert_eq!(r1.hbus[j], r4.hbus[j]);
        }
    }

    #[test]
    fn grid_shape_does_not_change_results() {
        let a = dna(7, 150);
        let b = dna(8, 190);
        let grids = [
            GridSpec { blocks: 1, threads: 1, alpha: 1 },
            GridSpec { blocks: 2, threads: 8, alpha: 1 },
            GridSpec { blocks: 7, threads: 2, alpha: 5 },
            GridSpec { blocks: 240, threads: 64, alpha: 4 }, // reduced at runtime
        ];
        let reference = plain(&job(&a, &b, Mode::global(ES::Diagonal), grids[0], 2));
        for g in &grids[1..] {
            let r = plain(&job(&a, &b, Mode::global(ES::Diagonal), *g, 2));
            assert_eq!(r.hbus, reference.hbus, "grid {g:?}");
        }
    }

    /// Observer sees every block exactly once, in diagonal order, and
    /// bottom/right segments have block-shaped lengths.
    #[test]
    fn observer_sees_all_blocks_in_order() {
        struct Collect {
            seen: Vec<BlockCoords>,
        }
        impl WavefrontObserver for Collect {
            fn on_block(
                &mut self,
                b: &BlockCoords,
                _out: &TileOutcome,
                bottom: &[CellHF],
                right: &[CellHE],
            ) -> ControlFlow<()> {
                assert_eq!(bottom.len(), b.cols.1 + 1 - b.cols.0);
                assert_eq!(right.len(), b.rows.1 + 1 - b.rows.0);
                self.seen.push(*b);
                ControlFlow::Continue(())
            }
        }
        let a = dna(9, 64);
        let b = dna(10, 48);
        let grid = GridSpec { blocks: 3, threads: 2, alpha: 4 };
        let mut obs = Collect { seen: Vec::new() };
        let res = launch_alone(&job(&a, &b, Mode::Local, grid, 2), &mut obs, Launch::default());
        assert_eq!(obs.seen.len(), res.layout.block_rows * res.layout.block_cols);
        // Diagonals are non-decreasing.
        for w in obs.seen.windows(2) {
            assert!(w[0].diagonal <= w[1].diagonal);
        }
    }

    #[test]
    fn observer_abort_stops_early() {
        struct StopAfter {
            n: usize,
        }
        impl WavefrontObserver for StopAfter {
            fn on_block(
                &mut self,
                _: &BlockCoords,
                _: &TileOutcome,
                _: &[CellHF],
                _: &[CellHE],
            ) -> ControlFlow<()> {
                self.n -= 1;
                if self.n == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }
        }
        let a = dna(11, 128);
        let b = dna(12, 128);
        let grid = GridSpec { blocks: 4, threads: 2, alpha: 2 };
        let mut obs = StopAfter { n: 3 };
        let res = launch_alone(&job(&a, &b, Mode::Local, grid, 2), &mut obs, Launch::default());
        assert!(res.aborted);
        assert!(res.cells < (a.len() * b.len()) as u64);
    }

    /// Stage-2-sized regions on the scaled grid get one lane; blocks at
    /// the break-even keep the caller's worker count, and a region
    /// shorter than one block is judged by the rows it has.
    #[test]
    fn region_workers_follows_block_cells() {
        let scaled = GridSpec { blocks: 60, threads: 8, alpha: 2 };
        assert_eq!(region_workers(&scaled.layout(384, 256), 2), 1); // 16x16
        assert_eq!(region_workers(&scaled.layout(46_000, 3_840), 2), 1); // 16x64
        let g64 = GridSpec { blocks: 4, threads: 32, alpha: 2 };
        assert_eq!(region_workers(&g64.layout(384, 256), 2), 2); // 64x64
        assert_eq!(region_workers(&g64.layout(384, 256), 0), 0);
        assert_eq!(region_workers(&g64.layout(32, 256), 2), 1); // 32x64
        let stage1 = GridSpec { blocks: 240, threads: 64, alpha: 4 };
        assert_eq!(region_workers(&stage1.layout(32_799, 46_944), 2), 2);
    }

    #[test]
    fn degenerate_empty_region() {
        let res = plain(&job(b"", b"ACG", Mode::global(ES::Diagonal), GridSpec::small(), 2));
        assert_eq!(res.cells, 0);
        assert!(!res.aborted);
        // hbus keeps the init row.
        assert_eq!(res.hbus[0].h, -5);
        let res2 = plain(&job(b"ACG", b"", Mode::Local, GridSpec::small(), 2));
        assert_eq!(res2.cells, 0);
        assert!(res2.best.is_none());
    }

    #[test]
    fn single_cell_region() {
        let res = plain(&job(b"A", b"A", Mode::Local, GridSpec::small(), 2));
        assert_eq!(res.best, Some((1, 1, 1)));
        assert_eq!(res.cells, 1);
    }

    /// An order-free local launch whose observer allows pruning prunes on
    /// every schedule. The walk (one lane) and the strip runners (any
    /// worker count, the default batch) cut the same bands and make the
    /// same decisions, so the buses, every delivered block and the
    /// counters are byte-identical; the best cell is the reference DP's.
    #[test]
    fn pruned_walk_and_strips_are_byte_identical() {
        /// Every block's path, corner and borders, by block.
        struct Blocks(std::collections::HashMap<(usize, usize), BlockRecord>);
        type BlockRecord = (KernelPath, Score, Vec<CellHF>, Vec<CellHE>);
        impl WavefrontObserver for Blocks {
            fn on_block(
                &mut self,
                b: &BlockCoords,
                out: &TileOutcome,
                bottom: &[CellHF],
                right: &[CellHE],
            ) -> ControlFlow<()> {
                let record = (out.path, out.corner_out, bottom.to_vec(), right.to_vec());
                assert!(self.0.insert((b.r, b.c), record).is_none(), "({}, {}) twice", b.r, b.c);
                ControlFlow::Continue(())
            }

            fn needs_diagonal_order(&self) -> bool {
                false
            }

            fn allows_pruning(&self) -> bool {
                true
            }
        }
        let a = dna(31, 1500);
        let mut b = a[200..1400].to_vec();
        for i in (0..b.len()).step_by(29) {
            b[i] = b"ACGT"[(i / 29) % 4];
        }
        // 64-row blocks: publish batches band on every schedule.
        let grid = GridSpec { blocks: 6, threads: 8, alpha: 8 };
        let run = |workers| {
            let mut obs = Blocks(Default::default());
            let res =
                launch_alone(&job(&a, &b, Mode::Local, grid, workers), &mut obs, Launch::default());
            (res, obs.0)
        };
        let (walk, walk_blocks) = run(1);
        assert!(walk.strip.is_none(), "one lane walks");
        assert!(walk.paths.pruned > 0 && walk.pruned_cells > 0, "{:?}", walk.paths);
        assert_eq!(walk.cells, (a.len() * b.len()) as u64);
        let (score, (i, j)) = sw_local_score(&a, &b, &SC);
        assert_eq!(walk.best, Some((score, i, j)));
        for workers in [2usize, 3, 8] {
            let (strips, blocks) = run(workers);
            assert!(strips.strip.is_some(), "workers={workers}");
            assert_eq!(strips.best, walk.best, "workers={workers}");
            assert_eq!(strips.hbus, walk.hbus, "workers={workers}");
            assert_eq!(strips.vbus, walk.vbus, "workers={workers}");
            assert_eq!(strips.cells, walk.cells, "workers={workers}");
            assert_eq!(strips.pruned_cells, walk.pruned_cells, "workers={workers}");
            assert_eq!(strips.paths, walk.paths, "workers={workers}");
            assert!(blocks == walk_blocks, "block records, workers={workers}");
        }
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;
    use seqio::generate::dna;
    use sw_core::transcript::EdgeState as ES;

    /// Tall grids (many block rows, few block columns) keep nearly every
    /// slot busy — the property cells delegation provides on the GPU.
    #[test]
    fn tall_grid_has_high_utilization() {
        let a = dna(1, 4000);
        let b = dna(2, 200);
        let grid = GridSpec { blocks: 2, threads: 5, alpha: 2 }; // 400 block rows x 2 cols
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::global(ES::Diagonal),
            grid,
            workers: 1,
            watch: None,
        };
        let res = plain(&job);
        assert!(res.utilization() > 0.99, "utilization {}", res.utilization());
        assert_eq!(res.busy_slots, res.layout.block_rows as u64 * res.layout.block_cols as u64);
    }

    /// Square grids drain at the corners: utilization ~ R/(R+C-1).
    #[test]
    fn square_grid_utilization_matches_formula() {
        let a = dna(3, 160);
        let b = dna(4, 160);
        let grid = GridSpec { blocks: 8, threads: 10, alpha: 2 }; // 8x8 blocks
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid,
            workers: 1,
            watch: None,
        };
        let res = plain(&job);
        let (r, c) = (res.layout.block_rows as f64, res.layout.block_cols as f64);
        let expected = (r * c) / ((r + c - 1.0) * c);
        assert!((res.utilization() - expected).abs() < 1e-9);
    }
}

#[cfg(test)]
mod resume_tests {
    use super::*;
    use seqio::generate::dna;
    use sw_core::transcript::EdgeState as ES;

    fn job<'a>(a: &'a [u8], b: &'a [u8]) -> RegionJob<'a> {
        RegionJob {
            a,
            b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid: GridSpec { blocks: 3, threads: 2, alpha: 2 },
            workers: 2,
            watch: None,
        }
    }

    /// Observer that records every checkpoint snapshot.
    struct Snapshots(Vec<EngineState>);
    impl WavefrontObserver for Snapshots {
        fn on_block(
            &mut self,
            _: &BlockCoords,
            _: &TileOutcome,
            _: &[CellHF],
            _: &[CellHE],
        ) -> ControlFlow<()> {
            ControlFlow::Continue(())
        }
        fn on_checkpoint(&mut self, state: &EngineState) {
            self.0.push(state.clone());
        }
    }

    /// Interrupt + resume must reproduce the uninterrupted run exactly.
    #[test]
    fn resume_reproduces_uninterrupted_run() {
        let a = dna(1, 300);
        let mut b = a.clone();
        for i in (0..300).step_by(23) {
            b[i] = b"ACGT"[i % 4];
        }
        let j = job(&a, &b);
        let full = plain(&j);

        // Capture checkpoints every 5 diagonals.
        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j, &mut obs, Launch { checkpoint_every: Some(5), ..Launch::default() });
        let snapshots = obs.0;
        assert!(snapshots.len() >= 2, "expected several checkpoints");
        let mid = snapshots[snapshots.len() / 2].clone();

        // Round-trip the snapshot through bytes (what a file would hold).
        let bytes = mid.encode();
        let restored = EngineState::decode(&bytes).expect("decode");
        assert_eq!(restored, mid);

        let resumed = launch_alone(
            &j,
            &mut NoObserver,
            Launch { resume: Some(restored), ..Launch::default() },
        );
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.hbus, full.hbus);
        assert_eq!(resumed.vbus, full.vbus);
        assert_eq!(resumed.cells, full.cells, "cells counter continues across resume");
        assert_eq!(resumed.busy_slots, full.busy_slots);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let a = dna(2, 100);
        let b = dna(3, 100);
        let j = job(&a, &b);
        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j, &mut obs, Launch { checkpoint_every: Some(3), ..Launch::default() });
        let mut snaps = obs.0;
        let other_a = dna(4, 120);
        let j2 = job(&other_a, &b);
        let snap = snaps.pop().expect("have a snapshot");
        let pool = WorkerPool::new(2);
        let opts = Launch { resume: Some(snap), ..Launch::default() };
        let result = launch(&pool, &j2, &mut NoObserver, opts);
        assert!(result.is_err(), "foreign checkpoint must be rejected");
        assert_eq!(result.err(), Some(ExecError::ForeignCheckpoint));
    }

    /// A plan that does not cover the grid is refused before any block
    /// runs.
    #[test]
    fn launch_rejects_a_plan_off_the_grid() {
        let a = dna(4, 100);
        let b = dna(5, 100);
        let j = job(&a, &b); // 3 block columns
        let pool = WorkerPool::new(2);
        let mut obs = Snapshots(Vec::new());
        let short = StripPlan { bounds: vec![0, 2], batch_rows: 1 };
        let opts = Launch { plan: Some(short), checkpoint_every: Some(1), ..Launch::default() };
        let err = launch(&pool, &j, &mut obs, opts).err();
        assert_eq!(err, Some(ExecError::PlanMismatch { bounds: vec![0, 2], block_cols: 3 }));
        assert!(obs.0.is_empty(), "a refused launch must not run");
    }

    /// Earlier builds appended a 12-byte schedule tailer (`STRP`, strip
    /// count, batch rows) to strip-scheduled checkpoints. The decoder
    /// ignores trailing bytes, so such a blob decodes to the same state,
    /// re-encodes without the tailer and resumes byte-identically.
    #[test]
    fn blobs_with_a_strip_tailer_still_decode() {
        let a = dna(7, 260);
        let b = dna(9, 240);
        let j = job(&a, &b); // workers: 2 -> strip scheduler
        let full = plain(&j);

        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j, &mut obs, Launch { checkpoint_every: Some(4), ..Launch::default() });
        let snap = obs.0.into_iter().next().expect("have a checkpoint");
        let payload = snap.encode();
        let mut tailed = payload.clone();
        tailed.extend_from_slice(b"STRP");
        tailed.extend_from_slice(&2u32.to_le_bytes());
        tailed.extend_from_slice(&(DEFAULT_BATCH_ROWS as u32).to_le_bytes());
        let restored = EngineState::decode(&tailed).expect("a tailed blob must decode");
        assert_eq!(restored, snap);
        assert_eq!(restored.encode(), payload);
        // A cut tailer is trailing bytes too.
        assert_eq!(EngineState::decode(&tailed[..tailed.len() - 5]).as_ref(), Some(&snap));

        let resumed = launch_alone(
            &j,
            &mut NoObserver,
            Launch { resume: Some(restored), ..Launch::default() },
        );
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.hbus, full.hbus);
        assert_eq!(resumed.vbus, full.vbus);
        assert_eq!(resumed.cells, full.cells);
        assert_eq!(resumed.busy_slots, full.busy_slots);
    }

    /// A snapshot taken under one worker count must resume under any
    /// other: the strip plan is derived at launch, not persisted state.
    /// The snapshots come from the strip engine in canonical order
    /// (diagonal cuts), from a one-lane banded walk (cuts at its band
    /// boundaries, most of them not diagonal) and from the strip engine
    /// in completion order (prefixes of its delivery FIFO).
    #[test]
    fn resume_with_different_worker_count_is_byte_identical() {
        let a = dna(11, 280);
        let b = dna(13, 300);
        let j4 = RegionJob { workers: 4, ..job(&a, &b) };
        let full = plain(&j4);

        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j4, &mut obs, Launch { checkpoint_every: Some(3), ..Launch::default() });
        let snapshots = obs.0;
        assert!(snapshots.len() >= 2, "expected several checkpoints");
        let mid = snapshots[snapshots.len() / 2].clone();

        let mut walk = OrderFree::default();
        let every = Launch { checkpoint_every: Some(3), ..Launch::default() };
        let walked = launch_alone(&RegionJob { workers: 1, ..j4 }, &mut walk, every);
        assert!(walked.strip.is_none(), "one lane walks");
        let off_diagonal = |s: &EngineState| s.cut != diagonal_cut(&walked.layout, s.next_diagonal);
        assert!(walk.snaps.iter().any(off_diagonal), "no cut off the diagonals");

        let mut strips = OrderFree::default();
        let every = Launch { checkpoint_every: Some(3), ..Launch::default() };
        let freed = launch_alone(&j4, &mut strips, every);
        assert!(freed.strip.is_some(), "four lanes run strips");
        assert!(strips.snaps.len() >= 2, "expected several checkpoints");

        for snap in std::iter::once(mid).chain(walk.snaps).chain(strips.snaps) {
            for workers in [1usize, 2, 3, 8] {
                assert_resumes(&j4, &snap, &full, workers);
            }
        }
    }

    /// The cut of every block on the diagonals below `d`.
    fn diagonal_cut(layout: &GridLayout, d: usize) -> Vec<usize> {
        (0..layout.block_cols).map(|c| d.saturating_sub(c).min(layout.block_rows)).collect()
    }

    /// Records every checkpoint like [`Snapshots`], and the delivery
    /// order, but reads no delivery order, so a one-lane launch with it
    /// takes the banded walk. With a token, it cancels the token once
    /// `countdown` blocks arrived.
    #[derive(Default)]
    struct OrderFree<'t> {
        countdown: usize,
        token: Option<&'t crate::ctrl::CancelToken>,
        snaps: Vec<EngineState>,
        order: Vec<(usize, usize)>,
    }
    impl WavefrontObserver for OrderFree<'_> {
        fn on_block(
            &mut self,
            b: &BlockCoords,
            _: &TileOutcome,
            _: &[CellHF],
            _: &[CellHE],
        ) -> ControlFlow<()> {
            self.order.push((b.r, b.c));
            self.countdown = self.countdown.saturating_sub(1);
            if let Some(t) = self.token.filter(|_| self.countdown == 0) {
                t.cancel(crate::ctrl::CancelCause::Requested);
            }
            ControlFlow::Continue(())
        }
        fn on_checkpoint(&mut self, state: &EngineState) {
            self.snaps.push(state.clone());
        }
        fn needs_diagonal_order(&self) -> bool {
            false
        }
    }

    /// An observer that cancels the supervision token after a fixed
    /// number of delivered blocks, recording every checkpoint.
    struct CancelAfter<'t> {
        countdown: usize,
        token: &'t crate::ctrl::CancelToken,
        snaps: Vec<EngineState>,
    }
    impl WavefrontObserver for CancelAfter<'_> {
        fn on_block(
            &mut self,
            _: &BlockCoords,
            _: &TileOutcome,
            _: &[CellHF],
            _: &[CellHE],
        ) -> ControlFlow<()> {
            if self.countdown > 0 {
                self.countdown -= 1;
                if self.countdown == 0 {
                    self.token.cancel(crate::ctrl::CancelCause::Requested);
                }
            }
            ControlFlow::Continue(())
        }
        fn on_checkpoint(&mut self, state: &EngineState) {
            self.snaps.push(state.clone());
        }
    }

    /// Cancelling a supervised run must (a) abort instead of returning a
    /// partial score, (b) flush one final boundary checkpoint, and (c)
    /// leave a snapshot from which resume is byte-identical to the
    /// uninterrupted run — on both schedulers, at several cancel points.
    #[test]
    fn cancelled_runs_flush_a_resumable_boundary_checkpoint() {
        let a = dna(21, 260);
        let b = dna(22, 300);
        for workers in [1usize, 4] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = plain(&j);
            let pool = WorkerPool::new(workers);
            for cancel_after in [1usize, 7, 25] {
                let token = crate::ctrl::CancelToken::new();
                let mut obs = CancelAfter { countdown: cancel_after, token: &token, snaps: vec![] };
                // Cadence 10_000 never fires on this grid: every recorded
                // snapshot below is the cancellation flush itself.
                let res = launch(
                    &pool,
                    &j,
                    &mut obs,
                    Launch {
                        checkpoint_every: Some(10_000),
                        token: Some(&token),
                        ..Launch::default()
                    },
                )
                .unwrap();
                assert!(res.aborted, "workers={workers} cancel_after={cancel_after}");
                let snap = obs.snaps.pop().expect("cancel must flush a checkpoint");
                assert!(obs.snaps.is_empty(), "exactly one flush per cancel");
                let resumed = launch_alone(
                    &j,
                    &mut NoObserver,
                    Launch { resume: Some(snap), ..Launch::default() },
                );
                assert_eq!(resumed.best, full.best, "workers={workers}");
                assert_eq!(resumed.hbus, full.hbus, "workers={workers}");
                assert_eq!(resumed.vbus, full.vbus, "workers={workers}");
                assert_eq!(resumed.cells, full.cells, "workers={workers}");
                assert_eq!(resumed.busy_slots, full.busy_slots, "workers={workers}");
            }
        }
    }

    /// A cancel that lands during the last band finds no band boundary
    /// left to be polled at. The launch still aborts, with one flush of
    /// its final cut (every block), which resumes to the uninterrupted
    /// result: ordered and order-free, on one lane and on strips.
    #[test]
    fn a_cancel_in_the_last_band_aborts_and_flushes() {
        let a = dna(37, 260);
        let b = dna(38, 300);
        for workers in [1usize, 4] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = plain(&j);
            let blocks = full.layout.block_rows * full.layout.block_cols;
            let pool = WorkerPool::new(workers);
            let opts = |token| Launch {
                checkpoint_every: Some(10_000),
                token: Some(token),
                ..Launch::default()
            };
            let check = |res: RegionResult, mut snaps: Vec<EngineState>, what: &str| {
                assert!(res.aborted, "{what}");
                assert_eq!(snaps.len(), 1, "one flush, {what}");
                let snap = snaps.remove(0);
                assert_eq!(snap.next_diagonal, full.layout.diagonals(), "the final cut, {what}");
                assert_resumes(&j, &snap, &full, workers);
            };
            let token = crate::ctrl::CancelToken::new();
            let mut ordered = CancelAfter { countdown: blocks, token: &token, snaps: vec![] };
            let res = launch(&pool, &j, &mut ordered, opts(&token)).expect("no worker panic");
            check(res, ordered.snaps, &format!("ordered, workers={workers}"));
            let token = crate::ctrl::CancelToken::new();
            let mut free =
                OrderFree { countdown: blocks, token: Some(&token), ..OrderFree::default() };
            let res = launch(&pool, &j, &mut free, opts(&token)).expect("no worker panic");
            check(res, free.snaps, &format!("order-free, workers={workers}"));
        }
    }

    /// A token cancelled before launch aborts immediately with the
    /// initial state as its flush — resuming from it runs everything.
    #[test]
    fn pre_cancelled_run_aborts_with_initial_snapshot() {
        let a = dna(23, 150);
        let b = dna(24, 140);
        let j = job(&a, &b);
        let full = plain(&j);
        let pool = WorkerPool::new(2);
        let token = crate::ctrl::CancelToken::new();
        token.cancel(crate::ctrl::CancelCause::Requested);
        let mut obs = CancelAfter { countdown: 0, token: &token, snaps: vec![] };
        let res = launch(
            &pool,
            &j,
            &mut obs,
            Launch { checkpoint_every: Some(10_000), token: Some(&token), ..Launch::default() },
        )
        .unwrap();
        assert!(res.aborted);
        assert_eq!(res.cells, 0, "no partial work should be committed");
        let snap = obs.snaps.pop().expect("flush");
        assert_eq!(snap.next_diagonal, 0);
        let resumed =
            launch_alone(&j, &mut NoObserver, Launch { resume: Some(snap), ..Launch::default() });
        assert_eq!(resumed.best, full.best);
        assert_eq!(resumed.hbus, full.hbus);
    }

    /// A live (never-cancelled) token must not change results, and the
    /// heartbeat must move.
    #[test]
    fn supervised_run_without_cancel_is_identical_and_beats() {
        let a = dna(25, 200);
        let b = dna(26, 180);
        for workers in [1usize, 3] {
            let j = RegionJob { workers, ..job(&a, &b) };
            let full = plain(&j);
            let pool = WorkerPool::new(workers);
            let token = crate::ctrl::CancelToken::new();
            let res = launch(
                &pool,
                &j,
                &mut NoObserver,
                Launch { token: Some(&token), ..Launch::default() },
            )
            .unwrap();
            assert!(!res.aborted);
            assert_eq!(res.best, full.best, "workers={workers}");
            assert_eq!(res.hbus, full.hbus, "workers={workers}");
            assert_eq!(res.cells, full.cells, "workers={workers}");
            assert!(token.beats() > 0, "workers must report liveness");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(EngineState::decode(b"nope").is_none());
        assert!(EngineState::decode(b"").is_none());
        // Truncated real snapshot.
        let a = dna(5, 60);
        let j = RegionJob {
            a: &a,
            b: &a,
            scoring: Scoring::paper(),
            mode: Mode::global(ES::Diagonal),
            grid: GridSpec::small(),
            workers: 1,
            watch: None,
        };
        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j, &mut obs, Launch { checkpoint_every: Some(1), ..Launch::default() });
        let snaps = obs.0;
        let bytes = snaps[0].encode();
        assert!(EngineState::decode(&bytes[..bytes.len() - 3]).is_none());
        // Corrupted length field must not cause huge allocations.
        let mut corrupt = bytes.clone();
        corrupt[68] = 0xFF;
        corrupt[69] = 0xFF;
        corrupt[70] = 0xFF;
        let _ = EngineState::decode(&corrupt); // must return, not abort
                                               // Length fields (`hbus`, `vbus`, corners) whose byte count
                                               // overflows a `usize` are rejected, not multiplied out.
        for (at, n) in [(68, 1u64 << 61), (76, 1 << 61), (84, 1 << 62)] {
            let mut huge = bytes.clone();
            huge[at..at + 8].copy_from_slice(&n.to_le_bytes());
            assert!(EngineState::decode(&huge).is_none(), "length field at byte {at}");
        }
    }

    /// Resume `snap` on `j` at `workers` lanes without an observer (one
    /// lane walks) and check the result against the uninterrupted `full`.
    fn assert_resumes(j: &RegionJob<'_>, snap: &EngineState, full: &RegionResult, workers: usize) {
        let j = RegionJob { workers, ..*j };
        let opts = Launch { resume: Some(snap.clone()), ..Launch::default() };
        let resumed = launch_alone(&j, &mut NoObserver, opts);
        let what = format!("workers={workers}, cut {:?}", snap.cut);
        assert!(!resumed.aborted, "{what}");
        assert_eq!(resumed.best, full.best, "{what}");
        assert_eq!(resumed.hbus, full.hbus, "{what}");
        assert_eq!(resumed.vbus, full.vbus, "{what}");
        assert_eq!(resumed.cells, full.cells, "{what}");
        assert_eq!(resumed.busy_slots, full.busy_slots, "{what}");
    }

    /// Cancelling a one-lane banded walk flushes its current cut, a band
    /// boundary off the diagonals, which resumes byte-identically at one
    /// and two lanes. A resumed walk cancelled again counts only the
    /// diagonals it completed itself: its flush's frontier is the first
    /// flush's plus its `diagonals_run`.
    #[test]
    fn cancelled_walk_flushes_a_resumable_cut() {
        let a = dna(27, 300);
        let b = dna(28, 260);
        let j = RegionJob { workers: 1, ..job(&a, &b) };
        let full = plain(&j);
        let pool = WorkerPool::new(1);
        let cancel_after = |countdown: usize, resume: Option<EngineState>| {
            let token = crate::ctrl::CancelToken::new();
            let mut obs = OrderFree { countdown, token: Some(&token), ..OrderFree::default() };
            let opts = Launch {
                resume,
                checkpoint_every: Some(10_000),
                token: Some(&token),
                ..Launch::default()
            };
            let res = launch(&pool, &j, &mut obs, opts).expect("no worker panic");
            assert!(res.aborted && res.strip.is_none(), "a cancelled walk");
            assert_eq!(obs.snaps.len(), 1, "exactly one flush per cancel");
            (res, obs.snaps.remove(0))
        };
        let (_, first) = cancel_after(30, None);
        assert_ne!(first.cut, diagonal_cut(&full.layout, first.next_diagonal), "a diagonal cut");
        let (again, second) = cancel_after(30, Some(first.clone()));
        assert!(again.diagonals_run > 0);
        assert_eq!(second.next_diagonal, first.next_diagonal + again.diagonals_run);
        for snap in [first, second] {
            for workers in [1, 2] {
                assert_resumes(&j, &snap, &full, workers);
            }
        }
    }

    /// A `CKPT` blob of a build before cuts has no cut after the corners.
    /// It decodes with an empty cut, read as the diagonal cut at its
    /// `next_diagonal`, and resumes byte-identically on the walk and on
    /// strips.
    #[test]
    fn ckpt_blobs_of_earlier_builds_resume_byte_identically() {
        let a = dna(29, 260);
        let b = dna(30, 240);
        let j = job(&a, &b);
        let full = plain(&j);
        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j, &mut obs, Launch { checkpoint_every: Some(4), ..Launch::default() });
        let snap = obs.0.swap_remove(obs.0.len() / 2);
        assert_eq!(snap.cut, diagonal_cut(&full.layout, snap.next_diagonal));
        let bytes = snap.encode();
        let mut old = b"CKPT".to_vec();
        old.extend_from_slice(&bytes[4..bytes.len() - 8 * (1 + snap.cut.len())]);
        let decoded = EngineState::decode(&old).expect("a CKPT blob decodes");
        assert_eq!(decoded, EngineState { cut: Vec::new(), ..snap.clone() });
        assert!(decoded.matches(&j));
        for workers in [1, 2] {
            assert_resumes(&j, &decoded, &full, workers);
        }
    }

    /// Checkpoints do not pick the schedule: a one-lane launch with an
    /// order-free observer walks in the same bands with and without them
    /// (64-row blocks, so a band spans several), so it delivers in the
    /// same order, and its kernel paths, profile traffic, buses and
    /// totals are the same.
    #[test]
    fn checkpoints_keep_the_banded_walk() {
        let a = dna(33, 900);
        let b = dna(34, 300);
        let grid = GridSpec { blocks: 3, threads: 16, alpha: 4 };
        let j = RegionJob { workers: 1, grid, ..job(&a, &b) };
        let mut obs = OrderFree::default();
        let every = Launch { checkpoint_every: Some(2), ..Launch::default() };
        let ckpt = launch_alone(&j, &mut obs, every);
        let mut plain_walk = OrderFree::default();
        let walk = launch_alone(&j, &mut plain_walk, Launch::default());
        assert!(obs.snaps.len() > 2, "checkpoints offered");
        assert_eq!(obs.order, plain_walk.order, "delivery order");
        assert!(obs.order.windows(2).any(|w| w[0].0 + w[0].1 > w[1].0 + w[1].1), "walk order");
        assert!(ckpt.strip.is_none() && walk.strip.is_none(), "one lane walks");
        assert_eq!(ckpt.paths, walk.paths);
        assert_eq!(ckpt.profile_hits, walk.profile_hits);
        assert_eq!(ckpt.profile_misses, walk.profile_misses);
        assert_eq!(ckpt.best, walk.best);
        assert_eq!(ckpt.cells, walk.cells);
        assert_eq!(ckpt.hbus, walk.hbus);
        assert_eq!(ckpt.vbus, walk.vbus);
    }

    /// A snapshot of the job in the wrong shape — a bus or the corner
    /// table cut short, a cut of the wrong length, one that increases or
    /// runs past the block rows, a frontier that is not its cut's — does
    /// not match, and a launch refuses it as foreign at one and two lanes
    /// before any block runs.
    #[test]
    fn resume_rejects_malformed_states() {
        let a = dna(35, 120);
        let b = dna(36, 130);
        let j = job(&a, &b);
        let mut obs = Snapshots(Vec::new());
        let _ =
            launch_alone(&j, &mut obs, Launch { checkpoint_every: Some(3), ..Launch::default() });
        let snap = obs.0.pop().expect("have a snapshot");
        let layout = j.grid.layout(a.len(), b.len());
        let (br, end) = (layout.block_rows, layout.diagonals());
        assert_eq!(snap.cut.len(), 3);
        let bad = [
            EngineState { hbus: snap.hbus[..10].to_vec(), ..snap.clone() },
            EngineState { vbus: snap.vbus[..10].to_vec(), ..snap.clone() },
            EngineState { corners: snap.corners[1..].to_vec(), ..snap.clone() },
            EngineState { cut: snap.cut[1..].to_vec(), ..snap.clone() },
            EngineState { cut: vec![0, 0, 1], next_diagonal: 0, ..snap.clone() },
            EngineState { cut: vec![br + 1, br, br], next_diagonal: end, ..snap.clone() },
            EngineState { next_diagonal: snap.next_diagonal + 1, ..snap.clone() },
            EngineState { cut: Vec::new(), next_diagonal: end + 1, ..snap.clone() },
        ];
        for state in bad {
            assert!(!state.matches(&j), "cut {:?} at {}", state.cut, state.next_diagonal);
            for workers in [1usize, 2] {
                let mut obs = OrderFree::default();
                let opts = Launch { resume: Some(state.clone()), ..Launch::default() };
                let pool = WorkerPool::new(workers);
                let res = launch(&pool, &RegionJob { workers, ..j }, &mut obs, opts);
                assert_eq!(res.err(), Some(ExecError::ForeignCheckpoint), "workers={workers}");
            }
        }
    }
}
