//! The per-block tile kernel.
//!
//! A block computes a `height x width` tile of the Gotoh DP given its
//! borders: the *horizontal bus* segment above it (`H`/`F` of the previous
//! row), the *vertical bus* segment to its left (`H`/`E` of the previous
//! column) and the diagonal corner value. It overwrites both segments with
//! its own last row / last column — exactly the bus hand-off of the paper
//! (Section III-C).

use crate::striped::{self, ProfileCache, QueryProfile, StripedColumns, LANES, LANES8};
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring, NEG_INF};
use sw_core::transcript::EdgeState;

/// Horizontal-bus cell: `H` and `F` of one column at the frontier row.
/// (`F` is the vertical-gap state — the value a block below needs; this is
/// also the pair stored to disk for special rows.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellHF {
    /// `H` value.
    pub h: Score,
    /// `F` value (vertical gap state).
    pub f: Score,
}

impl CellHF {
    /// An unreachable cell.
    pub const UNREACHABLE: CellHF = CellHF { h: NEG_INF, f: NEG_INF };
    /// The local recurrence's floor, `H = 0` with no gap open: a local
    /// region's border, and what a pruned block writes.
    pub const FLOOR: CellHF = CellHF { h: 0, f: NEG_INF };
}

/// Vertical-bus cell: `H` and `E` of one row at the frontier column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellHE {
    /// `H` value.
    pub h: Score,
    /// `E` value (horizontal gap state).
    pub e: Score,
}

impl CellHE {
    /// An unreachable cell.
    pub const UNREACHABLE: CellHE = CellHE { h: NEG_INF, e: NEG_INF };
    /// The local recurrence's floor, `H = 0` with no gap open.
    pub const FLOOR: CellHE = CellHE { h: 0, e: NEG_INF };
}

/// DP state seeded at the top-left corner of a global-mode region.
///
/// The pipeline launches the engine in two flavours: *forward* regions
/// (Stage 3) start from a crosspoint going down-right, *reverse* regions
/// (Stage 2) are reversed problems whose origin is the crosspoint the path
/// must end in. The two differ in gap-open accounting — see
/// `sw_core::linear::RowDp::{new, new_reverse}` for the rules these
/// constructors mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalOrigin {
    /// `H` at the origin.
    pub h0: Score,
    /// `E` at the origin (horizontal-gap state).
    pub e0: Score,
    /// `F` at the origin (vertical-gap state).
    pub f0: Score,
}

impl GlobalOrigin {
    /// Forward-region origin for a partition starting in `start`:
    /// `H = 0`, and the matching gap state is seeded to `0` so extending
    /// the incoming run charges no second opening.
    pub fn forward(start: EdgeState) -> Self {
        GlobalOrigin {
            h0: 0,
            e0: if start == EdgeState::GapS0 { 0 } else { NEG_INF },
            f0: if start == EdgeState::GapS1 { 0 } else { NEG_INF },
        }
    }

    /// Reverse-region origin for a problem whose *original* orientation
    /// must end in `end`: gap ends seed `-G_open` (the opening is charged
    /// inside the region under forward accounting) and forbid `H`.
    pub fn reverse(end: EdgeState, scoring: &Scoring) -> Self {
        match end {
            EdgeState::Diagonal => GlobalOrigin { h0: 0, e0: NEG_INF, f0: NEG_INF },
            EdgeState::GapS0 => GlobalOrigin { h0: NEG_INF, e0: -scoring.gap_open(), f0: NEG_INF },
            EdgeState::GapS1 => GlobalOrigin { h0: NEG_INF, e0: NEG_INF, f0: -scoring.gap_open() },
        }
    }
}

/// Recurrence flavour of an engine launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Smith-Waterman local: `H` clamped at 0, zero borders, the engine
    /// tracks the maximum and its position (Stage 1).
    Local,
    /// Global recurrence from the region's top-left corner (Stages 2-3).
    Global {
        /// Origin seeding.
        origin: GlobalOrigin,
    },
}

impl Mode {
    /// Global mode with a plain forward origin.
    pub fn global(start: EdgeState) -> Self {
        Mode::Global { origin: GlobalOrigin::forward(start) }
    }

    /// Global mode for a reversed problem ending in `end`.
    pub fn global_reverse(end: EdgeState, scoring: &Scoring) -> Self {
        Mode::Global { origin: GlobalOrigin::reverse(end, scoring) }
    }

    /// True for [`Mode::Local`].
    pub fn is_local(&self) -> bool {
        matches!(self, Mode::Local)
    }
}

/// Which rung of the precision ladder computed a tile. Tracked per tile
/// so the engine can report how much work ran vectorized at which width
/// and how often the overflow protocol escalated (`align --stats`,
/// metrics, the `--trace` schema, MCUPS benches).
///
/// Deliberately **not** `#[non_exhaustive]`: every `match` on a ladder
/// outcome (path counting in the engines, labeling in the benches) must
/// be forced by the compiler to take an explicit stance when a rung is
/// added — a downstream wildcard silently lumping a new variant into the
/// wrong counter is exactly the miscounting this audit exists to
/// prevent. Matches that genuinely do not care (e.g. "anything
/// non-scalar") say so with a deliberate `_` arm and a comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// 32-lane saturating-`i8` rung committed the tile (plus a scalar
    /// sliver for the `height % 32` remainder rows).
    Striped8,
    /// The `i8` attempt left its safe window; the tile was escalated to
    /// and committed by the `i16` rung (results identical).
    Striped8Fallback16,
    /// 16-lane saturating-`i16` rung (plus a scalar sliver for the
    /// `height % 16` remainder rows). The `i8` rung was not attempted:
    /// the tile shape or scoring is outside the `i8` rung's bounds, or the
    /// caller asked for the i16 path directly ([`Rung::I16`]).
    Striped16,
    /// Scalar `i32` kernel chosen up front — the tile was shorter than
    /// [`MIN_LADDER_ROWS`], or too small or the scoring too wide for any
    /// striped rung (narrower than [`striped::LANES`] or parameters past
    /// the `i16` rung's bound).
    Scalar,
    /// Every striped attempt left its safe window; the tile was
    /// transparently re-run on the scalar kernel (results identical).
    StripedFallback,
    /// No kernel ran: the wavefront engine proved that no path through the
    /// tile can reach the best score and wrote the local floor
    /// ([`CellHF::FLOOR`]) to its borders instead (stage-1 cone pruning).
    Pruned,
}

impl KernelPath {
    /// Stable snake_case label for benches and trace records.
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Striped8 => "striped8",
            KernelPath::Striped8Fallback16 => "striped8_fb16",
            KernelPath::Striped16 => "striped16",
            KernelPath::Scalar => "scalar",
            KernelPath::StripedFallback => "fallback",
            KernelPath::Pruned => "pruned",
        }
    }

    /// Vector lanes of the kernel that committed the tile's striped rows
    /// (`1` for the scalar paths, `0` for a pruned tile).
    pub fn lanes(self) -> usize {
        match self {
            KernelPath::Striped8 => LANES8,
            KernelPath::Striped8Fallback16 | KernelPath::Striped16 => LANES,
            KernelPath::Scalar | KernelPath::StripedFallback => 1,
            KernelPath::Pruned => 0,
        }
    }
}

/// Per-path tile counters, threaded from every engine (serial/pooled
/// wavefront, strip scheduler, multi-device split) through the pipeline
/// stages into the run-level stats (`PipelineStats` in `cudalign`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Tiles committed by the i8×32 kernel.
    pub striped8: u64,
    /// Tiles that overflowed i8 and committed on the i16 kernel.
    pub striped8_fb16: u64,
    /// Tiles that ran the i16 kernel first (i8 rung not attempted).
    pub striped16: u64,
    /// Tiles that overflowed every striped window and re-ran scalar.
    pub fallback: u64,
    /// Tiles committed on the scalar kernel up front (shorter than
    /// [`MIN_LADDER_ROWS`], or no striped rung eligible).
    pub scalar: u64,
    /// Tiles no kernel computed ([`KernelPath::Pruned`]).
    pub pruned: u64,
}

impl PathCounts {
    /// Count one tile outcome. Exhaustive on purpose (see [`KernelPath`]):
    /// a new ladder rung must decide its counter here before the engines
    /// compile again.
    pub fn count(&mut self, path: KernelPath) {
        match path {
            KernelPath::Striped8 => self.striped8 += 1,
            KernelPath::Striped8Fallback16 => self.striped8_fb16 += 1,
            KernelPath::Striped16 => self.striped16 += 1,
            KernelPath::StripedFallback => self.fallback += 1,
            KernelPath::Scalar => self.scalar += 1,
            KernelPath::Pruned => self.pruned += 1,
        }
    }

    /// Fold another engine's counters into this one.
    pub fn add(&mut self, other: &PathCounts) {
        self.striped8 += other.striped8;
        self.striped8_fb16 += other.striped8_fb16;
        self.striped16 += other.striped16;
        self.fallback += other.fallback;
        self.scalar += other.scalar;
        self.pruned += other.pruned;
    }

    /// Tiles committed by *some* striped kernel (any width).
    pub fn striped_total(&self) -> u64 {
        self.striped8 + self.striped8_fb16 + self.striped16
    }
}

/// Tiles shorter than this many rows skip the precision ladder and commit
/// on the scalar kernel as [`KernelPath::Scalar`] (the rule applies at
/// [`Rung::Auto`] only; the explicit rungs ignore it). On a 2-CPU
/// AVX-512 host (`mcups` `smalltile` cases, DESIGN.md §9) the ladder
/// cost 1.5-3.6x the scalar kernel on
/// 16x16 tiles and up to 4.5x on 32x32 ones, in both modes; at 64 rows
/// the two are level overall, and taller tiles favour the striped rungs.
pub const MIN_LADDER_ROWS: usize = 64;

/// Result of one tile computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOutcome {
    /// `H` at the tile's bottom-right cell (the corner for the block at
    /// `(r + 1, c + 1)`).
    pub corner_out: Score,
    /// Best cell in the tile (local mode only): `(score, abs_row, abs_col)`.
    pub best: Option<(Score, usize, usize)>,
    /// First cell (scan order) whose `H` equals the watched score, if a
    /// watch was set: `(abs_row, abs_col)`. Stage 2 uses this to detect
    /// the alignment's start point (`H_reverse == goal`).
    pub watch_hit: Option<(usize, usize)>,
    /// Cells updated.
    pub cells: u64,
    /// Execution path that produced this tile.
    pub path: KernelPath,
}

/// One tile's inputs, everything but the borders it overwrites.
#[derive(Debug, Clone, Copy)]
pub struct Tile<'a> {
    /// The characters of the tile's rows.
    pub a: &'a [u8],
    /// The characters of the tile's columns.
    pub b: &'a [u8],
    /// Absolute (1-based) DP row of the tile's first row, used only for
    /// max tracking and watch hits.
    pub row_offset: usize,
    /// Absolute (1-based) DP column of the tile's first column.
    pub col_offset: usize,
    /// Substitution and gap scores.
    pub scoring: &'a Scoring,
    /// Smith-Waterman local recurrence: `H` clamped at 0 and the best cell
    /// tracked. Global otherwise.
    pub local: bool,
    /// Score whose first cell in scan order is reported as
    /// [`TileOutcome::watch_hit`].
    pub watch: Option<Score>,
    /// `H` at `(row_offset - 1, col_offset - 1)`.
    pub corner: Score,
}

impl<'a> Tile<'a> {
    /// A global, unwatched `a` x `b` tile at DP position `(1, 1)` with
    /// corner 0; set other fields with struct-update syntax.
    pub fn new(a: &'a [u8], b: &'a [u8], scoring: &'a Scoring) -> Self {
        Tile { a, b, row_offset: 1, col_offset: 1, scoring, local: false, watch: None, corner: 0 }
    }
}

/// Where a [`compute`] call enters the precision ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The engines' rule: tiles shorter than [`MIN_LADDER_ROWS`] commit on
    /// the scalar kernel, taller ones climb the full ladder.
    Auto,
    /// The full ladder (`i8`, then `i16`, then the scalar fallback)
    /// whatever the tile's height. Kept for the equivalence tests, which
    /// drive the striped rungs on short tiles.
    I8,
    /// The ladder from the `i16` rung (the i8 kernel is not attempted),
    /// whatever the tile's height; commits as [`KernelPath::Striped16`]
    /// or falls back. The MCUPS benches measure the i16 path with it.
    I16,
    /// The scalar `i32` reference kernel regardless of eligibility: the
    /// striped rungs' overflow fallback, and the path the equivalence
    /// tests and MCUPS benches compare the others against.
    Scalar,
}

/// Compute one tile, or a *band*: several blocks of one block column
/// stacked into one tile and run as one ladder call, so the striped rungs'
/// per-column costs (lane shifts, lazy-F carries, window and best
/// reductions) are paid once per band height instead of once per block.
///
/// * `top` — horizontal-bus segment (`tile.b.len()` entries) holding row
///   `row_offset - 1`; overwritten with the tile's last row,
/// * `left` — vertical-bus segment (`tile.a.len()` entries) holding
///   column `col_offset - 1`; overwritten with the tile's last column,
/// * `cache` — query profiles, reused across tiles of the same band row,
/// * `cuts` — the tile-relative last rows of every block but the last,
///   ascending (empty for a plain tile); `cut_rows` (`cuts.len() *
///   tile.b.len()` cells) receives the `H`/`F` row at each cut, i.e. the
///   bottom border each of those blocks would have left on `top`.
///
/// Zero-dimension contract: a zero-height tile leaves `top` untouched and
/// `corner_out` is the top border's last `H` (or `corner` itself if the
/// tile is also zero-width); a zero-width tile likewise leaves `left`
/// untouched and `corner_out` is the left border's last `H`. Degenerate
/// tiles count zero cells and never produce `best`/`watch_hit`.
///
/// `rung` picks where the tile enters the ladder ([`Rung`]). Eligible
/// tiles attempt the 32-lane `i8` rung of the striped kernel
/// ([`striped`]) first, escalating on window overflow to its 16-lane
/// `i16` rung and finally to the scalar `i32` loop; results
/// are bit-identical on every rung, and [`TileOutcome::path`] records
/// where the tile committed. The rung is chosen for a band as a whole (a
/// band that overflows `i8` re-runs whole on `i16`, then on the scalar
/// kernel); its outcome's `best`/`watch_hit` cover the whole band, and
/// its cut rows are bit-identical to stacking one call per block.
pub fn compute(
    tile: &Tile<'_>,
    rung: Rung,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
    cuts: &[usize],
    cut_rows: &mut [CellHF],
) -> TileOutcome {
    debug_assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(cuts.last().is_none_or(|&c| c < tile.a.len()));
    debug_assert_eq!(cut_rows.len(), cuts.len() * tile.b.len());
    let cuts = &mut Cuts { rows: cuts, out: cut_rows };
    // Monomorphize on mode and watch — the CPU analogue of the paper's
    // phase division, where the common case runs "an optimized kernel"
    // without bookkeeping branches. Watching is rare (Stage 2 only) and
    // max-tracking applies only to local mode, so the global no-watch
    // kernel carries neither check.
    match (tile.local, tile.watch.is_some()) {
        (false, false) => dispatch_tile::<false, false>(tile, rung, top, left, cache, cuts),
        (false, true) => dispatch_tile::<false, true>(tile, rung, top, left, cache, cuts),
        (true, false) => dispatch_tile::<true, false>(tile, rung, top, left, cache, cuts),
        (true, true) => dispatch_tile::<true, true>(tile, rung, top, left, cache, cuts),
    }
}

/// Plain-tile shorthand: [`compute`] on [`Rung::Auto`] without cuts.
#[allow(clippy::too_many_arguments)] // a stable signature that external probes call
pub fn compute_tile_cached(
    a: &[u8],
    b: &[u8],
    row_offset: usize,
    col_offset: usize,
    scoring: &Scoring,
    local: bool,
    watch: Option<Score>,
    corner: Score,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
) -> TileOutcome {
    let tile = Tile { a, b, row_offset, col_offset, scoring, local, watch, corner };
    compute(&tile, Rung::Auto, top, left, cache, &[], &mut [])
}

/// Inner block boundaries of a band ([`compute`]) and the rows they are
/// reported into.
pub(crate) struct Cuts<'c> {
    /// Tile-relative last row of every block but the last, ascending.
    pub rows: &'c [usize],
    /// `rows.len() * width` cells: the `H`/`F` row at each cut.
    pub out: &'c mut [CellHF],
}

/// Route a tile down the precision ladder from `rung`: attempt the
/// striped kernel's `i8` instantiation first (unless the rung starts
/// lower or the tile is outside the `i8` rung's bounds), escalate to its
/// `i16` instantiation on window overflow — always possible, since i8
/// eligibility is a strict subset of i16 eligibility — and finally re-run
/// the whole tile on the scalar `i32` kernel. Whichever striped rung
/// commits, the `height % lanes` bottom sliver is stitched with the
/// scalar kernel by [`finish_striped`]. A failed rung leaves the buses
/// and `cuts` untouched.
fn dispatch_tile<const LOCAL: bool, const WATCH: bool>(
    tile: &Tile<'_>,
    rung: Rung,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
    cuts: &mut Cuts<'_>,
) -> TileOutcome {
    let (height, width, scoring) = (tile.a.len(), tile.b.len(), tile.scoring);
    // Short tiles cannot pay the striped rungs' fixed costs (border
    // conversion, profile lookup, per-column lane shifts over one or two
    // segments): below `MIN_LADDER_ROWS` the scalar reference commits.
    if rung == Rung::Scalar || (rung == Rung::Auto && height < MIN_LADDER_ROWS) {
        return compute_tile_impl::<LOCAL, WATCH>(tile, top, left, cuts, 0);
    }
    let attempted8 = rung != Rung::I16 && striped::eligible::<i8, LANES8>(height, width, scoring);
    if attempted8 {
        if let Some(part) = striped::compute_striped_columns::<i8, LANES8, LOCAL, WATCH>(
            tile, top, left, cache, cuts,
        ) {
            return finish_striped::<LOCAL, WATCH>(
                part,
                KernelPath::Striped8,
                tile,
                top,
                left,
                cuts,
            );
        }
        // i8 window overflow: buses untouched, escalate to the i16 rung.
    }
    let path = if striped::eligible::<i16, LANES>(height, width, scoring) {
        if let Some(part) = striped::compute_striped_columns::<i16, LANES, LOCAL, WATCH>(
            tile, top, left, cache, cuts,
        ) {
            let path =
                if attempted8 { KernelPath::Striped8Fallback16 } else { KernelPath::Striped16 };
            return finish_striped::<LOCAL, WATCH>(part, path, tile, top, left, cuts);
        }
        // Overflow on every striped rung: buses are untouched, re-run
        // the whole tile scalar.
        KernelPath::StripedFallback
    } else {
        KernelPath::Scalar
    };
    let mut out = compute_tile_impl::<LOCAL, WATCH>(tile, top, left, cuts, 0);
    out.path = path;
    out
}

/// Stitch a committed striped result with its scalar bottom sliver (if
/// the tile height is not a lane multiple): seed with the original
/// left-border H at row `rows - 1` and reuse the (already updated)
/// horizontal bus, exactly like a stitched lower tile. Cuts inside the
/// sliver are reported by the scalar kernel.
fn finish_striped<const LOCAL: bool, const WATCH: bool>(
    part: StripedColumns,
    path: KernelPath,
    tile: &Tile<'_>,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cuts: &mut Cuts<'_>,
) -> TileOutcome {
    let (height, width) = (tile.a.len(), tile.b.len());
    let (corner_out, best, watch_hit) = if part.rows < height {
        let k = cuts.rows.partition_point(|&c| c < part.rows);
        let sliver_cuts = &mut Cuts { rows: &cuts.rows[k..], out: &mut cuts.out[k * width..] };
        let sliver = Tile {
            a: &tile.a[part.rows..],
            row_offset: tile.row_offset + part.rows,
            corner: part.rem_corner,
            ..*tile
        };
        let rem = compute_tile_impl::<LOCAL, WATCH>(
            &sliver,
            top,
            &mut left[part.rows..],
            sliver_cuts,
            part.rows,
        );
        (
            rem.corner_out,
            merge_best(part.best, rem.best),
            merge_watch(part.watch_hit, rem.watch_hit),
        )
    } else {
        (part.corner_out, part.best, part.watch_hit)
    };
    TileOutcome { corner_out, best, watch_hit, cells: (height * width) as u64, path }
}

/// Fold two partial best endpoints with the same total order the scalar
/// scan uses, so the striped + sliver composition stays bit-identical.
fn merge_best(
    a: Option<(Score, usize, usize)>,
    b: Option<(Score, usize, usize)>,
) -> Option<(Score, usize, usize)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if better_endpoint(y, x) { y } else { x }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// First watch hit in scan order = lexicographic `(row, col)` minimum.
fn merge_watch(a: Option<(usize, usize)>, b: Option<(usize, usize)>) -> Option<(usize, usize)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The scalar recurrence. `first_cut_row` is the cut-relative index of
/// the tile's first row (non-zero for a striped tile's bottom sliver):
/// the bus row is copied out after every row at a cut.
fn compute_tile_impl<const LOCAL: bool, const WATCH: bool>(
    tile: &Tile<'_>,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cuts: &mut Cuts<'_>,
    first_cut_row: usize,
) -> TileOutcome {
    let Tile { a: a_tile, b: b_tile, row_offset, col_offset, scoring, watch, corner, .. } = *tile;
    debug_assert_eq!(top.len(), b_tile.len());
    debug_assert_eq!(left.len(), a_tile.len());

    let mut best: Option<(Score, usize, usize)> = None;
    let mut watch_hit: Option<(usize, usize)> = None;
    let watch_score = watch.unwrap_or(Score::MIN);
    let mut prev_left_h = corner;

    // Hoist the substitution lookup out of the inner loop: one score row
    // per distinct query symbol, indexed in lockstep with the bus.
    let profile = QueryProfile::build(a_tile, b_tile, scoring);
    let width = b_tile.len();
    let mut cut = 0usize;

    for (i, &ai) in a_tile.iter().enumerate() {
        let left_cell = left[i];
        let mut diag = prev_left_h;
        let mut h_left = left_cell.h;
        let mut e = left_cell.e;
        let prow = profile.row(ai);

        for (j, (cell, &sc)) in top.iter_mut().zip(prow).enumerate() {
            e = (e - scoring.gap_ext).max(h_left - scoring.gap_first);
            let t = *cell;
            let f = (t.f - scoring.gap_ext).max(t.h - scoring.gap_first);
            let mut h = (diag + sc).max(e).max(f);
            if LOCAL {
                if h < 0 {
                    h = 0;
                }
                if h > 0 {
                    let cand = (h, row_offset + i, col_offset + j);
                    if best.is_none_or(|b| better_endpoint(cand, b)) {
                        best = Some(cand);
                    }
                }
            }
            if WATCH && h == watch_score && watch_hit.is_none() {
                watch_hit = Some((row_offset + i, col_offset + j));
            }
            diag = t.h;
            *cell = CellHF { h, f };
            h_left = h;
        }
        prev_left_h = left_cell.h;
        left[i] = CellHE { h: h_left, e };
        if cuts.rows.get(cut) == Some(&(first_cut_row + i)) {
            cuts.out[cut * width..(cut + 1) * width].copy_from_slice(top);
            cut += 1;
        }
    }

    let corner_out = if b_tile.is_empty() {
        // Zero-width tile: the "last column" is the left border itself
        // (`prev_left_h` equals `corner` when the tile is also zero-height).
        prev_left_h
    } else {
        // Bottom-right H. For a zero-height tile the loop never ran, so
        // this is the untouched top border's last value — the same walk a
        // degenerate block performs along the bus.
        top[b_tile.len() - 1].h
    };

    TileOutcome {
        corner_out,
        best,
        watch_hit,
        cells: (a_tile.len() * b_tile.len()) as u64,
        path: KernelPath::Scalar,
    }
}

/// Border values for a global-mode region: the init row (`H`/`F` per
/// column) and init column (`H`/`E` per row) implied by the origin
/// seeding, matching `sw_core::linear::RowDp`.
pub fn global_borders(
    m: usize,
    n: usize,
    scoring: &Scoring,
    origin: GlobalOrigin,
) -> (Vec<CellHF>, Vec<CellHE>, Score) {
    let mut top = vec![CellHF::UNREACHABLE; n];
    let mut left = vec![CellHE::UNREACHABLE; m];
    let corner = fill_global_borders(&mut top, &mut left, scoring, origin);
    (top, left, corner)
}

/// [`global_borders`] into caller-owned buffers (`top.len()` columns,
/// `left.len()` rows); returns the corner.
pub fn fill_global_borders(
    top: &mut [CellHF],
    left: &mut [CellHE],
    scoring: &Scoring,
    origin: GlobalOrigin,
) -> Score {
    // Row 0: E-run from the origin; F is unreachable along row 0.
    let mut e = origin.e0;
    let mut h_prev = origin.h0;
    for cell in top.iter_mut() {
        e = (e - scoring.gap_ext).max(h_prev - scoring.gap_first);
        h_prev = e;
        *cell = CellHF { h: e, f: NEG_INF };
    }
    // Column 0: F-run from the origin; E is unreachable along column 0.
    let mut f = origin.f0;
    let mut h_prev = origin.h0;
    for cell in left.iter_mut() {
        f = (f - scoring.gap_ext).max(h_prev - scoring.gap_first);
        h_prev = f;
        *cell = CellHE { h: f, e: NEG_INF };
    }
    origin.h0
}

/// Border values for a local-mode region: all zeros.
pub fn local_borders(m: usize, n: usize) -> (Vec<CellHF>, Vec<CellHE>, Score) {
    (vec![CellHF::FLOOR; n], vec![CellHE::FLOOR; m], 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::generate::dna;
    use sw_core::full::{nw_global_typed, sw_local_score};
    use sw_core::linear::forward_vectors;
    use sw_core::transcript::EdgeState as ES;

    const SC: Scoring = Scoring::paper();

    /// [`compute`] with a throwaway cache and no cuts.
    fn run_tile(tile: &Tile, rung: Rung, top: &mut [CellHF], left: &mut [CellHE]) -> TileOutcome {
        compute(tile, rung, top, left, &mut ProfileCache::new(), &[], &mut [])
    }

    /// One tile spanning the whole matrix must reproduce the linear DP.
    #[test]
    fn single_tile_global_equals_rowdp() {
        let a = dna(1, 37);
        let b = dna(2, 23);
        for start in [ES::Diagonal, ES::GapS0, ES::GapS1] {
            let (mut top, mut left, corner) =
                global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(start));
            run_tile(&Tile { corner, ..Tile::new(&a, &b, &SC) }, Rung::I8, &mut top, &mut left);
            let (h, f) = forward_vectors(&a, &b, &SC, start);
            for j in 0..b.len() {
                assert_eq!(top[j].h, h[j + 1], "H mismatch at {j}");
                assert_eq!(top[j].f, f[j + 1], "F mismatch at {j}");
            }
        }
    }

    /// One local tile must find the same best score/endpoint as the
    /// reference scan.
    #[test]
    fn single_tile_local_equals_reference() {
        let a = dna(3, 64);
        let mut b = a.clone();
        b[10] = b'A';
        b[11] = b'C';
        let (mut top, mut left, corner) = local_borders(a.len(), b.len());
        let out = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::Auto,
            &mut top,
            &mut left,
        );
        let (score, end) = sw_local_score(&a, &b, &SC);
        let (s, i, j) = out.best.unwrap();
        assert_eq!(s, score);
        assert_eq!((i, j), end);
    }

    /// 2x2 tiles stitched through buses must agree with the single tile.
    #[test]
    fn stitched_tiles_equal_single_tile() {
        let a = dna(5, 30);
        let b = dna(6, 26);
        let (mi, nj) = (a.len() / 2, b.len() / 2);

        // Reference: single tile.
        let (mut top_ref, mut left_ref, corner) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
        run_tile(&Tile { corner, ..Tile::new(&a, &b, &SC) }, Rung::I8, &mut top_ref, &mut left_ref);

        // Stitched: four tiles with explicit corner bookkeeping.
        let (mut top, mut left, _) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
        let (t0, t1) = top.split_at_mut(nj);
        let (l0, l1) = left.split_at_mut(mi);
        // corners[r][c] = H at the bottom-right of block (r, c); virtual
        // row/col -1 handled explicitly.
        let c00_in = 0; // H(0,0)
        let o00 = run_tile(
            &Tile { corner: c00_in, ..Tile::new(&a[..mi], &b[..nj], &SC) },
            Rung::I8,
            t0,
            l0,
        );
        // block (0,1): corner = H(0, nj) = value the init row had there.
        let (init_top, _, _) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
        let c01_in = init_top[nj - 1].h;
        let o01 = run_tile(
            &Tile { col_offset: nj + 1, corner: c01_in, ..Tile::new(&a[..mi], &b[nj..], &SC) },
            Rung::I8,
            t1,
            l0,
        );
        let _ = o01;
        // block (1,0): corner = H(mi, 0) = init column value at row mi.
        let (_, init_left, _) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
        let c10_in = init_left[mi - 1].h;
        run_tile(
            &Tile { row_offset: mi + 1, corner: c10_in, ..Tile::new(&a[mi..], &b[..nj], &SC) },
            Rung::I8,
            t0,
            l1,
        );
        // block (1,1): corner = bottom-right H of block (0,0).
        run_tile(
            &Tile {
                row_offset: mi + 1,
                col_offset: nj + 1,
                corner: o00.corner_out,
                ..Tile::new(&a[mi..], &b[nj..], &SC)
            },
            Rung::I8,
            t1,
            l1,
        );

        for j in 0..b.len() {
            assert_eq!(top[j], top_ref[j], "bus mismatch at column {j}");
        }
        for i in mi..a.len() {
            assert_eq!(left[i], left_ref[i], "vbus mismatch at row {i}");
        }
    }

    #[test]
    fn empty_tiles_pass_through() {
        let (mut top, mut left, corner) =
            global_borders(0, 5, &SC, GlobalOrigin::forward(ES::Diagonal));
        let out = run_tile(
            &Tile { corner, ..Tile::new(b"", b"ACGTA", &SC) },
            Rung::Auto,
            &mut top,
            &mut left,
        );
        assert_eq!(out.cells, 0);
        // Zero-height: corner walks along the untouched top border.
        assert_eq!(out.corner_out, top[4].h);
        let _ = corner;
        let (mut top2, mut left2, corner2) =
            global_borders(4, 0, &SC, GlobalOrigin::forward(ES::Diagonal));
        let out2 = run_tile(
            &Tile { corner: corner2, ..Tile::new(b"ACGT", b"", &SC) },
            Rung::Auto,
            &mut top2,
            &mut left2,
        );
        assert_eq!(out2.cells, 0);
        // corner_out walks down the left border to the last row.
        assert_eq!(out2.corner_out, left2[3].h);
        let _ = top2;
    }

    /// Big tiles must take the striped path and still agree with the
    /// scalar kernel on every bus cell and outcome field.
    #[test]
    fn striped_path_taken_and_matches_scalar() {
        let a = dna(11, 200);
        let b = dna(12, 171); // 171 = 10 * LANES + 11-column sliver
        for local in [false, true] {
            let (mut top_s, mut left_s, corner) = if local {
                local_borders(a.len(), b.len())
            } else {
                global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal))
            };
            let mut top_v = top_s.clone();
            let mut left_v = left_s.clone();
            let scal = run_tile(
                &Tile { local, corner, ..Tile::new(&a, &b, &SC) },
                Rung::Scalar,
                &mut top_s,
                &mut left_s,
            );
            let vect = run_tile(
                &Tile { local, corner, ..Tile::new(&a, &b, &SC) },
                Rung::Auto,
                &mut top_v,
                &mut left_v,
            );
            // Local borders (all zero) keep the tile inside the i8 window;
            // global borders walk past it with the gap run, so the i8
            // attempt detects overflow up front and escalates to i16.
            let expect = if local { KernelPath::Striped8 } else { KernelPath::Striped8Fallback16 };
            assert_eq!(vect.path, expect, "local={local}");
            assert_eq!(scal.path, KernelPath::Scalar);
            assert_eq!(top_v, top_s, "hbus, local={local}");
            assert_eq!(left_v, left_s, "vbus, local={local}");
            assert_eq!(vect.corner_out, scal.corner_out);
            assert_eq!(vect.best, scal.best);
            assert_eq!(vect.cells, scal.cells);
        }
    }

    /// Regression: the lane-0 diagonal seed (`prev_top`) must be carried
    /// across JCHUNK column-chunk boundaries, not re-read from the
    /// horizontal bus — by the end of a chunk the bus already holds this
    /// band's bottom row, and re-seeding from it fed a wrong diagonal to
    /// the band's top row at every chunk boundary. Unit-test builds
    /// shrink JCHUNK/BAND (see `striped.rs`), so this tile crosses three
    /// chunk boundaries and two band boundaries when watched (only the
    /// watch tracker chunks; the unwatched local run streams the same
    /// width in one pass and crosses the same bands).
    #[test]
    fn chunk_and_band_boundaries_match_scalar() {
        let a = dna(19, 80); // > 2 * BAND(test)
        let b = dna(20, 200); // > 3 * JCHUNK(test)
        for (local, watched) in [(true, false), (false, true), (true, true)] {
            let (top_0, left_0, corner) = if local {
                local_borders(a.len(), b.len())
            } else {
                global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal))
            };
            let watch = if watched {
                let (mut t, mut l) = (top_0.clone(), left_0.clone());
                let probe = run_tile(
                    &Tile { local, corner, ..Tile::new(&a, &b, &SC) },
                    Rung::Scalar,
                    &mut t,
                    &mut l,
                );
                Some(probe.corner_out)
            } else {
                None
            };
            let (mut top_s, mut left_s) = (top_0.clone(), left_0.clone());
            let scal = run_tile(
                &Tile { local, watch, corner, ..Tile::new(&a, &b, &SC) },
                Rung::Scalar,
                &mut top_s,
                &mut left_s,
            );
            let (mut top_v, mut left_v) = (top_0, left_0);
            let vect = run_tile(
                &Tile { local, watch, corner, ..Tile::new(&a, &b, &SC) },
                Rung::Auto,
                &mut top_v,
                &mut left_v,
            );
            let expect = if local { KernelPath::Striped8 } else { KernelPath::Striped8Fallback16 };
            assert_eq!(vect.path, expect, "local={local} watched={watched}");
            assert_eq!(top_v, top_s, "hbus, local={local} watched={watched}");
            assert_eq!(left_v, left_s, "vbus, local={local} watched={watched}");
            assert_eq!(vect.corner_out, scal.corner_out);
            assert_eq!(vect.best, scal.best);
            assert_eq!(vect.watch_hit, scal.watch_hit);
        }
    }

    /// Watch hits must agree across paths, including hits inside the
    /// striped columns and inside the scalar sliver.
    #[test]
    fn striped_watch_matches_scalar() {
        let a = dna(13, 90);
        let b = dna(14, 75);
        let (mut top, mut left, corner) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
        run_tile(&Tile { corner, ..Tile::new(&a, &b, &SC) }, Rung::Auto, &mut top, &mut left);
        // Watch a score that actually occurs: the final corner value.
        let goal = top[b.len() - 1].h;
        for watch in [goal, goal + 1_000_000] {
            let (mut top_s, mut left_s, corner) =
                global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
            let mut top_v = top_s.clone();
            let mut left_v = left_s.clone();
            let scal = run_tile(
                &Tile { watch: Some(watch), corner, ..Tile::new(&a, &b, &SC) },
                Rung::Scalar,
                &mut top_s,
                &mut left_s,
            );
            let vect = run_tile(
                &Tile { watch: Some(watch), corner, ..Tile::new(&a, &b, &SC) },
                Rung::Auto,
                &mut top_v,
                &mut left_v,
            );
            // Global borders overflow the i8 window; the i16 rung commits.
            assert_eq!(vect.path, KernelPath::Striped8Fallback16);
            assert_eq!(vect.watch_hit, scal.watch_hit, "watch={watch}");
            assert_eq!(top_v, top_s);
            assert_eq!(left_v, left_s);
        }
    }

    /// Borders whose scores sit outside the i16 window must trigger the
    /// transparent scalar fallback — identical results, path recorded.
    #[test]
    fn saturating_tile_falls_back_to_scalar() {
        let a = dna(15, 48);
        let b = dna(16, 48);
        let (mut top_s, mut left_s, _) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::forward(ES::Diagonal));
        // A border H far above the rest: rebasing to it pushes every other
        // border value below the safe window.
        top_s[0].h += 100_000;
        let corner = 0;
        let mut top_v = top_s.clone();
        let mut left_v = left_s.clone();
        let scal = run_tile(
            &Tile { corner, ..Tile::new(&a, &b, &SC) },
            Rung::Scalar,
            &mut top_s,
            &mut left_s,
        );
        let vect =
            run_tile(&Tile { corner, ..Tile::new(&a, &b, &SC) }, Rung::I8, &mut top_v, &mut left_v);
        assert_eq!(vect.path, KernelPath::StripedFallback);
        assert_eq!(top_v, top_s);
        assert_eq!(left_v, left_s);
        assert_eq!(vect.corner_out, scal.corner_out);
    }

    /// A reverse-origin region (NEG_INF corner seed) is ineligible for
    /// rebasing at its first block but must still be exact via fallback.
    #[test]
    fn reverse_origin_first_block_falls_back() {
        let a = dna(17, 40);
        let b = dna(18, 40);
        let (mut top_s, mut left_s, corner) =
            global_borders(a.len(), b.len(), &SC, GlobalOrigin::reverse(ES::GapS1, &SC));
        let mut top_v = top_s.clone();
        let mut left_v = left_s.clone();
        run_tile(&Tile { corner, ..Tile::new(&a, &b, &SC) }, Rung::Scalar, &mut top_s, &mut left_s);
        let vect =
            run_tile(&Tile { corner, ..Tile::new(&a, &b, &SC) }, Rung::I8, &mut top_v, &mut left_v);
        assert_eq!(vect.path, KernelPath::StripedFallback);
        assert_eq!(top_v, top_s);
        assert_eq!(left_v, left_s);
    }

    /// The i16-only entry point starts the ladder at the middle rung and
    /// must agree bit-for-bit with the i8-first default.
    #[test]
    fn i16_entry_point_skips_i8_and_matches() {
        let a = dna(21, 100);
        let b = dna(22, 90);
        let (mut top_8, mut left_8, corner) = local_borders(a.len(), b.len());
        let mut top_16 = top_8.clone();
        let mut left_16 = left_8.clone();
        let o8 = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::Auto,
            &mut top_8,
            &mut left_8,
        );
        let o16 = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::I16,
            &mut top_16,
            &mut left_16,
        );
        assert_eq!(o8.path, KernelPath::Striped8);
        assert_eq!(o16.path, KernelPath::Striped16);
        assert_eq!(top_8, top_16);
        assert_eq!(left_8, left_16);
        assert_eq!(o8.best, o16.best);
        assert_eq!(o8.corner_out, o16.corner_out);
    }

    /// Planted near-overflow border: high enough to leave the i8 window
    /// (local zero no longer fits alongside the bias) but comfortably
    /// inside i16 — the tile must take exactly one escalation step and
    /// stay bit-identical to scalar.
    #[test]
    fn forced_i8_to_i16_escalation_matches_scalar() {
        let a = dna(25, 64);
        let b = dna(26, 96);
        let (mut top_s, mut left_s, corner) = local_borders(a.len(), b.len());
        top_s[0].h += 200;
        let mut top_v = top_s.clone();
        let mut left_v = left_s.clone();
        let scal = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::Scalar,
            &mut top_s,
            &mut left_s,
        );
        let vect = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::Auto,
            &mut top_v,
            &mut left_v,
        );
        assert_eq!(vect.path, KernelPath::Striped8Fallback16);
        assert_eq!(top_v, top_s);
        assert_eq!(left_v, left_s);
        assert_eq!(vect.best, scal.best);
        assert_eq!(vect.corner_out, scal.corner_out);
    }

    /// Planted far-overflow border: past the i16 window too, so the tile
    /// must walk the whole ladder (i8 → i16 → scalar) and re-run scalar.
    #[test]
    fn forced_full_escalation_matches_scalar() {
        let a = dna(27, 64);
        let b = dna(28, 96);
        let (mut top_s, mut left_s, corner) = local_borders(a.len(), b.len());
        top_s[0].h += 100_000;
        let mut top_v = top_s.clone();
        let mut left_v = left_s.clone();
        let scal = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::Scalar,
            &mut top_s,
            &mut left_s,
        );
        let vect = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &SC) },
            Rung::Auto,
            &mut top_v,
            &mut left_v,
        );
        assert_eq!(vect.path, KernelPath::StripedFallback);
        assert_eq!(top_v, top_s);
        assert_eq!(left_v, left_s);
        assert_eq!(vect.best, scal.best);
        assert_eq!(vect.corner_out, scal.corner_out);
    }

    /// An engine-owned cache must be hit when a second tile shares the
    /// first tile's band, and the cached run must stay bit-identical.
    #[test]
    fn profile_cache_hits_across_tiles_of_one_band() {
        let a = dna(29, 64);
        let b = dna(30, 128);
        let nj = 64;
        let mut cache = super::ProfileCache::new();
        let (mut top, mut left, corner) = local_borders(a.len(), b.len());
        let (t0, t1) = top.split_at_mut(nj);
        let o0 = compute_tile_cached(
            &a,
            &b[..nj],
            1,
            1,
            &SC,
            true,
            None,
            corner,
            t0,
            &mut left,
            &mut cache,
        );
        // Second tile of the same band row: same query band, new columns.
        let mut left2 = vec![CellHE { h: 0, e: NEG_INF }; a.len()];
        let o1 = compute_tile_cached(
            &a,
            &b[nj..],
            1,
            nj + 1,
            &SC,
            true,
            None,
            0,
            t1,
            &mut left2,
            &mut cache,
        );
        assert_eq!(o0.path, KernelPath::Striped8);
        assert_eq!(o1.path, KernelPath::Striped8);
        // Under cfg(test) BAND = 32, so the 64-row query spans two bands:
        // the first tile builds one cache entry per band, the second hits both.
        assert_eq!(
            cache.misses(),
            a.len().div_ceil(crate::striped::BAND) as u64,
            "first tile builds one entry per band"
        );
        assert!(cache.hits() >= 2, "second tile reuses every band entry");

        // The cached composition must equal the uncached single tiles.
        let (mut top_r, mut left_r, _) = local_borders(a.len(), b.len());
        let (r0, r1) = top_r.split_at_mut(nj);
        run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b[..nj], &SC) },
            Rung::Auto,
            r0,
            &mut left_r,
        );
        let mut left_r2 = vec![CellHE { h: 0, e: NEG_INF }; a.len()];
        run_tile(
            &Tile { col_offset: nj + 1, local: true, ..Tile::new(&a, &b[nj..], &SC) },
            Rung::Auto,
            r1,
            &mut left_r2,
        );
        assert_eq!(t0, r0);
        assert_eq!(t1, r1);
        assert_eq!(left2, left_r2);
    }

    /// Run one local tile on the scalar kernel, the i16-first ladder and
    /// the full ladder from the same borders; every striped run must
    /// match scalar on `best`, both buses and `corner_out`. Returns the
    /// (i16-first, full-ladder) paths.
    fn local_paths_match_scalar(
        a: &[u8],
        b: &[u8],
        top_0: &[CellHF],
        left_0: &[CellHE],
        corner: Score,
        what: &str,
    ) -> (KernelPath, KernelPath) {
        let (mut top_s, mut left_s) = (top_0.to_vec(), left_0.to_vec());
        let scal = run_tile(
            &Tile { local: true, corner, ..Tile::new(a, b, &SC) },
            Rung::Scalar,
            &mut top_s,
            &mut left_s,
        );
        let mut paths = Vec::new();
        for ladder in [false, true] {
            let (mut top_v, mut left_v) = (top_0.to_vec(), left_0.to_vec());
            let rung = if ladder { Rung::Auto } else { Rung::I16 };
            let tile = Tile { local: true, corner, ..Tile::new(a, b, &SC) };
            let vect = run_tile(&tile, rung, &mut top_v, &mut left_v);
            assert_ne!(vect.path, KernelPath::Scalar, "{what}: tile must try a striped rung");
            assert_eq!(vect.best, scal.best, "{what}: best, ladder={ladder}");
            assert_eq!(top_v, top_s, "{what}: hbus, ladder={ladder}");
            assert_eq!(left_v, left_s, "{what}: vbus, ladder={ladder}");
            assert_eq!(vect.corner_out, scal.corner_out, "{what}: corner, ladder={ladder}");
            paths.push(vect.path);
        }
        (paths[0], paths[1])
    }

    /// The per-column local-best gate must pick the scalar scan's endpoint
    /// among many equal maxima. Heights 90 and 120 leave scalar slivers
    /// on both rungs (90 = 2*32 + 26 = 5*16 + 10) and, with the test
    /// BAND = 32 and JCHUNK = 64, every tile crosses band and chunk
    /// boundaries.
    #[test]
    fn local_best_gate_ties_match_scalar() {
        let poly = |c: u8, n: usize| vec![c; n];
        let repeat = |unit: &[u8], n: usize| unit.iter().copied().cycle().take(n).collect();
        let mut cases: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
            // Maximum min(h, w) tied along the whole bottom (sliver) row.
            ("poly-A x poly-A", poly(b'A', 90), poly(b'A', 200)),
            // A short period: equal scores on many diagonals, rows, columns.
            ("tandem ACG x ACGT", repeat(b"ACG", 90), repeat(b"ACGT", 200)),
            // Runs that restart at the same score after every C block.
            ("A12C8 x poly-A", repeat(b"AAAAAAAAAAAACCCCCCCC", 120), poly(b'A', 150)),
        ];
        // Two distinct segments of one length planted on backgrounds that
        // never match (T rows, G columns), so each scores exactly its
        // length and the one streamed later holds the earlier
        // anti-diagonal: across bands (rows 5..25 then 40..60, inside the
        // striped rows of both rungs) and across columns of one band.
        let planted = |len: usize, plants: [(usize, usize); 2]| {
            let (mut a, mut b) = (poly(b'T', 90), poly(b'G', 200));
            for (k, (i, j)) in plants.into_iter().enumerate() {
                let seg = dna(41 + k as u64, len);
                a[i..i + len].copy_from_slice(&seg);
                b[j..j + len].copy_from_slice(&seg);
            }
            (a, b)
        };
        let (a, b) = planted(20, [(5, 100), (40, 30)]);
        cases.push(("equal scores in two bands", a, b));
        let (a, b) = planted(8, [(23, 40), (2, 50)]);
        cases.push(("equal scores in two columns", a, b));
        // A match ending inside the scalar sliver rows (80..90 on i16).
        let (a, mut b) = (dna(44, 90), dna(45, 200));
        b[150..180].copy_from_slice(&a[60..90]);
        cases.push(("maximum in the sliver", a, b));
        for (what, a, b) in &cases {
            let (top, left, corner) = local_borders(a.len(), b.len());
            local_paths_match_scalar(a, b, &top, &left, corner, what);
        }
    }

    /// Early escalation, overflow in the first column: a bias of 92 from
    /// one top-border cell puts local zero at -92 (rebased) while the
    /// other borders sit at 3. A mismatching column then drives F to
    /// zero - gap_first = -97, below the i8 window, in column 0. Scaled by
    /// 204 (gap_first 1020, near P_MAX) with a bias of 137, the same tile
    /// leaves the i16 window in column 0: zero sits at -27948, inside
    /// [-28672, 28671], and F at -28968 below it.
    #[test]
    fn i8_overflow_in_first_column_escalates() {
        let a = vec![b'A'; 96];
        let mut b = vec![b'A'; 96];
        b[0] = b'C';
        let borders = |k: Score, bias: Score| {
            let (mut top, mut left, _) = local_borders(a.len(), b.len());
            top.iter_mut().for_each(|c| c.h = 3 * k);
            left.iter_mut().for_each(|c| c.h = 3 * k);
            top[95].h = bias * k;
            (top, left)
        };
        let (top, left) = borders(1, 92);
        let (p16, ladder) = local_paths_match_scalar(&a, &b, &top, &left, 3, "first column");
        assert_eq!(p16, KernelPath::Striped16);
        assert_eq!(ladder, KernelPath::Striped8Fallback16);
        let tile = Tile { local: true, corner: 3, ..Tile::new(&a, &b, &SC) };
        leaves_window_in_column_0::<i8, LANES8>(&tile, &top, &left);

        let k = 204;
        let scaled = Scoring {
            match_score: SC.match_score * k,
            mismatch_score: SC.mismatch_score * k,
            gap_first: SC.gap_first * k,
            gap_ext: SC.gap_ext * k,
        };
        let (top, left) = borders(k, 137);
        let tile = Tile { local: true, corner: 3 * k, ..Tile::new(&a, &b, &scaled) };
        leaves_window_in_column_0::<i16, LANES>(&tile, &top, &left);
    }

    /// Run one rung alone on a local tile that leaves its window in column
    /// 0: it must stop in band 0 of 3 (test BAND = 32), so only that band's
    /// profile is looked up, and leave the buses untouched.
    fn leaves_window_in_column_0<T: striped::Lane<N>, const N: usize>(
        tile: &Tile,
        top: &[CellHF],
        left: &[CellHE],
    ) {
        let (mut top_v, mut left_v) = (top.to_vec(), left.to_vec());
        let mut cache = ProfileCache::new();
        let part = striped::compute_striped_columns::<T, N, true, false>(
            tile,
            &mut top_v,
            &mut left_v,
            &mut cache,
            &mut Cuts { rows: &[], out: &mut [] },
        );
        assert!(part.is_none(), "the {N}-lane window is left in column 0");
        // The three bands hold the same bytes, so a later band would hit.
        let lookups = (cache.hits(), cache.misses());
        assert_eq!(lookups, (0, 1), "{N} lanes: no band after the first was streamed");
        assert_eq!(top_v, top);
        assert_eq!(left_v, left);
    }

    /// Early escalation, overflow in the last column: poly-A against
    /// poly-A scores min(i, j) + 1, so only the last column of the last
    /// band reaches 96, one past the i8 window.
    #[test]
    fn i8_overflow_in_last_column_escalates() {
        let (a, b) = (vec![b'A'; 96], vec![b'A'; 96]);
        let (top, left, corner) = local_borders(a.len(), b.len());
        let (p16, ladder) = local_paths_match_scalar(&a, &b, &top, &left, corner, "last column");
        assert_eq!(p16, KernelPath::Striped16);
        assert_eq!(ladder, KernelPath::Striped8Fallback16);
        // One column fewer stays inside the window and commits on i8.
        let (mut t, mut l, c) = local_borders(96, 95);
        let o = run_tile(
            &Tile { local: true, corner: c, ..Tile::new(&a, &b[..95], &SC) },
            Rung::Auto,
            &mut t,
            &mut l,
        );
        assert_eq!(o.path, KernelPath::Striped8);
        assert_eq!(o.best, Some((95, 95, 95)));
    }

    /// Run `a` x `b` as one band cut at `cuts` and as one
    /// `compute_tile_cached` call per block from the same borders. Cut
    /// rows, both buses, the last block's corner and the band best against
    /// the per-block merge must be identical. Returns the band's rung.
    fn band_equals_blocks(
        tile: &Tile,
        top_0: &[CellHF],
        left_0: &[CellHE],
        cuts: &[usize],
        what: &str,
    ) -> KernelPath {
        let Tile { a, b, local, corner, .. } = *tile;
        let w = b.len();
        let (mut top_b, mut left_b) = (top_0.to_vec(), left_0.to_vec());
        let mut cut_rows = vec![CellHF::UNREACHABLE; cuts.len() * w];
        let band = compute(
            tile,
            Rung::Auto,
            &mut top_b,
            &mut left_b,
            &mut ProfileCache::new(),
            cuts,
            &mut cut_rows,
        );
        let (mut top_r, mut left_r) = (top_0.to_vec(), left_0.to_vec());
        let mut cache = ProfileCache::new();
        let (mut best, mut corner_out, mut start) = (None, corner, 0);
        for (k, end) in cuts.iter().map(|&c| c + 1).chain([a.len()]).enumerate() {
            let block_corner = if start == 0 { corner } else { left_0[start - 1].h };
            let out = compute_tile_cached(
                &a[start..end],
                b,
                1 + start,
                1,
                &SC,
                local,
                None,
                block_corner,
                &mut top_r,
                &mut left_r[start..end],
                &mut cache,
            );
            best = merge_best(best, out.best);
            corner_out = out.corner_out;
            if k < cuts.len() {
                assert_eq!(&cut_rows[k * w..(k + 1) * w], &top_r[..], "{what}: cut row {k}");
            }
            start = end;
        }
        assert_eq!(top_b, top_r, "{what}: hbus");
        assert_eq!(left_b, left_r, "{what}: vbus");
        assert_eq!(band.corner_out, corner_out, "{what}: corner");
        assert_eq!(band.best, best, "{what}: best");
        assert_eq!(band.cells, (a.len() * w) as u64, "{what}: cells");
        band.path
    }

    /// A single cut at every row of bands 64-300 rows high, in both modes:
    /// with the test BAND = 32 the cuts land on every lane and segment of
    /// several internal bands on both striped rungs, and in the scalar
    /// sliver (100 = 3 * 32 + 4 on i8; 90 = 5 * 16 + 10 on i16).
    #[test]
    fn band_cut_rows_match_blocks_at_every_row() {
        let b = dna(52, 40);
        for height in [64usize, 90, 100, 300] {
            let a = dna(51 + height as u64, height);
            for local in [false, true] {
                let (top, left, corner) = if local {
                    local_borders(height, b.len())
                } else {
                    global_borders(height, b.len(), &SC, GlobalOrigin::forward(ES::Diagonal))
                };
                let tile = Tile { local, corner, ..Tile::new(&a, &b, &SC) };
                for cut in 0..height - 1 {
                    let what = format!("{height} rows, cut {cut}, local={local}");
                    let path = band_equals_blocks(&tile, &top, &left, &[cut], &what);
                    let expect =
                        if local { KernelPath::Striped8 } else { KernelPath::Striped8Fallback16 };
                    assert_eq!(path, expect, "{what}");
                }
                let many: Vec<usize> = (0..height - 1).step_by(7).collect();
                let what = format!("{height} rows, cuts every 7 rows, local={local}");
                band_equals_blocks(&tile, &top, &left, &many, &what);
            }
        }
    }

    /// Planted borders force whole-band escalation: past the i8 window the
    /// band commits on i16, past the i16 window on the scalar kernel, and
    /// either way every cut row is still the per-block one.
    #[test]
    fn band_escalation_keeps_cut_rows() {
        let (a, b) = (dna(53, 150), dna(54, 96));
        for (lift, expect) in
            [(200, KernelPath::Striped8Fallback16), (100_000, KernelPath::StripedFallback)]
        {
            let (mut top, left, corner) = local_borders(a.len(), b.len());
            top[0].h += lift;
            let tile = Tile { local: true, corner, ..Tile::new(&a, &b, &SC) };
            for cuts in [vec![63], vec![31, 95, 127], vec![0, 1, 64, 143, 148]] {
                let what = format!("lift {lift}, cuts {cuts:?}");
                let path = band_equals_blocks(&tile, &top, &left, &cuts, &what);
                assert_eq!(path, expect, "{what}");
            }
        }
    }

    #[test]
    fn global_borders_match_nw_init() {
        let (top, left, _) = global_borders(3, 3, &SC, GlobalOrigin::forward(ES::Diagonal));
        // H(0, j) = -(5 + (j-1)*2)
        assert_eq!(top[0].h, -5);
        assert_eq!(top[1].h, -7);
        assert_eq!(top[2].h, -9);
        assert_eq!(left[0].h, -5);
        assert_eq!(left[2].h, -9);
        // Seeded gap state halves the first step cost.
        let (top_e, _, _) = global_borders(3, 3, &SC, GlobalOrigin::forward(ES::GapS0));
        assert_eq!(top_e[0].h, -2);
        let (_, left_f, _) = global_borders(3, 3, &SC, GlobalOrigin::forward(ES::GapS1));
        assert_eq!(left_f[0].h, -2);
        // Cross-check against the quadratic DP.
        let (s, _) = nw_global_typed(b"", b"AC", &SC, ES::GapS0, ES::Diagonal);
        assert_eq!(s, top_e[1].h);
    }
}
