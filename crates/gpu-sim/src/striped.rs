//! Lane-striped, auto-vectorizable tile kernel: one generic kernel, two
//! rungs of the precision ladder.
//!
//! The scalar kernel in [`crate::kernel`] updates one `i32` cell at a time.
//! This module is the CPU analogue of the paper's internal-diagonal kernel,
//! organised like Farrar's striped SIMD layout (the scheme SSW uses): the
//! tile's rows are cut into `N` contiguous chunks and lane `l` of a
//! vector owns one row of chunk `l`, so vector `s` holds rows
//! `{l * seg + s}` for a band of `seg * N` rows. Columns of the tile
//! are streamed one at a time; all per-column state lives in fixed-size
//! `[T; N]` arrays combined with saturating arithmetic and `min`/`max`
//! only — the exact shape LLVM's auto-vectorizer turns into packed ops
//! (`paddsb`/`psubsb`/`pmaxsb` for `i8`, `paddsw`/`psubsw`/`pmaxsw` for
//! `i16`) on any x86-64 baseline target, with no nightly `std::simd` and
//! no `unsafe`.
//!
//! The kernel is written once over a `Lane` element type and its lane
//! count; the ladder's rungs are two instantiations, like SSW's byte and
//! word kernels:
//!
//! * `i8` × 32 lanes, scoring magnitudes ≤ `P8_MAX` = 8:
//!   one `[i8; 32]` array is two 128-bit vectors on baseline x86-64 (one
//!   256-bit vector with AVX2), twice the rows per op of the word rung,
//!   inside the narrow window `[-96, 95]` around the border bias;
//! * `i16` × [`LANES`] = 16 lanes, magnitudes ≤ `P_MAX` = 1024, window
//!   `[i16::MIN + 4096, i16::MAX - 4096]`.
//!
//! The dispatcher in [`crate::kernel`] tries `i8` first and escalates a
//! tile that leaves the window: **i8 → i16 → scalar i32**, each rung
//! bit-identical to the scalar recurrence whenever it commits.
//!
//! # Why striped and not skewed
//!
//! A skewed (anti-diagonal) arrangement needs a one-lane shift of the
//! `E`/`H`/`H_diag` vectors on *every* step; on SSE2 those cross-vector
//! shuffles dominate the cell updates. In the striped layout the only
//! lane crossing is at segment position 0, i.e. **once per column**, and
//! the vertical (`F`) dependency that striping breaks is repaired by the
//! standard lazy-F pass. Each column is three sweeps over the `seg`
//! vectors of a band:
//!
//! 1. **Partial pass** — `H = max(diag + subst, E, F_partial)` where
//!    `F_partial` propagates only inside each lane's row chunk (seeded
//!    from the band-top border in lane 0, rail elsewhere).
//! 2. **Lazy-F fixpoint** — the carry `max(F - g_ext, H - g_first)` from
//!    each chunk's last row is shifted one lane and folded in until no
//!    element improves. Early exit is sound because the partial pass
//!    guarantees `F[s+1] >= F[s] - g_ext`; the `H`-opened term never
//!    needs re-propagation because `gap_first >= gap_ext` (checked by
//!    `eligible`) makes `F - g_ext` dominate `H - g_first` whenever `H`
//!    was itself raised to `F`.
//! 3. **Finalize** — `H = max(H, F)`, the next column's
//!    `E = max(E - g_ext, H - g_first)`, the window check, and the
//!    local-best / watch trackers.
//!
//! # Local-best gate
//!
//! Local mode must report the scalar scan's best endpoint. Instead of a
//! per-cell argmax, pass 3 folds the column's `H` into one max vector;
//! only when that column maximum reaches the best score so far (ties
//! included) is the column searched, and its first row at the maximum is
//! offered to [`better_endpoint`]. That is exact: within one column a
//! lower score never wins and, among equal scores, the smallest row has
//! the earliest anti-diagonal; `better_endpoint` is a total order, so
//! folding column candidates in band order matches the row-major scan.
//!
//! # Query profile
//!
//! Pass 1's substitution term is a per-band *query profile*: for every
//! distinct database symbol, the band's `subst(a[r], c)` scores are
//! precomputed in striped order, so the hot loop does one indexed vector
//! load instead of a per-cell `subst` call. (The scalar kernel uses the
//! row-major [`QueryProfile`] the same way.) Profiles live in the
//! engine-owned [`ProfileCache`], keyed by the band's query bytes, so
//! tiles sharing a band row reuse one build instead of rebuilding per
//! tile — see the cache docs for the keying and invalidation rules.
//!
//! # Narrow-score overflow protocol
//!
//! Scores are rebased to `bias` (the largest finite `H` on the tile's
//! borders) and carried as saturating `T`. Every finalized `E`/`F` feeds
//! a running lane-wise minimum and every column's finalized `H` a lane
//! maximum; the first column where either leaves the rung's safe window
//! `[T::MIN + 4·P, T::MAX - 4·P]` (`P` the rung's parameter bound) means
//! the tile *overflowed*: the kernel returns `None` without touching the
//! `i32` buses, skipping the rest of the tile, and the dispatcher re-runs
//! the whole tile on the next rung. Inside the window no saturating op can
//! clip (each recurrence moves a checked value by at most `2·P`), so the
//! narrow arithmetic is an exact shifted image of the `i32` recurrence and
//! committed tiles are bit-identical to the scalar kernel. Rail-valued
//! partial-`F` lanes are below the window and can only *lose* a `max`
//! against checked values, so they never leak into a committed result:
//! every lane's final `F` is a real chain value and is min-tracked.
//!
//! Unreachable (`NEG_INF`) gap states on the borders are *tightened*
//! before conversion: `F ← max(F, H - (G_first - G_ext))` yields the same
//! `max(F - G_ext, H - G_first)` on the first computed row for every
//! `F` at or below that bound, so the all-`NEG_INF` `F` row produced by
//! [`crate::kernel::local_borders`]/[`crate::kernel::global_borders`] does
//! not force a fallback. Unreachable *`H`* borders (reverse-origin gap
//! seeds) cannot be tightened — those tiles take the scalar path.
//!
//! # Cut rows
//!
//! A *band* (several blocks of one block column computed as one tile, see
//! [`crate::kernel::compute`]) also reports the `H`/`F` row at
//! each inner block boundary. Cut row `r` of the internal band starting at
//! `base` sits in lane `(r - base) / seg` of segment `(r - base) % seg`,
//! so after pass 3 of every column the kernel copies that element of
//! `hstore`/`fcur` into narrow scratch rows (`CutTaps`), and commits them
//! with the tile's bias alongside the buses. The window checks already
//! cover those cells, so a committed cut row is exact.
//!
//! The kernel covers the leading `height - height % N` rows over the
//! full tile width; the dispatcher finishes the remaining bottom sliver
//! (at most `N - 1` rows) with the scalar kernel, stitched through
//! the updated horizontal bus exactly like a vertically split tile pair.

use crate::kernel::{CellHE, CellHF, Cuts, Tile};
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring, NEG_INF};

/// Vector width of the `i16` rung: 16 lanes = two 128-bit vectors on
/// baseline x86-64, one 256-bit vector with AVX2. Also the least tile
/// side any striped rung accepts.
pub const LANES: usize = 16;

/// Vector width of the `i8` rung: 32 lanes, double the rows per op.
pub(crate) const LANES8: usize = 32;

/// Largest scoring-parameter magnitude the `i16` rung accepts.
pub(crate) const P_MAX: Score = 1024;

/// Largest scoring-parameter magnitude the `i8` rung accepts: the paper's
/// DNA scoring (`1 / -3 / 5 / 2`) fits with room to spare, BLOSUM-scale
/// protein matrices do not and start the ladder at `i16`.
pub(crate) const P8_MAX: Score = 8;

/// Rows per band: bounds the striped working set (four state arrays plus
/// the profile) to the L1/L2 cache while columns stream across the band.
/// Must be a multiple of every rung's lane count.
///
/// Unit-test builds shrink this (and [`JCHUNK`]) so small tiles cross
/// several band/chunk boundaries; the production values are exercised by
/// the deterministic boundary test in `tests/properties.rs`.
#[cfg(not(test))]
pub(crate) const BAND: usize = 1024;
#[cfg(test)]
pub(crate) const BAND: usize = 32;

/// Column-chunk width for the i16-indexed watch tracker; it is reduced
/// and reset per chunk so a column index always fits an `i16`. (The
/// local-best tracker is gated per column and needs no chunking.) Test
/// builds shrink it — see [`BAND`].
#[cfg(not(test))]
pub(crate) const JCHUNK: usize = 32_000;
#[cfg(test)]
pub(crate) const JCHUNK: usize = 64;

/// The element type of one ladder rung, striped `N` lanes wide.
///
/// Each type implements it for exactly one `N` (`i8: Lane<32>`,
/// `i16: Lane<16>`), which ties the lane count to the type without
/// `[T; T::LANES]` array lengths.
pub(crate) trait Lane<const N: usize>: Copy + Ord + Into<Score> {
    /// Largest scoring-parameter magnitude the rung accepts. One
    /// recurrence step moves a value by at most `2 * P_MAX`, which sizes
    /// the saturation margin of the window.
    const P_MAX: Score;
    /// The type's lower saturation rail, as a score.
    const MIN: Score;
    /// The type's upper saturation rail, as a score.
    const MAX: Score;
    /// Lowest in-window (rebased) value: no chain rooted at an in-window
    /// value can reach a rail, so saturating ops behave exactly.
    const WIN_LO: Score = Self::MIN + 4 * Self::P_MAX;
    /// Highest in-window (rebased) value.
    const WIN_HI: Score = Self::MAX - 4 * Self::P_MAX;
    /// Sentinel for unreachable partial-`F` lanes: pinned at the
    /// saturation rail, below the window, so it loses every `max`
    /// against real values.
    const RAIL: Self;
    /// `v` narrowed to the lane type; the caller keeps it in range.
    fn narrow(v: Score) -> Self;
    /// Saturating addition.
    fn sat_add(self, rhs: Self) -> Self;
    /// Saturating subtraction.
    fn sat_sub(self, rhs: Self) -> Self;
    /// This rung's striped profile inside a cache entry.
    fn profile(entry: &mut CacheEntry) -> &mut Profile<Self, N>;
    /// `self` as a score.
    #[inline(always)]
    fn wide(self) -> Score {
        self.into()
    }
}

macro_rules! lane {
    ($t:ty, $n:expr, $p_max:expr, $field:ident) => {
        impl Lane<$n> for $t {
            const P_MAX: Score = $p_max;
            const MIN: Score = <$t>::MIN as Score;
            const MAX: Score = <$t>::MAX as Score;
            const RAIL: Self = <$t>::MIN;
            #[inline(always)]
            fn narrow(v: Score) -> Self {
                v as $t
            }
            #[inline(always)]
            fn sat_add(self, rhs: Self) -> Self {
                self.saturating_add(rhs)
            }
            #[inline(always)]
            fn sat_sub(self, rhs: Self) -> Self {
                self.saturating_sub(rhs)
            }
            fn profile(entry: &mut CacheEntry) -> &mut Profile<Self, $n> {
                &mut entry.$field
            }
        }
    };
}
lane!(i8, LANES8, P8_MAX, p8);
lane!(i16, LANES, P_MAX, p16);

/// Can the `T` rung handle this tile shape and scoring?
///
/// The dispatcher in [`crate::kernel::compute`] consults this before
/// attempting a rung; a tile no rung accepts goes straight to the scalar
/// kernel (`KernelPath::Scalar`). `gap_first >= gap_ext` is required for
/// the lazy-F early exit to be exact (see the module docs). The `i8`
/// rung's bounds nest inside the `i16` rung's, so a tile the `i8` rung
/// attempted can always escalate to `i16`.
pub(crate) fn eligible<T: Lane<N>, const N: usize>(
    height: usize,
    width: usize,
    scoring: &Scoring,
) -> bool {
    let fits = |v: Score| (-T::P_MAX..=T::P_MAX).contains(&v);
    height >= N
        && width >= N
        && fits(scoring.match_score)
        && fits(scoring.mismatch_score)
        && fits(scoring.gap_first)
        && fits(scoring.gap_ext)
        && scoring.gap_first >= scoring.gap_ext
}

/// Result of the striped portion of a tile: the first `rows` rows
/// (`rows` is the largest multiple of the lane count ≤ the tile height)
/// over the full width. The dispatcher finishes the bottom sliver on the
/// scalar kernel.
pub(crate) struct StripedColumns {
    /// Rows computed and committed to the buses.
    pub rows: usize,
    /// Best cell of the striped rows (local mode), absolute coords.
    pub best: Option<(Score, usize, usize)>,
    /// First watched-score hit (scan order) in the striped rows.
    pub watch_hit: Option<(usize, usize)>,
    /// `H` at `(rows - 1, width - 1)` — the corner for a block below-right
    /// when the tile has no scalar sliver.
    pub corner_out: Score,
    /// The *original* left-border `H` at row `rows - 1`: the corner the
    /// scalar sliver starting at row `rows` must be seeded with.
    pub rem_corner: Score,
}

#[inline(always)]
fn lane_shift<T: Copy, const N: usize>(v: [T; N], insert: T) -> [T; N] {
    let mut out = [insert; N];
    out[1..].copy_from_slice(&v[..N - 1]);
    out
}

/// The cross-chunk lazy-F carry: what flows into lane `l`, row 0 from
/// lane `l - 1`'s last row, given that row's stored `F` and partial `H`.
/// Lane 0 receives nothing (rail).
#[inline(always)]
fn lane_carry<T: Lane<N>, const N: usize>(fl: [T; N], hl: [T; N], ge: T, gf: T) -> [T; N] {
    let fl_sh = lane_shift(fl, T::RAIL);
    let hl_sh = lane_shift(hl, T::RAIL);
    let mut carry = [T::RAIL; N];
    for l in 0..N {
        let hf = hl_sh[l].max(fl_sh[l]);
        carry[l] = fl_sh[l].sat_sub(ge).max(hf.sat_sub(gf));
    }
    carry
}

/// Row (within the band) of the first cell of a striped column holding
/// `v`: lane `l`, segment `s` is row `l * seg + s`, so the lowest hit lane
/// and then its lowest segment give the smallest row. Within one column
/// that is the cell [`better_endpoint`] prefers among equal scores. The
/// local-best gate calls it only with the column's own maximum, which is
/// always present.
#[allow(clippy::needless_range_loop)] // lane-indexed like the kernel loops
#[inline(always)] // see band_columns
fn first_row_at<T: Copy + PartialEq, const N: usize>(col: &[[T; N]], v: T) -> usize {
    let mut hit = [false; N];
    for x in col {
        for l in 0..N {
            hit[l] |= x[l] == v;
        }
    }
    let l = hit.iter().position(|&b| b).unwrap_or(0);
    l * col.len() + col.iter().position(|x| x[l] == v).unwrap_or(0)
}

/// The cut rows that fall in one internal band: each cut's striped
/// position `(segment, lane)`, and the narrow-score scratch rows (`width`
/// cells per cut) its `H` and `F` are copied into column by column.
struct CutTaps<'a, T> {
    at: Vec<(usize, usize)>,
    h: &'a mut [T],
    f: &'a mut [T],
}

impl<'a, T: Copy> CutTaps<'a, T> {
    /// The cuts among `rows` (tile-relative, ascending) that fall in the
    /// internal band of `seg` segments covering rows `base..base + band_h`,
    /// over `h`/`f`, the scratch rows of every striped cut of the tile.
    fn new(
        rows: &[usize],
        (base, band_h, seg): (usize, usize, usize),
        width: usize,
        h: &'a mut [T],
        f: &'a mut [T],
    ) -> Self {
        let k0 = rows.partition_point(|&c| c < base);
        let k1 = rows.partition_point(|&c| c < base + band_h);
        let at = rows[k0..k1].iter().map(|&r| ((r - base) % seg, (r - base) / seg)).collect();
        CutTaps { at, h: &mut h[k0 * width..k1 * width], f: &mut f[k0 * width..k1 * width] }
    }

    /// Copy column `j`'s finalized `H`/`F` at every cut of the band.
    #[inline(always)]
    fn tap<const N: usize>(&mut self, j: usize, width: usize, hstore: &[[T; N]], fcur: &[[T; N]]) {
        for (k, &(s, l)) in self.at.iter().enumerate() {
            self.h[k * width + j] = hstore[s][l];
            self.f[k * width + j] = fcur[s][l];
        }
    }
}

/// Striped band state, allocated by [`compute_striped_columns`] and lent
/// to the allocation-free [`band_columns`]. `wj` (the watch tracker's
/// first hit column per row, in `i16` so a [`JCHUNK`] index fits) is
/// empty unless WATCH.
struct Band<T, const N: usize> {
    hload: Vec<[T; N]>,
    hstore: Vec<[T; N]>,
    ecur: Vec<[T; N]>,
    fcur: Vec<[T; N]>,
    wj: Vec<[i16; N]>,
}

/// Everything [`band_columns`] reads beyond the striped state and the
/// bus rows.
struct Ctx<'a, T, const N: usize> {
    b_tile: &'a [u8],
    slot: &'a [u16; 256],
    prof: &'a [[T; N]],
    seg: usize,
    /// Absolute DP row of the band's first row.
    row0: usize,
    col_offset: usize,
    bias: Score,
    ge: T,
    gf: T,
    zero: T,
    watch: T,
    band_corner: T,
}

/// The tile-wide trackers the band loop carries from band to band: the
/// lane minimum of every window check, the best cell and the local-best
/// gate, and the first watch hit.
struct Track<T, const N: usize> {
    mn: [T; N],
    best: Option<(Score, usize, usize)>,
    /// The rebased score a column maximum must reach to be searched for
    /// an endpoint — `best`'s score once one exists, else the smallest
    /// positive `H`. Equal scores are searched too, since a tie can still
    /// win on `better_endpoint`'s anti-diagonal order.
    gate: T,
    watch_hit: Option<(usize, usize)>,
}

// hot-loop
//
// Stream every column of one band through the three striped sweeps (see
// the module docs for the pass-by-pass argument). Kept allocation-free
// and wallclock-free — enforced by the `hot-loop` analysis rule — so the
// whole body is straight-line index arithmetic over [T; N] arrays.
//
// Returns `false` as soon as a column leaves the window: the tile will
// be discarded and escalated anyway, so streaming the rest of it would
// be wasted work. Only `th`/`tf` scratch has been written by then; the
// caller's buses are untouched.
//
// The code shape is measured, not incidental (kernel-only A/B rounds
// against the two hand-copied kernels this replaced, 2-CPU AVX-512 host):
// - `mn`, `best` and `gate` live in locals, written back on return, and
//   the window bounds are associated consts: read through `&mut Track`
//   or `&Ctx` fields, the i16 rung ran 0.87-0.95x and local i8 0.97x;
// - the band state is read through `seg`-long local slices: through
//   `st`'s Vecs, whose pointers and lengths every store reloads and
//   bounds-checks, the i16 rung ran 0.81-0.97x;
// - the window is checked per column against the column maximum: an i16
//   rung that accumulated a max and checked it once per band scalarized
//   to 0.37-0.49x;
// - `first_row_at` is inlined: called out of line it spilled the vector
//   registers each time the local-best gate fired (64-row local i8 tiles
//   0.93x);
// - `TAPS` compiles the cut-row copies in only for bands with cuts: even
//   an empty tap loop cost plain 1024-row i8 tiles ~8 %;
// - indexed `for s in 0..seg` / `for l in 0..N` loops over plain slices
//   are the shape LLVM reliably turns into packed ops; the iterator forms
//   clippy prefers have been observed to scalarize the lane loops (cmov
//   chains instead of pmaxsw), so keep the index style.
#[allow(clippy::needless_range_loop)]
fn band_columns<
    T: Lane<N>,
    const N: usize,
    const LOCAL: bool,
    const WATCH: bool,
    const TAPS: bool,
>(
    st: &mut Band<T, N>,
    cx: &Ctx<'_, T, N>,
    th: &mut [T],
    tf: &mut [T],
    track: &mut Track<T, N>,
    taps: &mut CutTaps<'_, T>,
) -> bool {
    let (slot, prof, b_tile) = (cx.slot, cx.prof, cx.b_tile);
    let width = b_tile.len();
    let seg = cx.seg;
    let (ge, gf, zero, watch) = (cx.ge, cx.gf, cx.zero, cx.watch);
    let (mut mn, mut best, mut gate) = (track.mn, track.best, track.gate);
    let Band { hload: hload_v, hstore: hstore_v, ecur, fcur, wj } = st;
    let (mut hload, mut hstore) = (&mut hload_v[..seg], &mut hstore_v[..seg]);
    let (ecur, fcur) = (&mut ecur[..seg], &mut fcur[..seg]);
    let wj = &mut wj[..if WATCH { seg } else { 0 }];
    let jchunk = if WATCH { JCHUNK } else { width };
    // Lane-0 diagonal seed: the *pre-update* top-border H of the previous
    // column. Must be carried across chunk boundaries — by the time a
    // chunk ends, `th` already holds this band's bottom row, so it cannot
    // be re-read from the bus.
    let mut prev_top = cx.band_corner;
    let mut cbase = 0usize;
    while cbase < width {
        let clen = (width - cbase).min(jchunk);
        if WATCH {
            wj.iter_mut().for_each(|v| *v = [-1; N]);
        }
        for jc in 0..clen {
            let j = cbase + jc;
            let k = slot[b_tile[j] as usize] as usize;
            let pr = &prof[k * seg..(k + 1) * seg];
            let cur_top = th[j];
            // Band-top F seed for lane 0 (row `base`); the window plus its
            // margin keeps this saturating form exact.
            let f0 = tf[j].sat_sub(ge).max(th[j].sat_sub(gf));

            // Pass 1: H with lane-chunk-partial F; store the partial F
            // *used* at each segment position.
            let mut v_f = [T::RAIL; N];
            v_f[0] = f0;
            let mut v_diag = lane_shift(hload[seg - 1], prev_top);
            for s in 0..seg {
                let p = pr[s];
                let e = ecur[s];
                let mut h = [T::RAIL; N];
                for l in 0..N {
                    let mut x = v_diag[l].sat_add(p[l]).max(e[l]).max(v_f[l]);
                    if LOCAL {
                        x = x.max(zero);
                    }
                    h[l] = x;
                }
                v_diag = hload[s];
                hstore[s] = h;
                fcur[s] = v_f;
                let mut f = [T::RAIL; N];
                for l in 0..N {
                    f[l] = v_f[l].sat_sub(ge).max(h[l].sat_sub(gf));
                }
                v_f = f;
            }

            // Pass 2: lazy-F across lane-chunk boundaries. The first sweep
            // always runs in full — pass 1 leaves rail lanes in every
            // stored F vector and the carry beats a rail — so it is
            // unconditional.
            let mut carry = lane_carry(fcur[seg - 1], hstore[seg - 1], ge, gf);
            for s in 0..seg {
                let f = fcur[s];
                let mut nf = [T::RAIL; N];
                for l in 0..N {
                    nf[l] = f[l].max(carry[l]);
                }
                fcur[s] = nf;
                for l in 0..N {
                    carry[l] = nf[l].sat_sub(ge);
                }
            }
            // Fixpoint tail for F chains crossing several chunk
            // boundaries. One vector comparison decides convergence: the
            // partial-F invariant F[s+1] >= F[s] - ge survives every
            // sweep, so a carry that cannot improve row 0 cannot improve
            // any later row either.
            loop {
                let carry0 = lane_carry(fcur[seg - 1], hstore[seg - 1], ge, gf);
                let f0 = fcur[0];
                let mut any = 0u16;
                for l in 0..N {
                    any |= (carry0[l] > f0[l]) as u16;
                }
                if any == 0 {
                    break;
                }
                let mut carry = carry0;
                for s in 0..seg {
                    let f = fcur[s];
                    let mut improves = 0u16;
                    for l in 0..N {
                        improves |= (carry[l] > f[l]) as u16;
                    }
                    if improves == 0 {
                        break;
                    }
                    let mut nf = [T::RAIL; N];
                    for l in 0..N {
                        nf[l] = f[l].max(carry[l]);
                    }
                    fcur[s] = nf;
                    for l in 0..N {
                        carry[l] = nf[l].sat_sub(ge);
                    }
                }
            }

            // Pass 3: finalize H, next-column E, trackers.
            let jc16 = jc as i16;
            let last_col = j + 1 == width;
            let mut cmax = [T::RAIL; N];
            for s in 0..seg {
                let f = fcur[s];
                let hp = hstore[s];
                let mut h = [T::RAIL; N];
                for l in 0..N {
                    h[l] = hp[l].max(f[l]);
                }
                hstore[s] = h;
                if !last_col {
                    let e = ecur[s];
                    let mut en = [T::RAIL; N];
                    for l in 0..N {
                        en[l] = e[l].sat_sub(ge).max(h[l].sat_sub(gf));
                    }
                    ecur[s] = en;
                    for l in 0..N {
                        mn[l] = mn[l].min(en[l].min(f[l]));
                    }
                } else {
                    for l in 0..N {
                        mn[l] = mn[l].min(f[l]);
                    }
                }
                for l in 0..N {
                    cmax[l] = cmax[l].max(h[l]);
                }
                if WATCH {
                    let w = &mut wj[s];
                    for l in 0..N {
                        let hit = h[l] == watch && w[l] < 0;
                        w[l] = if hit { jc16 } else { w[l] };
                    }
                }
            }
            // Window check, every column: H >= E and H >= F at every
            // cell, so the max only needs H and the min only needs E/F.
            let mut out = false;
            for l in 0..N {
                out |= mn[l].wide() < T::WIN_LO || cmax[l].wide() > T::WIN_HI;
            }
            if out {
                return false;
            }
            if LOCAL {
                let top = cmax.iter().fold(T::RAIL, |m, &x| m.max(x));
                if top >= gate {
                    let cand = (
                        cx.bias + top.wide(),
                        cx.row0 + first_row_at(hstore, top),
                        cx.col_offset + j,
                    );
                    if best.is_none_or(|b| better_endpoint(cand, b)) {
                        best = Some(cand);
                        gate = top;
                    }
                }
            }
            if TAPS {
                taps.tap(j, width, hstore, fcur);
            }
            th[j] = hstore[seg - 1][N - 1];
            tf[j] = fcur[seg - 1][N - 1];
            prev_top = cur_top;
            std::mem::swap(&mut hload, &mut hstore);
        }

        // Per-chunk watch reduction: the first hit in scan order is the
        // lexicographic (row, col) minimum.
        if WATCH {
            for s in 0..seg {
                for l in 0..N {
                    if wj[s][l] >= 0 {
                        let cand =
                            (cx.row0 + l * seg + s, cx.col_offset + cbase + wj[s][l] as usize);
                        if track.watch_hit.is_none_or(|cur| cand < cur) {
                            track.watch_hit = Some(cand);
                        }
                    }
                }
            }
        }
        cbase += clen;
    }
    // The last column's H is wherever the final swap left it: hand it
    // back in `hload`.
    if width % 2 == 1 {
        std::mem::swap(hload_v, hstore_v);
    }
    (track.mn, track.best, track.gate) = (mn, best, gate);
    true
}

/// Run the `T` rung over the leading `height - height % N` rows.
///
/// On success the affected bus segments, and the cut rows above row
/// `rows`, are overwritten exactly as the scalar kernel would have
/// (bit-identical), and the remaining sliver is the caller's job. On
/// overflow returns `None` with `top`/`left`/`cuts` untouched, so the
/// caller can re-run the next rung on pristine borders.
#[allow(clippy::needless_range_loop)] // indexed loops vectorize; see band_columns
pub(crate) fn compute_striped_columns<
    T: Lane<N>,
    const N: usize,
    const LOCAL: bool,
    const WATCH: bool,
>(
    tile: &Tile<'_>,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
    cuts: &mut Cuts<'_>,
) -> Option<StripedColumns> {
    let Tile { a: a_tile, b: b_tile, row_offset, col_offset, scoring, watch, corner, .. } = *tile;
    let height = a_tile.len();
    let width = b_tile.len();
    let rows = height - height % N;
    debug_assert!(rows >= N && width >= N);
    debug_assert!(top.len() >= width && left.len() == height);

    // Rebase everything to the largest finite border H: upward drift within
    // a tile is bounded by min(height, width) * match, downward drift by the
    // gap run across the tile, and both must stay inside the window.
    let mut bias = Score::MIN;
    for v in std::iter::once(corner)
        .chain(top[..width].iter().map(|c| c.h))
        .chain(left[..rows].iter().map(|c| c.h))
    {
        if v > NEG_INF / 2 {
            bias = bias.max(v);
        }
    }
    if bias == Score::MIN || bias.unsigned_abs() > (i32::MAX / 2) as u32 {
        return None;
    }
    let bias64 = bias as i64;
    let window = T::WIN_LO as i64..=T::WIN_HI as i64;
    // Local mode clamps H at absolute zero, which sits at `-bias` in
    // rebased space; once the borders carry scores past the window, 0 and
    // the border values no longer fit one lane range together — genuine
    // narrow-score overflow, handled by the next rung.
    let zero_rel = -bias64;
    if LOCAL && !window.contains(&zero_rel) {
        return None;
    }
    let zero = T::narrow(if LOCAL { zero_rel as Score } else { 0 });
    let (gf, ge) = (scoring.gap_first, scoring.gap_ext);

    let rel_h = |v: Score| -> Option<T> {
        let r = v as i64 - bias64;
        window.contains(&r).then(|| T::narrow(r as Score))
    };
    // Gap-state borders may be unreachable; raise them to the highest value
    // that still produces the same `max(G - ge, H - gf)` on the first
    // computed cell. The raised value sits within 2*P_MAX of its (checked)
    // H, so it is representable; values above the window are real overflow.
    // The first computed cell derives `tight - ge` from this border (the
    // tightening makes it dominate `H - gf` there) and that value is
    // min-tracked, so a border whose derived gap state already starts
    // below the window would be guaranteed to fail the window check —
    // reject it up front so the tile goes straight to the next rung.
    let rel_gap = |g: Score, h: T| -> Option<T> {
        let tight = (g as i64 - bias64).max(h.wide() as i64 - (gf - ge) as i64);
        let fits = tight <= T::WIN_HI as i64 && tight - ge as i64 >= T::WIN_LO as i64;
        fits.then(|| T::narrow(tight as Score))
    };

    let mut th = vec![T::RAIL; width];
    let mut tf = vec![T::RAIL; width];
    for j in 0..width {
        th[j] = rel_h(top[j].h)?;
        tf[j] = rel_gap(top[j].f, th[j])?;
    }
    let mut lh = vec![T::RAIL; rows];
    let mut le = vec![T::RAIL; rows];
    for i in 0..rows {
        lh[i] = rel_h(left[i].h)?;
        le[i] = rel_gap(left[i].e, lh[i])?;
    }
    let mut band_corner = rel_h(corner)?;
    let rem_corner = left[rows - 1].h;

    // A watched score outside the window can never equal an in-window H;
    // the rail is below the window, so it cannot match in a committed
    // tile either (sub-window values force an overflow return).
    let watch = watch.and_then(rel_h).unwrap_or(T::RAIL);
    let mut track = Track {
        mn: [T::narrow(T::MAX); N],
        best: None,
        gate: T::narrow(zero.wide() + 1),
        watch_hit: None,
    };

    // Cuts in the striped rows; the scalar sliver reports the rest.
    let ncut = cuts.rows.partition_point(|&c| c < rows);
    let mut cut_h = vec![T::RAIL; ncut * width];
    let mut cut_f = vec![T::RAIL; ncut * width];

    let mut base = 0usize;
    while base < rows {
        let band_h = (rows - base).min(BAND);
        let seg = band_h / N;
        let a_band = &a_tile[base..base + band_h];
        let mut taps = CutTaps::new(cuts.rows, (base, band_h, seg), width, &mut cut_h, &mut cut_f);

        // Striped query profile, from the engine-owned cache:
        // prof[k*seg + s][l] = subst(a_band[l*seg + s], c) for slot[c] == k.
        let (slot, prof) = cache.profile::<T, N>(a_band, b_tile, scoring);

        // Band state, striped from the vertical-bus scratch. E is
        // pre-advanced one column (E at column 0 is a real cell value, so
        // it is min-tracked here); H loads are the previous column's H.
        let mut st = Band {
            hload: vec![[T::RAIL; N]; seg],
            hstore: vec![[T::RAIL; N]; seg],
            ecur: vec![[T::RAIL; N]; seg],
            fcur: vec![[T::RAIL; N]; seg],
            wj: vec![[-1; N]; if WATCH { seg } else { 0 }],
        };
        for s in 0..seg {
            for l in 0..N {
                let r = base + l * seg + s;
                st.hload[s][l] = lh[r];
                let e0 = T::narrow((le[r].wide() - ge).max(lh[r].wide() - gf));
                st.ecur[s][l] = e0;
                track.mn[l] = track.mn[l].min(e0);
            }
        }

        let cx = Ctx {
            b_tile,
            slot,
            prof,
            seg,
            row0: row_offset + base,
            col_offset,
            bias,
            ge: T::narrow(ge),
            gf: T::narrow(gf),
            zero,
            watch,
            band_corner,
        };
        let columns = if taps.at.is_empty() {
            band_columns::<T, N, LOCAL, WATCH, false>
        } else {
            band_columns::<T, N, LOCAL, WATCH, true>
        };
        if !columns(&mut st, &cx, &mut th, &mut tf, &mut track, &mut taps) {
            return None;
        }

        // The next band's lane-0 diagonal seed is this band's original
        // left-border H at its last row — capture before de-striping.
        band_corner = lh[base + band_h - 1];
        for s in 0..seg {
            for l in 0..N {
                let r = base + l * seg + s;
                lh[r] = st.hload[s][l];
                le[r] = st.ecur[s][l];
            }
        }
        base += band_h;
    }

    // Commit: rebase back to i32 and overwrite the buses and cut rows
    // exactly as the scalar kernel would have.
    let abs = |v: T| bias + v.wide();
    for j in 0..width {
        top[j] = CellHF { h: abs(th[j]), f: abs(tf[j]) };
    }
    for i in 0..rows {
        left[i] = CellHE { h: abs(lh[i]), e: abs(le[i]) };
    }
    for ((o, &h), &f) in cuts.out.iter_mut().zip(&cut_h).zip(&cut_f) {
        *o = CellHF { h: abs(h), f: abs(f) };
    }

    let Track { best, watch_hit, .. } = track;
    Some(StripedColumns { rows, best, watch_hit, corner_out: top[width - 1].h, rem_corner })
}

/// Per-symbol substitution score rows, built once per tile and shared by
/// every row of the strip with the same query symbol.
///
/// The scalar kernel replaces its per-cell `scoring.subst(ai, bj)` call
/// with one indexed load from the profile row. The striped kernel builds
/// the same tables in striped order per band (see the module docs).
pub struct QueryProfile {
    /// Symbol → row slot; `u16::MAX` marks symbols absent from the tile.
    slot: [u16; 256],
    rows: Vec<Score>,
    width: usize,
}

impl QueryProfile {
    /// Precompute one score row per distinct symbol of `a_tile` against
    /// `b_tile`. Cost `O(distinct * width)`, amortized over the tile's
    /// rows.
    pub fn build(a_tile: &[u8], b_tile: &[u8], scoring: &Scoring) -> Self {
        let mut slot = [u16::MAX; 256];
        let mut rows: Vec<Score> = Vec::new();
        let mut count = 0u16;
        for &sym in a_tile {
            if slot[sym as usize] == u16::MAX {
                slot[sym as usize] = count;
                count += 1;
                rows.extend(b_tile.iter().map(|&bj| scoring.subst(sym, bj)));
            }
        }
        QueryProfile { slot, rows, width: b_tile.len() }
    }

    /// The score row for `sym`: `row(sym)[j] == scoring.subst(sym, b[j])`.
    ///
    /// `sym` must occur in the `a_tile` the profile was built from.
    #[inline(always)]
    pub fn row(&self, sym: u8) -> &[Score] {
        let s = self.slot[sym as usize] as usize;
        &self.rows[s * self.width..(s + 1) * self.width]
    }
}

/// Entries the profile cache keeps before evicting least-recently-used
/// bands. Tile schedules touch at most a handful of distinct query bands
/// before returning to one (a strip runner and the serial banded walk
/// sweep one batch's band across their columns; the diagonal loop
/// interleaves the bands of one diagonal), so a small cap
/// bounds memory while still catching every reuse pattern we schedule.
const CACHE_CAP: usize = 8;

/// One rung's striped profile rows in a cache entry: symbol → block
/// index `k` (`u16::MAX` = not yet materialized); block `k` spans
/// `rows[k*seg..(k+1)*seg]` with `seg = band.len() / N`.
pub(crate) struct Profile<T, const N: usize> {
    slot: [u16; 256],
    rows: Vec<[T; N]>,
}

impl<T, const N: usize> Default for Profile<T, N> {
    fn default() -> Self {
        Profile { slot: [u16::MAX; 256], rows: Vec::new() }
    }
}

/// One cached query band: the owned `(scoring, band)` pair is the key
/// (compared fieldwise/bytewise, so the entry is self-validating and
/// needs no invalidation protocol), plus the lazily materialized striped
/// profile rows of both rungs.
pub(crate) struct CacheEntry {
    scoring: Scoring,
    band: Vec<u8>,
    p8: Profile<i8, LANES8>,
    p16: Profile<i16, LANES>,
}

/// Query-profile cache, keyed by the band's query bytes.
///
/// Both striped rungs spend `O(distinct_syms * band_rows)` per band
/// rebuilding the striped substitution profile before streaming columns.
/// Tiles of the same band row (strip runners sweep one batch across their
/// columns; stage-2/3 re-runs revisit stage-1 bands) share identical
/// query bands, so the
/// engine owns one of these caches and threads it through
/// [`crate::kernel::compute`]: a hit skips the rebuild and
/// reuses the resident rows. Entries hold *both* the i8 and i16 variants,
/// each materialized lazily per database symbol on first use, so an
/// i8→i16 escalation of the same tile pays the band lookup once per
/// width, not a rebuild of what the other width already derived.
///
/// A lookup is a **hit** when the `(scoring, band)` entry already exists
/// (even if this call materializes rows for new database symbols) and a
/// **miss** when the entry had to be created. [`Scoring`] is part of the
/// key — scores are baked into the rows, so entries built under different
/// scorings are distinct, and interleaved tenants with different scorings
/// coexist instead of ping-ponging the cache to 100 % misses.
#[derive(Default)]
pub struct ProfileCache {
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

impl ProfileCache {
    /// An empty cache. Cheap: nothing is allocated until the first lookup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Band lookups that found a resident entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Band lookups that had to build a fresh entry.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Find-or-create the entry for `band`, leaving it at index 0
    /// (move-to-front LRU), and count the lookup.
    fn touch(&mut self, band: &[u8], scoring: &Scoring) {
        if let Some(i) = self.entries.iter().position(|e| e.scoring == *scoring && e.band == band) {
            self.hits += 1;
            if i != 0 {
                let e = self.entries.remove(i);
                self.entries.insert(0, e);
            }
        } else {
            self.misses += 1;
            let entry = CacheEntry {
                scoring: *scoring,
                band: band.to_vec(),
                p8: Profile::default(),
                p16: Profile::default(),
            };
            self.entries.insert(0, entry);
            self.entries.truncate(CACHE_CAP);
        }
    }

    /// The `T` rung's striped profile for `band`: returns `(slot, rows)`
    /// with `rows[slot[c]*seg + s][l] == subst(band[l*seg + s], c)` for
    /// every symbol `c` occurring in `b_tile`, where `seg = band.len() / N`.
    pub(crate) fn profile<T: Lane<N>, const N: usize>(
        &mut self,
        band: &[u8],
        b_tile: &[u8],
        scoring: &Scoring,
    ) -> (&[u16; 256], &[[T; N]]) {
        debug_assert!(!band.is_empty() && band.len().is_multiple_of(N));
        self.touch(band, scoring);
        let seg = band.len() / N;
        let p = T::profile(&mut self.entries[0]);
        for &c in b_tile {
            if p.slot[c as usize] == u16::MAX {
                p.slot[c as usize] = (p.rows.len() / seg) as u16;
                for s in 0..seg {
                    let mut v = [T::RAIL; N];
                    for (l, x) in v.iter_mut().enumerate() {
                        *x = T::narrow(scoring.subst(band[l * seg + s], c));
                    }
                    p.rows.push(v);
                }
            }
        }
        (&p.slot, &p.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rows_match_subst() {
        let sc = Scoring::paper();
        let a = b"ACGTACGTNN";
        let b = b"TTGACGTAC";
        let p = QueryProfile::build(a, b, &sc);
        for &ai in a.iter() {
            let row = p.row(ai);
            assert_eq!(row.len(), b.len());
            for (j, &bj) in b.iter().enumerate() {
                assert_eq!(row[j], sc.subst(ai, bj));
            }
        }
    }

    #[test]
    fn interleaved_scorings_share_the_cache_without_thrash() {
        // Two tenants with different scorings alternate lookups of the
        // same band: after each tenant's first (miss) lookup, every
        // subsequent lookup must hit, and each must get rows built from
        // its *own* scoring (no cross-tenant contamination).
        let sc_a = Scoring::paper();
        let sc_b = Scoring { match_score: sc_a.match_score + 1, ..sc_a };
        let band: Vec<u8> = (0..LANES).map(|i| b"ACGT"[i % 4]).collect();
        let b_tile = b"ACGT";
        let mut cache = ProfileCache::new();
        for round in 0..4 {
            for sc in [&sc_a, &sc_b] {
                let seg = band.len() / LANES;
                let (slot, rows) = cache.profile::<i16, LANES>(&band, b_tile, sc);
                for &c in b_tile.iter() {
                    let k = slot[c as usize] as usize;
                    for s in 0..seg {
                        for (l, &x) in rows[k * seg + s].iter().enumerate() {
                            assert_eq!(x, sc.subst(band[l * seg + s], c) as i16);
                        }
                    }
                }
                let _ = round;
            }
        }
        assert_eq!(cache.misses(), 2, "one build per (scoring, band)");
        assert_eq!(cache.hits(), 6, "every interleaved revisit must hit");
    }

    fn check_eligibility_gates<T: Lane<N>, const N: usize>() {
        let sc = Scoring::paper();
        let eligible = eligible::<T, N>;
        assert!(eligible(N, N, &sc));
        assert!(!eligible(N - 1, N, &sc));
        assert!(!eligible(N, N - 1, &sc));
        // The paper scoring fits both rungs; a wider parameter does not.
        let wide = Scoring { match_score: T::P_MAX + 1, ..sc };
        assert!(!eligible(N, N, &wide));
        // Lazy-F exactness needs gap_first >= gap_ext.
        let inverted = Scoring { gap_first: 1, gap_ext: 3, ..sc };
        assert!(!eligible(N, N, &inverted));
    }

    #[test]
    fn eligibility_gates_shape_and_scoring() {
        check_eligibility_gates::<i16, LANES>();
    }

    #[test]
    fn eligibility8_gates_shape_and_scoring() {
        check_eligibility_gates::<i8, LANES8>();
    }

    #[test]
    fn eligible8_is_subset_of_eligible16() {
        // The ladder's escalation step relies on this: any tile the i8
        // rung attempted can be retried on the i16 rung. Both rungs share
        // the shape and gap-order tests, so it comes down to the lane
        // counts, the parameter bounds and the windows nesting, all known
        // at compile time.
        const {
            assert!(LANES8 >= LANES);
            assert!(<i8 as Lane<LANES8>>::P_MAX <= <i16 as Lane<LANES>>::P_MAX);
            assert!(<i8 as Lane<LANES8>>::WIN_LO >= <i16 as Lane<LANES>>::WIN_LO);
            assert!(<i8 as Lane<LANES8>>::WIN_HI <= <i16 as Lane<LANES>>::WIN_HI);
        }
        assert_eq!((<i8 as Lane<LANES8>>::WIN_LO, <i8 as Lane<LANES8>>::WIN_HI), (-96, 95));
        let sc = Scoring::paper();
        for (h, w) in [(LANES8, LANES8), (100, 200), (32, 5000)] {
            if eligible::<i8, LANES8>(h, w, &sc) {
                assert!(eligible::<i16, LANES>(h, w, &sc));
            }
        }
    }
}
