//! Lane-striped, auto-vectorizable `i16` tile kernel.
//!
//! The scalar kernel in [`crate::kernel`] updates one `i32` cell at a time.
//! This module is the CPU analogue of the paper's internal-diagonal kernel,
//! organised like Farrar's striped SIMD layout (the scheme SSW uses): the
//! tile's rows are cut into [`LANES`] contiguous chunks and lane `l` of a
//! vector owns one row of chunk `l`, so vector `s` holds rows
//! `{l * seg + s}` for a band of `seg * LANES` rows. Columns of the tile
//! are streamed one at a time; all per-column state lives in fixed-size
//! `[i16; LANES]` arrays combined with saturating arithmetic and
//! `min`/`max` only — the exact shape LLVM's auto-vectorizer turns into
//! `psubsw` / `paddsw` / `pmaxsw` packed ops on any x86-64 baseline
//! target, with no nightly `std::simd` and no `unsafe`.
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
//!    [`eligible`]) makes `F - g_ext` dominate `H - g_first` whenever `H`
//!    was itself raised to `F`.
//! 3. **Finalize** — `H = max(H, F)`, the next column's
//!    `E = max(E - g_ext, H - g_first)`, overflow trackers, and the
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
//! borders) and carried as saturating `i16`. Every finalized `H` feeds a
//! running lane-wise maximum and every finalized `E`/`F` a running
//! minimum; if either ever leaves the safe window `[i16::MIN + 4·P_MAX,
//! i16::MAX - 4·P_MAX]`, the tile *overflowed*: the kernel returns `None`
//! without touching the `i32` buses and the dispatcher re-runs the whole
//! tile on the scalar kernel. Inside the window no saturating op can clip
//! (each recurrence moves a checked value by at most `2·P_MAX`), so the
//! `i16` arithmetic is an exact shifted image of the `i32` recurrence and
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
//! The kernel covers the leading `height - height % LANES` rows over the
//! full tile width; the dispatcher finishes the remaining bottom sliver
//! (at most `LANES - 1` rows) with the scalar kernel, stitched through
//! the updated horizontal bus exactly like a vertically split tile pair.

use crate::kernel::{CellHE, CellHF, Cuts, Tile};
use crate::striped8::{LANES8, V8};
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring, NEG_INF};

/// Vector width: 16 `i16` lanes = two 128-bit vectors on baseline x86-64,
/// one 256-bit vector with AVX2.
pub const LANES: usize = 16;

/// Largest scoring-parameter magnitude the striped kernel accepts. One
/// recurrence step moves a value by at most `2 * P_MAX`, which sizes the
/// saturation margin below.
pub const P_MAX: Score = 1024;

/// Rail margin: no intermediate of a chain rooted at an in-window value
/// can reach `i16::MIN`/`i16::MAX`, so saturating ops behave exactly.
const MARGIN: i32 = 4 * P_MAX;
const WIN_LO: i32 = i16::MIN as i32 + MARGIN;
const WIN_HI: i32 = i16::MAX as i32 - MARGIN;

/// Sentinel for unreachable partial-`F` lanes: pinned at the saturation
/// rail, below the window, so it loses every `max` against real values.
const RAIL: i16 = i16::MIN;

/// Rows per band: bounds the striped working set (four state arrays plus
/// the profile) to the L1/L2 cache while columns stream across the band.
/// Must be a multiple of [`LANES`].
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

/// One striped vector: lane `l` holds a row of chunk `l`.
pub(crate) type V = [i16; LANES];

/// Can `compute_striped_columns` handle this tile shape and scoring?
///
/// The dispatcher in [`crate::kernel::compute`] consults this before
/// attempting the striped path; ineligible tiles go straight to the scalar
/// kernel (`KernelPath::Scalar`). `gap_first >= gap_ext` is required for
/// the lazy-F early exit to be exact (see the module docs).
pub fn eligible(height: usize, width: usize, scoring: &Scoring) -> bool {
    let fits = |v: Score| (-P_MAX..=P_MAX).contains(&v);
    height >= LANES
        && width >= LANES
        && fits(scoring.match_score)
        && fits(scoring.mismatch_score)
        && fits(scoring.gap_first)
        && fits(scoring.gap_ext)
        && scoring.gap_first >= scoring.gap_ext
}

/// Result of the striped portion of a tile: the first `rows` rows
/// (`rows` is the largest multiple of [`LANES`] ≤ the tile height) over
/// the full width. The dispatcher finishes the `height % LANES` bottom
/// sliver on the scalar kernel.
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
fn lane_shift(v: V, insert: i16) -> V {
    let mut out = [insert; LANES];
    out[1..].copy_from_slice(&v[..LANES - 1]);
    out
}

/// The cross-chunk lazy-F carry: what flows into lane `l`, row 0 from
/// lane `l - 1`'s last row, given that row's stored `F` and partial `H`.
/// Lane 0 receives nothing (rail).
#[inline(always)]
fn lane_carry(fl: V, hl: V, ge16: i16, gf16: i16) -> V {
    let fl_sh = lane_shift(fl, RAIL);
    let hl_sh = lane_shift(hl, RAIL);
    let mut carry = [RAIL; LANES];
    for l in 0..LANES {
        let hf = hl_sh[l].max(fl_sh[l]);
        carry[l] = fl_sh[l].saturating_sub(ge16).max(hf.saturating_sub(gf16));
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
pub(crate) fn first_row_at<T: Copy + PartialEq, const N: usize>(col: &[[T; N]], v: T) -> usize {
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
pub(crate) struct CutTaps<'a, T> {
    at: Vec<(usize, usize)>,
    h: &'a mut [T],
    f: &'a mut [T],
}

impl<'a, T: Copy> CutTaps<'a, T> {
    /// The cuts among `rows` (tile-relative, ascending) that fall in the
    /// internal band of `seg` segments covering rows `base..base + band_h`,
    /// over `h`/`f`, the scratch rows of every striped cut of the tile.
    pub fn new(
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

    /// True when no cut falls in this internal band.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Copy column `j`'s finalized `H`/`F` at every cut of the band.
    #[inline(always)]
    pub fn tap<const N: usize>(
        &mut self,
        j: usize,
        width: usize,
        hstore: &[[T; N]],
        fcur: &[[T; N]],
    ) {
        for (k, &(s, l)) in self.at.iter().enumerate() {
            self.h[k * width + j] = hstore[s][l];
            self.f[k * width + j] = fcur[s][l];
        }
    }
}

/// Commit the narrow cut rows of a striped tile's first `h.len() / width`
/// cuts: rebase them to `i32` exactly like the buses.
pub(crate) fn commit_cut_rows<T: Copy + Into<Score>>(
    out: &mut [CellHF],
    h: &[T],
    f: &[T],
    bias: Score,
) {
    for ((o, &h), &f) in out.iter_mut().zip(h).zip(f) {
        *o = CellHF { h: bias + h.into(), f: bias + f.into() };
    }
}

/// Run the striped kernel over the leading `height - height % LANES` rows.
///
/// On success the affected bus segments, and the cut rows above row
/// `rows`, are overwritten exactly as the scalar kernel would have
/// (bit-identical), and the remaining sliver is the caller's job. On
/// overflow returns `None` with `top`/`left`/`cuts` untouched, so the
/// caller can re-run the scalar kernel on pristine borders.
// Indexed `for s in 0..seg` / `for l in 0..LANES` loops over plain slices
// are the shape LLVM reliably turns into packed i16 ops here; the
// iterator forms clippy prefers have been observed to scalarize the lane
// loops (cmov chains instead of pmaxsw), so keep the index style.
#[allow(clippy::needless_range_loop)]
pub(crate) fn compute_striped_columns<const LOCAL: bool, const WATCH: bool>(
    tile: &Tile<'_>,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
    cuts: &mut Cuts<'_>,
) -> Option<StripedColumns> {
    let Tile { a: a_tile, b: b_tile, row_offset, col_offset, scoring, watch, corner, .. } = *tile;
    let height = a_tile.len();
    let width = b_tile.len();
    let rows = height - height % LANES;
    debug_assert!(rows >= LANES && width >= LANES);
    debug_assert!(top.len() >= width && left.len() == height);

    // Rebase everything to the largest finite border H: upward drift within
    // a tile is bounded by min(height, width) * match, downward drift by the
    // gap run across the tile, and both must stay inside the i16 window.
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
    // Local mode clamps H at absolute zero, which sits at `-bias` in
    // rebased space; once the borders carry scores past the window, 0 and
    // the border values no longer fit one i16 range together — genuine
    // narrow-score overflow, handled by the scalar fallback.
    let zero_rel = -bias64;
    if LOCAL && !(WIN_LO as i64..=WIN_HI as i64).contains(&zero_rel) {
        return None;
    }
    let zero16 = if LOCAL { zero_rel as i16 } else { 0 };
    let (gf, ge) = (scoring.gap_first, scoring.gap_ext);

    let rel_h = |v: Score| -> Option<i16> {
        let r = v as i64 - bias64;
        if (WIN_LO as i64..=WIN_HI as i64).contains(&r) {
            Some(r as i16)
        } else {
            None
        }
    };
    // Gap-state borders may be unreachable; raise them to the highest value
    // that still produces the same `max(G - ge, H - gf)` on the first
    // computed cell. The raised value sits within 2*P_MAX of its (checked)
    // H, so it is representable; values above the window are real overflow.
    // The first computed cell derives `tight - ge` from this border (the
    // tightening makes it dominate `H - gf` there) and that value is
    // min-tracked, so a border whose derived gap state already starts
    // below the window would be guaranteed to fail the final overflow
    // check — reject it up front so the tile goes straight to the scalar
    // kernel instead of computing the whole striped tile and discarding it.
    let rel_gap = |g: Score, h16: i16| -> Option<i16> {
        let tight = (g as i64 - bias64).max(h16 as i64 - (gf - ge) as i64);
        if tight > WIN_HI as i64 || tight - (ge as i64) < WIN_LO as i64 {
            None
        } else {
            Some(tight as i16)
        }
    };

    let mut th = vec![0i16; width];
    let mut tf = vec![0i16; width];
    for j in 0..width {
        let h16 = rel_h(top[j].h)?;
        th[j] = h16;
        tf[j] = rel_gap(top[j].f, h16)?;
    }
    let mut lh = vec![0i16; rows];
    let mut le = vec![0i16; rows];
    for i in 0..rows {
        let h16 = rel_h(left[i].h)?;
        lh[i] = h16;
        le[i] = rel_gap(left[i].e, h16)?;
    }
    let corner16 = rel_h(corner)?;
    let rem_corner = left[rows - 1].h;

    let gf16 = gf as i16;
    let ge16 = ge as i16;
    // A watched score outside the window can never equal an in-window H;
    // i16::MIN is below WIN_LO, so it cannot match in a committed tile
    // either (sub-window values force an overflow return).
    let watch16: i16 = match watch {
        Some(wv) => {
            let r = wv as i64 - bias64;
            if (WIN_LO as i64..=WIN_HI as i64).contains(&r) {
                r as i16
            } else {
                i16::MIN
            }
        }
        None => i16::MIN,
    };

    let mut mn = [i16::MAX; LANES];
    let mut mx = [i16::MIN; LANES];
    let mut best: Option<(Score, usize, usize)> = None;
    // Local-best gate: a column is scanned for an endpoint only when its
    // maximum reaches this (rebased) score — `best`'s score once one
    // exists, else the smallest positive H. Equal scores are scanned too,
    // since a tie can still win on better_endpoint's anti-diagonal order.
    let mut gate = zero16 + 1;
    let mut watch_hit: Option<(usize, usize)> = None;

    // Cuts in the striped rows; the scalar sliver reports the rest.
    let ncut = cuts.rows.partition_point(|&c| c < rows);
    let mut cut_h = vec![0i16; ncut * width];
    let mut cut_f = vec![0i16; ncut * width];

    let mut band_corner = corner16;
    let mut base = 0usize;
    while base < rows {
        let band_h = (rows - base).min(BAND);
        let seg = band_h / LANES;
        let a_band = &a_tile[base..base + band_h];
        let mut taps = CutTaps::new(cuts.rows, (base, band_h, seg), width, &mut cut_h, &mut cut_f);

        // Striped query profile, from the engine-owned cache:
        // prof[k*seg + s][l] = subst(a_band[l*seg + s], c) for slot[c] == k.
        let (slot, prof) = cache.profile16(a_band, b_tile, scoring);

        // Band state, striped from the vertical-bus scratch. E is
        // pre-advanced one column (E at column 0 is a real cell value, so
        // it is min-tracked here); H loads are the previous column's H.
        let mut hload: Vec<V> = vec![[0; LANES]; seg];
        let mut hstore: Vec<V> = vec![[0; LANES]; seg];
        let mut ecur: Vec<V> = vec![[0; LANES]; seg];
        let mut fcur: Vec<V> = vec![[RAIL; LANES]; seg];
        for s in 0..seg {
            for l in 0..LANES {
                let r = base + l * seg + s;
                let h = lh[r];
                hload[s][l] = h;
                let e0 = (le[r] as i32 - ge).max(h as i32 - gf);
                ecur[s][l] = e0 as i16;
                mn[l] = mn[l].min(e0 as i16);
            }
        }

        let mut wj_: Vec<V> = vec![[-1; LANES]; if WATCH { seg } else { 0 }];

        let jchunk = if WATCH { JCHUNK } else { width };
        // Lane-0 diagonal seed: the *pre-update* top-border H of the
        // previous column. Must be carried across chunk boundaries — by
        // the time a chunk ends, `th` already holds this band's bottom
        // row, so it cannot be re-read from the bus.
        let mut prev_top = band_corner;
        let mut cbase = 0usize;
        while cbase < width {
            let clen = (width - cbase).min(jchunk);
            if WATCH {
                wj_.iter_mut().for_each(|v| *v = [-1; LANES]);
            }
            for jc in 0..clen {
                let j = cbase + jc;
                let k = slot[b_tile[j] as usize] as usize;
                let pr = &prof[k * seg..(k + 1) * seg];
                let cur_top = th[j];
                // Band-top F seed for lane 0 (row `base`); the window plus
                // MARGIN keeps this saturating form exact.
                let f0 = tf[j].saturating_sub(ge16).max(th[j].saturating_sub(gf16));

                // Pass 1: H with lane-chunk-partial F; store the partial
                // F *used* at each segment position.
                let mut v_f = [RAIL; LANES];
                v_f[0] = f0;
                let mut v_diag = lane_shift(hload[seg - 1], prev_top);
                for s in 0..seg {
                    let p = pr[s];
                    let e = ecur[s];
                    let mut h = [0i16; LANES];
                    for l in 0..LANES {
                        let mut x = v_diag[l].saturating_add(p[l]).max(e[l]).max(v_f[l]);
                        if LOCAL {
                            x = x.max(zero16);
                        }
                        h[l] = x;
                    }
                    v_diag = hload[s];
                    hstore[s] = h;
                    fcur[s] = v_f;
                    let mut f = [0i16; LANES];
                    for l in 0..LANES {
                        f[l] = v_f[l].saturating_sub(ge16).max(h[l].saturating_sub(gf16));
                    }
                    v_f = f;
                }

                // Pass 2: lazy-F across lane-chunk boundaries. The first
                // sweep always runs in full — pass 1 leaves rail lanes in
                // every stored F vector and the carry beats a rail — so it
                // is unconditional.
                let mut carry = lane_carry(fcur[seg - 1], hstore[seg - 1], ge16, gf16);
                for s in 0..seg {
                    let f = fcur[s];
                    let mut nf = [0i16; LANES];
                    for l in 0..LANES {
                        nf[l] = f[l].max(carry[l]);
                    }
                    fcur[s] = nf;
                    for l in 0..LANES {
                        carry[l] = nf[l].saturating_sub(ge16);
                    }
                }
                // Fixpoint tail for F chains crossing several chunk
                // boundaries. One vector comparison decides convergence:
                // the partial-F invariant F[s+1] >= F[s] - ge survives
                // every sweep, so a carry that cannot improve row 0
                // cannot improve any later row either.
                loop {
                    let carry0 = lane_carry(fcur[seg - 1], hstore[seg - 1], ge16, gf16);
                    let f0 = fcur[0];
                    let mut any = 0u16;
                    for l in 0..LANES {
                        any |= (carry0[l] > f0[l]) as u16;
                    }
                    if any == 0 {
                        break;
                    }
                    let mut carry = carry0;
                    for s in 0..seg {
                        let f = fcur[s];
                        let mut improves = 0u16;
                        for l in 0..LANES {
                            improves |= (carry[l] > f[l]) as u16;
                        }
                        if improves == 0 {
                            break;
                        }
                        let mut nf = [0i16; LANES];
                        for l in 0..LANES {
                            nf[l] = f[l].max(carry[l]);
                        }
                        fcur[s] = nf;
                        for l in 0..LANES {
                            carry[l] = nf[l].saturating_sub(ge16);
                        }
                    }
                }

                // Pass 3: finalize H, next-column E, trackers.
                let jc16 = jc as i16;
                let last_col = j + 1 == width;
                let mut cmax = [i16::MIN; LANES];
                for s in 0..seg {
                    let f = fcur[s];
                    let hp = hstore[s];
                    let mut h = [0i16; LANES];
                    for l in 0..LANES {
                        h[l] = hp[l].max(f[l]);
                    }
                    hstore[s] = h;
                    if !last_col {
                        let e = ecur[s];
                        let mut en = [0i16; LANES];
                        for l in 0..LANES {
                            en[l] = e[l].saturating_sub(ge16).max(h[l].saturating_sub(gf16));
                        }
                        ecur[s] = en;
                        for l in 0..LANES {
                            mn[l] = mn[l].min(en[l].min(f[l]));
                        }
                    } else {
                        for l in 0..LANES {
                            mn[l] = mn[l].min(f[l]);
                        }
                    }
                    for l in 0..LANES {
                        cmax[l] = cmax[l].max(h[l]);
                    }
                    if WATCH {
                        let wj = &mut wj_[s];
                        for l in 0..LANES {
                            let hit = h[l] == watch16 && wj[l] < 0;
                            wj[l] = if hit { jc16 } else { wj[l] };
                        }
                    }
                }
                for l in 0..LANES {
                    mx[l] = mx[l].max(cmax[l]);
                }
                if LOCAL {
                    let top = cmax.iter().fold(i16::MIN, |m, &x| m.max(x));
                    if top >= gate {
                        let cand = (
                            bias + top as Score,
                            row_offset + base + first_row_at(&hstore, top),
                            col_offset + j,
                        );
                        if best.is_none_or(|b| better_endpoint(cand, b)) {
                            best = Some(cand);
                            gate = top;
                        }
                    }
                }
                taps.tap(j, width, &hstore, &fcur);
                th[j] = hstore[seg - 1][LANES - 1];
                tf[j] = fcur[seg - 1][LANES - 1];
                prev_top = cur_top;
                std::mem::swap(&mut hload, &mut hstore);
            }

            if WATCH {
                for s in 0..seg {
                    for l in 0..LANES {
                        if wj_[s][l] >= 0 {
                            let cand = (
                                row_offset + base + l * seg + s,
                                col_offset + cbase + wj_[s][l] as usize,
                            );
                            if watch_hit.is_none_or(|cur| cand < cur) {
                                watch_hit = Some(cand);
                            }
                        }
                    }
                }
            }
            cbase += clen;
        }

        // The next band's lane-0 diagonal seed is this band's original
        // left-border H at its last row — capture before de-striping.
        let next_corner = lh[base + band_h - 1];
        for s in 0..seg {
            for l in 0..LANES {
                let r = base + l * seg + s;
                lh[r] = hload[s][l];
                le[r] = ecur[s][l];
            }
        }
        band_corner = next_corner;
        base += band_h;
    }

    // Overflow check: any stored value outside the window means some
    // saturating op may have clipped — discard, the dispatcher re-runs the
    // tile on the scalar kernel. (H >= E and H >= F at every cell, so the
    // max only needs H and the min only needs E/F.)
    let mut lo_seen = i16::MAX;
    let mut hi_seen = i16::MIN;
    for l in 0..LANES {
        lo_seen = lo_seen.min(mn[l]);
        hi_seen = hi_seen.max(mx[l]);
    }
    if (lo_seen as i32) < WIN_LO || (hi_seen as i32) > WIN_HI {
        return None;
    }

    // Commit: rebase back to i32 and overwrite the buses exactly as the
    // scalar kernel would have.
    for j in 0..width {
        top[j] = CellHF { h: bias + th[j] as Score, f: bias + tf[j] as Score };
    }
    for i in 0..rows {
        left[i] = CellHE { h: bias + lh[i] as Score, e: bias + le[i] as Score };
    }
    commit_cut_rows(cuts.out, &cut_h, &cut_f, bias);

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

/// One cached query band: the owned `(scoring, band)` pair is the key
/// (compared fieldwise/bytewise, so the entry is self-validating and
/// needs no invalidation protocol), plus the lazily materialized striped
/// profile rows in both lane widths.
struct CacheEntry {
    scoring: Scoring,
    band: Vec<u8>,
    /// Symbol → i16 profile block index `k` (`u16::MAX` = not yet
    /// materialized); block `k` spans `rows16[k*seg..(k+1)*seg]` with
    /// `seg = band.len() / LANES`.
    slot16: [u16; 256],
    rows16: Vec<V>,
    /// Same for the i8×32 profile, with `seg = band.len() / LANES8`.
    slot8: [u16; 256],
    rows8: Vec<V8>,
}

impl CacheEntry {
    fn new(band: &[u8], scoring: &Scoring) -> Self {
        CacheEntry {
            scoring: *scoring,
            band: band.to_vec(),
            slot16: [u16::MAX; 256],
            rows16: Vec::new(),
            slot8: [u16::MAX; 256],
            rows8: Vec::new(),
        }
    }
}

/// Query-profile cache, keyed by the band's query bytes.
///
/// Both striped kernels spend `O(distinct_syms * band_rows)` per band
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
            self.entries.insert(0, CacheEntry::new(band, scoring));
            self.entries.truncate(CACHE_CAP);
        }
    }

    /// The i16 striped profile for `band`: returns `(slot, rows)` with
    /// `rows[slot[c]*seg + s][l] == subst(band[l*seg + s], c)` for every
    /// symbol `c` occurring in `b_tile`, where `seg = band.len() / LANES`.
    pub(crate) fn profile16(
        &mut self,
        band: &[u8],
        b_tile: &[u8],
        scoring: &Scoring,
    ) -> (&[u16; 256], &[V]) {
        debug_assert!(!band.is_empty() && band.len().is_multiple_of(LANES));
        self.touch(band, scoring);
        let e = &mut self.entries[0];
        let seg = e.band.len() / LANES;
        for &c in b_tile {
            if e.slot16[c as usize] == u16::MAX {
                e.slot16[c as usize] = (e.rows16.len() / seg) as u16;
                for s in 0..seg {
                    let mut v = [0i16; LANES];
                    for (l, x) in v.iter_mut().enumerate() {
                        *x = scoring.subst(e.band[l * seg + s], c) as i16;
                    }
                    e.rows16.push(v);
                }
            }
        }
        let e = &self.entries[0];
        (&e.slot16, &e.rows16)
    }

    /// The i8×32 striped profile for `band`; same contract as
    /// [`ProfileCache::profile16`] with `seg = band.len() / LANES8`.
    pub(crate) fn profile8(
        &mut self,
        band: &[u8],
        b_tile: &[u8],
        scoring: &Scoring,
    ) -> (&[u16; 256], &[V8]) {
        debug_assert!(!band.is_empty() && band.len().is_multiple_of(LANES8));
        self.touch(band, scoring);
        let e = &mut self.entries[0];
        let seg = e.band.len() / LANES8;
        for &c in b_tile {
            if e.slot8[c as usize] == u16::MAX {
                e.slot8[c as usize] = (e.rows8.len() / seg) as u16;
                for s in 0..seg {
                    let mut v = [0i8; LANES8];
                    for (l, x) in v.iter_mut().enumerate() {
                        *x = scoring.subst(e.band[l * seg + s], c) as i8;
                    }
                    e.rows8.push(v);
                }
            }
        }
        let e = &self.entries[0];
        (&e.slot8, &e.rows8)
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
                let (slot, rows) = cache.profile16(&band, b_tile, sc);
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

    #[test]
    fn eligibility_gates_shape_and_scoring() {
        let sc = Scoring::paper();
        assert!(eligible(LANES, LANES, &sc));
        assert!(!eligible(LANES - 1, LANES, &sc));
        assert!(!eligible(LANES, LANES - 1, &sc));
        let wide = Scoring { match_score: P_MAX + 1, ..sc };
        assert!(!eligible(LANES, LANES, &wide));
        // Lazy-F exactness needs gap_first >= gap_ext.
        let inverted = Scoring { gap_first: 1, gap_ext: 3, ..sc };
        assert!(!eligible(LANES, LANES, &inverted));
    }
}
