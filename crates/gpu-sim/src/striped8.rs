//! Lane-striped, auto-vectorizable `i8` tile kernel — the byte-level
//! first rung of the precision ladder.
//!
//! This is the 32-lane sibling of [`crate::striped`]: the same Farrar
//! striped layout, the same three sweeps per column (partial pass, lazy-F
//! fixpoint, finalize), the same bias-rebase narrow-window overflow
//! protocol — but carried in saturating `i8` with [`LANES8`] = 32 lanes
//! per vector, so one `[i8; 32]` array is two 128-bit vectors on baseline
//! x86-64 (one 256-bit vector with AVX2) holding **twice** the rows of
//! the `[i16; 16]` form. Where SSW's byte kernel wins over its word
//! kernel, this path wins over the i16 path: half the vector ops per
//! column for the same band.
//!
//! The price is the window. With [`P8_MAX`] = 8 bounding the scoring
//! parameters, the safe range is `[i8::MIN + 32, i8::MAX - 32]` =
//! `[-96, 95]` — an i8 tile commits only while every `H` stays within
//! ~95 of the border bias and every gap chain within ~96 below it. DNA
//! scoring in *local* mode lives comfortably inside that (random-sequence
//! local scores hover near zero and planted matches rebase against the
//! border bias); *global* borders walk away linearly with the gap
//! penalty and overflow almost immediately, which this kernel detects in
//! the cheap border-conversion scan before any column work. Overflow
//! inside the tile is caught at the first column that leaves the window
//! (not at the end of the tile), and either way the kernel returns
//! `None` with the buses untouched and the dispatcher in
//! [`crate::kernel`] escalates the tile: **i8 → i16 → scalar i32**, each
//! rung bit-identical to the scalar recurrence whenever it commits.
//!
//! Correctness is word-for-word the argument in [`crate::striped`]'s
//! module docs with `MARGIN = 4 * P8_MAX`: each recurrence moves a
//! checked value by at most `2 * P8_MAX`, so in-window results prove no
//! saturating op ever clipped, rail lanes (pinned at `i8::MIN`) can only
//! lose a `max`, and committed tiles are exact shifted images of the
//! `i32` recurrence.
//!
//! # Hot-loop discipline
//!
//! Unlike the i16 kernel, the per-band column streamer here is factored
//! into [`band8_columns`], tagged `// hot-loop` and enforced
//! allocation-free and wallclock-free by the `hot-loop` lint rule in the
//! `analysis` crate: all state (striped vectors, trackers, profile rows)
//! is allocated by the caller and passed in as [`Band8`], so the loop
//! body is pure index arithmetic over fixed `[i8; 32]` arrays — the
//! shape LLVM turns into `paddsb` / `psubsb` / `pmaxsb` packed ops.
//!
//! Query profiles come from the shared [`ProfileCache`] (i8 variant,
//! lazily materialized per database symbol), so tiles of the same band
//! row skip the rebuild entirely.

use crate::kernel::{CellHE, CellHF, Cuts, Tile};
use crate::striped::{
    commit_cut_rows, first_row_at, CutTaps, ProfileCache, StripedColumns, BAND, JCHUNK,
};
use sw_core::full::better_endpoint;
use sw_core::scoring::{Score, Scoring, NEG_INF};

/// Vector width: 32 `i8` lanes = two 128-bit vectors on baseline x86-64,
/// one 256-bit vector with AVX2 — double the rows-per-op of the i16 path.
pub const LANES8: usize = 32;

/// Largest scoring-parameter magnitude the i8 kernel accepts. One
/// recurrence step moves a value by at most `2 * P8_MAX`; the paper's
/// DNA scoring (`1 / -3 / 5 / 2`) fits with room to spare, BLOSUM-scale
/// protein matrices do not and start the ladder at i16.
pub const P8_MAX: Score = 8;

/// Rail margin (see [`crate::striped`]): no chain rooted at an in-window
/// value can reach the `i8` saturation rails.
const MARGIN8: i32 = 4 * P8_MAX;
const WIN8_LO: i32 = i8::MIN as i32 + MARGIN8;
const WIN8_HI: i32 = i8::MAX as i32 - MARGIN8;

/// Sentinel for unreachable partial-`F` lanes, pinned at the saturation
/// rail below the window so it loses every `max` against real values.
const RAIL8: i8 = i8::MIN;

/// One striped vector: lane `l` holds a row of chunk `l`.
pub(crate) type V8 = [i8; LANES8];

/// Per-lane column-index vector of the watch tracker. Column indices
/// within a [`JCHUNK`] chunk exceed `i8` range, so the tracker rides in
/// `i16` (it is bookkeeping, not DP state — the DP stays in `i8`).
type J8 = [i16; LANES8];

/// Can the i8 kernel attempt this tile? A strict subset of
/// [`crate::striped::eligible`] (narrower parameter bound, 32-row
/// minimum), which is what makes the ladder's middle rung always
/// available after an i8 overflow.
pub fn eligible(height: usize, width: usize, scoring: &Scoring) -> bool {
    let fits = |v: Score| (-P8_MAX..=P8_MAX).contains(&v);
    height >= LANES8
        && width >= LANES8
        && fits(scoring.match_score)
        && fits(scoring.mismatch_score)
        && fits(scoring.gap_first)
        && fits(scoring.gap_ext)
        && scoring.gap_first >= scoring.gap_ext
}

#[inline(always)]
fn lane_shift8(v: V8, insert: i8) -> V8 {
    let mut out = [insert; LANES8];
    out[1..].copy_from_slice(&v[..LANES8 - 1]);
    out
}

/// The cross-chunk lazy-F carry (see [`crate::striped`]): what flows into
/// lane `l`, row 0 from lane `l - 1`'s last row. Lane 0 receives rail.
#[inline(always)]
fn lane_carry8(fl: V8, hl: V8, ge8: i8, gf8: i8) -> V8 {
    let fl_sh = lane_shift8(fl, RAIL8);
    let hl_sh = lane_shift8(hl, RAIL8);
    let mut carry = [RAIL8; LANES8];
    for l in 0..LANES8 {
        let hf = hl_sh[l].max(fl_sh[l]);
        carry[l] = fl_sh[l].saturating_sub(ge8).max(hf.saturating_sub(gf8));
    }
    carry
}

/// Striped band state, allocated by [`compute_striped8_columns`] and
/// lent to the allocation-free hot loop. `wj` is empty unless WATCH,
/// mirroring the i16 kernel.
struct Band8 {
    hload: Vec<V8>,
    hstore: Vec<V8>,
    ecur: Vec<V8>,
    fcur: Vec<V8>,
    wj: Vec<J8>,
}

/// Context for one band of the i8 column streamer: everything the hot
/// loop reads beyond the striped state and the bus rows.
struct Ctx8<'a> {
    b_tile: &'a [u8],
    slot: &'a [u16; 256],
    prof: &'a [V8],
    seg: usize,
    base: usize,
    row_offset: usize,
    col_offset: usize,
    bias: Score,
    ge8: i8,
    gf8: i8,
    zero8: i8,
    watch8: i8,
    band_corner: i8,
}

/// The tile-wide trackers the band loop carries from band to band: the
/// lane minimum of every window check, the best cell and the first watch
/// hit.
struct Track8 {
    mn: V8,
    best: Option<(Score, usize, usize)>,
    watch_hit: Option<(usize, usize)>,
}

// hot-loop
//
// Stream every column of one band through the three striped sweeps.
// Mirrors the i16 kernel's band loop line for line (see crate::striped
// for the pass-by-pass commentary, including the local-best gate); kept
// allocation-free and wallclock-free — enforced by the `hot-loop`
// analysis rule — so the whole body is straight-line index arithmetic
// over [i8; 32] arrays.
//
// Returns `false` as soon as a column leaves the i8 window: the tile
// will be discarded and escalated anyway, so streaming the rest of it
// would be wasted work. Only `th`/`tf` scratch has been written by then;
// the caller's buses are untouched.
//
// `TAPS` compiles the cut-row copies in only for bands with cuts in this
// internal band: even an empty tap loop cost plain 1024-row i8 tiles
// ~8 % of their throughput (2-CPU AVX-512 host).
//
// Indexed `for s in 0..seg` / `for l in 0..LANES8` loops over plain
// slices are the shape LLVM reliably turns into packed i8 ops here; the
// iterator forms clippy prefers have been observed to scalarize the lane
// loops, so keep the index style.
#[allow(clippy::needless_range_loop)]
fn band8_columns<const LOCAL: bool, const WATCH: bool, const TAPS: bool>(
    st: &mut Band8,
    cx: &Ctx8,
    th: &mut [i8],
    tf: &mut [i8],
    track: &mut Track8,
    taps: &mut CutTaps<'_, i8>,
) -> bool {
    let (slot, prof, b_tile) = (cx.slot, cx.prof, cx.b_tile);
    let Track8 { mn, best, watch_hit } = track;
    let width = b_tile.len();
    let seg = cx.seg;
    let (ge8, gf8, zero8, watch8) = (cx.ge8, cx.gf8, cx.zero8, cx.watch8);
    // Local-best gate (see crate::striped): the rebased score a column
    // maximum must reach to be searched for an endpoint.
    let mut gate = match *best {
        Some((score, _, _)) => (score - cx.bias) as i8,
        None => zero8 + 1,
    };
    let jchunk = if WATCH { JCHUNK } else { width };
    // Lane-0 diagonal seed: the *pre-update* top-border H of the previous
    // column, carried across chunk boundaries (see the i16 kernel).
    let mut prev_top = cx.band_corner;
    let mut cbase = 0usize;
    while cbase < width {
        let clen = (width - cbase).min(jchunk);
        if WATCH {
            st.wj.iter_mut().for_each(|v| *v = [-1; LANES8]);
        }
        for jc in 0..clen {
            let j = cbase + jc;
            let k = slot[b_tile[j] as usize] as usize;
            let pr = &prof[k * seg..(k + 1) * seg];
            let cur_top = th[j];
            // Band-top F seed for lane 0 (row `base`).
            let f0 = tf[j].saturating_sub(ge8).max(th[j].saturating_sub(gf8));

            // Pass 1: H with lane-chunk-partial F; store the partial F
            // *used* at each segment position.
            let mut v_f = [RAIL8; LANES8];
            v_f[0] = f0;
            let mut v_diag = lane_shift8(st.hload[seg - 1], prev_top);
            for s in 0..seg {
                let p = pr[s];
                let e = st.ecur[s];
                let mut h = [0i8; LANES8];
                for l in 0..LANES8 {
                    let mut x = v_diag[l].saturating_add(p[l]).max(e[l]).max(v_f[l]);
                    if LOCAL {
                        x = x.max(zero8);
                    }
                    h[l] = x;
                }
                v_diag = st.hload[s];
                st.hstore[s] = h;
                st.fcur[s] = v_f;
                let mut f = [0i8; LANES8];
                for l in 0..LANES8 {
                    f[l] = v_f[l].saturating_sub(ge8).max(h[l].saturating_sub(gf8));
                }
                v_f = f;
            }

            // Pass 2: lazy-F across lane-chunk boundaries; first sweep
            // unconditional, then the one-compare fixpoint tail.
            let mut carry = lane_carry8(st.fcur[seg - 1], st.hstore[seg - 1], ge8, gf8);
            for s in 0..seg {
                let f = st.fcur[s];
                let mut nf = [0i8; LANES8];
                for l in 0..LANES8 {
                    nf[l] = f[l].max(carry[l]);
                }
                st.fcur[s] = nf;
                for l in 0..LANES8 {
                    carry[l] = nf[l].saturating_sub(ge8);
                }
            }
            loop {
                let carry0 = lane_carry8(st.fcur[seg - 1], st.hstore[seg - 1], ge8, gf8);
                let f0 = st.fcur[0];
                let mut any = 0u16;
                for l in 0..LANES8 {
                    any |= (carry0[l] > f0[l]) as u16;
                }
                if any == 0 {
                    break;
                }
                let mut carry = carry0;
                for s in 0..seg {
                    let f = st.fcur[s];
                    let mut improves = 0u16;
                    for l in 0..LANES8 {
                        improves |= (carry[l] > f[l]) as u16;
                    }
                    if improves == 0 {
                        break;
                    }
                    let mut nf = [0i8; LANES8];
                    for l in 0..LANES8 {
                        nf[l] = f[l].max(carry[l]);
                    }
                    st.fcur[s] = nf;
                    for l in 0..LANES8 {
                        carry[l] = nf[l].saturating_sub(ge8);
                    }
                }
            }

            // Pass 3: finalize H, next-column E, trackers.
            let jc16 = jc as i16;
            let last_col = j + 1 == width;
            let mut cmax = [i8::MIN; LANES8];
            for s in 0..seg {
                let f = st.fcur[s];
                let hp = st.hstore[s];
                let mut h = [0i8; LANES8];
                for l in 0..LANES8 {
                    h[l] = hp[l].max(f[l]);
                }
                st.hstore[s] = h;
                if !last_col {
                    let e = st.ecur[s];
                    let mut en = [0i8; LANES8];
                    for l in 0..LANES8 {
                        en[l] = e[l].saturating_sub(ge8).max(h[l].saturating_sub(gf8));
                    }
                    st.ecur[s] = en;
                    for l in 0..LANES8 {
                        mn[l] = mn[l].min(en[l].min(f[l]));
                    }
                } else {
                    for l in 0..LANES8 {
                        mn[l] = mn[l].min(f[l]);
                    }
                }
                for l in 0..LANES8 {
                    cmax[l] = cmax[l].max(h[l]);
                }
                if WATCH {
                    let wj = &mut st.wj[s];
                    for l in 0..LANES8 {
                        let hit = h[l] == watch8 && wj[l] < 0;
                        wj[l] = if hit { jc16 } else { wj[l] };
                    }
                }
            }
            // Window check, every column: H >= E and H >= F at every
            // cell, so the max only needs H and the min only needs E/F.
            let mut out = false;
            for l in 0..LANES8 {
                out |= (mn[l] as i32) < WIN8_LO || (cmax[l] as i32) > WIN8_HI;
            }
            if out {
                return false;
            }
            if LOCAL {
                let top = cmax.iter().fold(i8::MIN, |m, &x| m.max(x));
                if top >= gate {
                    let cand = (
                        cx.bias + top as Score,
                        cx.row_offset + cx.base + first_row_at(&st.hstore, top),
                        cx.col_offset + j,
                    );
                    if best.is_none_or(|b| better_endpoint(cand, b)) {
                        *best = Some(cand);
                        gate = top;
                    }
                }
            }
            if TAPS {
                taps.tap(j, width, &st.hstore, &st.fcur);
            }
            th[j] = st.hstore[seg - 1][LANES8 - 1];
            tf[j] = st.fcur[seg - 1][LANES8 - 1];
            prev_top = cur_top;
            std::mem::swap(&mut st.hload, &mut st.hstore);
        }

        // Per-chunk watch reduction, identical ordering to the i16 kernel.
        if WATCH {
            for s in 0..seg {
                for l in 0..LANES8 {
                    if st.wj[s][l] >= 0 {
                        let cand = (
                            cx.row_offset + cx.base + l * seg + s,
                            cx.col_offset + cbase + st.wj[s][l] as usize,
                        );
                        if watch_hit.is_none_or(|cur| cand < cur) {
                            *watch_hit = Some(cand);
                        }
                    }
                }
            }
        }
        cbase += clen;
    }
    true
}

/// Run the i8×32 striped kernel over the leading
/// `height - height % LANES8` rows.
///
/// Contract is identical to [`crate::striped::compute_striped_columns`]:
/// on success the bus segments and the striped rows' cuts are overwritten
/// bit-identically to the scalar kernel and the bottom sliver (at most
/// `LANES8 - 1` rows) is the dispatcher's job; on window overflow returns
/// `None` with `top`/`left`/`cuts` untouched so the dispatcher can
/// escalate to the i16 rung on pristine borders.
#[allow(clippy::needless_range_loop)]
// indexed loops vectorize; see band8_columns
pub(crate) fn compute_striped8_columns<const LOCAL: bool, const WATCH: bool>(
    tile: &Tile<'_>,
    top: &mut [CellHF],
    left: &mut [CellHE],
    cache: &mut ProfileCache,
    cuts: &mut Cuts<'_>,
) -> Option<StripedColumns> {
    let Tile { a: a_tile, b: b_tile, row_offset, col_offset, scoring, watch, corner, .. } = *tile;
    let height = a_tile.len();
    let width = b_tile.len();
    let rows = height - height % LANES8;
    debug_assert!(rows >= LANES8 && width >= LANES8);
    debug_assert!(top.len() >= width && left.len() == height);

    // Rebase to the largest finite border H (see crate::striped).
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
    let zero_rel = -bias64;
    if LOCAL && !(WIN8_LO as i64..=WIN8_HI as i64).contains(&zero_rel) {
        return None;
    }
    let zero8 = if LOCAL { zero_rel as i8 } else { 0 };
    let (gf, ge) = (scoring.gap_first, scoring.gap_ext);

    let rel_h = |v: Score| -> Option<i8> {
        let r = v as i64 - bias64;
        if (WIN8_LO as i64..=WIN8_HI as i64).contains(&r) {
            Some(r as i8)
        } else {
            None
        }
    };
    // Gap-border tightening and up-front rejection, exactly as in the
    // i16 kernel (the raised value sits within 2*P8_MAX of its checked H).
    let rel_gap = |g: Score, h8: i8| -> Option<i8> {
        let tight = (g as i64 - bias64).max(h8 as i64 - (gf - ge) as i64);
        if tight > WIN8_HI as i64 || tight - (ge as i64) < WIN8_LO as i64 {
            None
        } else {
            Some(tight as i8)
        }
    };

    let mut th = vec![0i8; width];
    let mut tf = vec![0i8; width];
    for j in 0..width {
        let h8 = rel_h(top[j].h)?;
        th[j] = h8;
        tf[j] = rel_gap(top[j].f, h8)?;
    }
    let mut lh = vec![0i8; rows];
    let mut le = vec![0i8; rows];
    for i in 0..rows {
        let h8 = rel_h(left[i].h)?;
        lh[i] = h8;
        le[i] = rel_gap(left[i].e, h8)?;
    }
    let corner8 = rel_h(corner)?;
    let rem_corner = left[rows - 1].h;

    let gf8 = gf as i8;
    let ge8 = ge as i8;
    // Out-of-window watch scores can never equal an in-window H; i8::MIN
    // sits below WIN8_LO, so it cannot match in a committed tile either.
    let watch8: i8 = match watch {
        Some(wv) => {
            let r = wv as i64 - bias64;
            if (WIN8_LO as i64..=WIN8_HI as i64).contains(&r) {
                r as i8
            } else {
                i8::MIN
            }
        }
        None => i8::MIN,
    };

    let mut track = Track8 { mn: [i8::MAX; LANES8], best: None, watch_hit: None };

    // Cuts in the striped rows; the scalar sliver reports the rest.
    let ncut = cuts.rows.partition_point(|&c| c < rows);
    let mut cut_h = vec![0i8; ncut * width];
    let mut cut_f = vec![0i8; ncut * width];

    let mut band_corner = corner8;
    let mut base = 0usize;
    while base < rows {
        let band_h = (rows - base).min(BAND);
        let seg = band_h / LANES8;
        let a_band = &a_tile[base..base + band_h];
        let mut taps = CutTaps::new(cuts.rows, (base, band_h, seg), width, &mut cut_h, &mut cut_f);

        // Striped query profile from the engine-owned cache:
        // prof[k*seg + s][l] = subst(a_band[l*seg + s], c) for slot[c] == k.
        let (slot, prof) = cache.profile8(a_band, b_tile, scoring);

        // Band state, striped from the vertical-bus scratch; E is
        // pre-advanced one column and min-tracked (see crate::striped).
        let mut st = Band8 {
            hload: vec![[0; LANES8]; seg],
            hstore: vec![[0; LANES8]; seg],
            ecur: vec![[0; LANES8]; seg],
            fcur: vec![[RAIL8; LANES8]; seg],
            wj: vec![[-1; LANES8]; if WATCH { seg } else { 0 }],
        };
        for s in 0..seg {
            for l in 0..LANES8 {
                let r = base + l * seg + s;
                let h = lh[r];
                st.hload[s][l] = h;
                let e0 = (le[r] as i32 - ge).max(h as i32 - gf);
                st.ecur[s][l] = e0 as i8;
                track.mn[l] = track.mn[l].min(e0 as i8);
            }
        }

        let cx = Ctx8 {
            b_tile,
            slot,
            prof,
            seg,
            base,
            row_offset,
            col_offset,
            bias,
            ge8,
            gf8,
            zero8,
            watch8,
            band_corner,
        };
        let columns = if taps.is_empty() {
            band8_columns::<LOCAL, WATCH, false>
        } else {
            band8_columns::<LOCAL, WATCH, true>
        };
        let in_window = columns(&mut st, &cx, &mut th, &mut tf, &mut track, &mut taps);
        if !in_window {
            return None;
        }

        // Next band's lane-0 diagonal seed: this band's original
        // left-border H at its last row — capture before de-striping.
        let next_corner = lh[base + band_h - 1];
        for s in 0..seg {
            for l in 0..LANES8 {
                let r = base + l * seg + s;
                lh[r] = st.hload[s][l];
                le[r] = st.ecur[s][l];
            }
        }
        band_corner = next_corner;
        base += band_h;
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

    let Track8 { best, watch_hit, .. } = track;
    Some(StripedColumns { rows, best, watch_hit, corner_out: top[width - 1].h, rem_corner })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility8_gates_shape_and_scoring() {
        let sc = Scoring::paper();
        assert!(eligible(LANES8, LANES8, &sc));
        assert!(!eligible(LANES8 - 1, LANES8, &sc));
        assert!(!eligible(LANES8, LANES8 - 1, &sc));
        // The paper scoring fits i8; a wider parameter starts at i16.
        let wide = Scoring { match_score: P8_MAX + 1, ..sc };
        assert!(!eligible(LANES8, LANES8, &wide));
        let inverted = Scoring { gap_first: 1, gap_ext: 3, ..sc };
        assert!(!eligible(LANES8, LANES8, &inverted));
    }

    #[test]
    fn eligible8_is_subset_of_eligible16() {
        // The ladder's escalation step relies on this: any tile the i8
        // kernel attempted can be retried on the i16 kernel.
        let sc = Scoring::paper();
        for (h, w) in [(LANES8, LANES8), (100, 200), (32, 5000)] {
            if eligible(h, w, &sc) {
                assert!(crate::striped::eligible(h, w, &sc));
            }
        }
    }
}
