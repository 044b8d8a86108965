//! FastLSA (Driga et al., ICPP 2003) — the paper's Section III-A
//! comparator: a divide-and-conquer linear-space aligner that, unlike
//! Myers-Miller, *caches k grid rows in memory* during the forward pass
//! and then solves the slabs between them right-to-left, trading memory
//! (`k` rows) for recomputation (each cell is computed ~`1 + 1/k` times
//! instead of Myers-Miller's ~2).
//!
//! This implementation adapts `k` so every slab fits the configured cell
//! buffer (the original's "if the problem fits in memory, solve it
//! directly" base case), and supports the local-alignment wrapper the
//! evaluation needs.

use sw_core::full::{better_endpoint, sw_local_score};
use sw_core::linear::RowDp;
use sw_core::scoring::{Score, Scoring, NEG_INF};
use sw_core::transcript::{EdgeState, EditOp, Transcript};

/// Statistics of one FastLSA run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastLsaStats {
    /// Cells computed by the forward (row-caching) pass.
    pub forward_cells: u64,
    /// Cells computed while solving slabs.
    pub slab_cells: u64,
    /// Cached grid rows.
    pub cached_rows: usize,
    /// Peak bytes used for cached rows.
    pub cache_bytes: u64,
}

impl FastLsaStats {
    /// Total cell updates.
    pub fn total_cells(&self) -> u64 {
        self.forward_cells + self.slab_cells
    }
}

/// Result of the local wrapper.
#[derive(Debug, Clone)]
pub struct FastLsaResult {
    /// Optimal local score.
    pub score: Score,
    /// Start node.
    pub start: (usize, usize),
    /// End node.
    pub end: (usize, usize),
    /// The alignment.
    pub transcript: Transcript,
    /// Work/memory statistics.
    pub stats: FastLsaStats,
}

// Direction bits for the slab traceback (same layout as sw-core's full DP).
const H_SRC_MASK: u8 = 0b0011;
const H_DIAG: u8 = 1;
const H_FROM_E: u8 = 2;
const H_FROM_F: u8 = 3;
const E_EXTEND: u8 = 0b0100;
const F_EXTEND: u8 = 0b1000;

/// Solve one slab: full DP over `a_slab x b[..width]` whose row 0 is the
/// cached grid row `top` (`(H, F)` pairs, `width + 1` cells including
/// column 0). Traceback starts at the bottom-right corner in `end_state`
/// and stops when it crosses into row 0, returning the operations (in
/// order), the entry column and the entry state.
fn solve_slab(
    a_slab: &[u8],
    b: &[u8],
    scoring: &Scoring,
    top: &[(Score, Score)],
    end_state: EdgeState,
) -> (Vec<EditOp>, usize, EdgeState) {
    let m = a_slab.len();
    let n = b.len();
    debug_assert_eq!(top.len(), n + 1);
    let row = n + 1;
    let mut dirs = vec![0u8; (m + 1) * row];

    let mut h_prev: Vec<Score> = top.iter().map(|c| c.0).collect();
    let mut h_cur = vec![NEG_INF; n + 1];
    let mut f: Vec<Score> = top.iter().map(|c| c.1).collect();
    let mut e_last_row = vec![NEG_INF; n + 1];

    for i in 1..=m {
        let ai = a_slab[i - 1];
        // Column 0 continues the global matrix's left border: a pure
        // vertical run. Its values are implied by the top row's column 0.
        let f_ext = f[0] - scoring.gap_ext;
        let f_open = h_prev[0] - scoring.gap_first;
        let (f0, mut d0) = if f_ext >= f_open { (f_ext, F_EXTEND) } else { (f_open, 0) };
        f[0] = f0;
        h_cur[0] = f0;
        d0 |= H_FROM_F;
        dirs[i * row] = d0;

        let mut e = NEG_INF;
        for j in 1..=n {
            let mut d = 0u8;
            let e_ext = e - scoring.gap_ext;
            let e_open = h_cur[j - 1] - scoring.gap_first;
            e = if e_ext >= e_open {
                d |= E_EXTEND;
                e_ext
            } else {
                e_open
            };
            let f_ext = f[j] - scoring.gap_ext;
            let f_open = h_prev[j] - scoring.gap_first;
            f[j] = if f_ext >= f_open {
                d |= F_EXTEND;
                f_ext
            } else {
                f_open
            };
            let diag = h_prev[j - 1] + scoring.subst(ai, b[j - 1]);
            let mut h = diag;
            let mut src = H_DIAG;
            if e > h {
                h = e;
                src = H_FROM_E;
            }
            if f[j] > h {
                h = f[j];
                src = H_FROM_F;
            }
            d |= src;
            dirs[i * row + j] = d;
            h_cur[j] = h;
            if i == m {
                e_last_row[j] = e;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
    }
    let _ = e_last_row;

    // Traceback from (m, n) in `end_state` until the walk crosses row 0.
    let (mut i, mut j) = (m, n);
    let mut state = match end_state {
        EdgeState::Diagonal => 0u8, // H
        EdgeState::GapS0 => 1,      // E
        EdgeState::GapS1 => 2,      // F
    };
    let mut ops: Vec<EditOp> = Vec::new();
    let entry_state;
    loop {
        if i == 0 {
            // Entered row 0 in H (diagonal arrivals are emitted before the
            // move, so reaching i == 0 in H/E means the path continues
            // from the cached row in H state at this column).
            entry_state = if state == 2 { EdgeState::GapS1 } else { EdgeState::Diagonal };
            break;
        }
        let d = dirs[i * row + j];
        match state {
            0 => match d & H_SRC_MASK {
                H_DIAG => {
                    ops.push(EditOp::Match); // classified later
                    i -= 1;
                    j -= 1;
                }
                H_FROM_E => state = 1,
                H_FROM_F => state = 2,
                _ => unreachable!("slab interior always has a source"),
            },
            1 => {
                ops.push(EditOp::GapS0);
                let extend = d & E_EXTEND != 0;
                j -= 1;
                state = if extend { 1 } else { 0 };
            }
            _ => {
                ops.push(EditOp::GapS1);
                let extend = d & F_EXTEND != 0;
                i -= 1;
                if i == 0 && extend {
                    // The vertical run continues above the cached row.
                    entry_state = EdgeState::GapS1;
                    break;
                }
                state = if extend { 2 } else { 0 };
            }
        }
    }
    ops.reverse();
    (ops, j, entry_state)
}

/// The number of grid rows FastLSA caches per recursion level (the
/// original's `k`; Driga et al. found small constants best).
pub const FASTLSA_K: usize = 8;

struct Runner<'a> {
    scoring: &'a Scoring,
    buffer_cells: u64,
    stats: &'a mut FastLsaStats,
    /// Bytes of cached rows currently live across the recursion stack.
    live_cache_bytes: u64,
}

impl Runner<'_> {
    /// Solve rows `a_sub` (absolute top row `row0`) against `b[..width]`,
    /// whose row 0 values are `top`, tracing back from the bottom-right
    /// in `end_state`. Returns `(ops, entry_j, entry_state)`.
    #[allow(clippy::too_many_arguments)] // recursion carries slab geometry explicitly
    fn solve(
        &mut self,
        a_all: &[u8],
        b_all: &[u8],
        row0: usize,
        a_sub: &[u8],
        width: usize,
        top: &[(Score, Score)],
        end_state: EdgeState,
    ) -> (Vec<EditOp>, usize, EdgeState) {
        let m = a_sub.len();
        let b_sub = &b_all[..width];
        if ((m as u64) + 1) * ((width as u64) + 1) <= self.buffer_cells || m <= 1 {
            self.stats.slab_cells += (m * width) as u64;
            let (mut ops, entry_j, entry_state) =
                solve_slab(a_sub, b_sub, self.scoring, &top[..width + 1], end_state);
            classify(&mut ops, a_all, b_all, row0, entry_j);
            return (ops, entry_j, entry_state);
        }

        // Cache k interior rows during one forward pass from `top`.
        let k = FASTLSA_K.min(m - 1);
        let boundaries: Vec<usize> = (1..=k).map(|i| i * m / (k + 1)).collect();
        let cache_bytes = 8 * (k as u64) * (width as u64 + 1);
        self.live_cache_bytes += cache_bytes;
        self.stats.cache_bytes = self.stats.cache_bytes.max(self.live_cache_bytes);
        self.stats.cached_rows += k;

        let mut cached: Vec<Vec<(Score, Score)>> = Vec::with_capacity(k);
        {
            // Forward pass continuing from the arbitrary top border.
            let mut h: Vec<Score> = top[..width + 1].iter().map(|c| c.0).collect();
            let mut f: Vec<Score> = top[..width + 1].iter().map(|c| c.1).collect();
            let sc = self.scoring;
            let mut next = 0usize;
            for (idx, &ai) in a_sub.iter().enumerate() {
                let f0 = (f[0] - sc.gap_ext).max(h[0] - sc.gap_first);
                f[0] = f0;
                let mut diag = h[0];
                h[0] = f0;
                let mut e = NEG_INF;
                for j in 1..=width {
                    e = (e - sc.gap_ext).max(h[j - 1] - sc.gap_first);
                    f[j] = (f[j] - sc.gap_ext).max(h[j] - sc.gap_first);
                    let v = (diag + sc.subst(ai, b_all[j - 1])).max(e).max(f[j]);
                    diag = h[j];
                    h[j] = v;
                }
                if next < boundaries.len() && idx + 1 == boundaries[next] {
                    cached.push(h.iter().zip(&f).map(|(&h, &f)| (h, f)).collect());
                    next += 1;
                }
            }
            self.stats.forward_cells += (m * width) as u64;
        }

        // Solve slabs bottom-up, recursing when a slab is still too big.
        let mut cur_row = m;
        let mut cur_col = width;
        let mut cur_state = end_state;
        let mut pieces: Vec<Vec<EditOp>> = Vec::new();
        for (bi, &top_row) in boundaries.iter().enumerate().rev() {
            let (ops, entry_j, entry_state) = self.solve(
                a_all,
                b_all,
                row0 + top_row,
                &a_sub[top_row..cur_row],
                cur_col,
                &cached[bi],
                cur_state,
            );
            pieces.push(ops);
            cur_row = top_row;
            cur_col = entry_j;
            cur_state = entry_state;
        }
        // Top slab continues from this level's own `top` border.
        let (ops, entry_j, entry_state) =
            self.solve(a_all, b_all, row0, &a_sub[..cur_row], cur_col, top, cur_state);
        pieces.push(ops);

        self.live_cache_bytes -= cache_bytes;

        let mut all = Vec::new();
        for ops in pieces.into_iter().rev() {
            all.extend(ops);
        }
        (all, entry_j, entry_state)
    }
}

/// Global alignment from the origin to `(a.len(), b.len())` ending in
/// `end_state`, using at most `buffer_cells` cells of quadratic storage
/// at a time plus `FASTLSA_K` cached rows per recursion level.
pub fn fastlsa_global(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    buffer_cells: u64,
    end_state: EdgeState,
    stats: &mut FastLsaStats,
) -> Transcript {
    let n = b.len();
    let buffer_cells = buffer_cells.max(4 * (n as u64 + 1)).max(64);
    let top: Vec<(Score, Score)> = {
        let dp = RowDp::new(n, *scoring, EdgeState::Diagonal);
        dp.h().iter().zip(dp.f()).map(|(&h, &f)| (h, f)).collect()
    };
    let mut runner = Runner { scoring, buffer_cells, stats, live_cache_bytes: 0 };
    let (ops, entry_j, entry_state) = runner.solve(a, b, 0, a, n, &top, end_state);
    let mut ops = prepend_origin_run(ops, entry_j, entry_state);
    // Leading run ops precede already-classified ops; classify is
    // idempotent for gap ops, so re-classifying from the origin is safe.
    classify(&mut ops, a, b, 0, 0);
    Transcript::from_ops(ops)
}

/// When a traceback bottoms out on the *global* init row at column
/// `entry_j > 0`, the path's prefix is the horizontal run the init row
/// encodes implicitly; emit it.
fn prepend_origin_run(ops: Vec<EditOp>, entry_j: usize, entry_state: EdgeState) -> Vec<EditOp> {
    debug_assert_eq!(
        entry_state,
        EdgeState::Diagonal,
        "the global init row has no F state to continue"
    );
    if entry_j == 0 {
        return ops;
    }
    let mut out = Vec::with_capacity(entry_j + ops.len());
    out.extend(std::iter::repeat_n(EditOp::GapS0, entry_j));
    out.extend(ops);
    out
}

/// Patch diagonal ops into Match/Mismatch given the slab's absolute
/// starting coordinates.
fn classify(ops: &mut [EditOp], a: &[u8], b: &[u8], mut i: usize, mut j: usize) {
    for op in ops.iter_mut() {
        match op {
            EditOp::Match | EditOp::Mismatch => {
                *op = if a[i] == b[j] { EditOp::Match } else { EditOp::Mismatch };
                i += 1;
                j += 1;
            }
            EditOp::GapS0 => j += 1,
            EditOp::GapS1 => i += 1,
        }
    }
}

/// Local alignment via FastLSA: endpoint scan, start scan, then the
/// row-caching global solver on the delimited span.
pub fn fastlsa_local(a: &[u8], b: &[u8], scoring: &Scoring, buffer_cells: u64) -> FastLsaResult {
    let (score, end) = sw_local_score(a, b, scoring);
    let mut stats =
        FastLsaStats { forward_cells: (a.len() * b.len()) as u64, ..Default::default() };
    if score <= 0 {
        return FastLsaResult {
            score: 0,
            start: (0, 0),
            end: (0, 0),
            transcript: Transcript::new(),
            stats,
        };
    }
    let a_rev: Vec<u8> = a[..end.0].iter().rev().copied().collect();
    let b_rev: Vec<u8> = b[..end.1].iter().rev().copied().collect();
    let (rev_score, rev_end) = sw_local_score(&a_rev, &b_rev, scoring);
    debug_assert_eq!(rev_score, score);
    stats.forward_cells += (end.0 * end.1) as u64;
    let start = (end.0 - rev_end.0, end.1 - rev_end.1);
    let _ = better_endpoint; // shared tie-break rule with the scans

    let transcript = fastlsa_global(
        &a[start.0..end.0],
        &b[start.1..end.1],
        scoring,
        buffer_cells,
        EdgeState::Diagonal,
        &mut stats,
    );
    FastLsaResult { score, start, end, transcript, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::generate::{dna, edited_pair};
    use sw_core::full::{nw_global_aligned, sw_local_aligned};

    const SC: Scoring = Scoring::paper();

    fn check_global(a: &[u8], b: &[u8], buffer: u64) {
        let (expected, _) = nw_global_aligned(a, b, &SC, EdgeState::Diagonal, EdgeState::Diagonal);
        let mut stats = FastLsaStats::default();
        let t = fastlsa_global(a, b, &SC, buffer, EdgeState::Diagonal, &mut stats);
        t.validate(a, b).unwrap();
        assert_eq!(t.score(a, b, &SC), expected, "buffer {buffer}");
    }

    #[test]
    fn global_matches_nw_small_buffer() {
        let (a, b) = edited_pair(1, 400, 21);
        for buffer in [500u64, 2_000, 10_000, 1 << 30] {
            check_global(&a, &b, buffer);
        }
    }

    #[test]
    fn global_handles_gap_spanning_slabs() {
        // A long deletion crosses several cached rows: entry states must
        // carry GapS1 across slab boundaries.
        let a = dna(2, 500);
        let mut b = a.clone();
        b.drain(150..360);
        check_global(&a, &b, 2_000);
    }

    #[test]
    fn local_matches_reference() {
        let (a, b) = edited_pair(3, 350, 21);
        let r = fastlsa_local(&a, &b, &SC, 4_000);
        let reference = sw_local_aligned(&a, &b, &SC).unwrap();
        assert_eq!(r.score, reference.score);
        assert_eq!(r.end, reference.end);
        let sub_a = &a[r.start.0..r.end.0];
        let sub_b = &b[r.start.1..r.end.1];
        r.transcript.validate(sub_a, sub_b).unwrap();
        assert_eq!(r.transcript.score(sub_a, sub_b, &SC), r.score);
    }

    #[test]
    fn recomputation_is_below_myers_miller() {
        // FastLSA's slab pass touches ~1 forward + ~1/(k+1)-ish extra,
        // well below Myers-Miller's ~2x total.
        let (a, b) = edited_pair(4, 600, 21);
        let mut stats = FastLsaStats::default();
        let _ = fastlsa_global(&a, &b, &SC, 20_000, EdgeState::Diagonal, &mut stats);
        let mn = (a.len() * b.len()) as u64;
        assert!(stats.forward_cells >= mn);
        assert!(
            stats.slab_cells < mn,
            "slab recomputation {} should be below one full pass {mn}",
            stats.slab_cells
        );
        assert!(stats.cached_rows > 0);
        assert!(stats.cache_bytes > 0);
    }

    #[test]
    fn degenerate_inputs() {
        let mut stats = FastLsaStats::default();
        let t = fastlsa_global(b"", b"ACG", &SC, 64, EdgeState::Diagonal, &mut stats);
        assert_eq!(t.cigar(), "3I");
        let t2 = fastlsa_global(b"ACG", b"", &SC, 64, EdgeState::Diagonal, &mut stats);
        assert_eq!(t2.cigar(), "3D");
        let r = fastlsa_local(b"", b"", &SC, 64);
        assert_eq!(r.score, 0);
    }
}
