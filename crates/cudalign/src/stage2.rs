//! Stage 2 — partial traceback (Section IV-C).
//!
//! Starting from the end point found by Stage 1, a semi-global DP runs in
//! the *reverse* direction, strip by strip between consecutive special
//! rows. Two optimizations of the paper shape this stage:
//!
//! * **Goal-based matching** — the score the optimal path must attain at
//!   the next special row is already known (initially the best score, then
//!   the score recorded at each crosspoint), so the matching procedure
//!   stops at the first column attaining it.
//! * **Orthogonal execution** — the reverse strip is processed in the
//!   transposed orientation (the engine's rows are the original matrix's
//!   columns, scanned right-to-left), so the strip's last block column is
//!   the special row itself: matching runs incrementally as blocks
//!   complete and the wavefront aborts as soon as the crosspoint is found,
//!   leaving the upper-left triangle unprocessed (Figures 7-8).
//!
//! While a strip executes, the bottom buses of the transposed view — which
//! are *columns* of the original matrix — are flushed to the special
//! columns area for Stage 3, and every computed cell is watched for
//! `H_reverse == goal`, which identifies the alignment's start point.

use crate::crosspoint::{Crosspoint, CrosspointChain};
use crate::obs::Event;
use crate::pipeline::{StageContext, StageError};
use crate::sra::{self, LineStore};
use gpu_sim::wavefront::{self, RegionJob};
use gpu_sim::{BlockCoords, CellHE, CellHF, GlobalOrigin, Mode, TileOutcome};
use std::ops::ControlFlow;
use sw_core::scoring::{Score, Scoring};
use sw_core::transcript::EdgeState;

/// Outcome of Stage 2.
#[derive(Debug, Clone)]
pub struct Stage2Result {
    /// Crosspoints from the alignment's start point to its end point
    /// (the paper's `L_2`).
    pub chain: CrosspointChain,
    /// DP cells processed (`Cells_2`).
    pub cells: u64,
    /// Indices of the special columns kept for Stage 3.
    pub special_columns: Vec<usize>,
    /// Bytes of special columns written (net of discarded ones).
    pub col_flushed_bytes: u64,
    /// Number of strip launches.
    pub strips: usize,
    /// Peak bus memory across strips (`VRAM_2`).
    pub vram_bytes: u64,
    /// Smallest effective block count across strips (the paper's `B_2`
    /// after the minimum-size-requirement reduction).
    pub min_blocks: usize,
    /// Special rows found corrupt on read-back and dropped (the strip is
    /// re-run against the next surviving row below — degradation, not
    /// failure).
    pub dropped_rows: u64,
    /// Precision-ladder outcome counters for this stage's tiles.
    pub paths: gpu_sim::kernel::PathCounts,
    /// Query-profile cache hits during this stage.
    pub profile_hits: u64,
    /// Query-profile cache misses (profile bands built) during this stage.
    pub profile_misses: u64,
}

/// A gap run value of length `k >= 1` extended from an origin-seeded gap
/// state (`seed`) or opened fresh from the origin `H` (`h0`).
pub(crate) fn gap_run_from(seed: Score, h0: Score, k: usize, sc: &Scoring) -> Score {
    debug_assert!(k >= 1);
    let from_seed = seed - (k as Score) * sc.gap_ext;
    let from_h = h0 - sc.gap_first - ((k - 1) as Score) * sc.gap_ext;
    from_seed.max(from_h)
}

enum Found {
    /// The alignment's start point (original coordinates).
    Start { i: usize, j: usize },
    /// A crosspoint on the special row bounding the strip.
    Cross(Crosspoint),
}

struct StripObserver<'a> {
    /// Stored forward special row bounding the strip (`None` when the
    /// strip reaches row 0).
    fwd_row: Option<&'a [CellHF]>,
    strip_top: usize,
    strip_height: usize,
    goal: Score,
    gopen: Score,
    cur_i: usize,
    cur_j: usize,
    /// Special-column store and cadence.
    cols: &'a mut LineStore<CellHE>,
    col_interval: usize,
    view_block_height: usize,
    view_m: usize,
    origin: GlobalOrigin,
    scoring: Scoring,
    saved_cols: Vec<usize>,
    found: Option<Found>,
}

impl gpu_sim::WavefrontObserver for StripObserver<'_> {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        // 1. Start-point watch: a reverse H equal to the goal means an
        // optimal alignment starts at that cell.
        if let Some((vi, vj)) = outcome.watch_hit {
            self.found = Some(Found::Start { i: self.cur_i - vj, j: self.cur_j - vi });
            return ControlFlow::Break(());
        }

        // 2. Goal-based matching on the strip's last view block column,
        // whose right bus holds the special row's reverse values
        // (H, E_view = F_original) — the paper's rectified vertical bus.
        if block.last_block_col {
            if let Some(fwd) = self.fwd_row {
                // lint: allow(cancel-coverage): bounded scan of one block's right bus; the engine polls cancellation between blocks
                for (k, cell) in right.iter().enumerate() {
                    let vi = block.rows.0 + k;
                    let j = self.cur_j - vi;
                    let h_total = fwd[j].h + cell.h;
                    if h_total == self.goal {
                        self.found = Some(Found::Cross(Crosspoint {
                            i: self.strip_top,
                            j,
                            score: fwd[j].h,
                            edge: EdgeState::Diagonal,
                        }));
                        return ControlFlow::Break(());
                    }
                    let g_total = fwd[j].f + cell.e + self.gopen;
                    if g_total == self.goal {
                        self.found = Some(Found::Cross(Crosspoint {
                            i: self.strip_top,
                            j,
                            score: fwd[j].f,
                            edge: EdgeState::GapS1,
                        }));
                        return ControlFlow::Break(());
                    }
                }
            }
        }

        // 3. Special-column flushing: the view's horizontal bus at block-row
        // boundaries is a column of the original matrix.
        let vi_boundary = block.rows.1;
        let full_row = vi_boundary == (block.r + 1) * self.view_block_height;
        if full_row && vi_boundary < self.view_m && (block.r + 1).is_multiple_of(self.col_interval)
        {
            let j = self.cur_j - vi_boundary;
            if j > 0 {
                if block.c == 0
                    && self.cols.try_begin_line(j, self.strip_top, self.strip_height + 1)
                {
                    self.saved_cols.push(j);
                    // Border cell i = cur_i: the reverse path from
                    // (cur_i, j) is the pure horizontal run along the
                    // view's left border.
                    let run =
                        gap_run_from(self.origin.f0, self.origin.h0, vi_boundary, &self.scoring);
                    self.cols.put_segment(
                        j,
                        self.cur_i,
                        std::iter::once(CellHE { h: run, e: run }),
                    );
                }
                // bottom[t] is view column (block.cols.0 + t) = original row
                // cur_i - (block.cols.0 + t); reversed so positions ascend.
                let at = self.cur_i - block.cols.1;
                self.cols.put_segment(
                    j,
                    at,
                    bottom.iter().rev().map(|c| CellHE { h: c.h, e: c.f }),
                );
            }
        }
        ControlFlow::Continue(())
    }
}

/// Run Stage 2.
///
/// `best_score`/`end` come from Stage 1; `rows` is the populated SRA;
/// `cols` receives the special columns for Stage 3. Per-strip
/// [`Event::Strip`] records, [`Event::StorageFlush`] for each special
/// column kept for Stage 3, and [`Event::StorageDrop`] for corrupt
/// special rows rejected on read-back are all emitted from the caller
/// thread. The token is checked at every strip boundary, so a
/// cancelled/expired run unwinds with a typed error before starting the
/// next strip instead of finishing the pass. A `best_score` below 1 (no
/// local alignment to trace back) is a [`StageError::Logic`].
pub fn run(
    cx: &mut StageContext<'_, '_>,
    best_score: Score,
    end: (usize, usize),
    rows: &mut LineStore<CellHF>,
    cols: &mut LineStore<CellHE>,
) -> Result<Stage2Result, StageError> {
    let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    if best_score <= 0 {
        return Err(StageError::Logic(format!(
            "stage 2 requires a positive best score, got {best_score}"
        )));
    }
    let sc = cfg.scoring;
    let gopen = sc.gap_open();
    let m = s0.len();

    let end_cp = Crosspoint::end(end.0, end.1, best_score);
    let mut rev_points = vec![end_cp];
    let mut cur = end_cp;

    let mut total_cells = 0u64;
    let mut paths = gpu_sim::kernel::PathCounts::default();
    let mut profile_hits = 0u64;
    let mut profile_misses = 0u64;
    let mut strips = 0usize;
    let mut vram = 0u64;
    let mut min_blocks = cfg.grid23.blocks;
    let mut dropped_rows = 0u64;
    let guard = rows.len() + 4;

    while cur.score > 0 {
        // Stage 1's checkpoint is already gone by the time stage 2 runs,
        // so an interruption here resumes the pipeline from scratch —
        // report diagonal 0.
        ctrl.check(0)?;
        // Each dropped row costs one extra (aborted) strip iteration, so
        // the convergence guard grows with the drops.
        if strips > guard + 2 * dropped_rows as usize {
            return Err(StageError::Logic(format!(
                "stage 2 did not converge after {strips} strips (goal {})",
                cur.score
            )));
        }
        strips += 1;

        let r = rows.previous_line(cur.i).unwrap_or(0);
        let h = cur.i - r;
        debug_assert!(h >= 1, "strip height must be positive");
        obs.emit(Event::Strip { stage: 2, index: strips, height: h, width: cur.j });
        let origin = GlobalOrigin::reverse(cur.edge.transposed(), &sc);

        let fwd = if r > 0 {
            match rows.get(r) {
                Ok(v) => v,
                Err(_) => {
                    // The stored row fails validation (torn write that the
                    // OS acknowledged, bit rot, ...). Drop it and redo the
                    // strip against the next surviving row below: the
                    // matching area grows, the result stays exact.
                    rows.remove(r);
                    dropped_rows += 1;
                    obs.emit(Event::StorageDrop { store: "sra", index: r });
                    continue;
                }
            }
        } else {
            None
        };
        let fwd_cells = fwd.as_ref().map(|(_, c)| &**c);

        // Upfront border check: the path may cross row `r` at column
        // `cur.j` via a pure vertical gap run (the view's row-0 border,
        // which blocks never scan).
        if let Some(fwd) = fwd_cells {
            let v = gap_run_from(origin.e0, origin.h0, h, &sc);
            let cross = if fwd[cur.j].h + v == cur.score {
                Some(Crosspoint { i: r, j: cur.j, score: fwd[cur.j].h, edge: EdgeState::Diagonal })
            } else if fwd[cur.j].f + v + gopen == cur.score {
                Some(Crosspoint { i: r, j: cur.j, score: fwd[cur.j].f, edge: EdgeState::GapS1 })
            } else {
                None
            };
            if let Some(cp) = cross {
                rev_points.push(cp);
                cur = cp;
                continue;
            }
        }

        // Transposed, reversed view of the strip.
        let a_view: Vec<u8> = s1[..cur.j].iter().rev().copied().collect();
        let b_view: Vec<u8> = s0[r..cur.i].iter().rev().copied().collect();
        let view_bh = cfg.grid23.block_height();

        // Column cadence: give the strip a budget share proportional to
        // its height, then apply the paper's flush-interval formula. The
        // width entering the formula is the *expected* sweep — goal-based
        // matching aborts after roughly one strip-height of columns — not
        // the worst case; the store's budget enforcement still bounds
        // pathological sweeps.
        let share = (cfg.sca_bytes as u128 * h as u128 / m.max(1) as u128) as u64;
        let expected_sweep = cur.j.min(h.saturating_mul(4).max(view_bh));
        let col_interval = sra::flush_interval(expected_sweep, h, view_bh, share.max(1));

        let mut strip_obs = StripObserver {
            fwd_row: fwd_cells,
            strip_top: r,
            strip_height: h,
            goal: cur.score,
            gopen,
            cur_i: cur.i,
            cur_j: cur.j,
            cols,
            col_interval,
            view_block_height: view_bh,
            view_m: a_view.len(),
            origin,
            scoring: sc,
            saved_cols: Vec::new(),
            found: None,
        };
        let job = RegionJob {
            a: &a_view,
            b: &b_view,
            scoring: sc,
            mode: Mode::Global { origin },
            grid: cfg.grid23,
            workers: wavefront::region_workers(
                &cfg.grid23.layout(a_view.len(), b_view.len()),
                cfg.workers,
            ),
            watch: Some(cur.score),
        };
        let res = wavefront::run_pooled(pool, &job, &mut strip_obs)?;
        total_cells += res.cells;
        paths.add(&res.paths);
        profile_hits += res.profile_hits;
        profile_misses += res.profile_misses;
        vram = vram.max(gpu_sim::DeviceModel::bus_bytes(a_view.len(), b_view.len()));
        min_blocks = min_blocks.min(res.layout.block_cols);

        let saved = std::mem::take(&mut strip_obs.saved_cols);
        let found = strip_obs.found.take();
        cols.abort_partials();

        match found {
            Some(Found::Start { i, j }) => {
                for c in saved.iter().filter(|&&c| c <= j) {
                    cols.remove(*c);
                }
                let cp = Crosspoint::start(i, j);
                rev_points.push(cp);
                cur = cp;
            }
            Some(Found::Cross(cp)) => {
                for c in saved.iter().filter(|&&c| c <= cp.j) {
                    cols.remove(*c);
                }
                // A gap-typed crosspoint with score <= 0 cannot lie on an
                // optimal chain: dropping the zero-or-negative prefix and
                // starting after the gap run would beat the optimum.
                debug_assert!(
                    cp.score > 0 || cp.edge == EdgeState::Diagonal,
                    "gap-typed crosspoint with non-positive score: {cp:?}"
                );
                // A crosspoint with score 0 is the start point itself.
                let cp = if cp.score == 0 { Crosspoint::start(cp.i, cp.j) } else { cp };
                rev_points.push(cp);
                cur = cp;
            }
            None => {
                return Err(StageError::GoalNotReached {
                    stage: 2,
                    goal: cur.score,
                    rows: r..cur.i,
                    cols: 0..cur.j,
                });
            }
        }
        // Columns that survived the crosspoint-side pruning are complete
        // in the SCA and will drive Stage 3.
        if !saved.is_empty() {
            let kept: std::collections::BTreeSet<usize> = cols.indices().into_iter().collect();
            for &c in saved.iter().filter(|c| kept.contains(c)) {
                obs.emit(Event::StorageFlush {
                    store: "sca",
                    index: c,
                    bytes: (h as u64 + 1) * std::mem::size_of::<CellHE>() as u64,
                });
            }
        }
    }

    rev_points.reverse();
    let chain = CrosspointChain::new(rev_points);
    chain.validate()?;
    Ok(Stage2Result {
        chain,
        cells: total_cells,
        special_columns: cols.indices(),
        col_flushed_bytes: cols.bytes_used(),
        strips,
        vram_bytes: vram,
        min_blocks,
        dropped_rows,
        paths,
        profile_hits,
        profile_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, SraBackend};
    use crate::stage1;
    use gpu_sim::WorkerPool;
    use seqio::generate::{dna, edited_pair};
    use sw_core::full::sw_local_aligned;

    fn run_stage12(a: &[u8], b: &[u8]) -> (Stage2Result, Score) {
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1r =
            stage1::run(&mut StageContext::new(a, b, &cfg, &pool), &mut rows, None, None).unwrap();
        assert!(s1r.best_score > 0);
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = run(
            &mut StageContext::new(a, b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        (s2r, s1r.best_score)
    }

    #[test]
    fn non_positive_best_score_is_a_logic_error() {
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(1);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        for best in [0, -3] {
            let err = run(
                &mut StageContext::new(b"ACGT", b"TTTT", &cfg, &pool),
                best,
                (0, 0),
                &mut rows,
                &mut cols,
            )
            .unwrap_err();
            assert!(matches!(&err, StageError::Logic(m) if m.contains("positive best score")));
        }
        assert_eq!(cols.len(), 0, "nothing was stored");
    }

    #[test]
    fn chain_spans_start_to_end_with_valid_scores() {
        let (a, b) = edited_pair(1, 300, 11);
        let (s2r, best) = run_stage12(&a, &b);
        let pts = s2r.chain.points();
        assert!(pts.len() >= 2);
        assert_eq!(pts[0].score, 0);
        assert_eq!(pts.last().unwrap().score, best);
        s2r.chain.validate().unwrap();
        // Interior crosspoints sit on special rows.
        for p in &pts[1..pts.len() - 1] {
            assert_eq!(p.i % PipelineConfig::for_tests().grid1.block_height(), 0);
        }
    }

    #[test]
    fn start_point_matches_reference_score_semantics() {
        let (a, b) = edited_pair(2, 250, 11);
        let (s2r, best) = run_stage12(&a, &b);
        let start = s2r.chain.points()[0];
        let end = *s2r.chain.points().last().unwrap();
        // The reference's start may differ among ties, but the global
        // alignment of our chosen span must attain the best score.
        let sub_a = &a[start.i..end.i];
        let sub_b = &b[start.j..end.j];
        let (g, _) = sw_core::full::nw_global_typed(
            sub_a,
            sub_b,
            &Scoring::paper(),
            EdgeState::Diagonal,
            EdgeState::Diagonal,
        );
        assert_eq!(g, best);
        // And matches the independent reference's score.
        let reference = sw_local_aligned(&a, &b, &Scoring::paper()).unwrap();
        assert_eq!(reference.score, best);
    }

    #[test]
    fn identical_sequences_single_diagonal() {
        let a = dna(7, 200);
        let (s2r, best) = run_stage12(&a, &a);
        assert_eq!(best, 200);
        let start = s2r.chain.points()[0];
        assert_eq!((start.i, start.j), (0, 0));
        // Crosspoints all on the main diagonal.
        for p in s2r.chain.points() {
            assert_eq!(p.i, p.j);
            assert_eq!(p.score, p.i as Score);
        }
    }

    #[test]
    fn saved_columns_lie_inside_partitions() {
        let (a, b) = edited_pair(3, 400, 11);
        let (s2r, _) = run_stage12(&a, &b);
        for &c in &s2r.special_columns {
            let inside = s2r.chain.partitions().any(|p| p.start.j < c && c < p.end.j);
            assert!(inside, "column {c} outside every partition");
        }
    }

    #[test]
    fn tiny_alignment_within_first_strip() {
        // Unrelated sequences: the best alignment is short; stage 2 should
        // find the start via the watch without crossing special rows.
        let a = dna(21, 180);
        let b = dna(99, 180);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1r = stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
            .unwrap();
        if s1r.best_score == 0 {
            return; // nothing to trace
        }
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        let start = s2r.chain.points()[0];
        let end = *s2r.chain.points().last().unwrap();
        assert!(end.i - start.i <= 64, "short alignment expected");
    }

    /// With no special rows at all (zero SRA), stage 2 degenerates to one
    /// big reverse strip and still finds the start point.
    #[test]
    fn works_without_special_rows() {
        let (a, b) = edited_pair(5, 150, 11);
        let mut cfg = PipelineConfig::for_tests();
        cfg.sra_bytes = 0;
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, 0, "row", 7).unwrap();
        let s1r = stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
            .unwrap();
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        assert_eq!(s2r.chain.len(), 2, "only start and end points");
        assert_eq!(s2r.strips, 1);
    }
}

#[cfg(test)]
mod orthogonal_tests {
    use super::*;
    use crate::config::{PipelineConfig, SraBackend};
    use crate::stage1;
    use gpu_sim::WorkerPool;
    use seqio::generate::dna;

    /// Orthogonal execution + goal-based matching: stage 2 processes far
    /// fewer cells than the matrix when the alignment hugs the diagonal
    /// (the strips abort as soon as each crosspoint is found).
    #[test]
    fn stage2_processes_less_than_the_matrix() {
        let a = dna(71, 600);
        let mut b = a.clone();
        for i in (9..b.len()).step_by(41) {
            b[i] = b"ACGT"[(i / 41) % 4];
        }
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1r = stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
            .unwrap();
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        let matrix = (a.len() * b.len()) as u64;
        assert!(
            s2r.cells * 3 < matrix,
            "stage 2 should process a small fraction of the matrix: {} of {matrix}",
            s2r.cells
        );
        // And the area shrinks when more special rows are available.
        let mut cfg_small = PipelineConfig::for_tests();
        cfg_small.sra_bytes = 8 * (b.len() as u64 + 1) * 2; // two rows only
        let mut rows_small =
            LineStore::new(&SraBackend::Memory, cfg_small.sra_bytes, "row", 7).unwrap();
        let s1_small = stage1::run(
            &mut StageContext::new(&a, &b, &cfg_small, &pool),
            &mut rows_small,
            None,
            None,
        )
        .unwrap();
        let mut cols_small =
            LineStore::new(&SraBackend::Memory, cfg_small.sca_bytes, "col", 7).unwrap();
        let s2_small = run(
            &mut StageContext::new(&a, &b, &cfg_small, &pool),
            s1_small.best_score,
            s1_small.end,
            &mut rows_small,
            &mut cols_small,
        )
        .unwrap();
        assert!(
            s2_small.cells >= s2r.cells,
            "fewer special rows must not shrink the processed area ({} vs {})",
            s2_small.cells,
            s2r.cells
        );
    }
}
