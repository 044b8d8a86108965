//! Stage 4 — Myers-Miller with balanced splitting and orthogonal
//! execution (Section IV-E).
//!
//! Runs on the CPU (as in the paper): every partition larger than the
//! *maximum partition size* is split at a midpoint found by the matching
//! procedure, iteratively, until all partitions fit. Two optimizations:
//!
//! * **Balanced splitting** — split the *larger* dimension of each
//!   partition (middle row or middle column) instead of always the middle
//!   row, so narrow partitions do not keep their disproportionate
//!   dimension across iterations (Figure 10).
//! * **Orthogonal execution** — the forward half is computed fully; the
//!   reverse half is swept *column-wise from the right* and stops at the
//!   first column whose combined score reaches the partition's (known)
//!   score. On average only half the reverse half is processed, a ~25 %
//!   saving overall (Table IX).
//!
//! Partitions are independent and processed in parallel.

use crate::crosspoint::{Crosspoint, CrosspointChain, Partition};
use crate::obs::Event;
use crate::pipeline::{StageContext, StageError};
use sw_core::linear::{forward_vectors, reverse_vectors, RowDp};
use sw_core::matching::{match_argmax, GoalMatcher};
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

/// Per-iteration statistics (the rows of Table IX).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Largest partition height at the start of the iteration.
    pub h_max: usize,
    /// Largest partition width at the start of the iteration.
    pub w_max: usize,
    /// Crosspoints at the start of the iteration.
    pub crosspoints: usize,
    /// DP cells processed by this iteration's splits.
    pub cells: u64,
    /// Wall-clock seconds of this iteration.
    pub seconds: f64,
}

/// Outcome of Stage 4.
#[derive(Debug, Clone)]
pub struct Stage4Result {
    /// The refined chain (`L_4`): every partition fits the maximum
    /// partition size (or has a zero dimension).
    pub chain: CrosspointChain,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
    /// Total DP cells processed.
    pub cells: u64,
}

/// Does this partition still need splitting?
fn needs_split(p: &Partition, max: usize) -> bool {
    if p.height() == 0 || p.width() == 0 {
        // A zero dimension makes the partition a pure gap run: Stage 5
        // solves it in linear time regardless of the other dimension.
        return false;
    }
    p.height() > max || p.width() > max
}

/// Split rows of the (sub)problem `a x b` with the given edge states and
/// known optimal score. Returns `(mid, j_rel, forward_score, state, cells)`.
fn split_rows(
    a: &[u8],
    b: &[u8],
    sc: &Scoring,
    start: EdgeState,
    end: EdgeState,
    score: sw_core::Score,
    orthogonal: bool,
) -> Result<(usize, usize, sw_core::Score, EdgeState, u64), String> {
    let (h, w) = (a.len(), b.len());
    debug_assert!(h >= 2);
    let mid = h / 2;
    let mut cells = (mid as u64) * (w as u64);
    let (cc, dd) = forward_vectors(&a[..mid], b, sc, start);

    if orthogonal {
        // Transposed reverse sweep: view rows are original columns,
        // scanned right-to-left; stop at the first goal hit.
        let a_t: Vec<u8> = b.iter().rev().copied().collect();
        let b_t: Vec<u8> = a[mid..].iter().rev().copied().collect();
        let h2 = b_t.len();
        let mut dp = RowDp::new_reverse(h2, *sc, end.transposed());
        let mut matcher = GoalMatcher::new(&cc, &dd, sc, score);
        // Border column j = w: the pure vertical run along the view's
        // row 0 (H equals E there, which is the original F).
        let border = dp.h()[h2];
        let mut hit = matcher.offer(w, border, border);
        // lint: allow(cancel-coverage): partition is below the stage-4 size cutoff; the round loop in the driver polls cancellation
        for (k, &ch) in a_t.iter().enumerate() {
            if hit.is_some() {
                break;
            }
            dp.step(ch, &b_t);
            cells += h2 as u64;
            let j = w - (k + 1);
            hit = matcher.offer(j, dp.h()[h2], dp.e_last());
        }
        let mp = hit.ok_or_else(|| {
            format!("stage 4 orthogonal sweep missed goal {score} on a {h}x{w} partition")
        })?;
        Ok((mid, mp.j, mp.forward_score, mp.state, cells))
    } else {
        let (rr, ss) = reverse_vectors(&a[mid..], b, sc, end);
        cells += ((h - mid) as u64) * (w as u64);
        let mp = match_argmax(&cc, &dd, &rr, &ss, sc);
        if mp.total != score {
            return Err(format!("stage 4 matching total {} != partition score {score}", mp.total));
        }
        Ok((mid, mp.j, mp.forward_score, mp.state, cells))
    }
}

/// Compute the midpoint crosspoint of one partition.
fn split_partition(
    s0: &[u8],
    s1: &[u8],
    sc: &Scoring,
    p: &Partition,
    orthogonal: bool,
    balanced: bool,
) -> Result<(Crosspoint, u64), String> {
    let (a, b) = p.slices(s0, s1);
    let split_rows_first = if balanced { p.height() >= p.width() } else { true };
    // A dimension of length < 2 cannot be halved; fall back to the other.
    let use_rows = if split_rows_first { p.height() >= 2 } else { p.width() < 2 };

    if use_rows {
        let (mid, j_rel, fwd, state, cells) =
            split_rows(a, b, sc, p.start.edge, p.end.edge, p.score(), orthogonal)?;
        Ok((
            Crosspoint {
                i: p.start.i + mid,
                j: p.start.j + j_rel,
                score: p.start.score + fwd,
                edge: state,
            },
            cells,
        ))
    } else {
        // Column split: solve the transposed problem, then transpose the
        // resulting crosspoint (gap types 1 and 2 swap).
        let (mid, j_rel, fwd, state, cells) = split_rows(
            b,
            a,
            sc,
            p.start.edge.transposed(),
            p.end.edge.transposed(),
            p.score(),
            orthogonal,
        )?;
        Ok((
            Crosspoint {
                i: p.start.i + j_rel,
                j: p.start.j + mid,
                score: p.start.score + fwd,
                edge: state.transposed(),
            },
            cells,
        ))
    }
}

/// Run Stage 4 until every partition fits `cfg.max_partition_size`.
///
/// Oversized partitions of one iteration are independent, so each
/// iteration fans them out on the shared `pool` (one scope per iteration;
/// results land in pre-chunked slots and are merged in partition order, so
/// the outcome is independent of the pool width). Each refinement
/// iteration emits an [`Event::Iteration`] record, with per-iteration
/// seconds from the injected clock instead of direct wall-clock reads.
/// The token is checked at every refinement round, so a cancelled/expired
/// run unwinds with a typed error instead of splitting every remaining
/// oversized partition.
pub fn run(
    cx: &mut StageContext<'_, '_>,
    chain: &CrosspointChain,
) -> Result<Stage4Result, StageError> {
    let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    let sc = cfg.scoring;
    let max = cfg.max_partition_size;
    let workers = pool.lanes_for(cfg.workers);

    let mut points: Vec<Crosspoint> = chain.points().to_vec();
    let mut iterations: Vec<IterationStats> = Vec::new();
    let mut total_cells = 0u64;

    for _round in 0..128 {
        // Stage-1 checkpoints are gone by now; resume restarts the
        // pipeline from scratch, hence diagonal 0.
        ctrl.check(0)?;
        let parts: Vec<Partition> =
            points.windows(2).map(|w| Partition { start: w[0], end: w[1] }).collect();
        let oversized: Vec<usize> =
            (0..parts.len()).filter(|&i| needs_split(&parts[i], max)).collect();

        let h_max = parts.iter().map(|p| p.height()).max().unwrap_or(0);
        let w_max = parts.iter().map(|p| p.width()).max().unwrap_or(0);

        if oversized.is_empty() {
            iterations.push(IterationStats {
                h_max,
                w_max,
                crosspoints: points.len(),
                cells: 0,
                seconds: 0.0,
            });
            break;
        }

        let t0 = obs.now();
        let mut results: Vec<Option<Result<(Crosspoint, u64), String>>> =
            vec![None; oversized.len()];
        let chunk = oversized.len().div_ceil(workers.min(oversized.len()).max(1));
        if workers > 1 && oversized.len() > 1 {
            pool.scope(|s| {
                for (idxs, out) in oversized.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    let parts = &parts;
                    s.spawn(move || {
                        for (t, &pi) in idxs.iter().enumerate() {
                            out[t] = Some(split_partition(
                                s0,
                                s1,
                                &sc,
                                &parts[pi],
                                cfg.orthogonal_stage4,
                                cfg.balanced_split,
                            ));
                        }
                    });
                }
            })?;
        } else {
            for (t, &pi) in oversized.iter().enumerate() {
                results[t] = Some(split_partition(
                    s0,
                    s1,
                    &sc,
                    &parts[pi],
                    cfg.orthogonal_stage4,
                    cfg.balanced_split,
                ));
            }
        }

        // Merge midpoints back into the chain, preserving order.
        let mut new_points: Vec<Crosspoint> = Vec::with_capacity(points.len() + oversized.len());
        let mut iter_cells = 0u64;
        let mut next_result = 0usize;
        for (pi, pt) in points.iter().enumerate() {
            new_points.push(*pt);
            if next_result < oversized.len() && oversized[next_result] == pi {
                let (cp, cells) = results[next_result]
                    .take()
                    .ok_or_else(|| StageError::Logic(format!("partition {pi} task never ran")))?
                    .map_err(|e| format!("partition {pi}: {e}"))?;
                new_points.push(cp);
                iter_cells += cells;
                next_result += 1;
            }
        }
        points = new_points;
        total_cells += iter_cells;
        let seconds = obs.now().saturating_sub(t0).as_secs_f64();
        iterations.push(IterationStats {
            h_max,
            w_max,
            crosspoints: points.len(),
            cells: iter_cells,
            seconds,
        });
        obs.emit(Event::Iteration {
            stage: 4,
            index: iterations.len(),
            crosspoints: points.len(),
            cells: iter_cells,
            seconds,
        });
    }

    let chain = CrosspointChain::new(points);
    chain.validate()?;
    Ok(Stage4Result { chain, iterations, cells: total_cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use gpu_sim::WorkerPool;
    use seqio::generate::{dna, edited_pair};
    use sw_core::full::nw_global_typed;

    /// Build a two-point chain covering a global alignment problem.
    fn whole_chain(a: &[u8], b: &[u8]) -> CrosspointChain {
        let (score, _) =
            nw_global_typed(a, b, &Scoring::paper(), EdgeState::Diagonal, EdgeState::Diagonal);
        CrosspointChain::new(vec![
            Crosspoint::start(0, 0),
            Crosspoint::end(a.len(), b.len(), score),
        ])
    }

    fn check_final_chain(a: &[u8], b: &[u8], cfg: &PipelineConfig, res: &Stage4Result) {
        res.chain.validate().unwrap();
        for p in res.chain.partitions() {
            assert!(
                !needs_split(&p, cfg.max_partition_size),
                "oversized partition {:?}",
                (p.start, p.end)
            );
            let (sub_a, sub_b) = p.slices(a, b);
            let (g, _) = nw_global_typed(sub_a, sub_b, &Scoring::paper(), p.start.edge, p.end.edge);
            assert_eq!(g, p.score(), "partition {:?}", (p.start, p.end));
        }
    }

    #[test]
    fn splits_until_all_partitions_fit() {
        let (a, b) = edited_pair(1, 500, 19);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let chain = whole_chain(&a, &b);
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        check_final_chain(&a, &b, &cfg, &res);
        assert!(res.iterations.len() >= 4, "500bp / 16 needs >= 5 halvings");
        // Crosspoint counts grow monotonically.
        for w in res.iterations.windows(2) {
            assert!(w[1].crosspoints >= w[0].crosspoints);
        }
    }

    #[test]
    fn orthogonal_and_classic_agree_on_scores() {
        let (a, b) = edited_pair(2, 300, 19);
        let chain = whole_chain(&a, &b);
        let mut cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        cfg.orthogonal_stage4 = true;
        let res_o = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        cfg.orthogonal_stage4 = false;
        let res_c = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        check_final_chain(&a, &b, &cfg, &res_o);
        check_final_chain(&a, &b, &cfg, &res_c);
        // The orthogonal sweep processes fewer cells.
        assert!(res_o.cells < res_c.cells, "orthogonal {} vs classic {}", res_o.cells, res_c.cells);
    }

    #[test]
    fn balanced_needs_fewer_or_equal_iterations_on_wide_partitions() {
        // A wide, short problem: unbalanced (always middle row) wastes
        // iterations, as in Figure 10.
        let a = dna(3, 64);
        let mut wide_b = a.clone(); // identical => diagonal alignment
        wide_b.extend(dna(4, 900)); // long random tail widens the matrix
        let chain = whole_chain(&a, &wide_b);
        let mut cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        cfg.balanced_split = true;
        let res_b = run(&mut StageContext::new(&a, &wide_b, &cfg, &pool), &chain).unwrap();
        cfg.balanced_split = false;
        let res_u = run(&mut StageContext::new(&a, &wide_b, &cfg, &pool), &chain).unwrap();
        check_final_chain(&a, &wide_b, &cfg, &res_u);
        assert!(
            res_b.iterations.len() <= res_u.iterations.len(),
            "balanced {} vs unbalanced {}",
            res_b.iterations.len(),
            res_u.iterations.len()
        );
    }

    #[test]
    fn already_small_chain_is_untouched() {
        let a = dna(5, 10);
        let chain = whole_chain(&a, &a);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let res = run(&mut StageContext::new(&a, &a, &cfg, &pool), &chain).unwrap();
        assert_eq!(res.chain.points(), chain.points());
        assert_eq!(res.cells, 0);
        assert_eq!(res.iterations.len(), 1);
    }

    #[test]
    fn gap_heavy_partitions_split_correctly() {
        // b = a with a large block deleted: the chain crosses a long
        // vertical gap run; midpoints inside the run carry gap types.
        let a = dna(6, 400);
        let mut b = a.clone();
        b.drain(100..260);
        let chain = whole_chain(&a, &b);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        check_final_chain(&a, &b, &cfg, &res);
        let has_gap_point = res.chain.points().iter().any(|p| p.edge != EdgeState::Diagonal);
        assert!(has_gap_point, "expected gap-typed crosspoints across the deleted block");
    }

    #[test]
    fn single_worker_matches_parallel() {
        let (a, b) = edited_pair(7, 400, 19);
        let chain = whole_chain(&a, &b);
        let mut cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(4);
        cfg.workers = 1;
        let r1 = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        cfg.workers = 4;
        let r4 = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        assert_eq!(r1.chain.points(), r4.chain.points());
    }
}
