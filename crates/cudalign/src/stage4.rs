//! Stage 4 — Myers-Miller with balanced splitting and orthogonal
//! execution (Section IV-E).
//!
//! Every partition larger than the *maximum partition size* is split at a
//! midpoint found by the matching procedure, iteratively, until all
//! partitions fit. Both halves of a split run on the tile kernel
//! ([`kernel::compute`] at [`Rung::Auto`]), which is bit-identical to the
//! scalar DP, so the matching sees exactly the vectors the scalar
//! `sw_core::linear` reference computes. The forward half is one global
//! tile whose bottom bus is `CC`/`DD`; the reverse half runs on the
//! reversed slices, whose bottom bus is `RR`/`SS` read right to left. Two
//! optimizations:
//!
//! * **Balanced splitting** — split the *larger* dimension of each
//!   partition (middle row or middle column) instead of always the middle
//!   row, so narrow partitions do not keep their disproportionate
//!   dimension across iterations (Figure 10).
//! * **Orthogonal execution** — the forward half is computed fully; the
//!   reverse half is streamed in column chunks from the right, and the
//!   sweep stops after the first chunk holding a column whose combined
//!   score reaches the partition's (known) score — the same column a
//!   per-column sweep stops at. On average only about half the reverse
//!   half is processed, a ~25 % saving overall (Table IX).
//!
//! Partitions are independent and processed in parallel; each lane keeps
//! one `Lane` of buffers and query profiles across its partitions.

use crate::crosspoint::{Crosspoint, CrosspointChain, Partition};
use crate::obs::Event;
use crate::pipeline::{StageContext, StageError};
use gpu_sim::kernel::{self, CellHE, CellHF, GlobalOrigin, PathCounts, Rung, Tile};
use gpu_sim::striped::ProfileCache;
use sw_core::matching::{match_argmax, GoalMatcher, MatchPoint};
use sw_core::scoring::{Score, Scoring};
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
    /// Kernel tiles per precision-ladder outcome (both halves of every
    /// split).
    pub paths: PathCounts,
    /// Query-profile cache hits over all lanes.
    pub profile_hits: u64,
    /// Query-profile cache misses over all lanes.
    pub profile_misses: u64,
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

/// One lane's buffers, kept across every split the lane performs so a
/// split allocates nothing once they have grown to the largest partition.
#[derive(Default)]
struct Lane {
    /// The reverse half's rows and the partition's columns, reversed.
    a_rev: Vec<u8>,
    b_rev: Vec<u8>,
    /// Horizontal and vertical bus of the half being computed.
    top: Vec<CellHF>,
    left: Vec<CellHE>,
    /// Forward vectors `CC`/`DD`, and the reverse `RR`/`SS` of classic
    /// mode, indexed by forward column `0..=w`.
    cc: Vec<Score>,
    dd: Vec<Score>,
    rr: Vec<Score>,
    ss: Vec<Score>,
    cache: ProfileCache,
    paths: PathCounts,
}

/// Size the buses to `rows` x `cols` and fill them with the global
/// borders of `origin`; returns the corner.
fn borders(
    top: &mut Vec<CellHF>,
    left: &mut Vec<CellHE>,
    rows: usize,
    cols: usize,
    sc: &Scoring,
    origin: GlobalOrigin,
) -> Score {
    top.resize(cols, CellHF::UNREACHABLE);
    left.resize(rows, CellHE::UNREACHABLE);
    kernel::fill_global_borders(top, left, sc, origin)
}

/// Split rows of the (sub)problem `a x b` with the given edge states and
/// known optimal score. Returns the split row, the matched point (`None`
/// when no column reaches `score`) and the cells computed.
#[allow(clippy::too_many_arguments)] // one split: sequences, edges, goal, mode and the lane
fn split_rows(
    lane: &mut Lane,
    a: &[u8],
    b: &[u8],
    sc: &Scoring,
    start: EdgeState,
    end: EdgeState,
    score: Score,
    orthogonal: bool,
) -> (usize, Option<MatchPoint>, u64) {
    let (h, w) = (a.len(), b.len());
    debug_assert!(h >= 2);
    let (mid, h2) = (h / 2, h - h / 2);
    let Lane { a_rev, b_rev, top, left, cc, dd, rr, ss, cache, paths } = lane;

    // Forward half: CC/DD are the bottom bus; column 0 is the left
    // border's last cell, where H equals the F-run.
    let corner = borders(top, left, mid, w, sc, GlobalOrigin::forward(start));
    let border = left[mid - 1].h;
    let tile = Tile { corner, ..Tile::new(&a[..mid], b, sc) };
    let out = kernel::compute(&tile, Rung::Auto, top, left, cache, &[], &mut []);
    paths.count(out.path);
    let mut cells = out.cells;
    cc.clear();
    cc.push(border);
    cc.extend(top.iter().map(|c| c.h));
    dd.clear();
    dd.push(border);
    dd.extend(top.iter().map(|c| c.f));

    // Reverse half: the reversed problem's column `c` (0-based) is the
    // forward column `w - 1 - c`, and its column 0 is forward column `w`.
    a_rev.clear();
    a_rev.extend(a[mid..].iter().rev());
    b_rev.clear();
    b_rev.extend(b.iter().rev());
    let mut corner = borders(top, left, h2, w, sc, GlobalOrigin::reverse(end, sc));
    let border = left[h2 - 1].h;
    let hit = if orthogonal {
        let mut matcher = GoalMatcher::new(cc, dd, sc, score);
        let mut hit = matcher.offer(w, border, border);
        // Chunks as wide as the reverse half is tall. A near-diagonal path
        // through a balanced partition crosses the split row about `h2`
        // columns from its right edge, so the first chunk usually holds the
        // goal column. Narrower chunks pay the call's fixed cost (border
        // conversion, profile lookup) more often, wider ones compute
        // columns past the goal.
        let step = h2;
        let mut c0 = 0;
        // lint: allow(cancel-coverage): bounded by the partition's width (one kernel call per chunk); the round loop in the driver polls cancellation
        while hit.is_none() && c0 < w {
            let c1 = (c0 + step).min(w);
            // The next chunk's corner is this chunk's last top-border H,
            // which the call below overwrites.
            let next_corner = top[c1 - 1].h;
            let tile = Tile {
                b: &b_rev[c0..c1],
                col_offset: c0 + 1,
                corner,
                ..Tile::new(a_rev, b_rev, sc)
            };
            let out =
                kernel::compute(&tile, Rung::Auto, &mut top[c0..c1], left, cache, &[], &mut []);
            paths.count(out.path);
            cells += out.cells;
            hit = (c0..c1).find_map(|c| matcher.offer(w - 1 - c, top[c].h, top[c].f));
            corner = next_corner;
            c0 = c1;
        }
        hit
    } else {
        let tile = Tile { corner, ..Tile::new(a_rev, b_rev, sc) };
        let out = kernel::compute(&tile, Rung::Auto, top, left, cache, &[], &mut []);
        paths.count(out.path);
        cells += out.cells;
        rr.clear();
        rr.extend(top.iter().rev().map(|c| c.h));
        rr.push(border);
        ss.clear();
        ss.extend(top.iter().rev().map(|c| c.f));
        ss.push(border);
        let mp = match_argmax(cc, dd, rr, ss, sc);
        (mp.total == score).then_some(mp)
    };
    (mid, hit, cells)
}

/// Compute the midpoint crosspoint of one partition and the cells spent.
fn split_partition(
    lane: &mut Lane,
    s0: &[u8],
    s1: &[u8],
    sc: &Scoring,
    p: &Partition,
    orthogonal: bool,
    balanced: bool,
) -> Result<(Crosspoint, u64), StageError> {
    let (a, b) = p.slices(s0, s1);
    let split_rows_first = if balanced { p.height() >= p.width() } else { true };
    // A dimension of length < 2 cannot be halved; fall back to the other.
    let use_rows = if split_rows_first { p.height() >= 2 } else { p.width() < 2 };
    let missed = || StageError::GoalNotReached {
        stage: 4,
        goal: p.score(),
        rows: p.start.i..p.end.i,
        cols: p.start.j..p.end.j,
    };

    if use_rows {
        let (mid, hit, cells) =
            split_rows(lane, a, b, sc, p.start.edge, p.end.edge, p.score(), orthogonal);
        let mp = hit.ok_or_else(missed)?;
        Ok((
            Crosspoint {
                i: p.start.i + mid,
                j: p.start.j + mp.j,
                score: p.start.score + mp.forward_score,
                edge: mp.state,
            },
            cells,
        ))
    } else {
        // Column split: solve the transposed problem, then transpose the
        // resulting crosspoint (gap types 1 and 2 swap).
        let (mid, hit, cells) = split_rows(
            lane,
            b,
            a,
            sc,
            p.start.edge.transposed(),
            p.end.edge.transposed(),
            p.score(),
            orthogonal,
        );
        let mp = hit.ok_or_else(missed)?;
        Ok((
            Crosspoint {
                i: p.start.i + mp.j,
                j: p.start.j + mid,
                score: p.start.score + mp.forward_score,
                edge: mp.state.transposed(),
            },
            cells,
        ))
    }
}

/// Run Stage 4 until every partition fits `cfg.max_partition_size`.
///
/// Oversized partitions of one iteration are independent, so each
/// iteration fans them out on the shared `pool` (one scope per iteration,
/// one `Lane` per task, kept across iterations; results land in
/// pre-chunked slots and are merged in partition order, so the outcome is
/// independent of the pool width). Each refinement iteration emits an
/// [`Event::Iteration`] record, with per-iteration seconds from the
/// injected clock instead of direct wall-clock reads. The token is checked
/// at every refinement round, so a cancelled/expired run unwinds with a
/// typed error instead of splitting every remaining oversized partition.
/// A split whose matching misses the partition's score is a
/// [`StageError::GoalNotReached`].
pub fn run(
    cx: &mut StageContext<'_, '_>,
    chain: &CrosspointChain,
) -> Result<Stage4Result, StageError> {
    let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    let sc = cfg.scoring;
    let max = cfg.max_partition_size;
    let workers = pool.lanes_for(cfg.workers);
    let (orthogonal, balanced) = (cfg.orthogonal_stage4, cfg.balanced_split);

    let mut points: Vec<Crosspoint> = chain.points().to_vec();
    let mut iterations: Vec<IterationStats> = Vec::new();
    let mut total_cells = 0u64;
    let mut lanes: Vec<Lane> = Vec::new();

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
        let mut results: Vec<Option<Result<(Crosspoint, u64), StageError>>> =
            vec![None; oversized.len()];
        let chunk = oversized.len().div_ceil(workers.min(oversized.len()).max(1));
        let tasks = oversized.len().div_ceil(chunk);
        if lanes.len() < tasks {
            lanes.resize_with(tasks, Lane::default);
        }
        let split = |lane: &mut Lane, pi: usize| {
            split_partition(lane, s0, s1, &sc, &parts[pi], orthogonal, balanced)
        };
        if tasks > 1 {
            pool.scope(|s| {
                let slots = oversized.chunks(chunk).zip(results.chunks_mut(chunk));
                for ((idxs, out), lane) in slots.zip(lanes.iter_mut()) {
                    s.spawn(move || {
                        for (t, &pi) in idxs.iter().enumerate() {
                            out[t] = Some(split(lane, pi));
                        }
                    });
                }
            })?;
        } else {
            for (t, &pi) in oversized.iter().enumerate() {
                results[t] = Some(split(&mut lanes[0], pi));
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
                    .ok_or_else(|| StageError::Logic(format!("partition {pi} task never ran")))??;
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
    let paths = lanes.iter().fold(PathCounts::default(), |mut all, lane| {
        all.add(&lane.paths);
        all
    });
    Ok(Stage4Result {
        chain,
        iterations,
        cells: total_cells,
        paths,
        profile_hits: lanes.iter().map(|l| l.cache.hits()).sum(),
        profile_misses: lanes.iter().map(|l| l.cache.misses()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use gpu_sim::kernel::MIN_LADDER_ROWS;
    use gpu_sim::WorkerPool;
    use proptest::prelude::*;
    use seqio::generate::{dna, edited_pair};
    use sw_core::full::nw_global_typed;
    use sw_core::linear::{forward_vectors, reverse_vectors, RowDp};

    const EDGES: [EdgeState; 3] = [EdgeState::Diagonal, EdgeState::GapS0, EdgeState::GapS1];

    /// The scalar split the kernel split replaces: `RowDp` forward
    /// vectors, then either the per-column transposed reverse sweep
    /// (orthogonal) or full reverse vectors and argmax matching (classic).
    fn reference_split(
        a: &[u8],
        b: &[u8],
        sc: &Scoring,
        start: EdgeState,
        end: EdgeState,
        score: Score,
        orthogonal: bool,
    ) -> (usize, Option<MatchPoint>) {
        let (h, w) = (a.len(), b.len());
        let mid = h / 2;
        let (cc, dd) = forward_vectors(&a[..mid], b, sc, start);
        if !orthogonal {
            let (rr, ss) = reverse_vectors(&a[mid..], b, sc, end);
            let mp = match_argmax(&cc, &dd, &rr, &ss, sc);
            return (mid, (mp.total == score).then_some(mp));
        }
        // View rows are original columns from the right, view columns the
        // reverse half's rows from the bottom.
        let a_t: Vec<u8> = b.iter().rev().copied().collect();
        let b_t: Vec<u8> = a[mid..].iter().rev().copied().collect();
        let h2 = b_t.len();
        let mut dp = RowDp::new_reverse(h2, *sc, end.transposed());
        let mut matcher = GoalMatcher::new(&cc, &dd, sc, score);
        let border = dp.h()[h2];
        let mut hit = matcher.offer(w, border, border);
        for (k, &ch) in a_t.iter().enumerate() {
            if hit.is_some() {
                break;
            }
            dp.step(ch, &b_t);
            hit = matcher.offer(w - (k + 1), dp.h()[h2], dp.e_last());
        }
        (mid, hit)
    }

    /// [`split_partition`] on [`reference_split`].
    fn reference_point(s0: &[u8], s1: &[u8], cfg: &PipelineConfig, p: &Partition) -> Crosspoint {
        let (a, b) = p.slices(s0, s1);
        let rows_first = if cfg.balanced_split { p.height() >= p.width() } else { true };
        let use_rows = if rows_first { p.height() >= 2 } else { p.width() < 2 };
        let sc = &cfg.scoring;
        let orth = cfg.orthogonal_stage4;
        let (start, end) = (p.start.edge, p.end.edge);
        if use_rows {
            let (mid, mp) = reference_split(a, b, sc, start, end, p.score(), orth);
            let mp = mp.unwrap();
            Crosspoint {
                i: p.start.i + mid,
                j: p.start.j + mp.j,
                score: p.start.score + mp.forward_score,
                edge: mp.state,
            }
        } else {
            let (s, e) = (start.transposed(), end.transposed());
            let (mid, mp) = reference_split(b, a, sc, s, e, p.score(), orth);
            let mp = mp.unwrap();
            Crosspoint {
                i: p.start.i + mp.j,
                j: p.start.j + mid,
                score: p.start.score + mp.forward_score,
                edge: mp.state.transposed(),
            }
        }
    }

    /// Stage 4 on [`reference_point`], serially, to the final chain.
    fn reference_chain(
        s0: &[u8],
        s1: &[u8],
        cfg: &PipelineConfig,
        chain: &CrosspointChain,
    ) -> Vec<Crosspoint> {
        let mut points = chain.points().to_vec();
        loop {
            let mut next = vec![points[0]];
            for w in points.windows(2) {
                let p = Partition { start: w[0], end: w[1] };
                if needs_split(&p, cfg.max_partition_size) {
                    next.push(reference_point(s0, s1, cfg, &p));
                }
                next.push(w[1]);
            }
            if next.len() == points.len() {
                return points;
            }
            points = next;
        }
    }

    /// `b` for a split test: a substituted, cyclically stretched or cut
    /// copy of `a` (homologous), or independent DNA (unrelated).
    fn partner(a: &[u8], w: usize, homologous: bool, seed: u64) -> Vec<u8> {
        if !homologous {
            return dna(seed ^ 0x5EED, w);
        }
        let noise = dna(seed ^ 0xB0B, w);
        a.iter()
            .cycle()
            .take(w)
            .zip(&noise)
            .enumerate()
            .map(|(j, (&x, &n))| if j % 11 == 5 { n } else { x })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The kernel split returns the scalar reference's split row and
        /// match for every start/end edge pair, in both modes.
        #[test]
        fn kernel_split_matches_rowdp_reference(
            seed in any::<u64>(),
            shape in 0usize..4,
            h_pick in 0usize..1000,
            w_pick in 1usize..300,
            homologous in any::<bool>(),
        ) {
            // Heights on both sides of twice `MIN_LADDER_ROWS` put the
            // halves on the scalar kernel or on the ladder.
            let h = match shape {
                0 => 2 + h_pick % 30,
                1 => 2 * MIN_LADDER_ROWS - 3 + h_pick % 7,
                _ => 2 + h_pick % 299,
            };
            let w = if shape == 3 { 1 + w_pick % 40 } else { w_pick };
            let a = dna(seed, h);
            let b = partner(&a, w, homologous, seed);
            let sc = Scoring::paper();
            let mut lane = Lane::default();
            for start in EDGES {
                for end in EDGES {
                    let (score, _) = nw_global_typed(&a, &b, &sc, start, end);
                    for orthogonal in [true, false] {
                        let want = reference_split(&a, &b, &sc, start, end, score, orthogonal);
                        let (mid, hit, _) =
                            split_rows(&mut lane, &a, &b, &sc, start, end, score, orthogonal);
                        prop_assert_eq!(
                            (mid, hit),
                            want,
                            "{}x{} {:?}->{:?} orthogonal={}",
                            h,
                            w,
                            start,
                            end,
                            orthogonal
                        );
                    }
                }
            }
        }
    }

    /// On partitions large enough for the ladder, stage 4 reproduces the
    /// reference chain byte for byte in both modes, at 1 and 4 workers.
    #[test]
    fn chain_equals_rowdp_reference_at_ladder_sizes() {
        for (seed, len) in [(8, 700), (9, 300)] {
            let (a, b) = edited_pair(seed, len, 19);
            let chain = whole_chain(&a, &b);
            let pool = WorkerPool::new(4);
            for (orthogonal, balanced) in [(true, true), (false, true), (true, false)] {
                let mut cfg = PipelineConfig::for_tests();
                cfg.orthogonal_stage4 = orthogonal;
                cfg.balanced_split = balanced;
                let want = reference_chain(&a, &b, &cfg, &chain);
                for workers in [1, 4] {
                    cfg.workers = workers;
                    let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
                    assert_eq!(
                        res.chain.points(),
                        &want[..],
                        "len {len}, orthogonal {orthogonal}, balanced {balanced}, {workers} workers"
                    );
                    assert!(res.paths.striped_total() > 0, "no split reached the ladder");
                }
            }
        }
    }

    /// A partition whose recorded score is unreachable fails with the
    /// typed error naming the stage, goal and region.
    #[test]
    fn unreachable_goal_is_a_typed_error() {
        let (a, b) = edited_pair(10, 200, 19);
        let (score, _) =
            nw_global_typed(&a, &b, &Scoring::paper(), EdgeState::Diagonal, EdgeState::Diagonal);
        let chain = CrosspointChain::new(vec![
            Crosspoint::start(0, 0),
            Crosspoint::end(a.len(), b.len(), score + 1),
        ]);
        for orthogonal in [true, false] {
            let mut cfg = PipelineConfig::for_tests();
            cfg.orthogonal_stage4 = orthogonal;
            let pool = WorkerPool::new(cfg.workers);
            let err = run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap_err();
            assert_eq!(
                err,
                StageError::GoalNotReached {
                    stage: 4,
                    goal: score + 1,
                    rows: 0..a.len(),
                    cols: 0..b.len(),
                }
            );
        }
    }

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
