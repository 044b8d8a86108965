//! Stage 3 — splitting partitions (Section IV-D).
//!
//! Each partition produced by Stage 2 is refined with the special columns
//! its strip saved: a forward wavefront runs from the partition's start
//! crosspoint, column-band by column-band; whenever the band's last block
//! column (the special column) completes, the goal-based matching
//! procedure compares the forward `H`/`E` values against the stored
//! *reverse* values and yields a crosspoint, from which the next band
//! restarts. Once the partition's last special column is intercepted, no
//! further computation is needed — the next crosspoint is the partition's
//! own end point.
//!
//! As in the paper, parallelism is exploited *inside* each band (the
//! wavefront engine); partitions are visited in order.

use crate::config::PipelineConfig;
use crate::crosspoint::{Crosspoint, CrosspointChain, Partition};
use crate::obs::Event;
use crate::pipeline::{StageContext, StageError};
use crate::sra::LineStore;
use crate::stage2::gap_run_from;
use gpu_sim::wavefront::{self, RegionJob};
use gpu_sim::{BlockCoords, CellHE, CellHF, GlobalOrigin, Mode, TileOutcome, WorkerPool};
use std::ops::ControlFlow;
use sw_core::scoring::Score;
use sw_core::transcript::EdgeState;

/// Outcome of Stage 3.
#[derive(Debug, Clone)]
pub struct Stage3Result {
    /// The refined chain (the paper's `L_3`).
    pub chain: CrosspointChain,
    /// DP cells processed (`Cells_3`).
    pub cells: u64,
    /// Peak bus memory across bands (`VRAM_3`).
    pub vram_bytes: u64,
    /// Smallest effective block count across bands (the paper's `B_3`
    /// after the minimum-size-requirement reduction).
    pub min_blocks: usize,
    /// Special columns skipped because their stored line failed
    /// validation on read-back. The partition simply is not split at a
    /// skipped column — coarser, never wrong.
    pub skipped_columns: u64,
    /// Precision-ladder outcome counters for this stage's tiles.
    pub paths: gpu_sim::kernel::PathCounts,
    /// Query-profile cache hits during this stage.
    pub profile_hits: u64,
    /// Query-profile cache misses (profile bands built) during this stage.
    pub profile_misses: u64,
}

struct BandObserver<'a> {
    /// Stored reverse column (origin row, cells) bounding the band.
    rev_col: &'a [CellHE],
    rev_origin: usize,
    col: usize,
    goal_rel: Score,
    gopen: Score,
    cur: Crosspoint,
    found: Option<Crosspoint>,
}

impl gpu_sim::WavefrontObserver for BandObserver<'_> {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        _outcome: &TileOutcome,
        _bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        if !block.last_block_col {
            return ControlFlow::Continue(());
        }
        // The band's right bus holds forward (H, E) on the special column.
        // lint: allow(cancel-coverage): bounded scan of one block's right bus; the engine polls cancellation between blocks
        for (k, cell) in right.iter().enumerate() {
            let i = self.cur.i + block.rows.0 + k;
            let rev = self.rev_col[i - self.rev_origin];
            let h_total = cell.h + rev.h;
            if h_total == self.goal_rel {
                self.found = Some(Crosspoint {
                    i,
                    j: self.col,
                    score: self.cur.score + cell.h,
                    edge: EdgeState::Diagonal,
                });
                return ControlFlow::Break(());
            }
            let g_total = cell.e + rev.e + self.gopen;
            if g_total == self.goal_rel {
                self.found = Some(Crosspoint {
                    i,
                    j: self.col,
                    score: self.cur.score + cell.e,
                    edge: EdgeState::GapS0,
                });
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    /// The band reads only the right borders of its last block column,
    /// which every schedule delivers in row order (each block follows the
    /// one above it), so the first match, the crosspoint, is the same on
    /// all of them. One lane then takes the banded walk.
    fn needs_diagonal_order(&self) -> bool {
        false
    }
}

/// Refine one partition with its stored special columns; returns the new
/// interior crosspoints and the cells processed.
#[allow(clippy::too_many_arguments)]
fn refine_partition(
    s0: &[u8],
    s1: &[u8],
    cfg: &PipelineConfig,
    pool: &WorkerPool,
    p: &Partition,
    cols: &LineStore<CellHE>,
    vram: &mut u64,
    min_blocks: &mut usize,
    skipped: &mut u64,
    paths: &mut gpu_sim::kernel::PathCounts,
    profile: &mut (u64, u64),
) -> Result<(Vec<Crosspoint>, u64), StageError> {
    let sc = cfg.scoring;
    let gopen = sc.gap_open();
    let inside = cols.lines_between(p.start.j, p.end.j);
    let mut new_points = Vec::with_capacity(inside.len());
    let mut cur = p.start;
    let mut cells = 0u64;

    // lint: allow(cancel-coverage): bounded by the partition's stored special columns; the driver polls cancellation between partitions
    for c in inside {
        debug_assert!(cur.j < c && c < p.end.j);
        // A column whose stored line fails validation (or vanished) is
        // skipped, not fatal: the partition stays unsplit at `c` and the
        // next band just spans further. The store is shared immutably
        // across concurrently refined partitions, so the bad line is
        // counted here and left for the owner to discard.
        let Ok(Some((rev_origin, rev_cells))) = cols.get(c) else {
            *skipped += 1;
            continue;
        };
        let goal_rel = p.end.score - cur.score;
        let origin = GlobalOrigin::forward(cur.edge);

        // Upfront border check: the path may cross column `c` at row
        // `cur.i` via a pure horizontal run (the band's row-0 border).
        let run = gap_run_from(origin.e0, origin.h0, c - cur.j, &sc);
        let rev = rev_cells[cur.i - rev_origin];
        let border_cross = if run + rev.h == goal_rel {
            Some(Crosspoint { i: cur.i, j: c, score: cur.score + run, edge: EdgeState::Diagonal })
        } else if run + rev.e + gopen == goal_rel {
            Some(Crosspoint { i: cur.i, j: c, score: cur.score + run, edge: EdgeState::GapS0 })
        } else {
            None
        };
        if let Some(cp) = border_cross {
            new_points.push(cp);
            cur = cp;
            continue;
        }

        let a_band = &s0[cur.i..p.end.i];
        let b_band = &s1[cur.j..c];
        let mut obs = BandObserver {
            rev_col: &rev_cells,
            rev_origin,
            col: c,
            goal_rel,
            gopen,
            cur,
            found: None,
        };
        let job = RegionJob {
            a: a_band,
            b: b_band,
            scoring: sc,
            mode: Mode::Global { origin },
            grid: cfg.grid23,
            workers: wavefront::region_workers(
                &cfg.grid23.layout(a_band.len(), b_band.len()),
                cfg.workers,
            ),
            watch: None,
        };
        let res = wavefront::run_pooled(pool, &job, &mut obs)?;
        cells += res.cells;
        paths.add(&res.paths);
        profile.0 += res.profile_hits;
        profile.1 += res.profile_misses;
        *vram = (*vram).max(gpu_sim::DeviceModel::bus_bytes(a_band.len(), b_band.len()));
        *min_blocks = (*min_blocks).min(res.layout.block_cols);

        match obs.found {
            Some(cp) => {
                new_points.push(cp);
                cur = cp;
            }
            None => {
                return Err(StageError::GoalNotReached {
                    stage: 3,
                    goal: goal_rel,
                    rows: cur.i..p.end.i,
                    cols: cur.j..c,
                });
            }
        }
    }
    Ok((new_points, cells))
}

/// Run Stage 3 over every partition of the Stage-2 chain.
///
/// By default, partitions are visited in order and parallelism is
/// exploited *inside* each band, as in the paper's evaluated
/// configuration. With [`PipelineConfig::parallel_partitions`] the
/// partitions themselves run concurrently, each on a **single-block**
/// grid — the paper's future-work variant, for which the minimum size
/// requirement vanishes (one block cannot race itself on the buses).
///
/// The partition count and each partition's shape ([`Event::Partitions`],
/// [`Event::Partition`]) are announced from the caller thread before
/// solving starts, so the parallel-partitions mode traces identically to
/// the sequential one. The token is checked before each partition is
/// solved (in both modes), so a cancelled/expired run unwinds with a
/// typed error instead of refining every remaining partition.
pub fn run(
    cx: &mut StageContext<'_, '_>,
    chain: &CrosspointChain,
    cols: &LineStore<CellHE>,
) -> Result<Stage3Result, StageError> {
    let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    let parts: Vec<Partition> = chain.partitions().collect();
    obs.emit(Event::Partitions { stage: 3, count: parts.len() });
    for (k, p) in parts.iter().enumerate() {
        ctrl.check(0)?;
        obs.emit(Event::Partition {
            stage: 3,
            index: k,
            height: p.end.i - p.start.i,
            width: p.end.j - p.start.j,
        });
    }
    let workers = pool.lanes_for(cfg.workers);

    // Per-partition outputs, merged in order afterwards.
    type PartOut = Result<
        (Vec<Crosspoint>, u64, u64, usize, u64, gpu_sim::kernel::PathCounts, (u64, u64)),
        StageError,
    >;
    let mut outputs: Vec<Option<PartOut>> = vec![None; parts.len()];

    let solve = |p: &Partition, cfg: &PipelineConfig| -> PartOut {
        // Stage-1 checkpoints are gone by now; resume restarts the
        // pipeline from scratch, hence diagonal 0.
        ctrl.check(0)?;
        let mut vram = 0u64;
        let mut min_blocks = cfg.grid23.blocks;
        let mut skipped = 0u64;
        let mut paths = gpu_sim::kernel::PathCounts::default();
        let mut profile = (0u64, 0u64);
        let (pts, cells) = refine_partition(
            s0,
            s1,
            cfg,
            pool,
            p,
            cols,
            &mut vram,
            &mut min_blocks,
            &mut skipped,
            &mut paths,
            &mut profile,
        )?;
        Ok((pts, cells, vram, min_blocks, skipped, paths, profile))
    };

    if cfg.parallel_partitions && parts.len() > 1 && workers > 1 {
        // One block per partition; the engine itself runs sequentially
        // (`workers = 1` bands spawn a single pool job each) so the
        // partition fan-out owns all the parallelism. The partition jobs
        // and the band jobs they spawn share the same pool: the nested
        // scopes participate in draining the queue, so a pool narrower
        // than the partition count cannot deadlock.
        let mut part_cfg = cfg.clone();
        part_cfg.grid23.blocks = 1;
        part_cfg.workers = 1;
        let chunk = parts.len().div_ceil(workers.min(parts.len()));
        let solve = &solve;
        let part_cfg = &part_cfg;
        pool.scope(|s| {
            // lint: allow(cancel-coverage): bounded spawn fan-out (one task per worker chunk); each solve() polls RunControl
            for (ps, out) in parts.chunks(chunk).zip(outputs.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (k, p) in ps.iter().enumerate() {
                        out[k] = Some(solve(p, part_cfg));
                    }
                });
            }
        })?;
    } else {
        // lint: allow(cancel-coverage): solve() polls RunControl at the top of every partition
        for (k, p) in parts.iter().enumerate() {
            outputs[k] = Some(solve(p, cfg));
        }
    }

    let mut points: Vec<Crosspoint> = Vec::new();
    let mut cells = 0u64;
    let mut vram = 0u64;
    let mut min_blocks = cfg.grid23.blocks;
    let mut skipped_columns = 0u64;
    let mut paths = gpu_sim::kernel::PathCounts::default();
    let mut profile_hits = 0u64;
    let mut profile_misses = 0u64;
    if !chain.is_empty() {
        points.push(chain.points()[0]);
    }
    for (p, out) in parts.iter().zip(outputs) {
        ctrl.check(0)?;
        let (new_points, c, v, b, s, p_d, prof) =
            out.ok_or_else(|| StageError::Logic("stage 3 partition task never ran".into()))??;
        cells += c;
        vram = vram.max(v);
        min_blocks = min_blocks.min(b);
        skipped_columns += s;
        paths.add(&p_d);
        profile_hits += prof.0;
        profile_misses += prof.1;
        points.extend(new_points);
        points.push(p.end);
    }

    let chain = CrosspointChain::new(points);
    chain.validate()?;
    Ok(Stage3Result {
        chain,
        cells,
        vram_bytes: vram,
        min_blocks,
        skipped_columns,
        paths,
        profile_hits,
        profile_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SraBackend;
    use crate::{stage1, stage2};
    use seqio::generate::edited_pair;
    use sw_core::full::nw_global_typed;
    use sw_core::Scoring;

    fn run_stages(a: &[u8], b: &[u8]) -> (CrosspointChain, Stage3Result) {
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1r =
            stage1::run(&mut StageContext::new(a, b, &cfg, &pool), &mut rows, None, None).unwrap();
        assert!(s1r.best_score > 0);
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = stage2::run(
            &mut StageContext::new(a, b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        let s3r = run(&mut StageContext::new(a, b, &cfg, &pool), &s2r.chain, &cols).unwrap();
        (s2r.chain, s3r)
    }

    #[test]
    fn stage3_adds_crosspoints_and_keeps_ends() {
        let (a, b) = edited_pair(1, 400, 17);
        let (l2, s3r) = run_stages(&a, &b);
        assert!(s3r.chain.len() >= l2.len(), "stage 3 must not lose crosspoints");
        assert_eq!(s3r.chain.points()[0], l2.points()[0]);
        assert_eq!(s3r.chain.points().last(), l2.points().last());
        s3r.chain.validate().unwrap();
    }

    #[test]
    fn every_partition_score_is_its_global_alignment_score() {
        let (a, b) = edited_pair(2, 350, 17);
        let (_, s3r) = run_stages(&a, &b);
        for p in s3r.chain.partitions() {
            let (sub_a, sub_b) = p.slices(&a, &b);
            let (g, _) = nw_global_typed(sub_a, sub_b, &Scoring::paper(), p.start.edge, p.end.edge);
            assert_eq!(g, p.score(), "partition {:?}", (p.start, p.end));
        }
    }

    #[test]
    fn stage3_reduces_partition_width() {
        let (a, b) = edited_pair(3, 500, 17);
        let (l2, s3r) = run_stages(&a, &b);
        if s3r.chain.len() > l2.len() {
            assert!(s3r.chain.w_max() <= l2.w_max());
        }
    }

    #[test]
    fn no_columns_means_chain_unchanged() {
        let (a, b) = edited_pair(4, 120, 17);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1r = stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
            .unwrap();
        let mut cols = LineStore::new(&SraBackend::Memory, 0, "col", 7).unwrap();
        let s2r = stage2::run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        let s3r = run(&mut StageContext::new(&a, &b, &cfg, &pool), &s2r.chain, &cols).unwrap();
        assert_eq!(s3r.chain.points(), s2r.chain.points());
        assert_eq!(s3r.cells, 0);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::config::SraBackend;
    use crate::{stage1, stage2};
    use seqio::generate::dna;

    /// The parallel-partitions future-work mode produces the same chain
    /// as the paper's sequential configuration.
    #[test]
    fn parallel_partitions_match_sequential() {
        let a = dna(31, 600);
        let mut b = a.clone();
        for i in (5..b.len()).step_by(13) {
            b[i] = b"ACGT"[(i / 13) % 4];
        }
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(4);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1r = stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
            .unwrap();
        let mut cols = LineStore::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = stage2::run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            s1r.best_score,
            s1r.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();

        let seq = run(&mut StageContext::new(&a, &b, &cfg, &pool), &s2r.chain, &cols).unwrap();
        let mut par_cfg = cfg.clone();
        par_cfg.parallel_partitions = true;
        par_cfg.workers = 4;
        let par = run(&mut StageContext::new(&a, &b, &par_cfg, &pool), &s2r.chain, &cols).unwrap();
        assert_eq!(par.chain.points(), seq.chain.points());
        // Cell counts may differ: a single-block band aborts at a coarser
        // granularity than a multi-block one. Same order of magnitude.
        assert!(par.cells <= 2 * seq.cells + 1000 && seq.cells <= 2 * par.cells + 1000);
    }
}
