//! Direct layer probes: the kernel and the wavefront engine timed through
//! their public entry points, on the shapes the workload's stage 1 uses.
//! They run in the traced pass only, never inside a timed region.

use gpu_sim::kernel::{compute_tile_cached, local_borders};
use gpu_sim::striped::ProfileCache;
use gpu_sim::wavefront::{run_pooled, NoObserver, RegionJob};
use gpu_sim::{GridSpec, Mode, WorkerPool};
use std::hint::black_box;
use std::time::Instant;
use sw_core::{Score, Scoring};

/// Block rows of each matrix the tile probe sweeps.
const TILE_BANDS: usize = 16;
/// Tile-probe rounds; the median round is reported.
const TILE_ROUNDS: usize = 5;

/// Kernel throughput in MCUPS: `compute_tile_cached` chained across every
/// block column of up to [`TILE_BANDS`] evenly spaced block rows of each
/// pair's stage-1 grid. Each band starts from a fresh local top border,
/// carries its left border tile to tile and keeps one profile cache, as a
/// strip runner walking a block row does, so tiles see the shapes, the
/// score growth and the profile reuse of stage 1 without the engine.
pub fn tile_mcups(pairs: &[(&[u8], &[u8])], grid: &GridSpec, scoring: &Scoring) -> f64 {
    let mut rounds = Vec::with_capacity(TILE_ROUNDS);
    for _ in 0..TILE_ROUNDS {
        let mut cells = 0u64;
        let t = Instant::now();
        for &(a, b) in pairs {
            cells += tile_bands(a, b, grid, scoring);
        }
        rounds.push(cells as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    crate::report::median(&rounds)
}

fn tile_bands(s0: &[u8], s1: &[u8], grid: &GridSpec, scoring: &Scoring) -> u64 {
    let layout = grid.layout(s0.len(), s1.len());
    let bands = TILE_BANDS.min(layout.block_rows);
    let mut cells = 0;
    for k in 0..bands {
        let (r0, r1) = layout.row_range(k * layout.block_rows / bands);
        let a = &s0[r0 - 1..r1];
        let (mut top, mut left, corner) = local_borders(a.len(), s1.len());
        let mut cache = ProfileCache::new();
        for c in 0..layout.block_cols {
            let (c0, c1) = layout.col_range(c);
            let out = compute_tile_cached(
                a,
                &s1[c0 - 1..c1],
                r0,
                c0,
                scoring,
                true,
                None,
                corner,
                &mut top[c0 - 1..c1],
                &mut left,
                &mut cache,
            );
            cells += black_box(out).cells;
        }
    }
    cells
}

/// Engine throughput in MCUPS: `wavefront::run_pooled` over each whole
/// matrix with the workload's grid and worker count, and each matrix's
/// best score for the correctness gate.
pub fn wavefront_mcups(
    pool: &WorkerPool,
    pairs: &[(&[u8], &[u8])],
    grid: &GridSpec,
    scoring: &Scoring,
    workers: usize,
) -> Result<(f64, Vec<Score>), String> {
    let mut cells = 0u64;
    let mut best = Vec::with_capacity(pairs.len());
    let t = Instant::now();
    for &(a, b) in pairs {
        let job = RegionJob {
            a,
            b,
            scoring: *scoring,
            mode: Mode::Local,
            grid: *grid,
            workers,
            watch: None,
        };
        let res =
            run_pooled(pool, &job, &mut NoObserver).map_err(|e| format!("run_pooled: {e}"))?;
        cells += res.cells;
        best.push(res.best.map_or(0, |(s, _, _)| s));
    }
    Ok((cells as f64 / t.elapsed().as_secs_f64() / 1e6, best))
}
