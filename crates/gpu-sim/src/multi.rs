//! Multi-device execution — the paper's closing future-work item
//! ("extend the tests to even more powerful GPUs, including systems with
//! dual cards").
//!
//! The approach CUDAlign's follow-on versions took (and the one simulated
//! here) splits the DP matrix by *columns* across devices: card `d` owns a
//! contiguous column slice and hands its right border (`H`/`E` plus the
//! diagonal corner), rows at a time, to card `d + 1`. That is one strip of
//! the column-strip scheduler, so a split run is a strip run with one
//! [`StripPlan`] strip per card: the strip hand-off stands in for the PCIe
//! transfer a real dual-card setup pays for, and the exchange it would
//! carry is counted from the layout.

use crate::exec::{ExecError, WorkerPool};
use crate::grid::GridSpec;
use crate::kernel::CellHF;
use crate::wavefront::{self, Launch, NoObserver, RegionJob, StripPlan};
use sw_core::scoring::Score;

/// Outcome of a multi-device launch.
#[derive(Debug, Clone)]
pub struct MultiDeviceResult {
    /// Best cell (local mode), with the shared tie-break rule.
    pub best: Option<(Score, usize, usize)>,
    /// Total cells processed.
    pub cells: u64,
    /// Cells processed per card: `m` times its column slice. Slices are
    /// whole block columns and differ by at most one block column.
    pub per_device_cells: Vec<u64>,
    /// Border cells exchanged between cards (the inter-GPU traffic:
    /// `m x (cards - 1)` `H`/`E` pairs).
    pub exchanged_cells: u64,
    /// Final horizontal bus (last row per column), identical to the
    /// single-device engine's.
    pub hbus: Vec<CellHF>,
}

/// Run a region split across `cards` simulated cards on a shared
/// [`WorkerPool`]: one strip per card, on [`wavefront::launch`].
///
/// A card owns at least one block column, so the grid gets at least
/// `cards` of them (fewer when the region is too narrow for that many,
/// [`GridSpec::effective_blocks`]; the surplus cards then sit idle).
/// Results are bit-identical to the single-device engine; global mode is
/// supported with forward and reverse origins.
pub fn run_split(
    pool: &WorkerPool,
    job: &RegionJob<'_>,
    cards: usize,
) -> Result<MultiDeviceResult, ExecError> {
    let grid = GridSpec { blocks: job.grid.blocks.max(cards), ..job.grid };
    let job = RegionJob { grid, ..*job };
    let layout = grid.layout(job.a.len(), job.b.len());
    let plan = StripPlan::balanced(layout.block_cols, cards);
    let m = layout.m as u64;
    let per_device_cells = plan
        .bounds
        .windows(2)
        .map(|w| {
            let (start, _) = layout.col_range(w[0]);
            let (_, end) = layout.col_range(w[1] - 1);
            m * (end + 1).saturating_sub(start) as u64
        })
        .collect();
    let exchanged_cells = m * (plan.strips() as u64 - 1);
    let opts = Launch { plan: Some(plan), ..Launch::default() };
    let res = wavefront::launch(pool, &job, &mut NoObserver, opts)?;
    Ok(MultiDeviceResult {
        best: res.best,
        cells: res.cells,
        per_device_cells,
        exchanged_cells,
        hbus: res.hbus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Mode;
    use crate::wavefront::run_pooled;
    use seqio::generate::dna;
    use sw_core::scoring::Scoring;
    use sw_core::transcript::EdgeState as ES;

    fn job<'a>(a: &'a [u8], b: &'a [u8], mode: Mode) -> RegionJob<'a> {
        RegionJob {
            a,
            b,
            scoring: Scoring::paper(),
            mode,
            grid: GridSpec::small(),
            workers: 1,
            watch: None,
        }
    }

    fn single(pool: &WorkerPool, job: &RegionJob<'_>) -> wavefront::RegionResult {
        run_pooled(pool, job, &mut NoObserver).unwrap()
    }

    #[test]
    fn split_matches_single_device_local() {
        let a = dna(1, 400);
        let mut b = a.clone();
        for i in (3..b.len()).step_by(29) {
            b[i] = b"ACGT"[i % 4];
        }
        let single = single(&WorkerPool::new(1), &job(&a, &b, Mode::Local));
        // One lane runs the cards' strips in turn; three lanes hand the
        // borders across threads.
        for lanes in [1usize, 3] {
            let pool = WorkerPool::new(lanes);
            let j = RegionJob { workers: lanes, ..job(&a, &b, Mode::Local) };
            for devices in [1usize, 2, 3, 5] {
                let multi = run_split(&pool, &j, devices).unwrap();
                assert_eq!(multi.best, single.best, "{devices} devices");
                assert_eq!(multi.hbus, single.hbus, "{devices} devices");
                assert_eq!(multi.cells, (a.len() * b.len()) as u64);
                assert_eq!(multi.per_device_cells.len(), devices);
                assert_eq!(multi.exchanged_cells, (a.len() * (devices - 1)) as u64);
            }
        }
    }

    #[test]
    fn split_matches_single_device_global_and_reverse() {
        let pool = WorkerPool::new(1);
        let a = dna(5, 250);
        let b = dna(6, 300);
        let sc = Scoring::paper();
        for mode in [
            Mode::global(ES::Diagonal),
            Mode::global(ES::GapS1),
            Mode::global_reverse(ES::Diagonal, &sc),
            Mode::global_reverse(ES::GapS1, &sc),
        ] {
            let j = job(&a, &b, mode);
            let single = single(&pool, &j);
            let multi = run_split(&pool, &j, 3).unwrap();
            assert_eq!(multi.hbus, single.hbus, "{mode:?}");
        }
    }

    #[test]
    fn work_is_balanced() {
        let pool = WorkerPool::new(1);
        let a = dna(7, 300);
        let b = dna(8, 301);
        let multi = run_split(&pool, &job(&a, &b, Mode::Local), 4).unwrap();
        let min = multi.per_device_cells.iter().min().unwrap();
        let max = multi.per_device_cells.iter().max().unwrap();
        assert!(max - min <= a.len() as u64, "unbalanced: {:?}", multi.per_device_cells);
    }

    #[test]
    fn degenerate_regions() {
        let pool = WorkerPool::new(1);
        let multi = run_split(&pool, &job(b"", b"ACG", Mode::Local), 2).unwrap();
        assert_eq!(multi.cells, 0);
        let multi2 = run_split(&pool, &job(b"ACG", b"", Mode::Local), 2).unwrap();
        assert_eq!(multi2.cells, 0);
        // More devices than columns clamps.
        let a = dna(9, 10);
        let multi3 = run_split(&pool, &job(&a, &a, Mode::Local), 64).unwrap();
        let single = single(&pool, &job(&a, &a, Mode::Local));
        assert_eq!(multi3.best, single.best);
    }
}
