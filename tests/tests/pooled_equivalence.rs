//! Pooled execution is observationally identical to serial execution.
//!
//! The persistent worker pool (`gpu_sim::exec::WorkerPool`) replaces the
//! per-diagonal thread spawns of the original engine. These properties
//! pin down the contract the pipeline relies on: for ANY grid geometry
//! and ANY pool width, a pooled launch produces exactly the same scores,
//! endpoints, buses and observer event stream (hence the same special
//! rows) as the single-threaded run.

use gpu_sim::kernel::PathCounts;
use gpu_sim::wavefront::{
    launch, run_pooled, EngineState, Launch, RegionJob, RegionResult, WavefrontObserver,
};
use gpu_sim::{BlockCoords, CellHE, CellHF, GridSpec, Mode, StripPlan, TileOutcome, WorkerPool};
use proptest::prelude::*;
use seqio::generate;
use std::ops::ControlFlow;
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

/// Launch `job` with default options on a pool of its own, `job.workers`
/// lanes wide.
fn run_alone(job: &RegionJob<'_>, observer: &mut dyn WavefrontObserver) -> RegionResult {
    run_pooled(&WorkerPool::new(job.workers), job, observer).expect("no worker panic")
}

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..max_len)
}

/// Sequences long enough that, with a small grid, every tile clears the
/// striped kernel's `LANES x LANES` eligibility floor.
fn dna_long() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 200..600)
}

/// Rows for the striped-kernel property: tall enough that the
/// 64-120-row blocks of [`coarse_grids`] cut 5-38 block rows, so strips
/// hand their borders across several `DEFAULT_BATCH_ROWS` batches.
fn dna_tall() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 600..2400)
}

/// Grids coarse enough that full blocks take the striped rungs:
/// `alpha * threads >= 64` keeps every full block at least
/// `kernel::MIN_LADDER_ROWS` rows high (the ladder commits shorter tiles
/// on the scalar kernel), and at most 4 column groups over >= 200
/// columns of `dna_long` keeps every tile at least 16 columns wide.
fn coarse_grids() -> impl Strategy<Value = GridSpec> {
    (2usize..5, 8usize..13, 8usize..11).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

fn grids() -> impl Strategy<Value = GridSpec> {
    (1usize..8, 1usize..8, 1usize..5).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

/// Tiles counted on any rung: a band counts each of its blocks on the
/// band's rung, so this is the block count whatever the banding.
fn tiles(p: &PathCounts) -> u64 {
    p.striped_total() + p.fallback + p.scalar
}

/// One observer event: block coordinates plus its bottom/right border
/// contents.
type BlockEvent = ((usize, usize), Vec<CellHF>, Vec<CellHE>);

/// Records the full observer event stream, one entry per block. Stage 1
/// assembles special rows from exactly these bottom borders, so equal
/// streams imply byte-equal special rows in the SRA.
#[derive(Default)]
struct Recorder {
    events: Vec<BlockEvent>,
}

impl gpu_sim::WavefrontObserver for Recorder {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        _outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        self.events.push(((block.r, block.c), bottom.to_vec(), right.to_vec()));
        ControlFlow::Continue(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Local mode (stage 1): same best score, same endpoint, same buses,
    /// same observer stream for pool widths 1, 2 and 8.
    #[test]
    fn pooled_local_equals_serial(a in dna(140), b in dna(140), grid in grids()) {
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid, workers: 1, watch: None,
        };
        let mut serial_obs = Recorder::default();
        let serial = run_alone(&serial_job, &mut serial_obs);

        for lanes in [1usize, 2, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let mut obs = Recorder::default();
            let res = run_pooled(&pool, &job, &mut obs).expect("no worker panic");
            prop_assert_eq!(res.best, serial.best, "best, lanes={}", lanes);
            prop_assert_eq!(res.cells, serial.cells, "cells, lanes={}", lanes);
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert_eq!(
                obs.events.len(), serial_obs.events.len(),
                "event count, lanes={}", lanes
            );
            prop_assert!(
                obs.events == serial_obs.events,
                "observer stream diverged with lanes={}", lanes
            );
        }
    }

    /// Global mode (stages 2-3 strips): identical frontier buses.
    #[test]
    fn pooled_global_equals_serial(
        a in dna(120), b in dna(120), grid in grids(),
        start in proptest::sample::select(vec![EdgeState::Diagonal, EdgeState::GapS0, EdgeState::GapS1]),
    ) {
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::global(start),
            grid, workers: 1, watch: None,
        };
        let mut serial_obs = Recorder::default();
        let serial = run_alone(&serial_job, &mut serial_obs);

        for lanes in [2usize, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let mut obs = Recorder::default();
            let res = run_pooled(&pool, &job, &mut obs).expect("no worker panic");
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert!(obs.events == serial_obs.events, "stream, lanes={}", lanes);
        }
    }

    /// A single pool serves many launches of different shapes without its
    /// lane count or queue state leaking between runs: interleaving jobs
    /// on one shared pool gives the same results as fresh pools.
    #[test]
    fn shared_pool_reuse_is_stateless(a in dna(100), b in dna(100), g1 in grids(), g2 in grids()) {
        let pool = WorkerPool::new(4);
        let job1 = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid: g1, workers: 0, watch: None,
        };
        let job2 = RegionJob { grid: g2, ..job1 };
        let first_1 = run_pooled(&pool, &job1, &mut gpu_sim::wavefront::NoObserver).unwrap();
        let first_2 = run_pooled(&pool, &job2, &mut gpu_sim::wavefront::NoObserver).unwrap();
        // Re-run in the opposite order on the same pool.
        let second_2 = run_pooled(&pool, &job2, &mut gpu_sim::wavefront::NoObserver).unwrap();
        let second_1 = run_pooled(&pool, &job1, &mut gpu_sim::wavefront::NoObserver).unwrap();
        prop_assert_eq!(first_1.best, second_1.best);
        prop_assert_eq!(first_1.hbus, second_1.hbus);
        prop_assert_eq!(first_2.best, second_2.best);
        prop_assert_eq!(first_2.hbus, second_2.hbus);
    }
}

/// Grid-shape classes the strip scheduler must handle: the strip count
/// is `min(workers, block_cols)`, so these drive every claiming regime —
/// tall/wide/square grids, a single strip (serial fallback), and strip
/// counts on both sides of the worker count.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Tall,
    Wide,
    Square,
    SingleStrip,
    ManyStrips,
    FewStrips,
}

/// Build one shape-classed case from raw generated knobs. `stretch` in
/// `0..160` scales within each class's length band.
fn shape_case(
    shape: Shape,
    seed: u64,
    stretch: usize,
    blocks_knob: usize,
    threads: usize,
    alpha: usize,
) -> (Vec<u8>, Vec<u8>, GridSpec) {
    let (a_len, b_len, blocks) = match shape {
        // Many block rows, few columns.
        Shape::Tall => (200 + stretch, 30 + stretch / 3, 2 + blocks_knob % 2),
        // Few block rows, many columns.
        Shape::Wide => (30 + stretch / 3, 200 + stretch, 5 + blocks_knob % 3),
        Shape::Square => (100 + stretch / 2, 100 + stretch / 2, 3 + blocks_knob % 3),
        // One block column: the engine must fall back to serial order.
        Shape::SingleStrip => (60 + stretch, 60 + stretch, 1),
        // More strips than any swept worker count below 8.
        Shape::ManyStrips => (40 + stretch / 2, 200 + stretch, 7),
        // Fewer strips than most swept worker counts.
        Shape::FewStrips => (100 + stretch, 60 + stretch / 2, 2),
    };
    let a = generate::dna(seed, a_len);
    let b = generate::dna(seed.rotate_left(17) ^ 0x9E37, b_len);
    (a, b, GridSpec { blocks, threads, alpha })
}

const SHAPES: [Shape; 6] = [
    Shape::Tall,
    Shape::Wide,
    Shape::Square,
    Shape::SingleStrip,
    Shape::ManyStrips,
    Shape::FewStrips,
];

/// Assert a pooled result is byte-identical to the serial baseline in
/// every schedule-independent field, plus the full observer stream.
fn assert_equiv(
    res: &gpu_sim::RegionResult,
    obs: &Recorder,
    serial: &gpu_sim::RegionResult,
    serial_obs: &Recorder,
    tag: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(res.best, serial.best, "best, {}", tag);
    prop_assert_eq!(res.cells, serial.cells, "cells, {}", tag);
    prop_assert_eq!(res.diagonals_run, serial.diagonals_run, "diagonals_run, {}", tag);
    prop_assert_eq!(res.busy_slots, serial.busy_slots, "busy_slots, {}", tag);
    prop_assert_eq!(res.aborted, serial.aborted, "aborted, {}", tag);
    prop_assert_eq!(res.paths, serial.paths, "kernel paths, {}", tag);
    prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, {}", tag);
    prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, {}", tag);
    prop_assert!(obs.events == serial_obs.events, "observer stream diverged, {tag}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The strip scheduler (persistent column-strip ownership with
    /// point-to-point publishes) is observationally identical to the
    /// serial engine for every worker count and grid-shape class.
    #[test]
    fn strip_scheduler_equals_serial_across_workers_and_shapes(
        shape_idx in 0usize..6,
        seed in any::<u64>(),
        stretch in 0usize..160,
        blocks_knob in 0usize..3,
        threads in 1usize..5,
        alpha in 1usize..4,
        local in any::<bool>(),
    ) {
        let (a, b, grid) =
            shape_case(SHAPES[shape_idx], seed, stretch, blocks_knob, threads, alpha);
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode,
            grid, workers: 1, watch: None,
        };
        let mut serial_obs = Recorder::default();
        let serial = run_alone(&serial_job, &mut serial_obs);

        for workers in [1usize, 2, 3, 4, 8] {
            let pool = WorkerPool::new(workers);
            let job = RegionJob { workers, ..serial_job };
            let mut obs = Recorder::default();
            let res = run_pooled(&pool, &job, &mut obs).expect("no worker panic");
            assert_equiv(&res, &obs, &serial, &serial_obs, &format!("workers={workers}"))?;
        }
    }

    /// Explicit strip plans on both sides of the worker count — more
    /// strips than workers (forces whole-strip work stealing) and fewer
    /// strips than workers (idles the surplus) — still reproduce the
    /// serial result exactly.
    #[test]
    fn custom_strip_plans_equal_serial(
        seed in any::<u64>(), stretch in 0usize..160,
        threads in 1usize..5, alpha in 1usize..4,
        batch_rows in 1usize..7,
    ) {
        let a = generate::dna(seed, 60 + stretch / 2);
        let b = generate::dna(seed.rotate_left(31) ^ 0xB5, 200 + stretch);
        let grid = GridSpec { blocks: 7, threads, alpha };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid, workers: 1, watch: None,
        };
        let mut serial_obs = Recorder::default();
        let serial = run_alone(&serial_job, &mut serial_obs);
        let bc = serial.layout.block_cols;

        // strips > workers: 2 workers over a maximally split plan.
        let fine = StripPlan { bounds: (0..=bc).collect(), batch_rows };
        let pool = WorkerPool::new(2);
        let job = RegionJob { workers: 2, ..serial_job };
        let mut obs = Recorder::default();
        let res = launch(&pool, &job, &mut obs, Launch { plan: Some(fine.clone()), ..Launch::default() }).expect("no worker panic");
        let stats = res.strip.clone().expect("strip stats present");
        prop_assert_eq!(stats.strips, bc);
        prop_assert_eq!(
            stats.runner_blocks.iter().sum::<u64>(),
            (serial.layout.block_rows * bc) as u64,
            "every block computed exactly once"
        );
        assert_equiv(&res, &obs, &serial, &serial_obs, "fine plan")?;

        // strips < workers: 8 workers over a two-strip plan; the engine
        // must cap its runners at the strip count.
        if bc >= 2 {
            let coarse = StripPlan { bounds: vec![0, bc / 2, bc], batch_rows };
            let pool = WorkerPool::new(8);
            let job = RegionJob { workers: 8, ..serial_job };
            let mut obs = Recorder::default();
            let res =
                launch(&pool, &job, &mut obs, Launch { plan: Some(coarse.clone()), ..Launch::default() }).expect("no worker panic");
            let stats = res.strip.clone().expect("strip stats present");
            prop_assert_eq!(stats.strips, 2);
            prop_assert_eq!(stats.runner_blocks.len(), 2, "runners capped at strip count");
            assert_equiv(&res, &obs, &serial, &serial_obs, "coarse plan")?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The vectorized (lane-striped) kernel is the default path, so the
    /// pooled-equivalence contract must hold while it is actually
    /// engaged. Sequences here are long and grids coarse, so every full
    /// block clears the ladder's height rule and each strip publishes its
    /// border over several batches; we assert that striped tiles really
    /// occurred and that results are identical between a serial run and
    /// 1-, 2- and 8-lane pools.
    ///
    /// Kernel paths are compared as totals only against the serial
    /// engine: a strip runner computes each publish batch of a block
    /// column as one band, which commits all its blocks on one rung, so
    /// a block can land on another rung than it does alone (results are
    /// identical on every rung). The 2- and 8-lane runs cut identical
    /// bands, so their per-rung counts must match exactly.
    #[test]
    fn pooled_equivalence_holds_with_striped_kernel(
        a in dna_tall(), b in dna_long(), grid in coarse_grids(),
        local in any::<bool>(),
    ) {
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode,
            grid, workers: 1, watch: None,
        };
        let mut serial_obs = Recorder::default();
        let serial = run_alone(&serial_job, &mut serial_obs);
        prop_assert!(
            serial.paths.striped_total() > 0,
            "expected striped tiles with grid {:?} on {}x{}", grid, a.len(), b.len()
        );
        // The paper scoring on zero/Diagonal borders never leaves the
        // i16 window at these lengths, so nothing should fall back.
        prop_assert_eq!(serial.paths.fallback, 0, "unexpected scalar fallback");

        let mut banded_paths = Vec::new();
        for lanes in [1usize, 2, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let mut obs = Recorder::default();
            let res = run_pooled(&pool, &job, &mut obs).expect("no worker panic");
            prop_assert_eq!(res.best, serial.best, "best, lanes={}", lanes);
            prop_assert_eq!(res.cells, serial.cells, "cells, lanes={}", lanes);
            prop_assert_eq!(tiles(&res.paths), tiles(&serial.paths), "path total, lanes={}", lanes);
            if lanes == 1 {
                prop_assert_eq!(res.paths, serial.paths, "kernel paths, lanes=1");
            } else {
                banded_paths.push(res.paths);
            }
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert!(
                obs.events == serial_obs.events,
                "observer stream diverged with lanes={}", lanes
            );
        }
        prop_assert_eq!(banded_paths[0], banded_paths[1], "kernel paths, 2 vs 8 lanes");
    }

    /// Banding is invisible: a plan with `batch_rows = 1` (one block per
    /// kernel call) and the default plan (one band per publish batch of a
    /// block column) give byte-identical observer streams, buses, best and
    /// cells at 2 and 8 lanes, on grids whose blocks all take the ladder.
    #[test]
    fn banded_plan_equals_one_block_per_call(
        a in dna_tall(), b in dna_long(), grid in coarse_grids(),
        local in any::<bool>(),
    ) {
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let bc = grid.layout(a.len(), b.len()).block_cols;
        for lanes in [2usize, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob {
                a: &a, b: &b, scoring: Scoring::paper(), mode,
                grid, workers: lanes, watch: None,
            };
            let banded = StripPlan::balanced(bc, lanes);
            let unbanded = StripPlan { batch_rows: 1, ..banded.clone() };
            let mut runs = Vec::new();
            for plan in [&unbanded, &banded] {
                let mut obs = Recorder::default();
                let res = launch(&pool, &job, &mut obs, Launch { plan: Some(plan.clone()), ..Launch::default() }).expect("no worker panic");
                runs.push((res, obs));
            }
            let ((one, one_obs), (band, band_obs)) = (&runs[0], &runs[1]);
            prop_assert_eq!(band.best, one.best, "best, lanes={}", lanes);
            prop_assert_eq!(band.cells, one.cells, "cells, lanes={}", lanes);
            prop_assert_eq!(tiles(&band.paths), tiles(&one.paths), "path total, lanes={}", lanes);
            prop_assert_eq!(&band.hbus, &one.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&band.vbus, &one.vbus, "vbus, lanes={}", lanes);
            prop_assert!(band_obs.events == one_obs.events, "observer stream, lanes={}", lanes);
        }
    }
}

/// Collects every checkpoint the engine offers, and the block stream.
#[derive(Default)]
struct Snapshots {
    states: Vec<EngineState>,
    events: Vec<BlockEvent>,
}

impl gpu_sim::WavefrontObserver for Snapshots {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        _outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        self.events.push(((block.r, block.c), bottom.to_vec(), right.to_vec()));
        ControlFlow::Continue(())
    }

    fn on_checkpoint(&mut self, state: &EngineState) {
        self.states.push(state.clone());
    }
}

/// A checkpoint whose diagonal splits a band — some blocks of a publish
/// batch of one block column restored, the rest still to compute — must
/// resume at w=2 byte-identically to the uninterrupted run: the resumed
/// runner bands only the unrestored rows. Every diagonal is tried, so the
/// split falls before, inside and after the block holding a band's best.
/// Local (with a planted match, so the best is carried across the split)
/// and global.
#[test]
fn resume_inside_a_band_is_byte_identical() {
    let a = generate::dna(71, 1600);
    let mut b = generate::dna(72, 400);
    b[100..300].copy_from_slice(&a[900..1100]);
    // 64-row blocks: 25 block rows over 4 block columns.
    let grid = GridSpec { blocks: 4, threads: 16, alpha: 4 };
    let batch = gpu_sim::wavefront::DEFAULT_BATCH_ROWS;
    for mode in [Mode::Local, Mode::global(EdgeState::Diagonal)] {
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode,
            grid,
            workers: 2,
            watch: None,
        };
        let pool = WorkerPool::new(2);
        let mut full = Snapshots::default();
        let uninterrupted = launch(
            &pool,
            &job,
            &mut full,
            Launch { checkpoint_every: Some(1), ..Launch::default() },
        )
        .expect("no worker panic");
        assert!(full.states.iter().any(|s| s.next_diagonal % batch != 0), "no band split");
        for snap in &full.states {
            let d = snap.next_diagonal;
            let mut tail = Snapshots::default();
            let resumed = launch(
                &pool,
                &job,
                &mut tail,
                Launch { resume: Some(snap.clone()), ..Launch::default() },
            )
            .expect("no worker panic");
            let what = format!("{mode:?}, resumed at d{d}");
            assert_eq!(resumed.best, uninterrupted.best, "best, {what}");
            assert_eq!(resumed.cells, uninterrupted.cells, "cells, {what}");
            assert_eq!(resumed.busy_slots, uninterrupted.busy_slots, "busy slots, {what}");
            assert_eq!(resumed.hbus, uninterrupted.hbus, "hbus, {what}");
            assert_eq!(resumed.vbus, uninterrupted.vbus, "vbus, {what}");
            let after: Vec<&BlockEvent> =
                full.events.iter().filter(|((r, c), _, _)| r + c >= d).collect();
            assert_eq!(tail.events.len(), after.len(), "resumed block count, {what}");
            assert!(tail.events.iter().zip(after).all(|(x, y)| x == y), "resumed stream, {what}");
        }
    }
}

/// One delivered block: coordinates, outcome and borders.
type Delivered = (BlockCoords, TileOutcome, Vec<CellHF>, Vec<CellHE>);

/// Records every delivered block in delivery order. `ordered` is its
/// answer to `needs_diagonal_order`: `false` lets a serial run take the
/// banded walk. It breaks the launch once `stop_after` blocks arrived.
struct BlockLog {
    ordered: bool,
    stop_after: usize,
    blocks: Vec<Delivered>,
}

impl BlockLog {
    fn new(ordered: bool, stop_after: usize) -> BlockLog {
        BlockLog { ordered, stop_after, blocks: Vec::new() }
    }

    fn order(&self) -> Vec<(usize, usize)> {
        self.blocks.iter().map(|(b, ..)| (b.r, b.c)).collect()
    }
}

impl gpu_sim::WavefrontObserver for BlockLog {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        self.blocks.push((*block, *outcome, bottom.to_vec(), right.to_vec()));
        if self.blocks.len() == self.stop_after {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn needs_diagonal_order(&self) -> bool {
        self.ordered
    }
}

/// The banded walk's delivery order: publish batches of
/// `DEFAULT_BATCH_ROWS` block rows, column by column within a batch, rows
/// ascending within a column. A band that crossed a batch end would
/// deliver a later batch's rows before the next column of this one.
fn walk_order(block_rows: usize, block_cols: usize) -> Vec<(usize, usize)> {
    let batch = gpu_sim::wavefront::DEFAULT_BATCH_ROWS;
    let mut order = Vec::with_capacity(block_rows * block_cols);
    for r0 in (0..block_rows).step_by(batch) {
        for c in 0..block_cols {
            order.extend((r0..(r0 + batch).min(block_rows)).map(|r| (r, c)));
        }
    }
    order
}

/// Lowest diagonal holding a block of `all` not in `seen`, or `none`.
fn lowest_open_diagonal(
    all: &[(usize, usize)],
    seen: &std::collections::HashSet<(usize, usize)>,
    none: usize,
) -> usize {
    all.iter().filter(|rc| !seen.contains(rc)).map(|&(r, c)| r + c).min().unwrap_or(none)
}

/// The delivery contract of any schedule: every block arrives after its
/// upper and left neighbours; the frontier never decreases, and when a
/// block arrives every block of every diagonal below its frontier has
/// arrived before it.
fn check_delivery(
    blocks: &[Delivered],
    layout: &gpu_sim::grid::GridLayout,
) -> Result<(), TestCaseError> {
    let all = walk_order(layout.block_rows, layout.block_cols);
    let mut seen = std::collections::HashSet::new();
    let mut last_front = 0;
    for (b, ..) in blocks {
        let (r, c) = (b.r, b.c);
        prop_assert!(r == 0 || seen.contains(&(r - 1, c)), "({},{}) before its upper block", r, c);
        prop_assert!(c == 0 || seen.contains(&(r, c - 1)), "({},{}) before its left block", r, c);
        prop_assert!(b.frontier >= last_front, "frontier fell to {} at ({},{})", b.frontier, r, c);
        let open = lowest_open_diagonal(&all, &seen, layout.diagonals());
        prop_assert!(
            b.frontier <= open,
            "frontier {} at ({},{}) passes undelivered diagonal {}",
            b.frontier,
            r,
            c,
            open
        );
        last_front = b.frontier;
        prop_assert!(seen.insert((r, c)), "({},{}) delivered twice", r, c);
    }
    Ok(())
}

/// `(threads, alpha)` of the walk property's grids: 16- and 32-row
/// blocks, which run alone on the scalar kernel, and 64- to 120-row
/// blocks, which band.
const WALK_BLOCKS: [(usize, usize); 6] = [(8, 2), (8, 4), (16, 4), (12, 6), (16, 6), (12, 10)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The banded walk (an order-free observer on one lane) against the
    /// diagonal loop (an ordered observer on the same job), local and
    /// global, on grids of short and tall blocks whose last block row is
    /// often shorter and whose block-row count is often not a multiple of
    /// the batch. Each block's record matches, the buses and totals match,
    /// the walk delivers in walk order under the frontier contract, and an
    /// abort at any block reports the frontier as `diagonals_run`.
    #[test]
    fn banded_walk_equals_diagonal_order(
        seed in any::<u64>(),
        shape in 0usize..6,
        full_rows in 1usize..14,
        tail in 0usize..120,
        width in 40usize..400,
        blocks in 1usize..5,
        local in any::<bool>(),
        stop_knob in any::<u64>(),
    ) {
        let (threads, alpha) = WALK_BLOCKS[shape];
        let a = generate::dna(seed, threads * alpha * full_rows + tail % (threads * alpha));
        let b = generate::dna(seed.rotate_left(29) ^ 0x5A, width);
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode,
            grid: GridSpec { blocks, threads, alpha }, workers: 1, watch: None,
        };
        let mut walk = BlockLog::new(false, 0);
        let walked = run_alone(&job, &mut walk);
        let mut canon = BlockLog::new(true, 0);
        let canonical = run_alone(&job, &mut canon);
        let layout = canonical.layout;

        prop_assert!(!walked.aborted && !canonical.aborted);
        prop_assert_eq!(walked.best, canonical.best, "best");
        prop_assert_eq!(walked.cells, canonical.cells, "cells");
        prop_assert_eq!(walked.diagonals_run, canonical.diagonals_run, "diagonals_run");
        prop_assert_eq!(walked.busy_slots, canonical.busy_slots, "busy_slots");
        prop_assert_eq!(tiles(&walked.paths), tiles(&canonical.paths), "path total");
        prop_assert_eq!(&walked.hbus, &canonical.hbus, "hbus");
        prop_assert_eq!(&walked.vbus, &canonical.vbus, "vbus");

        let order = walk_order(layout.block_rows, layout.block_cols);
        prop_assert_eq!(walk.order(), order.clone(), "walk order");
        check_delivery(&walk.blocks, &layout)?;
        check_delivery(&canon.blocks, &layout)?;
        for (bc, ..) in &canon.blocks {
            prop_assert_eq!(bc.frontier, bc.diagonal, "diagonal order's frontier");
        }

        let by_block: std::collections::HashMap<(usize, usize), &Delivered> =
            canon.blocks.iter().map(|d| ((d.0.r, d.0.c), d)).collect();
        for (coords, out, bottom, right) in &walk.blocks {
            let (c2, o2, bottom2, right2) = by_block[&(coords.r, coords.c)];
            let at = (coords.r, coords.c);
            prop_assert_eq!(BlockCoords { frontier: c2.frontier, ..*coords }, *c2, "coords {:?}", at);
            prop_assert_eq!(out.corner_out, o2.corner_out, "corner {:?}", at);
            prop_assert_eq!(out.cells, o2.cells, "cells {:?}", at);
            prop_assert_eq!(out.watch_hit, o2.watch_hit, "watch hit {:?}", at);
            // A band reports its best on the block that holds it, where it
            // is that block's own best too.
            if out.best.is_some() {
                prop_assert_eq!(out.best, o2.best, "best {:?}", at);
            }
            prop_assert!(bottom == bottom2, "bottom {:?}", at);
            prop_assert!(right == right2, "right {:?}", at);
        }

        // Abort at any block: the walk stops there and reports the lowest
        // diagonal that still holds an undelivered block.
        let stop = 1 + (stop_knob % order.len() as u64) as usize;
        let mut cut = BlockLog::new(false, stop);
        let aborted = run_alone(&job, &mut cut);
        prop_assert!(aborted.aborted, "abort at block {}", stop);
        prop_assert_eq!(cut.order(), order[..stop].to_vec(), "aborted stream");
        let seen = order[..stop].iter().copied().collect();
        let front = lowest_open_diagonal(&order, &seen, layout.diagonals());
        prop_assert_eq!(aborted.diagonals_run, front, "diagonals_run at abort {}", stop);
    }
}

/// An observer abort in the middle of a publish batch: 10 block rows of
/// 64 over 3 block columns, stopped at block (5, 1), the second block of
/// the second batch's band in column 1. The run reports the abort and the
/// frontier (diagonal 6: block (4, 2) is the lowest undelivered), and
/// every block it delivered matches the uninterrupted walk.
#[test]
fn walk_abort_mid_batch_reports_the_frontier() {
    let a = generate::dna(91, 640);
    let b = generate::dna(92, 300);
    for mode in [Mode::Local, Mode::global(EdgeState::Diagonal)] {
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode,
            grid: GridSpec { blocks: 3, threads: 16, alpha: 4 },
            workers: 1,
            watch: None,
        };
        let mut full = BlockLog::new(false, 0);
        let _ = run_alone(&job, &mut full);
        let order = walk_order(10, 3);
        let stop = order.iter().position(|&rc| rc == (5, 1)).expect("block (5, 1)") + 1;
        let mut cut = BlockLog::new(false, stop);
        let res = run_alone(&job, &mut cut);
        assert!(res.aborted, "{mode:?}");
        assert_eq!(res.diagonals_run, 6, "{mode:?}");
        assert_eq!(cut.blocks.len(), stop, "{mode:?}");
        for (x, y) in cut.blocks.iter().zip(&full.blocks) {
            assert_eq!(x.0, y.0, "{mode:?}");
            assert!(x.2 == y.2 && x.3 == y.3, "borders of ({}, {}), {mode:?}", x.0.r, x.0.c);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An order-free strip launch delivers in completion order. Against
    /// an ordered launch of the same plan (canonical diagonal order, the
    /// same bands), on random shapes, 2-8 workers and plans with more
    /// strips than workers: the stream meets the delivery contract and
    /// each row's blocks arrive left to right; every block's coordinates
    /// (up to the frontier), outcome and borders match; the buses, best,
    /// cells and busy slots match; and an abort at any block reports the
    /// frontier as `diagonals_run`.
    #[test]
    fn order_free_strips_equal_canonical_order(
        seed in any::<u64>(),
        rows in 40usize..300,
        cols in 40usize..300,
        threads in 2usize..9,
        alpha in 2usize..5,
        blocks in 1usize..9,
        workers in 2usize..9,
        ragged in any::<bool>(),
        batch_rows in 1usize..6,
        local in any::<bool>(),
        stop_knob in any::<u64>(),
    ) {
        let a = generate::dna(seed, rows);
        let b = generate::dna(seed.rotate_left(23) ^ 0x3C, cols);
        let mode = if local { Mode::Local } else { Mode::global(EdgeState::Diagonal) };
        let job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode,
            grid: GridSpec { blocks, threads, alpha }, workers, watch: None,
        };
        let layout = job.grid.layout(a.len(), b.len());
        let bc = layout.block_cols;
        let plan = if ragged {
            StripPlan { bounds: (0..=bc).collect(), batch_rows }
        } else {
            StripPlan { batch_rows, ..StripPlan::balanced(bc, workers) }
        };
        let pool = WorkerPool::new(workers);
        let run = |log: &mut BlockLog| {
            let opts = Launch { plan: Some(plan.clone()), ..Launch::default() };
            launch(&pool, &job, log, opts).expect("no worker panic")
        };
        let mut canon = BlockLog::new(true, 0);
        let canonical = run(&mut canon);
        let mut free = BlockLog::new(false, 0);
        let freed = run(&mut free);
        let what = format!("workers={workers}, plan {:?}", plan.bounds);

        prop_assert!(!freed.aborted && !canonical.aborted, "{}", what);
        prop_assert_eq!(freed.best, canonical.best, "best, {}", what);
        prop_assert_eq!(freed.cells, canonical.cells, "cells, {}", what);
        prop_assert_eq!(freed.busy_slots, canonical.busy_slots, "busy_slots, {}", what);
        prop_assert_eq!(freed.diagonals_run, canonical.diagonals_run, "diagonals_run, {}", what);
        prop_assert_eq!(&freed.hbus, &canonical.hbus, "hbus, {}", what);
        prop_assert_eq!(&freed.vbus, &canonical.vbus, "vbus, {}", what);

        check_delivery(&free.blocks, &layout)?;
        let mut next_col = vec![0usize; layout.block_rows];
        for (coords, ..) in &free.blocks {
            prop_assert_eq!(coords.c, next_col[coords.r], "row {} out of order, {}", coords.r, what);
            next_col[coords.r] += 1;
        }
        let by_block: std::collections::HashMap<(usize, usize), &Delivered> =
            canon.blocks.iter().map(|d| ((d.0.r, d.0.c), d)).collect();
        prop_assert_eq!(by_block.len(), free.blocks.len(), "block count, {}", what);
        for (coords, out, bottom, right) in &free.blocks {
            let at = (coords.r, coords.c);
            let (c2, o2, bottom2, right2) = by_block[&at];
            prop_assert_eq!(BlockCoords { frontier: c2.frontier, ..*coords }, *c2, "coords {:?}", at);
            prop_assert_eq!(out, o2, "outcome {:?}, {}", at, what);
            prop_assert!(bottom == bottom2 && right == right2, "borders {:?}, {}", at, what);
        }

        // Abort at any block: the run reports the lowest diagonal that
        // still holds an undelivered block.
        let stop = 1 + (stop_knob % free.blocks.len() as u64) as usize;
        let mut cut = BlockLog::new(false, stop);
        let aborted = run(&mut cut);
        prop_assert!(aborted.aborted, "abort at block {}, {}", stop, what);
        prop_assert_eq!(cut.blocks.len(), stop, "blocks before the abort, {}", what);
        check_delivery(&cut.blocks, &layout)?;
        let order = walk_order(layout.block_rows, bc);
        let seen = cut.order().into_iter().collect();
        let front = lowest_open_diagonal(&order, &seen, layout.diagonals());
        prop_assert_eq!(aborted.diagonals_run, front, "diagonals_run at abort {}, {}", stop, what);
    }
}
