//! Pooled execution is observationally identical to serial execution.
//!
//! The persistent worker pool (`gpu_sim::exec::WorkerPool`) replaces the
//! per-diagonal thread spawns of the original engine. These properties
//! pin down the contract the pipeline relies on: for ANY grid geometry
//! and ANY pool width, a pooled launch produces exactly the same scores,
//! endpoints, buses and observer event stream (hence the same special
//! rows) as the single-threaded run.

use gpu_sim::wavefront::{run, run_pooled, run_pooled_with_plan, RegionJob};
use gpu_sim::{BlockCoords, CellHE, CellHF, GridSpec, Mode, StripPlan, TileOutcome, WorkerPool};
use proptest::prelude::*;
use std::ops::ControlFlow;
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

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
        let serial = run(&serial_job, &mut serial_obs);

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
        let serial = run(&serial_job, &mut serial_obs);

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

/// Deterministic DNA from a seed (the vendored proptest has no
/// `prop_oneof`/`prop_flat_map`, so shape-dependent lengths are derived
/// in plain code from generated knobs).
fn dna_seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
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
    let a = dna_seeded(seed, a_len);
    let b = dna_seeded(seed.rotate_left(17) ^ 0x9E37, b_len);
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
        let serial = run(&serial_job, &mut serial_obs);

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
        let a = dna_seeded(seed, 60 + stretch / 2);
        let b = dna_seeded(seed.rotate_left(31) ^ 0xB5, 200 + stretch);
        let grid = GridSpec { blocks: 7, threads, alpha };
        let serial_job = RegionJob {
            a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local,
            grid, workers: 1, watch: None,
        };
        let mut serial_obs = Recorder::default();
        let serial = run(&serial_job, &mut serial_obs);
        let bc = serial.layout.block_cols;

        // strips > workers: 2 workers over a maximally split plan.
        let fine = StripPlan { bounds: (0..=bc).collect(), batch_rows };
        let pool = WorkerPool::new(2);
        let job = RegionJob { workers: 2, ..serial_job };
        let mut obs = Recorder::default();
        let res = run_pooled_with_plan(&pool, &job, &mut obs, &fine).expect("no worker panic");
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
                run_pooled_with_plan(&pool, &job, &mut obs, &coarse).expect("no worker panic");
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
    /// occurred, that the kernel-path counters are deterministic across
    /// pool widths, and that results are identical between a serial run
    /// and an 8-lane pool.
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
        let serial = run(&serial_job, &mut serial_obs);
        prop_assert!(
            serial.paths.striped_total() > 0,
            "expected striped tiles with grid {:?} on {}x{}", grid, a.len(), b.len()
        );
        // The paper scoring on zero/Diagonal borders never leaves the
        // i16 window at these lengths, so nothing should fall back.
        prop_assert_eq!(serial.paths.fallback, 0, "unexpected scalar fallback");

        for lanes in [1usize, 8] {
            let pool = WorkerPool::new(lanes);
            let job = RegionJob { workers: lanes, ..serial_job };
            let mut obs = Recorder::default();
            let res = run_pooled(&pool, &job, &mut obs).expect("no worker panic");
            prop_assert_eq!(res.best, serial.best, "best, lanes={}", lanes);
            prop_assert_eq!(res.cells, serial.cells, "cells, lanes={}", lanes);
            prop_assert_eq!(res.paths, serial.paths, "kernel paths, lanes={}", lanes);
            prop_assert_eq!(&res.hbus, &serial.hbus, "hbus, lanes={}", lanes);
            prop_assert_eq!(&res.vbus, &serial.vbus, "vbus, lanes={}", lanes);
            prop_assert!(
                obs.events == serial_obs.events,
                "observer stream diverged with lanes={}", lanes
            );
        }
    }
}
