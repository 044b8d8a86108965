//! Fault handling in the pooled executor: an aborting observer and a
//! panicking worker must both surface as clean, typed results — never a
//! process abort — and must leave the shared pool fully reusable.

use cudalign::{Pipeline, PipelineConfig, PipelineError};
use gpu_sim::exec::fault;
use gpu_sim::wavefront::{run_pooled, RegionJob};
use gpu_sim::{BlockCoords, CellHE, CellHF, GridSpec, Mode, TileOutcome, WorkerPool};
use seqio::generate::edited_pair;
use std::ops::ControlFlow;
use std::sync::Mutex;
use sw_core::scoring::Scoring;

/// The fault hook is process-global state, so the tests in this file
/// must not interleave.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the hook even when the test body panics, so one failing test
/// cannot cascade into the others.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

/// Observer that aborts the launch after `after` blocks — deliberately
/// not on a diagonal boundary, so the break lands mid-diagonal with
/// sibling jobs still queued on the pool.
struct BreakAfter {
    after: usize,
    seen: usize,
}

impl gpu_sim::WavefrontObserver for BreakAfter {
    fn on_block(
        &mut self,
        _block: &BlockCoords,
        _outcome: &TileOutcome,
        _bottom: &[CellHF],
        _right: &[CellHE],
    ) -> ControlFlow<()> {
        self.seen += 1;
        if self.seen > self.after {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

fn job<'a>(a: &'a [u8], b: &'a [u8]) -> RegionJob<'a> {
    RegionJob {
        a,
        b,
        scoring: Scoring::paper(),
        mode: Mode::Local,
        grid: GridSpec { blocks: 4, threads: 4, alpha: 2 },
        workers: 4,
        watch: None,
    }
}

#[test]
fn observer_break_mid_diagonal_is_clean_and_pool_survives() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = edited_pair(31, 400, 13);
    let pool = WorkerPool::new(4);

    let full =
        run_pooled(&pool, &job(&a, &b), &mut gpu_sim::wavefront::NoObserver).expect("clean run");
    assert!(!full.aborted);

    let mut obs = BreakAfter { after: 3, seen: 0 };
    let res = run_pooled(&pool, &job(&a, &b), &mut obs).expect("abort is not a panic");
    assert!(res.aborted, "observer break must mark the launch aborted");
    assert!(res.diagonals_run < full.diagonals_run, "launch must stop early");

    // The pool took no damage: the same launch completes afterwards with
    // the same result as before the abort.
    let again = run_pooled(&pool, &job(&a, &b), &mut gpu_sim::wavefront::NoObserver)
        .expect("pool reusable after abort");
    assert!(!again.aborted);
    assert_eq!(again.best, full.best);
    assert_eq!(again.hbus, full.hbus);
}

#[test]
fn injected_worker_panic_surfaces_as_pipeline_error() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = Disarm;
    let (a, b) = edited_pair(32, 500, 11);
    let mut cfg = PipelineConfig::for_tests();
    cfg.workers = 4;
    let pipeline = Pipeline::new(cfg);

    // Arm the hook a few jobs in, so the panic lands in a worker while
    // siblings of the same diagonal are in flight.
    fault::arm(5);
    let err = pipeline.align(&a, &b).expect_err("armed run must fail");
    match &err {
        PipelineError::Worker(msg) => {
            assert!(
                msg.contains(fault::INJECTED_MSG),
                "panic message must carry the injected marker, got: {msg}"
            );
        }
        other => panic!("expected PipelineError::Worker, got: {other}"),
    }

    // The pool is not poisoned: the SAME pipeline (same pool) succeeds
    // once the fault is disarmed.
    fault::disarm();
    let ok = pipeline.align(&a, &b).expect("pool must survive a worker panic");
    assert!(ok.best_score > 0);
    ok.transcript
        .validate(&a[ok.start.0..ok.end.0], &b[ok.start.1..ok.end.1])
        .expect("retry produces a valid alignment");
}

#[test]
fn panic_in_every_stage_entry_is_recoverable() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = Disarm;
    let (a, b) = edited_pair(33, 350, 9);
    let mut cfg = PipelineConfig::for_tests();
    cfg.workers = 4;
    let pipeline = Pipeline::new(cfg);

    // Sweep the arm point across the run so the injected panic hits pool
    // jobs belonging to different stages; each must fail cleanly and the
    // next (disarmed or later-armed) run must succeed or fail cleanly too.
    let reference = pipeline.align(&a, &b).expect("baseline");
    for arm_at in [0u64, 1, 17, 120] {
        fault::arm(arm_at);
        match pipeline.align(&a, &b) {
            Err(PipelineError::Worker(msg)) => {
                assert!(msg.contains(fault::INJECTED_MSG), "arm_at={arm_at}: {msg}");
            }
            Err(other) => panic!("arm_at={arm_at}: expected Worker error, got {other}"),
            // A large arm point may never fire inside this run; that
            // leaves the budget armed for the next iteration's earlier
            // jobs, so tolerate success only after disarming.
            Ok(res) => {
                assert_eq!(res.best_score, reference.best_score, "arm_at={arm_at}");
            }
        }
        fault::disarm();
        let retry = pipeline.align(&a, &b).expect("pool survives, arm_at={arm_at}");
        assert_eq!(retry.best_score, reference.best_score);
        assert_eq!(retry.binary.encode(), reference.binary.encode());
    }
}
