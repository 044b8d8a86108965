//! The bound on undelivered blocks of an order-free strip launch.
//!
//! Pooled strip runners of an order-free launch may hold at most
//! `batch_rows` × block columns finished blocks that the calling thread
//! has not delivered yet. Here the observer stalls delivery until a runner
//! has reached that cap: the strip-delivery fault hook holds the pooled
//! runner until the calling thread has published its whole strip, so the
//! runner has far more blocks left than the cap, and reports when the
//! runner waits on the cap. No wall clock is read.
//!
//! Its own test binary: the hook is process-global, and any other strip
//! launch running in the same process could consume it.

use gpu_sim::exec::fault;
use gpu_sim::wavefront::{launch, EngineState, Launch, RegionJob, RegionResult};
use gpu_sim::{
    BlockCoords, CancelToken, CellHE, CellHF, GridSpec, Mode, StripEvent, StripPlan, TileOutcome,
    WavefrontObserver, WorkerPool,
};
use seqio::generate::dna;
use std::collections::HashMap;
use std::ops::ControlFlow;
use sw_core::scoring::Scoring;

/// One delivered block's outcome and borders.
type Record = (TileOutcome, Vec<CellHF>, Vec<CellHE>);

/// Records every block. With `stall`, it lets the held runners go once
/// strip 0 has published every row, then stalls at the first block of
/// another strip until a runner has waited on the cap, and then cancels
/// `cancel` if set.
struct Staller<'t> {
    ordered: bool,
    stall: bool,
    cancel: Option<&'t CancelToken>,
    stalled: bool,
    blocks: HashMap<(usize, usize), Record>,
    flushes: Vec<EngineState>,
}

impl<'t> Staller<'t> {
    fn new(ordered: bool, stall: bool, cancel: Option<&'t CancelToken>) -> Self {
        Staller {
            ordered,
            stall,
            cancel,
            stalled: false,
            blocks: HashMap::new(),
            flushes: Vec::new(),
        }
    }
}

impl WavefrontObserver for Staller<'_> {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        outcome: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        let record = (*outcome, bottom.to_vec(), right.to_vec());
        assert!(self.blocks.insert((block.r, block.c), record).is_none(), "delivered twice");
        if self.stall && !self.stalled && block.c > 0 {
            self.stalled = true;
            // A runner that finished without waiting ends the stall too,
            // so a broken cap fails below instead of hanging here.
            while fault::delivery_waits() == 0 && fault::strip_runner_exits() == 0 {
                std::thread::yield_now();
            }
            if let Some(token) = self.cancel {
                token.cancel(gpu_sim::CancelCause::Requested);
            }
        }
        ControlFlow::Continue(())
    }

    fn on_strip_event(&mut self, event: &StripEvent) {
        if let StripEvent::Published { strip: 0, rows_done, rows_total, .. } = *event {
            if rows_done == rows_total {
                fault::release_strip_runners();
            }
        }
    }

    fn on_checkpoint(&mut self, state: &EngineState) {
        self.flushes.push(state.clone());
    }

    fn needs_diagonal_order(&self) -> bool {
        self.ordered
    }
}

#[test]
fn a_stalled_delivery_holds_runners_at_the_cap() {
    // 4-row blocks: 40 block rows over 8 block columns. The caller owns
    // the one-column strip 0, the pooled runner the 7-column strip 1
    // (280 blocks), and the cap is 4 x 8 = 32 blocks.
    let a = dna(41, 160);
    let b = dna(42, 160);
    let job = RegionJob {
        a: &a,
        b: &b,
        scoring: Scoring::paper(),
        mode: Mode::Local,
        grid: GridSpec { blocks: 8, threads: 2, alpha: 2 },
        workers: 2,
        watch: None,
    };
    let plan = StripPlan { bounds: vec![0, 1, 8], batch_rows: 4 };
    let layout = job.grid.layout(a.len(), b.len());
    assert_eq!((layout.block_rows, layout.block_cols), (40, 8));
    let cap = plan.batch_rows * layout.block_cols;
    let pool = WorkerPool::new(2);
    let run = |obs: &mut Staller<'_>, token: Option<&CancelToken>, resume: Option<EngineState>| {
        let opts = Launch {
            plan: Some(plan.clone()),
            token,
            resume,
            checkpoint_every: token.map(|_| 10_000),
        };
        launch(&pool, &job, obs, opts).expect("no worker panic")
    };
    let same = |x: &RegionResult, y: &RegionResult| {
        assert_eq!(x.best, y.best);
        assert_eq!(x.cells, y.cells);
        assert_eq!(x.busy_slots, y.busy_slots);
        assert_eq!(x.hbus, y.hbus);
        assert_eq!(x.vbus, y.vbus);
    };

    let mut canon = Staller::new(true, false, None);
    let canonical = run(&mut canon, None, None);

    // Delivery stalls until the runner waits on the cap, then completes.
    fault::hold_strip_runners();
    let mut stalled = Staller::new(false, true, None);
    let res = run(&mut stalled, None, None);
    fault::release_strip_runners();
    assert!(stalled.stalled, "the observer stalled");
    assert!(fault::delivery_waits() > 0, "a runner waited on the cap");
    let peak = res.strip.as_ref().expect("strip stats").parked_peak;
    assert!(peak <= cap, "{peak} blocks parked, cap {cap}");
    assert!(peak + plan.batch_rows > cap, "{peak} blocks parked: the runner stopped short");
    assert!(!res.aborted);
    same(&res, &canonical);
    assert!(stalled.blocks == canon.blocks, "block records");

    // A cancel during the stall wakes the runner waiting on the cap: the
    // launch returns, aborted, with one flush that resumes exactly.
    fault::hold_strip_runners();
    let token = CancelToken::new();
    let mut cancelled = Staller::new(false, true, Some(&token));
    let res = run(&mut cancelled, Some(&token), None);
    fault::release_strip_runners();
    assert!(fault::delivery_waits() > 0, "the runner waited on the cap when cancelled");
    assert!(res.aborted, "the cancel aborts the launch");
    assert_eq!(cancelled.flushes.len(), 1, "one flush per cancel");
    let flush = cancelled.flushes.pop().expect("a flush");
    let resumed = run(&mut Staller::new(false, false, None), None, Some(flush));
    same(&resumed, &canonical);
}
