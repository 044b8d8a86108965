//! Work-stealing and starvation behaviour of the column-strip scheduler,
//! plus visibility of its protocol events in the `--trace` NDJSON.
//!
//! A deliberately ragged plan — one strip 8× wider than the rest — forces
//! the runner that drew the fat strip to fall behind while its peer
//! drains the remaining strips by whole-strip stealing. The run must
//! still be bit-identical to serial, nobody may starve, and every steal
//! must surface as a `strip_steal` record that `validate_trace` accepts.

use cudalign::obs::validate_trace;
use cudalign::{Obs, TraceWriter};
use gpu_sim::wavefront::{launch, run_pooled, Launch, RegionJob};
use gpu_sim::{GridSpec, Mode, StripEvent, StripPlan, WorkerPool};
use seqio::generate::dna;
use std::ops::ControlFlow;
use sw_core::scoring::Scoring;

/// 16 block columns, 2 workers, 9 strips: one 8-column strip plus eight
/// single-column strips.
fn ragged_setup(a: &[u8], b: &[u8]) -> (RegionJob<'static>, StripPlan) {
    // Leak the sequences: RegionJob borrows, and the tests build the job
    // once per run. (Test-only; a few hundred bytes.)
    let a: &'static [u8] = Box::leak(a.to_vec().into_boxed_slice());
    let b: &'static [u8] = Box::leak(b.to_vec().into_boxed_slice());
    let job = RegionJob {
        a,
        b,
        scoring: Scoring::paper(),
        mode: Mode::Local,
        grid: GridSpec { blocks: 16, threads: 2, alpha: 2 },
        workers: 2,
        watch: None,
    };
    let mut bounds = vec![0usize, 8];
    bounds.extend(9..=16);
    (job, StripPlan { bounds, batch_rows: 4 })
}

#[test]
fn ragged_plan_steals_whole_strips_without_starvation() {
    let (job, plan) = ragged_setup(&dna(3, 240), &dna(5, 320));
    let serial =
        run_pooled(&WorkerPool::new(1), &RegionJob { workers: 1, ..job }, &mut gpu_sim::NoObserver)
            .expect("no worker panic");

    let pool = WorkerPool::new(2);
    let res = launch(
        &pool,
        &job,
        &mut gpu_sim::NoObserver,
        Launch { plan: Some(plan.clone()), ..Launch::default() },
    )
    .expect("no worker panic");

    // Bit-identical to serial despite the ragged schedule.
    assert_eq!(res.best, serial.best);
    assert_eq!(res.cells, serial.cells);
    assert_eq!(res.hbus, serial.hbus);
    assert_eq!(res.vbus, serial.vbus);

    let stats = res.strip.expect("strip stats present");
    let strips = plan.strips();
    assert_eq!(stats.strips, strips);
    let runners = stats.runner_blocks.len();
    assert_eq!(runners, 2, "two workers, two runners");

    // Every strip is claimed exactly once; each runner's home strip is
    // pre-claimed, every later claim is a steal, so a completed run
    // records exactly strips - runners steals.
    assert_eq!(
        stats.steals as usize,
        strips - runners,
        "every claim past the two home strips is a steal"
    );

    // Starvation floor: runner i owns strip i from launch and only its
    // claimant may compute a strip, so each runner computes at least its
    // whole home strip — runner 0 the fat 8-column strip, runner 1 a
    // single-column strip.
    let br = serial.layout.block_rows;
    let total: u64 = stats.runner_blocks.iter().sum();
    assert_eq!(total, (br * serial.layout.block_cols) as u64, "every block computed once");
    assert!(
        stats.runner_blocks[0] >= (8 * br) as u64,
        "runner 0 starved: {} blocks (< its {}-block home strip)",
        stats.runner_blocks[0],
        8 * br
    );
    assert!(
        stats.runner_blocks[1] >= br as u64,
        "runner 1 starved: {} blocks (< its {br}-block home strip)",
        stats.runner_blocks[1]
    );
    assert!(stats.batches_published > 0, "point-to-point publishes must have occurred");
}

/// Bridges engine strip events into the observability layer the way
/// stage 1 does, so the NDJSON they produce can be schema-checked.
struct TraceBridge<'s, 'o> {
    obs: &'s mut Obs<'o>,
}

impl gpu_sim::WavefrontObserver for TraceBridge<'_, '_> {
    fn on_block(
        &mut self,
        _: &gpu_sim::BlockCoords,
        _: &gpu_sim::TileOutcome,
        _: &[gpu_sim::CellHF],
        _: &[gpu_sim::CellHE],
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    fn on_strip_event(&mut self, event: &StripEvent) {
        match *event {
            StripEvent::Claimed { runner, strip, stolen } => {
                self.obs.emit(cudalign::obs::Event::StripSteal {
                    stage: 1,
                    worker: runner,
                    strip,
                    stolen,
                });
            }
            StripEvent::Published { runner, strip, rows_done, rows_total } => {
                self.obs.emit(cudalign::obs::Event::StripProgress {
                    stage: 1,
                    worker: runner,
                    strip,
                    rows_done,
                    rows_total,
                });
            }
        }
    }
}

#[test]
fn every_steal_is_visible_in_validated_trace_ndjson() {
    let (job, plan) = ragged_setup(&dna(7, 240), &dna(11, 320));
    let pool = WorkerPool::new(2);

    let mut tracer = TraceWriter::new(Vec::new());
    let stats = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        obs.emit(cudalign::obs::Event::RunBegin {
            m: job.a.len(),
            n: job.b.len(),
            total_diagonals: 1,
            resumed_from_diagonal: 0,
        });
        obs.emit(cudalign::obs::Event::StageBegin { stage: 1 });
        let res = {
            let mut bridge = TraceBridge { obs: &mut obs };
            launch(
                &pool,
                &job,
                &mut bridge,
                Launch { plan: Some(plan.clone()), ..Launch::default() },
            )
            .expect("no worker panic")
        };
        let stats = res.strip.expect("strip stats present");
        obs.emit(cudalign::obs::Event::StageEnd { stage: 1, seconds: 0.0, cells: res.cells });
        obs.emit(cudalign::obs::Event::RunEnd { seconds: 0.0, best_score: 0 });
        stats
    };

    let text = String::from_utf8(tracer.finish().expect("trace writes succeed")).unwrap();
    let check = validate_trace(&text).expect("schema-valid trace");
    assert!(check.ended);

    // Every claim and every steal crossed into the NDJSON, and the
    // schema checker counted them.
    assert_eq!(check.strip_claims, stats.strips, "one claim record per strip");
    assert_eq!(check.strip_steals as u64, stats.steals, "one steal record per steal");
    assert_eq!(
        check.strip_progress as u64, stats.batches_published,
        "one progress record per published batch"
    );
    assert!(check.strip_steals > 0, "the ragged plan must actually steal");
}

/// The real pipeline path: a traced `for_tests` run (2 workers over a
/// 4-column grid) claims its two home strips and publishes batches, and
/// those records appear in the `--trace` NDJSON via `Stage1Observer`.
#[test]
fn pipeline_trace_carries_strip_scheduler_records() {
    use seqio::generate::edited_pair;
    let (a, b) = edited_pair(83, 400, 15);
    let mut tracer = TraceWriter::new(Vec::new());
    {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        cudalign::Pipeline::new(cudalign::PipelineConfig::for_tests())
            .align_observed(&a, &b, &mut obs)
            .expect("pipeline run");
    }
    let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
    let check = validate_trace(&text).expect("schema-valid trace");
    assert!(check.ended);
    assert!(
        check.strip_claims >= 2,
        "stage 1 with 2 workers must claim at least two strips, saw {}",
        check.strip_claims
    );
    assert!(check.strip_progress > 0, "stage 1 must publish strip batches");
}
