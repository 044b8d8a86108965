//! Pipeline-wide chaos harness: seeded schedules composing every fault
//! hook (torn/ENOSPC/transient writes, read corruption, kill-at-diagonal,
//! worker panics) with randomized cancellation and deadline points across
//! worker counts and sequence-shape classes.
//!
//! The invariant under every schedule is exactly two outcomes:
//!
//! 1. the run completes with the independently-verified optimal score
//!    (quadratic `sw_local_score` reference), or
//! 2. the run returns a *typed* error — never a partial score, never a
//!    hung thread — and a disarmed re-run from whatever the interrupted
//!    run left behind reaches the optimal alignment; byte-identical to
//!    the uninterrupted reference whenever the schedule did not damage
//!    stored rows (write faults / read corruption make co-optimal path
//!    differences legitimate, the score and validity never).
//!
//! Every schedule is reproducible from its seed alone: the expansion
//! lives in `gpu_sim::exec::fault::chaos_plan`, so a CI failure log line
//! of the form `seed=NNN` replays locally with `CHAOS_SEEDS=... cargo
//! test --test chaos`.

use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::obs::{validate_trace, Obs, TraceWriter};
use cudalign::storage::fault as storage_fault;
use cudalign::{Pipeline, PipelineConfig, PipelineResult, RunControl};
use gpu_sim::exec::fault::{self as exec_fault, chaos_plan, ChaosPlan};
use seqio::generate::{dna, edited_pair};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sw_core::full::sw_local_score;
use sw_core::Scoring;

/// Upper bound on one schedule (run + resume). Chaos shapes finish in
/// milliseconds; a schedule that approaches this budget has hung.
const SCHEDULE_BUDGET: Duration = Duration::from_secs(60);

/// Seeds per sweep: quick under `cargo test` (debug), the full battery in
/// release/CI, and `CHAOS_SEEDS=lo..hi` (or a count) to override.
fn seed_range() -> std::ops::Range<u64> {
    if let Ok(v) = std::env::var("CHAOS_SEEDS") {
        if let Some((lo, hi)) = v.split_once("..") {
            let lo = lo.trim().parse().expect("CHAOS_SEEDS start");
            let hi = hi.trim().parse().expect("CHAOS_SEEDS end");
            return lo..hi;
        }
        return 0..v.trim().parse().expect("CHAOS_SEEDS count");
    }
    if cfg!(debug_assertions) {
        0..48
    } else {
        0..240
    }
}

/// Disarms every hook (storage and exec) even when an assertion fails,
/// so one bad schedule cannot cascade into the rest of the sweep.
struct DisarmAll;
impl Drop for DisarmAll {
    fn drop(&mut self) {
        storage_fault::disarm_all();
        exec_fault::disarm();
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cudalign-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The six shape classes: fixed pairs (independent of the chaos seed) so
/// each class's uninterrupted reference is computed once per sweep.
fn shape_pair(shape: u8) -> (Vec<u8>, Vec<u8>) {
    match shape {
        0 => edited_pair(101, 360, 13),
        1 => edited_pair(102, 160, 7),
        // Tall-skinny / wide-flat: one side truncated to 60%.
        2 => {
            let (a, b) = edited_pair(103, 420, 11);
            let keep = b.len() * 3 / 5;
            (a, b[..keep].to_vec())
        }
        3 => {
            let (a, b) = edited_pair(104, 420, 11);
            let keep = a.len() * 3 / 5;
            (a[..keep].to_vec(), b)
        }
        // Heavily diverged (SNP every 3 bases): short, fragile matches.
        4 => edited_pair(105, 300, 3),
        // Tiny: the whole matrix is a handful of blocks, so cancel and
        // kill points routinely land beyond the last diagonal.
        5 => edited_pair(106, 80, 9),
        other => panic!("chaos_plan produced unknown shape class {other}"),
    }
}

struct Reference {
    score: i32,
    end: (usize, usize),
    binary: Vec<u8>,
}

fn reference_for(shape: u8, cache: &mut HashMap<u8, Reference>) -> &Reference {
    cache.entry(shape).or_insert_with(|| {
        let (a, b) = shape_pair(shape);
        let res = Pipeline::new(PipelineConfig::for_tests())
            .align(&a, &b)
            .unwrap_or_else(|e| panic!("shape {shape}: uninterrupted reference failed: {e}"));
        let (ref_score, ref_end) = sw_local_score(&a, &b, &Scoring::paper());
        assert_eq!(res.best_score, ref_score, "shape {shape}: pipeline vs quadratic reference");
        assert_eq!(res.end, ref_end, "shape {shape}: end point");
        assert!(ref_score > 0, "shape {shape}: chaos shapes must align");
        Reference { score: ref_score, end: ref_end, binary: res.binary.encode() }
    })
}

fn assert_verified_optimal(res: &PipelineResult, a: &[u8], b: &[u8], r: &Reference, tag: &str) {
    assert_eq!(res.best_score, r.score, "{tag}: score");
    assert_eq!(res.end, r.end, "{tag}: end point");
    let sub_a = &a[res.start.0..res.end.0];
    let sub_b = &b[res.start.1..res.end.1];
    res.transcript.validate(sub_a, sub_b).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_eq!(res.transcript.score(sub_a, sub_b, &Scoring::paper()), r.score, "{tag}: rescore");
}

/// Arm every hook the plan calls for; returns the run's `RunControl`.
fn arm(plan: &ChaosPlan) -> RunControl {
    // Transient retries must not stall the sweep on wall-clock sleeps.
    storage_fault::set_sleep_hook(|_| {});
    if let Some((nth, kind, times)) = plan.write_fault {
        let (fault, times) = match kind {
            0 => (storage_fault::WriteFault::Torn { keep_bytes: times as usize }, 1),
            1 => (storage_fault::WriteFault::Enospc, times),
            _ => (storage_fault::WriteFault::Transient, times),
        };
        storage_fault::arm_write(nth, fault, times);
    }
    if let Some(nth) = plan.read_corrupt {
        storage_fault::arm_read_corrupt(nth);
    }
    if let Some(d) = plan.kill_diagonal {
        storage_fault::arm_stage1_kill(d as usize);
    }
    if let Some(nth) = plan.worker_panic {
        exec_fault::arm(nth);
    }
    let mut ctrl = RunControl::unlimited()
        // Hang backstop: every schedule must terminate inside the budget,
        // by completing, erroring, or tripping this deadline — the sweep
        // never waits on a wedged run.
        .with_deadline_ms(SCHEDULE_BUDGET.as_millis() as u64);
    if let Some(ms) = plan.deadline_ms {
        ctrl = ctrl.with_deadline_ms(ms);
    }
    if let Some(d) = plan.cancel_after_diagonal {
        ctrl = ctrl.with_cancel_after_diagonal(d as usize);
    }
    ctrl
}

/// The sweep: every seeded schedule terminates, in exactly two outcomes.
#[test]
fn seeded_chaos_schedules_terminate_in_two_outcomes() {
    let _guard = storage_fault::test_guard();
    let _disarm = DisarmAll;
    let mut refs: HashMap<u8, Reference> = HashMap::new();
    let mut completed = 0usize;
    let mut errored = 0usize;

    for seed in seed_range() {
        let plan = chaos_plan(seed);
        let (a, b) = shape_pair(plan.shape);
        let dir = fresh_dir(&format!("s{seed}"));
        let mut cfg = PipelineConfig::for_tests();
        cfg.workers = plan.workers;
        cfg.backend = SraBackend::Disk(dir.clone());
        cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 3 });
        // Damaged stored state makes co-optimal path differences
        // legitimate; the optimal score and transcript validity never are.
        let damaged = plan.write_fault.is_some() || plan.read_corrupt.is_some();

        let started = Instant::now();
        let ctrl = arm(&plan);
        let outcome = Pipeline::new(cfg.clone()).align_supervised(&a, &b, &mut Obs::new(), &ctrl);
        storage_fault::disarm_all();
        exec_fault::disarm();

        let tag = format!("seed={seed} plan={plan:?}");
        // Shared reference per shape class (computed on first use).
        let r = reference_for(plan.shape, &mut refs);
        match outcome {
            Ok(res) => {
                completed += 1;
                assert_verified_optimal(&res, &a, &b, r, &tag);
                if !damaged {
                    assert_eq!(res.binary.encode(), r.binary, "{tag}: undamaged completion");
                }
            }
            Err(e) => {
                errored += 1;
                // Every failure is typed by construction; what must never
                // happen is the backstop deadline doing the terminating —
                // that means some hook wedged the run.
                assert!(
                    started.elapsed() < SCHEDULE_BUDGET,
                    "{tag}: run only ended via the backstop: {e}"
                );
                let _ = e.to_string(); // every variant renders
                                       // Resume from whatever the interrupted run left behind.
                let resumed = Pipeline::new(cfg)
                    .align(&a, &b)
                    .unwrap_or_else(|e2| panic!("{tag}: resume failed: {e2}"));
                assert_verified_optimal(&resumed, &a, &b, r, &format!("{tag} (resume)"));
                if !damaged {
                    assert_eq!(
                        resumed.binary.encode(),
                        r.binary,
                        "{tag}: resume after a clean interruption must be byte-identical"
                    );
                }
            }
        }
        assert!(
            started.elapsed() < SCHEDULE_BUDGET,
            "{tag}: schedule exceeded its termination budget"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The sweep must exercise both arms of the invariant, or the plans
    // have drifted into triviality.
    assert!(completed > 0, "no schedule completed ({errored} errored)");
    assert!(errored > 0, "no schedule was interrupted ({completed} completed)");
}

/// A cancelled supervised run records its interruption in the NDJSON
/// trace: a schema-valid `interrupt` record with the cancel kind and a
/// non-negative time-to-cancel latency, plus `supervise.*` metrics.
#[test]
fn cancelled_run_trace_carries_interrupt_record() {
    let _guard = storage_fault::test_guard();
    let _disarm = DisarmAll;
    let (a, b) = shape_pair(0);
    let mut cfg = PipelineConfig::for_tests();
    cfg.workers = 2;

    let mut tracer = TraceWriter::new(Vec::new());
    let ctrl = RunControl::unlimited().with_cancel_after_diagonal(2);
    let err = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        Pipeline::new(cfg)
            .align_supervised(&a, &b, &mut obs, &ctrl)
            .expect_err("cancel trigger must interrupt")
    };
    assert!(err.is_interruption(), "{err}");
    assert_eq!(err.interruption_kind(), Some("cancelled"));
    assert!(ctrl.cancel_latency_ms() >= 0.0);

    let bytes = tracer.finish().expect("in-memory trace");
    let text = String::from_utf8(bytes).unwrap();
    let check = validate_trace(&text).unwrap_or_else(|e| panic!("trace invalid: {e}"));
    assert!(!check.ended, "an interrupted trace has no run_end");
    assert_eq!(check.interrupts, 1, "exactly one interrupt record:\n{text}");
    assert!(text.contains("\"ev\":\"interrupt\""), "{text}");
    assert!(text.contains("\"kind\":\"cancelled\""), "{text}");
}

/// A wall-clock deadline terminates a run that would otherwise keep
/// computing, as the typed `DeadlineExceeded` error, and the disarmed
/// resume is byte-identical to the uninterrupted reference.
#[test]
fn deadline_interrupts_and_resume_is_byte_identical() {
    let _guard = storage_fault::test_guard();
    let _disarm = DisarmAll;
    // A pair large enough that stage 1 cannot win the race against a
    // deadline that has already expired at the first poll.
    let a = dna(71, 1200);
    let b = a.clone();
    let dir = fresh_dir("deadline");
    let mut cfg = PipelineConfig::for_tests();
    cfg.backend = SraBackend::Disk(dir.clone());
    cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 3 });

    let reference = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let ctrl = RunControl::unlimited().with_deadline_ms(0).with_poll(Duration::from_micros(200));
    let err = Pipeline::new(cfg.clone())
        .align_supervised(&a, &b, &mut Obs::new(), &ctrl)
        .expect_err("expired deadline must interrupt");
    assert_eq!(err.interruption_kind(), Some("deadline"), "{err}");

    let resumed = Pipeline::new(cfg).align(&a, &b).expect("resume after deadline");
    assert_eq!(resumed.binary.encode(), reference.binary.encode());
    assert_eq!(resumed.transcript.ops(), reference.transcript.ops());
    let _ = std::fs::remove_dir_all(&dir);
}
