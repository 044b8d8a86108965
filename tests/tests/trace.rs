//! Trace-schema round-trip tests: a full pipeline run recorded through a
//! [`cudalign::TraceWriter`] must produce NDJSON that the schema checker
//! accepts, covering all six stages, with resume-aware progress.

use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::obs::validate_trace;
use cudalign::{Obs, Pipeline, PipelineConfig, Progress, StageContext, TraceWriter};
use seqio::generate::edited_pair;

fn traced_run(cfg: PipelineConfig, a: &[u8], b: &[u8]) -> (String, cudalign::PipelineResult) {
    let mut tracer = TraceWriter::new(Vec::new());
    let res = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        Pipeline::new(cfg).align_observed(a, b, &mut obs).expect("pipeline run")
    };
    let bytes = tracer.finish().expect("trace writes succeed");
    (String::from_utf8(bytes).expect("trace is UTF-8"), res)
}

/// Every record the pipeline emits parses as JSON and the whole stream
/// passes the schema checker: spans nest, stages 1..=6 all appear, the
/// run ends with `run_end`.
#[test]
fn trace_round_trip_covers_all_six_stages() {
    let (a, b) = edited_pair(71, 400, 19);
    let (text, res) = traced_run(PipelineConfig::for_tests(), &a, &b);
    assert!(res.best_score > 0, "pair must align");

    let check = validate_trace(&text).expect("schema-valid trace");
    assert!(check.ended, "run_end must close the trace");
    assert!(
        check.stages_seen.iter().all(|s| *s),
        "all six stages must be traced: {:?}",
        check.stages_seen
    );
    assert!(check.records > 10, "a real run emits spans plus progress ticks");
}

/// A run resumed from a stage-1 checkpoint reports the resumed diagonal
/// in `run_begin`, and the progress tracker starts at the resumed offset
/// rather than zero.
#[test]
fn resumed_trace_reports_resume_offset() {
    let (a, b) = edited_pair(72, 400, 17);
    let dir = std::env::temp_dir().join(format!("cudalign-trace-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = PipelineConfig::for_tests();
    cfg.backend = SraBackend::Disk(dir.clone());
    cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 9 });

    // "Crashed" run leaves a snapshot plus row files behind.
    {
        let fp = cfg.job_fingerprint(a.len(), b.len());
        let mut rows = cudalign::sra::LineStore::<gpu_sim::CellHF>::new(
            &cfg.backend,
            cfg.sra_bytes,
            "special-row",
            fp,
        )
        .unwrap();
        let pool = gpu_sim::WorkerPool::new(cfg.workers);
        let _ = cudalign::stage1::run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            &mut rows,
            None,
            Some((dir.as_path(), 9)),
        );
        std::mem::forget(rows);
    }

    let mut tracer = TraceWriter::new(Vec::new());
    let mut progress = Progress::new();
    {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        obs.add_recorder(&mut progress);
        Pipeline::new(cfg).align_observed(&a, &b, &mut obs).expect("resumed run");
    }
    let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
    let check = validate_trace(&text).expect("schema-valid resumed trace");
    assert!(check.ended);
    assert_eq!(progress.percent(), Some(100.0), "stage-1 sweep completed");

    // The first record is run_begin with a non-zero resume diagonal.
    let first = text.lines().next().expect("non-empty trace");
    let rec = cudalign::obs::parse_json(first).expect("run_begin parses");
    assert_eq!(rec.get("ev").and_then(|v| v.str_val()), Some("run_begin"));
    let resumed = rec.get("resumed_from_diagonal").and_then(|v| v.num()).unwrap_or(0.0);
    assert!(resumed > 0.0, "resumed diagonal must be recorded, got {resumed}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A run cancelled before its first diagonal still yields a schema-valid
/// trace: `run_begin` is emitted eagerly, so the stream carries
/// `run_begin` + `interrupt` instead of being rejected as empty, and the
/// pipeline surfaces the typed cancellation.
#[test]
fn immediately_cancelled_run_traces_run_begin_plus_interrupt() {
    let (a, b) = edited_pair(73, 200, 11);
    let ctrl = cudalign::RunControl::unlimited();
    ctrl.cancel();

    let mut tracer = TraceWriter::new(Vec::new());
    let err = {
        let mut obs = Obs::new();
        obs.add_recorder(&mut tracer);
        Pipeline::new(PipelineConfig::for_tests())
            .align_supervised(&a, &b, &mut obs, &ctrl)
            .expect_err("pre-cancelled run must not succeed")
    };
    assert_eq!(err.interruption_kind(), Some("cancelled"), "{err}");

    let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
    let check = validate_trace(&text).expect("interrupted trace stays schema-valid");
    assert!(!check.ended, "no run_end on an interrupted run");
    assert_eq!(check.interrupts, 1, "the cancellation is recorded");
    let first = text.lines().next().expect("non-empty trace");
    let rec = cudalign::obs::parse_json(first).expect("run_begin parses");
    assert_eq!(rec.get("ev").and_then(|v| v.str_val()), Some("run_begin"));
}

/// A one-lane run without checkpoints on 64-row stage-1 blocks takes the
/// banded walk, which delivers blocks out of diagonal order (16 block
/// rows over 3 block columns). Its stage-1 progress ticks read the
/// completed-diagonal frontier: they never move back, they end at the
/// grid's diagonal count, and the trace validates.
#[test]
fn walk_progress_ticks_are_monotone_and_complete() {
    let (a, b) = edited_pair(74, 1000, 13);
    let mut cfg = PipelineConfig::for_tests();
    cfg.workers = 1;
    cfg.grid1 = gpu_sim::GridSpec { blocks: 3, threads: 16, alpha: 4 };
    let total = cfg.grid1.layout(a.len(), b.len()).diagonals();
    let (text, res) = traced_run(cfg, &a, &b);
    assert!(res.best_score > 0, "pair must align");
    validate_trace(&text).expect("schema-valid trace");
    let ticks: Vec<f64> = text
        .lines()
        .map(|l| cudalign::obs::parse_json(l).expect("record parses"))
        .filter(|r| {
            r.get("ev").and_then(|v| v.str_val()) == Some("diagonal")
                && r.get("stage").and_then(|v| v.num()) == Some(1.0)
        })
        .map(|r| r.get("done").and_then(|v| v.num()).expect("done"))
        .collect();
    assert!(ticks.len() > 1, "stage 1 must tick: {ticks:?}");
    assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "ticks move back: {ticks:?}");
    assert_eq!(ticks.last().copied(), Some(total as f64), "ticks: {ticks:?}");
}

/// CI hook: when `CUDALIGN_TRACE_FILE` points at a trace written by the
/// CLI (`align --trace`), validate it against the same schema checker.
/// Skipped (trivially passing) when the variable is unset.
#[test]
fn validates_external_trace_file() {
    let Ok(path) = std::env::var("CUDALIGN_TRACE_FILE") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("CUDALIGN_TRACE_FILE {path}: {e}"));
    let check = validate_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(check.ended, "{path}: trace must end with run_end");
    assert!(
        check.stages_seen.iter().all(|s| *s),
        "{path}: all six stages must appear: {:?}",
        check.stages_seen
    );
}
