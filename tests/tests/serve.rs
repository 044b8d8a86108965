//! End-to-end serve-mode test: a mixed batch (sizes, priorities, one
//! pre-cancelled job, one duplicate fingerprint) through a single-runner
//! [`cudalign::Server`], checked against serial `align` runs. A single
//! runner makes the drain order — priority desc, then shortest-first —
//! fully deterministic, so the duplicate is guaranteed to run after its
//! original and hit the result cache. Every wait carries a backstop
//! timeout so a scheduling bug fails the test instead of hanging it.

use cudalign::obs::validate_trace;
use cudalign::{JobRequest, Pipeline, PipelineConfig, RunControl, ServeConfig, ServeError, Server};
use seqio::generate::edited_pair;
use std::time::Duration;

/// Per-wait backstop: generous compared to the millisecond-scale jobs,
/// but finite so nothing can hang the suite.
const BACKSTOP: Duration = Duration::from_secs(120);

#[test]
fn serve_mixed_batch_matches_serial_align() {
    let mut scfg = ServeConfig::new(PipelineConfig::for_tests());
    scfg.runners = 1;
    scfg.queue_cap = 8;
    let server = Server::new(scfg).expect("server starts");

    let (a1, b1) = edited_pair(81, 300, 13);
    let (a2, b2) = edited_pair(82, 150, 11);
    let (a3, b3) = edited_pair(83, 450, 17);

    // Backpressure first, while the queue is deterministically empty: a
    // batch larger than the cap is rejected whole with the typed error.
    let oversized: Vec<JobRequest> =
        (0..9).map(|_| JobRequest::new(a2.clone(), b2.clone())).collect();
    let err = server.submit_batch(oversized).expect_err("9 jobs > cap 8");
    assert!(matches!(err, ServeError::QueueFull { capacity: 8 }), "{err:?}");

    // Mixed batch. With one runner the drain order is exactly:
    //   j0 (prio 3) -> j4 (prio 2, pre-cancelled, resolves unrun)
    //   -> j1 (prio 1, 150 bp) -> j2 (prio 1, 450 bp)
    //   -> j3 (prio 0, duplicate of j0 -> cache hit).
    let backstop = || RunControl::unlimited().with_deadline_ms(60_000);
    let cancelled = RunControl::unlimited();
    cancelled.cancel();
    let handles = server
        .submit_batch(vec![
            JobRequest::new(a1.clone(), b1.clone()).with_priority(3).with_control(backstop()),
            JobRequest::new(a2.clone(), b2.clone()).with_priority(1).with_control(backstop()),
            JobRequest::new(a3.clone(), b3.clone()).with_priority(1).with_control(backstop()),
            JobRequest::new(a1.clone(), b1.clone()).with_priority(0).with_control(backstop()),
            JobRequest::new(a2.clone(), b2.clone()).with_priority(2).with_control(cancelled),
        ])
        .expect("mixed batch fits");
    assert_eq!(handles.len(), 5);
    assert_eq!(
        handles[0].fingerprint(),
        handles[3].fingerprint(),
        "identical pairs share a content fingerprint"
    );
    assert_ne!(
        handles[0].fingerprint(),
        handles[1].fingerprint(),
        "different pairs must not alias"
    );

    let reports: Vec<_> = handles
        .iter()
        .map(|h| h.wait_timeout(BACKSTOP).expect("job resolved within the backstop"))
        .collect();

    // Completed jobs match a serial pipeline bit-for-bit.
    for (i, (a, b)) in [(0, (&a1, &b1)), (1, (&a2, &b2)), (2, (&a3, &b3))] {
        let got = reports[i].outcome.as_ref().expect("job completes");
        let want = Pipeline::new(PipelineConfig::for_tests()).align(a, b).expect("serial align");
        assert_eq!(got.best_score, want.best_score, "job {i} score drifted from serial");
        assert_eq!(got.start, want.start, "job {i} start drifted");
        assert_eq!(got.end, want.end, "job {i} end drifted");
        assert_eq!(got.transcript, want.transcript, "job {i} transcript drifted");
        assert!(!reports[i].cached, "job {i} ran fresh");
    }

    // The duplicate was served from the cache: same result, no rerun.
    let dup = &reports[3];
    assert!(dup.cached, "duplicate fingerprint must hit the cache");
    let dup_res = dup.outcome.as_ref().expect("cached result");
    let orig_res = reports[0].outcome.as_ref().expect("original result");
    assert_eq!(dup_res.best_score, orig_res.best_score);
    assert_eq!(dup_res.transcript, orig_res.transcript);
    assert_eq!(dup.outcome_kind(), "cached");

    // The pre-cancelled job resolved without running.
    let killed = &reports[4];
    let e = killed.outcome.as_ref().expect_err("cancelled job must not produce a result");
    assert_eq!(e.interruption_kind(), Some("cancelled"), "{e:?}");
    assert_eq!(killed.trace.lines().count(), 2, "job_submit + job_end only");

    // Every job's trace — full run, cached, and cancelled-while-queued —
    // passes the schema validator and frames exactly one job.
    for (i, r) in reports.iter().enumerate() {
        let check = validate_trace(&r.trace)
            .unwrap_or_else(|e| panic!("job {i} trace rejected: {e}\n{}", r.trace));
        assert_eq!(check.jobs, 1, "job {i} trace frames one job");
        assert!(
            r.trace.lines().next().unwrap_or("").contains("\"ev\":\"job_submit\""),
            "job {i} trace opens with job_submit"
        );
        assert!(
            r.trace.lines().last().unwrap_or("").contains("\"ev\":\"job_end\""),
            "job {i} trace closes with job_end"
        );
    }

    // Merged totals line up with what we just observed, and shutdown
    // (which also joins the runner) returns them.
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 1, "the oversized batch was counted");
    assert!(stats.cells > 0);
}

/// CI hook: when `CUDALIGN_TRACE_FILE` points at a per-job trace
/// written by `cudalign serve --trace-dir`, validate it against the
/// schema checker and require the `job_submit`/`job_end` framing.
/// Skipped (trivially passing) when the variable is unset.
#[test]
fn validates_external_job_trace() {
    let Ok(path) = std::env::var("CUDALIGN_TRACE_FILE") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("CUDALIGN_TRACE_FILE {path}: {e}"));
    let check = validate_trace(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(check.jobs, 1, "{path}: a serve trace frames exactly one job");
    assert!(
        text.lines().last().unwrap_or("").contains("\"ev\":\"job_end\""),
        "{path}: trace must close with job_end"
    );
}

/// Cancelling one in-flight job among concurrent tenants neither
/// corrupts the others nor leaks: survivors match serial scores and the
/// cancelled job reports a typed interruption.
#[test]
fn serve_cancel_mid_run_leaves_other_tenants_intact() {
    let mut scfg = ServeConfig::new(PipelineConfig::for_tests());
    scfg.runners = 2;
    let server = Server::new(scfg).expect("server starts");

    let (a1, b1) = edited_pair(91, 500, 13);
    let (a2, b2) = edited_pair(92, 500, 17);
    // Deterministic mid-run teardown: the victim cancels itself at
    // stage-1 diagonal 1 via its own supervision handle.
    let victim_ctrl = RunControl::unlimited().with_cancel_after_diagonal(1);
    let handles = server
        .submit_batch(vec![
            JobRequest::new(a1.clone(), b1.clone()).with_control(victim_ctrl),
            JobRequest::new(a2.clone(), b2.clone())
                .with_control(RunControl::unlimited().with_deadline_ms(60_000)),
        ])
        .expect("batch fits");

    let victim = handles[0].wait_timeout(BACKSTOP).expect("victim resolves");
    let survivor = handles[1].wait_timeout(BACKSTOP).expect("survivor resolves");

    let e = victim.outcome.as_ref().expect_err("victim must be interrupted");
    assert_eq!(e.interruption_kind(), Some("cancelled"), "{e:?}");
    validate_trace(&victim.trace).expect("interrupted trace stays schema-valid");

    let got = survivor.outcome.as_ref().expect("survivor completes");
    let want = Pipeline::new(PipelineConfig::for_tests()).align(&a2, &b2).expect("serial");
    assert_eq!(got.best_score, want.best_score, "survivor must stay optimal");
    validate_trace(&survivor.trace).expect("survivor trace validates");

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
}
