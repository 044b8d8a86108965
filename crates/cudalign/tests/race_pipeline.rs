//! Full-pipeline race-detector run (compiled only with `--features
//! race-check`): all six stages, with stage 1 driven by the column-strip
//! scheduler, must report *zero* violations — the strip publish protocol
//! provides the same happens-before edges the per-diagonal barrier did.

#![cfg(feature = "race-check")]

use cudalign::{Pipeline, PipelineConfig};
use gpu_sim::race;
use seqio::generate::dna;

#[test]
fn clean_pipeline_with_strip_scheduler_reports_nothing() {
    let _ = race::take_report();
    let (a, b) = (dna(7, 300), dna(19, 280));
    let mut cfg = PipelineConfig::for_tests();
    // 4 workers over the 4-column test grid: stage 1 runs four
    // single-column strips with point-to-point border publishes.
    cfg.workers = 4;
    let res = Pipeline::new(cfg).align(&a, &b).expect("pipeline run");
    assert!(res.best_score > 0);
    res.transcript
        .validate(&a[res.start.0..res.end.0], &b[res.start.1..res.end.1])
        .expect("valid alignment");
    let report = race::take_report();
    assert!(
        report.is_empty(),
        "clean strip-scheduled pipeline reported violations:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}
