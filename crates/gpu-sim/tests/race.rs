//! Race-detector tests (compiled only with `--features race-check`).
//!
//! Three claims, per DESIGN.md "Enforced invariants":
//!
//! 1. Clean runs — parallel wavefront, the one-lane banded walk, resumed
//!    wavefront, multi-device split — report *zero* violations: every
//!    schedule orders each cross-block bus hand-off.
//! 2. A seeded scheduling fault ([`exec::fault::arm_reorder_block`]) is
//!    provably caught: the detector reports `WrongProducer` for the
//!    reordered block while the engine's *output stays bit-identical*
//!    (the fault lives only in the detector's shadow state).
//! 3. A multi-device split is a strip run with one strip per card, so a
//!    card-to-card border published early
//!    ([`exec::fault::arm_early_publish`]) is caught by the strip
//!    hand-off model, again with the output unchanged.
//!
//! The violation sink is process-global, so every test serializes behind
//! one lock and drains the sink before running.

#![cfg(feature = "race-check")]

use gpu_sim::exec::fault;
use gpu_sim::race::{self, ViolationKind};
use gpu_sim::wavefront::{run_pooled, NoObserver, RegionJob, RegionResult};
use gpu_sim::{multi, GridSpec, Mode, WorkerPool};
use seqio::generate::dna;
use std::sync::{Mutex, MutexGuard};
use sw_core::scoring::Scoring;

/// Serializes tests (the violation sink is global) and recovers from
/// poisoning so one failed test doesn't cascade.
static LOCK: Mutex<()> = Mutex::new(());

fn isolated() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm();
    let _ = race::take_report();
    guard
}

/// Run `job` on a pool of its own, `job.workers` lanes wide.
fn plain(job: &RegionJob<'_>) -> RegionResult {
    run_pooled(&WorkerPool::new(job.workers), job, &mut NoObserver).expect("no worker panic")
}

fn job<'a>(a: &'a [u8], b: &'a [u8], workers: usize) -> RegionJob<'a> {
    RegionJob {
        a,
        b,
        scoring: Scoring::paper(),
        mode: Mode::Local,
        grid: GridSpec { blocks: 4, threads: 4, alpha: 2 },
        workers,
        watch: None,
    }
}

#[test]
fn clean_parallel_run_reports_nothing() {
    let _g = isolated();
    let (a, b) = (dna(11, 96), dna(23, 96));
    for workers in [1, 4] {
        let res = plain(&job(&a, &b, workers));
        assert!(res.cells > 0);
        let report = race::take_report();
        assert!(
            report.is_empty(),
            "clean run with {workers} worker(s) reported violations:\n{}",
            report.iter().map(|v| format!("  {v}\n")).collect::<String>()
        );
    }
    // The w=1 run above (the banded walk, since `NoObserver` reads no
    // order) really reaches the detector: with block (1,1) replayed
    // early, the walk's own write of that block lands on the phantom's
    // corner within one barrier interval.
    fault::arm_reorder_block(1, 1);
    let _ = plain(&job(&a, &b, 1));
    fault::disarm();
    let report = race::take_report();
    assert!(
        report.iter().any(|v| v.kind == ViolationKind::WriteOverlap
            && v.detail.contains("PHANTOM (1,1)@d2 and block (1,1)@d2")),
        "w=1 run never reached the detector:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

#[test]
fn seeded_reorder_fault_is_caught_and_output_unchanged() {
    let _g = isolated();
    let (a, b) = (dna(41, 96), dna(59, 96));
    let j = job(&a, &b, 4);

    let clean = plain(&j);
    assert!(race::take_report().is_empty(), "baseline run must be clean");

    // Run block (1,1) one external diagonal early — before the barrier
    // that seals its producers' writes.
    fault::arm_reorder_block(1, 1);
    let faulty = plain(&j);
    fault::disarm();
    let report = race::take_report();

    // The fault is confined to the detector's shadow state: the engine's
    // observable output must be bit-identical.
    assert_eq!(clean.best, faulty.best);
    assert_eq!(clean.cells, faulty.cells);
    assert_eq!(clean.hbus, faulty.hbus);
    assert_eq!(clean.vbus, faulty.vbus);

    // ... and the detector must have caught it: the early run reads bus
    // cells its scheduled producers have not written yet.
    assert!(!report.is_empty(), "seeded reorder fault went undetected");
    assert!(
        report.iter().any(|v| v.kind == ViolationKind::WrongProducer
            && v.r == 1
            && v.c == 1
            && v.diagonal == 2),
        "no WrongProducer violation at the reordered block (1,1)@d2:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    // Each phantom read of a not-yet-written cell names the border state
    // as the observed writer.
    assert!(report.iter().any(|v| v.detail.contains("border")));
}

#[test]
fn seeded_early_publish_fault_is_caught_and_output_unchanged() {
    let _g = isolated();
    let (a, b) = (dna(101, 96), dna(113, 96));
    // workers = 4 over 4 block columns: the strip scheduler runs with four
    // single-column strips and point-to-point publishes between them.
    let j = job(&a, &b, 4);

    let clean = plain(&j);
    assert!(race::take_report().is_empty(), "baseline strip run must be clean");

    // Publish block (2,1)'s border one block early: the fault replays the
    // right neighbour (2,2)'s bus reads at the moment (2,1) is *about* to
    // compute — i.e. before the border it consumes exists.
    fault::arm_early_publish(2, 1);
    let faulty = plain(&j);
    fault::disarm();
    let report = race::take_report();

    // The fault lives only in the detector's shadow state.
    assert_eq!(clean.best, faulty.best);
    assert_eq!(clean.cells, faulty.cells);
    assert_eq!(clean.hbus, faulty.hbus);
    assert_eq!(clean.vbus, faulty.vbus);

    // The neighbour's replayed reads see the wrong producer: its vertical
    // bus still holds (2,0)'s cells, not (2,1)'s.
    assert!(!report.is_empty(), "seeded early publish went undetected");
    assert!(
        report.iter().any(|v| v.kind == ViolationKind::WrongProducer
            && v.r == 2
            && v.c == 2
            && v.diagonal == 4),
        "no WrongProducer violation at the consumer (2,2)@d4:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    // ... and the strip hand-off shadow counter catches the publish
    // protocol itself: strip 1 has published zero rows when the replayed
    // consumer crosses its boundary.
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::UnorderedRead && v.detail.contains("strip hand-off")),
        "no strip hand-off UnorderedRead:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

/// A job whose 64-row blocks take the ladder, so strip runners compute
/// each publish batch of a block column (4 block rows) as one band: 8
/// block rows over 4 single-column strips at `workers = 4`.
fn banded_job<'a>(a: &'a [u8], b: &'a [u8]) -> RegionJob<'a> {
    RegionJob { grid: GridSpec { blocks: 4, threads: 32, alpha: 2 }, ..job(a, b, 4) }
}

/// Bands report their blocks to the detector one at a time in row order,
/// so a clean banded run is clean, and faults armed on a block *inside* a
/// band — not its first — are still caught: the early publish at its
/// consumer and the strip hand-off, the reorder at the phantom's reads.
#[test]
fn faults_inside_a_band_are_caught() {
    let _g = isolated();
    let (a, b) = (dna(131, 512), dna(137, 256));
    let j = banded_job(&a, &b);
    let clean = plain(&j);
    assert!(clean.paths.striped_total() > 0, "blocks must take the ladder");
    let report = race::take_report();
    assert!(
        report.is_empty(),
        "clean banded run reported violations:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );

    // Block (2,1) is the third block of column 1's first band (rows 0..4).
    fault::arm_early_publish(2, 1);
    let faulty = plain(&j);
    fault::disarm();
    let report = race::take_report();
    assert_eq!(clean.hbus, faulty.hbus);
    assert_eq!(clean.vbus, faulty.vbus);
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::WrongProducer && (v.r, v.c, v.diagonal) == (2, 2, 4)),
        "no WrongProducer at the consumer (2,2)@d4:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::UnorderedRead && v.detail.contains("strip hand-off")),
        "no strip hand-off UnorderedRead:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );

    // Block (5,2) is the second block of column 2's second band.
    fault::arm_reorder_block(5, 2);
    let faulty = plain(&j);
    fault::disarm();
    let report = race::take_report();
    assert_eq!(clean.hbus, faulty.hbus);
    assert_eq!(clean.vbus, faulty.vbus);
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::WrongProducer && (v.r, v.c, v.diagonal) == (5, 2, 7)),
        "no WrongProducer at the reordered block (5,2)@d7:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

/// The banded walk on one lane: 64-row blocks, 8 block rows over 4
/// block columns, each column's share of a publish batch one band. A
/// clean walk is clean, and the reorder fault armed on a block inside a
/// band is caught with the output unchanged.
#[test]
fn walk_fault_inside_a_band_is_caught() {
    let _g = isolated();
    let (a, b) = (dna(139, 512), dna(149, 256));
    let j = RegionJob { workers: 1, ..banded_job(&a, &b) };
    let clean = plain(&j);
    assert!(clean.strip.is_none(), "one lane runs no strips");
    assert!(clean.paths.striped_total() > 0, "blocks must take the ladder");
    let report = race::take_report();
    assert!(
        report.is_empty(),
        "clean walk reported violations:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );

    // Block (6,1) is the third block of column 1's second band.
    fault::arm_reorder_block(6, 1);
    let faulty = plain(&j);
    fault::disarm();
    let report = race::take_report();
    assert_eq!(clean.best, faulty.best);
    assert_eq!(clean.cells, faulty.cells);
    assert_eq!(clean.hbus, faulty.hbus);
    assert_eq!(clean.vbus, faulty.vbus);
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::WrongProducer && (v.r, v.c, v.diagonal) == (6, 1, 7)),
        "no WrongProducer at the reordered block (6,1)@d7:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    // The band's own record of the block reached the detector too.
    assert!(
        report.iter().any(|v| v.kind == ViolationKind::WriteOverlap
            && v.detail.contains("PHANTOM (6,1)@d7 and block (6,1)@d7")),
        "the walk's write of (6,1) never reached the detector:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

#[test]
fn second_run_after_fault_is_clean_again() {
    let _g = isolated();
    let (a, b) = (dna(41, 96), dna(59, 96));
    let j = job(&a, &b, 4);

    fault::arm_reorder_block(1, 1);
    let _ = plain(&j);
    fault::disarm();
    assert!(!race::take_report().is_empty());

    // Sessions are per-run: the next run starts from fresh shadow state.
    let _ = plain(&j);
    let report = race::take_report();
    assert!(
        report.is_empty(),
        "run after a disarmed fault reported violations:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

#[test]
fn multi_device_clean_run_reports_nothing() {
    let _g = isolated();
    let (a, b) = (dna(77, 128), dna(91, 128));
    let j = job(&a, &b, 3);
    let single = plain(&j);
    let split = multi::run_split(&WorkerPool::new(3), &j, 3).expect("no worker panic");
    assert_eq!(single.hbus, split.hbus);
    assert!(split.exchanged_cells > 0, "pipeline must actually exchange borders");
    let report = race::take_report();
    assert!(
        report.is_empty(),
        "multi-device clean run reported violations:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

/// Three cards over four block columns: card 0 owns columns 0-1, so the
/// border of block (2,1) crosses from card 0 to card 1. Publishing it
/// early is caught at the consumer and by the strip hand-off, and the
/// output stays bit-identical.
#[test]
fn multi_device_early_border_is_caught() {
    let _g = isolated();
    let (a, b) = (dna(77, 128), dna(91, 128));
    let j = job(&a, &b, 3);
    let pool = WorkerPool::new(3);
    let clean = multi::run_split(&pool, &j, 3).expect("no worker panic");
    assert!(race::take_report().is_empty(), "baseline split must be clean");

    fault::arm_early_publish(2, 1);
    let faulty = multi::run_split(&pool, &j, 3).expect("no worker panic");
    fault::disarm();
    let report = race::take_report();
    assert_eq!(clean.best, faulty.best);
    assert_eq!(clean.cells, faulty.cells);
    assert_eq!(clean.hbus, faulty.hbus);
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::WrongProducer && (v.r, v.c, v.diagonal) == (2, 2, 4)),
        "no WrongProducer at card 1's first block (2,2)@d4:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    assert!(
        report
            .iter()
            .any(|v| v.kind == ViolationKind::UnorderedRead && v.detail.contains("strip hand-off")),
        "no strip hand-off UnorderedRead at the card boundary:\n{}",
        report.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}
