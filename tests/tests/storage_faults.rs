//! Crash-recovery torture tests for the storage layer: simulated kills at
//! random diagonals, corrupted/truncated survivor files, injected disk
//! faults. The contract under every fault: the pipeline either produces a
//! result as good as the uninterrupted run or a clean typed error — never
//! a panic, never a silently wrong alignment.

use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::obs::Obs;
use cudalign::storage::fault;
use cudalign::{Pipeline, PipelineConfig, PipelineError, RunControl};
use seqio::generate::edited_pair;
use std::path::{Path, PathBuf};
use sw_core::full::sw_local_score;
use sw_core::Scoring;

/// Disarms every hook even when the test body panics, so one failing test
/// cannot cascade into the others.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cudalign-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn ckpt_cfg(dir: &Path) -> PipelineConfig {
    let mut cfg = PipelineConfig::for_tests();
    cfg.backend = SraBackend::Disk(dir.to_path_buf());
    cfg.checkpoint = Some(CheckpointPolicy { dir: dir.to_path_buf(), every_diagonals: 3 });
    cfg
}

fn special_row_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("special-row-") && n.ends_with(".bin"))
        })
        .collect();
    v.sort();
    v
}

fn assert_optimal(res: &cudalign::PipelineResult, a: &[u8], b: &[u8], tag: &str) {
    let (ref_score, ref_end) = sw_local_score(a, b, &Scoring::paper());
    assert_eq!(res.best_score, ref_score, "{tag}: score");
    assert_eq!(res.end, ref_end, "{tag}: end point");
    let sub_a = &a[res.start.0..res.end.0];
    let sub_b = &b[res.start.1..res.end.1];
    res.transcript.validate(sub_a, sub_b).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_eq!(res.transcript.score(sub_a, sub_b, &Scoring::paper()), ref_score, "{tag}");
}

/// Kill Stage 1 at pseudo-random diagonals; each kill must surface as the
/// typed `Interrupted` error (never a partial result), and resuming from
/// the surviving checkpoint + row files must reproduce the uninterrupted
/// run byte for byte.
#[test]
fn kill_at_random_diagonals_resumes_byte_identical() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(41, 400, 13);
    let reference = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    assert!(reference.best_score > 0, "torture pair must align");

    let mut x = 0xBAD_C0FFEu64;
    for trial in 0..5 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let k = 1 + (x >> 33) as usize % 18;
        let dir = fresh_dir(&format!("kill-{trial}"));
        let cfg = ckpt_cfg(&dir);

        fault::arm_stage1_kill(k);
        let err = Pipeline::new(cfg.clone())
            .align(&a, &b)
            .expect_err("armed kill must interrupt the run");
        match err {
            PipelineError::Interrupted { diagonal } => {
                assert!(diagonal + 1 >= k, "kill at {k} reported diagonal {diagonal}");
            }
            other => panic!("kill at {k}: expected Interrupted, got {other}"),
        }
        fault::disarm_all();

        let resumed = Pipeline::new(cfg).align(&a, &b).expect("resume after kill");
        assert_eq!(resumed.best_score, reference.best_score, "kill at {k}");
        assert_eq!(
            resumed.binary.encode(),
            reference.binary.encode(),
            "kill at diagonal {k}: resumed alignment must be byte-identical"
        );
        assert_eq!(resumed.transcript.ops(), reference.transcript.ops());
        if k > 6 {
            // The 3-diagonal cadence guarantees a snapshot existed by then.
            assert!(
                resumed.stats.resumed_from_diagonal > 0,
                "kill at {k} should resume mid-matrix, not restart"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill Stage 1 mid-strip under the column-strip scheduler, then resume
/// with a *different* worker count: the checkpoint is schedule-agnostic
/// (the strip plan is re-derived at launch), so the resumed run must be
/// byte-identical whether it restarts serial, narrower, or wider.
#[test]
fn kill_mid_strip_resumes_under_any_worker_count() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(47, 420, 17);
    let reference = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    assert!(reference.best_score > 0, "torture pair must align");

    for resume_workers in [1usize, 3, 8] {
        let dir = fresh_dir(&format!("strip-kill-w{resume_workers}"));
        let mut cfg = ckpt_cfg(&dir);
        // The killed run uses 4 workers over the 4-column test grid: four
        // strips in flight when the kill lands.
        cfg.workers = 4;

        fault::arm_stage1_kill(9);
        let err = Pipeline::new(cfg.clone())
            .align(&a, &b)
            .expect_err("armed kill must interrupt the run");
        match err {
            PipelineError::Interrupted { .. } => {}
            other => panic!("expected Interrupted, got {other}"),
        }
        fault::disarm_all();

        cfg.workers = resume_workers;
        let resumed = Pipeline::new(cfg).align(&a, &b).expect("resume after mid-strip kill");
        assert_eq!(resumed.best_score, reference.best_score, "workers={resume_workers}");
        assert_eq!(
            resumed.binary.encode(),
            reference.binary.encode(),
            "resume with workers={resume_workers} must be byte-identical"
        );
        assert_eq!(resumed.transcript.ops(), reference.transcript.ops());
        assert!(
            resumed.stats.resumed_from_diagonal > 0,
            "kill at diagonal 9 with 3-diagonal cadence must leave a snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cooperative cancellation (not a simulated kill) at pseudo-random
/// diagonals under every strip-scheduler worker count, resumed under a
/// *different* worker count. The cancel path flushes a boundary
/// checkpoint before unwinding, and that snapshot is schedule-agnostic:
/// whatever widths cancel and resume run at, the finished alignment must
/// be byte-identical to the uninterrupted reference.
#[test]
fn cancel_at_arbitrary_diagonal_resumes_under_a_different_worker_count() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(53, 420, 15);
    let reference = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    assert!(reference.best_score > 0, "torture pair must align");

    let mut x = 0xCAFE_F00Du64;
    for (cancel_workers, resume_workers) in [(1usize, 4usize), (2, 8), (4, 1), (8, 2)] {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let k = 1 + (x >> 33) as usize % 16;
        let tag = format!("cancel-w{cancel_workers}-to-w{resume_workers}");
        let dir = fresh_dir(&tag);
        let mut cfg = ckpt_cfg(&dir);
        cfg.workers = cancel_workers;

        let ctrl = RunControl::unlimited().with_cancel_after_diagonal(k);
        let err = Pipeline::new(cfg.clone())
            .align_supervised(&a, &b, &mut Obs::new(), &ctrl)
            .expect_err("cancel-after-diagonal must interrupt the run");
        assert!(err.is_interruption(), "{tag}: {err}");
        match err {
            PipelineError::Cancelled { diagonal } => {
                assert!(diagonal + 1 >= k, "{tag}: cancel at {k} reported diagonal {diagonal}");
            }
            other => panic!("{tag}: expected Cancelled, got {other}"),
        }

        cfg.workers = resume_workers;
        let resumed = Pipeline::new(cfg).align(&a, &b).expect("resume after cancel");
        assert_eq!(resumed.best_score, reference.best_score, "{tag} cancel at {k}");
        assert_eq!(
            resumed.binary.encode(),
            reference.binary.encode(),
            "{tag}: resume after cancel at diagonal {k} must be byte-identical"
        );
        assert_eq!(resumed.transcript.ops(), reference.transcript.ops());
        if k > 6 {
            // The 3-diagonal cadence (plus the flush-on-cancel) guarantees
            // a snapshot existed by then.
            assert!(
                resumed.stats.resumed_from_diagonal > 0,
                "{tag}: cancel at {k} should resume mid-matrix, not restart"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Damage what the crash left behind — bit-flip one special-row file,
/// truncate another — then resume. The damaged rows are rejected (counted,
/// deleted, never decoded) and the pipeline still reaches the optimal
/// alignment, verified against an independent quadratic reference.
#[test]
fn corrupted_survivors_still_reach_the_optimal_alignment() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(42, 400, 11);

    let dir = fresh_dir("corrupt-rows");
    let cfg = ckpt_cfg(&dir);
    fault::arm_stage1_kill(12);
    Pipeline::new(cfg.clone()).align(&a, &b).expect_err("armed kill must interrupt");
    fault::disarm_all();

    let rows = special_row_files(&dir);
    let mut damaged = 0u64;
    if let Some(p) = rows.first() {
        let mut bytes = std::fs::read(p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(p, &bytes).unwrap();
        damaged += 1;
    }
    if let Some(p) = rows.get(1) {
        let bytes = std::fs::read(p).unwrap();
        std::fs::write(p, &bytes[..bytes.len() / 3]).unwrap();
        damaged += 1;
    }

    let res = Pipeline::new(cfg).align(&a, &b).expect("resume with damaged rows");
    assert_optimal(&res, &a, &b, "damaged rows");
    assert!(res.stats.resumed_from_diagonal > 0, "checkpoint itself was intact");
    assert_eq!(res.stats.storage_rejected_files, damaged, "each damaged file counted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage the checkpoint itself: the resumed run must fall back to a
/// fresh start (resuming from garbage is never acceptable), sweep the now
/// orphaned row files, and still produce the optimal alignment.
#[test]
fn corrupted_checkpoint_falls_back_to_a_fresh_start() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(43, 400, 9);

    let dir = fresh_dir("corrupt-ckpt");
    let cfg = ckpt_cfg(&dir);
    fault::arm_stage1_kill(14);
    Pipeline::new(cfg.clone()).align(&a, &b).expect_err("armed kill must interrupt");
    fault::disarm_all();

    let ckpt = dir.join("stage1.ckpt");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&ckpt, &bytes).unwrap();
    let orphans = special_row_files(&dir).len() as u64;

    let res = Pipeline::new(cfg).align(&a, &b).expect("fresh start after bad checkpoint");
    assert_optimal(&res, &a, &b, "bad checkpoint");
    assert_eq!(res.stats.resumed_from_diagonal, 0, "garbage snapshot must not resume");
    assert!(
        res.stats.storage_swept_files >= orphans,
        "orphaned row files swept on the fresh start"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Plant partial rows that do not parse inside a checkpoint whose
/// checksum and engine state are intact: the checkpoint does not load,
/// so the run starts fresh (no half-restored rows, no I/O error) and
/// still produces the optimal alignment.
#[test]
fn malformed_partials_in_a_valid_checkpoint_start_fresh() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(45, 400, 9);

    let dir = fresh_dir("bad-partials");
    let cfg = ckpt_cfg(&dir);
    fault::arm_stage1_kill(14);
    Pipeline::new(cfg.clone()).align(&a, &b).expect_err("armed kill must interrupt");
    fault::disarm_all();

    let fp = cfg.job_fingerprint(a.len(), b.len());
    let ckpt = dir.join("stage1.ckpt");
    let bytes = cudalign::storage::read_checksummed(&ckpt, fp).expect("intact checkpoint");
    let (state, _) = cudalign::stage1::decode_checkpoint(&bytes).expect("checkpoint parses");
    let engine = state.encode();
    let mut planted = b"CKS1".to_vec();
    planted.extend_from_slice(&(engine.len() as u64).to_le_bytes());
    planted.extend_from_slice(&engine);
    // One in-flight row of 4 cells (index 8, origin 0) whose bytes run out.
    planted.extend_from_slice(b"SRAP");
    for v in [1u64, 8, 0, 4] {
        planted.extend_from_slice(&v.to_le_bytes());
    }
    planted.extend_from_slice(&[1, 0, 0]);
    cudalign::storage::write_checksummed(&ckpt, fp, &planted).expect("plant the checkpoint");
    assert!(cudalign::stage1::load_checkpoint(&dir, fp).is_none(), "malformed partials load");

    let res = Pipeline::new(cfg).align(&a, &b).expect("fresh start after malformed partials");
    assert_optimal(&res, &a, &b, "malformed partials");
    assert_eq!(res.stats.resumed_from_diagonal, 0, "malformed partials must not resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected disk faults during a plain (no-checkpoint) disk-backed run:
/// ENOSPC drops the affected row and continues; a transient error is
/// retried transparently; a torn write the OS acknowledged is caught by
/// the CRC at read time at worst; an injected read corruption drops the
/// row. Every variant still yields the optimal score.
#[test]
fn injected_write_and_read_faults_degrade_never_wrong() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(44, 400, 13);
    let reference = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    assert!(reference.stats.special_rows > 0, "fault trials need rows to flush");

    let disk = |tag: &str| {
        let mut cfg = PipelineConfig::for_tests();
        cfg.backend = SraBackend::Disk(fresh_dir(tag));
        cfg
    };

    // ENOSPC on the very first row flush: dropped, counted, not fatal.
    {
        let cfg = disk("enospc");
        fault::arm_write(0, fault::WriteFault::Enospc, 1);
        let res = Pipeline::new(cfg).align(&a, &b).expect("ENOSPC must degrade, not fail");
        fault::disarm_all();
        assert_optimal(&res, &a, &b, "enospc");
        assert!(res.stats.dropped_special_rows >= 1, "the failed row is counted");
    }

    // A transient error is retried with backoff and the run is unchanged.
    {
        let cfg = disk("transient");
        fault::arm_write(1, fault::WriteFault::Transient, 1);
        let res = Pipeline::new(cfg).align(&a, &b).expect("transient fault must be retried");
        fault::disarm_all();
        assert_optimal(&res, &a, &b, "transient");
        assert!(res.stats.storage_retries >= 1, "the retry is surfaced in stats");
        assert_eq!(res.stats.dropped_special_rows, 0);
        assert_eq!(res.binary.encode(), reference.binary.encode());
    }

    // A torn write lands a truncated frame under the final name with a
    // success report; if any stage reads that row, the CRC rejects it.
    {
        let cfg = disk("torn");
        fault::arm_write(0, fault::WriteFault::Torn { keep_bytes: 17 }, 1);
        let res = Pipeline::new(cfg).align(&a, &b).expect("torn write must degrade");
        fault::disarm_all();
        assert_optimal(&res, &a, &b, "torn");
    }

    // The first row read back from disk comes back bit-flipped: the row
    // is dropped and counted, never decoded into wrong cells.
    {
        let cfg = disk("read-corrupt");
        fault::arm_read_corrupt(0);
        let res = Pipeline::new(cfg).align(&a, &b).expect("read corruption must degrade");
        fault::disarm_all();
        assert_optimal(&res, &a, &b, "read corruption");
        assert!(res.stats.dropped_special_rows >= 1, "the corrupt row is counted");
    }

    for tag in ["enospc", "transient", "torn", "read-corrupt"] {
        let _ = std::fs::remove_dir_all(
            std::env::temp_dir().join(format!("cudalign-torture-{tag}-{}", std::process::id())),
        );
    }
}

/// Without checkpoints a one-lane stage 1 takes the banded walk, which
/// delivers blocks out of diagonal order (64-row blocks: 16 block rows
/// over 3 block columns). The kill hook and the cancel-after-diagonal
/// trigger read the completed-diagonal frontier, so each still stops the
/// run with a typed interruption at or after its diagonal, and no result.
#[test]
fn walk_interrupts_on_the_frontier() {
    let _guard = fault::test_guard();
    let _disarm = Disarm;
    let (a, b) = edited_pair(53, 1000, 11);
    let mut cfg = PipelineConfig::for_tests();
    cfg.workers = 1;
    cfg.grid1 = gpu_sim::GridSpec { blocks: 3, threads: 16, alpha: 4 };
    let total = cfg.grid1.layout(a.len(), b.len()).diagonals();
    for k in [1usize, 5, 9, 12] {
        fault::arm_stage1_kill(k);
        let err = Pipeline::new(cfg.clone()).align(&a, &b).expect_err("armed kill must interrupt");
        fault::disarm_all();
        match err {
            PipelineError::Interrupted { diagonal } => {
                assert!((k..=total).contains(&diagonal), "kill at {k} reported {diagonal}");
            }
            other => panic!("kill at {k}: expected Interrupted, got {other}"),
        }

        let ctrl = RunControl::unlimited().with_cancel_after_diagonal(k);
        let err = Pipeline::new(cfg.clone())
            .align_supervised(&a, &b, &mut Obs::new(), &ctrl)
            .expect_err("cancelled run must not return a result");
        match err {
            PipelineError::Cancelled { diagonal } => {
                assert!((k..=total).contains(&diagonal), "cancel at {k} reported {diagonal}");
            }
            other => panic!("cancel at {k}: expected Cancelled, got {other}"),
        }
    }
}
