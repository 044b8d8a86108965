//! Determinism: the pipeline's output must not depend on worker count,
//! grid shape or repetition — only on the inputs and the scoring scheme.

use cudalign::{Pipeline, PipelineConfig};
use gpu_sim::GridSpec;
use seqio::generate::edited_pair;

#[test]
fn repeated_runs_are_identical() {
    let (a, b) = edited_pair(21, 800, 13);
    let cfg = PipelineConfig::for_tests();
    let r1 = Pipeline::new(cfg.clone()).align(&a, &b).unwrap();
    let r2 = Pipeline::new(cfg).align(&a, &b).unwrap();
    assert_eq!(r1.best_score, r2.best_score);
    assert_eq!(r1.start, r2.start);
    assert_eq!(r1.end, r2.end);
    assert_eq!(r1.transcript.ops(), r2.transcript.ops());
    assert_eq!(r1.binary, r2.binary);
}

#[test]
fn worker_count_does_not_change_output() {
    let (a, b) = edited_pair(22, 700, 11);
    let mut results = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut cfg = PipelineConfig::for_tests();
        cfg.workers = workers;
        results.push(Pipeline::new(cfg).align(&a, &b).unwrap());
    }
    for r in &results[1..] {
        assert_eq!(r.best_score, results[0].best_score);
        assert_eq!(r.start, results[0].start);
        assert_eq!(r.end, results[0].end);
        assert_eq!(r.transcript.ops(), results[0].transcript.ops());
    }
}

/// The strongest form of the worker-count claim: the *compact binary
/// output* of the whole six-stage pipeline is byte-for-byte identical
/// between a serial run and a run on a wide persistent pool. Any
/// scheduling leak anywhere in stages 1-5 (block merge order, partition
/// fan-out order, crosspoint chains) would show up here.
#[test]
fn pooled_pipeline_output_is_byte_identical_to_serial() {
    let (a, b) = edited_pair(27, 900, 17);
    let mut serial_cfg = PipelineConfig::for_tests();
    serial_cfg.workers = 1;
    let serial = Pipeline::new(serial_cfg).align(&a, &b).unwrap();
    let serial_bytes = serial.binary.encode();

    for workers in [2usize, 8] {
        let mut cfg = PipelineConfig::for_tests();
        cfg.workers = workers;
        let pipeline = Pipeline::new(cfg);
        assert!(pipeline.pool().lanes() >= 1);
        let pooled = pipeline.align(&a, &b).unwrap();
        assert_eq!(pooled.best_score, serial.best_score, "workers={workers}");
        assert_eq!(pooled.start, serial.start, "workers={workers}");
        assert_eq!(pooled.end, serial.end, "workers={workers}");
        assert_eq!(
            pooled.binary.encode(),
            serial_bytes,
            "compact binary output diverged at workers={workers}"
        );
    }
}

#[test]
fn score_is_grid_invariant() {
    // The *score*, endpoint and start are grid-invariant. (The exact
    // crosspoint chain may differ because special rows fall elsewhere.)
    let (a, b) = edited_pair(23, 600, 9);
    let mut scores = Vec::new();
    for (g1, g23) in [
        (
            GridSpec { blocks: 2, threads: 2, alpha: 1 },
            GridSpec { blocks: 1, threads: 2, alpha: 1 },
        ),
        (
            GridSpec { blocks: 4, threads: 4, alpha: 2 },
            GridSpec { blocks: 2, threads: 4, alpha: 2 },
        ),
        (
            GridSpec { blocks: 8, threads: 8, alpha: 4 },
            GridSpec { blocks: 4, threads: 8, alpha: 4 },
        ),
    ] {
        let mut cfg = PipelineConfig::for_tests();
        cfg.grid1 = g1;
        cfg.grid23 = g23;
        let r = Pipeline::new(cfg).align(&a, &b).unwrap();
        scores.push((r.best_score, r.start, r.end));
    }
    for s in &scores[1..] {
        assert_eq!(s, &scores[0]);
    }
}

#[test]
fn disk_and_memory_backends_agree() {
    let (a, b) = edited_pair(24, 500, 15);
    let mem = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    let dir = std::env::temp_dir().join(format!("cudalign-det-{}", std::process::id()));
    let mut cfg = PipelineConfig::for_tests();
    cfg.backend = cudalign::config::SraBackend::Disk(dir.clone());
    let disk = Pipeline::new(cfg).align(&a, &b).unwrap();
    assert_eq!(mem.best_score, disk.best_score);
    assert_eq!(mem.transcript.ops(), disk.transcript.ops());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stages 2 and 3 on the scaled benchmark grid (`grid23 = {60, 8, 2}`,
/// 16x16 blocks on strips a few hundred rows tall): regions whose blocks
/// sit below `wavefront::HANDOFF_BREAK_EVEN_CELLS` run on one lane, so
/// two workers and one give byte-identical crosspoint chains, special
/// columns and transcripts. The short tiles commit on the scalar kernel,
/// and the counters, the stats and the trace account for them.
#[test]
fn small_stage23_blocks_are_worker_count_independent() {
    use cudalign::config::SraBackend;
    use cudalign::obs::{parse_json, Json};
    use cudalign::sra::LineStore;
    use cudalign::{stage1, stage2, stage3, Obs, StageContext, TraceWriter};
    use gpu_sim::{CellHE, CellHF, WorkerPool};

    let (a, b) = edited_pair(29, 1_600, 23);
    let mut outs = Vec::new();
    for workers in [1usize, 2] {
        let mut cfg = PipelineConfig::for_tests();
        cfg.grid23 = GridSpec { blocks: 60, threads: 8, alpha: 2 };
        cfg.workers = workers;
        // Four special rows: stage-2 strips ~320 rows tall, so the
        // engine's view is 20 block columns of 16x16 blocks.
        cfg.sra_bytes = 8 * (b.len() as u64 + 1) * 4;
        let pool = WorkerPool::new(workers);
        let mut rows =
            LineStore::<CellHF>::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let s1 = stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
            .unwrap();
        let mut cols =
            LineStore::<CellHE>::new(&SraBackend::Memory, cfg.sca_bytes, "col", 7).unwrap();
        let s2 = stage2::run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            s1.best_score,
            s1.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        let s3 =
            stage3::run(&mut StageContext::new(&a, &b, &cfg, &pool), &s2.chain, &cols).unwrap();
        for (stage, paths) in [(2, s2.paths), (3, s3.paths)] {
            assert!(paths.scalar > 0, "stage {stage} counts its scalar tiles: {paths:?}");
            assert_eq!(paths.striped_total(), 0, "stage {stage}: 16-row tiles stay scalar");
        }

        let mut tracer = TraceWriter::new(Vec::new());
        let res = {
            let mut obs = Obs::new();
            obs.add_recorder(&mut tracer);
            Pipeline::new(cfg).align_observed(&a, &b, &mut obs).unwrap()
        };
        let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
        cudalign::obs::validate_trace(&text).expect("schema-valid trace");
        let mut traced_scalar = 0u64;
        for line in text.lines() {
            let rec = parse_json(line).unwrap();
            if rec.get("ev").and_then(Json::str_val) == Some("kernel") {
                let stage = rec.get("stage").and_then(Json::num).unwrap();
                let scalar = rec.get("scalar").and_then(Json::num).unwrap() as u64;
                if stage >= 2.0 {
                    assert!(scalar > 0, "stage {stage} kernel record counts scalar tiles");
                }
                traced_scalar += scalar;
            }
        }
        assert_eq!(traced_scalar, res.stats.kernel_scalar_tiles, "trace and stats agree");
        assert!(res.stats.kernel_scalar_tiles >= s2.paths.scalar + s3.paths.scalar);
        outs.push((
            s2.chain.points().to_vec(),
            s2.special_columns,
            s3.chain.points().to_vec(),
            res,
        ));
    }
    let (one, two) = (&outs[0], &outs[1]);
    assert_eq!(one.0, two.0, "stage-2 chain");
    assert_eq!(one.1, two.1, "special columns");
    assert_eq!(one.2, two.2, "stage-3 chain");
    assert_eq!(one.3.transcript.ops(), two.3.transcript.ops(), "transcript");
    assert_eq!(one.3.binary.encode(), two.3.binary.encode(), "compact binary output");
}
