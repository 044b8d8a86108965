//! Crash recovery: the paper's chromosome run took 18.5 hours on the
//! GTX 285 — long enough that a crash must not restart from zero. This
//! example simulates the workflow: run Stage 1 with checkpointing,
//! "crash" mid-matrix, then align again and watch the pipeline resume
//! from the snapshot instead of recomputing the whole forward pass.
//!
//! ```text
//! cargo run -p cudalign --release --example checkpoint_resume [length]
//! ```

use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::sra::LineStore;
use cudalign::{stage1, Pipeline, PipelineConfig, StageContext, WorkerPool};
use seqio::generate::{homologous_pair, HomologyParams};
use std::time::Instant;

fn main() {
    let len: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let (s0, s1) = homologous_pair(17, len, &HomologyParams::chromosome());
    let dir = std::env::temp_dir().join(format!("cudalign-ckpt-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = PipelineConfig::default_cpu();
    cfg.backend = SraBackend::Disk(dir.clone());
    cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 16 });

    println!("pair: {} bp x {} bp", s0.len(), s1.len());

    // --- The "crashing" run: stage 1 persists combined snapshots (engine
    // state + in-flight special rows) to <dir>/stage1.ckpt as it goes;
    // abandon the run and keep whatever the last snapshot captured.
    let fp = cfg.job_fingerprint(s0.len(), s1.len());
    {
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&cfg.backend, cfg.sra_bytes, "special-row", fp).unwrap();
        let t = Instant::now();
        let _ = stage1::run(
            &mut StageContext::new(s0.bases(), s1.bases(), &cfg, &pool),
            &mut rows,
            None,
            Some((dir.as_path(), 16)),
        );
        println!("full stage 1: {:.2}s", t.elapsed().as_secs_f64());
        std::mem::forget(rows); // crash: leave the special-row files behind
    }
    let (snap, _) = stage1::load_checkpoint(&dir, fp).expect("snapshot parses");
    println!("simulated crash; surviving snapshot at external diagonal {}", snap.next_diagonal);

    // --- The recovery run: Pipeline::align picks the snapshot up itself.
    let t = Instant::now();
    let res = Pipeline::new(cfg).align(s0.bases(), s1.bases()).expect("pipeline failed");
    println!(
        "resumed pipeline: {:.2}s total, stage 1 recomputed only the tail of the matrix",
        t.elapsed().as_secs_f64()
    );
    println!(
        "score {} | start {:?} | end {:?} | alignment {} columns",
        res.best_score,
        res.start,
        res.end,
        res.transcript.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
