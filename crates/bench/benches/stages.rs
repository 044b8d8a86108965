//! Stage-level benchmarks: the flush overhead (Table IV), the
//! orthogonal-execution saving (Table IX) and the whole pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cudalign::sra::LineStore;
use cudalign::{
    stage1, stage4, Crosspoint, CrosspointChain, Pipeline, PipelineConfig, StageContext, WorkerPool,
};
use seqio::generate::{homologous_pair, HomologyParams};
use sw_core::full::nw_global_typed;
use sw_core::transcript::EdgeState;
use sw_core::Scoring;

fn pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    let (a, b) = homologous_pair(9, len, &HomologyParams::chromosome());
    (a.into_bases(), b.into_bases())
}

fn bench_stage1_flush(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage1");
    g.sample_size(10);
    let (a, b) = pair(4096);
    g.throughput(Throughput::Elements((a.len() * b.len()) as u64));
    for (name, sra) in [("noflush", 0u64), ("flush", 1 << 20)] {
        g.bench_with_input(BenchmarkId::new(name, a.len()), &sra, |bench, &sra| {
            let mut cfg = PipelineConfig::default_cpu();
            cfg.sra_bytes = sra;
            let pool = WorkerPool::new(cfg.workers);
            let fp = cfg.job_fingerprint(a.len(), b.len());
            bench.iter(|| {
                let mut rows = LineStore::new(&cfg.backend, sra, "row", fp).unwrap();
                stage1::run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None)
                    .unwrap()
                    .best_score
            })
        });
    }
    g.finish();
}

fn bench_stage4_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage4");
    g.sample_size(10);
    let (a, b) = pair(4096);
    let (score, _) =
        nw_global_typed(&a, &b, &Scoring::paper(), EdgeState::Diagonal, EdgeState::Diagonal);
    let chain = CrosspointChain::new(vec![
        Crosspoint::start(0, 0),
        Crosspoint::end(a.len(), b.len(), score),
    ]);
    for (name, orth) in [("classic", false), ("orthogonal", true)] {
        g.bench_with_input(BenchmarkId::new(name, a.len()), &orth, |bench, &orth| {
            let mut cfg = PipelineConfig::default_cpu();
            cfg.orthogonal_stage4 = orth;
            let pool = WorkerPool::new(cfg.workers);
            bench.iter(|| {
                stage4::run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap().cells
            })
        });
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for len in [1024usize, 4096] {
        let (a, b) = pair(len);
        g.throughput(Throughput::Elements((a.len() * b.len()) as u64));
        g.bench_with_input(BenchmarkId::new("full", len), &len, |bench, _| {
            let cfg = PipelineConfig::default_cpu();
            bench.iter(|| Pipeline::new(cfg.clone()).align(&a, &b).unwrap().best_score)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_stage1_flush, bench_stage4_modes, bench_pipeline);
criterion_main!(benches);
