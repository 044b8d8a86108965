//! Microbenchmarks of the DP kernels: cell-update throughput (the MCUPS
//! that all paper-scale projections build on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::kernel::{compute, global_borders, GlobalOrigin, Rung, Tile};
use gpu_sim::striped::ProfileCache;
use gpu_sim::wavefront::{run_pooled, NoObserver, RegionJob};
use gpu_sim::{GridSpec, Mode, WorkerPool};
use sw_core::linear::RowDp;
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

fn dna(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
}

fn bench_rowdp(c: &mut Criterion) {
    let mut g = c.benchmark_group("rowdp");
    let n = 4096usize;
    let a = dna(1, 1024);
    let b = dna(2, n);
    g.throughput(Throughput::Elements((a.len() * n) as u64));
    g.bench_function("forward_1024x4096", |bench| {
        bench.iter(|| {
            let mut dp = RowDp::new(n, Scoring::paper(), EdgeState::Diagonal);
            for &ch in &a {
                dp.step(ch, &b);
            }
            dp.h()[n]
        })
    });
    g.finish();
}

/// Tile throughput on the default (striped) path and the scalar reference,
/// same shapes and seeds as `src/bin/mcups.rs`, so criterion's statistics
/// back up the speedups recorded in BENCH_kernel.json.
fn bench_tile(c: &mut Criterion) {
    let mut g = c.benchmark_group("tile");
    for &(h, w) in &[(256usize, 256usize), (256, 4096)] {
        let a = dna(3, h);
        let b = dna(4, w);
        g.throughput(Throughput::Elements((h * w) as u64));
        for scalar in [false, true] {
            let path = if scalar { "scalar" } else { "striped" };
            g.bench_with_input(
                BenchmarkId::new(format!("global_{path}"), format!("{h}x{w}")),
                &(h, w),
                |bench, _| {
                    bench.iter(|| {
                        let (mut top, mut left, corner) = global_borders(
                            h,
                            w,
                            &Scoring::paper(),
                            GlobalOrigin::forward(EdgeState::Diagonal),
                        );
                        let rung = if scalar { Rung::Scalar } else { Rung::Auto };
                        let sc = Scoring::paper();
                        let tile = Tile { corner, ..Tile::new(&a, &b, &sc) };
                        compute(
                            &tile,
                            rung,
                            &mut top,
                            &mut left,
                            &mut ProfileCache::new(),
                            &[],
                            &mut [],
                        )
                        .corner_out
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("local_{path}"), format!("{h}x{w}")),
                &(h, w),
                |bench, _| {
                    bench.iter(|| {
                        let (mut top, mut left, corner) = gpu_sim::kernel::local_borders(h, w);
                        let rung = if scalar { Rung::Scalar } else { Rung::Auto };
                        let sc = Scoring::paper();
                        let tile = Tile { local: true, corner, ..Tile::new(&a, &b, &sc) };
                        compute(
                            &tile,
                            rung,
                            &mut top,
                            &mut left,
                            &mut ProfileCache::new(),
                            &[],
                            &mut [],
                        )
                        .best
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_wavefront(c: &mut Criterion) {
    let mut g = c.benchmark_group("wavefront");
    g.sample_size(10);
    let a = dna(5, 4096);
    let b = dna(6, 4096);
    g.throughput(Throughput::Elements((a.len() * b.len()) as u64));
    for workers in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("local_4096x4096", workers), &workers, |bench, &w| {
            let job = RegionJob {
                a: &a,
                b: &b,
                scoring: Scoring::paper(),
                mode: Mode::Local,
                grid: GridSpec { blocks: 16, threads: 16, alpha: 4 },
                workers: w,
                watch: None,
            };
            let pool = WorkerPool::new(w);
            bench.iter(|| run_pooled(&pool, &job, &mut NoObserver).expect("no worker panic").best)
        });
    }
    g.finish();
}

/// The paper's phase division keeps the hot kernel free of bookkeeping;
/// this measures the monomorphized variants' relative cost.
fn bench_kernel_phases(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_phases");
    let (h, w) = (512usize, 1024usize);
    let a = dna(21, h);
    let b = dna(22, w);
    g.throughput(Throughput::Elements((h * w) as u64));
    let sc = Scoring::paper();
    g.bench_function("global_plain", |bench| {
        bench.iter(|| {
            let (mut top, mut left, corner) =
                global_borders(h, w, &sc, GlobalOrigin::forward(EdgeState::Diagonal));
            compute(
                &Tile { corner, ..Tile::new(&a, &b, &sc) },
                Rung::Auto,
                &mut top,
                &mut left,
                &mut ProfileCache::new(),
                &[],
                &mut [],
            )
            .corner_out
        })
    });
    g.bench_function("global_watching", |bench| {
        bench.iter(|| {
            let (mut top, mut left, corner) =
                global_borders(h, w, &sc, GlobalOrigin::forward(EdgeState::Diagonal));
            compute(
                &Tile { watch: Some(i32::MAX / 8), corner, ..Tile::new(&a, &b, &sc) },
                Rung::Auto,
                &mut top,
                &mut left,
                &mut ProfileCache::new(),
                &[],
                &mut [],
            )
            .corner_out
        })
    });
    g.bench_function("local_tracking", |bench| {
        bench.iter(|| {
            let (mut top, mut left, corner) = gpu_sim::kernel::local_borders(h, w);
            compute(
                &Tile { local: true, corner, ..Tile::new(&a, &b, &sc) },
                Rung::Auto,
                &mut top,
                &mut left,
                &mut ProfileCache::new(),
                &[],
                &mut [],
            )
            .best
        })
    });
    g.finish();
}

/// Scheduler overhead: many tiny diagonals are the executor's worst case
/// (one barrier per diagonal, almost no DP work per job).
///
/// The `launch/*` rows run a real wavefront over a 512x512 matrix cut
/// into 64x64 blocks of 8x8 cells (127 external diagonals), either on a
/// persistent [`WorkerPool`] (`pooled`) or standing a fresh pool up per
/// launch (`fresh_pool`).
///
/// The `handoff/*` rows isolate what the executor replaced: the
/// pre-executor engine stood worker threads up once *per diagonal*, so
/// `per_diagonal_spawn` creates a fresh pool for each of 127 barrier
/// scopes while `pooled` hands the same scopes to long-lived workers.
/// Pooled must not be slower than the spawning variant.
fn bench_scheduler_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    let a = dna(7, 512);
    let b = dna(8, 512);
    let grid = GridSpec { blocks: 64, threads: 8, alpha: 1 };
    let diagonals = 2 * 64 - 1;
    g.throughput(Throughput::Elements((a.len() * b.len()) as u64));
    for workers in [2usize, 4] {
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid,
            workers,
            watch: None,
        };
        g.bench_with_input(BenchmarkId::new("launch/pooled", workers), &workers, |bench, &w| {
            let pool = WorkerPool::new(w);
            bench.iter(|| run_pooled(&pool, &job, &mut NoObserver).unwrap().best)
        });
        g.bench_with_input(
            BenchmarkId::new("launch/fresh_pool", workers),
            &workers,
            |bench, &w| {
                bench.iter(|| {
                    let pool = WorkerPool::new(w);
                    run_pooled(&pool, &job, &mut NoObserver).unwrap().best
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("handoff/pooled", workers), &workers, |bench, &w| {
            let pool = WorkerPool::new(w);
            bench.iter(|| {
                let mut acc = 0u64;
                for d in 0..diagonals {
                    let shards: Vec<u64> = (0..w as u64).map(|k| d + k).collect();
                    let mut outs = vec![0u64; shards.len()];
                    pool.scope(|s| {
                        for (shard, out) in shards.iter().zip(outs.iter_mut()) {
                            s.spawn(move || *out = shard.wrapping_mul(0x9E3779B97F4A7C15));
                        }
                    })
                    .unwrap();
                    acc = acc.wrapping_add(outs.iter().sum::<u64>());
                }
                acc
            })
        });
        g.bench_with_input(
            BenchmarkId::new("handoff/per_diagonal_spawn", workers),
            &workers,
            |bench, &w| {
                bench.iter(|| {
                    let mut acc = 0u64;
                    for d in 0..diagonals {
                        let pool = WorkerPool::new(w);
                        let shards: Vec<u64> = (0..w as u64).map(|k| d + k).collect();
                        let mut outs = vec![0u64; shards.len()];
                        pool.scope(|s| {
                            for (shard, out) in shards.iter().zip(outs.iter_mut()) {
                                s.spawn(move || *out = shard.wrapping_mul(0x9E3779B97F4A7C15));
                            }
                        })
                        .unwrap();
                        acc = acc.wrapping_add(outs.iter().sum::<u64>());
                    }
                    acc
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_rowdp,
    bench_tile,
    bench_wavefront,
    bench_kernel_phases,
    bench_scheduler_overhead
);
criterion_main!(benches);
