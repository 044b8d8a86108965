//! The pair workloads: one Table II pair, scaled down, aligned end to end
//! by `Pipeline::align` with the reproduction harness's configuration.

use crate::report::{
    self, median, peak_rss_mib, ratio, steal_s, steal_share, tail, unstolen, Report, SETUP_SAMPLES,
};
use crate::trace::TraceTotals;
use crate::{check_transcript, layers, probes, same_result, Args, ChildOut};
use cudalign::config::SraBackend;
use cudalign::obs::{Obs, TraceWriter};
use cudalign::{Pipeline, PipelineConfig, PipelineResult, WorkerPool};
use cudalign_bench::runs::{repro_config, Workload};
use seqio::DatasetRegistry;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use sw_core::full::sw_local_score;
use sw_core::Score;

pub struct PairWorkload {
    /// Table II key.
    key: &'static str,
    /// Linear scale divisor.
    scale: usize,
}

/// `32799Kx46944K` at 1/1000: 32.8 k x 46.9 k, every stage loaded.
pub const CHROMOSOME: PairWorkload = PairWorkload { key: "32799Kx46944K", scale: 1000 };
/// `543Kx536K` at 1/16: 33.9 k x 33.5 k unrelated, stage 1 only.
pub const UNRELATED: PairWorkload = PairWorkload { key: "543Kx536K", scale: 16 };

/// Timed alignments per run, at least. Past that, alignments repeat
/// until `--seconds` of timed wall time has passed.
const MIN_REPS: usize = 5;
/// Alignments the hypervisor left alone that the figures need; with
/// fewer, they come from every timed alignment.
const MIN_UNSTOLEN: usize = 3;
/// Untraced-then-traced alignment pairs in the traced pass.
const TRACED_ROUNDS: usize = 3;

/// The pair and the reproduction harness's configuration, with the
/// special rows kept in memory. On a shared host's disk, stage 2's
/// read-back of `chromosome`'s 128 rows took 0.6-1.5 s and grew from one
/// alignment to the next, against a steady 0.30-0.36 s from memory; no
/// statistic inside a run removes that. The traced pass times the disk
/// area once, as a layer figure.
fn inputs(pw: &PairWorkload, seed: u64, workers: usize) -> (Workload, PipelineConfig) {
    let reg = DatasetRegistry::paper();
    let spec = reg.get(pw.key).expect("the registry holds every Table II pair");
    let w = Workload::new(spec, pw.scale, seed);
    let mut cfg = repro_config(&w);
    cfg.workers = workers;
    cfg.backend = SraBackend::Memory;
    (w, cfg)
}

/// The gate on one result: the independent reference score and end
/// point, and a transcript that is valid and re-scores to the score.
fn check(
    r: &PipelineResult,
    reference: (Score, (usize, usize)),
    w: &Workload,
    cfg: &PipelineConfig,
) -> Result<(), String> {
    if (r.best_score, r.end) != reference {
        return Err(format!(
            "score/end {:?} differ from sw_local_score {:?}",
            (r.best_score, r.end),
            reference
        ));
    }
    check_transcript(r, w.s0.bases(), w.s1.bases(), &cfg.scoring)
}

pub fn run(pw: &PairWorkload, args: &Args, work: &Path) -> Report {
    let mut rep = Report::default();
    let workers = crate::host_parallelism();
    let (w, cfg) = inputs(pw, args.seed, workers);
    let (s0, s1) = (w.s0.bases(), w.s1.bases());
    let cells = w.cells() as f64;
    let reference = sw_local_score(s0, s1, &cfg.scoring);

    let setup_s = report::median_setup(|| Pipeline::new(cfg.clone()));
    let pipe = Pipeline::new(cfg.clone());

    // Untimed warm-up; its wall time is the cold first call.
    let t = Instant::now();
    let first = pipe.align(s0, s1);
    let cold_first_s = t.elapsed().as_secs_f64();
    rep.attempted += 1;
    let first = match first {
        Ok(r) => r,
        Err(e) => {
            rep.fail_op(format!("warm-up alignment failed: {e}"));
            return rep;
        }
    };
    if let Err(e) = check(&first, reference, &w, &cfg) {
        rep.fail_op(e);
    }

    // Host speed drifts by 10-20 % over seconds to minutes, so a run
    // spends its whole `--seconds` on timed alignments. Each is paired
    // with the hypervisor's steal over it.
    let mut calls = Vec::new();
    let mut timed_s = 0.0;
    let mut i = 0;
    while i < MIN_REPS || timed_s < args.seconds as f64 {
        let stolen = steal_s();
        let t = Instant::now();
        let r = pipe.align(black_box(s0), black_box(s1));
        let dt = t.elapsed().as_secs_f64();
        let share = steal_share(steal_s() - stolen, dt);
        timed_s += dt;
        rep.attempted += 1;
        match black_box(r) {
            Ok(r) if same_result(&r, &first) => calls.push((dt, share)),
            Ok(_) => rep.fail_op(format!("repetition {i} differs from the warm-up result")),
            Err(e) => rep.fail_op(format!("repetition {i} failed: {e}")),
        }
        i += 1;
        if rep.failed > 0 {
            break;
        }
    }
    let rss = peak_rss_mib();
    let (secs, stolen) = unstolen(&calls, MIN_UNSTOLEN);
    let n = secs.len();
    let med = median(&secs);
    let (tail_s, tail_label) = tail(&secs);
    let gcups = ratio(cells, med) / 1e9;
    let kept = format!("{stolen} of {} calls with steal > 3 % left out", calls.len());
    rep.e2e(
        "setup_s",
        setup_s,
        "s",
        SETUP_SAMPLES,
        "Pipeline::new, median of batch means (20 per batch)",
    );
    let note = format!("m*n / median Pipeline::align wall time; {kept}");
    rep.e2e("align_gcups", gcups, "GCUPS", n, &note);
    rep.e2e("peak_rss_mb", rss, "MiB", 1, "VmHWM after the timed alignments");
    rep.e2e(
        "throughput_jobs_s",
        ratio(1.0, med),
        "jobs/s",
        n,
        "1 / median Pipeline::align wall time",
    );
    let note = format!("median Pipeline::align wall time; {kept}");
    rep.e2e("latency_p50_ms", med * 1e3, "ms", n, &note);
    rep.e2e("latency_tail_ms", tail_s * 1e3, "ms", n, tail_label);

    if args.trace {
        let timed = Timed { pipe, first, gcups, cold_first_s };
        traced_pass(&mut rep, args, &w, &cfg, &timed, work);
    }
    rep
}

/// What the traced pass takes from the timed run.
struct Timed {
    /// The warmed pipeline the timed repetitions ran on.
    pipe: Pipeline,
    /// The warm-up result every later run must reproduce.
    first: PipelineResult,
    gcups: f64,
    cold_first_s: f64,
}

fn traced_pass(
    rep: &mut Report,
    args: &Args,
    w: &Workload,
    cfg: &PipelineConfig,
    timed: &Timed,
    work: &Path,
) {
    let (s0, s1) = (w.s0.bases(), w.s1.bases());
    let first = &timed.first;
    // Untraced and traced alignments alternate, so host drift over the
    // pass moves both sides alike; every traced run's trace is folded in.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut tr = TraceTotals::default();
    let mut crosspoints = [0usize; 4];
    for _ in 0..TRACED_ROUNDS {
        let t = Instant::now();
        let plain = timed.pipe.align(s0, s1);
        plain_s.push(t.elapsed().as_secs_f64());
        let mut writer = TraceWriter::new(Vec::new());
        let t = Instant::now();
        let traced = {
            let mut obs = Obs::new();
            obs.add_recorder(&mut writer);
            timed.pipe.align_observed(s0, s1, &mut obs)
        };
        traced_s.push(t.elapsed().as_secs_f64());
        rep.attempted += 2;
        for (what, r) in [("untraced", &plain), ("traced", &traced)] {
            match r {
                Ok(r) if same_result(r, first) => {}
                Ok(_) => {
                    rep.fail_op(format!("{what} traced-pass alignment differs from the warm-up"))
                }
                Err(e) => rep.fail_op(format!("{what} traced-pass alignment failed: {e}")),
            }
        }
        if let Ok(r) = &traced {
            for (sum, n) in crosspoints.iter_mut().zip(r.stats.crosspoints) {
                *sum += n;
            }
        }
        let text = writer.finish().map(|b| String::from_utf8_lossy(&b).into_owned());
        match text {
            Ok(text) => {
                if let Err(e) = tr.add_trace(&text) {
                    rep.errors.push(e);
                }
            }
            Err(e) => rep.errors.push(format!("trace sink: {e:?}")),
        }
    }

    // The special rows on disk as in the paper, inside the checkout.
    let disk_cfg = PipelineConfig { backend: SraBackend::Disk(work.join("sra")), ..cfg.clone() };
    let t = Instant::now();
    let disk = Pipeline::new(disk_cfg).align(s0, s1);
    let disk_s = t.elapsed().as_secs_f64();
    rep.attempted += 1;
    let disk_stage2_s = match disk {
        Ok(r) if same_result(&r, first) => r.stats.stage_seconds[1],
        Ok(_) => {
            rep.fail_op("disk-backed alignment differs from the warm-up".into());
            0.0
        }
        Err(e) => {
            rep.fail_op(format!("disk-backed alignment failed: {e}"));
            0.0
        }
    };

    // Layer probes.
    let pair = [(s0, s1)];
    let tile = probes::tile_mcups(&pair, &cfg.grid1, &cfg.scoring);
    let pool = WorkerPool::new(cfg.workers);
    let wavefront =
        match probes::wavefront_mcups(&pool, &pair, &cfg.grid1, &cfg.scoring, cfg.workers) {
            Ok((mcups, best)) => {
                rep.gate(best == [first.best_score], || {
                    format!("run_pooled best {best:?} != {}", first.best_score)
                });
                mcups
            }
            Err(e) => {
                rep.errors.push(e);
                0.0
            }
        };
    drop(pool);
    let w1 = match crate::w1_child(args) {
        Ok(c) => {
            rep.gate(c.check == i64::from(first.best_score), || {
                format!("workers=1 child scored {} not {}", c.check, first.best_score)
            });
            c
        }
        Err(e) => {
            rep.errors.push(e);
            ChildOut::default()
        }
    };

    layers::kernel(rep, &tr, tile, "stage-1 tile shape, 16 block rows, median of 5");
    layers::wavefront(rep, &tr, tile, wavefront, "run_pooled over the whole matrix");
    layers::stage1(rep, &tr, wavefront);
    layers::disk(rep, disk_s, disk_stage2_s, "one alignment, special rows on disk");
    layers::traceback(rep, &tr, crosspoints);
    layers::pipeline(rep, &tr, timed.cold_first_s, "the untimed warm-up Pipeline::align");
    layers::serve_bypassed(rep);
    let scaling = layers::Scaling {
        w1_gcups: w1.gcups,
        efficiency: ratio(timed.gcups, cfg.workers as f64 * w1.gcups),
        w1_rss_mib: w1.rss_mib,
    };
    layers::scaling(rep, &scaling, "one alignment at workers=1, own process");
    let note = "median traced / median untraced alignment, alternating, - 1";
    layers::trace_overhead(rep, median(&traced_s), median(&plain_s), TRACED_ROUNDS, note);
}

/// The `--w1` child: one alignment of the same pair at `workers = 1`,
/// in a process of its own so its peak RSS is its own.
pub fn w1(pw: &PairWorkload, args: &Args) -> Result<ChildOut, String> {
    let (w, cfg) = inputs(pw, args.seed, 1);
    let pipe = Pipeline::new(cfg);
    let t = Instant::now();
    let r = pipe.align(w.s0.bases(), w.s1.bases()).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    Ok(ChildOut {
        gcups: w.cells() as f64 / secs / 1e9,
        rss_mib: peak_rss_mib(),
        check: i64::from(r.best_score),
    })
}
