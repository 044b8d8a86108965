//! `serve_mix`: a fixed count of small mixed jobs through one `Server`,
//! driven as a closed loop.

use crate::report::{
    self, median, peak_rss_mib, ratio, steal_s, steal_share, tail, units, unstolen, Report,
    SETUP_SAMPLES,
};
use crate::trace::TraceTotals;
use crate::{check_transcript, layers, probes, same_result, Args, ChildOut};
use cudalign::obs::{Obs, TraceWriter};
use cudalign::{
    JobReport, JobRequest, Pipeline, PipelineConfig, PipelineResult, ServeConfig, Server,
    WorkerPool,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqio::generate::{homologous_pair, unrelated_pair, HomologyParams};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sw_core::full::sw_local_score;
use sw_core::{Score, Scoring};

/// Runner threads x pool lanes: runner-level parallelism within `nproc`.
const RUNNERS: usize = 2;
const LANES: usize = 1;
/// Requests kept outstanding by the closed loop: one per runner. That
/// keeps both runners busy (3 or 4 outstanding gave the same throughput)
/// while p99 stays the run time of the longest jobs. With 4, p99 fell into
/// the shortest-first queue's starvation regime and moved by a third
/// between seeds; the queue's ordering only matters with two waiting.
const OUTSTANDING: usize = RUNNERS;
/// Job lengths are log-uniform in this range (bp).
const MIN_LEN: f64 = 500.0;
const MAX_LEN: f64 = 4000.0;
/// Equal time windows the timed run is cut into; throughput and
/// `align_gcups` are their medians.
const WINDOWS: usize = 10;
/// Windows the hypervisor left alone that the figures need; with fewer,
/// they come from every window.
const MIN_UNSTOLEN: usize = 4;
/// How often a run reads the hypervisor's steal time.
const STEAL_TICK: Duration = Duration::from_millis(50);
/// Seconds per job at 2 x 1, for sizing a run.
const NOMINAL_JOB_S: f64 = 1.0 / 230.0;
const MIN_JOBS: usize = 400;
/// Requests checked against `sw_local_score`, evenly spaced.
const REFERENCE_SAMPLE: usize = 24;
/// Requests the layer probes and the trace-overhead pair run on.
const PROBE_SAMPLE: usize = 16;
/// Warm-up jobs on a throwaway server before the timed one starts.
const WARMUP_JOBS: usize = 16;
/// The cache probe resubmits the last `CACHE_NEAR` timed requests, which
/// the 32-entry result cache still holds, and `CACHE_FAR` evenly spaced
/// earlier ones, which it has evicted.
const CACHE_NEAR: usize = 16;
const CACHE_FAR: usize = 8;

/// One distinct request, made from its seed when it is sent, so the
/// client holds no sequences between requests.
#[derive(Clone, Copy)]
enum PairSpec {
    /// Strain-like homologous pair of one length.
    Homologous {
        seed: u64,
        len: usize,
    },
    Unrelated {
        seed: u64,
        len0: usize,
        len1: usize,
    },
}

impl PairSpec {
    fn make(self) -> (Vec<u8>, Vec<u8>) {
        let (a, b) = match self {
            PairSpec::Homologous { seed, len } => {
                homologous_pair(seed, len, &HomologyParams::strain())
            }
            PairSpec::Unrelated { seed, len0, len1 } => unrelated_pair(seed, len0, len1),
        };
        (a.into_bases(), b.into_bases())
    }
}

/// The request stream: request `i` sends `pairs[i]`. Every request is
/// distinct, so the timed figures do not rest on an assumed repeat share;
/// the result cache is exercised by the probe after the timed run.
struct Mix {
    pairs: Vec<PairSpec>,
}

impl Mix {
    fn new(seed: u64, jobs: usize) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e_5e4e_0000_0001);
        // Requests alternate homologous (strain-like) and unrelated. Each
        // class draws its lengths from the same stratified log-uniform
        // set, shuffled by the seed, so seeds differ in content and order
        // but not in how much work the stream holds.
        let mut homologous_len = stratified(jobs.div_ceil(2), &mut rng);
        let mut unrelated_len = stratified(jobs / 2, &mut rng);
        let mut unrelated_len1 = stratified(jobs / 2, &mut rng);
        let pairs = (0..jobs)
            .map(|i| {
                let seed = rng.next_u64();
                if i % 2 == 0 {
                    let len = homologous_len.pop().expect("one length per homologous pair");
                    PairSpec::Homologous { seed, len }
                } else {
                    let len0 = unrelated_len.pop().expect("one length per unrelated pair");
                    let len1 = unrelated_len1.pop().expect("one length per unrelated pair");
                    PairSpec::Unrelated { seed, len0, len1 }
                }
            })
            .collect();
        Mix { pairs }
    }

    /// Up to `k` evenly spaced request indices.
    fn sample(&self, k: usize) -> Vec<usize> {
        let step = (self.pairs.len() / k.max(1)).max(1);
        (0..self.pairs.len()).step_by(step).take(k).collect()
    }
}

/// `k` lengths at the midpoints of `k` equal-probability strata of the
/// log-uniform [`MIN_LEN`, `MAX_LEN`] distribution, in shuffled order.
fn stratified(k: usize, rng: &mut StdRng) -> Vec<usize> {
    let span = (MAX_LEN / MIN_LEN).ln();
    let mut lens: Vec<usize> = (0..k)
        .map(|j| (MIN_LEN.ln() + (j as f64 + 0.5) / k as f64 * span).exp().round() as usize)
        .collect();
    for i in (1..lens.len()).rev() {
        lens.swap(i, rng.gen_range(0..i + 1));
    }
    lens
}

fn pipeline_config(lanes: usize) -> PipelineConfig {
    PipelineConfig::default_cpu().with_workers(lanes)
}

fn serve_config(runners: usize, lanes: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(pipeline_config(lanes));
    cfg.runners = runners;
    cfg
}

/// What a checked result is reduced to: enough to compare two results
/// for identity without keeping either.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    score: Score,
    start: (usize, usize),
    end: (usize, usize),
    /// Hash of the transcript's edit operations.
    transcript: u64,
}

impl Outcome {
    fn of(r: &PipelineResult) -> Outcome {
        let mut h = DefaultHasher::new();
        r.transcript.ops().hash(&mut h);
        Outcome { score: r.best_score, start: r.start, end: r.end, transcript: h.finish() }
    }
}

/// One request as the client saw it, checked and reduced as it arrived.
struct Done {
    index: usize,
    latency_s: f64,
    /// Completion time, seconds after the first submission.
    done_at: f64,
    cells: f64,
    cached: bool,
    /// Crosspoints after stages 1-4 (zero for a cache hit).
    crosspoints: [usize; 4],
    /// The checked result, or why the request failed or was wrong.
    outcome: Result<Outcome, String>,
}

/// Steal readings of one run: `(seconds since it began, steal_s())`.
type StealMarks = Vec<(f64, f64)>;

/// A run cut into [`WINDOWS`] equal time windows.
struct Windows {
    width: f64,
    /// Per window: whether the hypervisor left it alone (see [`unstolen`]).
    kept: [bool; WINDOWS],
}

impl Windows {
    fn new(makespan: f64, marks: &[(f64, f64)]) -> Windows {
        let width = makespan / WINDOWS as f64;
        // The last reading at or before `t`; the first reading for the
        // start of the run, which it follows by a few microseconds.
        let steal_at = |t: f64| {
            let before = marks.iter().take_while(|m| m.0 <= t).last();
            before.or(marks.first()).map_or(0.0, |m| m.1)
        };
        let shares: Vec<(usize, f64)> = (0..WINDOWS)
            .map(|k| {
                let (a, b) = (k as f64 * width, (k + 1) as f64 * width);
                (k, steal_share(steal_at(b) - steal_at(a), width))
            })
            .collect();
        let mut kept = [false; WINDOWS];
        for k in unstolen(&shares, MIN_UNSTOLEN).0 {
            kept[k] = true;
        }
        Windows { width, kept }
    }

    fn of(&self, at: f64) -> usize {
        ((at / self.width) as usize).min(WINDOWS - 1)
    }

    /// A job that completed at `at` completed in a kept window.
    fn keeps(&self, at: f64) -> bool {
        self.kept[self.of(at)]
    }

    fn count(&self) -> usize {
        self.kept.iter().filter(|&&k| k).count()
    }

    /// Median jobs/s and GCUPS over the kept windows, from each completed
    /// job's completion time and cells: a neighbour's burst on a shared
    /// host moves one window, not the figure.
    fn rates(&self, completed: &[(f64, f64)]) -> (f64, f64) {
        let mut jobs = [0.0; WINDOWS];
        let mut cells = [0.0; WINDOWS];
        for &(at, c) in completed {
            jobs[self.of(at)] += 1.0;
            cells[self.of(at)] += c;
        }
        let pick = |v: [f64; WINDOWS]| -> Vec<f64> {
            v.iter().zip(self.kept).filter(|(_, k)| *k).map(|(x, _)| *x).collect()
        };
        (median(&pick(jobs)) / self.width, median(&pick(cells)) / self.width / 1e9)
    }
}

/// Check one report against its pair and reduce it: the trace validates
/// (and is folded into `tr`), and a computed transcript is valid and
/// re-scores to its score.
fn reduce(
    report: Result<JobReport, String>,
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    tr: &Mutex<TraceTotals>,
) -> (bool, [usize; 4], Result<Outcome, String>) {
    let r = match report {
        Ok(r) => r,
        Err(e) => return (false, [0; 4], Err(format!("rejected: {e}"))),
    };
    let traced = tr.lock().expect("no client panics holding the lock").add_trace(&r.trace);
    let res = match &r.outcome {
        Ok(res) => res,
        Err(e) => return (r.cached, [0; 4], Err(e.to_string())),
    };
    let outcome =
        traced.and_then(|()| check_transcript(res, a, b, scoring)).map(|()| Outcome::of(res));
    (r.cached, res.stats.crosspoints, outcome)
}

/// Closed loop: `OUTSTANDING` callers, each submitting its next request
/// only after `JobHandle::wait` returns the previous one, take the
/// requests `indices` in order. Each caller checks and reduces a report
/// before it sends its next request, so nothing grows with the run but
/// one small record per request. A sleeping thread reads the
/// hypervisor's steal time every [`STEAL_TICK`]. Returns the records
/// sorted by request index, the makespan and the steal readings.
fn drive(
    server: &Server,
    mix: &Mix,
    indices: &[usize],
    scoring: &Scoring,
    tr: &Mutex<TraceTotals>,
) -> (Vec<Done>, f64, StealMarks) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(indices.len()));
    let finished = AtomicBool::new(false);
    let t0 = Instant::now();
    let (makespan, marks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut marks = Vec::new();
            loop {
                marks.push((t0.elapsed().as_secs_f64(), steal_s()));
                if finished.load(Ordering::Acquire) {
                    return marks;
                }
                std::thread::park_timeout(STEAL_TICK);
            }
        });
        let callers: Vec<_> = (0..OUTSTANDING)
            .map(|_| {
                s.spawn(|| {
                    while let Some(&index) = indices.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (a, b) = mix.pairs[index].make();
                        let cells = (a.len() * b.len()) as f64;
                        let req = JobRequest::new(a.clone(), b.clone());
                        let t = Instant::now();
                        let report =
                            server.submit(req).map(|h| h.wait()).map_err(|e| e.to_string());
                        let latency_s = t.elapsed().as_secs_f64();
                        let done_at = t0.elapsed().as_secs_f64();
                        let (cached, crosspoints, outcome) = reduce(report, &a, &b, scoring, tr);
                        done.lock().expect("no client panics holding the lock").push(Done {
                            index,
                            latency_s,
                            done_at,
                            cells,
                            cached,
                            crosspoints,
                            outcome,
                        });
                    }
                })
            })
            .collect();
        let joined: Vec<_> = callers.into_iter().map(|c| c.join()).collect();
        let makespan = t0.elapsed().as_secs_f64();
        // Stop the sampler before a caller's panic goes on, or the scope
        // would wait for it forever.
        finished.store(true, Ordering::Release);
        sampler.thread().unpark();
        let marks = sampler.join().expect("the steal sampler does not panic");
        if let Some(Err(panic)) = joined.into_iter().find(Result::is_err) {
            std::panic::resume_unwind(panic);
        }
        (makespan, marks)
    });
    let mut done = done.into_inner().expect("no client panics holding the lock");
    done.sort_by_key(|d| d.index);
    (done, makespan, marks)
}

/// Wrapping sum of `(index + 1) * score` over the requests that scored:
/// the single-thread child's results, comparable across processes.
fn checksum<'a>(done: impl IntoIterator<Item = (usize, &'a Outcome)>) -> i64 {
    done.into_iter()
        .fold(0i64, |sum, (i, o)| sum.wrapping_add((i as i64 + 1).wrapping_mul(i64::from(o.score))))
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let jobs = units(args.seconds, NOMINAL_JOB_S, MIN_JOBS);
    let mix = Mix::new(args.seed, jobs);
    let scfg = serve_config(RUNNERS, LANES);
    let scoring = scfg.pipeline.scoring;

    let setup_s = report::median_setup(|| Server::new(scfg.clone()));
    // Warm the process on a throwaway server so the timed one starts
    // with an empty result cache; its first job is the cold run.
    let cold_first_s = {
        let warm = Mix::new(args.seed ^ 0xc01d, WARMUP_JOBS);
        let server = Server::new(scfg.clone()).expect("server starts");
        let indices: Vec<usize> = (0..WARMUP_JOBS).collect();
        let (done, _, _) = drive(&server, &warm, &indices, &scoring, &Mutex::default());
        done.first().map_or(0.0, |d| d.latency_s)
    };

    let server = match Server::new(scfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            rep.attempted += 1;
            rep.fail_op(format!("Server::new: {e}"));
            return rep;
        }
    };
    let tr = Mutex::new(TraceTotals::default());
    let indices: Vec<usize> = (0..jobs).collect();
    let (done, makespan, marks) = drive(&server, &mix, &indices, &scoring, &tr);
    let rss = peak_rss_mib();
    // The result cache, probed after the timed run on the same server.
    let probe: Vec<usize> = {
        let far_step = jobs.saturating_sub(4 * CACHE_NEAR) / CACHE_FAR;
        let far = (0..CACHE_FAR).map(|k| k * far_step);
        far.chain(jobs.saturating_sub(CACHE_NEAR)..jobs).collect()
    };
    let (probed, _, _) = drive(&server, &mix, &probe, &scoring, &Mutex::default());
    let stats = server.shutdown();
    let tr = tr.into_inner().expect("no client panics holding the lock");

    // Correctness gate, outside the timed region.
    let mut outcomes: Vec<Option<Outcome>> = vec![None; jobs];
    let mut latencies = Vec::with_capacity(jobs);
    let mut completed = Vec::with_capacity(jobs);
    let mut crosspoints = [0usize; 4];
    for d in &done {
        rep.attempted += 1;
        match &d.outcome {
            Ok(o) => outcomes[d.index] = Some(*o),
            Err(why) => {
                rep.fail_op(format!("job {}: {why}", d.index));
                continue;
            }
        }
        for (sum, n) in crosspoints.iter_mut().zip(d.crosspoints) {
            *sum += n;
        }
        latencies.push((d.done_at, d.latency_s));
        completed.push((d.done_at, d.cells));
    }
    let mut hits = 0;
    for d in &probed {
        rep.attempted += 1;
        hits += usize::from(d.cached);
        let agree = matches!((&d.outcome, outcomes[d.index]), (Ok(p), Some(o)) if *p == o);
        if !agree {
            rep.fail_op(format!(
                "resubmitted job {} (cached: {}): {:?}, first run {:?}",
                d.index, d.cached, d.outcome, outcomes[d.index]
            ));
        }
    }
    for index in mix.sample(REFERENCE_SAMPLE) {
        let Some(o) = outcomes[index] else { continue };
        let (a, b) = mix.pairs[index].make();
        let reference = sw_local_score(&a, &b, &scoring);
        rep.gate((o.score, o.end) == reference, || {
            format!("job {index}: {:?} != sw_local_score {reference:?}", (o.score, o.end))
        });
    }

    let windows = Windows::new(makespan, &marks);
    let (jobs_s, gcups) = windows.rates(&completed);
    let latencies: Vec<f64> =
        latencies.iter().filter(|(at, _)| windows.keeps(*at)).map(|(_, l)| *l).collect();
    let n = latencies.len();
    let (tail_s, tail_label) = tail(&latencies);
    let kept = format!("{} of {WINDOWS} windows with steal <= 3 % kept", windows.count());
    let run_gcups = completed.iter().map(|c| c.1).sum::<f64>() / makespan / 1e9;
    rep.e2e(
        "setup_s",
        setup_s,
        "s",
        SETUP_SAMPLES,
        "Server::new, median of batch means (20 per batch)",
    );
    let note = format!("m*n of completed requests, median of windows; {kept}");
    rep.e2e("align_gcups", gcups, "GCUPS", completed.len(), &note);
    rep.e2e("peak_rss_mb", rss, "MiB", 1, "VmHWM after the timed jobs");
    let note = format!("completed requests, median of windows; {kept}");
    rep.e2e("throughput_jobs_s", jobs_s, "jobs/s", completed.len(), &note);
    let note = format!("submit to report, client side, jobs done in kept windows; {kept}");
    rep.e2e("latency_p50_ms", median(&latencies) * 1e3, "ms", n, &note);
    rep.e2e("latency_tail_ms", tail_s * 1e3, "ms", n, tail_label);

    if args.trace {
        let timed = Timed {
            tr,
            stats,
            hits,
            probes: probe.len(),
            crosspoints,
            run_gcups,
            cold_first_s,
            outcomes,
        };
        traced_pass(&mut rep, args, &mix, &timed);
    }
    rep
}

/// What the traced pass takes from the timed run.
struct Timed {
    /// Every job's trace, folded.
    tr: TraceTotals,
    stats: cudalign::ServeStats,
    /// Cache hits among the resubmitted requests of the cache probe.
    hits: usize,
    probes: usize,
    /// Summed over the timed jobs.
    crosspoints: [usize; 4],
    /// Cells of all completed requests / makespan (not windowed).
    run_gcups: f64,
    cold_first_s: f64,
    /// The checked result per request index.
    outcomes: Vec<Option<Outcome>>,
}

fn traced_pass(rep: &mut Report, args: &Args, mix: &Mix, timed: &Timed) {
    let tr = &timed.tr;
    let cfg = pipeline_config(LANES);
    let pairs: Vec<_> = mix.sample(PROBE_SAMPLE).into_iter().map(|i| mix.pairs[i].make()).collect();
    let sample: Vec<_> = pairs.iter().map(|(a, b)| (a.as_slice(), b.as_slice())).collect();
    let tile = probes::tile_mcups(&sample, &cfg.grid1, &cfg.scoring);
    let pool = WorkerPool::new(LANES);
    let wavefront = match probes::wavefront_mcups(&pool, &sample, &cfg.grid1, &cfg.scoring, LANES) {
        Ok((mcups, best)) => {
            let reference: Vec<_> =
                sample.iter().map(|(a, b)| sw_local_score(a, b, &cfg.scoring).0).collect();
            rep.gate(best == reference, || format!("run_pooled best {best:?} != {reference:?}"));
            mcups
        }
        Err(e) => {
            rep.errors.push(e);
            0.0
        }
    };
    drop(pool);

    // Trace overhead: the probe sample through one w=1 pipeline, untraced
    // and traced, alternating.
    let pipe = Pipeline::new(cfg.clone());
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for &(a, b) in &sample {
        let t = Instant::now();
        let plain = pipe.align(a, b);
        plain_s += t.elapsed().as_secs_f64();
        let mut writer = TraceWriter::new(Vec::new());
        let t = Instant::now();
        let traced = {
            let mut obs = Obs::new();
            obs.add_recorder(&mut writer);
            pipe.align_observed(a, b, &mut obs)
        };
        traced_s += t.elapsed().as_secs_f64();
        let agree = matches!((&plain, &traced), (Ok(p), Ok(t)) if same_result(p, t));
        rep.gate(agree, || "traced and untraced alignments differ".to_string());
        let text = writer.finish().map(|b| String::from_utf8_lossy(&b).into_owned());
        let valid =
            text.map_err(|e| format!("{e:?}")).and_then(|t| TraceTotals::default().add_trace(&t));
        rep.gate(valid.is_ok(), || format!("traced probe job: {valid:?}"));
    }
    drop(pipe);

    // Strip-level parallelism (1 runner x 2 lanes) on the first half of
    // the stream, beside the timed runner-level (2 x 1) figure.
    let prefix: Vec<usize> = (0..mix.pairs.len() / 2).collect();
    let strip_jobs_s = match Server::new(serve_config(1, RUNNERS * LANES)) {
        Ok(server) => {
            let (done, makespan, marks) =
                drive(&server, mix, &prefix, &cfg.scoring, &Mutex::default());
            let mut ok = Vec::with_capacity(prefix.len());
            for d in &done {
                rep.attempted += 1;
                let timed_outcome = timed.outcomes[d.index];
                match &d.outcome {
                    Ok(o) if Some(*o) == timed_outcome => ok.push((d.done_at, 0.0)),
                    other => rep.fail_op(format!(
                        "strip-level job {}: {other:?}, timed run {timed_outcome:?}",
                        d.index
                    )),
                }
            }
            Windows::new(makespan, &marks).rates(&ok).0
        }
        Err(e) => {
            rep.errors.push(format!("strip-level Server::new: {e}"));
            0.0
        }
    };
    let w1 = match crate::w1_child(args) {
        Ok(c) => c,
        Err(e) => {
            rep.errors.push(e);
            ChildOut::default()
        }
    };
    let expected =
        checksum(prefix.iter().filter_map(|&i| timed.outcomes[i].as_ref().map(|o| (i, o))));
    rep.gate(w1.check == expected, || {
        format!("1 x 1 child's score checksum {} != the timed run's {expected}", w1.check)
    });

    layers::kernel(rep, tr, tile, "stage-1 tile shape of 16 sampled jobs, median of 5");
    layers::wavefront(rep, tr, tile, wavefront, "run_pooled, 1 lane, over 16 sampled jobs");
    layers::stage1(rep, tr, wavefront);
    layers::disk(rep, 0.0, 0.0, "memory special rows only: disk bypassed");
    layers::traceback(rep, tr, timed.crosspoints);
    layers::pipeline(rep, tr, timed.cold_first_s, "first job of a fresh server, submit to report");
    let jobs = tr.queue_wait_s.len();
    rep.layer(
        "serve.queue_wait_ms_p50",
        median(&tr.queue_wait_s) * 1e3,
        "ms",
        jobs,
        "job_start - job_submit",
    );
    rep.layer("serve.run_ms_p50", median(&tr.job_run_s) * 1e3, "ms", jobs, "job_end - job_start");
    rep.layer(
        "serve.cache_hit_ratio",
        ratio(timed.hits as f64, timed.probes as f64),
        "ratio",
        timed.probes,
        "hits / resubmitted requests (16 in the cache's reach, 8 evicted)",
    );
    rep.layer(
        "serve.queue_peak",
        timed.stats.queue_peak as f64,
        "count",
        jobs,
        "ServeStats::queue_peak",
    );
    rep.layer("serve.failed", timed.stats.failed as f64, "count", jobs, "ServeStats::failed");
    rep.layer("serve.rejected", timed.stats.rejected as f64, "count", jobs, "ServeStats::rejected");
    rep.layer(
        "serve.strip_level_jobs_s",
        strip_jobs_s,
        "jobs/s",
        prefix.len(),
        "1 runner x 2 lanes, first half",
    );
    let scaling = layers::Scaling {
        w1_gcups: w1.gcups,
        efficiency: ratio(timed.run_gcups, (RUNNERS * LANES) as f64 * w1.gcups),
        w1_rss_mib: w1.rss_mib,
    };
    layers::scaling(rep, &scaling, "1 runner x 1 lane, first half, own process");
    let note = "summed traced / untraced wall of 16 sampled jobs, alternating, - 1";
    layers::trace_overhead(rep, traced_s, plain_s, sample.len(), note);
}

/// The `--w1` child: the first half of the stream through 1 runner x
/// 1 lane. `check` is the [`checksum`] of the scores.
pub fn w1(args: &Args) -> Result<ChildOut, String> {
    let jobs = units(args.seconds, NOMINAL_JOB_S, MIN_JOBS);
    let mix = Mix::new(args.seed, jobs);
    let prefix: Vec<usize> = (0..jobs / 2).collect();
    let scfg = serve_config(1, 1);
    let scoring = scfg.pipeline.scoring;
    let server = Server::new(scfg).map_err(|e| e.to_string())?;
    let (done, makespan, _) = drive(&server, &mix, &prefix, &scoring, &Mutex::default());
    drop(server);
    let ok: Vec<_> = done.iter().filter_map(|d| d.outcome.as_ref().ok().map(|o| (d, o))).collect();
    let gcups = ok.iter().map(|(d, _)| d.cells).sum::<f64>() / makespan / 1e9;
    let check = checksum(ok.iter().map(|(d, o)| (d.index, *o)));
    Ok(ChildOut { gcups, rss_mib: peak_rss_mib(), check })
}
