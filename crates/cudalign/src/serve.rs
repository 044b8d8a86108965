//! Batched many-alignment service mode: a bounded, prioritized job
//! queue over one shared [`WorkerPool`].
//!
//! The paper aligns one huge pair end-to-end; production traffic is
//! millions of small/medium jobs. A [`Server`] owns a fixed set of
//! runner threads (spawned through the executor's sanctioned
//! [`gpu_sim::exec::spawn_service`] spawn point), each driving its own
//! reentrant [`Pipeline`] over the *same* [`WorkerPool`], so N
//! concurrent jobs share the machine's lanes instead of oversubscribing
//! it with N pools.
//!
//! Design (DESIGN.md §14):
//!
//! - **Bounded admission.** [`Server::submit_batch`] is all-or-nothing:
//!   a batch that would push the queue past `queue_cap` is rejected with
//!   the typed [`ServeError::QueueFull`] — explicit backpressure, never
//!   unbounded buffering.
//! - **Length-sorted packing.** Runners drain by priority first, then
//!   *shortest job first* within a priority class. Submitting a batch
//!   therefore executes it length-sorted, which keeps the striped
//!   i8/i16 kernels' lanes full (the inter-task batching trick of the
//!   SSW library and AnySeq/GPU): similar-length jobs run back-to-back,
//!   and each job's bands fit the per-engine [`gpu_sim::striped::ProfileCache`]
//!   (keyed by `(scoring, band)`, so interleaved tenants don't thrash).
//! - **Per-job supervision.** Every [`JobRequest`] carries its own
//!   [`RunControl`] (cancel / deadline / stall watchdog — the PR 7
//!   supervision layer verbatim); cancelling one job never perturbs
//!   another. A job cancelled while still queued is resolved without
//!   ever touching the pipeline.
//! - **Fingerprint result cache.** Results are cached in an LRU keyed
//!   by the *content* fingerprint (the storage layer's
//!   [`crate::storage::job_fingerprint`] — shape, scoring, grids —
//!   folded over both sequences), so a repeated query is near-free and
//!   two same-shape but different-content jobs never alias.
//! - **Per-job traces, merged-but-attributed stats.** Each job gets its
//!   own NDJSON trace: `job_submit` / `job_start` / `job_end` records
//!   bracketing the ordinary run records, all stamped by one
//!   server-wide injected [`Clock`] epoch. [`validate_trace`] accepts
//!   every stream this module emits, including the run-less traces of
//!   cached and queue-cancelled jobs. Attribution lives in each
//!   [`JobReport`] (its trace and its [`PipelineResult::stats`]);
//!   [`ServeStats`] merges the totals.
//!
//! Lock discipline: the queue (`jobs`), result cache (`cache`), totals
//! (`totals`) and each job's `report` mutex are single-lock protocols —
//! no code path holds two of them at once.
//!
//! [`validate_trace`]: crate::obs::validate_trace

use crate::config::PipelineConfig;
use crate::obs::{Clock, Event, Obs, Recorder as _, TraceWriter, WallClock};
use crate::pipeline::{Pipeline, PipelineError, PipelineResult};
use crate::supervise::RunControl;
use gpu_sim::exec::{spawn_service, ServiceThread};
use gpu_sim::WorkerPool;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Default bound on queued (not yet running) jobs.
const DEFAULT_QUEUE_CAP: usize = 64;
/// Default number of runner threads (concurrent pipelines).
const DEFAULT_RUNNERS: usize = 2;
/// Default result-cache entries.
const DEFAULT_CACHE_CAP: usize = 32;

/// Lock `m`, recovering from poisoning: a panicking job is surfaced as a
/// `"failed"` outcome by its runner, so the queue/cache/totals state a
/// poisoned mutex guards is still consistent and must stay usable.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Configuration and requests
// ---------------------------------------------------------------------------

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pipeline configuration shared by every job (scoring, grids,
    /// storage backend, `workers` = shared-pool lanes).
    pub pipeline: PipelineConfig,
    /// Maximum queued (admitted but not yet running) jobs; admission
    /// past this bound fails with [`ServeError::QueueFull`].
    pub queue_cap: usize,
    /// Runner threads, i.e. concurrent pipelines over the shared pool.
    pub runners: usize,
    /// Result-cache capacity in entries (0 disables the cache).
    pub cache_cap: usize,
}

impl ServeConfig {
    /// Defaults around the given pipeline configuration.
    pub fn new(pipeline: PipelineConfig) -> Self {
        ServeConfig {
            pipeline,
            queue_cap: DEFAULT_QUEUE_CAP,
            runners: DEFAULT_RUNNERS,
            cache_cap: DEFAULT_CACHE_CAP,
        }
    }
}

/// One alignment request: a sequence pair plus scheduling metadata.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Query sequence (the DP matrix's rows).
    pub s0: Vec<u8>,
    /// Database sequence (the DP matrix's columns).
    pub s1: Vec<u8>,
    /// Priority class: higher drains first.
    pub priority: u8,
    /// Per-job supervision handle (cancel / deadline / stall watchdog).
    pub ctrl: RunControl,
}

impl JobRequest {
    /// A default-priority, unsupervised request.
    pub fn new(s0: Vec<u8>, s1: Vec<u8>) -> Self {
        JobRequest { s0, s1, priority: 0, ctrl: RunControl::unlimited() }
    }

    /// Set the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Attach a supervision handle (keep a clone to cancel the job).
    #[must_use]
    pub fn with_control(mut self, ctrl: RunControl) -> Self {
        self.ctrl = ctrl;
        self
    }
}

/// Service-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The batch would overflow the admission queue; retry after some
    /// in-flight jobs drain (explicit backpressure).
    QueueFull {
        /// The configured queue bound that would have been exceeded.
        capacity: usize,
    },
    /// The server is shutting down and no longer admits jobs.
    ShuttingDown,
    /// No runner thread could be spawned; the server would never make
    /// progress.
    NoRunners,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "serve queue is full (capacity {capacity}); retry after jobs drain")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::NoRunners => write!(f, "no runner thread could be spawned"),
        }
    }
}

impl std::error::Error for ServeError {}

// ---------------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------------

/// Terminal record of one job, handed out by [`JobHandle::wait`].
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Serve-assigned job id (stable across the server's lifetime).
    pub id: u64,
    /// Content fingerprint the result cache keyed this job by.
    pub fingerprint: u64,
    /// The run's result, or the typed error that ended it. Per-job
    /// statistics ride inside [`PipelineResult::stats`] (attributed);
    /// [`ServeStats`] carries the merged totals.
    pub outcome: Result<PipelineResult, PipelineError>,
    /// Whether the result came from the fingerprint cache.
    pub cached: bool,
    /// The job's own NDJSON trace (`job_submit` … `job_end`), valid
    /// under [`crate::obs::validate_trace`].
    pub trace: String,
    /// Submit-to-terminal seconds on the server's clock.
    pub seconds: f64,
}

impl JobReport {
    /// The `job_end` outcome discriminator this report was traced with.
    pub fn outcome_kind(&self) -> &'static str {
        match &self.outcome {
            Ok(_) if self.cached => "cached",
            Ok(_) => "ok",
            Err(e) => e.interruption_kind().unwrap_or("failed"),
        }
    }
}

/// One admitted job: request data plus its completion slot.
struct JobSlot {
    id: u64,
    fingerprint: u64,
    m: usize,
    n: usize,
    priority: u8,
    /// Server-clock time at admission.
    submitted: Duration,
    /// Queue depth right after admission (this job included).
    queued_depth: usize,
    s0: Vec<u8>,
    s1: Vec<u8>,
    ctrl: RunControl,
    report: Mutex<Option<JobReport>>,
    done: Condvar,
}

impl JobSlot {
    fn resolve(&self, report: JobReport) {
        *lock_unpoisoned(&self.report) = Some(report);
        self.done.notify_all();
    }
}

/// Caller-side handle to an admitted job.
#[derive(Clone)]
pub struct JobHandle {
    slot: Arc<JobSlot>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.slot.id).finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The serve-assigned job id.
    pub fn id(&self) -> u64 {
        self.slot.id
    }

    /// The content fingerprint the result cache keys this job by.
    pub fn fingerprint(&self) -> u64 {
        self.slot.fingerprint
    }

    /// The job's supervision handle (deadline/stall state, latency).
    pub fn control(&self) -> &RunControl {
        &self.slot.ctrl
    }

    /// Request cancellation. Queued jobs resolve without running;
    /// running jobs unwind at their next supervision check, leaving
    /// every other job untouched.
    pub fn cancel(&self) {
        self.slot.ctrl.cancel();
    }

    /// The report, if the job has already reached a terminal state.
    pub fn try_report(&self) -> Option<JobReport> {
        lock_unpoisoned(&self.slot.report).clone()
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobReport {
        // lint: allow(cancel-coverage): parked on the job's completion condvar; cancelling the job (via its RunControl) resolves the report and wakes this waiter
        loop {
            let g = lock_unpoisoned(&self.slot.report);
            let g =
                self.slot.done.wait_while(g, |r| r.is_none()).unwrap_or_else(|e| e.into_inner());
            if let Some(r) = g.as_ref() {
                return r.clone();
            }
        }
    }

    /// Block until the job reaches a terminal state or `timeout`
    /// elapses; `None` on timeout (the job keeps running).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobReport> {
        let g = lock_unpoisoned(&self.slot.report);
        let (g, _) = self
            .slot
            .done
            .wait_timeout_while(g, timeout, |r| r.is_none())
            .unwrap_or_else(|e| e.into_inner());
        g.clone()
    }
}

// ---------------------------------------------------------------------------
// Merged statistics
// ---------------------------------------------------------------------------

/// Server-wide totals, merged across every job. Per-job attribution is
/// in each [`JobReport`] (its trace and its [`PipelineResult::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs that ran to a successful result (cache hits excluded).
    pub completed: u64,
    /// Jobs served from the fingerprint result cache.
    pub cache_hits: u64,
    /// Jobs ended by supervision (cancel / deadline / stall), whether
    /// queued or mid-run.
    pub cancelled: u64,
    /// Jobs that failed outright (storage, worker panic, internal).
    pub failed: u64,
    /// Batches rejected with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Highest queue depth ever observed at admission.
    pub queue_peak: usize,
    /// DP cells across all completed runs (merged).
    pub cells: u64,
    /// Pipeline wall seconds across all completed runs (merged; runs
    /// overlap, so this exceeds elapsed time under concurrency).
    pub run_seconds: f64,
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// Move-to-front LRU of completed results, keyed by content fingerprint.
struct ResultCache {
    cap: usize,
    entries: Vec<(u64, PipelineResult)>,
}

impl ResultCache {
    fn get(&mut self, key: u64) -> Option<PipelineResult> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        if i != 0 {
            let e = self.entries.remove(i);
            self.entries.insert(0, e);
        }
        Some(self.entries[0].1.clone())
    }

    fn put(&mut self, key: u64, value: PipelineResult) {
        if self.cap == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.insert(0, (key, value));
        self.entries.truncate(self.cap);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The result-cache key: the storage layer's shape/scoring/grid
/// fingerprint folded over the *content* of both sequences (with length
/// framing), so same-shape different-content jobs never alias.
fn content_fingerprint(job_fp: u64, s0: &[u8], s1: &[u8]) -> u64 {
    let h = fnv(FNV_OFFSET, &job_fp.to_le_bytes());
    let h = fnv(h, &(s0.len() as u64).to_le_bytes());
    let h = fnv(h, s0);
    let h = fnv(h, &(s1.len() as u64).to_le_bytes());
    fnv(h, s1)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct JobQueue {
    waiting: Vec<Arc<JobSlot>>,
}

struct Shared {
    queue_cap: usize,
    clock: Arc<dyn Clock + Send + Sync>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    jobs: Mutex<JobQueue>,
    work: Condvar,
    cache: Mutex<ResultCache>,
    totals: Mutex<ServeStats>,
}

/// Adapter giving each job's [`Obs`] the server's shared clock epoch,
/// so `job_submit` (stamped at admission) and the run records that
/// follow sit on one monotone timeline.
struct EpochClock(Arc<dyn Clock + Send + Sync>);

impl Clock for EpochClock {
    fn now(&self) -> Duration {
        self.0.now()
    }
}

/// A long-running alignment service over one shared [`WorkerPool`].
///
/// Dropping the server shuts it down: queued jobs resolve as cancelled,
/// in-flight jobs finish, runner threads join.
pub struct Server {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool>,
    cfg: PipelineConfig,
    runners: Vec<ServiceThread>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("runners", &self.runners.len()).finish_non_exhaustive()
    }
}

impl Server {
    /// Start a server on a fresh pool, timed by a [`WallClock`].
    pub fn new(cfg: ServeConfig) -> Result<Server, ServeError> {
        let clock: Arc<dyn Clock + Send + Sync> = Arc::new(WallClock::new());
        Server::with_clock(cfg, clock)
    }

    /// Start a server with an injected clock epoch (tests drive a
    /// [`crate::obs::SharedClock`] for deterministic trace timestamps).
    pub fn with_clock(
        cfg: ServeConfig,
        clock: Arc<dyn Clock + Send + Sync>,
    ) -> Result<Server, ServeError> {
        let pool = Arc::new(WorkerPool::new(cfg.pipeline.workers));
        let shared = Arc::new(Shared {
            queue_cap: cfg.queue_cap,
            clock,
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            jobs: Mutex::new(JobQueue { waiting: Vec::new() }),
            work: Condvar::new(),
            cache: Mutex::new(ResultCache { cap: cfg.cache_cap, entries: Vec::new() }),
            totals: Mutex::new(ServeStats::default()),
        });
        let mut runners = Vec::with_capacity(cfg.runners.max(1));
        // lint: allow(cancel-coverage): bounded spawn fan-out, one service thread per runner
        for i in 0..cfg.runners.max(1) {
            let shared2 = Arc::clone(&shared);
            let pipe = Pipeline::with_pool(cfg.pipeline.clone(), Arc::clone(&pool));
            match spawn_service(&format!("cudalign-serve-{i}"), move || {
                runner_loop(&shared2, &pipe)
            }) {
                Some(t) => runners.push(t),
                // Out of native threads: degrade to the runners that did
                // start; zero runners would never make progress.
                None => break,
            }
        }
        if runners.is_empty() {
            return Err(ServeError::NoRunners);
        }
        Ok(Server { shared, pool, cfg: cfg.pipeline, runners })
    }

    /// The shared worker pool (for utilization snapshots).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Jobs admitted but not yet picked up by a runner.
    pub fn queue_depth(&self) -> usize {
        lock_unpoisoned(&self.shared.jobs).waiting.len()
    }

    /// Merged server totals (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        lock_unpoisoned(&self.shared.totals).clone()
    }

    /// Admit one job. See [`Server::submit_batch`].
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, ServeError> {
        self.submit_batch(vec![req])?.into_iter().next().ok_or(ServeError::ShuttingDown)
    }

    /// Admit a batch of jobs, all-or-nothing: if the whole batch does
    /// not fit under `queue_cap`, *nothing* is admitted and the typed
    /// [`ServeError::QueueFull`] asks the caller to back off. Admitted
    /// jobs drain by (priority, shortest-first) — submitting a batch
    /// executes it length-sorted so the striped kernels' lanes stay
    /// full across many small jobs.
    pub fn submit_batch(&self, reqs: Vec<JobRequest>) -> Result<Vec<JobHandle>, ServeError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let base_handles = {
            let mut q = lock_unpoisoned(&self.shared.jobs);
            // Re-check under the queue lock: `shutdown_impl` sets the
            // flag before draining, so a job admitted here is either
            // seen by that drain or rejected — never queued forever.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            if q.waiting.len() + reqs.len() > self.shared.queue_cap {
                lock_unpoisoned(&self.shared.totals).rejected += 1;
                return Err(ServeError::QueueFull { capacity: self.shared.queue_cap });
            }
            let mut handles = Vec::with_capacity(reqs.len());
            // lint: allow(cancel-coverage): bounded admission of one batch under the queue lock
            for req in reqs {
                let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
                let job_fp = self.shared_job_fp(&req);
                let slot = Arc::new(JobSlot {
                    id,
                    fingerprint: job_fp,
                    m: req.s0.len(),
                    n: req.s1.len(),
                    priority: req.priority,
                    submitted: self.shared.clock.now(),
                    queued_depth: q.waiting.len() + 1,
                    s0: req.s0,
                    s1: req.s1,
                    ctrl: req.ctrl,
                    report: Mutex::new(None),
                    done: Condvar::new(),
                });
                q.waiting.push(Arc::clone(&slot));
                handles.push(JobHandle { slot });
            }
            let mut totals = lock_unpoisoned(&self.shared.totals);
            totals.submitted += handles.len() as u64;
            totals.queue_peak = totals.queue_peak.max(q.waiting.len());
            drop(totals);
            handles
        };
        self.shared.work.notify_all();
        Ok(base_handles)
    }

    /// The result-cache key for a request: the storage layer's
    /// shape/scoring/grid fingerprint (checkpoint identity, content-blind
    /// by design) folded over both sequences' bytes.
    fn shared_job_fp(&self, req: &JobRequest) -> u64 {
        let cfg_fp = self.cfg.job_fingerprint(req.s0.len(), req.s1.len());
        content_fingerprint(cfg_fp, &req.s0, &req.s1)
    }

    /// Graceful shutdown: stop admitting, resolve queued jobs as
    /// cancelled, let in-flight jobs finish, join the runners, and
    /// return the merged totals. Dropping the server does the same.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_impl();
        let stats = self.stats();
        self.runners.clear();
        stats
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let drained = {
            let mut q = lock_unpoisoned(&self.shared.jobs);
            std::mem::take(&mut q.waiting)
        };
        self.shared.work.notify_all();
        for slot in drained {
            slot.ctrl.cancel();
            resolve_unrun(&self.shared, &slot);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
        // ServiceThread joins on drop.
    }
}

// ---------------------------------------------------------------------------
// Runner side
// ---------------------------------------------------------------------------

/// Pop the next job to run: highest priority first, then shortest
/// (by `max(m, n)`), then submission order.
fn pop_next(q: &mut Vec<Arc<JobSlot>>) -> Option<Arc<JobSlot>> {
    let i = q
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| (Reverse(s.priority), s.m.max(s.n), s.id))
        .map(|(i, _)| i)?;
    Some(q.remove(i))
}

fn runner_loop(shared: &Shared, pipe: &Pipeline) {
    loop {
        let next = {
            let q = lock_unpoisoned(&shared.jobs);
            let mut q = shared
                .work
                .wait_while(q, |q| q.waiting.is_empty() && !shared.shutdown.load(Ordering::Acquire))
                .unwrap_or_else(|e| e.into_inner());
            if shared.shutdown.load(Ordering::Acquire) {
                // Remaining queued jobs are resolved (as cancelled) by
                // `shutdown_impl`, not here.
                return;
            }
            pop_next(&mut q.waiting)
        };
        if let Some(slot) = next {
            run_job(shared, pipe, &slot);
        }
    }
}

/// Open the job's trace with its admission record.
fn open_trace(slot: &JobSlot) -> TraceWriter<Vec<u8>> {
    let mut tracer = TraceWriter::new(Vec::new());
    tracer.record(
        slot.submitted,
        &Event::JobSubmit {
            job: slot.id,
            fingerprint: slot.fingerprint,
            m: slot.m,
            n: slot.n,
            priority: slot.priority,
            queued: slot.queued_depth,
        },
    );
    tracer
}

/// Resolve a job that never ran (cancelled while queued, or at server
/// shutdown): its two-record trace — `job_submit`, `job_end` — is the
/// explicitly-interrupted empty stream the validator accepts.
fn resolve_unrun(shared: &Shared, slot: &JobSlot) {
    let tracer = open_trace(slot);
    let err = match slot.ctrl.check(0) {
        Err(e) => PipelineError::from(e),
        // Shutdown drains uncancelled jobs too; report them cancelled.
        Ok(()) => PipelineError::Cancelled { diagonal: 0 },
    };
    finish_job(shared, slot, tracer, Err(err), false);
}

fn run_job(shared: &Shared, pipe: &Pipeline, slot: &JobSlot) {
    // Cancelled (or past deadline) while queued: resolve without ever
    // touching the pipeline — one tenant's cancellation must not cost
    // the others a pool scope.
    if slot.ctrl.check(0).is_err() {
        resolve_unrun(shared, slot);
        return;
    }

    let mut tracer = open_trace(slot);
    if let Some(hit) = lock_unpoisoned(&shared.cache).get(slot.fingerprint) {
        tracer.record(shared.clock.now(), &Event::JobStart { job: slot.id, cached: true });
        finish_job(shared, slot, tracer, Ok(hit), true);
        return;
    }

    tracer.record(shared.clock.now(), &Event::JobStart { job: slot.id, cached: false });
    let result = {
        let mut obs = Obs::with_clock(Box::new(EpochClock(Arc::clone(&shared.clock))));
        obs.add_recorder(&mut tracer);
        pipe.align_supervised(&slot.s0, &slot.s1, &mut obs, &slot.ctrl)
    };
    if let Ok(r) = &result {
        lock_unpoisoned(&shared.cache).put(slot.fingerprint, r.clone());
    }
    finish_job(shared, slot, tracer, result, false);
}

/// Stamp the terminal `job_end`, fold the job into the merged totals,
/// and publish the report.
fn finish_job(
    shared: &Shared,
    slot: &JobSlot,
    mut tracer: TraceWriter<Vec<u8>>,
    outcome: Result<PipelineResult, PipelineError>,
    cached: bool,
) {
    let t_end = shared.clock.now();
    let seconds = t_end.saturating_sub(slot.submitted).as_secs_f64();
    let mut report = JobReport {
        id: slot.id,
        fingerprint: slot.fingerprint,
        outcome,
        cached,
        trace: String::new(),
        seconds,
    };
    tracer.record(t_end, &Event::JobEnd { job: slot.id, outcome: report.outcome_kind(), seconds });
    report.trace = match tracer.finish() {
        Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
        // Vec sinks cannot fail; keep the report even if one ever does.
        Err(_) => String::new(),
    };

    {
        let mut totals = lock_unpoisoned(&shared.totals);
        match &report.outcome {
            Ok(_) if cached => totals.cache_hits += 1,
            Ok(r) => {
                totals.completed += 1;
                totals.cells += r.stats.total_cells();
                totals.run_seconds += r.stats.total_seconds;
            }
            Err(e) if e.is_interruption() => totals.cancelled += 1,
            Err(_) => totals.failed += 1,
        }
    }
    slot.resolve(report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::validate_trace;
    use seqio::generate::dna;

    fn tiny_server(queue_cap: usize, runners: usize) -> Server {
        let mut cfg = ServeConfig::new(PipelineConfig::for_tests());
        cfg.queue_cap = queue_cap;
        cfg.runners = runners;
        Server::new(cfg).expect("server starts")
    }

    /// Drain order: priority desc, then shortest `max(m, n)`, then id.
    #[test]
    fn queue_pops_by_priority_then_shortest_then_id() {
        fn slot(id: u64, priority: u8, m: usize, n: usize) -> Arc<JobSlot> {
            Arc::new(JobSlot {
                id,
                fingerprint: id,
                m,
                n,
                priority,
                submitted: Duration::ZERO,
                queued_depth: 1,
                s0: Vec::new(),
                s1: Vec::new(),
                ctrl: RunControl::unlimited(),
                report: Mutex::new(None),
                done: Condvar::new(),
            })
        }
        let mut q = vec![
            slot(1, 0, 500, 10),
            slot(2, 0, 40, 60),
            slot(3, 5, 900, 900),
            slot(4, 0, 60, 40),
            slot(5, 5, 100, 100),
        ];
        let order: Vec<u64> = std::iter::from_fn(|| pop_next(&mut q).map(|s| s.id)).collect();
        assert_eq!(order, vec![5, 3, 2, 4, 1], "priority desc, then shortest, then id");
    }

    /// The cache key covers sequence *content*, not just shape: two
    /// same-length pairs must not alias, and argument order matters.
    #[test]
    fn content_fingerprint_separates_same_shape_jobs() {
        let a = dna(1, 64);
        let b = dna(2, 64);
        let c = dna(3, 64);
        let base = content_fingerprint(7, &a, &b);
        assert_ne!(base, content_fingerprint(7, &a, &c), "content must be hashed");
        assert_ne!(base, content_fingerprint(7, &b, &a), "pair order must be hashed");
        assert_ne!(base, content_fingerprint(8, &a, &b), "config fingerprint folds in");
        assert_eq!(base, content_fingerprint(7, &a.clone(), &b.clone()), "deterministic");
    }

    /// Batch admission is all-or-nothing: a batch that does not fit under
    /// `queue_cap` is rejected whole with the typed backpressure error,
    /// and a fitting batch is still admitted afterwards.
    #[test]
    fn oversized_batch_is_rejected_whole() {
        let server = tiny_server(2, 1);
        let big: Vec<JobRequest> =
            (0..3).map(|i| JobRequest::new(dna(10 + i, 48), dna(20 + i, 48))).collect();
        let err = server.submit_batch(big).expect_err("3 > cap 2 must be rejected");
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        assert_eq!(server.stats().rejected, 1);
        assert_eq!(server.stats().submitted, 0, "nothing from the batch was admitted");

        let ok: Vec<JobRequest> =
            (0..2).map(|i| JobRequest::new(dna(10 + i, 48), dna(20 + i, 48))).collect();
        let handles = server.submit_batch(ok).expect("fitting batch admits");
        let reports: Vec<JobReport> = handles.iter().map(JobHandle::wait).collect();
        assert!(reports.iter().all(|r| r.outcome.is_ok()), "both jobs complete");
        assert_eq!(server.stats().completed, 2);
    }

    /// A duplicate submission is served from the fingerprint cache: same
    /// scores, `cached` report flag, a run-less trace the validator
    /// accepts, and a cache-hit total.
    #[test]
    fn duplicate_job_is_served_from_the_result_cache() {
        let server = tiny_server(8, 1);
        let (a, b) = (dna(31, 180), dna(32, 180));
        let first = server.submit(JobRequest::new(a.clone(), b.clone())).expect("admit").wait();
        let second = server.submit(JobRequest::new(a.clone(), b.clone())).expect("admit").wait();

        let r1 = first.outcome.as_ref().expect("first run succeeds");
        let r2 = second.outcome.as_ref().expect("cached result returned");
        assert!(!first.cached && second.cached, "second submission hits the cache");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(r1.best_score, r2.best_score);
        assert_eq!(r1.transcript, r2.transcript);

        let expect = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).expect("serial");
        assert_eq!(r1.best_score, expect.best_score, "serve matches serial align");

        let check = validate_trace(&second.trace).expect("cached trace validates");
        assert_eq!(check.jobs, 1);
        assert_eq!(check.records, 3, "job_submit + cached job_start + job_end");
        assert!(second.trace.contains("\"outcome\":\"cached\""));
        assert_eq!(server.stats().cache_hits, 1);
        assert_eq!(server.stats().completed, 1, "only the first submission ran");
    }

    /// A job cancelled while still queued resolves as cancelled without a
    /// pipeline run; its two-record trace passes the validator (the
    /// explicitly-interrupted empty stream).
    #[test]
    fn pre_cancelled_job_resolves_without_running() {
        let server = tiny_server(8, 1);
        let ctrl = RunControl::unlimited();
        ctrl.cancel();
        let report = server
            .submit(JobRequest::new(dna(41, 64), dna(42, 64)).with_control(ctrl))
            .expect("cancelled jobs still admit")
            .wait();
        assert_eq!(
            report.outcome.as_ref().expect_err("must not run").interruption_kind(),
            Some("cancelled")
        );
        assert_eq!(report.outcome_kind(), "cancelled");
        let check = validate_trace(&report.trace).expect("run-less trace validates");
        assert_eq!(check.records, 2, "job_submit + job_end only");
        assert_eq!(server.stats().cancelled, 1);
        assert_eq!(server.stats().completed, 0);
    }

    /// Dropping (or shutting down) a server with queued jobs resolves
    /// them as cancelled instead of leaving waiters hung, and rejects
    /// later submissions with the typed shutdown error.
    #[test]
    fn shutdown_resolves_queued_jobs_and_rejects_new_ones() {
        let server = tiny_server(8, 1);
        // Hold the single runner on a real job, then pile up queued ones.
        let busy = server.submit(JobRequest::new(dna(51, 256), dna(52, 256))).expect("admit");
        let queued: Vec<JobHandle> = server
            .submit_batch(
                (0..3).map(|i| JobRequest::new(dna(60 + i, 96), dna(70 + i, 96))).collect(),
            )
            .expect("queued batch admits");
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 4);

        let busy_report = busy.wait();
        // The in-flight job either finished or was never started before
        // the drain; both are terminal, nothing hangs.
        assert!(busy_report.outcome.is_ok() || busy_report.outcome_kind() == "cancelled");
        for h in &queued {
            let r = h.wait();
            if let Err(e) = &r.outcome {
                assert!(e.is_interruption(), "queued jobs resolve as interruptions: {e}");
            }
        }
    }
}
