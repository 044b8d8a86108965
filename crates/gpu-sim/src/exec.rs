//! Persistent worker-pool executor.
//!
//! The engine used to spawn OS threads on *every* external diagonal (and
//! stages 3–5 did the same on every partition batch). That is exactly the
//! workload-balance overhead a persistent-kernel GPU design avoids: the
//! paper's performance rests on keeping every SM busy across millions of
//! diagonals with nothing but a cheap in-device barrier between them. This
//! module is the CPU analogue — a [`WorkerPool`] created once per pipeline
//! run, whose threads live for the whole run and receive work (strip
//! runners, partition batches) through a queue/condvar handoff instead of
//! `thread::spawn`.
//!
//! # Scoped execution
//!
//! Wavefront tasks borrow non-`'static` data (disjoint `&mut` segments of
//! the horizontal/vertical buses), so the pool exposes a crossbeam-style
//! scoped API: [`WorkerPool::scope`] hands the closure a [`Scope`] whose
//! [`Scope::spawn`] accepts `FnOnce() + Send + 'env` jobs. `scope` does
//! not return until every spawned job has either run to completion or been
//! dropped, which is the invariant that makes the internal lifetime
//! erasure sound (see the `SAFETY` note in [`Scope::spawn`]).
//!
//! The calling thread is itself one lane of the pool: while waiting for a
//! scope to drain it pops queued jobs and runs them inline. A pool with
//! one lane therefore executes everything on the caller, in spawn order —
//! pooled execution with `workers = 1` is *observationally identical* to
//! the old serial path, which is what the equivalence test suite pins.
//!
//! # Panics
//!
//! A panicking job no longer aborts the process (the old behaviour was
//! `.expect("wavefront worker panicked")` around a crossbeam scope).
//! Panics are caught in the worker, the first panic's message is recorded,
//! the scope's remaining jobs are cancelled (dropped unrun), and
//! [`WorkerPool::scope`] returns [`ExecError::WorkerPanic`]. The pool
//! itself is not poisoned: worker threads survive and the next scope runs
//! normally, so a pipeline can report a clean `PipelineError` and be
//! retried on the same pool.

use crate::ctrl::{CancelCause, CancelToken};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Failure surfaced by [`WorkerPool::scope`] and the engine entry
/// [`crate::wavefront::launch`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A job panicked; the payload is the panic message of the first
    /// panicking job (later jobs in the same scope were cancelled).
    WorkerPanic(String),
    /// A resume snapshot belongs to another job or is malformed
    /// ([`crate::wavefront::EngineState::matches`]).
    ForeignCheckpoint,
    /// A strip plan does not cover the grid
    /// ([`crate::StripPlan::is_valid_for`]).
    PlanMismatch {
        /// The plan's strip boundaries.
        bounds: Vec<usize>,
        /// Block columns of the grid it was launched on.
        block_cols: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            ExecError::ForeignCheckpoint => write!(f, "checkpoint belongs to a different job"),
            ExecError::PlanMismatch { bounds, block_cols } => {
                write!(f, "strip plan {bounds:?} does not cover {block_cols} block column(s)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Counters accumulated over a pool's lifetime.
///
/// `busy_ratio` is the mean, over all scopes (handoffs), of
/// `occupied lanes / total lanes` — the CPU analogue of the engine's
/// block-level SM occupancy, aggregated at the scheduler instead of the
/// grid layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Concurrent execution slots, including the calling thread.
    pub lanes: usize,
    /// Number of `scope` calls — one per diagonal/batch handoff.
    pub scopes: u64,
    /// Jobs spawned across all scopes.
    pub tasks: u64,
    /// Jobs the calling thread ran inline while waiting for a scope.
    pub inline_tasks: u64,
    /// Jobs spawned with [`Scope::spawn_pinned`] — long-lived cooperative
    /// runners that only worker threads may execute.
    pub pinned_tasks: u64,
    /// Mean occupied-lane fraction per scope, in `[0, 1]`.
    pub busy_ratio: f64,
    /// Raw cumulative numerator behind `busy_ratio`: the sum over all
    /// scopes of `1000 * occupied lanes / total lanes`. Exposed so callers
    /// computing per-run deltas between two snapshots can subtract exact
    /// integers instead of un-averaging `busy_ratio` (which loses precision
    /// and races when several pipelines share one pool).
    pub busy_permille: u64,
    /// Jobs dropped without running: removed by [`Scope::cancel_queued`]
    /// or skipped after a sibling's panic. Cancelled jobs never count as
    /// occupied lanes in `busy_ratio`/`busy_permille`, so a run torn down
    /// mid-strip does not inflate a shared pool's utilization.
    pub cancelled_tasks: u64,
}

/// A lifetime-erased job plus the scope it belongs to.
struct QueuedJob {
    scope: Arc<ScopeState>,
    job: Box<dyn FnOnce() + Send + 'static>,
    /// Pinned jobs are cooperative long-lived runners (strip-lease mode):
    /// only dedicated worker threads may execute them, never a
    /// scope-draining caller, which must stay free to coordinate them.
    pinned: bool,
    /// Scope-FIFO sequence number, stamped at spawn. The queue preserves
    /// it, so the race detector can tag every bus event with the exact
    /// position of its job in the pool's total spawn order.
    #[cfg(feature = "race-check")]
    seq: u64,
}

/// Event-tagging context for the race detector (feature `race-check`):
/// which pool lane the calling thread is, and the FIFO sequence number of
/// the job it is currently executing. Lane 0 is every non-pool thread
/// (including scope callers draining inline); worker threads register
/// their 1-based lane index at startup.
#[cfg(feature = "race-check")]
pub mod trace {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        pub(crate) static LANE: Cell<usize> = const { Cell::new(0) };
        pub(crate) static CURRENT_SEQ: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    /// Allocate the next scope-FIFO sequence number.
    pub(crate) fn next_seq() -> u64 {
        NEXT_SEQ.fetch_add(1, Ordering::Relaxed)
    }

    /// `(lane, seq)` of the pool job the calling thread is executing;
    /// `seq` is `u64::MAX` outside any job (e.g. the engine's commit
    /// loop on the caller thread).
    pub fn current() -> (usize, u64) {
        (LANE.with(Cell::get), CURRENT_SEQ.with(Cell::get))
    }
}

/// Book-keeping for one `scope` call.
struct ScopeState {
    /// Jobs spawned but not yet finished (or cancelled).
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// First panic message; later panics in the same scope are dropped.
    panic: Mutex<Option<String>>,
    /// Fast-path flag: once set, queued jobs of this scope are cancelled.
    panicked: AtomicBool,
    /// Jobs spawned into this scope (for the busy-lane statistic).
    spawned: AtomicU64,
    /// Jobs of this scope dropped without running (cancelled or skipped
    /// after a sibling panic) — subtracted from `spawned` when the scope
    /// settles its busy-lane contribution.
    cancelled: AtomicU64,
}

/// Lock `m`, recovering from poisoning. Job panics are caught by
/// `run_item` and surfaced as [`ExecError::WorkerPanic`], so a poisoned
/// pool mutex carries no extra information — the counters and queue it
/// guards are valid and must stay usable for the scopes that follow.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ScopeState {
    fn new() -> Arc<Self> {
        Arc::new(ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
            spawned: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        })
    }

    /// Mark one job finished (run, cancelled, or panicked).
    fn finish_one(&self) {
        let mut pending = lock_unpoisoned(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Signalled when the queue gains work or the pool shuts down.
    available: Condvar,
    shutdown: AtomicBool,
    scopes: AtomicU64,
    tasks: AtomicU64,
    inline_tasks: AtomicU64,
    pinned_tasks: AtomicU64,
    /// Sum over scopes of `1000 * occupied_lanes / lanes`.
    busy_millis: AtomicU64,
    /// Jobs dropped without running, across all scopes.
    cancelled_tasks: AtomicU64,
}

impl PoolShared {
    /// Pop the oldest *non-pinned* queued job. Scope-draining callers use
    /// this: a pinned runner executed inline would occupy the very thread
    /// that must keep coordinating it (see [`Scope::spawn_pinned`]).
    fn try_pop_unpinned(&self) -> Option<QueuedJob> {
        let mut queue = lock_unpoisoned(&self.queue);
        let idx = queue.iter().position(|item| !item.pinned)?;
        queue.remove(idx)
    }

    /// Execute (or cancel) one job and settle its scope accounting.
    fn run_item(&self, item: QueuedJob, inline: bool) {
        #[cfg(feature = "race-check")]
        trace::CURRENT_SEQ.with(|s| s.set(item.seq));
        #[cfg(feature = "race-check")]
        let QueuedJob { scope, job, pinned: _, seq: _ } = item;
        #[cfg(not(feature = "race-check"))]
        let QueuedJob { scope, job, pinned: _ } = item;
        if scope.panicked.load(Ordering::Acquire) {
            // A sibling already failed: cancel by dropping the closure
            // (releasing its borrows) without running it.
            drop(job);
            scope.cancelled.fetch_add(1, Ordering::Relaxed);
            self.cancelled_tasks.fetch_add(1, Ordering::Relaxed);
            scope.finish_one();
            return;
        }
        if inline {
            self.inline_tasks.fetch_add(1, Ordering::Relaxed);
        }
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            fault::fire_if_armed();
            job();
        }));
        #[cfg(feature = "race-check")]
        trace::CURRENT_SEQ.with(|s| s.set(u64::MAX));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>")
                .to_owned();
            let mut first = lock_unpoisoned(&scope.panic);
            if first.is_none() {
                *first = Some(msg);
            }
            scope.panicked.store(true, Ordering::Release);
        }
        scope.finish_one();
    }

    /// Long-lived worker body: pop and run until shutdown.
    fn worker_loop(&self) {
        loop {
            let item = {
                let mut queue = lock_unpoisoned(&self.queue);
                loop {
                    if let Some(item) = queue.pop_front() {
                        break item;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    fault::park_before_wait(&self.shutdown);
                    queue = self.available.wait(queue).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.run_item(item, false);
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
///
/// `'env` is the lifetime of the environment jobs may borrow; it outlives
/// the `scope` call, and `scope` blocks until all jobs are settled, so the
/// borrows never dangle.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queue `job` for execution on the pool. Jobs run in FIFO spawn
    /// order across lanes.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_impl(job, false);
    }

    /// Like [`Scope::spawn`], but the job may only be executed by a
    /// dedicated pool *worker thread* — the scope-draining caller skips
    /// it. This is the strip-lease mode of the pool: the wavefront strip
    /// scheduler spawns one long-lived runner per lease, and the caller
    /// thread must stay available to deliver results and coordinate
    /// hand-offs instead of disappearing into a runner loop.
    ///
    /// A pinned job that never gets a worker thread stays queued; callers
    /// using pinned jobs must be able to finish their algorithm without
    /// them and call [`Scope::cancel_queued`] before returning from the
    /// scope body, or the scope cannot settle.
    pub fn spawn_pinned<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_impl(job, true);
    }

    fn spawn_impl<F>(&self, job: F, pinned: bool)
    where
        F: FnOnce() + Send + 'env,
    {
        {
            let mut pending = lock_unpoisoned(&self.state.pending);
            *pending += 1;
        }
        self.state.spawned.fetch_add(1, Ordering::Relaxed);
        self.pool.shared.tasks.fetch_add(1, Ordering::Relaxed);
        if pinned {
            self.pool.shared.pinned_tasks.fetch_add(1, Ordering::Relaxed);
        }
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the only consumer of this box is `PoolShared::run_item`,
        // which either calls or drops it, always before decrementing the
        // scope's `pending` count; `WorkerPool::scope` does not return (or
        // unwind) until `pending == 0`. Every borrow with lifetime `'env`
        // inside the closure therefore ends before `scope` returns, and
        // `'env` outlives the `scope` call by construction, so erasing the
        // lifetime to `'static` never lets a borrow dangle.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        {
            let mut queue = lock_unpoisoned(&self.pool.shared.queue);
            queue.push_back(QueuedJob {
                scope: Arc::clone(&self.state),
                job,
                pinned,
                #[cfg(feature = "race-check")]
                seq: trace::next_seq(),
            });
        }
        self.pool.shared.available.notify_one();
    }

    /// Remove this scope's not-yet-started jobs from the pool queue,
    /// dropping their closures (releasing the borrows) without running
    /// them. Callers that spawn pinned runner jobs invoke this once their
    /// algorithm is complete: a pinned job that never reached a worker
    /// thread would otherwise keep the scope's pending count above zero
    /// forever, because the caller's inline drain skips pinned work.
    pub fn cancel_queued(&self) {
        let removed: Vec<QueuedJob> = {
            let mut queue = lock_unpoisoned(&self.pool.shared.queue);
            let mut kept = VecDeque::with_capacity(queue.len());
            let mut removed = Vec::new();
            // lint: allow(cancel-coverage): drains the job queue under its lock; this IS the cancellation path
            while let Some(item) = queue.pop_front() {
                if Arc::ptr_eq(&item.scope, &self.state) {
                    removed.push(item);
                } else {
                    kept.push_back(item);
                }
            }
            *queue = kept;
            removed
        };
        // Settle outside the queue lock: dropping a closure runs arbitrary
        // destructors, and finish_one takes the scope's pending lock.
        for item in removed {
            drop(item.job);
            item.scope.cancelled.fetch_add(1, Ordering::Relaxed);
            self.pool.shared.cancelled_tasks.fetch_add(1, Ordering::Relaxed);
            item.scope.finish_one();
        }
    }

    /// True once any job of this scope has panicked (the scope will
    /// return [`ExecError::WorkerPanic`]). Cooperative long-lived jobs
    /// poll this so they stop waiting for a peer that died.
    pub fn panicked(&self) -> bool {
        self.state.panicked.load(Ordering::Acquire)
    }
}

/// A persistent pool of worker threads with a scoped spawn API.
///
/// Create one per pipeline run and thread it through every stage; see the
/// module docs for semantics.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("lanes", &self.lanes).finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Build a pool with `workers` lanes; `0` means one lane per available
    /// CPU. The calling thread is one of the lanes, so `workers - 1`
    /// threads are spawned; `workers = 1` spawns none and runs everything
    /// inline on the caller.
    pub fn new(workers: usize) -> Self {
        let lanes = match workers {
            0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            w => w,
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            scopes: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            inline_tasks: AtomicU64::new(0),
            pinned_tasks: AtomicU64::new(0),
            busy_millis: AtomicU64::new(0),
            cancelled_tasks: AtomicU64::new(0),
        });
        let mut threads = Vec::with_capacity(lanes.saturating_sub(1));
        // lint: allow(cancel-coverage): bounded spawn fan-out, one worker thread per lane
        for i in 1..lanes {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new().name(format!("gpu-sim-worker-{i}")).spawn(move || {
                #[cfg(feature = "race-check")]
                trace::LANE.with(|l| l.set(i));
                shared.worker_loop()
            }) {
                Ok(handle) => threads.push(handle),
                // Out of native threads: degrade to the lanes that did
                // start. The caller is always a lane of its own, so the
                // pool makes progress even with zero spawned workers.
                Err(_) => break,
            }
        }
        let lanes = threads.len() + 1;
        WorkerPool { shared, threads, lanes }
    }

    /// Concurrent execution slots, including the calling thread.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lanes a job capped at `workers` may use: the pool fixes the
    /// count, and `workers` can only lower it (0 = uncapped).
    pub fn lanes_for(&self, workers: usize) -> usize {
        match workers {
            0 => self.lanes,
            w => w.min(self.lanes),
        }
    }

    /// Run `body`, giving it a [`Scope`] to spawn borrowing jobs on the
    /// pool, and block until every spawned job has settled. While blocked,
    /// the calling thread drains the queue itself (it is a pool lane).
    ///
    /// Returns `body`'s value, or [`ExecError::WorkerPanic`] if any job
    /// panicked (in which case the scope's remaining jobs were cancelled).
    /// If `body` itself panics, the panic is re-raised — after the spawned
    /// jobs settle, so no borrow escapes.
    pub fn scope<'env, R>(&self, body: impl FnOnce(&Scope<'_, 'env>) -> R) -> Result<R, ExecError> {
        let state = ScopeState::new();
        let scope = Scope { pool: self, state: Arc::clone(&state), _env: PhantomData };
        self.shared.scopes.fetch_add(1, Ordering::Relaxed);

        let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));

        // Participate: run queued jobs (ours or a sibling scope's) while
        // this scope still has pending work.
        // lint: allow(cancel-coverage): terminates when pending hits zero; cancellation drains pending via cancel_queued
        loop {
            if let Some(item) = self.shared.try_pop_unpinned() {
                self.shared.run_item(item, true);
                continue;
            }
            let pending = lock_unpoisoned(&state.pending);
            if *pending == 0 {
                break;
            }
            // The remaining jobs are held by worker threads; wait for the
            // count to drop, then re-check the queue (nested scopes may
            // have queued more work in the meantime).
            drop(state.done.wait(pending).unwrap_or_else(|e| e.into_inner()));
        }

        // Jobs dropped unrun (cancel_queued, panicked-sibling skips) never
        // occupied a lane; counting them would let a torn-down run inflate
        // a shared pool's busy ratio.
        let spawned = state.spawned.load(Ordering::Relaxed);
        let ran = spawned.saturating_sub(state.cancelled.load(Ordering::Relaxed));
        let busy = (ran as usize).min(self.lanes);
        self.shared.busy_millis.fetch_add((1000 * busy / self.lanes) as u64, Ordering::Relaxed);

        let body_value = match result {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        };
        let first_panic = lock_unpoisoned(&state.panic).take();
        match first_panic {
            Some(msg) => Err(ExecError::WorkerPanic(msg)),
            None => Ok(body_value),
        }
    }

    /// Snapshot the pool's utilization counters.
    pub fn stats(&self) -> PoolStats {
        let scopes = self.shared.scopes.load(Ordering::Relaxed);
        let busy_millis = self.shared.busy_millis.load(Ordering::Relaxed);
        PoolStats {
            lanes: self.lanes,
            scopes,
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            inline_tasks: self.shared.inline_tasks.load(Ordering::Relaxed),
            pinned_tasks: self.shared.pinned_tasks.load(Ordering::Relaxed),
            busy_ratio: if scopes == 0 {
                0.0
            } else {
                busy_millis as f64 / (1000.0 * scopes as f64)
            },
            busy_permille: busy_millis,
            cancelled_tasks: self.shared.cancelled_tasks.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: an idle worker checks it and
        // enters `wait` while holding that lock, so it either sees the
        // flag or is already waiting when the notify lands. Stored
        // without the lock, the flag and the notify could both fall
        // between a worker's check and its wait, and `join` would hang.
        {
            let _queue = lock_unpoisoned(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        // lint: allow(cancel-coverage): joins a fixed set of workers after the shutdown flag is set above
        for handle in self.threads.drain(..) {
            // A worker that panicked outside `catch_unwind` cannot happen
            // (jobs are wrapped), but don't double-panic on join anyway.
            let _ = handle.join();
        }
    }
}

/// Time source for [`spawn_watchdog`]: returns the elapsed time on the
/// supervisor's injected clock. Kept as a closure (not `std::time`
/// directly) so tests drive deadlines and stall budgets with a manual
/// clock and production injects a monotonic one — no wall-clock reads in
/// the engine's hot paths either way.
pub type TimeSource = Arc<dyn Fn() -> Duration + Send + Sync>;

/// Handle of a supervision watchdog thread; stops and joins on drop.
pub struct Watchdog {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog").finish_non_exhaustive()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let (flag, cv) = &*self.stop;
            *lock_unpoisoned(flag) = true;
            cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawn a watchdog that cancels `token` when the run's `deadline`
/// expires or when the token's heartbeat stops moving for a whole
/// `stall_budget` (both measured on the injected `now` time source,
/// relative to `now()` at spawn). The thread wakes every `poll` interval
/// on a condvar (so dropping the handle stops it promptly, without a
/// bare sleep) and exits as soon as the token is cancelled — by itself
/// or by anyone else.
///
/// Workers never read a clock: they only bump the token's heartbeat.
/// The watchdog is the single place where time meets the run, which is
/// what keeps deadlines testable under a manual clock.
pub fn spawn_watchdog(
    token: CancelToken,
    now: TimeSource,
    deadline: Option<Duration>,
    stall_budget: Option<Duration>,
    poll: Duration,
) -> Watchdog {
    let stop: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
    let stop2 = Arc::clone(&stop);
    let start = now();
    let handle = std::thread::Builder::new()
        .name("cudalign-watchdog".into())
        .spawn(move || {
            let (flag, cv) = &*stop2;
            let mut last_beats = token.beats();
            let mut last_progress = start;
            loop {
                {
                    let stopped = lock_unpoisoned(flag);
                    if *stopped || token.is_cancelled() {
                        return;
                    }
                    // Park for one poll interval (or an early stop).
                    let _ = cv.wait_timeout(stopped, poll).unwrap_or_else(|e| e.into_inner());
                }
                if token.is_cancelled() {
                    return;
                }
                let t = (now)();
                if let Some(dl) = deadline {
                    if t.saturating_sub(start) >= dl {
                        token.cancel_at(
                            CancelCause::DeadlineExceeded { budget_ms: dl.as_millis() as u64 },
                            t.as_nanos() as u64,
                        );
                        return;
                    }
                }
                if let Some(budget) = stall_budget {
                    let beats = token.beats();
                    if beats != last_beats {
                        last_beats = beats;
                        last_progress = t;
                    } else if t.saturating_sub(last_progress) >= budget {
                        token.cancel_at(
                            CancelCause::Stalled { budget_ms: budget.as_millis() as u64 },
                            t.as_nanos() as u64,
                        );
                        return;
                    }
                }
            }
        })
        .ok();
    Watchdog { stop, handle }
}

/// A long-lived named service thread (a serve-queue runner, a metrics
/// flusher) spawned through the executor's sanctioned spawn point — the
/// `thread-isolation` lint bans `thread::spawn` everywhere else, so all
/// OS threads in the system are accounted for here.
pub struct ServiceThread {
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServiceThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceThread").finish_non_exhaustive()
    }
}

impl ServiceThread {
    /// Block until the service body returns. The body is responsible for
    /// observing its own shutdown signal; joining does not request one.
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceThread {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawn a named long-lived service thread, or `None` when the OS is out
/// of native threads (callers degrade — e.g. a serve queue runs with the
/// runners that did start). Unlike pool lanes, the body is an arbitrary
/// long-running loop, not a borrowed job; it must watch a shutdown flag
/// of its own.
pub fn spawn_service(name: &str, body: impl FnOnce() + Send + 'static) -> Option<ServiceThread> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .ok()
        .map(|handle| ServiceThread { handle: Some(handle) })
}

/// Test-only fault injection.
///
/// `cfg(test)` does not cross crates, so integration tests (the
/// `tests/tests/` crate) need a runtime hook to make "a kernel panics in a
/// worker" happen on demand. Arming is process-global; tests that use it
/// must serialize themselves (e.g. behind a shared mutex). Disarmed, the
/// cost is one relaxed atomic load per job.
#[doc(hidden)]
pub mod fault {
    use super::{AtomicBool, AtomicI64};
    use std::sync::atomic::Ordering;

    /// `< 0`: disarmed. `>= 0`: the job that decrements it to exactly
    /// zero panics.
    static BUDGET: AtomicI64 = AtomicI64::new(-1);

    /// Message carried by injected panics, for asserting provenance.
    pub const INJECTED_MSG: &str = "injected worker fault (gpu_sim::exec::fault)";

    /// Arm the hook: the `n`-th pool job executed from now (0-based)
    /// panics with [`INJECTED_MSG`].
    pub fn arm(n: u64) {
        BUDGET.store(n as i64, Ordering::SeqCst);
    }

    /// Disarm the hook.
    pub fn disarm() {
        BUDGET.store(-1, Ordering::SeqCst);
        release_strip_runners();
        #[cfg(feature = "race-check")]
        disarm_reorder();
    }

    /// `(r, c)` of a block the wavefront engine must run one external
    /// diagonal EARLY, encoded as `r * 2^32 + c + 1`; `0` = disarmed.
    #[cfg(feature = "race-check")]
    static REORDER: super::AtomicU64 = super::AtomicU64::new(0);

    /// Arm the reorder fault: the wavefront engine performs block
    /// `(r, c)`'s bus transactions one external diagonal early — before
    /// the barrier that should order its neighbours' writes first — so
    /// the race detector provably observes a violation. The phantom run
    /// touches only the detector's shadow state; engine output is
    /// unchanged. Only interior blocks (`r > 0 && c > 0`) can be armed:
    /// a border block has nothing to read early, so arming one is a
    /// no-op.
    #[cfg(feature = "race-check")]
    pub fn arm_reorder_block(r: usize, c: usize) {
        if r == 0 || c == 0 {
            return;
        }
        REORDER.store(((r as u64) << 32) | (c as u64 + 1), Ordering::SeqCst);
    }

    /// Disarm the reorder fault.
    #[cfg(feature = "race-check")]
    pub fn disarm_reorder() {
        REORDER.store(0, Ordering::SeqCst);
        EARLY_PUBLISH.store(0, Ordering::SeqCst);
    }

    /// `(r, c)` of a block whose bottom-right border hand-off the strip
    /// scheduler must model one publish EARLY; same encoding as the
    /// reorder fault; `0` = disarmed.
    #[cfg(feature = "race-check")]
    static EARLY_PUBLISH: super::AtomicU64 = super::AtomicU64::new(0);

    /// Arm the early-publish fault: when the strip engine is about to
    /// compute block `(r, c)`, it first replays its *right neighbour's*
    /// bus reads — as if `(r, c)`'s border flag had been published one
    /// block early, before the border was written. The phantom touches
    /// only the race detector's shadow state (engine output is
    /// unchanged); the detector must flag the neighbour's reads as
    /// wrong-producer. Requires `c + 1` to be a valid block column.
    #[cfg(feature = "race-check")]
    pub fn arm_early_publish(r: usize, c: usize) {
        EARLY_PUBLISH.store(((r as u64) << 32) | (c as u64 + 1), Ordering::SeqCst);
    }

    /// The armed early-publish target, if any.
    #[cfg(feature = "race-check")]
    pub(crate) fn early_publish_block() -> Option<(usize, usize)> {
        let v = EARLY_PUBLISH.load(Ordering::Relaxed);
        (v != 0).then(|| ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize - 1))
    }

    /// The armed reorder target, if any.
    #[cfg(feature = "race-check")]
    pub(crate) fn reorder_block() -> Option<(usize, usize)> {
        let v = REORDER.load(Ordering::Relaxed);
        (v != 0).then(|| ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize - 1))
    }

    /// One deterministic chaos schedule: which faults to arm, where to
    /// cancel, and what shape/worker class to run — expanded from a seed
    /// by [`chaos_plan`]. The harness (`tests/tests/chaos.rs`) maps each
    /// field onto the concrete hooks (`cudalign::storage::fault`, this
    /// module, `RunControl`); keeping the schedule here makes every CI
    /// failure reproducible from its seed alone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ChaosPlan {
        /// The seed this plan was expanded from.
        pub seed: u64,
        /// Worker-count class: one of {1, 2, 4, 8}.
        pub workers: usize,
        /// Shape class index (harness-defined sequence-pair shapes).
        pub shape: u8,
        /// Storage write fault: `(nth_write, kind, times)` where kind
        /// 0 = torn (keep `times` bytes), 1 = ENOSPC, 2 = transient
        /// (retryable, `times` occurrences).
        pub write_fault: Option<(u64, u8, u32)>,
        /// Corrupt the `nth` checksummed read.
        pub read_corrupt: Option<u64>,
        /// Kill stage 1 at this external diagonal (storage kill hook).
        pub kill_diagonal: Option<u64>,
        /// Cancel the run's token after this many stage-1 diagonals.
        pub cancel_after_diagonal: Option<u64>,
        /// Wall-clock deadline for the run, in milliseconds.
        pub deadline_ms: Option<u64>,
        /// Panic the `nth` pool job ([`arm`]).
        pub worker_panic: Option<u64>,
    }

    /// Expand `seed` into a [`ChaosPlan`] with a splittable LCG. Every
    /// field is a pure function of the seed; two fault families at most
    /// are armed per plan so each schedule's failure is attributable.
    pub fn chaos_plan(seed: u64) -> ChaosPlan {
        let mut x = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493) | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let workers = [1usize, 2, 4, 8][(next() % 4) as usize];
        let shape = (next() % 6) as u8;
        // Pick up to two fault families (0..=5; 6..=7 = none) so compound
        // schedules exist but every run stays attributable.
        let mut write_fault = None;
        let mut read_corrupt = None;
        let mut kill_diagonal = None;
        let mut cancel_after_diagonal = None;
        let mut deadline_ms = None;
        let mut worker_panic = None;
        // lint: allow(cancel-coverage): bounded to two iterations; chaos-schedule fault picker, not a hot path
        for _ in 0..2 {
            match next() % 8 {
                0 => {
                    let kind = (next() % 3) as u8;
                    let times = if kind == 0 { next() % 40 } else { 1 + next() % 3 } as u32;
                    write_fault = Some((next() % 6, kind, times));
                }
                1 => read_corrupt = Some(next() % 4),
                2 => kill_diagonal = Some(next() % 64),
                3 => cancel_after_diagonal = Some(next() % 64),
                4 => deadline_ms = Some(1 + next() % 40),
                5 => worker_panic = Some(next() % 24),
                _ => {}
            }
        }
        ChaosPlan {
            seed,
            workers,
            shape,
            write_fault,
            read_corrupt,
            kill_diagonal,
            cancel_after_diagonal,
            deadline_ms,
            worker_panic,
        }
    }

    /// Park hook state: armed, and whether a worker has parked since.
    static PARK_ARMED: AtomicBool = AtomicBool::new(false);
    static PARKED: AtomicBool = AtomicBool::new(false);

    /// Longest a parked worker holds its gap open, in 1 ms polls.
    const PARK_POLLS: u32 = 200;

    /// Arm the park hook: the next idle pool worker that has checked the
    /// shutdown flag (and found it clear) parks *before* its `Condvar`
    /// wait, still holding the queue lock, until shutdown is requested or
    /// [`PARK_POLLS`] ms pass. That holds open the window in which a
    /// shutdown signal sent without the queue lock is lost.
    pub fn arm_park_before_wait() {
        PARKED.store(false, Ordering::SeqCst);
        PARK_ARMED.store(true, Ordering::SeqCst);
    }

    /// Has a worker parked since [`arm_park_before_wait`]?
    pub fn parked() -> bool {
        PARKED.load(Ordering::SeqCst)
    }

    /// Called by an idle worker between its shutdown check and its wait.
    pub(crate) fn park_before_wait(shutdown: &AtomicBool) {
        if !PARK_ARMED.load(Ordering::Relaxed) || !PARK_ARMED.swap(false, Ordering::SeqCst) {
            return;
        }
        PARKED.store(true, Ordering::SeqCst);
        for _ in 0..PARK_POLLS {
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Strip-delivery hook state: pooled strip runners held at their
    /// start, runner waits on the bound of undelivered blocks, and pooled
    /// runners that finished.
    static HOLD_RUNNERS: AtomicBool = AtomicBool::new(false);
    static DELIVERY_WAITS: super::AtomicU64 = super::AtomicU64::new(0);
    static RUNNER_EXITS: super::AtomicU64 = super::AtomicU64::new(0);

    /// Arm the strip-delivery hook: pooled strip runners (not the calling
    /// thread) that start a launch from now on hold before their first
    /// band until [`release_strip_runners`] or the launch is cancelled,
    /// and [`delivery_waits`] and [`strip_runner_exits`] restart from 0. A
    /// test uses it to let the calling thread get ahead, then stall
    /// delivery until a runner waits on the delivery bound (or, were the
    /// bound broken, finishes without waiting).
    pub fn hold_strip_runners() {
        DELIVERY_WAITS.store(0, Ordering::SeqCst);
        RUNNER_EXITS.store(0, Ordering::SeqCst);
        HOLD_RUNNERS.store(true, Ordering::SeqCst);
    }

    /// Let held strip runners go.
    pub fn release_strip_runners() {
        HOLD_RUNNERS.store(false, Ordering::SeqCst);
    }

    /// Times a strip runner waited on the bound of undelivered blocks
    /// since [`hold_strip_runners`].
    pub fn delivery_waits() -> u64 {
        DELIVERY_WAITS.load(Ordering::SeqCst)
    }

    /// Pooled strip runners that finished their launch since
    /// [`hold_strip_runners`].
    pub fn strip_runner_exits() -> u64 {
        RUNNER_EXITS.load(Ordering::SeqCst)
    }

    /// Called by a pooled strip runner as it finishes its launch.
    pub(crate) fn note_runner_exit() {
        RUNNER_EXITS.fetch_add(1, Ordering::SeqCst);
    }

    /// Called by a pooled strip runner before its first band: hold while
    /// armed and `cancelled()` is false.
    pub(crate) fn hold_strip_runner(cancelled: impl Fn() -> bool) {
        while HOLD_RUNNERS.load(Ordering::Relaxed) && !cancelled() {
            std::thread::yield_now();
        }
    }

    /// Called by a strip runner about to wait on the delivery bound.
    pub(crate) fn note_delivery_wait() {
        DELIVERY_WAITS.fetch_add(1, Ordering::SeqCst);
    }

    /// Called by the pool before each job.
    pub(crate) fn fire_if_armed() {
        if BUDGET.load(Ordering::Relaxed) < 0 {
            return;
        }
        if BUDGET.fetch_sub(1, Ordering::SeqCst) == 0 {
            // lint: allow(no-panics): the injected panic IS the fault this
            // hook exists to deliver; run_item catches it as WorkerPanic.
            panic!("{}", INJECTED_MSG);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Drop-counter capture: proves a job closure (and everything it
    /// borrowed) was destroyed, whether the job ran or was cancelled.
    struct Canary<'a>(&'a AtomicUsize);
    impl Drop for Canary<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Regression for the `SAFETY` note on [`Scope::spawn`]'s
    /// lifetime-erasing transmute: `scope()` must not return while any
    /// job — and with it any `'env` borrow — is still alive. Slow jobs
    /// keep workers busy past the body's exit; the canaries prove every
    /// closure (with its captures) was destroyed before `scope()`
    /// returned, and the post-scope `&mut` reuse of `data` is the
    /// borrow-checker's half of the argument (it would not compile if
    /// the `'env` borrows could escape the call).
    #[test]
    fn scope_borrows_end_before_scope_returns() {
        for workers in [1usize, 8] {
            let pool = WorkerPool::new(workers);
            let mut data = [0u64; 24];
            let dropped = AtomicUsize::new(0);
            pool.scope(|s| {
                for (i, slot) in data.iter_mut().enumerate() {
                    let canary = Canary(&dropped);
                    s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        *slot = i as u64 + 1;
                        drop(canary);
                    });
                }
            })
            .unwrap();
            assert_eq!(
                dropped.load(Ordering::SeqCst),
                data.len(),
                "{workers} lane(s): a job closure outlived scope()"
            );
            for (i, slot) in data.iter_mut().enumerate() {
                assert_eq!(*slot, i as u64 + 1, "{workers} lane(s): job {i} never ran");
                *slot = 0;
            }
        }
    }

    /// The cancel path must uphold the same invariant: jobs skipped after
    /// a sibling's panic are *dropped* (not leaked) before `scope()`
    /// returns, so captured borrows cannot dangle either way.
    #[test]
    fn cancelled_jobs_drop_their_captures_before_scope_returns() {
        let pool = WorkerPool::new(2);
        let dropped = AtomicUsize::new(0);
        let spawned = 16usize;
        let err = pool
            .scope(|s| {
                s.spawn(|| panic!("deliberate test panic"));
                for _ in 0..spawned {
                    let canary = Canary(&dropped);
                    s.spawn(move || drop(canary));
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanic(_)));
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            spawned,
            "a cancelled job's captures were not dropped before scope() returned"
        );
    }

    #[test]
    fn scope_runs_all_jobs_with_borrows() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in data.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * 3);
            }
        })
        .unwrap();
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn single_lane_pool_runs_inline_in_spawn_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(), 1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..16 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        })
        .unwrap();
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.inline_tasks, 16, "one lane means the caller ran everything");
    }

    #[test]
    fn panic_is_captured_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let ran_after = AtomicUsize::new(0);
        let err = pool
            .scope(|s| {
                s.spawn(|| panic!("deliberate test panic"));
                for _ in 0..8 {
                    s.spawn(|| {
                        ran_after.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .unwrap_err();
        assert_eq!(err, ExecError::WorkerPanic("deliberate test panic".into()));
        // Not poisoned: the next scope on the same pool works.
        let mut x = 0;
        pool.scope(|s| s.spawn(|| x = 7)).unwrap();
        assert_eq!(x, 7);
    }

    #[test]
    fn first_panic_wins_and_later_jobs_are_cancelled() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        let err = pool
            .scope(|s| {
                s.spawn(|| panic!("first"));
                s.spawn(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                s.spawn(|| panic!("second"));
            })
            .unwrap_err();
        assert_eq!(err, ExecError::WorkerPanic("first".into()));
        // With one lane the panic lands before the later jobs start, so
        // they are cancelled (dropped), not run.
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    /// On a 1-lane pool no worker thread exists, so a pinned job can
    /// never execute; the caller must be able to finish the scope anyway
    /// by cancelling the queued runners, and the closures (with their
    /// captured borrows) must still be dropped.
    #[test]
    fn pinned_jobs_wait_for_workers_and_cancel_cleanly() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(), 1);
        let dropped = AtomicUsize::new(0);
        let ran = AtomicUsize::new(0);
        let ran_ref = &ran;
        pool.scope(|s| {
            for _ in 0..4 {
                let canary = Canary(&dropped);
                s.spawn_pinned(move || {
                    drop(canary);
                    ran_ref.fetch_add(1, Ordering::SeqCst);
                });
            }
            s.cancel_queued();
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "caller must never run pinned jobs inline");
        assert_eq!(dropped.load(Ordering::SeqCst), 4, "cancelled pinned closures must drop");
        assert_eq!(pool.stats().pinned_tasks, 4);
    }

    #[test]
    fn pinned_jobs_run_on_worker_threads() {
        let pool = WorkerPool::new(4);
        if pool.lanes() < 2 {
            return; // thread spawn degraded; nothing to assert
        }
        let ran = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn_pinned(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
        let stats = pool.stats();
        assert_eq!(stats.pinned_tasks, 8);
        assert_eq!(stats.inline_tasks, 0, "pinned jobs must not run inline on the caller");
    }

    #[test]
    fn zero_means_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.lanes() >= 1);
    }

    #[test]
    fn stats_track_scopes_and_tasks() {
        let pool = WorkerPool::new(2);
        for _ in 0..5 {
            pool.scope(|s| {
                s.spawn(|| {});
                s.spawn(|| {});
            })
            .unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.scopes, 5);
        assert_eq!(stats.tasks, 10);
        assert_eq!(stats.lanes, 2);
        assert!((stats.busy_ratio - 1.0).abs() < 1e-9, "2 tasks on 2 lanes is fully busy");
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    // A job that itself fans out on the same pool: the
                    // running lane participates, so this cannot deadlock
                    // even with every thread busy.
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                    .unwrap();
                });
            }
        })
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = WorkerPool::new(2);
        let v = pool.scope(|_| 42).unwrap();
        assert_eq!(v, 42);
    }

    /// Cancelled pinned jobs must not leak into the busy-lane statistic:
    /// a scope whose jobs were all dropped unrun contributes zero
    /// occupancy, and the drops are visible in `cancelled_tasks`.
    #[test]
    fn cancelled_jobs_do_not_count_as_busy() {
        let pool = WorkerPool::new(1);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn_pinned(|| {});
            }
            s.cancel_queued();
        })
        .unwrap();
        let stats = pool.stats();
        assert_eq!(stats.cancelled_tasks, 4);
        assert_eq!(stats.pinned_tasks, 4, "spawn counter still records the spawns");
        assert_eq!(stats.busy_permille, 0, "dropped jobs never occupied a lane");
    }

    /// Jobs skipped after a sibling's panic count as cancelled and are
    /// excluded from occupancy too.
    #[test]
    fn panic_skipped_jobs_count_as_cancelled() {
        let pool = WorkerPool::new(1);
        let err = pool
            .scope(|s| {
                s.spawn(|| panic!("first"));
                s.spawn(|| {});
                s.spawn(|| {});
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanic(_)));
        let stats = pool.stats();
        assert_eq!(stats.cancelled_tasks, 2);
        // Only the panicking job actually ran: 1 occupied lane of 1.
        assert_eq!(stats.busy_permille, 1000);
    }

    fn manual_time() -> (Arc<AtomicU64>, TimeSource) {
        let nanos = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&nanos);
        (nanos, Arc::new(move || Duration::from_nanos(n2.load(Ordering::SeqCst))))
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..4000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn watchdog_fires_deadline_on_injected_clock() {
        let token = CancelToken::new();
        let (nanos, now) = manual_time();
        let _dog = spawn_watchdog(
            token.clone(),
            now,
            Some(Duration::from_millis(50)),
            None,
            Duration::from_millis(1),
        );
        // Below the deadline: stays alive even with no heartbeat.
        std::thread::sleep(Duration::from_millis(10));
        assert!(!token.is_cancelled());
        nanos.store(51_000_000, Ordering::SeqCst);
        wait_until("deadline cancel", || token.is_cancelled());
        assert_eq!(token.cause(), Some(CancelCause::DeadlineExceeded { budget_ms: 50 }));
    }

    #[test]
    fn watchdog_fires_stall_only_when_heartbeat_stops() {
        let token = CancelToken::new();
        let (nanos, now) = manual_time();
        let _dog = spawn_watchdog(
            token.clone(),
            now,
            None,
            Some(Duration::from_millis(20)),
            Duration::from_millis(1),
        );
        // Heartbeat advances with the clock: no stall.
        for step in 1..=5u64 {
            token.beat();
            nanos.store(step * 15_000_000, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
        }
        assert!(!token.is_cancelled(), "moving heartbeat must not stall");
        // Clock advances past the budget with no further beats: stall.
        nanos.store(5 * 15_000_000 + 21_000_000, Ordering::SeqCst);
        wait_until("stall cancel", || token.is_cancelled());
        assert_eq!(token.cause(), Some(CancelCause::Stalled { budget_ms: 20 }));
    }

    #[test]
    fn watchdog_drop_stops_thread_and_external_cancel_wins() {
        let token = CancelToken::new();
        let (_nanos, now) = manual_time();
        let dog = spawn_watchdog(
            token.clone(),
            now,
            Some(Duration::from_secs(3600)),
            Some(Duration::from_secs(3600)),
            Duration::from_millis(1),
        );
        token.cancel(CancelCause::Requested);
        drop(dog); // must join promptly, not hang until a budget expires
        assert_eq!(token.cause(), Some(CancelCause::Requested));
    }

    #[test]
    fn chaos_plans_are_deterministic_and_varied() {
        for seed in 0..256u64 {
            assert_eq!(fault::chaos_plan(seed), fault::chaos_plan(seed));
        }
        let with_fault = (0..256u64)
            .map(fault::chaos_plan)
            .filter(|p| {
                p.write_fault.is_some()
                    || p.read_corrupt.is_some()
                    || p.kill_diagonal.is_some()
                    || p.cancel_after_diagonal.is_some()
                    || p.deadline_ms.is_some()
                    || p.worker_panic.is_some()
            })
            .count();
        assert!(with_fault > 64, "fault families should be common ({with_fault}/256)");
        let workers: std::collections::HashSet<usize> =
            (0..64u64).map(|s| fault::chaos_plan(s).workers).collect();
        assert_eq!(workers.len(), 4, "all worker classes appear");
    }
}
