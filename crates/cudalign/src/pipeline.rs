//! The six-stage pipeline orchestrator.

use crate::binary::BinaryAlignment;
use crate::config::PipelineConfig;
use crate::crosspoint::CrosspointChain;
use crate::obs::{Event, Metrics, Obs};
use crate::sra::{LineStore, StoreStats};
use crate::stage4::IterationStats;
use crate::storage::{self, StorageError};
use crate::supervise::RunControl;
use crate::{stage1, stage2, stage3, stage4, stage5};
use gpu_sim::{ExecError, PoolStats, WorkerPool};
use std::ops::Range;
use std::sync::Arc;
use sw_core::scoring::Score;
use sw_core::transcript::Transcript;

/// Failure of one pipeline stage.
///
/// Every stage entry point returns this; the pipeline maps it onto
/// [`PipelineError`]. The split matters because the two variants demand
/// different reactions: a [`StageError::Logic`] or
/// [`StageError::GoalNotReached`] means the stage's own invariants failed
/// (chain validation, a matching goal missed), while a
/// [`StageError::Worker`] means a job panicked on the shared
/// [`WorkerPool`] — the pool itself survives and the run can be retried.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StageError {
    /// A stage invariant failed (a bug or corrupted store).
    Logic(String),
    /// A matching procedure never reached its goal score inside the region
    /// the optimal path must cross: goal-based matching in stages 2-3,
    /// the Myers-Miller split of a stage-4 partition. The goal is the
    /// known optimum, so this is a bug or a corrupted special line.
    GoalNotReached {
        /// Pipeline stage (2, 3 or 4).
        stage: u8,
        /// The score the matching had to reach.
        goal: Score,
        /// DP rows of the searched region.
        rows: Range<usize>,
        /// DP columns of the searched region.
        cols: Range<usize>,
    },
    /// A worker-pool job panicked; the payload is the panic message.
    Worker(String),
    /// The storage layer failed in a way the stage could not degrade
    /// around (see [`StorageError`]).
    Storage(StorageError),
    /// The stage was interrupted mid-run (a simulated crash from
    /// `storage::fault::arm_stage1_kill`, or an observer abort). The
    /// partial result is *not* usable — resuming from the last checkpoint
    /// is the only correct continuation.
    Interrupted {
        /// External diagonal the wavefront had reached.
        diagonal: usize,
    },
    /// The run was cancelled on request (API call, CLI flag, signal).
    /// With checkpointing on, the engine flushed a boundary snapshot
    /// before unwinding — resume continues from `diagonal`.
    Cancelled {
        /// External diagonal the run can resume from (0 outside stage 1).
        diagonal: usize,
    },
    /// The run's wall-clock deadline expired (watchdog-driven).
    DeadlineExceeded {
        /// External diagonal the run can resume from (0 outside stage 1).
        diagonal: usize,
        /// The deadline budget that expired, in milliseconds.
        budget_ms: u64,
    },
    /// The stall watchdog saw no forward progress within its budget.
    Stalled {
        /// External diagonal the run can resume from (0 outside stage 1).
        diagonal: usize,
        /// The stall budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
}

impl StageError {
    /// Is this an interruption (cancel / deadline / stall / simulated
    /// kill) rather than a genuine failure? Interrupted runs are fully
    /// resumable; nothing is wrong with the pipeline itself.
    pub fn is_interruption(&self) -> bool {
        matches!(
            self,
            StageError::Interrupted { .. }
                | StageError::Cancelled { .. }
                | StageError::DeadlineExceeded { .. }
                | StageError::Stalled { .. }
        )
    }
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Logic(s) => write!(f, "{s}"),
            StageError::GoalNotReached { stage, goal, rows, cols } => {
                write!(f, "stage {stage}: goal {goal} not reached in rows {rows:?} cols {cols:?}")
            }
            StageError::Worker(s) => write!(f, "worker panicked: {s}"),
            StageError::Storage(e) => write!(f, "{e}"),
            StageError::Interrupted { diagonal } => {
                write!(f, "stage interrupted at external diagonal {diagonal}")
            }
            StageError::Cancelled { diagonal } => {
                write!(f, "stage cancelled at external diagonal {diagonal}")
            }
            StageError::DeadlineExceeded { diagonal, budget_ms } => {
                write!(
                    f,
                    "stage exceeded its {budget_ms} ms deadline at external diagonal {diagonal}"
                )
            }
            StageError::Stalled { diagonal, budget_ms } => {
                write!(
                    f,
                    "stage stalled (no progress within {budget_ms} ms) at external diagonal {diagonal}"
                )
            }
        }
    }
}

impl std::error::Error for StageError {}

/// What every stage runs on: the sequence pair, the configuration, the
/// shared worker pool, the observability handle and the supervision
/// policy. Each stage's `run` takes it first, followed by the inputs the
/// earlier stages produced.
#[derive(Debug)]
pub struct StageContext<'a, 'o> {
    /// The first sequence (rows of the DP matrix).
    pub s0: &'a [u8],
    /// The second sequence (columns).
    pub s1: &'a [u8],
    /// Scoring, grids, storage budgets and worker count.
    pub cfg: &'a PipelineConfig,
    /// The pool every stage executes on.
    pub pool: &'a WorkerPool,
    /// Trace records and metrics.
    pub obs: Obs<'o>,
    /// Cancel token, deadline and stall budget.
    pub ctrl: RunControl,
}

impl<'a> StageContext<'a, '_> {
    /// An unsupervised, silent context: [`Obs::new`] and
    /// [`RunControl::unlimited`].
    pub fn new(s0: &'a [u8], s1: &'a [u8], cfg: &'a PipelineConfig, pool: &'a WorkerPool) -> Self {
        StageContext { s0, s1, cfg, pool, obs: Obs::new(), ctrl: RunControl::unlimited() }
    }
}

impl From<String> for StageError {
    fn from(s: String) -> Self {
        StageError::Logic(s)
    }
}

impl From<crate::crosspoint::ChainError> for StageError {
    fn from(e: crate::crosspoint::ChainError) -> Self {
        StageError::Logic(format!("invalid crosspoint chain: {e}"))
    }
}

impl From<ExecError> for StageError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::WorkerPanic(msg) => StageError::Worker(msg),
            // `ExecError` is `#[non_exhaustive]`: any executor failure mode
            // added later surfaces as a stage-invariant error rather than a
            // compile break here.
            other => StageError::Logic(format!("executor error: {other}")),
        }
    }
}

impl From<StorageError> for StageError {
    fn from(e: StorageError) -> Self {
        StageError::Storage(e)
    }
}

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// An internal invariant failed (a bug or corrupted store).
    Internal(String),
    /// Storage backend failure.
    Io(String),
    /// A worker-pool job panicked. The pool is not poisoned: the same
    /// [`Pipeline`] may be retried.
    Worker(String),
    /// The run was interrupted mid-stage (simulated crash / observer
    /// abort). With checkpointing enabled, calling
    /// [`Pipeline::align`] again resumes from the last snapshot;
    /// special rows already on a disk backend are reopened.
    Interrupted {
        /// External diagonal the wavefront had reached.
        diagonal: usize,
    },
    /// The run was cancelled on request via [`crate::supervise::RunControl`].
    /// The engine flushed a boundary checkpoint before unwinding (when
    /// checkpointing is on), so rerunning resumes from `diagonal`.
    Cancelled {
        /// External diagonal the run can resume from (0 outside stage 1).
        diagonal: usize,
    },
    /// The run's wall-clock deadline expired.
    DeadlineExceeded {
        /// External diagonal the run can resume from (0 outside stage 1).
        diagonal: usize,
        /// The deadline budget that expired, in milliseconds.
        budget_ms: u64,
    },
    /// The stall watchdog saw no forward progress within its budget.
    Stalled {
        /// External diagonal the run can resume from (0 outside stage 1).
        diagonal: usize,
        /// The stall budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
}

impl PipelineError {
    /// Is this an interruption (cancel / deadline / stall / simulated
    /// kill) rather than a genuine failure? Interrupted runs are fully
    /// resumable: rerunning the same pipeline continues (or restarts)
    /// correctly and yields a byte-identical result.
    pub fn is_interruption(&self) -> bool {
        matches!(
            self,
            PipelineError::Interrupted { .. }
                | PipelineError::Cancelled { .. }
                | PipelineError::DeadlineExceeded { .. }
                | PipelineError::Stalled { .. }
        )
    }

    /// The trace's interrupt `kind` discriminator for supervised
    /// interruptions (`None` for ordinary failures and for the legacy
    /// simulated-kill [`PipelineError::Interrupted`], which predates the
    /// supervision layer and keeps its quiet trace).
    pub fn interruption_kind(&self) -> Option<&'static str> {
        match self {
            PipelineError::Cancelled { .. } => Some("cancelled"),
            PipelineError::DeadlineExceeded { .. } => Some("deadline"),
            PipelineError::Stalled { .. } => Some("stalled"),
            _ => None,
        }
    }

    /// The external diagonal a resumed run continues from, for
    /// interruption errors.
    pub fn resume_diagonal(&self) -> Option<usize> {
        match self {
            PipelineError::Interrupted { diagonal }
            | PipelineError::Cancelled { diagonal }
            | PipelineError::DeadlineExceeded { diagonal, .. }
            | PipelineError::Stalled { diagonal, .. } => Some(*diagonal),
            _ => None,
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Internal(s) => write!(f, "pipeline error: {s}"),
            PipelineError::Io(s) => write!(f, "pipeline I/O error: {s}"),
            PipelineError::Worker(s) => write!(f, "pipeline worker panicked: {s}"),
            PipelineError::Interrupted { diagonal } => {
                write!(
                    f,
                    "pipeline interrupted at external diagonal {diagonal} (resume to continue)"
                )
            }
            PipelineError::Cancelled { diagonal } => {
                write!(f, "pipeline cancelled at external diagonal {diagonal} (resume to continue)")
            }
            PipelineError::DeadlineExceeded { diagonal, budget_ms } => {
                write!(
                    f,
                    "pipeline exceeded its {budget_ms} ms deadline at external diagonal {diagonal} (resume to continue)"
                )
            }
            PipelineError::Stalled { diagonal, budget_ms } => {
                write!(
                    f,
                    "pipeline stalled (no progress within {budget_ms} ms) at external diagonal {diagonal} (resume to continue)"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<StageError> for PipelineError {
    fn from(e: StageError) -> Self {
        match e {
            StageError::Logic(s) => PipelineError::Internal(s),
            e @ StageError::GoalNotReached { .. } => PipelineError::Internal(e.to_string()),
            StageError::Worker(s) => PipelineError::Worker(s),
            StageError::Storage(e) => PipelineError::Io(e.to_string()),
            StageError::Interrupted { diagonal } => PipelineError::Interrupted { diagonal },
            StageError::Cancelled { diagonal } => PipelineError::Cancelled { diagonal },
            StageError::DeadlineExceeded { diagonal, budget_ms } => {
                PipelineError::DeadlineExceeded { diagonal, budget_ms }
            }
            StageError::Stalled { diagonal, budget_ms } => {
                PipelineError::Stalled { diagonal, budget_ms }
            }
        }
    }
}

/// Everything the paper's Tables V, VII and VIII report about one run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Wall-clock seconds per stage (index 0 = Stage 1, ... 4 = Stage 5).
    pub stage_seconds: [f64; 5],
    /// DP cells covered by Stages 1-4 (`Cells_k`), pruned ones included.
    pub stage_cells: [u64; 4],
    /// Of `stage_cells[0]`, the cells of pruned stage-1 tiles, which no
    /// kernel computed.
    pub pruned_cells: u64,
    /// Stage-5 cells (bounded by partition size x chain length).
    pub stage5_cells: u64,
    /// Crosspoints after Stages 1-4 (`|L_k|`).
    pub crosspoints: [usize; 4],
    /// Completed special rows.
    pub special_rows: usize,
    /// Stage-1 flush interval in block rows.
    pub flush_interval_blocks: usize,
    /// Bytes written to the SRA by Stage 1.
    pub sra_bytes_used: u64,
    /// Most special rows in flight (begun, not yet complete) at once in
    /// Stage 1.
    pub sra_inflight_peak_rows: u64,
    /// Most SRA bytes those in-flight rows held at once (8 per cell, the
    /// capacity their buffers reserve).
    pub sra_inflight_peak_bytes: u64,
    /// Special columns kept for Stage 3.
    pub special_columns: usize,
    /// Bytes of special columns kept.
    pub sca_bytes_used: u64,
    /// Largest partition height after Stage 3 (`H_max`).
    pub h_max: usize,
    /// Largest partition width after Stage 3 (`W_max`).
    pub w_max: usize,
    /// Stage-2 strip launches.
    pub stage2_strips: usize,
    /// Per-iteration Stage-4 statistics (Table IX).
    pub stage4_iterations: Vec<IterationStats>,
    /// Estimated bus memory per GPU stage (`VRAM_k`, Stages 1-3).
    pub vram_bytes: [u64; 3],
    /// Effective block counts per GPU stage (`B_k` after the minimum-size
    /// requirement; Stage 1 for the full width, Stages 2-3 the minimum
    /// across strips/bands).
    pub effective_blocks: [usize; 3],
    /// Size of the binary alignment representation.
    pub binary_bytes: usize,
    /// External diagonal Stage 1 resumed from (0 = fresh run).
    pub resumed_from_diagonal: usize,
    /// Most finished stage-1 blocks the strip engine held undelivered
    /// at once, with their border copies (0 on one lane).
    pub stage1_parked_peak: usize,
    /// DP cells a resumed Stage 1 did *not* recompute because the
    /// restored snapshot already covered them. `stage_cells[0]` counts
    /// only the recomputed cells, so throughput divides matching work by
    /// matching time; the full matrix is `stage_cells[0] + this`.
    pub resumed_cells_skipped: u64,
    /// Special rows lost to storage failures: unwritable after retries
    /// (Stage 1) or corrupt on read-back (Stage 2). The run stays
    /// correct — Stage 2 just does more work between surviving rows.
    pub dropped_special_rows: u64,
    /// Special columns lost to storage failures: unwritable (Stage 2) or
    /// corrupt/skipped on read-back (Stage 3) — partitions just grow.
    pub dropped_special_cols: u64,
    /// Stage-1 checkpoint snapshots that could not be written. Non-zero
    /// means resumability is degraded to the last successful snapshot.
    pub checkpoint_failures: u64,
    /// Transient storage write failures recovered by retry.
    pub storage_retries: u64,
    /// Persisted files rejected on reopen (truncated, bit-flipped,
    /// misnamed, foreign job fingerprint).
    pub storage_rejected_files: u64,
    /// Orphaned/stale files swept from the storage directory.
    pub storage_swept_files: u64,
    /// Worker-pool lanes available to this run (including the caller).
    pub pool_lanes: usize,
    /// Queue/condvar handoffs this run performed (one per wavefront
    /// diagonal or partition batch handed to the pool).
    pub pool_handoffs: u64,
    /// Jobs this run spawned on the pool.
    pub pool_tasks: u64,
    /// Mean occupied-lane fraction per handoff, in `[0, 1]`.
    pub pool_busy_ratio: f64,
    /// Tiles that committed on the 32-lane saturating-`i8` rung of the
    /// precision ladder (Stages 1-3, the engine-driven stages).
    pub kernel_striped8_tiles: u64,
    /// Tiles that attempted the `i8` rung, overflowed its window, and
    /// committed on the 16-lane `i16` rung instead.
    pub kernel_striped8_fb16_tiles: u64,
    /// Tiles that went straight to the `i16` rung (the `i8` rung was
    /// ineligible for the tile's shape or scoring).
    pub kernel_striped16_tiles: u64,
    /// Tiles that exhausted the vector rungs and re-ran on the scalar
    /// `i32` kernel after `i16` overflow.
    pub kernel_fallback_tiles: u64,
    /// Tiles that committed on the scalar `i32` kernel up front: shorter
    /// than `gpu_sim::kernel::MIN_LADDER_ROWS` (the 16-row blocks of
    /// scaled stage-2/3 grids), or no striped rung eligible.
    pub kernel_scalar_tiles: u64,
    /// Stage-1 tiles no kernel computed: cone pruning proved that no path
    /// through them reaches the best score.
    pub kernel_pruned_tiles: u64,
    /// Query-profile cache hits across the engine-driven stages.
    pub kernel_profile_hits: u64,
    /// Query-profile cache misses (profile bands built) across the
    /// engine-driven stages.
    pub kernel_profile_misses: u64,
    /// Stage-4 kernel tiles (both halves of every Myers-Miller split) per
    /// precision-ladder outcome; not part of the `kernel_*` counters.
    pub stage4_paths: gpu_sim::kernel::PathCounts,
    /// Stage-4 query-profile cache hits.
    pub stage4_profile_hits: u64,
    /// Stage-4 query-profile cache misses.
    pub stage4_profile_misses: u64,
    /// Supervised interruptions (cancel / deadline / stall) recorded on
    /// this run's metrics registry. Non-zero only when the caller reuses
    /// one [`Obs`] across an interrupted run and its resume — the
    /// resumed run's stats then carry the interruption history.
    pub interruptions: u64,
    /// Milliseconds from the last cancel signal to the run unwinding
    /// (time-to-cancel latency on the supervisor's clock).
    pub cancel_latency_ms: f64,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
}

impl PipelineStats {
    /// Total cells across all stages.
    pub fn total_cells(&self) -> u64 {
        self.stage_cells.iter().sum::<u64>() + self.stage5_cells
    }

    /// Cells a kernel computed across all stages: the total less pruned
    /// cells.
    pub fn computed_cells(&self) -> u64 {
        self.total_cells().saturating_sub(self.pruned_cells)
    }

    /// Million cell updates per second over the whole run — the paper's
    /// headline MCUPS metric, derived from computed cells and wall-clock.
    ///
    /// `None` when `total_seconds` is zero, negative or non-finite (a
    /// degenerate run, e.g. under a coarse or manual clock): dividing
    /// anyway used to hand `inf`/NaN to `--stats` output.
    pub fn mcups(&self) -> Option<f64> {
        if self.total_seconds > 0.0 && self.total_seconds.is_finite() {
            Some(self.computed_cells() as f64 / self.total_seconds / 1e6)
        } else {
            None
        }
    }
}

/// Result of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The optimal local score (0 = no positive-scoring alignment; all
    /// other fields are then empty/zero).
    pub best_score: Score,
    /// Alignment start node.
    pub start: (usize, usize),
    /// Alignment end node.
    pub end: (usize, usize),
    /// The full optimal alignment.
    pub transcript: Transcript,
    /// Compact binary form (Stage 5 output).
    pub binary: BinaryAlignment,
    /// The final crosspoint chain.
    pub chain: CrosspointChain,
    /// Run statistics.
    pub stats: PipelineStats,
}

/// The CUDAlign 2.0 pipeline.
///
/// Owns the persistent [`WorkerPool`] every stage executes on: the pool is
/// created once from [`PipelineConfig::workers`] and its threads live as
/// long as the pipeline, so repeated [`Pipeline::align`] calls (and all
/// six stages within one call) share the same lanes instead of respawning
/// OS threads per diagonal. Cloning a pipeline shares the pool.
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: PipelineConfig,
    pool: Arc<WorkerPool>,
}

impl Pipeline {
    /// Create a pipeline with the given configuration. Spawns the worker
    /// pool (`cfg.workers` lanes; `0` = one per available CPU).
    pub fn new(cfg: PipelineConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(cfg.workers));
        Pipeline { cfg, pool }
    }

    /// Create a pipeline executing on an existing shared pool.
    ///
    /// `cfg.workers` still caps the parallelism each stage *uses* (the
    /// effective width is `min(pool lanes, cfg.workers)`), but no new
    /// threads are spawned.
    pub fn with_pool(cfg: PipelineConfig, pool: Arc<WorkerPool>) -> Self {
        Pipeline { cfg, pool }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The worker pool stages execute on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Align `s0` against `s1`, returning the full optimal local
    /// alignment in linear memory.
    pub fn align(&self, s0: &[u8], s1: &[u8]) -> Result<PipelineResult, PipelineError> {
        self.align_observed(s0, s1, &mut Obs::new())
    }

    /// [`Pipeline::align`] with an observability handle.
    ///
    /// The run is bracketed by [`Event::RunBegin`]/[`Event::RunEnd`]; each
    /// stage (1..=6, where 6 is the packing/bookkeeping epilogue) gets a
    /// [`Event::StageBegin`]/[`Event::StageEnd`] span, and the stages
    /// stream their own progress events in between. Every wall-clock read
    /// goes through the handle's injected [`crate::obs::Clock`], so a
    /// caller driving a [`crate::obs::SharedClock`] gets deterministic
    /// timings. Scalar counters accumulate in the [`Obs::metrics`]
    /// registry — the single source of truth that [`PipelineStats`],
    /// `--stats` and the NDJSON trace all read; a [`Event::Metrics`] dump
    /// is emitted just before `RunEnd`.
    pub fn align_observed(
        &self,
        s0: &[u8],
        s1: &[u8],
        obs: &mut Obs<'_>,
    ) -> Result<PipelineResult, PipelineError> {
        self.align_with_control(s0, s1, obs, &RunControl::unlimited())
    }

    /// [`Pipeline::align_observed`] under a supervision policy.
    ///
    /// The [`RunControl`]'s cancel token is threaded through all six
    /// stages and the wavefront engine; its deadline/stall budgets are
    /// enforced by a watchdog thread spawned for the duration of this
    /// call (and joined before it returns — a supervised run never leaks
    /// a thread). An interruption surfaces as a typed
    /// [`PipelineError::Cancelled`] / [`PipelineError::DeadlineExceeded`]
    /// / [`PipelineError::Stalled`] — never a partial score — after
    /// emitting an [`Event::Interrupt`] record (plus an
    /// [`Event::StallDiag`] snapshot when the strip scheduler was torn
    /// down) and bumping the `supervise.*` metrics. With checkpointing
    /// configured, the engine flushes a boundary snapshot before
    /// unwinding, so rerunning the pipeline resumes from the reported
    /// diagonal and produces a byte-identical result.
    pub fn align_supervised(
        &self,
        s0: &[u8],
        s1: &[u8],
        obs: &mut Obs<'_>,
        ctrl: &RunControl,
    ) -> Result<PipelineResult, PipelineError> {
        let _watchdog = ctrl.spawn_watchdog();
        self.align_with_control(s0, s1, obs, ctrl)
    }

    fn align_with_control(
        &self,
        s0: &[u8],
        s1: &[u8],
        obs: &mut Obs<'_>,
        ctrl: &RunControl,
    ) -> Result<PipelineResult, PipelineError> {
        // The stages own their context: the caller's handle moves in for
        // the run and is handed back whatever its outcome.
        let (cfg, pool) = (&self.cfg, &*self.pool);
        let mut cx =
            StageContext { s0, s1, cfg, pool, obs: std::mem::take(obs), ctrl: ctrl.clone() };
        let result = Self::run_stages(&mut cx);
        *obs = cx.obs;
        result
    }

    fn run_stages(cx: &mut StageContext<'_, '_>) -> Result<PipelineResult, PipelineError> {
        let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
        let pool_before = pool.stats();
        let t_total = cx.obs.now();
        let mut stats = PipelineStats::default();
        let fingerprint = cfg.job_fingerprint(s0.len(), s1.len());

        // With a checkpoint policy, a matching snapshot from a previous
        // (crashed) run resumes Stage 1 mid-matrix; completed special rows
        // are reopened when the backend is disk-based and in-flight row
        // segments are restored from the combined snapshot. A checkpoint
        // that fails validation (truncated, bit-flipped, malformed, foreign
        // job) is discarded and the run starts fresh — always correct,
        // never resumed-from-garbage.
        let resume =
            cfg.checkpoint.as_ref().and_then(|ck| stage1::load_checkpoint(&ck.dir, fingerprint));
        let resuming = resume.is_some();
        let (resume_state, resume_partials) = match resume {
            Some((st, p)) => (Some(st), Some(p)),
            None => (None, None),
        };
        cx.obs.emit(Event::RunBegin {
            m: s0.len(),
            n: s1.len(),
            total_diagonals: cfg.grid1.layout(s0.len(), s1.len()).diagonals(),
            resumed_from_diagonal: resume_state.as_ref().map_or(0, |st| st.next_diagonal),
        });

        // A run cancelled before it starts (e.g. a queued serve job whose
        // deadline fired while it waited) unwinds here, *after* the
        // run-open record above: even an immediately-interrupted trace
        // carries run_begin + interrupt rather than being empty, and the
        // caller never pays for stores it won't use.
        if let Err(e) = cx.ctrl.check(resume_state.as_ref().map_or(0, |st| st.next_diagonal)) {
            return Err(note_interruption(cx, 1, e));
        }

        let mut rows: LineStore<gpu_sim::CellHF> = if resuming {
            LineStore::reopen(&cfg.backend, cfg.sra_bytes, "special-row", fingerprint)
                .map_err(|e| PipelineError::Io(e.to_string()))?
        } else {
            LineStore::new(&cfg.backend, cfg.sra_bytes, "special-row", fingerprint)
                .map_err(|e| PipelineError::Io(e.to_string()))?
        };
        if cfg.checkpoint.is_some() {
            // An interrupted run must leave the row files on disk for the
            // resumed run to reopen; Drop would otherwise delete them on
            // the error path. Completed runs clean up explicitly below.
            rows.persist_on_drop(true);
        }
        if let Some(p) = resume_partials {
            rows.restore_partials(p);
        }
        let mut cols: LineStore<gpu_sim::CellHE> =
            LineStore::new(&cfg.backend, cfg.sca_bytes, "special-col", fingerprint)
                .map_err(|e| PipelineError::Io(e.to_string()))?;

        // Stage 1: best score, end point, special rows.
        let ck = cfg.checkpoint.as_ref();
        let s1r = stage_span(
            cx,
            1,
            |cx| {
                if let Some(ck) = ck {
                    storage::ensure_dir(&ck.dir).map_err(StageError::Storage)?;
                }
                let every = ck.map(|ck| (ck.dir.as_path(), ck.every_diagonals));
                let r = stage1::run(cx, &mut rows, resume_state, every)?;
                if let Some(ck) = ck {
                    storage::remove_file_quiet(&ck.dir.join("stage1.ckpt"));
                }
                Ok(r)
            },
            |obs, r| {
                record_kernel(obs, 1, &r.paths, r.profile_hits, r.profile_misses);
                // The engine's cell counter is cumulative across resumes;
                // the work this run performed excludes cells the restored
                // snapshot already covered. Throughput must divide
                // matching work by matching time, so only recomputed cells
                // enter `stage1.cells` — the skipped remainder is reported
                // separately.
                r.cells.saturating_sub(r.resumed_cells)
            },
        )?;
        let obs = &mut cx.obs;
        obs.metrics.inc("stage1.resumed_cells_skipped", s1r.resumed_cells);
        obs.metrics.inc("stage1.pruned_cells", s1r.pruned_cells);
        obs.metrics.set("stage1.resumed_from_diagonal", s1r.resumed_from_diagonal as u64);
        obs.metrics.inc("sra.special_rows", s1r.special_rows.len() as u64);
        obs.metrics.inc("sra.bytes_used", s1r.flushed_bytes);
        obs.metrics.inc("storage.checkpoint_failures", s1r.checkpoint_failures);
        obs.metrics.set("stage1.parked_peak", s1r.parked_peak as u64);
        stats.crosspoints[0] = 1;
        stats.flush_interval_blocks = s1r.flush_interval_blocks;
        stats.vram_bytes[0] = s1r.vram_bytes;
        stats.effective_blocks[0] = cfg.grid1.effective_blocks(s1.len());

        if s1r.best_score <= 0 {
            record_store_stats(&mut obs.metrics, rows.stats(), cols.stats());
            rows.clear();
            record_pool_delta(&mut obs.metrics, &pool_before, &pool.stats());
            let total = obs.now().saturating_sub(t_total).as_secs_f64();
            obs.metrics.set_gauge("total.seconds", total);
            fill_scalar_stats(&mut stats, &obs.metrics);
            let dump = obs.metrics.to_event();
            obs.emit(dump);
            obs.emit(Event::RunEnd { seconds: total, best_score: 0 });
            return Ok(PipelineResult {
                best_score: 0,
                start: (0, 0),
                end: (0, 0),
                transcript: Transcript::new(),
                binary: BinaryAlignment {
                    start: (0, 0),
                    end: (0, 0),
                    score: 0,
                    gaps_s0: Vec::new(),
                    gaps_s1: Vec::new(),
                },
                chain: CrosspointChain::default(),
                stats,
            });
        }

        // Stage 2: partial traceback over special rows. Rows whose disk
        // file turns out corrupt are dropped here (and counted): the
        // matching procedure simply spans a larger area.
        let s2r = stage_span(
            cx,
            2,
            |cx| stage2::run(cx, s1r.best_score, s1r.end, &mut rows, &mut cols),
            |obs, r| {
                record_kernel(obs, 2, &r.paths, r.profile_hits, r.profile_misses);
                r.cells
            },
        )?;
        let obs = &mut cx.obs;
        obs.metrics.inc("stage2.strips", s2r.strips as u64);
        obs.metrics.inc("sca.special_columns", s2r.special_columns.len() as u64);
        obs.metrics.inc("sca.bytes_used", s2r.col_flushed_bytes);
        obs.metrics.inc("storage.dropped_rows", s2r.dropped_rows);
        stats.crosspoints[1] = s2r.chain.len();
        stats.vram_bytes[1] = s2r.vram_bytes;
        stats.effective_blocks[1] = s2r.min_blocks;

        // Stage 3: split partitions on special columns (corrupt columns
        // are skipped and counted; their partitions stay coarse).
        let s3r = stage_span(
            cx,
            3,
            |cx| stage3::run(cx, &s2r.chain, &cols),
            |obs, r| {
                record_kernel(obs, 3, &r.paths, r.profile_hits, r.profile_misses);
                r.cells
            },
        )?;
        cx.obs.metrics.inc("storage.dropped_cols", s3r.skipped_columns);
        stats.crosspoints[2] = s3r.chain.len();
        stats.h_max = s3r.chain.h_max();
        stats.w_max = s3r.chain.w_max();
        stats.vram_bytes[2] = s3r.vram_bytes;
        stats.effective_blocks[2] = s3r.min_blocks;

        // Stage 4: Myers-Miller until partitions fit.
        let s4r = stage_span(
            cx,
            4,
            |cx| stage4::run(cx, &s3r.chain),
            |obs, r| {
                // Metrics only: the `kernel` trace record stays with the
                // engine-driven stages 1-3.
                let m = &mut obs.metrics;
                m.inc("stage4.striped8_tiles", r.paths.striped8);
                m.inc("stage4.striped8_fb16_tiles", r.paths.striped8_fb16);
                m.inc("stage4.striped16_tiles", r.paths.striped16);
                m.inc("stage4.fallback_tiles", r.paths.fallback);
                m.inc("stage4.scalar_tiles", r.paths.scalar);
                m.inc("stage4.profile_hits", r.profile_hits);
                m.inc("stage4.profile_misses", r.profile_misses);
                r.cells
            },
        )?;
        stats.crosspoints[3] = s4r.chain.len();
        stats.stage4_iterations = s4r.iterations.clone();

        // Stage 5: solve and concatenate.
        let s5r = stage_span(cx, 5, |cx| stage5::run(cx, &s4r.chain), |_, r| r.cells)?;

        // Stage 6: pack the binary representation and close the books
        // (store health, pool utilization, final metrics dump).
        let obs = &mut cx.obs;
        obs.emit(Event::StageBegin { stage: 6 });
        let t = obs.now();
        obs.metrics.set("binary.bytes", s5r.binary.encode().len() as u64);
        record_store_stats(&mut obs.metrics, rows.stats(), cols.stats());
        // Success: nothing left to resume, so the persisted row files can
        // go regardless of persist_on_drop.
        rows.clear();
        record_pool_delta(&mut obs.metrics, &pool_before, &pool.stats());
        let seconds = obs.now().saturating_sub(t).as_secs_f64();
        obs.metrics.set_gauge("stage6.seconds", seconds);
        obs.emit(Event::StageEnd { stage: 6, seconds, cells: 0 });
        let total = obs.now().saturating_sub(t_total).as_secs_f64();
        obs.metrics.set_gauge("total.seconds", total);
        fill_scalar_stats(&mut stats, &obs.metrics);
        let dump = obs.metrics.to_event();
        obs.emit(dump);
        obs.emit(Event::RunEnd { seconds: total, best_score: i64::from(s1r.best_score) });

        let start = s5r.binary.start;
        let end = s5r.binary.end;
        debug_assert_eq!(end, s1r.end, "stage 5 must end at the stage-1 endpoint");

        Ok(PipelineResult {
            best_score: s1r.best_score,
            start,
            end,
            transcript: s5r.transcript,
            binary: s5r.binary,
            chain: s4r.chain,
            stats,
        })
    }
}

/// Metric keys of stages 1-5: wall-clock seconds and cells.
const STAGE_KEYS: [(&str, &str); 5] = [
    ("stage1.seconds", "stage1.cells"),
    ("stage2.seconds", "stage2.cells"),
    ("stage3.seconds", "stage3.cells"),
    ("stage4.seconds", "stage4.cells"),
    ("stage5.seconds", "stage5.cells"),
];

/// Run stage `stage` (1-5) inside its span: `StageBegin`, the stage,
/// `StageEnd` with its seconds on the injected clock and its cells, and
/// the `stageN.seconds` / `stageN.cells` metrics. `cells` records what the
/// stage reports inside its span (the kernel counts) and returns the cells
/// it computed. A failure is converted by [`note_interruption`].
fn stage_span<'a, 'o, R>(
    cx: &mut StageContext<'a, 'o>,
    stage: u8,
    run: impl FnOnce(&mut StageContext<'a, 'o>) -> Result<R, StageError>,
    cells: impl FnOnce(&mut Obs<'o>, &R) -> u64,
) -> Result<R, PipelineError> {
    cx.obs.emit(Event::StageBegin { stage });
    let t = cx.obs.now();
    let r = run(cx).map_err(|e| note_interruption(cx, stage, e))?;
    let seconds = cx.obs.now().saturating_sub(t).as_secs_f64();
    let cells = cells(&mut cx.obs, &r);
    cx.obs.emit(Event::StageEnd { stage, seconds, cells });
    let (seconds_key, cells_key) = STAGE_KEYS[usize::from(stage) - 1];
    cx.obs.metrics.set_gauge(seconds_key, seconds);
    cx.obs.metrics.inc(cells_key, cells);
    Ok(r)
}

/// Record a stage failure's supervision footprint and convert it.
///
/// Ordinary failures (and the legacy simulated-kill `Interrupted`) pass
/// through untouched. Supervised interruptions — cancel, deadline, stall
/// — additionally bump the `supervise.*` metrics, emit an
/// [`Event::Interrupt`] record with the time-to-cancel latency, and
/// surface the strip scheduler's parked [`gpu_sim::StripDiag`] snapshot
/// (per-strip published/claimed counters) as an [`Event::StallDiag`]
/// record, so a stalled run's trace shows *where* it was stuck.
fn note_interruption(cx: &mut StageContext<'_, '_>, stage: u8, e: StageError) -> PipelineError {
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    let pe = PipelineError::from(e);
    if let Some(kind) = pe.interruption_kind() {
        let diagonal = pe.resume_diagonal().unwrap_or(0);
        let latency_ms = ctrl.cancel_latency_ms();
        obs.metrics.inc("supervise.interrupts", 1);
        obs.metrics.inc(
            match kind {
                "deadline" => "supervise.deadline",
                "stalled" => "supervise.stalled",
                _ => "supervise.cancelled",
            },
            1,
        );
        obs.metrics.set_gauge("supervise.cancel_latency_ms", latency_ms);
        obs.emit(Event::Interrupt { stage, kind, diagonal, latency_ms });
        if let Some(d) = ctrl.token().take_strip_diag() {
            obs.emit(Event::StallDiag {
                stage,
                front: d.front,
                published: d.published,
                claims: d.claims,
                blocks: d.blocks,
            });
        }
    }
    pe
}

/// Fold the storage-health counters of the row and column stores into the
/// metrics registry (dropped lines are attributed per store, the rest
/// merged; the in-flight peaks are the row store's).
fn record_store_stats(m: &mut Metrics, rows: StoreStats, cols: StoreStats) {
    m.inc("storage.dropped_rows", rows.dropped_lines);
    m.inc("storage.dropped_cols", cols.dropped_lines);
    let merged = rows.merged(cols);
    m.inc("storage.retries", merged.write_retries);
    m.inc("storage.rejected_files", merged.rejected_files);
    m.inc("storage.swept_files", merged.swept_files);
    m.set("sra.inflight_peak_rows", rows.peak_inflight_lines);
    m.set("sra.inflight_peak_bytes", rows.peak_inflight_bytes);
}

/// Fold the difference between two pool snapshots into the metrics
/// registry.
///
/// The pool is shared across runs — and possibly across *concurrent*
/// pipelines — so its counters are cumulative; a run's utilization is the
/// delta between snapshots. The busy ratio is recovered from the exact
/// `busy_permille` accumulator rather than by un-averaging the rounded
/// `busy_ratio` mean (multiplying a mean back into a sum loses precision
/// and, when a concurrent pipeline's scopes land between the snapshots,
/// could produce ratios below zero or above one). A shared pool's window
/// still contains foreign scopes, so the value is the mean occupancy over
/// *all* scopes in the window — a blended attribution, but always within
/// `[0, 1]`, and exact when the pool is not shared.
fn record_pool_delta(m: &mut Metrics, before: &PoolStats, after: &PoolStats) {
    let handoffs = after.scopes.saturating_sub(before.scopes);
    m.set("pool.lanes", after.lanes as u64);
    m.set("pool.handoffs", handoffs);
    m.set("pool.tasks", after.tasks.saturating_sub(before.tasks));
    let ratio = if handoffs == 0 {
        0.0
    } else {
        let permille = after.busy_permille.saturating_sub(before.busy_permille);
        (permille as f64 / (1000.0 * handoffs as f64)).clamp(0.0, 1.0)
    };
    m.set_gauge("pool.busy_ratio", ratio);
}

/// Record one engine-driven stage's kernel counters: the precision-ladder
/// outcome event on the trace (inside the still-open stage span, so the
/// validator can tie it to its stage) and the run-cumulative metrics the
/// stats report and MCUPS bench read.
fn record_kernel(
    obs: &mut Obs<'_>,
    stage: u8,
    paths: &gpu_sim::kernel::PathCounts,
    profile_hits: u64,
    profile_misses: u64,
) {
    obs.emit(Event::Kernel {
        stage,
        striped8: paths.striped8,
        striped8_fb16: paths.striped8_fb16,
        striped16: paths.striped16,
        fallback: paths.fallback,
        scalar: paths.scalar,
        pruned: paths.pruned,
        profile_hits,
        profile_misses,
    });
    obs.metrics.inc("kernel.striped8_tiles", paths.striped8);
    obs.metrics.inc("kernel.striped8_fb16_tiles", paths.striped8_fb16);
    obs.metrics.inc("kernel.striped16_tiles", paths.striped16);
    obs.metrics.inc("kernel.fallback_tiles", paths.fallback);
    obs.metrics.inc("kernel.scalar_tiles", paths.scalar);
    obs.metrics.inc("kernel.pruned_tiles", paths.pruned);
    obs.metrics.inc("kernel.profile_hits", profile_hits);
    obs.metrics.inc("kernel.profile_misses", profile_misses);
}

/// Copy every scalar counter and gauge out of the metrics registry into
/// the [`PipelineStats`] report. The registry is the single source of
/// truth — `--stats`, the MCUPS bench and the NDJSON trace read the same
/// accumulators; this projection exists so existing consumers keep their
/// typed view. Structure-shaped fields (crosspoints, per-iteration lists,
/// grid geometry) are set directly by the pipeline and not duplicated
/// here.
fn fill_scalar_stats(stats: &mut PipelineStats, m: &Metrics) {
    stats.stage_seconds = [
        m.gauge("stage1.seconds"),
        m.gauge("stage2.seconds"),
        m.gauge("stage3.seconds"),
        m.gauge("stage4.seconds"),
        m.gauge("stage5.seconds"),
    ];
    stats.stage_cells = [
        m.get("stage1.cells"),
        m.get("stage2.cells"),
        m.get("stage3.cells"),
        m.get("stage4.cells"),
    ];
    stats.stage5_cells = m.get("stage5.cells");
    stats.resumed_cells_skipped = m.get("stage1.resumed_cells_skipped");
    stats.resumed_from_diagonal = m.get("stage1.resumed_from_diagonal") as usize;
    stats.stage1_parked_peak = m.get("stage1.parked_peak") as usize;
    stats.special_rows = m.get("sra.special_rows") as usize;
    stats.sra_bytes_used = m.get("sra.bytes_used");
    stats.sra_inflight_peak_rows = m.get("sra.inflight_peak_rows");
    stats.sra_inflight_peak_bytes = m.get("sra.inflight_peak_bytes");
    stats.special_columns = m.get("sca.special_columns") as usize;
    stats.sca_bytes_used = m.get("sca.bytes_used");
    stats.stage2_strips = m.get("stage2.strips") as usize;
    stats.dropped_special_rows = m.get("storage.dropped_rows");
    stats.dropped_special_cols = m.get("storage.dropped_cols");
    stats.checkpoint_failures = m.get("storage.checkpoint_failures");
    stats.storage_retries = m.get("storage.retries");
    stats.storage_rejected_files = m.get("storage.rejected_files");
    stats.storage_swept_files = m.get("storage.swept_files");
    stats.pool_lanes = m.get("pool.lanes") as usize;
    stats.pool_handoffs = m.get("pool.handoffs");
    stats.pool_tasks = m.get("pool.tasks");
    stats.pool_busy_ratio = m.gauge("pool.busy_ratio");
    stats.kernel_striped8_tiles = m.get("kernel.striped8_tiles");
    stats.kernel_striped8_fb16_tiles = m.get("kernel.striped8_fb16_tiles");
    stats.kernel_striped16_tiles = m.get("kernel.striped16_tiles");
    stats.kernel_fallback_tiles = m.get("kernel.fallback_tiles");
    stats.kernel_scalar_tiles = m.get("kernel.scalar_tiles");
    stats.kernel_pruned_tiles = m.get("kernel.pruned_tiles");
    stats.pruned_cells = m.get("stage1.pruned_cells");
    stats.kernel_profile_hits = m.get("kernel.profile_hits");
    stats.kernel_profile_misses = m.get("kernel.profile_misses");
    stats.stage4_paths = gpu_sim::kernel::PathCounts {
        striped8: m.get("stage4.striped8_tiles"),
        striped8_fb16: m.get("stage4.striped8_fb16_tiles"),
        striped16: m.get("stage4.striped16_tiles"),
        fallback: m.get("stage4.fallback_tiles"),
        scalar: m.get("stage4.scalar_tiles"),
        pruned: 0,
    };
    stats.stage4_profile_hits = m.get("stage4.profile_hits");
    stats.stage4_profile_misses = m.get("stage4.profile_misses");
    stats.binary_bytes = m.get("binary.bytes") as usize;
    stats.interruptions = m.get("supervise.interrupts");
    stats.cancel_latency_ms = m.gauge("supervise.cancel_latency_ms");
    stats.total_seconds = m.gauge("total.seconds");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SraBackend;
    use seqio::generate::{dna, edited_pair};
    use sw_core::full::sw_local_score;
    use sw_core::Scoring;

    fn check_full_run(a: &[u8], b: &[u8], cfg: PipelineConfig) -> PipelineResult {
        let res = Pipeline::new(cfg).align(a, b).unwrap();
        let (ref_score, ref_end) = sw_local_score(a, b, &Scoring::paper());
        assert_eq!(res.best_score, ref_score, "score mismatch");
        if ref_score > 0 {
            assert_eq!(res.end, ref_end, "endpoint mismatch");
            let sub_a = &a[res.start.0..res.end.0];
            let sub_b = &b[res.start.1..res.end.1];
            res.transcript.validate(sub_a, sub_b).unwrap();
            assert_eq!(
                res.transcript.score(sub_a, sub_b, &Scoring::paper()),
                ref_score,
                "transcript must rescore to the optimum"
            );
        }
        res
    }

    #[test]
    fn end_to_end_related_pair() {
        let (a, b) = edited_pair(1, 500, 29);
        let res = check_full_run(&a, &b, PipelineConfig::for_tests());
        assert!(res.stats.special_rows > 0);
        assert!(res.stats.crosspoints[1] >= 2);
        assert!(res.stats.crosspoints[3] >= res.stats.crosspoints[2]);
        assert!(res.stats.total_cells() > 0);
    }

    #[test]
    fn end_to_end_identical() {
        let a = dna(2, 300);
        let res = check_full_run(&a, &a, PipelineConfig::for_tests());
        assert_eq!(res.best_score, 300);
        assert_eq!(res.transcript.cigar(), "300=");
    }

    #[test]
    fn end_to_end_unrelated_small_alignment() {
        let a = dna(3, 250);
        let b = dna(77, 250);
        check_full_run(&a, &b, PipelineConfig::for_tests());
    }

    #[test]
    fn end_to_end_empty_and_degenerate() {
        let res = Pipeline::new(PipelineConfig::for_tests()).align(b"", b"").unwrap();
        assert_eq!(res.best_score, 0);
        assert!(res.transcript.is_empty());
        let res2 = Pipeline::new(PipelineConfig::for_tests()).align(b"ACGT", b"").unwrap();
        assert_eq!(res2.best_score, 0);
    }

    #[test]
    fn end_to_end_disk_backend() {
        // Writes storage frames: serialized with the fault-arming tests.
        let _guard = crate::storage::fault::test_guard();
        let (a, b) = edited_pair(4, 300, 29);
        let dir = std::env::temp_dir().join(format!("cudalign-e2e-{}", std::process::id()));
        let mut cfg = PipelineConfig::for_tests();
        cfg.backend = SraBackend::Disk(dir.clone());
        check_full_run(&a, &b, cfg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sra_budget_tradeoff_smaller_budget_more_stage2_cells() {
        let (a, b) = edited_pair(5, 600, 29);
        let mut cfg_big = PipelineConfig::for_tests();
        cfg_big.sra_bytes = 1 << 20;
        let big = check_full_run(&a, &b, cfg_big);
        let mut cfg_small = PipelineConfig::for_tests();
        cfg_small.sra_bytes = 8 * (b.len() as u64 + 1); // exactly one row
        let small = check_full_run(&a, &b, cfg_small);
        assert!(big.stats.special_rows > small.stats.special_rows);
        assert!(
            small.stats.stage_cells[1] >= big.stats.stage_cells[1],
            "fewer special rows must not shrink the stage-2 area (small {} vs big {})",
            small.stats.stage_cells[1],
            big.stats.stage_cells[1]
        );
    }

    #[test]
    fn long_gap_sequences() {
        // A large deletion creates a long vertical gap run crossing
        // several special rows.
        let a = dna(6, 400);
        let mut b = a.clone();
        b.drain(120..280);
        check_full_run(&a, &b, PipelineConfig::for_tests());
    }

    /// Bug regression: a zero/degenerate duration must not divide.
    /// `mcups()` used to return `inf` (cells > 0, seconds == 0), which
    /// `--stats` printed verbatim.
    #[test]
    fn mcups_guards_zero_and_non_finite_durations() {
        let mut st = PipelineStats { stage_cells: [10_000_000, 0, 0, 0], ..Default::default() };
        assert_eq!(st.mcups(), None, "zero seconds must not divide");
        st.total_seconds = f64::INFINITY;
        assert_eq!(st.mcups(), None, "non-finite seconds must not divide");
        st.total_seconds = -1.0;
        assert_eq!(st.mcups(), None, "negative seconds must not divide");
        st.total_seconds = 2.0;
        assert_eq!(st.mcups(), Some(5.0), "10M cells / 2s = 5 MCUPS");
        let (a, b) = edited_pair(9, 200, 29);
        let res = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
        let v = res.stats.mcups().expect("a real run has a positive duration");
        assert!(v.is_finite() && v > 0.0);
    }

    /// Bug regression: the per-run pool utilization delta is now derived
    /// from the exact `busy_permille` accumulator. The old derivation
    /// un-averaged the rounded `busy_ratio` mean and could leave the
    /// `[0, 1]` range when a concurrent pipeline's scopes landed between
    /// the two snapshots.
    #[test]
    fn pool_delta_uses_exact_permille_and_stays_in_range() {
        let before = PoolStats {
            lanes: 4,
            scopes: 10,
            tasks: 20,
            inline_tasks: 0,
            pinned_tasks: 0,
            cancelled_tasks: 0,
            busy_ratio: 0.5,
            busy_permille: 5_000,
        };
        let after = PoolStats {
            lanes: 4,
            scopes: 14,
            tasks: 31,
            inline_tasks: 0,
            pinned_tasks: 0,
            cancelled_tasks: 0,
            busy_ratio: 0.64,
            busy_permille: 9_000,
        };
        let mut m = Metrics::new();
        record_pool_delta(&mut m, &before, &after);
        assert_eq!(m.get("pool.lanes"), 4);
        assert_eq!(m.get("pool.handoffs"), 4);
        assert_eq!(m.get("pool.tasks"), 11);
        // 4000 permille over 4 scopes: fully busy, exactly 1.0.
        assert!((m.gauge("pool.busy_ratio") - 1.0).abs() < 1e-12);
        // Snapshots taken around a window another pipeline drained can
        // observe counters that went "backwards" relative to this run's
        // share; the deltas saturate and the ratio clamps instead of
        // going negative.
        let mut m2 = Metrics::new();
        record_pool_delta(&mut m2, &after, &before);
        assert_eq!(m2.get("pool.handoffs"), 0);
        assert_eq!(m2.gauge("pool.busy_ratio"), 0.0);
    }

    /// Two pipelines racing on one shared pool: each run's reported
    /// utilization is a blended attribution over the window (documented
    /// on `record_pool_delta`) but must always stay within `[0, 1]`.
    #[test]
    fn shared_pool_concurrent_runs_report_bounded_utilization() {
        let pool = Arc::new(WorkerPool::new(2));
        let (a, b) = edited_pair(11, 260, 29);
        let (c, d) = edited_pair(12, 260, 29);
        let p1 = Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool));
        let p2 = Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool));
        let (r1, r2) = std::thread::scope(|s| {
            let h1 = s.spawn(|| p1.align(&a, &b).unwrap());
            let h2 = s.spawn(|| p2.align(&c, &d).unwrap());
            (h1.join().unwrap(), h2.join().unwrap())
        });
        for st in [&r1.stats, &r2.stats] {
            assert!(st.pool_handoffs > 0, "each run performed handoffs");
            assert!(
                (0.0..=1.0).contains(&st.pool_busy_ratio),
                "busy ratio {} escaped [0, 1]",
                st.pool_busy_ratio
            );
        }
    }

    /// Satellite regression: two pipelines share one pool, one run is
    /// cancelled mid-flight. The survivor must still produce the optimal
    /// score, the cancelled run must return a typed interruption (not a
    /// partial score), and the shared pool's accounting must not leak —
    /// utilization stays within `[0, 1]` and later runs see a clean pool.
    #[test]
    fn shared_pool_one_run_cancelled_does_not_poison_the_other() {
        use crate::supervise::RunControl;
        let pool = Arc::new(WorkerPool::new(2));
        let (a, b) = edited_pair(21, 320, 29);
        let (c, d) = edited_pair(22, 320, 29);
        let p1 = Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool));
        let p2 = Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool));
        let ctrl = RunControl::unlimited().with_cancel_after_diagonal(2);
        let (r1, r2) = std::thread::scope(|s| {
            let ctrl = &ctrl;
            let h1 = s.spawn(move || {
                p1.align_supervised(&a, &b, &mut Obs::new(), ctrl)
                    .expect_err("cancelled run must not return a result")
            });
            let h2 = s.spawn(|| p2.align(&c, &d).unwrap());
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(r1.is_interruption(), "typed interruption, got {r1:?}");
        assert!(matches!(r1, PipelineError::Cancelled { .. }), "{r1:?}");
        let (ref_score, _) = sw_local_score(&c, &d, &Scoring::paper());
        assert_eq!(r2.best_score, ref_score, "survivor must stay optimal");
        assert!((0.0..=1.0).contains(&r2.stats.pool_busy_ratio));
        // The pool is reusable after the torn-down run: a fresh run on
        // the same pool completes and reports bounded utilization.
        let (e, f) = edited_pair(23, 260, 29);
        let p3 = Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool));
        let r3 = p3.align(&e, &f).unwrap();
        let (ref3, _) = sw_local_score(&e, &f, &Scoring::paper());
        assert_eq!(r3.best_score, ref3);
        assert!((0.0..=1.0).contains(&r3.stats.pool_busy_ratio));
    }

    /// Satellite regression at N > 2: four supervised pipelines race on a
    /// two-lane pool and two of them are torn down mid-queue (their
    /// pinned strip runners die via `cancel_queued` at different
    /// diagonals). The shared accounting must not drift: every run's
    /// blended ratio stays in `[0, 1]`, the pool-level invariant
    /// `busy_permille <= 1000 * scopes` holds at quiescence (cancelled
    /// jobs never count as occupied lanes), survivors stay optimal, and
    /// the pool is clean for a follow-up run whose *delta* obeys the same
    /// invariant.
    #[test]
    fn shared_pool_n_way_teardown_does_not_drift_accounting() {
        use crate::supervise::RunControl;
        // The teardown is racy by nature: if every queued job was already
        // claimed by a worker when `cancel_queued` ran, nothing is dropped
        // unrun — legal, but not the scenario under test. Retry the batch
        // on a fresh pool (bounded) until the teardown actually drops
        // queued work; the accounting invariants must hold every attempt.
        let mut pool = Arc::new(WorkerPool::new(2));
        for attempt in 0..5u64 {
            let seed0 = 31 + 10 * attempt;
            let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                (0..4).map(|i| edited_pair(seed0 + i, 300, 29)).collect();
            let pipes: Vec<Pipeline> = (0..4)
                .map(|_| Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool)))
                .collect();
            // Runs 0 and 2 are cancelled mid-stage-1 at different
            // diagonals; runs 1 and 3 must survive untouched.
            let ctrls = [
                Some(RunControl::unlimited().with_cancel_after_diagonal(1)),
                None,
                Some(RunControl::unlimited().with_cancel_after_diagonal(3)),
                None,
            ];
            let results: Vec<Result<PipelineResult, PipelineError>> = std::thread::scope(|s| {
                let handles: Vec<_> = pipes
                    .iter()
                    .zip(&pairs)
                    .zip(&ctrls)
                    .map(|((p, (a, b)), ctrl)| {
                        s.spawn(move || match ctrl {
                            Some(c) => p.align_supervised(a, b, &mut Obs::new(), c),
                            None => p.align(a, b),
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok(res) => {
                        assert!(ctrls[i].is_none(), "run {i} should have been cancelled");
                        let (want, _) = sw_local_score(&pairs[i].0, &pairs[i].1, &Scoring::paper());
                        assert_eq!(res.best_score, want, "survivor {i} must stay optimal");
                        assert!(
                            (0.0..=1.0).contains(&res.stats.pool_busy_ratio),
                            "run {i} ratio {} escaped [0, 1]",
                            res.stats.pool_busy_ratio
                        );
                    }
                    Err(e) => {
                        assert!(ctrls[i].is_some(), "run {i} must not fail: {e}");
                        assert!(matches!(e, PipelineError::Cancelled { .. }), "run {i}: {e:?}");
                    }
                }
            }

            // Quiescent pool-level invariant: each scope contributes at
            // most 1000 permille, and torn-down scopes' cancelled jobs
            // contribute zero — any drift (double count, missed teardown
            // decrement) breaks one of these.
            let st = pool.stats();
            assert!(st.scopes > 0 && st.tasks > 0);
            assert!(
                st.busy_permille <= 1000 * st.scopes,
                "busy_permille {} exceeds 1000 * {} scopes",
                st.busy_permille,
                st.scopes
            );
            assert!((0.0..=1.0).contains(&st.busy_ratio), "pool ratio {}", st.busy_ratio);
            assert!(st.cancelled_tasks <= st.tasks, "cancelled cannot exceed spawned");
            if st.cancelled_tasks > 0 {
                break;
            }
            assert!(attempt < 4, "teardown never dropped a queued job in 5 attempts");
            pool = Arc::new(WorkerPool::new(2));
        }

        // Follow-up solo run on the same pool: its window's delta obeys
        // the same bound, so the blended attribution cannot go negative
        // or above full for later tenants either.
        let before = pool.stats();
        let (e, f) = edited_pair(39, 260, 29);
        let p5 = Pipeline::with_pool(PipelineConfig::for_tests(), Arc::clone(&pool));
        let r5 = p5.align(&e, &f).unwrap();
        let (want5, _) = sw_local_score(&e, &f, &Scoring::paper());
        assert_eq!(r5.best_score, want5);
        let after = pool.stats();
        let dscopes = after.scopes - before.scopes;
        let dbusy = after.busy_permille - before.busy_permille;
        assert!(dscopes > 0);
        assert!(dbusy <= 1000 * dscopes, "delta busy {dbusy} exceeds 1000 * {dscopes}");
        assert!((0.0..=1.0).contains(&r5.stats.pool_busy_ratio));
    }

    /// The stats report and the metrics registry are the same numbers:
    /// the registry is the source of truth, `PipelineStats` a projection.
    #[test]
    fn stats_are_a_projection_of_the_metrics_registry() {
        let (a, b) = edited_pair(13, 300, 29);
        let mut obs = Obs::new();
        let res =
            Pipeline::new(PipelineConfig::for_tests()).align_observed(&a, &b, &mut obs).unwrap();
        let st = &res.stats;
        assert_eq!(st.stage_cells[0], obs.metrics.get("stage1.cells"));
        assert_eq!(st.stage5_cells, obs.metrics.get("stage5.cells"));
        assert_eq!(st.special_rows as u64, obs.metrics.get("sra.special_rows"));
        assert_eq!(st.stage2_strips as u64, obs.metrics.get("stage2.strips"));
        assert_eq!(st.pool_handoffs, obs.metrics.get("pool.handoffs"));
        assert_eq!(st.binary_bytes as u64, obs.metrics.get("binary.bytes"));
        assert_eq!(st.total_seconds, obs.metrics.gauge("total.seconds"));
        assert_eq!(st.pool_busy_ratio, obs.metrics.gauge("pool.busy_ratio"));
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::config::{CheckpointPolicy, SraBackend};
    use seqio::generate::dna;
    use sw_core::full::sw_local_score;
    use sw_core::Scoring;

    /// A planted snapshot from a "crashed" run must be picked up
    /// automatically and removed after Stage 1 completes; the resumed run
    /// still produces the full optimal alignment.
    #[test]
    fn pipeline_resumes_from_planted_checkpoint() {
        // Writes storage frames: serialized with the fault-arming tests.
        let _guard = crate::storage::fault::test_guard();
        let a = dna(51, 400);
        let mut b = a.clone();
        for i in (5..b.len()).step_by(17) {
            b[i] = b"ACGT"[(i / 17) % 4];
        }
        let dir = std::env::temp_dir().join(format!("cudalign-pipe-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = PipelineConfig::for_tests();
        cfg.backend = SraBackend::Disk(dir.clone());
        cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 9 });

        // "Crashed" run: the observer writes combined snapshots itself;
        // the last one survives as stage1.ckpt alongside the row files.
        {
            let fp = cfg.job_fingerprint(a.len(), b.len());
            let mut rows = LineStore::new(&cfg.backend, cfg.sra_bytes, "special-row", fp).unwrap();
            let pool = WorkerPool::new(cfg.workers);
            let _ = stage1::run(
                &mut StageContext::new(&a, &b, &cfg, &pool),
                &mut rows,
                None,
                Some((dir.as_path(), 9)),
            );
            assert!(dir.join("stage1.ckpt").exists(), "snapshot persisted during the run");
            std::mem::forget(rows); // simulate the crash: files stay behind
        }

        let res = Pipeline::new(cfg).align(&a, &b).unwrap();
        let (ref_score, ref_end) = sw_local_score(&a, &b, &Scoring::paper());
        assert_eq!(res.best_score, ref_score);
        assert_eq!(res.end, ref_end);
        res.transcript.validate(&a[res.start.0..res.end.0], &b[res.start.1..res.end.1]).unwrap();
        assert!(
            !dir.join("stage1.ckpt").exists(),
            "snapshot must be cleared after a completed stage 1"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bug regression: on a resumed run the throughput accounting must
    /// cover only the recomputed work. `stage_cells[0]` used to count the
    /// full matrix while `stage_seconds[0]` covered only the resumed
    /// tail, inflating MCUPS; the skipped cells are now reported
    /// separately in `resumed_cells_skipped`.
    #[test]
    fn resumed_run_counts_only_recomputed_cells() {
        // Writes storage frames: serialized with the fault-arming tests.
        let _guard = crate::storage::fault::test_guard();
        let a = dna(54, 400);
        let mut b = a.clone();
        for i in (5..b.len()).step_by(17) {
            b[i] = b"ACGT"[(i / 17) % 4];
        }
        let dir = std::env::temp_dir().join(format!("cudalign-resume-acct-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = PipelineConfig::for_tests();
        cfg.backend = SraBackend::Disk(dir.clone());
        cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 9 });

        {
            let fp = cfg.job_fingerprint(a.len(), b.len());
            let mut rows = LineStore::new(&cfg.backend, cfg.sra_bytes, "special-row", fp).unwrap();
            let pool = WorkerPool::new(cfg.workers);
            let _ = stage1::run(
                &mut StageContext::new(&a, &b, &cfg, &pool),
                &mut rows,
                None,
                Some((dir.as_path(), 9)),
            );
            std::mem::forget(rows); // simulate the crash
        }

        let res = Pipeline::new(cfg).align(&a, &b).unwrap();
        let st = &res.stats;
        assert!(st.resumed_from_diagonal > 0, "run must actually resume");
        assert!(st.resumed_cells_skipped > 0, "skipped work must be reported");
        assert_eq!(
            st.stage_cells[0] + st.resumed_cells_skipped,
            (a.len() as u64) * (b.len() as u64),
            "recomputed + skipped cells must cover the whole matrix exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Without a planted snapshot the checkpoint policy is transparent.
    #[test]
    fn checkpointing_does_not_change_results() {
        let a = dna(52, 300);
        let b = dna(53, 300);
        let plain = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
        let dir = std::env::temp_dir().join(format!("cudalign-ckpt2-{}", std::process::id()));
        let mut cfg = PipelineConfig::for_tests();
        cfg.checkpoint = Some(CheckpointPolicy { dir: dir.clone(), every_diagonals: 5 });
        let ck = Pipeline::new(cfg).align(&a, &b).unwrap();
        assert_eq!(plain.best_score, ck.best_score);
        assert_eq!(plain.transcript.ops(), ck.transcript.ops());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
