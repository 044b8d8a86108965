//! Stage 1 — obtain the best score (Section IV-B).
//!
//! Runs the forward Smith-Waterman wavefront over the full DP matrix,
//! exactly as CUDAlign 1.0, with one modification: the horizontal bus of
//! selected block rows is flushed to the Special Rows Area as the blocks
//! complete (the "shifted bus" of Figure 5 — a special row is scattered
//! across an external diagonal and becomes whole only after the last
//! block of its row finishes).

use crate::obs::{Event, Obs};
use crate::pipeline::{StageContext, StageError};
use crate::sra::{self, LineStore, Partials};
use crate::storage;
use crate::supervise::RunControl;
use gpu_sim::wavefront::{self, RegionJob};
use gpu_sim::{BlockCoords, CellHE, CellHF, Mode, TileOutcome};
use std::ops::ControlFlow;
use sw_core::scoring::{Score, NEG_INF};

/// Outcome of Stage 1.
#[derive(Debug, Clone)]
pub struct Stage1Result {
    /// The optimal local score (0 when no positive alignment exists).
    pub best_score: Score,
    /// End point of the optimal alignment (valid when `best_score > 0`).
    pub end: (usize, usize),
    /// DP cells covered (`Cells_1` of Table VIII): `m * n` on a full run,
    /// pruned cells included.
    pub cells: u64,
    /// Of [`Stage1Result::cells`], the cells of pruned tiles, which no
    /// kernel computed (fresh runs without checkpoints only).
    pub pruned_cells: u64,
    /// Bytes written to the SRA.
    pub flushed_bytes: u64,
    /// Indices of the completed special rows.
    pub special_rows: Vec<usize>,
    /// The flush interval used, in block rows.
    pub flush_interval_blocks: usize,
    /// Estimated bus memory (the paper's `VRAM_1`).
    pub vram_bytes: u64,
    /// External diagonal this run actually resumed from (0 = fresh run or
    /// a stale snapshot that was ignored).
    pub resumed_from_diagonal: usize,
    /// Of [`Stage1Result::cells`] (which is cumulative across resumes),
    /// the cells already processed before the resumed snapshot — work this
    /// run *skipped*. Zero for a fresh run. Throughput accounting must use
    /// `cells - resumed_cells`, the work actually done here.
    pub resumed_cells: u64,
    /// Checkpoint snapshots that failed to persist during this run (the
    /// run continued; resumability degraded to the last good snapshot).
    pub checkpoint_failures: u64,
    /// Precision-ladder outcome counters for this stage's tiles.
    pub paths: gpu_sim::kernel::PathCounts,
    /// Query-profile cache hits during this stage.
    pub profile_hits: u64,
    /// Query-profile cache misses (profile bands built) during this stage.
    pub profile_misses: u64,
    /// Most finished blocks the strip engine held undelivered at once
    /// (`gpu_sim::StripStats::parked_peak`); 0 on one lane.
    pub parked_peak: usize,
}

struct Stage1Observer<'s, 'o> {
    rows: &'s mut LineStore<CellHF>,
    obs: &'s mut Obs<'o>,
    /// The run's supervision policy: the cancel-after-diagonal trigger
    /// fires through it so the cancel is stamped on the supervisor clock.
    ctrl: &'s RunControl,
    flush_every: usize,
    block_height: usize,
    m: usize,
    n: usize,
    /// Directory receiving combined checkpoints (engine state + in-flight
    /// special-row segments).
    ckpt_dir: Option<std::path::PathBuf>,
    /// Snapshots that failed to persist (counted, not fatal).
    ckpt_failures: u64,
    /// Total external diagonals in the grid (for progress ticks).
    total_diagonals: usize,
    /// Last completed-diagonal frontier seen by `on_block` — a change
    /// means every diagonal below the new frontier is complete.
    last_frontier: Option<usize>,
}

impl Stage1Observer<'_, '_> {
    fn is_special_block_row(&self, block: &BlockCoords) -> bool {
        let row = block.rows.1;
        // Candidates are full multiples of the block height (the paper:
        // only rows that are multiples of alpha*T can be special) strictly
        // inside the matrix, at the configured cadence.
        row > 0
            && row < self.m
            && row == (block.r + 1) * self.block_height
            && (block.r + 1).is_multiple_of(self.flush_every)
    }
}

impl gpu_sim::WavefrontObserver for Stage1Observer<'_, '_> {
    fn on_block(
        &mut self,
        block: &BlockCoords,
        _outcome: &TileOutcome,
        bottom: &[CellHF],
        _right: &[CellHE],
    ) -> ControlFlow<()> {
        // Every trigger and tick below reads the completed-diagonal
        // frontier, not `block.diagonal`: in the banded walk the diagonal
        // is not monotone (in diagonal order the two are equal).
        //
        // Simulated process kill (fault injection): abort the wavefront at
        // the armed external diagonal. `run` turns the aborted
        // result into a typed StageError::Interrupted — the torture tests
        // then resume from the last checkpoint like a restarted process.
        if let Some(k) = storage::fault::stage1_kill() {
            if block.frontier >= k {
                return ControlFlow::Break(());
            }
        }
        // Deterministic cancel trigger (`--cancel-after-diag`): cancel the
        // TOKEN instead of breaking, so the engine takes its unified
        // cancellation path — boundary checkpoint flush included.
        if let Some(k) = self.ctrl.cancel_after_diagonal() {
            if block.frontier >= k && !self.ctrl.is_cancelled() {
                self.ctrl.cancel();
            }
        }
        // Progress tick: a frontier change means every diagonal below the
        // new frontier is complete. `done` is absolute (a resumed run
        // starts ticking at the resumed diagonal).
        if self.last_frontier != Some(block.frontier) {
            if self.last_frontier.is_some() {
                self.obs.emit(Event::Diagonal {
                    stage: 1,
                    done: block.frontier,
                    total: self.total_diagonals,
                });
            }
            self.last_frontier = Some(block.frontier);
        }
        if !self.is_special_block_row(block) {
            return ControlFlow::Continue(());
        }
        let row = block.rows.1;
        if block.c == 0 {
            // First segment of this row: allocate (may fail on budget, in
            // which case the row is silently skipped) and write the
            // border column 0 cell.
            if self.rows.try_begin_line(row, 0, self.n + 1) {
                self.rows.put_segment(row, 0, [CellHF { h: 0, f: NEG_INF }]);
            }
        }
        // The store reports the segment that completes a row, whichever
        // run began it (a row restored from a checkpoint's partials too).
        match self.rows.put_segment(row, block.cols.0, bottom.iter().copied()) {
            sra::Put::Stored => self.obs.emit(Event::StorageFlush {
                store: "sra",
                index: row,
                bytes: (self.n as u64 + 1) * sra::CELL_BYTES,
            }),
            sra::Put::Dropped => self.obs.emit(Event::StorageDrop { store: "sra", index: row }),
            sra::Put::Ignored | sra::Put::Pending => {}
        }
        ControlFlow::Continue(())
    }

    /// Stage 1 reads no delivery order: its best is a total order, a
    /// special row is written by position and complete once its last
    /// block column lands (each row's blocks still arrive left to right),
    /// and its triggers and ticks read the frontier. Its checkpoints are
    /// cuts at band boundaries, which any schedule writes and resumes, so
    /// a checkpointed or resumed run on one lane takes the banded walk too.
    fn needs_diagonal_order(&self) -> bool {
        false
    }

    /// Stage 1 needs its best cell and, on the special rows, the cells an
    /// optimal path crosses; stage 2 matches crosspoints against the best
    /// score, which a cell understated by pruning cannot reach.
    fn allows_pruning(&self) -> bool {
        true
    }

    fn on_strip_event(&mut self, event: &gpu_sim::StripEvent) {
        // Strip-scheduler protocol events, forwarded to the trace: claims
        // (including steals) and per-strip publish progress. Delivered on
        // the caller thread in the order the coordination lock saw them.
        match *event {
            gpu_sim::StripEvent::Claimed { runner, strip, stolen } => {
                self.obs.emit(Event::StripSteal { stage: 1, worker: runner, strip, stolen });
            }
            gpu_sim::StripEvent::Published { runner, strip, rows_done, rows_total } => {
                self.obs.emit(Event::StripProgress {
                    stage: 1,
                    worker: runner,
                    strip,
                    rows_done,
                    rows_total,
                });
            }
        }
    }

    fn on_checkpoint(&mut self, state: &gpu_sim::wavefront::EngineState) {
        let Some(dir) = &self.ckpt_dir else { return };
        let bytes = encode_checkpoint(state, self.rows);
        // Checksummed envelope + tmp/rename replace: a crash mid-write
        // never corrupts the previous snapshot, and a torn or bit-flipped
        // snapshot is rejected on load instead of resuming from garbage.
        // A failed write is not fatal — the run continues with the last
        // good snapshot — but it is *counted* so the operator learns that
        // resumability is degraded.
        let path = dir.join("stage1.ckpt");
        let ok = storage::write_checksummed(&path, self.rows.fingerprint(), &bytes).is_ok();
        if !ok {
            self.ckpt_failures += 1;
        }
        self.obs.emit(Event::Checkpoint { diagonal: state.next_diagonal, ok });
    }
}

/// Serialize a combined Stage-1 checkpoint: the engine snapshot plus the
/// special rows still being assembled (their segments span `B` external
/// diagonals — the paper's Figure 5 — so a crash would otherwise lose
/// them).
pub fn encode_checkpoint(
    state: &gpu_sim::wavefront::EngineState,
    rows: &LineStore<CellHF>,
) -> Vec<u8> {
    let engine = state.encode();
    let partials = rows.encode_partials();
    let mut out = Vec::with_capacity(12 + engine.len() + partials.len());
    out.extend_from_slice(b"CKS1");
    out.extend_from_slice(&(engine.len() as u64).to_le_bytes());
    out.extend_from_slice(&engine);
    out.extend_from_slice(&partials);
    out
}

/// Parse a combined checkpoint back into `(engine state, in-flight
/// rows)`; `None` when either part is malformed.
pub fn decode_checkpoint(
    bytes: &[u8],
) -> Option<(gpu_sim::wavefront::EngineState, Partials<CellHF>)> {
    let rest = bytes.strip_prefix(b"CKS1")?;
    let (len_bytes, rest) = rest.split_at_checked(8)?;
    let engine_len = u64::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let (engine, partials) = rest.split_at_checked(engine_len)?;
    let state = gpu_sim::wavefront::EngineState::decode(engine)?;
    Some((state, Partials::decode(partials)?))
}

/// Load a combined checkpoint written by the Stage-1 observer: validate
/// the checksummed envelope (magic, job fingerprint, CRC32) and parse the
/// inner `CKS1` payload. Any failure — missing file, truncation, bit
/// flip, foreign fingerprint, malformed payload — yields `None`: starting
/// fresh is always correct, resuming from garbage never is.
pub fn load_checkpoint(
    dir: &std::path::Path,
    fingerprint: u64,
) -> Option<(gpu_sim::wavefront::EngineState, Partials<CellHF>)> {
    let bytes = storage::read_checksummed(&dir.join("stage1.ckpt"), fingerprint).ok()?;
    decode_checkpoint(&bytes)
}

/// Run Stage 1 on `cx`'s pool, with checkpoint/resume support (the
/// crash-resilience an 18-hour forward pass needs).
///
/// * `resume` — an [`gpu_sim::wavefront::EngineState`] captured by a previous run; the
///   wavefront continues from its cut. Special rows completed before
///   the checkpoint survive when `rows` was reopened from a disk backend
///   ([`LineStore::reopen`]); rows that were mid-flight at the checkpoint
///   complete when the caller restored the checkpoint's partials
///   ([`LineStore::restore_partials`]) and are otherwise not stored (the
///   pipeline tolerates any subset of special rows by design — fewer rows
///   only mean more Stage-2 work).
/// * `checkpoint` — `(directory, cadence in external diagonals)`;
///   combined snapshots (engine state + in-flight rows) land in
///   `<dir>/stage1.ckpt` atomically.
///
/// Per-external-diagonal [`Event::Diagonal`] ticks,
/// [`Event::Checkpoint`] outcomes, [`Event::StorageFlush`] records for
/// special rows the store completed (restored partials included) and
/// [`Event::StorageDrop`] records for rows whose disk write failed are
/// emitted through `cx.obs` from the caller thread (never from pool
/// workers). The control's cancel token is
/// threaded into the wavefront engine (both schedulers poll it
/// and beat its heartbeat), the cancel-after-diagonal trigger fires from
/// the observer, and an interrupted run surfaces as the typed
/// [`StageError`] for the winning cancel cause — with a boundary
/// checkpoint flushed first when checkpointing is on, so the
/// cancellation is always resumable.
pub fn run(
    cx: &mut StageContext<'_, '_>,
    rows: &mut LineStore<CellHF>,
    resume: Option<gpu_sim::wavefront::EngineState>,
    checkpoint: Option<(&std::path::Path, usize)>,
) -> Result<Stage1Result, StageError> {
    let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    let (m, n) = (s0.len(), s1.len());
    let block_height = cfg.grid1.block_height();
    let flush_every = sra::flush_interval(m, n, block_height, cfg.sra_bytes);
    let total_diagonals = cfg.grid1.layout(m, n).diagonals();

    let checkpoint_every = checkpoint.map(|(_, every)| every.max(1));
    let before = rows.bytes_used();
    // A snapshot from a different job (other sequences, scoring, mode or
    // grid — e.g. the user re-ran with different flags after a crash) is
    // ignored: starting fresh is always correct.
    let mut resume = resume;
    let job = RegionJob {
        a: s0,
        b: s1,
        scoring: cfg.scoring,
        mode: Mode::Local,
        grid: cfg.grid1,
        workers: cfg.workers,
        watch: None,
    };
    if let Some(st) = &resume {
        if !st.matches(&job) {
            resume = None;
        }
    }
    let resumed_from_diagonal = resume.as_ref().map_or(0, |st| st.next_diagonal);
    // EngineState.cells is cumulative across resumes; remember the skipped
    // share so throughput accounting can subtract it (work not redone).
    let resumed_cells = resume.as_ref().map_or(0, |st| st.cells);
    let mut observer = Stage1Observer {
        rows,
        obs,
        ctrl,
        flush_every,
        block_height,
        m,
        n,
        ckpt_dir: checkpoint.map(|(dir, _)| dir.to_path_buf()),
        ckpt_failures: 0,
        total_diagonals,
        last_frontier: None,
    };
    let opts =
        wavefront::Launch { resume, checkpoint_every, token: Some(ctrl.token()), plan: None };
    let res = wavefront::launch(pool, &job, &mut observer, opts)?;
    let checkpoint_failures = observer.ckpt_failures;

    if res.aborted {
        // The wavefront stopped early: either the cancel token fired
        // (request / deadline / stall — the engine flushed a boundary
        // checkpoint first) or the observer broke out (a simulated kill).
        // The partial best score MUST NOT leak out as a result — that
        // would be a silently wrong alignment. Surface the typed error
        // for the winning cause; with checkpointing on, the caller
        // resumes from the last snapshot. `diagonals_run` is how far this
        // launch moved the frontier past the resumed cut's, so the sum is
        // the absolute frontier on every schedule.
        let diagonal = resumed_from_diagonal + res.diagonals_run;
        ctrl.check(diagonal)?;
        return Err(StageError::Interrupted { diagonal });
    }
    obs.emit(Event::Diagonal { stage: 1, done: total_diagonals, total: total_diagonals });

    let (best_score, end) = match res.best {
        Some((s, i, j)) => (s, (i, j)),
        None => (0, (0, 0)),
    };
    Ok(Stage1Result {
        best_score,
        end,
        cells: res.cells,
        pruned_cells: res.pruned_cells,
        flushed_bytes: rows.bytes_used() - before,
        special_rows: rows.indices(),
        flush_interval_blocks: flush_every,
        vram_bytes: gpu_sim::DeviceModel::bus_bytes(m, n),
        resumed_from_diagonal,
        resumed_cells,
        checkpoint_failures,
        paths: res.paths,
        profile_hits: res.profile_hits,
        profile_misses: res.profile_misses,
        parked_peak: res.strip.map_or(0, |st| st.parked_peak),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, SraBackend};
    use gpu_sim::WorkerPool;
    use seqio::generate::{dna, edited_pair};
    use sw_core::full::sw_local_score;
    use sw_core::Scoring;

    #[test]
    fn finds_reference_best_and_flushes_rows() {
        let (a, b) = edited_pair(1, 200, 13);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None).unwrap();
        let (score, end) = sw_local_score(&a, &b, &cfg.scoring);
        assert_eq!(res.best_score, score);
        assert_eq!(res.end, end);
        assert_eq!(res.cells, (a.len() * b.len()) as u64);
        assert!(!res.special_rows.is_empty(), "expected special rows for a 200x200 problem");
        // All special rows are multiples of the block height, inside the matrix.
        for &r in &res.special_rows {
            assert_eq!(r % cfg.grid1.block_height(), 0);
            assert!(r > 0 && r < a.len());
        }
        assert_eq!(res.flushed_bytes, rows.bytes_used());
    }

    /// Stored special rows against the reference forward DP rows (H and
    /// F, LOCAL recurrence), border cell included. A fresh stage 1 prunes
    /// bands that cannot reach the best score, so its rows are at most the
    /// reference everywhere, and equal to it wherever a cell can still
    /// reach the best score (`ref + match * min(m - i, n - j) >= best`). A
    /// checkpointing run does not prune and stores the reference exactly.
    #[test]
    fn special_rows_match_reference_dp() {
        let (a, b) = edited_pair(2, 96, 13);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let sc = Scoring::paper();
        let (best, _) = sw_local_score(&a, &b, &sc);
        // A cadence no grid reaches: the directory is never written.
        let unused = std::env::temp_dir().join("cudalign-special-rows-unused");
        for checkpointed in [false, true] {
            let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
            let every = checkpointed.then_some((unused.as_path(), usize::MAX));
            let res =
                run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, every).unwrap();
            assert_eq!(res.paths.pruned > 0, !checkpointed, "pruned tiles, {checkpointed}");
            // Must `v`, stored at `(i, j)`, equal the reference `r`?
            let exact = |r: Score, i: usize, j: usize| {
                checkpointed || r + sc.match_score * (a.len() - i).min(b.len() - j) as Score >= best
            };
            let check = |v: Score, r: Score, i: usize, j: usize, what: &str| {
                if exact(r, i, j) {
                    assert_eq!(v, r, "row {i} col {j} {what}, checkpointed {checkpointed}");
                } else {
                    assert!(v <= r, "row {i} col {j} {what} above the reference");
                }
            };

            // Local-mode reference via a clamped row DP.
            let mut h_prev = vec![0 as Score; b.len() + 1];
            let mut h_cur = vec![0 as Score; b.len() + 1];
            let mut f = vec![NEG_INF; b.len() + 1];
            for i in 1..=a.len() {
                let mut e = NEG_INF;
                h_cur[0] = 0;
                for j in 1..=b.len() {
                    e = (e - sc.gap_ext).max(h_cur[j - 1] - sc.gap_first);
                    f[j] = (f[j] - sc.gap_ext).max(h_prev[j] - sc.gap_first);
                    let h = (h_prev[j - 1] + sc.subst(a[i - 1], b[j - 1])).max(e).max(f[j]).max(0);
                    h_cur[j] = h;
                }
                std::mem::swap(&mut h_prev, &mut h_cur);
                if let Some((origin, cells)) = rows.get(i).unwrap() {
                    assert_eq!(origin, 0);
                    for j in 0..=b.len() {
                        check(cells[j].h, h_prev[j], i, j, "H");
                        if j > 0 {
                            check(cells[j].f, f[j], i, j, "F");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let (a, b) = edited_pair(3, 120, 13);
        let mut cfg = PipelineConfig::for_tests();
        cfg.sra_bytes = 0;
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, 0, "row", 7).unwrap();
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None).unwrap();
        assert!(res.special_rows.is_empty());
        assert_eq!(res.flushed_bytes, 0);
        // Best score is unaffected.
        let (score, _) = sw_local_score(&a, &b, &cfg.scoring);
        assert_eq!(res.best_score, score);
    }

    #[test]
    fn unrelated_sequences_small_score() {
        let a = dna(10, 150);
        let b = dna(99, 150);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, None, None).unwrap();
        let (score, _) = sw_local_score(&a, &b, &cfg.scoring);
        assert_eq!(res.best_score, score);
        assert!(res.best_score < 30, "random sequences should align weakly");
    }
}

#[cfg(test)]
mod resume_tests {
    use super::*;
    use crate::config::{PipelineConfig, SraBackend};
    use gpu_sim::WorkerPool;
    use seqio::generate::dna;

    /// Simulated crash: run stage 1 capturing checkpoints, "crash",
    /// reopen the disk-backed SRA, resume from the snapshot, and end up
    /// with the same score/endpoint and a usable special-rows area — the
    /// full pipeline must then still produce the optimal alignment.
    #[test]
    fn stage1_crash_resume_end_to_end() {
        // Writes storage frames: serialized with the fault-arming tests.
        let _guard = crate::storage::fault::test_guard();
        let a = dna(41, 400);
        let mut b = a.clone();
        for i in (5..b.len()).step_by(31) {
            b[i] = b"ACGT"[(i / 31) % 4];
        }
        let dir = std::env::temp_dir().join(format!("cudalign-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = PipelineConfig::for_tests();
        cfg.backend = SraBackend::Disk(dir.clone());

        // Uninterrupted reference.
        let pool = WorkerPool::new(cfg.workers);
        let mut rows_ref = LineStore::new(&cfg.backend, cfg.sra_bytes, "ref-row", 7).unwrap();
        let full =
            run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows_ref, None, None).unwrap();

        // First run: let the observer write combined checkpoints to disk,
        // pretend to die after it finishes (discard the in-memory store).
        {
            let mut rows = LineStore::new(&cfg.backend, cfg.sra_bytes, "row", 7).unwrap();
            let _ = run(
                &mut StageContext::new(&a, &b, &cfg, &pool),
                &mut rows,
                None,
                Some((dir.as_path(), 7)),
            );
            // `rows` dropped here would delete its files — simulate a hard
            // crash instead by forgetting it.
            std::mem::forget(rows);
        }
        let (snap, partials) = load_checkpoint(&dir, 7).expect("combined checkpoint parses");
        assert!(snap.next_diagonal > 0);

        // Resume: reopen the surviving rows, restore in-flight segments,
        // continue from the snapshot.
        let mut rows = LineStore::<CellHF>::reopen(&cfg.backend, cfg.sra_bytes, "row", 7).unwrap();
        rows.restore_partials(partials);
        let survived_before = rows.len();
        let resumed =
            run(&mut StageContext::new(&a, &b, &cfg, &pool), &mut rows, Some(snap), None).unwrap();
        assert_eq!(resumed.best_score, full.best_score);
        assert_eq!(resumed.end, full.end);
        assert!(rows.len() >= survived_before, "resume must not lose reopened rows");
        // Restored partials mean the resumed store completes MORE rows
        // than the post-checkpoint tail alone could.
        assert!(rows.len() > 2, "in-flight rows must survive the crash: {}", rows.len());

        // The resumed SRA still drives the rest of the pipeline: rows that
        // were mid-flight at the snapshot are missing, which is allowed.
        let mut cols = LineStore::new(&cfg.backend, cfg.sca_bytes, "col", 7).unwrap();
        let s2r = crate::stage2::run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            resumed.best_score,
            resumed.end,
            &mut rows,
            &mut cols,
        )
        .unwrap();
        assert_eq!(s2r.chain.points().last().unwrap().score, full.best_score);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod stale_checkpoint_tests {
    use super::*;
    use crate::config::{PipelineConfig, SraBackend};
    use gpu_sim::WorkerPool;
    use seqio::generate::dna;

    /// A snapshot from a different scoring scheme must be ignored, not
    /// resumed (stale buses would corrupt the result) and not panic.
    #[test]
    fn stale_checkpoint_is_ignored() {
        // Writes storage frames: serialized with the fault-arming tests.
        let _guard = crate::storage::fault::test_guard();
        let a = dna(91, 200);
        let b = dna(92, 200);
        let dir = std::env::temp_dir().join(format!("cudalign-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        let _ = run(
            &mut StageContext::new(&a, &b, &cfg, &pool),
            &mut rows,
            None,
            Some((dir.as_path(), 5)),
        );
        let (snap, _) = load_checkpoint(&dir, 7).unwrap();

        // Same lengths and grid, different scoring: must run fresh.
        let mut cfg2 = PipelineConfig::for_tests();
        cfg2.scoring = sw_core::Scoring::new(2, -1, 4, 1);
        let mut rows2 = LineStore::new(&SraBackend::Memory, cfg2.sra_bytes, "row", 7).unwrap();
        let res = run(&mut StageContext::new(&a, &b, &cfg2, &pool), &mut rows2, Some(snap), None)
            .unwrap();
        assert_eq!(res.resumed_from_diagonal, 0, "stale snapshot must be ignored");
        let (ref_score, ref_end) = sw_core::full::sw_local_score(&a, &b, &cfg2.scoring);
        assert_eq!(res.best_score, ref_score);
        assert_eq!(res.end, ref_end);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Stage 1's `storage_flush` / `storage_drop` records follow the store's
/// own report of each row's fate.
#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::config::{PipelineConfig, SraBackend};
    use crate::obs::Recorder;
    use crate::storage::fault;
    use gpu_sim::WorkerPool;
    use seqio::generate::edited_pair;
    use std::time::Duration;

    /// The special-row indices of `storage_flush` and `storage_drop`.
    #[derive(Default)]
    struct RowFates {
        flushed: Vec<usize>,
        dropped: Vec<usize>,
    }

    impl Recorder for RowFates {
        fn record(&mut self, _t: Duration, ev: &Event) {
            match ev {
                Event::StorageFlush { store: "sra", index, .. } => self.flushed.push(*index),
                Event::StorageDrop { store: "sra", index } => self.dropped.push(*index),
                _ => {}
            }
        }
    }

    fn traced_run(
        a: &[u8],
        b: &[u8],
        cfg: &PipelineConfig,
        rows: &mut LineStore<CellHF>,
        resume: Option<gpu_sim::wavefront::EngineState>,
        checkpoint: Option<(&std::path::Path, usize)>,
    ) -> (Result<Stage1Result, StageError>, RowFates) {
        let pool = WorkerPool::new(cfg.workers);
        let mut fates = RowFates::default();
        let res = {
            let mut cx = StageContext::new(a, b, cfg, &pool);
            cx.obs.add_recorder(&mut fates);
            run(&mut cx, rows, resume, checkpoint)
        };
        (res, fates)
    }

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("cudalign-stage1-trace-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A row whose disk write hits ENOSPC is traced as dropped and not as
    /// flushed; every stored row is traced as flushed exactly once.
    #[test]
    fn enospc_row_is_traced_as_dropped_not_flushed() {
        let _guard = fault::test_guard();
        let dir = fresh_dir("enospc");
        let (a, b) = edited_pair(5, 300, 13);
        let mut cfg = PipelineConfig::for_tests();
        cfg.backend = SraBackend::Disk(dir.clone());
        let mut rows = LineStore::new(&cfg.backend, cfg.sra_bytes, "row", 7).unwrap();
        fault::arm_write(0, fault::WriteFault::Enospc, 1);
        let (res, fates) = traced_run(&a, &b, &cfg, &mut rows, None, None);
        fault::disarm_all();
        res.unwrap();
        assert_eq!(rows.stats().dropped_lines, 1);
        assert_eq!(fates.dropped.len(), 1, "one row dropped");
        assert!(!fates.flushed.contains(&fates.dropped[0]), "a dropped row is not flushed");
        assert!(!rows.indices().contains(&fates.dropped[0]));
        let mut flushed = fates.flushed.clone();
        flushed.sort_unstable();
        assert_eq!(flushed, rows.indices(), "each stored row flushed once");
        drop(rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rows in flight at a checkpoint, restored from its `SRAP` partials
    /// and completed after the resume, are traced as flushed.
    #[test]
    fn restored_partial_rows_are_traced_when_completed() {
        let _guard = fault::test_guard();
        let dir = fresh_dir("restored");
        let (a, b) = edited_pair(6, 300, 13);
        let mut cfg = PipelineConfig::for_tests();
        // Room for every row, so rows are in flight up to the last band.
        cfg.sra_bytes = 1 << 20;
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        // One snapshot, at diagonal 25 of the grid's 41: mid-run, with
        // rows in flight (a later one would find every row complete).
        let (res, _) = traced_run(&a, &b, &cfg, &mut rows, None, Some((dir.as_path(), 25)));
        res.unwrap();
        let all = rows.indices();

        // Resume from the last snapshot into a fresh store, as a crashed
        // run with a memory SRA would.
        let (snap, partials) = load_checkpoint(&dir, 7).expect("checkpoint written");
        let restored = partials.indices();
        assert!(!restored.is_empty(), "the snapshot must hold rows in flight");
        let mut rows = LineStore::new(&SraBackend::Memory, cfg.sra_bytes, "row", 7).unwrap();
        rows.restore_partials(partials);
        let (res, fates) = traced_run(&a, &b, &cfg, &mut rows, Some(snap), None);
        assert!(res.unwrap().resumed_from_diagonal > 0);
        for r in &restored {
            assert!(all.contains(r) && rows.indices().contains(r), "row {r} completes");
            assert!(fates.flushed.contains(r), "restored row {r} traced as flushed");
        }
        let mut flushed = fates.flushed.clone();
        flushed.sort_unstable();
        assert_eq!(flushed, rows.indices(), "each row stored after the resume flushed once");
        assert!(fates.dropped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
