//! Exact cone pruning in stage 1: a fresh run without checkpoints skips
//! the bands that cannot reach the best score, and its result must be the
//! one an unpruned run gives. A checkpointing run never prunes (nor does
//! a resumed one), so it is the unpruned reference here; its cadence is
//! set past every grid, so it never writes a snapshot. At the engine, a
//! pruning launch is checked against the diagonal loop, which never
//! prunes.

use cudalign::config::{CheckpointPolicy, SraBackend};
use cudalign::obs::{parse_json, validate_trace, Json, Obs};
use cudalign::{Pipeline, PipelineConfig, PipelineResult, RunControl, TraceWriter};
use gpu_sim::wavefront::{launch, Launch, RegionJob, RegionResult, WavefrontObserver};
use gpu_sim::{BlockCoords, CellHE, CellHF, GridSpec, Mode, StripPlan, TileOutcome, WorkerPool};
use proptest::prelude::*;
use seqio::generate::{dna, edited_pair};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use sw_core::full::sw_local_score;
use sw_core::scoring::Score;
use sw_core::Scoring;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cudalign-pruning-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `cfg` checkpointing into `dir` every `every` diagonals.
fn checkpointing(cfg: &PipelineConfig, dir: &Path, every: usize) -> PipelineConfig {
    let policy = CheckpointPolicy { dir: dir.to_path_buf(), every_diagonals: every };
    PipelineConfig { checkpoint: Some(policy), ..cfg.clone() }
}

/// Everything a pruned and an unpruned run must agree on.
fn assert_same(res: &PipelineResult, reference: &PipelineResult, tag: &str) {
    assert_eq!(res.best_score, reference.best_score, "{tag}: score");
    assert_eq!(res.start, reference.start, "{tag}: start");
    assert_eq!(res.end, reference.end, "{tag}: end");
    assert_eq!(res.transcript.ops(), reference.transcript.ops(), "{tag}: transcript");
    assert_eq!(res.binary.encode(), reference.binary.encode(), "{tag}: binary");
    assert_eq!(res.stats.crosspoints, reference.stats.crosspoints, "{tag}: crosspoints");
}

/// The score and end point are the reference DP's, and the transcript
/// rescores to the score.
fn assert_optimal(res: &PipelineResult, a: &[u8], b: &[u8], tag: &str) {
    let (score, end) = sw_local_score(a, b, &Scoring::paper());
    assert_eq!(res.best_score, score, "{tag}: score");
    assert_eq!(res.end, end, "{tag}: end point");
    let (sub_a, sub_b) = (&a[res.start.0..res.end.0], &b[res.start.1..res.end.1]);
    res.transcript.validate(sub_a, sub_b).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_eq!(res.transcript.score(sub_a, sub_b, &Scoring::paper()), score, "{tag}: rescored");
}

/// Every delivered block's geometry, outcome and borders, by block.
type Blocks = HashMap<(usize, usize), (BlockCoords, TileOutcome, Vec<CellHF>, Vec<CellHE>)>;

/// Records every delivered block. A pruning recorder is order-free and
/// allows pruning; the other needs diagonal order, so a launch with it
/// takes the diagonal loop, which never prunes.
struct Recorder {
    prune: bool,
    blocks: Blocks,
}

impl WavefrontObserver for Recorder {
    fn on_block(
        &mut self,
        b: &BlockCoords,
        out: &TileOutcome,
        bottom: &[CellHF],
        right: &[CellHE],
    ) -> ControlFlow<()> {
        let record = (*b, *out, bottom.to_vec(), right.to_vec());
        assert!(self.blocks.insert((b.r, b.c), record).is_none(), "({}, {}) twice", b.r, b.c);
        ControlFlow::Continue(())
    }

    fn needs_diagonal_order(&self) -> bool {
        !self.prune
    }

    fn allows_pruning(&self) -> bool {
        self.prune
    }
}

/// Launch `job` with a recorder; `plan` splits it into strips.
fn record(job: &RegionJob<'_>, prune: bool, plan: Option<StripPlan>) -> (RegionResult, Blocks) {
    let mut rec = Recorder { prune, blocks: HashMap::new() };
    let opts = Launch { plan, ..Launch::default() };
    let res = launch(&WorkerPool::new(job.workers), job, &mut rec, opts).expect("no worker panic");
    (res, rec.blocks)
}

/// Is `v`, stored where the unpruned run stored `r`, sound: at most `r`,
/// and equal to it when `r` plus the most the remaining steps can add
/// (`reach`) still reaches `best`?
fn sound(v: Score, r: Score, reach: Score, best: Score) -> bool {
    v == r || (v < r && r.saturating_add(reach) < best)
}

/// `(threads, alpha)` of the engine property's grids: 16- and 32-row
/// blocks, which run alone on the scalar kernel, and 64- and 72-row
/// blocks, which band.
const PRUNE_BLOCKS: [(usize, usize); 4] = [(8, 2), (8, 4), (16, 4), (12, 6)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A pruning local launch on homologous pairs, against the diagonal
    /// loop on the same job. The walk (one lane) and two strip runners
    /// prune the same bands, so their buses, block records and totals are
    /// byte-identical. Against the diagonal loop, the best cell is the
    /// same, and every stored H, E and F on the block borders and the
    /// buses is at most the diagonal loop's value, and equal to it
    /// wherever that value plus one match per remaining diagonal step
    /// (`ref + match * min(m - i, n - j)`) reaches the best score.
    #[test]
    fn pruned_borders_are_exact_where_the_best_is_reachable(
        seed in any::<u64>(),
        len in 200usize..700,
        snp_every in 7usize..40,
        shape in 0usize..4,
        blocks in 2usize..6,
    ) {
        let (a, b) = edited_pair(seed, len, snp_every);
        let (threads, alpha) = PRUNE_BLOCKS[shape];
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid: GridSpec { blocks, threads, alpha },
            workers: 1,
            watch: None,
        };
        let (walk, walked) = record(&job, true, None);
        prop_assume!(walk.paths.pruned > 0);
        prop_assert!(walk.strip.is_none(), "one lane walks");

        let plan = StripPlan::balanced(walk.layout.block_cols, 2);
        let (strips, striped) = record(&RegionJob { workers: 2, ..job }, true, Some(plan));
        prop_assert!(strips.strip.is_some(), "two strips");
        prop_assert_eq!(strips.best, walk.best, "strips: best");
        prop_assert_eq!(&strips.hbus, &walk.hbus, "strips: hbus");
        prop_assert_eq!(&strips.vbus, &walk.vbus, "strips: vbus");
        prop_assert_eq!(strips.cells, walk.cells, "strips: cells");
        prop_assert_eq!(strips.pruned_cells, walk.pruned_cells, "strips: pruned cells");
        prop_assert_eq!(strips.paths, walk.paths, "strips: paths");
        prop_assert_eq!(striped.len(), walked.len(), "strips: blocks");
        for (at, (_, out, bottom, right)) in &walked {
            let (_, o2, bottom2, right2) = &striped[at];
            prop_assert_eq!(out.path, o2.path, "strips: path {:?}", at);
            prop_assert_eq!(out.corner_out, o2.corner_out, "strips: corner {:?}", at);
            prop_assert_eq!(out.best, o2.best, "strips: best {:?}", at);
            prop_assert!(bottom == bottom2 && right == right2, "strips: borders {:?}", at);
        }

        let (diag, reference) = record(&job, false, None);
        prop_assert_eq!(diag.paths.pruned, 0, "the diagonal loop never prunes");
        prop_assert_eq!(walk.best, diag.best, "best against the diagonal loop");
        let (best, end) = sw_local_score(&a, &b, &job.scoring);
        prop_assert_eq!(walk.best, Some((best, end.0, end.1)), "best against the reference DP");
        prop_assert_eq!(walk.cells, diag.cells, "covered cells");

        let (m, n) = (a.len(), b.len());
        let step = job.scoring.match_score.max(job.scoring.mismatch_score);
        let reach = |i: usize, j: usize| step * (m - i).min(n - j) as Score;
        let check_hf = |v: &CellHF, r: &CellHF, i: usize, j: usize| {
            sound(v.h, r.h, reach(i, j), best) && sound(v.f, r.f, reach(i, j), best)
        };
        let check_he = |v: &CellHE, r: &CellHE, i: usize, j: usize| {
            sound(v.h, r.h, reach(i, j), best) && sound(v.e, r.e, reach(i, j), best)
        };
        prop_assert_eq!(reference.len(), walked.len(), "blocks");
        for (at, (coords, out, bottom, right)) in &walked {
            let (_, o2, bottom2, right2) = &reference[at];
            prop_assert!(out.corner_out <= o2.corner_out, "corner {:?}", at);
            let (rows, cols) = (coords.rows, coords.cols);
            for (t, (v, r)) in bottom.iter().zip(bottom2).enumerate() {
                let (i, j) = (rows.1, cols.0 + t);
                prop_assert!(check_hf(v, r, i, j), "({}, {}) of {:?}: {:?} vs {:?}", i, j, at, v, r);
            }
            for (t, (v, r)) in right.iter().zip(right2).enumerate() {
                let (i, j) = (rows.0 + t, cols.1);
                prop_assert!(check_he(v, r, i, j), "({}, {}) of {:?}: {:?} vs {:?}", i, j, at, v, r);
            }
        }
        for (t, (v, r)) in walk.hbus.iter().zip(&diag.hbus).enumerate() {
            prop_assert!(check_hf(v, r, m, t + 1), "hbus col {}: {:?} vs {:?}", t + 1, v, r);
        }
        for (t, (v, r)) in walk.vbus.iter().zip(&diag.vbus).enumerate() {
            prop_assert!(check_he(v, r, t + 1, n), "vbus row {}: {:?} vs {:?}", t + 1, v, r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Homologous pairs at one, two and eight workers: the pruned pipeline
    /// gives the unpruned pipeline's alignment, which is the reference
    /// DP's.
    #[test]
    fn pruned_pipeline_equals_unpruned(
        seed in any::<u64>(),
        len in 200usize..700,
        snp_every in 7usize..40,
    ) {
        let (a, b) = edited_pair(seed, len, snp_every);
        let dir = fresh_dir(&format!("prop-{seed:x}"));
        for workers in [1usize, 2, 8] {
            let cfg = PipelineConfig { workers, ..PipelineConfig::for_tests() };
            let unpruned = Pipeline::new(checkpointing(&cfg, &dir, usize::MAX)).align(&a, &b).unwrap();
            prop_assert_eq!(unpruned.stats.kernel_pruned_tiles, 0);
            let pruned = Pipeline::new(cfg).align(&a, &b).unwrap();
            let tag = format!("workers={workers}");
            assert_same(&pruned, &unpruned, &tag);
            assert_optimal(&pruned, &a, &b, &tag);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The pruned pipeline keeps the tie that ends at `end`, which lies in a
/// band whose bound is exactly the best score the blocks to its left
/// reached: the tie the strict comparison keeps. Stage 1's grid has
/// 64-row blocks in three 16-column block columns, so the first publish
/// batch of the last column is one band over all 128 rows.
fn assert_tie_kept(a: &[u8], b: &[u8], score: Score, end: (usize, usize)) {
    assert_eq!(sw_local_score(a, b, &Scoring::paper()), (score, end));
    let dir = fresh_dir(&format!("ties-{score}"));
    for workers in [1usize, 2] {
        let cfg = PipelineConfig {
            grid1: GridSpec { blocks: 3, threads: 4, alpha: 16 },
            workers,
            ..PipelineConfig::for_tests()
        };
        let unpruned = Pipeline::new(checkpointing(&cfg, &dir, usize::MAX)).align(a, b).unwrap();
        let pruned = Pipeline::new(cfg).align(a, b).unwrap();
        let tag = format!("workers={workers}");
        assert_eq!(pruned.end, end, "{tag}: the earlier tie wins");
        assert_same(&pruned, &unpruned, &tag);
        assert_optimal(&pruned, a, b, &tag);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two exact matches of equal score; the earlier end point (which
/// `better_endpoint` prefers) lies in the last column's band, whose
/// bound is the entry 0 plus the steps ([`assert_tie_kept`]).
///
/// * `a[1..=16] == b[33..=48]` ends at (16, 48), anti-diagonal 64, in the
///   last column's band. That band's borders are all 0, so its bound is
///   `0 + 1 * min(128, 16) = 16`.
/// * `a[35..=50] == b[7..=22]` ends at (50, 22), anti-diagonal 72, in the
///   middle column, left of the band's last block: the band's cone is 16.
///
/// Fillers never match (`A` rows against `C` columns) and both matches'
/// scores die out before the middle column ends.
#[test]
fn planted_ties_keep_the_earliest_end_point() {
    let q: &[u8] = b"GGTGTTGTGGGTTTGT";
    let q2: &[u8] = b"TTTGGTGGTTGGGTGG";
    let mut a = vec![b'A'; 128];
    a[..16].copy_from_slice(q);
    a[34..50].copy_from_slice(q2);
    let mut b = vec![b'C'; 48];
    b[6..22].copy_from_slice(q2);
    b[32..].copy_from_slice(q);
    assert_tie_kept(&a, &b, 16, (16, 48));
}

/// As [`planted_ties_keep_the_earliest_end_point`], but the earlier tie
/// enters the last column's band through its left border, so the band's
/// bound is a positive entry plus the steps.
///
/// * `a[1..=24] == b[25..=48]` ends at (24, 48), anti-diagonal 72. It
///   crosses column 32 with `H = 8`, the largest entry on the band's
///   borders, so the band's bound is `8 + 1 * min(128, 16) = 24`.
/// * `a[41..=64] == b[1..=24]` ends at (64, 24), anti-diagonal 88, in the
///   middle column's first block: the band's cone is 24.
#[test]
fn planted_ties_keep_a_tie_entering_through_the_border() {
    let q: &[u8] = b"GGTGTTGTGGGTTTGTTGGTGGTT";
    let q2: &[u8] = b"TTTGGTGGTTGGGTGGGTTGTGTG";
    let mut a = vec![b'A'; 128];
    a[..24].copy_from_slice(q);
    a[40..64].copy_from_slice(q2);
    let b = [q2, q].concat();
    assert_tie_kept(&a, &b, 24, (24, 48));
}

/// A checkpointed run cancelled mid-matrix and resumed (neither prunes)
/// finishes with the fresh pruned run's result.
#[test]
fn resumed_run_equals_the_pruned_fresh_run() {
    let (a, b) = edited_pair(61, 900, 19);
    for workers in [1usize, 2] {
        let cfg = PipelineConfig { workers, ..PipelineConfig::for_tests() };
        let fresh = Pipeline::new(cfg.clone()).align(&a, &b).unwrap();
        assert!(fresh.stats.kernel_pruned_tiles > 0, "workers={workers}: nothing pruned");

        let dir = fresh_dir(&format!("resume-w{workers}"));
        let cfg = PipelineConfig {
            backend: SraBackend::Disk(dir.clone()),
            ..checkpointing(&cfg, &dir, 4)
        };
        let ctrl = RunControl::unlimited().with_cancel_after_diagonal(40);
        let err = Pipeline::new(cfg.clone())
            .align_supervised(&a, &b, &mut Obs::new(), &ctrl)
            .expect_err("the cancel must interrupt stage 1");
        assert!(err.is_interruption(), "workers={workers}: {err}");
        let resumed = Pipeline::new(cfg).align(&a, &b).unwrap();
        let tag = format!("resumed, workers={workers}");
        assert!(resumed.stats.resumed_from_diagonal > 0, "{tag}: restarted from scratch");
        assert_eq!(resumed.stats.kernel_pruned_tiles, 0, "{tag}");
        assert_same(&resumed, &fresh, &tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Stage-1 `kernel` records and stats count pruned tiles: many on a
/// homologous pair, none on an unrelated one (its best score is too low
/// for any band to fall short of it), and never in stages 2-3.
#[test]
fn pruned_tiles_are_counted_on_homologous_pairs_only() {
    let homologous = edited_pair(5, 1_200, 17);
    let unrelated = (dna(6, 1_200), dna(9, 1_100));
    // 64-row blocks keep unrelated bands taller than its best score.
    let cfg = PipelineConfig {
        grid1: GridSpec { blocks: 4, threads: 16, alpha: 4 },
        ..PipelineConfig::for_tests()
    };
    for ((a, b), homolog) in [(homologous, true), (unrelated, false)] {
        let mut tracer = TraceWriter::new(Vec::new());
        let res = {
            let mut obs = Obs::new();
            obs.add_recorder(&mut tracer);
            Pipeline::new(cfg.clone()).align_observed(&a, &b, &mut obs).unwrap()
        };
        let text = String::from_utf8(tracer.finish().unwrap()).unwrap();
        validate_trace(&text).expect("schema-valid trace");
        let mut traced = [0u64; 3];
        for rec in text.lines().map(|l| parse_json(l).unwrap()) {
            if rec.get("ev").and_then(Json::str_val) == Some("kernel") {
                let stage = rec.get("stage").and_then(Json::num).unwrap() as usize;
                traced[stage - 1] += rec.get("pruned").and_then(Json::num).unwrap() as u64;
            }
        }
        let stats = &res.stats;
        assert_eq!(traced[0], stats.kernel_pruned_tiles, "trace and stats agree");
        assert_eq!(traced[1..], [0, 0], "stages 2-3 never prune");
        assert_eq!(stats.stage_cells[0], (a.len() * b.len()) as u64, "cells stay covered cells");
        if homolog {
            assert!(stats.kernel_pruned_tiles > 0, "homologous pair: nothing pruned");
            assert!(stats.pruned_cells > 0 && stats.pruned_cells < stats.stage_cells[0]);
        } else {
            assert_eq!(stats.kernel_pruned_tiles, 0, "unrelated pair: pruned tiles");
            assert_eq!(stats.pruned_cells, 0, "unrelated pair: pruned cells");
        }
        assert_eq!(stats.computed_cells(), stats.total_cells() - stats.pruned_cells);
    }
}
