//! MCUPS trajectory of the DP kernel: scalar reference vs the `i16`
//! striped rung vs the full precision ladder (`i8` first attempt), on the
//! same shapes the criterion microbenches use.
//!
//! ```text
//! cargo run --release -p cudalign-bench --bin mcups [-- --quick] [--out PATH] [--check-scaling]
//!
//! --quick          shrink shapes and the per-case time budget (CI smoke)
//! --out PATH       where to write the JSON report (default BENCH_kernel.json)
//! --check-scaling  exit non-zero if (a) the wavefront sweep point at
//!                  workers = min(4, host CPUs) is slower than workers=1
//!                  (skipped, with a note, on hosts without at least 2
//!                  CPUs), (b) the i8 ladder rung is slower than the i16
//!                  rung on the local rowdp shape while no i8 fallback
//!                  occurred, (c) the local i16 rung runs below 0.7x
//!                  the global i16 rung on the rowdp shape (the cost of
//!                  local best-endpoint tracking), or (d) the ladder entry
//!                  runs below 0.9x the scalar kernel on the 16x16 or
//!                  32x32 global `smalltile` case, (e) the one-strip
//!                  `band` plan at `batch_rows` 4 runs below 1.0x the
//!                  same plan at `batch_rows` 1, or (f) cone pruning
//!                  skips no tile of the untimed `prune` case's
//!                  homologous region or any tile of its unrelated one
//!                  (a count, not a timing)
//! ```
//!
//! Each case is timed by repeating the whole computation until a minimum
//! wall-clock budget is spent, so short cases amortize setup noise. The
//! report is newline-stable hand-rolled JSON (the workspace excludes
//! serde_json) with one entry per (bench, shape, entry, workers) tuple.
//!
//! # Report schema (version 3)
//!
//! Top level: `schema` (integer, currently 3), `host_parallelism`,
//! `quick`, `wavefront_w2_over_w1` (the `wavefront` sweep's MCUPS at two
//! workers over one: the host's measured two-thread scaling, banded on
//! both sides), `entries`. Each entry carries `entry` — the entry point the
//! case called (`scalar`, `i16`, `ladder`, or `engine` for a wavefront
//! region) — `path`, the rung the case actually committed on, and
//! `lanes`, that rung's SIMD width (1 scalar, 16 for `i16`, 32 for
//! `i8`); wavefront entries add `profile_hits`/`profile_misses` from
//! the engine's query-profile cache. When the `--out` file already exists,
//! its entries are carried over unless this run re-measured the same
//! tuple; a file of another schema is refused (delete it and regenerate)
//! so the report never mixes entry layouts.

use gpu_sim::kernel::{
    compute, global_borders, local_borders, CellHE, CellHF, GlobalOrigin, KernelPath, PathCounts,
    Rung, Tile, TileOutcome,
};
use gpu_sim::wavefront::{
    launch, run_pooled, BlockCoords, Launch, NoObserver, RegionJob, WavefrontObserver,
};
use gpu_sim::{striped, GridSpec, Mode, StripPlan, WorkerPool};
use std::io::Write;
use std::ops::ControlFlow;
use std::time::Instant;
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

/// Schema version of the JSON report. Bump when entry fields change.
const SCHEMA: u64 = 3;

/// Side lengths of the square `smalltile` cases.
const SMALLTILE_SIDES: [usize; 3] = [16, 32, 64];

/// Least ladder/scalar MCUPS ratio `--check-scaling` accepts on the
/// 16x16 and 32x32 global `smalltile` cases. A striped rung runs at
/// 0.2-0.7x scalar on these tiles, so the ladder must commit them scalar
/// (`kernel::MIN_LADDER_ROWS`).
const SMALLTILE_FLOOR: f64 = 0.9;

/// `(strips, batch_rows)` of the `band` case's plans: one strip (one
/// runner, the calling thread) at four publish-batch heights, and two
/// strips at one and four. A strip runner computes each batch of a block
/// column as one kernel call, so `batch_rows` is the band height in
/// blocks; `batch_rows = 1` is one block per call.
const BAND_PLANS: [(usize, usize); 6] = [(1, 1), (1, 2), (1, 4), (1, 8), (2, 1), (2, 4)];

/// Least one-strip `batch_rows` 4 / `batch_rows` 1 MCUPS ratio
/// `--check-scaling` accepts on the `band` case: banding must not cost.
const BAND_FLOOR: f64 = 1.0;

/// Least local/global i16 MCUPS ratio `--check-scaling` accepts on the
/// rowdp shape. With per-cell argmax tracking the ratio was 0.39-0.46;
/// the per-column gate brings it to ~0.9.
const LOCAL_TRACKING_FLOOR: f64 = 0.7;

fn dna(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 33) as usize & 3]
        })
        .collect()
}

struct Entry {
    bench: &'static str,
    shape: String,
    /// Entry point the case called: `scalar`, `i16` or `ladder` for tile
    /// cases ([`entry`]), `engine` for wavefront regions.
    entry: &'static str,
    /// Observed kernel-path label ("scalar", "striped8", "striped8_fb16",
    /// "striped16", "fallback").
    path: &'static str,
    lanes: usize,
    workers: usize,
    cells: u64,
    seconds: f64,
    mcups: f64,
    /// Query-profile cache traffic (wavefront entries only).
    profile: Option<(u64, u64)>,
    /// Throughput against the first entry point of the same tile case:
    /// the median over rounds of the ratio between the two slices of one
    /// round, so a slow stretch of the host cancels out (1.0 for the
    /// first entry point itself and for wavefront cases). `smallblock`
    /// cases pair each worker count with one lane the same way.
    vs_first: f64,
}

/// The `entry` label a tile case on `rung` reports.
fn entry(rung: Rung) -> &'static str {
    match rung {
        Rung::Scalar => "scalar",
        Rung::I16 => "i16",
        Rung::Auto | Rung::I8 => "ladder",
    }
}

/// Repeat `f` until `budget` seconds have elapsed (at least twice after
/// one warm-up call), and return (cells processed, seconds).
fn time_case(cells_per_iter: u64, budget: f64, mut f: impl FnMut() -> i32) -> (u64, f64) {
    let mut sink = f(); // warm-up, also keeps the work observable
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        sink = sink.wrapping_add(f());
        iters += 1;
        if iters >= 2 && start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    std::hint::black_box(sink);
    (cells_per_iter * iters, start.elapsed().as_secs_f64())
}

/// `w` columns of back-to-back copies of `a`, each with ~2 % of its
/// bases substituted: a local tile over `(a, homolog(a, w))` scores past
/// the i8 window within its first ~100 columns and escalates to i16.
fn homolog(a: &[u8], w: usize) -> Vec<u8> {
    let noise = dna(5, w);
    let mut x = 7u64;
    (0..w)
        .map(|j| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (x >> 33).is_multiple_of(50) {
                noise[j]
            } else {
                a[j % a.len()]
            }
        })
        .collect()
}

/// Time one tile on each of `rungs` and push one entry per rung. The
/// budget is cut into `rounds` rounds of one slice per rung, and each
/// rung reports its median slice plus its paired ratio to the first rung
/// ([`Entry::vs_first`]), so a comparison between two rungs is not
/// skewed by a fast or slow stretch of the host that only one of them
/// ran in. `suffix` tags the shape (e.g. `_hom` for a homologous
/// pair).
#[allow(clippy::too_many_arguments)]
fn tile_case(
    bench: &'static str,
    suffix: &str,
    a: &[u8],
    b: &[u8],
    local: bool,
    rungs: &[Rung],
    rounds: usize,
    budget: f64,
    entries: &mut Vec<Entry>,
) {
    let (h, w) = (a.len(), b.len());
    let sc = Scoring::paper();
    let (top0, left0, corner) = if local {
        local_borders(h, w)
    } else {
        global_borders(h, w, &sc, GlobalOrigin::forward(EdgeState::Diagonal))
    };
    let (mut top, mut left) = (top0.clone(), left0.clone());
    let tile = Tile { local, corner, ..Tile::new(a, b, &sc) };
    // Per rung: every slice's (cells, seconds) and the rung it ran on.
    let mut slices = vec![Vec::with_capacity(rounds); rungs.len()];
    let mut seen = vec![KernelPath::Scalar; rungs.len()];
    for _ in 0..rounds {
        for (k, &rung) in rungs.iter().enumerate() {
            let mut seen_path = KernelPath::Scalar;
            let (cells, seconds) = time_case((h * w) as u64, budget / rounds as f64, || {
                // Reset the borders in place: allocating them per call
                // would dominate the smallest tiles.
                top.copy_from_slice(&top0);
                left.copy_from_slice(&left0);
                let out = compute(
                    &tile,
                    rung,
                    &mut top,
                    &mut left,
                    &mut striped::ProfileCache::new(),
                    &[],
                    &mut [],
                );
                seen_path = out.path;
                out.corner_out.wrapping_add(out.best.map_or(0, |(s, _, _)| s))
            });
            slices[k].push((cells, seconds));
            seen[k] = seen_path;
        }
    }
    let rate = |(cells, seconds): (u64, f64)| cells as f64 / seconds;
    let first: Vec<f64> = slices[0].iter().map(|&x| rate(x)).collect();
    let mode = if local { "local" } else { "global" };
    for ((&rung, runs), seen_path) in rungs.iter().zip(slices).zip(seen) {
        let mut ratios: Vec<f64> = runs.iter().zip(&first).map(|(&x, f)| rate(x) / f).collect();
        ratios.sort_by(f64::total_cmp);
        let vs_first = ratios[ratios.len() / 2];
        let (cells, seconds) = median_slice(runs);
        match rung {
            Rung::I16 if seen_path != KernelPath::Striped16 => {
                eprintln!("mcups: warning: {bench} {h}x{w} i16 case ran on {seen_path:?}");
            }
            Rung::Auto if seen_path == KernelPath::StripedFallback => {
                eprintln!("mcups: warning: {bench} {h}x{w} ladder case fell back to scalar");
            }
            _ => {}
        }
        entries.push(Entry {
            bench,
            shape: format!("{mode}_{h}x{w}{suffix}"),
            entry: entry(rung),
            path: seen_path.label(),
            lanes: seen_path.lanes(),
            workers: 1,
            cells,
            seconds,
            mcups: cells as f64 / seconds / 1e6,
            profile: None,
            vs_first,
        });
    }
}

fn wavefront_case(m: usize, n: usize, workers: usize, budget: f64, entries: &mut Vec<Entry>) {
    let a = dna(5, m);
    let b = dna(6, n);
    let grid = GridSpec { blocks: 16, threads: 16, alpha: 4 };
    let layout = grid.layout(m, n);
    let (min_h, min_w) = layout.min_tile_dims();
    if min_h < striped::LANES || min_w < striped::LANES {
        eprintln!(
            "mcups: warning: wavefront {m}x{n} has {min_h}x{min_w} tiles; \
             some will take the scalar path"
        );
    }
    let pool = WorkerPool::new(workers);
    let job = RegionJob {
        a: &a,
        b: &b,
        scoring: Scoring::paper(),
        mode: Mode::Local,
        grid,
        workers,
        watch: None,
    };
    let mut paths = PathCounts::default();
    let mut profile = (0u64, 0u64);
    let (cells, seconds) = time_case((m * n) as u64, budget, || {
        let res = run_pooled(&pool, &job, &mut NoObserver).expect("no worker panic");
        paths = res.paths;
        profile = (res.profile_hits, res.profile_misses);
        res.best.map_or(0, |(s, _, _)| s)
    });
    if paths.fallback > 0 {
        eprintln!("mcups: warning: wavefront run had {} scalar fallbacks", paths.fallback);
    }
    if paths.striped_total() == 0 {
        eprintln!("mcups: warning: wavefront run engaged no striped tiles");
    }
    // The dominant path label: i8 commits when most tiles ran it.
    let path = if paths.striped8 >= paths.striped8_fb16 + paths.striped16 {
        "striped8"
    } else {
        "striped16"
    };
    entries.push(Entry {
        bench: "wavefront",
        shape: format!("local_{m}x{n}"),
        entry: "engine",
        path,
        lanes: if path == "striped8" { 32 } else { 16 },
        workers,
        cells,
        seconds,
        mcups: cells as f64 / seconds / 1e6,
        profile: Some(profile),
        vs_first: 1.0,
    });
}

/// The regions of the `smallblock` cases, in stage 2's transposed view
/// (rows = sequence columns swept, columns = the strip's height): a strip
/// of a scaled `chromosome` run (~256 rows, swept ~1.5 strip heights),
/// and a 1024-row strip swept the `4h` columns stage 2 expects.
const SMALLBLOCK_REGIONS: [(usize, usize); 2] = [(384, 256), (4096, 1024)];

/// `threads` of the `smallblock` grids `{60, threads, 2}`:
/// `repro_config`'s stage-2/3 grid (16-row blocks) and three with 32-,
/// 64- and 128-row blocks. Both regions are at most `60 * 2 * threads`
/// wide, so the blocks are square (but for 16-row blocks on the wide
/// region, whose 60 columns are 17 wide).
const SMALLBLOCK_THREADS: [usize; 4] = [8, 16, 32, 64];

/// The rung most of a run's tiles committed on.
fn dominant_path(p: &PathCounts) -> KernelPath {
    [
        (p.striped8, KernelPath::Striped8),
        (p.striped8_fb16, KernelPath::Striped8Fallback16),
        (p.striped16, KernelPath::Striped16),
        (p.fallback, KernelPath::StripedFallback),
        (p.scalar, KernelPath::Scalar),
    ]
    .into_iter()
    .max_by_key(|&(n, _)| n)
    .map_or(KernelPath::Scalar, |(_, path)| path)
}

/// An `m x n` global region of homologous sequences on `grid`, on one
/// lane and on two strip runners: what a stage-2 strip costs either way.
/// The two worker counts are timed in interleaved slices, as in
/// [`tile_case`].
fn smallblock_case(
    (m, n): (usize, usize),
    grid: GridSpec,
    rounds: usize,
    budget: f64,
    entries: &mut Vec<Entry>,
) {
    let a = dna(5, m);
    let b = homolog(&a, n);
    let layout = grid.layout(m, n);
    let workers = [1usize, 2];
    let pools = workers.map(WorkerPool::new);
    let mut slices = [Vec::new(), Vec::new()];
    let mut paths = PathCounts::default();
    for _ in 0..rounds {
        for (k, (&w, pool)) in workers.iter().zip(&pools).enumerate() {
            let job = RegionJob {
                a: &a,
                b: &b,
                scoring: Scoring::paper(),
                mode: Mode::global(EdgeState::Diagonal),
                grid,
                workers: w,
                watch: None,
            };
            slices[k].push(time_case((m * n) as u64, budget / rounds as f64, || {
                let res = run_pooled(pool, &job, &mut NoObserver).expect("no worker panic");
                paths = res.paths;
                res.hbus[n - 1].h
            }));
        }
    }
    let path = dominant_path(&paths);
    let rate = |&(cells, seconds): &(u64, f64)| cells as f64 / seconds;
    let one_lane: Vec<f64> = slices[0].iter().map(rate).collect();
    for (w, runs) in workers.into_iter().zip(slices) {
        let mut ratios: Vec<f64> =
            runs.iter().map(rate).zip(&one_lane).map(|(r, f)| r / f).collect();
        ratios.sort_by(f64::total_cmp);
        let (cells, seconds) = median_slice(runs);
        entries.push(Entry {
            bench: "smallblock",
            shape: format!("global_{m}x{n}_b{}x{}", layout.block_height, n / layout.block_cols),
            entry: "engine",
            path: path.label(),
            lanes: path.lanes(),
            workers: w,
            cells,
            seconds,
            mcups: cells as f64 / seconds / 1e6,
            profile: None,
            vs_first: ratios[ratios.len() / 2],
        });
    }
}

/// A local `m x n` region on the stage-1 block shape (256-row blocks),
/// run on explicit strip plans ([`BAND_PLANS`]) in interleaved rounds:
/// MCUPS against band height inside the engine. Each entry's paired
/// ratio is against the first plan (one strip, one block per call).
fn band_case(m: usize, n: usize, rounds: usize, budget: f64, entries: &mut Vec<Entry>) {
    let a = dna(5, m);
    let b = dna(6, n);
    let grid = GridSpec { blocks: 16, threads: 64, alpha: 4 };
    let layout = grid.layout(m, n);
    let bc = layout.block_cols;
    let pools = [WorkerPool::new(1), WorkerPool::new(2)];
    let mut slices = vec![Vec::new(); BAND_PLANS.len()];
    let mut profile = vec![(0u64, 0u64); BAND_PLANS.len()];
    let mut paths = PathCounts::default();
    for _ in 0..rounds {
        for (k, &(strips, batch_rows)) in BAND_PLANS.iter().enumerate() {
            let bounds = if strips == 1 { vec![0, bc] } else { vec![0, bc / 2, bc] };
            let plan = StripPlan { bounds, batch_rows };
            let job = RegionJob {
                a: &a,
                b: &b,
                scoring: Scoring::paper(),
                mode: Mode::Local,
                grid,
                workers: strips,
                watch: None,
            };
            let pool = &pools[strips - 1];
            slices[k].push(time_case((m * n) as u64, budget / rounds as f64, || {
                let opts = Launch { plan: Some(plan.clone()), ..Launch::default() };
                let res = launch(pool, &job, &mut NoObserver, opts).expect("no worker panic");
                paths = res.paths;
                profile[k] = (res.profile_hits, res.profile_misses);
                res.best.map_or(0, |(s, _, _)| s)
            }));
        }
    }
    let path = dominant_path(&paths);
    let rate = |&(cells, seconds): &(u64, f64)| cells as f64 / seconds;
    let first: Vec<f64> = slices[0].iter().map(rate).collect();
    for (k, runs) in slices.into_iter().enumerate() {
        let (strips, batch_rows) = BAND_PLANS[k];
        let mut ratios: Vec<f64> = runs.iter().map(rate).zip(&first).map(|(r, f)| r / f).collect();
        ratios.sort_by(f64::total_cmp);
        let (cells, seconds) = median_slice(runs);
        entries.push(Entry {
            bench: "band",
            shape: format!("local_{m}x{n}_b{}x{}_batch{batch_rows}", layout.block_height, n / bc),
            entry: "engine",
            path: path.label(),
            lanes: path.lanes(),
            workers: strips,
            cells,
            seconds,
            mcups: cells as f64 / seconds / 1e6,
            profile: Some(profile[k]),
            vs_first: ratios[ratios.len() / 2],
        });
    }
}

/// An order-free observer that allows pruning, as stage 1's does.
struct Pruning;

impl WavefrontObserver for Pruning {
    fn on_block(
        &mut self,
        _: &BlockCoords,
        _: &TileOutcome,
        _: &[CellHF],
        _: &[CellHE],
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    fn needs_diagonal_order(&self) -> bool {
        false
    }

    fn allows_pruning(&self) -> bool {
        true
    }
}

/// Tiles pruned on a local region of the stage-1 block shape (256-row
/// blocks), walked once on one lane, for a homologous pair (`a` against
/// its first `n` bases, ~2 % substituted, so the alignment ends a quarter
/// of the way down) and an unrelated one: `(homologous, unrelated)`.
/// Bands right of the first block column below the first publish batch
/// cannot reach the homologous pair's best score; the unrelated pair's
/// best (~15) is below every bound. A count, so it does not depend on
/// timing.
fn prune_counts(m: usize, n: usize) -> (u64, u64) {
    let a = dna(9, m);
    let grid = GridSpec { blocks: 16, threads: 64, alpha: 4 };
    let pool = WorkerPool::new(1);
    let pruned = |b: &[u8]| {
        let job = RegionJob {
            a: &a,
            b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid,
            workers: 1,
            watch: None,
        };
        launch(&pool, &job, &mut Pruning, Launch::default()).expect("no worker panic").paths.pruned
    };
    (pruned(&homolog(&a[..n], n)), pruned(&dna(6, n)))
}

/// The slice of median throughput among `(cells, seconds)` slices.
fn median_slice(mut runs: Vec<(u64, f64)>) -> (u64, f64) {
    runs.sort_by(|x, y| (x.0 as f64 / x.1).total_cmp(&(y.0 as f64 / y.1)));
    runs[runs.len() / 2]
}

/// CPUs the host exposes; scaling claims are only meaningful when > 1.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn entry_json(e: &Entry) -> String {
    let mut s = format!(
        "{{\"bench\": \"{}\", \"shape\": \"{}\", \"entry\": \"{}\", \"path\": \"{}\", \
         \"lanes\": {}, \"workers\": {}, \"cells\": {}, \"seconds\": {:.6}, \"mcups\": {:.1}",
        e.bench, e.shape, e.entry, e.path, e.lanes, e.workers, e.cells, e.seconds, e.mcups,
    );
    if let Some((hits, misses)) = e.profile {
        s.push_str(&format!(", \"profile_hits\": {hits}, \"profile_misses\": {misses}"));
    }
    s.push('}');
    s
}

fn to_json(quick: bool, entries: &[Entry], carried: &[String]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {SCHEMA},\n"));
    s.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    let wavefront = |w: usize| {
        entries.iter().find(|e| e.bench == "wavefront" && e.workers == w).map(|e| e.mcups)
    };
    if let (Some(w1), Some(w2)) = (wavefront(1), wavefront(2)) {
        s.push_str(&format!("  \"wavefront_w2_over_w1\": {:.3},\n", w2 / w1));
    }
    s.push_str("  \"entries\": [\n");
    let total = entries.len() + carried.len();
    for (i, line) in entries.iter().map(entry_json).chain(carried.iter().cloned()).enumerate() {
        s.push_str(&format!("    {line}{}\n", if i + 1 < total { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pull a `"key": "value"` string field out of one raw entry line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    Some(&rest[..rest.find('"')?])
}

/// Pull a `"key": 123` numeric field out of one raw entry line.
fn field_num<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest.find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')?;
    Some(&rest[..end])
}

/// Identity of one measurement within the report.
fn entry_key(line: &str) -> Option<String> {
    Some(format!(
        "{}|{}|{}|{}",
        field_str(line, "bench")?,
        field_str(line, "shape")?,
        field_str(line, "entry")?,
        field_num(line, "workers")?,
    ))
}

/// Read the existing report (if any) and return the raw entry lines this
/// run did not re-measure. A file with a different schema version is
/// refused outright: carrying its entries over would mix layouts.
fn carry_over(out_path: &str, fresh: &[Entry]) -> Vec<String> {
    let Ok(old) = std::fs::read_to_string(out_path) else {
        return Vec::new();
    };
    let schema_marker = format!("\"schema\": {SCHEMA}");
    if !old.contains(&schema_marker) {
        eprintln!(
            "mcups: {out_path} is not a schema-{SCHEMA} report; refusing to merge. \
             Delete it and rerun to regenerate from scratch."
        );
        std::process::exit(1);
    }
    let fresh_keys: Vec<String> = fresh
        .iter()
        .map(|e| format!("{}|{}|{}|{}", e.bench, e.shape, e.entry, e.workers))
        .collect();
    old.lines()
        .filter(|l| l.trim_start().starts_with("{\"bench\""))
        .filter_map(|l| {
            let line = l.trim().trim_end_matches(',').to_string();
            let key = entry_key(&line)?;
            (!fresh_keys.contains(&key)).then_some(line)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: mcups [--quick] [--out PATH] [--check-scaling]");
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let check_scaling = args.iter().any(|a| a == "--check-scaling");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());
    let budget = if quick { 0.05 } else { 0.5 };

    let mut entries = Vec::new();
    // The rowdp shapes from benches/kernel.rs: one tall tile. The global
    // variant's deep borders exceed the i8 window (the ladder escalates
    // immediately); the local variant is where the i8 rung commits.
    let rungs = [Rung::Scalar, Rung::I16, Rung::Auto];
    let (rh, rw) = if quick { (256, 1024) } else { (1024, 4096) };
    let (a, b) = (dna(3, rh), dna(4, rw));
    for local in [false, true] {
        tile_case("rowdp", "", &a, &b, local, &rungs, 1, budget, &mut entries);
    }
    // The tile shapes from benches/kernel.rs, both modes, all three rungs.
    let shapes: &[(usize, usize)] =
        if quick { &[(128, 128), (128, 512)] } else { &[(256, 256), (256, 4096)] };
    for &(h, w) in shapes {
        let (a, b) = (dna(3, h), dna(4, w));
        for local in [false, true] {
            tile_case("tile", "", &a, &b, local, &rungs, 1, budget, &mut entries);
        }
    }
    // A homologous local tile: the ladder's i8 attempt overflows and the
    // tile commits on i16 (`striped8_fb16`), so the gap to the i16 entry
    // is what the abandoned i8 attempt costs.
    let (hh, hw) = shapes[shapes.len() - 1];
    let a = dna(3, hh);
    let b = homolog(&a, hw);
    tile_case("homolog", "", &a, &b, true, &rungs, 1, budget, &mut entries);
    // Tiles the size of scaled stage-2/3 blocks, where the ladder's fixed
    // costs decide (`kernel::MIN_LADDER_ROWS`): both modes, unrelated and
    // homologous pairs, every entry point. One call is well under a
    // microsecond, so the budget is cut into many short interleaved
    // slices; `--check-scaling` compares two of these medians.
    let small_budget = budget.max(0.2);
    for side in SMALLTILE_SIDES {
        let a = dna(3, side);
        for (suffix, b) in [("", dna(4, side)), ("_hom", homolog(&a, side))] {
            for local in [false, true] {
                tile_case(
                    "smalltile",
                    suffix,
                    &a,
                    &b,
                    local,
                    &rungs,
                    25,
                    small_budget,
                    &mut entries,
                );
            }
        }
    }
    // One stage-2-sized region per block size, on one lane and on two
    // strip runners: the points `wavefront::HANDOFF_BREAK_EVEN_CELLS`
    // is chosen from.
    for region in SMALLBLOCK_REGIONS {
        for threads in SMALLBLOCK_THREADS {
            let grid = GridSpec { blocks: 60, threads, alpha: 2 };
            smallblock_case(region, grid, 9, small_budget, &mut entries);
        }
    }
    // End-to-end wavefront engine (the ladder is the default), swept
    // across worker counts to expose the strip scheduler's scaling.
    let (wm, wn) = if quick { (1024, 1024) } else { (4096, 4096) };
    // MCUPS against band height inside the strip engine.
    band_case(wm, wn, 9, small_budget, &mut entries);
    for workers in [1usize, 2, 4, 8] {
        wavefront_case(wm, wn, workers, budget, &mut entries);
    }
    // Pruned tiles on a homologous and an unrelated stage-1 region.
    let (pruned_hom, pruned_unrelated) = prune_counts(4096, 1024);
    println!(
        "prune      local_4096x1024: {pruned_hom} tiles homologous, {pruned_unrelated} unrelated"
    );

    println!(
        "{:<10} {:<22} {:<6} {:<14} {:>5} {:>3} {:>12} {:>10}",
        "bench", "shape", "entry", "path", "lanes", "w", "cells", "MCUPS"
    );
    for e in &entries {
        println!(
            "{:<10} {:<22} {:<6} {:<14} {:>5} {:>3} {:>12} {:>10.1}",
            e.bench, e.shape, e.entry, e.path, e.lanes, e.workers, e.cells, e.mcups
        );
    }
    // Per-shape speedups over the scalar reference.
    for s in entries.iter().filter(|e| e.entry == "scalar") {
        for v in entries.iter().filter(|e| {
            e.shape == s.shape
                && e.bench == s.bench
                && e.entry != "scalar"
                && e.workers == s.workers
        }) {
            println!(
                "speedup    {:<22} {:<6} {:<14} {:>17.2}x",
                s.shape,
                v.entry,
                v.path,
                v.mcups / s.mcups
            );
        }
    }
    // What each band plan gains over one block per call, paired per round.
    for e in entries.iter().filter(|e| e.bench == "band") {
        println!("band / one block per call {:<30} w{} {:>10.2}x", e.shape, e.workers, e.vs_first);
    }
    // What a region gains on one lane, paired per round.
    for e in entries.iter().filter(|e| e.bench == "smallblock" && e.workers == 2) {
        println!("one lane / two strips {:<26} {:>18.2}x", e.shape, 1.0 / e.vs_first);
    }

    let carried = carry_over(&out_path, &entries);
    if !carried.is_empty() {
        eprintln!("mcups: carrying over {} prior entr(y/ies) from {out_path}", carried.len());
    }
    let json = to_json(quick, &entries, &carried);
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("mcups: cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write report");
    eprintln!("mcups: wrote {out_path}");

    if check_scaling {
        let mut failed = false;
        let wavefront_mcups = |w: usize| {
            entries
                .iter()
                .find(|e| e.bench == "wavefront" && e.workers == w)
                .map(|e| e.mcups)
                .unwrap_or_else(|| panic!("mcups: no wavefront entry for workers={w}"))
        };
        // Compare against the sweep point the host can actually run in
        // parallel: more workers than CPUs only timeshares them. Both
        // sides band: w=1 runs the serial banded walk (each publish batch
        // of a block column is one kernel call, as in a strip runner, with
        // no hand-offs), so this compares two strips with one thread doing
        // the same kernel calls.
        let cpus = host_parallelism();
        let wn = cpus.min(4);
        let w1 = wavefront_mcups(1);
        if cpus < 2 {
            eprintln!(
                "mcups: check-scaling: host has {cpus} CPU(s); \
                 w1={w1:.1} MCUPS recorded, scaling gate skipped \
                 (nothing to scale on)"
            );
        } else {
            let vn = wavefront_mcups(wn);
            if vn < w1 {
                eprintln!(
                    "mcups: check-scaling FAILED: wavefront workers={wn} ({vn:.1} MCUPS) \
                     is slower than workers=1 ({w1:.1} MCUPS)"
                );
                failed = true;
            } else {
                eprintln!("mcups: check-scaling OK: w{wn}/w1 = {:.2}x", vn / w1);
            }
        }
        // The i8 rung exists to beat i16; on the local rowdp shape (where
        // it commits without fallback) it must not be slower.
        let rowdp_shape = format!("local_{rh}x{rw}");
        let rowdp = |shape: &str, path: &str| {
            entries
                .iter()
                .find(|e| e.bench == "rowdp" && e.shape == shape && e.path == path)
                .map(|e| e.mcups)
        };
        let rung = |path: &str| rowdp(&rowdp_shape, path);
        match (rung("striped8"), rung("striped16")) {
            (Some(v8), Some(v16)) if v8 < v16 => {
                eprintln!(
                    "mcups: check-scaling FAILED: i8 rung ({v8:.1} MCUPS) is slower \
                     than i16 ({v16:.1} MCUPS) on {rowdp_shape} with no fallback"
                );
                failed = true;
            }
            (Some(v8), Some(v16)) => {
                eprintln!("mcups: check-scaling OK: i8/i16 = {:.2}x on {rowdp_shape}", v8 / v16);
            }
            _ => {
                // The ladder escalated (no committed i8 entry): the gate
                // does not apply, per the no-fallback precondition.
                eprintln!(
                    "mcups: check-scaling: no committed i8 entry on {rowdp_shape}; \
                     i8-vs-i16 gate skipped"
                );
            }
        }
        // Local mode tracks the best endpoint; the per-column gate keeps
        // that cheap, and this keeps the per-cell cost from creeping back.
        let global_shape = format!("global_{rh}x{rw}");
        match (rung("striped16"), rowdp(&global_shape, "striped16")) {
            (Some(local), Some(global)) if local < LOCAL_TRACKING_FLOOR * global => {
                eprintln!(
                    "mcups: check-scaling FAILED: local i16 ({local:.1} MCUPS) is below \
                     {LOCAL_TRACKING_FLOOR}x global i16 ({global:.1} MCUPS) on the rowdp shape"
                );
                failed = true;
            }
            (Some(local), Some(global)) => {
                eprintln!(
                    "mcups: check-scaling OK: local/global i16 = {:.2}x on the rowdp shape",
                    local / global
                );
            }
            _ => {
                eprintln!(
                    "mcups: check-scaling: an i16 rowdp case did not commit on i16; \
                     local-vs-global gate skipped"
                );
            }
        }
        // Tiles shorter than the ladder's height rule must not pay for
        // striped rungs they cannot amortize.
        for side in [16usize, 32] {
            let shape = format!("global_{side}x{side}");
            // The scalar case is each smalltile case's first entry point,
            // so the ladder's paired ratio is ladder / scalar.
            let ladder = entries
                .iter()
                .find(|e| e.bench == "smalltile" && e.shape == shape && e.entry == "ladder")
                .unwrap_or_else(|| panic!("mcups: no smalltile ladder entry for {shape}"))
                .vs_first;
            if ladder < SMALLTILE_FLOOR {
                eprintln!(
                    "mcups: check-scaling FAILED: ladder runs at {ladder:.2}x scalar \
                     (below {SMALLTILE_FLOOR}x) on the {shape} tile"
                );
                failed = true;
            } else {
                eprintln!(
                    "mcups: check-scaling OK: ladder/scalar = {ladder:.2}x on the {shape} tile"
                );
            }
        }
        // Bands are publish batches: on one strip, four block rows per
        // kernel call must not run slower than one.
        let batch4 = entries
            .iter()
            .find(|e| e.bench == "band" && e.workers == 1 && e.shape.ends_with("_batch4"))
            .expect("mcups: no one-strip batch4 band entry")
            .vs_first;
        if batch4 < BAND_FLOOR {
            eprintln!(
                "mcups: check-scaling FAILED: one-strip batch_rows 4 runs at {batch4:.2}x \
                 batch_rows 1 (below {BAND_FLOOR}x) on the band case"
            );
            failed = true;
        } else {
            eprintln!("mcups: check-scaling OK: band batch_rows 4/1 = {batch4:.2}x on one strip");
        }
        // Stage-1 cone pruning: tiles of the homologous region that cannot
        // reach its best score are skipped; the unrelated region has no
        // such tile.
        let (hom, unrelated) = (pruned_hom, pruned_unrelated);
        if hom == 0 || unrelated > 0 {
            eprintln!(
                "mcups: check-scaling FAILED: pruned tiles {hom} on the homologous region \
                 (want > 0) and {unrelated} on the unrelated one (want 0)"
            );
            failed = true;
        } else {
            eprintln!(
                "mcups: check-scaling OK: pruned tiles {hom} homologous / {unrelated} unrelated"
            );
        }
        if failed {
            std::process::exit(1);
        }
    }
}
