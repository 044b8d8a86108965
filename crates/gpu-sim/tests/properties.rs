//! Property tests: the wavefront engine is equivalent to the sequential
//! reference DP for every grid shape and worker count.

use gpu_sim::kernel::{compute, Rung, Tile};
use gpu_sim::striped::ProfileCache;
use gpu_sim::wavefront::{launch, Launch, NoObserver, RegionJob, RegionResult, WavefrontObserver};
use gpu_sim::{CellHE, CellHF, GridSpec, Mode, TileOutcome, WorkerPool};
use proptest::prelude::*;
use seqio::generate;
use sw_core::full::sw_local_score;
use sw_core::linear::forward_vectors;
use sw_core::scoring::Scoring;
use sw_core::transcript::EdgeState;

/// Launch `job` on a pool of its own, `job.workers` lanes wide.
fn launch_alone(
    job: &RegionJob<'_>,
    observer: &mut dyn WavefrontObserver,
    opts: Launch<'_>,
) -> RegionResult {
    launch(&WorkerPool::new(job.workers), job, observer, opts).expect("no worker panic")
}

/// [`launch_alone`] with no observer and default options.
fn plain(job: &RegionJob<'_>) -> RegionResult {
    launch_alone(job, &mut NoObserver, Launch::default())
}

/// [`compute`] with a throwaway cache and no cuts.
fn run_tile(tile: &Tile, rung: Rung, top: &mut [CellHF], left: &mut [CellHE]) -> TileOutcome {
    compute(tile, rung, top, left, &mut ProfileCache::new(), &[], &mut [])
}

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..max_len)
}

/// Sequences long enough for the striped kernel's eligibility gate.
fn dna_min(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), min_len..max_len)
}

fn grids() -> impl Strategy<Value = GridSpec> {
    (1usize..8, 1usize..8, 1usize..5).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

fn edge() -> impl Strategy<Value = EdgeState> {
    proptest::sample::select(vec![EdgeState::Diagonal, EdgeState::GapS0, EdgeState::GapS1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn global_mode_equals_rowdp(a in dna(120), b in dna(120), grid in grids(), start in edge(), workers in 1usize..5) {
        let job = RegionJob { a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::global(start), grid, workers, watch: None };
        let res = plain(&job);
        prop_assert_eq!(res.cells, (a.len() * b.len()) as u64);
        let (h, f) = forward_vectors(&a, &b, &Scoring::paper(), start);
        for j in 0..b.len() {
            prop_assert_eq!(res.hbus[j].h, h[j + 1]);
            prop_assert_eq!(res.hbus[j].f, f[j + 1]);
        }
    }

    /// Reverse-origin regions (Stage 2's strips) must also be bit-equal to
    /// the sequential reference — including the NEG_INF origin corner that
    /// forbids paths starting fresh at the crosspoint.
    #[test]
    fn global_reverse_mode_equals_rowdp(a in dna(120), b in dna(120), grid in grids(), end in edge(), workers in 1usize..5) {
        use sw_core::linear::RowDp;
        let sc = Scoring::paper();
        let job = RegionJob { a: &a, b: &b, scoring: sc, mode: Mode::global_reverse(end, &sc), grid, workers, watch: None };
        let res = plain(&job);
        let mut dp = RowDp::new_reverse(b.len(), sc, end);
        for &ch in &a {
            dp.step(ch, &b);
        }
        for j in 0..b.len() {
            prop_assert_eq!(res.hbus[j].h, dp.h()[j + 1], "H at {}", j);
            prop_assert_eq!(res.hbus[j].f, dp.f()[j + 1], "F at {}", j);
        }
    }

    #[test]
    fn local_mode_equals_reference(a in dna(150), b in dna(150), grid in grids(), workers in 1usize..5) {
        let job = RegionJob { a: &a, b: &b, scoring: Scoring::paper(), mode: Mode::Local, grid, workers, watch: None };
        let res = plain(&job);
        let (score, end) = sw_local_score(&a, &b, &Scoring::paper());
        match res.best {
            Some((s, i, j)) => {
                prop_assert_eq!(s, score);
                prop_assert_eq!((i, j), end);
            }
            None => prop_assert_eq!(score, 0),
        }
    }

    /// The vertical bus after a full run holds the last column of the
    /// matrix (H/E per row) — the rectified-vertical-bus invariant the
    /// Stage 2 matching procedure relies on.
    #[test]
    fn final_vbus_is_last_column(a in dna(80), b in dna(80), grid in grids()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let sc = Scoring::paper();
        let job = RegionJob { a: &a, b: &b, scoring: sc, mode: Mode::global(EdgeState::Diagonal), grid, workers: 2, watch: None };
        let res = plain(&job);
        // Transposed run: the final hbus of (b x a) is the last row of the
        // transposed matrix = last column of the original, with E <-> F.
        let job_t = RegionJob { a: &b, b: &a, scoring: sc, mode: Mode::global(EdgeState::Diagonal), grid, workers: 2, watch: None };
        let res_t = plain(&job_t);
        for i in 0..a.len() {
            prop_assert_eq!(res.vbus[i].h, res_t.hbus[i].h);
            prop_assert_eq!(res.vbus[i].e, res_t.hbus[i].f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The striped i16 kernel must be bit-identical to the scalar i32
    /// kernel on whole tiles: every bus cell, the corner, the best
    /// endpoint and the watch hit. Scoring ranges deliberately include
    /// values large enough (x20 amplification, still within the P_MAX
    /// eligibility bound) that long tiles drift out of the i16 window and
    /// exercise the overflow fallback.
    #[test]
    fn striped_kernel_equals_scalar_cell_for_cell(
        a in dna_min(16, 220),
        b in dna_min(16, 220),
        ms in 1i32..30,
        mms in -30i32..0,
        gaps in (1i32..30, 0i32..20),
        amplify in any::<bool>(),
        local in any::<bool>(),
        start in edge(),
        watch_some in any::<bool>(),
    ) {
        use gpu_sim::kernel::{global_borders, local_borders, GlobalOrigin, KernelPath};
        let k = if amplify { 20 } else { 1 };
        let scoring = Scoring {
            match_score: ms * k,
            mismatch_score: mms * k,
            gap_first: (gaps.0 + gaps.1) * k,
            gap_ext: gaps.0 * k,
        };
        let (top_0, left_0, corner) = if local {
            local_borders(a.len(), b.len())
        } else {
            global_borders(a.len(), b.len(), &scoring, GlobalOrigin::forward(start))
        };
        // Watch a score that exists (the scalar corner) half the time, so
        // hits in striped columns, the sliver, and nowhere all occur.
        let watch = if watch_some {
            let (mut t, mut l) = (top_0.clone(), left_0.clone());
            let probe = run_tile(&Tile { local, corner, ..Tile::new(&a, &b, &scoring) }, Rung::Scalar, &mut t, &mut l);
            Some(probe.corner_out)
        } else {
            None
        };
        let (mut top_s, mut left_s) = (top_0.clone(), left_0.clone());
        let scal = run_tile(&Tile { local, watch, corner, ..Tile::new(&a, &b, &scoring) }, Rung::Scalar, &mut top_s, &mut left_s);
        for rung in [Rung::I8, Rung::I16] {
            let (mut top_v, mut left_v) = (top_0.clone(), left_0.clone());
            let vect = run_tile(&Tile { local, watch, corner, ..Tile::new(&a, &b, &scoring) }, rung, &mut top_v, &mut left_v);
            prop_assert_ne!(vect.path, KernelPath::Scalar, "eligible tile must try the striped path");
            prop_assert_eq!(&top_v, &top_s, "hbus");
            prop_assert_eq!(&left_v, &left_s, "vbus");
            prop_assert_eq!(vect.corner_out, scal.corner_out);
            prop_assert_eq!(vect.best, scal.best);
            prop_assert_eq!(vect.watch_hit, scal.watch_hit);
            prop_assert_eq!(vect.cells, scal.cells);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ladder's height rule: at every tile height 1..=80, in both
    /// modes, watched or not, [`Rung::Auto`] is bit-identical to the
    /// scalar kernel (both buses, corner, best endpoint, watch hit), and
    /// it commits `Scalar` exactly below `MIN_LADDER_ROWS` (above it an
    /// eligible tile takes a striped rung). Homologous columns push local
    /// scores past the i8 window so taller tiles also escalate.
    #[test]
    fn ladder_commits_scalar_below_min_rows(
        a in dna_min(80, 81),
        b in dna_min(1, 160),
        homologous in any::<bool>(),
    ) {
        use gpu_sim::kernel::{
            global_borders, local_borders, GlobalOrigin, KernelPath, MIN_LADDER_ROWS,
        };
        let sc = Scoring::paper();
        let b: Vec<u8> = if homologous {
            (0..b.len()).map(|j| if j % 17 == 5 { b[j] } else { a[j % a.len()] }).collect()
        } else {
            b
        };
        for height in 1..=80usize {
            let a = &a[..height];
            for local in [false, true] {
                let (top_0, left_0, corner) = if local {
                    local_borders(height, b.len())
                } else {
                    global_borders(height, b.len(), &sc, GlobalOrigin::forward(EdgeState::Diagonal))
                };
                let probe = {
                    let (mut t, mut l) = (top_0.clone(), left_0.clone());
                    run_tile(&Tile { local, corner, ..Tile::new(a, &b, &sc) }, Rung::Scalar, &mut t, &mut l)
                };
                for watch in [None, Some(probe.corner_out)] {
                    let (mut top_s, mut left_s) = (top_0.clone(), left_0.clone());
                    let scal = run_tile(&Tile { local, watch, corner, ..Tile::new(a, &b, &sc) }, Rung::Scalar, &mut top_s, &mut left_s);
                    let (mut top_v, mut left_v) = (top_0.clone(), left_0.clone());
                    let vect =
                        run_tile(&Tile { local, watch, corner, ..Tile::new(a, &b, &sc) }, Rung::Auto, &mut top_v, &mut left_v);
                    let what = format!("{height}x{} local={local} watch={watch:?}", b.len());
                    if height < MIN_LADDER_ROWS {
                        prop_assert_eq!(vect.path, KernelPath::Scalar, "{}", what);
                    } else if b.len() >= 16 {
                        prop_assert_ne!(vect.path, KernelPath::Scalar, "{}", what);
                    }
                    prop_assert_eq!(&top_v, &top_s, "hbus {}", what);
                    prop_assert_eq!(&left_v, &left_s, "vbus {}", what);
                    prop_assert_eq!(vect.corner_out, scal.corner_out, "corner {}", what);
                    prop_assert_eq!(vect.best, scal.best, "best {}", what);
                    prop_assert_eq!(vect.watch_hit, scal.watch_hit, "watch hit {}", what);
                    prop_assert_eq!(vect.cells, scal.cells, "cells {}", what);
                }
            }
        }
    }
}

/// Deterministic regression for the *production* striped-kernel batching
/// constants (the crate's unit tests shrink JCHUNK/BAND; integration
/// tests link the real values): a tile wider than one column chunk
/// (width > JCHUNK = 32,000, where the `prev_top` diagonal seed must be
/// carried across the chunk boundary rather than re-read from the
/// already-overwritten bus) and a tile taller than one band
/// (height > BAND = 1024) must stay cell-for-cell identical to the
/// scalar kernel.
#[test]
fn striped_boundaries_match_scalar_at_production_sizes() {
    use gpu_sim::kernel::{global_borders, local_borders, GlobalOrigin, KernelPath};
    let sc = Scoring::paper();
    // (height, width, modes): one shape crossing the column-chunk boundary
    // (watched tiles chunk; the unwatched local run checks the best
    // endpoint across the same width) — local borders only, since a global border
    // row spanning > 32k columns leaves the i16 window and (correctly)
    // falls back — and one shape crossing the band boundary in all modes.
    let wide: &[(bool, bool)] = &[(true, false), (true, true)];
    let tall: &[(bool, bool)] = &[(true, false), (false, true), (false, false)];
    for (ai, bi, height, width, modes) in
        [(21u64, 22u64, 48, 32_100, wide), (23, 24, 1_056, 48, tall)]
    {
        let a = generate::dna(ai, height);
        let mut b = generate::dna(bi, width);
        if width > 32_000 {
            // Plant an exact copy of `a` ending at the chunk boundary so
            // the band's bottom row carries a large local H there, and a
            // match right after it: a seed leak across the boundary would
            // inflate the top row's diagonal and show up in best/bus.
            b[32_000 - height..32_000].copy_from_slice(&a);
            b[32_000] = a[0];
        }
        for &(local, watched) in modes {
            let (top_0, left_0, corner) = if local {
                local_borders(a.len(), b.len())
            } else {
                global_borders(a.len(), b.len(), &sc, GlobalOrigin::forward(EdgeState::Diagonal))
            };
            let watch = if watched {
                let (mut t, mut l) = (top_0.clone(), left_0.clone());
                let probe = run_tile(
                    &Tile { local, corner, ..Tile::new(&a, &b, &sc) },
                    Rung::Scalar,
                    &mut t,
                    &mut l,
                );
                Some(probe.corner_out)
            } else {
                None
            };
            let (mut top_s, mut left_s) = (top_0.clone(), left_0.clone());
            let scal = run_tile(
                &Tile { local, watch, corner, ..Tile::new(&a, &b, &sc) },
                Rung::Scalar,
                &mut top_s,
                &mut left_s,
            );
            let (mut top_v, mut left_v) = (top_0, left_0);
            let vect = run_tile(
                &Tile { local, watch, corner, ..Tile::new(&a, &b, &sc) },
                Rung::I8,
                &mut top_v,
                &mut left_v,
            );
            // Local tiles stay inside the i8 window at paper scoring and
            // commit on the ladder's first rung; global borders exceed it
            // and escalate to i16 (which still commits — no scalar rerun).
            let want = if local { KernelPath::Striped8 } else { KernelPath::Striped8Fallback16 };
            assert_eq!(vect.path, want, "{height}x{width} local={local}");
            assert_eq!(top_v, top_s, "hbus {height}x{width} local={local} watched={watched}");
            assert_eq!(left_v, left_s, "vbus {height}x{width} local={local} watched={watched}");
            assert_eq!(vect.corner_out, scal.corner_out);
            assert_eq!(vect.best, scal.best);
            assert_eq!(vect.watch_hit, scal.watch_hit);
        }
    }
}

/// The per-column local-best gate at the *production* band height: tiles
/// taller than one band (height > BAND = 1024, with a 12-row scalar
/// sliver on both rungs) whose maxima tie across many rows, columns and
/// both bands. The i16-first ladder and the full ladder must both match
/// the scalar kernel on `best`, both buses and `corner_out`.
#[test]
fn local_best_gate_ties_match_scalar_at_production_sizes() {
    use gpu_sim::kernel::{local_borders, KernelPath};
    let sc = Scoring::paper();
    let (height, width) = (1_100, 300);
    let repeat =
        |unit: &[u8], n: usize| -> Vec<u8> { unit.iter().copied().cycle().take(n).collect() };
    // Two distinct 30-mers on never-matching backgrounds: equal scores,
    // and the copy in band 1 holds the earlier anti-diagonal.
    let (mut pa, mut pb) = (vec![b'T'; height], vec![b'G'; width]);
    for (unit, i, j) in [
        (&b"ACGGTCAATGCCATGAACGTTAGCAGTCCA"[..], 900, 200),
        (b"GATTACAGCCGTAACTGGTCAAGCTTACGA", 1_040, 20),
    ] {
        pa[i..i + 30].copy_from_slice(unit);
        pb[j..j + 30].copy_from_slice(unit);
    }
    let cases = [
        ("poly-A x poly-A", vec![b'A'; height], vec![b'A'; width]),
        ("A12C8 x poly-A", repeat(b"AAAAAAAAAAAACCCCCCCC", height), vec![b'A'; width]),
        ("equal scores in two bands", pa, pb),
    ];
    for (what, a, b) in &cases {
        let (top_0, left_0, corner) = local_borders(height, width);
        let (mut top_s, mut left_s) = (top_0.clone(), left_0.clone());
        let scal = run_tile(
            &Tile { local: true, corner, ..Tile::new(a, b, &sc) },
            Rung::Scalar,
            &mut top_s,
            &mut left_s,
        );
        for rung in [Rung::I16, Rung::Auto] {
            let (mut top_v, mut left_v) = (top_0.clone(), left_0.clone());
            let tile = Tile { local: true, corner, ..Tile::new(a, b, &sc) };
            let vect = run_tile(&tile, rung, &mut top_v, &mut left_v);
            assert_ne!(vect.path, KernelPath::Scalar, "{what}");
            assert_eq!(vect.best, scal.best, "{what}: best, rung={rung:?}");
            assert_eq!(top_v, top_s, "{what}: hbus, rung={rung:?}");
            assert_eq!(left_v, left_s, "{what}: vbus, rung={rung:?}");
            assert_eq!(vect.corner_out, scal.corner_out, "{what}: corner, rung={rung:?}");
        }
    }
}

/// The i8 rung's escalation edges at the *production* batching constants:
/// tiles that cross the column-chunk boundary (width > JCHUNK = 32,000,
/// where lane 0's diagonal seed is carried across the boundary) or the
/// band boundary (height > BAND = 1024) while the planted alignment score
/// climbs past the i8 window, forcing a mid-tile i8 -> i16 escalation.
/// The escalated run must leave the buses exactly as the scalar kernel
/// would — i.e. the rejected i8 attempt leaked nothing.
#[test]
fn i8_escalation_matches_scalar_at_production_sizes() {
    use gpu_sim::kernel::{local_borders, KernelPath};
    let sc = Scoring::paper();
    // (height, width): one shape crossing the chunk boundary, one the
    // band boundary. Height > 95 lets the planted exact copy of `a` push
    // the local score past the i8 window's +95 ceiling.
    for (ai, bi, height, width, plant_at) in
        [(25u64, 26u64, 128, 32_100, 32_000 - 128), (27, 28, 1_056, 1_200, 0)]
    {
        let a = generate::dna(ai, height);
        let mut b = generate::dna(bi, width);
        // Plant an exact copy of a prefix of `a` so the running local
        // score exceeds 95 (paper match = +1, height > 95 rows).
        let plant_len = height.min(width - plant_at);
        b[plant_at..plant_at + plant_len].copy_from_slice(&a[..plant_len]);
        let (top_0, left_0, corner) = local_borders(a.len(), b.len());
        let (mut top_s, mut left_s) = (top_0.clone(), left_0.clone());
        let scal = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &sc) },
            Rung::Scalar,
            &mut top_s,
            &mut left_s,
        );
        assert!(
            scal.best.is_some_and(|(s, _, _)| s > 95),
            "planted match must exceed the i8 window, got {:?}",
            scal.best
        );
        let (mut top_v, mut left_v) = (top_0, left_0);
        let vect = run_tile(
            &Tile { local: true, corner, ..Tile::new(&a, &b, &sc) },
            Rung::Auto,
            &mut top_v,
            &mut left_v,
        );
        assert_eq!(vect.path, KernelPath::Striped8Fallback16, "{height}x{width}");
        assert_eq!(top_v, top_s, "hbus {height}x{width}");
        assert_eq!(left_v, left_s, "vbus {height}x{width}");
        assert_eq!(vect.corner_out, scal.corner_out);
        assert_eq!(vect.best, scal.best);
        assert_eq!(vect.cells, scal.cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Resuming from any checkpoint reproduces the uninterrupted run.
    #[test]
    fn resume_at_any_snapshot_is_lossless(
        a in dna(150), b in dna(150), grid in grids(), every in 1usize..8, pick in any::<u32>()
    ) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        use gpu_sim::wavefront::EngineState;
        use gpu_sim::{BlockCoords, CellHE, CellHF, TileOutcome};
        use std::ops::ControlFlow;
        struct Snapshots(Vec<EngineState>);
        impl gpu_sim::WavefrontObserver for Snapshots {
            fn on_block(&mut self, _: &BlockCoords, _: &TileOutcome, _: &[CellHF], _: &[CellHE]) -> ControlFlow<()> {
                ControlFlow::Continue(())
            }
            fn on_checkpoint(&mut self, state: &EngineState) {
                self.0.push(state.clone());
            }
        }
        let job = RegionJob {
            a: &a,
            b: &b,
            scoring: Scoring::paper(),
            mode: Mode::Local,
            grid,
            workers: 2,
            watch: None,
        };
        let full = plain(&job);
        let mut obs = Snapshots(Vec::new());
        let every = Launch { checkpoint_every: Some(every), ..Launch::default() };
        let _ = launch_alone(&job, &mut obs, every);
        let snaps = obs.0;
        prop_assume!(!snaps.is_empty());
        let snap = snaps[pick as usize % snaps.len()].clone();
        let restored = EngineState::decode(&snap.encode()).expect("roundtrip");
        let resume = Launch { resume: Some(restored), ..Launch::default() };
        let resumed = launch_alone(&job, &mut NoObserver, resume);
        prop_assert_eq!(resumed.best, full.best);
        prop_assert_eq!(resumed.hbus, full.hbus);
        prop_assert_eq!(resumed.cells, full.cells);
    }
}

/// Run `tile` (at DP position `(1, 1)`, unwatched) as one band cut at
/// `cuts` ([`compute`]) and as one `compute_tile_cached` call per block
/// from the same borders. The cut rows, both final buses, the last
/// block's corner and the band best against the per-block merge must be
/// identical. Returns the band's rung.
fn band_equals_blocks(
    tile: &Tile,
    top_0: &[CellHF],
    left_0: &[CellHE],
    cuts: &[usize],
    what: &str,
) -> gpu_sim::kernel::KernelPath {
    use gpu_sim::kernel::compute_tile_cached;
    use sw_core::full::better_endpoint;
    let Tile { a, b, scoring: &sc, local, corner, .. } = *tile;
    let w = b.len();
    let (mut top_b, mut left_b) = (top_0.to_vec(), left_0.to_vec());
    let mut cut_rows = vec![CellHF::UNREACHABLE; cuts.len() * w];
    let band = compute(
        tile,
        Rung::Auto,
        &mut top_b,
        &mut left_b,
        &mut ProfileCache::new(),
        cuts,
        &mut cut_rows,
    );
    let (mut top_r, mut left_r) = (top_0.to_vec(), left_0.to_vec());
    let mut cache = ProfileCache::new();
    let mut best: Option<(i32, usize, usize)> = None;
    let (mut corner_out, mut start) = (corner, 0);
    for (k, end) in cuts.iter().map(|&c| c + 1).chain([a.len()]).enumerate() {
        let block_corner = if start == 0 { corner } else { left_0[start - 1].h };
        let out = compute_tile_cached(
            &a[start..end],
            b,
            1 + start,
            1,
            &sc,
            local,
            None,
            block_corner,
            &mut top_r,
            &mut left_r[start..end],
            &mut cache,
        );
        if let Some(cand) = out.best {
            if best.is_none_or(|x| better_endpoint(cand, x)) {
                best = Some(cand);
            }
        }
        corner_out = out.corner_out;
        if k < cuts.len() {
            assert_eq!(&cut_rows[k * w..(k + 1) * w], &top_r[..], "{what}: cut row {k}");
        }
        start = end;
    }
    assert_eq!(top_b, top_r, "{what}: hbus");
    assert_eq!(left_b, left_r, "{what}: vbus");
    assert_eq!(band.corner_out, corner_out, "{what}: corner");
    assert_eq!(band.best, best, "{what}: best");
    band.path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A band (several blocks of one block column in one kernel call) is
    /// bit-identical to its blocks run one call each: heights 64..=300,
    /// up to five cuts anywhere (lane and segment positions of both
    /// striped rungs, and the scalar sliver), local and global, and
    /// planted borders that force i8 -> i16 or i16 -> scalar escalation
    /// of the whole band.
    #[test]
    fn band_cut_rows_equal_per_block_tiles(
        a in dna_min(300, 301),
        b in dna_min(32, 120),
        height in 64usize..301,
        knobs in proptest::collection::vec(0usize..300, 0..6),
        local in any::<bool>(),
        homologous in any::<bool>(),
        lift in 0usize..3,
    ) {
        use gpu_sim::kernel::{global_borders, local_borders, GlobalOrigin, KernelPath};
        let a = &a[..height];
        let b: Vec<u8> = if homologous {
            (0..b.len()).map(|j| if j % 13 == 4 { b[j] } else { a[j % height] }).collect()
        } else {
            b
        };
        let mut cuts: Vec<usize> = knobs.iter().map(|k| k % (height - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let (mut top, left, corner) = if local {
            local_borders(height, b.len())
        } else {
            global_borders(height, b.len(), &Scoring::paper(), GlobalOrigin::forward(EdgeState::Diagonal))
        };
        top[0].h += [0, 200, 100_000][lift];
        let what = format!("{height}x{} local={local} lift={lift} cuts={cuts:?}", b.len());
        let sc = Scoring::paper();
        let tile = Tile { local, corner, ..Tile::new(a, &b, &sc) };
        let path = band_equals_blocks(&tile, &top, &left, &cuts, &what);
        if lift == 2 {
            prop_assert_eq!(path, KernelPath::StripedFallback, "{}", what);
        } else if !local || lift == 1 {
            prop_assert_ne!(path, KernelPath::Striped8, "{}", what);
        }
    }
}

/// A single cut at every row of bands at the production constants, in
/// both modes: heights around the i8 and i16 lane multiples put cuts in
/// every lane and segment position and in the scalar sliver, and a band
/// taller than one internal band (BAND = 1024) cuts across it at the
/// stage-1 block height.
#[test]
fn band_cut_rows_match_blocks_at_every_row() {
    use gpu_sim::kernel::{global_borders, local_borders, GlobalOrigin, KernelPath};
    let sc = Scoring::paper();
    let b = generate::dna(62, 48);
    let borders = |local: bool, height: usize| {
        if local {
            local_borders(height, b.len())
        } else {
            global_borders(height, b.len(), &sc, GlobalOrigin::forward(EdgeState::Diagonal))
        }
    };
    for height in [64usize, 65, 95, 96, 97, 300] {
        let a = generate::dna(61 + height as u64, height);
        for local in [false, true] {
            let (top, left, corner) = borders(local, height);
            let tile = Tile { local, corner, ..Tile::new(&a, &b, &sc) };
            for cut in 0..height - 1 {
                let what = format!("{height} rows, cut {cut}, local={local}");
                let path = band_equals_blocks(&tile, &top, &left, &[cut], &what);
                let want =
                    if local { KernelPath::Striped8 } else { KernelPath::Striped8Fallback16 };
                assert_eq!(path, want, "{what}");
            }
        }
    }
    // Five 256-row blocks and a 4-row sliver: cuts on both sides of the
    // internal band boundary at row 1024.
    let a = generate::dna(63, 1284);
    for local in [false, true] {
        let (top, left, corner) = borders(local, a.len());
        let cuts = [255, 511, 767, 1023, 1279, 1281];
        let what = format!("1284 rows, cuts {cuts:?}, local={local}");
        let tile = Tile { local, corner, ..Tile::new(&a, &b, &sc) };
        band_equals_blocks(&tile, &top, &left, &cuts, &what);
    }
}
