//! A Z-align-style parallel CPU aligner (the paper's Table VI
//! comparator).
//!
//! Z-align \[19\] aligns huge sequences exactly on CPU clusters by
//! distributing the DP matrix across processors in a pipelined wavefront
//! and keeping memory linear. This reproduction follows that
//! architecture on a shared-memory machine:
//!
//! 1. **Forward scan** — rows are split into `p` contiguous bands, one
//!    worker each; columns stream through the pipeline in chunks, each
//!    worker passing its band's bottom border (`H`/`F`) to the worker
//!    below. Linear memory per worker, `O(mn)` work, finds the best
//!    score and end point.
//! 2. **Reverse scan** — the same pipeline on the reversed prefix pair
//!    finds the start point.
//! 3. **Traceback** — classic Myers-Miller (sequential) on the delimited
//!    global subproblem.
//!
//! The quadratic phases dominate and scale with `p`, which is what the
//! paper's speedup table measures.

use gpu_sim::kernel::{compute, CellHE, CellHF, Rung, Tile};
use gpu_sim::striped::ProfileCache;
use std::sync::mpsc;
use sw_core::full::better_endpoint;
#[cfg(test)]
use sw_core::full::sw_local_score;
use sw_core::mm::{mm_align_with_stats, MmStats};
use sw_core::scoring::{Score, Scoring, NEG_INF};
use sw_core::transcript::{EdgeState, Transcript};

/// Result of a Z-align run.
#[derive(Debug, Clone)]
pub struct ZalignResult {
    /// Optimal local score.
    pub score: Score,
    /// Start node.
    pub start: (usize, usize),
    /// End node.
    pub end: (usize, usize),
    /// The alignment.
    pub transcript: Transcript,
    /// Total DP cells processed.
    pub cells: u64,
    /// Workers used.
    pub workers: usize,
}

/// Column chunk size of the pipeline. Small enough to keep `p` bands
/// busy on short sequences, large enough to amortize channel traffic.
fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 4).max(1)).clamp(64, 16384).min(n.max(1))
}

/// Band-pipelined local SW scan: returns `(best, end, cells)`.
fn band_scan(
    a: &[u8],
    b: &[u8],
    scoring: &Scoring,
    workers: usize,
) -> (Score, (usize, usize), u64) {
    let (m, n) = (a.len(), b.len());
    if m == 0 || n == 0 {
        return (0, (0, 0), 0);
    }
    let workers = workers.clamp(1, m);
    let chunk = chunk_size(n, workers);
    let nchunks = n.div_ceil(chunk);
    let band = m.div_ceil(workers);

    // Channel w carries band w-1's bottom border chunks to band w.
    let mut senders: Vec<Option<mpsc::SyncSender<Vec<CellHF>>>> = Vec::new();
    let mut receivers: Vec<Option<mpsc::Receiver<Vec<CellHF>>>> = Vec::new();
    receivers.push(None);
    for _ in 1..workers {
        let (tx, rx) = mpsc::sync_channel::<Vec<CellHF>>(4);
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }
    senders.push(None); // last band sends nowhere

    let results = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let rx = receivers[w].take();
            let tx = senders[w].take();
            let rows = (w * band).min(m)..((w + 1) * band).min(m);
            handles.push(s.spawn(move || {
                let a_band = &a[rows.clone()];
                let row_offset = rows.start + 1;
                let mut left = vec![CellHE { h: 0, e: NEG_INF }; a_band.len()];
                let mut best: Option<(Score, usize, usize)> = None;
                let mut cells = 0u64;
                let mut prev_last_h: Score = 0;
                for k in 0..nchunks {
                    let c0 = k * chunk;
                    let c1 = ((k + 1) * chunk).min(n);
                    let mut top = match &rx {
                        Some(rx) => rx.recv().expect("pipeline sender dropped"),
                        None => vec![CellHF { h: 0, f: NEG_INF }; c1 - c0],
                    };
                    let corner = if k == 0 { 0 } else { prev_last_h };
                    prev_last_h = top.last().map_or(0, |c| c.h);
                    let out = compute(
                        &Tile {
                            row_offset,
                            col_offset: c0 + 1,
                            local: true,
                            corner,
                            ..Tile::new(a_band, &b[c0..c1], scoring)
                        },
                        Rung::Auto,
                        &mut top,
                        &mut left,
                        &mut ProfileCache::new(),
                        &[],
                        &mut [],
                    );
                    cells += out.cells;
                    if let Some(cand) = out.best {
                        if best.is_none_or(|cur| better_endpoint(cand, cur)) {
                            best = Some(cand);
                        }
                    }
                    if let Some(tx) = &tx {
                        tx.send(top).expect("pipeline receiver dropped");
                    }
                }
                (best, cells)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("zalign worker panicked")).collect::<Vec<_>>()
    });

    let mut best: Option<(Score, usize, usize)> = None;
    let mut cells = 0u64;
    for (b_w, c_w) in results {
        cells += c_w;
        if let Some(cand) = b_w {
            if best.is_none_or(|cur| better_endpoint(cand, cur)) {
                best = Some(cand);
            }
        }
    }
    match best {
        Some((s, i, j)) => (s, (i, j), cells),
        None => (0, (0, 0), cells),
    }
}

/// Align with the Z-align-style pipeline on `workers` cores.
pub fn zalign(a: &[u8], b: &[u8], scoring: &Scoring, workers: usize) -> ZalignResult {
    let (score, end, mut cells) = band_scan(a, b, scoring, workers);
    if score <= 0 {
        return ZalignResult {
            score: 0,
            start: (0, 0),
            end: (0, 0),
            transcript: Transcript::new(),
            cells,
            workers,
        };
    }
    // Reverse scan on the delimited prefixes finds the start point.
    let a_rev: Vec<u8> = a[..end.0].iter().rev().copied().collect();
    let b_rev: Vec<u8> = b[..end.1].iter().rev().copied().collect();
    let (rev_score, rev_end, rev_cells) = band_scan(&a_rev, &b_rev, scoring, workers);
    cells += rev_cells;
    debug_assert_eq!(rev_score, score, "reverse scan must reproduce the optimum");
    let start = (end.0 - rev_end.0, end.1 - rev_end.1);

    let mut stats = MmStats::default();
    let (g, transcript) = mm_align_with_stats(
        &a[start.0..end.0],
        &b[start.1..end.1],
        scoring,
        EdgeState::Diagonal,
        EdgeState::Diagonal,
        &mut stats,
    );
    cells += stats.total_cells();
    debug_assert_eq!(g, score);
    ZalignResult { score, start, end, transcript, cells, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::generate::edited_pair;

    #[test]
    fn band_scan_matches_reference_for_any_worker_count() {
        let (a, b) = edited_pair(1, 400, 37);
        let (ref_score, ref_end) = sw_local_score(&a, &b, &Scoring::paper());
        for workers in [1, 2, 3, 7] {
            let (s, e, cells) = band_scan(&a, &b, &Scoring::paper(), workers);
            assert_eq!(s, ref_score, "workers={workers}");
            assert_eq!(e, ref_end, "workers={workers}");
            assert_eq!(cells, (a.len() * b.len()) as u64);
        }
    }

    #[test]
    fn full_alignment_matches_reference() {
        let (a, b) = edited_pair(2, 350, 37);
        let r = zalign(&a, &b, &Scoring::paper(), 4);
        let (ref_score, ref_end) = sw_local_score(&a, &b, &Scoring::paper());
        assert_eq!(r.score, ref_score);
        assert_eq!(r.end, ref_end);
        let sub_a = &a[r.start.0..r.end.0];
        let sub_b = &b[r.start.1..r.end.1];
        r.transcript.validate(sub_a, sub_b).unwrap();
        assert_eq!(r.transcript.score(sub_a, sub_b, &Scoring::paper()), r.score);
    }

    #[test]
    fn degenerate_inputs() {
        let r = zalign(b"", b"ACGT", &Scoring::paper(), 4);
        assert_eq!(r.score, 0);
        let r2 = zalign(b"A", b"C", &Scoring::paper(), 2);
        assert_eq!(r2.score, 0);
    }

    #[test]
    fn more_workers_than_rows() {
        let (a, b) = edited_pair(3, 20, 37);
        let r = zalign(&a, &b, &Scoring::paper(), 64);
        let (ref_score, _) = sw_local_score(&a, &b, &Scoring::paper());
        assert_eq!(r.score, ref_score);
    }
}
