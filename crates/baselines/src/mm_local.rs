//! Sequential linear-space local alignment.
//!
//! The classic three-phase recipe (Myers-Miller applied to local
//! alignment): a forward linear-memory scan finds the best score and its
//! end point; a second scan over the *reversed* prefixes finds the start
//! point (the reversed problem's best end point); classic Myers-Miller
//! then aligns the delimited global subproblem. This is the one-core CPU
//! reference CUDAlign is compared against.

use sw_core::full::sw_local_score;
use sw_core::mm::{mm_align_with_stats, MmStats};
use sw_core::scoring::{Score, Scoring};
use sw_core::transcript::{EdgeState, Transcript};

/// Result of the linear-space local aligner.
#[derive(Debug, Clone)]
pub struct MmLocalResult {
    /// Optimal score (0 = empty alignment).
    pub score: Score,
    /// Start node.
    pub start: (usize, usize),
    /// End node.
    pub end: (usize, usize),
    /// The alignment.
    pub transcript: Transcript,
    /// DP cells processed across all three phases.
    pub cells: u64,
}

/// Find the start point of an optimal alignment ending at `end`: run the
/// forward scan on the reversed suffix-pair; the reversed problem's best
/// end point is the original start.
fn find_start(a: &[u8], b: &[u8], end: (usize, usize), scoring: &Scoring) -> (usize, usize) {
    let a_rev: Vec<u8> = a[..end.0].iter().rev().copied().collect();
    let b_rev: Vec<u8> = b[..end.1].iter().rev().copied().collect();
    let (_, rev_end) = sw_local_score(&a_rev, &b_rev, scoring);
    (end.0 - rev_end.0, end.1 - rev_end.1)
}

/// Align in linear space, sequentially.
pub fn mm_local_align(a: &[u8], b: &[u8], scoring: &Scoring) -> MmLocalResult {
    let (score, end) = sw_local_score(a, b, scoring);
    let mut cells = (a.len() * b.len()) as u64;
    if score <= 0 {
        return MmLocalResult {
            score: 0,
            start: (0, 0),
            end: (0, 0),
            transcript: Transcript::new(),
            cells,
        };
    }
    let start = find_start(a, b, end, scoring);
    cells += (end.0 * end.1) as u64;
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
    debug_assert_eq!(g, score, "global alignment of the delimited span must attain the optimum");
    MmLocalResult { score, start, end, transcript, cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::generate::dna;
    use sw_core::full::sw_local_aligned;

    #[test]
    fn matches_quadratic_reference() {
        let a = dna(1, 300);
        let mut b = a.clone();
        b.drain(100..140);
        for i in (3..b.len()).step_by(31) {
            b[i] = b"ACGT"[(i / 31) % 4];
        }
        let r = mm_local_align(&a, &b, &Scoring::paper());
        let reference = sw_local_aligned(&a, &b, &Scoring::paper()).unwrap();
        assert_eq!(r.score, reference.score);
        assert_eq!(r.end, reference.end);
        r.transcript.validate(&a[r.start.0..r.end.0], &b[r.start.1..r.end.1]).unwrap();
        assert_eq!(
            r.transcript.score(&a[r.start.0..r.end.0], &b[r.start.1..r.end.1], &Scoring::paper()),
            r.score
        );
    }

    #[test]
    fn empty_and_unrelated() {
        let r = mm_local_align(b"", b"ACGT", &Scoring::paper());
        assert_eq!(r.score, 0);
        assert!(r.transcript.is_empty());
    }

    #[test]
    fn start_point_is_consistent() {
        let a = dna(2, 150);
        let b = dna(3, 150);
        let r = mm_local_align(&a, &b, &Scoring::paper());
        if r.score > 0 {
            assert!(r.start.0 <= r.end.0 && r.start.1 <= r.end.1);
            let g = sw_core::linear::global_score(
                &a[r.start.0..r.end.0],
                &b[r.start.1..r.end.1],
                &Scoring::paper(),
                EdgeState::Diagonal,
                EdgeState::Diagonal,
            );
            assert_eq!(g, r.score);
        }
    }
}
