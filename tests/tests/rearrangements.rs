//! Robustness on rearranged genomes: local alignment must find the
//! largest collinear block when the homolog has been shuffled by
//! large-scale operations (a regime the paper's chromosome pair only
//! hints at — real cross-species comparisons are full of inversions and
//! translocations).

use cudalign::{Pipeline, PipelineConfig};
use seqio::generate::{apply_block_ops, dna, reverse_complement, BlockOp};
use sw_core::Scoring;

fn align(a: &[u8], b: &[u8]) -> cudalign::PipelineResult {
    Pipeline::new(PipelineConfig::for_tests()).align(a, b).unwrap()
}

#[test]
fn translocation_yields_largest_block() {
    // b = a with its first third moved to the end: the optimal local
    // alignment is the remaining collinear two-thirds.
    let a = dna(61, 900);
    let third = a.len() / 3;
    let b = apply_block_ops(&a, &[BlockOp::Translocate { start: 0, len: third, to: 600 }]);
    let res = align(&a, &b);
    let span = res.end.0 - res.start.0;
    assert!(
        span >= 2 * third - 10,
        "expected the collinear two-thirds ({} bp), got {span}",
        2 * third
    );
    // And it is a perfect match (no edits were applied inside blocks).
    assert_eq!(res.best_score as usize, res.transcript.len());
}

#[test]
fn inversion_breaks_collinearity() {
    // Inverting the middle block leaves two collinear flanks; the local
    // alignment picks one of them (the inverted block matches only on
    // the reverse complement strand, which plain SW does not see).
    let a = dna(62, 900);
    let b = apply_block_ops(&a, &[BlockOp::Invert { start: 300, len: 300 }]);
    let res = align(&a, &b);
    let span = res.end.0 - res.start.0;
    assert!((250..600).contains(&span), "expected one flank (~300 bp), got {span}");
    // Aligning against the reverse complement recovers the inverted block.
    let b_rc = reverse_complement(&b);
    let res_rc = align(&a, &b_rc);
    assert!(res_rc.best_score > 0);
}

#[test]
fn duplication_still_aligns_full_length() {
    // A tandem duplication inserts extra sequence; the alignment spans
    // the whole original by paying one gap run.
    let a = dna(63, 600);
    let b = apply_block_ops(&a, &[BlockOp::Duplicate { start: 200, len: 80 }]);
    let res = align(&a, &b);
    let sc = Scoring::paper();
    assert_eq!(res.best_score, a.len() as i32 - (sc.gap_first + 79 * sc.gap_ext));
    let stats = res.transcript.stats();
    assert_eq!(stats.gap_openings, 1);
    assert_eq!(stats.gap_extensions, 79);
    assert_eq!(stats.mismatches, 0);
}

#[test]
fn deletion_splits_decision_by_size() {
    // Small deletion: bridge with a gap. Huge deletion: better to align
    // only the larger remaining block.
    let a = dna(64, 800);
    let small = apply_block_ops(&a, &[BlockOp::Delete { start: 400, len: 20 }]);
    let res_small = align(&a, &small);
    assert!(res_small.transcript.stats().gap_extensions >= 19, "small deletion is bridged");

    let huge = apply_block_ops(&a, &[BlockOp::Delete { start: 300, len: 450 }]);
    let res_huge = align(&a, &huge);
    let span1 = res_huge.end.1 - res_huge.start.1;
    // Bridging 450 gaps costs 5 + 449*2 = 903 > 300-bp block score, so the
    // optimal alignment is a single block.
    assert!(span1 <= 310, "huge deletion must not be bridged, spanned {span1}");
}
