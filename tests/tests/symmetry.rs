//! Symmetry invariants of the whole pipeline: reversing or transposing
//! the inputs must transform the result predictably.

use cudalign::{Pipeline, PipelineConfig};
use seqio::generate::edited_pair;

#[test]
fn transposing_inputs_preserves_score_and_mirrors_coordinates() {
    let (a, b) = edited_pair(81, 500, 19);
    let fwd = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    let swp = Pipeline::new(PipelineConfig::for_tests()).align(&b, &a).unwrap();
    assert_eq!(fwd.best_score, swp.best_score);
    // The optimal alignment of the transposed problem is the mirror:
    // same span sizes on swapped axes (endpoints may differ among ties,
    // but the unique-optimum spans here are stable).
    assert_eq!(fwd.end.0 - fwd.start.0, swp.end.1 - swp.start.1);
    assert_eq!(fwd.end.1 - fwd.start.1, swp.end.0 - swp.start.0);
    // Gap types swap roles.
    let s_fwd = fwd.transcript.stats();
    let s_swp = swp.transcript.stats();
    assert_eq!(s_fwd.matches, s_swp.matches);
    assert_eq!(s_fwd.gap_openings, s_swp.gap_openings);
    assert_eq!(s_fwd.gap_extensions, s_swp.gap_extensions);
}

#[test]
fn reversing_both_inputs_preserves_score() {
    let (a, b) = edited_pair(82, 450, 23);
    let fwd = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    let ar: Vec<u8> = a.iter().rev().copied().collect();
    let br: Vec<u8> = b.iter().rev().copied().collect();
    let rev = Pipeline::new(PipelineConfig::for_tests()).align(&ar, &br).unwrap();
    assert_eq!(fwd.best_score, rev.best_score);
    // The reversed problem's span mirrors the forward one's.
    assert_eq!(fwd.end.0 - fwd.start.0, rev.end.0 - rev.start.0, "span must be reversal-invariant");
}

#[test]
fn scoring_scale_invariance() {
    // Doubling all scoring parameters doubles the score and preserves
    // the alignment (no tie-structure change).
    let (a, b) = edited_pair(83, 300, 17);
    let mut cfg1 = PipelineConfig::for_tests();
    cfg1.scoring = sw_core::Scoring::new(1, -3, 5, 2);
    let r1 = Pipeline::new(cfg1).align(&a, &b).unwrap();
    let mut cfg2 = PipelineConfig::for_tests();
    cfg2.scoring = sw_core::Scoring::new(2, -6, 10, 4);
    let r2 = Pipeline::new(cfg2).align(&a, &b).unwrap();
    assert_eq!(r2.best_score, 2 * r1.best_score);
    assert_eq!(r1.transcript.stats().matches, r2.transcript.stats().matches);
}
