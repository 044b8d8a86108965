//! Cross-crate agreement: the six-stage pipeline, the Z-align baseline,
//! the sequential linear-space aligner and the quadratic reference must
//! produce the same optimal score (and equivalent alignments) on every
//! workload class of the paper's Table II.

use baselines::{mm_local_align, quadratic_align, zalign};
use cudalign::{Pipeline, PipelineConfig};
use seqio::generate::edited_pair;
use seqio::DatasetRegistry;
use sw_core::Scoring;

fn check_all_agree(a: &[u8], b: &[u8], label: &str) {
    let sc = Scoring::paper();
    let quad = quadratic_align(a, b, &sc, 1 << 30);
    let ref_score = quad.alignment.as_ref().map_or(0, |al| al.score);

    let pipe = Pipeline::new(PipelineConfig::for_tests()).align(a, b).unwrap();
    assert_eq!(pipe.best_score, ref_score, "{label}: pipeline vs quadratic");

    let mm = mm_local_align(a, b, &sc);
    assert_eq!(mm.score, ref_score, "{label}: mm_local vs quadratic");

    let z = zalign(a, b, &sc, 3);
    assert_eq!(z.score, ref_score, "{label}: zalign vs quadratic");

    if ref_score > 0 {
        // All ends agree (deterministic tie-break shared by every
        // implementation).
        let q = quad.alignment.unwrap();
        assert_eq!(pipe.end, q.end, "{label}: pipeline end");
        assert_eq!(mm.end, q.end, "{label}: mm end");
        assert_eq!(z.end, q.end, "{label}: zalign end");
        // Transcripts all rescore to the optimum.
        for (name, start, end, t) in [
            ("pipeline", pipe.start, pipe.end, &pipe.transcript),
            ("mm", mm.start, mm.end, &mm.transcript),
            ("zalign", z.start, z.end, &z.transcript),
        ] {
            let sub_a = &a[start.0..end.0];
            let sub_b = &b[start.1..end.1];
            t.validate(sub_a, sub_b).unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
            assert_eq!(t.score(sub_a, sub_b, &sc), ref_score, "{label}/{name} score");
        }
    }
}

#[test]
fn agreement_on_edited_pairs() {
    for seed in 1..6u64 {
        let (a, b) = edited_pair(seed, 320, 17);
        check_all_agree(&a, &b, &format!("edited-{seed}"));
    }
}

#[test]
fn agreement_on_registry_pairs() {
    // High scale so the suite stays quick; every similarity class runs.
    let reg = DatasetRegistry::paper();
    for spec in reg.pairs() {
        let (s0, s1) = spec.materialize(40_000, 7);
        check_all_agree(s0.bases(), s1.bases(), spec.key);
    }
}

#[test]
fn agreement_on_pathological_shapes() {
    // Long thin matrices, gap-dominated alignments, near-empty inputs.
    let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (vec![b'A'; 500], vec![b'A'; 3]),
        (vec![b'A'; 3], vec![b'A'; 500]),
        (b"ACGT".repeat(100), b"TGCA".repeat(100)),
        (vec![b'G'; 1], vec![b'G'; 1]),
    ];
    for (i, (a, b)) in cases.iter().enumerate() {
        check_all_agree(a, b, &format!("shape-{i}"));
    }
}
