//! End-to-end user workflow: sequences travel through FASTA files, the
//! pipeline, the binary alignment format and the Stage-6 renderers
//! without losing information.

use cudalign::{stage6, BinaryAlignment, Pipeline, PipelineConfig};
use seqio::fasta;
use seqio::generate::edited_pair;
use sw_core::Sequence;

#[test]
fn fasta_roundtrip_preserves_alignment() {
    let (a, b) = edited_pair(31, 400, 21);
    let s0 = Sequence::new("query", a.clone()).unwrap();
    let s1 = Sequence::new("target", b.clone()).unwrap();

    let dir = std::env::temp_dir().join(format!("cudalign-fasta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p0 = dir.join("a.fasta");
    let p1 = dir.join("b.fasta");
    fasta::write_fasta_file(&p0, [&s0]).unwrap();
    fasta::write_fasta_file(&p1, [&s1]).unwrap();

    let r0 = fasta::read_fasta_file(&p0).unwrap();
    let r1 = fasta::read_fasta_file(&p1).unwrap();
    assert_eq!(r0[0].bases(), &a[..]);
    assert_eq!(r1[0].bases(), &b[..]);

    let direct = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    let via_fasta =
        Pipeline::new(PipelineConfig::for_tests()).align(r0[0].bases(), r1[0].bases()).unwrap();
    assert_eq!(direct.best_score, via_fasta.best_score);
    assert_eq!(direct.transcript.ops(), via_fasta.transcript.ops());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_file_roundtrip_and_rendering() {
    let (a, b) = edited_pair(32, 500, 17);
    let res = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    assert!(res.best_score > 0);

    let bytes = res.binary.encode();
    let decoded = BinaryAlignment::decode(&bytes).unwrap();
    assert_eq!(decoded, res.binary);

    // Stage 6 reconstruction from the decoded form matches the original.
    let t = decoded.to_transcript(&a, &b);
    assert_eq!(t.ops(), res.transcript.ops());

    // The text rendering contains the aligned subsequences and is much
    // larger than the binary (the paper reports 279x for chromosomes).
    let text = stage6::render_text(&a, &b, &decoded, 70);
    assert!(text.len() > bytes.len());
    assert!(text.contains(&format!("score {}", res.best_score)));

    // The dot plot has the right canvas size.
    let plot = stage6::dot_plot(a.len(), b.len(), &decoded, &t, 10, 40);
    assert_eq!(plot.lines().count(), 11); // header + 10 rows
    assert!(plot.contains('*'));
}
