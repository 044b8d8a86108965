//! End-to-end property tests: the six-stage pipeline must reproduce the
//! quadratic-space reference on arbitrary inputs, for arbitrary grid
//! shapes and SRA budgets.

use cudalign::config::SraBackend;
use cudalign::sra::{LineStore, Put};
use cudalign::{storage, Pipeline, PipelineConfig};
use gpu_sim::{CellHF, GridSpec};
use proptest::prelude::*;
use sw_core::full::sw_local_score;
use sw_core::Scoring;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..max_len)
}

/// Pairs with planted structure so alignments are non-trivial.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna(400), any::<u64>()).prop_map(|(a, seed)| {
        let mut b = a.clone();
        let mut x = seed | 1;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..6 {
            if b.len() < 4 {
                break;
            }
            let r = step();
            let pos = (r as usize >> 8) % b.len();
            match r % 3 {
                0 => b[pos] = b"ACGT"[(r as usize >> 40) & 3],
                1 => {
                    let del = (1 + (r >> 16) as usize % 20).min(b.len() - pos);
                    b.drain(pos..pos + del);
                }
                _ => {
                    for k in 0..(1 + (r >> 16) as usize % 12) {
                        b.insert(pos, b"ACGT"[(r as usize >> (2 * k)) & 3]);
                    }
                }
            }
        }
        (a, b)
    })
}

fn small_grids() -> impl Strategy<Value = GridSpec> {
    (1usize..6, 1usize..6, 1usize..4).prop_map(|(blocks, threads, alpha)| GridSpec {
        blocks,
        threads,
        alpha,
    })
}

fn check(a: &[u8], b: &[u8], cfg: PipelineConfig) -> Result<(), TestCaseError> {
    let res = Pipeline::new(cfg).align(a, b).unwrap();
    let (ref_score, ref_end) = sw_local_score(a, b, &Scoring::paper());
    prop_assert_eq!(res.best_score, ref_score);
    if ref_score > 0 {
        prop_assert_eq!(res.end, ref_end);
        let sub_a = &a[res.start.0..res.end.0];
        let sub_b = &b[res.start.1..res.end.1];
        res.transcript.validate(sub_a, sub_b).unwrap();
        prop_assert_eq!(res.transcript.score(sub_a, sub_b, &Scoring::paper()), ref_score);
        // The binary form reconstructs the same transcript.
        let t2 = res.binary.to_transcript(a, b);
        prop_assert_eq!(t2.ops(), res.transcript.ops());
        // The final chain telescopes.
        res.chain.validate().unwrap();
        let total: i32 = res.chain.partitions().map(|p| p.score()).sum();
        prop_assert_eq!(total, ref_score);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipeline_equals_reference((a, b) in related_pair()) {
        check(&a, &b, PipelineConfig::for_tests())?;
    }

    #[test]
    fn pipeline_invariant_to_grid_shape((a, b) in related_pair(), g1 in small_grids(), g23 in small_grids()) {
        let mut cfg = PipelineConfig::for_tests();
        cfg.grid1 = g1;
        cfg.grid23 = g23;
        check(&a, &b, cfg)?;
    }

    #[test]
    fn pipeline_invariant_to_sra_budget((a, b) in related_pair(), rows_budget in 0u64..64, cols_budget in 0u64..64) {
        let mut cfg = PipelineConfig::for_tests();
        // Budgets in units of "rows": 0 means no special rows at all.
        cfg.sra_bytes = rows_budget * 8 * (b.len() as u64 + 1);
        cfg.sca_bytes = cols_budget * 8 * 64;
        check(&a, &b, cfg)?;
    }

    #[test]
    fn pipeline_invariant_to_stage4_flags((a, b) in related_pair(), orth in any::<bool>(), bal in any::<bool>(), max_part in 4usize..64) {
        let mut cfg = PipelineConfig::for_tests();
        cfg.orthogonal_stage4 = orth;
        cfg.balanced_split = bal;
        cfg.max_partition_size = max_part;
        check(&a, &b, cfg)?;
    }

    #[test]
    fn pipeline_on_unrelated_random(a in dna(300), b in dna(300)) {
        check(&a, &b, PipelineConfig::for_tests())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary bytes must never panic — it either parses or
    /// reports a structured error (failure injection for Stage 6).
    #[test]
    fn binary_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = cudalign::BinaryAlignment::decode(&bytes);
    }

    /// Corrupting an encoded alignment must not panic the decoder; when
    /// it still parses, re-encoding is stable.
    #[test]
    fn binary_decode_survives_corruption((a, b) in related_pair(), flip in any::<(usize, u8)>()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let res = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
        prop_assume!(res.best_score > 0);
        let mut bytes = res.binary.encode();
        let (pos, val) = flip;
        let k = pos % bytes.len();
        bytes[k] ^= val | 1;
        if let Ok(decoded) = cudalign::BinaryAlignment::decode(&bytes) {
            let re = decoded.encode();
            let back = cudalign::BinaryAlignment::decode(&re).unwrap();
            prop_assert_eq!(back, decoded);
        }
    }
}

/// A fresh directory per proptest case; cases run concurrently inside one
/// process, so the name carries a global counter besides the pid.
fn case_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "cudalign-prop-store-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damaging any single stored line file — truncating it anywhere,
    /// flipping any bit, restamping it with a foreign fingerprint, or
    /// renaming it to another line's slot — makes `reopen` reject and
    /// delete exactly that file, never panic, never serve wrong cells;
    /// every intact line survives byte-identical.
    #[test]
    fn reopen_survives_single_file_damage(
        n_lines in 2usize..6,
        line_len in 1usize..9,
        victim in 0usize..8,
        kind in 0u8..4,
        at in any::<usize>(),
    ) {
        const FP: u64 = 0xF00D;
        let dir = case_dir();
        let backend = SraBackend::Disk(dir.clone());
        let cell = |i: usize, k: usize| CellHF { h: (i * 100 + k) as i32, f: k as i32 - 3 };

        {
            let mut store: LineStore<CellHF> =
                LineStore::new(&backend, 1 << 20, "row", FP).unwrap();
            for i in 0..n_lines {
                let idx = (i + 1) * 3;
                prop_assert!(store.try_begin_line(idx, i, line_len));
                prop_assert_eq!(store.put_segment(idx, i, (0..line_len).map(|k| cell(i, k))), Put::Stored);
            }
            store.persist_on_drop(true);
        }

        let vi = victim % n_lines;
        let vidx = (vi + 1) * 3;
        let path = dir.join(format!("row-{vidx}-{vi}.bin"));
        let bytes = std::fs::read(&path).unwrap();
        match kind {
            0 => {
                // Truncate to any strictly shorter length (torn write).
                std::fs::write(&path, &bytes[..at % bytes.len()]).unwrap();
            }
            1 => {
                // Flip one bit anywhere — header fields included.
                let mut b = bytes;
                let pos = at % b.len();
                b[pos] ^= 1 << (at % 8);
                std::fs::write(&path, &b).unwrap();
            }
            2 => {
                // A fully valid frame from some other job.
                let meta = storage::FrameMeta {
                    fingerprint: FP + 1,
                    index: vidx as u64,
                    origin: vi as u64,
                    len: line_len as u64,
                };
                storage::write_frame(&path, &meta, &bytes[storage::FRAME_HEADER_BYTES..])
                    .unwrap();
            }
            _ => {
                // A valid frame under the wrong name ((i+1)*3 + 1 never
                // collides with another line's slot).
                std::fs::rename(&path, dir.join(format!("row-{}-{vi}.bin", vidx + 1)))
                    .unwrap();
            }
        }

        let reopened: LineStore<CellHF> =
            LineStore::reopen(&backend, 1 << 20, "row", FP).unwrap();
        prop_assert_eq!(reopened.stats().rejected_files, 1);
        prop_assert!(reopened.get(vidx).unwrap().is_none(), "damaged line never served");
        for i in (0..n_lines).filter(|&i| i != vi) {
            let idx = (i + 1) * 3;
            let (origin, cells) = reopened.get(idx).unwrap().unwrap();
            prop_assert_eq!(origin, i);
            prop_assert_eq!(cells.len(), line_len);
            for (k, c) in cells.iter().enumerate() {
                prop_assert_eq!(*c, cell(i, k));
            }
        }
        let survivors = std::fs::read_dir(&dir).unwrap().count();
        prop_assert_eq!(survivors, n_lines - 1, "rejected file deleted, intact kept");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
