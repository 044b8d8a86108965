//! The paper's headline property: memory stays linear. The pipeline's
//! auxiliary structures (SRA, special columns, buses, partitions) must
//! respect their configured budgets regardless of input size.

use cudalign::{Pipeline, PipelineConfig};
use seqio::generate::edited_pair;

#[test]
fn sra_and_sca_budgets_are_respected() {
    let (a, b) = edited_pair(11, 1500, 23);
    for rows_budget in [1u64, 3, 9, 30] {
        let mut cfg = PipelineConfig::for_tests();
        cfg.sra_bytes = rows_budget * 8 * (b.len() as u64 + 1);
        cfg.sca_bytes = cfg.sra_bytes / 2;
        let res = Pipeline::new(cfg.clone()).align(&a, &b).unwrap();
        assert!(
            res.stats.sra_bytes_used <= cfg.sra_bytes,
            "SRA overflow: {} > {}",
            res.stats.sra_bytes_used,
            cfg.sra_bytes
        );
        assert!(
            res.stats.sca_bytes_used <= cfg.sca_bytes,
            "SCA overflow: {} > {}",
            res.stats.sca_bytes_used,
            cfg.sca_bytes
        );
    }
}

#[test]
fn stage5_partitions_are_constant_size() {
    let (a, b) = edited_pair(12, 2000, 19);
    let mut cfg = PipelineConfig::for_tests();
    cfg.max_partition_size = 16;
    let res = Pipeline::new(cfg).align(&a, &b).unwrap();
    for p in res.chain.partitions() {
        assert!(
            (p.height() <= 16 && p.width() <= 16) || p.height() == 0 || p.width() == 0,
            "partition {:?} exceeds the maximum partition size",
            (p.start, p.end)
        );
    }
    // Stage-5 work is linear in the alignment length, not quadratic in n.
    assert!(res.stats.stage5_cells <= 17 * 17 * res.chain.len() as u64);
}

#[test]
fn bus_memory_is_linear_not_quadratic() {
    let (a, b) = edited_pair(13, 3000, 29);
    let res = Pipeline::new(PipelineConfig::for_tests()).align(&a, &b).unwrap();
    // VRAM estimates are O(m + n): generously, 64 bytes per bp.
    let linear_bound = 64 * (a.len() as u64 + b.len() as u64);
    for (k, &v) in res.stats.vram_bytes.iter().enumerate() {
        assert!(v <= linear_bound, "stage {} bus memory {v} not linear", k + 1);
    }
}

#[test]
fn growing_input_grows_sra_use_sublinearly() {
    // With a fixed SRA budget, doubling the input must not double the
    // bytes stored (the flush interval adapts).
    let mut used = Vec::new();
    for len in [500usize, 1000, 2000] {
        let (a, b) = edited_pair(14, len, 31);
        let mut cfg = PipelineConfig::for_tests();
        cfg.sra_bytes = 64 << 10;
        let res = Pipeline::new(cfg).align(&a, &b).unwrap();
        used.push(res.stats.sra_bytes_used);
    }
    for u in &used {
        assert!(*u <= 64 << 10);
    }
}
