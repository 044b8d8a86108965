//! Stage 5 — obtaining the full alignment (Section IV-F).
//!
//! Every partition left by Stage 4 is at most `max_partition_size` in
//! both dimensions (or has a zero dimension), so each is aligned exactly
//! with the quadratic-space solver in constant memory, in parallel, and
//! the transcripts are concatenated into the full optimal alignment.
//! The result is also packed into the compact binary representation.

use crate::binary::BinaryAlignment;
use crate::crosspoint::{CrosspointChain, Partition};
use crate::obs::Event;
use crate::pipeline::{StageContext, StageError};
use sw_core::full::nw_global_aligned;
use sw_core::transcript::Transcript;

/// Outcome of Stage 5.
#[derive(Debug, Clone)]
pub struct Stage5Result {
    /// The full optimal alignment.
    pub transcript: Transcript,
    /// Its compact binary form.
    pub binary: BinaryAlignment,
    /// DP cells processed.
    pub cells: u64,
}

/// Run Stage 5. Partitions are solved concurrently on the shared `pool`
/// and the transcripts concatenated in partition order.
///
/// `cx.obs` receives the number of partitions about to be solved
/// ([`Event::Partitions`]). The `cx.ctrl` token is checked on entry and
/// again before the per-partition transcripts are merged, so a
/// cancelled/expired run unwinds with a typed error instead of stitching
/// a final alignment. A chain without both a start and an end point is a
/// [`StageError::Logic`].
pub fn run(
    cx: &mut StageContext<'_, '_>,
    chain: &CrosspointChain,
) -> Result<Stage5Result, StageError> {
    let (s0, s1, cfg, pool) = (cx.s0, cx.s1, cx.cfg, cx.pool);
    let (obs, ctrl) = (&mut cx.obs, &cx.ctrl);
    if chain.len() < 2 {
        return Err(StageError::Logic(format!(
            "stage 5 requires a chain with start and end, got {} point(s)",
            chain.len()
        )));
    }
    // Stage-1 checkpoints are gone by now; resume restarts the pipeline
    // from scratch, hence diagonal 0.
    ctrl.check(0)?;
    let sc = cfg.scoring;
    let parts: Vec<Partition> = chain.partitions().collect();
    obs.emit(Event::Partitions { stage: 5, count: parts.len() });
    let workers = pool.lanes_for(cfg.workers);

    let mut results: Vec<Option<Result<(Transcript, u64), String>>> = vec![None; parts.len()];
    let solve = |p: &Partition| -> Result<(Transcript, u64), String> {
        let (sub_a, sub_b) = p.slices(s0, s1);
        let (score, t) = nw_global_aligned(sub_a, sub_b, &sc, p.start.edge, p.end.edge);
        if score != p.score() {
            return Err(format!(
                "partition {:?} solved to {score}, expected {}",
                (p.start, p.end),
                p.score()
            ));
        }
        let cells = (sub_a.len() as u64 + 1) * (sub_b.len() as u64 + 1);
        Ok((t, cells))
    };

    if workers > 1 && parts.len() > 1 {
        let chunk = parts.len().div_ceil(workers.min(parts.len()));
        let solve = &solve;
        pool.scope(|s| {
            // lint: allow(cancel-coverage): bounded spawn fan-out (one task per worker chunk); each solve() polls RunControl
            for (ps, out) in parts.chunks(chunk).zip(results.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (t, p) in ps.iter().enumerate() {
                        out[t] = Some(solve(p));
                    }
                });
            }
        })?;
    } else {
        for (t, p) in parts.iter().enumerate() {
            ctrl.check(0)?;
            results[t] = Some(solve(p));
        }
    }

    let mut transcript = Transcript::new();
    let mut cells = 0u64;
    for (idx, r) in results.into_iter().enumerate() {
        ctrl.check(0)?;
        let (t, c) = r
            .ok_or_else(|| StageError::Logic(format!("stage 5 partition {idx} task never ran")))?
            .map_err(|e| format!("stage 5 partition {idx}: {e}"))?;
        transcript.extend_from(&t);
        cells += c;
    }

    let start_cp = chain.points()[0];
    let end_cp = *chain
        .points()
        .last()
        .ok_or_else(|| StageError::Logic("stage 5 crosspoint chain is empty".into()))?;
    let binary =
        BinaryAlignment::from_transcript((start_cp.i, start_cp.j), end_cp.score, &transcript);
    debug_assert_eq!(binary.end, (end_cp.i, end_cp.j), "transcript must span the chain");

    Ok(Stage5Result { transcript, binary, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::crosspoint::Crosspoint;
    use crate::stage4;
    use gpu_sim::WorkerPool;
    use seqio::generate::edited_pair;
    use sw_core::full::nw_global_typed;
    use sw_core::transcript::EdgeState;
    use sw_core::Scoring;

    fn chain_for(a: &[u8], b: &[u8]) -> CrosspointChain {
        let (score, _) =
            nw_global_typed(a, b, &Scoring::paper(), EdgeState::Diagonal, EdgeState::Diagonal);
        CrosspointChain::new(vec![
            Crosspoint::start(0, 0),
            Crosspoint::end(a.len(), b.len(), score),
        ])
    }

    #[test]
    fn concatenated_transcript_is_the_optimal_alignment() {
        let (a, b) = edited_pair(1, 450, 23);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let chain = chain_for(&a, &b);
        let l4 = stage4::run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &l4.chain).unwrap();
        res.transcript.validate(&a, &b).unwrap();
        let expected = chain.points().last().unwrap().score;
        assert_eq!(res.transcript.score(&a, &b, &Scoring::paper()), expected);
        assert_eq!(res.binary.score, expected);
        assert_eq!(res.binary.start, (0, 0));
        assert_eq!(res.binary.end, (a.len(), b.len()));
    }

    #[test]
    fn binary_roundtrips_through_encoding() {
        let (a, b) = edited_pair(2, 300, 23);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let chain = chain_for(&a, &b);
        let l4 = stage4::run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &l4.chain).unwrap();
        let bytes = res.binary.encode();
        let back = BinaryAlignment::decode(&bytes).unwrap();
        assert_eq!(back, res.binary);
        let t2 = back.to_transcript(&a, &b);
        assert_eq!(t2.ops(), res.transcript.ops());
    }

    #[test]
    fn stage5_memory_is_bounded_by_partition_size() {
        // With max partition size 16, each sub-DP is at most 17x17 cells.
        let (a, b) = edited_pair(3, 600, 23);
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(cfg.workers);
        let chain = chain_for(&a, &b);
        let l4 = stage4::run(&mut StageContext::new(&a, &b, &cfg, &pool), &chain).unwrap();
        for p in l4.chain.partitions() {
            assert!(
                (p.height() <= 16 && p.width() <= 16) || p.height() == 0 || p.width() == 0,
                "oversized partition"
            );
        }
        let res = run(&mut StageContext::new(&a, &b, &cfg, &pool), &l4.chain).unwrap();
        // Total stage-5 work is linear in the alignment length.
        assert!(res.cells <= 17 * 17 * l4.chain.len() as u64);
    }

    #[test]
    fn chain_without_start_and_end_is_a_logic_error() {
        let cfg = PipelineConfig::for_tests();
        let pool = WorkerPool::new(1);
        for points in [vec![], vec![Crosspoint::start(0, 0)]] {
            let err = run(
                &mut StageContext::new(b"ACGT", b"ACGT", &cfg, &pool),
                &CrosspointChain::new(points),
            )
            .unwrap_err();
            assert!(matches!(&err, StageError::Logic(m) if m.contains("start and end")), "{err}");
        }
    }
}
