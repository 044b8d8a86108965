//! Synthetic DNA generation.
//!
//! The paper evaluates on real chromosomes whose *content* is irrelevant to
//! the algorithm: what matters is sequence length and the similarity
//! regime (from "no homology at all" — best local alignment of a few bases
//! — to "whole-chromosome homology" with ~94 % identity). This module
//! generates both regimes deterministically from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sw_core::Sequence;

const BASES: [u8; 4] = *b"ACGT";

/// Uniform random DNA of the given length.
pub fn random_dna(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| BASES[rng.gen_range(0..4)]).collect()
}

/// Uniform random DNA drawn from its own seeded stream: distinct seeds
/// give distinct sequences, and `dna(s, n)` is a prefix of `dna(s, m)`
/// for `n <= m`. The tests' one source of seeded DNA.
pub fn dna(seed: u64, len: usize) -> Vec<u8> {
    random_dna(&mut StdRng::seed_from_u64(seed), len)
}

/// A homologous pair by point edits: `b` is `a = dna(seed, len)` with a
/// substitution every `snp_every` bases (starting at `snp_every / 2`)
/// and, when `len >= 60`, 11 bases deleted at `len / 3` and 7 random
/// bases inserted at the middle.
pub fn edited_pair(seed: u64, len: usize, snp_every: usize) -> (Vec<u8>, Vec<u8>) {
    let a = dna(seed, len);
    let mut b = a.clone();
    for i in (snp_every / 2..b.len()).step_by(snp_every.max(2)) {
        b[i] = match b[i] {
            b'A' => b'C',
            b'C' => b'G',
            b'G' => b'T',
            _ => b'A',
        };
    }
    if len >= 60 {
        b.drain(len / 3..len / 3 + 11);
        let at = b.len() / 2;
        b.splice(at..at, dna(seed ^ 0xDEAD, 7));
    }
    (a, b)
}

/// Mutation model applied to a seed sequence to derive its homolog.
///
/// The defaults reproduce the human↔chimpanzee regime of the paper's
/// Table X: ~94 % match columns, ~1.5 % mismatch columns and gap runs with
/// a geometric length distribution (~4 % of columns inside gaps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomologyParams {
    /// Per-base substitution probability.
    pub snp_rate: f64,
    /// Per-base probability that an indel starts here.
    pub indel_rate: f64,
    /// Mean indel length (geometric distribution).
    pub indel_mean_len: f64,
    /// Probability that a started indel is an insertion (vs deletion).
    pub insert_prob: f64,
}

impl Default for HomologyParams {
    fn default() -> Self {
        HomologyParams::chromosome()
    }
}

impl HomologyParams {
    /// Human↔chimpanzee-like divergence (Table X regime).
    pub fn chromosome() -> Self {
        HomologyParams {
            snp_rate: 0.016,
            indel_rate: 0.002,
            indel_mean_len: 10.0,
            insert_prob: 0.5,
        }
    }

    /// Near-identical strains (the paper's two *Bacillus anthracis*
    /// genomes: full-length alignment with very few gaps).
    pub fn strain() -> Self {
        HomologyParams {
            snp_rate: 0.001,
            indel_rate: 0.0002,
            indel_mean_len: 4.0,
            insert_prob: 0.5,
        }
    }

    /// Strong divergence: alignments still span the homologous region but
    /// with many mismatches and gaps (the *Chlamydia* pair regime, whose
    /// optimal alignment covers ~45 % of the genomes with modest score).
    pub fn diverged() -> Self {
        HomologyParams { snp_rate: 0.18, indel_rate: 0.02, indel_mean_len: 6.0, insert_prob: 0.5 }
    }
}

/// Clamp a probability into `[0, 1]`, mapping NaN to 0 (rand's
/// `gen_bool` panics outside the unit interval).
fn prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Apply the mutation model, returning the mutated copy.
pub fn mutate(rng: &mut StdRng, seed_seq: &[u8], params: &HomologyParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(seed_seq.len() + seed_seq.len() / 16);
    let mut i = 0usize;
    while i < seed_seq.len() {
        if rng.gen_bool(prob(params.indel_rate)) {
            let len = geometric_len(rng, params.indel_mean_len);
            if rng.gen_bool(prob(params.insert_prob)) {
                for _ in 0..len {
                    out.push(BASES[rng.gen_range(0..4)]);
                }
                // insertion does not consume input
            } else {
                i = (i + len).min(seed_seq.len());
                continue;
            }
        }
        let b = seed_seq[i];
        if rng.gen_bool(prob(params.snp_rate)) {
            out.push(other_base(rng, b));
        } else {
            out.push(b);
        }
        i += 1;
    }
    out
}

fn geometric_len(rng: &mut StdRng, mean: f64) -> usize {
    let mean = mean.max(1.0);
    let p = 1.0 / mean;
    let mut len = 1usize;
    while len < 10_000 && !rng.gen_bool(p) {
        len += 1;
    }
    len
}

fn other_base(rng: &mut StdRng, b: u8) -> u8 {
    loop {
        let c = BASES[rng.gen_range(0..4)];
        if c != b {
            return c;
        }
    }
}

/// The DNA complement of a base (`N` maps to itself).
pub fn complement(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'T' => b'A',
        b'C' => b'G',
        b'G' => b'C',
        other => other,
    }
}

/// Reverse complement — real chromosome homologies frequently appear on
/// the opposite strand; workloads built with this exercise the aligner on
/// inverted segments.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement(b)).collect()
}

/// A large-scale rearrangement operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOp {
    /// Duplicate `[start, start+len)` immediately after itself.
    Duplicate {
        /// Segment start.
        start: usize,
        /// Segment length.
        len: usize,
    },
    /// Delete `[start, start+len)`.
    Delete {
        /// Segment start.
        start: usize,
        /// Segment length.
        len: usize,
    },
    /// Move `[start, start+len)` to position `to` (in the remaining
    /// sequence's coordinates).
    Translocate {
        /// Segment start.
        start: usize,
        /// Segment length.
        len: usize,
        /// Destination offset after removal.
        to: usize,
    },
    /// Reverse-complement `[start, start+len)` in place (an inversion).
    Invert {
        /// Segment start.
        start: usize,
        /// Segment length.
        len: usize,
    },
}

/// Apply block rearrangements in order. Out-of-range segments are
/// clamped; zero-length segments are no-ops.
pub fn apply_block_ops(seq: &[u8], ops: &[BlockOp]) -> Vec<u8> {
    let mut out = seq.to_vec();
    for &op in ops {
        match op {
            BlockOp::Duplicate { start, len } => {
                let start = start.min(out.len());
                let end = (start + len).min(out.len());
                let seg: Vec<u8> = out[start..end].to_vec();
                out.splice(end..end, seg);
            }
            BlockOp::Delete { start, len } => {
                let start = start.min(out.len());
                let end = (start + len).min(out.len());
                out.drain(start..end);
            }
            BlockOp::Translocate { start, len, to } => {
                let start = start.min(out.len());
                let end = (start + len).min(out.len());
                let seg: Vec<u8> = out.drain(start..end).collect();
                let to = to.min(out.len());
                out.splice(to..to, seg);
            }
            BlockOp::Invert { start, len } => {
                let start = start.min(out.len());
                let end = (start + len).min(out.len());
                let seg = reverse_complement(&out[start..end]);
                out.splice(start..end, seg);
            }
        }
    }
    out
}

/// A pair of unrelated random sequences (no planted homology; the optimal
/// local alignment is a short random coincidence, like the paper's
/// herpes-virus comparison that scored 18 over 162 KBP × 172 KBP).
pub fn unrelated_pair(seed: u64, len0: usize, len1: usize) -> (Sequence, Sequence) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s0 = random_dna(&mut rng, len0);
    let s1 = random_dna(&mut rng, len1);
    (Sequence::new_unchecked("random-0", s0), Sequence::new_unchecked("random-1", s1))
}

/// A fully homologous pair: `s1` is a mutated copy of `s0` (± size drift
/// from indels). Mirrors the *B. anthracis* and human/chimpanzee regimes.
pub fn homologous_pair(seed: u64, len: usize, params: &HomologyParams) -> (Sequence, Sequence) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s0 = random_dna(&mut rng, len);
    let s1 = mutate(&mut rng, &s0, params);
    (Sequence::new_unchecked("homolog-0", s0), Sequence::new_unchecked("homolog-1", s1))
}

/// A pair sharing one homologous *island* embedded in otherwise unrelated
/// sequence (the *Corynebacterium* / *Drosophila* regimes: a short
/// optimal alignment inside megabase sequences).
///
/// `island_len` bases are shared (mutated by `params`) and planted at
/// `pos0`/`pos1`; the rest is random.
pub fn island_pair(
    seed: u64,
    len0: usize,
    len1: usize,
    island_len: usize,
    params: &HomologyParams,
) -> (Sequence, Sequence) {
    assert!(island_len <= len0 && island_len <= len1, "island larger than sequence");
    let mut rng = StdRng::seed_from_u64(seed);
    let island = random_dna(&mut rng, island_len);
    let island_mut = mutate(&mut rng, &island, params);

    let pos0 = if len0 == island_len { 0 } else { rng.gen_range(0..len0 - island_len) };
    let mut s0 = random_dna(&mut rng, len0);
    s0[pos0..pos0 + island_len].copy_from_slice(&island);

    let room1 = len1.saturating_sub(island_mut.len());
    let pos1 = if room1 == 0 { 0 } else { rng.gen_range(0..room1) };
    let mut s1 = random_dna(&mut rng, len1);
    let end1 = (pos1 + island_mut.len()).min(len1);
    s1[pos1..end1].copy_from_slice(&island_mut[..end1 - pos1]);

    (Sequence::new_unchecked("island-0", s0), Sequence::new_unchecked("island-1", s1))
}

/// A homologous pair where `s1` additionally carries an unrelated flank on
/// each side (the human chromosome 21 is ~14 MBP longer than chimpanzee
/// chromosome 22; the optimal alignment covers the shared part only).
pub fn homologous_with_flanks(
    seed: u64,
    core_len: usize,
    flank_left: usize,
    flank_right: usize,
    params: &HomologyParams,
) -> (Sequence, Sequence) {
    let mut rng = StdRng::seed_from_u64(seed);
    let core = random_dna(&mut rng, core_len);
    let core_mut = mutate(&mut rng, &core, params);
    let mut s1 = random_dna(&mut rng, flank_left);
    s1.extend_from_slice(&core_mut);
    s1.extend(random_dna(&mut rng, flank_right));
    (Sequence::new_unchecked("core", core), Sequence::new_unchecked("core+flanks", s1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dna_is_valid_and_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = random_dna(&mut r1, 1000);
        let b = random_dna(&mut r2, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| BASES.contains(c)));
        // Roughly uniform base composition.
        let count_a = a.iter().filter(|&&c| c == b'A').count();
        assert!((150..350).contains(&count_a), "A count {count_a}");
    }

    #[test]
    fn dna_is_deterministic() {
        assert_eq!(dna(7, 64), dna(7, 64));
        assert_eq!(dna(7, 64), random_dna(&mut StdRng::seed_from_u64(7), 64));
        assert_eq!(dna(7, 40)[..], dna(7, 64)[..40]);
    }

    #[test]
    fn dna_seeds_give_distinct_sequences() {
        // Each seed has its own stream (an LCG started at `seed | 1` maps
        // seeds 2k and 2k+1 to one sequence).
        let seqs: Vec<Vec<u8>> = (0..64).map(|s| dna(s, 32)).collect();
        for (i, x) in seqs.iter().enumerate() {
            for (j, y) in seqs.iter().enumerate().skip(i + 1) {
                assert_ne!(x, y, "seeds {i} and {j} give one sequence");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let (a1, b1) = edited_pair(3, 200, 13);
        let (a2, b2) = edited_pair(3, 200, 13);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1);
        assert_eq!(a1, dna(3, 200));
        // 11 bases out, 7 in.
        assert_eq!(b1.len(), 196);
    }

    #[test]
    fn mutate_respects_rates() {
        let mut rng = StdRng::seed_from_u64(7);
        let seed_seq = random_dna(&mut rng, 20_000);
        let p = HomologyParams {
            snp_rate: 0.05,
            indel_rate: 0.0,
            indel_mean_len: 1.0,
            insert_prob: 0.5,
        };
        let out = mutate(&mut rng, &seed_seq, &p);
        assert_eq!(out.len(), seed_seq.len());
        let diffs = out.iter().zip(&seed_seq).filter(|(a, b)| a != b).count();
        let rate = diffs as f64 / seed_seq.len() as f64;
        assert!((0.03..0.07).contains(&rate), "snp rate {rate}");
    }

    #[test]
    fn mutate_indels_change_length() {
        let mut rng = StdRng::seed_from_u64(9);
        let seed_seq = random_dna(&mut rng, 50_000);
        let p = HomologyParams {
            snp_rate: 0.0,
            indel_rate: 0.01,
            indel_mean_len: 8.0,
            insert_prob: 0.5,
        };
        let out = mutate(&mut rng, &seed_seq, &p);
        assert_ne!(out.len(), seed_seq.len());
        // Insertions and deletions are balanced, so drift is bounded.
        let drift = (out.len() as i64 - seed_seq.len() as i64).unsigned_abs() as usize;
        assert!(drift < seed_seq.len() / 10, "drift {drift}");
    }

    #[test]
    fn island_pair_plants_shared_segment() {
        let (s0, s1) = island_pair(3, 5000, 6000, 800, &HomologyParams::strain());
        assert_eq!(s0.len(), 5000);
        assert_eq!(s1.len(), 6000);
        // The island appears nearly verbatim in both: find the longest
        // common substring cheaply via a 32-mer probe.
        let probe_found = (0..s0.len() - 32).step_by(16).any(|i| {
            let probe = &s0.bases()[i..i + 32];
            s1.bases().windows(32).any(|w| w == probe)
        });
        assert!(probe_found, "no shared 32-mer found");
    }

    #[test]
    fn unrelated_pair_shares_no_long_substring() {
        let (s0, s1) = unrelated_pair(11, 4000, 4000);
        // A shared 32-mer between unrelated random 4k sequences is
        // astronomically unlikely.
        let probe_found = (0..s0.len() - 32).step_by(8).any(|i| {
            let probe = &s0.bases()[i..i + 32];
            s1.bases().windows(32).any(|w| w == probe)
        });
        assert!(!probe_found);
    }

    #[test]
    fn flank_pair_lengths() {
        let (s0, s1) = homologous_with_flanks(5, 3000, 700, 300, &HomologyParams::strain());
        assert_eq!(s0.len(), 3000);
        assert!(s1.len() > 3000, "flanked sequence must be longer");
        assert!((3900..4200).contains(&s1.len()), "len {}", s1.len());
    }

    #[test]
    fn complement_and_reverse_complement() {
        assert_eq!(complement(b'A'), b'T');
        assert_eq!(complement(b'G'), b'C');
        assert_eq!(complement(b'N'), b'N');
        assert_eq!(reverse_complement(b"ACGTN"), b"NACGT");
        // Involution.
        let mut rng = StdRng::seed_from_u64(1);
        let s = random_dna(&mut rng, 100);
        assert_eq!(reverse_complement(&reverse_complement(&s)), s);
    }

    #[test]
    fn block_ops_apply_in_order() {
        let s = b"AAACCCGGGTTT";
        let dup = apply_block_ops(s, &[BlockOp::Duplicate { start: 3, len: 3 }]);
        assert_eq!(dup, b"AAACCCCCCGGGTTT");
        let del = apply_block_ops(s, &[BlockOp::Delete { start: 0, len: 3 }]);
        assert_eq!(del, b"CCCGGGTTT");
        let tr = apply_block_ops(s, &[BlockOp::Translocate { start: 0, len: 3, to: 9 }]);
        assert_eq!(tr, b"CCCGGGTTTAAA");
        let inv = apply_block_ops(s, &[BlockOp::Invert { start: 3, len: 3 }]);
        assert_eq!(inv, b"AAAGGGGGGTTT");
        // Chained ops compose left to right.
        let chained = apply_block_ops(
            s,
            &[BlockOp::Delete { start: 0, len: 6 }, BlockOp::Duplicate { start: 0, len: 3 }],
        );
        assert_eq!(chained, b"GGGGGGTTT");
    }

    #[test]
    fn block_ops_clamp_out_of_range() {
        let s = b"ACGT";
        assert_eq!(apply_block_ops(s, &[BlockOp::Delete { start: 10, len: 5 }]), s);
        assert_eq!(apply_block_ops(s, &[BlockOp::Duplicate { start: 2, len: 100 }]), b"ACGTGT");
        assert_eq!(
            apply_block_ops(s, &[BlockOp::Translocate { start: 0, len: 2, to: 99 }]),
            b"GTAC"
        );
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = homologous_pair(123, 2000, &HomologyParams::chromosome());
        let b = homologous_pair(123, 2000, &HomologyParams::chromosome());
        assert_eq!(a.0.bases(), b.0.bases());
        assert_eq!(a.1.bases(), b.1.bases());
        let c = homologous_pair(124, 2000, &HomologyParams::chromosome());
        assert_ne!(a.1.bases(), c.1.bases());
    }
}
