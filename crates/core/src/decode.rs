//! Shared trace-decoding utilities for the RSA and SRP attacks.
//!
//! Both attacks observe the victim's multiply routine through eviction
//! events. Two microarchitectural facts shape the sample stream:
//!
//! 1. The multiply routine *executes continuously* for the whole
//!    multiplication (its inner loop keeps refetching its own code line),
//!    so every attacker sample whose prime→probe window overlaps a
//!    multiplication reads as active: one multiplication = one contiguous
//!    **burst** of active samples (the paper's Figure 4 dips).
//! 2. Squares and multiplies cost the same Montgomery-multiplication time,
//!    so burst start-to-start distances are near-integer multiples of one
//!    operation — and always at least two (a multiply is always followed
//!    by at least one square before the next multiply).
//!
//! The decoder therefore self-calibrates: the median burst *length* is a
//! first estimate of the one-operation unit (a multiplication spans one
//! operation), refined by comb-fitting the start-to-start gaps.

/// Indices of activity-burst starts (consecutive active samples form one
/// burst).
pub fn burst_starts(actives: &[bool]) -> Vec<usize> {
    let mut events = Vec::new();
    let mut prev = false;
    for (i, a) in actives.iter().enumerate() {
        if *a && !prev {
            events.push(i);
        }
        prev = *a;
    }
    events
}

/// A maximal run of consecutive active samples — one multiplication.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Burst {
    /// Sample index of the first active sample.
    pub first: usize,
    /// Sample index of the last active sample.
    pub last: usize,
}

impl Burst {
    /// Burst length in samples (always at least one).
    #[allow(clippy::len_without_is_empty)] // a burst contains >= 1 sample
    pub fn len(&self) -> usize {
        self.last - self.first + 1
    }
}

/// Extract activity bursts, bridging single-sample dropouts (a sample
/// whose prime→probe window happened to miss the victim's refetch).
pub fn bursts(actives: &[bool]) -> Vec<Burst> {
    let mut out: Vec<Burst> = Vec::new();
    for (i, a) in actives.iter().enumerate() {
        if !*a {
            continue;
        }
        match out.last_mut() {
            Some(b) if i - b.last <= 2 => b.last = i,
            _ => out.push(Burst { first: i, last: i }),
        }
    }
    out
}

/// Estimate the one-operation unit (in samples) from the bursts.
///
/// Seed: the median burst length (a multiplication spans one operation).
/// Refine: three rounds of weighted comb fitting against the *inactive*
/// gaps between bursts, whose lengths are near-integer unit multiples.
/// Inactive gaps are used (rather than start-to-start distances) because
/// they stay correct even when a burst's leading samples are clipped —
/// e.g. the trace-start transient around the very first multiplication.
pub fn estimate_unit(bursts: &[Burst]) -> Option<f64> {
    if bursts.is_empty() {
        return None;
    }
    let mut lens: Vec<f64> = bursts.iter().map(|b| b.len() as f64).collect();
    lens.sort_by(|a, b| a.partial_cmp(b).expect("lengths are finite"));
    let mut unit = lens[lens.len() / 2].max(1.0);
    let gaps: Vec<f64> = inactive_gaps(bursts);
    if gaps.is_empty() {
        return Some(unit);
    }
    for _ in 0..3 {
        let mut num = 0.0;
        let mut den = 0.0;
        for g in &gaps {
            let m = (g / unit).round().max(1.0);
            num += g;
            den += m;
        }
        unit = num / den;
    }
    Some(unit)
}

/// The inactive stretches between consecutive bursts, in samples.
fn inactive_gaps(bursts: &[Burst]) -> Vec<f64> {
    bursts.windows(2).map(|w| (w[1].first - w[0].last - 1) as f64).collect()
}

/// Operations between consecutive multiplies: the inactive gap spans the
/// squares (`round(gap / unit)`, at least one) and the multiply itself
/// adds one more.
pub fn ops_between_bursts(bursts: &[Burst], unit: f64) -> Vec<u32> {
    inactive_gaps(bursts).into_iter().map(|g| ((g / unit).round() as u32).max(1) + 1).collect()
}

/// Full pipeline: burst extraction and unit estimation. Returns `None`
/// when fewer than two bursts exist (no gap structure to decode).
pub fn extract_bursts(actives: &[bool]) -> Option<(Vec<Burst>, f64)> {
    let bs = bursts(actives);
    if bs.len() < 2 {
        return None;
    }
    let unit = estimate_unit(&bs)?;
    Some((bs, unit))
}

// ---------------------------------------------------------------------------
// Run-length landmarks
// ---------------------------------------------------------------------------
//
// A decoded bit string is equivalently a sequence of alternating run
// lengths, and each run boundary is a burst landmark the attacker actually
// observed (a multiply event). Scoring and multi-trace voting both work at
// this level, because a ±1 error in one run length shifts every later
// *position* while leaving every other *landmark* intact.

/// Alternating run lengths starting with the MSB's run of ones:
/// `[ones, zeros, ones, zeros, ...]`. Empty when the bits do not start
/// with a one (decodes always set the MSB).
pub fn to_runs(bits: &[bool]) -> Vec<u32> {
    let mut runs = Vec::new();
    let mut current = match bits.first() {
        Some(true) => true,
        _ => return runs,
    };
    let mut len = 0u32;
    for b in bits {
        if *b == current {
            len += 1;
        } else {
            runs.push(len);
            current = *b;
            len = 1;
        }
    }
    runs.push(len);
    runs
}

/// Align `other`'s run sequence onto `reference`'s with a weighted
/// longest-common-subsequence: runs may pair only when they share
/// alternation parity (both ones-runs or both zeros-runs) and differ by at
/// most one bit, and the alignment maximizes the bits shared by the paired
/// runs (`min(reference, other)` per pair — every run is nonempty, so each
/// pair still contributes, and no bonus term is needed that could trade
/// shared bits for pair count). Returns `(reference index, other's
/// length)` pairs in reference order — the shared burst landmarks two
/// traces agree on.
///
/// Cost: one flat `(n+1)·(m+1)` table filled row by row, then an
/// O(n + m) traceback. Identical sequences skip the table: the diagonal
/// shares every reference bit, the most any alignment can, and the
/// traceback tries the diagonal first, so the identity alignment is what
/// the table would return.
pub fn align_runs(reference: &[u32], other: &[u32]) -> Vec<(usize, u32)> {
    if reference == other {
        return reference.iter().copied().enumerate().collect();
    }
    let n = reference.len();
    let w = other.len() + 1;
    // Bits shared by pairing reference run `i` with other's run `j`
    // (0-based), if the two may pair at all.
    let pair = |i: usize, j: usize| -> Option<u32> {
        let (r, o) = (reference[i], other[j]);
        (i % 2 == j % 2 && r.abs_diff(o) <= 1).then_some(r.min(o))
    };
    let mut dp = vec![0u32; (n + 1) * w];
    for i in 1..=n {
        let (prev, row) = dp[(i - 1) * w..(i + 1) * w].split_at_mut(w);
        // Rows never decrease left to right, so a pair that may not form
        // can add 0 instead of being skipped (`prev[j - 1] <= prev[j]`),
        // and the row is a running maximum: only its last step waits on
        // the previous cell.
        let mut best = 0;
        for j in 1..w {
            best = best.max(prev[j].max(prev[j - 1] + pair(i - 1, j - 1).unwrap_or(0)));
            row[j] = best;
        }
    }
    let at = |i: usize, j: usize| dp[i * w + j];
    let mut out = Vec::new();
    let (mut i, mut j) = (n, w - 1);
    while i > 0 && j > 0 {
        match pair(i - 1, j - 1) {
            Some(s) if at(i, j) == at(i - 1, j - 1) + s => {
                out.push((i - 1, other[j - 1]));
                i -= 1;
                j -= 1;
            }
            _ if at(i - 1, j) >= at(i, j - 1) => i -= 1,
            _ => j -= 1,
        }
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The nested-row weighted-LCS alignment [`align_runs`] replaced,
    /// kept verbatim as the oracle for its flat table and identity path.
    fn align_runs_nested(reference: &[u32], other: &[u32]) -> Vec<(usize, u32)> {
        let n = reference.len();
        let m = other.len();
        let matches = |i: usize, j: usize| -> bool {
            i % 2 == j % 2 && reference[i - 1].abs_diff(other[j - 1]) <= 1
        };
        let pair_score = |i: usize, j: usize| -> u32 { reference[i - 1].min(other[j - 1]) };
        let mut dp = vec![vec![0u32; m + 1]; n + 1];
        for i in 1..=n {
            for j in 1..=m {
                let mut best = dp[i - 1][j].max(dp[i][j - 1]);
                if matches(i, j) {
                    best = best.max(dp[i - 1][j - 1] + pair_score(i, j));
                }
                dp[i][j] = best;
            }
        }
        let mut out = Vec::new();
        let (mut i, mut j) = (n, m);
        while i > 0 && j > 0 {
            if matches(i, j) && dp[i][j] == dp[i - 1][j - 1] + pair_score(i, j) {
                out.push((i - 1, other[j - 1]));
                i -= 1;
                j -= 1;
            } else if dp[i - 1][j] >= dp[i][j - 1] {
                i -= 1;
            } else {
                j -= 1;
            }
        }
        out.reverse();
        out
    }

    fn assert_matches_oracle(reference: &[u32], other: &[u32]) {
        assert_eq!(
            align_runs(reference, other),
            align_runs_nested(reference, other),
            "reference {reference:?}, other {other:?}"
        );
    }

    /// `len` runs of 1..=max_run bits: short runs make many runs pair
    /// within one bit, so ties between equal-scoring alignments are common.
    fn random_runs(rng: &mut SmallRng, len: usize, max_run: u32) -> Vec<u32> {
        (0..len).map(|_| rng.gen_range(1..=max_run)).collect()
    }

    #[test]
    fn flat_alignment_matches_oracle_on_identical_runs() {
        let mut rng = SmallRng::seed_from_u64(41);
        for case in 0..200 {
            let runs = random_runs(&mut rng, case % 300 + 1, 1 + case as u32 % 6);
            assert_matches_oracle(&runs, &runs);
        }
    }

    #[test]
    fn flat_alignment_matches_oracle_on_perturbed_runs() {
        let mut rng = SmallRng::seed_from_u64(42);
        for case in 0..200 {
            let len = rng.gen_range(1..=300);
            let reference = random_runs(&mut rng, len, 5);
            let mut other = reference.clone();
            for _ in 0..rng.gen_range(1..=4) {
                let k = rng.gen_range(0..other.len());
                match case % 3 {
                    // One run decoded a bit too long or too short.
                    0 => {
                        other[k] =
                            if rng.gen_bool(0.5) { other[k] + 1 } else { other[k].max(2) - 1 }
                    }
                    // A spurious multiply splits a run; a missed one drops it.
                    1 => other.insert(k, rng.gen_range(1..=3)),
                    _ if other.len() > 1 => drop(other.remove(k)),
                    _ => {}
                }
            }
            assert_matches_oracle(&reference, &other);
            assert_matches_oracle(&other, &reference);
        }
    }

    #[test]
    fn flat_alignment_matches_oracle_on_random_runs() {
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..100 {
            let max_run = rng.gen_range(1..=6);
            let (n, m) = (rng.gen_range(1..=300), rng.gen_range(1..=300));
            let reference = random_runs(&mut rng, n, max_run);
            let other = random_runs(&mut rng, m, max_run);
            assert_matches_oracle(&reference, &other);
        }
    }

    #[test]
    fn flat_alignment_matches_oracle_on_empty_sides() {
        let mut rng = SmallRng::seed_from_u64(44);
        let runs = random_runs(&mut rng, 20, 4);
        assert_matches_oracle(&[], &[]);
        assert_matches_oracle(&runs, &[]);
        assert_matches_oracle(&[], &runs);
        assert!(align_runs(&runs, &[]).is_empty());
    }

    /// Lay out bursts of `len` units at the given op offsets, `spp`
    /// samples per op.
    fn actives_from_ops(mult_ops: &[usize], total_ops: usize, spp: usize) -> Vec<bool> {
        let mut v = vec![false; total_ops * spp + spp];
        for m in mult_ops {
            for s in 0..spp {
                v[m * spp + s] = true;
            }
        }
        v
    }

    #[test]
    fn burst_extraction_merges_consecutive() {
        let a = [false, true, true, false, false, false, true, false];
        assert_eq!(burst_starts(&a), vec![1, 6]);
        let bs = bursts(&a);
        assert_eq!(bs, vec![Burst { first: 1, last: 2 }, Burst { first: 6, last: 6 }]);
        assert_eq!(bs[0].len(), 2);
    }

    #[test]
    fn bursts_bridge_single_dropouts() {
        // One mul with a mid-burst dropout at index 3.
        let a = [false, true, true, false, true, true, false, false, false, true];
        let bs = bursts(&a);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0], Burst { first: 1, last: 5 });
    }

    #[test]
    fn unit_from_burst_lengths_and_gaps() {
        // Multiplies at ops 0, 2, 5, 9 with 4 samples per op.
        let a = actives_from_ops(&[0, 2, 5, 9], 11, 4);
        let (bs, unit) = extract_bursts(&a).expect("bursts exist");
        assert_eq!(bs.len(), 4);
        assert!((unit - 4.0).abs() < 0.4, "unit {unit}");
        assert_eq!(ops_between_bursts(&bs, unit), vec![2, 3, 4]);
    }

    #[test]
    fn unit_survives_ragged_burst_edges() {
        // Same ops, but burst lengths jittered by ±1 sample.
        let mut a = actives_from_ops(&[0, 2, 5, 9], 11, 5);
        a[4] = false; // shorten first burst
        a[25] = true; // lengthen third
        let (bs, unit) = extract_bursts(&a).expect("bursts exist");
        assert_eq!(bs.len(), 4);
        assert_eq!(ops_between_bursts(&bs, unit), vec![2, 3, 4]);
    }

    #[test]
    fn no_bursts_no_decode() {
        assert!(extract_bursts(&[false; 32]).is_none());
        assert!(extract_bursts(&[false, true, false]).is_none());
    }

    #[test]
    fn runs_round_trip() {
        assert_eq!(to_runs(&[true, false, false, true, true]), vec![1, 2, 2]);
        assert!(to_runs(&[false, true]).is_empty(), "decodes always set the MSB");
        assert!(to_runs(&[]).is_empty());
    }

    #[test]
    fn alignment_tolerates_off_by_one_runs() {
        let reference = [1u32, 3, 1, 2, 1];
        let offset = [1u32, 4, 1, 2, 1];
        let pairs = align_runs(&reference, &offset);
        assert_eq!(pairs, vec![(0, 1), (1, 4), (2, 1), (3, 2), (4, 1)]);
    }

    #[test]
    fn alignment_skips_spurious_landmarks() {
        // `other` hallucinated an extra multiply inside the second zero
        // run: [1,5,...] became [1,2,1,2,...]. The surviving landmarks
        // still align; the spurious pair is dropped.
        let reference = [1u32, 5, 1, 3, 1];
        let other = [1u32, 2, 1, 2, 1, 3, 1];
        let pairs = align_runs(&reference, &other);
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(3, 3)), "later landmarks re-synchronize: {pairs:?}");
        assert!(pairs.len() < reference.len(), "the corrupted run cannot align");
    }

    #[test]
    fn alignment_respects_parity() {
        // A ones-run never aligns with a zeros-run even when lengths match.
        let pairs = align_runs(&[2, 2], &[2]);
        assert_eq!(pairs, vec![(0, 2)]);
    }
}
