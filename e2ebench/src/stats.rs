//! Order statistics of latency samples.
//!
//! The percentile rule: a percentile is only reported when at least ten
//! samples lie beyond it; otherwise it is refused. Percentiles use the
//! nearest-rank definition on the sorted samples.

/// The percentiles the tail search tries, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    // Integer arithmetic on per-mille ranks avoids float rounding at the
    // boundaries (e.g. 0.9 × 100 must be exactly rank 90).
    let per_mille = (p * 10.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of [`TAIL_CANDIDATES`] that [`percentile`] does not refuse,
/// as `(percentile, value)`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Median of arbitrary (unsorted) values; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-operation minima over repeated passes of the same operations:
/// element `i` is the smallest of `passes[k][i]` over every pass `k` that
/// reached operation `i` (the first pass reaches all of them; a later one
/// may have been cut off when the time was up). The operations are
/// deterministic, so their spread over passes is noise from elsewhere on
/// the machine, which only ever adds time; a burst of it slows some
/// passes, not the minimum.
pub fn per_op_min(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.get(i))
                .fold(f64::INFINITY, |a, &b| a.min(b))
        })
        .collect()
}

/// Sorts samples ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p50 of 20 samples: rank 10, ten beyond it.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        // p90 needs 100 samples, p99 needs 1000.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_reports_the_highest_allowed_percentile() {
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&ramp(1500)), Some((99.0, 1485.0)));
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&ramp(120)), Some((90.0, 108.0)));
        assert_eq!(tail(&ramp(25)), Some((50.0, 13.0)));
        assert_eq!(tail(&ramp(19)), None, "too few samples: refuse");
    }

    #[test]
    fn per_op_min_ignores_slow_passes() {
        let passes = vec![vec![1.0, 10.0], vec![9.0, 11.0], vec![2.0, 12.0]];
        assert_eq!(per_op_min(&passes), vec![1.0, 10.0]);
        assert_eq!(per_op_min(&passes[1..]), vec![2.0, 11.0]);
        assert!(per_op_min(&[]).is_empty());
        let cut_off = vec![vec![5.0, 6.0, 7.0], vec![4.0], vec![]];
        assert_eq!(per_op_min(&cut_off), vec![4.0, 6.0, 7.0]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
