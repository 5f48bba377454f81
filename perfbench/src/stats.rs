//! Order statistics used by the reports.

/// The nearest-rank percentile of an ascending slice: the smallest
/// sample with at least `p` of the samples at or below it, so the
/// reported latency is one a real operation had. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(percentile_index(sorted.len(), p)).copied()
}

/// Index (0-based) of the nearest-rank percentile in a sample of `n`.
pub fn percentile_index(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the rule the acceptance check uses.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

pub fn median(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => None,
        n if n % 2 == 1 => Some(data[n / 2]),
        n => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// Inter-quartile distance as a share of the median (the acceptance
/// check's spread); `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let mid = median(values)?;
    (mid.abs() > 0.0).then(|| (q[2] - q[0]) / mid.abs())
}

/// `numerator / denominator`, or 0 when there is nothing to divide by
/// (a layer that did no work on this workload).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi]`. Sorts `intervals` in place.
pub fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v[..3], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile_index(1000, 0.99), 989);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn union_clips_and_merges_overlaps() {
        // [2,5) ∪ [4,8) ∪ [20,30) clipped to [3,10] = [3,8) → 5.
        let mut iv = vec![(4, 8), (2, 5), (20, 30)];
        assert_eq!(union_length(&mut iv, 3, 10), 5);
        assert_eq!(union_length(&mut [], 0, 10), 0);
        // Nested child does not count twice.
        assert_eq!(union_length(&mut [(0, 10), (2, 3)], 0, 10), 10);
    }
}
