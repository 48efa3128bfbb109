//! Order statistics for the estimators the benchmark reports.
//!
//! Every timing is estimated within a run from many repetitions of one
//! fixed operation, with a statistic that resists co-tenant contention:
//! the fastest repetition, or a quantile of a latency sample. Nothing
//! here averages.

/// Quantile `q` in `[0, 1]` of `values`, by linear interpolation
/// between the two nearest order statistics (the "type 7" rule NumPy
/// and R default to). `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Smallest value; `None` when empty.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Fastest of `reps` timed calls of `f`, in microseconds.
pub fn fastest_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Number of samples strictly above quantile `q` — the guide for
/// whether a tail percentile has enough support to be reported.
pub fn beyond(values: &[f64], q: f64) -> usize {
    match quantile(values, q) {
        Some(t) => values.iter().filter(|&&v| v > t).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        // pos = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn min_and_tail_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(min(&v), Some(1.0));
        assert_eq!(min(&[]), None);
        // p90 of 1..=100 is 90.1, so 10 samples lie beyond it.
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(beyond(&[], 0.9), 0);
    }
}
