//! Order statistics over latency samples.

/// The `p`-th percentile (0–100) of `sorted`, linearly interpolated
/// between closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 95.0), 4.8);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
