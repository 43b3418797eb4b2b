//! Order statistics for the end-to-end metrics.

/// The percentile ladder `tail_ms` climbs: the highest rung with at
/// least ten samples beyond it is reported.
const LADDER: [(f64, &str); 4] = [
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The reported tail of an ascending sample: `(label, value, samples
/// beyond it)`. Samples too small for p90 to have ten beyond report p90
/// anyway, and the count says so.
pub fn tail(sorted: &[f64]) -> (&'static str, f64, usize) {
    let n = sorted.len();
    let beyond = |q: f64| n - (q * n as f64).ceil() as usize;
    let (q, label) = LADDER
        .iter()
        .rev()
        .find(|(q, _)| beyond(*q) >= 10)
        .copied()
        .unwrap_or(LADDER[0]);
    (label, quantile(sorted, q), beyond(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), ("p99", 990.0, 10));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p90");
        assert_eq!(quantile(&v, 0.5), 500.0);
    }
}
