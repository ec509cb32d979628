//! Order statistics over samples.

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range of `xs` as a share of its median, with the
/// quartiles taken as Python's `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method) takes them.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let q = |p: f64| {
        let n = v.len() as f64;
        let pos = (p * (n + 1.0)).clamp(1.0, n) - 1.0;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m
    }
}

/// The `q`-quantile (nearest rank) of latencies in nanoseconds;
/// reorders `ns` in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_ns(ns: &mut [u32], q: f64) -> f64 {
    assert!(!ns.is_empty(), "quantile of no latencies");
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len()) - 1;
    let (_, v, _) = ns.select_nth_unstable(rank);
    f64::from(*v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..=8], n=4) == [2.25, 4.5, 6.75]
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert!((iqr_share(&xs) - (6.75 - 2.25) / 4.5).abs() < 1e-12);
        let mut ns: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut ns, 0.5), 50.0);
        assert_eq!(quantile_ns(&mut ns, 0.99), 99.0);
    }
}
