//! Sample statistics: medians, the tail-percentile rule, quartile spread.

/// The median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail percentile chosen so that the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 1]`.
    pub p: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// p99 when at least [`TAIL_MIN_BEYOND`] samples lie beyond it, else the
/// highest percentile that still has that many beyond it; a sample too
/// small for either reports its maximum (`beyond == 0`). `sorted` must be
/// ascending and non-empty.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    let p99_rank = ((n as f64) * 0.99).ceil() as usize; // 1-based nearest rank
    let (p, rank) = if n - p99_rank >= TAIL_MIN_BEYOND {
        (0.99, p99_rank)
    } else if n > TAIL_MIN_BEYOND {
        let rank = n - TAIL_MIN_BEYOND;
        (rank as f64 / n as f64, rank)
    } else {
        (1.0, n)
    };
    Tail {
        p,
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// Sorts a latency sample and returns `(p50, tail)`; `None` when empty.
pub fn p50_and_tail(xs: &mut [f64]) -> Option<(f64, Tail)> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    Some((median(xs), tail(xs)))
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// matches the one the acceptance rule computes. Needs two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        // Position q*(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (`0` with fewer than
/// two values or a zero median).
pub fn iqr_share(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), m) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.p, t.value, t.beyond), (0.99, 990.0, 10));
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.p, t.value, t.beyond), (0.99, 4950.0, 50));
    }

    #[test]
    fn tail_backs_off_to_the_highest_supported_percentile() {
        // 999 samples: p99 would leave 9 beyond, so report rank 989.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!((t.p - 989.0 / 999.0).abs() < 1e-12);
        // 120 samples: the 110th has ten beyond it (p91.7).
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (110.0, 10));
        // Too small for any tail: the maximum, flagged by beyond == 0.
        let t = tail(&[5.0, 7.0, 9.0]);
        assert_eq!((t.p, t.value, t.beyond), (1.0, 9.0, 0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
