//! Order statistics for reported timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Samples needed beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail value to report: the 99th percentile when at least
/// [`TAIL_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still leaves that many beyond. Returns
/// `(value, percentile, samples_beyond)`, or `None` with fewer than
/// `TAIL_BEYOND + 1` samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    // Nearest-rank p99 index, capped so TAIL_BEYOND ranks stay above it.
    let p99 = (n * 99).div_ceil(100) - 1;
    let i = p99.min(n - 1 - TAIL_BEYOND);
    Some((s[i], 100.0 * (i + 1) as f64 / n as f64, n - 1 - i))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
