//! Order statistics over samples, and the content hash used by the
//! output checks.

/// The `q`-quantile of `sorted` (ascending), interpolating linearly
/// between the closest ranks. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> Option<f64> {
    quantile(&sorted(v), 0.5)
}

/// Interquartile mean: the mean of the middle half. As robust to
/// outliers as the median, but where a latency distribution has two
/// modes (a served event finding its worker awake or parked), it moves
/// with the share of each mode instead of jumping from one to the other.
pub fn iqm(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    (!mid.is_empty()).then(|| mid.iter().sum::<f64>() / mid.len() as f64)
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the `exclusive` method). `None`
/// for fewer than two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (p50 for fewer than 20 samples).
pub fn tail_q(samples: usize) -> f64 {
    let permille = [999, 990, 950, 900, 750]
        .into_iter()
        .find(|q| samples * (1000 - q) >= 10_000)
        .unwrap_or(500);
    permille as f64 / 1000.0
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn iqm_averages_the_middle_half() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), Some(3.5));
        assert_eq!(iqm(&[2.0]), Some(2.0));
        assert_eq!(iqm(&[]), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            Some((2.75, 8.25))
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100_000), 0.999);
        assert_eq!(tail_q(1_000), 0.99);
        assert_eq!(tail_q(300), 0.95);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(10), 0.5);
    }
}
