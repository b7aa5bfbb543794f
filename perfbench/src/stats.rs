//! Order statistics and process memory.

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the slowest `share` of `xs` (`0 < share <= 1`), rounded up to
/// whole values; 0 if empty. Unlike one order statistic, it does not
/// jump between inputs whose times lie close together.
pub fn tail_mean(xs: &[f64], share: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Geometric mean of the positive values in `xs`; 0 if there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_mean(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.1), 5.0);
        assert_eq!(tail_mean(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.3), 4.5);
        assert_eq!(tail_mean(&[], 0.1), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
