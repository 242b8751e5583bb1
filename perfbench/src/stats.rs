//! Order statistics shared by every workload.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The arithmetic mean of `xs` (`NaN` for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail of `xs`: the highest percentile that still leaves at least
/// ten samples strictly above it. Returns `(value, percentile, n)`;
/// with eleven samples or fewer it degrades to the minimum.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (f64::NAN, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n.saturating_sub(11);
    let pct = if n > 1 {
        100.0 * idx as f64 / (n - 1) as f64
    } else {
        0.0
    };
    (v[idx], pct, n)
}

/// The geometric mean of the positive entries of `xs` (`NaN` when
/// there are none). The entries are summed in sorted order, so the
/// result does not depend on their order to the last bit.
pub fn gmean(xs: &[f64]) -> f64 {
    let mut pos: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    pos.sort_by(f64::total_cmp);
    if pos.is_empty() {
        return f64::NAN;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, _, n) = tail(&xs);
        assert_eq!(n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn gmean_of_powers() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
