//! Order statistics over wall-clock samples.

/// Median of `values` (the mean of the two middle values for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, 0–100.
    pub percentile: f64,
    /// Samples strictly beyond it (10, or fewer for samples of 10 or less,
    /// where the maximum is reported instead).
    pub beyond: usize,
    /// Sample count.
    pub count: usize,
}

/// The highest percentile of `values` with at least ten samples beyond it.
/// With ten samples or fewer no percentile qualifies, so the maximum is
/// returned and `beyond` says how many samples it rests on.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            count: 0,
        };
    }
    let idx = n.saturating_sub(11);
    let idx = if n > 10 { idx } else { n - 1 };
    Tail {
        value: sorted[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        count: n,
    }
}

/// Geometric mean of strictly positive values (0 if any is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
