//! Order statistics used by every report: quantiles, pooled percentiles
//! and the spread of repeated runs.

/// The `q`-quantile of `values` by the "exclusive" method of Python's
/// `statistics.quantiles` (position `q * (n + 1)`, linear interpolation,
/// linear extrapolation at the ends). `q = 0.5` is the ordinary median.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    if v.len() == 1 {
        return v[0];
    }
    let h = q * (v.len() + 1) as f64;
    let lo = (h.floor() as usize).clamp(1, v.len() - 1);
    let frac = h - lo as f64;
    v[lo - 1] + frac * (v[lo] - v[lo - 1])
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The three cut points of `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    ]
}

/// The 90th percentile, the tail the latency metrics report.
pub fn p90(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// Samples beyond the `q`-quantile: the count a tail percentile rests on.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&x| x > cut).count()
}

/// Pools per-instance samples into one sample: percentiles are taken over
/// every request of every instance, never as a median of medians.
pub fn pool(instances: &[Vec<f64>]) -> Vec<f64> {
    instances.iter().flatten().copied().collect()
}

/// The run-to-run spread figures of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 - q1) / median`.
    pub iqr_share: f64,
    /// `(max - min) / median`.
    pub range_share: f64,
}

/// Spread of one metric over repeated runs.
pub fn spread(values: &[f64]) -> Spread {
    let [q1, median, q3] = quartiles(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let share = |x: f64| if median == 0.0 { 0.0 } else { x / median };
    Spread {
        median,
        q1,
        q3,
        iqr_share: share(q3 - q1),
        range_share: share(max - min),
    }
}

/// FNV-1a 64-bit digest, for reference outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
