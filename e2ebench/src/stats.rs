//! Order statistics over latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A percentile together with the samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

/// The `q`-quantile of `values`, reported only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<Percentile> {
    let value = quantile(values, q)?;
    let beyond = values.iter().filter(|&&v| v > value).count();
    (beyond >= MIN_TAIL_SAMPLES).then_some(Percentile {
        value,
        samples: values.len(),
        beyond,
    })
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&ramp(11), 0.9), Some(10.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 91 samples: p90 = 82, so only 9 samples lie beyond it.
        assert_eq!(tail_percentile(&ramp(91), 0.9), None);
        // 101 samples: p90 = 91, with 10 beyond.
        let p = tail_percentile(&ramp(101), 0.9).expect("10 samples beyond p90");
        assert_eq!(p.value, 91.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 101);
        // Ties at the top do not count as beyond.
        let mut flat = vec![1.0; 200];
        flat.extend([2.0; 5]);
        assert_eq!(tail_percentile(&flat, 0.9), None);
    }
}
