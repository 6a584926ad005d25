//! Order statistics over latency samples.

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    /// Adds all samples of another set.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile (`0 < q < 1`) by linear interpolation between
    /// closest ranks; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Whether at least ten samples lie beyond the `q`-quantile, the
    /// minimum for reporting that percentile.
    pub fn supports(&self, q: f64) -> bool {
        (self.values.len() as f64) * (1.0 - q) >= 10.0
    }
}

/// The `q`-quantile of unsorted values by linear interpolation; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(!s.supports(0.5));
    }
}
