//! Order statistics over measured samples.

/// Raw samples of one quantity (nanoseconds unless stated).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        let (_, x, _) = v.select_nth_unstable(rank - 1);
        Some(*x)
    }

    pub fn max(&self) -> Option<u64> {
        self.0.iter().copied().max()
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Samples strictly above quantile `q`: a percentile is reported only
    /// when at least ten samples lie beyond it.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len() - ((q * self.0.len() as f64).ceil() as usize).min(self.0.len())
    }
}

/// Median of a few floating-point measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
