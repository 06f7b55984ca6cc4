//! Small order statistics over timing samples.

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// A timing summary: the median plus the highest percentile that still
/// has at least ten samples beyond it, with the sample count.
#[derive(Debug, Clone)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)`, or `None` when fewer than 40 samples exist.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(xs: &[f64]) -> Timing {
        let n = xs.len();
        let tail = TAILS
            .iter()
            .find(|&&p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
            .map(|&p| (p, percentile(xs, p)));
        Timing { n, p50: median(xs), min: percentile(xs, 0.0), max: percentile(xs, 100.0), tail }
    }

    /// One human-readable line: `p50 1.234 ms, p95 2.345 ms, range
    /// 1.001–3.456 ms (n=400)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {v:.3} {unit}"),
            None => " (too few samples for a tail)".to_owned(),
        };
        format!(
            "p50 {:.3} {unit}{tail}, range {:.3}–{:.3} {unit} (n={})",
            self.p50, self.min, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(Timing::of(&xs).tail.map(|t| t.0), Some(95.0));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Timing::of(&xs).tail.map(|t| t.0), Some(99.0));
        assert!(Timing::of(&[1.0; 39]).tail.is_none());
    }
}
