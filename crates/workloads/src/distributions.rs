//! Flow-size distributions.
//!
//! The paper's dynamic-workload experiments (§6.1, Fig. 5 and Fig. 7) use two
//! empirical, heavy-tailed distributions measured in production clusters:
//!
//! * **Web search** \[3\]: "about 50% of the flows are smaller than 100 KB,
//!   but 95% of all bytes belong to the larger 30% of flows that are larger
//!   than 1 MB".
//! * **Enterprise** \[4\]: "also heavy-tailed, but has many more short flows
//!   with 95% of the flows smaller than 10 KB".
//!
//! The original trace files are not public, so this module encodes synthetic
//! piecewise CDFs constructed to match those published summary statistics.
//! The distributional *shape* — a large count of small flows with the byte
//! volume dominated by a few elephants — is what drives the results that use
//! them.

use serde::{Deserialize, Serialize};

/// A distribution over flow sizes in bytes.
pub trait FlowSizeDistribution: Send + Sync {
    /// Draw one flow size.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64;

    /// The mean flow size in bytes (used to compute Poisson arrival rates for
    /// a target load).
    fn mean_bytes(&self) -> f64;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// A piecewise-linear empirical CDF over flow sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    /// (size_bytes, cumulative_probability) control points, increasing in
    /// both coordinates, ending at probability 1.0.
    points: Vec<(f64, f64)>,
    name: &'static str,
}

impl EmpiricalCdf {
    /// Build an empirical CDF from `(size, cumulative probability)` points.
    ///
    /// # Panics
    /// Panics if the points are not strictly increasing in both coordinates,
    /// do not end at probability 1, or contain non-finite values.
    pub fn new(points: Vec<(f64, f64)>, name: &'static str) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        for w in points.windows(2) {
            assert!(w[1].0 > w[0].0, "sizes must increase");
            assert!(w[1].1 >= w[0].1, "probabilities must not decrease");
        }
        for &(s, p) in &points {
            assert!(s.is_finite() && s > 0.0 && (0.0..=1.0).contains(&p));
        }
        let last = points.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at probability 1");
        Self { points, name }
    }

    /// The web-search cluster distribution (synthetic fit to the published
    /// summary: median ≈ 100 KB, ~30 % of flows > 1 MB carrying ~95 % of the
    /// bytes, maximum ≈ 30 MB).
    pub fn web_search() -> Self {
        Self::new(
            vec![
                (6_000.0, 0.15),
                (13_000.0, 0.30),
                (29_000.0, 0.40),
                (100_000.0, 0.50),
                (300_000.0, 0.60),
                (1_000_000.0, 0.70),
                (2_000_000.0, 0.80),
                (5_000_000.0, 0.90),
                (10_000_000.0, 0.97),
                (30_000_000.0, 1.0),
            ],
            "websearch",
        )
    }

    /// The enterprise cluster distribution (synthetic fit: ~95 % of flows
    /// below 10 KB — most of them one or two packets — with a heavy byte
    /// tail up to ~10 MB).
    pub fn enterprise() -> Self {
        Self::new(
            vec![
                (1_500.0, 0.45),
                (3_000.0, 0.70),
                (6_000.0, 0.85),
                (10_000.0, 0.95),
                (50_000.0, 0.97),
                (300_000.0, 0.98),
                (1_000_000.0, 0.99),
                (10_000_000.0, 1.0),
            ],
            "enterprise",
        )
    }

    /// The data-mining cluster distribution (synthetic fit to the published
    /// shape used alongside web search in datacenter transport evaluations:
    /// ~80 % of flows under 10 KB — most a single packet — while >95 % of
    /// the bytes ride in the >10 MB elephants, maximum ≈ 1 GB). The extreme
    /// small-flow count makes it the stress case for open-loop churn.
    pub fn data_mining() -> Self {
        Self::new(
            vec![
                (1_460.0, 0.50),
                (2_920.0, 0.60),
                (10_000.0, 0.80),
                (100_000.0, 0.85),
                (1_000_000.0, 0.90),
                (10_000_000.0, 0.95),
                (100_000_000.0, 0.98),
                (1_000_000_000.0, 1.0),
            ],
            "datamining",
        )
    }

    /// Inverse-CDF lookup: the size at cumulative probability `p ∈ [0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let first = self.points[0];
        if p <= first.1 {
            // Interpolate from a one-packet floor up to the first point.
            let frac = if first.1 > 0.0 { p / first.1 } else { 1.0 };
            return 1_460.0 + (first.0 - 1_460.0).max(0.0) * frac;
        }
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if p <= p1 {
                let frac = if p1 > p0 { (p - p0) / (p1 - p0) } else { 1.0 };
                // Log-space interpolation keeps the heavy tail heavy.
                let ls = s0.ln() + (s1.ln() - s0.ln()) * frac;
                return ls.exp();
            }
        }
        self.points.last().unwrap().0
    }
}

impl FlowSizeDistribution for EmpiricalCdf {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> u64 {
        let p: f64 = rand::Rng::gen(&mut *rng);
        self.quantile(p).round().max(1.0) as u64
    }

    fn mean_bytes(&self) -> f64 {
        // Numerical integration of the quantile function.
        let n = 10_000;
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .sum::<f64>()
            / n as f64
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Every flow has the same size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FixedSize(pub u64);

impl FlowSizeDistribution for FixedSize {
    fn sample(&self, _rng: &mut dyn rand::RngCore) -> u64 {
        self.0
    }
    fn mean_bytes(&self) -> f64 {
        self.0 as f64
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_many(dist: &dyn FlowSizeDistribution, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).collect()
    }

    #[test]
    fn web_search_matches_published_summary_statistics() {
        let dist = EmpiricalCdf::web_search();
        let samples = sample_many(&dist, 50_000, 1);
        let below_100k =
            samples.iter().filter(|&&s| s < 100_000).count() as f64 / samples.len() as f64;
        assert!(
            (0.40..=0.60).contains(&below_100k),
            "P(<100kB) = {below_100k}"
        );
        // ~95 % of bytes in flows larger than 1 MB is the headline statistic.
        let total: f64 = samples.iter().map(|&s| s as f64).sum();
        let big: f64 = samples
            .iter()
            .filter(|&&s| s > 1_000_000)
            .map(|&s| s as f64)
            .sum();
        assert!(
            big / total > 0.80,
            "byte share of >1MB flows = {}",
            big / total
        );
        let big_count =
            samples.iter().filter(|&&s| s > 1_000_000).count() as f64 / samples.len() as f64;
        assert!((0.2..=0.4).contains(&big_count), "P(>1MB) = {big_count}");
    }

    #[test]
    fn enterprise_is_dominated_by_short_flows() {
        let dist = EmpiricalCdf::enterprise();
        let samples = sample_many(&dist, 50_000, 2);
        let below_10k =
            samples.iter().filter(|&&s| s < 10_000).count() as f64 / samples.len() as f64;
        assert!(below_10k > 0.90, "P(<10kB) = {below_10k}");
        // Most flows are only one or two packets.
        let tiny = samples.iter().filter(|&&s| s <= 3_000).count() as f64 / samples.len() as f64;
        assert!(tiny > 0.6, "P(<=2 packets) = {tiny}");
    }

    #[test]
    fn mean_is_consistent_with_samples() {
        for dist in [EmpiricalCdf::web_search(), EmpiricalCdf::enterprise()] {
            let samples = sample_many(&dist, 200_000, 3);
            let empirical = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
            let analytic = dist.mean_bytes();
            assert!(
                (empirical - analytic).abs() / analytic < 0.1,
                "{}: empirical {empirical:.0} vs analytic {analytic:.0}",
                dist.name()
            );
        }
    }

    #[test]
    fn data_mining_is_tiny_flows_with_elephant_bytes() {
        let dist = EmpiricalCdf::data_mining();
        let samples = sample_many(&dist, 50_000, 9);
        let below_10k =
            samples.iter().filter(|&&s| s <= 10_000).count() as f64 / samples.len() as f64;
        assert!(below_10k > 0.75, "P(<=10kB) = {below_10k}");
        let total: f64 = samples.iter().map(|&s| s as f64).sum();
        let elephant: f64 = samples
            .iter()
            .filter(|&&s| s > 10_000_000)
            .map(|&s| s as f64)
            .sum();
        assert!(
            elephant / total > 0.80,
            "byte share of >10MB flows = {}",
            elephant / total
        );
        // Mean far above the median is the heavy-tail signature churn needs.
        assert!(dist.mean_bytes() > 100.0 * dist.quantile(0.5));
    }

    #[test]
    fn quantiles_are_monotone() {
        let dist = EmpiricalCdf::web_search();
        let mut last = 0.0;
        for i in 0..=100 {
            let q = dist.quantile(i as f64 / 100.0);
            assert!(q >= last, "quantile not monotone at {i}");
            last = q;
        }
    }

    #[test]
    fn fixed_and_uniform_behave() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(FixedSize(1234).sample(&mut rng), 1234);
        assert_eq!(FixedSize(1234).mean_bytes(), 1234.0);
    }

    #[test]
    #[should_panic]
    fn cdf_must_end_at_one() {
        EmpiricalCdf::new(vec![(10.0, 0.5), (20.0, 0.9)], "bad");
    }
}
