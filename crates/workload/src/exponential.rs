//! Exponentially distributed interarrival times (Section 6.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rthv_time::{Duration, Instant};

use crate::ArrivalTrace;

/// Generator of IRQ arrival traces with exponentially distributed
/// interarrival times of mean `λ`, optionally clamped to a minimum distance
/// (the paper's scenario 2, where "the pseudo-random interarrival time is
/// set at least to d_min").
///
/// Sampling uses the inverse CDF `gap = −λ·ln(1 − u)` with a seeded
/// [`StdRng`], so traces are fully reproducible.
///
/// # Examples
///
/// ```
/// use rthv_workload::ExponentialArrivals;
/// use rthv_time::{Duration, Instant};
///
/// // Scenario 2: mean = d_min = 3 ms, no gap below d_min.
/// let dmin = Duration::from_millis(3);
/// let trace = ExponentialArrivals::new(dmin, 7)
///     .with_min_distance(dmin)
///     .generate(500, Instant::ZERO);
/// assert!(trace.min_distance().expect("500 arrivals") >= dmin);
/// ```
#[derive(Debug, Clone)]
pub struct ExponentialArrivals {
    mean: Duration,
    seed: u64,
    min_distance: Option<Duration>,
}

impl ExponentialArrivals {
    /// Creates a generator with mean interarrival time `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn new(mean: Duration, seed: u64) -> Self {
        assert!(!mean.is_zero(), "mean interarrival time must be positive");
        ExponentialArrivals {
            mean,
            seed,
            min_distance: None,
        }
    }

    /// Clamps every sampled gap to at least `dmin` (builder style).
    ///
    /// Note this raises the effective mean above `λ`; with
    /// `dmin = λ` (the paper's choice) the effective mean becomes
    /// `dmin + λ·e⁻¹·…` — the paper accepts the same shift.
    #[must_use]
    pub fn with_min_distance(mut self, dmin: Duration) -> Self {
        self.min_distance = Some(dmin);
        self
    }

    /// The configured mean `λ`.
    #[must_use]
    pub fn mean(&self) -> Duration {
        self.mean
    }

    /// Generates `count` arrivals starting after `start`.
    ///
    /// The first arrival is `start` plus one sampled gap, so traces shifted
    /// to different phases of the TDMA cycle can be produced via `start`.
    #[must_use]
    pub fn generate(&self, count: usize, start: Instant) -> ArrivalTrace {
        let arrivals = self.stream(start).take(count).collect();
        ArrivalTrace::new(arrivals).expect("monotone construction")
    }

    /// The arrivals of [`generate`](Self::generate) one at a time, without
    /// end: `generate(count, start)` is the first `count` of them, so a
    /// caller can stop sampling at a horizon instead of at a count.
    pub(crate) fn stream(&self, start: Instant) -> impl Iterator<Item = Instant> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (mean, min_distance) = (self.mean, self.min_distance);
        let mut t = start;
        std::iter::repeat_with(move || {
            let mut gap = sample_exponential(&mut rng, mean);
            if let Some(dmin) = min_distance {
                gap = gap.max(dmin);
            }
            t += gap;
            t
        })
    }
}

/// Samples one exponential gap with the given mean via the inverse CDF.
fn sample_exponential(rng: &mut StdRng, mean: Duration) -> Duration {
    // u ∈ [0, 1); 1 − u ∈ (0, 1] so ln is finite.
    let u: f64 = rng.gen();
    let gap = -(1.0 - u).ln() * mean.as_nanos() as f64;
    Duration::from_nanos(gap.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = ExponentialArrivals::new(Duration::from_millis(1), 99).generate(200, Instant::ZERO);
        let b = ExponentialArrivals::new(Duration::from_millis(1), 99).generate(200, Instant::ZERO);
        assert_eq!(a, b);
        let c =
            ExponentialArrivals::new(Duration::from_millis(1), 100).generate(200, Instant::ZERO);
        assert_ne!(a, c);
    }

    #[test]
    fn empirical_mean_is_close() {
        let mean = Duration::from_millis(3);
        let trace = ExponentialArrivals::new(mean, 1).generate(20_000, Instant::ZERO);
        let measured = trace.mean_distance().expect("many arrivals");
        let ratio = measured.as_nanos() as f64 / mean.as_nanos() as f64;
        assert!(
            (0.97..1.03).contains(&ratio),
            "empirical mean off by {ratio}"
        );
    }

    #[test]
    fn clamped_traces_respect_dmin() {
        let mean = Duration::from_micros(500);
        let dmin = Duration::from_micros(500);
        let trace = ExponentialArrivals::new(mean, 3)
            .with_min_distance(dmin)
            .generate(5_000, Instant::ZERO);
        assert!(trace.min_distance().expect("arrivals") >= dmin);
    }

    #[test]
    fn unclamped_traces_violate_dmin_sometimes() {
        let mean = Duration::from_micros(500);
        let trace = ExponentialArrivals::new(mean, 3).generate(5_000, Instant::ZERO);
        // P(gap < mean) ≈ 63 %, so the minimum over 5000 gaps is tiny.
        assert!(trace.min_distance().expect("arrivals") < mean);
    }

    #[test]
    fn start_offsets_shift_the_trace() {
        let generator = ExponentialArrivals::new(Duration::from_millis(1), 5);
        let base = generator.generate(10, Instant::ZERO);
        let shifted = generator.generate(10, Instant::from_micros(250));
        for (a, b) in base.iter().zip(shifted.iter()) {
            assert_eq!(*b, *a + Duration::from_micros(250));
        }
    }

    #[test]
    fn exponential_distribution_shape() {
        // ~63.2 % of gaps below the mean for an exponential distribution.
        let mean = Duration::from_millis(2);
        let trace = ExponentialArrivals::new(mean, 11).generate(20_000, Instant::ZERO);
        let below = trace.distances().iter().filter(|d| **d < mean).count();
        let fraction = below as f64 / (trace.len() - 1) as f64;
        assert!(
            (0.61..0.65).contains(&fraction),
            "P(gap < λ) should be ≈ 1 − e⁻¹, got {fraction}"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mean_rejected() {
        let _ = ExponentialArrivals::new(Duration::ZERO, 0);
    }
}
