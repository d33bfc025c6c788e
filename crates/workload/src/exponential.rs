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
    Duration::from_nanos(round_to_u64(gap))
}

/// `x.round() as u64` for every non-negative or NaN `x`, without calling
/// `round`, which is a library call on x86-64 targets without SSE4.1:
/// truncate, then add one when the dropped fraction is at least a half
/// (ties away from zero, as `round` does). The fraction `x - whole` is
/// exact below 2⁵² and zero from there to 2⁶⁴, where every `f64` is
/// whole. The add saturates: at `f64::MAX` and `+∞` the truncation is
/// already `u64::MAX`.
///
/// The half-up step is added as a 0 or 1, not taken as a branch: the
/// fraction of an exponential gap is a coin flip, so a branch on it would
/// be mispredicted about every other sample.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_matches_f64_round() {
        let two_52 = 4_503_599_627_370_496.0_f64;
        let mut values = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            two_52 - 0.5,
            two_52 - 1.5,
            two_52,
            two_52 + 1.0,
            2.0 * two_52 - 1.0,
            2.0 * two_52,
            18_446_744_073_709_549_568.0, // the largest f64 below 2⁶⁴
            18_446_744_073_709_551_616.0, // 2⁶⁴
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        // Every tie and its neighbours on either side.
        for whole in [0.0, 1.0, 7.0, 1_000_000.0, two_52 / 2.0 - 1.0] {
            let tie: f64 = whole + 0.5;
            values.extend([tie, tie.next_down(), tie.next_up()]);
        }
        // A stride through 2⁵²–2⁵³, where every f64 is whole.
        values.extend((0..1_000).map(|i| two_52 + f64::from(i) * 4_503_599_627.0));
        for x in values {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

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
