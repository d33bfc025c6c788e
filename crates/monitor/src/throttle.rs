//! Token-bucket interrupt throttling — the related-work baseline
//! (Regehr & Duongsaa, "Preventing interrupt overload", the paper's
//! reference [11]) — and the [`Shaper`] abstraction that lets the
//! hypervisor use either it or the δ⁻ monitor as its admission policy.

use std::fmt;

use serde::{Deserialize, Serialize};

use rthv_time::{Duration, Instant};

use crate::{ActivationMonitor, Admission, DeltaFunction, MonitorStats};

/// A deterministic token bucket: one token refills every
/// `refill_interval`, up to `capacity`; each admission consumes one token.
///
/// Compared to the δ⁻ monitor, a bucket with the same long-term rate
/// (`refill_interval = d_min`) admits *bursts* of up to `capacity` events
/// back-to-back — better short-term latency under bursty sources, but a
/// strictly worse guaranteed interference bound:
/// `(capacity + ⌈Δt/refill⌉) · C'_BH` instead of `⌈Δt/d_min⌉ · C'_BH`.
/// A capacity-1 bucket and an `l = 1` δ⁻ monitor coincide.
///
/// # Examples
///
/// ```
/// use rthv_monitor::TokenBucket;
/// use rthv_time::{Duration, Instant};
///
/// let mut bucket = TokenBucket::new(2, Duration::from_millis(3));
/// // A burst of two passes on stored tokens; the third must wait.
/// assert!(bucket.try_admit(Instant::from_micros(0)));
/// assert!(bucket.try_admit(Instant::from_micros(10)));
/// assert!(!bucket.try_admit(Instant::from_micros(20)));
/// // After one refill interval a token is back.
/// assert!(bucket.try_admit(Instant::from_micros(3_020)));
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: u32,
    refill_interval: Duration,
    tokens: u32,
    /// Time credit towards the next token.
    last_refill: Instant,
    stats: MonitorStats,
}

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `refill_interval` is zero.
    #[must_use]
    pub fn new(capacity: u32, refill_interval: Duration) -> Self {
        assert!(capacity > 0, "token bucket needs a positive capacity");
        assert!(
            !refill_interval.is_zero(),
            "token bucket needs a positive refill interval"
        );
        TokenBucket {
            capacity,
            refill_interval,
            tokens: capacity,
            last_refill: Instant::ZERO,
            stats: MonitorStats::default(),
        }
    }

    /// The bucket capacity.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The refill interval.
    #[must_use]
    pub fn refill_interval(&self) -> Duration {
        self.refill_interval
    }

    /// Currently stored tokens (after refilling up to `now`).
    pub fn tokens_at(&mut self, now: Instant) -> u32 {
        self.refill(now);
        self.tokens
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.saturating_duration_since(self.last_refill);
        let earned = elapsed.div_floor(self.refill_interval);
        if earned > 0 {
            let earned_u32 = u32::try_from(earned).unwrap_or(u32::MAX);
            self.tokens = self.tokens.saturating_add(earned_u32).min(self.capacity);
            // Keep the fractional remainder as credit.
            self.last_refill += self.refill_interval * earned;
        }
    }

    /// Checks and records one admission attempt at `now`.
    pub fn try_admit(&mut self, now: Instant) -> bool {
        self.refill(now);
        if self.tokens > 0 {
            self.tokens -= 1;
            self.stats.admitted += 1;
            true
        } else {
            self.stats.denied += 1;
            false
        }
    }

    /// Admission / denial counters.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Feeds the bucket's mutable state to `word` as canonical `u64` words
    /// (token count, refill anchor, counters) for checkpoint state-hashing.
    pub fn state_words(&self, word: &mut impl FnMut(u64)) {
        word(u64::from(self.tokens));
        word(self.last_refill.as_nanos());
        word(self.stats.admitted);
        word(self.stats.denied);
    }
}

impl fmt::Display for TokenBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bucket(cap {}, refill {}, admitted {}, denied {})",
            self.capacity, self.refill_interval, self.stats.admitted, self.stats.denied
        )
    }
}

/// Worst-case interference of token-bucket-shaped interpositions on another
/// partition in a window `Δt` — the bucket counterpart of Eq. 14:
/// `(capacity + ⌈Δt/refill⌉) · C'_BH`.
///
/// # Panics
///
/// Panics if `refill_interval` is zero.
#[must_use]
pub fn token_bucket_interference(
    dt: Duration,
    capacity: u32,
    refill_interval: Duration,
    effective_bottom_cost: Duration,
) -> Duration {
    assert!(
        !refill_interval.is_zero(),
        "interference is unbounded for a zero refill interval"
    );
    let events = u64::from(capacity) + dt.div_ceil(refill_interval);
    effective_bottom_cost.saturating_mul(events)
}

/// Serializable configuration of an admission shaper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShaperConfig {
    /// The paper's δ⁻ activation monitor.
    Delta(DeltaFunction),
    /// A token-bucket throttler (related-work comparison).
    TokenBucket {
        /// Burst capacity.
        capacity: u32,
        /// One token per this interval.
        refill_interval: Duration,
    },
}

impl From<DeltaFunction> for ShaperConfig {
    fn from(delta: DeltaFunction) -> Self {
        ShaperConfig::Delta(delta)
    }
}

/// A runtime admission shaper: the δ⁻ monitor or a token bucket, behind one
/// interface (used by the hypervisor's modified top handler).
#[derive(Debug, Clone)]
pub enum Shaper {
    /// δ⁻ activation monitoring.
    Delta(ActivationMonitor),
    /// Token-bucket throttling.
    Bucket(TokenBucket),
}

impl Shaper {
    /// Instantiates the runtime shaper for a configuration.
    #[must_use]
    pub fn from_config(config: &ShaperConfig) -> Self {
        match config {
            ShaperConfig::Delta(delta) => Shaper::Delta(ActivationMonitor::new(delta.clone())),
            ShaperConfig::TokenBucket {
                capacity,
                refill_interval,
            } => Shaper::Bucket(TokenBucket::new(*capacity, *refill_interval)),
        }
    }

    /// Checks and records one admission attempt at `now`.
    pub fn try_admit(&mut self, now: Instant) -> bool {
        match self {
            Shaper::Delta(monitor) => monitor.try_admit(now),
            Shaper::Bucket(bucket) => bucket.try_admit(now),
        }
    }

    /// Checks and records one admission attempt at `now`, returning the
    /// full verdict. Identical decisions and state updates to
    /// [`try_admit`](Self::try_admit); bucket denials carry no distance
    /// (`violated_distance: usize::MAX`) since a bucket has none.
    pub fn try_admit_detailed(&mut self, now: Instant) -> Admission {
        match self {
            Shaper::Delta(monitor) => monitor.try_admit_detailed(now),
            Shaper::Bucket(bucket) => {
                if bucket.try_admit(now) {
                    Admission::Admitted
                } else {
                    Admission::Denied {
                        violated_distance: usize::MAX,
                    }
                }
            }
        }
    }

    /// Admission / denial counters.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        match self {
            Shaper::Delta(monitor) => monitor.stats(),
            Shaper::Bucket(bucket) => bucket.stats(),
        }
    }

    /// Maximum admissions any closed window of length `dt` can see under
    /// this shaper: `η⁺(Δt)` for the δ⁻ monitor, `capacity + ⌈Δt/refill⌉`
    /// for a bucket. `None` when the shaper enforces no finite budget
    /// (zero `d_min` or zero refill interval) — the event-count factor of
    /// the Eq. 13–16 interference budget, exposed for headroom gauges.
    #[must_use]
    pub fn window_budget(&self, dt: Duration) -> Option<u64> {
        match self {
            Shaper::Delta(monitor) => {
                let eta = monitor.delta().eta_plus(dt);
                (eta != u64::MAX).then_some(eta)
            }
            Shaper::Bucket(bucket) => {
                if bucket.refill_interval().is_zero() {
                    None
                } else {
                    Some(u64::from(bucket.capacity()) + dt.div_ceil(bucket.refill_interval()))
                }
            }
        }
    }

    /// Replaces the δ⁻ condition; returns `false` for bucket shapers.
    pub fn set_delta(&mut self, delta: DeltaFunction) -> bool {
        match self {
            Shaper::Delta(monitor) => {
                monitor.set_delta(delta);
                true
            }
            Shaper::Bucket(_) => false,
        }
    }

    /// Non-mutating admission check where supported (δ⁻ only).
    #[must_use]
    pub fn check(&self, now: Instant) -> Option<Admission> {
        match self {
            Shaper::Delta(monitor) => Some(monitor.check(now)),
            Shaper::Bucket(_) => None,
        }
    }

    /// Feeds the shaper's mutable state to `word` as canonical `u64` words
    /// (a variant discriminant followed by the inner state) for checkpoint
    /// state-hashing.
    pub fn state_words(&self, word: &mut impl FnMut(u64)) {
        match self {
            Shaper::Delta(monitor) => {
                word(0);
                monitor.state_words(word);
            }
            Shaper::Bucket(bucket) => {
                word(1);
                bucket.state_words(word);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_us(n: u64) -> Instant {
        Instant::from_micros(n)
    }

    #[test]
    fn bucket_admits_bursts_up_to_capacity() {
        let mut bucket = TokenBucket::new(3, Duration::from_millis(1));
        assert!(bucket.try_admit(at_us(0)));
        assert!(bucket.try_admit(at_us(1)));
        assert!(bucket.try_admit(at_us(2)));
        assert!(!bucket.try_admit(at_us(3)));
        assert_eq!(
            bucket.stats(),
            MonitorStats {
                admitted: 3,
                denied: 1
            }
        );
    }

    #[test]
    fn refill_is_one_token_per_interval() {
        let mut bucket = TokenBucket::new(2, Duration::from_millis(1));
        assert!(bucket.try_admit(at_us(0)));
        assert!(bucket.try_admit(at_us(0)));
        // 2.5 intervals later: 2 tokens earned, capped at capacity.
        assert_eq!(bucket.tokens_at(at_us(2_500)), 2);
        assert!(bucket.try_admit(at_us(2_500)));
        assert!(bucket.try_admit(at_us(2_500)));
        assert!(!bucket.try_admit(at_us(2_500)));
        // The fractional half-interval of credit persists: one token at
        // 3 ms (0.5 ms later).
        assert!(bucket.try_admit(at_us(3_000)));
    }

    #[test]
    fn capacity_one_bucket_equals_dmin_monitor() {
        let dmin = Duration::from_millis(3);
        let mut bucket = TokenBucket::new(1, dmin);
        let mut monitor = ActivationMonitor::new(DeltaFunction::from_dmin(dmin).expect("valid"));
        // Compare over a pseudo-random conforming/violating pattern.
        let mut t = 0u64;
        for (i, gap) in [3_000u64, 500, 2_500, 3_000, 100, 100, 5_900]
            .iter()
            .enumerate()
        {
            t += gap;
            let now = at_us(t);
            assert_eq!(
                bucket.try_admit(now),
                monitor.try_admit(now),
                "divergence at event {i} (t = {now})"
            );
        }
    }

    #[test]
    fn bucket_interference_exceeds_delta_interference() {
        let dt = Duration::from_millis(14);
        let refill = Duration::from_millis(3);
        let cost = Duration::from_micros(134);
        let delta_bound = crate::interference_bound_dmin(dt, refill, cost);
        for capacity in [1u32, 2, 8] {
            let bucket_bound = token_bucket_interference(dt, capacity, refill, cost);
            assert_eq!(
                bucket_bound,
                delta_bound + cost * u64::from(capacity),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn shaper_round_trips_config() {
        let delta = DeltaFunction::from_dmin(Duration::from_millis(1)).expect("valid");
        let mut shaper = Shaper::from_config(&ShaperConfig::from(delta.clone()));
        assert!(shaper.try_admit(at_us(0)));
        assert!(shaper.set_delta(delta));
        assert!(shaper.check(at_us(1)).is_some());

        let mut bucket = Shaper::from_config(&ShaperConfig::TokenBucket {
            capacity: 1,
            refill_interval: Duration::from_millis(1),
        });
        assert!(bucket.try_admit(at_us(0)));
        assert!(!bucket.set_delta(DeltaFunction::from_dmin(Duration::ZERO).expect("valid")));
        assert!(bucket.check(at_us(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = TokenBucket::new(0, Duration::from_millis(1));
    }

    #[test]
    fn display_summarizes() {
        let mut bucket = TokenBucket::new(2, Duration::from_millis(1));
        let _ = bucket.try_admit(at_us(0));
        assert!(bucket.to_string().contains("cap 2"));
        assert!(bucket.to_string().contains("admitted 1"));
    }
}
