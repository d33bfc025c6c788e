//! Raw-arrival conformance watching — the shaper-level observation hook
//! the hypervisor's health supervision is built on.
//!
//! The [`ActivationMonitor`](crate::ActivationMonitor) answers "*may this
//! arrival be interposed?*" and records only what it admits. Supervision
//! needs the complementary question: "*does the raw arrival stream of this
//! source currently conform to δ⁻ at all?*" — e.g. to decide that a
//! quarantined source has calmed down and may be taken back. A
//! [`ConformanceWatch`] therefore replays **every** observed arrival
//! against the shaper's configured condition, records it unconditionally
//! (shadow semantics — the stream that ran, not the stream that was
//! admitted), and reports per arrival whether it kept the required
//! distances.

use rthv_time::{Duration, Instant};

use crate::{ActivationMonitor, Admission, DeltaFunction, Shaper};

/// A shadow δ⁻ replay over a source's *raw* arrival stream.
///
/// Unlike the admission monitor, observations are recorded whether or not
/// they conform; a violation therefore reflects the spacing of the stream
/// that actually fired, and [`last_violation`](ConformanceWatch::last_violation)
/// marks the most recent non-conformant arrival. A supervisor that wants
/// "conformant for a probation window" checks the time elapsed since then.
///
/// # Examples
///
/// ```
/// use rthv_monitor::{ConformanceWatch, DeltaFunction};
/// use rthv_time::{Duration, Instant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let delta = DeltaFunction::from_dmin(Duration::from_millis(3))?;
/// let mut watch = ConformanceWatch::new(delta);
/// assert!(watch.observe(Instant::from_micros(3_000)));   // first is free
/// assert!(!watch.observe(Instant::from_micros(4_000)));  // 1 ms < d_min
/// // The violating arrival is recorded too: 3 ms after *it* conforms.
/// assert!(watch.observe(Instant::from_micros(7_000)));
/// assert_eq!(watch.last_violation(), Some(Instant::from_micros(4_000)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConformanceWatch {
    shadow: ActivationMonitor,
    observed: u64,
    violations: u64,
    last_violation: Option<Instant>,
}

impl ConformanceWatch {
    /// Creates a watch enforcing the given δ⁻ on the observed stream.
    #[must_use]
    pub fn new(delta: DeltaFunction) -> Self {
        ConformanceWatch {
            shadow: ActivationMonitor::new(delta),
            observed: 0,
            violations: 0,
            last_violation: None,
        }
    }

    /// Observes one raw arrival at `at`; returns `true` if it kept the
    /// required distances to the previously observed arrivals. The arrival
    /// is recorded either way.
    pub fn observe(&mut self, at: Instant) -> bool {
        let conformant = matches!(self.shadow.check(at), Admission::Admitted);
        self.shadow.record_admitted(at);
        self.observed += 1;
        if !conformant {
            self.violations += 1;
            self.last_violation = Some(at);
        }
        conformant
    }

    /// The δ⁻ condition the watch replays.
    #[must_use]
    pub fn delta(&self) -> &DeltaFunction {
        self.shadow.delta()
    }

    /// Arrivals observed so far.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Non-conformant arrivals observed so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Timestamp of the most recent non-conformant arrival, if any.
    #[must_use]
    pub fn last_violation(&self) -> Option<Instant> {
        self.last_violation
    }

    /// Time the observed stream has been conformant as of `now`: the span
    /// since the last violation, or since the epoch when none occurred.
    #[must_use]
    pub fn conformant_for(&self, now: Instant) -> Duration {
        match self.last_violation {
            Some(at) => now.saturating_duration_since(at),
            None => now.saturating_duration_since(Instant::ZERO),
        }
    }

    /// Feeds the watch's mutable state to `word` as canonical `u64` words
    /// (shadow monitor state, counts, last-violation timestamp) for
    /// checkpoint state-hashing.
    pub fn state_words(&self, word: &mut impl FnMut(u64)) {
        self.shadow.state_words(word);
        word(self.observed);
        word(self.violations);
        match self.last_violation {
            Some(at) => {
                word(1);
                word(at.as_nanos());
            }
            None => word(0),
        }
    }
}

impl Shaper {
    /// The supervision hook: a [`ConformanceWatch`] replaying this shaper's
    /// admission condition over a raw arrival stream. For a δ⁻ shaper the
    /// watch enforces the same δ⁻; for a token bucket it enforces the
    /// bucket's long-term rate (`d_min = refill_interval`), which is the
    /// distance condition a calmed-down stream must satisfy for the bucket
    /// never to run dry.
    #[must_use]
    pub fn watch(&self) -> ConformanceWatch {
        let delta = match self {
            Shaper::Delta(monitor) => monitor.delta().clone(),
            Shaper::Bucket(bucket) => DeltaFunction::from_dmin(bucket.refill_interval())
                .expect("token buckets reject zero refill intervals"),
        };
        ConformanceWatch::new(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShaperConfig;

    fn dmin_watch(us: u64) -> ConformanceWatch {
        ConformanceWatch::new(DeltaFunction::from_dmin(Duration::from_micros(us)).expect("valid"))
    }

    #[test]
    fn conformant_stream_never_violates() {
        let mut watch = dmin_watch(300);
        for k in 1..=10 {
            assert!(watch.observe(Instant::from_micros(300 * k)));
        }
        assert_eq!(watch.observed(), 10);
        assert_eq!(watch.violations(), 0);
        assert_eq!(watch.last_violation(), None);
        assert_eq!(
            watch.conformant_for(Instant::from_micros(3_000)),
            Duration::from_micros(3_000)
        );
    }

    #[test]
    fn violations_are_recorded_and_anchor_the_clean_stretch() {
        let mut watch = dmin_watch(300);
        assert!(watch.observe(Instant::from_micros(300)));
        assert!(!watch.observe(Instant::from_micros(400)));
        assert!(!watch.observe(Instant::from_micros(500)));
        assert_eq!(watch.violations(), 2);
        assert_eq!(watch.last_violation(), Some(Instant::from_micros(500)));
        assert_eq!(
            watch.conformant_for(Instant::from_micros(1_700)),
            Duration::from_micros(1_200)
        );
    }

    #[test]
    fn shadow_records_violators_unlike_the_admission_monitor() {
        // 300, 400, 700: the admission monitor admits 300 and 700 (distance
        // 400 ≥ d_min to the last *admitted*); the watch flags 700 too,
        // because the raw stream spacing 400→700 is only 300... exactly
        // d_min, so it conforms — but 400→650 would not.
        let mut watch = dmin_watch(300);
        assert!(watch.observe(Instant::from_micros(300)));
        assert!(!watch.observe(Instant::from_micros(400)));
        assert!(!watch.observe(Instant::from_micros(650)));
        assert!(watch.observe(Instant::from_micros(950)));
    }

    #[test]
    fn shaper_hook_covers_both_variants() {
        let delta = DeltaFunction::from_dmin(Duration::from_millis(3)).expect("valid");
        let from_delta = Shaper::from_config(&ShaperConfig::Delta(delta)).watch();
        assert_eq!(from_delta.delta().dmin(), Duration::from_millis(3));

        let from_bucket = Shaper::from_config(&ShaperConfig::TokenBucket {
            capacity: 4,
            refill_interval: Duration::from_millis(2),
        })
        .watch();
        assert_eq!(from_bucket.delta().dmin(), Duration::from_millis(2));
    }
}
