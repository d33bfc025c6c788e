//! Run-time admission check — the *"Interposing IRQ denied?"* diamond of
//! Figure 4b.

use std::fmt;

use serde::{Deserialize, Serialize};

use rthv_time::Instant;

use crate::DeltaFunction;

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Admission {
    /// The activation conforms to δ⁻; the bottom handler may be interposed.
    Admitted,
    /// The activation violates δ⁻ against the `violated_distance + 1`-th
    /// previous admitted activation; the IRQ falls back to delayed handling.
    Denied {
        /// Index into the δ⁻ entries of the first violated constraint
        /// (0 = distance to the immediately preceding admitted activation).
        violated_distance: usize,
    },
}

impl Admission {
    /// Returns `true` for [`Admission::Admitted`].
    #[must_use]
    pub fn is_admitted(self) -> bool {
        matches!(self, Admission::Admitted)
    }
}

/// Counters kept by an [`ActivationMonitor`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Number of activations admitted (interposed).
    pub admitted: u64,
    /// Number of activations denied (delayed).
    pub denied: u64,
}

impl MonitorStats {
    /// Total number of checked activations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.admitted + self.denied
    }
}

/// The δ⁻ activation monitor of the paper (the mechanism of reference \[8\]).
///
/// The monitor stores the timestamps of the last `l` **admitted**
/// activations. A new activation at time `t` is admitted iff for every
/// `i ∈ [0, l)` with a recorded `i`-th previous admitted activation at `t_i`:
///
/// ```text
/// t − t_i ≥ δ⁻.entries()[i]
/// ```
///
/// Admitting against the *admitted* stream (rather than the raw arrival
/// stream) makes the admitted stream δ⁻-conformant by construction, which is
/// precisely the property the interference bound of Eq. 14 requires.
///
/// The check itself is a handful of subtractions and compares — the paper
/// reports 128 instructions for `C_Mon` including the scheduler call; the
/// repo benchmark's `monitor.check_ns` (`benchmark/`, `--trace 1`) measures
/// this implementation on the admissions of its workloads.
///
/// # Examples
///
/// ```
/// use rthv_monitor::{ActivationMonitor, Admission, DeltaFunction};
/// use rthv_time::{Duration, Instant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let delta = DeltaFunction::new(vec![
///     Duration::from_micros(100),
///     Duration::from_micros(500),
/// ])?;
/// let mut monitor = ActivationMonitor::new(delta);
///
/// assert!(monitor.try_admit(Instant::from_micros(0)));
/// assert!(monitor.try_admit(Instant::from_micros(150))); // ≥ 100 µs gap
/// // 150 µs later satisfies the pairwise gap but violates the 3-event span:
/// assert_eq!(
///     monitor.check(Instant::from_micros(300)),
///     Admission::Denied { violated_distance: 1 },
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ActivationMonitor {
    delta: DeltaFunction,
    /// Leading zero entries of `delta`. A zero distance can never be
    /// violated, so the check starts after them: a group budget's
    /// `budget − 1` zeros and one window cost a single compare.
    zeros: usize,
    /// Timestamps of the most recent admitted activations; at most
    /// `delta.len()` entries.
    trace: TraceRing,
    stats: MonitorStats,
}

/// Ring capacity stored inline in the monitor. The paper uses `l = 1`
/// (Section 5's `d_min` rule) and `l = 5` (Appendix A), so the common cases
/// never touch the heap.
const INLINE_TRACE: usize = 8;

/// Fixed-capacity ring of admitted timestamps, most recent first.
///
/// For `l ≤ INLINE_TRACE` the timestamps live in an inline array — the
/// monitor check reads them without pointer chasing and a `Machine` full of
/// monitors allocates nothing per source. Longer δ⁻ functions spill to a
/// heap buffer allocated once at construction; the ring never grows at
/// admission time either way.
#[derive(Debug, Clone)]
struct TraceRing {
    inline: [Instant; INLINE_TRACE],
    /// Backing store for `cap > INLINE_TRACE`; empty otherwise.
    spill: Vec<Instant>,
    /// Slot holding the most recent admitted timestamp.
    head: usize,
    /// Number of recorded timestamps (≤ `cap`).
    len: usize,
    /// Ring capacity, equal to the δ⁻ length.
    cap: usize,
}

impl TraceRing {
    fn new(cap: usize) -> Self {
        debug_assert!(cap > 0, "δ⁻ has at least one entry");
        TraceRing {
            inline: [Instant::ZERO; INLINE_TRACE],
            spill: if cap > INLINE_TRACE {
                vec![Instant::ZERO; cap]
            } else {
                Vec::new()
            },
            head: 0,
            len: 0,
            cap,
        }
    }

    #[inline]
    fn slots(&self) -> &[Instant] {
        if self.cap > INLINE_TRACE {
            &self.spill
        } else {
            &self.inline[..self.cap]
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Timestamp of the most recent admitted activation.
    #[inline]
    fn front(&self) -> Option<Instant> {
        (self.len > 0).then(|| self.slots()[self.head])
    }

    /// Timestamp of the `i`-th previous admitted activation (0 = most
    /// recent). `i` must be below [`len`](Self::len).
    #[inline]
    fn get(&self, i: usize) -> Instant {
        debug_assert!(i < self.len);
        let slot = if i <= self.head {
            self.head - i
        } else {
            self.head + self.cap - i
        };
        self.slots()[slot]
    }

    /// Records a new most-recent timestamp, evicting the oldest when full.
    fn push_front(&mut self, t: Instant) {
        self.head = (self.head + 1) % self.cap;
        if self.cap > INLINE_TRACE {
            self.spill[self.head] = t;
        } else {
            self.inline[self.head] = t;
        }
        self.len = (self.len + 1).min(self.cap);
    }

    /// Rebuilds the ring for a new capacity, keeping the most recent
    /// `min(len, new_cap)` timestamps (cold path — δ⁻ replacement only).
    fn resize(&mut self, new_cap: usize) {
        let keep: Vec<Instant> = (0..self.len.min(new_cap)).map(|i| self.get(i)).collect();
        *self = TraceRing::new(new_cap);
        for &t in keep.iter().rev() {
            self.push_front(t);
        }
    }
}

impl ActivationMonitor {
    /// Creates a monitor enforcing the given minimum-distance function.
    #[must_use]
    pub fn new(delta: DeltaFunction) -> Self {
        let trace = TraceRing::new(delta.len());
        ActivationMonitor {
            zeros: leading_zeros(&delta),
            delta,
            trace,
            stats: MonitorStats::default(),
        }
    }

    /// The enforced minimum-distance function.
    #[must_use]
    pub fn delta(&self) -> &DeltaFunction {
        &self.delta
    }

    /// Replaces the enforced δ⁻ (used when Appendix A's learning phase
    /// finishes) without clearing the trace buffer or counters.
    pub fn set_delta(&mut self, delta: DeltaFunction) {
        if delta.len() != self.trace.cap {
            self.trace.resize(delta.len());
        }
        self.zeros = leading_zeros(&delta);
        self.delta = delta;
    }

    /// Admission / denial counters.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Timestamp of the most recent admitted activation, if any.
    #[must_use]
    pub fn last_admitted(&self) -> Option<Instant> {
        self.trace.front()
    }

    /// Checks whether an activation at `now` would be admitted, **without**
    /// recording it.
    ///
    /// The ubiquitous `l = 1` (`d_min`) case is a dedicated inline fast
    /// path: one timestamp load, one saturating subtraction, one compare —
    /// mirroring the handful of instructions the paper budgets for `C_Mon`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `now` precedes the last admitted
    /// activation — simulation time must be monotonic.
    #[must_use]
    #[inline]
    pub fn check(&self, now: Instant) -> Admission {
        debug_assert!(
            self.trace.front().is_none_or(|last| now >= last),
            "monitor observed time running backwards"
        );
        if self.delta.len() == 1 {
            return match self.trace.front() {
                Some(last) if now.saturating_duration_since(last) < self.delta.dmin() => {
                    Admission::Denied {
                        violated_distance: 0,
                    }
                }
                _ => Admission::Admitted,
            };
        }
        self.check_multi(now)
    }

    /// The general `l > 1` check, kept out of the inlined fast path. It
    /// skips the leading zero entries, which no activation can violate.
    fn check_multi(&self, now: Instant) -> Admission {
        for i in self.zeros..self.trace.len() {
            let distance = now.saturating_duration_since(self.trace.get(i));
            if distance < self.delta.entries()[i] {
                return Admission::Denied {
                    violated_distance: i,
                };
            }
        }
        Admission::Admitted
    }

    /// Records an activation at `now` as admitted.
    ///
    /// Call only after [`check`](Self::check) returned
    /// [`Admission::Admitted`]; the monitor does not re-validate.
    #[inline]
    pub fn record_admitted(&mut self, now: Instant) {
        self.trace.push_front(now);
        self.stats.admitted += 1;
    }

    /// Checks an activation and records the outcome; returns `true` when
    /// admitted.
    ///
    /// This is the exact sequence the modified top handler runs for every
    /// IRQ that arrives in a foreign slot.
    pub fn try_admit(&mut self, now: Instant) -> bool {
        match self.check(now) {
            Admission::Admitted => {
                self.record_admitted(now);
                true
            }
            Admission::Denied { .. } => {
                self.stats.denied += 1;
                false
            }
        }
    }

    /// Checks an activation, records the outcome, and returns the full
    /// [`Admission`] verdict — [`try_admit`](Self::try_admit) with the
    /// violated-distance detail preserved for observability consumers.
    /// Decisions and state updates are identical to `try_admit`.
    pub fn try_admit_detailed(&mut self, now: Instant) -> Admission {
        let admission = self.check(now);
        match admission {
            Admission::Admitted => self.record_admitted(now),
            Admission::Denied { .. } => self.stats.denied += 1,
        }
        admission
    }

    /// Feeds the monitor's state to `word` as canonical `u64` words — the
    /// enforced δ⁻ entries, the admitted-trace timestamps newest-first and
    /// the counters — for checkpoint state-hashing. Two monitors that would
    /// make identical future decisions emit identical words, and a runtime
    /// δ⁻ replacement changes the words immediately.
    pub fn state_words(&self, word: &mut impl FnMut(u64)) {
        word(self.delta.len() as u64);
        for entry in self.delta.entries() {
            word(entry.as_nanos());
        }
        word(self.trace.len() as u64);
        for i in 0..self.trace.len() {
            word(self.trace.get(i).as_nanos());
        }
        word(self.stats.admitted);
        word(self.stats.denied);
    }
}

/// The number of leading zero entries of `delta` (its entries are
/// non-decreasing, so these are all of its zeros).
fn leading_zeros(delta: &DeltaFunction) -> usize {
    delta.entries().iter().take_while(|d| d.is_zero()).count()
}

impl fmt::Display for ActivationMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "monitor({}, admitted {}, denied {})",
            self.delta, self.stats.admitted, self.stats.denied
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rthv_time::Duration;

    fn dmin_monitor(micros: u64) -> ActivationMonitor {
        ActivationMonitor::new(
            DeltaFunction::from_dmin(Duration::from_micros(micros)).expect("valid"),
        )
    }

    #[test]
    fn first_activation_is_always_admitted() {
        let mut m = dmin_monitor(1_000);
        assert!(m.try_admit(Instant::ZERO));
        assert_eq!(m.stats().admitted, 1);
    }

    #[test]
    fn dmin_rule_admits_at_exact_distance() {
        let mut m = dmin_monitor(300);
        assert!(m.try_admit(Instant::from_micros(0)));
        assert!(!m.try_admit(Instant::from_micros(299)));
        assert!(m.try_admit(Instant::from_micros(300)));
        assert_eq!(
            m.stats(),
            MonitorStats {
                admitted: 2,
                denied: 1
            }
        );
    }

    #[test]
    fn denied_events_do_not_reset_the_window() {
        // A denied event must not push the next admission further out:
        // admitted at 0, denied at 250, the event at 300 is ≥ d_min after
        // the last *admitted* one and must pass.
        let mut m = dmin_monitor(300);
        assert!(m.try_admit(Instant::from_micros(0)));
        assert!(!m.try_admit(Instant::from_micros(250)));
        assert!(m.try_admit(Instant::from_micros(300)));
    }

    #[test]
    fn multi_entry_denial_reports_violated_distance() {
        let delta =
            DeltaFunction::new(vec![Duration::from_micros(100), Duration::from_micros(500)])
                .expect("valid");
        let mut m = ActivationMonitor::new(delta);
        m.record_admitted(Instant::from_micros(0));
        m.record_admitted(Instant::from_micros(150));
        assert_eq!(
            m.check(Instant::from_micros(300)),
            Admission::Denied {
                violated_distance: 1
            }
        );
        assert_eq!(
            m.check(Instant::from_micros(200)),
            Admission::Denied {
                violated_distance: 0
            }
        );
        assert_eq!(m.check(Instant::from_micros(500)), Admission::Admitted);
    }

    #[test]
    fn trace_buffer_is_bounded_by_l() {
        let delta = DeltaFunction::new(vec![Duration::from_micros(10), Duration::from_micros(20)])
            .expect("valid");
        let mut m = ActivationMonitor::new(delta);
        for k in 0..100u64 {
            let _ = m.try_admit(Instant::from_micros(k * 1_000));
        }
        assert!(m.trace.len() <= 2);
        assert_eq!(m.stats().admitted, 100);
    }

    #[test]
    fn set_delta_shrinks_trace_buffer() {
        let delta = DeltaFunction::new(vec![
            Duration::from_micros(10),
            Duration::from_micros(20),
            Duration::from_micros(30),
        ])
        .expect("valid");
        let mut m = ActivationMonitor::new(delta);
        for k in 0..3u64 {
            m.record_admitted(Instant::from_micros(k * 100));
        }
        m.set_delta(DeltaFunction::from_dmin(Duration::from_micros(50)).expect("valid"));
        assert_eq!(m.trace.len(), 1);
        assert_eq!(m.last_admitted(), Some(Instant::from_micros(200)));
    }

    #[test]
    fn spill_ring_matches_inline_semantics() {
        // A δ⁻ longer than the inline capacity exercises the heap-spill
        // ring; its admissions must match a reference computed directly
        // from the definition.
        let l = INLINE_TRACE + 4;
        let entries: Vec<Duration> = (1..=l as u64)
            .map(|q| Duration::from_micros(100 * q))
            .collect();
        let delta = DeltaFunction::new(entries.clone()).expect("valid");
        let mut m = ActivationMonitor::new(delta.clone());
        assert!(m.trace.cap > INLINE_TRACE);

        let mut admitted: Vec<Instant> = Vec::new();
        let mut t = 0u64;
        for step in [
            50u64, 100, 100, 30, 250, 100, 100, 100, 90, 500, 100, 700, 20, 100,
        ] {
            t += step;
            let now = Instant::from_micros(t);
            let reference = admitted
                .iter()
                .rev()
                .enumerate()
                .all(|(i, &prev)| now.saturating_duration_since(prev) >= delta.entries()[i]);
            assert_eq!(m.try_admit(now), reference, "divergence at t = {t}");
            if reference {
                admitted.push(now);
                if admitted.len() > l {
                    admitted.remove(0);
                }
            }
        }
    }

    #[test]
    fn ring_wraparound_keeps_most_recent_order() {
        // Push more admissions than the ring holds; get(i) must walk the
        // admitted stream newest-first across the wrap point.
        let delta = DeltaFunction::new(vec![
            Duration::from_micros(1),
            Duration::from_micros(2),
            Duration::from_micros(3),
        ])
        .expect("valid");
        let mut m = ActivationMonitor::new(delta);
        for k in 0..10u64 {
            m.record_admitted(Instant::from_micros(100 * (k + 1)));
        }
        assert_eq!(m.trace.len(), 3);
        assert_eq!(m.trace.get(0), Instant::from_micros(1_000));
        assert_eq!(m.trace.get(1), Instant::from_micros(900));
        assert_eq!(m.trace.get(2), Instant::from_micros(800));
    }

    #[test]
    fn check_does_not_mutate() {
        let mut m = dmin_monitor(100);
        let _ = m.try_admit(Instant::ZERO);
        let before = m.stats();
        let _ = m.check(Instant::from_micros(500));
        assert_eq!(m.stats(), before);
        assert_eq!(m.last_admitted(), Some(Instant::ZERO));
    }

    #[test]
    fn display_summarizes() {
        let mut m = dmin_monitor(100);
        let _ = m.try_admit(Instant::ZERO);
        let _ = m.try_admit(Instant::from_nanos(1));
        let text = m.to_string();
        assert!(text.contains("admitted 1"));
        assert!(text.contains("denied 1"));
    }

    #[test]
    fn zero_dmin_admits_everything() {
        let mut m = dmin_monitor(0);
        for k in 0..10 {
            assert!(m.try_admit(Instant::from_nanos(k)));
        }
    }
}
