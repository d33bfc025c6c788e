//! Bound-headroom gauges: observed window interference vs the Eq. 13–16
//! budget.

use std::collections::VecDeque;
use std::fmt::Write as _;

use rthv_time::{Duration, Instant};

/// Hard cap on retained admission timestamps for sources without a finite
/// event budget (unmonitored or zero-`d_min` shapers): the gauge saturates
/// rather than growing without bound.
const UNBUDGETED_CAPACITY: usize = 4096;

/// Tracks, per source, the densest admission window observed so far and
/// compares it against the paper's interference budget
/// `η⁺(Δt) · C'_BH` (Eq. 13–16, with `η⁺(Δt) = ⌈Δt/d_min⌉` events for the
/// `l = 1` monitor).
///
/// The gauge keeps a sliding window of admission timestamps. Its capacity
/// is reserved at construction — for a monitored source the δ⁻ conformance
/// of the admitted stream caps the window population at `budget_events`,
/// so recording never allocates on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadroomGauge {
    /// Window length Δt the budget refers to.
    window: Duration,
    /// Maximum conforming events per closed window, `η⁺(Δt)`; `None` for
    /// sources without an enforced budget.
    budget_events: Option<u64>,
    /// Charge per admission, `C'_BH = C_BH + C_sched + 2·C_ctx` (Eq. 16).
    effective_cost: Duration,
    /// Admission timestamps inside the current window, oldest first.
    admissions: VecDeque<Instant>,
    /// Most timestamps `admissions` retains. Kept apart from the deque's
    /// capacity, which a clone does not preserve.
    retain: usize,
    /// Densest window population ever observed.
    max_window_events: u64,
    /// Admissions not retained because the unbudgeted cap was hit.
    saturated: u64,
}

impl HeadroomGauge {
    /// Creates a gauge for one source.
    #[must_use]
    pub fn new(window: Duration, budget_events: Option<u64>, effective_cost: Duration) -> Self {
        let capacity = match budget_events {
            Some(budget) => usize::try_from(budget.saturating_add(1))
                .unwrap_or(UNBUDGETED_CAPACITY)
                .min(UNBUDGETED_CAPACITY),
            None => UNBUDGETED_CAPACITY,
        };
        HeadroomGauge {
            window,
            budget_events,
            effective_cost,
            admissions: VecDeque::with_capacity(capacity),
            retain: capacity,
            max_window_events: 0,
            saturated: 0,
        }
    }

    /// Records one admitted activation at `now` (non-decreasing).
    pub fn record(&mut self, now: Instant) {
        while let Some(&oldest) = self.admissions.front() {
            if now.duration_since(oldest) > self.window {
                self.admissions.pop_front();
            } else {
                break;
            }
        }
        if self.admissions.len() == self.retain {
            // Only reachable for unbudgeted sources (or a budget wider than
            // the hard cap): saturate instead of allocating mid-run.
            self.saturated += 1;
        } else {
            self.admissions.push_back(now);
        }
        let in_window = self.admissions.len() as u64 + u64::from(self.saturated > 0);
        self.max_window_events = self.max_window_events.max(in_window);
    }

    /// The window length Δt.
    #[must_use]
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The event budget `η⁺(Δt)`, when one is enforced.
    #[must_use]
    pub fn budget_events(&self) -> Option<u64> {
        self.budget_events
    }

    /// Densest window population observed so far.
    #[must_use]
    pub fn max_window_events(&self) -> u64 {
        self.max_window_events
    }

    /// Remaining events under the budget in the densest window seen:
    /// `budget − max_observed`. `None` without a budget; saturates at zero
    /// (a negative value would mean the monitor failed, which the oracle
    /// tests separately).
    #[must_use]
    pub fn min_headroom_events(&self) -> Option<u64> {
        self.budget_events
            .map(|budget| budget.saturating_sub(self.max_window_events))
    }

    /// Worst observed interference: `max_window_events · C'_BH`.
    #[must_use]
    pub fn max_observed_interference(&self) -> Duration {
        self.effective_cost * self.max_window_events
    }

    /// The Eq. 13–16 interference budget `η⁺(Δt) · C'_BH`, when bounded.
    #[must_use]
    pub fn interference_budget(&self) -> Option<Duration> {
        self.budget_events
            .map(|budget| self.effective_cost * budget)
    }

    /// Appends the gauge as a JSON object value (no key) to `out`.
    pub(crate) fn write_json(&self, out: &mut String, pad: &str) {
        let _ = writeln!(out, "{pad}\"gauge\": {{");
        let _ = writeln!(out, "{pad}  \"window_ns\": {},", self.window.as_nanos());
        let _ = writeln!(
            out,
            "{pad}  \"effective_cost_ns\": {},",
            self.effective_cost.as_nanos()
        );
        let _ = writeln!(
            out,
            "{pad}  \"budget_events\": {},",
            match self.budget_events {
                Some(budget) => budget as i128,
                None => -1,
            }
        );
        let _ = writeln!(
            out,
            "{pad}  \"budget_interference_ns\": {},",
            match self.interference_budget() {
                Some(budget) => i128::from(budget.as_nanos()),
                None => -1,
            }
        );
        let _ = writeln!(
            out,
            "{pad}  \"max_window_events\": {},",
            self.max_window_events
        );
        let _ = writeln!(
            out,
            "{pad}  \"max_observed_interference_ns\": {},",
            self.max_observed_interference().as_nanos()
        );
        let _ = writeln!(
            out,
            "{pad}  \"min_headroom_events\": {}",
            match self.min_headroom_events() {
                Some(headroom) => i128::from(headroom),
                None => -1,
            }
        );
        let _ = writeln!(out, "{pad}}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Instant {
        Instant::from_micros(n)
    }

    #[test]
    fn gauge_tracks_densest_window() {
        // Budget: 4 events per 1 ms window at 100 µs cost each.
        let mut gauge = HeadroomGauge::new(
            Duration::from_millis(1),
            Some(4),
            Duration::from_micros(100),
        );
        for t in [0u64, 300, 600, 900] {
            gauge.record(us(t));
        }
        assert_eq!(gauge.max_window_events(), 4);
        assert_eq!(gauge.min_headroom_events(), Some(0));
        // 2 ms later the window is empty again; one more admission cannot
        // beat the historical maximum.
        gauge.record(us(3_000));
        assert_eq!(gauge.max_window_events(), 4);
        assert_eq!(
            gauge.max_observed_interference(),
            Duration::from_micros(400)
        );
        assert_eq!(
            gauge.interference_budget(),
            Some(Duration::from_micros(400))
        );
    }

    #[test]
    fn closed_window_includes_both_edges() {
        let mut gauge = HeadroomGauge::new(Duration::from_micros(100), Some(2), Duration::ZERO);
        gauge.record(us(0));
        gauge.record(us(100)); // exactly Δt apart: still in the closed window
        assert_eq!(gauge.max_window_events(), 2);
        gauge.record(us(201)); // > Δt after both: window shrinks to 1
        assert_eq!(gauge.max_window_events(), 2);
        assert_eq!(gauge.min_headroom_events(), Some(0));
    }

    #[test]
    fn unbudgeted_gauge_reports_no_headroom() {
        let mut gauge = HeadroomGauge::new(Duration::from_millis(1), None, Duration::from_nanos(1));
        gauge.record(us(1));
        assert_eq!(gauge.budget_events(), None);
        assert_eq!(gauge.min_headroom_events(), None);
        assert_eq!(gauge.interference_budget(), None);
        assert_eq!(gauge.max_window_events(), 1);
    }

    #[test]
    fn a_clone_saturates_where_the_original_does() {
        // Budget 1 retains two timestamps. A clone's deque holds only as
        // much as it had to copy, so its capacity must not set the cap.
        let mut gauge = HeadroomGauge::new(Duration::from_millis(1), Some(1), Duration::ZERO);
        gauge.record(us(0));
        let mut copy = gauge.clone();
        for gauge in [&mut gauge, &mut copy] {
            gauge.record(us(10));
            gauge.record(us(20));
        }
        assert_eq!(copy, gauge);
        assert_eq!(copy.max_window_events(), 3);
    }
}
