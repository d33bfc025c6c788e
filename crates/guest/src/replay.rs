//! Fixed-priority preemptive replay of a guest task set over recorded
//! service intervals.

use std::fmt;

use serde::{Deserialize, Serialize};

use rthv_hypervisor::ServiceInterval;
use rthv_time::{Duration, Instant};

use crate::{replay_events, EventTask, GuestTaskSet};

/// Per-task outcome of a replay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs that completed within the horizon.
    pub completed: u64,
    /// Jobs whose response exceeded the task deadline.
    pub deadline_misses: u64,
    /// Largest observed response time among completed jobs.
    pub observed_wcrt: Option<Duration>,
    /// Mean response time among completed jobs.
    pub mean_response: Option<Duration>,
}

/// Outcome of [`replay`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuestReport {
    /// Per-task outcomes, in priority order.
    pub tasks: Vec<TaskReport>,
    /// Total guest processor time consumed.
    pub busy_time: Duration,
    /// Supplied time the guest left idle (no pending job).
    pub idle_time: Duration,
}

impl fmt::Display for GuestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for task in &self.tasks {
            match task.observed_wcrt {
                Some(wcrt) => writeln!(
                    f,
                    "{:<16} {}/{} jobs, wcrt {}, misses {}",
                    task.name, task.completed, task.released, wcrt, task.deadline_misses
                )?,
                None => writeln!(
                    f,
                    "{:<16} {}/{} jobs, no completion",
                    task.name, task.completed, task.released
                )?,
            }
        }
        Ok(())
    }
}

/// Replays `tasks` over the `User`-kind intervals of `supply` up to
/// `horizon`, under fixed-priority preemptive scheduling (index 0 wins;
/// within a task, jobs run FIFO).
///
/// Each task's periodic releases (`offset`, then every `period`, while
/// before `horizon`) are generated up front and scheduled by
/// [`replay_events`], so periodic and event-driven guests share one
/// scheduler.
///
/// Intervals of other kinds (bottom-handler time) are ignored: they model
/// the guest's ISR work, not its task-level supply. Jobs released but not
/// finished by the horizon count as `released` without `completed`.
///
/// # Panics
///
/// Panics if the supply intervals are unsorted or overlap — the hypervisor
/// records them in order, so this indicates caller-side tampering.
#[must_use]
pub fn replay(tasks: &GuestTaskSet, supply: &[ServiceInterval], horizon: Instant) -> GuestReport {
    let periodic: Vec<EventTask> = tasks
        .tasks()
        .iter()
        .map(|task| {
            let mut releases = Vec::new();
            let mut t = Instant::ZERO + task.offset;
            while t < horizon {
                releases.push(t);
                t += task.period;
            }
            EventTask::new(task.name.clone(), task.wcet, task.deadline, releases)
        })
        .collect();
    replay_events(&periodic, supply, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuestTask;
    use rthv_hypervisor::ServiceKind;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn at_ms(n: u64) -> Instant {
        Instant::ZERO + ms(n)
    }

    fn user(start_ms: u64, end_ms: u64) -> ServiceInterval {
        ServiceInterval {
            start: at_ms(start_ms),
            end: at_ms(end_ms),
            kind: ServiceKind::User,
        }
    }

    fn full_supply(end_ms: u64) -> Vec<ServiceInterval> {
        vec![user(0, end_ms)]
    }

    #[test]
    fn single_task_full_supply() {
        let tasks = GuestTaskSet::new(vec![GuestTask::new("t", ms(10), ms(2))]).expect("valid");
        let report = replay(&tasks, &full_supply(100), at_ms(100));
        assert_eq!(report.tasks[0].released, 10);
        assert_eq!(report.tasks[0].completed, 10);
        assert_eq!(report.tasks[0].observed_wcrt, Some(ms(2)));
        assert_eq!(report.tasks[0].deadline_misses, 0);
        assert_eq!(report.busy_time, ms(20));
        assert_eq!(report.idle_time, ms(80));
    }

    #[test]
    fn classic_rate_monotonic_preemption() {
        // High: P=5, C=2; Low: P=20, C=6. Low's first job runs in the gaps
        // of High: [2,5) and [7,10), completing at t = 10 → response 10 ms
        // (the classic response-time fixed point: 6 + 2·⌈10/5⌉ = 10).
        let tasks = GuestTaskSet::new(vec![
            GuestTask::new("high", ms(5), ms(2)),
            GuestTask::new("low", ms(20), ms(6)),
        ])
        .expect("valid");
        let report = replay(&tasks, &full_supply(40), at_ms(40));
        assert_eq!(report.tasks[0].observed_wcrt, Some(ms(2)));
        assert_eq!(report.tasks[1].observed_wcrt, Some(ms(10)));
        assert_eq!(report.tasks[1].deadline_misses, 0);
    }

    #[test]
    fn tdma_like_supply_delays_tasks() {
        // Supply 6 ms of every 14 ms (the paper's slot share).
        let supply: Vec<ServiceInterval> = (0..10).map(|k| user(k * 14, k * 14 + 6)).collect();
        let tasks = GuestTaskSet::new(vec![GuestTask::new("t", ms(14), ms(2))]).expect("valid");
        let report = replay(&tasks, &supply, at_ms(140));
        assert_eq!(report.tasks[0].completed, 10);
        // Jobs released at k·14 run right at slot starts: response 2 ms.
        assert_eq!(report.tasks[0].observed_wcrt, Some(ms(2)));
        // Shift the task phase so releases land after the slot: response
        // includes the 8 ms no-supply gap.
        let shifted = GuestTaskSet::new(vec![GuestTask::new("t", ms(14), ms(2))
            .with_offset(ms(6))
            .with_deadline(ms(8))])
        .expect("valid");
        let report = replay(&shifted, &supply, at_ms(140));
        // Released at 6 ms, supply resumes at 14 ms, completes at 16 ms —
        // a 10 ms response that violates the 8 ms constrained deadline.
        assert_eq!(report.tasks[0].observed_wcrt, Some(ms(10)));
        assert_eq!(report.tasks[0].deadline_misses, report.tasks[0].completed);
    }

    #[test]
    fn bottom_intervals_are_not_supply() {
        let supply = vec![
            ServiceInterval {
                start: at_ms(0),
                end: at_ms(10),
                kind: ServiceKind::Bottom,
            },
            user(10, 20),
        ];
        let tasks = GuestTaskSet::new(vec![GuestTask::new("t", ms(50), ms(2))]).expect("valid");
        let report = replay(&tasks, &supply, at_ms(50));
        // Release at 0, but supply only from 10 ms → response 12 ms.
        assert_eq!(report.tasks[0].observed_wcrt, Some(ms(12)));
    }

    #[test]
    fn unfinished_jobs_are_reported() {
        let tasks = GuestTaskSet::new(vec![GuestTask::new("t", ms(10), ms(8))]).expect("valid");
        // Only 4 ms of supply for an 8 ms job.
        let report = replay(&tasks, &[user(0, 4)], at_ms(10));
        assert_eq!(report.tasks[0].released, 1);
        assert_eq!(report.tasks[0].completed, 0);
        assert_eq!(report.tasks[0].observed_wcrt, None);
        assert_eq!(report.busy_time, ms(4));
    }

    #[test]
    fn overloaded_guest_misses_deadlines() {
        let tasks = GuestTaskSet::new(vec![
            GuestTask::new("high", ms(10), ms(6)),
            GuestTask::new("low", ms(10), ms(6)),
        ])
        .expect("valid");
        let report = replay(&tasks, &full_supply(100), at_ms(100));
        assert!(report.tasks[1].deadline_misses > 0);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn overlapping_supply_rejected() {
        let tasks = GuestTaskSet::new(vec![GuestTask::new("t", ms(10), ms(1))]).expect("valid");
        let _ = replay(&tasks, &[user(0, 10), user(5, 15)], at_ms(20));
    }

    #[test]
    fn time_conservation_in_replay() {
        let supply: Vec<ServiceInterval> = (0..20).map(|k| user(k * 10, k * 10 + 4)).collect();
        let tasks = GuestTaskSet::new(vec![
            GuestTask::new("a", ms(20), ms(1)),
            GuestTask::new("b", ms(40), ms(3)),
        ])
        .expect("valid");
        let report = replay(&tasks, &supply, at_ms(200));
        let supplied: Duration = supply.iter().map(ServiceInterval::length).sum();
        assert_eq!(report.busy_time + report.idle_time, supplied);
    }

    #[test]
    fn display_lists_tasks() {
        let tasks = GuestTaskSet::new(vec![GuestTask::new("ctl", ms(10), ms(1))]).expect("valid");
        let report = replay(&tasks, &full_supply(20), at_ms(20));
        assert!(report.to_string().contains("ctl"));
        assert!(report.to_string().contains("2/2 jobs"));
    }
}
