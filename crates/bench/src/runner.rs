//! Parallel scenario fan-out with sequential-identical results and
//! panic-isolated workers.
//!
//! Every experiment in this crate is a *sweep*: a list of independent
//! scenarios (d_min points, load levels, policy combinations), each fully
//! determined by its own parameters and RNG seed. [`SweepRunner`] fans such
//! a list across OS threads with [`std::thread::scope`] — no external
//! dependencies, the CI container has no route to the crates registry — and
//! returns the results **in scenario order**, so the output is bit-identical
//! to the sequential path no matter how many threads ran or how the OS
//! scheduled them.
//!
//! Two ingredients make that guarantee hold:
//!
//! 1. every scenario owns its seed — no RNG state is shared across
//!    scenarios, so execution order cannot perturb any draw;
//! 2. results are written into a per-scenario slot and read back in index
//!    order — merge order is fixed even though completion order is not.
//!
//! Crash safety: every scenario closure runs under
//! [`std::panic::catch_unwind`], so a panicking scenario never unwinds
//! through a worker thread — the remaining scenarios still run, result
//! locks are never poisoned, and the failure surfaces as a typed
//! [`SweepError`] ([`SweepRunner::try_run`]).
//!
//! Aggregations over the ordered results (histogram merges via
//! [`LatencyHistogram::merge`], latency sums, maxima) are then plain folds
//! of per-scenario values and reproduce a single-accumulator sequential run
//! exactly.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use rthv::stats::LatencyHistogram;

/// Why a sweep could not produce a full result vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A scenario closure panicked; the payload is preserved. When several
    /// scenarios panic, the one with the lowest index is reported
    /// (deterministic regardless of thread interleaving).
    ScenarioPanicked {
        /// Index of the panicking scenario.
        index: usize,
        /// The panic payload, stringified.
        panic_msg: String,
    },
    /// A scenario slot was never filled — a worker died without writing a
    /// result or a panic record. Should be unreachable; kept as a typed
    /// error instead of an `unwrap` so a harness bug degrades into data.
    MissingResult {
        /// Index of the unfilled slot.
        index: usize,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::ScenarioPanicked { index, panic_msg } => {
                write!(f, "scenario {index} panicked: {panic_msg}")
            }
            SweepError::MissingResult { index } => {
                write!(f, "scenario {index} produced no result")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Stringifies a panic payload (`&str` and `String` payloads verbatim,
/// anything else a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A thread-pool-free parallel sweep executor.
///
/// # Examples
///
/// ```
/// use rthv_experiments::SweepRunner;
///
/// let inputs = [1u64, 2, 3, 4, 5];
/// let sequential = SweepRunner::sequential().run(&inputs, |_, &x| x * x);
/// let parallel = SweepRunner::new(4).run(&inputs, |_, &x| x * x);
/// assert_eq!(sequential, parallel);
/// assert_eq!(parallel, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner that executes scenarios one after another on the calling
    /// thread (the reference path).
    #[must_use]
    pub fn sequential() -> Self {
        SweepRunner { threads: 1 }
    }

    /// A runner using up to `threads` worker threads (clamped to at least
    /// one). `SweepRunner::new(1)` is exactly [`sequential`](Self::sequential).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// A runner sized to the host: one worker per available core.
    #[must_use]
    pub fn available() -> Self {
        SweepRunner::new(
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker count that actually runs for `scenario_count` scenarios:
    /// no more threads than scenarios are spawned, so a 3-point sweep on a
    /// 16-core host uses 3 workers. Exported with per-point timings so a
    /// reported "parallel" number says how parallel it really was.
    #[must_use]
    pub fn effective_threads(&self, scenario_count: usize) -> usize {
        self.threads.min(scenario_count).max(1)
    }

    /// Runs `scenario(index, &scenarios[index])` for every scenario and
    /// returns the results in scenario order.
    ///
    /// Scenarios are claimed from a shared atomic cursor, so threads stay
    /// busy even when per-scenario run times differ widely (the largest
    /// d_min points of a sweep can run an order of magnitude longer than
    /// the smallest).
    ///
    /// # Panics
    ///
    /// Panics (on the calling thread, after every worker finished) if any
    /// scenario closure panicked — the typed-error path is
    /// [`try_run`](Self::try_run).
    pub fn run<S, R, F>(&self, scenarios: &[S], scenario: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(usize, &S) -> R + Sync,
    {
        match self.try_run(scenarios, scenario) {
            Ok(results) => results,
            Err(error) => panic!("{error}"),
        }
    }

    /// Like [`run`](Self::run), but a panicking scenario becomes a typed
    /// [`SweepError`] instead of unwinding: the panic is caught inside the
    /// worker, every other scenario still executes, and no lock is
    /// poisoned. When several scenarios panic, the lowest index wins —
    /// deterministically, whatever the thread interleaving.
    ///
    /// # Errors
    ///
    /// [`SweepError::ScenarioPanicked`] for the first (by index) panicking
    /// scenario; [`SweepError::MissingResult`] if a result slot was never
    /// filled.
    pub fn try_run<S, R, F>(&self, scenarios: &[S], scenario: F) -> Result<Vec<R>, SweepError>
    where
        S: Sync,
        R: Send,
        F: Fn(usize, &S) -> R + Sync,
    {
        let execute = |index: usize, s: &S| -> Result<R, SweepError> {
            catch_unwind(AssertUnwindSafe(|| scenario(index, s))).map_err(|payload| {
                SweepError::ScenarioPanicked {
                    index,
                    panic_msg: panic_message(payload.as_ref()),
                }
            })
        };

        if self.threads == 1 || scenarios.len() <= 1 {
            return scenarios
                .iter()
                .enumerate()
                .map(|(index, s)| execute(index, s))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, SweepError>>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(scenarios.len());
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(s) = scenarios.get(index) else {
                        break;
                    };
                    let result = execute(index, s);
                    // catch_unwind above means no worker unwinds holding
                    // this lock, but a poisoned lock still must not take
                    // down the sweep: the data underneath is a plain
                    // `Option` write, valid regardless.
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                });
            }
        });
        let mut results = Vec::with_capacity(slots.len());
        for (index, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(Ok(result)) => results.push(result),
                Some(Err(error)) => return Err(error),
                None => return Err(SweepError::MissingResult { index }),
            }
        }
        Ok(results)
    }
}

impl Default for SweepRunner {
    /// Defaults to [`SweepRunner::available`].
    fn default() -> Self {
        SweepRunner::available()
    }
}

/// Folds per-scenario histograms — in iteration order — into one, via
/// [`LatencyHistogram::merge`]. Returns `None` for an empty iterator.
///
/// Fed with a [`SweepRunner::run`] result this reproduces, bin for bin, the
/// histogram a sequential loop filling a single accumulator would build.
///
/// # Panics
///
/// Panics if the histograms disagree on geometry.
#[must_use]
pub fn merge_histograms(
    parts: impl IntoIterator<Item = LatencyHistogram>,
) -> Option<LatencyHistogram> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next()?;
    for part in parts {
        merged.merge(&part);
    }
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rthv::time::Duration;

    #[test]
    fn results_come_back_in_scenario_order() {
        let inputs: Vec<usize> = (0..32).collect();
        // Skew the per-scenario run time so completion order differs from
        // scenario order.
        let out = SweepRunner::new(8).run(&inputs, |index, &x| {
            let spins = (32 - index) * 1_000;
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i as u64);
            }
            std::hint::black_box(acc);
            x * 2
        });
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let inputs: Vec<u64> = (0..17).collect();
        let f = |index: usize, x: &u64| (index as u64) * 1_000 + x * x;
        assert_eq!(
            SweepRunner::sequential().run(&inputs, f),
            SweepRunner::new(5).run(&inputs, f),
        );
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert!(SweepRunner::available().threads() >= 1);
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u8> = Vec::new();
        assert!(SweepRunner::new(4).run(&empty, |_, &x| x).is_empty());
        assert_eq!(SweepRunner::new(4).run(&[7u8], |_, &x| x), vec![7]);
    }

    #[test]
    fn a_panicking_scenario_is_a_typed_error_not_a_poisoned_sweep() {
        for runner in [SweepRunner::sequential(), SweepRunner::new(4)] {
            let inputs: Vec<u64> = (0..9).collect();
            let verdict = runner.try_run(&inputs, |_, &x| {
                assert!(x != 4, "scenario four is cursed");
                x * 10
            });
            match verdict {
                Err(SweepError::ScenarioPanicked { index, panic_msg }) => {
                    assert_eq!(index, 4);
                    assert!(panic_msg.contains("cursed"), "got: {panic_msg}");
                }
                other => panic!("expected a typed panic error, got {other:?}"),
            }
            // The same runner still works afterwards — nothing poisoned.
            assert_eq!(
                runner.try_run(&inputs, |_, &x| x + 1),
                Ok((1..=9).collect::<Vec<u64>>())
            );
        }
    }

    #[test]
    fn lowest_index_wins_when_several_scenarios_panic() {
        let inputs: Vec<u64> = (0..16).collect();
        let verdict = SweepRunner::new(8).try_run(&inputs, |_, &x| {
            assert!(x % 3 != 2, "boom {x}");
            x
        });
        assert!(
            matches!(verdict, Err(SweepError::ScenarioPanicked { index: 2, .. })),
            "got {verdict:?}"
        );
    }

    #[test]
    fn merge_histograms_matches_single_accumulator() {
        let bin = Duration::from_micros(100);
        let range = Duration::from_micros(1_000);
        let samples: Vec<Duration> = (0..50u64)
            .map(|i| Duration::from_micros(i * 37 % 1_200))
            .collect();

        let mut sequential = LatencyHistogram::new(bin, range).expect("valid");
        for &s in &samples {
            sequential.add(s);
        }

        let parts: Vec<LatencyHistogram> = samples
            .chunks(7)
            .map(|chunk| {
                let mut h = LatencyHistogram::new(bin, range).expect("valid");
                for &s in chunk {
                    h.add(s);
                }
                h
            })
            .collect();
        let merged = merge_histograms(parts).expect("non-empty");
        assert_eq!(merged.count(), sequential.count());
        assert_eq!(merged.overflow(), sequential.overflow());
        assert!(merged.iter().eq(sequential.iter()));
    }

    #[test]
    fn merge_histograms_empty_is_none() {
        assert!(merge_histograms(Vec::new()).is_none());
    }
}
