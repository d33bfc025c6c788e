//! Shared infrastructure for the experiment binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures as
//! plain-text rows (gnuplot-friendly). This library keeps their formatting
//! consistent and testable, holds the paper-setup simulation scaffolding
//! they previously each copy-pasted, and provides the [`SweepRunner`] that
//! fans independent sweep scenarios across host cores without changing any
//! result. The fault-campaign binaries all run on one driver,
//! [`campaign::drive`], over crash-safe [`journal`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod journal;
pub mod runner;
pub mod sweep;

pub use campaign::{drive, report_verdict, Args, Campaign, Cli, Record};
pub use journal::{read_complete_lines, scenario_observation_json, verified_lines, Journal};
pub use runner::{merge_histograms, SweepError, SweepRunner};

use rthv::monitor::DeltaFunction;
use rthv::time::{Duration, Instant};
use rthv::{IrqHandlingMode, IrqSourceId, Machine, PaperSetup, RunReport};

/// The paper's TDMA supply as seen by the analysis layer: one application
/// slot per cycle, shortened by the context switch that opens it.
#[must_use]
pub fn paper_tdma_slot(setup: &PaperSetup) -> rthv::analysis::TdmaSlot {
    rthv::analysis::TdmaSlot {
        cycle: setup.tdma_cycle(),
        slot: setup.app_slot - setup.costs.context_switch,
    }
}

/// Builds a paper-setup [`Machine`], schedules `trace` on IRQ source 0,
/// runs it to completion and returns the report — the experiment loop every
/// binary used to inline.
///
/// The completion deadline is `last arrival + 100 TDMA cycles`; failing it
/// means the configuration is overloaded, which no paper experiment is.
///
/// # Panics
///
/// Panics if the setup is invalid, the trace is empty or non-monotonic, or
/// the run misses the deadline.
#[must_use]
pub fn run_paper_machine(
    setup: &PaperSetup,
    mode: IrqHandlingMode,
    monitor: Option<DeltaFunction>,
    trace: &[Instant],
) -> RunReport {
    let mut machine = Machine::new(setup.config(mode, monitor)).expect("valid paper setup");
    machine
        .schedule_irq_trace(IrqSourceId::new(0), trace)
        .expect("trace lies in the future");
    let last = *trace.last().expect("non-empty trace");
    assert!(
        machine.run_until_complete(last + setup.tdma_cycle() * 100),
        "paper-setup run did not complete — configuration overloaded?"
    );
    machine.finish()
}

/// Formats a duration as microseconds with a fixed `us` suffix, the unit of
/// every figure in the paper.
///
/// # Examples
///
/// ```
/// use rthv_experiments::us;
/// use rthv::time::Duration;
///
/// assert_eq!(us(Duration::from_micros(2_500)), "2500.0us");
/// assert_eq!(us(Duration::from_nanos(640)), "0.6us");
/// ```
#[must_use]
pub fn us(duration: Duration) -> String {
    format!("{:.1}us", duration.as_nanos() as f64 / 1_000.0)
}

/// Formats a fraction as a percentage with one decimal.
///
/// # Examples
///
/// ```
/// use rthv_experiments::percent;
///
/// assert_eq!(percent(0.399), "39.9%");
/// ```
#[must_use]
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Renders a horizontal rule sized to a header line.
#[must_use]
pub fn rule(header: &str) -> String {
    "-".repeat(header.chars().count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_rounds_to_tenths() {
        assert_eq!(us(Duration::from_nanos(87_025)), "87.0us");
        assert_eq!(us(Duration::from_micros(8_000)), "8000.0us");
        assert_eq!(us(Duration::ZERO), "0.0us");
    }

    #[test]
    fn percent_scales() {
        assert_eq!(percent(1.0), "100.0%");
        assert_eq!(percent(0.0), "0.0%");
    }

    #[test]
    fn rule_matches_length() {
        assert_eq!(rule("abc"), "---");
    }
}
