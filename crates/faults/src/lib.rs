//! Adversarial fault injection and a post-hoc temporal-independence oracle.
//!
//! The paper's safety argument (sufficient temporal independence, Eq. 14)
//! is a *claim about every possible run*: no matter how an IRQ-subscribing
//! partition misbehaves, a victim partition loses at most
//! `⌈Δt/d_min⌉ · C'_BH` of service in any window `Δt`. The rest of this
//! workspace demonstrates the claim on well-behaved workloads; this crate
//! attacks it.
//!
//! Three layers:
//!
//! * [`inject`] — seeded, reproducible adversities ([`FaultKind`]): IRQ
//!   storms far above the admissible rate, bursty floods, spurious
//!   zero-work interrupts, silently dropped interrupt lines, admission
//!   checks on the jittery processing-time clock, bottom handlers that try
//!   to overrun their declared budget, and guest handlers that refuse to
//!   yield. Every scenario is a pure function of its seed.
//! * [`oracle`] — a replay oracle over the [`RunReport`] a run leaves
//!   behind. It independently re-verifies, record by record, that the
//!   admitted activation stream conforms to δ⁻ (Eq. 6), that sliding-window
//!   activation counts stay under η⁺, that no interposed window exceeded
//!   its enforced budget, that every scheduled IRQ is accounted for
//!   (completed, coalesced, rejected, dropped or still queued — never
//!   silently lost), and that the machine detected no internal defect.
//! * [`campaign`] — runs every scenario twice under
//!   [`IrqHandlingMode::Interposed`]: once with the real δ⁻ monitor and
//!   once with an admit-everything shaper (the unmonitored baseline), then
//!   compares each victim partition's measured service loss against the
//!   Eq. 13–16 bound. The monitored runs must be violation-free; the
//!   unmonitored baseline must demonstrably break independence under an
//!   IRQ storm — both outcomes are persisted in a deterministic JSON
//!   report ([`CampaignReport::to_json`]).
//! * [`supervised`] — the runtime-health-supervision campaign: every fault
//!   family runs on a composite fault-then-calm plan, once monitored-only
//!   and once monitored + supervised. The supervised arm must quarantine
//!   misbehaving sources (each quarantine justified by a recorded signal,
//!   never on the nominal ablation — [`oracle::check_supervision`]),
//!   recover them during the calm tail, and *strictly* reduce well-behaved
//!   victims' worst-case service loss under the storm and flood families.
//! * [`replay`] — the divergence-detecting checkpoint replay: any campaign
//!   scenario can be recorded with per-slot-boundary state hashes plus
//!   periodic [`MachineSnapshot`] checkpoints, then re-executed from the
//!   nearest checkpoint; the first boundary whose hash mismatches becomes
//!   a [`Violation::ReplayDivergence`] with a repro seed.
//! * [`journal`] — complete, hand-rolled JSON round-trips for scenario
//!   outcomes, so a killed campaign's journal reloads bit-identically and
//!   a `--resume` run assembles the same report as an uninterrupted one,
//!   plus [`LineFields`], the typed field reader of every space-separated
//!   record line.
//! * [`smp`] — the multi-core platform campaign: both placement arms
//!   across core counts {1, 2, 4}, seeded core-crash/route-stall plans,
//!   the per-victim-core oracle sweep, victim-stream identity digests and
//!   the failover-disabled ablation that must demonstrably break.
//!
//! [`RunReport`]: rthv::RunReport
//! [`IrqHandlingMode::Interposed`]: rthv::IrqHandlingMode::Interposed
//! [`MachineSnapshot`]: rthv::MachineSnapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod inject;
pub mod journal;
mod json;
pub mod oracle;
pub mod replay;
pub mod smp;
pub mod supervised;

pub use campaign::{
    idle_reference, run_campaign, run_scenario, run_scenario_with_metrics, scenario_machine,
    CampaignConfig, CampaignConfigError, CampaignReport, IdleReference, ModeOutcome,
    ScenarioObservation, ScenarioOutcome,
};
pub use inject::{standard_scenarios, FaultKind, FaultPlan, FaultScenario, InjectedArrival};
pub use journal::{JournalError, LineFields};
pub use oracle::{
    check_admitted_stream, check_global_budget, check_group_budget, check_report,
    check_supervision, OracleConfig, Violation,
};
pub use replay::{record_scenario, verify, verify_from, ReplayConfig, ReplayError, ReplayTrace};
pub use smp::{
    assemble_smp_report, build_platform, core_faults, line_arrivals, run_smp_case,
    run_smp_scenario, smp_report_passes, smp_scenarios, SmpArm, SmpCase, SmpConfig, SmpError,
    SmpOutcome, SmpRecord, SmpScenario, SmpTraffic,
};
pub use supervised::{
    composite_plan, run_supervised_campaign, run_supervised_scenario, supervised_scenarios,
    SupervisedCampaignConfig, SupervisedCampaignReport, SupervisedModeOutcome,
    SupervisedScenarioOutcome,
};
