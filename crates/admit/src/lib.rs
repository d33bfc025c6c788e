//! A fault-tolerant sharded δ⁻ admission fleet.
//!
//! The paper's admission test ([`ActivationMonitor`], Eq. 6) protects one
//! interrupt line on one machine. This crate scales the same test to a
//! *fleet*: dense source ids hash-routed across N shards, each shard an
//! arena of monitors, driven open-loop by Poisson floods, CAN-style ECU
//! fleets and adversarial fault plans. Like the paper's traces, arrivals
//! and fault plans exist before a run: [`AdmitFleet::run`] reads them in
//! place in time order, and only the service completions and retries a run
//! creates wait in a small heap. Three robustness layers ride on top:
//!
//! * **Failover** ([`FailoverMode`]) — shards crash (seeded
//!   [`ShardFault`]s); checkpointed monitor state plus a journal-tail
//!   replay restores exactly the pre-crash δ⁻ rings, so admitted streams
//!   stay bound-conformant *across* the cut. The fresh-state baseline
//!   demonstrably does not.
//! * **Graceful degradation** ([`ShedReason`]) — every arrival takes one
//!   admission decision on one ingress path, flat and tenanted fleets
//!   alike, and lands in exactly one ledger column ([`ShardCounters`]):
//!   admitted, denied, or shed with a typed reason. Bounded in-flight
//!   queues, deterministic bounded retry with backoff against stalled
//!   shards that fails *closed* ([`ShedReason::ShardStalled`]), and a
//!   load-shedding ladder that demotes Probation/Quarantined sources
//!   first ([`ShedReason::Demoted`]). Nothing is silently dropped or
//!   blindly admitted.
//! * **A fleet-wide oracle** ([`FleetReport::check`]) — per-victim δ⁻
//!   replay, sliding-window η⁺ counts and the Eq. 13–16 interference
//!   bound over the union of all shards' admitted streams, plus the two
//!   ledger conservation identities.
//!
//! * **Tenant isolation** ([`tenant`]) — a two-level admission hierarchy:
//!   every source belongs to a tenant with its own group budget (a
//!   sliding-window admission count), all tenants draw from a global
//!   interference budget, and an adaptive brownout controller
//!   degrades overloaded tenants through a ladder (shrink → best-effort →
//!   quarantine) with seed-jittered hysteresis. Overload in one tenant
//!   provably never moves another tenant's admitted stream.
//!
//! The [`storm`] module packages all of it into the deterministic,
//! journal-resumable `admit_storm` campaign.
//!
//! [`ActivationMonitor`]: rthv_monitor::ActivationMonitor

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod shard;
pub mod storm;
pub mod tenant;

pub use fleet::{
    route, AdmitFleet, FailoverMode, FleetConfig, FleetError, FleetReport, ShardFault,
    ShardFaultKind, ShedReason,
};
pub use shard::ShardCounters;
pub use storm::{
    assemble_report, assemble_tenant_report, fleet_faults, report_passes, run_storm_scenario,
    run_tenant_scenario, storm_hub, storm_scenarios, tenant_scenarios, tenant_storm_hub,
    traffic_events, ArmOutcome, ScenarioRecord, StormConfig, StormOutcome, StormScenario,
    TenantOutcome, TenantRecord, TenantScenario, TenantStormConfig, TrafficKind, HOT_SOURCES,
};
pub use tenant::{
    global_budget_for_bound, group_delta, BrownoutController, BrownoutLevel, BrownoutPolicy,
    TenantBudgetError, TenantConfig, TenantCounters, TenantLedger, TenantSpec, WindowBudget,
    MAX_GROUP_BUDGET,
};
