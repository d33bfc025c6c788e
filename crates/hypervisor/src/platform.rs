//! Multi-core platform: N per-core [`Machine`]s on one virtual clock.
//!
//! The paper's Eq. 13–16 independence bound is stated *per victim*, and the
//! single-CPU [`Machine`] proves it on one core. Real deployments of the
//! willamhou-style hypervisor run one TDMA table per physical CPU with IRQ
//! lines pinned to cores; an IRQ whose subscriber lives on another core is
//! forwarded through an IPI-style hop that pays a routing cost plus a
//! shared-resource (interconnect) penalty. This module models exactly that:
//!
//! * [`Platform`] — the static description: one [`HypervisorConfig`] per
//!   core (its own TDMA table and partition set), a cross-core routing cost
//!   matrix, the shared-resource per-access penalty, the platform-level IRQ
//!   source table (origin core, home core, optional fallback route) and the
//!   [`FailoverPolicy`];
//! * [`MultiMachine`] — N per-core machines stepped on one virtual clock,
//!   with deterministic cross-core routing resolved up front, core-failure
//!   injection ([`CoreFault::Crash`]) that freezes the victim core, and a
//!   typed failover path: on core loss the crashed core's sources are
//!   rerouted to their configured fallback core — **admitted by the
//!   destination core's δ⁻ monitor** — under a platform reroute budget with
//!   bounded retry, shedding a typed [`ShedRecord`] (never a silent drop)
//!   when the budget or the retry ladder is exhausted.
//!
//! Everything stays a pure function of `(platform, fault plan, arrivals)`:
//! routing, failover and shedding are resolved in global arrival order when
//! the machine seals, so two runs — even two that scheduled the same
//! arrivals in different orders — produce byte-identical per-core
//! trajectories.
//!
//! # Stepping
//!
//! Sealing schedules every cross-core delivery into its destination
//! machine before the first step, so after the seal the per-core machines
//! never exchange state. [`Machine::run_until`] is split-invariant — it
//! only processes events at or before its limit and never moves its clock
//! past the last one — so [`MultiMachine::run_until`] simply runs each live
//! core to `min(until, crash_at)` and freezes it at its crash instant.

use rthv_obs::{ObsConfig, PlatformObs};
use rthv_sim::ElementHash;
use rthv_time::{Duration, Instant};

use crate::{ConfigError, HypervisorConfig, IrqSourceId, Machine, RunReport, ScheduleIrqError};

/// A cross-core fallback route for one platform IRQ source: where the
/// source's traffic goes when its home core is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackRoute {
    /// The fallback core.
    pub core: usize,
    /// The failover twin source in the fallback core's configuration; its
    /// own δ⁻ monitor admits the rerouted stream.
    pub source: IrqSourceId,
}

/// One platform-level IRQ source: where its hardware line lands, where its
/// subscriber lives, and where it fails over to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformSource {
    /// Core whose interrupt controller receives the hardware line.
    pub origin: usize,
    /// Core hosting the subscriber partition.
    pub home: usize,
    /// The source id within the home core's configuration.
    pub home_source: IrqSourceId,
    /// Failover route taken when the home core is lost (`None`: traffic of
    /// a lost home is shed, typed).
    pub fallback: Option<FallbackRoute>,
}

/// Platform-level reroute budget: at most `events` failed-over arrivals are
/// accepted per tumbling `window` per destination core. This is the coarse
/// δ⁻-style cap the failover path enforces *before* the destination core's
/// own activation monitor sees the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerouteBudget {
    /// Tumbling budget window.
    pub window: Duration,
    /// Reroutes admitted per window per destination core.
    pub events: u64,
}

/// How the platform reacts to a lost core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverPolicy {
    /// Bounded retries after a stalled route or an exhausted budget window.
    pub retry_limit: u32,
    /// Backoff between consecutive retry attempts.
    pub retry_backoff: Duration,
    /// The platform reroute budget; `None` disables the platform-level cap
    /// (the ablation arm — the destination monitor configuration alone
    /// decides, which is exactly the "failover disabled" breakage the
    /// smp campaign demonstrates).
    pub budget: Option<RerouteBudget>,
}

impl Default for FailoverPolicy {
    /// Three retries, 100 µs backoff, 8 reroutes per 14 ms window.
    fn default() -> Self {
        FailoverPolicy {
            retry_limit: 3,
            retry_backoff: Duration::from_micros(100),
            budget: Some(RerouteBudget {
                window: Duration::from_millis(14),
                events: 8,
            }),
        }
    }
}

/// The static multi-core platform description.
#[derive(Debug, Clone)]
pub struct Platform {
    /// One hypervisor configuration per core: its own TDMA table, partition
    /// set and (local) IRQ source table.
    pub cores: Vec<HypervisorConfig>,
    /// Cross-core routing cost: `route_cost[from][to]` is the IPI latency
    /// from core `from` to core `to`. Must be square with a zero diagonal.
    pub route_cost: Vec<Vec<Duration>>,
    /// Shared-resource (interconnect) penalty paid once per cross-core hop
    /// on top of the routing cost.
    pub shared_penalty: Duration,
    /// The platform-level IRQ source table; indices into this table are the
    /// ids [`MultiMachine::schedule_irq`] takes.
    pub sources: Vec<PlatformSource>,
    /// Failover behaviour on core loss.
    pub failover: FailoverPolicy,
}

/// Why a [`Platform`] failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The platform has no cores.
    NoCores,
    /// One core's hypervisor configuration is invalid.
    Core {
        /// The offending core.
        core: usize,
        /// The underlying configuration error.
        error: ConfigError,
    },
    /// The routing cost matrix is not `cores × cores`.
    BadRouteMatrix {
        /// Core count of the platform.
        cores: usize,
    },
    /// A core routes to itself at a non-zero cost.
    NonZeroDiagonal {
        /// The offending core.
        core: usize,
    },
    /// A platform source references a core outside the platform.
    UnknownCore {
        /// The offending platform source index.
        source: usize,
        /// The referenced core.
        core: usize,
    },
    /// A platform source references a source id missing from the named
    /// core's configuration.
    UnknownCoreSource {
        /// The offending platform source index.
        source: usize,
        /// The referenced core.
        core: usize,
        /// The missing per-core source id.
        id: IrqSourceId,
    },
    /// A fallback route points back at the source's home core.
    FallbackIsHome {
        /// The offending platform source index.
        source: usize,
    },
    /// The failover policy retries with a zero backoff.
    ZeroRetryBackoff,
    /// The reroute budget has a zero window or zero events.
    DegenerateBudget,
    /// A core fault references a core outside the platform.
    FaultUnknownCore {
        /// The referenced core.
        core: usize,
    },
    /// A route-stall fault has a degenerate interval or a self edge.
    DegenerateStall,
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::NoCores => write!(f, "platform has no cores"),
            PlatformError::Core { core, error } => write!(f, "core {core}: {error}"),
            PlatformError::BadRouteMatrix { cores } => {
                write!(f, "routing cost matrix is not {cores}x{cores}")
            }
            PlatformError::NonZeroDiagonal { core } => {
                write!(f, "core {core} routes to itself at a non-zero cost")
            }
            PlatformError::UnknownCore { source, core } => {
                write!(f, "platform source {source} references unknown core {core}")
            }
            PlatformError::UnknownCoreSource { source, core, id } => {
                write!(
                    f,
                    "platform source {source} references unknown source {id} on core {core}"
                )
            }
            PlatformError::FallbackIsHome { source } => {
                write!(
                    f,
                    "platform source {source} falls back to its own home core"
                )
            }
            PlatformError::ZeroRetryBackoff => {
                write!(f, "failover retries require a non-zero backoff")
            }
            PlatformError::DegenerateBudget => {
                write!(f, "reroute budget window and events must be non-zero")
            }
            PlatformError::FaultUnknownCore { core } => {
                write!(f, "core fault references unknown core {core}")
            }
            PlatformError::DegenerateStall => {
                write!(f, "route stall needs a distinct edge and start < until")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl Platform {
    /// Validates the whole platform description, returning the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// A [`PlatformError`] describing the first invalid element.
    pub fn validate(&self) -> Result<(), PlatformError> {
        let n = self.cores.len();
        if n == 0 {
            return Err(PlatformError::NoCores);
        }
        for (core, config) in self.cores.iter().enumerate() {
            config
                .validate()
                .map_err(|error| PlatformError::Core { core, error })?;
        }
        if self.route_cost.len() != n || self.route_cost.iter().any(|row| row.len() != n) {
            return Err(PlatformError::BadRouteMatrix { cores: n });
        }
        for (core, row) in self.route_cost.iter().enumerate() {
            if !row[core].is_zero() {
                return Err(PlatformError::NonZeroDiagonal { core });
            }
        }
        for (index, source) in self.sources.iter().enumerate() {
            for core in [source.origin, source.home] {
                if core >= n {
                    return Err(PlatformError::UnknownCore {
                        source: index,
                        core,
                    });
                }
            }
            if source.home_source.index() >= self.cores[source.home].sources.len() {
                return Err(PlatformError::UnknownCoreSource {
                    source: index,
                    core: source.home,
                    id: source.home_source,
                });
            }
            if let Some(fallback) = source.fallback {
                if fallback.core >= n {
                    return Err(PlatformError::UnknownCore {
                        source: index,
                        core: fallback.core,
                    });
                }
                if fallback.core == source.home {
                    return Err(PlatformError::FallbackIsHome { source: index });
                }
                if fallback.source.index() >= self.cores[fallback.core].sources.len() {
                    return Err(PlatformError::UnknownCoreSource {
                        source: index,
                        core: fallback.core,
                        id: fallback.source,
                    });
                }
            }
        }
        if self.failover.retry_limit > 0 && self.failover.retry_backoff.is_zero() {
            return Err(PlatformError::ZeroRetryBackoff);
        }
        if let Some(budget) = self.failover.budget {
            if budget.window.is_zero() || budget.events == 0 {
                return Err(PlatformError::DegenerateBudget);
            }
        }
        Ok(())
    }

    /// Hop cost from `from` to `to`: zero on-core, routing cost plus the
    /// shared-resource penalty across cores.
    #[must_use]
    fn hop_cost(&self, from: usize, to: usize) -> Duration {
        if from == to {
            Duration::ZERO
        } else {
            self.route_cost[from][to] + self.shared_penalty
        }
    }
}

/// One platform-level fault event, applied at a fixed virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreFault {
    /// Core `core` fails permanently at `at`: its machine freezes (events
    /// scheduled but not yet processed are lost in flight and accounted in
    /// the final report) and its sources fail over.
    Crash {
        /// Time of the failure.
        at: Instant,
        /// The failing core.
        core: usize,
    },
    /// The routing edge `from → to` stops delivering during `[start,
    /// until)`: plain IPIs wait out the stall, failover reroutes walk the
    /// bounded retry ladder.
    RouteStall {
        /// Sending core of the stalled edge.
        from: usize,
        /// Receiving core of the stalled edge.
        to: usize,
        /// Stall onset.
        start: Instant,
        /// Stall end (exclusive).
        until: Instant,
    },
}

/// Why the platform shed an arrival instead of delivering it. Every shed is
/// recorded — a lost core degrades into typed, inspectable data, never a
/// silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The home core is lost and no fallback could take the arrival: no
    /// route is configured, the fallback core is lost too, or the reroute
    /// budget stayed exhausted through every retry.
    CoreLost,
    /// The route to the fallback core stayed stalled through the whole
    /// bounded retry ladder.
    RouteStalled,
}

impl ShedReason {
    /// Short kebab-case identifier for reports.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            ShedReason::CoreLost => "core-lost",
            ShedReason::RouteStalled => "route-stalled",
        }
    }
}

/// One typed shed: which platform source lost which arrival, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRecord {
    /// Arrival time of the shed IRQ.
    pub at: Instant,
    /// Platform source index.
    pub source: usize,
    /// Why delivery was impossible.
    pub reason: ShedReason,
}

/// Per-core routing and failover counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreCounters {
    /// Cross-core IRQs delivered *to* this core (IPIs received).
    pub ipi_in: u64,
    /// Cross-core IRQs originating on this core (IPIs sent).
    pub ipi_out: u64,
    /// Failed-over arrivals this core accepted for a lost peer.
    pub failover_in: u64,
    /// Retry-ladder steps taken while failing over *to* this core.
    pub failover_retries: u64,
    /// Plain IPI deliveries deferred behind a stalled route into this core.
    pub stall_deferrals: u64,
    /// Arrivals shed because this (home) core was unreachable.
    pub shed: u64,
}

/// The finished multi-core run: one [`RunReport`] per core plus the
/// platform-level routing/failover ledger.
#[derive(Debug, Clone)]
pub struct MultiRunReport {
    /// Per-core reports, in core order. A crashed core's report is frozen
    /// at its crash instant.
    pub cores: Vec<RunReport>,
    /// Per-core routing and failover counters.
    pub counters: Vec<CoreCounters>,
    /// Every typed shed, in arrival order.
    pub sheds: Vec<ShedRecord>,
    /// Which cores were lost.
    pub crashed: Vec<bool>,
    /// Platform arrivals scheduled.
    pub scheduled: u64,
    /// Platform arrivals delivered into some core's machine.
    pub delivered: u64,
    /// Virtual time at which the run was finalized.
    pub end: Instant,
}

impl MultiRunReport {
    /// Total typed sheds.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.sheds.len() as u64
    }

    /// Work delivered to a core that crashed before processing it —
    /// accounted as in-flight loss (each crashed core's `outstanding`).
    #[must_use]
    pub fn lost_in_flight(&self) -> u64 {
        self.cores
            .iter()
            .zip(&self.crashed)
            .filter(|(_, crashed)| **crashed)
            .map(|(report, _)| report.outstanding)
            .sum()
    }

    /// Platform conservation: every scheduled arrival is delivered or shed.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.scheduled == self.delivered + self.shed_total()
    }
}

/// Error returned by [`MultiMachine::schedule_irq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformScheduleError {
    /// The platform source index does not exist.
    UnknownSource {
        /// The offending index.
        source: usize,
    },
    /// Arrivals must be scheduled before the first `run_until` call (the
    /// platform resolves routing in global arrival order when it seals).
    Sealed,
    /// The arrival does not lie strictly after the epoch.
    InPast {
        /// The rejected arrival time.
        at: Instant,
    },
}

impl std::fmt::Display for PlatformScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformScheduleError::UnknownSource { source } => {
                write!(f, "unknown platform source {source}")
            }
            PlatformScheduleError::Sealed => {
                write!(f, "platform is sealed; schedule arrivals before running")
            }
            PlatformScheduleError::InPast { at } => {
                write!(f, "cannot schedule platform IRQ at {at}; must be after 0")
            }
        }
    }
}

impl std::error::Error for PlatformScheduleError {}

/// Per-destination-core reroute accounting: the window anchor (the first
/// attempt seen) plus per-window admit counts, indexed by whole windows
/// from the anchor.
type BudgetLedger = Option<(Instant, std::collections::BTreeMap<i64, u64>)>;

/// One buffered platform arrival, resolved at seal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingArrival {
    at: Instant,
    source: usize,
    work: Duration,
    seq: u64,
}

/// A copy of a [`MultiMachine`]'s complete state, sharing each core's
/// records with the platform it was taken from; see
/// [`MultiMachine::snapshot`].
#[derive(Debug, Clone)]
pub struct MultiSnapshot(MultiMachine);

impl MultiSnapshot {
    /// Virtual time the snapshot was taken at.
    #[must_use]
    pub fn taken_at(&self) -> Instant {
        self.0.now
    }
}

/// N per-core [`Machine`]s on one virtual clock, with cross-core routing,
/// core-failure injection and typed failover. See the module docs for the
/// model.
///
/// Lifecycle: build with [`new`](MultiMachine::new), schedule every arrival
/// ([`schedule_irq`](MultiMachine::schedule_irq) /
/// [`schedule_irq_with_work`](MultiMachine::schedule_irq_with_work)), then
/// drive with [`run_until`](MultiMachine::run_until) and harvest the
/// [`MultiRunReport`] with [`finish`](MultiMachine::finish). The first
/// `run_until` *seals* the platform: all routing and failover is resolved
/// in global arrival order, deterministically.
#[derive(Debug, Clone)]
pub struct MultiMachine {
    platform: Platform,
    cores: Vec<Machine>,
    /// First crash per core, from the fault plan (static).
    crash_at: Vec<Option<Instant>>,
    /// Whether the crash has been applied (the machine is frozen).
    frozen: Vec<bool>,
    /// Route stalls from the fault plan (static).
    stalls: Vec<(usize, usize, Instant, Instant)>,
    now: Instant,
    sealed: bool,
    pending: Vec<PendingArrival>,
    next_seq: u64,
    counters: Vec<CoreCounters>,
    sheds: Vec<ShedRecord>,
    scheduled: u64,
    delivered: u64,
    /// First unexpected per-core scheduling failure at seal time (an
    /// internal invariant breach, surfaced instead of panicking).
    defect: Option<ScheduleIrqError>,
}

impl MultiMachine {
    /// Builds the multi-core machine for `platform` under the given
    /// platform fault plan.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlatformError`] of the platform description or
    /// the fault plan.
    pub fn new(platform: Platform, faults: &[CoreFault]) -> Result<Self, PlatformError> {
        platform.validate()?;
        let n = platform.cores.len();
        let mut crash_at: Vec<Option<Instant>> = vec![None; n];
        let mut stalls = Vec::new();
        for fault in faults {
            match *fault {
                CoreFault::Crash { at, core } => {
                    if core >= n {
                        return Err(PlatformError::FaultUnknownCore { core });
                    }
                    crash_at[core] = Some(match crash_at[core] {
                        Some(existing) => existing.min(at),
                        None => at,
                    });
                }
                CoreFault::RouteStall {
                    from,
                    to,
                    start,
                    until,
                } => {
                    if from >= n || to >= n {
                        return Err(PlatformError::FaultUnknownCore { core: from.max(to) });
                    }
                    if from == to || start >= until {
                        return Err(PlatformError::DegenerateStall);
                    }
                    stalls.push((from, to, start, until));
                }
            }
        }
        let cores = platform
            .cores
            .iter()
            .enumerate()
            .map(|(core, config)| {
                Machine::new(config.clone()).map_err(|error| PlatformError::Core { core, error })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiMachine {
            frozen: vec![false; n],
            counters: vec![CoreCounters::default(); n],
            platform,
            cores,
            crash_at,
            stalls,
            now: Instant::ZERO,
            sealed: false,
            pending: Vec::new(),
            next_seq: 0,
            sheds: Vec::new(),
            scheduled: 0,
            delivered: 0,
            defect: None,
        })
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The per-core machine, when in range.
    #[must_use]
    pub fn core(&self, core: usize) -> Option<&Machine> {
        self.cores.get(core)
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Whether `core`'s crash has been applied (the machine is frozen).
    #[must_use]
    pub fn is_frozen(&self, core: usize) -> bool {
        self.frozen.get(core).copied().unwrap_or(false)
    }

    /// Per-core routing/failover counters (finalized at seal time).
    #[must_use]
    pub fn counters(&self) -> &[CoreCounters] {
        &self.counters
    }

    /// Every typed shed so far (finalized at seal time).
    #[must_use]
    pub fn sheds(&self) -> &[ShedRecord] {
        &self.sheds
    }

    /// Enables per-partition service tracing on every core.
    pub fn enable_service_trace(&mut self) {
        for core in &mut self.cores {
            core.enable_service_trace();
        }
    }

    /// Enables the flight-recorder observability layer on every core. The
    /// platform routing/failover gauges are pushed into each core's hub at
    /// seal time.
    pub fn enable_metrics(&mut self, config: ObsConfig) {
        for core in &mut self.cores {
            core.enable_metrics(config);
        }
    }

    /// One combined deterministic metrics snapshot: the per-core hub
    /// snapshots (each carrying its platform gauge) plus the platform
    /// ledger. `None` when metrics were never enabled.
    #[must_use]
    pub fn metrics_snapshot_json(&self) -> Option<String> {
        use std::fmt::Write as _;
        let mut cores = Vec::with_capacity(self.cores.len());
        for core in &self.cores {
            cores.push(core.metrics_snapshot_json()?);
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"obs\": \"multi-core\",");
        let _ = writeln!(out, "  \"scheduled\": {},", self.scheduled);
        let _ = writeln!(out, "  \"delivered\": {},", self.delivered);
        let _ = writeln!(out, "  \"sheds\": {},", self.sheds.len());
        let _ = writeln!(out, "  \"cores\": [");
        for (i, snapshot) in cores.iter().enumerate() {
            let comma = if i + 1 < cores.len() { "," } else { "" };
            let _ = writeln!(out, "{}{comma}", snapshot.trim_end());
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        Some(out)
    }

    /// Schedules a platform IRQ arrival with the home source's declared
    /// bottom cost.
    ///
    /// # Errors
    ///
    /// See [`PlatformScheduleError`].
    pub fn schedule_irq(
        &mut self,
        source: usize,
        at: Instant,
    ) -> Result<(), PlatformScheduleError> {
        let spec = self
            .platform
            .sources
            .get(source)
            .ok_or(PlatformScheduleError::UnknownSource { source })?;
        let work = self.platform.cores[spec.home].sources[spec.home_source.index()].bottom_cost;
        self.schedule_irq_with_work(source, at, work)
    }

    /// Schedules a platform IRQ arrival demanding `work` of bottom-handler
    /// time (the fault-injection hook, mirroring
    /// [`Machine::schedule_irq_with_work`]).
    ///
    /// # Errors
    ///
    /// See [`PlatformScheduleError`].
    pub fn schedule_irq_with_work(
        &mut self,
        source: usize,
        at: Instant,
        work: Duration,
    ) -> Result<(), PlatformScheduleError> {
        if self.sealed {
            return Err(PlatformScheduleError::Sealed);
        }
        if source >= self.platform.sources.len() {
            return Err(PlatformScheduleError::UnknownSource { source });
        }
        if at <= Instant::ZERO {
            return Err(PlatformScheduleError::InPast { at });
        }
        self.pending.push(PendingArrival {
            at,
            source,
            work,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        self.scheduled += 1;
        Ok(())
    }

    /// `true` if the edge `from → to` is stalled at `t`.
    fn edge_stalled(&self, from: usize, to: usize, t: Instant) -> bool {
        self.stalls
            .iter()
            .any(|&(f, o, start, until)| f == from && o == to && t >= start && t < until)
    }

    /// First instant at or after `t` at which edge `from → to` is clear:
    /// overlapping or back-to-back stalls are waited out in turn.
    fn stall_end(&self, from: usize, to: usize, t: Instant) -> Instant {
        let mut end = t;
        while let Some(until) = self
            .stalls
            .iter()
            .filter(|&&(f, o, start, until)| f == from && o == to && end >= start && end < until)
            .map(|&(_, _, _, until)| until)
            .max()
        {
            end = until;
        }
        end
    }

    /// `true` if `core` is lost at (or before) `t` per the fault plan.
    fn core_lost_at(&self, core: usize, t: Instant) -> bool {
        self.crash_at[core].is_some_and(|crash| t >= crash)
    }

    /// Resolves routing and failover for every buffered arrival, in global
    /// `(at, seq)` order, and bulk-schedules the resulting deliveries into
    /// the per-core machines. Pure in `(platform, fault plan, arrivals)`.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|a| (a.at, a.seq));
        // Size each core's arrival stream for the arrivals homed on it, so
        // routing never regrows it; only failed-over arrivals land beyond.
        let mut homed = vec![0usize; self.cores.len()];
        for arrival in &pending {
            homed[self.platform.sources[arrival.source].home] += 1;
        }
        for (machine, count) in self.cores.iter_mut().zip(homed) {
            machine.reserve_events(count);
        }
        // Strictly increasing delivery times per platform source keep the
        // destination monitor's check timestamps unambiguous even when a
        // stall collapses several deferrals onto the stall end.
        let mut last_delivery: Vec<Option<Instant>> = vec![None; self.platform.sources.len()];
        // Per destination core: tumbling reroute budget ledger.
        let mut budget_windows: Vec<BudgetLedger> = vec![None; self.cores.len()];

        for arrival in pending {
            let spec = self.platform.sources[arrival.source];
            if !self.core_lost_at(spec.home, arrival.at) {
                // Home delivery, through an IPI hop when the line lands on
                // a different core.
                let mut deliver_at = arrival.at + self.platform.hop_cost(spec.origin, spec.home);
                if spec.origin != spec.home {
                    if self.edge_stalled(spec.origin, spec.home, arrival.at) {
                        // Plain IPIs wait out the stall; the hardware holds
                        // the line, nothing is lost.
                        let end = self.stall_end(spec.origin, spec.home, arrival.at);
                        deliver_at = end + self.platform.hop_cost(spec.origin, spec.home);
                        self.counters[spec.home].stall_deferrals += 1;
                    }
                    self.counters[spec.origin].ipi_out += 1;
                    self.counters[spec.home].ipi_in += 1;
                }
                self.deliver(
                    arrival,
                    spec.home,
                    spec.home_source,
                    deliver_at,
                    &mut last_delivery,
                );
                continue;
            }

            // Home core lost: the typed failover path.
            let Some(fallback) = spec.fallback else {
                self.shed(arrival, spec.home, ShedReason::CoreLost);
                continue;
            };
            if self.core_lost_at(fallback.core, arrival.at) {
                self.shed(arrival, spec.home, ShedReason::CoreLost);
                continue;
            }
            let mut attempt_at = arrival.at;
            let mut outcome: Option<Instant> = None;
            let mut last_obstacle = ShedReason::CoreLost;
            for _attempt in 0..=self.platform.failover.retry_limit {
                if self.edge_stalled(spec.origin, fallback.core, attempt_at) {
                    last_obstacle = ShedReason::RouteStalled;
                    self.counters[fallback.core].failover_retries += 1;
                    attempt_at += self.platform.failover.retry_backoff;
                    continue;
                }
                if !Self::budget_admits(
                    &mut budget_windows[fallback.core],
                    self.platform.failover.budget,
                    attempt_at,
                ) {
                    last_obstacle = ShedReason::CoreLost;
                    self.counters[fallback.core].failover_retries += 1;
                    attempt_at += self.platform.failover.retry_backoff;
                    continue;
                }
                outcome = Some(attempt_at + self.platform.hop_cost(spec.origin, fallback.core));
                break;
            }
            match outcome {
                Some(deliver_at) => {
                    self.counters[fallback.core].failover_in += 1;
                    if spec.origin != fallback.core {
                        self.counters[spec.origin].ipi_out += 1;
                        self.counters[fallback.core].ipi_in += 1;
                    }
                    self.deliver(
                        arrival,
                        fallback.core,
                        fallback.source,
                        deliver_at,
                        &mut last_delivery,
                    );
                }
                None => self.shed(arrival, spec.home, last_obstacle),
            }
        }

        // The platform ledger is final; publish the per-core gauges into
        // the observability hubs (pure observation, outside state_hash).
        self.publish_platform_obs();
    }

    /// Publishes the per-core routing/failover ledger into the
    /// observability hubs (pure observation, outside `state_hash`).
    fn publish_platform_obs(&mut self) {
        for (machine, c) in self.cores.iter_mut().zip(&self.counters) {
            machine.record_platform_obs(PlatformObs {
                ipi_in: c.ipi_in,
                ipi_out: c.ipi_out,
                failover_in: c.failover_in,
                failover_retries: c.failover_retries,
                stall_deferrals: c.stall_deferrals,
                shed: c.shed,
            });
        }
    }

    /// Consumes one event of the tumbling reroute budget anchored at its
    /// first use. `None` budget admits everything (the ablation arm).
    ///
    /// Attempts are charged to the window *containing* them — window
    /// `k` covers `[anchor + k·window, anchor + (k+1)·window)`, so an
    /// attempt landing exactly on a boundary is charged to exactly one
    /// window (the one it opens). Indexing by window number instead of
    /// rolling a start forward keeps the attribution correct even when
    /// retry-backoff ladders interleave attempt times out of order: the
    /// old forward-only roll charged a late-arriving earlier attempt to
    /// whatever window the ladder had already rolled into.
    fn budget_admits(
        ledger: &mut BudgetLedger,
        budget: Option<RerouteBudget>,
        at: Instant,
    ) -> bool {
        let Some(budget) = budget else {
            return true;
        };
        let (anchor, counts) =
            ledger.get_or_insert_with(|| (at, std::collections::BTreeMap::new()));
        let span = i128::from(budget.window.as_nanos());
        let offset = i128::from(at.as_nanos()) - i128::from(anchor.as_nanos());
        let window = i64::try_from(offset.div_euclid(span)).unwrap_or(i64::MAX);
        let used = counts.entry(window).or_insert(0);
        if *used < budget.events {
            *used += 1;
            true
        } else {
            false
        }
    }

    /// Schedules one resolved delivery into a core machine, keeping
    /// per-platform-source delivery times strictly increasing.
    fn deliver(
        &mut self,
        arrival: PendingArrival,
        core: usize,
        source: IrqSourceId,
        deliver_at: Instant,
        last_delivery: &mut [Option<Instant>],
    ) {
        let mut at = deliver_at;
        if let Some(last) = last_delivery[arrival.source] {
            if at <= last {
                at = last + Duration::from_nanos(1);
            }
        }
        last_delivery[arrival.source] = Some(at);
        match self.cores[core].schedule_irq_with_work(source, at, arrival.work) {
            Ok(()) => self.delivered += 1,
            Err(error) => {
                // Unreachable after validation; degrade into typed data
                // rather than panicking, and keep the ledger conserved.
                if self.defect.is_none() {
                    self.defect = Some(error);
                }
                self.shed(arrival, core, ShedReason::CoreLost);
            }
        }
    }

    /// Records one typed shed, charged to the unreachable home core.
    fn shed(&mut self, arrival: PendingArrival, home: usize, reason: ShedReason) {
        self.counters[home].shed += 1;
        self.sheds.push(ShedRecord {
            at: arrival.at,
            source: arrival.source,
            reason,
        });
    }

    /// First unexpected internal scheduling failure, if any (a platform
    /// invariant breach — healthy runs report `None`).
    #[must_use]
    pub fn defect(&self) -> Option<&ScheduleIrqError> {
        self.defect.as_ref()
    }

    /// Advances every live core to `until` on the shared virtual clock,
    /// freezing cores at their crash instants on the way. The first call
    /// seals the platform (see [`seal` semantics in the type docs
    /// ](MultiMachine)).
    ///
    /// After the seal the cores never exchange state, and
    /// [`Machine::run_until`] is split-invariant, so each live core simply
    /// runs to `min(until, crash_at)`: a victim core processes everything
    /// up to and including its crash instant, then freezes.
    pub fn run_until(&mut self, until: Instant) {
        self.seal();
        for (core, machine) in self.cores.iter_mut().enumerate() {
            if self.frozen[core] {
                continue;
            }
            match self.crash_at[core] {
                Some(crash) if crash <= until => {
                    machine.run_until(crash);
                    self.frozen[core] = true;
                }
                _ => machine.run_until(until),
            }
        }
        self.now = self.now.max(until);
    }

    /// A cheap deterministic digest of the whole platform state: the
    /// per-core [`Machine::state_hash`]es folded **in core order**, plus
    /// the platform's own words (frozen set, ledger, clock), by the same
    /// one-multiply-per-word fold the machine uses.
    ///
    /// A single-core platform that never crashed, stalled or shed hashes
    /// **identically to its underlying machine**: the degenerate platform
    /// *is* the machine, so every single-machine byte-identity guarantee
    /// (snapshot/restore, arrival placement, replay journals) transfers
    /// verbatim. The N = 1 proptest pins this.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        if self.cores.len() == 1 && self.platform_pristine() {
            return self.cores[0].state_hash();
        }
        let mut hash = ElementHash::default();
        hash.word(self.cores.len() as u64);
        for machine in &self.cores {
            hash.word(machine.state_hash());
        }
        for &frozen in &self.frozen {
            hash.word(u64::from(frozen));
        }
        hash.word(self.now.as_nanos());
        hash.word(u64::from(self.sealed));
        hash.word(self.scheduled);
        hash.word(self.delivered);
        hash.word(self.sheds.len() as u64);
        for c in &self.counters {
            for word in [
                c.ipi_in,
                c.ipi_out,
                c.failover_in,
                c.failover_retries,
                c.stall_deferrals,
                c.shed,
            ] {
                hash.word(word);
            }
        }
        hash.finish()
    }

    /// `true` when no platform-level adversity exists or ever engaged.
    fn platform_pristine(&self) -> bool {
        self.crash_at.iter().all(Option::is_none)
            && self.stalls.is_empty()
            && self.sheds.is_empty()
            && self.counters.iter().all(|c| *c == CoreCounters::default())
    }

    /// Captures the complete platform state (every core's [`Machine`]
    /// plus the platform words) for later
    /// [`restore`](MultiMachine::restore).
    ///
    /// Each core is captured as [`Machine::snapshot`] captures it: its
    /// records move into frozen segments that the platform and its
    /// snapshots share, so the snapshot costs O(state) per core, not
    /// O(history). The state and its
    /// [`state_hash`](MultiMachine::state_hash) are unchanged.
    #[must_use]
    pub fn snapshot(&mut self) -> MultiSnapshot {
        for machine in &mut self.cores {
            machine.freeze();
        }
        MultiSnapshot(self.clone())
    }

    /// Rewinds the platform to a [`snapshot`](MultiMachine::snapshot) taken
    /// from a machine built for the same platform and fault plan. The
    /// static platform and fault plan are copied back too; the
    /// precondition makes them equal already.
    pub fn restore(&mut self, snapshot: &MultiSnapshot) {
        self.clone_from(&snapshot.0);
    }

    /// Finalizes the run and hands back the per-core reports plus the
    /// platform ledger. A crashed core's report is frozen at its crash
    /// instant; its unprocessed deliveries are the in-flight losses
    /// ([`MultiRunReport::lost_in_flight`]).
    #[must_use]
    pub fn finish(mut self) -> MultiRunReport {
        self.seal();
        let end = self.now;
        let crashed: Vec<bool> = (0..self.cores.len())
            .map(|c| self.frozen[c] || self.crash_at[c].is_some_and(|t| t <= end))
            .collect();
        MultiRunReport {
            cores: self.cores.into_iter().map(Machine::finish).collect(),
            counters: self.counters,
            sheds: self.sheds,
            crashed,
            scheduled: self.scheduled,
            delivered: self.delivered,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, IrqHandlingMode, IrqSourceSpec, PartitionId, PartitionSpec};
    use rthv_monitor::{DeltaFunction, ShaperConfig};

    const DMIN: Duration = Duration::from_millis(3);

    /// One core: two 6 ms app partitions + 2 ms housekeeping, one monitored
    /// local source subscribed by P1 and one monitored failover twin.
    fn core_config() -> HypervisorConfig {
        let delta = DeltaFunction::from_dmin(DMIN).expect("valid dmin");
        let mut local = IrqSourceSpec::new("timer", PartitionId::new(1), Duration::from_micros(30));
        local.monitor = Some(ShaperConfig::Delta(delta.clone()));
        let mut twin = IrqSourceSpec::new(
            "failover-in",
            PartitionId::new(1),
            Duration::from_micros(30),
        );
        twin.monitor = Some(ShaperConfig::Delta(delta));
        HypervisorConfig {
            partitions: vec![
                PartitionSpec::new("app1", Duration::from_micros(6_000)),
                PartitionSpec::new("app2", Duration::from_micros(6_000)),
                PartitionSpec::new("hk", Duration::from_micros(2_000)),
            ],
            sources: vec![local, twin],
            costs: CostModel::paper_arm926ejs(),
            mode: IrqHandlingMode::Interposed,
            policies: Default::default(),
            windows: None,
        }
    }

    fn uniform_route(n: usize, cost: Duration) -> Vec<Vec<Duration>> {
        (0..n)
            .map(|from| {
                (0..n)
                    .map(|to| if from == to { Duration::ZERO } else { cost })
                    .collect()
            })
            .collect()
    }

    /// Two cores, each with a local monitored source homed on itself, the
    /// peer core acting as fallback through the twin source.
    fn two_core_platform() -> Platform {
        Platform {
            cores: vec![core_config(), core_config()],
            route_cost: uniform_route(2, Duration::from_micros(5)),
            shared_penalty: Duration::from_micros(1),
            sources: vec![
                PlatformSource {
                    origin: 0,
                    home: 0,
                    home_source: IrqSourceId::new(0),
                    fallback: Some(FallbackRoute {
                        core: 1,
                        source: IrqSourceId::new(1),
                    }),
                },
                PlatformSource {
                    origin: 1,
                    home: 1,
                    home_source: IrqSourceId::new(0),
                    fallback: Some(FallbackRoute {
                        core: 0,
                        source: IrqSourceId::new(1),
                    }),
                },
            ],
            failover: FailoverPolicy::default(),
        }
    }

    fn ms(v: u64) -> Instant {
        Instant::from_micros(v * 1000)
    }

    #[test]
    fn validation_catches_each_defect_class() {
        let ok = two_core_platform();
        assert_eq!(ok.validate(), Ok(()));

        let mut p = two_core_platform();
        p.cores.clear();
        assert_eq!(p.validate(), Err(PlatformError::NoCores));

        let mut p = two_core_platform();
        p.route_cost.pop();
        assert_eq!(
            p.validate(),
            Err(PlatformError::BadRouteMatrix { cores: 2 })
        );

        let mut p = two_core_platform();
        p.route_cost[1][1] = Duration::from_nanos(1);
        assert_eq!(
            p.validate(),
            Err(PlatformError::NonZeroDiagonal { core: 1 })
        );

        let mut p = two_core_platform();
        p.sources[0].home = 7;
        assert_eq!(
            p.validate(),
            Err(PlatformError::UnknownCore { source: 0, core: 7 })
        );

        let mut p = two_core_platform();
        p.sources[0].home_source = IrqSourceId::new(9);
        assert!(matches!(
            p.validate(),
            Err(PlatformError::UnknownCoreSource { source: 0, .. })
        ));

        let mut p = two_core_platform();
        p.sources[1].fallback = Some(FallbackRoute {
            core: 1,
            source: IrqSourceId::new(1),
        });
        assert_eq!(
            p.validate(),
            Err(PlatformError::FallbackIsHome { source: 1 })
        );

        let mut p = two_core_platform();
        p.failover.retry_backoff = Duration::ZERO;
        assert_eq!(p.validate(), Err(PlatformError::ZeroRetryBackoff));

        let mut p = two_core_platform();
        p.failover.budget = Some(RerouteBudget {
            window: Duration::ZERO,
            events: 4,
        });
        assert_eq!(p.validate(), Err(PlatformError::DegenerateBudget));
    }

    #[test]
    fn fault_plan_is_validated() {
        let crash = CoreFault::Crash {
            at: ms(10),
            core: 5,
        };
        assert_eq!(
            MultiMachine::new(two_core_platform(), &[crash]).err(),
            Some(PlatformError::FaultUnknownCore { core: 5 })
        );
        let stall = CoreFault::RouteStall {
            from: 0,
            to: 0,
            start: ms(1),
            until: ms(2),
        };
        assert_eq!(
            MultiMachine::new(two_core_platform(), &[stall]).err(),
            Some(PlatformError::DegenerateStall)
        );
    }

    #[test]
    fn cross_core_irq_pays_the_routing_cost_and_counts_an_ipi() {
        let mut platform = two_core_platform();
        // Source 1's line lands on core 0, subscriber lives on core 1.
        platform.sources[1].origin = 0;
        let mut multi = MultiMachine::new(platform, &[]).expect("valid platform");
        multi.schedule_irq(1, ms(10)).expect("scheduled");
        multi.run_until(ms(100));
        assert_eq!(multi.counters()[0].ipi_out, 1);
        assert_eq!(multi.counters()[1].ipi_in, 1);
        let report = multi.finish();
        assert!(report.conserved());
        assert_eq!(report.cores[1].recorder.len(), 1);
        // The hop paid 5 µs routing + 1 µs shared penalty.
        let completion = report.cores[1].recorder.completions()[0];
        assert_eq!(completion.arrival, ms(10) + Duration::from_micros(6));
    }

    #[test]
    fn local_irq_pays_nothing() {
        let mut multi = MultiMachine::new(two_core_platform(), &[]).expect("valid platform");
        multi.schedule_irq(0, ms(10)).expect("scheduled");
        multi.run_until(ms(100));
        let report = multi.finish();
        assert_eq!(report.counters[0].ipi_in, 0);
        assert_eq!(report.cores[0].recorder.completions()[0].arrival, ms(10));
    }

    #[test]
    fn core_crash_fails_over_to_the_twin_under_the_destination_monitor() {
        let crash = CoreFault::Crash {
            at: ms(50),
            core: 0,
        };
        let mut multi = MultiMachine::new(two_core_platform(), &[crash]).expect("valid");
        // Conformant stream on source 0 (home core 0): half before the
        // crash, half after.
        for k in 1..=8u64 {
            multi.schedule_irq(0, ms(12 * k)).expect("scheduled");
        }
        multi.run_until(ms(200));
        assert!(multi.is_frozen(0));
        let report = multi.finish();
        assert!(report.conserved(), "platform ledger must balance");
        assert!(report.crashed[0] && !report.crashed[1]);
        // Pre-crash arrivals (12, 24, 36, 48 ms) completed on core 0;
        // post-crash ones failed over to core 1's twin source.
        assert_eq!(report.counters[1].failover_in, 4);
        let twin_completions = report.cores[1]
            .recorder
            .completions()
            .iter()
            .filter(|c| c.source == IrqSourceId::new(1))
            .count();
        assert_eq!(twin_completions, 4);
        // The twin's own monitor admitted the rerouted stream.
        assert!(report.cores[1]
            .admissions
            .iter()
            .any(|a| a.source == IrqSourceId::new(1) && a.admitted));
    }

    #[test]
    fn exhausted_reroute_budget_sheds_typed_core_lost() {
        let mut platform = two_core_platform();
        platform.failover.budget = Some(RerouteBudget {
            window: Duration::from_millis(200),
            events: 2,
        });
        platform.failover.retry_limit = 1;
        platform.failover.retry_backoff = Duration::from_micros(50);
        let crash = CoreFault::Crash {
            at: ms(10),
            core: 0,
        };
        let mut multi = MultiMachine::new(platform, &[crash]).expect("valid");
        for k in 0..6u64 {
            multi
                .schedule_irq(0, ms(20) + Duration::from_micros(200 * k))
                .expect("scheduled");
        }
        multi.run_until(ms(200));
        let report = multi.finish();
        assert!(report.conserved());
        assert_eq!(report.counters[1].failover_in, 2);
        assert_eq!(report.sheds.len(), 4);
        assert!(report
            .sheds
            .iter()
            .all(|s| s.reason == ShedReason::CoreLost && s.source == 0));
        assert_eq!(report.counters[0].shed, 4);
    }

    #[test]
    fn stalled_failover_route_retries_then_sheds_route_stalled() {
        let mut platform = two_core_platform();
        platform.failover.retry_limit = 2;
        platform.failover.retry_backoff = Duration::from_micros(100);
        let faults = [
            CoreFault::Crash {
                at: ms(10),
                core: 0,
            },
            // Stall covers the arrival and every retry attempt.
            CoreFault::RouteStall {
                from: 0,
                to: 1,
                start: ms(15),
                until: ms(60),
            },
        ];
        let mut multi = MultiMachine::new(platform, &faults).expect("valid");
        multi.schedule_irq(0, ms(20)).expect("scheduled");
        // A second arrival after the stall clears must be delivered.
        multi.schedule_irq(0, ms(80)).expect("scheduled");
        multi.run_until(ms(200));
        let report = multi.finish();
        assert!(report.conserved());
        assert_eq!(
            report.sheds,
            vec![ShedRecord {
                at: ms(20),
                source: 0,
                reason: ShedReason::RouteStalled,
            }]
        );
        assert_eq!(report.counters[1].failover_in, 1);
        assert!(report.counters[1].failover_retries >= 3);
    }

    #[test]
    fn plain_ipi_waits_out_a_route_stall() {
        let mut platform = two_core_platform();
        platform.sources[1].origin = 0;
        let stall = CoreFault::RouteStall {
            from: 0,
            to: 1,
            start: ms(5),
            until: ms(30),
        };
        let mut multi = MultiMachine::new(platform, &[stall]).expect("valid");
        multi.schedule_irq(1, ms(10)).expect("scheduled");
        multi.run_until(ms(100));
        let report = multi.finish();
        assert_eq!(report.counters[1].stall_deferrals, 1);
        assert!(report.conserved());
        // Delivered after the stall end plus the hop cost.
        assert_eq!(
            report.cores[1].recorder.completions()[0].arrival,
            ms(30) + Duration::from_micros(6)
        );
    }

    #[test]
    fn plain_ipi_waits_out_chained_route_stalls() {
        let mut platform = two_core_platform();
        platform.sources[1].origin = 0;
        // The first stall ends inside the second: the edge stays stalled
        // until 60 ms, so the IPI raised at 10 ms must wait for both.
        let faults = [
            CoreFault::RouteStall {
                from: 0,
                to: 1,
                start: ms(5),
                until: ms(30),
            },
            CoreFault::RouteStall {
                from: 0,
                to: 1,
                start: ms(20),
                until: ms(60),
            },
        ];
        let mut multi = MultiMachine::new(platform, &faults).expect("valid");
        multi.schedule_irq(1, ms(10)).expect("scheduled");
        multi.run_until(ms(100));
        let report = multi.finish();
        assert_eq!(report.counters[1].stall_deferrals, 1);
        assert!(report.conserved());
        assert_eq!(
            report.cores[1].recorder.completions()[0].arrival,
            ms(60) + Duration::from_micros(6)
        );
    }

    #[test]
    fn in_flight_work_on_a_crashed_core_is_accounted() {
        let crash = CoreFault::Crash {
            at: ms(10),
            core: 0,
        };
        let mut platform = two_core_platform();
        platform.sources[0].fallback = None;
        let mut multi = MultiMachine::new(platform, &[crash]).expect("valid");
        // Arrives before the crash, delivered to core 0, but the core dies
        // before its subscriber slot can run the bottom handler.
        multi.schedule_irq(0, ms(9)).expect("scheduled");
        // Arrives after the crash with no fallback: typed shed.
        multi.schedule_irq(0, ms(40)).expect("scheduled");
        multi.run_until(ms(200));
        let report = multi.finish();
        assert!(report.conserved());
        assert_eq!(report.sheds.len(), 1);
        assert_eq!(report.sheds[0].reason, ShedReason::CoreLost);
        assert_eq!(
            report.lost_in_flight() + report.cores[0].recorder.len() as u64,
            1
        );
    }

    #[test]
    fn scheduling_is_rejected_after_sealing_and_for_bad_inputs() {
        let mut multi = MultiMachine::new(two_core_platform(), &[]).expect("valid");
        assert_eq!(
            multi.schedule_irq(9, ms(1)),
            Err(PlatformScheduleError::UnknownSource { source: 9 })
        );
        assert_eq!(
            multi.schedule_irq(0, Instant::ZERO),
            Err(PlatformScheduleError::InPast { at: Instant::ZERO })
        );
        multi.run_until(ms(1));
        assert_eq!(
            multi.schedule_irq(0, ms(5)),
            Err(PlatformScheduleError::Sealed)
        );
    }

    #[test]
    fn snapshot_restore_round_trips_the_state_hash() {
        let crash = CoreFault::Crash {
            at: ms(50),
            core: 0,
        };
        let mut multi = MultiMachine::new(two_core_platform(), &[crash]).expect("valid");
        for k in 1..=8u64 {
            multi.schedule_irq(0, ms(12 * k)).expect("scheduled");
            multi.schedule_irq(1, ms(12 * k + 3)).expect("scheduled");
        }
        multi.run_until(ms(70));
        let snapshot = multi.snapshot();
        let hash_at_70 = multi.state_hash();
        multi.run_until(ms(200));
        assert_ne!(multi.state_hash(), hash_at_70);
        multi.restore(&snapshot);
        assert_eq!(multi.state_hash(), hash_at_70);
        multi.run_until(ms(200));
        let replayed = multi.finish();
        assert!(replayed.conserved());
    }

    #[test]
    fn single_pristine_core_hashes_identically_to_a_plain_machine() {
        let mut platform = two_core_platform();
        platform.cores.truncate(1);
        platform.route_cost = uniform_route(1, Duration::ZERO);
        platform.sources = vec![PlatformSource {
            origin: 0,
            home: 0,
            home_source: IrqSourceId::new(0),
            fallback: None,
        }];
        let mut multi = MultiMachine::new(platform, &[]).expect("valid");
        let mut machine = Machine::new(core_config()).expect("valid");
        for k in 1..=6u64 {
            multi.schedule_irq(0, ms(7 * k)).expect("scheduled");
            machine
                .schedule_irq(IrqSourceId::new(0), ms(7 * k))
                .expect("scheduled");
        }
        for step in [ms(6), ms(14), ms(50), ms(120)] {
            multi.run_until(step);
            machine.run_until(step);
            assert_eq!(multi.state_hash(), machine.state_hash(), "at {step}");
        }
    }

    #[test]
    fn budget_charges_a_boundary_attempt_to_exactly_one_window() {
        let budget = Some(RerouteBudget {
            window: Duration::from_millis(5),
            events: 1,
        });
        let w = Duration::from_millis(5);
        let t0 = ms(20);
        let mut ledger: BudgetLedger = None;
        // Window 0 opens at the anchor and admits its single event.
        assert!(MultiMachine::budget_admits(&mut ledger, budget, t0));
        // One nanosecond before the boundary is still window 0: denied.
        assert!(!MultiMachine::budget_admits(
            &mut ledger,
            budget,
            t0 + w - Duration::from_nanos(1)
        ));
        // Exactly on the boundary opens window 1 — charged there, not to
        // window 0 (which is already full).
        assert!(MultiMachine::budget_admits(&mut ledger, budget, t0 + w));
        // And window 1 is now full too: the boundary attempt was charged
        // exactly once.
        assert!(!MultiMachine::budget_admits(&mut ledger, budget, t0 + w));
    }

    #[test]
    fn budget_charges_out_of_order_attempts_to_their_own_windows() {
        // Retry-backoff ladders can interleave attempt times out of
        // order. Each attempt must be charged to the window *containing*
        // it; the old forward-rolling accounting charged the third
        // attempt below to window 2 (already rolled past) and wrongly
        // denied the fourth.
        let budget = Some(RerouteBudget {
            window: Duration::from_millis(5),
            events: 2,
        });
        let w = Duration::from_millis(5);
        let t0 = ms(20);
        let mut ledger: BudgetLedger = None;
        assert!(MultiMachine::budget_admits(&mut ledger, budget, t0));
        assert!(MultiMachine::budget_admits(&mut ledger, budget, t0 + w + w));
        // Late-arriving attempt that belongs to window 0.
        assert!(MultiMachine::budget_admits(
            &mut ledger,
            budget,
            t0 + Duration::from_nanos(1)
        ));
        // Window 2 still has one event left.
        assert!(MultiMachine::budget_admits(
            &mut ledger,
            budget,
            t0 + w + w + Duration::from_nanos(1)
        ));
        // Both windows are now exactly full.
        assert!(!MultiMachine::budget_admits(
            &mut ledger,
            budget,
            t0 + w - Duration::from_nanos(1)
        ));
        assert!(!MultiMachine::budget_admits(
            &mut ledger,
            budget,
            t0 + w + w + w - Duration::from_nanos(1)
        ));
    }

    #[test]
    fn boundary_exact_failover_attempt_lands_in_the_fresh_window() {
        let window = Duration::from_millis(5);
        let mut platform = two_core_platform();
        platform.failover.budget = Some(RerouteBudget { window, events: 1 });
        platform.failover.retry_limit = 0;
        let crash = CoreFault::Crash {
            at: ms(10),
            core: 0,
        };
        let mut multi = MultiMachine::new(platform, &[crash]).expect("valid");
        // Anchor the budget window at ms(20); the second arrival sits one
        // nanosecond inside window 0 (exhausted → shed); the third lands
        // exactly on the boundary and must be admitted by window 1.
        multi.schedule_irq(0, ms(20)).expect("scheduled");
        multi
            .schedule_irq(0, ms(20) + window - Duration::from_nanos(1))
            .expect("scheduled");
        multi.schedule_irq(0, ms(20) + window).expect("scheduled");
        multi.run_until(ms(200));
        let report = multi.finish();
        assert!(report.conserved());
        assert_eq!(report.counters[1].failover_in, 2);
        assert_eq!(report.sheds.len(), 1);
        assert_eq!(report.sheds[0].reason, ShedReason::CoreLost);
        assert_eq!(
            report.sheds[0].at,
            ms(20) + window - Duration::from_nanos(1)
        );
    }

    #[test]
    fn snapshot_shares_every_cores_history_and_keeps_the_hash() {
        let mut multi = MultiMachine::new(two_core_platform(), &[]).expect("valid platform");
        multi.enable_service_trace();
        for k in 1..=20u64 {
            multi.schedule_irq(0, ms(7 * k)).expect("scheduled");
            multi.schedule_irq(1, ms(5 * k)).expect("scheduled");
        }
        multi.run_until(ms(70));
        let hash = multi.state_hash();
        let snapshot = multi.snapshot();
        assert_eq!(multi.state_hash(), hash);
        for (live, kept) in multi.cores.iter().zip(&snapshot.0.cores) {
            assert!(live.shares_records_with(kept));
        }
        multi.run_until(ms(140));
        multi.restore(&snapshot);
        assert_eq!(multi.state_hash(), hash);
    }

    #[test]
    fn seal_state_follows_snapshot_and_restore() {
        let mut multi = MultiMachine::new(two_core_platform(), &[]).expect("valid");
        multi.schedule_irq(0, ms(10)).expect("scheduled");
        let pre_seal = multi.snapshot();
        multi.run_until(ms(30));
        let sealed = multi.snapshot();
        assert_eq!(
            multi.schedule_irq(0, ms(40)),
            Err(PlatformScheduleError::Sealed)
        );
        // Rewinding to a pre-seal snapshot reopens scheduling…
        multi.restore(&pre_seal);
        multi.schedule_irq(0, ms(40)).expect("reopened by restore");
        // …and restoring a sealed snapshot closes it again.
        multi.restore(&sealed);
        assert_eq!(
            multi.schedule_irq(0, ms(40)),
            Err(PlatformScheduleError::Sealed)
        );
    }

    #[test]
    fn crashes_freeze_exactly_at_their_instant_across_split_runs() {
        let crash = CoreFault::Crash {
            at: ms(50),
            core: 1,
        };
        let build = || {
            let mut m = MultiMachine::new(two_core_platform(), &[crash]).expect("valid");
            for k in 1..=10u64 {
                m.schedule_irq(0, ms(11 * k)).expect("scheduled");
                m.schedule_irq(1, ms(11 * k + 2)).expect("scheduled");
            }
            m
        };
        // One shot vs many small steps: identical final hash.
        let mut one = build();
        one.run_until(ms(200));
        let mut stepped = build();
        for k in 1..=40u64 {
            stepped.run_until(ms(5 * k));
        }
        assert_eq!(one.state_hash(), stepped.state_hash());
    }
}
