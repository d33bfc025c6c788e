//! The admission fleet: dense source ids hash-routed across N shards,
//! driven through a deterministic discrete-event loop with typed admission
//! outcomes, bounded fail-closed retry, a load-shedding ladder and
//! checkpoint-based shard failover.
//!
//! Every arrival ends in exactly one [`AdmitOutcome`] — admitted, denied by
//! the δ⁻ monitor, or shed with a typed [`ShedReason`]. Nothing is silent:
//! the fleet ledger balances `scheduled = admitted + denied + shed` and
//! `admitted = completed + lost_in_flight + in_flight_at_end`, and the
//! fleet-wide oracle re-checks both identities plus per-victim Eq. 13–16
//! independence over the union of all shards' admitted streams.

use std::fmt;

use rthv_hypervisor::{HealthSignal, HealthState, SupervisionPolicy};
use rthv_monitor::{Admission, DeltaFunction};
use rthv_obs::MetricsHub;
use rthv_sim::{EngineKind, EngineQueue};
use rthv_stats::LatencyHistogram;
use rthv_time::{Duration, Instant};
use rthv_workload::FloodEvent;

use rthv_faults::{check_admitted_stream, check_global_budget, check_group_budget, Violation};

use crate::shard::{InFlight, Shard, ShardCounters};
use crate::tenant::{
    BrownoutController, BrownoutLevel, GroupBudget, TenantBudgetError, TenantConfig,
    TenantCounters, TenantLedger, WindowBudget,
};

/// Why an arrival was shed instead of reaching (or surviving) an admission
/// check. Typed degradation: callers can budget each class separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The shard's bounded in-flight queue was at capacity.
    QueueFull,
    /// The shard was stalled and the deterministic bounded retry budget
    /// (`max_retries × retry_backoff`) could not outlast the stall — the
    /// fail-closed deny-on-stall escalation.
    ShardStalled,
    /// The shard was above its shed watermark and the source's health
    /// state was Probation or Quarantined — the load-shedding ladder
    /// demotes suspect sources first.
    Demoted {
        /// The health state that ranked the source for demotion.
        state: HealthState,
    },
    /// The activation had been admitted but its service was lost to a
    /// shard crash before completing.
    ShardCrash,
    /// The source's tenant is quarantined by the brownout controller:
    /// every arrival is shed until the tenant's offered load fits its
    /// group budget again.
    TenantQuarantined {
        /// The quarantined tenant.
        tenant: u32,
    },
}

impl ShedReason {
    /// Stable machine-readable label.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::ShardStalled => "shard-stalled",
            ShedReason::Demoted { .. } => "demoted",
            ShedReason::ShardCrash => "shard-crash",
            ShedReason::TenantQuarantined { .. } => "tenant-quarantined",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Demoted { state } => write!(f, "demoted:{}", state.slug()),
            ShedReason::TenantQuarantined { tenant } => write!(f, "tenant-quarantined:{tenant}"),
            other => f.write_str(other.slug()),
        }
    }
}

/// The typed outcome of one arrival at the fleet ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Conformant at every level; service scheduled.
    Admitted,
    /// The source's own δ⁻ monitor denied the activation.
    Denied {
        /// δ⁻ entry index of the first violated constraint.
        violated_distance: usize,
    },
    /// The source passed its own monitor but the tenant's group budget
    /// (window/aggregate pair, possibly brownout-shrunk) refused.
    DeniedGroup {
        /// The refusing tenant.
        tenant: u32,
    },
    /// Source and group passed but the fleet-wide global budget refused.
    /// Provably unreachable while budget sums are validated against the
    /// global budget — counted and typed anyway, because the oracle
    /// trusts ledgers over proofs.
    DeniedGlobal,
    /// Shed before the admission check could (safely) run.
    Shed {
        /// The typed degradation class.
        reason: ShedReason,
    },
}

/// How a crashed shard rebuilds its monitor arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverMode {
    /// Restore the last checkpoint and replay the admission journal tail —
    /// the recovered δ⁻ state is exactly the pre-crash state.
    Checkpoint,
    /// Restart with empty monitors (the no-failover baseline). Post-crash
    /// admissions forget the pre-crash stream, so a storm straddling the
    /// cut can overrun the Eq. 13–16 bound — which the fleet oracle must
    /// detect.
    FreshState,
}

impl FailoverMode {
    /// Stable machine-readable label.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            FailoverMode::Checkpoint => "checkpoint",
            FailoverMode::FreshState => "fresh-state",
        }
    }
}

/// Fleet construction error. Every invalid geometry is typed; nothing
/// panics at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// `shards == 0`.
    NoShards,
    /// `sources == 0`.
    NoSources,
    /// `queue_capacity == 0` — a shard that can hold nothing admits
    /// nothing.
    ZeroQueueCapacity,
    /// `service_cost` is zero — completions would collapse onto arrivals.
    ZeroServiceCost,
    /// `retry_backoff` is zero — the bounded retry would never advance.
    ZeroBackoff,
    /// `shed_watermark_permille > 1000`.
    BadWatermark,
    /// `engine` names no known event engine.
    UnknownEngine {
        /// The rejected engine name.
        value: String,
    },
    /// The tenant hierarchy was rejected — zero or overflowing budgets,
    /// budget sums escaping the global budget, or a bad source split.
    /// Never silently clamped.
    TenantBudget {
        /// The typed rejection.
        error: TenantBudgetError,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoShards => f.write_str("fleet needs at least one shard"),
            FleetError::NoSources => f.write_str("fleet needs at least one source"),
            FleetError::ZeroQueueCapacity => f.write_str("shard queue capacity must be positive"),
            FleetError::ZeroServiceCost => f.write_str("service cost must be positive"),
            FleetError::ZeroBackoff => f.write_str("retry backoff must be positive"),
            FleetError::BadWatermark => f.write_str("shed watermark must be at most 1000 permille"),
            FleetError::UnknownEngine { value } => {
                write!(f, "unknown event engine {value:?} (expected heap or wheel)")
            }
            FleetError::TenantBudget { error } => write!(f, "tenant budget rejected: {error}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Fleet geometry and policy. Construction is validated by
/// [`AdmitFleet::new`]; runs are pure functions of the config plus the
/// arrival and fault streams.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard count.
    pub shards: u32,
    /// Dense global source-id space `0..sources`.
    pub sources: u32,
    /// The δ⁻ condition every source's monitor enforces.
    pub delta: DeltaFunction,
    /// Bounded per-shard in-flight queue capacity.
    pub queue_capacity: usize,
    /// Service time charged per admitted activation (`C'_BH`).
    pub service_cost: Duration,
    /// Bounded retry budget against a stalled shard.
    pub max_retries: u32,
    /// Deterministic backoff between retries.
    pub retry_backoff: Duration,
    /// In-flight occupancy (‰ of capacity) above which the shedding
    /// ladder starts demoting Probation/Quarantined sources.
    pub shed_watermark_permille: u32,
    /// Per-source supervision policy feeding the ladder.
    pub supervision: SupervisionPolicy,
    /// Checkpoint after this many journalled admissions.
    pub checkpoint_every: u64,
    /// What a crash does to shard state.
    pub failover: FailoverMode,
    /// Event-engine name (`"heap"` or `"wheel"`); rejected values become
    /// [`FleetError::UnknownEngine`], never a silent fallback.
    pub engine: String,
    /// Ingress-to-completion latency histogram bin width.
    pub latency_bin_width: Duration,
    /// Latency histogram range.
    pub latency_range: Duration,
    /// The two-level tenant hierarchy with brownout overload control.
    /// `None` keeps the flat single-level fleet of PR 7, byte-identically.
    pub tenancy: Option<TenantConfig>,
}

impl FleetConfig {
    /// Paper-flavoured defaults: the Section-6 sporadic condition
    /// `d_min = 1 ms`, a 100 µs effective bottom cost, 48-deep shard
    /// queues, shedding from 750 ‰ occupancy, 3 retries at 200 µs and a
    /// checkpoint every 32 admissions.
    #[must_use]
    pub fn paper(shards: u32, sources: u32) -> Self {
        FleetConfig {
            shards,
            sources,
            delta: DeltaFunction::from_dmin(Duration::from_millis(1))
                .expect("the paper's 1 ms sporadic condition is a valid δ⁻"),
            queue_capacity: 48,
            service_cost: Duration::from_micros(100),
            max_retries: 3,
            retry_backoff: Duration::from_micros(200),
            shed_watermark_permille: 750,
            supervision: SupervisionPolicy::default(),
            checkpoint_every: 32,
            failover: FailoverMode::Checkpoint,
            engine: "wheel".to_owned(),
            latency_bin_width: Duration::from_micros(50),
            latency_range: Duration::from_millis(20),
            tenancy: None,
        }
    }
}

/// A shard-level fault, injected at an absolute instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// When the fault strikes.
    pub at: Instant,
    /// Which shard it strikes.
    pub shard: u32,
    /// What it does.
    pub kind: ShardFaultKind,
}

/// The shard fault families, mirroring [`rthv_faults::FaultKind`]'s
/// `ShardCrash`/`ShardStall` one layer up where shards actually exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// The shard process dies: in-flight work is lost (typed), state is
    /// rebuilt per [`FailoverMode`].
    Crash,
    /// The shard stops serving for a window; ingress fails closed after
    /// the bounded retry budget.
    Stall {
        /// Stall window length.
        duration: Duration,
    },
}

/// Routes a global source id to its shard: a splitmix64 finalizer over the
/// id, reduced mod `shards`. Pure and stable — the same `(source, shards)`
/// pair routes identically across fleet reconstructions, engines and
/// processes.
#[must_use]
pub fn route(source: u32, shards: u32) -> u32 {
    let mut z = u64::from(source).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % u64::from(shards)) as u32
}

/// What flows through the fleet's event engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetEvent {
    /// An ingress arrival from `source`.
    Arrival { source: u32 },
    /// Shard crash.
    Crash { shard: u32 },
    /// Shard stall `faults[fault]` strikes now; it ends at the fault's `at`
    /// plus its duration. An index instead of the end instant keeps the
    /// event at 12 bytes.
    Stall { fault: u32 },
    /// Service completion at the head of one lane of `shard`'s in-flight
    /// queues.
    Drain { shard: u32, lane: u32 },
    /// Retry-ladder re-attempt for an arrival that hit a stalled shard
    /// (tenanted fleets with `retry_ladder` only).
    Retry { source: u32, attempt: u32 },
}

/// The sharded admission fleet. Construction validates the geometry and
/// freezes the source→shard routing table; [`AdmitFleet::run`] executes
/// one deterministic campaign arm over fresh shard state.
#[derive(Debug)]
pub struct AdmitFleet {
    config: FleetConfig,
    engine: EngineKind,
    /// `router[source] = (shard, local index within the shard's arena)`.
    router: Vec<(u32, u32)>,
    /// Sources per shard.
    locals: Vec<u32>,
}

impl AdmitFleet {
    /// Validates `config` and builds the routing table.
    pub fn new(config: FleetConfig) -> Result<AdmitFleet, FleetError> {
        if config.shards == 0 {
            return Err(FleetError::NoShards);
        }
        if config.sources == 0 {
            return Err(FleetError::NoSources);
        }
        if config.queue_capacity == 0 {
            return Err(FleetError::ZeroQueueCapacity);
        }
        if config.service_cost.is_zero() {
            return Err(FleetError::ZeroServiceCost);
        }
        if config.retry_backoff.is_zero() {
            return Err(FleetError::ZeroBackoff);
        }
        if config.shed_watermark_permille > 1000 {
            return Err(FleetError::BadWatermark);
        }
        let engine =
            EngineKind::parse(&config.engine).ok_or_else(|| FleetError::UnknownEngine {
                value: config.engine.clone(),
            })?;
        if let Some(tenancy) = &config.tenancy {
            tenancy
                .validate(config.sources)
                .map_err(|error| FleetError::TenantBudget { error })?;
        }
        let mut locals = vec![0u32; config.shards as usize];
        let router = (0..config.sources)
            .map(|source| {
                let shard = route(source, config.shards);
                let local = locals[shard as usize];
                locals[shard as usize] += 1;
                (shard, local)
            })
            .collect();
        Ok(AdmitFleet {
            config,
            engine,
            router,
            locals,
        })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The frozen `(shard, local)` route of `source`, if it exists.
    #[must_use]
    pub fn route_of(&self, source: u32) -> Option<(u32, u32)> {
        self.router.get(source as usize).copied()
    }

    /// Runs one campaign arm: `arrivals` (sorted, as produced by
    /// [`rthv_workload::open_loop_flood`] / [`rthv_workload::ecu_fleet`])
    /// against `faults`, over fresh shard state. Pure in everything except
    /// `hub`, which — when given — receives the observability event stream.
    pub fn run(
        &self,
        arrivals: &[FloodEvent],
        faults: &[ShardFault],
        mut hub: Option<&mut MetricsHub>,
    ) -> FleetReport {
        let cfg = &self.config;
        // A flat fleet serves one lane; a tenanted fleet reserves one lane
        // per tenant plus a shared best-effort lane for demoted tenants.
        let lanes = cfg.tenancy.as_ref().map_or(1, |tc| tc.tenants.len() + 1);
        let shards: Vec<Shard> = self
            .locals
            .iter()
            .map(|&n| Shard::new(n as usize, lanes, &cfg.delta, cfg.supervision))
            .collect();
        let mut tenancy = cfg.tenancy.as_ref().map(TenancyRuntime::new);
        let tick_hint = cfg.delta.dmin().max(Duration::from_micros(64));
        let mut queue: EngineQueue<FleetEvent> = EngineQueue::new(self.engine, tick_hint);
        queue.reserve(arrivals.len() + faults.len());

        // Arrivals before faults: at equal instants the FIFO tie-break
        // lets same-tick ingress beat the crash that would shed it, which
        // is both deterministic and the adversarial-maximal ordering (the
        // crash then kills it in flight instead).
        for ev in arrivals {
            queue
                .schedule_at(ev.at, FleetEvent::Arrival { source: ev.source })
                .expect("arrival streams start at the epoch");
        }
        for (index, fault) in faults.iter().enumerate() {
            let event = match fault.kind {
                ShardFaultKind::Crash => FleetEvent::Crash { shard: fault.shard },
                ShardFaultKind::Stall { .. } => FleetEvent::Stall {
                    fault: u32::try_from(index).expect("fault plans hold fewer than 2^32 faults"),
                },
            };
            queue
                .schedule_at(fault.at, event)
                .expect("fault plans start at the epoch");
        }

        let mut admitted: Vec<Vec<Instant>> = vec![Vec::new(); cfg.sources as usize];
        let mut latency = LatencyHistogram::new(cfg.latency_bin_width, cfg.latency_range)
            .expect("validated latency geometry");
        let mut max_latency = Duration::ZERO;

        let mut end_of_run = Instant::ZERO;
        while let Some((now, event)) = queue.pop() {
            end_of_run = now;
            match event {
                FleetEvent::Arrival { source } => {
                    let Some(&(shard_id, local)) = self.router.get(source as usize) else {
                        continue; // out-of-range source: not ours to admit
                    };
                    if let Some(h) = hub.as_deref_mut() {
                        h.record_raised(now, source as usize);
                    }
                    if let Some(rt) = tenancy.as_mut() {
                        self.tenant_ingress(
                            rt,
                            &shards,
                            &mut queue,
                            &mut admitted,
                            &mut hub,
                            now,
                            source,
                            0,
                        );
                        continue;
                    }
                    let shard = &shards[shard_id as usize];
                    let outcome = shard.with_state(|s| {
                        s.counters.scheduled += 1;
                        // Fail-closed stall handling: a bounded number of
                        // deterministic backoff retries may outlast the
                        // stall; if they cannot, the arrival is shed — we
                        // never admit against a monitor we cannot reach.
                        if let Some(until) = s.stalled_until {
                            if now < until {
                                let wait = until - now;
                                let backoff = cfg.retry_backoff.as_nanos();
                                let needed = wait.as_nanos().div_ceil(backoff);
                                if needed > u64::from(cfg.max_retries) {
                                    s.counters.shed_stalled += 1;
                                    return AdmitOutcome::Shed {
                                        reason: ShedReason::ShardStalled,
                                    };
                                }
                                s.counters.retries += needed;
                            } else {
                                s.stalled_until = None;
                            }
                        }
                        if s.in_flight[0].len() >= cfg.queue_capacity {
                            s.counters.shed_queue_full += 1;
                            if let Some(tr) =
                                s.trackers[local as usize].signal(HealthSignal::Overflow, now)
                            {
                                if let Some(h) = hub.as_deref_mut() {
                                    h.record_health(
                                        now,
                                        source as usize,
                                        tr.from.slug(),
                                        tr.to.slug(),
                                    );
                                }
                            }
                            return AdmitOutcome::Shed {
                                reason: ShedReason::QueueFull,
                            };
                        }
                        // The shedding ladder: above the watermark, shed
                        // Probation/Quarantined sources before they reach
                        // the monitor, preserving headroom for healthy ones.
                        let occupancy = s.in_flight[0].len() as u64 * 1000;
                        let watermark =
                            u64::from(cfg.shed_watermark_permille) * cfg.queue_capacity as u64;
                        let state = s.trackers[local as usize].state();
                        if occupancy >= watermark && state.shed_rank() >= 2 {
                            s.counters.shed_demoted += 1;
                            return AdmitOutcome::Shed {
                                reason: ShedReason::Demoted { state },
                            };
                        }
                        // Admission always checks the hardware arrival
                        // timestamp (the paper's IRQ-timestamp clock), so
                        // the admitted stream is δ⁻-conformant in arrival
                        // time regardless of queueing or retries.
                        match s.monitors[local as usize].try_admit_detailed(now) {
                            Admission::Admitted => {
                                s.counters.admitted += 1;
                                if let Some(tr) = s.trackers[local as usize].conformant(now) {
                                    if let Some(h) = hub.as_deref_mut() {
                                        h.record_health(
                                            now,
                                            source as usize,
                                            tr.from.slug(),
                                            tr.to.slug(),
                                        );
                                    }
                                }
                                s.note_admitted(local, now, cfg.checkpoint_every);
                                AdmitOutcome::Admitted
                            }
                            Admission::Denied { violated_distance } => {
                                s.counters.denied += 1;
                                if let Some(tr) =
                                    s.trackers[local as usize].signal(HealthSignal::Denied, now)
                                {
                                    if let Some(h) = hub.as_deref_mut() {
                                        h.record_health(
                                            now,
                                            source as usize,
                                            tr.from.slug(),
                                            tr.to.slug(),
                                        );
                                    }
                                }
                                AdmitOutcome::Denied { violated_distance }
                            }
                        }
                    });
                    match outcome {
                        AdmitOutcome::Admitted => {
                            admitted[source as usize].push(now);
                            if let Some(h) = hub.as_deref_mut() {
                                h.record_admitted(now, source as usize);
                            }
                            // Single-server shard: the admission completes
                            // after everything already in service.
                            shard.with_state(|s| {
                                let start = s.busy_until[0].max(now);
                                let completion = start + cfg.service_cost;
                                s.busy_until[0] = completion;
                                let id = queue
                                    .schedule_at(
                                        completion,
                                        FleetEvent::Drain {
                                            shard: shard_id,
                                            lane: 0,
                                        },
                                    )
                                    .expect("completions are in the future");
                                s.in_flight[0].push_back(InFlight {
                                    id,
                                    source,
                                    arrival: now,
                                });
                            });
                        }
                        AdmitOutcome::Denied { violated_distance } => {
                            if let Some(h) = hub.as_deref_mut() {
                                h.record_denied(
                                    now,
                                    source as usize,
                                    Some(violated_distance as u64),
                                );
                            }
                        }
                        // The flat ingress closure has no tenant levels;
                        // kept for match completeness.
                        AdmitOutcome::DeniedGroup { .. } | AdmitOutcome::DeniedGlobal => {
                            if let Some(h) = hub.as_deref_mut() {
                                h.record_denied(now, source as usize, None);
                            }
                        }
                        AdmitOutcome::Shed { .. } => {
                            if let Some(h) = hub.as_deref_mut() {
                                h.record_shed(now, source as usize);
                            }
                        }
                    }
                }
                FleetEvent::Drain { shard, lane } => {
                    let done = shards[shard as usize].with_state(|s| {
                        let head = s.in_flight[lane as usize].pop_front();
                        if head.is_some() {
                            s.counters.completed += 1;
                        }
                        head
                    });
                    if let Some(flight) = done {
                        let lat = now - flight.arrival;
                        latency.add(lat);
                        max_latency = max_latency.max(lat);
                        if let Some(rt) = tenancy.as_mut() {
                            let t = rt.tenant_of[flight.source as usize] as usize;
                            rt.tenants[t].counters.completed += 1;
                        }
                        if let Some(h) = hub.as_deref_mut() {
                            h.record_completion(now, flight.source as usize, lat);
                        }
                    }
                }
                FleetEvent::Crash { shard } => {
                    let dropped = shards[shard as usize]
                        .with_state(|s| s.crash(now, cfg.failover, &cfg.delta, cfg.supervision));
                    for flight in dropped {
                        queue.cancel(flight.id);
                        if let Some(rt) = tenancy.as_mut() {
                            let t = rt.tenant_of[flight.source as usize] as usize;
                            rt.tenants[t].counters.lost_in_flight += 1;
                        }
                        if let Some(h) = hub.as_deref_mut() {
                            h.record_shed(now, flight.source as usize);
                        }
                    }
                }
                FleetEvent::Stall { fault } => {
                    let ShardFault {
                        at,
                        shard,
                        kind: ShardFaultKind::Stall { duration },
                    } = faults[fault as usize]
                    else {
                        continue; // only stall faults schedule stall events
                    };
                    let until = at + duration;
                    shards[shard as usize].with_state(|s| {
                        s.counters.stalls += 1;
                        s.stalled_until = Some(s.stalled_until.map_or(until, |u| u.max(until)));
                        for busy in &mut s.busy_until {
                            *busy = (*busy).max(until);
                        }
                    });
                }
                FleetEvent::Retry { source, attempt } => {
                    // Retry events exist only in tenanted fleets with the
                    // ladder enabled; a stray one in a flat fleet is inert.
                    if let Some(rt) = tenancy.as_mut() {
                        self.tenant_ingress(
                            rt,
                            &shards,
                            &mut queue,
                            &mut admitted,
                            &mut hub,
                            now,
                            source,
                            attempt,
                        );
                    }
                }
            }
        }

        let shard_counters: Vec<ShardCounters> = shards.iter().map(Shard::counters).collect();
        let mut counters = ShardCounters::default();
        for c in &shard_counters {
            counters.add(c);
        }
        let in_flight_at_end = shards.iter().map(|s| s.in_flight_len() as u64).sum();
        let (tenants, tenant_of) = match tenancy {
            Some(rt) => rt.finish(&shards, end_of_run, hub),
            None => (Vec::new(), Vec::new()),
        };
        FleetReport {
            shards: cfg.shards,
            sources: cfg.sources,
            counters,
            shard_counters,
            admitted,
            in_flight_at_end,
            latency,
            max_latency,
            tenants,
            tenant_of,
            tenancy: cfg.tenancy.clone(),
        }
    }

    /// One tenanted ingress attempt — an arrival (`attempt == 0`) or a
    /// retry-ladder re-attempt — through the three-level admission
    /// hierarchy: quarantine gate, stall policy, lane capacity, watermark
    /// ladder, then source monitor → group budget → global budget, with
    /// every refusal typed by the level that refused. State is recorded in
    /// all three levels only after all three pass, so a higher-level
    /// refusal leaves no phantom admission behind.
    #[allow(clippy::too_many_arguments)]
    fn tenant_ingress(
        &self,
        rt: &mut TenancyRuntime,
        shards: &[Shard],
        queue: &mut EngineQueue<FleetEvent>,
        admitted: &mut [Vec<Instant>],
        hub: &mut Option<&mut MetricsHub>,
        now: Instant,
        source: u32,
        attempt: u32,
    ) {
        let cfg = &self.config;
        let Some(&(shard_id, local)) = self.router.get(source as usize) else {
            return;
        };
        let tenant = rt.tenant_of[source as usize] as usize;
        let shard = &shards[shard_id as usize];
        let retry_ladder = rt.retry_ladder;
        if attempt == 0 {
            shard.with_state(|s| s.counters.scheduled += 1);
            rt.tenants[tenant].counters.scheduled += 1;
        }
        rt.tenants[tenant].brownout.roll(now);
        let level = rt.tenants[tenant].brownout.level();
        if level == BrownoutLevel::Quarantined {
            shard.with_state(|s| s.counters.shed_quarantined += 1);
            let tn = &mut rt.tenants[tenant];
            tn.counters.shed_quarantined += 1;
            tn.brownout.record(true);
            if let Some(h) = hub.as_deref_mut() {
                h.record_shed(now, source as usize);
            }
            return;
        }
        // Reserved lane per tenant; demoted tenants share the best-effort
        // lane at a quarter of a reserved lane's depth.
        let lane = if level >= BrownoutLevel::BestEffort {
            rt.best_effort_lane
        } else {
            tenant
        };
        let lane_cap = if lane == rt.best_effort_lane {
            (cfg.queue_capacity / 4).max(1)
        } else {
            cfg.queue_capacity
        };
        enum Gate {
            RetryLater,
            Shed(ShedReason),
            Denied { violated_distance: usize },
            Cleared,
        }
        let gate = shard.with_state(|s| {
            if let Some(until) = s.stalled_until {
                if now < until {
                    if retry_ladder {
                        // The event-driven ladder: come back one backoff
                        // later, up to the bounded attempt budget, and
                        // fail closed after it.
                        if attempt < cfg.max_retries {
                            s.counters.retries += 1;
                            return Gate::RetryLater;
                        }
                        s.counters.shed_stalled += 1;
                        return Gate::Shed(ShedReason::ShardStalled);
                    }
                    // Flat-style arithmetic fail-closed check.
                    let wait = until - now;
                    let needed = wait.as_nanos().div_ceil(cfg.retry_backoff.as_nanos());
                    if needed > u64::from(cfg.max_retries) {
                        s.counters.shed_stalled += 1;
                        return Gate::Shed(ShedReason::ShardStalled);
                    }
                    s.counters.retries += needed;
                } else {
                    s.stalled_until = None;
                }
            }
            if s.in_flight[lane].len() >= lane_cap {
                s.counters.shed_queue_full += 1;
                if let Some(tr) = s.trackers[local as usize].signal(HealthSignal::Overflow, now) {
                    if let Some(h) = hub.as_deref_mut() {
                        h.record_health(now, source as usize, tr.from.slug(), tr.to.slug());
                    }
                }
                return Gate::Shed(ShedReason::QueueFull);
            }
            // The watermark ladder judges the tenant's own lane, so one
            // tenant's backlog can never demote another's sources.
            let occupancy = s.in_flight[lane].len() as u64 * 1000;
            let watermark = u64::from(cfg.shed_watermark_permille) * lane_cap as u64;
            let state = s.trackers[local as usize].state();
            if occupancy >= watermark && state.shed_rank() >= 2 {
                s.counters.shed_demoted += 1;
                return Gate::Shed(ShedReason::Demoted { state });
            }
            // Level one: the source's own δ⁻ monitor — check only, so a
            // refusal at a higher level leaves no phantom trace entry.
            match s.monitors[local as usize].check(now) {
                Admission::Admitted => Gate::Cleared,
                Admission::Denied { violated_distance } => {
                    s.counters.denied += 1;
                    if let Some(tr) = s.trackers[local as usize].signal(HealthSignal::Denied, now) {
                        if let Some(h) = hub.as_deref_mut() {
                            h.record_health(now, source as usize, tr.from.slug(), tr.to.slug());
                        }
                    }
                    Gate::Denied { violated_distance }
                }
            }
        });
        match gate {
            Gate::RetryLater => {
                rt.tenants[tenant].counters.retries += 1;
                queue
                    .schedule_at(
                        now + cfg.retry_backoff,
                        FleetEvent::Retry {
                            source,
                            attempt: attempt + 1,
                        },
                    )
                    .expect("retries are in the future");
            }
            Gate::Shed(reason) => {
                let tn = &mut rt.tenants[tenant];
                match reason {
                    ShedReason::QueueFull => tn.counters.shed_queue_full += 1,
                    ShedReason::ShardStalled => tn.counters.shed_stalled += 1,
                    ShedReason::Demoted { .. } => tn.counters.shed_demoted += 1,
                    ShedReason::TenantQuarantined { .. } | ShedReason::ShardCrash => {}
                }
                tn.brownout.record(true);
                if let Some(h) = hub.as_deref_mut() {
                    h.record_shed(now, source as usize);
                }
            }
            Gate::Denied { violated_distance } => {
                let tn = &mut rt.tenants[tenant];
                tn.counters.denied_source += 1;
                tn.brownout.record(false);
                if let Some(h) = hub.as_deref_mut() {
                    h.record_denied(now, source as usize, Some(violated_distance as u64));
                }
            }
            Gate::Cleared => {
                // Level two: the tenant's group budget at its (possibly
                // brownout-shrunk) effective limit.
                let tn = &mut rt.tenants[tenant];
                let effective = tn.brownout.effective_budget();
                if !tn.group.admits(now, effective) {
                    shard.with_state(|s| s.counters.denied += 1);
                    tn.counters.denied_group += 1;
                    tn.brownout.record(false);
                    if let Some(h) = hub.as_deref_mut() {
                        h.record_denied(now, source as usize, None);
                    }
                    return;
                }
                // Level three: the global interference budget. With
                // validated budget sums this can never refuse a tenant
                // inside its group budget — it is the defense-in-depth
                // backstop the oracle re-checks.
                if !rt.global.admits(now, u64::MAX) {
                    shard.with_state(|s| s.counters.denied += 1);
                    let tn = &mut rt.tenants[tenant];
                    tn.counters.denied_global += 1;
                    tn.brownout.record(false);
                    if let Some(h) = hub.as_deref_mut() {
                        h.record_denied(now, source as usize, None);
                    }
                    return;
                }
                shard.with_state(|s| {
                    s.counters.admitted += 1;
                    s.monitors[local as usize].record_admitted(now);
                    if let Some(tr) = s.trackers[local as usize].conformant(now) {
                        if let Some(h) = hub.as_deref_mut() {
                            h.record_health(now, source as usize, tr.from.slug(), tr.to.slug());
                        }
                    }
                    s.note_admitted(local, now, cfg.checkpoint_every);
                    let start = s.busy_until[lane].max(now);
                    let completion = start + cfg.service_cost;
                    s.busy_until[lane] = completion;
                    let id = queue
                        .schedule_at(
                            completion,
                            FleetEvent::Drain {
                                shard: shard_id,
                                lane: lane as u32,
                            },
                        )
                        .expect("completions are in the future");
                    s.in_flight[lane].push_back(InFlight {
                        id,
                        source,
                        arrival: now,
                    });
                });
                let tn = &mut rt.tenants[tenant];
                tn.group.record(now);
                rt.global.record(now);
                tn.counters.admitted += 1;
                if attempt > 0 {
                    tn.counters.rescued += 1;
                }
                tn.brownout.record(false);
                admitted[source as usize].push(now);
                if let Some(h) = hub.as_deref_mut() {
                    h.record_admitted(now, source as usize);
                }
            }
        }
    }
}

/// Per-tenant live state inside one fleet run.
#[derive(Debug)]
struct TenantRt {
    group: GroupBudget,
    brownout: BrownoutController,
    counters: TenantCounters,
}

/// Everything the tenancy layer threads through one run: per-tenant
/// budgets and brownout controllers, the global window budget and the
/// frozen source → tenant table. Fleet-level on purpose — a shard crash
/// rebuilds shard arenas but never this ledger, so the budget hierarchy
/// survives failover exactly.
#[derive(Debug)]
struct TenancyRuntime {
    tenants: Vec<TenantRt>,
    global: WindowBudget,
    tenant_of: Vec<u32>,
    best_effort_lane: usize,
    retry_ladder: bool,
}

impl TenancyRuntime {
    fn new(tc: &TenantConfig) -> Self {
        let tenants = tc
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| TenantRt {
                group: GroupBudget::new(spec.budget, tc.window),
                brownout: BrownoutController::new(
                    tc.brownout,
                    tc.window,
                    spec.budget,
                    tc.seed,
                    i as u32,
                ),
                counters: TenantCounters::default(),
            })
            .collect();
        TenancyRuntime {
            tenants,
            global: WindowBudget::new(tc.window, tc.global_budget),
            tenant_of: tc.tenant_of(),
            best_effort_lane: tc.tenants.len(),
            retry_ladder: tc.retry_ladder,
        }
    }

    /// Assembles the per-tenant ledgers (attributing remaining in-flight
    /// work through the source → tenant table) and pushes the per-tenant
    /// gauges into the hub.
    fn finish(
        mut self,
        shards: &[Shard],
        end: Instant,
        hub: Option<&mut MetricsHub>,
    ) -> (Vec<TenantLedger>, Vec<u32>) {
        let mut in_flight = vec![0u64; self.tenants.len()];
        for shard in shards {
            shard.with_state(|s| {
                for lane in &s.in_flight {
                    for flight in lane {
                        in_flight[self.tenant_of[flight.source as usize] as usize] += 1;
                    }
                }
            });
        }
        let ledgers: Vec<TenantLedger> = self
            .tenants
            .iter_mut()
            .enumerate()
            .map(|(t, rt)| TenantLedger {
                counters: rt.counters,
                in_flight_at_end: in_flight[t],
                final_level: rt.brownout.level(),
                escalations: rt.brownout.escalations(),
                recoveries: rt.brownout.recoveries(),
                headroom_at_end: rt.group.headroom(end),
            })
            .collect();
        if let Some(h) = hub {
            for (t, ledger) in ledgers.iter().enumerate() {
                h.record_tenant_gauges(
                    t,
                    ledger.counters.shed_permille(),
                    u64::from(ledger.final_level.rank()),
                    ledger.headroom_at_end,
                );
            }
        }
        (ledgers, self.tenant_of)
    }
}

/// Everything one fleet run leaves behind, sufficient for the fleet-wide
/// oracle to re-verify independence and conservation offline.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Shard count of the run.
    pub shards: u32,
    /// Source count of the run.
    pub sources: u32,
    /// Fleet-aggregated ledger.
    pub counters: ShardCounters,
    /// Per-shard ledgers.
    pub shard_counters: Vec<ShardCounters>,
    /// Per-source admitted timestamps, in admission order.
    pub admitted: Vec<Vec<Instant>>,
    /// Admissions still in service when the horizon ended.
    pub in_flight_at_end: u64,
    /// Ingress-to-completion latency distribution.
    pub latency: LatencyHistogram,
    /// Worst observed completion latency.
    pub max_latency: Duration,
    /// Per-tenant ledgers, empty for a flat run.
    pub tenants: Vec<TenantLedger>,
    /// `tenant_of[source]`, empty for a flat run.
    pub tenant_of: Vec<u32>,
    /// The tenancy the run executed under, if any — carried so the oracle
    /// can re-check group and global budgets offline.
    pub tenancy: Option<TenantConfig>,
}

impl FleetReport {
    /// The union of all shards' admitted streams, merged into one
    /// `(timestamp, source)` sequence ordered by time then source id.
    #[must_use]
    pub fn merged_admitted(&self) -> Vec<(Instant, u32)> {
        let mut merged: Vec<(Instant, u32)> = self
            .admitted
            .iter()
            .enumerate()
            .flat_map(|(source, times)| times.iter().map(move |&at| (at, source as u32)))
            .collect();
        merged.sort_unstable();
        merged
    }

    /// Canonical byte encoding of [`merged_admitted`](Self::merged_admitted)
    /// (`"<at_ns> <source>\n"` lines) — the thing that must be
    /// byte-identical across shard counts and engines.
    #[must_use]
    pub fn merged_bytes(&self) -> String {
        let mut out = String::new();
        for (at, source) in self.merged_admitted() {
            out.push_str(&format!("{} {}\n", at.as_nanos(), source));
        }
        out
    }

    /// Typed sheds per 1000 scheduled arrivals (0 when nothing arrived).
    #[must_use]
    pub fn shed_permille(&self) -> u64 {
        if self.counters.scheduled == 0 {
            return 0;
        }
        self.counters.shed_total() * 1000 / self.counters.scheduled
    }

    /// One tenant's merged admitted stream, `(time, source)` ordered —
    /// the stream the isolation theorem says must not move when *other*
    /// tenants misbehave.
    #[must_use]
    pub fn tenant_admitted(&self, tenant: usize) -> Vec<(Instant, u32)> {
        let mut merged: Vec<(Instant, u32)> = self
            .admitted
            .iter()
            .enumerate()
            .filter(|&(source, _)| self.tenant_of.get(source).copied() == Some(tenant as u32))
            .flat_map(|(source, times)| times.iter().map(move |&at| (at, source as u32)))
            .collect();
        merged.sort_unstable();
        merged
    }

    /// Canonical byte encoding of one tenant's admitted stream
    /// (`"<at_ns> <source>\n"` lines) — the byte-identity witness of the
    /// isolation proptest.
    #[must_use]
    pub fn tenant_bytes(&self, tenant: usize) -> String {
        let mut out = String::new();
        for (at, source) in self.tenant_admitted(tenant) {
            out.push_str(&format!("{} {}\n", at.as_nanos(), source));
        }
        out
    }

    /// The fleet-wide oracle: per-victim δ⁻ replay, sliding-window η⁺
    /// counts and the Eq. 13–16 interference bound over each source's
    /// admitted stream — *including across crash/failover cuts*, because
    /// the streams span the whole run — plus the two conservation
    /// identities of the fleet ledger.
    #[must_use]
    pub fn check(&self, delta: &DeltaFunction, effective_cost: Duration) -> Vec<Violation> {
        let mut out = Vec::new();
        for (source, stream) in self.admitted.iter().enumerate() {
            if stream.is_empty() {
                continue;
            }
            out.extend(check_admitted_stream(
                0,
                source,
                stream,
                delta,
                effective_cost,
            ));
        }
        let c = &self.counters;
        let ingress_accounted = c.admitted + c.denied + c.shed_total();
        if ingress_accounted != c.scheduled {
            out.push(Violation::IrqLost {
                scheduled: c.scheduled,
                accounted: ingress_accounted,
            });
        }
        let service_accounted = c.completed + c.lost_in_flight + self.in_flight_at_end;
        if service_accounted != c.admitted {
            out.push(Violation::IrqLost {
                scheduled: c.admitted,
                accounted: service_accounted,
            });
        }
        if let Some(tc) = &self.tenancy {
            let mut union: Vec<Instant> = Vec::new();
            for (tenant, ledger) in self.tenants.iter().enumerate() {
                let t = &ledger.counters;
                let ingress = t.admitted + t.denied_total() + t.shed_total();
                if ingress != t.scheduled {
                    out.push(Violation::TenantConservation {
                        tenant,
                        expected: t.scheduled,
                        accounted: ingress,
                    });
                }
                let service = t.completed + t.lost_in_flight + ledger.in_flight_at_end;
                if service != t.admitted {
                    out.push(Violation::TenantConservation {
                        tenant,
                        expected: t.admitted,
                        accounted: service,
                    });
                }
                let stream: Vec<Instant> = self
                    .tenant_admitted(tenant)
                    .into_iter()
                    .map(|(at, _)| at)
                    .collect();
                out.extend(check_group_budget(
                    tenant,
                    &stream,
                    tc.tenants[tenant].budget,
                    tc.window,
                ));
                union.extend(stream);
            }
            union.sort_unstable();
            out.extend(check_global_budget(&union, tc.global_budget, tc.window));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_event_fits_in_twelve_bytes() {
        // Beside the 16-byte packed key, a 12-byte event keeps the wheel's
        // slab node at 32 bytes, the size of the heap engine's entry.
        assert!(std::mem::size_of::<FleetEvent>() <= 12);
    }
}
