//! The admission fleet: dense source ids hash-routed across N shards,
//! driven through a deterministic discrete-event loop with one admission
//! path, bounded fail-closed retry, a load-shedding ladder and
//! checkpoint-based shard failover.
//!
//! The loop needs no event engine. Arrivals and shard faults are known
//! before a run starts, so [`AdmitFleet::run`] reads both slices in place
//! through two cursors; only the events a run creates itself — each
//! lane's service completions and the retry ladder's re-attempts — wait
//! in a small heap.
//!
//! Every arrival takes one admission decision — the paper's top-handler
//! δ⁻ check on the arrival timestamp, scaled to the fleet — and ends
//! admitted, denied (by the source's δ⁻ monitor or, in a tenanted fleet,
//! by its group or the global budget), or shed with a typed
//! [`ShedReason`]. A flat fleet is the tenant-less case of that same path.
//! Nothing is silent: the fleet ledger balances
//! `scheduled = admitted + denied + shed` and
//! `admitted = completed + lost_in_flight + in_flight_at_end`, and the
//! fleet-wide oracle re-checks both identities plus per-victim Eq. 13–16
//! independence over the union of all shards' admitted streams.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use rthv_hypervisor::{HealthSignal, HealthState, HealthTransition, SupervisionPolicy};
use rthv_monitor::{Admission, DeltaFunction};
use rthv_obs::MetricsHub;
use rthv_stats::LatencyHistogram;
use rthv_time::{Duration, Instant};
use rthv_workload::FloodEvent;

use rthv_faults::{check_admitted_stream, check_global_budget, check_group_budget, Violation};

use crate::shard::{InFlight, ShardCounters, ShardState};
use crate::tenant::{
    BrownoutController, BrownoutLevel, TenantBudgetError, TenantConfig, TenantCounters,
    TenantLedger, WindowBudget,
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
    /// Ingress-to-completion latency histogram bin width.
    pub latency_bin_width: Duration,
    /// Latency histogram range.
    pub latency_range: Duration,
    /// The two-level tenant hierarchy with brownout overload control.
    /// `None` is the flat single-level fleet: one lane per shard, no
    /// quarantine gate, no group or global budget, and an arithmetic
    /// fail-closed check against stalled shards instead of the retry
    /// ladder.
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
/// pair routes identically across fleet reconstructions and processes.
#[must_use]
pub fn route(source: u32, shards: u32) -> u32 {
    let mut z = u64::from(source).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % u64::from(shards)) as u32
}

/// One step of a fleet run, in time order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// An ingress attempt from `source`: an arrival (`attempt == 0`) or a
    /// retry-ladder re-attempt after it hit a stalled shard (tenanted
    /// fleets only).
    Ingress { source: u32, attempt: u32 },
    /// Shard crash.
    Crash { shard: u32 },
    /// A stall of `shard` strikes; it ends at `until`.
    Stall { shard: u32, until: Instant },
    /// Service completion of in-flight entry `seq`, which heads one lane
    /// of `shard` unless a crash cleared that lane since.
    Drain { shard: u32, lane: u32, seq: u64 },
}

/// An event the run schedules for itself. Ordered only so it can sit in a
/// heap entry; entries are unique by their `(at, seq)` prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Scheduled {
    /// Service completion at the head of one lane of `shard`.
    Drain { shard: u32, lane: u32 },
    /// A retry-ladder re-attempt.
    Retry { source: u32, attempt: u32 },
}

/// Everything a run will process, in time order: the arrival and fault
/// slices read in place through two cursors, and the events the run
/// schedules (completions and retries) in a small heap. Every scheduled
/// event lies strictly after the instant that schedules it, since service
/// cost and retry backoff are positive; so taking, at equal instants,
/// arrivals first, then faults, then scheduled events by `seq`, is the
/// `(at, seq)` order of one queue filled with every arrival, then every
/// fault, then each event as it is scheduled.
struct Timeline<'a> {
    arrivals: Cow<'a, [FloodEvent]>,
    next_arrival: usize,
    faults: Cow<'a, [ShardFault]>,
    next_fault: usize,
    /// `(at, seq, event)`, earliest first.
    pending: BinaryHeap<Reverse<(Instant, u64, Scheduled)>>,
    scheduled: u64,
}

impl<'a> Timeline<'a> {
    fn new(arrivals: &'a [FloodEvent], faults: &'a [ShardFault]) -> Self {
        Timeline {
            arrivals: in_time_order(arrivals, |e| e.at),
            next_arrival: 0,
            faults: in_time_order(faults, |f| f.at),
            next_fault: 0,
            pending: BinaryHeap::new(),
            scheduled: 0,
        }
    }

    /// Schedules `event` at `at`, which must lie after the current
    /// instant; returns its sequence number.
    fn schedule(&mut self, at: Instant, event: Scheduled) -> u64 {
        let seq = self.scheduled;
        self.scheduled += 1;
        self.pending.push(Reverse((at, seq, event)));
        seq
    }

    /// The next step and its instant, or `None` once everything ran.
    fn pop(&mut self) -> Option<(Instant, Step)> {
        let fault = self.faults.get(self.next_fault).map(|f| f.at);
        let pending = self.pending.peek().map(|Reverse((at, ..))| *at);
        let first = |at: Instant, later: Option<Instant>| later.is_none_or(|t| at <= t);
        if let Some(&event) = self.arrivals.get(self.next_arrival) {
            if first(event.at, fault) && first(event.at, pending) {
                self.next_arrival += 1;
                let step = Step::Ingress {
                    source: event.source,
                    attempt: 0,
                };
                return Some((event.at, step));
            }
        }
        if let Some(&ShardFault { at, shard, kind }) = self.faults.get(self.next_fault) {
            if first(at, pending) {
                self.next_fault += 1;
                let step = match kind {
                    ShardFaultKind::Crash => Step::Crash { shard },
                    ShardFaultKind::Stall { duration } => Step::Stall {
                        shard,
                        until: at + duration,
                    },
                };
                return Some((at, step));
            }
        }
        let Reverse((at, seq, event)) = self.pending.pop()?;
        let step = match event {
            Scheduled::Drain { shard, lane } => Step::Drain { shard, lane, seq },
            Scheduled::Retry { source, attempt } => Step::Ingress { source, attempt },
        };
        Some((at, step))
    }
}

/// `items` in the order a time-ordered queue would pop them: by `at`,
/// equal instants in slice order. Sorted input, the normal case, is
/// borrowed after one pass.
fn in_time_order<T: Clone>(items: &[T], at: impl Fn(&T) -> Instant) -> Cow<'_, [T]> {
    if items.is_sorted_by_key(&at) {
        Cow::Borrowed(items)
    } else {
        let mut sorted = items.to_vec();
        sorted.sort_by_key(at);
        Cow::Owned(sorted)
    }
}

/// The sharded admission fleet. Construction validates the geometry and
/// freezes the source→shard routing table; [`AdmitFleet::run`] executes
/// one deterministic campaign arm over fresh shard state.
#[derive(Debug)]
pub struct AdmitFleet {
    config: FleetConfig,
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
    ///
    /// Either slice may come in any order: an unsorted one is processed as
    /// if stably sorted by `at`. At equal instants arrivals come before
    /// faults, so same-tick ingress beats the crash that would shed it,
    /// which is both deterministic and the adversarial-maximal ordering
    /// (the crash then kills it in flight instead).
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
        let mut shards: Vec<ShardState> = self
            .locals
            .iter()
            .map(|&n| ShardState::new(n as usize, lanes, &cfg.delta, cfg.supervision))
            .collect();
        let mut tenancy = cfg.tenancy.as_ref().map(TenancyRuntime::new);
        let mut timeline = Timeline::new(arrivals, faults);

        let mut admitted: Vec<Vec<Instant>> = vec![Vec::new(); cfg.sources as usize];
        let mut latency = LatencyHistogram::new(cfg.latency_bin_width, cfg.latency_range)
            .expect("validated latency geometry");
        let mut max_latency = Duration::ZERO;

        let mut end_of_run = Instant::ZERO;
        while let Some((now, step)) = timeline.pop() {
            match step {
                Step::Ingress { source, attempt } => {
                    end_of_run = now;
                    self.ingress(
                        tenancy.as_mut(),
                        &mut shards,
                        &mut timeline,
                        &mut admitted,
                        &mut hub,
                        now,
                        source,
                        attempt,
                    );
                }
                Step::Drain { shard, lane, seq } => {
                    let s = &mut shards[shard as usize];
                    // Void if a crash cleared the lane since it was
                    // scheduled: it completes nothing and is not an event
                    // of the run, so it does not move the run's end either.
                    let head = s.in_flight[lane as usize].pop_front_if(|f| f.seq == seq);
                    let Some(flight) = head else { continue };
                    end_of_run = now;
                    s.counters.completed += 1;
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
                Step::Crash { shard } => {
                    end_of_run = now;
                    let s = &mut shards[shard as usize];
                    let dropped = s.crash(now, cfg.failover, &cfg.delta, cfg.supervision);
                    for flight in dropped {
                        if let Some(rt) = tenancy.as_mut() {
                            let t = rt.tenant_of[flight.source as usize] as usize;
                            rt.tenants[t].counters.lost_in_flight += 1;
                        }
                        if let Some(h) = hub.as_deref_mut() {
                            h.record_shed(now, flight.source as usize);
                        }
                    }
                }
                Step::Stall { shard, until } => {
                    end_of_run = now;
                    let s = &mut shards[shard as usize];
                    s.counters.stalls += 1;
                    s.stalled_until = Some(s.stalled_until.map_or(until, |u| u.max(until)));
                    for busy in &mut s.busy_until {
                        *busy = (*busy).max(until);
                    }
                }
            }
        }

        let shard_counters: Vec<ShardCounters> = shards.iter().map(|s| s.counters).collect();
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

    /// One ingress attempt — an arrival (`attempt == 0`) or a retry-ladder
    /// re-attempt — through the admission decision: stall policy, lane
    /// capacity, watermark ladder, then the source's δ⁻ monitor on the
    /// arrival timestamp. A tenanted fleet puts its quarantine gate in
    /// front and the group and global budgets behind the monitor; a flat
    /// fleet (`tenancy: None`) serves one lane of `queue_capacity` and
    /// fails closed on a stall by arithmetic instead of the retry ladder.
    /// Every refusal is typed by the level that refused, and state is
    /// recorded in every level only after all of them pass, so a
    /// higher-level refusal leaves no phantom admission behind.
    #[allow(clippy::too_many_arguments)]
    fn ingress(
        &self,
        tenancy: Option<&mut TenancyRuntime>,
        shards: &mut [ShardState],
        timeline: &mut Timeline<'_>,
        admitted: &mut [Vec<Instant>],
        hub: &mut Option<&mut MetricsHub>,
        now: Instant,
        source: u32,
        attempt: u32,
    ) {
        let cfg = &self.config;
        let Some(&(shard_id, local)) = self.router.get(source as usize) else {
            return; // out-of-range source: not ours to admit
        };
        let s = &mut shards[shard_id as usize];
        if attempt == 0 {
            s.counters.scheduled += 1;
            if let Some(h) = hub.as_deref_mut() {
                h.record_raised(now, source as usize);
            }
        }
        // The tenant's brownout level picks its lane: a reserved lane per
        // tenant, or the shared best-effort lane at a quarter of a reserved
        // lane's depth once the tenant is demoted.
        let (tenant, level, lane, lane_cap) = match tenancy {
            None => (None, BrownoutLevel::Nominal, 0, cfg.queue_capacity),
            Some(rt) => {
                let t = rt.tenant_of[source as usize] as usize;
                let tn = &mut rt.tenants[t];
                if attempt == 0 {
                    tn.counters.scheduled += 1;
                }
                tn.brownout.roll(now);
                let level = tn.brownout.level();
                let (lane, cap) = if level >= BrownoutLevel::BestEffort {
                    (rt.best_effort_lane, (cfg.queue_capacity / 4).max(1))
                } else {
                    (t, cfg.queue_capacity)
                };
                (Some((t, tn, &mut rt.global)), level, lane, cap)
            }
        };
        enum Gate {
            RetryLater,
            Shed(ShedReason),
            Denied { violated_distance: usize },
            Cleared,
        }
        let gate = 'gate: {
            if let (Some((t, ..)), BrownoutLevel::Quarantined) = (&tenant, level) {
                s.counters.shed_quarantined += 1;
                let tenant = *t as u32;
                break 'gate Gate::Shed(ShedReason::TenantQuarantined { tenant });
            }
            if let Some(until) = s.stalled_until {
                if now >= until {
                    s.stalled_until = None;
                } else if tenant.is_some() {
                    // The event-driven ladder: come back one backoff later,
                    // up to the bounded attempt budget, and fail closed
                    // after it.
                    if attempt < cfg.max_retries {
                        s.counters.retries += 1;
                        break 'gate Gate::RetryLater;
                    }
                    s.counters.shed_stalled += 1;
                    break 'gate Gate::Shed(ShedReason::ShardStalled);
                } else {
                    // The flat fleet's arithmetic check: shed unless the
                    // bounded backoff retries would outlast the stall — we
                    // never admit against a monitor we cannot reach.
                    let wait = until - now;
                    let needed = wait.as_nanos().div_ceil(cfg.retry_backoff.as_nanos());
                    if needed > u64::from(cfg.max_retries) {
                        s.counters.shed_stalled += 1;
                        break 'gate Gate::Shed(ShedReason::ShardStalled);
                    }
                    s.counters.retries += needed;
                }
            }
            if s.in_flight[lane].len() >= lane_cap {
                s.counters.shed_queue_full += 1;
                let transition = s.trackers[local as usize].signal(HealthSignal::Overflow, now);
                record_health(hub, now, source, transition);
                break 'gate Gate::Shed(ShedReason::QueueFull);
            }
            // The shedding ladder: above the watermark of the arrival's own
            // lane, shed Probation/Quarantined sources before they reach
            // the monitor, so one tenant's backlog never demotes another's.
            let occupancy = s.in_flight[lane].len() as u64 * 1000;
            let watermark = u64::from(cfg.shed_watermark_permille) * lane_cap as u64;
            let state = s.trackers[local as usize].state();
            if occupancy >= watermark && state.shed_rank() >= 2 {
                s.counters.shed_demoted += 1;
                break 'gate Gate::Shed(ShedReason::Demoted { state });
            }
            // Level one: the source's own δ⁻ monitor on the hardware
            // arrival timestamp (the paper's IRQ-timestamp clock), so the
            // admitted stream is δ⁻-conformant in arrival time regardless
            // of queueing or retries. Check only: a refusal at a higher
            // level must leave no phantom trace entry.
            match s.monitors[local as usize].check(now) {
                Admission::Admitted => Gate::Cleared,
                Admission::Denied { violated_distance } => {
                    s.counters.denied += 1;
                    let transition = s.trackers[local as usize].signal(HealthSignal::Denied, now);
                    record_health(hub, now, source, transition);
                    Gate::Denied { violated_distance }
                }
            }
        };
        match gate {
            Gate::RetryLater => {
                if let Some((_, tn, _)) = tenant {
                    tn.counters.retries += 1;
                }
                timeline.schedule(
                    now + cfg.retry_backoff,
                    Scheduled::Retry {
                        source,
                        attempt: attempt + 1,
                    },
                );
            }
            Gate::Shed(reason) => {
                if let Some((_, tn, _)) = tenant {
                    let c = &mut tn.counters;
                    match reason {
                        ShedReason::QueueFull => c.shed_queue_full += 1,
                        ShedReason::ShardStalled => c.shed_stalled += 1,
                        ShedReason::Demoted { .. } => c.shed_demoted += 1,
                        ShedReason::TenantQuarantined { .. } => c.shed_quarantined += 1,
                        ShedReason::ShardCrash => {}
                    }
                    tn.brownout.record(true);
                }
                if let Some(h) = hub.as_deref_mut() {
                    h.record_shed(now, source as usize);
                }
            }
            Gate::Denied { violated_distance } => {
                if let Some((_, tn, _)) = tenant {
                    tn.counters.denied_source += 1;
                    tn.brownout.record(false);
                }
                if let Some(h) = hub.as_deref_mut() {
                    h.record_denied(now, source as usize, Some(violated_distance as u64));
                }
            }
            Gate::Cleared => {
                if let Some((_, tn, global)) = tenant {
                    // Level two: the tenant's group budget at its (possibly
                    // brownout-shrunk) effective limit. Level three: the
                    // global interference budget. With validated budget
                    // sums the global level can never refuse a tenant
                    // inside its group budget — it is the defense-in-depth
                    // backstop the oracle re-checks.
                    let effective = tn.brownout.effective_budget();
                    let refused = if !tn.group.admits(now, effective) {
                        Some(&mut tn.counters.denied_group)
                    } else if !global.admits(now, u64::MAX) {
                        Some(&mut tn.counters.denied_global)
                    } else {
                        None
                    };
                    if let Some(count) = refused {
                        *count += 1;
                        s.counters.denied += 1;
                        tn.brownout.record(false);
                        if let Some(h) = hub.as_deref_mut() {
                            h.record_denied(now, source as usize, None);
                        }
                        return;
                    }
                    tn.group.record(now);
                    global.record(now);
                    tn.counters.admitted += 1;
                    if attempt > 0 {
                        tn.counters.rescued += 1;
                    }
                    tn.brownout.record(false);
                }
                s.counters.admitted += 1;
                s.monitors[local as usize].record_admitted(now);
                let transition = s.trackers[local as usize].conformant(now);
                record_health(hub, now, source, transition);
                s.note_admitted(local, now, cfg.checkpoint_every);
                // Single-server lane: the admission completes after
                // everything already in service on its lane.
                let start = s.busy_until[lane].max(now);
                let completion = start + cfg.service_cost;
                s.busy_until[lane] = completion;
                let drain = Scheduled::Drain {
                    shard: shard_id,
                    lane: lane as u32,
                };
                let seq = timeline.schedule(completion, drain);
                s.in_flight[lane].push_back(InFlight {
                    seq,
                    source,
                    arrival: now,
                });
                admitted[source as usize].push(now);
                if let Some(h) = hub.as_deref_mut() {
                    h.record_admitted(now, source as usize);
                }
            }
        }
    }
}

/// Forwards a source's health transition, if there was one, to the hub.
fn record_health(
    hub: &mut Option<&mut MetricsHub>,
    now: Instant,
    source: u32,
    transition: Option<HealthTransition>,
) {
    if let (Some(tr), Some(h)) = (transition, hub.as_deref_mut()) {
        h.record_health(now, source as usize, tr.from.slug(), tr.to.slug());
    }
}

/// Per-tenant live state inside one fleet run.
#[derive(Debug)]
struct TenantRt {
    /// The group budget, checked at the brownout controller's effective
    /// limit.
    group: WindowBudget,
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
}

impl TenancyRuntime {
    fn new(tc: &TenantConfig) -> Self {
        let tenants = tc
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| TenantRt {
                group: WindowBudget::new(tc.window, spec.budget),
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
        }
    }

    /// Assembles the per-tenant ledgers (attributing remaining in-flight
    /// work through the source → tenant table) and pushes the per-tenant
    /// gauges into the hub.
    fn finish(
        mut self,
        shards: &[ShardState],
        end: Instant,
        hub: Option<&mut MetricsHub>,
    ) -> (Vec<TenantLedger>, Vec<u32>) {
        let mut in_flight = vec![0u64; self.tenants.len()];
        for lane in shards.iter().flat_map(|s| &s.in_flight) {
            for flight in lane {
                in_flight[self.tenant_of[flight.source as usize] as usize] += 1;
            }
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
                headroom_at_end: rt.group.max() - rt.group.occupancy(end),
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
    /// byte-identical across shard counts.
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
