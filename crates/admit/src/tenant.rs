//! Hierarchical per-tenant δ⁻ isolation: group budgets, the global
//! interference budget, and the adaptive brownout controller.
//!
//! Every source belongs to exactly one tenant. An arrival is admitted only
//! if three levels pass, in order: the source's own δ⁻ monitor, the
//! tenant's *group budget* (a [`WindowBudget`] enforcing "at most B
//! admissions in any window W" over the tenant's merged stream, at a limit
//! brownout may shrink), and the fleet's *global budget* (a
//! [`WindowBudget`] over the union of all tenants, sized from the
//! Eq. 13–16 interference bound). Each refusal is typed by the level that
//! refused; nothing is silently clamped or silently admitted.
//!
//! Because construction rejects tenant budgets whose sum exceeds the
//! global budget, the global level is a pure backstop: a tenant inside its
//! own group budget can never be refused globally (in any window each
//! tenant contributes at most its group budget, so the union stays under
//! the sum). That is the root of the isolation theorem the fleet tests
//! pin — overload in one tenant cannot move another tenant's admitted
//! stream by even one byte.
//!
//! The brownout controller is deterministic and seed-driven — it consumes
//! only the fleet's virtual clock and the tenant's *own* outcomes, never a
//! wall clock — and degrades an overloaded tenant through a ladder:
//! shrink the group budget, demote to best-effort service slots, and
//! finally quarantine the tenant, with hysteresis-guarded recovery whose
//! hold time is jittered from the seed so fleets don't un-brown in
//! lockstep.

use std::collections::VecDeque;
use std::fmt;

use rthv_monitor::DeltaFunction;
use rthv_time::{Duration, Instant};

/// Largest accepted per-tenant group budget (admissions per window). A
/// group's [`WindowBudget`] keeps one entry per admission inside its
/// window, so an unbounded budget would be an unbounded deque — reject it
/// as a typed overflow instead of clamping.
pub const MAX_GROUP_BUDGET: u64 = 4096;

/// One tenant: how many of the fleet's dense source ids it owns (tenants
/// partition `0..sources` contiguously, in declaration order) and its
/// group budget in admissions per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Number of consecutive source ids owned by this tenant.
    pub sources: u32,
    /// Group budget: at most this many admissions in any sliding window.
    pub budget: u64,
}

/// Why a tenant configuration was rejected. Mirrors the fleet's
/// no-silent-fallback rule: an invalid budget is a typed error at
/// construction, never a clamp at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantBudgetError {
    /// The tenancy declares no tenants at all.
    NoTenants,
    /// The budget window is zero — every budget would be vacuous.
    ZeroWindow,
    /// The global budget is zero — nothing could ever be admitted.
    ZeroGlobal,
    /// A tenant owns zero sources.
    ZeroSources {
        /// The offending tenant index.
        tenant: usize,
    },
    /// A tenant's group budget is zero — it could never admit.
    ZeroBudget {
        /// The offending tenant index.
        tenant: usize,
    },
    /// A tenant's group budget exceeds [`MAX_GROUP_BUDGET`].
    BudgetOverflow {
        /// The offending tenant index.
        tenant: usize,
        /// The rejected budget.
        budget: u64,
    },
    /// The sum of all group budgets overflows `u64`.
    SumOverflow,
    /// The sum of all group budgets exceeds the global budget, which would
    /// let tenants interfere through the global level.
    SumExceedsGlobal {
        /// Sum of the group budgets.
        sum: u64,
        /// The global budget they must fit under.
        global: u64,
    },
    /// The tenants' source counts do not partition the fleet's id space.
    SourceSplit {
        /// Sum of per-tenant source counts.
        assigned: u32,
        /// The fleet's source count.
        sources: u32,
    },
}

impl fmt::Display for TenantBudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantBudgetError::NoTenants => f.write_str("tenancy declares no tenants"),
            TenantBudgetError::ZeroWindow => f.write_str("tenant budget window must be positive"),
            TenantBudgetError::ZeroGlobal => f.write_str("global budget must be positive"),
            TenantBudgetError::ZeroSources { tenant } => {
                write!(f, "tenant {tenant} owns zero sources")
            }
            TenantBudgetError::ZeroBudget { tenant } => {
                write!(f, "tenant {tenant} has a zero group budget")
            }
            TenantBudgetError::BudgetOverflow { tenant, budget } => write!(
                f,
                "tenant {tenant} group budget {budget} exceeds the maximum {MAX_GROUP_BUDGET}"
            ),
            TenantBudgetError::SumOverflow => f.write_str("sum of group budgets overflows u64"),
            TenantBudgetError::SumExceedsGlobal { sum, global } => write!(
                f,
                "sum of group budgets {sum} exceeds the global budget {global}"
            ),
            TenantBudgetError::SourceSplit { assigned, sources } => write!(
                f,
                "tenant source counts sum to {assigned} but the fleet has {sources} sources"
            ),
        }
    }
}

impl std::error::Error for TenantBudgetError {}

/// The two-level budget hierarchy plus overload policy. Plugged into
/// `FleetConfig::tenancy`; `None` keeps the flat single-level fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Sliding-window width shared by every group budget, the global
    /// budget and the brownout controller's tumbling windows.
    pub window: Duration,
    /// Global budget: at most this many admissions fleet-wide in any
    /// window. Derive it from the Eq. 13–16 bound with
    /// [`global_budget_for_bound`]; validation requires it to cover the
    /// sum of the group budgets.
    pub global_budget: u64,
    /// The tenants, partitioning `0..sources` contiguously in order.
    pub tenants: Vec<TenantSpec>,
    /// Brownout (adaptive overload) policy shared by all tenants.
    pub brownout: BrownoutPolicy,
    /// Seed for the brownout hold-time jitter — the only randomness in the
    /// hierarchy, and it is pure: same seed, same run.
    pub seed: u64,
}

impl TenantConfig {
    /// Validates the hierarchy against a fleet of `sources` sources.
    ///
    /// # Errors
    ///
    /// One typed [`TenantBudgetError`] per rejection class — zero and
    /// overflowing budgets, budget sums that escape the global budget, and
    /// source splits that do not partition the id space.
    pub fn validate(&self, sources: u32) -> Result<(), TenantBudgetError> {
        if self.tenants.is_empty() {
            return Err(TenantBudgetError::NoTenants);
        }
        if self.window.is_zero() {
            return Err(TenantBudgetError::ZeroWindow);
        }
        if self.global_budget == 0 {
            return Err(TenantBudgetError::ZeroGlobal);
        }
        let mut sum: u64 = 0;
        let mut assigned: u32 = 0;
        for (tenant, spec) in self.tenants.iter().enumerate() {
            if spec.sources == 0 {
                return Err(TenantBudgetError::ZeroSources { tenant });
            }
            if spec.budget == 0 {
                return Err(TenantBudgetError::ZeroBudget { tenant });
            }
            if spec.budget > MAX_GROUP_BUDGET {
                return Err(TenantBudgetError::BudgetOverflow {
                    tenant,
                    budget: spec.budget,
                });
            }
            sum = sum
                .checked_add(spec.budget)
                .ok_or(TenantBudgetError::SumOverflow)?;
            assigned = assigned.saturating_add(spec.sources);
        }
        if sum > self.global_budget {
            return Err(TenantBudgetError::SumExceedsGlobal {
                sum,
                global: self.global_budget,
            });
        }
        if assigned != sources {
            return Err(TenantBudgetError::SourceSplit { assigned, sources });
        }
        Ok(())
    }

    /// Expands the contiguous split into a `source → tenant` table.
    #[must_use]
    pub fn tenant_of(&self) -> Vec<u32> {
        let mut table = Vec::new();
        for (tenant, spec) in self.tenants.iter().enumerate() {
            table.extend((0..spec.sources).map(|_| tenant as u32));
        }
        table
    }

    /// Source-id range owned by `tenant` (contiguous by construction).
    #[must_use]
    pub fn source_range(&self, tenant: usize) -> std::ops::Range<u32> {
        let first: u32 = self.tenants[..tenant].iter().map(|s| s.sources).sum();
        first..first + self.tenants[tenant].sources
    }
}

/// The largest admission count per window whose aggregate service demand
/// stays inside an interference budget of `bound` (the per-victim Eq.
/// 13–16 loss bound): `⌊bound / effective_cost⌋` admissions, each costing
/// `effective_cost`. Use it to size [`TenantConfig::global_budget`].
///
/// # Panics
///
/// Panics if `effective_cost` is zero.
#[must_use]
pub fn global_budget_for_bound(bound: Duration, effective_cost: Duration) -> u64 {
    assert!(
        !effective_cost.is_zero(),
        "effective cost must be positive to size a budget"
    );
    bound.as_nanos() / effective_cost.as_nanos()
}

/// The aggregate δ⁻ of a group budget: `budget − 1` zero entries followed
/// by the window — exactly "any `budget + 1` consecutive admissions span
/// at least `window`", i.e. at most `budget` admissions in any sliding
/// window. Zero entries are valid δ⁻ entries (the superadditive closure
/// keeps them), so the paper's [`ActivationMonitor`] over this δ⁻ decides
/// exactly as a [`WindowBudget`] of `budget` does at its nominal limit; a
/// property test holds the group budget to that monitor.
///
/// [`ActivationMonitor`]: rthv_monitor::ActivationMonitor
///
/// # Panics
///
/// Panics if `budget` is zero or exceeds [`MAX_GROUP_BUDGET`], or if
/// `window` is zero — [`TenantConfig::validate`] rejects those first.
#[must_use]
pub fn group_delta(budget: u64, window: Duration) -> DeltaFunction {
    assert!(
        budget > 0 && budget <= MAX_GROUP_BUDGET,
        "group budget out of range"
    );
    assert!(!window.is_zero(), "group window must be positive");
    let mut entries = vec![Duration::ZERO; (budget - 1) as usize];
    entries.push(window);
    DeltaFunction::new(entries).expect("zero-padded window budget is a valid δ⁻")
}

/// A sliding-window admission counter: at most `max` events in any window
/// of `width`. Each tenant's group budget is one, checked at the
/// brownout-shrunk limit, and so is the fleet's global budget. Unlike a
/// monitor rebuild it keeps its history across brownout shrinks, so a
/// recovered tenant can never have over-admitted against its nominal
/// budget.
#[derive(Debug, Clone)]
pub struct WindowBudget {
    width: Duration,
    max: u64,
    recent: VecDeque<Instant>,
}

impl WindowBudget {
    /// A budget of `max` events per sliding `width`.
    #[must_use]
    pub fn new(width: Duration, max: u64) -> Self {
        WindowBudget {
            width,
            max,
            recent: VecDeque::new(),
        }
    }

    /// Drops events that left the window ending at `now`.
    fn expire(&mut self, now: Instant) {
        while let Some(&front) = self.recent.front() {
            if front + self.width <= now {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Would one more event at `now` stay within `limit` (≤ the configured
    /// max; brownout passes a shrunk limit)? Pure in outcome, but expires
    /// stale entries as a side effect.
    pub fn admits(&mut self, now: Instant, limit: u64) -> bool {
        self.expire(now);
        (self.recent.len() as u64) < limit.min(self.max)
    }

    /// Records an admission at `now`.
    pub fn record(&mut self, now: Instant) {
        self.recent.push_back(now);
    }

    /// Events currently inside the window ending at `now`.
    pub fn occupancy(&mut self, now: Instant) -> u64 {
        self.expire(now);
        self.recent.len() as u64
    }

    /// The configured maximum.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// Where a tenant sits on the brownout ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// Full group budget, reserved service lane.
    Nominal,
    /// Group budget shrunk to `shrink_permille` of nominal.
    Shrunk,
    /// Shrunk budget *and* demoted to the shared best-effort lane.
    BestEffort,
    /// Every arrival is shed (typed) until offered load fits the budget.
    Quarantined,
}

impl BrownoutLevel {
    /// Stable machine-readable label.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            BrownoutLevel::Nominal => "nominal",
            BrownoutLevel::Shrunk => "shrunk",
            BrownoutLevel::BestEffort => "best-effort",
            BrownoutLevel::Quarantined => "quarantined",
        }
    }

    /// Ladder position, 0 (nominal) to 3 (quarantined).
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            BrownoutLevel::Nominal => 0,
            BrownoutLevel::Shrunk => 1,
            BrownoutLevel::BestEffort => 2,
            BrownoutLevel::Quarantined => 3,
        }
    }

    fn escalated(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::Nominal => BrownoutLevel::Shrunk,
            BrownoutLevel::Shrunk => BrownoutLevel::BestEffort,
            BrownoutLevel::BestEffort | BrownoutLevel::Quarantined => BrownoutLevel::Quarantined,
        }
    }

    fn recovered(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::Quarantined => BrownoutLevel::BestEffort,
            BrownoutLevel::BestEffort => BrownoutLevel::Shrunk,
            BrownoutLevel::Shrunk | BrownoutLevel::Nominal => BrownoutLevel::Nominal,
        }
    }
}

/// Brownout policy knobs, shared by every tenant's controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPolicy {
    /// Escalate when a window's shed rate reaches this (‰ of scheduled).
    pub trip_permille: u32,
    /// ... but only when the window saw at least this many arrivals — a
    /// single shed in a quiet window is noise, not overload.
    pub min_scheduled: u64,
    /// Shrunk-level group budget, as ‰ of nominal (floor 1 admission).
    pub shrink_permille: u32,
    /// Base number of consecutive clean windows before recovering one
    /// ladder step (the hysteresis guard).
    pub hold_windows: u32,
    /// Seed-jittered extra hold windows, drawn uniformly from
    /// `0..=hold_jitter` per (tenant, episode) — staggers recovery so a
    /// fleet of browned-out tenants does not un-brown in lockstep.
    pub hold_jitter: u32,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            trip_permille: 250,
            min_scheduled: 8,
            shrink_permille: 500,
            hold_windows: 2,
            hold_jitter: 2,
        }
    }
}

/// Per-tenant brownout state machine. Deterministic and wall-clock-free:
/// it advances on the fleet's virtual event clock in tumbling windows
/// anchored at the epoch, evaluates each finished window exactly once, and
/// draws its recovery jitter from a splitmix of `(seed, tenant, episode)`.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    policy: BrownoutPolicy,
    window: Duration,
    nominal_budget: u64,
    seed: u64,
    tenant: u32,
    level: BrownoutLevel,
    /// Index of the tumbling window currently accumulating.
    current: u64,
    scheduled: u64,
    shed: u64,
    clean_streak: u32,
    hold_target: u32,
    /// Bumped on every level change; salts the next jitter draw.
    episode: u64,
    escalations: u64,
    recoveries: u64,
}

impl BrownoutController {
    /// A controller for `tenant` with the given nominal group budget.
    #[must_use]
    pub fn new(
        policy: BrownoutPolicy,
        window: Duration,
        nominal_budget: u64,
        seed: u64,
        tenant: u32,
    ) -> Self {
        let mut ctrl = BrownoutController {
            policy,
            window,
            nominal_budget,
            seed,
            tenant,
            level: BrownoutLevel::Nominal,
            current: 0,
            scheduled: 0,
            shed: 0,
            clean_streak: 0,
            hold_target: 0,
            episode: 0,
            escalations: 0,
            recoveries: 0,
        };
        ctrl.hold_target = ctrl.draw_hold();
        ctrl
    }

    fn draw_hold(&self) -> u32 {
        let span = u64::from(self.policy.hold_jitter) + 1;
        let mut z = self
            .seed
            .wrapping_add(u64::from(self.tenant).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(self.episode.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        self.policy.hold_windows + (z % span) as u32
    }

    /// Advances the tumbling windows up to `now`, evaluating every window
    /// that finished before it. Windows with no recorded outcome are
    /// clean by definition, so long quiet gaps are applied in bulk rather
    /// than iterated.
    pub fn roll(&mut self, now: Instant) {
        let idx = now.as_nanos() / self.window.as_nanos();
        if idx <= self.current {
            return;
        }
        // Close the window that actually accumulated outcomes.
        self.finish_window();
        let mut empty = idx - self.current - 1;
        self.current = idx;
        // Every remaining elapsed window is empty: clean, possibly walking
        // the tenant back down the ladder a step per hold interval.
        while empty > 0 && self.level != BrownoutLevel::Nominal {
            let need = u64::from(self.hold_target.saturating_sub(self.clean_streak).max(1));
            if empty >= need {
                empty -= need;
                self.recover();
            } else {
                self.clean_streak += empty as u32;
                empty = 0;
            }
        }
    }

    /// Records the typed outcome of one of this tenant's arrivals into the
    /// current window. `roll` must have been called with the arrival's
    /// timestamp first.
    pub fn record(&mut self, was_shed: bool) {
        self.scheduled += 1;
        if was_shed {
            self.shed += 1;
        }
    }

    fn escalate(&mut self) {
        self.level = self.level.escalated();
        self.escalations += 1;
        self.clean_streak = 0;
        self.episode += 1;
        self.hold_target = self.draw_hold();
    }

    fn recover(&mut self) {
        self.level = self.level.recovered();
        self.recoveries += 1;
        self.clean_streak = 0;
        self.episode += 1;
        self.hold_target = self.draw_hold();
    }

    fn finish_window(&mut self) {
        let scheduled = self.scheduled;
        let shed = self.shed;
        self.scheduled = 0;
        self.shed = 0;
        // A quarantined tenant sheds everything, so its shed rate says
        // nothing; its recovery criterion is offered load fitting the
        // nominal budget again.
        let clean = if self.level == BrownoutLevel::Quarantined {
            scheduled <= self.nominal_budget
        } else {
            scheduled == 0 || shed * 1000 / scheduled < u64::from(self.policy.trip_permille)
        };
        let overloaded = scheduled >= self.policy.min_scheduled
            && scheduled > 0
            && shed * 1000 / scheduled >= u64::from(self.policy.trip_permille);
        if self.level != BrownoutLevel::Quarantined && overloaded {
            self.escalate();
        } else if clean {
            self.clean_streak += 1;
            if self.clean_streak >= self.hold_target && self.level != BrownoutLevel::Nominal {
                self.recover();
            }
        } else {
            self.clean_streak = 0;
        }
    }

    /// The tenant's current ladder position.
    #[must_use]
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// The group-budget limit the current level allows: nominal when
    /// healthy, `shrink_permille` of nominal (floor 1) when degraded, 0
    /// when quarantined.
    #[must_use]
    pub fn effective_budget(&self) -> u64 {
        match self.level {
            BrownoutLevel::Nominal => self.nominal_budget,
            BrownoutLevel::Shrunk | BrownoutLevel::BestEffort => {
                (self.nominal_budget * u64::from(self.policy.shrink_permille) / 1000).max(1)
            }
            BrownoutLevel::Quarantined => 0,
        }
    }

    /// Ladder escalations so far.
    #[must_use]
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Ladder recoveries so far.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

/// Integer-only per-tenant ledger. The fleet oracle re-checks both
/// conservation identities *per tenant* — a mismatch names the tenant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantCounters {
    /// Arrivals from this tenant's sources.
    pub scheduled: u64,
    /// Admitted through all three levels.
    pub admitted: u64,
    /// Denied by the source's own δ⁻ monitor.
    pub denied_source: u64,
    /// Denied by the tenant's group budget.
    pub denied_group: u64,
    /// Denied by the global budget (provably zero when budget sums are
    /// validated; counted anyway — the oracle trusts ledgers, not proofs).
    pub denied_global: u64,
    /// Shed: tenant's service lane at capacity.
    pub shed_queue_full: u64,
    /// Shed: stalled shard past the retry budget.
    pub shed_stalled: u64,
    /// Shed: watermark ladder demotion.
    pub shed_demoted: u64,
    /// Shed: tenant quarantined by the brownout controller.
    pub shed_quarantined: u64,
    /// Admitted but lost in flight to a shard crash.
    pub lost_in_flight: u64,
    /// Admitted and service-completed.
    pub completed: u64,
    /// Retry-ladder attempts spent by this tenant's arrivals.
    pub retries: u64,
    /// Arrivals the retry ladder rescued into an admission check after a
    /// stall cleared.
    pub rescued: u64,
}

impl TenantCounters {
    /// Total typed sheds.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_stalled + self.shed_demoted + self.shed_quarantined
    }

    /// Total denials across the three levels.
    #[must_use]
    pub fn denied_total(&self) -> u64 {
        self.denied_source + self.denied_group + self.denied_global
    }

    /// Typed sheds per 1000 scheduled arrivals (0 when nothing arrived).
    #[must_use]
    pub fn shed_permille(&self) -> u64 {
        if self.scheduled == 0 {
            return 0;
        }
        self.shed_total() * 1000 / self.scheduled
    }
}

/// What one fleet run leaves behind per tenant, enough for the per-tenant
/// oracle and the storm report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLedger {
    /// The tenant's ledger.
    pub counters: TenantCounters,
    /// This tenant's admissions still in service at the horizon.
    pub in_flight_at_end: u64,
    /// Ladder position when the run ended.
    pub final_level: BrownoutLevel,
    /// Brownout escalations over the run.
    pub escalations: u64,
    /// Brownout recoveries over the run.
    pub recoveries: u64,
    /// Nominal group-budget headroom left in the last window.
    pub headroom_at_end: u64,
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rthv_monitor::{ActivationMonitor, Admission};

    use super::*;

    const W: Duration = Duration::from_millis(10);

    fn at(ns: u64) -> Instant {
        Instant::from_nanos(ns)
    }

    #[test]
    fn window_budget_enforces_the_sliding_count() {
        let mut wb = WindowBudget::new(W, 2);
        assert!(wb.admits(at(0), 2));
        wb.record(at(0));
        assert!(wb.admits(at(1), 2));
        wb.record(at(1));
        assert!(!wb.admits(at(2), 2), "third event inside the window");
        // Exactly one window later the first event expires.
        assert!(wb.admits(at(W.as_nanos()), 2));
    }

    proptest! {
        /// A group budget is one `WindowBudget`, and the paper's monitor is
        /// its oracle. At an effective limit that shrinks and recovers
        /// between decisions, as brownout's does, every window decision
        /// equals the pair of the window at that limit and an
        /// `ActivationMonitor` over `group_delta(nominal)`; the monitor
        /// alone agrees with the window's nominal count.
        #[test]
        fn group_pair_agrees_with_the_window_budget(
            nominal in prop_oneof![1u64..=200, Just(120u64), Just(160u64)],
            decisions in prop::collection::vec(
                (0..=2 * W.as_nanos(), 0u32..=21, 0u64..=1500),
                1..=800,
            ),
        ) {
            let mut window = WindowBudget::new(W, nominal);
            let mut aggregate = ActivationMonitor::new(group_delta(nominal, W));
            let mut t = 0u64;
            // Shift 21 lands exactly one window after the oldest admission
            // the window holds, the instant it expires. Any other shift
            // scales a gap of up to 2W down by up to 2^20, so dense
            // stretches fill even a 200-admission window. The limit is
            // shrunk to `permille` of nominal (floor 1), or nominal from
            // 1000 on.
            for (gap, shift, permille) in decisions {
                t = match window.recent.front() {
                    Some(&oldest) if shift == 21 => (oldest + W).as_nanos(),
                    _ => t + (gap >> shift.min(20)),
                };
                let now = at(t);
                let effective = (nominal * permille.min(1000) / 1000).max(1);
                let monitor_ok = matches!(aggregate.check(now), Admission::Admitted);
                prop_assert_eq!(monitor_ok, window.occupancy(now) < nominal, "at {}", t);
                let admitted = window.admits(now, effective);
                prop_assert_eq!(admitted, admitted && monitor_ok, "at {}", t);
                if admitted {
                    window.record(now);
                    aggregate.record_admitted(now);
                }
            }
        }
    }

    #[test]
    fn group_delta_is_the_window_budget_in_delta_form() {
        let d = group_delta(4, W);
        assert_eq!(d.len(), 4);
        assert_eq!(d.dmin(), Duration::ZERO);
        assert_eq!(d.entries()[3], W);
    }

    #[test]
    fn brownout_escalates_on_shed_rate_and_recovers_with_hysteresis() {
        let policy = BrownoutPolicy {
            hold_jitter: 0,
            ..BrownoutPolicy::default()
        };
        let mut ctrl = BrownoutController::new(policy, W, 8, 0xFEED, 0);
        assert_eq!(ctrl.level(), BrownoutLevel::Nominal);
        // A window with 10 arrivals, 5 shed: 500 ‰ ≥ 250 ‰ trip.
        ctrl.roll(at(1));
        for i in 0..10 {
            ctrl.record(i < 5);
        }
        ctrl.roll(at(W.as_nanos() + 1));
        assert_eq!(ctrl.level(), BrownoutLevel::Shrunk);
        assert_eq!(ctrl.effective_budget(), 4);
        // Two more dirty windows walk it to quarantine.
        for k in 1..3u64 {
            for i in 0..10 {
                ctrl.record(i < 5);
            }
            ctrl.roll(at((k + 1) * W.as_nanos() + 1));
        }
        assert_eq!(ctrl.level(), BrownoutLevel::Quarantined);
        assert_eq!(ctrl.effective_budget(), 0);
        assert_eq!(ctrl.escalations(), 3);
        // Quiet (empty) windows are clean; with hold_windows = 2 the
        // tenant steps back one level per 2 windows, needing 6 to reach
        // nominal.
        ctrl.roll(at(9 * W.as_nanos() + 1));
        assert_eq!(ctrl.level(), BrownoutLevel::Nominal);
        assert_eq!(ctrl.recoveries(), 3);
    }

    #[test]
    fn brownout_needs_minimum_traffic_to_trip() {
        let mut ctrl = BrownoutController::new(BrownoutPolicy::default(), W, 8, 1, 0);
        ctrl.roll(at(1));
        // 4 arrivals all shed — 1000 ‰, but below min_scheduled = 8.
        for _ in 0..4 {
            ctrl.record(true);
        }
        ctrl.roll(at(W.as_nanos() + 1));
        assert_eq!(ctrl.level(), BrownoutLevel::Nominal, "noise tripped it");
    }

    #[test]
    fn brownout_jitter_is_a_pure_seed_function() {
        let policy = BrownoutPolicy::default();
        let a = BrownoutController::new(policy, W, 8, 42, 3);
        let b = BrownoutController::new(policy, W, 8, 42, 3);
        let c = BrownoutController::new(policy, W, 8, 43, 3);
        assert_eq!(a.hold_target, b.hold_target);
        // Different seeds *may* draw the same jitter; the distinguishing
        // property is determinism, which the equality above pins. Still,
        // the draw must depend on the seed somewhere in a small scan.
        let mut differs = c.hold_target != a.hold_target;
        for tenant in 0..16 {
            let x = BrownoutController::new(policy, W, 8, 42, tenant);
            let y = BrownoutController::new(policy, W, 8, 43, tenant);
            differs |= x.hold_target != y.hold_target;
        }
        assert!(differs, "jitter ignores its seed");
    }

    #[test]
    fn quarantine_recovers_only_when_offered_load_fits_the_budget() {
        let policy = BrownoutPolicy {
            hold_windows: 1,
            hold_jitter: 0,
            ..BrownoutPolicy::default()
        };
        let mut ctrl = BrownoutController::new(policy, W, 4, 7, 0);
        // Trip straight to quarantine with three dirty windows.
        for k in 0..3u64 {
            ctrl.roll(at(k * W.as_nanos() + 1));
            for _ in 0..10 {
                ctrl.record(true);
            }
        }
        ctrl.roll(at(3 * W.as_nanos() + 1));
        assert_eq!(ctrl.level(), BrownoutLevel::Quarantined);
        // Offered load still above the budget of 4: stays quarantined
        // even though (being quarantined) everything is shed.
        for _ in 0..10 {
            ctrl.record(true);
        }
        ctrl.roll(at(4 * W.as_nanos() + 1));
        assert_eq!(ctrl.level(), BrownoutLevel::Quarantined);
        // Offered load fits the budget: one clean window recovers a step.
        for _ in 0..3 {
            ctrl.record(true);
        }
        ctrl.roll(at(5 * W.as_nanos() + 1));
        assert_eq!(ctrl.level(), BrownoutLevel::BestEffort);
    }

    #[test]
    fn even_split_partitions_and_validates() {
        let spec = |sources| TenantSpec { sources, budget: 8 };
        let tc = TenantConfig {
            window: W,
            global_budget: 24,
            tenants: vec![spec(4), spec(3), spec(3)],
            brownout: BrownoutPolicy::default(),
            seed: 0xB10C_A11E,
        };
        tc.validate(10).expect("the split validates");
        assert_eq!(tc.tenant_of(), vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(tc.source_range(1), 4..7);
    }
}
