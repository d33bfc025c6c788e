//! Hypervisor configuration: cost model, partitions, IRQ sources.

use std::fmt;

use serde::{Deserialize, Serialize};

use rthv_monitor::{DeltaFunction, ShaperConfig};
use rthv_sim::EngineKind;
use rthv_time::{ClockModel, Duration};

use crate::{IrqSourceId, PartitionId, SupervisionPolicy};

/// Worst-case execution times of the hypervisor primitives, in virtual time.
///
/// These are the five constants the paper's analysis is parameterized over
/// (Sections 4–6). [`CostModel::paper_arm926ejs`] instantiates them from the
/// cycle counts reported in Section 6.2 for the 200 MHz ARM926ej-s.
///
/// # Examples
///
/// ```
/// use rthv_hypervisor::CostModel;
/// use rthv_time::Duration;
///
/// let costs = CostModel::paper_arm926ejs();
/// assert_eq!(costs.monitor_check, Duration::from_nanos(640)); // 128 cycles
/// assert_eq!(costs.context_switch, Duration::from_micros(50)); // ~10k cycles
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// `C_TH`: top handler (clear IRQ flags, push queue event).
    pub top_handler: Duration,
    /// `C_Mon`: the monitoring function called for foreign-slot IRQs
    /// (Eq. 15 adds this to the top handler when monitoring is enabled).
    pub monitor_check: Duration,
    /// `C_sched`: scheduler manipulation for an interposed bottom handler.
    pub sched_manip: Duration,
    /// `C_ctx`: one partition context switch (cache/TLB invalidation plus
    /// writeback on the paper's ARMv5 platform).
    pub context_switch: Duration,
}

impl CostModel {
    /// Cost model of the paper's evaluation platform (Section 6.2):
    /// ARM926ej-s @ 200 MHz, `gcc -O1`.
    ///
    /// * monitor check: 128 instructions → 640 ns,
    /// * scheduler manipulation: 877 instructions → 4385 ns,
    /// * context switch: ~5000 instructions for cache/TLB invalidation plus
    ///   ~5000 cycles of cache writeback → 50 µs,
    /// * top handler: the paper only says "minimal"; 400 cycles → 2 µs.
    #[must_use]
    pub fn paper_arm926ejs() -> Self {
        let clock = ClockModel::ARM926EJS_200MHZ;
        CostModel {
            top_handler: clock.cycles_to_duration(400),
            monitor_check: clock.cycles_to_duration(128),
            sched_manip: clock.cycles_to_duration(877),
            context_switch: clock.cycles_to_duration(10_000),
        }
    }

    /// A zero-overhead cost model, useful in unit tests that want pure
    /// queueing behaviour.
    #[must_use]
    pub fn zero() -> Self {
        CostModel {
            top_handler: Duration::ZERO,
            monitor_check: Duration::ZERO,
            sched_manip: Duration::ZERO,
            context_switch: Duration::ZERO,
        }
    }

    /// `C'_BH` (Eq. 13): the effective cost one interposed bottom handler of
    /// WCET `bottom_cost` imposes on the interrupted partition, including
    /// scheduler manipulation and the two extra context switches.
    #[must_use]
    pub fn effective_bottom_cost(&self, bottom_cost: Duration) -> Duration {
        bottom_cost + self.sched_manip + self.context_switch * 2
    }

    /// `C'_TH` (Eq. 15): the top handler cost when the monitoring function
    /// runs (i.e. for IRQs arriving in foreign slots under interposed mode).
    #[must_use]
    pub fn monitored_top_cost(&self) -> Duration {
        self.top_handler + self.monitor_check
    }
}

impl Default for CostModel {
    /// Defaults to [`CostModel::paper_arm926ejs`].
    fn default() -> Self {
        CostModel::paper_arm926ejs()
    }
}

/// Static description of one TDMA partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Human-readable name used in reports.
    pub name: String,
    /// TDMA slot length `T_i`.
    pub slot: Duration,
    /// Bound on the partition's IRQ event queue. `None` models the paper's
    /// unbounded emulated queue; `Some(n)` bounds it to `n` pending bottom
    /// handlers, with overflow resolved per
    /// [`PolicyOptions::overflow`](PolicyOptions) and counted in
    /// [`Counters`](crate::Counters) — a storm then degrades into counted
    /// losses instead of unbounded memory growth.
    pub queue_capacity: Option<usize>,
}

impl PartitionSpec {
    /// Creates a partition spec with an unbounded IRQ queue.
    #[must_use]
    pub fn new(name: impl Into<String>, slot: Duration) -> Self {
        PartitionSpec {
            name: name.into(),
            slot,
            queue_capacity: None,
        }
    }

    /// Bounds the partition's IRQ event queue (builder style).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }
}

/// How a source's pending state behaves when a new IRQ fires before the
/// previous one was processed.
///
/// The paper's Section 4 tolerates top handlers in foreign slots precisely
/// because "in most cases IRQ flags are not counting" — a masked or
/// unserviced source *loses* repeat events. [`IrqFlagSemantics::Counting`]
/// models the emulated event queue (every IRQ eventually gets a bottom
/// handler); [`IrqFlagSemantics::Flag`] models raw hardware flags, where an
/// IRQ arriving while an unserviced request of the same source is already
/// queued is coalesced into it (and thus never separately processed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IrqFlagSemantics {
    /// Every arrival is queued individually (the hypervisor's emulated IRQ
    /// queue; the paper's evaluation setup).
    #[default]
    Counting,
    /// A non-counting hardware flag: arrivals coalesce into an already
    /// pending, not-yet-started request of the same source.
    Flag,
}

/// Static description of one interrupt source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IrqSourceSpec {
    /// Human-readable name used in reports.
    pub name: String,
    /// The partition whose bottom handler processes this IRQ.
    pub subscriber: PartitionId,
    /// `C_BH`: WCET of the bottom handler, also the enforced budget of an
    /// interposed execution window.
    pub bottom_cost: Duration,
    /// Admission shaper for interposing this source's bottom handler in
    /// foreign slots: the paper's δ⁻ monitor or a token-bucket throttler
    /// (related-work comparison). `None` means the source is never
    /// interposed (it is always delayed outside its own slot).
    pub monitor: Option<ShaperConfig>,
    /// Pending-state semantics (counting queue vs non-counting flag).
    pub flag_semantics: IrqFlagSemantics,
    /// Additional partitions that also react to this IRQ (Section 3: the
    /// top handler "pushes an event in the respective interrupt queue of
    /// each partition that has to react"). Each extra subscriber runs its
    /// own bottom handler of the same `C_BH` and yields its own completion
    /// record. Shared sources cannot be monitored — the paper notes
    /// interposing them "would be particularly complicated".
    pub extra_subscribers: Vec<PartitionId>,
}

impl IrqSourceSpec {
    /// Creates an unmonitored IRQ source (baseline behaviour).
    #[must_use]
    pub fn new(name: impl Into<String>, subscriber: PartitionId, bottom_cost: Duration) -> Self {
        IrqSourceSpec {
            name: name.into(),
            subscriber,
            bottom_cost,
            monitor: None,
            flag_semantics: IrqFlagSemantics::Counting,
            extra_subscribers: Vec::new(),
        }
    }

    /// Adds another partition that also reacts to this IRQ (builder style).
    #[must_use]
    pub fn also_subscribed_by(mut self, partition: PartitionId) -> Self {
        self.extra_subscribers.push(partition);
        self
    }

    /// All subscribers, primary first.
    pub fn subscribers(&self) -> impl Iterator<Item = PartitionId> + '_ {
        std::iter::once(self.subscriber).chain(self.extra_subscribers.iter().copied())
    }

    /// Attaches a δ⁻ monitoring condition, enabling interposed handling for
    /// this source (builder style).
    #[must_use]
    pub fn with_monitor(mut self, delta: DeltaFunction) -> Self {
        self.monitor = Some(ShaperConfig::Delta(delta));
        self
    }

    /// Attaches an arbitrary admission shaper (builder style).
    #[must_use]
    pub fn with_shaper(mut self, shaper: ShaperConfig) -> Self {
        self.monitor = Some(shaper);
        self
    }

    /// Switches the source to non-counting hardware-flag semantics
    /// (builder style): unserviced repeat IRQs coalesce and are lost.
    #[must_use]
    pub fn with_flag_semantics(mut self, flag_semantics: IrqFlagSemantics) -> Self {
        self.flag_semantics = flag_semantics;
        self
    }
}

/// How a TDMA slot boundary interacts with an open interposed window.
///
/// The paper does not spell this out; its measured Figure 6c ("no IRQ is
/// delayed") implies [`BoundaryPolicy::DeferToWindow`], which is the
/// default. [`BoundaryPolicy::AbortWindow`] is kept as an ablation: it
/// preserves strict boundary placement but demotes conformant IRQs whose
/// window straddles a boundary to delayed handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BoundaryPolicy {
    /// The rotation waits for the window to close (bounded by the enforced
    /// budget `C'_BH`, i.e. inside the Eq. 14 interference envelope).
    #[default]
    DeferToWindow,
    /// The rotation happens on time; the window is terminated and the
    /// unfinished bottom handler re-queued.
    AbortWindow,
}

/// Which timestamp the monitoring condition is evaluated on.
///
/// The paper's "monitoring condition is always satisfied" for
/// `d_min`-spaced arrivals implies [`AdmissionClock::IrqTimestamp`] (the
/// hardware timestamp timer), which is the default.
/// [`AdmissionClock::ProcessingTime`] is kept as an ablation: checking at
/// top-handler completion adds hypervisor-induced jitter that spuriously
/// denies conformant arrivals latched behind context switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AdmissionClock {
    /// The hardware IRQ timestamp (arrival time).
    #[default]
    IrqTimestamp,
    /// The (possibly latched) top-handler completion time.
    ProcessingTime,
}

/// What the top handler does when a bounded partition IRQ queue
/// ([`PartitionSpec::queue_capacity`]) is full.
///
/// Either way the event is *counted* ([`Counters::overflow_rejected`] /
/// [`Counters::overflow_dropped`]), never silently lost — the conservation
/// invariant checked by the fault-injection oracle accounts for both.
///
/// [`Counters::overflow_rejected`]: crate::Counters::overflow_rejected
/// [`Counters::overflow_dropped`]: crate::Counters::overflow_dropped
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// The arriving event is not queued (tail drop). Preserves the oldest
    /// pending work; the default.
    #[default]
    RejectNewest,
    /// The oldest queued event is discarded to make room (head drop).
    /// Favours fresh events under sustained overload.
    DropOldest,
}

/// An event engine named in configuration. A [`Machine`](crate::Machine)
/// selects nothing by it: its pending IRQ arrivals wait in one sorted
/// stream (plus a side heap for arrivals scheduled out of order) and its
/// own timers in fixed slots. The choice is kept, outside machine state
/// hashing, for callers that replay a machine's run through an engine of
/// their own ([`Machine::engine_kind`](crate::Machine::engine_kind)); the
/// admission fleet chooses its engine through its own configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EngineChoice {
    /// The production engine: the timing wheel.
    #[default]
    Auto,
    /// Binary-heap reference engine (`O(log n)`, trivially correct).
    Heap,
    /// Hierarchical timing wheel (`O(1)` amortised, closed-form
    /// fast-forward; levels sized from the TDMA cycle).
    Wheel,
}

impl EngineChoice {
    /// The concrete engine this choice selects: [`EngineChoice::Auto`] is
    /// the wheel.
    ///
    /// It never fails. It keeps its fallible shape only until the engine
    /// selection types go, because the benchmark package still unwraps it.
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`](std::convert::Infallible).
    pub fn try_resolve(self) -> Result<EngineKind, std::convert::Infallible> {
        Ok(match self {
            EngineChoice::Heap => EngineKind::Heap,
            EngineChoice::Auto | EngineChoice::Wheel => EngineKind::Wheel,
        })
    }
}

/// Tunable semantic choices of the modified top handler, separate from the
/// quantitative [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PolicyOptions {
    /// Boundary-vs-window interaction.
    pub boundary: BoundaryPolicy,
    /// Timestamp the δ⁻ monitor checks against.
    pub admission_clock: AdmissionClock,
    /// Behaviour of full bounded partition IRQ queues.
    pub overflow: OverflowPolicy,
    /// Runtime health supervision of monitored IRQ sources (quarantine,
    /// hysteresis recovery, degraded-mode budgets). `None` — the default —
    /// disables supervision; the machine then behaves exactly as before.
    pub supervision: Option<SupervisionPolicy>,
    /// An event engine the machine selects nothing by; see
    /// [`EngineChoice`].
    pub engine: EngineChoice,
}

/// Which top handler variant the hypervisor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrqHandlingMode {
    /// Figure 4a: foreign-slot IRQs are always queued until the subscriber's
    /// own slot ("delayed IRQ handling").
    Baseline,
    /// Figure 4b: foreign-slot IRQs of monitored sources may be interposed
    /// when the monitoring condition admits them.
    Interposed,
}

impl fmt::Display for IrqHandlingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrqHandlingMode::Baseline => write!(f, "baseline"),
            IrqHandlingMode::Interposed => write!(f, "interposed"),
        }
    }
}

/// One window of an explicit ARINC653-style TDMA layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSpec {
    /// The partition executing in this window.
    pub owner: PartitionId,
    /// Window length.
    pub length: Duration,
}

impl SlotSpec {
    /// Creates a window.
    #[must_use]
    pub fn new(owner: PartitionId, length: Duration) -> Self {
        SlotSpec { owner, length }
    }
}

/// Complete static configuration of the simulated hypervisor platform.
///
/// Validated by [`HypervisorConfig::validate`], which the
/// [`Machine`](crate::Machine) constructor runs ([C-VALIDATE]).
///
/// [C-VALIDATE]: https://rust-lang.github.io/api-guidelines/dependability.html
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypervisorConfig {
    /// The TDMA partitions, in slot order.
    pub partitions: Vec<PartitionSpec>,
    /// The interrupt sources.
    pub sources: Vec<IrqSourceSpec>,
    /// Hypervisor primitive WCETs.
    pub costs: CostModel,
    /// Top handler variant.
    pub mode: IrqHandlingMode,
    /// Semantic policy choices (defaults reproduce the paper's measured
    /// behaviour; alternatives exist for ablation).
    pub policies: PolicyOptions,
    /// Optional explicit slot layout (ARINC653-style: a partition may own
    /// several windows per major frame). `None` uses the classic
    /// one-slot-per-partition rotation in declaration order; when set, the
    /// per-partition `PartitionSpec::slot` lengths are ignored in favour of
    /// the window lengths.
    pub windows: Option<Vec<SlotSpec>>,
}

/// Error returned by [`HypervisorConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The partition list was empty.
    NoPartitions,
    /// A partition's slot length was zero.
    ZeroSlot {
        /// The offending partition.
        partition: PartitionId,
    },
    /// A partition's bounded IRQ queue has capacity zero (it could never
    /// accept an event, so every IRQ would be lost by construction).
    ZeroQueueCapacity {
        /// The offending partition.
        partition: PartitionId,
    },
    /// An IRQ source subscribes to a partition index that does not exist.
    UnknownSubscriber {
        /// The offending source.
        source: IrqSourceId,
        /// The out-of-range partition id.
        subscriber: PartitionId,
    },
    /// An IRQ source's bottom handler WCET was zero.
    ZeroBottomCost {
        /// The offending source.
        source: IrqSourceId,
    },
    /// A shared (multi-subscriber) IRQ source carries a monitor — the paper
    /// excludes interposing shared IRQs ("particularly complicated").
    SharedSourceMonitored {
        /// The offending source.
        source: IrqSourceId,
    },
    /// A source lists the same subscriber twice.
    DuplicateSubscriber {
        /// The offending source.
        source: IrqSourceId,
        /// The duplicated partition.
        subscriber: PartitionId,
    },
    /// The explicit window layout is empty, references an unknown
    /// partition, contains a zero-length window, or starves a partition
    /// (every partition must own at least one window).
    InvalidWindowLayout {
        /// Human-readable reason.
        reason: String,
    },
    /// The supervision policy has inconsistent thresholds (zero scores or
    /// window, quarantine threshold not above the probation threshold, or
    /// a zero shrink divisor / watchdog factor).
    InvalidSupervision {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPartitions => write!(f, "configuration has no partitions"),
            ConfigError::ZeroSlot { partition } => {
                write!(f, "partition {partition} has a zero-length TDMA slot")
            }
            ConfigError::ZeroQueueCapacity { partition } => {
                write!(f, "partition {partition} has a zero-capacity IRQ queue")
            }
            ConfigError::UnknownSubscriber { source, subscriber } => write!(
                f,
                "IRQ source {source} subscribes to unknown partition {subscriber}"
            ),
            ConfigError::ZeroBottomCost { source } => {
                write!(f, "IRQ source {source} has a zero bottom-handler WCET")
            }
            ConfigError::SharedSourceMonitored { source } => write!(
                f,
                "shared IRQ source {source} cannot be monitored (interposing shared \
                 IRQs is excluded by the paper)"
            ),
            ConfigError::DuplicateSubscriber { source, subscriber } => write!(
                f,
                "IRQ source {source} lists subscriber {subscriber} more than once"
            ),
            ConfigError::InvalidWindowLayout { reason } => {
                write!(f, "invalid TDMA window layout: {reason}")
            }
            ConfigError::InvalidSupervision { reason } => {
                write!(f, "invalid supervision policy: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl HypervisorConfig {
    /// Checks the structural invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; see its variants for the
    /// individual conditions.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.partitions.is_empty() {
            return Err(ConfigError::NoPartitions);
        }
        for (i, partition) in self.partitions.iter().enumerate() {
            if partition.slot.is_zero() {
                return Err(ConfigError::ZeroSlot {
                    partition: PartitionId::new(i as u32),
                });
            }
            if partition.queue_capacity == Some(0) {
                return Err(ConfigError::ZeroQueueCapacity {
                    partition: PartitionId::new(i as u32),
                });
            }
        }
        for (i, source) in self.sources.iter().enumerate() {
            let id = IrqSourceId::new(i as u32);
            let mut seen = Vec::new();
            for subscriber in source.subscribers() {
                if subscriber.index() >= self.partitions.len() {
                    return Err(ConfigError::UnknownSubscriber {
                        source: id,
                        subscriber,
                    });
                }
                if seen.contains(&subscriber) {
                    return Err(ConfigError::DuplicateSubscriber {
                        source: id,
                        subscriber,
                    });
                }
                seen.push(subscriber);
            }
            if source.bottom_cost.is_zero() {
                return Err(ConfigError::ZeroBottomCost { source: id });
            }
            if !source.extra_subscribers.is_empty() && source.monitor.is_some() {
                return Err(ConfigError::SharedSourceMonitored { source: id });
            }
        }
        if let Some(windows) = &self.windows {
            if windows.is_empty() {
                return Err(ConfigError::InvalidWindowLayout {
                    reason: "no windows".to_owned(),
                });
            }
            let mut covered = vec![false; self.partitions.len()];
            for window in windows {
                if window.owner.index() >= self.partitions.len() {
                    return Err(ConfigError::InvalidWindowLayout {
                        reason: format!("unknown partition {}", window.owner),
                    });
                }
                if window.length.is_zero() {
                    return Err(ConfigError::InvalidWindowLayout {
                        reason: format!("zero-length window for {}", window.owner),
                    });
                }
                covered[window.owner.index()] = true;
            }
            if let Some(missing) = covered.iter().position(|&c| !c) {
                return Err(ConfigError::InvalidWindowLayout {
                    reason: format!("partition P{missing} owns no window"),
                });
            }
        }
        if let Some(supervision) = &self.policies.supervision {
            let reason = if supervision.probation_score == 0 {
                Some("probation score must be positive")
            } else if supervision.quarantine_score <= supervision.probation_score {
                Some("quarantine score must exceed the probation score")
            } else if supervision.probation_window.is_zero() {
                Some("probation window must be positive")
            } else if supervision.budget_shrink_divisor == 0 {
                Some("budget shrink divisor must be positive")
            } else if supervision.watchdog_factor == 0 {
                Some("watchdog factor must be positive")
            } else {
                None
            };
            if let Some(reason) = reason {
                return Err(ConfigError::InvalidSupervision {
                    reason: reason.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Sum of all slot lengths: the TDMA cycle length `T_TDMA`.
    #[must_use]
    pub fn tdma_cycle(&self) -> Duration {
        match &self.windows {
            Some(windows) => windows.iter().map(|w| w.length).sum(),
            None => self.partitions.iter().map(|p| p.slot).sum(),
        }
    }

    /// The slot layout as `(owner, length)` windows (explicit layout when
    /// set, otherwise the classic one-slot-per-partition rotation).
    #[must_use]
    pub fn slot_windows(&self) -> Vec<(PartitionId, Duration)> {
        match &self.windows {
            Some(windows) => windows.iter().map(|w| (w.owner, w.length)).collect(),
            None => self
                .partitions
                .iter()
                .enumerate()
                .map(|(i, p)| (PartitionId::new(i as u32), p.slot))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_config() -> HypervisorConfig {
        HypervisorConfig {
            partitions: vec![
                PartitionSpec::new("app1", Duration::from_micros(6_000)),
                PartitionSpec::new("app2", Duration::from_micros(6_000)),
                PartitionSpec::new("housekeeping", Duration::from_micros(2_000)),
            ],
            sources: vec![IrqSourceSpec::new(
                "timer",
                PartitionId::new(1),
                Duration::from_micros(30),
            )],
            costs: CostModel::paper_arm926ejs(),
            mode: IrqHandlingMode::Baseline,
            policies: PolicyOptions::default(),
            windows: None,
        }
    }

    #[test]
    fn paper_costs_match_section_6_2() {
        let costs = CostModel::paper_arm926ejs();
        assert_eq!(costs.monitor_check, Duration::from_nanos(640));
        assert_eq!(costs.sched_manip, Duration::from_nanos(4_385));
        assert_eq!(costs.context_switch, Duration::from_micros(50));
        assert_eq!(costs, CostModel::default());
    }

    #[test]
    fn effective_bottom_cost_is_eq_13() {
        let costs = CostModel::paper_arm926ejs();
        let cbh = Duration::from_micros(30);
        assert_eq!(
            costs.effective_bottom_cost(cbh),
            cbh + costs.sched_manip + costs.context_switch * 2
        );
    }

    #[test]
    fn monitored_top_cost_is_eq_15() {
        let costs = CostModel::paper_arm926ejs();
        assert_eq!(
            costs.monitored_top_cost(),
            costs.top_handler + costs.monitor_check
        );
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(valid_config().validate(), Ok(()));
    }

    #[test]
    fn tdma_cycle_sums_slots() {
        assert_eq!(valid_config().tdma_cycle(), Duration::from_millis(14));
    }

    #[test]
    fn empty_partitions_rejected() {
        let mut cfg = valid_config();
        cfg.partitions.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoPartitions));
    }

    #[test]
    fn zero_slot_rejected() {
        let mut cfg = valid_config();
        cfg.partitions[1].slot = Duration::ZERO;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroSlot {
                partition: PartitionId::new(1)
            })
        );
    }

    #[test]
    fn unknown_subscriber_rejected() {
        let mut cfg = valid_config();
        cfg.sources[0].subscriber = PartitionId::new(9);
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::UnknownSubscriber { .. }));
        assert!(err.to_string().contains("unknown partition P9"));
    }

    #[test]
    fn zero_queue_capacity_rejected() {
        let mut cfg = valid_config();
        cfg.partitions[2].queue_capacity = Some(0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroQueueCapacity {
                partition: PartitionId::new(2)
            })
        );
        cfg.partitions[2].queue_capacity = Some(1);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn queue_capacity_builder_sets_bound() {
        let spec = PartitionSpec::new("app", Duration::from_millis(6)).with_queue_capacity(4);
        assert_eq!(spec.queue_capacity, Some(4));
    }

    #[test]
    fn zero_bottom_cost_rejected() {
        let mut cfg = valid_config();
        cfg.sources[0].bottom_cost = Duration::ZERO;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroBottomCost { .. })
        ));
    }

    #[test]
    fn with_monitor_enables_interposition_config() {
        let delta = DeltaFunction::from_dmin(Duration::from_micros(300)).expect("valid");
        let spec = IrqSourceSpec::new("can", PartitionId::new(0), Duration::from_micros(10))
            .with_monitor(delta.clone());
        assert_eq!(spec.monitor, Some(ShaperConfig::Delta(delta)));
    }

    #[test]
    fn mode_display() {
        assert_eq!(IrqHandlingMode::Baseline.to_string(), "baseline");
        assert_eq!(IrqHandlingMode::Interposed.to_string(), "interposed");
    }

    #[test]
    fn pinned_engine_choices_always_resolve() {
        // The default choice is the production wheel; the heap is only
        // ever picked by pinning it.
        assert_eq!(EngineChoice::Auto.try_resolve(), Ok(EngineKind::Wheel));
        assert_eq!(EngineChoice::Heap.try_resolve(), Ok(EngineKind::Heap));
        assert_eq!(EngineChoice::Wheel.try_resolve(), Ok(EngineKind::Wheel));
    }
}
