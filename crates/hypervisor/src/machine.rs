//! The simulated platform: a single CPU executing partitions under TDMA
//! control, with hypervisor interrupt handling.
//!
//! # Execution model
//!
//! The CPU is always doing exactly one of:
//!
//! * **partition-level work** — the active partition's bottom handlers
//!   (front of its IRQ queue, FIFO) or, when the queue is empty, its
//!   user-level task. Partition-level work is preemptible by IRQs and by
//!   TDMA slot boundaries.
//! * **hypervisor work** — top handlers (incl. the monitoring function),
//!   scheduler manipulation and context switches. Hypervisor work runs with
//!   interrupts latched: IRQs arriving inside it are queued and their top
//!   handlers run back-to-back at the end of the current block; a slot
//!   boundary inside it is deferred to the end of the block.
//!
//! An **interposed execution window** (the paper's contribution) is opened
//! when the modified top handler's monitoring function admits a foreign-slot
//! IRQ: the hypervisor charges `C_sched + C_ctx`, the subscriber partition
//! runs its queue front for at most the window budget (`C_BH` of the
//! admitted source), and a final `C_ctx` returns to the interrupted
//! partition. A TDMA boundary arriving during a window defers the rotation
//! until the window closes — the deferral is bounded by the enforced window
//! budget, so it stays inside the Eq. 14 interference envelope.

use std::collections::VecDeque;
use std::mem;

use rthv_monitor::{Admission, MonitorStats, Shaper, ShaperConfig};
use rthv_obs::{MetricsHub, ObsConfig, SourceObs};
use rthv_sim::{EngineKind, Fnv1a};
use rthv_time::{Duration, Instant};

use crate::arrivals::{Arrival, PendingArrivals};
use crate::{
    AdmissionClock, AdmissionRecord, BoundaryPolicy, ConfigError, Counters, HandlingClass,
    HealthSignal, HealthState, HypervisorConfig, IrqCompletion, IrqHandlingMode, IrqSourceId,
    OverflowPolicy, PartitionId, ServiceInterval, ServiceKind, Span, SupervisionEventKind,
    SupervisionReport, Supervisor, TdmaSchedule, TraceRecorder,
};

/// Events driving the machine. [`Event::Arrival`]s come from the pending
/// [arrivals](PendingArrivals); the other three come from the machine's
/// [timer slots](TimerSlot).
#[derive(Debug, Clone)]
enum Event {
    /// A hardware IRQ fires.
    Arrival {
        source: IrqSourceId,
        seq: u64,
        /// Bottom-handler work this arrival demands. Normally the source's
        /// declared `C_BH`; fault injection schedules overrunning (or
        /// non-yielding) work through
        /// [`Machine::schedule_irq_with_work`]. The *enforced* interposition
        /// budget stays the declared `C_BH` regardless.
        work: Duration,
    },
    /// The current hypervisor block completes.
    HvEnd,
    /// The current partition-level bottom-handler segment ends (completion
    /// or interposition-budget expiry, whichever was scheduled).
    SegEnd,
    /// A TDMA slot boundary.
    Boundary { index: u64 },
}

/// The machine's own timers. At most one of each is ever pending, so each
/// has a fixed slot on [`Machine`] instead of a place in a queue.
#[derive(Debug, Clone, Copy)]
enum TimerSlot {
    /// The running hypervisor block ends ([`Event::HvEnd`]).
    HvEnd,
    /// The running bottom-handler segment ends ([`Event::SegEnd`]).
    SegEnd,
    /// The next TDMA slot boundary ([`Event::Boundary`]).
    Boundary,
}

impl TimerSlot {
    const ALL: [TimerSlot; 3] = [TimerSlot::HvEnd, TimerSlot::SegEnd, TimerSlot::Boundary];
}

/// An armed timer.
///
/// Arrivals and timers fire in one order: by instant, then by when they
/// were scheduled. An arrival's own `order` orders the arrivals among
/// themselves, the timer's `order` orders the timers, and `arrivals`
/// places each timer among the arrivals.
#[derive(Debug, Clone, Copy)]
struct Timer {
    at: Instant,
    /// Arming order: of two timers due at one instant, the one armed first
    /// fires first.
    order: u64,
    /// Arrivals scheduled before this timer was armed. An arrival due at
    /// the same instant fires first iff its `order` is below this count.
    arrivals: u64,
}

/// What to do when the current hypervisor block finishes.
#[derive(Debug, Clone)]
enum HvCont {
    /// Top handler (and, in interposed mode for foreign IRQs, the monitoring
    /// function) completed.
    TopHandler {
        source: IrqSourceId,
        seq: u64,
        arrival: Instant,
        work: Duration,
    },
    /// Scheduler manipulation + context switch into the subscriber finished;
    /// open the interposed window.
    EnterInterposed {
        partition: PartitionId,
        budget: Duration,
        /// The admitted source (budget-clip attribution for supervision).
        source: IrqSourceId,
        /// Whether `budget` was shrunk by supervision's degraded mode —
        /// clips under a shrunk budget are expected and carry no penalty.
        shrunk: bool,
    },
    /// Context switch back from an interposed window finished.
    ExitInterposed,
    /// TDMA context switch finished; the new slot begins.
    SlotSwitch { slot: u64 },
}

/// Current partition-level activity (only meaningful while no hypervisor
/// block runs).
#[derive(Debug, Default, Clone)]
enum Activity {
    /// CPU is inside a hypervisor block (or between dispatch steps).
    #[default]
    None,
    /// The active partition's user-level task runs.
    User {
        partition: PartitionId,
        since: Instant,
    },
    /// The active partition processes its IRQ-queue front; the
    /// [`TimerSlot::SegEnd`] timer ends the segment.
    Bottom {
        partition: PartitionId,
        since: Instant,
    },
}

/// A running hypervisor block: its continuation and start time (for exact
/// hypervisor-time accounting at block end).
#[derive(Debug, Clone)]
struct HvBlock {
    cont: HvCont,
    started: Instant,
}

/// An open interposed execution window.
#[derive(Debug, Clone, Copy)]
struct InterposedWindow {
    partition: PartitionId,
    opened: Instant,
    budget_end: Instant,
    /// The admitted source (budget-clip attribution for supervision).
    source: IrqSourceId,
    /// Whether the enforced budget was shrunk by supervision.
    shrunk: bool,
}

/// An IRQ that fired while the hypervisor had interrupts latched.
#[derive(Debug, Clone, Copy)]
struct LatchedIrq {
    source: IrqSourceId,
    seq: u64,
    arrival: Instant,
    work: Duration,
}

/// A queued bottom-handler request (the paper's per-partition IRQ event
/// queue of Figure 2).
#[derive(Debug, Clone, Copy)]
struct PendingIrq {
    source: IrqSourceId,
    seq: u64,
    arrival: Instant,
    /// Total bottom-handler work this request demands.
    work: Duration,
    /// Bottom-handler work left to execute.
    remaining: Duration,
}

/// Per-partition run-time state.
#[derive(Debug, Default, Clone)]
struct PartitionRt {
    queue: VecDeque<PendingIrq>,
}

/// Final result of a simulation run; returned by [`Machine::finish`].
///
/// Reports compare structurally with `==`: two runs agree iff every
/// record, counter and trace they produced is equal.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-IRQ completion records.
    pub recorder: TraceRecorder,
    /// Global counters (context switches, service accounting, …).
    pub counters: Counters,
    /// The virtual time at which the run was finalized.
    pub end: Instant,
    /// Final monitor statistics per IRQ source (`None` for unmonitored
    /// sources).
    pub monitor_stats: Vec<Option<MonitorStats>>,
    /// Admission timestamps of every interposed window, in order. The δ⁻
    /// conformance of this stream is what sufficient temporal independence
    /// rests on (Eq. 14).
    pub window_openings: Vec<Instant>,
    /// Every admission-monitor decision, in decision order. The admitted
    /// sub-stream's `check_at` timestamps are the exact stream the δ⁻
    /// condition constrains — the fault-injection oracle replays this.
    pub admissions: Vec<AdmissionRecord>,
    /// Bottom-handler completions still outstanding at the end of the run
    /// (scheduled work that never got processor time before `end`).
    pub outstanding: u64,
    /// First internal-invariant violation the machine detected, if any. A
    /// healthy run reports `None`; a `Some` means the run halted early and
    /// its records cover only the prefix up to the defect.
    pub defect: Option<MachineError>,
    /// Per-partition service intervals, if
    /// [`Machine::enable_service_trace`] was called (indexed by partition).
    pub service_intervals: Option<Vec<Vec<ServiceInterval>>>,
    /// Hypervisor block spans, if tracing was enabled.
    pub hv_spans: Option<Vec<Span>>,
    /// Interposed window spans (open to close), if tracing was enabled.
    pub window_spans: Option<Vec<Span>>,
    /// Health-supervision outcome (signal/transition log, final states,
    /// per-partition penalty ledger) when
    /// [`PolicyOptions::supervision`](crate::PolicyOptions) was enabled.
    pub supervision: Option<SupervisionReport>,
}

/// The simulated hypervisor platform.
///
/// Construct with a validated [`HypervisorConfig`], feed IRQ arrival traces
/// with [`schedule_irq_trace`](Machine::schedule_irq_trace), drive virtual
/// time with [`run_until`](Machine::run_until) or
/// [`run_until_complete`](Machine::run_until_complete), then harvest the
/// [`RunReport`] with [`finish`](Machine::finish).
///
/// # Examples
///
/// ```
/// use rthv_hypervisor::{
///     CostModel, HypervisorConfig, IrqHandlingMode, IrqSourceSpec, Machine,
///     PartitionId, PartitionSpec,
/// };
/// use rthv_time::{Duration, Instant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = HypervisorConfig {
///     partitions: vec![
///         PartitionSpec::new("app1", Duration::from_micros(6_000)),
///         PartitionSpec::new("app2", Duration::from_micros(6_000)),
///     ],
///     sources: vec![IrqSourceSpec::new(
///         "timer",
///         PartitionId::new(1),
///         Duration::from_micros(30),
///     )],
///     costs: CostModel::paper_arm926ejs(),
///     mode: IrqHandlingMode::Baseline,
///     policies: Default::default(),
///     windows: None,
/// };
/// let mut machine = Machine::new(config)?;
/// machine.schedule_irq_trace(
///     rthv_hypervisor::IrqSourceId::new(0),
///     &[Instant::from_micros(100), Instant::from_micros(7_000)],
/// )?;
/// machine.run_until_complete(Instant::from_micros(100_000));
/// let report = machine.finish();
/// assert_eq!(report.recorder.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: HypervisorConfig,
    schedule: TdmaSchedule,
    /// Current virtual time: the instant of the last processed event.
    now: Instant,
    /// Pending IRQ arrivals: a stream shared with snapshots plus a side
    /// heap.
    arrivals: PendingArrivals,
    /// Arrivals scheduled since construction or the last reset: the next
    /// arrival's `order`.
    arrivals_scheduled: u64,
    /// The machine's own timers, indexed by [`TimerSlot`].
    timers: [Option<Timer>; 3],
    /// Timers armed since construction or the last reset: the next
    /// timer's `order`.
    timers_armed: u64,
    /// Index of the TDMA boundary the [`TimerSlot::Boundary`] timer stands
    /// for.
    next_boundary: u64,
    /// The running hypervisor block, if any.
    hv: Option<HvBlock>,
    activity: Activity,
    window: Option<InterposedWindow>,
    /// Latest slot index whose boundary passed while the hypervisor was busy.
    pending_boundary: Option<u64>,
    latched: VecDeque<LatchedIrq>,
    current_slot: u64,
    partitions: Vec<PartitionRt>,
    monitors: Vec<Option<Shaper>>,
    /// Runtime health supervision, when enabled by
    /// [`PolicyOptions::supervision`](crate::PolicyOptions).
    supervisor: Option<Supervisor>,
    recorder: TraceRecorder,
    counters: Counters,
    /// Per-source next sequence number.
    next_seq: Vec<u64>,
    /// Bottom-handler completions still expected (one per subscriber per
    /// scheduled arrival).
    expected_completions: u64,
    window_openings: Vec<Instant>,
    admissions: Vec<AdmissionRecord>,
    /// First detected internal-invariant violation; halts the run loops.
    defect: Option<MachineError>,
    /// Per-partition service intervals, populated when tracing is enabled.
    service_trace: Option<Vec<Vec<ServiceInterval>>>,
    /// Hypervisor block spans, populated when tracing is enabled.
    hv_trace: Option<Vec<Span>>,
    /// Interposed window spans, populated when tracing is enabled.
    window_trace: Option<Vec<Span>>,
    /// Observability hub (counters, latency histograms, headroom gauges,
    /// flight recorder), when enabled by
    /// [`enable_metrics`](Machine::enable_metrics). Pure observation: it
    /// never feeds back into any decision, so an instrumented run is
    /// byte-identical to a bare one.
    metrics: Option<MetricsHub>,
    /// Supervision-event watermark for the flight recorder: how many
    /// entries of the supervisor's event log have already been tailed into
    /// the metrics hub. Observability-only state (excluded from
    /// [`state_hash`](Machine::state_hash) alongside the hub itself).
    obs_supervision_seen: usize,
}

impl Machine {
    /// Builds a machine for the given configuration.
    ///
    /// The first TDMA slot (partition 0) starts immediately at
    /// [`Instant::ZERO`] without an initial context switch.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from
    /// [`HypervisorConfig::validate`](HypervisorConfig::validate).
    pub fn new(config: HypervisorConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let schedule = TdmaSchedule::from_windows(&config.slot_windows());
        let monitors: Vec<Option<Shaper>> = config
            .sources
            .iter()
            .map(|s| s.monitor.as_ref().map(Shaper::from_config))
            .collect();
        // Supervision covers exactly the monitored sources: unmonitored
        // sources are never interposed, so there is nothing to demote.
        let supervisor = config.policies.supervision.map(|policy| {
            let mut supervisor =
                Supervisor::new(policy, config.sources.len(), config.partitions.len());
            for (i, shaper) in monitors.iter().enumerate() {
                if let Some(shaper) = shaper {
                    supervisor.track(i, config.sources[i].subscriber.index(), shaper.watch());
                }
            }
            supervisor
        });
        let partition_count = config.partitions.len();
        let source_count = config.sources.len();
        let mut machine = Machine {
            schedule,
            now: Instant::ZERO,
            arrivals: PendingArrivals::default(),
            arrivals_scheduled: 0,
            timers: [None; 3],
            timers_armed: 0,
            next_boundary: 1,
            hv: None,
            activity: Activity::User {
                partition: PartitionId::new(0),
                since: Instant::ZERO,
            },
            window: None,
            pending_boundary: None,
            latched: VecDeque::new(),
            current_slot: 0,
            partitions: (0..partition_count)
                .map(|_| PartitionRt::default())
                .collect(),
            monitors,
            supervisor,
            recorder: TraceRecorder::new(),
            counters: Counters::new(partition_count),
            next_seq: vec![0; source_count],
            expected_completions: 0,
            window_openings: Vec::new(),
            admissions: Vec::new(),
            defect: None,
            service_trace: None,
            hv_trace: None,
            window_trace: None,
            metrics: None,
            obs_supervision_seen: 0,
            config,
        };
        machine.arm(TimerSlot::Boundary, machine.schedule.boundary_time(1));
        Ok(machine)
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &HypervisorConfig {
        &self.config
    }

    /// The derived TDMA schedule.
    #[must_use]
    pub fn schedule(&self) -> &TdmaSchedule {
        &self.schedule
    }

    /// Current virtual time (timestamp of the last processed event).
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Completion records collected so far.
    #[must_use]
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Counters collected so far.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Monitor statistics of one source, if it is monitored.
    ///
    /// # Panics
    ///
    /// Panics if the source index is out of range.
    #[must_use]
    pub fn monitor_stats(&self, source: IrqSourceId) -> Option<MonitorStats> {
        self.monitors[source.index()].as_ref().map(Shaper::stats)
    }

    /// Current supervision health state of one source — `None` when
    /// supervision is disabled or the source is unmonitored.
    ///
    /// # Panics
    ///
    /// Panics if the source index is out of range.
    #[must_use]
    pub fn supervision_state(&self, source: IrqSourceId) -> Option<HealthState> {
        assert!(source.index() < self.config.sources.len(), "unknown source");
        self.supervisor
            .as_ref()
            .and_then(|s| s.state(source.index()))
    }

    /// Enables per-partition service-interval recording (off by default —
    /// long runs would accumulate many intervals). Must be called before
    /// any partition-level execution is to be captured.
    ///
    /// The recorded intervals drive the guest-OS replay layer
    /// (`rthv-guest`), which schedules a guest task set over exactly the
    /// processor time the partition actually received.
    pub fn enable_service_trace(&mut self) {
        if self.service_trace.is_none() {
            self.service_trace = Some(vec![Vec::new(); self.config.partitions.len()]);
            self.hv_trace = Some(Vec::new());
            self.window_trace = Some(Vec::new());
        }
    }

    /// Enables the observability hub: scalar counters, per-source latency
    /// histograms, per-source bound-headroom gauges and the structured
    /// flight recorder (off by default).
    ///
    /// Each source's gauge compares the densest admission window observed
    /// against the Eq. 13–16 budget `η⁺(Δt) · C'_BH`, with `Δt` the
    /// configured gauge window, `η⁺` derived from the source's enforced
    /// shaper and `C'_BH = C_BH + C_sched + 2·C_ctx` from the cost model.
    /// Unmonitored sources get an unbudgeted gauge (observation only).
    ///
    /// The hub is pure observation — no machine decision reads it — so a
    /// run with metrics enabled is byte-identical (state hashes, reports)
    /// to the same run without. Calling this again replaces the hub with a
    /// fresh one of the new geometry.
    pub fn enable_metrics(&mut self, config: ObsConfig) {
        let sources: Vec<SourceObs> = self
            .config
            .sources
            .iter()
            .enumerate()
            .map(|(i, spec)| SourceObs {
                budget_events: self.monitors[i]
                    .as_ref()
                    .and_then(|shaper| shaper.window_budget(config.gauge_window)),
                effective_cost: self.config.costs.effective_bottom_cost(spec.bottom_cost),
            })
            .collect();
        self.metrics = Some(MetricsHub::new(config, &sources));
        self.obs_supervision_seen = self
            .supervisor
            .as_ref()
            .map_or(0, |supervisor| supervisor.events().len());
    }

    /// The default observability geometry for this machine: standard ring
    /// and histogram sizes, with the gauge window set to the TDMA cycle —
    /// the Δt the paper's per-cycle interference argument is about.
    #[must_use]
    pub fn default_obs_config(&self) -> ObsConfig {
        ObsConfig {
            gauge_window: self.schedule.cycle(),
            ..ObsConfig::default()
        }
    }

    /// The observability hub, when [`enable_metrics`](Machine::enable_metrics)
    /// was called.
    #[must_use]
    pub fn metrics(&self) -> Option<&MetricsHub> {
        self.metrics.as_ref()
    }

    /// Deterministic JSON snapshot of the observability hub, when metrics
    /// are enabled. Byte-identical across reruns with equal inputs.
    #[must_use]
    pub fn metrics_snapshot_json(&self) -> Option<String> {
        self.metrics.as_ref().map(MetricsHub::snapshot_json)
    }

    /// Writes the platform routing/failover gauge into this core's hub
    /// (no-op without metrics). Called by the multi-core machine when its
    /// routing ledger is finalized; pure observation, outside `state_hash`.
    pub fn record_platform_obs(&mut self, gauge: rthv_obs::PlatformObs) {
        if let Some(hub) = self.metrics.as_mut() {
            hub.record_platform(gauge);
        }
    }

    /// Switches the top-handler variant at run time.
    ///
    /// The Appendix-A scenario starts in [`IrqHandlingMode::Baseline`]
    /// during its learning phase ("only delayed and direct IRQ handling is
    /// active") and flips to [`IrqHandlingMode::Interposed`] when the
    /// monitored run mode begins.
    pub fn set_mode(&mut self, mode: IrqHandlingMode) {
        self.config.mode = mode;
    }

    /// Replaces the δ⁻ function of a monitored source at run time (used by
    /// the Appendix-A learn-then-run scenario).
    ///
    /// The stored configuration is updated alongside the live shaper, so
    /// [`config`](Machine::config) keeps describing the effective monitor
    /// and a machine built from that configuration matches this one after
    /// [`reset`](Machine::reset). The supervision conformance watch (when
    /// enabled) is rebuilt from the new δ⁻ as well.
    ///
    /// Returns `false` if the source is unmonitored (or throttled by a
    /// token bucket, which has no δ⁻ to replace).
    ///
    /// # Panics
    ///
    /// Panics if the source index is out of range.
    pub fn set_monitor_delta(
        &mut self,
        source: IrqSourceId,
        delta: rthv_monitor::DeltaFunction,
    ) -> bool {
        let Some(shaper) = self.monitors[source.index()].as_mut() else {
            return false;
        };
        if !shaper.set_delta(delta.clone()) {
            return false;
        }
        let watch = shaper.watch();
        self.config.sources[source.index()].monitor = Some(ShaperConfig::Delta(delta));
        if let Some(supervisor) = &mut self.supervisor {
            supervisor.set_watch(source.index(), watch);
        }
        true
    }

    /// Schedules a single IRQ arrival demanding the source's declared
    /// bottom-handler WCET.
    ///
    /// # Errors
    ///
    /// Returns an error if the source index is out of range or `at` lies in
    /// the simulated past.
    pub fn schedule_irq(
        &mut self,
        source: IrqSourceId,
        at: Instant,
    ) -> Result<(), ScheduleIrqError> {
        if source.index() >= self.config.sources.len() {
            return Err(ScheduleIrqError::UnknownSource { source });
        }
        let work = self.config.sources[source.index()].bottom_cost;
        self.schedule_irq_with_work(source, at, work)
    }

    /// Schedules an IRQ arrival whose bottom handler demands `work` instead
    /// of the source's declared `C_BH` — the fault-injection hook for
    /// budget-overrun attempts (`work > C_BH`) and non-yielding guest work
    /// (`work` on the order of a whole slot).
    ///
    /// The *enforced* interposition budget stays the declared `C_BH`: an
    /// admitted overrunning handler is clipped at the window budget (counted
    /// in [`Counters::expired_windows`]) and its remainder re-queued for the
    /// subscriber's own slot, exactly as the paper's enforcement demands.
    ///
    /// # Errors
    ///
    /// Same conditions as [`schedule_irq`](Machine::schedule_irq). `work`
    /// may be zero (a spurious, content-free IRQ): the completion is then
    /// recorded as soon as the queue front reaches partition level.
    pub fn schedule_irq_with_work(
        &mut self,
        source: IrqSourceId,
        at: Instant,
        work: Duration,
    ) -> Result<(), ScheduleIrqError> {
        if source.index() >= self.config.sources.len() {
            return Err(ScheduleIrqError::UnknownSource { source });
        }
        if self
            .supervisor
            .as_ref()
            .is_some_and(|s| s.is_quarantined(source.index()))
        {
            return Err(ScheduleIrqError::SourceQuarantined { source });
        }
        if at < self.now {
            return Err(ScheduleIrqError::InPast { at, now: self.now });
        }
        self.arrivals.push(Arrival {
            at,
            order: self.arrivals_scheduled,
            source,
            seq: self.next_seq[source.index()],
            work,
        });
        self.arrivals_scheduled += 1;
        self.next_seq[source.index()] += 1;
        // Shared sources yield one completion per subscriber.
        self.expected_completions +=
            self.config.sources[source.index()].subscribers().count() as u64;
        Ok(())
    }

    /// Schedules a whole arrival trace for one source.
    ///
    /// # Errors
    ///
    /// Same conditions as [`schedule_irq`](Machine::schedule_irq); arrivals
    /// before the first failing one remain scheduled.
    pub fn schedule_irq_trace(
        &mut self,
        source: IrqSourceId,
        arrivals: &[Instant],
    ) -> Result<(), ScheduleIrqError> {
        // The trace length is the scenario's own peak-population hint:
        // pre-sizing here removes reallocation from the scheduling path.
        self.reserve_events(arrivals.len());
        for &at in arrivals {
            self.schedule_irq(source, at)?;
        }
        Ok(())
    }

    /// Pre-sizes the arrival stream for `additional` more pending IRQ
    /// arrivals. Scenario builders that know their arrival count call this
    /// once up front so steady-state scheduling never reallocates.
    pub fn reserve_events(&mut self, additional: usize) {
        self.arrivals.reserve(additional);
    }

    /// The event engine [`PolicyOptions::engine`](crate::PolicyOptions)
    /// names: always [`EngineKind::Heap`]. The machine selects nothing by
    /// it. It goes with ROADMAP item 7, when the benchmark package's
    /// engine probe stops naming it.
    #[must_use]
    pub fn engine_kind(&self) -> EngineKind {
        let Ok(kind) = self.config.policies.engine.try_resolve();
        kind
    }

    /// Number of bottom-handler completions still outstanding (one per
    /// subscriber per scheduled arrival; queue entries lost to flag
    /// coalescing or to bounded-queue overflow will never complete and do
    /// not count).
    #[must_use]
    pub fn outstanding_irqs(&self) -> u64 {
        self.expected_completions
            - self.recorder.len() as u64
            - self.counters.coalesced_irqs
            - self.counters.overflow_rejected
            - self.counters.overflow_dropped
    }

    /// First internal-invariant violation detected, if any.
    ///
    /// A defect halts [`run_until`](Machine::run_until) and
    /// [`run_until_complete`](Machine::run_until_complete) — the fault shows
    /// up as *data* (here and in [`RunReport::defect`]) instead of a panic.
    #[must_use]
    pub fn defect(&self) -> Option<&MachineError> {
        self.defect.as_ref()
    }

    /// Records the first internal-invariant violation and freezes the run.
    fn fail(&mut self, context: &'static str) {
        if self.defect.is_none() {
            self.defect = Some(MachineError::InvariantViolated {
                context,
                at: self.now(),
            });
        }
    }

    /// Processes all events up to and including virtual time `until` (or up
    /// to the first detected defect).
    pub fn run_until(&mut self, until: Instant) {
        while self.defect.is_none() {
            let Some(event) = self.next_event(until) else {
                break;
            };
            self.handle(event);
            self.supervise_tick();
        }
    }

    /// Runs until every scheduled IRQ has completed, or `deadline` is
    /// reached, or a defect is detected. Returns `true` when all IRQs
    /// completed.
    pub fn run_until_complete(&mut self, deadline: Instant) -> bool {
        while self.outstanding_irqs() > 0 {
            if self.defect.is_some() {
                return false;
            }
            let Some(event) = self.next_event(deadline) else {
                return false;
            };
            self.handle(event);
            self.supervise_tick();
        }
        true
    }

    /// Rewinds the machine to its just-constructed state — virtual time
    /// zero, partition 0's user task running, no scheduled arrivals, only
    /// the first TDMA boundary armed, empty records — while keeping every
    /// allocation: the arrival stream (unless a snapshot shares it), the
    /// per-partition IRQ [`VecDeque`]s, the recorder's completion vector
    /// and the trace buffers all retain their capacity, so a
    /// reset-and-rerun executes without heap allocation in steady state.
    ///
    /// Determinism: a reset machine fed the same arrival trace reproduces
    /// the original run event for event (asserted by the
    /// `reset_rerun_matches_fresh_machine` integration test). Runtime
    /// mutations made through [`set_mode`](Machine::set_mode) or
    /// [`set_monitor_delta`](Machine::set_monitor_delta) are configuration,
    /// not run state, and deliberately survive the reset.
    pub fn reset(&mut self) {
        self.now = Instant::ZERO;
        self.arrivals.clear();
        self.arrivals_scheduled = 0;
        self.timers = [None; 3];
        self.timers_armed = 0;
        self.next_boundary = 1;
        self.arm(TimerSlot::Boundary, self.schedule.boundary_time(1));
        self.hv = None;
        self.activity = Activity::User {
            partition: PartitionId::new(0),
            since: Instant::ZERO,
        };
        self.window = None;
        self.pending_boundary = None;
        self.latched.clear();
        self.current_slot = 0;
        for partition in &mut self.partitions {
            partition.queue.clear();
        }
        for monitor in self.monitors.iter_mut().flatten() {
            monitor.reset();
        }
        if let Some(supervisor) = &mut self.supervisor {
            supervisor.reset();
        }
        self.recorder.clear();
        self.counters.reset();
        self.next_seq.fill(0);
        self.expected_completions = 0;
        self.window_openings.clear();
        self.admissions.clear();
        self.defect = None;
        if let Some(per_partition) = &mut self.service_trace {
            for intervals in per_partition {
                intervals.clear();
            }
        }
        if let Some(spans) = &mut self.hv_trace {
            spans.clear();
        }
        if let Some(spans) = &mut self.window_trace {
            spans.clear();
        }
        if let Some(metrics) = &mut self.metrics {
            metrics.reset();
        }
        self.obs_supervision_seen = 0;
    }

    /// Finalizes the run: closes the books on the in-progress partition
    /// segment (so service accounting includes it) and returns the report.
    #[must_use]
    pub fn finish(mut self) -> RunReport {
        let end = self.now();
        self.preempt_activity();
        // Charge the elapsed part of an in-flight hypervisor block so the
        // time-conservation invariant (Σ service + hypervisor time = end)
        // holds exactly.
        if let Some(block) = self.hv.take() {
            self.counters.hypervisor_time += end.duration_since(block.started);
        }
        let outstanding = self.expected_completions
            - self.recorder.len() as u64
            - self.counters.coalesced_irqs
            - self.counters.overflow_rejected
            - self.counters.overflow_dropped;
        RunReport {
            recorder: self.recorder,
            counters: self.counters,
            end,
            monitor_stats: self
                .monitors
                .iter()
                .map(|m| m.as_ref().map(Shaper::stats))
                .collect(),
            window_openings: self.window_openings,
            admissions: self.admissions,
            outstanding,
            defect: self.defect,
            service_intervals: self.service_trace,
            hv_spans: self.hv_trace,
            window_spans: self.window_trace,
            supervision: self.supervisor.as_ref().map(Supervisor::report),
        }
    }

    /// Captures a checkpoint of the machine's complete state — scheduler
    /// position, timer slots, pending arrivals, per-source monitor trace
    /// rings, supervision state machines, partition queues, counters and
    /// every record buffer.
    ///
    /// A machine [`restore`](Machine::restore)d from the snapshot continues
    /// the run exactly as the original would have: same events, same
    /// decisions, byte-identical [`RunReport`]. The pending arrival stream
    /// is immutable and shared, so a snapshot copies only its cursor and
    /// the few arrivals scheduled out of order, never the future trace.
    /// Snapshots are plain data, safe to keep across further execution of
    /// the source machine.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot(self.clone())
    }

    /// Rewinds the machine to the state captured by
    /// [`snapshot`](Machine::snapshot), including runtime configuration
    /// mutations ([`set_mode`](Machine::set_mode),
    /// [`set_monitor_delta`](Machine::set_monitor_delta)) made before the
    /// snapshot was taken. Arrivals scheduled after the snapshot are
    /// forgotten; arrivals that were pending at snapshot time fire again.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        self.clone_from(&snapshot.0);
    }

    /// A cheap deterministic digest of the machine's live execution state:
    /// 64-bit FNV-1a over its canonical state words, streamed with no
    /// buffer.
    ///
    /// Two machines in behaviourally identical states — same virtual time,
    /// same scheduled events, same monitor histories, same supervision
    /// states, same counters — hash equal; a restored-vs-fresh divergence
    /// shows up at the first slot boundary where the hashes differ rather
    /// than only in the end-of-run report. The pending arrivals enter as a
    /// [`SetDigest`](rthv_sim::SetDigest) of their `(time, source, seq,
    /// work)` tuples, the same wherever an arrival waits; the stream's
    /// share is read from a prefix table, so the hash never walks the
    /// pending trace. An arrival's scheduling `order` stays out, so two
    /// runs that scheduled the same arrivals in different orders hash
    /// equal; the one state this cannot tell apart is two arrivals of
    /// different sources pending at one instant in swapped order. Each of
    /// the three timer slots enters with its instant, arming order and
    /// arrival count.
    /// Unbounded record buffers (completions, admissions, window openings)
    /// contribute their length and most recent entry, which pins down the
    /// divergence point without rescanning the whole history on every
    /// boundary. Hash values only compare states within one process and are
    /// never persisted.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        let mut hash = Fnv1a::new();
        self.state_words(&mut |word| hash.word(word));
        hash.finish()
    }

    /// Feeds the machine's canonical state words — the preimage of
    /// [`state_hash`](Machine::state_hash) — to `word`.
    ///
    /// The observability hub (`metrics`, `obs_supervision_seen`) is
    /// deliberately **excluded**: it is derived observation that never
    /// influences execution, and hashing it would make an instrumented
    /// run's boundary hashes differ from a bare run's — breaking the
    /// metrics-on/metrics-off byte-identity guarantee and replay-journal
    /// compatibility across the two. The hub still travels with
    /// [`snapshot`](Machine::snapshot)/[`restore`](Machine::restore), so a
    /// resumed run reproduces its metrics exactly.
    fn state_words(&self, word: &mut impl FnMut(u64)) {
        word(self.now.as_nanos());
        word(self.current_slot);
        word(match self.config.mode {
            IrqHandlingMode::Baseline => 0,
            IrqHandlingMode::Interposed => 1,
        });
        let arrivals = self.arrivals.digest();
        word(arrivals.count());
        word(arrivals.sum());
        for timer in &self.timers {
            match timer {
                None => word(0),
                Some(timer) => {
                    word(1);
                    word(timer.at.as_nanos());
                    word(timer.order);
                    word(timer.arrivals);
                }
            }
        }
        word(self.next_boundary);
        match &self.hv {
            None => word(0),
            Some(block) => {
                word(1);
                word(block.started.as_nanos());
                hv_cont_words(&block.cont, word);
            }
        }
        match &self.activity {
            Activity::None => word(0),
            Activity::User { partition, since } => {
                word(1);
                word(partition.index() as u64);
                word(since.as_nanos());
            }
            Activity::Bottom { partition, since } => {
                word(2);
                word(partition.index() as u64);
                word(since.as_nanos());
            }
        }
        match &self.window {
            None => word(0),
            Some(w) => {
                word(1);
                word(w.partition.index() as u64);
                word(w.opened.as_nanos());
                word(w.budget_end.as_nanos());
                word(w.source.index() as u64);
                word(u64::from(w.shrunk));
            }
        }
        match self.pending_boundary {
            None => word(0),
            Some(index) => {
                word(1);
                word(index);
            }
        }
        word(self.latched.len() as u64);
        for irq in &self.latched {
            word(irq.source.index() as u64);
            word(irq.seq);
            word(irq.arrival.as_nanos());
            word(irq.work.as_nanos());
        }
        for partition in &self.partitions {
            word(partition.queue.len() as u64);
            for pending in &partition.queue {
                word(pending.source.index() as u64);
                word(pending.seq);
                word(pending.arrival.as_nanos());
                word(pending.work.as_nanos());
                word(pending.remaining.as_nanos());
            }
        }
        for monitor in &self.monitors {
            match monitor {
                None => word(0),
                Some(shaper) => {
                    word(1);
                    shaper.state_words(word);
                }
            }
        }
        match &self.supervisor {
            None => word(0),
            Some(supervisor) => {
                word(1);
                supervisor.state_words(word);
            }
        }
        counter_words(&self.counters, word);
        for &seq in &self.next_seq {
            word(seq);
        }
        word(self.expected_completions);
        word(self.recorder.len() as u64);
        if let Some(last) = self.recorder.completions().last() {
            word(last.source.index() as u64);
            word(last.seq);
            word(last.partition.index() as u64);
            word(last.arrival.as_nanos());
            word(last.completed.as_nanos());
            word(match last.class {
                HandlingClass::Direct => 0,
                HandlingClass::Interposed => 1,
                HandlingClass::Delayed => 2,
            });
        }
        word(self.window_openings.len() as u64);
        if let Some(last) = self.window_openings.last() {
            word(last.as_nanos());
        }
        word(self.admissions.len() as u64);
        if let Some(last) = self.admissions.last() {
            word(last.source.index() as u64);
            word(last.seq);
            word(last.check_at.as_nanos());
            word(u64::from(last.admitted));
        }
        word(u64::from(self.defect.is_some()));
    }

    /// Advances the supervision state machines to current virtual time,
    /// taking any time-based recovery edges that became due. Called after
    /// every processed event so a quarantined source that simply goes
    /// silent still recovers.
    fn supervise_tick(&mut self) {
        let now = self.now;
        if let Some(supervisor) = &mut self.supervisor {
            supervisor.tick(now, &mut self.counters);
            // Tail any new health transitions into the flight recorder.
            // This runs after every handled event, so transitions raised
            // mid-event (signals) are captured in the same tick as
            // time-based recovery edges.
            if let Some(metrics) = &mut self.metrics {
                let events = supervisor.events();
                for event in &events[self.obs_supervision_seen..] {
                    if let SupervisionEventKind::Transition(transition) = event.kind {
                        metrics.record_health(
                            event.at,
                            event.source,
                            transition.from.slug(),
                            transition.to.slug(),
                        );
                    }
                }
                self.obs_supervision_seen = events.len();
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Arms the timer of `slot` at `at`, numbered after every event
    /// scheduled so far.
    fn arm(&mut self, slot: TimerSlot, at: Instant) {
        debug_assert!(
            self.timers[slot as usize].is_none(),
            "at most one {slot:?} timer is pending"
        );
        self.timers[slot as usize] = Some(Timer {
            at,
            order: self.timers_armed,
            arrivals: self.arrivals_scheduled,
        });
        self.timers_armed += 1;
    }

    /// Takes the next event due at or before `limit`, advancing
    /// [`now`](Machine::now) to it: the earliest of the three timers and
    /// the first pending arrival. At equal instants the one scheduled
    /// first wins, exactly as if every event waited in one queue. Idle
    /// TDMA rotations on the way are [skipped](Machine::skip_idle_rotations)
    /// rather than returned.
    fn next_event(&mut self, limit: Instant) -> Option<Event> {
        loop {
            let mut first: Option<(TimerSlot, Timer)> = None;
            for slot in TimerSlot::ALL {
                if let Some(timer) = self.timers[slot as usize] {
                    if first.is_none_or(|(_, f)| (timer.at, timer.order) < (f.at, f.order)) {
                        first = Some((slot, timer));
                    }
                }
            }
            let arrival = self.arrivals.peek().map(Arrival::key);
            let timer_first = match (first, arrival) {
                (Some((_, timer)), Some((at, order))) => {
                    timer.at < at || (timer.at == at && order >= timer.arrivals)
                }
                (timer, _) => timer.is_some(),
            };
            if timer_first {
                let (slot, timer) = first?;
                if timer.at > limit {
                    return None;
                }
                if matches!(slot, TimerSlot::Boundary)
                    && self.skip_idle_rotations(limit, arrival.map(|(at, _)| at))
                {
                    continue;
                }
                self.timers[slot as usize] = None;
                self.now = timer.at;
                return Some(match slot {
                    TimerSlot::HvEnd => Event::HvEnd,
                    TimerSlot::SegEnd => Event::SegEnd,
                    TimerSlot::Boundary => Event::Boundary {
                        index: self.next_boundary,
                    },
                });
            }
            if arrival?.0 > limit {
                return None;
            }
            let arrival = self.arrivals.pop()?;
            self.now = arrival.at;
            return Some(Event::Arrival {
                source: arrival.source,
                seq: arrival.seq,
                work: arrival.work,
            });
        }
    }

    fn handle(&mut self, event: Event) {
        self.counters.events_processed += 1;
        match event {
            Event::Arrival { source, seq, work } => self.on_arrival(source, seq, work),
            Event::HvEnd => self.on_hv_end(),
            Event::SegEnd => self.on_segment_end(),
            Event::Boundary { index } => self.on_boundary(index),
        }
    }

    fn on_arrival(&mut self, source: IrqSourceId, seq: u64, work: Duration) {
        let arrival = self.now();
        // Supervision judges the *raw* hardware arrival stream (timestamp
        // timer semantics): conformant arrivals pay back penalty score and
        // drive recovery; violations restart the clean stretch. Latching
        // does not distort this — the hardware timestamp is `arrival`.
        if let Some(supervisor) = &mut self.supervisor {
            supervisor.observe_arrival(source.index(), arrival, &mut self.counters);
        }
        if let Some(metrics) = &mut self.metrics {
            metrics.record_raised(arrival, source.index());
        }
        if self.hv.is_some() {
            self.counters.latched_irqs += 1;
            if let Some(metrics) = &mut self.metrics {
                metrics.record_deferred(arrival, source.index());
            }
            self.latched.push_back(LatchedIrq {
                source,
                seq,
                arrival,
                work,
            });
            return;
        }
        self.preempt_activity();
        self.begin_top_handler(source, seq, arrival, work);
    }

    fn on_hv_end(&mut self) {
        let Some(block) = self.hv.take() else {
            return self.fail("HvEnd without running hypervisor block");
        };
        self.counters.hypervisor_time += self.now().duration_since(block.started);
        let ended = self.now();
        if let Some(trace) = &mut self.hv_trace {
            trace.push(Span {
                start: block.started,
                end: ended,
            });
        }
        match block.cont {
            HvCont::TopHandler {
                source,
                seq,
                arrival,
                work,
            } => self.after_top_handler(source, seq, arrival, work),
            HvCont::EnterInterposed {
                partition,
                budget,
                source,
                shrunk,
            } => {
                self.window = Some(InterposedWindow {
                    partition,
                    opened: self.now(),
                    budget_end: self.now() + budget,
                    source,
                    shrunk,
                });
                self.dispatch();
            }
            HvCont::ExitInterposed => self.dispatch(),
            HvCont::SlotSwitch { slot } => {
                self.current_slot = slot;
                self.dispatch();
            }
        }
    }

    fn on_segment_end(&mut self) {
        let now = self.now();
        let Activity::Bottom {
            partition, since, ..
        } = mem::take(&mut self.activity)
        else {
            return self.fail("SegEnd without a running bottom-handler segment");
        };
        let elapsed = now.duration_since(since);
        self.counters.service[partition.index()].bottom += elapsed;
        self.record_service(partition, since, now, ServiceKind::Bottom);
        let rt = &mut self.partitions[partition.index()];
        let Some(front) = rt.queue.front_mut() else {
            return self.fail("bottom segment without a pending IRQ");
        };
        front.remaining = front.remaining.saturating_sub(elapsed);
        if front.remaining.is_zero() {
            let Some(pending) = rt.queue.pop_front() else {
                return self.fail("completed queue front vanished");
            };
            let class = if self.window.is_some() {
                HandlingClass::Interposed
            } else if self.schedule.owner_at(pending.arrival) == partition {
                HandlingClass::Direct
            } else {
                HandlingClass::Delayed
            };
            if let Some(metrics) = &mut self.metrics {
                metrics.record_completion(
                    now,
                    pending.source.index(),
                    now.duration_since(pending.arrival),
                );
            }
            self.recorder.record(IrqCompletion {
                source: pending.source,
                seq: pending.seq,
                partition,
                arrival: pending.arrival,
                completed: now,
                class,
            });
            if self.window.is_some() {
                self.close_window();
            } else {
                self.dispatch();
            }
        } else {
            // The segment was cut by the interposition budget: the window
            // expired with work left, which re-queues at the front and waits
            // for the subscriber's own slot (or a later admission).
            debug_assert!(
                self.window.is_some_and(|w| now >= w.budget_end),
                "partial segment end must coincide with budget expiry"
            );
            self.counters.expired_windows += 1;
            self.signal_budget_clip(now);
            self.close_window();
        }
    }

    /// Charges a budget-clip penalty against the open window's source —
    /// unless the window ran under a supervision-shrunk budget, where a
    /// clip of full-`C_BH` work is the *expected* degraded-mode outcome
    /// and must not feed back into the score (that spiral would make
    /// recovery unreachable).
    fn signal_budget_clip(&mut self, now: Instant) {
        let Some(window) = self.window else {
            return;
        };
        // The flight recorder logs every clip, including expected ones
        // under a supervision-shrunk budget; only the health *penalty*
        // below is waived for those.
        if let Some(metrics) = &mut self.metrics {
            metrics.record_budget_clip(now, window.partition.index());
        }
        if window.shrunk {
            return;
        }
        if let Some(supervisor) = &mut self.supervisor {
            supervisor.signal(
                window.source.index(),
                HealthSignal::BudgetClip,
                now,
                &mut self.counters,
            );
        }
    }

    fn on_boundary(&mut self, index: u64) {
        let boundary_now = self.now();
        if let Some(metrics) = &mut self.metrics {
            metrics.record_slot_boundary(boundary_now, index as usize);
        }
        let next = index + 1;
        let next_at = self.schedule.boundary_time(next);
        if next_at < boundary_now {
            return self.fail("next TDMA boundary not in the future");
        }
        self.next_boundary = next;
        self.arm(TimerSlot::Boundary, next_at);
        if self.window.is_some() {
            match self.config.policies.boundary {
                BoundaryPolicy::DeferToWindow => {
                    // An interposed window is active (or being
                    // entered/exited): the rotation defers until the window
                    // closes. The deferral is bounded by the window budget
                    // plus the bracketing context switches — exactly the
                    // C'_BH interference Eq. 14 accounts.
                    self.counters.deferred_boundaries += 1;
                    self.pending_boundary = Some(index);
                }
                BoundaryPolicy::AbortWindow => {
                    if self.hv.is_some() {
                        // Terminate the window as soon as the hypervisor
                        // block ends.
                        self.pending_boundary = Some(index);
                    } else {
                        self.preempt_activity();
                        let Some(window) = self.window.take() else {
                            return self.fail("abort without an open window");
                        };
                        self.record_window_span(window);
                        self.counters.aborted_windows += 1;
                        self.start_slot_switch(index);
                    }
                }
            }
        } else if self.hv.is_some() {
            // Hypervisor primitives run with interrupts latched; the
            // rotation happens right after the current block.
            self.pending_boundary = Some(index);
        } else {
            self.preempt_activity();
            self.start_slot_switch(index);
        }
    }

    /// Whether a TDMA rotation starting now would only switch partitions:
    /// the active partition's user task runs, no hypervisor block, window,
    /// deferred rotation, latched IRQ or bottom segment is in flight, and
    /// every partition's IRQ queue is empty.
    fn idle(&self) -> bool {
        matches!(self.activity, Activity::User { .. })
            && self.hv.is_none()
            && self.window.is_none()
            && self.pending_boundary.is_none()
            && self.latched.is_empty()
            && self.timers[TimerSlot::HvEnd as usize].is_none()
            && self.timers[TimerSlot::SegEnd as usize].is_none()
            && self.partitions.iter().all(|p| p.queue.is_empty())
    }

    /// Jumps an idle machine over every TDMA rotation whose slot switch
    /// ends before the next arrival (`next_arrival`), the following
    /// boundary and the supervisor's next due edge, and no later than
    /// `limit`. Returns whether it skipped any.
    ///
    /// A skipped rotation dispatches no event, yet leaves exactly what its
    /// `Boundary` and slot-switch `HvEnd` events would have: the outgoing
    /// partition's user service, the context and slot switch counts, `C_ctx`
    /// of hypervisor time, two processed events and two armed timers, and
    /// with tracing or metrics on the same service interval, hypervisor
    /// span and slot-boundary record. An arrival due at a switch's end
    /// fires before that end (it was scheduled before the `HvEnd` was
    /// armed), so the skip stops short of it, and supervision takes no
    /// edge before its due instant, so the ticks the skipped events would
    /// have run change nothing.
    fn skip_idle_rotations(&mut self, limit: Instant, next_arrival: Option<Instant>) -> bool {
        if !self.idle() {
            return false;
        }
        let Some(boundary) = self.timers[TimerSlot::Boundary as usize] else {
            return false;
        };
        let Activity::User {
            mut partition,
            mut since,
        } = self.activity
        else {
            return false;
        };
        let due = self.supervisor.as_ref().and_then(Supervisor::next_due);
        let switch = self.config.costs.context_switch;
        let first = self.next_boundary;
        let mut index = first;
        let mut at = boundary.at;
        loop {
            let end = at + switch;
            let next_at = self.schedule.boundary_time(index + 1);
            if end > limit
                || end >= next_at
                || next_arrival.is_some_and(|arrival| end >= arrival)
                || due.is_some_and(|due| end >= due)
            {
                break;
            }
            if let Some(metrics) = &mut self.metrics {
                metrics.record_slot_boundary(at, index as usize);
            }
            self.counters.service[partition.index()].user += at.duration_since(since);
            self.record_service(partition, since, at, ServiceKind::User);
            if let Some(trace) = &mut self.hv_trace {
                trace.push(Span { start: at, end });
            }
            partition = self.schedule.owner_of_slot(index);
            since = end;
            index += 1;
            at = next_at;
        }
        let skipped = index - first;
        if skipped == 0 {
            return false;
        }
        self.counters.events_processed += 2 * skipped;
        self.counters.context_switches += skipped;
        self.counters.slot_switches += skipped;
        self.counters.hypervisor_time += switch * skipped;
        self.timers_armed += 2 * skipped;
        self.timers[TimerSlot::Boundary as usize] = Some(Timer {
            at,
            order: self.timers_armed - 2,
            arrivals: self.arrivals_scheduled,
        });
        self.next_boundary = index;
        self.current_slot = index - 1;
        self.activity = Activity::User { partition, since };
        self.now = since;
        true
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    /// Partition whose code runs at partition level right now: the window's
    /// partition during an interposed window, otherwise the slot owner.
    fn active_partition(&self) -> PartitionId {
        match &self.window {
            Some(w) => w.partition,
            None => self.schedule.owner_of_slot(self.current_slot),
        }
    }

    /// Starts a hypervisor block of `duration`; IRQs latch until it ends.
    fn start_hv(&mut self, duration: Duration, cont: HvCont) {
        debug_assert!(self.hv.is_none(), "hypervisor blocks never nest");
        debug_assert!(
            matches!(self.activity, Activity::None),
            "partition activity must be preempted before hypervisor work"
        );
        self.arm(TimerSlot::HvEnd, self.now + duration);
        self.hv = Some(HvBlock {
            cont,
            started: self.now(),
        });
    }

    /// Appends a service interval when tracing is enabled.
    fn record_service(
        &mut self,
        partition: PartitionId,
        start: Instant,
        end: Instant,
        kind: ServiceKind,
    ) {
        if start == end {
            return;
        }
        if let Some(trace) = &mut self.service_trace {
            trace[partition.index()].push(ServiceInterval { start, end, kind });
        }
    }

    /// Saves the progress of the current partition-level activity.
    fn preempt_activity(&mut self) {
        let now = self.now();
        match mem::take(&mut self.activity) {
            Activity::None => {}
            Activity::User { partition, since } => {
                self.counters.service[partition.index()].user += now.duration_since(since);
                self.record_service(partition, since, now, ServiceKind::User);
            }
            Activity::Bottom { partition, since } => {
                self.timers[TimerSlot::SegEnd as usize] = None;
                let elapsed = now.duration_since(since);
                self.counters.service[partition.index()].bottom += elapsed;
                self.record_service(partition, since, now, ServiceKind::Bottom);
                match self.partitions[partition.index()].queue.front_mut() {
                    Some(front) => front.remaining = front.remaining.saturating_sub(elapsed),
                    None => self.fail("bottom segment without a pending IRQ"),
                }
            }
        }
    }

    fn begin_top_handler(
        &mut self,
        source: IrqSourceId,
        seq: u64,
        arrival: Instant,
        work: Duration,
    ) {
        let spec = &self.config.sources[source.index()];
        let foreign = spec.subscriber != self.active_partition();
        let monitored = self.config.mode == IrqHandlingMode::Interposed
            && self.monitors[source.index()].is_some();
        // A quarantined source is demoted to slot-local handling: the
        // monitoring function is not consulted, so its C_Mon is not paid.
        let quarantined = self
            .supervisor
            .as_ref()
            .is_some_and(|s| s.is_quarantined(source.index()));
        // Eq. 15: the monitoring function extends the top handler for
        // foreign-slot IRQs of monitored sources.
        let cost = if foreign && monitored && !quarantined {
            self.config.costs.monitored_top_cost()
        } else {
            self.config.costs.top_handler
        };
        self.start_hv(
            cost,
            HvCont::TopHandler {
                source,
                seq,
                arrival,
                work,
            },
        );
    }

    fn after_top_handler(
        &mut self,
        source: IrqSourceId,
        seq: u64,
        arrival: Instant,
        work: Duration,
    ) {
        let now = self.now();
        let spec = &self.config.sources[source.index()];
        let subscriber = spec.subscriber;
        let budget = spec.bottom_cost;
        let flag = spec.flag_semantics;
        // The top handler pushes the event into the queue of *each*
        // subscribing partition (Figure 2 / Section 3); queues preserve
        // FIFO order. Under non-counting flag semantics an event whose
        // request is still pending unserviced is absorbed and lost — the
        // effect the paper warns about for masked sources.
        for partition in spec.subscribers() {
            if flag == crate::IrqFlagSemantics::Flag {
                let already_pending = self.partitions[partition.index()]
                    .queue
                    .iter()
                    .any(|p| p.source == source && p.remaining == p.work);
                if already_pending {
                    self.counters.coalesced_irqs += 1;
                    continue;
                }
            }
            // A bounded queue degrades gracefully: overflow is resolved by
            // policy and counted, never a silent loss or unbounded growth.
            if let Some(capacity) = self.config.partitions[partition.index()].queue_capacity {
                let queue = &mut self.partitions[partition.index()].queue;
                if queue.len() >= capacity {
                    match self.config.policies.overflow {
                        OverflowPolicy::RejectNewest => {
                            self.counters.overflow_rejected += 1;
                            if let Some(metrics) = &mut self.metrics {
                                metrics.record_overflow(now, source.index());
                            }
                            // The arriving source caused the pressure; the
                            // overflow is charged against its health score.
                            if let Some(supervisor) = &mut self.supervisor {
                                supervisor.signal(
                                    source.index(),
                                    HealthSignal::Overflow,
                                    now,
                                    &mut self.counters,
                                );
                            }
                            continue;
                        }
                        OverflowPolicy::DropOldest => {
                            // Partition activity is always preempted before
                            // hypervisor work, so the front is not mid-run.
                            queue.pop_front();
                            self.counters.overflow_dropped += 1;
                            if let Some(metrics) = &mut self.metrics {
                                metrics.record_overflow(now, source.index());
                            }
                            if let Some(supervisor) = &mut self.supervisor {
                                supervisor.signal(
                                    source.index(),
                                    HealthSignal::Overflow,
                                    now,
                                    &mut self.counters,
                                );
                            }
                        }
                    }
                }
            }
            self.partitions[partition.index()]
                .queue
                .push_back(PendingIrq {
                    source,
                    seq,
                    arrival,
                    work,
                    remaining: work,
                });
        }
        // Watchdog: a single activation demanding a non-yielding amount of
        // bottom-handler work (≥ factor × declared C_BH) is flagged before
        // any admission decision — the guest would not give the window back.
        if let Some(supervisor) = &mut self.supervisor {
            let factor = u64::from(supervisor.policy().watchdog_factor);
            if !budget.is_zero() && work.as_nanos() >= budget.as_nanos().saturating_mul(factor) {
                supervisor.signal(
                    source.index(),
                    HealthSignal::NonYielding,
                    now,
                    &mut self.counters,
                );
            }
        }
        let foreign = subscriber != self.active_partition();
        // A quarantined source is demoted to slot-local (delayed) handling:
        // interposition is suspended entirely and the monitor not consulted,
        // so no admission is recorded and no C_Mon is charged.
        let quarantined = self
            .supervisor
            .as_ref()
            .is_some_and(|s| s.is_quarantined(source.index()));
        let mut interpose = false;
        let mut enforced_budget = budget;
        let mut shrunk = false;
        if foreign
            && self.config.mode == IrqHandlingMode::Interposed
            && self.window.is_none()
            && !quarantined
        {
            if let Some(monitor) = &mut self.monitors[source.index()] {
                // By default the monitoring condition is evaluated on the
                // hardware IRQ timestamp (the paper's timestamp timer), not
                // on the — possibly latched — top-handler completion time;
                // otherwise hypervisor-induced jitter would spuriously deny
                // arrivals that conform to d_min. The processing-time
                // variant exists for ablation.
                let check_at = match self.config.policies.admission_clock {
                    AdmissionClock::IrqTimestamp => arrival,
                    AdmissionClock::ProcessingTime => now,
                };
                let admission = monitor.try_admit_detailed(check_at);
                let admitted = matches!(admission, Admission::Admitted);
                self.admissions.push(AdmissionRecord {
                    source,
                    seq,
                    check_at,
                    admitted,
                });
                if let Some(metrics) = &mut self.metrics {
                    match admission {
                        Admission::Admitted => {
                            metrics.record_admitted(check_at, source.index());
                        }
                        Admission::Denied { violated_distance } => metrics.record_denied(
                            check_at,
                            source.index(),
                            (violated_distance != usize::MAX).then_some(violated_distance as u64),
                        ),
                    }
                }
                if admitted {
                    interpose = true;
                    self.counters.monitor_admitted += 1;
                    // Degraded mode (Probation/Recovering): the enforced
                    // window budget shrinks, trading the source's own
                    // completion for tighter interference on its victims.
                    if let Some(supervisor) = &self.supervisor {
                        let (effective, was_shrunk) =
                            supervisor.effective_budget(source.index(), budget);
                        enforced_budget = effective;
                        shrunk = was_shrunk;
                    }
                } else {
                    self.counters.monitor_denied += 1;
                    if let Some(supervisor) = &mut self.supervisor {
                        supervisor.signal(
                            source.index(),
                            HealthSignal::Denied,
                            now,
                            &mut self.counters,
                        );
                    }
                }
            }
        } else if foreign
            && self.config.mode == IrqHandlingMode::Interposed
            && quarantined
            && self.monitors[source.index()].is_some()
        {
            self.counters.supervised_demotions += 1;
        }
        if interpose {
            if shrunk {
                self.counters.shrunk_windows += 1;
            }
            self.window_openings.push(now);
            self.counters.interposed_windows += 1;
            self.counters.context_switches += 1;
            self.start_hv(
                self.config.costs.sched_manip + self.config.costs.context_switch,
                HvCont::EnterInterposed {
                    partition: subscriber,
                    budget: enforced_budget,
                    source,
                    shrunk,
                },
            );
        } else {
            self.dispatch();
        }
    }

    /// Starts the TDMA context switch into slot `index`.
    fn start_slot_switch(&mut self, index: u64) {
        debug_assert!(self.window.is_none(), "rotation never preempts a window");
        self.counters.context_switches += 1;
        self.counters.slot_switches += 1;
        self.start_hv(
            self.config.costs.context_switch,
            HvCont::SlotSwitch { slot: index },
        );
    }

    /// Records a cleared window's span in the execution trace.
    fn record_window_span(&mut self, window: InterposedWindow) {
        let ended = self.now();
        if let Some(trace) = &mut self.window_trace {
            trace.push(Span {
                start: window.opened,
                end: ended,
            });
        }
    }

    /// Closes the open interposed window: one context switch back to the
    /// interrupted slot owner.
    fn close_window(&mut self) {
        let Some(window) = self.window.take() else {
            return self.fail("close without an open window");
        };
        self.record_window_span(window);
        self.counters.context_switches += 1;
        self.start_hv(self.config.costs.context_switch, HvCont::ExitInterposed);
    }

    /// Central dispatch after hypervisor work: drain latched IRQs, honour a
    /// deferred slot switch, then resume partition-level execution.
    fn dispatch(&mut self) {
        debug_assert!(self.hv.is_none());
        if let Some(latched) = self.latched.pop_front() {
            self.begin_top_handler(latched.source, latched.seq, latched.arrival, latched.work);
            return;
        }
        // A deferred rotation waits further while a window is still open
        // (defer policy) or terminates the window now (abort policy).
        if let Some(index) = self.pending_boundary {
            let rotate = match self.config.policies.boundary {
                BoundaryPolicy::DeferToWindow => self.window.is_none(),
                BoundaryPolicy::AbortWindow => {
                    if let Some(window) = self.window.take() {
                        self.record_window_span(window);
                        self.counters.aborted_windows += 1;
                    }
                    true
                }
            };
            if rotate {
                self.pending_boundary = None;
                self.start_slot_switch(index);
                return;
            }
        }
        self.resume_partition();
    }

    /// Resumes partition-level execution for the active partition.
    fn resume_partition(&mut self) {
        let now = self.now();
        if let Some(window) = self.window {
            if now >= window.budget_end {
                // The budget elapsed while the hypervisor was busy.
                if !self.partitions[window.partition.index()].queue.is_empty() {
                    self.counters.expired_windows += 1;
                    self.signal_budget_clip(now);
                }
                self.close_window();
                return;
            }
        }
        let partition = self.active_partition();
        let front_remaining = self.partitions[partition.index()]
            .queue
            .front()
            .map(|p| p.remaining);
        match front_remaining {
            Some(remaining) => {
                let mut end = now + remaining;
                if let Some(window) = self.window {
                    end = end.min(window.budget_end);
                }
                // `end >= now`: `remaining` is non-negative and an open
                // window's budget end was checked above to lie ahead of
                // `now`, so the clamp cannot move the end into the past.
                if end < now {
                    return self.fail("segment end in the past");
                }
                self.arm(TimerSlot::SegEnd, end);
                self.activity = Activity::Bottom {
                    partition,
                    since: now,
                };
            }
            None if self.window.is_some() => {
                // Nothing left to run in the window (the admitted IRQ was
                // already drained); hand the slot back.
                self.close_window();
            }
            None => {
                self.activity = Activity::User {
                    partition,
                    since: now,
                };
            }
        }
    }
}

/// A deep checkpoint of a [`Machine`]'s complete execution state, produced
/// by [`Machine::snapshot`] and consumed by [`Machine::restore`].
///
/// The snapshot is opaque plain data: a clone of the whole machine —
/// configuration (including runtime mutations), TDMA schedule position,
/// the three timer slots, the pending arrivals (the shared stream by
/// pointer, its cursor and the side heap), the running hypervisor block,
/// partition queues, per-source admission monitors with their δ⁻ trace
/// rings, the supervision state machines, counters, and all record
/// buffers. Because it is the machine itself, a field added to
/// [`Machine`] is captured and restored without any further code. Restoring it onto
/// any machine built from a compatible configuration resumes the run
/// bit-identically.
#[derive(Debug, Clone)]
pub struct MachineSnapshot(Machine);

impl MachineSnapshot {
    /// Virtual time at which the snapshot was taken.
    #[must_use]
    pub fn taken_at(&self) -> Instant {
        self.0.now
    }
}

/// Feeds `word` the canonical word encoding of a hypervisor-block continuation.
fn hv_cont_words(cont: &HvCont, word: &mut impl FnMut(u64)) {
    match cont {
        HvCont::TopHandler {
            source,
            seq,
            arrival,
            work,
        } => {
            word(0);
            word(source.index() as u64);
            word(*seq);
            word(arrival.as_nanos());
            word(work.as_nanos());
        }
        HvCont::EnterInterposed {
            partition,
            budget,
            source,
            shrunk,
        } => {
            word(1);
            word(partition.index() as u64);
            word(budget.as_nanos());
            word(source.index() as u64);
            word(u64::from(*shrunk));
        }
        HvCont::ExitInterposed => word(2),
        HvCont::SlotSwitch { slot } => {
            word(3);
            word(*slot);
        }
    }
}

/// Feeds `word` every [`Counters`] scalar plus per-partition service
/// accounting.
fn counter_words(counters: &Counters, word: &mut impl FnMut(u64)) {
    word(counters.context_switches);
    word(counters.slot_switches);
    word(counters.hypervisor_time.as_nanos());
    word(counters.interposed_windows);
    word(counters.deferred_boundaries);
    word(counters.aborted_windows);
    word(counters.expired_windows);
    word(counters.latched_irqs);
    word(counters.coalesced_irqs);
    word(counters.overflow_rejected);
    word(counters.overflow_dropped);
    word(counters.monitor_admitted);
    word(counters.monitor_denied);
    word(counters.events_processed);
    word(counters.supervised_demotions);
    word(counters.shrunk_windows);
    word(counters.quarantine_entries);
    word(counters.recoveries);
    for service in &counters.service {
        word(service.user.as_nanos());
        word(service.bottom.as_nanos());
    }
}

/// Typed error hierarchy of the hypervisor machine.
///
/// Construction failures wrap [`ConfigError`], run-time scheduling failures
/// wrap [`ScheduleIrqError`], and internal-invariant violations — which
/// previously panicked — surface as [`MachineError::InvariantViolated`]
/// through [`Machine::defect`] / [`RunReport::defect`], so a corrupted run
/// degrades into inspectable data instead of a crash.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// An IRQ arrival could not be scheduled.
    Schedule(ScheduleIrqError),
    /// The machine detected an internal execution-model invariant breach
    /// and froze the run at `at`.
    InvariantViolated {
        /// Which invariant was violated.
        context: &'static str,
        /// Virtual time of detection.
        at: Instant,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Config(e) => e.fmt(f),
            MachineError::Schedule(e) => e.fmt(f),
            MachineError::InvariantViolated { context, at } => {
                write!(f, "machine invariant violated at {at}: {context}")
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Config(e) => Some(e),
            MachineError::Schedule(e) => Some(e),
            MachineError::InvariantViolated { .. } => None,
        }
    }
}

impl From<ConfigError> for MachineError {
    fn from(e: ConfigError) -> Self {
        MachineError::Config(e)
    }
}

impl From<ScheduleIrqError> for MachineError {
    fn from(e: ScheduleIrqError) -> Self {
        MachineError::Schedule(e)
    }
}

/// Error returned by [`Machine::schedule_irq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleIrqError {
    /// The source index does not exist in the configuration.
    UnknownSource {
        /// The offending source id.
        source: IrqSourceId,
    },
    /// The requested arrival time is before current virtual time.
    InPast {
        /// The rejected arrival time.
        at: Instant,
        /// Current virtual time.
        now: Instant,
    },
    /// The source is currently quarantined by runtime health supervision:
    /// new arrivals for it are refused (and surfaced to the caller) rather
    /// than silently counted against a demoted source.
    SourceQuarantined {
        /// The quarantined source id.
        source: IrqSourceId,
    },
}

impl std::fmt::Display for ScheduleIrqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleIrqError::UnknownSource { source } => {
                write!(f, "unknown IRQ source {source}")
            }
            ScheduleIrqError::InPast { at, now } => {
                write!(f, "cannot schedule IRQ at {at}; simulation time is {now}")
            }
            ScheduleIrqError::SourceQuarantined { source } => {
                write!(f, "IRQ source {source} is quarantined by supervision")
            }
        }
    }
}

impl std::error::Error for ScheduleIrqError {}
