//! # rthv — sufficient temporal independence and improved interrupt
//! latencies in a real-time hypervisor
//!
//! A from-scratch Rust reproduction of *Beckert, Neukirchner, Ernst,
//! Petters: "Sufficient Temporal Independence and Improved Interrupt
//! Latencies in a Real-Time Hypervisor"* (DAC 2014).
//!
//! TDMA-scheduled hypervisors isolate partitions completely — at the cost
//! of interrupt latencies governed by the TDMA cycle: an IRQ arriving right
//! after its subscriber's slot waits almost a full cycle for its bottom
//! handler. The paper relaxes complete isolation to **sufficient temporal
//! independence**: bottom handlers may run inside *foreign* slots
//! (*interposed* handling) as long as a δ⁻ activation monitor bounds how
//! often, which bounds the interference on every other partition
//! (`⌈Δt/d_min⌉ · C'_BH`, Eq. 14).
//!
//! This facade crate re-exports the whole stack and adds:
//!
//! * [`SystemBuilder`] — ergonomic construction of a simulated platform;
//! * [`PaperSetup`] — the Section-6 evaluation configuration in one value;
//! * [`scenarios`] — one runner per table/figure of the paper's evaluation
//!   (Figure 6a–c, Figure 7, the Section-6.2 overhead numbers, the
//!   analysis-vs-simulation bound check, and a temporal-independence
//!   experiment).
//!
//! # Quickstart
//!
//! ```
//! use rthv::{SystemBuilder, IrqHandlingMode};
//! use rthv::monitor::DeltaFunction;
//! use rthv::time::{Duration, Instant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two 6 ms application slots and a 2 ms housekeeping slot; one timer
//! // IRQ with a 30 µs bottom handler subscribed by partition 1,
//! // interposable with d_min = 3 ms.
//! let mut machine = SystemBuilder::new()
//!     .partition("app1", Duration::from_micros(6_000))
//!     .partition("app2", Duration::from_micros(6_000))
//!     .partition("housekeeping", Duration::from_micros(2_000))
//!     .monitored_irq_source(
//!         "timer",
//!         1,
//!         Duration::from_micros(30),
//!         DeltaFunction::from_dmin(Duration::from_millis(3))?,
//!     )
//!     .mode(IrqHandlingMode::Interposed)
//!     .build()?;
//!
//! // An IRQ in a foreign slot gets interposed: latency ≪ TDMA cycle.
//! machine.schedule_irq(rthv::IrqSourceId::new(0), Instant::from_micros(100))?;
//! machine.run_until_complete(Instant::from_micros(1_000_000));
//! let report = machine.finish();
//! assert!(report.recorder.max_latency().expect("one IRQ") < Duration::from_micros(200));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod paper;
pub mod scenarios;

pub use builder::{BuildError, SystemBuilder};
pub use paper::PaperSetup;

// The platform types most users need, at the crate root.
pub use rthv_hypervisor::{
    render_timeline, AdmissionClock, AdmissionRecord, BoundaryPolicy, ConfigError, CoreCounters,
    CoreFault, CostModel, Counters, EngineChoice, EngineKind, FailoverPolicy, FallbackRoute,
    HandlingClass, HealthSignal, HealthState, HealthTracker, HealthTransition, HypervisorConfig,
    IrqCompletion, IrqFlagSemantics, IrqHandlingMode, IrqSourceId, IrqSourceSpec, Machine,
    MachineError, MachineSnapshot, MultiMachine, MultiRunReport, MultiSnapshot, OverflowPolicy,
    PartitionId, PartitionService, PartitionSpec, Platform, PlatformError, PlatformScheduleError,
    PlatformSource, PolicyOptions, RerouteBudget, RunReport, ScheduleIrqError, ServiceInterval,
    ServiceKind, ShedReason, ShedRecord, SlotSpec, Span, SupervisionEvent, SupervisionEventKind,
    SupervisionPolicy, SupervisionReport, Supervisor, TdmaSchedule, TraceRecorder, TransitionCause,
};

/// Virtual-time primitives ([`rthv_time`]).
pub mod time {
    pub use rthv_time::{ClockModel, Duration, Instant, InvalidFrequencyError};
}

/// δ⁻ activation monitoring ([`rthv_monitor`]).
pub mod monitor {
    pub use rthv_monitor::{
        interference_bound, interference_bound_dmin, token_bucket_interference, ActivationMonitor,
        Admission, DeltaFunction, DeltaFunctionError, DeltaLearner, MonitorStats, Shaper,
        ShaperConfig, TokenBucket,
    };
}

/// Worst-case latency analysis ([`rthv_analysis`]).
pub mod analysis {
    pub use rthv_analysis::{
        baseline_irq_wcrt, busy_window, chain_latency, guest_task_wcrt, interposed_irq_wcrt,
        irq_best_case, output_event_model, propagate_chain, tdma_interference, violating_irq_wcrt,
        AnalysisError, EventModel, GuestTaskSpec, Interferer, IrqTask, MonitoredSupply,
        PatternLayoutError, PatternSupply, ResponseRange, SupplyBound, TdmaSlot, TdmaSupply,
        WcrtResult,
    };
}

/// Guest-OS task layer ([`rthv_guest`]).
pub mod guest {
    pub use rthv_guest::{
        replay, replay_events, EventTask, GuestReport, GuestTask, GuestTaskSet, TaskReport,
        TaskSetError,
    };
}

/// Arrival-trace generators ([`rthv_workload`]).
pub mod workload {
    pub use rthv_workload::{
        read_trace, write_trace, ArrivalTrace, AutomotiveTraceBuilder, BurstSpec,
        ExponentialArrivals, PeriodicJitterArrivals, PeriodicTaskSpec, ReadTraceError, TraceError,
    };
}

/// Flight-recorder observability: metrics hub, counters, latency
/// histograms, and bound-headroom gauges ([`rthv_obs`]).
pub mod obs {
    pub use rthv_obs::{
        FlightRecorder, HeadroomGauge, MetricsHub, ObsConfig, ObsCounters, ObsEvent, ObsEventKind,
        SourceObs,
    };
}

/// Latency statistics ([`rthv_stats`]).
pub mod stats {
    pub use rthv_stats::{
        csv_field, csv_row, histogram_to_csv, running_average, series_to_csv, HistogramError,
        LatencyHistogram, Summary,
    };
}

/// The deterministic event engines ([`rthv_sim`]).
pub mod sim {
    pub use rthv_sim::{
        EngineKind, EngineQueue, EngineStats, EventId, EventQueue, Fnv1a, SchedulePastError,
        WheelEngine,
    };
}
