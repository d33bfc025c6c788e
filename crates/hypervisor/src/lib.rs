//! TDMA real-time hypervisor platform model — baseline and interposed
//! interrupt handling.
//!
//! This crate is the executable substrate of the DAC'14 reproduction: a
//! deterministic simulation of the paper's uC/OS-MMU-style hypervisor on a
//! single CPU. It models
//!
//! * **TDMA partition scheduling** ([`TdmaSchedule`]) with per-slot context
//!   switches,
//! * **split interrupt handling**: top handlers in hypervisor context push
//!   events into per-partition IRQ queues; bottom handlers execute at
//!   partition level in FIFO order,
//! * the paper's **modified top handler** ([`IrqHandlingMode::Interposed`]):
//!   foreign-slot IRQs of monitored sources may run their bottom handler
//!   immediately inside an enforced, budgeted *interposed window* when the
//!   δ⁻ monitor admits them,
//! * an explicit **cost model** ([`CostModel`]) charging `C_TH`, `C_Mon`,
//!   `C_sched` and `C_ctx` along exactly the control paths of the paper's
//!   Figures 4a/4b.
//!
//! The main entry point is [`Machine`]; see its docs for a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod ids;
mod machine;
mod platform;
mod record;
mod schedule;
mod supervise;
mod timeline;

pub use config::{
    AdmissionClock, BoundaryPolicy, ConfigError, CostModel, EngineChoice, HypervisorConfig,
    IrqFlagSemantics, IrqHandlingMode, IrqSourceSpec, OverflowPolicy, PartitionSpec, PolicyOptions,
    SlotSpec,
};
pub use ids::{IrqSourceId, PartitionId};
pub use machine::{Machine, MachineError, MachineSnapshot, RunReport, ScheduleIrqError};
pub use platform::{
    CoreCounters, CoreFault, FailoverPolicy, FallbackRoute, MultiMachine, MultiRunReport,
    MultiSnapshot, Platform, PlatformError, PlatformScheduleError, PlatformSource, RerouteBudget,
    ShedReason, ShedRecord,
};
pub use record::{
    AdmissionRecord, Counters, HandlingClass, IrqCompletion, PartitionService, ServiceInterval,
    ServiceKind, Span, TraceRecorder,
};
pub use rthv_sim::{EngineKind, EngineStats};
pub use schedule::TdmaSchedule;
pub use supervise::{
    HealthSignal, HealthState, HealthTracker, HealthTransition, SupervisionEvent,
    SupervisionEventKind, SupervisionPolicy, SupervisionReport, Supervisor, TransitionCause,
};
pub use timeline::render_timeline;
