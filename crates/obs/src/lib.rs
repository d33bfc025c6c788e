//! # rthv-obs — flight-recorder observability for the DAC'14 reproduction
//!
//! The paper's claims are quantitative: interference inflicted on any
//! partition inside any window Δt must stay below `⌈Δt/d_min⌉ · C'_BH`
//! (Eq. 13–16). The fault-injection oracle checks that bound *post hoc*;
//! this crate provides the *always-on* runtime view:
//!
//! * [`MetricsHub`] — a metrics registry with admission/denial/overflow
//!   counters, per-source latency [`LatencyHistogram`]s and per-source
//!   [`HeadroomGauge`]s comparing observed window interference against the
//!   Eq. 13–16 budget;
//! * [`FlightRecorder`] — a fixed-capacity overwrite-oldest ring of
//!   structured [`ObsEvent`]s (IRQ raised/admitted/denied/deferred, budget
//!   clip, health transition, slot boundary);
//! * [`MetricsHub::snapshot_json`] — a deterministic integer-only JSON
//!   drain of all of the above.
//!
//! Everything is allocated at construction: recording an event, a sample
//! or a gauge tick never allocates, so the hooks are safe on the
//! simulation hot path. Nothing here reads the wall clock or any other
//! ambient state — two runs with equal inputs produce byte-identical
//! snapshots, and a [`MetricsHub`] cloned into a machine snapshot restores
//! bit-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gauge;
mod recorder;

use std::fmt::Write as _;

use rthv_stats::LatencyHistogram;
use rthv_time::{Duration, Instant};

pub use gauge::HeadroomGauge;
pub use recorder::{FlightRecorder, ObsEvent, ObsEventKind};

/// Geometry of a [`MetricsHub`]: ring capacity, latency-histogram bins and
/// the gauge window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Flight-recorder capacity in events.
    pub recorder_capacity: usize,
    /// Latency histogram bin width.
    pub latency_bin_width: Duration,
    /// Latency histogram range (`[0, range)` plus overflow).
    pub latency_range: Duration,
    /// Headroom-gauge window Δt; pick the TDMA cycle to measure the
    /// paper's per-cycle interference budget.
    pub gauge_window: Duration,
}

impl Default for ObsConfig {
    /// 1024-event ring, 50 µs bins over 20 ms, 14 ms gauge window (the
    /// Section-6 TDMA cycle).
    fn default() -> Self {
        ObsConfig {
            recorder_capacity: 1024,
            latency_bin_width: Duration::from_micros(50),
            latency_range: Duration::from_millis(20),
            gauge_window: Duration::from_millis(14),
        }
    }
}

/// Per-source observability parameters, supplied by whoever knows the
/// shaper: the event budget `η⁺(Δt)` for the gauge window and the
/// effective per-activation cost `C'_BH` (Eq. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceObs {
    /// `η⁺(gauge_window)` of the enforced shaper; `None` when the source
    /// is unmonitored (no finite budget exists).
    pub budget_events: Option<u64>,
    /// Charge per admitted activation, `C'_BH = C_BH + C_sched + 2·C_ctx`.
    pub effective_cost: Duration,
}

/// Scalar event counters. All increments are branch-free field bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsCounters {
    /// IRQs raised.
    pub raised: u64,
    /// IRQs latched during hypervisor blocks and deferred.
    pub deferred: u64,
    /// Interposed activations admitted by the shaper.
    pub admitted: u64,
    /// Interposed activations denied by the shaper.
    pub denied: u64,
    /// Bottom handlers completed.
    pub completions: u64,
    /// Window budgets clipped.
    pub budget_clips: u64,
    /// Bounded-queue overflow rejections/drops.
    pub overflows: u64,
    /// Admission-fleet ingress sheds (typed degradation outcomes).
    pub shed: u64,
    /// Supervision health transitions.
    pub health_transitions: u64,
    /// TDMA slot boundaries crossed.
    pub slot_boundaries: u64,
}

/// Last-observed event-engine gauge, sampled at slot boundaries. Plain
/// integers so the hub stays independent of the engine crate; all fields
/// are pure observation and never feed back into the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineObs {
    /// Live (scheduled, not cancelled) events in the engine. A machine
    /// keeps only its pending IRQ arrivals there (its own timers have
    /// fixed slots), so for a machine this counts the arrivals not yet
    /// fired.
    pub live: u64,
    /// Cancelled-but-not-yet-reclaimed tombstones.
    pub stale: u64,
    /// Tombstone compaction passes run so far.
    pub compactions: u64,
    /// Cursor fast-forward jumps that skipped more than one granule
    /// (timing wheel only; zero on the heap engine).
    pub fast_forward_jumps: u64,
    /// Higher-level cascade refills (timing wheel only).
    pub cascades: u64,
    /// Occupied wheel buckets across all levels (timing wheel only).
    pub occupied_buckets: u64,
    /// Entries parked on the far-future overflow level (wheel only).
    pub overflow_len: u64,
}

/// Last-observed per-core platform routing/failover gauges, written by the
/// multi-core machine when its routing ledger is finalized. Plain integers
/// so the hub stays independent of the hypervisor crate; a single-machine
/// hub simply never records one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlatformObs {
    /// Cross-core IRQs delivered to this core (IPIs received).
    pub ipi_in: u64,
    /// Cross-core IRQs originating on this core (IPIs sent).
    pub ipi_out: u64,
    /// Failed-over arrivals this core accepted for a lost peer.
    pub failover_in: u64,
    /// Retry-ladder steps taken while failing over to this core.
    pub failover_retries: u64,
    /// Plain IPI deliveries deferred behind a stalled route into this core.
    pub stall_deferrals: u64,
    /// Arrivals shed because this (home) core was unreachable.
    pub shed: u64,
}

/// Last-observed per-tenant admission gauges, written by the admission
/// fleet when it assembles its report. Plain integers (per-mille rates,
/// brownout ladder rank, remaining group-budget events) so the hub stays
/// independent of the admit crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantObs {
    /// Typed sheds per thousand scheduled arrivals of the tenant.
    pub shed_permille: u64,
    /// Brownout ladder rank (0 = nominal … 3 = quarantined).
    pub brownout_rank: u64,
    /// Group-budget events still unspent at the end of the run.
    pub budget_headroom: u64,
}

/// The metrics registry: counters, per-source latency histograms and
/// headroom gauges, plus the flight recorder.
///
/// Construct with [`MetricsHub::new`], feed it through the `record_*`
/// hooks, drain with [`snapshot_json`](Self::snapshot_json). The hub is
/// pure observation — it never influences any decision of the code that
/// feeds it, which is what makes an instrumented run byte-identical to a
/// bare one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsHub {
    config: ObsConfig,
    counters: ObsCounters,
    engine: EngineObs,
    platform: Option<PlatformObs>,
    latency: Vec<LatencyHistogram>,
    gauges: Vec<HeadroomGauge>,
    tenants: Vec<TenantObs>,
    recorder: FlightRecorder,
}

impl MetricsHub {
    /// Creates a hub observing `sources.len()` IRQ sources.
    ///
    /// # Panics
    ///
    /// Panics if the histogram geometry in `config` is invalid (zero bin
    /// width or range smaller than one bin).
    #[must_use]
    pub fn new(config: ObsConfig, sources: &[SourceObs]) -> Self {
        let histogram = LatencyHistogram::new(config.latency_bin_width, config.latency_range)
            .expect("observability histogram geometry must be valid");
        MetricsHub {
            config,
            counters: ObsCounters::default(),
            engine: EngineObs::default(),
            platform: None,
            latency: vec![histogram; sources.len()],
            gauges: sources
                .iter()
                .map(|s| HeadroomGauge::new(config.gauge_window, s.budget_events, s.effective_cost))
                .collect(),
            tenants: Vec::new(),
            recorder: FlightRecorder::new(config.recorder_capacity),
        }
    }

    /// The geometry this hub was built with.
    #[must_use]
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// The scalar counters.
    #[must_use]
    pub fn counters(&self) -> &ObsCounters {
        &self.counters
    }

    /// The flight recorder.
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Number of observed sources.
    #[must_use]
    pub fn sources(&self) -> usize {
        self.latency.len()
    }

    /// Latency histogram of `source`, when in range.
    #[must_use]
    pub fn latency(&self, source: usize) -> Option<&LatencyHistogram> {
        self.latency.get(source)
    }

    /// Headroom gauge of `source`, when in range.
    #[must_use]
    pub fn gauge(&self, source: usize) -> Option<&HeadroomGauge> {
        self.gauges.get(source)
    }

    /// An IRQ was raised.
    #[inline]
    pub fn record_raised(&mut self, at: Instant, source: usize) {
        self.counters.raised += 1;
        self.recorder.record(at, ObsEventKind::IrqRaised { source });
    }

    /// An IRQ was latched during a hypervisor block.
    #[inline]
    pub fn record_deferred(&mut self, at: Instant, source: usize) {
        self.counters.deferred += 1;
        self.recorder
            .record(at, ObsEventKind::IrqDeferred { source });
    }

    /// The shaper admitted an interposed activation.
    #[inline]
    pub fn record_admitted(&mut self, at: Instant, source: usize) {
        self.counters.admitted += 1;
        if let Some(gauge) = self.gauges.get_mut(source) {
            gauge.record(at);
        }
        self.recorder
            .record(at, ObsEventKind::IrqAdmitted { source });
    }

    /// The shaper denied an interposed activation. `violated_distance` is
    /// the δ⁻ entry index that failed, when the shaper reports one.
    #[inline]
    pub fn record_denied(&mut self, at: Instant, source: usize, violated_distance: Option<u64>) {
        self.counters.denied += 1;
        self.recorder.record(
            at,
            ObsEventKind::IrqDenied {
                source,
                violated_distance: violated_distance.unwrap_or(u64::MAX),
            },
        );
    }

    /// A bottom handler completed with the given arrival-to-completion
    /// latency.
    #[inline]
    pub fn record_completion(&mut self, at: Instant, source: usize, latency: Duration) {
        self.counters.completions += 1;
        if let Some(histogram) = self.latency.get_mut(source) {
            histogram.add(latency);
        }
        self.recorder
            .record(at, ObsEventKind::IrqCompleted { source, latency });
    }

    /// A window budget expired and clipped execution.
    #[inline]
    pub fn record_budget_clip(&mut self, at: Instant, partition: usize) {
        self.counters.budget_clips += 1;
        self.recorder
            .record(at, ObsEventKind::BudgetClip { partition });
    }

    /// A bounded queue rejected or dropped an event.
    #[inline]
    pub fn record_overflow(&mut self, at: Instant, source: usize) {
        self.counters.overflows += 1;
        self.recorder
            .record(at, ObsEventKind::QueueOverflow { source });
    }

    /// An admission-fleet ingress shed an arrival — a typed degradation
    /// outcome (full queue, stalled shard past the retry budget, ladder
    /// demotion, or in-flight loss to a shard crash). Fleet hubs index
    /// their sources by shard, so `source` is the shedding shard.
    #[inline]
    pub fn record_shed(&mut self, at: Instant, source: usize) {
        self.counters.shed += 1;
        self.recorder.record(at, ObsEventKind::Shed { source });
    }

    /// A supervision health transition.
    #[inline]
    pub fn record_health(
        &mut self,
        at: Instant,
        source: usize,
        from: &'static str,
        to: &'static str,
    ) {
        self.counters.health_transitions += 1;
        self.recorder
            .record(at, ObsEventKind::Health { source, from, to });
    }

    /// A TDMA slot boundary was crossed into `slot`.
    #[inline]
    pub fn record_slot_boundary(&mut self, at: Instant, slot: usize) {
        self.counters.slot_boundaries += 1;
        self.recorder
            .record(at, ObsEventKind::SlotBoundary { slot });
    }

    /// Overwrites the engine gauge with the engine's current stats —
    /// sample at slot boundaries for a per-cycle occupancy view.
    #[inline]
    pub fn record_engine(&mut self, stats: EngineObs) {
        self.engine = stats;
    }

    /// The last-recorded engine gauge.
    #[must_use]
    pub fn engine(&self) -> &EngineObs {
        &self.engine
    }

    /// Overwrites the platform routing/failover gauge — the multi-core
    /// machine writes it once per core hub when the routing ledger is
    /// finalized, off the hot path.
    #[inline]
    pub fn record_platform(&mut self, gauge: PlatformObs) {
        self.platform = Some(gauge);
    }

    /// The last-recorded platform gauge (`None` on single-machine hubs).
    #[must_use]
    pub fn platform(&self) -> Option<&PlatformObs> {
        self.platform.as_ref()
    }

    /// Overwrites tenant `tenant`'s admission gauges (shed rate in ‰,
    /// brownout ladder rank 0–3, remaining group-budget events). Unlike the
    /// hot-path hooks this may grow the tenant table — the fleet calls it
    /// once per tenant when it assembles its report, off the hot path.
    pub fn record_tenant_gauges(
        &mut self,
        tenant: usize,
        shed_permille: u64,
        brownout_rank: u64,
        budget_headroom: u64,
    ) {
        if self.tenants.len() <= tenant {
            self.tenants.resize(tenant + 1, TenantObs::default());
        }
        self.tenants[tenant] = TenantObs {
            shed_permille,
            brownout_rank,
            budget_headroom,
        };
    }

    /// Tenant gauges of `tenant`, when recorded.
    #[must_use]
    pub fn tenant(&self, tenant: usize) -> Option<&TenantObs> {
        self.tenants.get(tenant)
    }

    /// Number of tenants with recorded gauges (zero on flat fleets).
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Clears all observations, keeping geometry and allocations — the
    /// observability mirror of `Machine::reset`.
    pub fn reset(&mut self) {
        self.counters = ObsCounters::default();
        self.engine = EngineObs::default();
        self.platform = None;
        self.tenants.clear();
        for histogram in &mut self.latency {
            *histogram =
                LatencyHistogram::new(self.config.latency_bin_width, self.config.latency_range)
                    .expect("geometry was validated at construction");
        }
        for gauge in &mut self.gauges {
            gauge.reset();
        }
        self.recorder.reset();
    }

    /// Serializes the whole hub as JSON. Every numeric field is an integer
    /// (nanoseconds, counts, or `-1` for "unbounded"/"absent") and nothing
    /// reads ambient state, so equal hubs serialize byte-identically on
    /// any host.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"obs\": \"flight-recorder\",");
        let _ = writeln!(
            out,
            "  \"gauge_window_ns\": {},",
            self.config.gauge_window.as_nanos()
        );
        let c = &self.counters;
        let _ = writeln!(out, "  \"counters\": {{");
        let _ = writeln!(out, "    \"raised\": {},", c.raised);
        let _ = writeln!(out, "    \"deferred\": {},", c.deferred);
        let _ = writeln!(out, "    \"admitted\": {},", c.admitted);
        let _ = writeln!(out, "    \"denied\": {},", c.denied);
        let _ = writeln!(out, "    \"completions\": {},", c.completions);
        let _ = writeln!(out, "    \"budget_clips\": {},", c.budget_clips);
        let _ = writeln!(out, "    \"overflows\": {},", c.overflows);
        let _ = writeln!(out, "    \"shed\": {},", c.shed);
        let _ = writeln!(out, "    \"health_transitions\": {},", c.health_transitions);
        let _ = writeln!(out, "    \"slot_boundaries\": {}", c.slot_boundaries);
        let _ = writeln!(out, "  }},");
        let e = &self.engine;
        let _ = writeln!(out, "  \"engine\": {{");
        let _ = writeln!(out, "    \"live\": {},", e.live);
        let _ = writeln!(out, "    \"stale\": {},", e.stale);
        let _ = writeln!(out, "    \"compactions\": {},", e.compactions);
        let _ = writeln!(out, "    \"fast_forward_jumps\": {},", e.fast_forward_jumps);
        let _ = writeln!(out, "    \"cascades\": {},", e.cascades);
        let _ = writeln!(out, "    \"occupied_buckets\": {},", e.occupied_buckets);
        let _ = writeln!(out, "    \"overflow_len\": {}", e.overflow_len);
        let _ = writeln!(out, "  }},");
        if let Some(p) = &self.platform {
            let _ = writeln!(out, "  \"platform\": {{");
            let _ = writeln!(out, "    \"ipi_in\": {},", p.ipi_in);
            let _ = writeln!(out, "    \"ipi_out\": {},", p.ipi_out);
            let _ = writeln!(out, "    \"failover_in\": {},", p.failover_in);
            let _ = writeln!(out, "    \"failover_retries\": {},", p.failover_retries);
            let _ = writeln!(out, "    \"stall_deferrals\": {},", p.stall_deferrals);
            let _ = writeln!(out, "    \"shed\": {}", p.shed);
            let _ = writeln!(out, "  }},");
        }
        if self.tenants.is_empty() {
            let _ = writeln!(out, "  \"tenants\": [],");
        } else {
            let _ = writeln!(out, "  \"tenants\": [");
            for (tenant, obs) in self.tenants.iter().enumerate() {
                let comma = if tenant + 1 < self.tenants.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "    {{\"tenant\": {tenant}, \"shed_permille\": {}, \"brownout_rank\": {}, \"budget_headroom\": {}}}{comma}",
                    obs.shed_permille, obs.brownout_rank, obs.budget_headroom
                );
            }
            let _ = writeln!(out, "  ],");
        }
        let _ = writeln!(out, "  \"sources\": [");
        for (source, (histogram, gauge)) in self.latency.iter().zip(&self.gauges).enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"source\": {source},");
            write_histogram_json(&mut out, histogram, "      ");
            gauge.write_json(&mut out, "      ");
            let comma = if source + 1 < self.latency.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ],");
        self.recorder.write_json(&mut out, "  ");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Writes one histogram as `"latency": {...},` — sparse nonzero bins as
/// `[index, count]` pairs to keep snapshots bounded.
fn write_histogram_json(out: &mut String, histogram: &LatencyHistogram, pad: &str) {
    let _ = writeln!(out, "{pad}\"latency\": {{");
    let _ = writeln!(
        out,
        "{pad}  \"bin_width_ns\": {},",
        histogram.bin_width().as_nanos()
    );
    let _ = writeln!(
        out,
        "{pad}  \"range_ns\": {},",
        histogram.range().as_nanos()
    );
    let _ = writeln!(out, "{pad}  \"count\": {},", histogram.count());
    let _ = writeln!(out, "{pad}  \"overflow\": {},", histogram.overflow());
    let _ = writeln!(
        out,
        "{pad}  \"mean_ns\": {},",
        histogram
            .mean()
            .map_or(-1, |mean| i128::from(mean.as_nanos()))
    );
    let nonzero: Vec<(usize, u64)> = (0..histogram.bins())
        .map(|i| (i, histogram.bin_count(i)))
        .filter(|&(_, count)| count > 0)
        .collect();
    if nonzero.is_empty() {
        let _ = writeln!(out, "{pad}  \"bins\": []");
    } else {
        let _ = writeln!(out, "{pad}  \"bins\": [");
        for (i, (index, count)) in nonzero.iter().enumerate() {
            let comma = if i + 1 < nonzero.len() { "," } else { "" };
            let _ = writeln!(out, "{pad}    [{index}, {count}]{comma}");
        }
        let _ = writeln!(out, "{pad}  ]");
    }
    let _ = writeln!(out, "{pad}}},");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> MetricsHub {
        MetricsHub::new(
            ObsConfig::default(),
            &[
                SourceObs {
                    budget_events: Some(5),
                    effective_cost: Duration::from_micros(42),
                },
                SourceObs {
                    budget_events: None,
                    effective_cost: Duration::from_micros(42),
                },
            ],
        )
    }

    #[test]
    fn counters_and_structures_track_events() {
        let mut hub = hub();
        let t = Instant::from_micros(10);
        hub.record_raised(t, 0);
        hub.record_admitted(t, 0);
        hub.record_completion(t, 0, Duration::from_micros(120));
        hub.record_denied(t, 1, Some(0));
        hub.record_overflow(t, 1);
        hub.record_slot_boundary(t, 2);
        assert_eq!(hub.counters().raised, 1);
        assert_eq!(hub.counters().admitted, 1);
        assert_eq!(hub.counters().denied, 1);
        assert_eq!(hub.counters().completions, 1);
        assert_eq!(hub.counters().overflows, 1);
        assert_eq!(hub.counters().slot_boundaries, 1);
        assert_eq!(hub.latency(0).expect("source 0").count(), 1);
        assert_eq!(hub.gauge(0).expect("source 0").max_window_events(), 1);
        assert_eq!(hub.recorder().recorded(), 6);
    }

    #[test]
    fn snapshot_is_integer_only_and_deterministic() {
        let mut a = hub();
        let mut b = hub();
        for hub in [&mut a, &mut b] {
            hub.record_raised(Instant::from_micros(5), 0);
            hub.record_admitted(Instant::from_micros(5), 0);
            hub.record_completion(Instant::from_micros(7), 0, Duration::from_micros(2));
            hub.record_health(Instant::from_micros(9), 1, "healthy", "quarantined");
        }
        let json = a.snapshot_json();
        assert_eq!(json, b.snapshot_json(), "equal histories, equal bytes");
        assert!(!json.contains('.'), "integer-only JSON: {json}");
        assert!(json.contains("\"kind\": \"health\""));
        assert!(json.contains("\"min_headroom_events\": 4"));
    }

    #[test]
    fn reset_restores_pristine_snapshot() {
        let mut hub_a = hub();
        let pristine = hub_a.snapshot_json();
        hub_a.record_raised(Instant::from_micros(1), 0);
        hub_a.record_completion(Instant::from_micros(2), 0, Duration::from_micros(1));
        hub_a.reset();
        assert_eq!(hub_a.snapshot_json(), pristine);
    }

    #[test]
    fn tenant_gauges_serialize_and_reset() {
        let mut hub = hub();
        assert_eq!(hub.tenants(), 0);
        assert!(hub.snapshot_json().contains("\"tenants\": []"));
        hub.record_tenant_gauges(1, 250, 2, 7);
        assert_eq!(hub.tenants(), 2);
        assert_eq!(hub.tenant(0), Some(&TenantObs::default()));
        assert_eq!(
            hub.tenant(1),
            Some(&TenantObs {
                shed_permille: 250,
                brownout_rank: 2,
                budget_headroom: 7,
            })
        );
        let json = hub.snapshot_json();
        assert!(json.contains(
            "{\"tenant\": 1, \"shed_permille\": 250, \"brownout_rank\": 2, \"budget_headroom\": 7}"
        ));
        hub.reset();
        assert_eq!(hub.tenants(), 0);
    }

    #[test]
    fn clone_round_trips_bit_exactly() {
        let mut original = hub();
        original.record_admitted(Instant::from_micros(3), 0);
        let copy = original.clone();
        assert_eq!(copy, original);
        assert_eq!(copy.snapshot_json(), original.snapshot_json());
    }
}
