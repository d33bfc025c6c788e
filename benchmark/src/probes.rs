//! Layer probes that run beside a traced unit, from outside the program:
//! the engine replay and the admission-monitor replay.

use std::sync::OnceLock;
use std::time::Instant as HostInstant;

use rthv::monitor::{ActivationMonitor, ShaperConfig};
use rthv::sim::EngineQueue;
use rthv::time::Instant;
use rthv::{AdmissionRecord, EngineKind, IrqSourceSpec, RunReport, ServiceKind, TdmaSchedule};

use crate::trace::Tracer;

/// Payload as wide as the machine's own event (source, sequence, work), so
/// the replay moves as many bytes per heap step as the real queue does.
type Payload = [u64; 3];

/// Cost of one `Instant::now()` read, in ns: subtracted from every timed
/// engine call of the replay.
fn clock_read_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 20_000;
        let mut samples = [0.0f64; 5];
        for sample in &mut samples {
            let start = HostInstant::now();
            for _ in 0..READS {
                std::hint::black_box(HostInstant::now());
            }
            *sample = start.elapsed().as_nanos() as f64 / f64::from(READS);
        }
        samples.sort_by(f64::total_cmp);
        samples[2]
    })
}

/// Trace-driven engine probe. Rebuilds a finished unit's event stream from
/// its service-traced report — arrivals, TDMA boundaries, hypervisor-block
/// ends and bottom-handler segment ends, each scheduled at the instant the
/// machine would have scheduled it — and replays it through a bare
/// `EngineQueue` of the machine's engine kind, timing every schedule and
/// every pop.
///
/// Records `sim.schedules`, `sim.pops`, their time totals, and the
/// machine's `events_processed` for the coverage ratio.
pub fn engine_replay(
    tracer: &mut Tracer,
    kind: EngineKind,
    schedule: &TdmaSchedule,
    arrivals: &[Instant],
    report: &RunReport,
) {
    let end = report.end;
    // (instant the event is scheduled, instant it fires)
    let mut stream: Vec<(Instant, Instant)> =
        arrivals.iter().map(|&at| (Instant::ZERO, at)).collect();
    let mut k = 1u64;
    while schedule.boundary_time(k - 1) <= end {
        stream.push((schedule.boundary_time(k - 1), schedule.boundary_time(k)));
        k += 1;
    }
    for span in report.hv_spans.iter().flatten() {
        stream.push((span.start, span.end));
    }
    for interval in report.service_intervals.iter().flatten().flatten() {
        if interval.kind == ServiceKind::Bottom {
            stream.push((interval.start, interval.end));
        }
    }
    stream.sort_unstable();

    let read = clock_read_ns();
    let mut queue: EngineQueue<Payload> = EngineQueue::new(kind, schedule.cycle());
    queue.reserve(arrivals.len());
    let (mut schedule_ns, mut schedules, mut pop_ns, mut pops) = (0.0, 0u64, 0.0, 0u64);
    let mut next = 0usize;
    let mut force = false;
    loop {
        // Everything the machine had scheduled by now goes in first; when
        // nothing in the queue is due, the next trigger goes in anyway.
        let now = queue.now();
        let mut due = stream[next..].partition_point(|&(at, _)| at <= now);
        if force {
            due = due.max(1);
            force = false;
        }
        if due > 0 {
            let start = HostInstant::now();
            for (i, &(_, fire)) in stream[next..next + due].iter().enumerate() {
                // A reconstructed event can trail its trigger; it then
                // fires at once rather than in the past.
                let payload = [i as u64, fire.as_nanos(), now.as_nanos()];
                let _ = queue.schedule_at(fire.max(now), payload);
            }
            schedule_ns += start.elapsed().as_nanos() as f64 - read;
            schedules += due as u64;
            next += due;
        }
        let start = HostInstant::now();
        let popped = queue.advance_to(end);
        pop_ns += start.elapsed().as_nanos() as f64 - read;
        match popped {
            Some(event) => {
                std::hint::black_box(event);
                pops += 1;
            }
            None if next < stream.len() && stream[next].0 <= end => force = true,
            None => break,
        }
    }
    tracer.count("sim.schedule_ns", schedule_ns.max(0.0));
    tracer.count("sim.schedules", schedules as f64);
    tracer.count("sim.pop_ns", pop_ns.max(0.0));
    tracer.count("sim.pops", pops as f64);
    tracer.count("sim.events", report.counters.events_processed as f64);
}

/// Admission-monitor probe: replays every recorded decision's `check_at`
/// through a fresh `ActivationMonitor` built from the source's δ⁻ and
/// returns how many decisions differ from the recorded ones (must be 0).
pub fn monitor_replay(
    tracer: &mut Tracer,
    sources: &[IrqSourceSpec],
    admissions: &[AdmissionRecord],
) -> u64 {
    let (mismatches, admitted) = tracer.span("probe.monitor", |_| {
        let mut monitors: Vec<Option<ActivationMonitor>> = sources
            .iter()
            .map(|spec| match &spec.monitor {
                Some(ShaperConfig::Delta(delta)) => Some(ActivationMonitor::new(delta.clone())),
                _ => None,
            })
            .collect();
        let mut mismatches = 0u64;
        let mut admitted = 0u64;
        for record in admissions {
            match monitors
                .get_mut(record.source.index())
                .and_then(Option::as_mut)
            {
                Some(monitor) => {
                    let admit = monitor.try_admit(record.check_at);
                    admitted += u64::from(admit);
                    mismatches += u64::from(admit != record.admitted);
                }
                None => mismatches += 1,
            }
        }
        (mismatches, admitted)
    });
    tracer.count("monitor.checks", admissions.len() as f64);
    tracer.count("monitor.admitted", admitted as f64);
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use rthv::monitor::DeltaFunction;
    use rthv::time::Duration;
    use rthv::{IrqHandlingMode, IrqSourceId, Machine, PaperSetup};

    /// A service-traced paper-setup run whose 1.7–3.5 ms arrival gaps
    /// straddle `d_min = 3 ms`, so the monitor both admits and denies.
    fn traced_run() -> (
        Vec<IrqSourceSpec>,
        RunReport,
        EngineKind,
        TdmaSchedule,
        Vec<Instant>,
    ) {
        let setup = PaperSetup::default();
        let delta = DeltaFunction::from_dmin(Duration::from_millis(3)).expect("valid d_min");
        let config = setup.config(IrqHandlingMode::Interposed, Some(delta));
        let mut machine = Machine::new(config).expect("paper setup is valid");
        machine.enable_service_trace();
        let mut at = Instant::ZERO;
        let arrivals: Vec<Instant> = (0..400u64)
            .map(|i| {
                at += Duration::from_micros(1_700 + (i % 7) * 300);
                at
            })
            .collect();
        machine
            .schedule_irq_trace(IrqSourceId::new(0), &arrivals)
            .expect("arrivals lie in the future");
        assert!(machine.run_until_complete(at + setup.tdma_cycle() * 100));
        let kind = machine.engine_kind();
        let schedule = machine.schedule().clone();
        let sources = machine.config().sources.clone();
        (sources, machine.finish(), kind, schedule, arrivals)
    }

    #[test]
    fn monitor_probe_reproduces_recorded_decisions() {
        let (sources, report, ..) = traced_run();
        let admissions = &report.admissions;
        assert!(admissions.iter().any(|r| r.admitted) && admissions.iter().any(|r| !r.admitted));
        let mut tracer = Tracer::new();
        assert_eq!(monitor_replay(&mut tracer, &sources, admissions), 0);
        let mut tampered = admissions.clone();
        tampered[5].admitted = !tampered[5].admitted;
        assert!(monitor_replay(&mut tracer, &sources, &tampered) >= 1);
    }

    #[test]
    fn engine_replay_covers_the_run() {
        let (_, report, kind, schedule, arrivals) = traced_run();
        let mut tracer = Tracer::new();
        engine_replay(&mut tracer, kind, &schedule, &arrivals, &report);
        let metrics = tracer.summary().layer_metrics();
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.2);
        let coverage = value("sim.replay_coverage").expect("reported");
        assert!((0.9..1.1).contains(&coverage), "coverage {coverage}");
        assert!(value("sim.pop_ns").is_some_and(|ns| ns > 0.0));
    }
}
