//! Spans recorded from outside the program, around the public calls each
//! unit makes into a layer, and the per-layer metrics derived from them.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! `parent` is the 0-based index of the enclosing span in the same file;
//! spans of one unit share its `unit` number.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// Name of the span that encloses one whole traced unit.
pub const UNIT: &str = "unit";

/// Every per-layer metric with its unit, in report order. A layer a
/// workload never calls reports 0.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("workload.gen_ns_per_arrival", "ns/arrival"),
    ("sim.schedule_ns", "ns/schedule"),
    ("sim.pop_ns", "ns/pop"),
    ("sim.replay_coverage", "ratio"),
    ("machine.build_us", "us/build"),
    ("machine.schedule_ns_per_arrival", "ns/arrival"),
    ("machine.step_ns_per_event", "ns/event"),
    ("machine.finish_us", "us/call"),
    ("machine.events_per_arrival", "event/arrival"),
    ("machine.ctx_switches_per_arrival", "switch/arrival"),
    ("monitor.check_ns", "ns/check"),
    ("monitor.admit_ratio", "ratio"),
    ("checkpoint.state_hash_us", "us/call"),
    ("checkpoint.snapshot_us", "us/call"),
    ("checkpoint.restore_us", "us/call"),
    ("faults.replay.residual_share", "share"),
    ("oracle.check_ns_per_record", "ns/record"),
    ("journal.encode_us", "us/record"),
    ("journal.decode_us", "us/record"),
    ("admit.build_us", "us/build"),
    ("admit.ns_per_decision", "ns/decision"),
    ("admit.tenant_ns_per_decision", "ns/decision"),
    ("admit.check_ns_per_admission", "ns/admission"),
    ("admit.admit_ratio", "ratio"),
    ("admit.shed_permille", "permille"),
    ("platform.build_us", "us/build"),
    ("platform.seal_us", "us/call"),
    ("platform.step_ns_per_event", "ns/event"),
    ("platform.finish_us", "us/call"),
    ("platform.ipi_per_arrival", "ipi/arrival"),
    ("platform.shed_ratio", "ratio"),
    ("stats.hist_ns_per_sample", "ns/sample"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_ratio", "ratio"),
];

struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    unit: u64,
}

/// Collects spans and the work counts that per-layer ratios divide by.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    unit: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            unit: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Tags the spans recorded from now on with unit number `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span. The record is allocated before the clock starts.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(SpanRecord {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let record = &mut self.spans[index as usize];
        record.start_ns = nanos(start - self.epoch);
        record.end_ns = nanos(end - self.epoch);
        out
    }

    /// Adds `amount` to the work counter `key`.
    pub fn count(&mut self, key: &'static str, amount: f64) {
        *self.counts.entry(key).or_insert(0.0) += amount;
    }

    /// Per-layer totals over every span recorded so far.
    pub fn summary(&self) -> Summary {
        let mut totals: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            let ns = (span.end_ns - span.start_ns) as f64;
            let total = totals.entry(span.name).or_insert((0, 0.0));
            total.0 += 1;
            total.1 += ns;
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += ns;
            }
        }
        let mut unit_ns = 0.0;
        let mut unit_self_ns = 0.0;
        for (span, children) in self.spans.iter().zip(&child_ns) {
            if span.name == UNIT {
                let ns = (span.end_ns - span.start_ns) as f64;
                unit_ns += ns;
                unit_self_ns += ns - children;
            }
        }
        Summary {
            totals,
            counts: self.counts.clone(),
            unit_ns,
            unit_self_ns,
        }
    }

    /// Writes every span to the file at `path`; see [`Tracer::write_spans_to`].
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_spans_to(&mut out)?;
        out.flush()
    }

    /// Writes every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent`, `unit`).
    pub fn write_spans_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut line = String::new();
        for span in &self.spans {
            line.clear();
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                line,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
                json::quote(span.name),
                span.start_ns,
                span.end_ns,
                parent,
                span.unit
            );
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Span totals and counters of a traced run.
pub struct Summary {
    /// Per span name: calls and total ns.
    totals: BTreeMap<&'static str, (u64, f64)>,
    counts: BTreeMap<&'static str, f64>,
    /// Total ns inside unit spans.
    unit_ns: f64,
    /// Part of `unit_ns` no child span covers.
    unit_self_ns: f64,
}

impl Summary {
    fn total_ns(&self, span: &str) -> f64 {
        self.totals.get(span).map_or(0.0, |t| t.1)
    }

    fn calls(&self, span: &str) -> f64 {
        self.totals.get(span).map_or(0.0, |t| t.0 as f64)
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Share of traced unit time outside every child span.
    pub fn unattributed_share(&self) -> f64 {
        ratio(self.unit_self_ns, self.unit_ns)
    }

    /// Every [`LAYER_METRICS`] entry with its value, in order.
    pub fn layer_metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let per_call_us = |span: &str| ratio(self.total_ns(span), self.calls(span)) / 1e3;
        let per = |span: &str, key: &str| ratio(self.total_ns(span), self.count(key));
        let counts = |a: &str, b: &str| ratio(self.count(a), self.count(b));
        // The checkpoint residual is everything in the replay units outside
        // the machine, checkpoint and input-generation calls: the report
        // digest plus untraced glue.
        let residual = if self.calls("faults.replay.digest") > 0.0 {
            ratio(
                self.total_ns("faults.replay.digest") + self.unit_self_ns,
                self.unit_ns,
            )
        } else {
            0.0
        };
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "workload.gen_ns_per_arrival" => per("workload.gen", "workload.arrivals"),
                    "sim.schedule_ns" => counts("sim.schedule_ns", "sim.schedules"),
                    "sim.pop_ns" => counts("sim.pop_ns", "sim.pops"),
                    "sim.replay_coverage" => counts("sim.pops", "sim.events"),
                    "machine.build_us" => per_call_us("machine.build"),
                    "machine.schedule_ns_per_arrival" => {
                        per("machine.schedule", "machine.arrivals")
                    }
                    "machine.step_ns_per_event" => per("machine.step", "machine.events"),
                    "machine.finish_us" => per_call_us("machine.finish"),
                    "machine.events_per_arrival" => counts("machine.events", "machine.arrivals"),
                    "machine.ctx_switches_per_arrival" => {
                        counts("machine.ctx_switches", "machine.arrivals")
                    }
                    "monitor.check_ns" => per("probe.monitor", "monitor.checks"),
                    "monitor.admit_ratio" => counts("monitor.admitted", "monitor.checks"),
                    "checkpoint.state_hash_us" => per_call_us("checkpoint.state_hash"),
                    "checkpoint.snapshot_us" => per_call_us("checkpoint.snapshot"),
                    "checkpoint.restore_us" => per_call_us("checkpoint.restore"),
                    "faults.replay.residual_share" => residual,
                    "oracle.check_ns_per_record" => per("oracle.check", "oracle.records"),
                    "journal.encode_us" => per_call_us("journal.encode"),
                    "journal.decode_us" => per_call_us("journal.decode"),
                    "admit.build_us" => per_call_us("admit.build"),
                    "admit.ns_per_decision" => per("admit.run", "admit.decisions"),
                    "admit.tenant_ns_per_decision" => {
                        per("admit.tenant_run", "admit.tenant_decisions")
                    }
                    "admit.check_ns_per_admission" => per("admit.check", "admit.checked"),
                    "admit.admit_ratio" => counts("admit.admitted", "admit.scheduled"),
                    "admit.shed_permille" => 1e3 * counts("admit.shed", "admit.scheduled"),
                    "platform.build_us" => per_call_us("platform.build"),
                    "platform.seal_us" => per_call_us("platform.seal"),
                    "platform.step_ns_per_event" => per("platform.step", "platform.events"),
                    "platform.finish_us" => per_call_us("platform.finish"),
                    "platform.ipi_per_arrival" => counts("platform.ipi_in", "platform.arrivals"),
                    "platform.shed_ratio" => counts("platform.sheds", "platform.arrivals"),
                    "stats.hist_ns_per_sample" => per("stats.hist", "stats.samples"),
                    "trace.unattributed_share" => self.unattributed_share(),
                    "trace.overhead_ratio" => ratio(self.unit_ns, self.count("e2e.unit_ns")),
                    other => unreachable!("per-layer metric {other} has no definition"),
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.set_unit(7);
        tracer.span(UNIT, |t| {
            t.span("machine.step", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let summary = tracer.summary();
        let share = summary.unattributed_share();
        assert!(share > 0.0 && share < 0.5, "unattributed share {share}");
        assert_eq!(summary.calls("machine.step"), 1.0);
        assert!(summary.total_ns("machine.step") >= 4e6);
    }

    #[test]
    fn every_layer_metric_is_reported_even_without_calls() {
        let summary = Tracer::new().summary();
        let metrics = summary.layer_metrics();
        assert_eq!(metrics.len(), LAYER_METRICS.len());
        assert!(metrics.iter().all(|(_, _, v)| *v == 0.0));
    }

    #[test]
    fn spans_file_names_parents_by_line() {
        let mut tracer = Tracer::new();
        tracer.span(UNIT, |t| t.span("workload.gen", |_| ()));
        let mut bytes = Vec::new();
        tracer
            .write_spans_to(&mut bytes)
            .expect("writing to memory");
        let text = String::from_utf8(bytes).expect("UTF-8");
        let lines: Vec<json::Json> = text
            .lines()
            .map(|l| json::Json::parse(l).expect("one JSON object per line"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&json::Json::Null));
        assert_eq!(
            lines[1].get("parent").and_then(json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            lines[1].get("name").and_then(json::Json::as_str),
            Some("workload.gen")
        );
    }
}
