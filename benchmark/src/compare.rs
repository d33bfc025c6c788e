//! `compare A B`: applies the bounds in `BENCHMARK.json` to two sets of
//! run records (JSON lines written with `--out`) and gives each
//! `(workload, end-to-end metric)` pair a verdict.
//!
//! A pair is *unresolved* when the run-to-run spread (interquartile range
//! over median) of either set exceeds the metric's bound, unless every run
//! of B reads better, or worse, than every run of A. It is *worse* or
//! *better* when B's median moved by more than the bound, and *same*
//! otherwise. A rise in the failed-unit share, or a digest that differs
//! between runs of the same seed, is flagged.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::json::Json;
use crate::stats::{median, spread};

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The part of one run record `compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub attempted: f64,
    pub failed: f64,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The verdict on one metric given A's and B's per-run values.
pub fn verdict(rule: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let orient = |x: f64| if rule.lower_is_better { x } else { -x };
    let (ma, mb) = (median(a), median(b));
    if spread(a) > rule.bound || spread(b) > rule.bound {
        let worst_b = b
            .iter()
            .map(|&x| orient(x))
            .fold(f64::NEG_INFINITY, f64::max);
        let best_b = b.iter().map(|&x| orient(x)).fold(f64::INFINITY, f64::min);
        let worst_a = a
            .iter()
            .map(|&x| orient(x))
            .fold(f64::NEG_INFINITY, f64::max);
        let best_a = a.iter().map(|&x| orient(x)).fold(f64::INFINITY, f64::min);
        return if worst_b < best_a {
            Verdict::Better
        } else if best_b > worst_a {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = if ma == 0.0 {
        0.0
    } else {
        orient(mb - ma) / ma.abs()
    };
    if change > rule.bound {
        Verdict::Worse
    } else if change < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The end-to-end bounds of a `BENCHMARK.json` document.
pub fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let better = entry.get("better").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// Parses the untraced run records of a JSON-lines file.
pub fn records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        if v.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("metrics"))?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|value| (name.clone(), value))
                    .ok_or_else(|| bad(name))
            })
            .collect::<Result<_, _>>()?;
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("workload"))?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("seed"))?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            digest: v
                .get("digest")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("digest"))?
                .to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// Compares record sets `a` and `b` under `rules`; returns the report
/// lines and whether anything got worse or was flagged.
pub fn compare(rules: &[Bound], a: &[Record], b: &[Record]) -> (Vec<String>, bool) {
    let mut lines = vec![format!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "sprd A", "sprd B", "bound"
    )];
    let mut bad = false;
    let workloads: BTreeSet<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    for workload in workloads {
        let ra: Vec<&Record> = a.iter().filter(|r| r.workload == workload).collect();
        let rb: Vec<&Record> = b.iter().filter(|r| r.workload == workload).collect();
        if ra.is_empty() || rb.is_empty() {
            lines.push(format!("{workload:<18} only in one set"));
            bad = true;
            continue;
        }
        for rule in rules {
            let values = |set: &[&Record]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(&rule.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                lines.push(format!("{workload:<18} {:<18} missing", rule.name));
                bad = true;
                continue;
            }
            let v = verdict(rule, &va, &vb);
            bad |= v == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            lines.push(format!(
                "{workload:<18} {:<18} {ma:>12.5} {mb:>12.5} {:>+7.2}% {:>6.2}% {:>6.2}% {:>5.1}%  {v}",
                rule.name,
                if ma == 0.0 { 0.0 } else { 100.0 * (mb - ma) / ma },
                100.0 * spread(&va),
                100.0 * spread(&vb),
                100.0 * rule.bound,
            ));
        }
        let share = |set: &[&Record]| {
            let attempted: f64 = set.iter().map(|r| r.attempted).sum();
            let failed: f64 = set.iter().map(|r| r.failed).sum();
            if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }
        };
        if share(&rb) > share(&ra) {
            lines.push(format!(
                "{workload:<18} FLAG failed-unit share rose from {:.4} to {:.4}",
                share(&ra),
                share(&rb)
            ));
            bad = true;
        }
        for x in &ra {
            for y in rb
                .iter()
                .filter(|y| y.seed == x.seed && y.digest != x.digest)
            {
                lines.push(format!(
                    "{workload:<18} FLAG digest of seed {} differs: {} vs {}",
                    x.seed, x.digest, y.digest
                ));
                bad = true;
            }
        }
    }
    (lines, bad)
}

/// Runs the `compare` subcommand; returns the process exit code.
pub fn main(a_path: &str, b_path: &str) -> i32 {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))
    };
    let outcome = (|| -> Result<(Vec<String>, bool), String> {
        let doc = Json::parse(&read("BENCHMARK.json")?)
            .map_err(|error| format!("BENCHMARK.json: {error}"))?;
        let rules = bounds(&doc)?;
        let a = records(&read(a_path)?).map_err(|error| format!("{a_path}: {error}"))?;
        let b = records(&read(b_path)?).map_err(|error| format!("{b_path}: {error}"))?;
        Ok(compare(&rules, &a, &b))
    })();
    match outcome {
        Ok((lines, bad)) => {
            for line in lines {
                println!("{line}");
            }
            i32::from(bad)
        }
        Err(error) => {
            eprintln!("benchmark compare: {error}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Bound {
        Bound {
            name: "wall_norm_s".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way.
        assert_eq!(
            verdict(&rule(0.05), &a, &[10.2, 10.3, 10.1, 10.2, 10.25]),
            Verdict::Same
        );
        // Slower by more than the bound.
        assert_eq!(
            verdict(&rule(0.05), &a, &[11.0, 11.1, 10.9, 11.0, 11.05]),
            Verdict::Worse
        );
        // Faster by more than the bound.
        assert_eq!(
            verdict(&rule(0.05), &a, &[9.0, 9.1, 8.9, 9.0, 9.05]),
            Verdict::Better
        );
        // A spread wider than the bound leaves an overlapping move unresolved...
        let noisy = [8.0, 12.0, 9.0, 11.5, 10.0];
        assert_eq!(verdict(&rule(0.05), &a, &noisy), Verdict::Unresolved);
        // ...but not a change every run agrees on.
        let noisy_slow = [12.0, 14.0, 13.0, 15.0, 12.5];
        assert_eq!(
            verdict(&rule(0.05), &[9.0, 11.0, 10.0, 9.5, 10.5], &noisy_slow),
            Verdict::Worse
        );
        let higher = Bound {
            lower_is_better: false,
            ..rule(0.05)
        };
        assert_eq!(
            verdict(&higher, &a, &[11.0, 11.1, 10.9, 11.0, 11.05]),
            Verdict::Better
        );
    }

    fn record(seed: u64, digest: &str, wall: f64, failed: f64) -> String {
        format!(
            "{{\"workload\":\"fig6c\",\"seed\":\"{seed}\",\"trace\":false,\"correct\":true,\"attempted\":100,\"failed\":{failed},\"digest\":\"{digest}\",\"metrics\":{{\"wall_norm_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}"
        )
    }

    #[test]
    fn flags_failures_and_digest_mismatches() {
        let a = records(&[record(1, "0xa", 10.0, 0.0), record(2, "0xb", 10.0, 0.0)].join("\n"))
            .expect("valid records");
        let same = records(&[record(1, "0xa", 10.1, 0.0), record(2, "0xb", 9.9, 0.0)].join("\n"))
            .expect("valid records");
        let (_, bad) = compare(&[rule(0.05)], &a, &same);
        assert!(!bad);
        let drifted =
            records(&[record(1, "0xc", 10.0, 0.0), record(2, "0xb", 10.0, 1.0)].join("\n"))
                .expect("valid records");
        let (lines, bad) = compare(&[rule(0.05)], &a, &drifted);
        assert!(bad);
        assert!(lines.iter().any(|l| l.contains("failed-unit share rose")));
        assert!(lines.iter().any(|l| l.contains("digest of seed 1 differs")));
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}]}"#,
        )
        .expect("valid JSON");
        assert_eq!(
            bounds(&doc),
            Ok(vec![Bound {
                name: "setup_s".to_string(),
                lower_is_better: true,
                bound: 0.15
            }])
        );
        assert!(bounds(&Json::parse("{}").expect("valid JSON")).is_err());
    }
}
