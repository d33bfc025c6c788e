//! End-to-end and per-layer host-cost benchmark of the hypervisor
//! reproduction. See `README.md` beside this crate for the workloads, the
//! metrics and how to cite them.

mod calib;
mod compare;
mod heap;
mod json;
mod probes;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, Stdio};

use runner::{Options, RunResult};
use workloads::{admit_fleet, checkpoint_replay, fault_campaign, fig6c, smp_platform, NAMES};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "\
usage: benchmark [run] [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out F]
       benchmark compare A.jsonl B.jsonl

  run        measure one workload, or every workload (each in its own
             process, one at a time) when --workload is absent
  --workload fig6c | fault_campaign | checkpoint_replay | admit_fleet | smp_platform
  --seed     run seed, decimal or 0x-hex (default 1)
  --seconds  measuring time per workload (default 10)
  --trace    per-layer run instead of the end-to-end one
  --out      append one JSON record per workload run to F
  compare    apply the bounds in ./BENCHMARK.json to two files of --out records

The last line of a single-workload run is its result as one JSON object.
RTHV_ENGINE and RTHV_PARALLEL must be unset: the benchmark measures the
default engine and stepping.";

/// Environment variables that would change what the program runs.
const REFUSED_ENV: [&str; 2] = ["RTHV_ENGINE", "RTHV_PARALLEL"];

struct RunArgs {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

enum Cli {
    Help,
    Run(RunArgs),
    Compare(String, String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            2
        }
        Ok(Cli::Help) => {
            println!("{USAGE}");
            0
        }
        Ok(Cli::Compare(a, b)) => compare::main(&a, &b),
        Ok(Cli::Run(run)) => match REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
            Some(var) => {
                eprintln!("benchmark: {var} is set; unset it to measure the defaults\n{USAGE}");
                2
            }
            None if run.workload.is_some() => run_one(&run),
            None => run_all(&run),
        },
    };
    std::process::exit(code);
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let rest = match args.first().map(String::as_str) {
        Some("compare") => {
            return match args {
                [_, a, b] => Ok(Cli::Compare(a.clone(), b.clone())),
                _ => Err("compare takes exactly two record files".to_string()),
            };
        }
        Some("run") => &args[1..],
        _ => args,
    };
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let mut value = || {
            i += 1;
            rest.get(i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "-h" | "--help" => return Ok(Cli::Help),
            "--workload" => {
                let name = value()?;
                run.workload = Some(
                    NAMES
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => run.seed = parse_seed(value()?)?,
            "--seconds" => {
                let text = value()?;
                run.seconds = text
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=3600, got {text:?}"))?;
            }
            "--trace" => {
                run.trace = match rest.get(i + 1).map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        run.trace = true;
                        i += 1;
                        continue;
                    }
                };
                i += 1;
            }
            "--out" => run.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(Cli::Run(run))
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("malformed seed {text:?}"))
}

/// Measures one workload in this process and prints its result.
fn run_one(args: &RunArgs) -> i32 {
    let name = args.workload.expect("a workload was named");
    let options = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = match name {
        fig6c::NAME => runner::run::<fig6c::Fig6c>(name, &options),
        fault_campaign::NAME => runner::run::<fault_campaign::FaultCampaign>(name, &options),
        checkpoint_replay::NAME => {
            runner::run::<checkpoint_replay::CheckpointReplay>(name, &options)
        }
        admit_fleet::NAME => runner::run::<admit_fleet::AdmitFleetWorkload>(name, &options),
        smp_platform::NAME => runner::run::<smp_platform::SmpPlatform>(name, &options),
        other => unreachable!("workload {other} was validated"),
    };
    report(name, args, &result);
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{}", record(name, args, &result)));
        if let Err(error) = appended {
            eprintln!("benchmark: cannot append to {path}: {error}");
            return 1;
        }
    }
    println!("{}", result_line(&result));
    0
}

/// Human-readable summary on stderr.
fn report(name: &str, args: &RunArgs, result: &RunResult) {
    let mut text = format!(
        "{name} (seed {}, {} s, {}): {} units, {} failed, digest {:#018x}\n",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "end to end" },
        result.attempted,
        result.failed,
        result.digest
    );
    for (reason, count) in &result.failures {
        let _ = writeln!(text, "  FAILED {count}x: {reason}");
    }
    for metric in &result.metrics {
        let _ = writeln!(
            text,
            "  {:<34} {:>14.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for (key, value) in &result.info {
        let _ = writeln!(text, "  ({key} {value:.6})");
    }
    eprint!("{text}");
}

fn metrics_json(result: &RunResult) -> String {
    let members: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The result object the last stdout line carries.
fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics_json(result)
    )
}

/// The `--out` record: the result plus what `compare` and a reader need.
fn record(name: &str, args: &RunArgs, result: &RunResult) -> String {
    let info: Vec<String> = result
        .info
        .iter()
        .map(|(key, value)| format!("{}:{}", json::quote(key), json::number(*value)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":\"{}\",\"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:#018x}\",\"metrics\":{},\"info\":{{{}}}}}",
        json::quote(name),
        args.seed,
        args.seconds,
        args.trace,
        result.correct,
        result.attempted,
        result.failed,
        result.digest,
        metrics_json(result),
        info.join(",")
    )
}

/// Runs every workload in a child process of its own, one after another,
/// so each reports its own peak memory; prints every metric of each.
fn run_all(args: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("benchmark: cannot locate own executable: {error}");
            return 1;
        }
    };
    let mut code = 0;
    for name in NAMES {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(out) = &args.out {
            command.args(["--out", out]);
        }
        let output = match command.output() {
            Ok(output) => output,
            Err(error) => {
                eprintln!("benchmark: cannot start {name}: {error}");
                code = 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout
            .lines()
            .last()
            .and_then(|l| json::Json::parse(l).ok());
        let Some(result) = parsed.filter(|_| output.status.success()) else {
            eprintln!("benchmark: {name} failed ({})", output.status);
            code = 1;
            continue;
        };
        if result.get("correct").and_then(json::Json::as_bool) != Some(true) {
            code = 1;
        }
        for (metric, value) in result
            .get("metrics")
            .and_then(json::Json::as_object)
            .unwrap_or_default()
        {
            println!(
                "{name:<18} {metric:<34} {:>14.6} {}",
                value
                    .get("value")
                    .and_then(json::Json::as_f64)
                    .unwrap_or(f64::NAN),
                value
                    .get("unit")
                    .and_then(json::Json::as_str)
                    .unwrap_or("?")
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_a_single_workload_run() {
        let Ok(Cli::Run(run)) = parse(&args(&[
            "--workload",
            "fig6c",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])) else {
            panic!("valid arguments");
        };
        assert_eq!(run.workload, Some("fig6c"));
        assert_eq!((run.seed, run.seconds, run.trace), (7, 10, true));
    }

    #[test]
    fn parses_subcommands_and_bare_trace() {
        let Ok(Cli::Run(run)) = parse(&args(&["run", "--trace", "--seed", "0x10"])) else {
            panic!("valid arguments");
        };
        assert!(run.trace && run.workload.is_none());
        assert_eq!(run.seed, 16);
        assert!(matches!(
            parse(&args(&["compare", "a", "b"])),
            Ok(Cli::Compare(..))
        ));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "fig7"][..],
            &["--seed", "12x"],
            &["--seed"],
            &["--seconds", "0"],
            &["--frobnicate"],
            &["compare", "only-one"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be a usage error");
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str, unit: bool| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(json::Json::as_str).unwrap_or("");
                    (
                        field("name").to_string(),
                        if unit { field("unit") } else { "" }.to_string(),
                    )
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", true), owned(&runner::E2E_METRICS));
        assert_eq!(listed("per_layer", true), owned(&trace::LAYER_METRICS));
        let names: Vec<(&str, &str)> = NAMES.iter().map(|n| (*n, "")).collect();
        assert_eq!(listed("workloads", false), owned(&names));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            digest: 1,
            metrics: vec![runner::Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
            info: Vec::new(),
            failures: Default::default(),
        };
        let parsed = json::Json::parse(&result_line(&result)).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup
                .and_then(|s| s.get("value"))
                .and_then(json::Json::as_f64),
            Some(0.25)
        );
    }
}
