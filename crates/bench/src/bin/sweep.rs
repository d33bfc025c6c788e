//! d_min sensitivity sweep: for a range of monitoring distances, the
//! analytic latency bounds, the simulated averages, the context-switch
//! overhead, and the guaranteed victim interference — the design-space
//! table an integrator would consult when picking d_min.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin sweep
//! [--csv] [--threads N]`
//!
//! `--threads N` fans the sweep points over N worker threads (default: one
//! per core; 0 means one). The output is bit-identical for every thread
//! count — each point owns its seed and rows are emitted in point order.
//! A malformed command line exits with status 2 and the usage line.

use std::process::ExitCode;

use rthv_experiments::sweep::{compute_rows, render_csv, render_table, SweepConfig};
use rthv_experiments::SweepRunner;

const USAGE: &str = "usage: sweep [--csv] [--threads N]";

fn main() -> ExitCode {
    let (csv, runner) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("sweep: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = SweepConfig::default();
    let rows = compute_rows(&config, &runner);
    if csv {
        print!("{}", render_csv(&rows));
    } else {
        print!("{}", render_table(&rows, config.irqs));
    }
    ExitCode::SUCCESS
}

/// Parses `[--csv] [--threads N]`: whether to print CSV, and the runner.
fn parse(mut args: impl Iterator<Item = String>) -> Result<(bool, SweepRunner), String> {
    let mut csv = false;
    let mut runner = SweepRunner::available();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--threads" => {
                let value = args.next().ok_or("--threads needs a thread count")?;
                let threads = value
                    .parse()
                    .map_err(|_| format!("--threads takes a thread count, not {value:?}"))?;
                runner = SweepRunner::new(threads);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((csv, runner))
}
