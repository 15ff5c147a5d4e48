//! `perfbench` — the repository benchmark for the CAST stack.
//!
//! One process runs one workload, closed loop: a batch of work at a
//! fixed input size, done as fast as possible, repeated until the
//! requested measuring time has passed. Inputs come only from `--seed`;
//! the estimator is profiled from code (never loaded from `results/`),
//! so every output depends on the source tree and the seed alone.
//!
//! ```text
//! perfbench --workload <fleet-steady|fleet-contended|deploy-4k>
//!           --seed <n> --seconds <s> --trace <0|1> [--rev <id>]
//! ```
//!
//! * `--trace 0` prints the end-to-end metrics, measured with no
//!   tracing on the product path.
//! * `--trace 1` prints the per-layer metrics of a separate traced run,
//!   which re-drives the same work through the crates' public calls
//!   and times each call from here (see `fleet.rs` and `deploy.rs`).
//!
//! Every run prints a `# stamp` line (machine, source revision, seed,
//! workers), one `metric` line per metric and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Workload
//! rationale, predicted dominant layers and which metrics are exact
//! counts versus wall times are documented in `perfbench/README.md`.

mod deploy;
mod fleet;
mod out;
mod setup;

use out::{Check, Metrics, Outcome};
use std::process::ExitCode;

/// A seed kept out of every run made while this benchmark was written,
/// for confirming later performance claims on unseen inputs.
pub const HELDOUT_SEED: u64 = 90_001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetSteady,
    FleetContended,
    Deploy4k,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fleet-steady" => Some(Workload::FleetSteady),
            "fleet-contended" => Some(Workload::FleetContended),
            "deploy-4k" => Some(Workload::Deploy4k),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetContended => "fleet-contended",
            Workload::Deploy4k => "deploy-4k",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rev = String::from("unknown");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--rev" => rev = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rev,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = cast_sim::par::default_workers();
    out::print_stamp(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        workers,
        &args.rev,
    );
    match run(&args, workers) {
        Ok(outcome) => outcome.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, workers: usize) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut check = Check::default();
    let mut clock = setup::Clock::new(args.workload, args.seed);
    // An end-to-end metric left unset reads NaN and fails the check; a
    // layer the workload does not use reads 0.
    let mut metrics = if args.trace {
        Metrics::new(out::PER_LAYER, 0.0)
    } else {
        Metrics::new(out::END_TO_END, f64::NAN)
    };
    let (k, m, c, s) = (&mut clock, &mut metrics, &mut check, args.seconds);
    let attempted = match (args.workload, args.trace) {
        (Workload::Deploy4k, false) => deploy::measure(k, s, m, c)?,
        (Workload::Deploy4k, true) => deploy::trace(k, s, m, c)?,
        (_, false) => fleet::measure(k, workers, s, m, c)?,
        (_, true) => fleet::trace(k, workers, s, m, c)?,
    };
    println!("# set-ups (s) {:.3?}", clock.totals());
    if args.trace {
        metrics.set("estimator.profile_s", clock.profile_s());
    } else {
        metrics.set("setup_s", clock.setup_s());
        metrics.set("peak_rss_mb", out::peak_rss_mb()?);
    }
    Ok(Outcome {
        check,
        attempted,
        metrics,
    })
}
