//! The engine scale grid section of `EXPERIMENTS.md`, re-rendered from
//! the committed `sim_scale` baseline instead of re-measured (the grid
//! takes minutes of reference-engine runs; `sim_scale --out` retakes it).

use std::fmt::Write as _;
use std::fs;

use crate::results_dir;

/// Render `BENCH_sim.json` from [`results_dir`] as a fixed-width table,
/// or a one-line note when there is no readable baseline.
pub fn baseline_grid() -> String {
    let mut md = String::new();
    match fs::read_to_string(results_dir().join("BENCH_sim.json"))
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
    {
        Some(report) => {
            let _ = writeln!(
                md,
                "```\n{:<7}{:<7}{:<10}{:<11}vs reference",
                "nvm", "jobs", "steps", "events/s"
            );
            let empty = Vec::new();
            for sc in report["scenarios"].as_array().unwrap_or(&empty) {
                let ev = sc["events_per_sec"].as_f64().unwrap_or(0.0);
                let speedup = sc["speedup"]
                    .as_f64()
                    .map_or("-".to_string(), |s| format!("{s:.1}x"));
                let _ = writeln!(
                    md,
                    "{:<7}{:<7}{:<10}{:<11}{speedup}",
                    format!("{}", sc["nvm"].as_f64().unwrap_or(0.0) as u64),
                    format!("{}", sc["jobs"].as_f64().unwrap_or(0.0) as u64),
                    format!("{}", sc["steps"].as_f64().unwrap_or(0.0) as u64),
                    format!("{:.2}M", ev / 1e6),
                );
            }
            let par = &report["parallel"];
            if let Some(ev) = par["events_per_sec"].as_f64() {
                let _ = writeln!(
                    md,
                    "parallel: {} runs x ({} VM, {} jobs) = {:.2}M events/s aggregate",
                    par["runs"].as_f64().unwrap_or(0.0) as u64,
                    par["nvm"].as_f64().unwrap_or(0.0) as u64,
                    par["jobs"].as_f64().unwrap_or(0.0) as u64,
                    ev / 1e6,
                );
            }
            md.push_str("```\n\n");
        }
        None => md.push_str("(no committed `results/BENCH_sim.json` baseline)\n\n"),
    }
    md
}
