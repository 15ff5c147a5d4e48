//! Reporting: the machine stamp, metric lines, output checks, digests
//! and the final JSON result line.

use std::process::ExitCode;
use std::time::Instant;

/// The measuring window of one run. A repetition starts only while it is
/// expected to end within `seconds` of the window opening (the longest
/// repetition so far predicts the next), and at least `min` always run.
pub struct Window {
    end: Instant,
    last: Instant,
    longest: f64,
    done: usize,
    min: usize,
}

impl Window {
    pub fn new(seconds: f64, min: usize) -> Window {
        let now = Instant::now();
        Window {
            end: now + std::time::Duration::from_secs_f64(seconds),
            last: now,
            longest: 0.0,
            done: 0,
            min,
        }
    }

    /// Whether to run another repetition; call once before each.
    pub fn more(&mut self) -> bool {
        let now = Instant::now();
        if self.done > 0 {
            self.longest = self.longest.max((now - self.last).as_secs_f64());
        }
        self.last = now;
        let go = self.done < self.min
            || now + std::time::Duration::from_secs_f64(self.longest) <= self.end;
        self.done += usize::from(go);
        go
    }
}

/// The end-to-end metrics (`--trace 0`), with their units, in the order
/// `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tenants_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_completed", "count"),
    ("on_time_frac", "ratio"),
    ("served_frac", "ratio"),
    ("cost_usd", "usd"),
];

/// The per-layer metrics (`--trace 1`), with their units, in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.begin_s", "s"),
    ("runtime.solve_s", "s"),
    ("runtime.finish_s", "s"),
    ("runtime.solve_p99_us", "us"),
    ("runtime.execute_s", "s"),
    ("runtime.execute_p99_us", "us"),
    ("runtime.adoption_ratio", "ratio"),
    ("runtime.replan_moves", "count"),
    ("fleet.group_s", "s"),
    ("fleet.admit_s", "s"),
    ("fleet.settle_s", "s"),
    ("fleet.solves", "count"),
    ("fleet.dedup_fanouts", "count"),
    ("fleet.replans_skipped", "count"),
    ("fleet.dedup_ratio", "ratio"),
    ("fleet.executed", "count"),
    ("fleet.deferred", "count"),
    ("fleet.rejected_batches", "count"),
    ("fleet.deadline_misses", "count"),
    ("solver.init_s", "s"),
    ("solver.anneal_s", "s"),
    ("solver.iterations", "count"),
    ("solver.acceptance_rate", "ratio"),
    ("cloud.provision_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.steps", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.scratch_reallocs", "count"),
    ("sim.makespan_s", "s"),
    ("core.plan_s", "s"),
    ("core.deploy_s", "s"),
    ("workload.stream_s", "s"),
    ("estimator.profile_s", "s"),
    ("traced.total_s", "s"),
    ("traced.unattributed_frac", "ratio"),
    ("traced.overhead_frac", "ratio"),
];

/// One value for every metric of a table, printed in the table's order.
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Every metric of `table`, each reading `fill` until it is set.
    pub fn new(table: &[(&'static str, &'static str)], fill: f64) -> Metrics {
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| (name, fill, unit))
                .collect(),
        )
    }

    /// Set a metric of the table.
    ///
    /// # Panics
    /// On a name the table does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        slot.1 = value;
    }
}

/// Failed output checks (empty means the outputs are correct).
#[derive(Default)]
pub struct Check(Vec<String>);

impl Check {
    /// Record `what` as a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.0.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.0.is_empty()
    }
}

pub struct Outcome {
    pub check: Check,
    /// Operations attempted in the measured section.
    pub attempted: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Print one line per metric, then the JSON result as the last line.
    /// Exits non-zero when a check failed or a metric is not finite.
    pub fn print(mut self) -> ExitCode {
        for &(name, value, unit) in &self.metrics.0 {
            self.check
                .expect(value.is_finite(), || format!("{name} is not finite"));
            println!("metric {name} = {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.check.passed();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            body.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(3)
        }
    }
}

/// Print the run's stamp: machine, source revision, seed and workers.
pub fn print_stamp(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    rev: &str,
) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# stamp {{\"workload\": \"{workload}\", \"seed\": {seed}, \"heldout_seed\": {}, \
         \"seconds\": {seconds}, \"trace\": {}, \"workers\": {workers}, \"nproc\": {nproc}, \
         \"cpu\": \"{cpu}\", \"rev\": \"{rev}\"}}",
        crate::HELDOUT_SEED,
        u8::from(trace),
    );
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over a stream of words: the digest of deterministic outputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The shortest of a sample of wall times. Host load only ever adds
/// time, so the fastest repetition is the one it moved least.
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank 99th percentile of a sample (0 when empty).
pub fn p99(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((0.99 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The tables name exactly the metrics, units and order of
    /// `BENCHMARK.json`, so a rename cannot silently drop a metric.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let bench: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = bench[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }
}
