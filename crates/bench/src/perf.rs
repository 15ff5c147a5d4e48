//! The CI perf-gate harness shared by the throughput bins (`sim_scale`,
//! `runtime_epoch`, `tenant_scale`).
//!
//! Every gated bin takes the same flags:
//!
//! ```text
//! <bin> [--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]
//! ```
//!
//! * `--smoke` runs the bin's reduced, CI-sized configuration.
//! * `--out PATH` writes the JSON report to a file as well as stdout.
//! * `--check BASELINE` loads a committed baseline report and fails the
//!   run (exit 1) when a gated metric is worse than the baseline by more
//!   than the tolerance: below `baseline × (1 − tolerance)` for an
//!   at-least metric (throughput), above `baseline × (1 + tolerance)`
//!   for an at-most metric (latency). An unreadable or malformed
//!   baseline also exits 1.
//! * `--tolerance F` is that fraction (default 0.25).
//!
//! An unknown flag, a flag missing its value or a tolerance that is not a
//! finite number `>= 0` prints the usage line and exits 2.
//!
//! The baseline is parsed as generic JSON rather than deserialized into
//! the bin's report type: the vendored serde shim hard-errors on missing
//! fields, and baselines outlive the report schema. A gated metric that
//! is absent or null in the baseline is skipped with a note, so older
//! baselines (and smoke runs against full baselines) still check.
//!
//! Each bin keeps only what differs: its report type and a closure that
//! names its gated metrics (see [`finish`]).

use serde::Serialize;
use serde_json::Value;

/// The parsed perf-gate flags.
#[derive(Debug, PartialEq)]
pub struct PerfArgs {
    /// `--smoke`: run the CI-sized configuration.
    pub smoke: bool,
    /// `--out PATH`: also write the report here.
    pub out: Option<String>,
    /// `--check BASELINE`: gate against this baseline report.
    pub check: Option<String>,
    /// `--tolerance F`: allowed relative regression.
    pub tolerance: f64,
}

impl Default for PerfArgs {
    fn default() -> Self {
        PerfArgs {
            smoke: false,
            out: None,
            check: None,
            tolerance: 0.25,
        }
    }
}

impl PerfArgs {
    /// Parse `args` (without the program name). Errors name the bad flag.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<PerfArgs, String> {
        let mut parsed = PerfArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = Some(value("PATH")?),
                "--check" => parsed.check = Some(value("BASELINE")?),
                "--tolerance" => {
                    // A NaN tolerance would pass every check.
                    let raw = value("a fraction")?;
                    parsed.tolerance = raw
                        .parse()
                        .ok()
                        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| format!("--tolerance {raw} is not a fraction >= 0"))?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(parsed)
    }

    /// Parse the process arguments for `bin`; on error print the problem
    /// and the usage line, and exit 2.
    pub fn from_env(bin: &str) -> PerfArgs {
        PerfArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            eprintln!("usage: {bin} [--smoke] [--out PATH] [--check BASELINE] [--tolerance 0.25]");
            std::process::exit(2);
        })
    }

    /// The report's `mode` field: `"smoke"` or `"full"`.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Load a baseline report as generic JSON.
fn load_baseline(path: &str) -> Result<Value, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("bad baseline JSON in {path}: {e}"))
}

/// The entry of a baseline array (e.g. `scenarios`) whose fields equal
/// every `(key, value)` pair, or `Null` when none does.
pub fn find_entry<'a>(list: &'a Value, keys: &[(&str, u64)]) -> &'a Value {
    const NULL: &Value = &Value::Null;
    list.as_array()
        .and_then(|entries| {
            entries
                .iter()
                .find(|e| keys.iter().all(|(k, v)| e[*k] == *v))
        })
        .unwrap_or(NULL)
}

/// The baseline section a run gates against: a smoke run prefers the
/// baseline's `smoke` section (a smoke-sized reference) when it records
/// `key`, and falls back to `full` otherwise. Returns the section name
/// with the section.
pub fn section<'a>(
    baseline: &'a Value,
    smoke: bool,
    full: &'static str,
    key: &str,
) -> (&'static str, &'a Value) {
    if smoke && baseline["smoke"][key].as_f64().is_some() {
        ("smoke", &baseline["smoke"])
    } else {
        (full, &baseline[full])
    }
}

/// Floor/ceiling checks against a baseline, collecting failures.
pub struct Gate {
    tolerance: f64,
    failures: Vec<String>,
}

impl Gate {
    /// A gate allowing `tolerance` relative regression on every metric.
    fn new(tolerance: f64) -> Gate {
        Gate {
            tolerance,
            failures: Vec::new(),
        }
    }

    /// Require `cur` to be at least `base × (1 − tolerance)`.
    pub fn at_least(&mut self, name: &str, cur: f64, base: Option<f64>) {
        self.check(name, cur, base, false)
    }

    /// Require `cur` to be at most `base × (1 + tolerance)`.
    pub fn at_most(&mut self, name: &str, cur: f64, base: Option<f64>) {
        self.check(name, cur, base, true)
    }

    fn check(&mut self, name: &str, cur: f64, base: Option<f64>, ceiling: bool) {
        let Some(base) = base else {
            eprintln!("check {name}: no baseline value; skipped");
            return;
        };
        let (kind, bound, regressed) = if ceiling {
            let bound = base * (1.0 + self.tolerance);
            ("ceiling", bound, cur > bound)
        } else {
            let bound = base * (1.0 - self.tolerance);
            ("floor", bound, cur < bound)
        };
        let (cur_s, base_s, bound_s) = (num(cur), num(base), num(bound));
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        eprintln!("check {name}: {cur_s} vs baseline {base_s} ({kind} {bound_s}) {verdict}");
        if !regressed {
            return;
        }
        let pct = (100.0 * (cur / base - 1.0).abs()).round();
        let (op, side) = if ceiling {
            (">", "above")
        } else {
            ("<", "below")
        };
        self.failures.push(format!(
            "{name} {cur_s} {op} {bound_s} ({pct}% {side} baseline {base_s})"
        ));
    }

    /// One line per regressed metric; empty when everything passed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Four significant digits, without an exponent.
fn num(x: f64) -> String {
    let magnitude = if x == 0.0 || !x.is_finite() {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    let decimals = (3 - magnitude).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

/// Emit the report and run the gate: pretty JSON to stdout (and, with
/// `--out`, the same JSON plus a trailing newline to that file); then,
/// with `--check`, load the baseline and hand it to `checks`, which
/// names the bin's gated metrics on the [`Gate`]. Exits 1 when the
/// baseline cannot be loaded or any check regressed.
pub fn finish<R, F>(bin: &str, args: &PerfArgs, report: &R, checks: F)
where
    R: Serialize,
    F: FnOnce(&Value, &mut Gate),
{
    let json = serde_json::to_string_pretty(report).expect("serialize");
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write report");
        eprintln!("wrote {path}");
    }
    let Some(path) = &args.check else {
        return;
    };
    let baseline = load_baseline(path).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(1);
    });
    let mut gate = Gate::new(args.tolerance);
    checks(&baseline, &mut gate);
    if !gate.failures().is_empty() {
        eprintln!(
            "{bin}: regression against {path}:\n{}",
            gate.failures().join("\n")
        );
        std::process::exit(1);
    }
}

/// The `p`-quantile (`p` in `[0, 1]`) of a non-empty sample, by nearest
/// rank on the sorted set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PerfArgs, String> {
        PerfArgs::parse(args.iter().map(|s| s.to_string()))
    }

    fn json(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON")
    }

    #[test]
    fn parse_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, PerfArgs::default());
        assert!(!a.smoke);
        assert_eq!(a.tolerance, 0.25);
        assert_eq!(a.mode(), "full");
    }

    #[test]
    fn parse_every_flag() {
        let a = parse(&[
            "--smoke",
            "--out",
            "r.json",
            "--check",
            "base.json",
            "--tolerance",
            "0.1",
        ])
        .unwrap();
        assert_eq!(
            a,
            PerfArgs {
                smoke: true,
                out: Some("r.json".into()),
                check: Some("base.json".into()),
                tolerance: 0.1,
            }
        );
        assert_eq!(a.mode(), "smoke");
    }

    #[test]
    fn parse_rejects_unknown_flags_and_missing_values() {
        assert_eq!(parse(&["--fast"]).unwrap_err(), "unknown flag --fast");
        assert_eq!(
            parse(&["--smoke", "extra"]).unwrap_err(),
            "unknown flag extra"
        );
        assert_eq!(parse(&["--out"]).unwrap_err(), "--out needs PATH");
        assert_eq!(parse(&["--check"]).unwrap_err(), "--check needs BASELINE");
        assert_eq!(
            parse(&["--tolerance"]).unwrap_err(),
            "--tolerance needs a fraction"
        );
        for bad in ["lots", "NaN", "inf", "-0.1"] {
            assert_eq!(
                parse(&["--tolerance", bad]).unwrap_err(),
                format!("--tolerance {bad} is not a fraction >= 0")
            );
        }
    }

    #[test]
    fn floor_passes_at_the_tolerance_and_fails_just_past_it() {
        let mut g = Gate::new(0.25);
        g.at_least("tps", 75.0, Some(100.0));
        g.at_least("tps", 500.0, Some(100.0));
        assert!(g.failures().is_empty());
        g.at_least("tps", 74.99, Some(100.0));
        assert_eq!(
            g.failures(),
            ["tps 74.99 < 75.00 (25% below baseline 100.0)"]
        );
    }

    #[test]
    fn ceiling_passes_at_the_tolerance_and_fails_just_past_it() {
        let mut g = Gate::new(0.25);
        g.at_most("p99", 0.125, Some(0.1));
        g.at_most("p99", 0.001, Some(0.1));
        assert!(g.failures().is_empty());
        g.at_most("p99", 0.12501, Some(0.1));
        assert_eq!(g.failures().len(), 1);
        assert!(g.failures()[0].starts_with("p99 0.1250 > 0.1250 (25% above"));
    }

    #[test]
    fn absent_or_null_baseline_metrics_are_skipped() {
        let base = json(r#"{"whatif": {"forks_per_sec": null}}"#);
        let mut g = Gate::new(0.25);
        // Values that would fail against any baseline.
        g.at_least("forks", 0.0, base["whatif"]["forks_per_sec"].as_f64());
        g.at_most("lat", 1e9, base["whatif"]["missing"].as_f64());
        assert!(g.failures().is_empty());
    }

    #[test]
    fn smoke_runs_prefer_the_smoke_section_when_it_has_the_key() {
        let both =
            json(r#"{"fleet": {"tenants_per_sec": 5000}, "smoke": {"tenants_per_sec": 900}}"#);
        let (name, s) = section(&both, true, "fleet", "tenants_per_sec");
        assert_eq!(
            (name, s["tenants_per_sec"].as_f64()),
            ("smoke", Some(900.0))
        );
        let (name, s) = section(&both, false, "fleet", "tenants_per_sec");
        assert_eq!(
            (name, s["tenants_per_sec"].as_f64()),
            ("fleet", Some(5000.0))
        );

        // Older baselines without a smoke reference (or with one lacking
        // the key) fall back to the full section.
        for old in [
            r#"{"fleet": {"tenants_per_sec": 5000}}"#,
            r#"{"fleet": {"tenants_per_sec": 5000}, "smoke": {"tenants_per_sec": null}}"#,
        ] {
            let old = json(old);
            let (name, s) = section(&old, true, "fleet", "tenants_per_sec");
            assert_eq!(
                (name, s["tenants_per_sec"].as_f64()),
                ("fleet", Some(5000.0))
            );
        }
    }

    #[test]
    fn scenarios_match_on_every_key() {
        let base = json(
            r#"{"scenarios": [
                {"nvm": 25, "jobs": 100, "events_per_sec": 1000},
                {"nvm": 25, "jobs": 400, "events_per_sec": 2000},
                {"nvm": 400, "jobs": 4000, "events_per_sec": null}
            ]}"#,
        );
        let eps = |nvm, jobs| {
            find_entry(&base["scenarios"], &[("nvm", nvm), ("jobs", jobs)])["events_per_sec"]
                .as_f64()
        };
        assert_eq!(eps(25, 100), Some(1000.0));
        assert_eq!(eps(25, 400), Some(2000.0));
        // Recorded without a rate, or missing from the baseline: nothing
        // to gate against.
        assert_eq!(eps(400, 4000), None);
        assert_eq!(eps(100, 100), None);
        assert_eq!(find_entry(&Value::Null, &[("nvm", 25)]), &Value::Null);
    }

    #[test]
    fn load_baseline_reports_unreadable_and_malformed_files() {
        let dir = std::env::temp_dir().join(format!("cast-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        let bad = bad.to_str().unwrap();
        assert!(load_baseline(bad)
            .unwrap_err()
            .starts_with("bad baseline JSON"));
        let missing = dir.join("missing.json");
        assert!(load_baseline(missing.to_str().unwrap())
            .unwrap_err()
            .starts_with("cannot read baseline"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }
}
