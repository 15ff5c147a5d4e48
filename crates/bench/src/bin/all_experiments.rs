//! Runs every experiment of the paper and regenerates `EXPERIMENTS.md`
//! with measured-vs-paper values.
//!
//! ```text
//! cargo run --release -p cast-bench --bin all_experiments
//! ```
//!
//! The experiments are mutually independent, so they run concurrently on
//! the [`cast_sim::par`] pool, one worker per experiment. Determinism is
//! preserved by construction: every experiment is seeded and
//! self-contained, the shared profiling cache is warmed once before the
//! pool starts, and the main thread prints and saves the sections in task
//! order — so `EXPERIMENTS.md`, the console markers and every
//! `results/*.json` byte are identical to a sequential run.

use std::fmt::Write as _;
use std::fs;

use cast_bench::experiments::*;
use cast_bench::{expected, ExperimentIo};
use cast_sim::par;

/// One experiment's rendered output: a markdown section and the JSON
/// payloads to persist under `results/`. Workers only compute; the main
/// thread does all printing and file writes, in task order.
struct Section {
    md: String,
    json: Vec<(&'static str, serde_json::Value)>,
}

type Task = fn() -> Section;

fn run_table1() -> Section {
    let t1 = table1::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", t1.render());
    let _ = writeln!(
        md,
        "Paper: Table 1 verbatim (measured fio/gsutil values). Matches by\n\
         construction; persSSD/persHDD throughput points agree within 3 %.\n"
    );
    Section {
        md,
        json: vec![("table1", t1.to_json())],
    }
}

fn run_table2() -> Section {
    let t2 = table2::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", t2.render());
    Section {
        md,
        json: vec![("table2", t2.to_json())],
    }
}

fn run_table4() -> Section {
    let t4 = table4::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", t4.render());
    let _ = writeln!(
        md,
        "Paper: 100 jobs in bins of 1/5/10/50/500/1500/3000 maps\n\
         (35/22/16/13/7/4/3 jobs). Reproduced exactly; >94 % of bytes in bins 5–7\n\
         (paper: >99 % with its trace's exact sizes).\n"
    );
    Section {
        md,
        json: vec![("table4", t4.to_json())],
    }
}

fn run_fig1() -> Section {
    let f1 = fig1::run();
    let winners = fig1::winners();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f1.render());
    let _ = writeln!(
        md,
        "Best-utility tier per application (paper → measured):\n"
    );
    for ((app, tier), (p_app, p_tier)) in winners.iter().zip(expected::FIG1_BEST_UTILITY) {
        let _ = writeln!(
            md,
            "- {p_app}: paper **{p_tier}** → measured **{}** {}",
            tier.name(),
            if tier.name() == p_tier { "✓" } else { "✗" }
        );
        debug_assert_eq!(app.name(), p_app);
    }
    let _ = writeln!(
        md,
        "\nGrep's objStore-over-persSSD utility margin: paper 34.3 %; measured\n\
         value printed in the table above (same order of magnitude).\n"
    );
    Section {
        md,
        json: vec![("fig1", f1.to_json())],
    }
}

fn run_fig2() -> Section {
    let f2 = fig2::run();
    let (sort_red, grep_red) = fig2::reduction_100_to_200();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f2.render());
    let _ = writeln!(
        md,
        "100→200 GB/VM runtime reduction: Sort {:.1} % (paper {:.1} %), Grep\n\
         {:.1} % (paper {:.1} %); gains beyond 500 GB/VM are marginal as the\n\
         per-VM throughput ceiling and per-task framework overheads take over,\n\
         matching the paper's saturation narrative.\n",
        sort_red * 100.0,
        expected::FIG2_SORT_REDUCTION_100_TO_200 * 100.0,
        grep_red * 100.0,
        expected::FIG2_GREP_REDUCTION_100_TO_200 * 100.0,
    );
    Section {
        md,
        json: vec![("fig2", f2.to_json())],
    }
}

fn run_fig3() -> Section {
    let f3 = fig3::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f3.render());
    let _ = writeln!(
        md,
        "Paper claims reproduced: ephSSD wins 1-hour reuse for the I/O\n\
         applications (staging amortised over 7 accesses); objStore becomes the\n\
         tier of choice for Sort at week-long retention; CPU-bound KMeans stays\n\
         with persHDD under every pattern. Week-long retention on ephSSD rents\n\
         the whole fleet for the week (§3.2), which is why every persistent tier\n\
         dwarfs it in that column.\n"
    );
    Section {
        md,
        json: vec![("fig3", f3.to_json())],
    }
}

fn run_fig4() -> Section {
    let f4 = fig4::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f4.render());
    let _ = writeln!(
        md,
        "Shape as in the paper: both single-service plans miss the deadline,\n\
         both hybrids meet it, and `objStore+ephSSD` is the fastest plan.\n\
         Deviation: the paper's three-tier hybrid was ~7 % *cheaper* than\n\
         `objStore+ephSSD`; in our VM-dominated cost model its extra runtime\n\
         makes it slightly pricier instead.\n"
    );
    Section {
        md,
        json: vec![("fig4", f4.to_json())],
    }
}

fn run_fig5() -> Section {
    let (f5a, f5b) = fig5::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n```\n{}```\n", f5a.render(), f5b.render());
    let _ = writeln!(
        md,
        "The all-or-nothing argument reproduces: a 50/50 split is dominated by\n\
         the slow tier, and even 90 % of blocks on ephSSD leaves runtime at\n\
         ~2.5× the all-fast case. Deviation: our persHDD-100 % extreme is far\n\
         worse than the paper's ~430 % because the minimally-provisioned 100 GB\n\
         HDD volume (20 MB/s) is slower than whatever volume backed theirs.\n"
    );
    Section {
        md,
        json: vec![("fig5a", f5a.to_json()), ("fig5b", f5b.to_json())],
    }
}

fn run_fig7() -> Section {
    let fw = cast_bench::paper_framework();
    let spec7 = cast_workload::synth::facebook_workload(Default::default()).expect("synthesis");
    let results7 = fig7::evaluate_all(&fw, &spec7);
    let f7 = fig7::table(&results7);
    let (speedup, cost_red) = fig7::headline(&results7);
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f7.render());
    let _ = writeln!(
        md,
        "Headline (abstract): CAST++ vs the local-storage (ephSSD)\n\
         configuration — measured {speedup:.2}× performance at {:.1} % lower cost\n\
         (paper: {:.2}× and {:.1} %).\n",
        cost_red * 100.0,
        expected::HEADLINE_SPEEDUP,
        expected::HEADLINE_COST_REDUCTION * 100.0,
    );
    let _ = writeln!(
        md,
        "Reproduced shapes: persSSD is the best non-tiered configuration; CAST\n\
         beats every non-tiered and both greedy configurations; greedy\n\
         exact-fit collapses to objStore-level utility (the paper's exact\n\
         observation). Deviations: the margin of CAST over the *best*\n\
         non-tiered configuration is ~16 % here vs the paper's 33.7 % — in our\n\
         cost model VM time dominates storage rent, so placement can only move\n\
         a smaller slice of total cost; CAST's capacity split leans more on\n\
         persSSD/persHDD than the paper's 33/31/16/20 (the cluster-wide\n\
         object-store ceiling and staging costs make ephSSD less attractive at\n\
         25 VMs in our model); and on this annealing trajectory (the vendored\n\
         deterministic RNG) CAST++'s workflow-constrained search trails plain\n\
         CAST's unconstrained utility optimum by a few percent instead of\n\
         edging past it.\n"
    );
    Section {
        md,
        json: vec![("fig7", f7.to_json())],
    }
}

fn run_fig8() -> Section {
    let f8 = fig8::run();
    let (_, err) = fig8::sweep();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f8.render());
    let _ = writeln!(
        md,
        "Average prediction error {:.1} % (paper: 7.9 %), worst point\n\
         {:.1} %, bias {:+.1} %.\n",
        err.mape(),
        err.max_pct(),
        err.bias_pct()
    );
    Section {
        md,
        json: vec![("fig8", f8.to_json())],
    }
}

fn run_fig9() -> Section {
    let f9 = fig9::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", f9.render());
    let _ = writeln!(
        md,
        "Paper: ephSSD 20 %, persSSD 40 %, persHDD 100 %, objStore 100 %, CAST\n\
         60 %, CAST++ 0 % (lowest cost). Measured: the four baselines match\n\
         exactly, and the cheapest configuration meets every deadline.\n\
         Deviations: our workflow-oblivious CAST meets all deadlines — under\n\
         our economics its utility optimum is already speed-optimal, whereas\n\
         the paper's CAST picked slower tiers for utility and missed 60 % —\n\
         and on this run CAST++'s 0.94 planning margin fails to absorb one\n\
         workflow's jitter, so it misses 20 % where the paper's missed none.\n"
    );
    Section {
        md,
        json: vec![("fig9", f9.to_json())],
    }
}

fn run_fault_sweep() -> Section {
    let fs_table = fault_sweep::run();
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", fs_table.render());
    let _ = writeln!(
        md,
        "Beyond the paper: the trimmed Fig. 7 workload replayed under fault\n\
         injection (seeded, deterministic). Makespan grows monotonically with\n\
         the per-task failure rate; a mid-run VM crash finishes via\n\
         re-execution of the killed tasks, and a degraded-tier scenario shows\n\
         speculative backups rescuing stragglers.\n"
    );
    Section {
        md,
        json: vec![("fault_sweep", fs_table.to_json())],
    }
}

fn run_online_drift() -> Section {
    let cfg = online_drift::OnlineDriftConfig::smoke();
    let (table, json) = online_drift::run(&cfg);
    let (static_cost, periodic_cost, periodic_mb, hysteresis_mb, periodic_adopt, hyst_adopt) =
        online_drift::headline(&json);
    let mut md = String::new();
    let _ = writeln!(md, "```\n{}```\n", table.render());
    let _ = writeln!(
        md,
        "Beyond the paper: the same seeded, drifting arrival stream served\n\
         online under the three replanning policies (plus deadline admission).\n\
         Periodic replanning beats static serving on tenancy cost\n\
         ({periodic_cost:.2} vs {static_cost:.2} $, {:+.1} %), and hysteresis\n\
         vetoes marginal adoptions ({hyst_adopt} vs {periodic_adopt}) without\n\
         ever migrating more bytes than naive replanning ({hysteresis_mb:.0}\n\
         vs {periodic_mb:.0} MB) while keeping most of the cost advantage over\n\
         static. The full-size\n\
         run (`cargo run --release -p cast-bench --bin online_drift`) serves a\n\
         4-hour stream; this section uses the CI-sized `--smoke` configuration.\n",
        (periodic_cost / static_cost - 1.0) * 100.0,
    );
    Section {
        md,
        json: vec![("online_drift", json)],
    }
}

fn run_durability_sweep() -> Section {
    let cfg = durability_sweep::DurabilitySweepConfig::smoke();
    let (sweep, pareto, json) = durability_sweep::run(&cfg);
    let (lost, reduction) = durability_sweep::headline(&json);
    let mut md = String::new();
    let _ = writeln!(
        md,
        "```\n{}```\n```\n{}```\n",
        sweep.render(),
        pareto.render()
    );
    let _ = writeln!(
        md,
        "Beyond the paper: the drift stream re-served with copy faults\n\
         injected into every scheduled migration. Fire-and-forget loses\n\
         {lost} dataset(s) at the highest fault rate; copy→verify→retire\n\
         loses zero at every rate, paying for safety with verification\n\
         reads, retried partial copies and backoff instead of data. On the\n\
         cold tier, rs(4+2) matches rep(3)'s two-loss tolerance at\n\
         {:.0} % lower storage rent. The full-size run\n\
         (`cargo run --release -p cast-bench --bin durability_sweep`)\n\
         sweeps five fault rates over the 4-hour stream; this section uses\n\
         the CI-sized `--smoke` configuration.\n",
        reduction * 100.0,
    );
    Section {
        md,
        json: vec![("durability_sweep", json)],
    }
}

/// Render the engine scale grid from the committed `sim_scale` baseline.
/// The grid itself is regenerated by `cargo run --release -p cast-bench
/// --bin sim_scale -- --out results/BENCH_sim.json` (minutes of reference
/// runs), so this section reads the committed JSON instead of re-running.
fn run_sim_scale_section() -> Section {
    let mut md = String::from("## Engine scale grid (`sim_scale`)\n\n");
    md.push_str(&sim_scale::baseline_grid());
    let _ = writeln!(
        md,
        "Beyond the paper: throughput of the engine itself across cluster\n\
         size and backlog depth (committed baseline `results/BENCH_sim.json`,\n\
         regenerated by `sim_scale --out`; numbers above are re-rendered from\n\
         that file, not re-measured). Per-event cost is flat from 25 to\n\
         10 000 VMs and from 100 to 4 000 jobs — the dirty-set/indexed-heap\n\
         design keeps per-event work bounded by *affected* flows, not by\n\
         cluster or backlog size. The reference stepper is only timed up to\n\
         100 VMs / 400 jobs (above that a single comparison run takes\n\
         minutes); its column widens with scale exactly as O(E·N) predicts.\n\
         The parallel row is the aggregate over concurrent independent runs\n\
         on the worker pool: on one core it matches single-run throughput,\n\
         on an 8-core machine it is the 10 M events/s headline path.\n\
         `--smoke` runs the 25-VM and 4 000-job scenarios plus a small\n\
         parallel batch; CI gates events/s against the committed baseline\n\
         with 25 % tolerance.\n"
    );
    Section { md, json: vec![] }
}

fn main() {
    let io = ExperimentIo::from_args("all_experiments");

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs measured\n\n\
         Regenerated by `cargo run --release -p cast-bench --bin all_experiments`.\n\
         Absolute numbers are not expected to match the paper (our substrate is a\n\
         calibrated simulator, not the authors' 2015 Google Cloud deployment); the\n\
         *shapes* — who wins, rough factors, crossovers — are the reproduction\n\
         targets. Deviations are called out inline.\n\n\
         Solve times: the planning experiments (Fig. 7/9 and the CAST/CAST++\n\
         rows elsewhere) anneal through the incremental scorer\n\
         (`cast-solver`'s ledger + `REG` memo — bit-identical to the full\n\
         oracle, see DESIGN.md \"Solver performance\") and the experiments\n\
         themselves run concurrently on scoped threads, so a full regeneration\n\
         takes roughly the wall-clock of its slowest figure instead of the sum\n\
         of all of them. `cargo bench --bench solver_eval` prints the measured\n\
         full-vs-incremental solve-loop speedup.\n\n\
         Simulator engine: every experiment drives the event-driven\n\
         engine behind `cast_sim::Sim` (incremental share rates + completion heap;\n\
         see DESIGN.md \"Engine performance\"). The pre-overhaul stepper is kept\n\
         compiled behind the default-on `reference-engine` feature purely as an\n\
         equivalence oracle — `cargo test -p cast-sim --test engine_equivalence`\n\
         checks the two agree within 1e-6 relative across randomized fault\n\
         scenarios, and `cargo run --release -p cast-bench --bin sim_scale`\n\
         measures the throughput gap (committed baseline:\n\
         `results/BENCH_sim.json`; CI gates on a >25 % regression). Disabling\n\
         the feature (`--no-default-features` on cast-sim) drops the oracle from\n\
         the build; results are unaffected.\n\n\
         Observability: pass `--trace-out [STEM]` (also understood by the\n\
         `fault_sweep` binary) to record every solver and simulator run into\n\
         `results/STEM.trace.ndjson` — one JSON event per line: job / phase /\n\
         wave / task spans, tier-contention samples and fault edges from the\n\
         simulator, restart / epoch / move samples from the annealer — plus a\n\
         counters-and-gauges summary in `results/STEM.metrics.json`. Recording\n\
         never changes results: every table and JSON above is byte-identical\n\
         with or without it (see DESIGN.md \"Observability\").\n"
    );

    // Warm the shared on-disk profiling cache (results/model_matrix.json)
    // before any worker spawns, so concurrent experiments read the cached
    // matrix instead of racing to profile and write it.
    eprintln!("[warming estimator cache]");
    let _ = cast_bench::paper_estimator();

    let tasks: Vec<(&'static str, Task)> = vec![
        ("table1", run_table1),
        ("table2", run_table2),
        ("table4", run_table4),
        ("fig1", run_fig1),
        ("fig2", run_fig2),
        ("fig3", run_fig3),
        ("fig4", run_fig4),
        ("fig5", run_fig5),
        (
            "fig7 (plans + deploys 8 configurations — takes a minute)",
            run_fig7,
        ),
        ("fig8", run_fig8),
        ("fig9 (plans + deploys 6 configurations)", run_fig9),
        ("fault_sweep", run_fault_sweep),
        ("online_drift (serves the stream 4x)", run_online_drift),
        (
            "durability_sweep (serves the stream per protocol x rate)",
            run_durability_sweep,
        ),
        (
            "sim_scale (re-rendered from baseline)",
            run_sim_scale_section,
        ),
    ];

    let sections = par::run_indexed(tasks.len(), tasks.len(), |i| (tasks[i].1)());
    for ((label, _), section) in tasks.iter().zip(sections) {
        eprintln!("[{label}]");
        md.push_str(&section.md);
        for (name, value) in &section.json {
            io.save_json(name, value);
        }
    }

    let path = "EXPERIMENTS.md";
    fs::write(path, &md).expect("write EXPERIMENTS.md");
    eprintln!("[wrote {path}; JSON in {}]", io.results_dir().display());
    io.finish();
    println!("{md}");
}
