//! `CAST_RESULTS_DIR` redirects the committed results `all_experiments`
//! reads, not only the ones it writes. Kept alone in its own test binary:
//! `results_dir()` reads the variable once per process.

use std::fs;

use cast_bench::experiments::sim_scale;

#[test]
fn sim_scale_section_reads_its_baseline_from_cast_results_dir() {
    let dir = std::env::temp_dir().join(format!("cast-results-dir-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join("BENCH_sim.json"),
        r#"{"scenarios": [{"nvm": 25, "jobs": 100, "steps": 424242, "events_per_sec": 2500000.0}]}"#,
    )
    .unwrap();
    std::env::set_var("CAST_RESULTS_DIR", &dir);
    assert_eq!(cast_bench::results_dir(), dir);

    let md = sim_scale::baseline_grid();
    fs::remove_dir_all(&dir).unwrap();
    assert!(
        md.contains("424242"),
        "baseline not read from {dir:?}:\n{md}"
    );
    assert!(!md.contains("no committed"), "{md}");
}
