//! The gated throughput bins share `cast_bench::perf`'s strict flag
//! parser: a bad command line exits 2 before any benchmark work runs.

use std::process::Command;

#[test]
fn bad_flags_exit_2_with_the_usage_line() {
    let bins = [
        env!("CARGO_BIN_EXE_sim_scale"),
        env!("CARGO_BIN_EXE_runtime_epoch"),
        env!("CARGO_BIN_EXE_tenant_scale"),
    ];
    let bad: [&[&str]; 3] = [&["--bogus"], &["--smoke", "--out"], &["--tolerance", "x"]];
    for bin in bins {
        for args in bad {
            let out = Command::new(bin).args(args).output().expect("spawn bin");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        }
    }
}
