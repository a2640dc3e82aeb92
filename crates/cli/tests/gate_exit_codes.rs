//! The three benchmark gates exit 1 on a violating input.
//!
//! `bench-compare`, `bench-cluster` and `bench-workload` all evaluate the
//! gate table in `sww_bench::gate`; these tests drive each command with
//! an input that breaks one invariant and check it fails loudly, while
//! the same command on a sound input passes.

use std::process::{Command, Output};

fn sww(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sww-cli"))
        .args(args)
        .output()
        .expect("run sww-cli")
}

fn assert_fails_with(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("FAIL: ") && l.contains(needle)),
        "expected a FAIL line containing {needle:?}, got: {stderr}"
    );
}

#[test]
fn bench_compare_exits_1_on_steady_state_allocation() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR6.json");
    let ok = sww(&["bench-compare", baseline, baseline]);
    assert!(ok.status.success(), "{ok:?}");
    let text = std::fs::read_to_string(baseline).expect("read baseline");
    let report = text.replacen(
        "\"alloc_bytes_steady\": 0,",
        "\"alloc_bytes_steady\": 4096,",
        1,
    );
    let leaky = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("leaky_report.json");
    std::fs::write(&leaky, report).expect("write report");
    let out = sww(&["bench-compare", baseline, leaky.to_str().unwrap()]);
    assert_fails_with(&out, "alloc_bytes_steady = 4096");
}

#[test]
fn bench_cluster_exits_1_when_the_hit_rate_plateaus() {
    let small = ["--threads", "1", "--requests", "2", "--prompts", "4"];
    let ok = sww(&[&["bench-cluster", "--nodes", "1,2"], &small[..]].concat());
    assert!(ok.status.success(), "{ok:?}");
    // Two sweeps at the same width cannot show a rising hit rate.
    let out = sww(&[&["bench-cluster", "--nodes", "2,2"], &small[..]].concat());
    assert_fails_with(&out, "hit_rate must strictly increase with nodes");
}

#[test]
fn bench_workload_exits_1_when_the_hit_rate_does_not_rise_with_clustering() {
    let small = [
        "--pages",
        "48",
        "--k",
        "6",
        "--requests",
        "2000",
        "--live-requests",
        "30",
    ];
    // Two graphs with one β have one clustering coefficient.
    let out = sww(&[&["bench-workload", "--betas", "0.2,0.2"], &small[..]].concat());
    assert_fails_with(&out, "hit_rate must strictly increase with clustering");
    let out = sww(&[&["bench-workload", "--deadline-ms", "1"], &small[..]].concat());
    assert_fails_with(&out, "over the deadline_ms 1");
}
