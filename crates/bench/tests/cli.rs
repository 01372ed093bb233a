//! The `gcl-bench` command line: subcommand dispatch, the shared flags,
//! and exit codes that follow the gate.

use std::process::{Command, Output};

fn gcl_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcl-bench"))
        .args(args)
        .current_dir("../..")
        .output()
        .expect("gcl-bench runs")
}

#[test]
fn diff_exits_nonzero_on_a_regressed_document() {
    let sim = std::fs::read_to_string("../../BENCH_sim.json").unwrap();
    let stalled = sim.replacen(
        "\"events_per_sec\": 15513602.9",
        "\"events_per_sec\": 1.0",
        1,
    );
    assert_ne!(sim, stalled, "the flood_n16 row moved");
    let path = format!("{}/stalled_sim.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, stalled).unwrap();
    let out = gcl_bench(&["diff", &path, "--check", "BENCH_sim.json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("gross regression"));
    // Without a baseline only the document's own rules apply.
    assert!(gcl_bench(&["diff", &path]).status.success());
    let ok = gcl_bench(&["diff", "BENCH_sim.json", "--check", "BENCH_sim.json"]);
    assert!(ok.status.success());
}

#[test]
fn bad_invocations_fail_with_usage() {
    for args in [
        &[][..],
        &["nonsense"],
        &["throughput", "--max-regression", "3"],
        &["smr", "--out"],
        &["diff"],
        &["diff", "no/such/file.json"],
    ] {
        let out = gcl_bench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("error: "),
            "{args:?}"
        );
    }
}

#[test]
fn lower_bounds_prints_the_replayed_executions() {
    let out = gcl_bench(&["lower-bounds"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.starts_with("Lower-bound executions, replayed\n"),
        "{text}"
    );
    // The three strawmen break; the three real protocols survive.
    assert_eq!(text.matches("AGREEMENT VIOLATED").count(), 3, "{text}");
    assert_eq!(text.matches("agreement preserved").count(), 3, "{text}");
}
