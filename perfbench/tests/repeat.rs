//! The benchmark's own repeatability check: two short runs with one seed
//! must agree exactly on every figure that does not depend on timing
//! (crowd dollars, extraction g-mean, crowd rounds, invoiced judgments,
//! WAL bytes), and a different seed must change the generated inputs.

use std::path::PathBuf;

use crowddb_perfbench::{expand, oltp, remote, run, Invariants, Plan, WorkDir, WORKLOADS};

fn short_run(workload: &str, seed: u64) -> Invariants {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-repeat");
    let dir = WorkDir::create(&root, &format!("{workload}-{seed}")).expect("scratch dir");
    let plan = Plan {
        seconds: 1.0,
        setup_repeats: 1,
        trace: false,
    };
    let report = run(workload, seed, plan, dir.path());
    assert!(
        report.checks.all_passed(),
        "{workload}: {:?}",
        report.checks.failures
    );
    assert!(report.checks.attempted > 0, "{workload} ran no operations");
    report.invariants
}

#[test]
fn one_seed_repeats_exactly() {
    for workload in WORKLOADS {
        let first = short_run(workload, 7);
        let second = short_run(workload, 7);
        assert!(!first.values.is_empty(), "{workload} records no invariants");
        assert_eq!(first, second, "{workload} is not repeatable");
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    assert_ne!(expand::input_fingerprint(7), expand::input_fingerprint(8));
    assert_ne!(oltp::input_fingerprint(7), oltp::input_fingerprint(8));
    assert_ne!(remote::input_fingerprint(7), remote::input_fingerprint(8));
}
