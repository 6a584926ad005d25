//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload expand --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed as `name value unit`; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced).  The exit
//! code is non-zero when any output check failed.

use std::path::Path;
use std::process::ExitCode;

use crowddb_perfbench::{result_json, run, Args, Metrics, Plan, WorkDir};

fn print_table(title: &str, metrics: &Metrics) {
    println!("# {title}");
    for (name, m) in metrics {
        println!("{name:<42} {:>14.4} {}", m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".perfbench_out");
    let work = match WorkDir::create(root, &args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = run(
        &args.workload,
        args.seed,
        Plan::from_args(&args),
        work.path(),
    );
    drop(work);

    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let finite = metrics.values().all(|m| m.value.is_finite());
    let correct = report.checks.all_passed() && report.short_samples.is_empty() && finite;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print_table("end-to-end", &report.end_to_end);
    print_table("workload detail", &report.detail);
    if args.trace {
        print_table("per-layer", &report.per_layer);
    }
    for failure in report.checks.failures.iter().chain(&report.short_samples) {
        eprintln!("perfbench: check failed: {failure}");
    }
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    println!("{}", result_json(correct, &report.checks, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
