//! End-to-end and per-layer benchmark of the crowd-enabled database.
//!
//! Three closed-loop workloads drive the system through its public API only:
//!
//! * `expand` — the paper's own workflow on an in-memory database: a cold
//!   genre query pays the crowd for a new column, 20 warm repeats reuse it,
//! * `oltp` — stored point reads, range reads and single-row inserts on a
//!   65,536-row hash-partitioned persistent table, no crowd,
//! * `remote` — the same movie domain behind the TCP service, two clients
//!   mixing point, range and warm reads with racing cold expansions.
//!
//! Every workload reports the same end-to-end metric names (`setup_s`,
//! `ops_per_s`, `peak_rss_mb`, `read_ms.p75`), each defined per
//! workload in `perfbench/METRICS.md`, and prints its workload-specific
//! figures (cold/warm expansion, first row, range reads, commits, recovery,
//! crowd dollars, extraction quality) by name above the result line.  A
//! traced run (`--trace 1`) reruns the workload with spans recorded around
//! every call into the system, and times each layer's public entry points
//! on the workload's inputs.

pub mod expand;
pub mod layers;
pub mod meter;
pub mod oltp;
pub mod remote;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["expand", "oltp", "remote"];

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One metric value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Named metrics, ordered by name.
pub type Metrics = BTreeMap<String, Metric>;

/// Adds a metric to a map.
pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), Metric { value, unit });
}

/// Tallies of verified operations and failed checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Descriptions of the first failures (bounded).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one attempted operation and whether it was verified correct.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = ok {
            self.failed += 1;
            self.fail(reason);
        }
    }

    /// Records a failed check that is not an operation of the timed phase.
    pub fn fail(&mut self, reason: String) {
        if self.failures.len() < 20 {
            self.failures.push(reason);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.fail(f);
        }
    }

    /// True when no operation failed and no other check failed.
    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Figures that must repeat exactly across runs with one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Invariants {
    /// Named exact figures (dollars, g-means, rounds, judgments, bytes).
    pub values: BTreeMap<String, f64>,
    /// A fingerprint of the generated inputs.
    pub input_fingerprint: u64,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operation tallies and check failures.
    pub checks: Checks,
    /// End-to-end metrics (the names `BENCHMARK.json` lists).
    pub end_to_end: Metrics,
    /// Workload-specific end-to-end figures, printed by name.
    pub detail: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Figures that must repeat exactly for one seed.
    pub invariants: Invariants,
    /// Percentiles the run took too few samples for.
    pub short_samples: Vec<String>,
}

/// Run-length and repetition settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Length of the timed phase.
    pub seconds: f64,
    /// How many times set-up runs to report its median.
    pub setup_repeats: usize,
    /// Whether to record spans and run the layer-only cases.
    pub trace: bool,
}

impl Plan {
    /// The plan for command-line arguments.
    pub fn from_args(args: &Args) -> Self {
        Plan {
            seconds: args.seconds,
            // Traced runs report per-layer figures only, so one set-up
            // suffices; untraced runs report the median of three.
            setup_repeats: if args.trace { 1 } else { 3 },
            trace: args.trace,
        }
    }
}

/// Runs one workload untraced, or (with `plan.trace`) untraced and then
/// traced, adding the tracing overhead.
pub fn run(workload: &str, seed: u64, plan: Plan, work_dir: &Path) -> Report {
    let run_one = |plan: Plan| -> Report {
        match workload {
            "expand" => expand::run(seed, plan, work_dir),
            "oltp" => oltp::run(seed, plan, work_dir),
            "remote" => remote::run(seed, plan, work_dir),
            other => panic!("unknown workload {other}"),
        }
    };
    if !plan.trace {
        return run_one(plan);
    }
    let untraced = run_one(Plan {
        trace: false,
        setup_repeats: 1,
        ..plan
    });
    let mut traced = run_one(plan);
    let overhead = trace::overhead_pct(&untraced.end_to_end, &traced.end_to_end);
    put(&mut traced.per_layer, "trace.overhead_pct", overhead, "%");
    traced.checks.merge(untraced.checks);
    traced
}

/// A scratch directory for one run's files inside the checkout, removed
/// when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `<root>/tmp-<pid>-<workload>`, emptying any leftover.
    pub fn create(root: &Path, workload: &str) -> std::io::Result<WorkDir> {
        let path = root.join(format!("tmp-{}-{workload}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The end-to-end metrics every workload reports.
///
/// `reads` are the workload's main crowd-free read (see
/// `perfbench/METRICS.md`).  Reads report p75 because it stays steady on
/// every workload: on `oltp` the two clients drift between reading at the
/// same time (about 37 ms per point read) and taking turns (about 25 ms),
/// and the median falls between the two modes.  Tails and write latencies
/// are printed, not reported here: the p95 of a sub-millisecond read
/// follows how long a shared host keeps a CPU from the waiting thread more
/// than the program, and an `oltp` commit either goes straight through or
/// waits behind a read holding its partition.
///
/// A percentile without ten samples beyond it is recorded in
/// `short_samples`, which fails a full-length run.
pub fn end_to_end(
    setup_s: &[f64],
    ops: u64,
    timed_s: f64,
    reads: &stats::Samples,
    short_samples: &mut Vec<String>,
) -> Metrics {
    let mut out = Metrics::new();
    put(&mut out, "setup_s", stats::quantile(setup_s, 0.5), "s");
    put(&mut out, "ops_per_s", ops as f64 / timed_s, "ops/s");
    put(&mut out, "peak_rss_mb", peak_rss_mb(), "MiB");
    if !reads.supports(0.75) {
        short_samples.push(format!(
            "read_ms.p75 needs ten samples beyond it; the run took {}",
            reads.len()
        ));
    }
    put(&mut out, "read_ms.p75", reads.quantile(0.75), "ms");
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator, so op streams depend
/// on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Folds bytes into a running FNV-1a fingerprint.
pub fn fingerprint(mut acc: u64, bytes: &[u8]) -> u64 {
    if acc == 0 {
        acc = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x0100_0000_01b3);
    }
    acc
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Where a traced run writes its spans: next to the run's scratch
/// directory, so the file outlives it.
pub fn trace_path(work_dir: &Path, workload: &str, seed: u64) -> PathBuf {
    work_dir
        .parent()
        .unwrap_or(work_dir)
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

/// The result line: one JSON object with the run's tallies and metrics.
pub fn result_json(correct: bool, checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}
