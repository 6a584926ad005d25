//! The `oltp` workload: stored data under reads and writes at once.
//!
//! A persistent database holds `giant(item_id INTEGER, body TEXT)`:
//! 65,536 rows with 64-byte bodies, hash-partitioned four ways.  Two
//! clients run a closed loop of 75 % point selects, 10 % range selects of
//! 100 consecutive ids and 15 % single-row inserts of fresh ids, each
//! checkpointing dirty partitions after every 100 of its own commits.
//! Flushing is the engine's own fsync per commit.  After the timed phase
//! the directory is reopened repeatedly, and the reopened table must hold
//! exactly the preloaded rows plus every acknowledged insert.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowddb_core::{CheckpointOptions, CrowdDb, PartitionSpec, TableOptions};
use relational::{Column, DataType, Schema, Table, Value};

use crate::layers::{self, LayerInputs};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{ms_since, put, Checks, Plan, Report, Rng};

/// Preloaded rows.
pub const ROWS: u64 = 65_536;
/// Clients (the load-generating threads).
const CLIENTS: u64 = 2;
/// Ids per range select.
pub const RANGE: u64 = 100;
/// Commits per client between its dirty checkpoints.
const CHECKPOINT_EVERY: u64 = 100;
/// Reopens timed after the run.
const REOPENS: usize = 5;

/// The 64-character body stored under `id`.
pub fn body(seed: u64, id: u64) -> String {
    let mut rng = Rng::new(seed ^ 0xb0d1, id);
    (0..4).map(|_| format!("{:016x}", rng.next_u64())).collect()
}

/// The `giant` table holding ids `0..rows`.
pub fn giant_table(seed: u64, rows: u64) -> Table {
    let schema = Schema::new(vec![
        Column::not_null("item_id", DataType::Integer),
        Column::new("body", DataType::Text),
    ])
    .expect("giant schema");
    let mut table = Table::new("giant", schema);
    for id in 0..rows {
        table
            .insert_row(vec![Value::Integer(id as i64), Value::Text(body(seed, id))])
            .expect("giant row");
    }
    table
}

/// The point select of `id`.
pub fn point_sql(id: u64) -> String {
    format!("SELECT item_id, body FROM giant WHERE item_id = {id}")
}

/// The range select of ids `lo..lo + RANGE`, ascending.
pub fn range_sql(lo: u64) -> String {
    format!(
        "SELECT item_id, body FROM giant WHERE item_id >= {lo} AND item_id < {} ORDER BY item_id",
        lo + RANGE
    )
}

/// One operation of the mix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Point(u64),
    Range(u64),
    Insert(u64),
}

impl Op {
    fn sql(self, seed: u64) -> String {
        match self {
            Op::Point(id) => point_sql(id),
            Op::Range(lo) => range_sql(lo),
            Op::Insert(id) => format!(
                "INSERT INTO giant (item_id, body) VALUES ({id}, '{}')",
                body(seed, id)
            ),
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Op::Point(_) => "op.point",
            Op::Range(_) => "op.range",
            Op::Insert(_) => "op.insert",
        }
    }
}

/// Checks that `rows` are exactly `(id, body(id))` for `ids`, in order.
pub fn check_rows(
    seed: u64,
    rows: &[Vec<Value>],
    ids: impl Iterator<Item = u64>,
) -> Result<(), String> {
    let mut n = 0;
    for id in ids {
        let expected = [Value::Integer(id as i64), Value::Text(body(seed, id))];
        match rows.get(n) {
            Some(row) if row.as_slice() == expected => {}
            Some(row) => return Err(format!("expected id {id}, got {row:?}")),
            None => return Err(format!("missing id {id}")),
        }
        n += 1;
    }
    if rows.len() != n {
        return Err(format!("{} rows returned, {n} expected", rows.len()));
    }
    Ok(())
}

/// A fingerprint of the inputs this workload generates from `seed`: some
/// bodies and each client's first op draws.
pub fn input_fingerprint(seed: u64) -> u64 {
    let mut fp = 0;
    for id in [0, 1, ROWS - 1] {
        fp = crate::fingerprint(fp, body(seed, id).as_bytes());
    }
    for c in 0..CLIENTS {
        let mut rng = client_rng(seed, c);
        for _ in 0..64 {
            fp = crate::fingerprint(fp, &rng.next_u64().to_le_bytes());
        }
    }
    fp
}

fn client_rng(seed: u64, c: u64) -> Rng {
    Rng::new(seed, 100 + c)
}

fn wal_bytes(db: &CrowdDb) -> u64 {
    db.storage_stats().wal_bytes_total()
}

/// What one client measured.
#[derive(Default)]
struct ClientResult {
    point: Samples,
    range: Samples,
    commit: Samples,
    checkpoint: Samples,
    queued: Samples,
    acked: Vec<u64>,
    checks: Checks,
    sql_sample: Vec<String>,
}

struct Shared<'a> {
    db: &'a CrowdDb,
    seed: u64,
    deadline: Instant,
    tracer: Option<Arc<Tracer>>,
    /// WAL bytes truncated away by checkpoints, so growth can be summed.
    wal_reset: AtomicU64,
}

fn client(shared: &Shared<'_>, c: u64) -> ClientResult {
    let seed = shared.seed;
    let db = shared.db;
    let mut rng = client_rng(seed, c);
    let mut out = ClientResult::default();
    let mut inserted = 0u64;
    while Instant::now() < shared.deadline {
        let roll = rng.below(100);
        let op = if roll < 75 {
            Op::Point(rng.below(ROWS))
        } else if roll < 85 {
            Op::Range(rng.below(ROWS - RANGE + 1))
        } else {
            inserted += 1;
            Op::Insert(ROWS + c + CLIENTS * (inserted - 1))
        };
        let sql = op.sql(seed);
        if out.sql_sample.len() < 64 {
            out.sql_sample.push(sql.clone());
        }
        let traced = shared.tracer.as_ref();
        let wal_before = traced.map(|_| wal_bytes(db));
        let queued = traced.map(|_| db.scheduler_stats().queued as f64);
        let start = Instant::now();
        let outcome = db.query(sql).run();
        let ms = ms_since(start);
        let end = Instant::now();
        if let (Some(t), Some(before)) = (traced, wal_before) {
            let delta = wal_bytes(db) as f64 - before as f64;
            let counters = vec![("wal_bytes_delta", delta)];
            t.record(op.span_name(), t.new_op(), true, start, end, counters);
            out.queued.push(queued.unwrap_or(0.0));
        }
        let verdict = match (&outcome, op) {
            (Err(e), _) => Err(format!("{} failed: {e}", op.span_name())),
            (Ok(o), Op::Insert(_)) => match o.rows_affected() {
                Some(1) => Ok(()),
                other => Err(format!("insert affected {other:?} rows")),
            },
            (Ok(o), Op::Point(id)) => {
                crate::expand::rows_of(o).and_then(|rows| check_rows(seed, rows, id..id + 1))
            }
            (Ok(o), Op::Range(lo)) => {
                crate::expand::rows_of(o).and_then(|rows| check_rows(seed, rows, lo..lo + RANGE))
            }
        };
        if verdict.is_ok() {
            match op {
                Op::Point(_) => out.point.push(ms),
                Op::Range(_) => out.range.push(ms),
                Op::Insert(id) => {
                    out.commit.push(ms);
                    out.acked.push(id);
                }
            }
        }
        let committed = matches!(op, Op::Insert(_)) && verdict.is_ok();
        out.checks.op(verdict);
        if committed && (out.acked.len() as u64).is_multiple_of(CHECKPOINT_EVERY) {
            let before = wal_bytes(db);
            let start = Instant::now();
            let result = db.checkpoint_with(CheckpointOptions::dirty());
            out.checkpoint.push(ms_since(start));
            if let Some(t) = traced {
                t.record(
                    "storage.checkpoint",
                    t.new_op(),
                    true,
                    start,
                    Instant::now(),
                    vec![],
                );
            }
            let after = wal_bytes(db);
            shared
                .wal_reset
                .fetch_add(before.saturating_sub(after), Ordering::Relaxed);
            if let Err(e) = result {
                out.checks.fail(format!("checkpoint failed: {e}"));
            }
        }
    }
    out
}

/// A preloaded database and what set-up measured.
struct Preloaded {
    db: CrowdDb,
    dir: PathBuf,
    setup_s: f64,
    /// WAL bytes the preload logged before the first checkpoint.
    preload_wal_bytes: u64,
    first_checkpoint_ms: f64,
}

/// Builds the table in a fresh directory and takes the first checkpoint.
fn setup(seed: u64, dir: PathBuf) -> Preloaded {
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear set-up directory");
    }
    let start = Instant::now();
    let db = CrowdDb::builder()
        .persistent(&dir)
        .open()
        .expect("open persistent database");
    db.create_table_with(
        TableOptions::new("giant", "item_id").partitions(PartitionSpec::Hash { n: 4 }),
        giant_table(seed, ROWS),
    )
    .expect("create giant");
    let preload_wal_bytes = wal_bytes(&db);
    let checkpoint = Instant::now();
    db.checkpoint_with(CheckpointOptions::full())
        .expect("first checkpoint");
    let first_checkpoint_ms = ms_since(checkpoint);
    Preloaded {
        db,
        dir,
        setup_s: start.elapsed().as_secs_f64(),
        preload_wal_bytes,
        first_checkpoint_ms,
    }
}

/// Runs the workload.
pub fn run(seed: u64, plan: Plan, work_dir: &Path) -> Report {
    let mut setup_s = Vec::new();
    let mut built: Option<Preloaded> = None;
    for r in 0..plan.setup_repeats.max(1) {
        drop(built.take());
        let preloaded = setup(seed, work_dir.join(format!("giant-{r}")));
        setup_s.push(preloaded.setup_s);
        built = Some(preloaded);
    }
    let Preloaded {
        db,
        dir,
        preload_wal_bytes,
        first_checkpoint_ms,
        ..
    } = built.expect("set-up ran");
    let user_bytes = ROWS as f64 * (8.0 + 64.0);
    let snapshot_bytes: u64 = db
        .storage_stats()
        .tables
        .iter()
        .map(|t| t.snapshot_bytes())
        .sum();

    let tracer = plan.trace.then(|| Arc::new(Tracer::default()));
    let shared = Shared {
        db: &db,
        seed,
        deadline: Instant::now() + Duration::from_secs_f64(plan.seconds),
        tracer: tracer.clone(),
        wal_reset: AtomicU64::new(0),
    };
    let wal_start = wal_bytes(&db);
    let phase = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || client(shared, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = phase.elapsed().as_secs_f64();
    let wal_growth =
        (wal_bytes(&db) + shared.wal_reset.load(Ordering::Relaxed)) as f64 - wal_start as f64;

    let mut checks = Checks::default();
    let mut all = ClientResult::default();
    // The first checkpoint is the workload's own call too; it keeps the
    // metric defined in runs too short for a client to reach 100 commits.
    all.checkpoint.push(first_checkpoint_ms);
    for r in results {
        all.point.extend(&r.point);
        all.range.extend(&r.range);
        all.commit.extend(&r.commit);
        all.checkpoint.extend(&r.checkpoint);
        all.queued.extend(&r.queued);
        all.acked.extend(r.acked);
        all.sql_sample.extend(r.sql_sample);
        checks.merge(r.checks);
    }
    let ClientResult {
        point,
        range,
        commit,
        checkpoint,
        queued,
        mut acked,
        sql_sample: sql_texts,
        ..
    } = all;

    // The codec case needs one narrow and one wide in-process outcome.
    let small_outcome = db.query(point_sql(7)).run().expect("point read");
    let wide_outcome = db
        .query(
            "SELECT item_id, body FROM giant WHERE item_id >= 0 AND item_id < 600 ORDER BY item_id",
        )
        .run()
        .expect("wide read");
    drop(db);

    let mut recovery = Samples::default();
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let start = Instant::now();
        match CrowdDb::open(&dir) {
            Ok(db) => {
                recovery.push(ms_since(start));
                if let Some(t) = &tracer {
                    t.record(
                        "storage.open",
                        t.new_op(),
                        true,
                        start,
                        Instant::now(),
                        vec![],
                    );
                }
                reopened = Some(db);
            }
            Err(e) => checks.fail(format!("reopen failed: {e}")),
        }
    }
    if let Some(db) = &reopened {
        acked.sort_unstable();
        let expected: Vec<u64> = (0..ROWS).chain(acked.iter().copied()).collect();
        let verdict = db
            .query("SELECT item_id, body FROM giant ORDER BY item_id")
            .run()
            .map_err(|e| e.to_string())
            .and_then(|o| check_rows(seed, crate::expand::rows_of(&o)?, expected.iter().copied()));
        if let Err(e) = verdict {
            checks.fail(format!("after reopen: {e}"));
        }
    }
    drop(reopened);

    let mut report = Report::default();
    let ops = checks.attempted - checks.failed;
    report.end_to_end =
        crate::end_to_end(&setup_s, ops, timed_s, &point, &mut report.short_samples);

    let d = &mut report.detail;
    put(d, "point_read_ms.p50", point.median(), "ms");
    put(d, "point_read_ms.p99", point.quantile(0.99), "ms");
    put(d, "range_read_ms.p50", range.median(), "ms");
    put(d, "commit_ms.p50", commit.median(), "ms");
    put(d, "commit_ms.p99", commit.quantile(0.99), "ms");
    put(d, "recovery_ms.p50", recovery.median(), "ms");
    put(
        d,
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "fraction",
    );
    put(d, "point_samples", point.len() as f64, "count");
    put(d, "range_samples", range.len() as f64, "count");
    put(d, "commit_samples", commit.len() as f64, "count");
    put(d, "checkpoints", checkpoint.len() as f64 - 1.0, "count");

    let inv = &mut report.invariants;
    inv.values
        .insert("preload_wal_bytes".into(), preload_wal_bytes as f64);
    inv.values
        .insert("setup_snapshot_bytes".into(), snapshot_bytes as f64);
    inv.input_fingerprint = input_fingerprint(seed);

    if let Some(t) = &tracer {
        let pl = &mut report.per_layer;
        put(
            pl,
            "storage.wal_bytes_per_commit",
            wal_growth / commit.len().max(1) as f64,
            "B",
        );
        put(pl, "storage.checkpoint_ms", checkpoint.median(), "ms");
        put(
            pl,
            "storage.snapshot_bytes_per_user_byte",
            snapshot_bytes as f64 / user_bytes,
            "B/B",
        );
        put(pl, "core.scheduler.queued", queued.mean(), "count");
        layers::run_cases(
            &LayerInputs {
                seed,
                movies: None,
                sql_texts,
                captured: Vec::new(),
                small_outcome,
                wide_outcome,
                point_read_ms: Some(point.median()),
                work_dir,
            },
            pl,
        );
        if let Err(e) = t.write_jsonl(&crate::trace_path(work_dir, "oltp", seed)) {
            checks.fail(format!("writing spans: {e}"));
        }
    }
    report.checks = checks;
    report
}
