//! The `remote` workload: the movie domain behind the TCP service.
//!
//! A persistent database is served by an in-process server on loopback;
//! two client connections run a closed loop of 60 % point selects, 20 %
//! range selects of 100 ids and 20 % warm genre queries in a cache-only
//! session.  Once per 100 operations per client both clients race the
//! same not-yet-paid genre as an adaptive, budgeted cold query through
//! `.stream()`, so the in-flight registry must coalesce them into one paid
//! round.  After six races (every genre paid) the next cycle starts on a
//! fresh database and server, so every cold query finds no cached
//! judgment; rebuilding is set-up, excluded from the timed phase.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use crowddb_client::RemoteCrowdDb;
use crowddb_core::{CrowdDb, CrowdSource, ExpansionMode, QueryOutcome, SimulatedCrowd};
use crowddb_server::{CrowdDbServer, ServerConfig};
use crowdsim::ExperimentRegime;
use relational::{Catalog, Value};

use crate::expand::{
    cycle_seed, db_config, drain, genre_sql, items_crowd_sourced, put_cold_detail, put_first_cycle,
    rows_of, CrowdTally, Movies,
};
use crate::layers::{self, LayerInputs};
use crate::meter::{Bill, Invoice};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{ms_since, put, Checks, Plan, Report, Rng};

/// Client connections (the load-generating threads).
const CLIENTS: usize = 2;
/// Operations per client between two cold races.
const OPS_PER_RACE: usize = 100;
/// Every how many operations a client re-asks its query in-process to
/// compare answers.
const CROSS_CHECK_EVERY: usize = 25;
/// Movies per range select.
const RANGE: u64 = 100;
/// Movies in the domain.
const MOVIES: u64 = 2_000;

/// One crowd-free operation of the mix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Point(u64),
    Range(u64),
    /// A warm query of an already-paid genre, by index.
    Warm(usize),
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Point(_) => "op.point",
            Op::Range(_) => "op.range",
            Op::Warm(_) => "op.warm",
        }
    }
}

/// One database and the server in front of it.
struct Cycle {
    db: Arc<CrowdDb>,
    server: CrowdDbServer,
}

fn start_cycle(
    movies: &Movies,
    seed: u64,
    invoice: &Arc<Mutex<Invoice>>,
    tracer: &Option<Arc<Tracer>>,
    dir: &Path,
) -> Cycle {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear cycle directory");
    }
    let db = CrowdDb::builder()
        .config(db_config(seed))
        .persistent(dir)
        .open()
        .expect("open persistent database");
    movies.load_into(&db, movies.crowd(seed, invoice, tracer));
    let db = Arc::new(db);
    let server = CrowdDbServer::bind(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    Cycle { db, server }
}

fn point_sql(id: u64) -> String {
    format!("SELECT item_id, name FROM movies WHERE item_id = {id}")
}

fn range_sql(lo: u64) -> String {
    format!(
        "SELECT item_id, name FROM movies WHERE item_id >= {lo} AND item_id < {} ORDER BY item_id",
        lo + RANGE
    )
}

/// State the two clients of one cycle share.
struct CycleShared<'a> {
    movies: &'a Movies,
    db: &'a CrowdDb,
    genres: &'a [(String, String)],
    budget: f64,
    deadline: Instant,
    may_stop: bool,
    stop: AtomicBool,
    barrier: Barrier,
    /// The cold answer of each genre raced so far in this cycle.
    answers: Mutex<Vec<Option<Vec<Vec<Value>>>>>,
    invoice: &'a Arc<Mutex<Invoice>>,
    /// Per race: what the crowd invoiced.
    bill: Mutex<Vec<Bill>>,
    tracer: Option<Arc<Tracer>>,
}

#[derive(Default)]
struct ClientResult {
    point: Samples,
    range: Samples,
    warm: Samples,
    cold: Samples,
    first_row: Samples,
    response_bytes: Samples,
    queued: Samples,
    items_crowd_sourced: u64,
    checks: Checks,
    sql_sample: Vec<String>,
    small_outcome: Option<QueryOutcome>,
    wide_outcome: Option<QueryOutcome>,
}

fn check_movie_rows(
    movies: &Movies,
    rows: &[Vec<Value>],
    ids: std::ops::Range<u64>,
) -> Result<(), String> {
    let got: Vec<i64> = rows
        .iter()
        .map(|r| match r.first() {
            Some(Value::Integer(id)) => *id,
            _ => -1,
        })
        .collect();
    let want: Vec<i64> = ids.map(|i| i as i64).collect();
    if got != want {
        return Err(format!("expected ids {want:?}, got {got:?}"));
    }
    movies.check_rows(rows)
}

fn client(shared: &CycleShared<'_>, conn: RemoteCrowdDb, c: usize, rng: &mut Rng) -> ClientResult {
    let mut out = ClientResult::default();
    let genres = shared.genres;
    let mut raced = 0usize;
    for i in 0..OPS_PER_RACE * genres.len() {
        if i % OPS_PER_RACE == 0 {
            // Both clients reach this point together; the leader decides
            // whether the timed phase is over.
            if shared.barrier.wait().is_leader()
                && shared.may_stop
                && Instant::now() >= shared.deadline
            {
                shared.stop.store(true, Ordering::SeqCst);
            }
            shared.barrier.wait();
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            race(shared, &conn, c, raced, &mut out);
            raced += 1;
            continue;
        }
        let roll = rng.below(100);
        let op = if roll < 60 {
            Op::Point(rng.below(MOVIES))
        } else if roll < 80 {
            Op::Range(rng.below(MOVIES - RANGE + 1))
        } else {
            Op::Warm(rng.below(raced as u64) as usize)
        };
        let sql = match op {
            Op::Point(id) => point_sql(id),
            Op::Range(lo) => range_sql(lo),
            Op::Warm(g) => genre_sql(&genres[g].0),
        };
        if out.sql_sample.len() < 64 {
            out.sql_sample.push(sql.clone());
        }
        let traced = shared.tracer.as_ref();
        if traced.is_some() {
            out.queued.push(shared.db.scheduler_stats().queued as f64);
        }
        let start = Instant::now();
        let outcome = match op {
            Op::Warm(_) => conn.query(sql.clone()).mode(ExpansionMode::CacheOnly).run(),
            _ => conn.query(sql.clone()).run(),
        };
        let ms = ms_since(start);
        if let Some(t) = traced {
            t.record(
                op.span_name(),
                t.new_op(),
                true,
                start,
                Instant::now(),
                vec![],
            );
            if let Ok(o) = &outcome {
                out.response_bytes.push(layers::encoded_len(o) as f64);
            }
        }
        let verdict = outcome
            .as_ref()
            .map_err(|e| format!("{} failed: {e}", op.span_name()))
            .and_then(|o| {
                let rows = rows_of(o)?;
                match op {
                    Op::Point(id) => check_movie_rows(shared.movies, rows, id..id + 1),
                    Op::Range(lo) => check_movie_rows(shared.movies, rows, lo..lo + RANGE),
                    Op::Warm(g) => {
                        if !o.reports.is_empty() || o.crowd_cost != 0.0 {
                            return Err("a warm query re-entered acquisition".into());
                        }
                        let answers = shared.answers.lock().expect("answers lock");
                        match &answers[g] {
                            Some(cold) if cold.as_slice() == rows => Ok(()),
                            _ => Err(format!(
                                "warm {} disagreed with its cold answer",
                                genres[g].0
                            )),
                        }
                    }
                }
            })
            .and_then(|()| {
                if i % CROSS_CHECK_EVERY != c {
                    return Ok(());
                }
                let local = shared
                    .db
                    .query(sql.clone())
                    .mode(ExpansionMode::CacheOnly)
                    .run()
                    .map_err(|e| format!("in-process {sql} failed: {e}"))?;
                if local.rows() == outcome.as_ref().ok().and_then(|o| o.rows()) {
                    Ok(())
                } else {
                    Err(format!("remote and in-process answers differ for {sql}"))
                }
            });
        if verdict.is_ok() {
            match op {
                Op::Point(_) => out.point.push(ms),
                Op::Range(_) => out.range.push(ms),
                Op::Warm(_) => out.warm.push(ms),
            }
            if let Ok(o) = outcome {
                match op {
                    Op::Point(_) if out.small_outcome.is_none() => out.small_outcome = Some(o),
                    Op::Warm(0) if out.wide_outcome.is_none() => out.wide_outcome = Some(o),
                    _ => {}
                }
            }
        }
        out.checks.op(verdict);
    }
    let _ = conn.close();
    out
}

/// Both clients issue the cold query of genre `g` at once.
fn race(
    shared: &CycleShared<'_>,
    conn: &RemoteCrowdDb,
    c: usize,
    g: usize,
    out: &mut ClientResult,
) {
    let (column, _) = &shared.genres[g];
    let sql = genre_sql(column);
    let leader = c == 0;
    let op = shared.tracer.as_ref().map_or(0, |t| t.new_op());
    let before = if leader {
        if let Some(t) = &shared.tracer {
            t.set_current_op(op);
        }
        Some(shared.invoice.lock().expect("invoice").rounds.len())
    } else {
        None
    };
    shared.barrier.wait();
    let start = Instant::now();
    let mut stream = conn
        .query(sql.clone())
        .adaptive(true)
        .budget(shared.budget)
        .stream();
    let timing = drain(stream.by_ref(), start);
    let end = Instant::now();
    let outcome = stream.wait();
    shared.barrier.wait();
    if let Some(before) = before {
        let cost = shared.invoice.lock().expect("invoice").since(before);
        shared.bill.lock().expect("bill lock").push(cost);
    }
    if let Some(t) = &shared.tracer {
        let name = if leader {
            "op.cold"
        } else {
            "op.cold_follower"
        };
        t.record(name, op, true, start, end, vec![]);
    }
    let verdict = outcome
        .as_ref()
        .map_err(|e| format!("cold race on {column} failed: {e}"))
        .and_then(|o| {
            out.items_crowd_sourced += items_crowd_sourced(o);
            let rows = rows_of(o)?;
            shared.movies.check_rows(rows)?;
            let mut answers = shared.answers.lock().expect("answers lock");
            match &answers[g] {
                None => {
                    answers[g] = Some(rows.to_vec());
                    Ok(())
                }
                Some(other) if other.as_slice() == rows => Ok(()),
                Some(_) => Err(format!("the racing clients got different {column} answers")),
            }
        });
    if verdict.is_ok() {
        out.cold.push(timing.complete_ms);
        if let Some(ms) = timing.first_snapshot_ms {
            out.first_row.push(ms);
        }
    }
    out.checks.op(verdict);
}

/// Folds the clients' first op draws into an input fingerprint.
fn client_stream_fingerprint(mut fp: u64, seed: u64) -> u64 {
    for c in 0..CLIENTS {
        let mut rng = client_rng(seed, c);
        for _ in 0..64 {
            fp = crate::fingerprint(fp, &rng.next_u64().to_le_bytes());
        }
    }
    fp
}

/// A fingerprint of the inputs this workload generates from `seed`.
pub fn input_fingerprint(seed: u64) -> u64 {
    client_stream_fingerprint(crate::expand::input_fingerprint(seed), seed)
}

fn client_rng(seed: u64, c: usize) -> Rng {
    Rng::new(seed, 200 + c as u64)
}

fn ping_us(conn: &RemoteCrowdDb, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            conn.ping().expect("ping");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Runs the workload.
pub fn run(seed: u64, plan: Plan, work_dir: &Path) -> Report {
    let tracer = plan.trace.then(|| Arc::new(Tracer::default()));
    let invoice = Arc::new(Mutex::new(Invoice::default()));
    let cycle_dir = |n: usize| -> PathBuf { work_dir.join(format!("cycle-{n}")) };

    let mut setup_s = Vec::new();
    let mut space_build_s = Vec::new();
    let mut built = None;
    for _ in 0..plan.setup_repeats.max(1) {
        drop(built.take());
        let movies = Movies::build(seed, 1);
        let start = Instant::now();
        let cycle = start_cycle(
            &movies,
            cycle_seed(seed, 0),
            &invoice,
            &tracer,
            &cycle_dir(0),
        );
        setup_s.push(movies.setup_s[0] + start.elapsed().as_secs_f64());
        space_build_s.extend_from_slice(&movies.space_build_s);
        built = Some((movies, cycle));
    }
    let (movies, first) = built.expect("set-up ran");
    let genres = movies.genres();
    let gold_price = SimulatedCrowd::new(&movies.domain, ExperimentRegime::TrustedWorkers, 0)
        .estimate_cost(100)
        .expect("the simulated crowd prices its rounds");
    let budget = 2.0 * gold_price;
    let deadline_len = Duration::from_secs_f64(plan.seconds);

    let mut idle_ping = Vec::new();
    let mut loaded_ping = Vec::new();
    let mut results: Vec<ClientResult> = Vec::new();
    let mut rngs: Vec<Rng> = (0..CLIENTS).map(|c| client_rng(seed, c)).collect();
    let mut tally = CrowdTally::default();
    let (mut wal_growth, mut first_cycle_wal) = (0u64, 0u64);
    let mut first_cycle: Option<(Arc<CrowdDb>, Vec<Bill>)> = None;
    let mut checks = Checks::default();
    let mut timed = Duration::ZERO;
    let mut next = Some(first);
    let mut n = 0usize;
    while let Some(mut cycle) = next.take() {
        let addr = cycle.server.local_addr();
        let conns: Vec<RemoteCrowdDb> = (0..CLIENTS)
            .map(|_| RemoteCrowdDb::connect(addr).expect("connect client"))
            .collect();
        if plan.trace && n == 0 {
            idle_ping = ping_us(&conns[0], 200);
        }
        let wal_loaded = cycle.db.storage_stats().wal_bytes_total();
        let stats_before = (cycle.db.cache_stats(), cycle.db.inflight_stats());
        let shared = CycleShared {
            movies: &movies,
            db: &cycle.db,
            genres: &genres,
            budget,
            deadline: Instant::now() + deadline_len.saturating_sub(timed),
            may_stop: n > 0,
            stop: AtomicBool::new(false),
            barrier: Barrier::new(CLIENTS),
            answers: Mutex::new(vec![None; genres.len()]),
            invoice: &invoice,
            bill: Mutex::new(Vec::new()),
            tracer: tracer.clone(),
        };
        let pinger = plan
            .trace
            .then(|| RemoteCrowdDb::connect(addr).expect("connect pinger"));
        let phase = Instant::now();
        let done = AtomicBool::new(false);
        let cycle_results: Vec<ClientResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(rngs.iter_mut())
                .enumerate()
                .map(|(c, (conn, rng))| {
                    let shared = &shared;
                    scope.spawn(move || client(shared, conn, c, rng))
                })
                .collect();
            let ping_handle = pinger.as_ref().map(|p| {
                let done = &done;
                scope.spawn(move || {
                    let mut rtts = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        rtts.extend(ping_us(p, 1));
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    rtts
                })
            });
            let results: Vec<ClientResult> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            done.store(true, Ordering::SeqCst);
            if let Some(h) = ping_handle {
                loaded_ping.extend(h.join().expect("pinger panicked"));
            }
            results
        });
        timed += phase.elapsed();
        drop(pinger);
        tally.add_cycle(&cycle.db, stats_before);
        let cycle_wal = cycle.db.storage_stats().wal_bytes_total() - wal_loaded;
        wal_growth += cycle_wal;
        let bill = shared.bill.into_inner().expect("bill lock");
        let stopped = shared.stop.load(Ordering::SeqCst);
        results.extend(cycle_results);
        cycle.server.shutdown();
        if first_cycle.is_none() {
            first_cycle = Some((cycle.db.clone(), bill));
            first_cycle_wal = cycle_wal;
        }
        drop(cycle);
        if n > 0 {
            let _ = std::fs::remove_dir_all(cycle_dir(n));
        }
        n += 1;
        if !stopped && timed < deadline_len {
            let dir = cycle_dir(n);
            next = Some(start_cycle(
                &movies,
                cycle_seed(seed, n),
                &invoice,
                &tracer,
                &dir,
            ));
        }
    }

    let (first_db, bill) = first_cycle.expect("at least one cycle ran");
    let gmean = movies.mean_gmean(&first_db, &mut checks);

    let mut all = ClientResult::default();
    for r in results {
        all.point.extend(&r.point);
        all.range.extend(&r.range);
        all.warm.extend(&r.warm);
        all.cold.extend(&r.cold);
        all.first_row.extend(&r.first_row);
        all.response_bytes.extend(&r.response_bytes);
        tally.queued.extend(&r.queued);
        tally.items_crowd_sourced += r.items_crowd_sourced;
        all.sql_sample.extend(r.sql_sample);
        all.small_outcome = all.small_outcome.or(r.small_outcome);
        all.wide_outcome = all.wide_outcome.or(r.wide_outcome);
        checks.merge(r.checks);
    }

    let mut report = Report::default();
    let ops = checks.attempted - checks.failed;
    let timed_s = timed.as_secs_f64();
    report.end_to_end = crate::end_to_end(
        &setup_s,
        ops,
        timed_s,
        &all.range,
        &mut report.short_samples,
    );

    let d = &mut report.detail;
    put_cold_detail(d, &all.cold, &all.first_row, &all.warm);
    put(d, "point_read_ms.p50", all.point.median(), "ms");
    put(d, "point_read_ms.p99", all.point.quantile(0.99), "ms");
    put(d, "range_read_ms.p50", all.range.median(), "ms");
    put(
        d,
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "fraction",
    );
    put(d, "point_samples", all.point.len() as f64, "count");
    put(d, "warm_samples", all.warm.len() as f64, "count");
    put(d, "cycles", n as f64, "count");
    let rounds = put_first_cycle(&mut report, &bill, gmean);
    let inv = &mut report.invariants;
    inv.values
        .insert("first_cycle_wal_bytes".into(), first_cycle_wal as f64);
    inv.input_fingerprint = client_stream_fingerprint(
        crate::expand::domain_fingerprint(&movies.domain, seed),
        seed,
    );

    if let Some(t) = &tracer {
        let pl = &mut report.per_layer;
        let invoice = invoice.lock().expect("invoice");
        tally.put_layers(pl, &t.spans(), &invoice, rounds, &space_build_s);
        put(
            pl,
            "storage.wal_bytes_per_judgment",
            wal_growth as f64 / invoice.judgments().max(1) as f64,
            "B",
        );
        put(
            pl,
            "server.wire.ping_rtt_us.idle",
            crate::stats::quantile(&idle_ping, 0.5),
            "us",
        );
        put(
            pl,
            "server.wire.ping_rtt_us.loaded",
            crate::stats::quantile(&loaded_ping, 0.5),
            "us",
        );
        put(
            pl,
            "server.wire.response_bytes_per_op",
            all.response_bytes.mean(),
            "B",
        );
        // The engine's own share of a point read: the remote median minus
        // the executor alone on an unpartitioned copy of the same table.
        let mut catalog = Catalog::new();
        let movies_table = first_db.catalog().table("movies").expect("movies").clone();
        catalog.create_table(movies_table).expect("copy movies");
        let mut rng = Rng::new(seed, 9);
        let sqls: Vec<String> = (0..25).map(|_| point_sql(rng.below(2_000))).collect();
        let exec_ms = layers::executor_ms(&catalog, &sqls);
        put(
            pl,
            "core.db.point_read_overhead_ms",
            all.point.median() - exec_ms,
            "ms",
        );
        layers::run_cases(
            &LayerInputs {
                seed,
                movies: Some(&movies),
                sql_texts: all.sql_sample.clone(),
                captured: invoice.captured.clone(),
                small_outcome: all.small_outcome.clone().expect("a one-row answer"),
                wide_outcome: all.wide_outcome.clone().expect("a wide answer"),
                point_read_ms: None,
                work_dir,
            },
            pl,
        );
        if let Err(e) = t.write_jsonl(&crate::trace_path(work_dir, "remote", seed)) {
            checks.fail(format!("writing spans: {e}"));
        }
    }
    report.checks = checks;
    report
}
