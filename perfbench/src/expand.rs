//! The `expand` workload: the paper's workflow on an in-memory database.
//!
//! Per cycle, a fresh database with the paper's default strategy (a
//! 100-item gold sample plus SVM) and a trusted-worker crowd; for each of
//! the six genres one cold query through `.stream()` pays for the new
//! column, then 20 warm repeats through `.run()` reuse it.  One client,
//! closed loop.  A fresh database per cycle guarantees that every cold
//! query finds no cached judgment and that tables never widen run over run.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crowddb_core::{
    build_space_for_domain, CacheStats, CrowdDb, CrowdDbConfig, ExpansionStrategy, InflightStats,
    QueryEvent, QueryOutcome, SimulatedCrowd,
};
use crowdsim::ExperimentRegime;
use datagen::{DomainConfig, SyntheticDomain};
use mlkit::BinaryConfusion;
use perceptual::PerceptualSpace;
use relational::Value;

use crate::layers::{self, LayerInputs};
use crate::meter::{Bill, Invoice, MeteredCrowd};
use crate::stats::{quantile, Samples};
use crate::trace::{self, Span, Tracer};
use crate::{ms_since, put, Checks, Metrics, Plan, Report, Rng};

/// Perceptual-space dimensionality (the default-scale experiments' value).
pub const SPACE_DIMENSIONS: usize = 24;
/// Factor-model training epochs (the default-scale experiments' value).
pub const SPACE_EPOCHS: usize = 25;
/// Warm repeats after each cold query.
const WARM_REPEATS: usize = 20;

/// The movie domain and its perceptual space, plus what building them took.
pub struct Movies {
    /// The generated domain (2,000 movies, six genres).
    pub domain: SyntheticDomain,
    /// Its perceptual space.
    pub space: PerceptualSpace,
    /// Seconds per set-up (domain generation plus space build).
    pub setup_s: Vec<f64>,
    /// Seconds per space build alone.
    pub space_build_s: Vec<f64>,
}

impl Movies {
    /// Generates the domain and builds its space `repeats` times, keeping
    /// the last (all are identical: both steps are seeded).
    pub fn build(seed: u64, repeats: usize) -> Movies {
        let mut setup_s = Vec::new();
        let mut space_build_s = Vec::new();
        let mut built = None;
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            let domain = SyntheticDomain::generate(&DomainConfig::movies(), seed)
                .expect("movie domain generation");
            let space_start = Instant::now();
            let space = build_space_for_domain(&domain, SPACE_DIMENSIONS, SPACE_EPOCHS)
                .expect("perceptual space build");
            space_build_s.push(space_start.elapsed().as_secs_f64());
            setup_s.push(start.elapsed().as_secs_f64());
            built = Some((domain, space));
        }
        let (domain, space) = built.expect("at least one set-up");
        Movies {
            domain,
            space,
            setup_s,
            space_build_s,
        }
    }

    /// `(column, concept)` for each genre.
    pub fn genres(&self) -> Vec<(String, String)> {
        self.domain
            .category_names()
            .into_iter()
            .map(|name| (format!("is_{}", name.to_lowercase()), name))
            .collect()
    }

    /// A fresh metered crowd for this domain.
    pub fn crowd(
        &self,
        seed: u64,
        invoice: &Arc<Mutex<Invoice>>,
        tracer: &Option<Arc<Tracer>>,
    ) -> MeteredCrowd {
        MeteredCrowd::new(
            SimulatedCrowd::new(
                &self.domain,
                ExperimentRegime::TrustedWorkers,
                seed ^ 0xc20d,
            ),
            invoice.clone(),
            tracer.clone(),
        )
    }

    /// Loads the domain into `db` as table `movies` with every genre
    /// registered as a (not yet materialized) column.
    pub fn load_into(&self, db: &CrowdDb, crowd: MeteredCrowd) {
        db.load_domain("movies", &self.domain, self.space.clone(), Box::new(crowd))
            .expect("load movie domain");
        for (column, concept) in self.genres() {
            db.register_attribute("movies", &column, &concept)
                .expect("register genre");
        }
    }

    /// Checks that `rows` are `(item_id, name)` pairs of this domain.
    pub fn check_rows(&self, rows: &[Vec<Value>]) -> Result<(), String> {
        for row in rows {
            let (Some(Value::Integer(id)), Some(Value::Text(name))) = (row.first(), row.get(1))
            else {
                return Err(format!("malformed movie row {row:?}"));
            };
            match self.domain.item(*id as u32) {
                Some(item) if &item.name == name => {}
                _ => return Err(format!("row ({id}, {name}) is not in the domain")),
            }
        }
        Ok(())
    }

    /// g-mean of an expanded boolean column against ground truth, a `NULL`
    /// cell counting as wrong.  `column` holds `(item_id, value)` rows.
    pub fn gmean(&self, concept: &str, column: &[Vec<Value>]) -> Result<f64, String> {
        let category = self
            .domain
            .category_index(concept)
            .ok_or_else(|| format!("unknown concept {concept}"))?;
        let truth = self.domain.labels_for_category(category);
        let mut predicted: Vec<Option<bool>> = vec![None; truth.len()];
        for row in column {
            match (row.first(), row.get(1)) {
                (Some(Value::Integer(id)), Some(value)) => {
                    let slot = predicted
                        .get_mut(*id as usize)
                        .ok_or_else(|| format!("item {id} outside the domain"))?;
                    *slot = match value {
                        Value::Boolean(b) => Some(*b),
                        Value::Null => None,
                        other => return Err(format!("non-boolean cell {other:?}")),
                    };
                }
                _ => return Err(format!("malformed column row {row:?}")),
            }
        }
        let predicted: Vec<bool> = predicted
            .iter()
            .zip(&truth)
            .map(|(p, &t)| p.unwrap_or(!t))
            .collect();
        Ok(BinaryConfusion::from_predictions(&predicted, &truth).gmean())
    }

    /// Mean g-mean over the genres of the columns `db` materialized,
    /// recording any genre that cannot be scored as a failed check.
    pub fn mean_gmean(&self, db: &CrowdDb, checks: &mut Checks) -> f64 {
        let mut gmeans = Vec::new();
        for (column, concept) in self.genres() {
            let scored = db
                .query(format!("SELECT item_id, {column} FROM movies"))
                .run()
                .map_err(|e| e.to_string())
                .and_then(|o| self.gmean(&concept, rows_of(&o)?));
            match scored {
                Ok(g) => gmeans.push(g),
                Err(e) => checks.fail(format!("scoring {column}: {e}")),
            }
        }
        gmeans.iter().sum::<f64>() / gmeans.len().max(1) as f64
    }
}

/// The genre query of one column.
pub fn genre_sql(column: &str) -> String {
    format!("SELECT item_id, name FROM movies WHERE {column} = true")
}

/// Timings of one streamed query.
pub struct Streamed {
    /// Milliseconds until the first snapshot event.
    pub first_snapshot_ms: Option<f64>,
    /// Milliseconds until the stream completed.
    pub complete_ms: f64,
}

/// Drains a query stream started at `start`, timing its first snapshot
/// and completion.
pub fn drain(events: impl Iterator<Item = QueryEvent>, start: Instant) -> Streamed {
    let mut first_snapshot_ms = None;
    for event in events {
        if first_snapshot_ms.is_none() && matches!(event, QueryEvent::Snapshot(_)) {
            first_snapshot_ms = Some(ms_since(start));
        }
    }
    Streamed {
        first_snapshot_ms,
        complete_ms: ms_since(start),
    }
}

/// The rows of a completed read.
pub fn rows_of(outcome: &QueryOutcome) -> Result<&[Vec<Value>], String> {
    outcome
        .rows()
        .map(|r| r.rows.as_slice())
        .ok_or_else(|| "a read returned no row set".to_string())
}

/// The gold-sample and crowd seed of cycle `n`.  Each cycle draws a fresh
/// one, so a run's latencies average over many crowd behaviours instead
/// of repeating one seed's rounds; the first cycle's figures stay exactly
/// repeatable per workload seed.
pub fn cycle_seed(seed: u64, n: usize) -> u64 {
    Rng::new(seed, 1_000 + n as u64).next_u64()
}

/// The database configuration both crowd workloads use.
pub fn db_config(seed: u64) -> CrowdDbConfig {
    CrowdDbConfig {
        strategy: ExpansionStrategy::perceptual_default(),
        seed: seed ^ 0xdb,
        ..Default::default()
    }
}

/// Runs the workload.
pub fn run(seed: u64, plan: Plan, work_dir: &Path) -> Report {
    let movies = Movies::build(seed, plan.setup_repeats);
    let tracer = plan.trace.then(|| Arc::new(Tracer::default()));
    let invoice = Arc::new(Mutex::new(Invoice::default()));
    let genres = movies.genres();

    let mut checks = Checks::default();
    let (mut cold, mut first_row, mut warm) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut tally = CrowdTally::default();
    let mut first_cycle: Option<(CrowdDb, Vec<Bill>)> = None;
    let mut timed_ms = 0.0;
    let mut cycles = 0usize;

    while timed_ms < plan.seconds * 1e3 {
        let cycle_seed = cycle_seed(seed, cycles);
        let db = CrowdDb::new(db_config(cycle_seed));
        movies.load_into(&db, movies.crowd(cycle_seed, &invoice, &tracer));
        let stats_before = (db.cache_stats(), db.inflight_stats());
        let mut bill = Vec::new();
        let phase = Instant::now();
        for (column, _) in &genres {
            let sql = genre_sql(column);
            let before = invoice.lock().expect("invoice").rounds.len();
            let op = tracer.as_ref().map_or(0, |t| {
                let op = t.new_op();
                t.set_current_op(op);
                tally.queued.push(db.scheduler_stats().queued as f64);
                op
            });
            let start = Instant::now();
            let mut stream = db.query(sql.clone()).stream();
            let timing = drain(stream.by_ref(), start);
            let end = Instant::now();
            let outcome = stream.wait();
            let cost = invoice.lock().expect("invoice").since(before);
            bill.push(cost);
            let cold_rows = match &outcome {
                Ok(o) => {
                    tally.items_crowd_sourced += items_crowd_sourced(o);
                    rows_of(o).map(|r| r.to_vec())
                }
                Err(e) => Err(format!("cold query failed: {e}")),
            };
            let verdict = cold_rows.as_ref().map_err(Clone::clone).and_then(|rows| {
                let o = outcome.as_ref().expect("checked above");
                if o.reports.len() != 1 {
                    return Err(format!("cold query made {} expansions", o.reports.len()));
                }
                movies.check_rows(rows)
            });
            if let Some(t) = &tracer {
                let r = outcome.as_ref().ok().and_then(|o| o.reports.first());
                t.record(
                    "op.cold",
                    op,
                    true,
                    start,
                    end,
                    vec![
                        (
                            "judgments_collected",
                            r.map_or(0.0, |r| r.judgments_collected as f64),
                        ),
                        ("cache_hits", r.map_or(0.0, |r| r.cache_hits as f64)),
                        ("cache_misses", r.map_or(0.0, |r| r.cache_misses as f64)),
                        ("dollars", cost.dollars),
                    ],
                );
            }
            if verdict.is_ok() {
                cold.push(timing.complete_ms);
                if let Some(ms) = timing.first_snapshot_ms {
                    first_row.push(ms);
                }
            }
            checks.op(verdict);
            let expected = cold_rows.unwrap_or_default();

            for _ in 0..WARM_REPEATS {
                let op = tracer.as_ref().map_or(0, |t| {
                    tally.queued.push(db.scheduler_stats().queued as f64);
                    t.new_op()
                });
                let start = Instant::now();
                let outcome = db.query(sql.clone()).run();
                let ms = ms_since(start);
                if let Some(t) = &tracer {
                    t.record("op.warm", op, true, start, Instant::now(), vec![]);
                }
                let verdict = match &outcome {
                    Ok(o) if !o.reports.is_empty() || o.crowd_cost != 0.0 => {
                        Err("a warm query re-entered acquisition".to_string())
                    }
                    Ok(o) => rows_of(o).and_then(|rows| {
                        if rows == expected.as_slice() {
                            Ok(())
                        } else {
                            Err("a warm query disagreed with its cold answer".to_string())
                        }
                    }),
                    Err(e) => Err(format!("warm query failed: {e}")),
                };
                if verdict.is_ok() {
                    warm.push(ms);
                }
                checks.op(verdict);
            }
        }
        timed_ms += ms_since(phase);
        tally.add_cycle(&db, stats_before);
        if first_cycle.is_none() {
            first_cycle = Some((db, bill));
        }
        cycles += 1;
    }

    let (first_db, bill) = first_cycle.expect("at least one cycle ran");
    let gmean = movies.mean_gmean(&first_db, &mut checks);

    let mut report = Report::default();
    let ops = checks.attempted - checks.failed;
    report.end_to_end = crate::end_to_end(
        &movies.setup_s,
        ops,
        timed_ms / 1e3,
        &warm,
        &mut report.short_samples,
    );

    let d = &mut report.detail;
    put_cold_detail(d, &cold, &first_row, &warm);
    put(
        d,
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "fraction",
    );
    put(d, "warm_samples", warm.len() as f64, "count");
    put(d, "cycles", cycles as f64, "count");
    let rounds = put_first_cycle(&mut report, &bill, gmean);
    report.invariants.input_fingerprint = domain_fingerprint(&movies.domain, seed);

    if let Some(t) = &tracer {
        let pl = &mut report.per_layer;
        let invoice = invoice.lock().expect("invoice");
        tally.put_layers(pl, &t.spans(), &invoice, rounds, &movies.space_build_s);
        let point = first_db
            .query("SELECT item_id, name FROM movies WHERE item_id = 7")
            .run()
            .expect("point read for the codec case");
        let wide = first_db
            .query(genre_sql(&genres[0].0))
            .run()
            .expect("genre read for the codec case");
        layers::run_cases(
            &LayerInputs {
                seed,
                movies: Some(&movies),
                sql_texts: genres.iter().map(|(c, _)| genre_sql(c)).collect(),
                captured: invoice.captured.clone(),
                small_outcome: point,
                wide_outcome: wide,
                point_read_ms: None,
                work_dir,
            },
            pl,
        );
        if let Err(e) = t.write_jsonl(&crate::trace_path(work_dir, "expand", seed)) {
            checks.fail(format!("writing spans: {e}"));
        }
    }
    report.checks = checks;
    report
}

/// Records the first cycle's exactly repeatable figures — mean dollars,
/// rounds and judgments per cold expansion, and the extraction g-mean — as
/// detail metrics and invariants; returns the rounds per expansion.
pub fn put_first_cycle(report: &mut Report, bill: &[Bill], gmean: f64) -> f64 {
    let n = bill.len().max(1) as f64;
    let dollars = bill.iter().map(|b| b.dollars).sum::<f64>() / n;
    let rounds = bill.iter().map(|b| b.rounds).sum::<u64>() as f64 / n;
    let judgments = bill.iter().map(|b| b.judgments).sum::<u64>() as f64 / n;
    put(&mut report.detail, "crowd_dollars", dollars, "USD");
    put(&mut report.detail, "extract_gmean", gmean, "fraction");
    let inv = &mut report.invariants.values;
    inv.insert("crowd_dollars".into(), dollars);
    inv.insert("extract_gmean".into(), gmean);
    inv.insert("crowd_rounds_per_expansion".into(), rounds);
    inv.insert("judgments_per_expansion".into(), judgments);
    rounds
}

/// The cold- and warm-query detail figures both crowd workloads print.
pub fn put_cold_detail(out: &mut Metrics, cold: &Samples, first_row: &Samples, warm: &Samples) {
    put(out, "cold_expand_ms.p50", cold.median(), "ms");
    put(out, "cold_expand_ms.p95", cold.quantile(0.95), "ms");
    put(out, "first_row_ms.p50", first_row.median(), "ms");
    put(out, "warm_query_ms.p50", warm.median(), "ms");
    put(out, "warm_query_ms.p95", warm.quantile(0.95), "ms");
    put(out, "cold_samples", cold.len() as f64, "count");
}

/// Crowd-path counters both crowd workloads sum over their cycles.
#[derive(Debug, Default)]
pub struct CrowdTally {
    /// `cache_stats()` hits.
    pub cache_hits: u64,
    /// `cache_stats()` hits plus misses.
    pub cache_lookups: u64,
    /// `inflight_stats()` owned claims.
    pub owned: u64,
    /// `inflight_stats()` coalesced claims.
    pub coalesced: u64,
    /// Items the owning expansions sent to the crowd.
    pub items_crowd_sourced: u64,
    /// Scheduler queue depth sampled before each traced operation.
    pub queued: Samples,
}

impl CrowdTally {
    /// Adds the stats deltas of one cycle's database since `before`.
    pub fn add_cycle(&mut self, db: &CrowdDb, before: (CacheStats, InflightStats)) {
        let (cache, inflight) = (db.cache_stats(), db.inflight_stats());
        self.cache_hits += cache.hits - before.0.hits;
        self.cache_lookups += (cache.hits + cache.misses) - (before.0.hits + before.0.misses);
        self.owned += inflight.owned - before.1.owned;
        self.coalesced += inflight.coalesced - before.1.coalesced;
    }

    /// Puts the crowd-path per-layer metrics of a traced run.
    pub fn put_layers(
        &self,
        out: &mut Metrics,
        spans: &[Span],
        invoice: &Invoice,
        rounds_per_expansion: f64,
        space_build_s: &[f64],
    ) {
        let split = trace::root_and_children_ms(spans, "op.cold", "crowd_source.dispatch");
        let dispatch: Vec<f64> = split.iter().map(|s| s.1).collect();
        let self_ms: Vec<f64> = split.iter().map(|s| s.0 - s.1).collect();
        put(
            out,
            "core.crowd_source.dispatch_ms",
            quantile(&dispatch, 0.5),
            "ms",
        );
        put(
            out,
            "core.crowd_source.rounds_per_expansion",
            rounds_per_expansion,
            "count",
        );
        put(out, "core.db.expand_self_ms", quantile(&self_ms, 0.5), "ms");
        put(
            out,
            "core.cache.hit_ratio",
            ratio(self.cache_hits, self.cache_lookups),
            "ratio",
        );
        let coalesced = ratio(self.coalesced, self.owned + self.coalesced);
        put(out, "core.inflight.coalesced_ratio", coalesced, "ratio");
        put(out, "core.scheduler.queued", self.queued.mean(), "count");
        let per_item = invoice.judgments() as f64 / self.items_crowd_sourced.max(1) as f64;
        put(out, "crowdsim.judgments_per_item", per_item, "count");
        put(
            out,
            "perceptual.space_build_s",
            quantile(space_build_s, 0.5),
            "s",
        );
    }
}

/// Items a completed query's own expansions sent to the crowd.
pub fn items_crowd_sourced(outcome: &QueryOutcome) -> u64 {
    outcome
        .reports
        .iter()
        .map(|r| r.items_crowd_sourced as u64)
        .sum()
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A fingerprint of the generated movie domain and the first cycle's
/// gold-sample and crowd seed.
pub fn domain_fingerprint(domain: &SyntheticDomain, seed: u64) -> u64 {
    let mut fp = crate::fingerprint(0, &cycle_seed(seed, 0).to_le_bytes());
    for item in domain.items().iter().take(64) {
        fp = crate::fingerprint(fp, item.name.as_bytes());
        fp = crate::fingerprint(fp, &item.popularity.to_le_bytes());
    }
    for category in 0..domain.category_names().len() {
        let labels = domain.labels_for_category(category);
        let bytes: Vec<u8> = labels.iter().map(|&l| l as u8).collect();
        fp = crate::fingerprint(fp, &bytes);
    }
    fp
}

/// A fingerprint of the inputs this workload generates from `seed`.
pub fn input_fingerprint(seed: u64) -> u64 {
    let domain =
        SyntheticDomain::generate(&DomainConfig::movies(), seed).expect("movie domain generation");
    domain_fingerprint(&domain, seed)
}
