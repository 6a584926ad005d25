//! Layer-only cases: each layer's public entry point timed alone on the
//! workload's inputs, at a size where an optimisation shows and, for the
//! executor, the outcome codec and the WAL, also at a size where it
//! should not.
//!
//! Every traced run reports every per-layer metric of `BENCHMARK.json`; a
//! metric whose layer the workload does not exercise reads 0 (see
//! `perfbench/METRICS.md` for which workload each metric explains).

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use crowddb_core::{extract_binary_attribute, ExtractionConfig, QueryOutcome};
use crowddb_server::wire::{decode_outcome, encode_outcome};
use crowdsim::{
    em_aggregate, BatchQuestion, CrowdPlatform, EmConfig, ExperimentRegime, Judgment,
    WorkerAccuracyStore,
};
use datagen::CategoryOracle;
use mlkit::{Kernel, SvmClassifier, SvmParams};
use relational::{executor::execute_read, parse, Catalog, DataType, Value};
use storage::records::{CellMark, JudgmentEntry};
use storage::{Decoder, Encoder, Wal, WalRecord};

use crate::expand::Movies;
use crate::oltp::{giant_table, point_sql, range_sql, ROWS};
use crate::stats::quantile;
use crate::{put, Metrics, Rng};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("relational.parse_us", "us"),
    ("relational.executor.point_ms.8k", "ms"),
    ("relational.executor.point_ms.64k", "ms"),
    ("relational.executor.range_ms.64k", "ms"),
    ("core.db.point_read_overhead_ms", "ms"),
    ("core.crowd_source.dispatch_ms", "ms"),
    ("core.crowd_source.rounds_per_expansion", "count"),
    ("core.db.expand_self_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.inflight.coalesced_ratio", "ratio"),
    ("core.scheduler.queued", "count"),
    ("core.extraction.extract_ms", "ms"),
    ("mlkit.svm.train_ms", "ms"),
    ("crowdsim.platform.run_batch_ms", "ms"),
    ("crowdsim.accuracy.em_aggregate_ms", "ms"),
    ("crowdsim.judgments_per_item", "count"),
    ("perceptual.space_build_s", "s"),
    ("storage.wal.append_us", "us"),
    ("storage.wal.group_append_us", "us"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.wal_bytes_per_judgment", "B"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.snapshot_bytes_per_user_byte", "B/B"),
    ("server.wire.ping_rtt_us.idle", "us"),
    ("server.wire.ping_rtt_us.loaded", "us"),
    ("server.wire.outcome_codec_us.1row", "us"),
    ("server.wire.outcome_codec_us.600row", "us"),
    ("server.wire.response_bytes_per_op", "B"),
    ("trace.overhead_pct", "%"),
];

/// Inputs the layer cases run on, taken from one workload.
pub struct LayerInputs<'a> {
    /// The workload seed.
    pub seed: u64,
    /// The movie domain and space, for workloads that have them.
    pub movies: Option<&'a Movies>,
    /// SQL texts the workload issued.
    pub sql_texts: Vec<String>,
    /// Crowd judgments the metering wrapper captured.
    pub captured: Vec<Judgment>,
    /// A one-row outcome the workload produced.
    pub small_outcome: QueryOutcome,
    /// A wide (hundreds of rows) outcome the workload produced.
    pub wide_outcome: QueryOutcome,
    /// The workload's median stored point read, when it reads the
    /// 65,536-row table the executor cases build.
    pub point_read_ms: Option<f64>,
    /// Scratch directory for the WAL cases.
    pub work_dir: &'a Path,
}

/// Median milliseconds of `reps` calls of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    quantile(&times, 0.5)
}

/// Median milliseconds of `execute_read` of `sql` against `catalog`.
pub fn executor_ms(catalog: &Catalog, sqls: &[String]) -> f64 {
    let statements: Vec<_> = sqls.iter().map(|s| parse(s).expect("case sql")).collect();
    let mut i = 0;
    median_ms(statements.len(), || {
        let result = execute_read(&statements[i], catalog).expect("case read");
        std::hint::black_box(result);
        i += 1;
    })
}

fn catalog_of(seed: u64, rows: u64) -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .create_table(giant_table(seed, rows))
        .expect("case table");
    catalog
}

/// Runs every case the inputs allow and fills the rest of the per-layer
/// metrics with 0.
pub fn run_cases(inputs: &LayerInputs<'_>, out: &mut Metrics) {
    let seed = inputs.seed;

    let texts: Vec<&String> = inputs
        .sql_texts
        .iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(64)
        .collect();
    let mut parse_us = Vec::new();
    for text in &texts {
        parse_us.push(
            median_ms(20, || {
                std::hint::black_box(parse(text).expect("workload sql parses"));
            }) * 1e3,
        );
    }
    put(out, "relational.parse_us", quantile(&parse_us, 0.5), "us");

    let mut rng = Rng::new(seed, 7);
    for (rows, name) in [
        (8_192, "relational.executor.point_ms.8k"),
        (ROWS, "relational.executor.point_ms.64k"),
    ] {
        let catalog = catalog_of(seed, rows);
        let sqls: Vec<String> = (0..25).map(|_| point_sql(rng.below(rows))).collect();
        put(out, name, executor_ms(&catalog, &sqls), "ms");
        if rows == ROWS {
            let sqls: Vec<String> = (0..25).map(|_| range_sql(rng.below(ROWS - 100))).collect();
            put(
                out,
                "relational.executor.range_ms.64k",
                executor_ms(&catalog, &sqls),
                "ms",
            );
        }
    }
    if let Some(point) = inputs.point_read_ms {
        let exec = out["relational.executor.point_ms.64k"].value;
        put(out, "core.db.point_read_overhead_ms", point - exec, "ms");
    }

    if let Some(movies) = inputs.movies {
        movie_cases(movies, seed, out);
    }
    if !inputs.captured.is_empty() {
        let items: Vec<u32> = inputs
            .captured
            .iter()
            .filter(|j| !j.is_gold)
            .map(|j| j.item)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let ms = median_ms(10, || {
            let outcome = em_aggregate(
                &inputs.captured,
                &items,
                &WorkerAccuracyStore::new(),
                &EmConfig::default(),
            );
            std::hint::black_box(outcome);
        });
        put(out, "crowdsim.accuracy.em_aggregate_ms", ms, "ms");
    }

    wal_cases(inputs.work_dir, seed, out);

    for (outcome, name) in [
        (&inputs.small_outcome, "server.wire.outcome_codec_us.1row"),
        (&inputs.wide_outcome, "server.wire.outcome_codec_us.600row"),
    ] {
        let us = median_ms(50, || {
            let mut e = Encoder::new();
            encode_outcome(&mut e, outcome);
            let bytes = e.into_bytes();
            let decoded = decode_outcome(&mut Decoder::new(&bytes)).expect("codec round trip");
            std::hint::black_box(decoded);
        }) * 1e3;
        put(out, name, us, "us");
    }

    for (name, unit) in PER_LAYER {
        out.entry(name.to_string())
            .or_insert(crate::Metric { value: 0.0, unit });
    }
}

/// Bytes of an outcome on the wire (the encoded query-result payload).
pub fn encoded_len(outcome: &QueryOutcome) -> usize {
    let mut e = Encoder::new();
    encode_outcome(&mut e, outcome);
    e.into_bytes().len()
}

fn movie_cases(movies: &Movies, seed: u64, out: &mut Metrics) {
    let truth = movies.domain.labels_for_category(0);
    let mut rng = Rng::new(seed, 11);
    let mut ids: Vec<u32> = (0..truth.len() as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids.truncate(100);
    let labeled: Vec<(u32, bool)> = ids.iter().map(|&i| (i, truth[i as usize])).collect();
    let config = ExtractionConfig::default();
    let ms = median_ms(7, || {
        let predicted =
            extract_binary_attribute(&movies.space, &labeled, &config).expect("extraction case");
        std::hint::black_box(predicted);
    });
    put(out, "core.extraction.extract_ms", ms, "ms");

    let features = movies.space.feature_matrix(&ids).expect("gold features");
    let labels: Vec<bool> = labeled.iter().map(|l| l.1).collect();
    let params = SvmParams {
        kernel: Kernel::Rbf {
            gamma: 1.0 / mean_squared_distance(&features),
        },
        c: config.c,
        max_epochs: config.max_epochs,
        seed: config.seed,
        ..Default::default()
    };
    let ms = median_ms(7, || {
        let model = SvmClassifier::train(&features, &labels, &params).expect("svm case");
        std::hint::black_box(model);
    });
    put(out, "mlkit.svm.train_ms", ms, "ms");

    let regime = ExperimentRegime::TrustedWorkers;
    let oracle = CategoryOracle::new(&movies.domain, 0);
    let question = BatchQuestion {
        attribute: movies.domain.category_names()[0].clone(),
        items: ids.clone(),
    };
    let pool = regime.worker_pool(seed);
    let platform = CrowdPlatform::new(regime.hit_config(ids.len()));
    let ms = median_ms(7, || {
        let run = platform
            .run_batch(std::slice::from_ref(&question), &[&oracle], &pool, seed)
            .expect("crowd batch case");
        std::hint::black_box(run);
    });
    put(out, "crowdsim.platform.run_batch_ms", ms, "ms");
}

/// Mean squared pairwise distance (the extractor's kernel-width heuristic).
fn mean_squared_distance(xs: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            total += mlkit::linalg::squared_distance(&xs[i], &xs[j]);
            count += 1;
        }
    }
    (total / count.max(1) as f64).max(1e-9)
}

fn wal_cases(work_dir: &Path, seed: u64, out: &mut Metrics) {
    let path = work_dir.join("layer-case.wal");
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = Wal::open(&path).expect("open case WAL");
    let mut id = ROWS;
    let us = median_ms(40, || {
        let record = WalRecord::Mutation {
            sql: format!(
                "INSERT INTO giant (item_id, body) VALUES ({id}, '{}')",
                crate::oltp::body(seed, id)
            ),
        };
        wal.append(&record).expect("case append");
        id += 1;
    }) * 1e3;
    put(out, "storage.wal.append_us", us, "us");

    // What one cold perceptual expansion logs: the gold sample's cache
    // entries and the materialized 2,000-item column.
    let group = vec![
        WalRecord::CachePut {
            table: "movies".into(),
            attribute: "comedy".into(),
            entries: (0..100)
                .map(|i| {
                    let entry = JudgmentEntry {
                        verdict: Some(i % 3 == 0),
                        judgments: 10,
                        cost: 0.02,
                        confidence: 0.9,
                    };
                    (i, entry)
                })
                .collect(),
            rounds: 1,
        },
        WalRecord::MaterializeColumn {
            table: "movies".into(),
            column: "is_comedy".into(),
            data_type: DataType::Boolean,
            values: (0..2_000)
                .map(|i| (i, Value::Boolean(i % 3 == 0)))
                .collect(),
            ledger: Some((0..2_000).map(|i| (i, CellMark::Extracted)).collect()),
            incomplete: false,
        },
    ];
    let us = median_ms(20, || wal.append_all(&group).expect("case group append")) * 1e3;
    put(out, "storage.wal.group_append_us", us, "us");
    drop(wal);
    let _ = std::fs::remove_file(&path);
}
