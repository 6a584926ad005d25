//! Differential tests of the partitioned read path: one set of rows
//! loaded into a single-partition, a `Hash { n: 4 }` and a `Range` table
//! must answer a fixed list of SELECTs with the same rows and the same
//! per-cell provenance — whether a read routes to one partition by id,
//! prunes range partitions, probes the per-slice id index or scans every
//! slice — before and after UPDATE / DELETE / ALTER, and after a reopen.
//!
//! Row order is part of the contract where SQL fixes it (`ORDER BY` on a
//! key whose ties share a partition).  Without `ORDER BY` a partitioned
//! table answers in partition order, so those answers are compared as
//! multisets, and the scan order is checked against the table's merged
//! inspection copy instead.  That a routed point read takes only the
//! owning partition's lock is proved by the engine's unit tests, which
//! can hold the other partitions' write locks directly.

use std::path::{Path, PathBuf};

use crowddb::prelude::*;
use crowddb::relational::{executor::execute_read, parse, Column, Schema, Table};

const BIG: i64 = 1 << 53;

/// The tables under test: the reference first.
fn specs() -> Vec<PartitionSpec> {
    vec![
        PartitionSpec::Single,
        PartitionSpec::Hash { n: 4 },
        PartitionSpec::Range {
            bounds: vec![0, 25, BIG + 1],
        },
    ]
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowddb-reads-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ids loaded at creation: in-space items, duplicates, negatives, ids
/// beyond 2^53 (and so beyond any perceptual space) and a NULL id.
fn initial_ids() -> Vec<Option<i64>> {
    let mut ids: Vec<Option<i64>> = (0..60).map(Some).collect();
    ids.extend([3, 17, -1, -40, BIG, BIG + 1, BIG + 2, i64::MAX].map(Some));
    ids.push(None);
    ids
}

/// Ids inserted through SQL after creation.
const LATER_IDS: [i64; 6] = [60, 61, 17, -2, BIG + 1, 70];

fn domain() -> SyntheticDomain {
    SyntheticDomain::generate(&DomainConfig::movies().scaled(0.05), 505).unwrap()
}

/// Opens (creating on first use) the database at `dir`, with table `t`
/// bound to the domain's space so crowd-expanded columns carry
/// ledger-backed provenance.
fn open(dir: &Path, spec: &PartitionSpec, domain: &SyntheticDomain) -> CrowdDb {
    let db = CrowdDb::builder()
        .config(CrowdDbConfig {
            strategy: ExpansionStrategy::DirectCrowd,
            ..Default::default()
        })
        .persistent(dir)
        .open()
        .unwrap();
    if db.catalog().table("t").is_err() {
        let schema = Schema::new(vec![
            Column::new("item_id", DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Integer),
        ])
        .unwrap();
        let mut table = Table::new("t", schema);
        for (n, id) in initial_ids().into_iter().enumerate() {
            table
                .insert_row(vec![
                    id.map_or(Value::Null, Value::Integer),
                    Value::Text(format!("row {n}")),
                    Value::Integer((n as i64 * 37) % 101),
                ])
                .unwrap();
        }
        db.create_table_with(
            TableOptions::new("t", "item_id").partitions(spec.clone()),
            table,
        )
        .unwrap();
        for (n, id) in LATER_IDS.iter().enumerate() {
            db.execute(&format!(
                "INSERT INTO t (item_id, name, score) VALUES ({id}, 'later {n}', {})",
                200 + n
            ))
            .unwrap();
        }
    }
    let space = build_space_for_domain(domain, 8, 10).unwrap();
    let crowd = SimulatedCrowd::new(domain, ExperimentRegime::TrustedWorkers, 31);
    db.bind_table("t", space, Box::new(crowd)).unwrap();
    db.register_attribute("t", "is_comedy", "Comedy").unwrap();
    db.register_attribute("t", "is_drama", "Drama").unwrap();
    db
}

/// One answer: rows zipped with their provenance, or the kind of error.
/// An error's text names the first row it failed on, which the row order
/// decides, so only its kind is compared.
type Answer = Result<Vec<(Vec<Value>, Vec<CellProvenance>)>, std::mem::Discriminant<CrowdDbError>>;

fn zip_rows(rows: RowSet) -> Vec<(Vec<Value>, Vec<CellProvenance>)> {
    assert_eq!(rows.rows.len(), rows.provenance.len());
    rows.rows.into_iter().zip(rows.provenance).collect()
}

/// Runs `sql` without ever buying a judgment.
fn answer(db: &CrowdDb, sql: &str) -> Answer {
    match db.query(sql).mode(ExpansionMode::CacheOnly).run() {
        Ok(outcome) => match outcome.result {
            StatementResult::Rows(rows) => Ok(zip_rows(rows)),
            other => panic!("{sql}: expected rows, got {other:?}"),
        },
        Err(e) => Err(std::mem::discriminant(&e)),
    }
}

/// The snapshot a streamed query emits before any acquisition.
fn snapshot(db: &CrowdDb, sql: &str) -> Vec<(Vec<Value>, Vec<CellProvenance>)> {
    let mut stream = db.query(sql).mode(ExpansionMode::CacheOnly).stream();
    let first = stream.next().expect("a stream emits at least one event");
    let QueryEvent::Snapshot(rows) = first else {
        panic!("{sql}: the first event is not a snapshot: {first:?}");
    };
    stream.wait().unwrap();
    zip_rows(rows)
}

/// Queries whose order SQL fixes: `ORDER BY` a column whose ties (equal
/// ids) always share a partition, or a unique one.
const ORDERED: &[&str] = &[
    "SELECT * FROM t ORDER BY item_id",
    "SELECT * FROM t WHERE item_id >= 0 ORDER BY item_id DESC",
    "SELECT item_id, is_comedy FROM t WHERE item_id >= 10 AND item_id <= 30 ORDER BY item_id",
    "SELECT name, is_comedy FROM t WHERE item_id > 5 ORDER BY score DESC LIMIT 7",
    "SELECT * FROM t WHERE item_id < 40 ORDER BY score LIMIT 12",
];

/// Queries compared as multisets.
const UNORDERED: &[&str] = &[
    // Points: present, duplicated, absent, float, negative, beyond 2^53.
    "SELECT * FROM t WHERE item_id = 17",
    "SELECT * FROM t WHERE item_id = 3",
    "SELECT * FROM t WHERE item_id = 999",
    "SELECT * FROM t WHERE item_id = 17.0",
    "SELECT * FROM t WHERE item_id = -40",
    "SELECT * FROM t WHERE item_id = 9007199254740993",
    "SELECT * FROM t WHERE item_id = 9007199254740992",
    "SELECT * FROM t WHERE item_id = NULL",
    "SELECT * FROM t WHERE 17 = item_id",
    // Ranges: closed, open, empty, reversed.
    "SELECT item_id, name FROM t WHERE item_id >= 10 AND item_id < 30",
    "SELECT * FROM t WHERE item_id > 40",
    "SELECT * FROM t WHERE item_id <= 5",
    "SELECT * FROM t WHERE item_id > 9007199254740992",
    "SELECT * FROM t WHERE item_id > 30 AND item_id < 31",
    "SELECT * FROM t WHERE item_id > 50 AND item_id < 10",
    "SELECT * FROM t WHERE item_id > 24 AND item_id <= 27",
    "SELECT * FROM t WHERE item_id < -1 AND item_id >= -40",
    // The id with other columns, ORs of ids, and no filter.
    "SELECT name FROM t WHERE item_id = 17 AND score > 3",
    "SELECT * FROM t WHERE name = 'row 5' AND item_id >= 0",
    "SELECT * FROM t WHERE item_id = 3 OR item_id = 17",
    "SELECT item_id, is_comedy FROM t WHERE is_comedy IS NULL AND item_id < 20",
    "SELECT * FROM t",
    // A predicate that fails on some rows must fail everywhere, however
    // few rows the id pins.
    "SELECT * FROM t WHERE item_id = 17 AND name < 3",
    "SELECT * FROM t WHERE item_id = 999 AND name < 3",
    // Divides by zero on the NULL-id row alone (score 92, partition 0
    // under every partitioning), never on the rows id 17 pins.
    "SELECT * FROM t WHERE item_id = 17 AND 1 / (score - 92) > 0",
];

/// Every answer of `db`, in a form comparable across partitionings.
fn answers(db: &CrowdDb) -> Vec<(String, Answer)> {
    let mut out = Vec::new();
    for sql in ORDERED {
        out.push((sql.to_string(), answer(db, sql)));
    }
    for sql in UNORDERED {
        let mut rows = answer(db, sql);
        if let Ok(rows) = &mut rows {
            rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        }
        out.push((sql.to_string(), rows));
    }
    out
}

/// Checks what the per-partitioning answers cannot show on their own: a
/// `LIMIT` without `ORDER BY` is a prefix of the unlimited scan, and the
/// unordered scan runs in the merged order of the table's slices.
fn check_scan_order(db: &CrowdDb, label: &str) {
    let all = answer(db, "SELECT * FROM t").unwrap();
    let limited = answer(db, "SELECT * FROM t LIMIT 9").unwrap();
    assert_eq!(limited, all[..9], "{label}: LIMIT without ORDER BY");
    let merged = db.catalog().table("t").unwrap().rows().to_vec();
    let rows: Vec<Vec<Value>> = all.into_iter().map(|(row, _)| row).collect();
    assert_eq!(rows, merged, "{label}: scan order");
}

/// Checks `answers` against a plain scan: the same rows loaded into an
/// unpartitioned table with no key index, queried by the relational
/// executor alone.  Catches a routing or index fault every partitioning
/// would share.
fn check_against_scan(db: &CrowdDb, answers: &[(String, Answer)], label: &str) {
    let catalog = db.catalog();
    let table = catalog.table("t").unwrap();
    let mut plain = Table::new("t", table.schema().clone());
    for row in table.rows() {
        plain.insert_row(row.clone()).unwrap();
    }
    drop(table);
    let mut catalog = Catalog::new();
    catalog.create_table(plain).unwrap();
    for (sql, answer) in answers {
        let scan = execute_read(&parse(sql).unwrap(), &catalog);
        match (answer, scan) {
            (Ok(rows), Ok(scan)) => {
                let mut got: Vec<Vec<Value>> = rows.iter().map(|(row, _)| row.clone()).collect();
                let mut want = scan.rows;
                if !ORDERED.contains(&sql.as_str()) {
                    want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                    got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                }
                assert_eq!(got, want, "{label}: {sql}");
            }
            (answer, scan) => assert!(
                answer.is_err() && scan.is_err(),
                "{label}: {sql}: {answer:?} vs {scan:?}"
            ),
        }
    }
}

fn assert_same(reference: &[(String, Answer)], other: &[(String, Answer)], label: &str) {
    assert_eq!(reference.len(), other.len());
    for ((sql, want), (_, got)) in reference.iter().zip(other) {
        assert_eq!(got, want, "{label}: {sql}");
    }
}

#[test]
fn partitioned_tables_answer_like_a_single_partition_one() {
    let domain = domain();
    let dirs: Vec<PathBuf> = (0..specs().len())
        .map(|i| test_dir(&format!("diff{i}")))
        .collect();
    let mut runs: Vec<Vec<Vec<(String, Answer)>>> = vec![Vec::new(); specs().len()];
    let mut snapshots = Vec::new();
    for (i, spec) in specs().iter().enumerate() {
        let label = format!("{spec:?}");
        {
            let db = open(&dirs[i], spec, &domain);
            // A streamed snapshot over a registered column no query has
            // materialized yet: NULL cells marked not-expanded.
            snapshots.push((
                snapshot(&db, "SELECT item_id, is_drama FROM t WHERE item_id = 17"),
                snapshot(
                    &db,
                    "SELECT name, is_drama FROM t WHERE item_id < 4 ORDER BY item_id",
                ),
            ));
            // Materialize one expanded column for ledger-backed provenance.
            answer(&db, "SELECT item_id, is_comedy FROM t").unwrap();
            runs[i].push(answers(&db));
            check_against_scan(&db, runs[i].last().unwrap(), &label);
            check_scan_order(&db, &label);

            db.execute("UPDATE t SET score = score + 1000 WHERE item_id < 10")
                .unwrap();
            db.execute("DELETE FROM t WHERE item_id = 3 OR item_id = 45")
                .unwrap();
            db.execute("ALTER TABLE t ADD COLUMN note TEXT").unwrap();
            db.execute("UPDATE t SET note = 'seen' WHERE item_id = 17")
                .unwrap();
            db.execute("INSERT INTO t (item_id, name, score, note) VALUES (3, 'back', 999, 'new')")
                .unwrap();
            runs[i].push(answers(&db));
            check_against_scan(&db, runs[i].last().unwrap(), &label);
            check_scan_order(&db, &label);
        }
        let db = open(&dirs[i], spec, &domain);
        runs[i].push(answers(&db));
        check_against_scan(&db, runs[i].last().unwrap(), &label);
        check_scan_order(&db, &format!("{label} reopened"));
    }

    let (reference, others) = runs.split_first().unwrap();
    for (spec, run) in specs()[1..].iter().zip(others) {
        for (phase, (want, got)) in reference.iter().zip(run).enumerate() {
            assert_same(want, got, &format!("{spec:?} phase {phase}"));
        }
    }
    for (spec, got) in specs()[1..].iter().zip(&snapshots[1..]) {
        assert_eq!(got, &snapshots[0], "{spec:?} snapshot");
    }

    // The answers are not vacuous: ids beyond 2^53 stay distinct, the
    // expanded column carries ledger provenance, and the snapshot marks
    // the missing column.
    let first = &reference[0];
    let lookup = |sql: &str| first.iter().find(|(s, _)| s == sql).unwrap().1.clone();
    let big = lookup("SELECT * FROM t WHERE item_id = 9007199254740993").unwrap();
    assert_eq!(big.len(), 2, "the original row and the later duplicate");
    assert_eq!(
        lookup("SELECT * FROM t WHERE item_id = 3").unwrap().len(),
        2
    );
    assert_eq!(
        lookup("SELECT * FROM t WHERE item_id = 17.0")
            .unwrap()
            .len(),
        3
    );
    assert!(
        lookup("SELECT * FROM t WHERE item_id > 30 AND item_id < 31")
            .unwrap()
            .is_empty()
    );
    assert!(lookup("SELECT * FROM t WHERE item_id = 17 AND name < 3").is_err());
    assert!(lookup("SELECT * FROM t WHERE item_id = 999 AND name < 3").is_err());
    assert!(lookup("SELECT * FROM t WHERE item_id = 17 AND 1 / (score - 92) > 0").is_err());
    let expanded = lookup("SELECT * FROM t").unwrap();
    assert!(expanded
        .iter()
        .any(|(_, p)| p.contains(&CellProvenance::Missing {
            reason: MissingReason::NoItemId
        })));
    let (point, _) = &snapshots[0];
    assert_eq!(point.len(), 3);
    assert!(point.iter().all(|(row, provenance)| row[1] == Value::Null
        && provenance[1]
            == CellProvenance::Missing {
                reason: MissingReason::NotExpanded
            }));

    for dir in dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
