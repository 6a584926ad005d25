//! Property-based tests for the relational engine: SQL literal round trips,
//! three-valued logic laws, and executor invariants.

use proptest::prelude::*;

use relational::{executor, parse, Catalog, Column, DataType, Expr, Schema, Table, Value};

fn identifier() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,10}".prop_filter("avoid SQL keywords", |s| {
        !matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "order"
                | "by"
                | "asc"
                | "desc"
                | "limit"
                | "insert"
                | "into"
                | "values"
                | "create"
                | "table"
                | "alter"
                | "add"
                | "column"
                | "not"
                | "null"
                | "and"
                | "or"
                | "true"
                | "false"
                | "is"
                | "integer"
                | "int"
                | "float"
                | "real"
                | "double"
                | "text"
                | "varchar"
                | "string"
                | "boolean"
                | "bool"
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integer_literals_round_trip_through_insert(value in -1_000_000i64..1_000_000) {
        let mut catalog = Catalog::new();
        executor::execute(&parse("CREATE TABLE t (v INTEGER)").unwrap(), &mut catalog).unwrap();
        let sql = format!("INSERT INTO t (v) VALUES ({value})");
        executor::execute(&parse(&sql).unwrap(), &mut catalog).unwrap();
        let result = executor::execute(&parse("SELECT v FROM t").unwrap(), &mut catalog).unwrap();
        prop_assert_eq!(&result.rows[0][0], &Value::Integer(value));
    }

    #[test]
    fn text_literals_round_trip(text in "[a-zA-Z0-9 ]{0,24}") {
        let mut catalog = Catalog::new();
        executor::execute(&parse("CREATE TABLE t (v TEXT)").unwrap(), &mut catalog).unwrap();
        let sql = format!("INSERT INTO t (v) VALUES ('{text}')");
        executor::execute(&parse(&sql).unwrap(), &mut catalog).unwrap();
        let result = executor::execute(&parse("SELECT v FROM t").unwrap(), &mut catalog).unwrap();
        prop_assert_eq!(&result.rows[0][0], &Value::Text(text));
    }

    #[test]
    fn parser_accepts_arbitrary_identifiers(table in identifier(), column in identifier()) {
        let create = format!("CREATE TABLE {table} ({column} INTEGER)");
        let stmt = parse(&create);
        prop_assert!(stmt.is_ok(), "failed to parse {create}: {stmt:?}");
        let select = format!("SELECT {column} FROM {table} WHERE {column} > 0");
        prop_assert!(parse(&select).is_ok());
    }

    #[test]
    fn filtered_rows_never_exceed_table_and_satisfy_predicate(
        values in prop::collection::vec(-50i64..50, 1..40),
        threshold in -50i64..50,
    ) {
        let mut catalog = Catalog::new();
        executor::execute(&parse("CREATE TABLE t (v INTEGER)").unwrap(), &mut catalog).unwrap();
        for v in &values {
            executor::execute(
                &parse(&format!("INSERT INTO t (v) VALUES ({v})")).unwrap(),
                &mut catalog,
            )
            .unwrap();
        }
        let result = executor::execute(
            &parse(&format!("SELECT v FROM t WHERE v >= {threshold}")).unwrap(),
            &mut catalog,
        )
        .unwrap();
        let expected = values.iter().filter(|&&v| v >= threshold).count();
        prop_assert_eq!(result.rows.len(), expected);
        for row in &result.rows {
            match row[0] {
                Value::Integer(v) => prop_assert!(v >= threshold),
                ref other => prop_assert!(false, "unexpected value {other:?}"),
            }
        }
    }

    #[test]
    fn order_by_produces_sorted_output(values in prop::collection::vec(-1000i64..1000, 1..40)) {
        let mut catalog = Catalog::new();
        let schema = Schema::new(vec![Column::new("v", DataType::Integer)]).unwrap();
        let mut table = Table::new("t", schema);
        for v in &values {
            table.insert_row(vec![Value::Integer(*v)]).unwrap();
        }
        catalog.create_table(table).unwrap();
        let result = executor::execute(
            &parse("SELECT v FROM t ORDER BY v ASC").unwrap(),
            &mut catalog,
        )
        .unwrap();
        let sorted: Vec<i64> = result
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Integer(v) => v,
                _ => unreachable!(),
            })
            .collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected);
    }

    #[test]
    fn three_valued_logic_laws(a in any::<Option<bool>>(), b in any::<Option<bool>>()) {
        // Encode Option<bool> as Value (None = NULL) and check Kleene laws
        // through the expression evaluator.
        let schema = Schema::new(vec![
            Column::new("a", DataType::Boolean),
            Column::new("b", DataType::Boolean),
        ])
        .unwrap();
        let to_value = |x: Option<bool>| x.map(Value::Boolean).unwrap_or(Value::Null);
        let row = vec![to_value(a), to_value(b)];
        let and = Expr::binary(Expr::column("a"), relational::BinaryOperator::And, Expr::column("b"));
        let or = Expr::binary(Expr::column("a"), relational::BinaryOperator::Or, Expr::column("b"));
        let and_rev = Expr::binary(Expr::column("b"), relational::BinaryOperator::And, Expr::column("a"));
        let or_rev = Expr::binary(Expr::column("b"), relational::BinaryOperator::Or, Expr::column("a"));
        // Commutativity.
        prop_assert_eq!(and.evaluate(&schema, &row, "t").unwrap(), and_rev.evaluate(&schema, &row, "t").unwrap());
        prop_assert_eq!(or.evaluate(&schema, &row, "t").unwrap(), or_rev.evaluate(&schema, &row, "t").unwrap());
        // Kleene truth tables.
        let expected_and = match (a, b) {
            (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
            (Some(true), Some(true)) => Value::Boolean(true),
            _ => Value::Null,
        };
        let expected_or = match (a, b) {
            (Some(true), _) | (_, Some(true)) => Value::Boolean(true),
            (Some(false), Some(false)) => Value::Boolean(false),
            _ => Value::Null,
        };
        prop_assert_eq!(and.evaluate(&schema, &row, "t").unwrap(), expected_and);
        prop_assert_eq!(or.evaluate(&schema, &row, "t").unwrap(), expected_or);
        // A WHERE predicate never accepts a NULL outcome.
        let matches = and.matches(&schema, &row, "t").unwrap();
        prop_assert_eq!(matches, a == Some(true) && b == Some(true));
    }

    #[test]
    fn schema_expansion_preserves_existing_data(
        values in prop::collection::vec(-100i64..100, 1..30),
        new_column in identifier(),
    ) {
        let mut catalog = Catalog::new();
        executor::execute(&parse("CREATE TABLE t (v INTEGER)").unwrap(), &mut catalog).unwrap();
        for v in &values {
            executor::execute(
                &parse(&format!("INSERT INTO t (v) VALUES ({v})")).unwrap(),
                &mut catalog,
            )
            .unwrap();
        }
        prop_assume!(new_column != "v");
        executor::execute(
            &parse(&format!("ALTER TABLE t ADD COLUMN {new_column} BOOLEAN")).unwrap(),
            &mut catalog,
        )
        .unwrap();
        let result = executor::execute(&parse("SELECT * FROM t").unwrap(), &mut catalog).unwrap();
        prop_assert_eq!(result.columns.len(), 2);
        prop_assert_eq!(result.rows.len(), values.len());
        for (row, original) in result.rows.iter().zip(values.iter()) {
            prop_assert_eq!(&row[0], &Value::Integer(*original));
            prop_assert_eq!(&row[1], &Value::Null);
        }
    }
}

/// Columns of the bound-evaluation properties; `zz` is absent from the
/// schema, so only lenient binding accepts it.
const EXPR_COLUMNS: [&str; 5] = ["i", "f", "t", "b", "zz"];

fn expr_schema() -> Schema {
    Schema::new(vec![
        Column::new("i", DataType::Integer),
        Column::new("f", DataType::Float),
        Column::new("t", DataType::Text),
        Column::new("b", DataType::Boolean),
    ])
    .unwrap()
}

/// A literal of any type, small enough that arithmetic never overflows.
fn literal_of(choice: u32) -> Value {
    match choice % 9 {
        0 => Value::Null,
        1 | 2 => Value::Integer(choice as i64 % 7 - 3),
        3 => Value::Float((choice % 5) as f64 - 1.5),
        4 => Value::Text(["a", "b"][(choice / 9 % 2) as usize].into()),
        5 => Value::Float(0.0),
        _ => Value::Boolean(choice.is_multiple_of(2)),
    }
}

/// An expression tree decoded from `choices` (depth at most `depth`).
fn expr_of(choices: &mut impl Iterator<Item = u32>, depth: u32) -> Expr {
    use relational::{BinaryOperator as B, UnaryOperator as U};
    let choice = choices.next().unwrap_or(0);
    if depth == 0 || choice.is_multiple_of(4) {
        return if choice % 8 < 5 {
            Expr::column(EXPR_COLUMNS[(choice / 8 % 5) as usize])
        } else {
            Expr::Literal(literal_of(choice / 8))
        };
    }
    let mut sub = || Box::new(expr_of(choices, depth - 1));
    match choice / 4 % 16 {
        0 => Expr::UnaryOp {
            op: U::Not,
            expr: sub(),
        },
        1 => Expr::UnaryOp {
            op: U::Negate,
            expr: sub(),
        },
        2 => Expr::IsNull(sub()),
        3 => Expr::IsNotNull(sub()),
        n => {
            let op = [
                B::Eq,
                B::NotEq,
                B::Lt,
                B::LtEq,
                B::Gt,
                B::GtEq,
                B::And,
                B::Or,
                B::Plus,
                B::Minus,
                B::Multiply,
                B::Divide,
            ][(n - 4) as usize];
            Expr::BinaryOp {
                left: sub(),
                op,
                right: sub(),
            }
        }
    }
}

/// One row of `expr_schema`, any cell possibly NULL (a FLOAT cell may hold
/// an integer, as the column type allows).
fn row_of(choices: &[u32]) -> Vec<Value> {
    let cell = |c: u32, value: Value| {
        if c.is_multiple_of(5) {
            Value::Null
        } else {
            value
        }
    };
    vec![
        cell(choices[0], Value::Integer(choices[0] as i64 % 7 - 3)),
        cell(
            choices[1],
            if choices[1].is_multiple_of(3) {
                Value::Integer(choices[1] as i64 % 4)
            } else {
                Value::Float(choices[1] as f64 % 4.0 - 1.5)
            },
        ),
        cell(
            choices[2],
            Value::Text(["a", "b"][choices[2] as usize % 2].into()),
        ),
        cell(choices[3], Value::Boolean(choices[3].is_multiple_of(2))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bound_evaluation_equals_the_reference_evaluator(
        tree in prop::collection::vec(0u32..1_000_000, 32),
        cells in prop::collection::vec(0u32..1_000, 4),
    ) {
        let schema = expr_schema();
        let expr = expr_of(&mut tree.into_iter(), 4);
        let row = row_of(&cells);

        let lenient = expr.bind_lenient(&schema);
        prop_assert_eq!(
            lenient.evaluate(&row).map(|v| v.into_owned()),
            expr.evaluate_lenient(&schema, &row, "t")
        );
        prop_assert_eq!(lenient.matches(&row), expr.matches_lenient(&schema, &row, "t"));
        if !lenient.can_fail() {
            prop_assert!(lenient.matches(&row).is_ok(), "{expr:?} failed on {row:?}");
        }

        match expr.bind(&schema, "t") {
            Ok(strict) => {
                prop_assert_eq!(
                    strict.evaluate(&row).map(|v| v.into_owned()),
                    expr.evaluate(&schema, &row, "t")
                );
                prop_assert_eq!(strict.matches(&row), expr.matches(&schema, &row, "t"));
            }
            Err(e) => {
                prop_assert!(expr.referenced_columns().contains(&"zz".to_string()), "{e}");
                prop_assert!(expr.evaluate(&schema, &row, "t").is_err());
            }
        }
    }

    #[test]
    fn key_index_probes_answer_like_a_scan(
        ids in prop::collection::vec(-20i64..20, 0..60),
        lo in -25i64..25,
        width in 0i64..12,
        point in any::<bool>(),
    ) {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("n", DataType::Integer),
        ])
        .unwrap();
        let mut plain = Table::new("t", schema);
        for (n, id) in ids.iter().enumerate() {
            let id = if n % 7 == 3 { Value::Null } else { Value::Integer(*id) };
            plain.insert_row(vec![id, Value::Integer(n as i64)]).unwrap();
        }
        let mut keyed = plain.clone();
        keyed.set_key_column("id");
        let hi = lo + width;
        let sql = if point {
            format!("SELECT n, id FROM t WHERE id = {lo} AND n >= 0")
        } else {
            format!("SELECT n FROM t WHERE id >= {lo} AND {hi} >= id ORDER BY id DESC LIMIT 5")
        };
        let statement = parse(&sql).unwrap();
        let scan = executor::execute_read_indexed(&statement, &(&plain).into()).unwrap();
        let probed = executor::execute_read_indexed(&statement, &(&keyed).into()).unwrap();
        prop_assert_eq!(scan, probed);
    }
}
