//! Expressions and their evaluation.
//!
//! The evaluator implements SQL three-valued logic: comparisons against
//! `NULL` yield `NULL` (represented as [`Value::Null`]), `AND`/`OR` follow
//! the Kleene truth tables, and a `WHERE` predicate only accepts rows whose
//! predicate evaluates to *true* (not to `NULL`).

use std::borrow::Cow;
use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::schema::{name_matches, Schema};
use crate::value::{DataType, Value};
use crate::Result;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOperator {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOperator {
    /// `NOT`
    Not,
    /// `-`
    Negate,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL`
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`
    IsNotNull(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a column reference.
    pub fn column(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Convenience constructor for a literal.
    pub fn literal(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(left: Expr, op: BinaryOperator, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// All column names referenced by the expression (in first-appearance
    /// order, without duplicates).  The crowd layer uses this to detect
    /// predicates over attributes that are not part of the schema yet.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                let lower = name.to_lowercase();
                if !out.contains(&lower) {
                    out.push(lower);
                }
            }
            Expr::Literal(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::UnaryOp { expr, .. } => expr.collect_columns(out),
            Expr::IsNull(expr) | Expr::IsNotNull(expr) => expr.collect_columns(out),
        }
    }

    /// Evaluates the expression against one row.
    pub fn evaluate(&self, schema: &Schema, row: &[Value], table_name: &str) -> Result<Value> {
        self.evaluate_inner(schema, row, table_name, false)
    }

    /// Like [`evaluate`](Expr::evaluate), but references to columns absent
    /// from the schema evaluate to [`Value::Null`] instead of erroring.
    ///
    /// This is the *snapshot* semantics of a crowd-enabled database: a
    /// predicate over a not-yet-materialized perceptual attribute behaves as
    /// if the column existed with every value unknown, so the rows
    /// answerable from stored data alone can be returned immediately while
    /// acquisition continues.
    pub fn evaluate_lenient(
        &self,
        schema: &Schema,
        row: &[Value],
        table_name: &str,
    ) -> Result<Value> {
        self.evaluate_inner(schema, row, table_name, true)
    }

    fn evaluate_inner(
        &self,
        schema: &Schema,
        row: &[Value],
        table_name: &str,
        lenient: bool,
    ) -> Result<Value> {
        match self {
            Expr::Column(name) => match schema.index_of(name) {
                Some(idx) => Ok(row[idx].clone()),
                None if lenient => Ok(Value::Null),
                None => Err(RelationalError::UnknownColumn {
                    table: table_name.to_string(),
                    column: name.to_lowercase(),
                }),
            },
            Expr::Literal(v) => Ok(v.clone()),
            Expr::BinaryOp { left, op, right } => {
                let l = left.evaluate_inner(schema, row, table_name, lenient)?;
                let r = right.evaluate_inner(schema, row, table_name, lenient)?;
                evaluate_binary(&l, *op, &r)
            }
            Expr::UnaryOp { op, expr } => {
                let v = expr.evaluate_inner(schema, row, table_name, lenient)?;
                evaluate_unary(*op, &v)
            }
            Expr::IsNull(expr) => {
                let v = expr.evaluate_inner(schema, row, table_name, lenient)?;
                Ok(Value::Boolean(v.is_null()))
            }
            Expr::IsNotNull(expr) => {
                let v = expr.evaluate_inner(schema, row, table_name, lenient)?;
                Ok(Value::Boolean(!v.is_null()))
            }
        }
    }

    /// Evaluates the expression as a predicate: `true` only when the result
    /// is the boolean `true` (SQL `WHERE` semantics — `NULL` rejects the
    /// row).
    pub fn matches(&self, schema: &Schema, row: &[Value], table_name: &str) -> Result<bool> {
        predicate_truth(&self.evaluate(schema, row, table_name)?)
    }

    /// [`matches`](Expr::matches) under [`evaluate_lenient`]'s
    /// missing-column-is-`NULL` semantics: a predicate over an unknown
    /// column evaluates to `NULL` and therefore rejects the row, exactly as
    /// it would once the column existed with that cell unfilled.
    ///
    /// [`evaluate_lenient`]: Expr::evaluate_lenient
    pub fn matches_lenient(
        &self,
        schema: &Schema,
        row: &[Value],
        table_name: &str,
    ) -> Result<bool> {
        predicate_truth(&self.evaluate_lenient(schema, row, table_name)?)
    }

    /// Resolves every column reference against `schema` once, for
    /// evaluation against many rows.  A column the schema lacks is
    /// [`RelationalError::UnknownColumn`], as in [`evaluate`](Expr::evaluate).
    pub fn bind(&self, schema: &Schema, table_name: &str) -> Result<BoundExpr> {
        self.bind_node(schema, Some(table_name)).map(BoundExpr)
    }

    /// [`bind`](Expr::bind) under [`evaluate_lenient`](Expr::evaluate_lenient)'s
    /// semantics: a column the schema lacks evaluates to `NULL`.
    pub fn bind_lenient(&self, schema: &Schema) -> BoundExpr {
        BoundExpr(
            self.bind_node(schema, None)
                .expect("lenient binding accepts unknown columns"),
        )
    }

    /// `table_name` is `None` under lenient binding.
    fn bind_node(&self, schema: &Schema, table_name: Option<&str>) -> Result<Node> {
        let bind = |expr: &Expr| expr.bind_node(schema, table_name).map(Box::new);
        Ok(match self {
            Expr::Column(name) => match (schema.index_of(name), table_name) {
                (Some(index), _) => Node::Column {
                    index,
                    ty: schema.columns()[index].data_type,
                },
                (None, None) => Node::Literal(Value::Null),
                (None, Some(table)) => {
                    return Err(RelationalError::UnknownColumn {
                        table: table.to_string(),
                        column: name.to_lowercase(),
                    })
                }
            },
            Expr::Literal(value) => Node::Literal(value.clone()),
            Expr::BinaryOp { left, op, right } => Node::Binary {
                left: bind(left)?,
                op: *op,
                right: bind(right)?,
            },
            Expr::UnaryOp { op, expr } => Node::Unary {
                op: *op,
                expr: bind(expr)?,
            },
            Expr::IsNull(expr) => Node::IsNull(bind(expr)?),
            Expr::IsNotNull(expr) => Node::IsNotNull(bind(expr)?),
        })
    }

    /// The integer bounds the predicate's top-level `AND` conjuncts
    /// (`column = k`, `column < k`, `k <= column`, … with an integer
    /// literal `k`) place on `column`, a lower-cased name.  A row the
    /// predicate accepts whose `column` holds an integer holds one inside
    /// the range.  `None` when no such conjunct exists — `OR`, float
    /// literals and `NULL` never bound the key.
    pub fn key_range(&self, column: &str) -> Option<KeyRange> {
        let mut range = None;
        self.narrow_key_range(column, &mut range);
        range
    }

    fn narrow_key_range(&self, column: &str, range: &mut Option<KeyRange>) {
        let Expr::BinaryOp { left, op, right } = self else {
            return;
        };
        if *op == BinaryOperator::And {
            left.narrow_key_range(column, range);
            right.narrow_key_range(column, range);
            return;
        }
        let names = |expr: &Expr| matches!(expr, Expr::Column(name) if name_matches(name, column));
        let (op, key) = match (names(left), names(right)) {
            (true, false) => (*op, right.integer_literal()),
            (false, true) => (op.flipped(), left.integer_literal()),
            _ => return,
        };
        let Some(key) = key.map(i128::from) else {
            return;
        };
        let (lo, hi) = match op {
            BinaryOperator::Eq => (key, key),
            BinaryOperator::Gt => (key + 1, i128::from(i64::MAX)),
            BinaryOperator::GtEq => (key, i128::from(i64::MAX)),
            BinaryOperator::Lt => (i128::from(i64::MIN), key - 1),
            BinaryOperator::LtEq => (i128::from(i64::MIN), key),
            _ => return,
        };
        let current = range.get_or_insert(KeyRange::ALL);
        let lo = lo.max(i128::from(current.lo));
        let hi = hi.min(i128::from(current.hi));
        // Both casts are in range whenever lo <= hi: lo >= current.lo and
        // hi <= current.hi.
        *current = if lo > hi {
            KeyRange::EMPTY
        } else {
            KeyRange {
                lo: lo as i64,
                hi: hi as i64,
            }
        };
    }

    /// `k` for a literal `k` or `-k` (the parser's spelling of a negative
    /// literal).
    fn integer_literal(&self) -> Option<i64> {
        match self {
            Expr::Literal(Value::Integer(k)) => Some(*k),
            Expr::UnaryOp {
                op: UnaryOperator::Negate,
                expr,
            } => match **expr {
                Expr::Literal(Value::Integer(k)) => k.checked_neg(),
                _ => None,
            },
            _ => None,
        }
    }

    /// True when rows whose `column` (a lower-cased name) lies outside
    /// [`key_range`](Expr::key_range) can be skipped without changing the
    /// answer: `schema` holds `column` as `INTEGER`, so every stored value
    /// is an exact `i64` or `NULL`, and the predicate cannot fail on any
    /// row, so skipping rows never hides an error a full scan would raise.
    pub fn prunes_by_key(&self, schema: &Schema, column: &str) -> bool {
        schema
            .column(column)
            .is_some_and(|c| c.data_type == DataType::Integer)
            && !self.bind_lenient(schema).can_fail()
    }
}

impl BinaryOperator {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    fn flipped(self) -> BinaryOperator {
        use BinaryOperator::*;
        match self {
            Lt => Gt,
            LtEq => GtEq,
            Gt => Lt,
            GtEq => LtEq,
            other => other,
        }
    }
}

/// Inclusive integer bounds `lo..=hi` on a key column; empty when
/// `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest key in the range.
    pub lo: i64,
    /// Largest key in the range.
    pub hi: i64,
}

impl KeyRange {
    /// Every key.
    pub const ALL: KeyRange = KeyRange {
        lo: i64::MIN,
        hi: i64::MAX,
    };
    /// No key.
    pub const EMPTY: KeyRange = KeyRange { lo: 0, hi: -1 };

    /// True when no key lies in the range.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
}

/// An [`Expr`] with its column references resolved to row positions (see
/// [`Expr::bind`]).  Evaluation does no name lookups and borrows row
/// values instead of cloning them; its results equal
/// [`Expr::evaluate`]'s (or [`Expr::evaluate_lenient`]'s).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundExpr(Node);

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// A schema column, with its declared type.
    Column {
        index: usize,
        ty: DataType,
    },
    /// A literal, or a column absent from the schema under lenient binding.
    Literal(Value),
    Binary {
        left: Box<Node>,
        op: BinaryOperator,
        right: Box<Node>,
    },
    Unary {
        op: UnaryOperator,
        expr: Box<Node>,
    },
    IsNull(Box<Node>),
    IsNotNull(Box<Node>),
}

/// What a node can evaluate to, besides `NULL`.  `Int` holds exact
/// integers only; `Num` may hold floats, whose `NaN` makes ordering
/// comparisons fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    Int,
    Num,
    Text,
}

impl BoundExpr {
    /// Evaluates the expression against one row of the schema it was
    /// bound to.
    pub fn evaluate<'r>(&'r self, row: &'r [Value]) -> Result<Cow<'r, Value>> {
        self.0.evaluate(row)
    }

    /// Evaluates the expression as a `WHERE` predicate, as
    /// [`Expr::matches`] does.
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        predicate_truth(&*self.0.evaluate(row)?)
    }

    /// False when [`matches`](BoundExpr::matches) returns `Ok` on every
    /// row of the bound schema — decided from the column types alone, and
    /// conservatively: `true` does not mean some row fails.
    pub fn can_fail(&self) -> bool {
        !matches!(self.0.kind(), Some(Kind::Bool | Kind::Null))
    }
}

impl Node {
    fn evaluate<'r>(&'r self, row: &'r [Value]) -> Result<Cow<'r, Value>> {
        Ok(match self {
            Node::Column { index, .. } => Cow::Borrowed(&row[*index]),
            Node::Literal(value) => Cow::Borrowed(value),
            Node::Binary { left, op, right } => {
                let (l, r) = (left.evaluate(row)?, right.evaluate(row)?);
                Cow::Owned(evaluate_binary(&l, *op, &r)?)
            }
            Node::Unary { op, expr } => Cow::Owned(evaluate_unary(*op, &*expr.evaluate(row)?)?),
            Node::IsNull(expr) => Cow::Owned(Value::Boolean(expr.evaluate(row)?.is_null())),
            Node::IsNotNull(expr) => Cow::Owned(Value::Boolean(!expr.evaluate(row)?.is_null())),
        })
    }

    /// The node's [`Kind`], or `None` when evaluating it can fail on some
    /// row.
    fn kind(&self) -> Option<Kind> {
        use BinaryOperator::*;
        Some(match self {
            Node::Column { ty, .. } => match ty {
                DataType::Integer => Kind::Int,
                DataType::Float => Kind::Num,
                DataType::Text => Kind::Text,
                DataType::Boolean => Kind::Bool,
            },
            Node::Literal(value) => match value {
                Value::Null => Kind::Null,
                Value::Integer(_) => Kind::Int,
                Value::Float(_) => Kind::Num,
                Value::Text(_) => Kind::Text,
                Value::Boolean(_) => Kind::Bool,
            },
            Node::IsNull(expr) | Node::IsNotNull(expr) => {
                expr.kind()?;
                Kind::Bool
            }
            Node::Unary { op, expr } => match (op, expr.kind()?) {
                (_, Kind::Null) => Kind::Null,
                (UnaryOperator::Not, Kind::Bool) => Kind::Bool,
                (UnaryOperator::Negate, kind @ (Kind::Int | Kind::Num)) => kind,
                _ => return None,
            },
            Node::Binary { left, op, right } => {
                let (l, r) = (left.kind()?, right.kind()?);
                match op {
                    Eq | NotEq => Kind::Bool,
                    Lt | LtEq | Gt | GtEq => match (l, r) {
                        (Kind::Null, _) | (_, Kind::Null) => Kind::Bool,
                        (Kind::Int, Kind::Int)
                        | (Kind::Text, Kind::Text)
                        | (Kind::Bool, Kind::Bool) => Kind::Bool,
                        _ => return None,
                    },
                    And | Or => match (l, r) {
                        (Kind::Bool | Kind::Null, Kind::Bool | Kind::Null) => Kind::Bool,
                        _ => return None,
                    },
                    Plus | Minus | Multiply => match (l, r) {
                        (Kind::Null, _) | (_, Kind::Null) => Kind::Null,
                        (Kind::Int, Kind::Int) => Kind::Int,
                        (Kind::Int | Kind::Num, Kind::Int | Kind::Num) => Kind::Num,
                        _ => return None,
                    },
                    Divide => match (l, r) {
                        (Kind::Null, _) | (_, Kind::Null) => Kind::Null,
                        // Division by zero.
                        _ => return None,
                    },
                }
            }
        })
    }
}

/// `WHERE` semantics: only a boolean `true` accepts the row.
fn predicate_truth(value: &Value) -> Result<bool> {
    match value {
        Value::Boolean(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(RelationalError::Evaluation(format!(
            "WHERE predicate evaluated to non-boolean value {other}"
        ))),
    }
}

fn evaluate_unary(op: UnaryOperator, value: &Value) -> Result<Value> {
    match op {
        UnaryOperator::Not => match value {
            Value::Null => Ok(Value::Null),
            Value::Boolean(b) => Ok(Value::Boolean(!b)),
            other => Err(RelationalError::Evaluation(format!(
                "NOT applied to non-boolean value {other}"
            ))),
        },
        UnaryOperator::Negate => match value {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => Ok(Value::Integer(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(RelationalError::Evaluation(format!(
                "cannot negate non-numeric value {other}"
            ))),
        },
    }
}

fn evaluate_binary(left: &Value, op: BinaryOperator, right: &Value) -> Result<Value> {
    use BinaryOperator::*;
    match op {
        And => Ok(kleene_and(left, right)?),
        Or => Ok(kleene_or(left, right)?),
        Eq | NotEq => {
            let eq = left.sql_eq(right);
            Ok(match eq {
                None => Value::Null,
                Some(v) => Value::Boolean(if op == Eq { v } else { !v }),
            })
        }
        Lt | LtEq | Gt | GtEq => {
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            let ord = left.compare(right).ok_or_else(|| {
                RelationalError::Evaluation(format!("cannot compare {left} with {right}"))
            })?;
            let result = match op {
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Boolean(result))
        }
        Plus | Minus | Multiply | Divide => {
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic stays integral except for division.
            if let (Value::Integer(a), Value::Integer(b)) = (left, right) {
                return Ok(match op {
                    Plus => Value::Integer(a + b),
                    Minus => Value::Integer(a - b),
                    Multiply => Value::Integer(a * b),
                    Divide => {
                        if *b == 0 {
                            return Err(RelationalError::Evaluation("division by zero".into()));
                        }
                        Value::Float(*a as f64 / *b as f64)
                    }
                    _ => unreachable!(),
                });
            }
            let a = left.as_f64().ok_or_else(|| {
                RelationalError::Evaluation(format!("arithmetic on non-numeric value {left}"))
            })?;
            let b = right.as_f64().ok_or_else(|| {
                RelationalError::Evaluation(format!("arithmetic on non-numeric value {right}"))
            })?;
            Ok(match op {
                Plus => Value::Float(a + b),
                Minus => Value::Float(a - b),
                Multiply => Value::Float(a * b),
                Divide => {
                    if b == 0.0 {
                        return Err(RelationalError::Evaluation("division by zero".into()));
                    }
                    Value::Float(a / b)
                }
                _ => unreachable!(),
            })
        }
    }
}

fn as_kleene(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Boolean(b) => Ok(Some(*b)),
        other => Err(RelationalError::Evaluation(format!(
            "logical operator applied to non-boolean value {other}"
        ))),
    }
}

fn kleene_and(left: &Value, right: &Value) -> Result<Value> {
    let (l, r) = (as_kleene(left)?, as_kleene(right)?);
    Ok(match (l, r) {
        (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
        (Some(true), Some(true)) => Value::Boolean(true),
        _ => Value::Null,
    })
}

fn kleene_or(left: &Value, right: &Value) -> Result<Value> {
    let (l, r) = (as_kleene(left)?, as_kleene(right)?);
    Ok(match (l, r) {
        (Some(true), _) | (_, Some(true)) => Value::Boolean(true),
        (Some(false), Some(false)) => Value::Boolean(false),
        _ => Value::Null,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("humor", DataType::Float),
            Column::new("is_comedy", DataType::Boolean),
        ])
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Float(3.5),
            Value::Null,
        ]
    }

    #[test]
    fn column_and_literal_evaluation() {
        let s = schema();
        let r = row();
        assert_eq!(
            Expr::column("ID").evaluate(&s, &r, "movies").unwrap(),
            Value::Integer(1)
        );
        assert_eq!(
            Expr::literal(5i64).evaluate(&s, &r, "movies").unwrap(),
            Value::Integer(5)
        );
        let err = Expr::column("missing").evaluate(&s, &r, "movies");
        assert!(matches!(err, Err(RelationalError::UnknownColumn { .. })));
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        let gt = Expr::binary(
            Expr::column("humor"),
            BinaryOperator::Gt,
            Expr::literal(3.0),
        );
        assert_eq!(gt.evaluate(&s, &r, "t").unwrap(), Value::Boolean(true));
        let eq = Expr::binary(
            Expr::column("name"),
            BinaryOperator::Eq,
            Expr::literal("Rocky"),
        );
        assert_eq!(eq.evaluate(&s, &r, "t").unwrap(), Value::Boolean(true));
        let neq = Expr::binary(
            Expr::column("id"),
            BinaryOperator::NotEq,
            Expr::literal(1i64),
        );
        assert_eq!(neq.evaluate(&s, &r, "t").unwrap(), Value::Boolean(false));
        // Comparison against NULL yields NULL, which `matches` treats as false.
        let null_cmp = Expr::binary(
            Expr::column("is_comedy"),
            BinaryOperator::Eq,
            Expr::literal(true),
        );
        assert_eq!(null_cmp.evaluate(&s, &r, "t").unwrap(), Value::Null);
        assert!(!null_cmp.matches(&s, &r, "t").unwrap());
        // Incomparable types.
        let bad = Expr::binary(
            Expr::column("name"),
            BinaryOperator::Lt,
            Expr::literal(1i64),
        );
        assert!(bad.evaluate(&s, &r, "t").is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let r = row();
        let is_comedy = Expr::binary(
            Expr::column("is_comedy"),
            BinaryOperator::Eq,
            Expr::literal(true),
        );
        let id_pos = Expr::binary(Expr::column("id"), BinaryOperator::Gt, Expr::literal(0i64));
        // NULL AND true = NULL; NULL OR true = true; NULL AND false = false.
        let and = Expr::binary(is_comedy.clone(), BinaryOperator::And, id_pos.clone());
        assert_eq!(and.evaluate(&s, &r, "t").unwrap(), Value::Null);
        let or = Expr::binary(is_comedy.clone(), BinaryOperator::Or, id_pos.clone());
        assert_eq!(or.evaluate(&s, &r, "t").unwrap(), Value::Boolean(true));
        let id_neg = Expr::binary(Expr::column("id"), BinaryOperator::Lt, Expr::literal(0i64));
        let and_false = Expr::binary(is_comedy.clone(), BinaryOperator::And, id_neg);
        assert_eq!(
            and_false.evaluate(&s, &r, "t").unwrap(),
            Value::Boolean(false)
        );
        // NOT NULL = NULL.
        let not_null = Expr::UnaryOp {
            op: UnaryOperator::Not,
            expr: Box::new(is_comedy),
        };
        assert_eq!(not_null.evaluate(&s, &r, "t").unwrap(), Value::Null);
        // Logical op on non-boolean errors.
        let bad = Expr::binary(Expr::column("id"), BinaryOperator::And, Expr::literal(true));
        assert!(bad.evaluate(&s, &r, "t").is_err());
    }

    #[test]
    fn is_null_checks() {
        let s = schema();
        let r = row();
        assert_eq!(
            Expr::IsNull(Box::new(Expr::column("is_comedy")))
                .evaluate(&s, &r, "t")
                .unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Expr::IsNotNull(Box::new(Expr::column("id")))
                .evaluate(&s, &r, "t")
                .unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let r = row();
        let add = Expr::binary(
            Expr::column("id"),
            BinaryOperator::Plus,
            Expr::literal(2i64),
        );
        assert_eq!(add.evaluate(&s, &r, "t").unwrap(), Value::Integer(3));
        let mul = Expr::binary(
            Expr::column("humor"),
            BinaryOperator::Multiply,
            Expr::literal(2i64),
        );
        assert_eq!(mul.evaluate(&s, &r, "t").unwrap(), Value::Float(7.0));
        let div = Expr::binary(
            Expr::literal(7i64),
            BinaryOperator::Divide,
            Expr::literal(2i64),
        );
        assert_eq!(div.evaluate(&s, &r, "t").unwrap(), Value::Float(3.5));
        let div0 = Expr::binary(
            Expr::literal(7i64),
            BinaryOperator::Divide,
            Expr::literal(0i64),
        );
        assert!(div0.evaluate(&s, &r, "t").is_err());
        let bad = Expr::binary(
            Expr::column("name"),
            BinaryOperator::Plus,
            Expr::literal(1i64),
        );
        assert!(bad.evaluate(&s, &r, "t").is_err());
        let null_arith = Expr::binary(
            Expr::column("is_comedy"),
            BinaryOperator::Plus,
            Expr::literal(1i64),
        );
        assert_eq!(null_arith.evaluate(&s, &r, "t").unwrap(), Value::Null);
        // Unary negation.
        let neg = Expr::UnaryOp {
            op: UnaryOperator::Negate,
            expr: Box::new(Expr::column("humor")),
        };
        assert_eq!(neg.evaluate(&s, &r, "t").unwrap(), Value::Float(-3.5));
        let neg_bad = Expr::UnaryOp {
            op: UnaryOperator::Negate,
            expr: Box::new(Expr::column("name")),
        };
        assert!(neg_bad.evaluate(&s, &r, "t").is_err());
    }

    #[test]
    fn referenced_columns_are_collected_once() {
        let e = Expr::binary(
            Expr::binary(
                Expr::column("Humor"),
                BinaryOperator::GtEq,
                Expr::literal(8i64),
            ),
            BinaryOperator::And,
            Expr::binary(
                Expr::column("humor"),
                BinaryOperator::Lt,
                Expr::column("year"),
            ),
        );
        assert_eq!(e.referenced_columns(), vec!["humor", "year"]);
        assert!(Expr::literal(1i64).referenced_columns().is_empty());
    }

    #[test]
    fn lenient_evaluation_treats_unknown_columns_as_null() {
        let s = schema();
        let r = row();
        // Strict: error.  Lenient: NULL, flowing through three-valued logic.
        let missing = Expr::binary(
            Expr::column("nonexistent"),
            BinaryOperator::Eq,
            Expr::literal(true),
        );
        assert!(missing.evaluate(&s, &r, "t").is_err());
        assert_eq!(missing.evaluate_lenient(&s, &r, "t").unwrap(), Value::Null);
        assert!(!missing.matches_lenient(&s, &r, "t").unwrap());
        // NULL OR true = true: stored data still answers.
        let or_known = Expr::binary(
            missing,
            BinaryOperator::Or,
            Expr::binary(Expr::column("id"), BinaryOperator::Eq, Expr::literal(1i64)),
        );
        assert!(or_known.matches_lenient(&s, &r, "t").unwrap());
        // IS NULL over a missing column is true — the cell is a hole.
        let is_null = Expr::IsNull(Box::new(Expr::column("nonexistent")));
        assert_eq!(
            is_null.evaluate_lenient(&s, &r, "t").unwrap(),
            Value::Boolean(true)
        );
        // Known columns behave identically on both paths.
        let known = Expr::binary(Expr::column("id"), BinaryOperator::Eq, Expr::literal(1i64));
        assert_eq!(
            known.evaluate(&s, &r, "t").unwrap(),
            known.evaluate_lenient(&s, &r, "t").unwrap()
        );
    }

    #[test]
    fn matches_requires_boolean() {
        let s = schema();
        let r = row();
        assert!(Expr::column("id").matches(&s, &r, "t").is_err());
        let ok = Expr::binary(Expr::column("id"), BinaryOperator::Eq, Expr::literal(1i64));
        assert!(ok.matches(&s, &r, "t").unwrap());
    }

    fn predicate(sql_where: &str) -> Expr {
        match crate::sql::parse(&format!("SELECT * FROM t WHERE {sql_where}")).unwrap() {
            crate::sql::Statement::Select(select) => select.filter.unwrap(),
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn key_ranges_come_from_top_level_conjuncts() {
        let range = |sql: &str| predicate(sql).key_range("id");
        let bounds = |lo, hi| Some(KeyRange { lo, hi });
        assert_eq!(range("id = 5"), bounds(5, 5));
        assert_eq!(range("ID = -7"), bounds(-7, -7));
        assert_eq!(range("5 = id"), bounds(5, 5));
        assert_eq!(range("id >= 3 AND id < 10"), bounds(3, 9));
        assert_eq!(range("10 > id AND (3 <= id AND name = 'x')"), bounds(3, 9));
        assert_eq!(range("id > 3 AND id <= 4"), bounds(4, 4));
        assert_eq!(range("id = 4 AND humor > 1.5"), bounds(4, 4));
        assert_eq!(range("id < 5 AND id > 10"), Some(KeyRange::EMPTY));
        assert!(range("id < 5 AND id > 10").unwrap().is_empty());
        assert_eq!(range("id > 9223372036854775807"), Some(KeyRange::EMPTY));
        assert_eq!(range("id < 0"), bounds(i64::MIN, -1));
        // Nothing the key column is not compared with an integer literal
        // under AND alone.
        for sql in [
            "id = 17.0",
            "id = 1 OR id = 2",
            "id = NULL",
            "id <> 4",
            "NOT id = 4",
            "id = humor",
            "id + 1 = 5",
            "name = 'x'",
            "(id = 1 OR id = 2) AND name = 'x'",
        ] {
            assert_eq!(range(sql), None, "{sql}");
        }
    }

    #[test]
    fn bound_expressions_know_when_they_cannot_fail() {
        let s = schema();
        let fails = |sql: &str| predicate(sql).bind_lenient(&s).can_fail();
        for sql in [
            "id = 5 AND name = 'x'",
            "id >= 3 AND id < 10 OR is_comedy",
            "missing = 3 AND id < missing",
            "NOT is_comedy AND id + 2 * id > -id",
            "humor = 1.5 AND name IS NOT NULL",
            "NULL",
        ] {
            assert!(!fails(sql), "{sql}");
        }
        for sql in [
            "name < 3",
            "id",
            "humor > 1.0",
            "id / 2 = 1",
            "id = 5 AND name",
            "NOT id = 5 AND -name = 1",
        ] {
            assert!(fails(sql), "{sql}");
        }
        assert!(predicate("id = 5 AND name = 'x'").prunes_by_key(&s, "id"));
        assert!(!predicate("id = 5 AND name < 1").prunes_by_key(&s, "id"));
        assert!(!predicate("humor = 5").prunes_by_key(&s, "humor"));
        assert!(!predicate("id = 5").prunes_by_key(&s, "missing"));
    }

    #[test]
    fn bound_evaluation_borrows_and_matches_the_reference() {
        let s = schema();
        let r = row();
        let bound = Expr::column("NAME").bind(&s, "t").unwrap();
        assert!(matches!(bound.evaluate(&r).unwrap(), Cow::Borrowed(_)));
        assert_eq!(
            Expr::column("missing").bind(&s, "movies"),
            Err(RelationalError::UnknownColumn {
                table: "movies".into(),
                column: "missing".into()
            })
        );
        let e = predicate("missing = 1 OR humor > 3");
        assert_eq!(
            *e.bind_lenient(&s).evaluate(&r).unwrap(),
            e.evaluate_lenient(&s, &r, "t").unwrap()
        );
        assert!(e.bind(&s, "t").is_err());
        let e = predicate("id + 1 = 2 AND NOT is_comedy IS NULL");
        assert_eq!(e.bind(&s, "t").unwrap().matches(&r), e.matches(&s, &r, "t"));
    }
}
