//! Row-oriented tables.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::expr::KeyRange;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};
use crate::Result;

/// A named table: a schema plus a row store, optionally with an equality
/// index on a declared key column (see [`Table::set_key_column`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
    /// Derived from `rows`; two tables with equal rows are equal whatever
    /// their indexes.
    key: Option<KeyIndex>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows == other.rows
    }
}

/// Exact-`i64` equality index over the key column: key value → row
/// indices.  Rows whose key is `NULL` are not indexed.
///
/// A unique key costs one map entry and no heap allocation of its own;
/// only the second and later rows of a duplicated key go to `more`.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    /// Lower-cased name of the declared key column.
    column: String,
    /// Position of the key column while the schema has it with type
    /// `INTEGER` (every stored value is then an exact `i64` or `NULL`);
    /// `None` leaves the index empty and unused.
    position: Option<usize>,
    first: HashMap<i64, usize>,
    more: HashMap<i64, Vec<usize>>,
}

impl KeyIndex {
    fn add(&mut self, key: i64, row: usize) {
        if let Some(&existing) = self.first.get(&key) {
            debug_assert_ne!(existing, row);
            self.more.entry(key).or_default().push(row);
        } else {
            self.first.insert(key, row);
        }
    }

    fn remove(&mut self, key: i64, row: usize) {
        if self.first.get(&key) == Some(&row) {
            match self.more.get_mut(&key) {
                Some(rest) => {
                    let promoted = rest.pop().expect("side entries are never empty");
                    if rest.is_empty() {
                        self.more.remove(&key);
                    }
                    self.first.insert(key, promoted);
                }
                None => {
                    self.first.remove(&key);
                }
            }
        } else if let Some(rest) = self.more.get_mut(&key) {
            rest.retain(|&r| r != row);
            if rest.is_empty() {
                self.more.remove(&key);
            }
        }
    }

    /// Re-derives the index from `rows` under `schema`.
    fn rebuild(&mut self, schema: &Schema, rows: &[Vec<Value>]) {
        self.first.clear();
        self.more.clear();
        self.position = schema
            .index_of(&self.column)
            .filter(|&i| schema.columns()[i].data_type == DataType::Integer);
        if let Some(position) = self.position {
            self.first.reserve(rows.len());
            for (row, values) in rows.iter().enumerate() {
                if let Value::Integer(key) = values[position] {
                    self.add(key, row);
                }
            }
        }
    }

    /// Appends the rows holding `key` to `out`.
    fn rows_with(&self, key: i64, out: &mut Vec<usize>) {
        if let Some(&row) = self.first.get(&key) {
            out.push(row);
            if let Some(rest) = self.more.get(&key) {
                out.extend_from_slice(rest);
            }
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into().to_lowercase(),
            schema,
            rows: Vec::new(),
            key: None,
        }
    }

    /// Declares `column` the table's key and builds an exact-`i64`
    /// equality index over it, maintained by every later mutation.  The
    /// index is live only while the schema holds `column` with type
    /// `INTEGER`; a later `ADD COLUMN` of that name activates it.
    pub fn set_key_column(&mut self, column: &str) {
        let mut key = KeyIndex {
            column: column.to_lowercase(),
            ..KeyIndex::default()
        };
        key.rebuild(&self.schema, &self.rows);
        self.key = Some(key);
    }

    /// The name of the indexed key column, when the index is live.
    pub fn key_column(&self) -> Option<&str> {
        self.key
            .as_ref()
            .filter(|key| key.position.is_some())
            .map(|key| key.column.as_str())
    }

    /// The rows whose key lies in `range`, ascending — `None` when the
    /// table has no live key index, or when the range holds more key
    /// values than the table has rows (a scan is then cheaper than one
    /// probe per value).
    pub fn rows_in_key_range(&self, range: KeyRange) -> Option<Vec<usize>> {
        let key = self.key.as_ref().filter(|key| key.position.is_some())?;
        let mut rows = Vec::new();
        if range.is_empty() {
            return Some(rows);
        }
        let width = range.hi as i128 - range.lo as i128 + 1;
        if width > self.rows.len().max(1) as i128 {
            return None;
        }
        for value in range.lo..=range.hi {
            key.rows_with(value, &mut rows);
        }
        rows.sort_unstable();
        Some(rows)
    }

    /// The table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Consumes the table, returning its rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// One row by index.
    pub fn row(&self, index: usize) -> Option<&[Value]> {
        self.rows.get(index).map(|r| r.as_slice())
    }

    /// Inserts a full row (one value per column, in schema order).
    pub fn insert_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(RelationalError::InvalidStatement(format!(
                "expected {} values but got {}",
                self.schema.len(),
                row.len()
            )));
        }
        for (value, column) in row.iter().zip(self.schema.columns()) {
            if value.is_null() && !column.nullable {
                return Err(RelationalError::TypeMismatch(format!(
                    "column {} is NOT NULL",
                    column.name
                )));
            }
            if !value.is_compatible_with(column.data_type) {
                return Err(RelationalError::TypeMismatch(format!(
                    "value {value} is not valid for column {} of type {}",
                    column.name, column.data_type
                )));
            }
        }
        if let Some(key) = &mut self.key {
            if let Some(Value::Integer(id)) = key.position.map(|p| &row[p]) {
                key.add(*id, self.rows.len());
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Inserts a row given as `(column, value)` pairs; unspecified columns
    /// become `NULL`.
    pub fn insert_named(&mut self, values: &[(&str, Value)]) -> Result<()> {
        let mut row = vec![Value::Null; self.schema.len()];
        for (name, value) in values {
            let idx = self
                .schema
                .index_of(name)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: name.to_string(),
                })?;
            row[idx] = value.clone();
        }
        self.insert_row(row)
    }

    /// Adds a new column; existing rows get `NULL` (or the provided default)
    /// in the new position.  This is the storage-level half of query-driven
    /// schema expansion.
    pub fn add_column(&mut self, column: Column, default: Option<Value>) -> Result<()> {
        if let Some(ref d) = default {
            if !d.is_compatible_with(column.data_type) {
                return Err(RelationalError::TypeMismatch(format!(
                    "default value {d} is not valid for type {}",
                    column.data_type
                )));
            }
        }
        let fill = default.unwrap_or(Value::Null);
        if fill.is_null() && !column.nullable {
            return Err(RelationalError::TypeMismatch(format!(
                "cannot add NOT NULL column {} without a default",
                column.name
            )));
        }
        self.schema.add_column(column)?;
        for row in &mut self.rows {
            row.push(fill.clone());
        }
        if let Some(key) = &mut self.key {
            if key.position.is_none() {
                key.rebuild(&self.schema, &self.rows);
            }
        }
        Ok(())
    }

    /// Overwrites the value of `column` in row `row_index`.
    pub fn set_value(&mut self, row_index: usize, column: &str, value: Value) -> Result<()> {
        let col_idx =
            self.schema
                .index_of(column)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: column.to_string(),
                })?;
        let col = &self.schema.columns()[col_idx];
        if !value.is_compatible_with(col.data_type) {
            return Err(RelationalError::TypeMismatch(format!(
                "value {value} is not valid for column {} of type {}",
                col.name, col.data_type
            )));
        }
        let row = self.rows.get_mut(row_index).ok_or_else(|| {
            RelationalError::InvalidStatement(format!("row {row_index} does not exist"))
        })?;
        if let Some(key) = self
            .key
            .as_mut()
            .filter(|key| key.position == Some(col_idx))
        {
            if let Value::Integer(old) = row[col_idx] {
                key.remove(old, row_index);
            }
            if let Value::Integer(new) = value {
                key.add(new, row_index);
            }
        }
        row[col_idx] = value;
        Ok(())
    }

    /// Reads the value of `column` in row `row_index`.
    pub fn value(&self, row_index: usize, column: &str) -> Result<&Value> {
        let col_idx =
            self.schema
                .index_of(column)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: column.to_string(),
                })?;
        self.rows
            .get(row_index)
            .map(|r| &r[col_idx])
            .ok_or_else(|| {
                RelationalError::InvalidStatement(format!("row {row_index} does not exist"))
            })
    }

    /// Removes the rows at the given indices (indices refer to the current
    /// row order; duplicates and out-of-range indices are ignored).  Returns
    /// the number of rows removed.
    pub fn delete_rows(&mut self, indices: &[usize]) -> usize {
        if indices.is_empty() {
            return 0;
        }
        let to_delete: std::collections::HashSet<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < self.rows.len())
            .collect();
        let before = self.rows.len();
        let mut keep_index = 0usize;
        self.rows.retain(|_| {
            let keep = !to_delete.contains(&keep_index);
            keep_index += 1;
            keep
        });
        // Deletion shifts the index of every later row.
        if let Some(key) = &mut self.key {
            key.rebuild(&self.schema, &self.rows);
        }
        before - self.rows.len()
    }

    /// Number of `NULL`s in a column — the amount of data a crowd-enabled
    /// database would have to complete at query time.
    pub fn null_count(&self, column: &str) -> Result<usize> {
        let col_idx =
            self.schema
                .index_of(column)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    table: self.name.clone(),
                    column: column.to_string(),
                })?;
        Ok(self.rows.iter().filter(|r| r[col_idx].is_null()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn movies() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Integer),
            Column::new("name", DataType::Text),
            Column::new("year", DataType::Integer),
        ])
        .unwrap();
        Table::new("Movies", schema)
    }

    #[test]
    fn insert_and_read_rows() {
        let mut t = movies();
        assert_eq!(t.name(), "movies");
        assert!(t.is_empty());
        t.insert_row(vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Integer(1976),
        ])
        .unwrap();
        t.insert_named(&[("id", Value::Integer(2)), ("name", Value::from("Psycho"))])
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).unwrap()[1], Value::from("Rocky"));
        assert_eq!(t.value(1, "year").unwrap(), &Value::Null);
        assert!(t.row(5).is_none());
        assert!(t.value(5, "year").is_err());
    }

    #[test]
    fn insert_validates_arity_types_and_nullability() {
        let mut t = movies();
        assert!(t.insert_row(vec![Value::Integer(1)]).is_err());
        assert!(t
            .insert_row(vec![Value::from("x"), Value::from("y"), Value::Integer(1)])
            .is_err());
        // NOT NULL id.
        assert!(t
            .insert_row(vec![Value::Null, Value::from("y"), Value::Integer(1)])
            .is_err());
        // Unknown column in named insert.
        assert!(matches!(
            t.insert_named(&[("genre", Value::from("drama"))]),
            Err(RelationalError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn add_column_fills_existing_rows() {
        let mut t = movies();
        t.insert_row(vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Integer(1976),
        ])
        .unwrap();
        t.add_column(Column::new("is_comedy", DataType::Boolean), None)
            .unwrap();
        assert_eq!(t.schema().len(), 4);
        assert_eq!(t.value(0, "is_comedy").unwrap(), &Value::Null);
        assert_eq!(t.null_count("is_comedy").unwrap(), 1);

        t.add_column(
            Column::new("humor", DataType::Float),
            Some(Value::Float(0.0)),
        )
        .unwrap();
        assert_eq!(t.value(0, "humor").unwrap(), &Value::Float(0.0));

        // Duplicate column and bad defaults are rejected.
        assert!(t
            .add_column(Column::new("is_comedy", DataType::Boolean), None)
            .is_err());
        assert!(t
            .add_column(
                Column::new("bad", DataType::Integer),
                Some(Value::from("oops"))
            )
            .is_err());
        assert!(t
            .add_column(Column::not_null("strict", DataType::Integer), None)
            .is_err());
    }

    #[test]
    fn delete_rows_removes_only_requested_indices() {
        let mut t = movies();
        for i in 0..5 {
            t.insert_row(vec![
                Value::Integer(i),
                Value::from("m"),
                Value::Integer(2000 + i),
            ])
            .unwrap();
        }
        // Duplicates and out-of-range indices are ignored.
        let removed = t.delete_rows(&[1, 3, 3, 99]);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 3);
        let remaining: Vec<i64> = t
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Integer(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(remaining, vec![0, 2, 4]);
        assert_eq!(t.delete_rows(&[]), 0);
    }

    #[test]
    fn set_value_updates_cells() {
        let mut t = movies();
        t.insert_row(vec![
            Value::Integer(1),
            Value::from("Rocky"),
            Value::Integer(1976),
        ])
        .unwrap();
        t.add_column(Column::new("is_comedy", DataType::Boolean), None)
            .unwrap();
        t.set_value(0, "is_comedy", Value::Boolean(false)).unwrap();
        assert_eq!(t.value(0, "is_comedy").unwrap(), &Value::Boolean(false));
        assert_eq!(t.null_count("is_comedy").unwrap(), 0);
        assert!(t.set_value(0, "is_comedy", Value::from("nope")).is_err());
        assert!(t.set_value(9, "is_comedy", Value::Boolean(true)).is_err());
        assert!(t.set_value(0, "missing", Value::Boolean(true)).is_err());
        assert!(t.null_count("missing").is_err());
    }

    /// The rows whose key equals `key`, brute force.
    fn scan_key(t: &Table, key: i64) -> Vec<usize> {
        (0..t.len())
            .filter(|&i| t.value(i, "id").unwrap() == &Value::Integer(key))
            .collect()
    }

    fn point(key: i64) -> KeyRange {
        KeyRange { lo: key, hi: key }
    }

    #[test]
    fn key_index_follows_inserts_deletes_and_key_updates() {
        let mut t = movies();
        assert_eq!(t.key_column(), None);
        assert_eq!(t.rows_in_key_range(point(1)), None);
        let big = (1i64 << 53) + 1;
        for id in [5, 7, 5, -3, big, big - 1] {
            t.insert_row(vec![Value::Integer(id), Value::from("m"), Value::Null])
                .unwrap();
        }
        t.set_key_column("ID");
        assert_eq!(t.key_column(), Some("id"));
        // Inserts after the declaration are indexed too.
        t.insert_row(vec![Value::Integer(5), Value::from("m"), Value::Null])
            .unwrap();
        assert_eq!(t.rows_in_key_range(point(5)), Some(vec![0, 2, 6]));
        assert_eq!(t.rows_in_key_range(point(big)), Some(vec![4]));
        assert_eq!(t.rows_in_key_range(point(big - 1)), Some(vec![5]));
        assert_eq!(t.rows_in_key_range(point(6)), Some(vec![]));
        assert_eq!(t.rows_in_key_range(KeyRange::EMPTY), Some(vec![]));
        assert_eq!(
            t.rows_in_key_range(KeyRange { lo: -3, hi: 3 }),
            Some(vec![3])
        );
        // A range holding more keys than the table has rows is left to a
        // scan.
        assert_eq!(t.rows_in_key_range(KeyRange { lo: 0, hi: 7 }), None);
        assert_eq!(t.rows_in_key_range(KeyRange::ALL), None);

        // Deleting shifts later rows.
        assert_eq!(t.delete_rows(&[0, 3]), 2);
        assert_eq!(t.rows_in_key_range(point(5)), Some(vec![1, 4]));
        assert_eq!(t.rows_in_key_range(point(-3)), Some(vec![]));

        // Updating the key moves the row between keys — first and later
        // holders of a duplicated key alike.
        t.set_value(1, "id", Value::Integer(9)).unwrap();
        assert_eq!(t.rows_in_key_range(point(5)), Some(vec![4]));
        assert_eq!(t.rows_in_key_range(point(9)), Some(vec![1]));
        t.set_value(4, "id", Value::Integer(7)).unwrap();
        assert_eq!(t.rows_in_key_range(point(5)), Some(vec![]));
        assert_eq!(t.rows_in_key_range(point(7)), Some(vec![0, 4]));
        t.set_value(0, "id", Value::Integer(9)).unwrap();
        assert_eq!(t.rows_in_key_range(point(7)), Some(vec![4]));
        assert_eq!(t.rows_in_key_range(point(9)), Some(vec![0, 1]));
        // Other columns leave the index alone.
        t.set_value(0, "year", Value::Integer(9)).unwrap();
        for key in [-3, 5, 7, 9, big, big - 1] {
            assert_eq!(t.rows_in_key_range(point(key)), Some(scan_key(&t, key)));
        }

        // Clones carry the index; equality ignores it.
        let copy = t.clone();
        assert_eq!(copy.rows_in_key_range(point(9)), Some(vec![0, 1]));
        let mut plain = movies();
        for row in t.rows() {
            plain.insert_row(row.clone()).unwrap();
        }
        assert_eq!(plain, t);
        assert_eq!(plain.key_column(), None);
        assert_eq!(copy.into_rows(), t.rows());
    }

    #[test]
    fn key_index_needs_an_integer_column() {
        let mut t = movies();
        t.insert_row(vec![Value::Integer(1), Value::from("m"), Value::Null])
            .unwrap();
        t.set_key_column("name");
        assert_eq!(t.key_column(), None);
        // A key declared before its column exists comes alive with it.
        t.set_key_column("rank");
        assert_eq!(t.key_column(), None);
        t.add_column(
            Column::new("rank", DataType::Integer),
            Some(Value::Integer(4)),
        )
        .unwrap();
        assert_eq!(t.key_column(), Some("rank"));
        assert_eq!(t.rows_in_key_range(point(4)), Some(vec![0]));
    }
}
