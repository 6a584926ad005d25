//! Table schemas.

use serde::{Deserialize, Serialize};

use crate::error::RelationalError;
use crate::value::DataType;
use crate::Result;

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name (case-insensitive; stored lower-cased).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Whether `NULL` values are allowed.  Columns added by query-driven
    /// schema expansion are always nullable (their values are filled in
    /// incrementally).
    pub nullable: bool,
}

impl Column {
    /// Creates a nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into().to_lowercase(),
            data_type,
            nullable: true,
        }
    }

    /// Creates a `NOT NULL` column.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            nullable: false,
            ..Column::new(name, data_type)
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from columns; names must be unique
    /// (case-insensitively).
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        if columns.is_empty() {
            return Err(RelationalError::InvalidStatement(
                "a schema needs at least one column".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(RelationalError::ColumnExists(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns (only possible for
    /// `Schema::default()`).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name: the column whose
    /// stored name equals `name.to_lowercase()`.
    ///
    /// Runs on per-row paths, so it compares without building the
    /// lower-cased string — except for a name containing `Σ`, whose
    /// lowercase depends on its place in the word (final `ς`), which only
    /// [`str::to_lowercase`] knows.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| name_matches(name, &c.name))
    }

    /// Column by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// True when the schema contains the column.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// All column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Appends a column (used by `ALTER TABLE … ADD COLUMN`).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.contains(&column.name) {
            return Err(RelationalError::ColumnExists(column.name));
        }
        self.columns.push(column);
        Ok(())
    }
}

/// True when `name.to_lowercase() == lower`.  Every character but `Σ`
/// lowercases independently of its neighbours, so only a name holding one
/// needs the allocating [`str::to_lowercase`].
pub(crate) fn name_matches(name: &str, lower: &str) -> bool {
    if name.contains('Σ') {
        return name.to_lowercase() == lower;
    }
    if name.is_ascii() {
        return name.len() == lower.len()
            && name
                .bytes()
                .zip(lower.bytes())
                .all(|(n, l)| n.to_ascii_lowercase() == l);
    }
    name.chars().flat_map(char::to_lowercase).eq(lower.chars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_constructors_normalize_names() {
        let c = Column::new("Name", DataType::Text);
        assert_eq!(c.name, "name");
        assert!(c.nullable);
        let c = Column::not_null("ID", DataType::Integer);
        assert_eq!(c.name, "id");
        assert!(!c.nullable);
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        assert!(Schema::new(vec![]).is_err());
        let dup = Schema::new(vec![
            Column::new("a", DataType::Integer),
            Column::new("A", DataType::Text),
        ]);
        assert!(matches!(dup, Err(RelationalError::ColumnExists(_))));
    }

    #[test]
    fn lookups_are_case_insensitive() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        assert_eq!(schema.len(), 2);
        assert!(!schema.is_empty());
        assert_eq!(schema.index_of("NAME"), Some(1));
        assert_eq!(schema.index_of("missing"), None);
        assert!(schema.contains("Id"));
        assert_eq!(schema.column("name").unwrap().data_type, DataType::Text);
        assert_eq!(schema.column_names(), vec!["id", "name"]);
    }

    #[test]
    fn lookups_follow_unicode_lowercasing() {
        let schema = Schema::new(vec![
            Column::new("Ärger", DataType::Integer),
            Column::new("İD", DataType::Integer),
            Column::new("ΟΔΟΣ", DataType::Text),
            Column::new("straße", DataType::Text),
        ])
        .unwrap();
        assert_eq!(schema.columns()[0].name, "ärger");
        assert_eq!(schema.index_of("ÄRGER"), Some(0));
        assert_eq!(schema.index_of("ärger"), Some(0));
        assert_eq!(schema.index_of("arger"), None);
        // 'İ' lowercases to two characters ("i̇").
        assert_eq!(schema.index_of("İD"), Some(1));
        assert_eq!(schema.index_of("id"), None);
        // A word-final capital sigma lowercases to 'ς'.
        assert_eq!(schema.columns()[2].name, "οδος");
        assert_eq!(schema.index_of("ΟΔΟΣ"), Some(2));
        assert_eq!(schema.index_of("οδος"), Some(2));
        assert_eq!(schema.index_of("οδοσ"), None);
        assert_eq!(schema.index_of("STRASSE"), None);
        assert_eq!(schema.index_of("STRAßE"), Some(3));
        // Names are compared whole, not by prefix.
        assert_eq!(schema.index_of("ärgerlich"), None);
        assert_eq!(schema.index_of("ärge"), None);
        for column in schema.columns() {
            let upper = column.name.to_uppercase();
            assert_eq!(
                schema.index_of(&upper),
                schema
                    .columns()
                    .iter()
                    .position(|c| c.name == upper.to_lowercase()),
                "{upper}"
            );
        }
    }

    #[test]
    fn add_column_extends_schema() {
        let mut schema = Schema::new(vec![Column::new("id", DataType::Integer)]).unwrap();
        schema
            .add_column(Column::new("is_comedy", DataType::Boolean))
            .unwrap();
        assert_eq!(schema.len(), 2);
        assert!(schema.contains("is_comedy"));
        assert!(matches!(
            schema.add_column(Column::new("IS_COMEDY", DataType::Boolean)),
            Err(RelationalError::ColumnExists(_))
        ));
    }

    #[test]
    fn default_schema_is_empty() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
