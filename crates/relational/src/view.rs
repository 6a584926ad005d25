//! Read views over tables stored as several slices.

use crate::error::RelationalError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// One logical table read through its slices — the partitions of a
/// partitioned table, or a whole table as the one-slice case — borrowed
/// in slice order, without copying.
///
/// Rows are numbered globally: slice `k`'s rows follow those of slices
/// `0..k`, so the numbering is the row order of the slices concatenated.
#[derive(Debug, Clone)]
pub struct TableView<'a> {
    slices: Vec<&'a Table>,
    /// `offsets[k]`: the global index of slice `k`'s first row.
    offsets: Vec<usize>,
    len: usize,
}

impl<'a> TableView<'a> {
    /// A view over `slices`, which must be non-empty and share one name
    /// and schema.
    pub fn new(slices: Vec<&'a Table>) -> Result<Self> {
        let first = slices.first().ok_or_else(|| {
            RelationalError::InvalidStatement("a table view needs at least one slice".into())
        })?;
        if let Some(odd) = slices
            .iter()
            .find(|s| s.name() != first.name() || s.schema() != first.schema())
        {
            return Err(RelationalError::InvalidStatement(format!(
                "slices of table {} disagree on name or schema (found {})",
                first.name(),
                odd.name()
            )));
        }
        let mut offsets = Vec::with_capacity(slices.len());
        let mut len = 0;
        for slice in &slices {
            offsets.push(len);
            len += slice.len();
        }
        Ok(TableView {
            slices,
            offsets,
            len,
        })
    }

    /// The table name (lower-cased).
    pub fn name(&self) -> &'a str {
        self.slices[0].name()
    }

    /// The schema every slice shares.
    pub fn schema(&self) -> &'a Schema {
        self.slices[0].schema()
    }

    /// The slices, in order.
    pub fn slices(&self) -> &[&'a Table] {
        &self.slices
    }

    /// The global index of slice `k`'s first row.
    pub fn offset(&self, k: usize) -> usize {
        self.offsets[k]
    }

    /// Number of rows across all slices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slice holds a row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One row by global index.
    pub fn row(&self, index: usize) -> Option<&'a [Value]> {
        let k = self.offsets.partition_point(|&offset| offset <= index) - 1;
        self.slices[k].row(index - self.offsets[k])
    }

    /// Every row, in global order.
    pub fn rows(&self) -> impl Iterator<Item = &'a [Value]> + '_ {
        self.slices
            .iter()
            .flat_map(|slice| slice.rows().iter().map(Vec::as_slice))
    }
}

impl<'a> From<&'a Table> for TableView<'a> {
    fn from(table: &'a Table) -> Self {
        TableView::new(vec![table]).expect("one slice is a valid view")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn slice(ids: &[i64]) -> Table {
        let schema = Schema::new(vec![Column::new("id", DataType::Integer)]).unwrap();
        let mut table = Table::new("t", schema);
        for &id in ids {
            table.insert_row(vec![Value::Integer(id)]).unwrap();
        }
        table
    }

    #[test]
    fn rows_are_numbered_across_slices_in_order() {
        let (a, b, c) = (slice(&[1, 2]), slice(&[]), slice(&[3]));
        let view = TableView::new(vec![&a, &b, &c]).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.name(), "t");
        assert_eq!(view.offset(2), 2);
        let ids: Vec<&[Value]> = view.rows().collect();
        assert_eq!(
            ids,
            (0..3).map(|i| view.row(i).unwrap()).collect::<Vec<_>>()
        );
        assert_eq!(view.row(2).unwrap(), &[Value::Integer(3)]);
        assert_eq!(view.row(3), None);
        assert_eq!(TableView::from(&b).len(), 0);
    }

    #[test]
    fn slices_must_share_a_schema() {
        assert!(TableView::new(Vec::new()).is_err());
        let a = slice(&[1]);
        let mut b = slice(&[2]);
        b.add_column(Column::new("x", DataType::Text), None)
            .unwrap();
        assert!(TableView::new(vec![&a, &b]).is_err());
    }
}
