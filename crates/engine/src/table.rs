//! In-memory columnar tables.

use crate::exec::Scratch;
use sia_expr::{DataType, Schema, Value};
use std::fmt;
use std::sync::{Arc, Weak};

/// Column storage: one typed vector per column, with an optional validity
/// mask (absent ⇒ all rows valid).
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// INTEGER / DATE / TIMESTAMP payloads.
    Int(Vec<i64>),
    /// DOUBLE payloads.
    Double(Vec<f64>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
        }
    }

    /// True if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` (assuming valid).
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Double(v) => Value::Double(v[row]),
        }
    }
}

/// A column with its validity mask.
#[derive(Debug, Clone)]
pub struct Column {
    /// Payload vector.
    pub data: ColumnData,
    /// `Some(mask)` with `mask[row] == false` meaning NULL.
    pub validity: Option<Vec<bool>>,
}

impl Column {
    /// A non-nullable integer column.
    pub fn int(values: Vec<i64>) -> Self {
        Column {
            data: ColumnData::Int(values),
            validity: None,
        }
    }

    /// A non-nullable double column.
    pub fn double(values: Vec<f64>) -> Self {
        Column {
            data: ColumnData::Double(values),
            validity: None,
        }
    }

    /// The value at `row` (NULL-aware).
    pub fn get(&self, row: usize) -> Value {
        if let Some(mask) = &self.validity {
            if !mask[row] {
                return Value::Null;
            }
        }
        self.data.get(row)
    }

    /// Materialize the rows a selection vector names, in its order (every
    /// row when there is none), into buffers borrowed from `scratch`.
    pub(crate) fn gather(&self, rows: Option<&[u32]>, scratch: &Scratch) -> Column {
        fn fill<T: Copy>(mut out: Vec<T>, values: &[T], rows: Option<&[u32]>) -> Vec<T> {
            match rows {
                Some(rows) => out.extend(rows.iter().map(|&r| values[r as usize])),
                None => out.extend_from_slice(values),
            }
            out
        }
        let len = rows.map_or(self.len(), <[u32]>::len);
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(fill(scratch.take(len), v, rows)),
            ColumnData::Double(v) => ColumnData::Double(fill(scratch.take(len), v, rows)),
        };
        let validity = self.validity.as_ref();
        let validity = validity.map(|m| fill(scratch.take(len), m, rows));
        Column { data, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A materialized table: schema plus columns. A query result hands its
/// column buffers back to the database that gathered it when dropped.
#[derive(Clone)]
pub struct Table {
    /// Column names/types (order matches `columns`).
    pub schema: Schema,
    /// Column payloads.
    pub columns: Vec<Column>,
    /// Where a result's columns go when it is dropped; a base table has
    /// none, and a database dropped before its result takes none back.
    lender: Option<Weak<Scratch>>,
}

/// The schema and columns only: where the buffers go is not content.
impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("columns", &self.columns)
            .finish()
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        if let Some(scratch) = self.lender.as_ref().and_then(Weak::upgrade) {
            scratch.hand_back(std::mem::take(&mut self.columns));
        }
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| match c.ty {
                DataType::Double => Column::double(Vec::new()),
                _ => Column::int(Vec::new()),
            })
            .collect();
        Table::new(schema, columns)
    }

    /// Build from row-major values (e.g. `sia-gen` samples, which encode
    /// dates as day-offset ints): `Null` becomes a validity-mask hole and
    /// integers widen to doubles in DOUBLE columns.
    ///
    /// # Panics
    /// Panics if a row's width differs from the schema.
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Self {
        let n = schema.len();
        let mut data: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| match c.ty {
                DataType::Double => ColumnData::Double(Vec::with_capacity(rows.len())),
                _ => ColumnData::Int(Vec::with_capacity(rows.len())),
            })
            .collect();
        let mut validity: Vec<Vec<bool>> = vec![Vec::with_capacity(rows.len()); n];
        let mut any_null = vec![false; n];
        for row in rows {
            assert_eq!(row.len(), n, "row width mismatch");
            for (i, v) in row.iter().enumerate() {
                let valid = !matches!(v, Value::Null);
                validity[i].push(valid);
                any_null[i] |= !valid;
                match &mut data[i] {
                    ColumnData::Int(out) => out.push(match v {
                        Value::Int(x) => *x,
                        Value::Bool(b) => i64::from(*b),
                        _ => 0,
                    }),
                    ColumnData::Double(out) => out.push(match v {
                        Value::Double(x) => *x,
                        Value::Int(x) => {
                            #[allow(clippy::cast_precision_loss)]
                            {
                                *x as f64
                            }
                        }
                        _ => 0.0,
                    }),
                }
            }
        }
        let columns = data
            .into_iter()
            .zip(validity)
            .zip(any_null)
            .map(|((data, mask), has_null)| Column {
                data,
                validity: has_null.then_some(mask),
            })
            .collect();
        Table::new(schema, columns)
    }

    /// A table from schema and columns (panics on count or length
    /// mismatches).
    pub fn new(schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "ragged columns"
            );
        }
        Table {
            schema,
            columns,
            lender: None,
        }
    }

    /// This table as a result `scratch` lent the buffers of.
    pub(crate) fn lent_by(mut self, scratch: &Arc<Scratch>) -> Self {
        self.lender = Some(Arc::downgrade(scratch));
        self
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// The value of `(row, column name)` (NULL-aware).
    pub fn value(&self, row: usize, name: &str) -> Value {
        self.column(name)
            .unwrap_or_else(|| panic!("no column {name:?}"))
            .get(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_expr::ColumnDef;

    fn schema2() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::new("d", DataType::Double),
        ])
    }

    #[test]
    fn build_and_access() {
        let t = Table::new(
            schema2(),
            vec![
                Column::int(vec![1, 2, 3]),
                Column::double(vec![0.5, 1.5, 2.5]),
            ],
        );
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(1, "a"), Value::Int(2));
        assert_eq!(t.value(2, "d"), Value::Double(2.5));
    }

    #[test]
    fn nulls_via_validity() {
        let mut c = Column::int(vec![7, 8]);
        c.validity = Some(vec![true, false]);
        let t = Table::new(
            Schema::new(vec![ColumnDef::nullable("a", DataType::Integer)]),
            vec![c],
        );
        assert_eq!(t.value(0, "a"), Value::Int(7));
        assert_eq!(t.value(1, "a"), Value::Null);
    }

    #[test]
    fn gather() {
        let scratch = Scratch::default();
        let mut a = Column::int(vec![1, 2, 3, 4]);
        a.validity = Some(vec![true, false, true, true]);
        let d = Column::double(vec![0.0, 1.0, 2.0, 3.0]);
        let rows = Some(&[3, 1, 3][..]);
        let (a, d) = (a.gather(rows, &scratch), d.gather(rows, &scratch));
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), Value::Int(4));
        assert_eq!(a.get(1), Value::Null);
        assert_eq!(d.get(1), Value::Double(1.0));
        assert_eq!(d.get(2), Value::Double(3.0));
        assert!(d.gather(Some(&[]), &scratch).is_empty());
        let whole = d.gather(None, &scratch);
        assert_eq!((whole.len(), whole.get(1)), (3, Value::Double(1.0)));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_panics() {
        let _ = Table::new(
            schema2(),
            vec![Column::int(vec![1]), Column::double(vec![0.0, 1.0])],
        );
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(schema2());
        assert_eq!(t.num_rows(), 0);
        assert!(t.columns[0].is_empty());
    }
}
