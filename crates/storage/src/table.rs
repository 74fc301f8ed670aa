//! Tables and the row-oriented table builder.

use crate::column::Column;
use crate::schema::{ColumnType, Schema};
use qagview_common::wire::Checksum64;
use qagview_common::{Interner, QagError, Result, Symbol, Value};

/// A cell value supplied when building a table row.
///
/// Strings are supplied as text and interned by the builder, so callers never
/// manage [`Symbol`]s directly during ingestion.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell (interned on insert).
    Str(String),
    /// Boolean cell.
    Bool(bool),
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Str(v)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

/// An immutable, columnar, in-memory relation.
///
/// Produced via [`TableBuilder`]; read via [`Table::value`] /
/// [`Table::display_value`] or direct column access for typed scans.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    interner: Interner,
    rows: usize,
}

impl Table {
    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The interner shared by all string columns of this table.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Read cell `(row, col)` as a dynamic value.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Read cell `(row, col)` rendered as display text (symbols resolved).
    pub fn display_value(&self, row: usize, col: usize) -> String {
        match self.value(row, col) {
            Value::Str(s) => self.interner.resolve(s).to_string(),
            other => other.to_string(),
        }
    }

    /// Look up the symbol for a string constant, if it occurs in this table.
    ///
    /// Query predicates comparing a string column against a literal use this:
    /// a literal absent from the interner cannot match any row.
    pub fn symbol_of(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    /// A deterministic fingerprint of the table's *content*: the schema
    /// (names and types), every column's typed values, and the interner's
    /// strings in symbol order. Two tables with equal fingerprints hold
    /// (collisions aside) the same rows under the same symbol coding, so
    /// every query result over them is byte-identical — which is what lets
    /// a result persisted by one process be reused by another. One linear
    /// [`Checksum64`] pass over the column bytes; [`crate::Catalog`] runs
    /// it once per registration.
    pub fn content_fingerprint(&self) -> u64 {
        fn put_str(h: &mut Checksum64, s: &str) {
            h.update(&(s.len() as u64).to_le_bytes());
            h.update(s.as_bytes());
        }
        let mut h = Checksum64::new();
        h.update(&(self.rows as u64).to_le_bytes());
        h.update(&(self.schema.arity() as u64).to_le_bytes());
        for def in self.schema.columns() {
            put_str(&mut h, &def.name);
            put_str(&mut h, def.ty.name());
        }
        for column in &self.columns {
            match column {
                Column::Int(v) => checksum_values(&mut h, v, |x| x.to_le_bytes()),
                Column::Float(v) => checksum_values(&mut h, v, |x| x.to_bits().to_le_bytes()),
                Column::Str(v) => checksum_values(&mut h, v, |x| x.0.to_le_bytes()),
                Column::Bool(v) => checksum_values(&mut h, v, |&x| [u8::from(x)]),
            }
        }
        h.update(&(self.interner.len() as u64).to_le_bytes());
        for (_, s) in self.interner.iter() {
            put_str(&mut h, s);
        }
        h.finish()
    }
}

/// Feed a typed value run to `h` as little-endian bytes, staged through a
/// fixed stack buffer so no column is ever copied out whole.
fn checksum_values<T, const W: usize>(
    h: &mut Checksum64,
    values: &[T],
    bytes: impl Fn(&T) -> [u8; W],
) {
    const STAGE: usize = 4096;
    let mut stage = [0u8; STAGE];
    for chunk in values.chunks(STAGE / W) {
        for (dst, v) in stage.chunks_exact_mut(W).zip(chunk) {
            dst.copy_from_slice(&bytes(v));
        }
        h.update(&stage[..chunk.len() * W]);
    }
}

/// Row-oriented builder for [`Table`].
///
/// # Examples
///
/// ```
/// use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};
///
/// let schema = Schema::from_pairs(&[
///     ("gender", ColumnType::Str),
///     ("rating", ColumnType::Float),
/// ]).unwrap();
/// let mut b = TableBuilder::new(schema);
/// b.push_row(vec![Cell::from("M"), Cell::from(4.5)]).unwrap();
/// b.push_row(vec![Cell::from("F"), Cell::from(3.0)]).unwrap();
/// let t = b.finish();
/// assert_eq!(t.num_rows(), 2);
/// assert_eq!(t.display_value(0, 0), "M");
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    interner: Interner,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.columns().iter().map(|c| Column::new(c.ty)).collect();
        TableBuilder {
            schema,
            columns,
            interner: Interner::new(),
            rows: 0,
        }
    }

    /// Start building with row capacity pre-reserved.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::with_capacity(c.ty, rows))
            .collect();
        TableBuilder {
            schema,
            columns,
            interner: Interner::new(),
            rows: 0,
        }
    }

    /// Append one row.
    ///
    /// # Errors
    ///
    /// Returns [`QagError::SchemaMismatch`] if the arity or any cell type
    /// does not match the schema.
    pub fn push_row(&mut self, row: Vec<Cell>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(QagError::SchemaMismatch(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.schema.arity()
            )));
        }
        // Validate before mutating any column so a failed push is atomic.
        for (i, cell) in row.iter().enumerate() {
            let expected = self.schema.column(i).ty;
            let ok = matches!(
                (cell, expected),
                (Cell::Int(_), ColumnType::Int)
                    | (Cell::Float(_), ColumnType::Float)
                    | (Cell::Str(_), ColumnType::Str)
                    | (Cell::Bool(_), ColumnType::Bool)
            );
            if !ok {
                return Err(QagError::SchemaMismatch(format!(
                    "column `{}` expects {}, got {:?}",
                    self.schema.column(i).name,
                    expected.name(),
                    cell
                )));
            }
        }
        for (i, cell) in row.into_iter().enumerate() {
            let v = match cell {
                Cell::Int(x) => Value::Int(x),
                Cell::Float(x) => Value::Float(x),
                Cell::Str(s) => Value::Str(self.interner.intern(&s)),
                Cell::Bool(x) => Value::Bool(x),
            };
            self.columns[i].push_value(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Finalize into an immutable [`Table`].
    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            interner: self.interner,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("hdec", ColumnType::Int),
            ("gender", ColumnType::Str),
            ("rating", ColumnType::Float),
            ("adventure", ColumnType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let mut b = TableBuilder::new(schema());
        b.push_row(vec![
            Cell::Int(1975),
            "M".into(),
            Cell::Float(4.24),
            true.into(),
        ])
        .unwrap();
        b.push_row(vec![
            Cell::Int(1980),
            "F".into(),
            Cell::Float(3.1),
            false.into(),
        ])
        .unwrap();
        let t = b.finish();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, 0), Value::Int(1975));
        assert_eq!(t.display_value(1, 1), "F");
        assert_eq!(t.value(1, 3), Value::Bool(false));
    }

    #[test]
    fn strings_are_interned_once() {
        let s = Schema::from_pairs(&[("occ", ColumnType::Str)]).unwrap();
        let mut b = TableBuilder::new(s);
        for _ in 0..100 {
            b.push_row(vec!["Student".into()]).unwrap();
        }
        b.push_row(vec!["Programmer".into()]).unwrap();
        let t = b.finish();
        assert_eq!(t.interner().len(), 2);
        assert_eq!(t.value(0, 0), t.value(99, 0));
        assert_ne!(t.value(0, 0), t.value(100, 0));
    }

    #[test]
    fn arity_mismatch_rejected_atomically() {
        let mut b = TableBuilder::new(schema());
        let err = b.push_row(vec![Cell::Int(1975)]).unwrap_err();
        assert!(matches!(err, QagError::SchemaMismatch(_)));
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn type_mismatch_rejected_before_any_column_mutation() {
        let mut b = TableBuilder::new(schema());
        // First cell valid, second invalid: nothing may be appended.
        let err = b
            .push_row(vec![
                Cell::Int(1975),
                Cell::Int(7),
                Cell::Float(1.0),
                Cell::Bool(true),
            ])
            .unwrap_err();
        assert!(err.to_string().contains("gender"));
        let t = b.finish();
        assert_eq!(t.column(0).len(), 0, "partial row must not be visible");
    }

    #[test]
    fn content_fingerprint_follows_content_not_identity() {
        let build = |rating: f64, gender: &str| {
            let mut b = TableBuilder::new(schema());
            b.push_row(vec![
                Cell::Int(1975),
                "M".into(),
                Cell::Float(4.0),
                true.into(),
            ])
            .unwrap();
            b.push_row(vec![
                Cell::Int(1980),
                gender.into(),
                Cell::Float(rating),
                false.into(),
            ])
            .unwrap();
            b.finish()
        };
        let base = build(3.5, "F").content_fingerprint();
        assert_eq!(base, build(3.5, "F").content_fingerprint(), "deterministic");
        assert_eq!(base, build(3.5, "F").clone().content_fingerprint());
        // One changed cell of any type changes it.
        assert_ne!(base, build(3.25, "F").content_fingerprint());
        assert_ne!(base, build(-0.0, "F").content_fingerprint());
        assert_ne!(
            build(0.0, "F").content_fingerprint(),
            build(-0.0, "F").content_fingerprint()
        );
        // Same symbol codes, different string behind the new symbol.
        assert_ne!(base, build(3.5, "X").content_fingerprint());
        // A renamed column with identical data changes it too.
        let renamed = Schema::from_pairs(&[
            ("hdec", ColumnType::Int),
            ("sex", ColumnType::Str),
            ("rating", ColumnType::Float),
            ("adventure", ColumnType::Bool),
        ])
        .unwrap();
        let mut b = TableBuilder::new(renamed);
        b.push_row(vec![
            Cell::Int(1975),
            "M".into(),
            Cell::Float(4.0),
            true.into(),
        ])
        .unwrap();
        b.push_row(vec![
            Cell::Int(1980),
            "F".into(),
            Cell::Float(3.5),
            false.into(),
        ])
        .unwrap();
        assert_ne!(base, b.finish().content_fingerprint());
    }

    #[test]
    fn symbol_lookup_for_literals() {
        let mut b = TableBuilder::new(schema());
        b.push_row(vec![
            Cell::Int(1),
            "M".into(),
            Cell::Float(0.0),
            false.into(),
        ])
        .unwrap();
        let t = b.finish();
        assert!(t.symbol_of("M").is_some());
        assert!(t.symbol_of("X").is_none());
    }

    #[test]
    fn with_capacity_builder() {
        let mut b = TableBuilder::with_capacity(schema(), 10);
        b.push_row(vec![
            Cell::Int(1),
            "M".into(),
            Cell::Float(0.5),
            true.into(),
        ])
        .unwrap();
        assert_eq!(b.num_rows(), 1);
        assert!(!b.finish().is_empty());
    }
}
