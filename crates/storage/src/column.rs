//! Typed column vectors.

use crate::schema::ColumnType;
use qagview_common::{Symbol, Value};

/// A densely packed, non-nullable column of one storage type.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// Interned-string column.
    Str(Vec<Symbol>),
    /// Boolean column.
    Bool(Vec<bool>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Int => Column::Int(Vec::new()),
            ColumnType::Float => Column::Float(Vec::new()),
            ColumnType::Str => Column::Str(Vec::new()),
            ColumnType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Create an empty column pre-sized for `capacity` rows.
    pub fn with_capacity(ty: ColumnType, capacity: usize) -> Self {
        match ty {
            ColumnType::Int => Column::Int(Vec::with_capacity(capacity)),
            ColumnType::Float => Column::Float(Vec::with_capacity(capacity)),
            ColumnType::Str => Column::Str(Vec::with_capacity(capacity)),
            ColumnType::Bool => Column::Bool(Vec::with_capacity(capacity)),
        }
    }

    /// The storage type of this column.
    pub fn ty(&self) -> ColumnType {
        match self {
            Column::Int(_) => ColumnType::Int,
            Column::Float(_) => ColumnType::Float,
            Column::Str(_) => ColumnType::Str,
            Column::Bool(_) => ColumnType::Bool,
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read row `i` as a dynamic [`Value`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Str(v) => Value::Str(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// The raw integer slice, if this is an `Int` column.
    ///
    /// The typed slice accessors let scans borrow the column storage
    /// directly instead of boxing each cell into a [`Value`] — the
    /// vectorized executor's aggregate-input path reads through them, and
    /// they are the supported surface for any external columnar scan.
    #[inline]
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The raw float slice, if this is a `Float` column.
    #[inline]
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The raw interned-symbol slice, if this is a `Str` column.
    #[inline]
    pub fn as_symbols(&self) -> Option<&[Symbol]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The raw bool slice, if this is a `Bool` column.
    #[inline]
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Append a dynamic [`Value`]; the value must match the column type
    /// exactly (no coercion at the storage layer).
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch — the table builder validates first.
    pub fn push_value(&mut self, v: Value) {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => c.push(x),
            (Column::Float(c), Value::Float(x)) => c.push(x),
            (Column::Str(c), Value::Str(x)) => c.push(x),
            (Column::Bool(c), Value::Bool(x)) => c.push(x),
            (col, v) => panic!(
                "type mismatch: column is {:?}, value is {}",
                col.ty(),
                v.type_name()
            ),
        }
    }
}

/// A column's dense code table: every value the column holds maps to a
/// code in `0..card()`, so a tuple of group-key columns addresses a flat
/// array by `Σ code_j · stride_j` without hashing. Codes are dense over
/// the values that occur, in value (or symbol) order, so `card()` is the
/// column's distinct count. Computed once per column by
/// [`crate::Table::dense_codes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenseCodes {
    /// `Int`: the code of `x` is `code_of[x - min]`.
    Int {
        /// The column's smallest value.
        min: i64,
        /// Code per value offset from `min`; `u32::MAX` for values in
        /// the range that the column never holds.
        code_of: Vec<u32>,
        /// Number of codes.
        card: u32,
    },
    /// `Str`: the code of symbol `s` is `code_of[s]`; `u32::MAX` for
    /// symbols of the shared interner that this column never holds.
    Str {
        /// Code per interner symbol.
        code_of: Vec<u32>,
        /// Number of codes.
        card: u32,
    },
    /// `Bool`: `false` is 0, `true` is 1.
    Bool,
}

/// `Int` value ranges up to this many values always get a code table;
/// wider ranges need at least one row per value (the table then costs at
/// most 4 bytes per row, half the column's own 8).
const DENSE_MIN_INT_RANGE: usize = 1 << 16;

impl DenseCodes {
    /// The code table of `col`, whose string symbols index an interner of
    /// `num_symbols` entries. `None` for `Float` columns and for `Int`
    /// columns whose value range spans more than `max(rows, 65,536)`
    /// values.
    pub(crate) fn of(col: &Column, num_symbols: usize) -> Option<DenseCodes> {
        match col {
            Column::Int(v) => {
                let Some((&first, rest)) = v.split_first() else {
                    return Some(DenseCodes::Int {
                        min: 0,
                        code_of: Vec::new(),
                        card: 0,
                    });
                };
                let (min, max) = rest
                    .iter()
                    .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                let span = usize::try_from(max.checked_sub(min)?)
                    .ok()?
                    .checked_add(1)?;
                if span > v.len().max(DENSE_MIN_INT_RANGE) {
                    return None;
                }
                let (code_of, card) =
                    dense_over_present(span, v.iter().map(|&x| x.wrapping_sub(min) as usize));
                Some(DenseCodes::Int { min, code_of, card })
            }
            Column::Str(v) => {
                let (code_of, card) =
                    dense_over_present(num_symbols, v.iter().map(|s| s.0 as usize));
                Some(DenseCodes::Str { code_of, card })
            }
            Column::Bool(_) => Some(DenseCodes::Bool),
            Column::Float(_) => None,
        }
    }

    /// Number of distinct codes.
    pub fn card(&self) -> u32 {
        match self {
            DenseCodes::Int { card, .. } | DenseCodes::Str { card, .. } => *card,
            DenseCodes::Bool => 2,
        }
    }
}

/// A code per index in `0..len`: dense codes, in index order, for the
/// indices `present` yields; `u32::MAX` for the rest. Returns the table
/// and the number of codes.
fn dense_over_present(len: usize, present: impl Iterator<Item = usize>) -> (Vec<u32>, u32) {
    let mut code_of = vec![u32::MAX; len];
    for i in present {
        code_of[i] = 0;
    }
    let mut card = 0u32;
    for code in code_of.iter_mut().filter(|c| **c == 0) {
        *code = card;
        card += 1;
    }
    (code_of, card)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_each_type() {
        let mut c = Column::new(ColumnType::Int);
        c.push_value(Value::Int(9));
        assert_eq!(c.value(0), Value::Int(9));

        let mut c = Column::new(ColumnType::Float);
        c.push_value(Value::Float(2.5));
        assert_eq!(c.value(0), Value::Float(2.5));

        let mut c = Column::new(ColumnType::Str);
        c.push_value(Value::Str(Symbol(4)));
        assert_eq!(c.value(0), Value::Str(Symbol(4)));

        let mut c = Column::new(ColumnType::Bool);
        c.push_value(Value::Bool(true));
        assert_eq!(c.value(0), Value::Bool(true));
    }

    #[test]
    fn slice_accessors_expose_typed_storage() {
        let mut c = Column::new(ColumnType::Int);
        c.push_value(Value::Int(3));
        c.push_value(Value::Int(-7));
        assert_eq!(c.as_i64(), Some(&[3i64, -7][..]));
        assert_eq!(c.as_f64(), None);
        assert_eq!(c.as_symbols(), None);
        assert_eq!(c.as_bool(), None);

        let mut c = Column::new(ColumnType::Float);
        c.push_value(Value::Float(1.5));
        assert_eq!(c.as_f64(), Some(&[1.5][..]));

        let mut c = Column::new(ColumnType::Str);
        c.push_value(Value::Str(Symbol(2)));
        assert_eq!(c.as_symbols(), Some(&[Symbol(2)][..]));

        let mut c = Column::new(ColumnType::Bool);
        c.push_value(Value::Bool(true));
        assert_eq!(c.as_bool(), Some(&[true][..]));
    }

    #[test]
    fn length_tracking() {
        let mut c = Column::with_capacity(ColumnType::Int, 8);
        assert!(c.is_empty());
        for i in 0..5 {
            c.push_value(Value::Int(i));
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.ty(), ColumnType::Int);
    }

    #[test]
    fn dense_codes_per_type() {
        // Values -3, 0 and 7 occur: codes 0, 1, 2 in value order.
        let ints = Column::Int(vec![-3, 7, -3, 0]);
        let mut code_of = vec![u32::MAX; 11];
        code_of[0] = 0;
        code_of[3] = 1;
        code_of[10] = 2;
        assert_eq!(
            DenseCodes::of(&ints, 0),
            Some(DenseCodes::Int {
                min: -3,
                code_of,
                card: 3
            })
        );
        assert_eq!(
            DenseCodes::of(&Column::Int(vec![]), 0).map(|c| c.card()),
            Some(0)
        );
        // Wide ranges have no table: past i64, past the floor with few
        // rows; but a range as long as the column is fine.
        assert_eq!(
            DenseCodes::of(&Column::Int(vec![i64::MIN, i64::MAX]), 0),
            None
        );
        let floor = DENSE_MIN_INT_RANGE as i64;
        assert_eq!(
            DenseCodes::of(&Column::Int(vec![0, floor - 1]), 0).map(|c| c.card()),
            Some(2)
        );
        assert_eq!(DenseCodes::of(&Column::Int(vec![0, floor]), 0), None);
        let long: Vec<i64> = (0..=floor).rev().collect();
        assert_eq!(
            DenseCodes::of(&Column::Int(long), 0).map(|c| c.card()),
            Some(floor as u32 + 1)
        );
        // Symbols 1 and 4 of a 6-symbol interner occur: codes 0 and 1.
        let strs = Column::Str(vec![Symbol(4), Symbol(1), Symbol(4)]);
        assert_eq!(
            DenseCodes::of(&strs, 6),
            Some(DenseCodes::Str {
                code_of: vec![u32::MAX, 0, u32::MAX, u32::MAX, 1, u32::MAX],
                card: 2
            })
        );
        assert_eq!(
            DenseCodes::of(&Column::Bool(vec![true]), 0).map(|c| c.card()),
            Some(2)
        );
        assert_eq!(DenseCodes::of(&Column::Float(vec![1.0]), 0), None);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut c = Column::new(ColumnType::Int);
        c.push_value(Value::Float(1.0));
    }
}
