//! Column-oriented relations (tables).

use crate::column::{check_column_kind, Column, ColumnBuilder};
use crate::error::{RelationError, Result};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use std::fmt;

/// A relation: a schema plus typed column-oriented storage.
///
/// Storage is one [`Column`] per attribute — dictionary-encoded codes for
/// categorical text, `i64`/`f64` vectors with null bitmaps for numerics —
/// which suits the access patterns of dependency discovery (whole-column
/// PLI grouping) and of the paper's leakage measurements (index-aligned
/// column comparisons). [`Value`] remains the boundary type: rows go in
/// and out as `Vec<Value>`, and [`Relation::column_values`] materialises a
/// column for Value-level consumers (CSV, serde packages, naive oracle
/// baselines).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

/// Refuses a row count beyond [`Relation::MAX_ROWS`].
fn check_rows(n_rows: usize) -> Result<()> {
    if n_rows > Relation::MAX_ROWS {
        return Err(RelationError::TooManyRows { rows: n_rows });
    }
    Ok(())
}

impl Relation {
    /// The most rows a relation may hold: stripped partitions
    /// ([`Pli`](crate::Pli)) store row ids as `u32`.
    pub(crate) const MAX_ROWS: usize = u32::MAX as usize;

    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|_| Column::default()).collect();
        Self {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Builds a relation from rows. Every row must hold one cell per
    /// attribute, and the finished columns pass the kind check of
    /// [`Relation::from_typed_columns`] (nulls are allowed in any column).
    /// Arity is checked row by row and kinds once at the end, so a ragged
    /// row is reported before a kind mismatch in an earlier row.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self> {
        let n_rows = rows.len();
        let mut builders: Vec<ColumnBuilder> =
            (0..schema.arity()).map(|_| ColumnBuilder::new()).collect();
        for row in rows {
            if row.len() != builders.len() {
                return Err(RelationError::ArityMismatch {
                    expected: builders.len(),
                    got: row.len(),
                });
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v);
            }
        }
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        let rel = Self::from_typed_columns(schema, columns)?;
        // A relation without attributes still counts its rows.
        Ok(Self { n_rows, ..rel })
    }

    /// Builds a relation from `Value` columns (the boundary
    /// representation), checked as [`Relation::from_typed_columns`]
    /// checks typed ones.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Result<Self> {
        let columns = columns.into_iter().map(Column::from_iter).collect();
        Self::from_typed_columns(schema, columns)
    }

    /// Builds a relation from typed columns: the one gate every
    /// constructor passes. Checks the column count, equal lengths and,
    /// column by column, that the contents fit the attribute's kind: a
    /// continuous column holds only numbers, a categorical one only one
    /// cell type (nulls are allowed in any column).
    pub fn from_typed_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: schema.arity(),
                got: columns.len(),
            });
        }
        let n_rows = columns.first().map_or(0, Column::len);
        check_rows(n_rows)?;
        for (i, col) in columns.iter().enumerate() {
            let attr = schema.attribute(i)?;
            if col.len() != n_rows {
                return Err(RelationError::ColumnLengthMismatch {
                    column: attr.name.clone(),
                    expected: n_rows,
                    got: col.len(),
                });
            }
            check_column_kind(attr, col)?;
        }
        Ok(Self {
            schema,
            columns,
            n_rows,
        })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The typed column at `index`.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .ok_or(RelationError::IndexOutOfBounds {
                index,
                len: self.columns.len(),
            })
    }

    /// The column at `index` materialised as owned [`Value`]s — the
    /// boundary representation for Value-level consumers (naive baselines,
    /// exchange packages).
    pub fn column_values(&self, index: usize) -> Result<Vec<Value>> {
        Ok(self.column(index)?.to_values())
    }

    /// The cell at (`row`, `col`), materialised.
    pub fn value(&self, row: usize, col: usize) -> Result<Value> {
        Ok(self.value_ref(row, col)?.to_value())
    }

    /// Borrowing view of the cell at (`row`, `col`).
    pub(crate) fn value_ref(&self, row: usize, col: usize) -> Result<ValueRef<'_>> {
        let column = self.column(col)?;
        if row >= self.n_rows {
            return Err(RelationError::IndexOutOfBounds {
                index: row,
                len: self.n_rows,
            });
        }
        Ok(column.value_ref(row))
    }

    /// Iterator over materialised rows.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows).map(move |r| self.columns.iter().map(|c| c.value(r)).collect())
    }

    /// Projection onto the attributes at `indices` (vertical slice).
    pub fn project(&self, indices: &[usize]) -> Result<Relation> {
        let schema = self.schema.project(indices)?;
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            columns.push(self.column(i)?.clone());
        }
        Ok(Relation {
            schema,
            columns,
            n_rows: self.n_rows,
        })
    }

    /// Horizontal slice keeping only the tuples at `row_indices`
    /// (in the given order). Used to realise PSI-aligned intersections.
    /// Dictionary-encoded columns copy codes and share their dictionary
    /// (see [`Column::select`]).
    pub fn select_rows(&self, row_indices: &[usize]) -> Result<Relation> {
        for &r in row_indices {
            if r >= self.n_rows {
                return Err(RelationError::IndexOutOfBounds {
                    index: r,
                    len: self.n_rows,
                });
            }
        }
        let columns = self.columns.iter().map(|c| c.select(row_indices)).collect();
        Ok(Relation {
            schema: self.schema.clone(),
            columns,
            n_rows: row_indices.len(),
        })
    }

    /// Number of distinct values in column `col` (nulls count as one value).
    pub fn distinct_count(&self, col: usize) -> Result<usize> {
        Ok(self.column(col)?.distinct_count())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for r in 0..self.n_rows.min(20) {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.value_ref(r).to_string())
                .collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.n_rows > 20 {
            writeln!(f, "... ({} rows total)", self.n_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical("name"),
            Attribute::continuous("age"),
            Attribute::categorical("dept"),
        ])
        .unwrap()
    }

    fn sample() -> Relation {
        Relation::from_rows(
            schema(),
            vec![
                vec!["Alice".into(), 18i64.into(), "Sales".into()],
                vec!["Bob".into(), 22i64.into(), "CS".into()],
                vec!["Charlie".into(), 22i64.into(), "Sales".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_access() {
        let r = sample();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.value(1, 0).unwrap(), Value::Text("Bob".into()));
        assert_eq!(r.value_ref(1, 0).unwrap(), ValueRef::Text("Bob"));
        assert_eq!(r.column(1).unwrap().value(2), Value::Int(22));
        assert_eq!(r.rows().next().unwrap()[2], Value::Text("Sales".into()));
    }

    #[test]
    fn columns_are_typed() {
        let r = sample();
        assert!(matches!(r.column(0).unwrap(), Column::Categorical { .. }));
        assert!(matches!(r.column(1).unwrap(), Column::Int { .. }));
        let Column::Categorical { dict, codes } = r.column(2).unwrap() else {
            panic!("dept is dictionary-encoded");
        };
        assert_eq!(**dict, ["Sales".to_owned(), "CS".to_owned()]);
        assert_eq!(*codes, [1, 2, 1]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Relation::from_rows(schema(), vec![vec!["x".into()]]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn categorical_type_homogeneity_enforced() {
        let err = Relation::from_rows(
            schema(),
            vec![
                vec!["Alice".into(), 18i64.into(), "Sales".into()],
                vec![Value::Int(5), 20i64.into(), "CS".into()],
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn ragged_rows_are_reported_before_kinds() {
        // Row 0 puts text under `age` and row 1 is short: arity is checked
        // while rows are pushed, kinds once at the end.
        let err = Relation::from_rows(
            schema(),
            vec![vec!["A".into(), "old".into(), "S".into()], vec!["B".into()]],
        )
        .unwrap_err();
        assert_eq!(
            err,
            RelationError::ArityMismatch {
                expected: 3,
                got: 1
            }
        );
        // A relation without attributes still counts its rows.
        let none = Schema::new(vec![]).unwrap();
        assert_eq!(
            Relation::from_rows(none, vec![vec![]; 2]).unwrap().n_rows(),
            2
        );
    }

    #[test]
    fn continuous_rejects_text() {
        let err = Relation::from_rows(
            schema(),
            vec![vec!["Alice".into(), "old".into(), "Sales".into()]],
        )
        .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn nulls_allowed_anywhere() {
        let r = Relation::from_rows(schema(), vec![vec![Value::Null, Value::Null, Value::Null]])
            .unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn continuous_accepts_mixed_int_float() {
        let r = Relation::from_rows(
            schema(),
            vec![
                vec!["A".into(), Value::Int(18), "S".into()],
                vec!["B".into(), Value::Float(22.5), "S".into()],
            ],
        )
        .unwrap();
        assert_eq!(r.column(1).unwrap().value(1), Value::Float(22.5));
        assert_eq!(r.column(1).unwrap().value(0), Value::Int(18));
    }

    #[test]
    fn projection_and_selection() {
        let r = sample();
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.column(0).unwrap().value(0), Value::Text("Sales".into()));

        let s = r.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.value(0, 0).unwrap(), Value::Text("Charlie".into()));
        assert!(r.select_rows(&[9]).is_err());
    }

    #[test]
    fn from_columns_checks_lengths() {
        let err =
            Relation::from_columns(schema(), vec![vec!["A".into()], vec![], vec!["S".into()]])
                .unwrap_err();
        assert!(matches!(
            err,
            RelationError::ColumnLengthMismatch {
                expected: 1,
                got: 0,
                ..
            }
        ));
        match err {
            RelationError::ColumnLengthMismatch { column, .. } => assert_eq!(column, "age"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn from_typed_columns_validates() {
        let small = Schema::new(vec![
            Attribute::categorical("label"),
            Attribute::continuous("score"),
        ])
        .unwrap();
        let label = Column::Categorical {
            dict: std::sync::Arc::new(vec!["a".into(), "b".into()]),
            codes: vec![1, 2, 0],
        };
        let score = Column::Float {
            values: vec![0.5, 1.5, 0.0],
            nulls: {
                let mut b = crate::column::Bitmap::new();
                b.push(false);
                b.push(false);
                b.push(true);
                b
            },
            ints: crate::column::Bitmap::filled(3, false),
        };
        let r = Relation::from_typed_columns(small.clone(), vec![label.clone(), score]).unwrap();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.value(2, 0).unwrap(), Value::Null);

        // Ragged lengths rejected with the dedicated variant.
        let short = Column::Int {
            values: vec![1],
            nulls: crate::column::Bitmap::filled(1, false),
        };
        let err =
            Relation::from_typed_columns(small.clone(), vec![label.clone(), short]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ColumnLengthMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));

        // Text column under a continuous attribute rejected.
        let err = Relation::from_typed_columns(
            Schema::new(vec![Attribute::continuous("x"), Attribute::continuous("y")]).unwrap(),
            vec![
                label,
                Column::Int {
                    values: vec![1, 2, 3],
                    nulls: crate::column::Bitmap::filled(3, false),
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RelationError::TypeMismatch {
                expected: "numeric",
                got: "text",
                ..
            }
        ));
    }

    #[test]
    fn distinct_counts() {
        let r = sample();
        assert_eq!(r.distinct_count(2).unwrap(), 2); // Sales, CS
        assert_eq!(r.distinct_count(1).unwrap(), 2); // 18, 22
    }

    #[test]
    fn empty_relation_behaviour() {
        let r = Relation::empty(schema());
        assert_eq!(r.n_rows(), 0);
        assert_eq!(r.rows().count(), 0);
        assert_eq!(r.distinct_count(0).unwrap(), 0);
    }

    #[test]
    fn row_count_is_capped_at_u32() {
        assert_eq!(check_rows(Relation::MAX_ROWS), Ok(()));
        let over = Relation::MAX_ROWS + 1;
        let err = check_rows(over).unwrap_err();
        assert_eq!(err, RelationError::TooManyRows { rows: over });
        assert!(err.to_string().contains(&over.to_string()), "{err}");
    }

    #[test]
    fn display_truncates() {
        let r = sample();
        let d = r.to_string();
        assert!(d.contains("Alice"));
    }
}
