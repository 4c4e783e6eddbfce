//! Error type shared by the relational substrate.

use std::fmt;

/// Errors produced while building, reading or transforming relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A row had a different arity than the schema.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A column supplied to `from_columns` had a different length than the
    /// first column.
    ColumnLengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Length of the first column (the expected row count).
        expected: usize,
        /// Length of the offending column.
        got: usize,
    },
    /// A value's type did not match the column's established type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Type already established for the column.
        expected: &'static str,
        /// Type of the offending value.
        got: &'static str,
    },
    /// An attribute name was referenced that the schema does not contain.
    UnknownAttribute(String),
    /// An attribute index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of attributes.
        len: usize,
    },
    /// Two attributes in a schema share a name.
    DuplicateAttribute(String),
    /// CSV input could not be parsed.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure (message only, to keep the error `Clone + Eq`).
    Io(String),
    /// The operation requires a non-empty relation.
    EmptyRelation,
    /// A relation would hold more rows than partitions can address
    /// (`u32::MAX`).
    TooManyRows {
        /// The row count that was refused.
        rows: usize,
    },
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} attributes, row has {got}"
                )
            }
            RelationError::ColumnLengthMismatch {
                column,
                expected,
                got,
            } => {
                write!(
                    f,
                    "column `{column}` has {got} rows, expected {expected} to match the first column"
                )
            }
            RelationError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(
                    f,
                    "type mismatch in column `{column}`: expected {expected}, got {got}"
                )
            }
            RelationError::UnknownAttribute(name) => {
                write!(f, "unknown attribute `{name}`")
            }
            RelationError::IndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "attribute index {index} out of bounds for schema of {len} attributes"
                )
            }
            RelationError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute name `{name}`")
            }
            RelationError::Csv { line, message } => {
                write!(f, "CSV parse error at line {line}: {message}")
            }
            RelationError::Io(msg) => write!(f, "I/O error: {msg}"),
            RelationError::EmptyRelation => write!(f, "operation requires a non-empty relation"),
            RelationError::TooManyRows { rows } => write!(
                f,
                "relation of {rows} rows exceeds the {} rows partitions can address",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for RelationError {}

impl From<std::io::Error> for RelationError {
    fn from(e: std::io::Error) -> Self {
        RelationError::Io(e.to_string())
    }
}

/// Convenience alias used across the substrate.
pub type Result<T> = std::result::Result<T, RelationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationError::ArityMismatch {
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("3"));

        let e = RelationError::TypeMismatch {
            column: "age".into(),
            expected: "int",
            got: "text",
        };
        assert!(e.to_string().contains("age"));
        assert!(e.to_string().contains("int"));

        let e = RelationError::Csv {
            line: 7,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 7"));

        let e = RelationError::ColumnLengthMismatch {
            column: "score".into(),
            expected: 10,
            got: 7,
        };
        assert!(e.to_string().contains("score"));
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing.csv");
        let e: RelationError = io.into();
        assert!(matches!(e, RelationError::Io(_)));
        assert!(e.to_string().contains("missing.csv"));
    }
}
