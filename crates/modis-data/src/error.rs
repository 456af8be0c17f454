//! Error types for the data substrate.

use std::fmt;

/// Errors raised by dataset construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum DataError {
    /// A row had more cells than the schema allows.
    RowArity {
        row: usize,
        expected: usize,
        found: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds { row: usize, len: usize },
    /// Column index outside of the schema.
    UnknownColumnIndex(usize),
    /// Column name not present in the schema.
    UnknownColumn(String),
    /// A join key attribute was missing from one of the operands.
    MissingJoinKey(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::RowArity {
                row,
                expected,
                found,
            } => {
                write!(
                    f,
                    "row {row} has {found} cells, schema expects at most {expected}"
                )
            }
            DataError::RowOutOfBounds { row, len } => {
                write!(f, "row index {row} out of bounds (len {len})")
            }
            DataError::UnknownColumnIndex(i) => write!(f, "unknown column index {i}"),
            DataError::UnknownColumn(n) => write!(f, "unknown column `{n}`"),
            DataError::MissingJoinKey(k) => write!(f, "join key `{k}` missing from operand"),
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DataError::UnknownColumn("abc".into());
        assert!(e.to_string().contains("abc"));
        let e = DataError::RowArity {
            row: 3,
            expected: 2,
            found: 5,
        };
        assert!(e.to_string().contains('3'));
    }
}
