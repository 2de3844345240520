//! Symmetric sparse matrix substrate for the block fan-out Cholesky
//! reproduction.
//!
//! This crate provides the data structures every other crate in the workspace
//! builds on:
//!
//! * [`SparsityPattern`] — compressed sparse column structure (no values),
//! * [`SymCscMatrix`] — a symmetric positive definite matrix stored as its
//!   lower triangle in CSC form,
//! * [`Permutation`] — symmetric permutations `P·A·Pᵀ`,
//! * [`Graph`] — the full (both triangles) adjacency structure used by the
//!   ordering algorithms,
//! * [`gen`] — deterministic generators for every benchmark matrix family in
//!   Rothberg & Schreiber (SC'94): dense, 2-D grids, 3-D cubes, and synthetic
//!   stand-ins for the Harwell-Boeing / application matrices, and
//! * [`io`] / [`hb`] — Matrix Market import/export and a Harwell-Boeing
//!   (RSA/PSA) reader.
//!
//! Row indices are stored as `u32`; all problems in the paper (and any this
//! workspace targets) have well under 2³² rows.

pub mod csc;
pub mod gen;
pub mod graph;
pub mod hb;
pub mod io;
pub mod pattern;
pub mod perm;

pub use csc::SymCscMatrix;
pub use gen::Problem;
pub use graph::{BfsScratch, Graph};
pub use hb::read_harwell_boeing;
pub use pattern::SparsityPattern;
pub use perm::Permutation;

/// Errors produced while constructing or transforming sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A row or column index was out of bounds for the matrix dimension.
    IndexOutOfBounds { index: usize, n: usize },
    /// The column pointer array was not monotone or had the wrong length.
    MalformedColPtr,
    /// Row indices within a column were not strictly increasing.
    UnsortedRows { col: usize },
    /// A diagonal entry was missing (SPD matrices must have a full diagonal).
    MissingDiagonal { col: usize },
    /// A permutation vector was not a bijection on `0..n`.
    InvalidPermutation,
    /// An I/O or format error while reading/writing a matrix file.
    Format(String),
    /// A malformed matrix file, annotated with the 1-based source line the
    /// reader was at when it gave up. The message names the offending field
    /// where one exists (e.g. `"field 3: bad value \"1.0x\""`).
    Parse {
        /// 1-based line number in the input stream.
        line: usize,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::IndexOutOfBounds { index, n } => {
                write!(f, "index {index} out of bounds for dimension {n}")
            }
            Error::MalformedColPtr => write!(f, "column pointer array is malformed"),
            Error::UnsortedRows { col } => {
                write!(f, "row indices in column {col} are not strictly increasing")
            }
            Error::MissingDiagonal { col } => {
                write!(f, "column {col} is missing its diagonal entry")
            }
            Error::InvalidPermutation => write!(f, "permutation is not a bijection"),
            Error::Format(msg) => write!(f, "format error: {msg}"),
            Error::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
