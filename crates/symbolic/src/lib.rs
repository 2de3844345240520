//! Symbolic analysis for sparse Cholesky factorization.
//!
//! Everything that happens between "a permuted SPD matrix" and "a block
//! structure the numeric factorization can execute":
//!
//! * [`mod@etree`] — the elimination tree (Liu's algorithm with path
//!   compression), postordering, depths and subtree aggregation;
//! * [`colcount`] — exact per-column nonzero counts of the factor `L` in
//!   `O(nnz(L))` time via row-subtree traversal, without forming `L`;
//! * [`supernodes`] — fundamental supernode detection, supernodal symbolic
//!   structure (one row list per supernode), and relaxed supernode
//!   amalgamation (Ashcraft–Grimes), which the paper uses in all experiments;
//! * [`analysis`] — the combined [`analysis::Analysis`] pipeline;
//! * [`par`] — the same pipeline with subtree parallelism: independent
//!   separator-tree (and etree-derived) column ranges are analyzed on scoped
//!   threads with a sequential stitch for separator columns, bit-identical
//!   to the sequential pipeline.
//!
//! The paper's Table 1 statistics ("NZ in L", "ops to factor") come from this
//! crate: `nnz_l` counts strictly-below-diagonal factor entries and `ops`
//! uses the standard `Σ_k η_k(η_k + 3)` sequential operation count, both
//! *before* amalgamation (the best sequential algorithm would not add
//! explicit zeros).

pub mod analysis;
pub mod colcount;
pub mod etree;
pub mod par;
pub mod supernodes;

pub use analysis::{analyze, analyze_timed, Analysis, FactorStats, SymbolicTimings};
pub use colcount::col_counts;
pub use etree::{etree, postorder, EtreeInfo, NONE};
pub use par::{analyze_parallel, analyze_parallel_timed, SubtreeSpan};
pub use supernodes::{AmalgamationOpts, Supernodes};
