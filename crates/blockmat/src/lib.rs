//! 2-D block decomposition of the sparse factor and the per-block work model.
//!
//! Blocks are formed exactly as in the paper (Section 2.1/2.2): the columns
//! are divided into `N` contiguous subsets — always *within* supernodes, so
//! block columns have regular internal structure — and the identical
//! partition is applied to the rows. Block `L[I][J]` holds the elements
//! falling in row subset `I` and column subset `J`; within a block every row
//! is either entirely zero or dense.
//!
//! Building a [`BlockMatrix`] also lists its `BMOD(I,J,K)` updates once
//! ([`Updates`]): per source column the destination of every pair, and per
//! destination block its sources in ascending `K`. That one graph is what
//! the work model, the critical path, the fan-out plan, the protocol and
//! both numeric executors range over.
//!
//! The work model (Section 3.2) approximates the runtime a block costs its
//! owner: the floating point operations performed on behalf of the block
//! plus a fixed `1000`-op charge per distinct block operation, reflecting
//! the fixed cost the authors measured in their factorization code.

pub mod ops;
pub mod partition;
pub mod policy;
pub mod structure;
pub mod work;

pub use ops::{for_each_bmod, BmodOp, Updates};
pub use partition::BlockPartition;
pub use policy::BlockPolicy;
pub use structure::{Block, BlockCol, BlockMatrix};
pub use work::{BlockWork, WorkModel};
