//! Dense kernels used by the block factorization primitives.
//!
//! The block fan-out method spends essentially all of its arithmetic inside
//! three Level-3 BLAS-shaped kernels (the paper, Section 3.1, uses
//! hand-optimized Paragon BLAS for the same three):
//!
//! * [`potrf`] — Cholesky factorization of a diagonal block (`BFAC`),
//! * [`trsm_right_lower_trans`] — triangular solve `X := X·L⁻ᵀ` (`BDIV`),
//! * [`gemm_abt_sub`] / [`syrk_lt_sub`] — `C := C − A·Bᵀ` (`BMOD`).
//!
//! All matrices are **row-major**: a block stores its dense rows
//! contiguously, which makes `A·Bᵀ` a sequence of cache-friendly row dot
//! products.

//! Internally GEMM/SYRK dispatch on problem size between the scalar
//! [`kernels::reference`] implementations and a Goto-style packed,
//! register-tiled core ([`pack`]); `trsm_right_lower_trans` and the panel
//! solves of blocked `potrf` run on the same micro-panels. Callers that reuse
//! an operand pack it once and use [`pack`]'s prepacked entry points. All
//! packing memory lives in a reusable [`KernelArena`] (the `_with` kernel
//! variants take one explicitly; the plain variants use a per-thread
//! default).

pub mod arena;
pub mod kernels;
pub mod mat;
pub mod pack;

pub use arena::{KernelArena, PackBufs, Scratch};
pub use kernels::{
    gemm_abt_sub, gemm_abt_sub_strided, gemm_abt_sub_with, potrf, potrf_with, syrk_lt_sub,
    syrk_lt_sub_strided, syrk_lt_sub_with,
    trsm_right_lower_trans, trsm_right_lower_trans_with, trsv_lower, trsv_lower_multi,
    with_default_arena,
};
pub use mat::DenseMat;

/// Error returned when a diagonal block is not positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index (within the block) of the first non-positive pivot.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}
