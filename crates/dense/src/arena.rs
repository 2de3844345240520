//! Reusable scratch memory for the packed kernels.
//!
//! The packed kernels ([`crate::pack`]) read their operands from contiguous,
//! microkernel-friendly panels. Doing a heap allocation per BMOD would dwarf
//! the arithmetic for the small blocks the block fan-out method produces, so
//! all scratch lives in a [`KernelArena`] that each worker allocates once and
//! reuses for every kernel call. Three buffers with three lifetimes:
//!
//! * [`PackBufs`] — operand packs that live for one product (the strided
//!   GEMM/SYRK entry points, and an executor packing the two source blocks
//!   of one BMOD task);
//! * the **panels** — rows packed once, solved in place by
//!   [`crate::pack::trsm_packed`] and then *retained*: after a block column
//!   is factored they hold its off-diagonal blocks kernel-ready for every
//!   update the column sources;
//! * [`Scratch`] — a product that cannot be written straight into its
//!   destination and is scattered from here.
//!
//! Buffers grow monotonically and are never cleared: every kernel fully
//! overwrites the region it uses (padding included).

/// Packing buffers for the blocked GEMM/SYRK cores (the `A`- and `B`-panel
/// scratch of the Goto-style algorithm).
///
/// Opaque on purpose: only the packed kernels write into these, and they
/// always overwrite the slice they request, so stale contents are harmless.
#[derive(Debug, Default)]
pub struct PackBufs {
    ap: Vec<f64>,
    bp: Vec<f64>,
}

impl PackBufs {
    /// Returns `(a_panel, b_panel)` buffers of at least the requested sizes.
    /// Contents are unspecified; callers must fully overwrite what they read.
    pub fn get(&mut self, ap_len: usize, bp_len: usize) -> (&mut [f64], &mut [f64]) {
        (grown(&mut self.ap, ap_len), grown(&mut self.bp, bp_len))
    }
}

/// Grow-only scatter scratch: a BMOD product whose rows or columns do not
/// land contiguously in the destination is formed here first.
#[derive(Debug, Default)]
pub struct Scratch(Vec<f64>);

impl Scratch {
    /// A buffer of `len` elements; contents are **unspecified** (products
    /// are written in overwrite mode, so no zeroing pass is needed).
    pub fn get(&mut self, len: usize) -> &mut [f64] {
        grown(&mut self.0, len)
    }
}

/// The leading `len` elements of `buf`, grown (never shrunk) to fit.
fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Per-worker kernel memory: per-product operand packs, the retained
/// panels of the last packed solve, and the scatter scratch.
///
/// Allocate one per worker thread (or rely on the crate's thread-local
/// default through the plain kernel entry points) and pass it to the `_with`
/// kernel variants; in steady state the numeric kernels then perform no heap
/// allocation at all.
#[derive(Debug, Default)]
pub struct KernelArena {
    packs: PackBufs,
    panels: Vec<f64>,
    scratch: Scratch,
}

impl KernelArena {
    /// Creates an empty arena; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The packing buffers, for calling the strided kernels directly.
    pub fn packs(&mut self) -> &mut PackBufs {
        &mut self.packs
    }

    /// Grows every buffer up front so a worker thread allocates before
    /// entering its hot loop instead of growth-reallocating
    /// mid-factorization. `max_dim` is the largest block dimension (rows or
    /// columns) the worker will feed to any kernel; `max_panels` the largest
    /// request it will make of [`Self::panels_mut`] — for a factorization
    /// executor, the longest column pack. Larger requests later still grow
    /// lazily.
    pub fn preallocate(&mut self, max_dim: usize, max_panels: usize) {
        use crate::pack::packed_len;
        // Operand packs hold one whole block of a prepacked product; a
        // cache-blocking tile of the strided kernels is never larger.
        let block = packed_len(max_dim, max_dim);
        let _ = self.packs.get(block, block);
        // Scatter scratch holds a full BMOD product; the panels hold one
        // blocked-factorization panel or the caller's column pack.
        let _ = self.scratch.get(max_dim * max_dim);
        let _ = self.panels_mut(max_panels.max(packed_len(max_dim, crate::kernels::NB)));
    }

    /// Doubles currently reserved across all buffers. Flat across a call
    /// means that call allocated nothing here.
    pub fn reserved(&self) -> usize {
        self.packs.ap.capacity()
            + self.packs.bp.capacity()
            + self.panels.capacity()
            + self.scratch.0.capacity()
    }

    /// A panel buffer of `len` doubles (contents unspecified) to pack rows
    /// into. Whatever the caller leaves here is what
    /// [`Self::panels_and_scratch`] hands back, until the next kernel that
    /// packs (`potrf_with`, `trsm_right_lower_trans_with`) overwrites it.
    pub fn panels_mut(&mut self, len: usize) -> &mut [f64] {
        grown(&mut self.panels, len)
    }

    /// The retained panels, read-only, together with the scatter scratch —
    /// what a driver needs to issue updates out of a column it just packed.
    pub fn panels_and_scratch(&mut self) -> (&[f64], &mut Scratch) {
        (&self.panels, &mut self.scratch)
    }

    /// The per-product operand packs together with the scatter scratch —
    /// what an executor needs to pack and apply one update task.
    pub fn packs_and_scratch(&mut self) -> (&mut PackBufs, &mut Scratch) {
        (&mut self.packs, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::packed_len;

    #[test]
    fn buffers_grow_and_are_reused() {
        let mut arena = KernelArena::new();
        arena.scratch.get(10).fill(3.0);
        arena.panels_mut(16).fill(5.0);
        // A smaller request reuses the same allocation (no shrink), and the
        // panels are retained for whoever reads them next.
        let (panels, scratch) = arena.panels_and_scratch();
        assert_eq!(panels, [5.0; 16]);
        let s = scratch.get(4);
        assert_eq!(s, [3.0; 4]);
    }

    #[test]
    fn preallocate_prevents_growth_for_bounded_requests() {
        let mut arena = KernelArena::new();
        // A column of 20 blocks × 64 rows × 64 columns: the column pack is
        // what an executor asks `preallocate` to cover.
        let col_pack = 20 * packed_len(64, 64);
        arena.preallocate(64, col_pack);
        let before = arena.reserved();
        // Requests within the preallocated bound must not reallocate: a full
        // scatter product, two whole-block operand packs, the strided
        // kernels' tiles, a blocked-POTRF panel and the column pack.
        let _ = arena.scratch.get(64 * 64);
        let _ = arena.packs().get(packed_len(64, 64), packed_len(64, 64));
        let _ = arena.panels_mut(packed_len(64, crate::kernels::NB));
        let _ = arena.panels_mut(col_pack);
        let l: Vec<f64> =
            (0..64 * 64).map(|t| if t / 64 == t % 64 { 2.0 } else { 0.01 }).collect();
        let mut x = vec![1.0; 64 * 64];
        crate::kernels::trsm_right_lower_trans_with(&l, 64, &mut x, 64, &mut arena);
        let mut c = vec![0.0; 64 * 64];
        crate::kernels::gemm_abt_sub_with(&mut c, &x, &l, 64, 64, 64, &mut arena);
        let mut a = l.clone();
        crate::kernels::potrf_with(&mut a, 64, &mut arena).unwrap();
        assert_eq!(arena.reserved(), before);
    }

    #[test]
    fn pack_bufs_hand_out_requested_sizes() {
        let mut packs = PackBufs::default();
        let (a, b) = packs.get(7, 9);
        assert_eq!((a.len(), b.len()), (7, 9));
        let (a, b) = packs.get(3, 20);
        assert_eq!((a.len(), b.len()), (3, 20));
    }
}
