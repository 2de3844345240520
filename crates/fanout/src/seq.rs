//! Sequential right-looking block factorization, plus the numeric kernels
//! shared by every executor.

use crate::cancel::CancelReason;
use crate::factor::NumericFactor;
use crate::sched::SchedOptions;
use crate::{Error, StallReport};
use blockmat::BlockMatrix;
use dense::kernels::potrf_with;
use dense::pack::{
    gemm_prepacked, pack_rows, packed_len, syrk_lt_prepacked, trsm_packed, unpack_rows, Mode,
};
use dense::{KernelArena, Scratch};
use std::time::Instant;
use trace::{TaskKind, Trace, TraceEvent};

/// Statistics of one sequential factorization run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeqStats {
    /// Global columns whose pivots were perturbed (ascending; empty when
    /// [`SchedOptions::perturb_npd`] is off or never triggered).
    pub perturbed_pivots: Vec<usize>,
    /// The collected single-track trace, when [`SchedOptions::trace`]
    /// enabled tracing: one `bfac` per column (covering `BFAC` + the
    /// whole-column `TRSM`) and one `bmod` per update. Event `block` ids are
    /// destination *panel* indices (the inline driver has no plan, hence no
    /// flat block ids).
    pub trace: Option<Trace>,
}

/// Factors `f` in place sequentially: for each block column `K` ascending,
/// `BFAC(K,K)`, then `BDIV(I,K)` for its off-diagonal blocks, then every
/// `BMOD` sourced from column `K`.
pub fn factorize_seq(f: &mut NumericFactor) -> Result<(), Error> {
    factorize_seq_opts(f, &SchedOptions::default(), &mut KernelArena::new()).map(|_| ())
}

/// [`factorize_seq`] under explicit run control, through a caller-owned
/// [`KernelArena`].
///
/// The inline driver reads four fields of `opts`: `perturb_npd`, `deadline`
/// and `cancel` (both polled once per block column — on expiry or a fired
/// token the run stops between columns with [`Error::Cancelled`] and a
/// columns-done progress snapshot) and `trace`. The other five (`workers`,
/// `use_priorities`, `seed`, `stall_timeout`, `faults`) steer worker threads
/// it does not have and are ignored. With default options the factor is
/// bit-identical to [`factorize_seq`].
///
/// Repeated factorizations of the same structure (the refactorization hot
/// path) pass the same arena back in, so pack-buffer and scratch allocations
/// happen once per session rather than once per factorization. The arena
/// contents never feed the result — the factor is bit-identical whichever
/// arena is supplied.
pub fn factorize_seq_opts(
    f: &mut NumericFactor,
    opts: &SchedOptions,
    arena: &mut KernelArena,
) -> Result<SeqStats, Error> {
    let bm = f.bm.clone();
    let mut stats = SeqStats::default();
    let tracing = opts.trace.enabled;
    let epoch = Instant::now();
    let mut events: Vec<TraceEvent> = Vec::new();
    let stamp = |events: &mut Vec<TraceEvent>, kind: TaskKind, block: usize, t0: f64| {
        events.push(TraceEvent {
            block: block as u32,
            kind,
            t_start: t0,
            t_end: epoch.elapsed().as_secs_f64(),
        });
    };
    let np = bm.num_panels();
    for k in 0..np {
        // Cancellation / deadline poll at the column boundary (the
        // sequential analogue of the scheduler's task-claim poll). The
        // prefix of columns already factored is left in place; a fresh
        // refactor from the original values fully recovers the run.
        if opts.cancel.is_some() || opts.deadline.is_some() {
            let external = opts.cancel.as_ref().and_then(|t| t.cancelled());
            let reason = match external {
                Some(r) => Some(r),
                None if opts.deadline.is_some_and(|d| epoch.elapsed() >= d) => {
                    if let Some(t) = &opts.cancel {
                        t.cancel_with(CancelReason::Deadline);
                    }
                    Some(CancelReason::Deadline)
                }
                None => None,
            };
            if let Some(reason) = reason {
                let progress = StallReport {
                    timeout: match reason {
                        CancelReason::Deadline => opts.deadline.unwrap_or_default(),
                        _ => std::time::Duration::ZERO,
                    },
                    tasks_retired: k as u64,
                    columns_done: k,
                    columns_total: np,
                    ..StallReport::default()
                };
                return Err(Error::Cancelled { reason, progress: Box::new(progress) });
            }
        }
        let t0 = if tracing { epoch.elapsed().as_secs_f64() } else { 0.0 };
        match opts.perturb_npd {
            None => factor_column_buf(&mut f.data[k], &bm, k, arena)?,
            Some(tau) => {
                let cols = factor_column_buf_perturb(&mut f.data[k], &bm, k, arena, tau)?;
                stats.perturbed_pivots.extend(cols);
            }
        }
        if tracing {
            stamp(&mut events, TaskKind::Bfac, k, t0);
        }
        // Right-looking updates out of column k, every operand a slice of
        // the column pack `factor_column_buf` left in the arena: block `b`'s
        // panels start where the panels of blocks `1..b` end.
        let tail = &mut f.data[k + 1..];
        let offsets = &f.offsets;
        let blocks = &bm.cols[k].blocks;
        let c_k = bm.col_width(k);
        let (pack, scratch) = arena.panels_and_scratch();
        let mut dests = bm.updates().dests_of(k).iter();
        let mut off_b = 0;
        for b in 1..blocks.len() {
            let dest_j = blocks[b].row_panel as usize;
            let dest_buf_all = &mut tail[dest_j - k - 1];
            let bp = &pack[off_b..off_b + packed_len(blocks[b].nrows(), c_k)];
            let b_rows = bm.block_rows(k, &blocks[b]);
            let mut off_a = off_b;
            for (blk_a, &di) in blocks[b..].iter().zip(dests.by_ref()) {
                let (dest_i, di) = (blk_a.row_panel as usize, di as usize);
                let ap = &pack[off_a..off_a + packed_len(blk_a.nrows(), c_k)];
                off_a += ap.len();
                let lo = offsets[dest_j][di];
                let hi = offsets[dest_j]
                    .get(di + 1)
                    .copied()
                    .unwrap_or(dest_buf_all.len());
                let t0 = if tracing { epoch.elapsed().as_secs_f64() } else { 0.0 };
                apply_bmod(
                    &bm,
                    &mut dest_buf_all[lo..hi],
                    dest_i,
                    dest_j,
                    di,
                    ap,
                    bm.block_rows(k, blk_a),
                    bp,
                    b_rows,
                    c_k,
                    scratch,
                );
                if tracing {
                    stamp(&mut events, TaskKind::Bmod, dest_j, t0);
                }
            }
            off_b += bp.len();
        }
    }
    if tracing {
        stats.trace = Some(Trace::from_events(vec![events]));
    }
    Ok(stats)
}

/// Doubles in the kernel-ready pack of column `k`'s off-diagonal blocks:
/// each block's rows rounded up to whole micro-panels, `col_width(k)` deep.
pub(crate) fn column_pack_len(bm: &BlockMatrix, k: usize) -> usize {
    let c = bm.col_width(k);
    bm.cols[k].blocks.iter().skip(1).map(|b| packed_len(b.nrows(), c)).sum()
}

/// The longest [`column_pack_len`] of the structure — what a worker's
/// [`KernelArena::preallocate`] must cover to factor any column without
/// growing.
pub(crate) fn max_column_pack_len(bm: &BlockMatrix) -> usize {
    (0..bm.num_panels()).map(|k| column_pack_len(bm, k)).max().unwrap_or(0)
}

/// `BFAC` on the diagonal block of column `k`, then `BDIV` on all of its
/// off-diagonal blocks, on a raw column buffer (diagonal block followed by
/// the concatenated off-diagonal blocks). Requires all `BMOD`s into column
/// `k` to be applied.
///
/// Leaves the column's **pack** in the arena's panels: the solved
/// off-diagonal blocks in micro-panel form, block after block, each padded
/// to whole panels ([`column_pack_len`] doubles). It is the operand of every
/// `BMOD` the column sources, valid until the arena's next packed solve.
///
/// Shared verbatim by every column-at-a-time executor; the packed solve is
/// lane-wise, so an executor that solves block by block instead
/// (`trsm_right_lower_trans_with` per block) produces the same bits.
pub(crate) fn factor_column_buf(
    col: &mut [f64],
    bm: &BlockMatrix,
    k: usize,
    arena: &mut KernelArena,
) -> Result<(), Error> {
    let c = bm.col_width(k);
    let (diag, rest) = col.split_at_mut(c * c);
    potrf_with(diag, c, arena).map_err(|e| Error::NotPositiveDefinite {
        col: bm.partition.cols(k).start + e.pivot,
    })?;
    solve_column(diag, rest, bm, k, arena);
    Ok(())
}

/// The `BDIV` half of [`factor_column_buf`]: packs the off-diagonal blocks
/// (`rest`, concatenated row-major) into the arena's panels, solves them
/// there against the factored `diag`, and writes the solved rows back.
fn solve_column(
    diag: &[f64],
    rest: &mut [f64],
    bm: &BlockMatrix,
    k: usize,
    arena: &mut KernelArena,
) {
    let c = bm.col_width(k);
    let blocks = &bm.cols[k].blocks;
    let pack = arena.panels_mut(column_pack_len(bm, k));
    // (offset in `rest`, offset in `pack`, rows) of every off-diagonal block.
    let spans = blocks.iter().skip(1).scan((0, 0), |(src, dst), blk| {
        let span = (*src, *dst, blk.nrows());
        *src += blk.nrows() * c;
        *dst += packed_len(blk.nrows(), c);
        Some(span)
    });
    for (src, dst, r) in spans.clone() {
        pack_rows(&mut pack[dst..], &rest[src..], c, r, c);
    }
    trsm_packed(diag, c, c, pack);
    for (src, dst, r) in spans {
        unpack_rows(&mut rest[src..], c, &pack[dst..], r, c);
    }
}

/// [`factor_column_buf`] with NPD graceful degradation ([`potrf_perturbed`]
/// on the diagonal block). Returns the perturbed global columns, ascending.
/// The `BDIV` half is the same call, so the same column pack is left behind.
///
/// Shared by the sequential reference and the work-stealing scheduler's
/// column-completion task, so the degraded factor is the same whichever
/// executor produced it (column factorization is confined to one task).
pub(crate) fn factor_column_buf_perturb(
    col: &mut [f64],
    bm: &BlockMatrix,
    k: usize,
    arena: &mut KernelArena,
    tau: f64,
) -> Result<Vec<usize>, Error> {
    let c = bm.col_width(k);
    let (diag, rest) = col.split_at_mut(c * c);
    let cols = potrf_perturbed(diag, c, bm.partition.cols(k).start, arena, tau)?;
    solve_column(diag, rest, bm, k, arena);
    Ok(cols)
}

/// `BFAC` that perturbs instead of failing: a non-positive pivot of the
/// `c × c` block `diag` (global columns from `col_start`) is boosted by
/// `tau · (1 + |aₖₖ|)` (grown geometrically on repeated failure at the same
/// pivot) and the block is refactored from a pristine copy until `POTRF`
/// succeeds. Returns the perturbed global columns, ascending.
fn potrf_perturbed(
    diag: &mut [f64],
    c: usize,
    col_start: usize,
    arena: &mut KernelArena,
    tau: f64,
) -> Result<Vec<usize>, Error> {
    let tau = tau.abs().max(f64::EPSILON);
    let saved: Vec<f64> = diag.to_vec();
    // Per-pivot boost applied so far (block-local pivot index).
    let mut boosts: Vec<(usize, f64)> = Vec::new();
    // ~35 geometric (×1024) boosts cover any finite deficit per pivot; past
    // the bound the input is non-finite (NaN/Inf) and perturbation cannot
    // help.
    let max_rounds = 64 * c.max(1);
    for _ in 0..max_rounds {
        match potrf_with(diag, c, arena) {
            Ok(()) => {
                let mut cols: Vec<usize> =
                    boosts.iter().map(|&(p, _)| col_start + p).collect();
                cols.sort_unstable();
                return Ok(cols);
            }
            Err(e) => {
                match boosts.iter_mut().find(|(p, _)| *p == e.pivot) {
                    // The reduced-pivot deficit is unknown (POTRF reports
                    // only the pivot index), so grow aggressively: ×2¹⁰ per
                    // retry reaches any finite deficit within ~35 retries.
                    Some((_, b)) => *b *= 1024.0,
                    None => {
                        let base = saved[e.pivot * c + e.pivot];
                        boosts.push((e.pivot, tau * (1.0 + base.abs())));
                    }
                }
                diag.copy_from_slice(&saved);
                for &(p, b) in &boosts {
                    diag[p * c + p] += b;
                }
            }
        }
    }
    // Boosting could not rescue the block (non-finite input): report the
    // last failing pivot as a plain NPD error.
    let pivot = boosts.last().map_or(0, |&(p, _)| p);
    Err(Error::NotPositiveDefinite { col: col_start + pivot })
}

/// Packs the two source blocks of one `BMOD` into the arena's per-product
/// operand buffers — the per-task counterpart of the column pack, for
/// executors whose updates are not issued by the worker that factored the
/// source column. Same [`pack_rows`], so [`apply_bmod`] sees the same
/// operands either way.
pub(crate) fn pack_sources<'a>(
    arena: &'a mut KernelArena,
    a_buf: &[f64],
    ra: usize,
    b_buf: &[f64],
    rb: usize,
    c_k: usize,
) -> (&'a [f64], &'a [f64], &'a mut Scratch) {
    let (packs, scratch) = arena.packs_and_scratch();
    let (ap, bp) = packs.get(packed_len(ra, c_k), packed_len(rb, c_k));
    pack_rows(ap, a_buf, c_k, ra, c_k);
    pack_rows(bp, b_buf, c_k, rb, c_k);
    (ap, bp, scratch)
}

/// Applies one `BMOD(I, J, K)`: `dest -= A·Bᵀ` scattered through the
/// destination block's row/column index maps.
///
/// * `ap`/`a_rows` — the completed source block `L[I][K]` in [`pack_rows`]
///   form (`c_k` deep) and its global rows;
/// * `bp`/`b_rows` — the source `L[J][K]`, likewise;
/// * for a diagonal destination (`I == J`, which implies `A == B`) only the
///   lower triangle is updated.
///
/// This is the only update routine and packed panels its only operand
/// format: per destination element the arithmetic is one ascending-`k` FMA
/// chain from zero over the source column and one subtraction, whoever
/// packed the operands and whenever. That — with updates into a block
/// applied in ascending source-column order — is what makes executors
/// bit-identical.
///
/// When the source rows land on a contiguous run of destination rows and the
/// source columns on a contiguous column range (the common case for the
/// regular block structures the paper targets), the update is **fused**: the
/// kernel writes straight into the destination block, skipping the scratch
/// product and the scatter loop entirely. Otherwise the product is
/// materialized into `scratch` (overwrite mode, so no zeroing pass) and
/// scattered through the index maps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_bmod(
    bm: &BlockMatrix,
    dest: &mut [f64],
    dest_i: usize,
    dest_j: usize,
    dest_b: usize,
    ap: &[f64],
    a_rows: &[u32],
    bp: &[f64],
    b_rows: &[u32],
    c_k: usize,
    scratch: &mut Scratch,
) {
    let ra = a_rows.len();
    let rb = b_rows.len();
    if ra == 0 || rb == 0 {
        return;
    }
    let c_dest = bm.col_width(dest_j);
    let dest_start = bm.partition.cols(dest_j).start as u32;
    if dest_i == dest_j {
        // Diagonal destination: symmetric rank-c_k update, lower triangle.
        // Rows index the panel's own columns, so the row→dest map is just
        // `row - dest_start` and contiguity is a single range check.
        debug_assert_eq!(a_rows, b_rows);
        let rd0 = (a_rows[0] - dest_start) as usize;
        if (a_rows[ra - 1] - a_rows[0]) as usize == ra - 1 {
            // Fused: rank-k update the dest sub-square in place.
            let view = &mut dest[rd0 * c_dest + rd0..];
            syrk_lt_prepacked(Mode::Sub, view, c_dest, ap, ra, c_k);
        } else {
            let scratch = scratch.get(ra * ra);
            syrk_lt_prepacked(Mode::Set, scratch, ra, ap, ra, c_k);
            for p in 0..ra {
                let rd = (a_rows[p] - dest_start) as usize;
                let drow = &mut dest[rd * c_dest..rd * c_dest + c_dest];
                let srow = &scratch[p * ra..p * ra + p + 1];
                for (q, &s) in srow.iter().enumerate() {
                    let cd = (a_rows[q] - dest_start) as usize;
                    drow[cd] -= s;
                }
            }
        }
    } else {
        // Destination rows: a_rows is a subset of the dest block's rows;
        // both sorted → merged scan locates the first one.
        let blk = bm.cols[dest_j].blocks[dest_b];
        let dest_rows = bm.block_rows(dest_j, &blk);
        let mut cursor0 = 0usize;
        while dest_rows[cursor0] != a_rows[0] {
            cursor0 += 1;
            debug_assert!(cursor0 < dest_rows.len(), "source row missing in destination");
        }
        let rows_fuse =
            cursor0 + ra <= dest_rows.len() && dest_rows[cursor0..cursor0 + ra] == *a_rows;
        let cols_fuse = (b_rows[rb - 1] - b_rows[0]) as usize == rb - 1;
        let cd0 = (b_rows[0] - dest_start) as usize;
        if rows_fuse && cols_fuse {
            // Fused: multiply straight into the destination rows.
            let view = &mut dest[cursor0 * c_dest + cd0..];
            gemm_prepacked(Mode::Sub, view, c_dest, ap, bp, ra, rb, c_k);
        } else {
            let scratch = scratch.get(ra * rb);
            gemm_prepacked(Mode::Set, scratch, rb, ap, bp, ra, rb, c_k);
            let mut cursor = cursor0;
            for (p, &gr) in a_rows.iter().enumerate() {
                while dest_rows[cursor] != gr {
                    cursor += 1;
                    debug_assert!(cursor < dest_rows.len(), "source row missing in destination");
                }
                let drow = &mut dest[cursor * c_dest..(cursor + 1) * c_dest];
                let srow = &scratch[p * rb..(p + 1) * rb];
                if cols_fuse {
                    // Only the rows scatter: the columns are one run.
                    for (d, &s) in drow[cd0..cd0 + rb].iter_mut().zip(srow) {
                        *d -= s;
                    }
                } else {
                    for (q, &gc) in b_rows.iter().enumerate() {
                        drow[(gc - dest_start) as usize] -= srow[q];
                    }
                }
            }
        }
    }
}

/// A test-only interpreter of single block operations, built to differ from
/// the sequential driver in everything the numerics must not depend on. The
/// identity tests below run it in the driver's own order (same bits
/// expected); the protocol tests run it in the order the data-driven state
/// machines emit (same factor to rounding).
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::proto::Action;
    use dense::kernels::trsm_right_lower_trans_with;

    /// Performs `act` on `f` the way a task-at-a-time executor does: each
    /// off-diagonal block solved by its own `TRSM` call (no column pack), the
    /// two source blocks of a `BMOD` packed afresh. A pivot that fails (and,
    /// with `perturb_npd`, cannot be rescued) returns its global column and
    /// leaves the block as `POTRF` left it.
    pub(crate) fn perform(
        f: &mut NumericFactor,
        arena: &mut KernelArena,
        act: Action,
        perturb_npd: Option<f64>,
    ) -> Result<(), usize> {
        let bm = f.bm.clone();
        match act {
            Action::Complete { j, b } => {
                let (j, b) = (j as usize, b as usize);
                let c = bm.col_width(j);
                let col_start = bm.partition.cols(j).start;
                let (diag, rest) = f.data[j].split_at_mut(c * c);
                match (b, perturb_npd) {
                    (0, None) => potrf_with(diag, c, arena).map_err(|e| col_start + e.pivot)?,
                    (0, Some(tau)) => {
                        potrf_perturbed(diag, c, col_start, arena, tau).map_err(|e| match e {
                            Error::NotPositiveDefinite { col } => col,
                            e => unreachable!("POTRF fails on a pivot or not at all: {e}"),
                        })?;
                    }
                    _ => {
                        let lo = f.offsets[j][b] - c * c;
                        let r = bm.cols[j].blocks[b].nrows();
                        trsm_right_lower_trans_with(diag, c, &mut rest[lo..lo + r * c], r, arena);
                    }
                }
            }
            Action::Bmod { k, a, b, dest_j, dest_b } => {
                let (k, dest_j, dest_b) = (k as usize, dest_j as usize, dest_b as usize);
                let (blk_a, blk_b) = (bm.cols[k].blocks[a as usize], bm.cols[k].blocks[b as usize]);
                let c_k = bm.col_width(k);
                // Updates flow from lower to higher columns: k < dest_j.
                let (head, tail) = f.data.split_at_mut(dest_j);
                let lo = f.offsets[dest_j][dest_b];
                let hi = lo + bm.cols[dest_j].blocks[dest_b].nrows() * bm.col_width(dest_j);
                let (ap, bp, scratch) = pack_sources(
                    arena,
                    &head[k][f.offsets[k][a as usize]..],
                    blk_a.nrows(),
                    &head[k][f.offsets[k][b as usize]..],
                    blk_b.nrows(),
                    c_k,
                );
                apply_bmod(
                    &bm,
                    &mut tail[0][lo..hi],
                    blk_a.row_panel as usize,
                    dest_j,
                    dest_b,
                    ap,
                    bm.block_rows(k, &blk_a),
                    bp,
                    bm.block_rows(k, &blk_b),
                    c_k,
                    scratch,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use symbolic::AmalgamationOpts;

    fn factor_problem(p: &sparsemat::Problem, bs: usize) -> (NumericFactor, sparsemat::SymCscMatrix) {
        let perm = ordering::order_problem(p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        let mut f = NumericFactor::from_matrix(bm, &pa);
        factorize_seq(&mut f).unwrap();
        (f, pa)
    }

    #[test]
    fn traced_seq_run_records_every_column_and_update() {
        let p = sparsemat::gen::grid2d(7);
        let perm = ordering::order_problem(&p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, 3));
        let mut f_tr = NumericFactor::from_matrix(bm.clone(), &pa);
        let mut f_off = f_tr.clone();
        let opts = SchedOptions { trace: trace::TraceOpts::on(), ..Default::default() };
        let stats = factorize_seq_opts(&mut f_tr, &opts, &mut KernelArena::new()).unwrap();
        let tr = stats.trace.as_ref().expect("tracing was enabled");
        assert_eq!(tr.workers(), 1);
        let events = &tr.per_worker[0];
        let bfacs = events.iter().filter(|e| e.kind == TaskKind::Bfac).count();
        assert_eq!(bfacs, bm.num_panels());
        assert!(events.iter().filter(|e| e.kind == TaskKind::Bmod).count() > 0);
        // Timestamps are monotone within the single worker and well-formed.
        for pair in events.windows(2) {
            assert!(pair[0].t_start <= pair[1].t_start);
        }
        for e in events {
            assert!(e.t_end >= e.t_start);
        }
        // Tracing must not change the numerics.
        factorize_seq(&mut f_off).unwrap();
        let (_, _, v_tr) = f_tr.to_csc();
        let (_, _, v_off) = f_off.to_csc();
        for (a, b) in v_tr.iter().zip(&v_off) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A third executor for the identity tests: the sequential driver's task
    /// order, one [`testkit::perform`] per block operation.
    fn factorize_per_task(f: &mut NumericFactor, perturb_npd: Option<f64>) {
        use crate::proto::Action;
        use testkit::perform;
        let bm = f.bm.clone();
        let mut arena = KernelArena::new();
        for k in 0..bm.num_panels() {
            let nb = bm.cols[k].blocks.len() as u32;
            let k = k as u32;
            let mut acts: Vec<Action> = (0..nb).map(|b| Action::Complete { j: k, b }).collect();
            acts.extend(bm.bmods_of(k as usize).map(|op| Action::Bmod {
                k,
                a: op.src_a,
                b: op.src_b,
                dest_j: op.j,
                dest_b: op.dest_b,
            }));
            for act in acts {
                perform(f, &mut arena, act, perturb_npd).expect("pivots succeed or are rescued");
            }
        }
    }

    fn bits(f: &NumericFactor) -> Vec<u64> {
        f.data.iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// seq ≡ sched ≡ per-task on one block structure, optionally perturbing.
    fn assert_three_way_identity(
        bm: Arc<BlockMatrix>,
        pa: &sparsemat::SymCscMatrix,
        perturb_npd: Option<f64>,
        what: &str,
    ) {
        let w = blockmat::BlockWork::compute(&bm, &blockmat::WorkModel::default());
        let plan = crate::Plan::build(&bm, &mapping::Assignment::cyclic(&bm, &w, 4));
        let f0 = NumericFactor::from_matrix(bm, pa);
        let mut f_seq = f0.clone();
        let opts = SchedOptions { perturb_npd, workers: Some(3), ..Default::default() };
        let stats = factorize_seq_opts(&mut f_seq, &opts, &mut KernelArena::new()).unwrap();
        assert_eq!(stats.perturbed_pivots.is_empty(), perturb_npd.is_none(), "{what}");
        let mut f_sched = f0.clone();
        crate::factorize_sched_opts(&mut f_sched, &plan, &opts).unwrap();
        assert!(bits(&f_sched) == bits(&f_seq), "{what}: sched != seq");
        let mut f_task = f0;
        factorize_per_task(&mut f_task, perturb_npd);
        assert!(bits(&f_task) == bits(&f_seq), "{what}: per-task pack != column pack");
    }

    #[test]
    fn column_pack_per_task_pack_and_sched_are_bit_identical() {
        let problems = [
            ("grid2d(20)", sparsemat::gen::grid2d(20)),
            ("cube3d(8)", sparsemat::gen::cube3d(8)),
            ("bcsstk_like", sparsemat::gen::bcsstk_like("T", 300, 5)),
        ];
        for (name, p) in &problems {
            let perm = ordering::order_problem(p);
            let analysis =
                symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
            let pa = analysis.perm.apply_to_matrix(&p.matrix);
            // Uniform panels: narrower than a micro-panel, exactly one, and
            // the production width.
            for bs in [3, 8, 48] {
                let bm = Arc::new(BlockMatrix::build(analysis.supernodes.clone(), bs));
                assert_three_way_identity(bm, &pa, None, &format!("{name} B={bs}"));
            }
            // Rectilinear panels: block rows that are not multiples of the
            // micro-panel height, columns narrower than it.
            let partition = blockmat::BlockPolicy::Rectilinear { sweeps: 2 }.build_partition(
                &analysis.supernodes,
                8,
                &blockmat::WorkModel::default(),
            );
            let bm = Arc::new(BlockMatrix::from_partition(analysis.supernodes.clone(), partition));
            assert_three_way_identity(bm, &pa, None, &format!("{name} rectilinear"));
        }
    }

    #[test]
    fn preallocated_arena_never_grows_during_a_factorization() {
        // What a scheduler worker does before its hot loop, and what a
        // session's arena amounts to after its first refactor.
        let p = sparsemat::gen::cube3d(7);
        let perm = ordering::order_problem(&p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let partition = blockmat::BlockPolicy::Rectilinear { sweeps: 2 }.build_partition(
            &analysis.supernodes,
            8,
            &blockmat::WorkModel::default(),
        );
        let bm = Arc::new(BlockMatrix::from_partition(analysis.supernodes, partition));
        let longest = max_column_pack_len(&bm);
        assert!((0..bm.num_panels()).all(|k| column_pack_len(&bm, k) <= longest));
        assert!(longest > 0);
        let mut arena = KernelArena::new();
        arena.preallocate(bm.partition.max_width(), longest);
        let reserved = arena.reserved();
        let f0 = NumericFactor::from_matrix(bm, &pa);
        for _ in 0..2 {
            let mut f = f0.clone();
            factorize_seq_opts(&mut f, &SchedOptions::default(), &mut arena).unwrap();
            assert_eq!(arena.reserved(), reserved, "the arena grew mid-factorization");
        }
    }

    #[test]
    fn perturbed_factor_of_an_indefinite_matrix_is_bit_identical_across_executors() {
        // The perturbing column factor must leave the same pack behind as the
        // plain one: if it did not, the sequential driver would feed the
        // *previous* column's panels to this column's updates and diverge
        // from the executors that pack per task.
        let p = sparsemat::gen::grid2d(12);
        let perm = ordering::order_problem(&p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        // A − 3·I: the grid Laplacian-like matrix shifted well past its
        // smallest eigenvalues — genuinely indefinite, many failing pivots.
        let (pattern, mut values) = pa.into_parts();
        for j in 0..pattern.n() {
            values[pattern.col_ptr()[j]] -= 3.0;
            assert_eq!(pattern.col(j)[0] as usize, j, "diagonal first in column {j}");
        }
        let pa = sparsemat::SymCscMatrix::new(pattern, values).unwrap();
        for bs in [3, 8] {
            let bm = Arc::new(BlockMatrix::build(analysis.supernodes.clone(), bs));
            let mut plain = NumericFactor::from_matrix(bm.clone(), &pa);
            assert!(matches!(factorize_seq(&mut plain), Err(Error::NotPositiveDefinite { .. })));
            assert_three_way_identity(bm, &pa, Some(1e-6), &format!("indefinite B={bs}"));
        }
    }

    #[test]
    fn dense_factor_reconstructs() {
        let p = sparsemat::gen::dense(24);
        let (f, pa) = factor_problem(&p, 5);
        let llt = f.llt_dense();
        for i in 0..24 {
            for j in 0..=i {
                assert!(
                    (llt[(i, j)] - pa.get(i, j)).abs() < 1e-8,
                    "entry ({i},{j}): {} vs {}",
                    llt[(i, j)],
                    pa.get(i, j)
                );
            }
        }
    }

    #[test]
    fn grid_factor_reconstructs() {
        for bs in [1, 3, 48] {
            let p = sparsemat::gen::grid2d(7);
            let (f, pa) = factor_problem(&p, bs);
            let llt = f.llt_dense();
            let n = p.n();
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (llt[(i, j)] - pa.get(i, j)).abs() < 1e-8,
                        "bs={bs} entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn irregular_factor_reconstructs() {
        let p = sparsemat::gen::bcsstk_like("T", 90, 5);
        let (f, pa) = factor_problem(&p, 4);
        let llt = f.llt_dense();
        let n = p.n();
        let mut max_err: f64 = 0.0;
        for i in 0..n {
            for j in 0..=i {
                max_err = max_err.max((llt[(i, j)] - pa.get(i, j)).abs());
            }
        }
        assert!(max_err < 1e-8, "max error {max_err}");
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = sparsemat::SymCscMatrix::from_coords(
            2,
            &[(0, 0, 1.0), (1, 0, 2.0), (1, 1, 1.0)],
        )
        .unwrap();
        let parent = symbolic::etree(a.pattern());
        let counts = symbolic::col_counts(a.pattern(), &parent);
        let sn = symbolic::Supernodes::compute(a.pattern(), &parent, &counts, &AmalgamationOpts::off());
        let bm = Arc::new(BlockMatrix::build(sn, 2));
        let mut f = NumericFactor::from_matrix(bm, &a);
        assert_eq!(
            factorize_seq(&mut f).unwrap_err(),
            Error::NotPositiveDefinite { col: 1 }
        );
    }
}
