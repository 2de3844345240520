//! The per-processor data-driven state machine of the block fan-out method.
//!
//! Each processor reacts to *available* completed blocks (its own or
//! received). The protocol is exactly the paper's: a processor performs all
//! block operations destined for blocks it owns; a block completes when its
//! last `BMOD` has been applied and (for off-diagonal blocks) the factored
//! diagonal block of its column has arrived for the `BDIV`; completed blocks
//! are sent to every processor that needs them.
//!
//! The state machine itself is purely symbolic — it emits [`Action`]s in a
//! data-dependency-respecting order — so the simulator charges model time
//! for them, and the tests below apply real kernels to the same stream to
//! show that the protocol being timed yields a correct factor.
//!
//! Pairing is *bucketed*: available source blocks of a column are kept in
//! two lists — those whose panel can be the destination **row** here
//! (`mapI(panel) = my grid row`) and those that can be the destination
//! **column** (`mapJ(panel) = my grid column`, or a domain column owned
//! here). An arriving block scans only the opposite bucket, so total pairing
//! work stays proportional to the `BMOD`s this processor actually executes
//! (each candidate is still confirmed with an exact ownership check).

use crate::plan::Plan;
use blockmat::BlockMatrix;

/// One step the executor must perform, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Apply `BMOD`: sources are blocks `a` and `b` of column `k`
    /// (`a = b` for a symmetric update), destination is block `dest_b` of
    /// column `dest_j`, which this processor owns.
    Bmod { k: u32, a: u32, b: u32, dest_j: u32, dest_b: u32 },
    /// Complete an owned block: `b == 0` means `BFAC` the diagonal block;
    /// `b > 0` means `BDIV` the off-diagonal block against the (available)
    /// factored diagonal of its column. Afterwards the executor must ship
    /// the block to its [`Plan::recipients`].
    Complete { j: u32, b: u32 },
}

/// Data-driven protocol state for one processor.
#[derive(Debug)]
pub struct ProtocolState {
    me: u32,
    my_row: u32,
    my_col: u32,
    /// Per column: available blocks whose panel qualifies as a destination
    /// row on this processor.
    row_side: Vec<Vec<u32>>,
    /// Per column: available blocks whose panel qualifies as a destination
    /// column on this processor.
    col_side: Vec<Vec<u32>>,
    /// Remaining `BMOD`s per block (flat id; meaningful for owned blocks).
    pending: Vec<u32>,
    /// Per column: factored diagonal available here.
    diag_ready: Vec<bool>,
    /// Per column: owned off-diagonal blocks with all updates applied,
    /// awaiting the factored diagonal.
    waiting_bdiv: Vec<Vec<u32>>,
    received: u64,
    owned_remaining: u64,
    expected_recv: u64,
}

impl ProtocolState {
    /// Initializes the state for processor `me`.
    pub fn new(plan: &Plan, bm: &BlockMatrix, me: u32) -> Self {
        let np = bm.num_panels();
        let upd = bm.updates();
        let mut pending = vec![0u32; bm.num_blocks()];
        for (j, owners) in plan.owner.iter().enumerate() {
            for (b, &q) in owners.iter().enumerate() {
                if q == me {
                    let id = upd.block_id(j, b);
                    pending[id] = upd.sources(id).len() as u32;
                }
            }
        }
        let (my_row, my_col) = plan.grid.coords(me as usize);
        Self {
            me,
            my_row: my_row as u32,
            my_col: my_col as u32,
            row_side: vec![Vec::new(); np],
            col_side: vec![Vec::new(); np],
            pending,
            diag_ready: vec![false; np],
            waiting_bdiv: vec![Vec::new(); np],
            received: 0,
            owned_remaining: plan.owned_blocks[me as usize],
            expected_recv: plan.expected_recv[me as usize],
        }
    }

    /// Kick-off: completes every owned block that awaits no updates.
    /// (Off-diagonal blocks still wait for their diagonal, possibly
    /// completed within this same cascade.) Clears and fills `actions`.
    pub fn start(&mut self, plan: &Plan, bm: &BlockMatrix, actions: &mut Vec<Action>) {
        actions.clear();
        let mut worklist = Vec::new();
        for j in 0..bm.num_panels() {
            for b in 0..bm.cols[j].blocks.len() {
                if plan.owner[j][b] == self.me && self.pending[bm.updates().block_id(j, b)] == 0 {
                    self.mods_done(j as u32, b as u32, actions, &mut worklist);
                }
            }
        }
        self.drain(plan, bm, actions, &mut worklist);
    }

    /// A completed block arrived from another processor. Clears and fills
    /// `actions`.
    pub fn on_receive(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        j: u32,
        b: u32,
        actions: &mut Vec<Action>,
    ) {
        self.received += 1;
        actions.clear();
        let mut worklist = vec![(j, b)];
        self.drain(plan, bm, actions, &mut worklist);
    }

    /// True once every owned block is complete and every expected message
    /// has been received.
    pub fn is_done(&self) -> bool {
        self.owned_remaining == 0 && self.received == self.expected_recv
    }

    /// Messages received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    fn drain(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        while let Some((j, b)) = worklist.pop() {
            self.available(plan, bm, j, b, actions, worklist);
        }
    }

    /// Emits the `BMOD` sourced by blocks `a ≥ b` of column `k` if this
    /// processor owns its destination, and follows the destination's
    /// completion cascade.
    fn emit_pair(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        (k, a, b): (u32, u32, u32),
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        let dj = bm.cols[k as usize].blocks[b as usize].row_panel;
        let db = bm.updates().dest(k as usize, a as usize, b as usize);
        if plan.owner[dj as usize][db] != self.me {
            return;
        }
        actions.push(Action::Bmod { k, a, b, dest_j: dj, dest_b: db as u32 });
        let id = bm.updates().block_id(dj as usize, db);
        self.pending[id] -= 1;
        if self.pending[id] == 0 {
            self.mods_done(dj, db as u32, actions, worklist);
        }
    }

    /// A completed block (ours or received) became usable at this processor.
    fn available(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        j: u32,
        b: u32,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        if b == 0 {
            // Factored diagonal: release owned blocks waiting on BDIV.
            self.diag_ready[j as usize] = true;
            let waiting = std::mem::take(&mut self.waiting_bdiv[j as usize]);
            for idx in waiting {
                actions.push(Action::Complete { j, b: idx });
                self.owned_remaining -= 1;
                worklist.push((j, idx));
            }
            return;
        }
        // Off-diagonal source block.
        let k = j;
        let x = bm.cols[k as usize].blocks[b as usize].row_panel;
        // Does this block qualify as destination row / column here?
        let domain_mine = !plan.eligible[k as usize] && plan.owner[k as usize][0] == self.me;
        let x_root = plan.eligible[x as usize];
        let q_row = domain_mine || (x_root && plan.map_i[x as usize] == self.my_row);
        let q_col = domain_mine || (x_root && plan.map_j[x as usize] == self.my_col);
        // Self-pair: destination is the diagonal block of panel x.
        {
            let owner = if plan.eligible[x as usize] {
                plan.grid.rank(
                    plan.map_i[x as usize] as usize,
                    plan.map_j[x as usize] as usize,
                ) as u32
            } else {
                plan.owner[x as usize][0]
            };
            if owner == self.me {
                self.emit_pair(plan, bm, (k, b, b), actions, worklist);
            }
        }
        if q_col {
            // Partners with a larger panel: they are the destination row.
            let partners = std::mem::take(&mut self.row_side[k as usize]);
            for &a in &partners {
                let y = bm.cols[k as usize].blocks[a as usize].row_panel;
                if y > x {
                    self.emit_pair(plan, bm, (k, a.max(b), a.min(b)), actions, worklist);
                }
            }
            self.row_side[k as usize] = partners;
        }
        if q_row {
            // Partners with a smaller panel: they are the destination column.
            let partners = std::mem::take(&mut self.col_side[k as usize]);
            for &a in &partners {
                let y = bm.cols[k as usize].blocks[a as usize].row_panel;
                if y < x {
                    self.emit_pair(plan, bm, (k, a.max(b), a.min(b)), actions, worklist);
                }
            }
            self.col_side[k as usize] = partners;
        }
        if q_row {
            self.row_side[k as usize].push(b);
        }
        if q_col {
            self.col_side[k as usize].push(b);
        }
    }

    /// All updates into owned block `(j, b)` are applied.
    fn mods_done(
        &mut self,
        j: u32,
        b: u32,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        if b == 0 || self.diag_ready[j as usize] {
            actions.push(Action::Complete { j, b });
            self.owned_remaining -= 1;
            worklist.push((j, b));
        } else {
            self.waiting_bdiv[j as usize].push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::NumericFactor;
    use crate::seq::{factorize_seq, testkit::perform};
    use crate::Error;
    use blockmat::{BlockWork, WorkModel};
    use dense::KernelArena;
    use mapping::Assignment;
    use std::collections::HashSet;
    use std::sync::Arc;
    use symbolic::AmalgamationOpts;

    fn setup(k: usize, p: usize) -> (BlockMatrix, Plan) {
        let prob = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = BlockMatrix::build(analysis.supernodes, 3);
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let asg = Assignment::cyclic(&bm, &w, p);
        let plan = Plan::build(&bm, &asg);
        (bm, plan)
    }

    /// Runs the protocol to completion over an in-memory network with
    /// instant delivery, handing every batch of emitted actions to
    /// `on_actions(processor, batch)` before anything it sends is delivered.
    /// The network is FIFO without a `seed`; with one, a seeded xorshift
    /// picks which undelivered message arrives next — "entirely data-driven"
    /// means no assumption about message order beyond causality.
    fn drive(
        bm: &BlockMatrix,
        plan: &Plan,
        seed: Option<u64>,
        mut on_actions: impl FnMut(usize, &[Action]),
    ) {
        let mut rng = seed.map(|s| s | 1);
        let mut next = |len: usize| {
            rng.as_mut().map_or(0, |x| {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                *x as usize % len
            })
        };
        let mut states: Vec<ProtocolState> =
            (0..plan.p).map(|q| ProtocolState::new(plan, bm, q as u32)).collect();
        let mut undelivered: Vec<(usize, u32, u32)> = Vec::new();
        let mut emitted = |q: usize, actions: &[Action], net: &mut Vec<(usize, u32, u32)>| {
            on_actions(q, actions);
            for act in actions {
                if let Action::Complete { j, b } = *act {
                    let id = bm.updates().block_id(j as usize, b as usize);
                    net.extend(plan.recipients(id).iter().map(|&d| (d as usize, j, b)));
                }
            }
        };
        let mut actions = Vec::new();
        for (q, st) in states.iter_mut().enumerate() {
            st.start(plan, bm, &mut actions);
            emitted(q, &actions, &mut undelivered);
        }
        while !undelivered.is_empty() {
            let (dest, j, b) = undelivered.remove(next(undelivered.len()));
            states[dest].on_receive(plan, bm, j, b, &mut actions);
            emitted(dest, &actions, &mut undelivered);
        }
        for (q, st) in states.iter().enumerate() {
            assert!(st.is_done(), "proc {q} not done: {st:?}");
        }
    }

    /// Per-processor action logs of a FIFO-network run.
    fn run_protocol(bm: &BlockMatrix, plan: &Plan) -> Vec<Vec<Action>> {
        let mut logs: Vec<Vec<Action>> = vec![Vec::new(); plan.p];
        drive(bm, plan, None, |q, actions| logs[q].extend_from_slice(actions));
        logs
    }

    #[test]
    fn every_block_completes_exactly_once() {
        for p in [1, 4] {
            let (bm, plan) = setup(8, p);
            let logs = run_protocol(&bm, &plan);
            let mut completed = HashSet::new();
            for (q, log) in logs.iter().enumerate() {
                for act in log {
                    if let Action::Complete { j, b } = *act {
                        assert_eq!(plan.owner[j as usize][b as usize] as usize, q);
                        assert!(completed.insert((j, b)), "block ({j},{b}) completed twice");
                    }
                }
            }
            assert_eq!(completed.len(), bm.num_blocks());
        }
    }

    #[test]
    fn every_bmod_executes_exactly_once_at_dest_owner() {
        let (bm, plan) = setup(8, 4);
        let logs = run_protocol(&bm, &plan);
        let mut seen = HashSet::new();
        for (q, log) in logs.iter().enumerate() {
            for act in log {
                if let Action::Bmod { k, a, b, dest_j, dest_b } = *act {
                    assert_eq!(plan.owner[dest_j as usize][dest_b as usize] as usize, q);
                    assert!(seen.insert((k, a, b)), "duplicate BMOD {k} {a} {b}");
                }
            }
        }
        let mut expect = 0usize;
        blockmat::for_each_bmod(&bm, |_| expect += 1);
        assert_eq!(seen.len(), expect);
    }

    #[test]
    fn protocol_completes_under_every_mapping_policy() {
        use mapping::{ColPolicy, Heuristic, ProcGrid, RowPolicy};
        let prob = sparsemat::gen::grid2d(10);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = BlockMatrix::build(analysis.supernodes, 3);
        let w = BlockWork::compute(&bm, &WorkModel::default());
        for grid in [ProcGrid::square(4), ProcGrid::new(2, 3), ProcGrid::new(1, 5)] {
            for row in [
                RowPolicy::Heuristic(Heuristic::DecreasingWork),
                RowPolicy::AltPerProcessor,
            ] {
                for col in [
                    ColPolicy::Heuristic(Heuristic::IncreasingDepth),
                    ColPolicy::Subtree,
                ] {
                    let domains =
                        mapping::DomainPlan::select(&bm, &w, grid.p(), &Default::default());
                    let asg = Assignment::build(&bm, &w, grid, row, col, Some(domains));
                    let plan = Plan::build(&bm, &asg);
                    run_protocol(&bm, &plan); // asserts completion internally
                }
            }
        }
    }

    #[test]
    fn interpreted_protocol_yields_the_sequential_factor() {
        // The simulator only *times* the protocol. That the same action
        // stream, executed, is a correct factorization that completes every
        // block exactly once — under any mapping and any causal delivery
        // order — is shown here: perform every
        // action as it is emitted and compare with the inline driver. The
        // test has one address space, so a "received" block is read where
        // its owner completed it. A failed pivot is min-combined and the run
        // carries on with the column as it is: whatever that poisons lies in
        // higher columns and loses the min.
        let prob = sparsemat::gen::grid2d(9);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let spd = analysis.perm.apply_to_matrix(&prob.matrix);
        // A − 3·I: decisively indefinite, many failing pivots.
        let (pattern, mut values) = spd.clone().into_parts();
        for j in 0..pattern.n() {
            assert_eq!(pattern.col(j)[0] as usize, j, "diagonal first in column {j}");
            values[pattern.col_ptr()[j]] -= 3.0;
        }
        let indefinite = sparsemat::SymCscMatrix::new(pattern, values).unwrap();
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, 3));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        for p in [1usize, 4, 9] {
            let domains = mapping::DomainPlan::select(&bm, &w, p, &Default::default());
            let heuristic = Assignment::build(
                &bm,
                &w,
                mapping::ProcGrid::square(p),
                mapping::RowPolicy::Heuristic(mapping::Heuristic::IncreasingDepth),
                mapping::ColPolicy::Heuristic(mapping::Heuristic::Cyclic),
                Some(domains),
            );
            for (mapping, asg) in
                [("cyclic", Assignment::cyclic(&bm, &w, p)), ("heuristic", heuristic)]
            {
                let plan = Plan::build(&bm, &asg);
                for (input, a) in [("spd", &spd), ("indefinite", &indefinite)] {
                    let f0 = NumericFactor::from_matrix(bm.clone(), a);
                    let mut f_seq = f0.clone();
                    let want = factorize_seq(&mut f_seq);
                    assert_eq!(want.is_ok(), input == "spd");
                    for seed in [None, Some(1u64), Some(7), Some(42), Some(1234)] {
                        let what = format!("p={p} {mapping} {input} delivery {seed:?}");
                        let mut f = f0.clone();
                        let mut arena = KernelArena::new();
                        let mut fail_col: Option<usize> = None;
                        let mut completed = 0;
                        drive(&bm, &plan, seed, |_, actions| {
                            for &act in actions {
                                completed += matches!(act, Action::Complete { .. }) as usize;
                                if let Err(col) = perform(&mut f, &mut arena, act, None) {
                                    fail_col = Some(fail_col.map_or(col, |m| m.min(col)));
                                }
                            }
                        });
                        assert_eq!(completed, bm.num_blocks(), "{what}");
                        match &want {
                            Ok(()) => {
                                assert_eq!(fail_col, None, "{what}");
                                for (x, y) in f_seq.data.iter().flatten().zip(f.data.iter().flatten()) {
                                    assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{what}: {y} vs {x}");
                                }
                            }
                            Err(Error::NotPositiveDefinite { col }) => {
                                assert_eq!(fail_col, Some(*col), "{what}");
                            }
                            Err(e) => panic!("{what}: {e}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn actions_respect_data_dependencies() {
        // Within each processor's log: a BMOD sourced from (k, a) must come
        // after Complete{k, a} if this processor owns that source, and a
        // Complete{j, b>0} must come after Complete{j, 0} when the diagonal
        // is local (otherwise the diagonal arrived by message — the network
        // run above already serializes that).
        let (bm, plan) = setup(10, 4);
        let logs = run_protocol(&bm, &plan);
        for (q, log) in logs.iter().enumerate() {
            let mut completed: HashSet<(u32, u32)> = HashSet::new();
            for act in log {
                match *act {
                    Action::Complete { j, b } => {
                        if b > 0 && plan.owner[j as usize][0] as usize == q {
                            assert!(
                                completed.contains(&(j, 0)),
                                "BDIV before local BFAC in col {j}"
                            );
                        }
                        completed.insert((j, b));
                    }
                    Action::Bmod { k, a, b, .. } => {
                        for src in [a, b] {
                            if plan.owner[k as usize][src as usize] as usize == q {
                                assert!(
                                    completed.contains(&(k, src)),
                                    "BMOD uses own incomplete source ({k},{src})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
