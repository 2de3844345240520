//! Deterministic fault injection for the factorization executors.
//!
//! A [`FaultPlan`] is a pure function from a seed and a task identity to a
//! fault decision: the same plan injects the same faults into the same tasks
//! regardless of worker count, steal order, or thread timing. That is what
//! makes the fault-tolerance stress tests reproducible — a failing seed can
//! be replayed exactly.
//!
//! Two classes of fault are supported:
//!
//! * **Scheduler faults** ([`FaultPlan::task_fault`]) are consulted by the
//!   work-stealing executor per task: a task may *panic* (exercising the
//!   [`catch_unwind`](std::panic::catch_unwind) isolation and cooperative
//!   drain), be *delayed* (exercising interleaving robustness without
//!   violating the numerics), or *vanish* — get popped and never executed
//!   nor retired, simulating a lost wakeup / dropped task, which is exactly
//!   the class of termination-race bug the stall watchdog exists to catch.
//! * **Numeric faults** ([`FaultPlan::inject_npd`]) perturb diagonal entries
//!   of chosen supernode panels to force a not-positive-definite pivot at a
//!   known global column. Because the perturbation is applied to the
//!   scattered factor storage, it works identically under *any* executor
//!   (sequential or scheduled), so every executor's NPD
//!   reporting can be cross-checked against the sequential reference.
//!
//! Fault decisions hash the task id with the seed (a splitmix64 mix), so
//! fault *placement* is deterministic even though task *execution order* is
//! not. With all rates zero the plan is inert and the executors behave —
//! and round — exactly as without one; the harness is always compiled in
//! and costs one branch per task when disabled.

use crate::factor::NumericFactor;

/// A scheduler-level fault decision for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the task (caught by the executor's panic isolation).
    Panic,
    /// Sleep for the given number of microseconds before running the task.
    Delay(u64),
    /// Drop the task without executing or retiring it: the executor loses
    /// the work and — absent a watchdog — would wait forever.
    Vanish,
}

/// A seeded, deterministic fault-injection plan. All rates are per-mille
/// (0..=1000) and default to zero; a default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every per-task / per-panel decision.
    pub seed: u64,
    /// Per-mille of tasks that panic.
    pub panic_per_mille: u16,
    /// Per-mille of tasks that are delayed.
    pub delay_per_mille: u16,
    /// Upper bound (exclusive of 0) on injected delays, microseconds.
    pub max_delay_us: u32,
    /// Per-mille of tasks that vanish (lost-task stall injection).
    pub vanish_per_mille: u16,
    /// Per-mille of supernode panels whose first diagonal entry is made
    /// decisively negative by [`FaultPlan::inject_npd`].
    pub npd_per_mille: u16,
}

impl FaultPlan {
    /// An inert plan with the given seed; chain `with_*` to arm faults.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Arms task panics at `per_mille`/1000.
    pub fn with_panics(mut self, per_mille: u16) -> Self {
        self.panic_per_mille = per_mille;
        self
    }

    /// Arms task delays at `per_mille`/1000, each under `max_us` µs.
    pub fn with_delays(mut self, per_mille: u16, max_us: u32) -> Self {
        self.delay_per_mille = per_mille;
        self.max_delay_us = max_us.max(1);
        self
    }

    /// Arms lost tasks at `per_mille`/1000. Only meaningful with a stall
    /// watchdog: a vanished task otherwise blocks the run forever.
    pub fn with_lost_tasks(mut self, per_mille: u16) -> Self {
        self.vanish_per_mille = per_mille;
        self
    }

    /// Arms NPD pivot injection at `per_mille`/1000 of the panels.
    pub fn with_npd(mut self, per_mille: u16) -> Self {
        self.npd_per_mille = per_mille;
        self
    }

    /// True when no fault kind is armed.
    pub fn is_inert(&self) -> bool {
        self.panic_per_mille == 0
            && self.delay_per_mille == 0
            && self.vanish_per_mille == 0
            && self.npd_per_mille == 0
    }

    /// The fault (if any) to inject into the task with identity `task`.
    ///
    /// Deterministic in `(seed, task)`; the rates stack in priority order
    /// panic → vanish → delay, so a task draws at most one fault.
    pub fn task_fault(&self, task: u64) -> Option<Fault> {
        if self.panic_per_mille == 0
            && self.delay_per_mille == 0
            && self.vanish_per_mille == 0
        {
            return None;
        }
        let h = mix(self.seed, task);
        let roll = (h % 1000) as u16;
        if roll < self.panic_per_mille {
            return Some(Fault::Panic);
        }
        if roll < self.panic_per_mille + self.vanish_per_mille {
            return Some(Fault::Vanish);
        }
        if roll < self.panic_per_mille + self.vanish_per_mille + self.delay_per_mille {
            // A second mix decorrelates the delay length from the selection.
            let us = mix(h, task) % u64::from(self.max_delay_us.max(1)) + 1;
            return Some(Fault::Delay(us));
        }
        None
    }

    /// Perturbs the scattered input so chosen panels fail their pivot:
    /// the selected panel's first diagonal entry is set decisively negative,
    /// guaranteeing the reduced pivot at that column is non-positive (the
    /// subtracted squares can only lower it further).
    ///
    /// Returns the perturbed **global columns**, ascending. Every executor
    /// run on the perturbed factor must report
    /// [`Error::NotPositiveDefinite`](crate::Error::NotPositiveDefinite) at
    /// the smallest of them — the min-col convention shared by all
    /// executors.
    pub fn inject_npd(&self, f: &mut NumericFactor) -> Vec<usize> {
        let mut cols = Vec::new();
        if self.npd_per_mille == 0 {
            return cols;
        }
        let bm = f.bm.clone();
        for j in 0..bm.num_panels() {
            let h = mix(self.seed ^ 0x004e_5044, j as u64); // "NPD" tag
            if (h % 1000) as u16 >= self.npd_per_mille {
                continue;
            }
            let c = bm.col_width(j);
            let diag = &mut f.data[j][..c * c];
            let d = &mut diag[0];
            *d = -1e3 * (1.0 + d.abs());
            cols.push(bm.partition.cols(j).start);
        }
        cols
    }
}

/// splitmix64-style mix of a seed and a task/panel identity.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let p = FaultPlan::new(42);
        assert!(p.is_inert());
        for t in 0..10_000u64 {
            assert_eq!(p.task_fault(t), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1).with_panics(50).with_delays(100, 500).with_lost_tasks(20);
        let b = a.clone();
        let c = FaultPlan::new(2).with_panics(50).with_delays(100, 500).with_lost_tasks(20);
        let mut differs = false;
        for t in 0..4096u64 {
            assert_eq!(a.task_fault(t), b.task_fault(t), "same plan must agree");
            differs |= a.task_fault(t) != c.task_fault(t);
        }
        assert!(differs, "different seeds should place faults differently");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(7).with_panics(100);
        let hits = (0..10_000u64).filter(|&t| p.task_fault(t) == Some(Fault::Panic)).count();
        assert!((500..1500).contains(&hits), "panic rate off: {hits}/10000");
    }

    #[test]
    fn delay_is_bounded() {
        let p = FaultPlan::new(9).with_delays(1000, 250);
        for t in 0..2048u64 {
            match p.task_fault(t) {
                Some(Fault::Delay(us)) => assert!((1..=250).contains(&us)),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }
}
