//! Fiduccia–Mattheyses vertex-separator refinement with gain buckets.
//!
//! Refines a three-way labeling (low side / high side / separator) of a
//! [`LevelGraph`] so the separator gets lighter while both sides stay under a
//! balance cap. This replaces the greedy "move separator vertices with no
//! opposite-side neighbor" thinning: FM also takes locally *bad* moves —
//! pushing a separator vertex into a side and pulling that vertex's
//! opposite-side neighbors into the separator — and keeps the best prefix of
//! the move sequence, which lets it slide a wide, jagged level-set cut
//! sideways into a genuinely thin bottleneck.
//!
//! Mechanics, per pass (passes alternate the target side, which also breaks
//! ties between equal-quality separators differently pass to pass):
//!
//! * every separator vertex enters a **gain bucket** keyed by
//!   `vwt(v) − Σ vwt(opposite-side neighbors)` — the separator weight change
//!   if `v` moves to the target side;
//! * repeatedly pop a maximum-gain vertex (ties resolve last-in-first-out,
//!   deterministically), move it, pull its opposite-side neighbors into the
//!   separator, update affected gains, and log the move;
//! * vertices are locked for the rest of the pass once moved, so a pass makes
//!   at most `n` moves;
//! * finally roll back to the best prefix seen (lightest separator, balance
//!   as tie-break).
//!
//! The invariant "no low–high edge" holds on entry and exit of every pass.
//! A move into a side whose weight would exceed the cap is skipped, which
//! both bounds imbalance and guarantees the recursion in
//! [`crate::nd_graph()`] keeps shrinking (a side can never swallow the whole
//! region).

use crate::coarsen::LevelGraph;

/// Label: vertex is in the low region.
pub const LOW: u8 = 0;
/// Label: vertex is in the high region.
pub const HIGH: u8 = 1;
/// Label: vertex is in the separator.
pub const SEP: u8 = 2;

/// Options for [`refine`].
#[derive(Debug, Clone, Copy)]
pub struct FmOptions {
    /// Number of one-sided passes (target side alternates per pass).
    pub passes: usize,
    /// Maximum fraction of the region weight either side may hold.
    pub max_side: f64,
}

impl Default for FmOptions {
    fn default() -> Self {
        Self { passes: 4, max_side: 0.65 }
    }
}

/// Monotone gain buckets: an array of LIFO stacks indexed by clamped gain.
/// Entries are lazily invalidated — a vertex is pushed again whenever its
/// gain changes, and stale entries are discarded on pop by checking the
/// recorded current gain.
///
/// The stacks outlive a call (see [`FmScratch`]): a pass pops until every
/// stack is empty, so between passes — and between calls — all of them are
/// empty and only `off`/`top` need resetting. `gain[v]` is only ever read for
/// a vertex pushed earlier in the same pass, so it is never cleared.
#[derive(Debug, Default)]
struct Buckets {
    lists: Vec<Vec<u32>>,
    off: isize,
    top: isize, // highest possibly-nonempty bucket index, -1 when empty
    gain: Vec<isize>,
}

impl Buckets {
    fn reset(&mut self, n: usize, max_gain: isize) {
        debug_assert!(self.lists.iter().all(Vec::is_empty), "a finished pass drains every bucket");
        let want = (2 * max_gain + 1) as usize;
        if self.lists.len() < want {
            self.lists.resize_with(want, Vec::new);
        }
        if self.gain.len() < n {
            self.gain.resize(n, 0);
        }
        self.off = max_gain;
        self.top = -1;
    }

    fn idx(&self, gain: isize) -> usize {
        (gain + self.off).clamp(0, 2 * self.off) as usize
    }

    fn push(&mut self, v: u32, gain: isize) {
        self.gain[v as usize] = gain;
        let i = self.idx(gain);
        self.lists[i].push(v);
        self.top = self.top.max(i as isize);
    }

    /// Pops the current-maximum-gain vertex for which `valid` holds,
    /// discarding stale and invalid entries.
    fn pop(&mut self, valid: impl Fn(u32) -> bool) -> Option<u32> {
        while self.top >= 0 {
            let t = self.top as usize;
            match self.lists[t].pop() {
                None => self.top -= 1,
                Some(v) => {
                    if valid(v) && self.idx(self.gain[v as usize]) == t {
                        return Some(v);
                    }
                }
            }
        }
        None
    }
}

#[derive(Debug)]
struct Move {
    v: u32,
    pulled: (u32, u32), // range into the shared pulled buffer
}

/// Everything [`refine_with`] would otherwise allocate per call: the gain
/// buckets (up to 8 193 stacks on heavily coarsened levels), the per-vertex
/// lock stamps, the move log, the pulled-vertex buffer and the separator
/// list.
///
/// Between calls: every bucket stack is empty, and every lock stamp is at
/// most `epoch` — each pass takes a fresh epoch, so stamps left behind by
/// earlier passes and calls never read as "locked in this pass".
#[derive(Debug, Default)]
pub(crate) struct FmScratch {
    buckets: Buckets,
    locked: Vec<u32>,
    epoch: u32,
    moves: Vec<Move>,
    pulled: Vec<u32>,
    /// The current separator, ascending.
    sep: Vec<u32>,
}

impl FmScratch {
    /// Checks the between-calls invariants (debug builds).
    pub(crate) fn debug_check(&self) {
        debug_assert!(self.buckets.lists.iter().all(Vec::is_empty));
        debug_assert!(self.locked.iter().all(|&l| l <= self.epoch));
    }
}

/// Refines the partition `label` (values [`LOW`]/[`HIGH`]/[`SEP`]) in place.
/// Requires and preserves: no LOW vertex adjacent to a HIGH vertex.
pub fn refine(g: &LevelGraph, label: &mut [u8], opts: &FmOptions) {
    refine_with(g, label, opts, &mut FmScratch::default());
}

/// [`refine`] on reusable scratch.
pub(crate) fn refine_with(g: &LevelGraph, label: &mut [u8], opts: &FmOptions, s: &mut FmScratch) {
    let n = g.n();
    debug_assert_eq!(label.len(), n);
    if n == 0 || opts.passes == 0 {
        return;
    }
    let FmScratch { buckets, locked, epoch, moves, pulled: pulled_buf, sep } = s;
    // One sweep for the side weights, the heaviest vertex and the separator
    // (ascending); passes then walk the separator, not the graph.
    let mut w = [0usize; 3];
    let mut max_vwt = 0u32;
    sep.clear();
    for (v, (&l, &wv)) in label.iter().zip(&g.vwt).enumerate() {
        w[l as usize] += wv as usize;
        max_vwt = max_vwt.max(wv);
        if l == SEP {
            sep.push(v as u32);
        }
    }
    let total = w[0] + w[1] + w[2];
    if total == 0 || w[2] == 0 {
        return;
    }
    let max_side =
        (((total as f64) * opts.max_side).ceil() as usize).clamp(total / 2, total - 1);

    let max_gain = max_vwt.clamp(8, 4096) as isize;
    buckets.reset(n, max_gain);
    if locked.len() < n {
        locked.resize(n, 0);
    }
    if (u32::MAX - *epoch) as usize <= opts.passes {
        locked.fill(0);
        *epoch = 0;
    }
    let mut dry = 0usize;

    for pass in 0..opts.passes {
        let to = (pass % 2) as u8;
        let other = 1 - to;
        *epoch += 1;
        let epoch = *epoch;
        moves.clear();
        pulled_buf.clear();

        let gain_of = |g: &LevelGraph, label: &[u8], v: usize| -> isize {
            let mut gain = g.vwt[v] as isize;
            for &u in g.neighbors(v) {
                if label[u as usize] == other {
                    gain -= g.vwt[u as usize] as isize;
                }
            }
            gain
        };
        for &v in sep.iter() {
            buckets.push(v, gain_of(g, label, v as usize));
        }

        // (separator weight, heavier side) — lexicographically minimized.
        let start_score = (w[2], w[0].max(w[1]));
        let mut best_score = start_score;
        let mut best_len = 0usize;

        while let Some(v) =
            buckets.pop(|v| label[v as usize] == SEP && locked[v as usize] != epoch)
        {
            let vu = v as usize;
            let wv = g.vwt[vu] as usize;
            if w[to as usize] + wv > max_side {
                locked[vu] = epoch; // sides only grow within a pass
                continue;
            }
            label[vu] = to;
            locked[vu] = epoch;
            w[2] -= wv;
            w[to as usize] += wv;
            let pull_start = pulled_buf.len() as u32;
            for &u in g.neighbors(vu) {
                if label[u as usize] == other {
                    pulled_buf.push(u);
                }
            }
            // Pre-existing separator vertices adjacent to a pulled vertex
            // gain its weight (it is leaving `other`). This runs while the
            // pulled vertices are still labeled `other`, so vertices pulled
            // by this same move are excluded — their gains are computed
            // fresh below, after all labels settle.
            for &pu in &pulled_buf[pull_start as usize..] {
                let u = pu as usize;
                for &s in g.neighbors(u) {
                    let su = s as usize;
                    if label[su] == SEP && locked[su] != epoch {
                        let ng = buckets.gain[su] + g.vwt[u] as isize;
                        buckets.push(s, ng);
                    }
                }
            }
            for &pu in &pulled_buf[pull_start as usize..] {
                let u = pu as usize;
                label[u] = SEP;
                w[other as usize] -= g.vwt[u] as usize;
                w[2] += g.vwt[u] as usize;
            }
            for &pu in &pulled_buf[pull_start as usize..] {
                let u = pu as usize;
                if locked[u] != epoch {
                    buckets.push(pu, gain_of(g, label, u));
                }
            }
            moves.push(Move { v, pulled: (pull_start, pulled_buf.len() as u32) });
            let score = (w[2], w[0].max(w[1]));
            if score < best_score {
                best_score = score;
                best_len = moves.len();
            }
        }

        // Roll back to the best prefix.
        for m in moves[best_len..].iter().rev() {
            for k in (m.pulled.0..m.pulled.1).rev() {
                let u = pulled_buf[k as usize] as usize;
                label[u] = other;
                w[2] -= g.vwt[u] as usize;
                w[other as usize] += g.vwt[u] as usize;
            }
            label[m.v as usize] = SEP;
            w[to as usize] -= g.vwt[m.v as usize] as usize;
            w[2] += g.vwt[m.v as usize] as usize;
        }
        debug_assert_eq!((w[2], w[0].max(w[1])), best_score);
        // The separator after the kept moves: what stayed, plus what they
        // pulled in (a prefix of the pulled buffer), ascending again.
        if best_len > 0 {
            sep.extend_from_slice(&pulled_buf[..moves[best_len - 1].pulled.1 as usize]);
            sep.retain(|&v| label[v as usize] == SEP);
            sep.sort_unstable();
        }
        debug_assert!(sep.iter().copied().eq((0..n as u32).filter(|&v| label[v as usize] == SEP)));

        dry = if best_score < start_score { 0 } else { dry + 1 };
        if dry >= 2 || w[2] == 0 {
            break;
        }
    }
    debug_assert!(no_cross_edge(g, label));
}

#[allow(dead_code)] // debug_assert helper
fn no_cross_edge(g: &LevelGraph, label: &[u8]) -> bool {
    (0..g.n()).all(|v| {
        label[v] != LOW || g.neighbors(v).iter().all(|&u| label[u as usize] != HIGH)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{Graph, SparsityPattern};

    fn level_graph(n: usize, edges: &[(u32, u32)]) -> LevelGraph {
        let p = SparsityPattern::from_coords(n, edges.to_vec()).unwrap();
        let g = Graph::from_pattern(&p);
        let region: Vec<u32> = (0..n as u32).collect();
        LevelGraph::from_region(&g, &region, |_| 1)
    }

    fn sep_weight(g: &LevelGraph, label: &[u8]) -> usize {
        (0..g.n()).filter(|&v| label[v] == SEP).map(|v| g.vwt[v] as usize).sum()
    }

    #[test]
    fn thins_a_wide_separator_on_a_path() {
        // Path 0-1-...-9; label the middle four as separator. A single cut
        // vertex suffices, and FM must find it.
        let edges: Vec<(u32, u32)> = (1..10).map(|i| (i, i - 1)).collect();
        let g = level_graph(10, &edges);
        let mut label = vec![LOW; 10];
        for l in label.iter_mut().take(7).skip(3) {
            *l = SEP;
        }
        for l in label.iter_mut().skip(7) {
            *l = HIGH;
        }
        refine(&g, &mut label, &FmOptions::default());
        assert_eq!(sep_weight(&g, &label), 1, "labels {label:?}");
        assert!(no_cross_edge(&g, &label));
    }

    #[test]
    fn slides_cut_into_bottleneck() {
        // Two 6-cliques joined by a single bridge vertex 12. Start with the
        // separator deep inside the second clique (wide); FM must migrate it
        // to the bridge.
        let mut edges = Vec::new();
        for b in 0..2u32 {
            for i in 0..6 {
                for j in 0..i {
                    edges.push((b * 6 + i, b * 6 + j));
                }
            }
        }
        edges.push((12, 0));
        edges.push((12, 6));
        let g = level_graph(13, &edges);
        let mut label = vec![LOW; 13];
        label[12] = LOW;
        for l in label.iter_mut().take(12).skip(6) {
            *l = SEP;
        }
        // high side empty; separator = clique B. FM should carve out a thin
        // separator and rebuild a high side.
        refine(&g, &mut label, &FmOptions { passes: 6, ..Default::default() });
        assert!(sep_weight(&g, &label) <= 1, "labels {label:?}");
        assert!(no_cross_edge(&g, &label));
    }

    #[test]
    fn respects_balance_cap() {
        // Star: center 0, leaves 1..=20. Everything wants to drain into one
        // side; the cap must stop a side from swallowing the region.
        let edges: Vec<(u32, u32)> = (1..=20).map(|i| (i, 0)).collect();
        let g = level_graph(21, &edges);
        let mut label = vec![HIGH; 21];
        label[0] = SEP;
        for l in label.iter_mut().take(11).skip(1) {
            *l = LOW;
        }
        refine(&g, &mut label, &FmOptions::default());
        let w_low: usize = (0..21).filter(|&v| label[v] == LOW).count();
        let w_high: usize = (0..21).filter(|&v| label[v] == HIGH).count();
        assert!(w_low.max(w_high) < 21);
        assert!(no_cross_edge(&g, &label));
    }

    #[test]
    fn refine_is_deterministic_and_never_worsens() {
        // Random-ish grid: 8x8 with a vertical stripe separator of width 2.
        let n = 64u32;
        let mut edges = Vec::new();
        for r in 0..8u32 {
            for c in 0..8u32 {
                let v = r * 8 + c;
                if c > 0 {
                    edges.push((v, v - 1));
                }
                if r > 0 {
                    edges.push((v, v - 8));
                }
            }
        }
        let g = level_graph(n as usize, &edges);
        let init = |_g: &LevelGraph| {
            let mut l = vec![LOW; 64];
            for r in 0..8 {
                for c in 0..8 {
                    let v = r * 8 + c;
                    l[v] = match c {
                        0..=2 => LOW,
                        3 | 4 => SEP,
                        _ => HIGH,
                    };
                }
            }
            l
        };
        let before = sep_weight(&g, &init(&g));
        let mut a = init(&g);
        let mut b = init(&g);
        refine(&g, &mut a, &FmOptions::default());
        refine(&g, &mut b, &FmOptions::default());
        assert_eq!(a, b, "refinement must be deterministic");
        assert!(sep_weight(&g, &a) <= before);
        assert!(sep_weight(&g, &a) <= 8, "grid stripe should thin to one column");
        assert!(no_cross_edge(&g, &a));
    }
}
