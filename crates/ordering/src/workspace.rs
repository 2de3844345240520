//! The ordering workspace: everything the dissection, the structure probe and
//! the base-case minimum degree would otherwise allocate per region, per
//! level or per leaf — allocated once, reset only where touched.
//!
//! A nested dissection of an `n`-vertex graph visits thousands of regions
//! (≈1 700 internal ones on a 300×300 grid), each with a dozen coarsening
//! levels, and ends in thousands of ≤64-vertex leaves. Allocating (and, for
//! graph-sized arrays, zeroing) scratch at every one of those steps used to
//! cost as much as the algorithms themselves. [`Workspace`] owns that scratch
//! instead, and [`Orderer`] owns a workspace together with the graph and its
//! supervariable quotient, so one analysis builds each of them once and every
//! ordering entry point — probe, dissection, minimum degree — shares them.
//!
//! The contract is **output identity**: an ordering computed through a reused
//! workspace is bit-for-bit the ordering a fresh one computes (the
//! `workspace_reuse` property tests below, and `tests/identity.rs` against
//! constants recorded before the workspace existed). Reuse is safe because
//! each scratch array has a between-calls invariant, restored by whoever
//! breaks it and checked by [`Workspace::enter`] in debug builds:
//!
//! | scratch | between calls | restored by |
//! |---|---|---|
//! | `local` (vertex → local index) | all `u32::MAX` | [`with_index_map`] un-marks exactly the vertices it marked |
//! | FM gain buckets | every stack empty | a pass pops until empty |
//! | FM lock stamps | `≤ epoch` | each pass takes a fresh epoch |
//! | graph BFS visited set | all `false` | each search un-marks what it reached |
//! | level graphs, maps, labels, BFS levels, coarsening and minimum-degree state | none | re-initialized over the first `n` slots on entry |

use crate::coarsen::{CoarsenScratch, LevelGraph};
use crate::fm::FmScratch;
use crate::mindeg::{minimum_degree_with, MindegScratch};
use crate::nd_graph::{compress, dissect, BisectScratch, NdGraphOptions, Quotient};
use crate::probe::{probe_with, ProbeReport, SMALL_N};
use crate::septree::SeparatorTree;
use sparsemat::{BfsScratch, Graph, Permutation, SparsityPattern};
use std::borrow::Cow;
use std::time::Instant;

/// Seconds spent per phase of the ordering layer since the [`Orderer`] was
/// created. The dissection phases are disjoint and cover
/// [`Orderer::nd_graph`] up to recursion bookkeeping; `probe_s` is the whole
/// of [`Orderer::probe`] apart from the compression it may trigger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OrderPhases {
    /// Supervariable compression (at most once per [`Orderer`]).
    pub compress_s: f64,
    /// Connected-component search of each region.
    pub components_s: f64,
    /// Building each region's finest level graph.
    pub level_graph_s: f64,
    /// Heavy-edge matching and contraction.
    pub coarsen_s: f64,
    /// Level-set bisection of the coarsest graphs and label projection.
    pub bisect_s: f64,
    /// Separator refinement (FM or greedy) at every level.
    pub fm_s: f64,
    /// Base-case ordering of the leaves.
    pub base_s: f64,
    /// The structure probe.
    pub probe_s: f64,
}

/// Runs `f`, adding its wall time to `slot`.
pub(crate) fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// Runs `f` with `local[v]` set to `v`'s position in `verts` for every `v`
/// in `verts`, and restores those slots to `u32::MAX` afterwards — the one
/// place the index map's between-calls invariant is broken and mended.
/// `local` must be all `u32::MAX` on entry and long enough for every vertex.
pub(crate) fn with_index_map<T>(
    local: &mut [u32],
    verts: &[u32],
    f: impl FnOnce(&[u32]) -> T,
) -> T {
    for (i, &v) in verts.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let out = f(local);
    for &v in verts {
        local[v as usize] = u32::MAX;
    }
    out
}

/// Reusable scratch for every ordering algorithm in this crate. See the
/// module docs for the invariants.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Vertex → local index map over the input graph; all `u32::MAX`
    /// between uses.
    pub local: Vec<u32>,
    /// The multilevel hierarchy of the region being bisected: `levels[0]` is
    /// the region's own graph, `maps[d]` sends level `d` to level `d + 1`,
    /// `labels[d]` is the partition of level `d`.
    pub levels: Vec<LevelGraph>,
    pub maps: Vec<Vec<u32>>,
    pub labels: Vec<Vec<u8>>,
    pub bisect: BisectScratch,
    pub coarsen: CoarsenScratch,
    pub fm: FmScratch,
    pub mindeg: MindegScratch,
    /// Searches of the input graph itself (the probe's sample balls).
    pub graph_bfs: BfsScratch,
    pub phases: OrderPhases,
}

impl Workspace {
    /// Readies the workspace for a graph of `n` vertices and checks every
    /// between-calls invariant (debug builds).
    pub fn enter(&mut self, n: usize) {
        if self.local.len() < n {
            self.local.resize(n, u32::MAX);
        }
        self.level(0);
        debug_assert!(
            self.local.iter().all(|&l| l == u32::MAX),
            "index map must be clear"
        );
        self.fm.debug_check();
    }

    /// Makes sure hierarchy slots `0..=d` exist.
    pub fn level(&mut self, d: usize) {
        if self.levels.len() <= d {
            self.levels.resize_with(d + 1, LevelGraph::default);
            self.maps.resize_with(d + 1, Vec::new);
            self.labels.resize_with(d + 1, Vec::new);
        }
    }
}

thread_local! {
    /// Compressions run on this thread, for tests that pin "one compression
    /// per analysis".
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of supervariable compressions run on the current thread. Test
/// instrumentation, like `Graph::builds_on_this_thread`.
#[doc(hidden)]
pub fn compressions_on_this_thread() -> u64 {
    COMPRESSIONS.with(std::cell::Cell::get)
}

/// One matrix's ordering state: its adjacency graph, the supervariable
/// quotient of that graph (computed on first need), and the workspace every
/// algorithm runs in. Build one per analysis and ask it for whatever the
/// analysis needs — the `Auto` probe and the ordering it picks then share
/// one graph, one compression and one set of scratch arrays.
///
/// Every method returns exactly what the free function of the same name
/// returns ([`crate::probe_structure`], [`crate::nd_graph()`],
/// [`crate::minimum_degree`]); those are thin wrappers over a fresh
/// `Orderer`.
pub struct Orderer<'g> {
    g: Cow<'g, Graph>,
    /// `None` until first needed; `Some(None)` when nothing merges.
    quotient: Option<Option<Quotient>>,
    ws: Workspace,
}

impl<'g> Orderer<'g> {
    /// An orderer for a graph the caller keeps.
    pub fn new(g: &'g Graph) -> Self {
        Self {
            g: Cow::Borrowed(g),
            quotient: None,
            ws: Workspace::default(),
        }
    }

    /// An orderer that builds and owns the graph of `pattern`.
    pub fn from_pattern(pattern: &SparsityPattern) -> Orderer<'static> {
        Orderer {
            g: Cow::Owned(Graph::from_pattern(pattern)),
            quotient: None,
            ws: Workspace::default(),
        }
    }

    /// Seconds per phase so far.
    pub fn phases(&self) -> OrderPhases {
        self.ws.phases
    }

    fn ensure_quotient(&mut self) {
        if self.quotient.is_none() {
            COMPRESSIONS.with(|c| c.set(c.get() + 1));
            let g: &Graph = &self.g;
            self.quotient = Some(timed(&mut self.ws.phases.compress_s, || compress(g)));
        }
    }

    /// Resolves `Auto` for this graph; see [`crate::probe_structure`].
    pub fn probe(&mut self) -> ProbeReport {
        // Below the short-circuit size the probe never looks at the graph.
        if self.g.n() >= SMALL_N {
            self.ensure_quotient();
        }
        let Self { g, quotient, ws } = self;
        let t0 = Instant::now();
        let report = probe_with(g, quotient.as_ref().and_then(Option::as_ref), ws);
        ws.phases.probe_s += t0.elapsed().as_secs_f64();
        report
    }

    /// Nested dissection of this graph; see [`crate::nd_graph()`].
    pub fn nd_graph(&mut self, opts: &NdGraphOptions) -> (Permutation, SeparatorTree) {
        if opts.compress {
            self.ensure_quotient();
        }
        let Self { g, quotient, ws } = self;
        let quotient = if opts.compress {
            quotient.as_ref().and_then(Option::as_ref)
        } else {
            None
        };
        dissect(g, quotient, opts, ws)
    }

    /// Minimum-degree ordering of this graph; see [`crate::minimum_degree`].
    pub fn minimum_degree(&mut self) -> Permutation {
        minimum_degree_with(&self.g, &mut self.ws.mindeg)
    }
}

#[cfg(test)]
mod tests {
    //! Workspace reuse is invisible: ordering graph A, then B, then A again
    //! through one workspace gives exactly what three fresh calls give.
    //! [`Workspace::enter`] re-checks every between-calls invariant on the
    //! way in, so a stage that leaves scratch dirty fails here in debug
    //! builds even if the stale state happens not to change the output.

    use super::*;
    use crate::coarsen::{coarsen, coarsen_into};
    use crate::fm::{self, FmOptions, HIGH, LOW, SEP};
    use crate::nd::{order_base, BaseOrdering};
    use proptest::prelude::*;

    fn graph(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
        let coords = edges
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a.max(b), a.min(b)));
        Graph::from_pattern(&SparsityPattern::from_coords(n, coords).unwrap())
    }

    /// Empty, single-vertex, fully disconnected, clique above the dissection
    /// cutoff, random sparse, random sparse with 3 identical dofs per node
    /// (compresses), and grids large enough to coarsen.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        let raw = (
            0u8..7,
            3usize..140,
            proptest::collection::vec((any::<u32>(), any::<u32>()), 0..360),
        );
        raw.prop_map(|(kind, n, picks)| {
            let random = |n: usize| {
                picks
                    .iter()
                    .map(move |&(a, b)| (a % n as u32, b % n as u32))
            };
            match kind {
                0 => graph(0, []),
                1 => graph(1, []),
                2 => graph(n, []),
                3 => {
                    let k = 66 + n as u32 % 30;
                    graph(k as usize, (0..k).flat_map(|i| (0..i).map(move |j| (i, j))))
                }
                4 => graph(n, random(n)),
                5 => {
                    // Node edges expanded to 3×3 dof blocks, plus the
                    // intra-node triangle.
                    let dof = |(a, b): (u32, u32)| {
                        (0..3u32).flat_map(move |i| (0..3u32).map(move |j| (3 * a + i, 3 * b + j)))
                    };
                    let within = (0..n as u32).flat_map(|v| {
                        [
                            (3 * v + 1, 3 * v),
                            (3 * v + 2, 3 * v),
                            (3 * v + 2, 3 * v + 1),
                        ]
                    });
                    graph(
                        3 * n,
                        random(n)
                            .filter(|(a, b)| a != b)
                            .flat_map(dof)
                            .chain(within),
                    )
                }
                _ => {
                    let k = 8 + n as u32 % 14;
                    let cell = move |r: u32, c: u32| r * k + c;
                    let right =
                        (0..k).flat_map(move |r| (1..k).map(move |c| (cell(r, c), cell(r, c - 1))));
                    let down =
                        (1..k).flat_map(move |r| (0..k).map(move |c| (cell(r, c), cell(r - 1, c))));
                    graph((k * k) as usize, right.chain(down))
                }
            }
        })
    }

    fn whole(g: &Graph) -> LevelGraph {
        let all: Vec<u32> = (0..g.n() as u32).collect();
        LevelGraph::from_region(g, &all, |_| 1)
    }

    /// A valid (no low–high edge) but poor three-way labeling to refine.
    fn rough_labels(lg: &LevelGraph) -> Vec<u8> {
        let n = lg.n();
        let label_of = |v: usize| {
            if v < n / 3 {
                LOW
            } else if lg.neighbors(v).iter().any(|&u| (u as usize) < n / 3) {
                SEP
            } else {
                HIGH
            }
        };
        (0..n).map(label_of).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn workspace_reuse_nd_graph(a in arb_graph(), b in arb_graph()) {
            for opts in [NdGraphOptions::default(), NdGraphOptions::single_level_greedy()] {
                let mut ws = Workspace::default();
                for g in [&a, &b, &a] {
                    let q = compress(g);
                    let reused = dissect(g, q.as_ref(), &opts, &mut ws);
                    prop_assert_eq!(reused, crate::nd_graph(g, &opts));
                }
            }
        }

        #[test]
        fn workspace_reuse_minimum_degree_via_order_base(a in arb_graph(), b in arb_graph()) {
            let mut ws = Workspace::default();
            for g in [&a, &b, &a] {
                ws.enter(g.n());
                let all: Vec<u32> = (0..g.n() as u32).collect();
                let mut reused = Vec::new();
                order_base(g, BaseOrdering::MinimumDegree, &all, &mut reused, &mut ws.local, &mut ws.mindeg);
                let fresh = crate::minimum_degree(g);
                let fresh: Vec<u32> = (0..g.n()).map(|k| fresh.old_of_new(k) as u32).collect();
                // Regions of one or two vertices keep their natural order.
                prop_assert!(reused == fresh || g.n() <= 2 && reused == all);
            }
        }

        #[test]
        fn workspace_reuse_fm_refine(a in arb_graph(), b in arb_graph()) {
            let mut ws = Workspace::default();
            for g in [&a, &b, &a] {
                ws.enter(g.n());
                let lg = whole(g);
                let opts = FmOptions { passes: 6, ..Default::default() };
                let mut reused = rough_labels(&lg);
                fm::refine_with(&lg, &mut reused, &opts, &mut ws.fm);
                let mut fresh = rough_labels(&lg);
                fm::refine(&lg, &mut fresh, &opts);
                prop_assert_eq!(reused, fresh);
            }
        }

        #[test]
        fn workspace_reuse_coarsen(a in arb_graph(), b in arb_graph()) {
            let mut ws = Workspace::default();
            ws.level(1);
            for g in [&a, &b, &a] {
                let lg = whole(g);
                let Workspace { levels, maps, coarsen: scratch, .. } = &mut ws;
                let shrank = coarsen_into(&lg, &mut levels[1], &mut maps[0], scratch);
                let fresh = coarsen(&lg);
                prop_assert_eq!(shrank, fresh.is_some());
                if let Some((cg, map)) = fresh {
                    let reused = &levels[1];
                    prop_assert_eq!(&maps[0], &map);
                    prop_assert_eq!(&reused.adj_ptr, &cg.adj_ptr);
                    prop_assert_eq!(&reused.adj, &cg.adj);
                    prop_assert_eq!(&reused.ewt, &cg.ewt);
                    prop_assert_eq!(&reused.vwt, &cg.vwt);
                }
            }
        }
    }

    #[test]
    fn orderer_methods_match_the_free_functions_in_any_order() {
        let p = sparsemat::gen::bcsstk_like("W", 600, 5);
        let g = Graph::from_pattern(p.matrix.pattern());
        let opts = NdGraphOptions::default();
        let mut o = Orderer::new(&g);
        let before = compressions_on_this_thread();
        for _ in 0..2 {
            assert_eq!(o.nd_graph(&opts), crate::nd_graph(&g, &opts));
            assert_eq!(
                format!("{:?}", o.probe()),
                format!("{:?}", crate::probe_structure(&g))
            );
            assert_eq!(o.minimum_degree(), crate::minimum_degree(&g));
        }
        // Four fresh orderers (two free dissections, two free probes) plus
        // the one shared by all six method calls.
        assert_eq!(compressions_on_this_thread() - before, 5);
        let ph = o.phases();
        assert!(ph.compress_s > 0.0 && ph.fm_s > 0.0 && ph.base_s > 0.0 && ph.probe_s > 0.0);
    }
}
