//! Regression: component search must be linear in the graph, not in
//! `n · #components`.
//!
//! `Graph::bfs` used to allocate and zero a fresh `n`-sized visited set per
//! call, and `Graph::components`, the probe's largest-component search and
//! the dissection's component split each called it once per component — a
//! graph that is mostly isolated vertices cost ≈ 5× per doubling of `n`
//! (0.2 s at n = 80 000, several seconds here). With one visited set per
//! traversal all three are O(n + m).

use ordering::{nd_graph, probe_structure, NdGraphOptions};
use sparsemat::{Graph, SparsityPattern};
use std::time::{Duration, Instant};

/// A 20×20 grid on vertices `0..400` plus isolated vertices up to `n`.
fn grid_plus_isolated(n: usize) -> Graph {
    let mut coords = Vec::new();
    for r in 0..20u32 {
        for c in 0..20u32 {
            let v = r * 20 + c;
            if c > 0 {
                coords.push((v, v - 1));
            }
            if r > 0 {
                coords.push((v, v - 20));
            }
        }
    }
    Graph::from_pattern(&SparsityPattern::from_coords(n, coords).unwrap())
}

#[test]
fn two_hundred_thousand_components_order_in_linear_time() {
    let n = 200_000;
    let g = grid_plus_isolated(n);
    // The quadratic search needed ≈ 3 s here in either profile (its cost is
    // zeroing memory, which debug builds do just as fast); the linear one
    // needs 0.07 s in release and 0.3 s in debug.
    let ceiling = Duration::from_secs(if cfg!(debug_assertions) { 2 } else { 1 });

    let t0 = Instant::now();
    let alive = vec![true; n];
    let comps = g.components(&alive);
    assert_eq!(comps.len(), n - 400 + 1);
    assert_eq!(comps[0].len(), 400);
    let report = probe_structure(&g);
    assert_eq!(report.n, n);
    let (perm, tree) = nd_graph(&g, &NdGraphOptions::default());
    let took = t0.elapsed();

    assert_eq!(perm.len(), n);
    let mut seen = vec![false; n];
    for k in 0..n {
        assert!(!std::mem::replace(&mut seen[perm.old_of_new(k)], true));
    }
    tree.validate().unwrap();
    assert!(
        took < ceiling,
        "components + probe + nd_graph took {took:?} (ceiling {ceiling:?})"
    );
}
