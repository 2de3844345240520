//! Output-identity pins for the ordering layer.
//!
//! The constants below were recorded from the commit *before* the ordering
//! workspace existed (PR 11, `25b9d48`). Every performance change to
//! `compress`, `coarsen`, `fm`, `mindeg`, `probe` or the dissection
//! recursion must reproduce them exactly: same permutation, same separator
//! tree, same `ProbeReport` — hence the same `SymbolicPlan` and the same
//! factor bits downstream. To re-record after an *intentional* ordering
//! change, run with `IDENTITY_PRINT=1` and paste the printed rows.
//!
//! `cargo test --release -p ordering --test identity -- --include-ignored`
//! adds the benchmark-scale pins (exact `nnz(L)` and flop counts).

use ordering::{minimum_degree, nd_graph, probe_structure, NdGraphOptions, ProbeChoice};
use sparsemat::{gen, Graph, Permutation, SparsityPattern};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

fn hash_u32s(mut h: u64, xs: &[u32]) -> u64 {
    h = mix(h, xs.len() as u64);
    for &x in xs {
        h = mix(h, u64::from(x));
    }
    h
}

fn hash_perm(h: u64, p: &Permutation) -> u64 {
    let old_of_new: Vec<u32> = (0..p.len()).map(|k| p.old_of_new(k) as u32).collect();
    hash_u32s(h, &old_of_new)
}

/// Hash of `(old_of_new, SeparatorTree{parent, col_start, col_end,
/// first_desc_col})`.
fn nd_hash(g: &Graph, opts: &NdGraphOptions) -> u64 {
    let (perm, tree) = nd_graph(g, opts);
    tree.validate().unwrap();
    let mut h = hash_perm(FNV_OFFSET, &perm);
    for part in [
        &tree.parent,
        &tree.col_start,
        &tree.col_end,
        &tree.first_desc_col,
    ] {
        h = hash_u32s(h, part);
    }
    mix(h, u64::from(tree.n))
}

fn md_hash(g: &Graph) -> u64 {
    hash_perm(FNV_OFFSET, &minimum_degree(g))
}

/// Every `ProbeReport` field, floats by bit pattern.
#[derive(Debug, PartialEq, Eq)]
struct Probe {
    nd: bool,
    n: usize,
    sep_weight: usize,
    balance: u64,
    alpha: u64,
    nd_flops_est: u64,
    md_flops_est: u64,
}

fn probe_of(g: &Graph) -> Probe {
    let r = probe_structure(g);
    Probe {
        nd: r.choice == ProbeChoice::NestedDissection,
        n: r.n,
        sep_weight: r.sep_weight,
        balance: r.balance.to_bits(),
        alpha: r.alpha.to_bits(),
        nd_flops_est: r.nd_flops_est.to_bits(),
        md_flops_est: r.md_flops_est.to_bits(),
    }
}

fn graph_of(p: &sparsemat::Problem) -> Graph {
    Graph::from_pattern(p.matrix.pattern())
}

/// Three 12×12 grids, a 40-path, a triangle and 25 isolated vertices, with
/// the vertex ids interleaved so components are not contiguous.
fn disconnected() -> Graph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut next = 0u32;
    let mut fresh = |k: usize| -> Vec<u32> {
        let ids: Vec<u32> = (next..next + k as u32).collect();
        next += k as u32;
        ids
    };
    for _ in 0..3 {
        let ids = fresh(144);
        for r in 0..12 {
            for c in 0..12 {
                if c > 0 {
                    edges.push((ids[r * 12 + c], ids[r * 12 + c - 1]));
                }
                if r > 0 {
                    edges.push((ids[r * 12 + c], ids[(r - 1) * 12 + c]));
                }
            }
        }
    }
    let path = fresh(40);
    for w in path.windows(2) {
        edges.push((w[1], w[0]));
    }
    let tri = fresh(3);
    edges.extend([(tri[1], tri[0]), (tri[2], tri[1]), (tri[2], tri[0])]);
    let n = (next + 25) as usize;
    // Interleave: relabel v -> (v * 7) mod n (7 is coprime to n = 500).
    assert_eq!(n, 500);
    let relabel = |v: u32| (v * 7) % n as u32;
    let coords: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(a, b)| {
            let (a, b) = (relabel(a), relabel(b));
            (a.max(b), a.min(b))
        })
        .collect();
    Graph::from_pattern(&SparsityPattern::from_coords(n, coords).unwrap())
}

/// A 200-clique (above both the dissection cutoff and the probe's small-n
/// short circuit): compresses to one supervariable.
fn clique() -> Graph {
    let mut coords = Vec::new();
    for i in 0..200u32 {
        for j in 0..i {
            coords.push((i, j));
        }
    }
    Graph::from_pattern(&SparsityPattern::from_coords(200, coords).unwrap())
}

struct Pin {
    name: &'static str,
    /// `nd_graph`, default options.
    nd: u64,
    /// `nd_graph` without compression or coarsening, greedy thinning: the
    /// other code path through the same recursion.
    nd_greedy: u64,
    md: u64,
    probe: Probe,
}

fn check(name: &str, g: &Graph, pins: &[Pin]) {
    let greedy = NdGraphOptions {
        compress: false,
        ..NdGraphOptions::single_level_greedy()
    };
    let got = Pin {
        name: "",
        nd: nd_hash(g, &NdGraphOptions::default()),
        nd_greedy: nd_hash(g, &greedy),
        md: md_hash(g),
        probe: probe_of(g),
    };
    if std::env::var_os("IDENTITY_PRINT").is_some() {
        println!(
            "Pin {{ name: {name:?}, nd: {:#018x}, nd_greedy: {:#018x}, md: {:#018x}, probe: {:?} }},",
            got.nd, got.nd_greedy, got.md, got.probe
        );
        return;
    }
    let want = pins.iter().find(|p| p.name == name).expect("pin recorded");
    assert_eq!(got.nd, want.nd, "{name}: nd_graph permutation/tree moved");
    assert_eq!(
        got.nd_greedy, want.nd_greedy,
        "{name}: greedy nd_graph permutation/tree moved"
    );
    assert_eq!(got.md, want.md, "{name}: minimum_degree permutation moved");
    assert_eq!(got.probe, want.probe, "{name}: ProbeReport moved");
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { name: "grid2d(40)", nd: 0xc2d51ab476e9767f, nd_greedy: 0x25a8771cee035967, md: 0x75723ae702d5e403, probe: Probe { nd: true, n: 1600, sep_weight: 34, balance: 4599987918395293041, alpha: 4605746163469946848, nd_flops_est: 4688715681628551599, md_flops_est: 4692565166053654528 } },
    Pin { name: "cube3d(12)", nd: 0xcdc2e3c4c7423586, nd_greedy: 0x3606e23c8a61234d, md: 0x4dff8d74f101eedb, probe: Probe { nd: true, n: 1728, sep_weight: 102, balance: 4599384519445218494, alpha: 4607277680519392037, nd_flops_est: 4705879949543006514, md_flops_est: 4710938218584627084 } },
    Pin { name: "bcsstk_like(B,1500,3)", nd: 0x5684d938b7e910a3, nd_greedy: 0x5052c84928d733bb, md: 0x17c293a06d1de7b5, probe: Probe { nd: true, n: 1500, sep_weight: 66, balance: 4600242001738999549, alpha: 4599976659396224614, nd_flops_est: 4707889628648253284, md_flops_est: 4710357083109720064 } },
    Pin { name: "copter_like(S,2000,1)", nd: 0xeba9a3fa95158ffc, nd_greedy: 0xbe5a76c9a1327a9a, md: 0xd9dd3a145769b40c, probe: Probe { nd: true, n: 1998, sep_weight: 30, balance: 4600433781520564322, alpha: 4599976659396224614, nd_flops_est: 4706442809780789265, md_flops_est: 4708394543173851375 } },
    Pin { name: "disconnected", nd: 0xed858e18b5cbeb59, nd_greedy: 0x88e1944464c5712a, md: 0xeceac38daa335809, probe: Probe { nd: true, n: 500, sep_weight: 10, balance: 4599301119452119040, alpha: 4607459917238986739, nd_flops_est: 4667635273209025853, md_flops_est: 4673529149443276800 } },
    Pin { name: "clique200", nd: 0x81e288c1050732aa, nd_greedy: 0x47bccaab7af3c5ad, md: 0x15b1f78d44ffad07, probe: Probe { nd: false, n: 200, sep_weight: 0, balance: 0, alpha: 0, nd_flops_est: 9218868437227405312, md_flops_est: 4703066361092374528 } },
];

#[test]
fn ordering_outputs_match_the_recorded_parent() {
    check("grid2d(40)", &graph_of(&gen::grid2d(40)), PINS);
    check("cube3d(12)", &graph_of(&gen::cube3d(12)), PINS);
    check(
        "bcsstk_like(B,1500,3)",
        &graph_of(&gen::bcsstk_like("B", 1500, 3)),
        PINS,
    );
    check(
        "copter_like(S,2000,1)",
        &graph_of(&gen::copter_like("S", 2000, 1)),
        PINS,
    );
    check("disconnected", &disconnected(), PINS);
    check("clique200", &clique(), PINS);
}

/// Exact `(nnz(L), Σ η(η+3))` of `g` under `perm`, by elimination-tree
/// column merging (O(nnz(L))).
fn fill_counts(g: &Graph, perm: &Permutation) -> (u64, u64) {
    const NONE: u32 = u32::MAX;
    let m = g.n();
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); m];
    let mut head = vec![NONE; m];
    let mut next = vec![NONE; m];
    let mut mark = vec![NONE; m];
    let (mut nnz, mut ops) = (0u64, 0u64);
    for k in 0..m {
        mark[k] = k as u32;
        let mut st: Vec<u32> = Vec::new();
        for &u in g.neighbors(perm.old_of_new(k)) {
            let nu = perm.new_of_old(u as usize) as u32;
            if nu > k as u32 && mark[nu as usize] != k as u32 {
                mark[nu as usize] = k as u32;
                st.push(nu);
            }
        }
        let mut c = head[k];
        while c != NONE {
            for x in std::mem::take(&mut cols[c as usize]) {
                if x != k as u32 && mark[x as usize] != k as u32 {
                    mark[x as usize] = k as u32;
                    st.push(x);
                }
            }
            c = next[c as usize];
        }
        let eta = st.len() as u64;
        nnz += eta + 1;
        ops += eta * (eta + 3);
        if let Some(&p) = st.iter().min() {
            next[k] = head[p as usize];
            head[p as usize] = k as u32;
            cols[k] = st;
        }
    }
    (nnz, ops)
}

struct ScalePin {
    name: &'static str,
    nd: u64,
    nd_fill: (u64, u64),
    md_fill: (u64, u64),
}

#[rustfmt::skip]
const SCALE_PINS: &[ScalePin] = &[
    ScalePin { name: "grid2d(300)", nd: 0x3146c1abc954e911, nd_fill: (2283775, 271044064), md_fill: (2855608, 478255746) },
    ScalePin { name: "cube3d(30)", nd: 0xe3dd9bd9cd9d4e52, nd_fill: (3343326, 1640377450), md_fill: (5550098, 4962905590) },
    ScalePin { name: "copter_like(S,20000,1)", nd: 0x2ebd0d4188c21425, nd_fill: (2907317, 701903442), md_fill: (3082899, 834179136) },
];

fn check_scale(name: &str, g: &Graph) {
    let (nd_perm, tree) = nd_graph(g, &NdGraphOptions::default());
    tree.validate().unwrap();
    let got = ScalePin {
        name: "",
        nd: nd_hash(g, &NdGraphOptions::default()),
        nd_fill: fill_counts(g, &nd_perm),
        md_fill: fill_counts(g, &minimum_degree(g)),
    };
    if std::env::var_os("IDENTITY_PRINT").is_some() {
        println!(
            "ScalePin {{ name: {name:?}, nd: {:#018x}, nd_fill: {:?}, md_fill: {:?} }},",
            got.nd, got.nd_fill, got.md_fill
        );
        return;
    }
    let want = SCALE_PINS
        .iter()
        .find(|p| p.name == name)
        .expect("pin recorded");
    assert_eq!(
        got.nd_fill, want.nd_fill,
        "{name}: nd_graph (nnz(L), ops) moved"
    );
    assert_eq!(
        got.md_fill, want.md_fill,
        "{name}: minimum_degree (nnz(L), ops) moved"
    );
    assert_eq!(got.nd, want.nd, "{name}: nd_graph permutation/tree moved");
}

#[test]
#[ignore = "benchmark scale: run in release (see the module docs)"]
fn benchmark_scale_fill_and_flops_match_the_recorded_parent() {
    check_scale("grid2d(300)", &graph_of(&gen::grid2d(300)));
    check_scale("cube3d(30)", &graph_of(&gen::cube3d(30)));
    check_scale(
        "copter_like(S,20000,1)",
        &graph_of(&gen::copter_like("S", 20000, 1)),
    );
}
