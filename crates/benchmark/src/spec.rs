//! The names this benchmark reports under: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root mirrors these tables; `tests/contract.rs` fails when
//! the two disagree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// One line: which layer it stresses and what it is the bypass for.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cube3d",
        why: "CUBE30 cold requests: numeric-factor-bound, huge top separators; dense kernels and the fanout critical path dominate, and a second worker gains 10 % at best today",
    },
    Workload {
        name: "grid2d",
        why: "GRID300 cold requests: analysis-bound, ordering is ~3/4 of a solve; cheaper analysis shows here, a kernel change barely does (the bypass for dense)",
    },
    Workload {
        name: "irregular",
        why: "BCSSTK29-class mesh under pinned minimum degree: ragged supernodes, the paper's regime where cyclic and heuristic mappings differ; the bypass for nd_graph",
    },
    Workload {
        name: "serve",
        why: "COPTER-class mesh analysed once, then refactor+resolve cycles and 8-RHS batches: the reuse path, where an ordering or symbolic change must not move the cycle metrics",
    },
];

/// An end-to-end metric: what a user of the solver would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them (the
/// cold workloads run a short session phase on their own matrix, and `serve`
/// runs a few cold requests), because the acceptance contract reads the same
/// metric set from every run; the workload a metric is *meant* for is in the
/// README's table.
///
/// `factor_par_s` — the two-worker `factor_sched` of each cold request — is
/// measured and printed by every untraced run but is *not* in this gated
/// set: on this host the same binary reads 0.088 s or 0.150 s on `irregular`
/// for tens of minutes at a stretch (the cost of cross-vCPU synchronisation
/// changes with where the host places the two vCPUs), which no bound up to
/// the contract's 25 % cap can contain. Its per-layer twins are
/// `fanout.sched.wN_s` and `fanout.sched.speedup`.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "oneshot_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "factor_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cycle_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cycle_p95_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_rhs_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_efficiency_p64",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric, named `<crate>.<metric>`; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of the traced run, grouped by crate.
pub const PER_LAYER: [PerLayer; 79] = [
    lo("sparsemat.graph_build_s", "s"),
    lo("sparsemat.permute_s", "s"),
    lo("sparsemat.n", "count"),
    lo("sparsemat.nnz_a", "count"),
    lo("ordering.probe_s", "s"),
    lo("ordering.order_s", "s"),
    lo("ordering.nnz_l", "count"),
    lo("ordering.ops", "count"),
    lo("symbolic.analyze_s", "s"),
    lo("symbolic.etree_s", "s"),
    lo("symbolic.colcount_s", "s"),
    lo("symbolic.supernodes_s", "s"),
    lo("symbolic.par_analyze_s", "s"),
    hi("symbolic.par_speedup", "ratio"),
    lo("symbolic.supernodes", "count"),
    lo("blockmat.partition_s", "s"),
    lo("blockmat.blocks", "count"),
    lo("blockmat.block_ops", "count"),
    lo("blockmat.panels", "count"),
    lo("blockmat.pad_frac", "ratio"),
    lo("mapping.assign_p64_s", "s"),
    hi("balance.overall_p16", "ratio"),
    hi("balance.overall_p64", "ratio"),
    hi("balance.overall_p64_cyclic", "ratio"),
    hi("balance.row_p64", "ratio"),
    hi("balance.col_p64", "ratio"),
    hi("balance.diag_p64", "ratio"),
    lo("balance.comm_msgs_p64", "count"),
    lo("balance.comm_bytes_p64", "bytes"),
    hi("simgrid.efficiency_p64", "ratio"),
    hi("simgrid.efficiency_p64_cyclic", "ratio"),
    hi("simgrid.heuristic_gain_p64", "ratio"),
    hi("simgrid.efficiency_p16", "ratio"),
    lo("simgrid.makespan_p64_s", "s"),
    lo("simgrid.msgs_p64", "count"),
    lo("simgrid.sim_wall_s", "s"),
    hi("dense.gemm48_gflops", "Gflop/s"),
    hi("dense.gemm192_gflops", "Gflop/s"),
    hi("dense.syrk48_gflops", "Gflop/s"),
    hi("dense.potrf48_gflops", "Gflop/s"),
    hi("dense.trsm48_gflops", "Gflop/s"),
    lo("fanout.assemble_s", "s"),
    lo("fanout.plan_build_s", "s"),
    lo("fanout.seq.factor_s", "s"),
    hi("fanout.seq.gflops", "Gflop/s"),
    hi("fanout.seq.kernel_frac", "ratio"),
    lo("fanout.critpath_frac", "ratio"),
    lo("fanout.sched.w1_s", "s"),
    lo("fanout.sched.wN_s", "s"),
    hi("fanout.sched.speedup", "ratio"),
    hi("fanout.sched.utilisation", "ratio"),
    lo("fanout.sched.busy_inflation", "ratio"),
    lo("fanout.sched.spawn_overhead_s", "s"),
    lo("fanout.sched.steals", "count"),
    lo("fanout.sched.idle_polls", "count"),
    lo("fanout.sched.spurious_claims", "count"),
    lo("fanout.sched.tasks_run", "count"),
    lo("fanout.sched.bfac_s", "s"),
    lo("fanout.sched.bmod_s", "s"),
    lo("fanout.sched.idle_s", "s"),
    lo("fanout.sched.steal_s", "s"),
    lo("fanout.solve.csc_extract_s", "s"),
    lo("fanout.solve.trisolve_s", "s"),
    lo("core.analyze_s", "s"),
    lo("core.cache.miss_s", "s"),
    lo("core.cache.hit_s", "s"),
    lo("core.session.open_s", "s"),
    lo("core.session.first_refactor_s", "s"),
    lo("core.session.refactor_s", "s"),
    lo("core.session.resolve_s", "s"),
    lo("core.session.resolve_many8_s", "s"),
    lo("core.session.retries", "count"),
    lo("core.session.perturbed_pivots", "count"),
    lo("core.resource_estimate_mb", "MiB"),
    lo("core.backward_error_max", "ratio"),
    lo("trace.overhead_frac", "ratio"),
    lo("trace.events", "count"),
    lo("trace.dropped", "count"),
    lo("trace.layer_sum_frac", "ratio"),
];
