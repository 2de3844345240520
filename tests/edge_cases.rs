//! Degenerate and boundary inputs through the full pipeline.

use block_fanout_cholesky::core::{
    ColPolicy, Heuristic, MachineModel, ProcGrid, RowPolicy, SchedOptions, SolveWorkspace, Solver,
    SolverOptions,
};
use block_fanout_cholesky::sparsemat::{gen, Problem, SymCscMatrix};

fn problem_of(a: SymCscMatrix) -> Problem {
    Problem::new("edge", a, None, gen::OrderingHint::MinimumDegree)
}

#[test]
fn one_by_one_matrix() {
    let a = SymCscMatrix::from_coords(1, &[(0, 0, 4.0)]).unwrap();
    let p = problem_of(a);
    let solver = Solver::analyze_problem(&p, &SolverOptions::default());
    let f = solver.factor_seq().unwrap();
    assert!((f.get(0, 0) - 2.0).abs() < 1e-15);
    let x = solver.solve(&f, &[8.0]);
    assert!((x[0] - 2.0).abs() < 1e-12);
    // Parallel paths and simulation on the degenerate case.
    let asg = solver.assign_cyclic(1);
    let f2 = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
    assert!((f2.get(0, 0) - 2.0).abs() < 1e-15);
    let out = solver.simulate(&asg, &MachineModel::paragon());
    assert!(out.report.makespan_s > 0.0);
}

#[test]
fn diagonal_matrix_has_no_communication() {
    let coords: Vec<(u32, u32, f64)> = (0..12).map(|i| (i, i, (i + 1) as f64)).collect();
    let a = SymCscMatrix::from_coords(12, &coords).unwrap();
    let p = problem_of(a);
    let solver = Solver::analyze_problem(&p, &SolverOptions { block_size: 2, ..Default::default() });
    // Each column is its own supernode chain with empty below-structure;
    // no BMODs, no BDIVs beyond... verify the factor and zero messages.
    let asg = solver.assign_cyclic(4);
    let comm = solver.comm(&asg);
    assert_eq!(comm.messages, 0, "diagonal matrix should not communicate");
    let f = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
    // Factor positions are in the fill-reduced ordering.
    for i in 0..12 {
        let old = solver.analysis.perm.old_of_new(i);
        assert!((f.get(i, i) - ((old + 1) as f64).sqrt()).abs() < 1e-14);
    }
}

#[test]
fn more_processors_than_panels() {
    let p = gen::grid2d(4); // 16 columns
    let solver = Solver::analyze_problem(&p, &SolverOptions { block_size: 8, ..Default::default() });
    assert!(solver.bm.num_panels() < 64);
    let asg = solver.assign_cyclic(64);
    let f = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
    assert!(solver.residual(&f) < 1e-12);
    let out = solver.simulate(&asg, &MachineModel::paragon());
    assert!(out.efficiency > 0.0);
}

#[test]
fn single_column_strip_grid() {
    // A path graph: tridiagonal system, deep chain elimination tree.
    let edges: Vec<(u32, u32, f64)> = (0..29).map(|i| (i, i + 1, 1.0)).collect();
    let a = gen::spd_from_edges(30, &edges);
    let p = problem_of(a);
    let solver = Solver::analyze_problem(&p, &SolverOptions { block_size: 4, ..Default::default() });
    let f = solver.factor_seq().unwrap();
    assert!(solver.residual(&f) < 1e-14);
    // The chain has almost no concurrency: critical path ≈ sequential time.
    let cp = solver.critical_path(&MachineModel::paragon());
    assert!(cp.max_speedup() < 4.0, "path graph speedup {}", cp.max_speedup());
}

#[test]
fn block_size_larger_than_matrix() {
    let p = gen::dense(10);
    let solver =
        Solver::analyze_problem(&p, &SolverOptions { block_size: 64, ..Default::default() });
    assert_eq!(solver.bm.num_panels(), 1);
    let f = solver.factor_seq().unwrap();
    assert!(solver.residual(&f) < 1e-12);
}

#[test]
fn one_by_n_grid_assignment() {
    // Extremely rectangular processor grids behave.
    let p = gen::grid2d(8);
    let solver = Solver::analyze_problem(&p, &SolverOptions { block_size: 3, ..Default::default() });
    for grid in [ProcGrid::new(1, 7), ProcGrid::new(7, 1)] {
        let asg = solver.assign_on_grid(
            grid,
            RowPolicy::Heuristic(Heuristic::DecreasingWork),
            ColPolicy::Heuristic(Heuristic::IncreasingDepth),
        );
        let f = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
        assert!(solver.residual(&f) < 1e-12);
        let rep = solver.balance(&asg);
        assert!(rep.overall > 0.0 && rep.overall <= 1.0);
    }
}

#[test]
fn disconnected_components_factor_independently() {
    // Two disjoint grids in one matrix.
    let g = gen::grid2d(4);
    let mut coords = Vec::new();
    for j in 0..16 {
        for (&i, &v) in g.matrix.col_rows(j).iter().zip(g.matrix.col_values(j)) {
            coords.push((i, j as u32, v));
            coords.push((i + 16, j as u32 + 16, v));
        }
    }
    let a = SymCscMatrix::from_coords(32, &coords).unwrap();
    let p = problem_of(a);
    let solver = Solver::analyze_problem(&p, &SolverOptions { block_size: 3, ..Default::default() });
    let f = solver.factor_seq().unwrap();
    assert!(solver.residual(&f) < 1e-12);
    let asg = solver.assign_heuristic(4);
    let f2 = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
    assert!(solver.residual(&f2) < 1e-12);
}

// ---------------------------------------------------------------------------
// Malformed matrix files: every corrupted input must come back as a
// structured `sparsemat::Error` naming the offending line — never a panic.
// ---------------------------------------------------------------------------

mod malformed_input {
    use block_fanout_cholesky::sparsemat::io::read_matrix_market;
    use block_fanout_cholesky::sparsemat::{hb::read_harwell_boeing, Error};
    use std::io::BufReader;

    /// The 3×3 packed RSA sample also used by the sparsemat unit tests:
    /// tridiagonal [4 -1; -1 4 -1; -1 4], lower triangle, 5 entries.
    fn rsa() -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<72}{:<8}\n", "Edge-case corpus", "EDGE"));
        s.push_str(&format!("{:>14}{:>14}{:>14}{:>14}{:>14}\n", 4, 1, 1, 2, 0));
        s.push_str(&format!("{:<14}{:>14}{:>14}{:>14}{:>14}\n", "RSA", 3, 3, 5, 0));
        s.push_str(&format!("{:<16}{:<16}{:<20}{:<20}\n", "(4I4)", "(5I4)", "(3E20.12)", ""));
        s.push_str("   1   3   5   6\n");
        s.push_str("   1   2   2   3   3\n");
        s.push_str(&format!("{:>20.12E}{:>20.12E}{:>20.12E}\n", 4.0f64, -1.0f64, 4.0f64));
        s.push_str(&format!("{:>20.12E}{:>20.12E}\n", -1.0f64, 4.0f64));
        s
    }

    fn read_hb(text: &str) -> Result<block_fanout_cholesky::sparsemat::SymCscMatrix, Error> {
        read_harwell_boeing(BufReader::new(text.as_bytes()))
    }

    #[test]
    fn pristine_sample_reads() {
        let a = read_hb(&rsa()).unwrap();
        assert_eq!(a.n(), 3);
    }

    #[test]
    fn truncation_at_every_line_is_structured() {
        // Cut the file after each of its 8 lines in turn; every prefix must
        // produce a structured error (typically "unexpected end of file"
        // with the line number just past the cut).
        let text = rsa();
        let full: Vec<&str> = text.lines().collect();
        for keep in 0..full.len() {
            let text = full[..keep].join("\n");
            let err = read_hb(&text).unwrap_err();
            assert!(
                matches!(err, Error::Parse { .. }),
                "prefix of {keep} lines: expected Parse, got {err:?}"
            );
        }
    }

    #[test]
    fn non_monotone_column_pointers_rejected() {
        let text = rsa().replacen("   1   3   5   6", "   1   5   3   6", 1);
        match read_hb(&text).unwrap_err() {
            Error::Parse { line: 5, msg } => {
                assert!(msg.contains("column pointer"), "msg: {msg}")
            }
            other => panic!("expected line-5 pointer error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_row_index_rejected() {
        let text = rsa().replacen("   1   2   2   3   3", "   1   2   2   9   3", 1);
        match read_hb(&text).unwrap_err() {
            Error::Parse { line: 6, msg } => {
                assert!(msg.contains("out of range"), "msg: {msg}")
            }
            other => panic!("expected line-6 index error, got {other:?}"),
        }
    }

    #[test]
    fn non_numeric_tokens_rejected_with_line() {
        // Garbage in the index section (line 6) and the value section
        // (line 7), same byte widths so the fixed-width split is unchanged.
        for (from, to, line) in [
            ("   1   2   2   3   3", "   1   2  up   3   3", 6),
            ("4.000000000000E0", "4.00zz00000000E0", 7),
        ] {
            let text = rsa().replacen(from, to, 1);
            match read_hb(&text).unwrap_err() {
                Error::Parse { line: l, .. } if l == line => {}
                other => panic!("expected line-{line} error, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_garbage_is_line_annotated() {
        // Non-numeric ptrcrd count on line 2 (second 14-column field).
        let text =
            rsa().replacen("             4             1", "             4           one", 1);
        assert!(matches!(read_hb(&text).unwrap_err(), Error::Parse { line: 2, .. }));
    }

    #[test]
    fn matrix_market_truncations_are_structured() {
        let full = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 4.0\n2 1 -1.0\n";
        let lines: Vec<&str> = full.lines().collect();
        for keep in 0..lines.len() {
            let text = lines[..keep].join("\n");
            let err = read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(
                matches!(err, Error::Parse { .. }),
                "prefix of {keep} lines: expected Parse, got {err:?}"
            );
        }
    }
}

#[test]
fn nearly_singular_matrix_solves_with_refinement() {
    // Weakly dominant: a_ii barely exceeds the off-diagonal row sums.
    let edges: Vec<(u32, u32, f64)> = (0..49).map(|i| (i, i + 1, 1.0)).collect();
    let mut a = gen::spd_from_edges(50, &edges);
    // Rebuild with a tiny dominance margin.
    let mut coords = Vec::new();
    for j in 0..50usize {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            let v = if i as usize == j { v - 0.9999 } else { v };
            coords.push((i, j as u32, v));
        }
    }
    a = SymCscMatrix::from_coords(50, &coords).unwrap();
    let p = problem_of(a.clone());
    let solver = Solver::analyze_problem(&p, &SolverOptions::default());
    let f = solver.factor_seq().unwrap();
    let x_true = vec![1.0; 50];
    let mut b = vec![0.0; 50];
    a.mul_vec(&x_true, &mut b);
    let (x, resid) = solver.solve_refined(&a, &f, &b, 5, &mut SolveWorkspace::new());
    assert!(resid < 1e-12, "refined residual {resid}");
    let _ = x;
}
