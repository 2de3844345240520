//! The `chol` command line: every probe exits with its documented status —
//! 1 for bad input, 0 for the non-square `-p` fallback, for `--simulate`
//! without `-p` and for any processor count — and none panics.

use sparsemat::{gen, io, SymCscMatrix};
use std::path::PathBuf;
use std::process::Command;

/// A path under this test target's temporary directory.
fn path(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chol_cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// A scratch file holding `bytes`.
fn scratch(name: &str, bytes: &[u8]) -> String {
    let p = path(name);
    std::fs::write(&p, bytes).unwrap();
    p
}

fn mtx(name: &str, a: &SymCscMatrix) -> String {
    let mut buf = Vec::new();
    io::write_matrix_market(a, &mut buf).unwrap();
    scratch(name, &buf)
}

/// Runs `chol` and returns its exit code and stderr, failing the test if it
/// panicked.
fn chol(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_chol")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "chol {args:?} panicked:\n{stderr}");
    (out.status.code().expect("chol exited by signal"), stderr)
}

#[test]
fn bad_input_exits_with_status_1_and_a_message() {
    let good = mtx("good.mtx", &gen::grid2d(6).matrix);
    let indefinite = mtx(
        "indefinite.mtx",
        &SymCscMatrix::from_coords(2, &[(0, 0, 1.0), (1, 0, 3.0), (1, 1, 1.0)]).unwrap(),
    );
    let bad_header = scratch("bad_header.mtx", b"%%MatrixMarket matrix array real general\n2 2\n");
    // Headers that claim more than the file holds: an entry count whose
    // reservation alone would exceed memory, and a dimension past the
    // 32-bit index type.
    let huge_nnz = scratch(
        "huge_nnz.mtx",
        b"%%MatrixMarket matrix coordinate real symmetric\n5 5 99999999999\n1 1 4.0\n",
    );
    let huge_n = scratch(
        "huge_n.mtx",
        b"%%MatrixMarket matrix coordinate real symmetric\n99999999999 99999999999 1\n1 1 4.0\n",
    );
    let short_rhs = scratch("short.rhs", b"1.0\n2.0\n3.0\n");
    let non_utf8_rhs = scratch("non_utf8.rhs", b"1.0\n\xff\xfe\n");
    let missing = path("missing.mtx");
    let unwritable = path("no/such/dir/x.out");

    let probes: [(&str, Vec<&str>, &str); 8] = [
        ("missing file", vec![&missing], "cannot open"),
        ("malformed header", vec![&bad_header], "cannot parse"),
        ("header entry count past the file", vec![&huge_nnz], "expected 99999999999 entries"),
        ("header dimension past u32", vec![&huge_n], "32-bit index limit"),
        ("indefinite matrix", vec![&indefinite], "error:"),
        ("short --rhs", vec![&good, "--rhs", &short_rhs], "rhs has 3 values"),
        ("non-UTF-8 --rhs", vec![&good, "--rhs", &non_utf8_rhs], "cannot read rhs"),
        ("unwritable --out", vec![&good, "--out", &unwritable], "cannot create"),
    ];
    for (what, args, message) in probes {
        let (code, stderr) = chol(&args);
        assert_eq!(code, 1, "{what}: exit {code}\n{stderr}");
        assert!(stderr.contains(message), "{what}: expected {message:?} in\n{stderr}");
    }
}

#[test]
fn non_square_processor_count_falls_back_to_a_near_square_grid() {
    let a = gen::grid2d(6).matrix;
    let input = mtx("fallback.mtx", &a);
    let out = path("fallback.out");
    let (code, stderr) = chol(&[&input, "-p", "6", "--out", &out]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("not a perfect square"), "{stderr}");
    // The default right-hand side is A·1, so every solution entry is ≈ 1.
    let x: Vec<f64> =
        std::fs::read_to_string(&out).unwrap().lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(x.len(), a.n());
    assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-10), "{x:?}");
}

#[test]
fn simulate_without_a_processor_count_reports_a_simulated_run() {
    let input = mtx("simulate.mtx", &gen::grid2d(6).matrix);
    let (code, stderr) = chol(&[&input, "--simulate"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("simulated Paragon"), "{stderr}");
}

#[test]
fn solution_bits_do_not_depend_on_the_processor_count() {
    let a = gen::grid2d(6).matrix;
    let input = mtx("bits.mtx", &a);
    let solutions: Vec<(&str, String)> = ["1", "4", "6", "40000"]
        .into_iter()
        .map(|p| {
            let out = path(&format!("bits_p{p}.out"));
            let (code, stderr) = chol(&[&input, "-p", p, "--out", &out]);
            assert_eq!(code, 0, "-p {p}: {stderr}");
            (p, std::fs::read_to_string(&out).unwrap())
        })
        .collect();
    let (_, reference) = &solutions[0];
    for (p, text) in &solutions[1..] {
        assert_eq!(text, reference, "-p {p} solution differs from -p 1");
    }
    // The default right-hand side is A·1, so every solution entry is ≈ 1.
    let x: Vec<f64> = reference.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(x.len(), a.n());
    assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-10), "{x:?}");
}
