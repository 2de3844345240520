//! The paper reproduction, pinned: `repro all --scale tiny` prints exactly
//! the committed tables — critical paths, CP-priority and data-driven
//! simulations, the work model, balance and message counts. Its elapsed
//! time goes to stderr, so stdout is deterministic.
//!
//! A change that means to move these numbers regenerates the file in a PR
//! whose title says so:
//! `cargo run -p bench --bin repro -- all --scale tiny > crates/bench/tests/golden/repro_all_tiny.txt`.

use std::process::Command;

#[test]
fn repro_all_tiny_matches_the_committed_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "tiny"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let want = include_str!("golden/repro_all_tiny.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of `repro all --scale tiny` differs", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count differs");
}
