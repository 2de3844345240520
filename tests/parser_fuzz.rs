//! Parser robustness fuzzing: the Matrix Market and Harwell–Boeing readers
//! must be total functions over arbitrary bytes — every input, however
//! hostile, returns `Ok` or a structured error (never a panic, never an
//! abort), and malformed text yields line-annotated
//! [`Error::Parse`](block_fanout_cholesky::sparsemat::Error::Parse)
//! diagnostics a user can act on. A write/read round-trip property pins the
//! Matrix Market emitter to the reader bit for bit.

use block_fanout_cholesky::sparsemat::{
    gen, io, read_harwell_boeing, Error, SymCscMatrix,
};
use proptest::prelude::*;
use std::io::BufReader;

fn read_mm(bytes: &[u8]) -> Result<SymCscMatrix, Error> {
    io::read_matrix_market(BufReader::new(bytes))
}

fn read_hb(bytes: &[u8]) -> Result<SymCscMatrix, Error> {
    read_harwell_boeing(BufReader::new(bytes))
}

/// Every reader error must carry a usable diagnostic: parse errors name a
/// real (1-based) line, and all errors format without panicking.
fn assert_structured(e: &Error, total_lines: usize, what: &str) {
    let msg = e.to_string();
    assert!(!msg.is_empty(), "{what}: empty error message");
    if let Error::Parse { line, .. } = e {
        assert!(
            (1..=total_lines + 1).contains(line),
            "{what}: parse error names line {line} of a {total_lines}-line input"
        );
    }
}

/// A valid Matrix Market document for a small random SPD matrix.
fn arb_mm_doc() -> impl Strategy<Value = (SymCscMatrix, Vec<u8>)> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec(((0..n as u32), (0..n as u32), 0.1f64..5.0), 0..3 * n)
            .prop_map(move |es| {
                let edges: Vec<(u32, u32, f64)> =
                    es.into_iter().filter(|(a, b, _)| a != b).collect();
                let a = gen::spd_from_edges(n, &edges);
                let mut buf = Vec::new();
                io::write_matrix_market(&a, &mut buf).expect("write to Vec");
                (a, buf)
            })
    })
}

/// A valid packed Harwell–Boeing RSA document (the hb.rs fixture shape).
fn sample_hb() -> Vec<u8> {
    let mut s = String::new();
    s.push_str(&format!("{:<72}{:<8}\n", "Fuzz seed matrix", "FUZZ"));
    s.push_str(&format!("{:>14}{:>14}{:>14}{:>14}{:>14}\n", 4, 1, 1, 2, 0));
    s.push_str(&format!("{:<14}{:>14}{:>14}{:>14}{:>14}\n", "RSA", 3, 3, 5, 0));
    s.push_str(&format!("{:<16}{:<16}{:<20}{:<20}\n", "(4I4)", "(5I4)", "(3E20.12)", ""));
    s.push_str("   1   3   5   6\n");
    s.push_str("   1   2   2   3   3\n");
    s.push_str(&format!("{:>20.12E}{:>20.12E}{:>20.12E}\n", 4.0f64, -1.0f64, 4.0f64));
    s.push_str(&format!("{:>20.12E}{:>20.12E}\n", -1.0f64, 4.0f64));
    s.into_bytes()
}

fn line_count(bytes: &[u8]) -> usize {
    bytes.split(|&b| b == b'\n').count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes — including interior NULs, invalid UTF-8, and
    /// multi-megabyte header claims — never panic either reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Err(e) = read_mm(&bytes) {
            assert_structured(&e, line_count(&bytes), "mm/arbitrary");
        }
        if let Err(e) = read_hb(&bytes) {
            assert_structured(&e, line_count(&bytes), "hb/arbitrary");
        }
    }

    /// Truncating a valid document at any byte boundary yields a clean
    /// result or a structured error — never a panic, never a hang.
    #[test]
    fn truncated_documents_fail_cleanly((_, doc) in arb_mm_doc(), frac in 0.0f64..1.0) {
        let cut = (doc.len() as f64 * frac) as usize;
        if let Err(e) = read_mm(&doc[..cut]) {
            assert_structured(&e, line_count(&doc[..cut]), "mm/truncated");
        }
        let hb = sample_hb();
        let cut = (hb.len() as f64 * frac) as usize;
        if let Err(e) = read_hb(&hb[..cut]) {
            assert_structured(&e, line_count(&hb[..cut]), "hb/truncated");
        }
    }

    /// Flipping arbitrary bytes of a valid document (headers, counts,
    /// indices, values) never panics, and any rejection is line-annotated.
    #[test]
    fn mutated_documents_fail_cleanly(
        (_, doc) in arb_mm_doc(),
        muts in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = doc;
        for (at, b) in &muts {
            let i = at % bytes.len();
            bytes[i] = *b;
        }
        if let Err(e) = read_mm(&bytes) {
            assert_structured(&e, line_count(&bytes), "mm/mutated");
        }
        let mut hb = sample_hb();
        for (at, b) in &muts {
            let i = at % hb.len();
            hb[i] = *b;
        }
        if let Err(e) = read_hb(&hb) {
            assert_structured(&e, line_count(&hb), "hb/mutated");
        }
    }

    /// Write → read is the identity on pattern and value bits: the `%.17e`
    /// emitter round-trips every f64 exactly.
    #[test]
    fn matrix_market_roundtrip_is_bit_exact((a, doc) in arb_mm_doc()) {
        let b = read_mm(&doc).expect("reader rejects its own writer's output");
        prop_assert_eq!(a.n(), b.n());
        prop_assert_eq!(a.pattern().col_ptr(), b.pattern().col_ptr());
        prop_assert_eq!(a.pattern().row_idx(), b.pattern().row_idx());
        let (va, vb) = (a.values(), b.values());
        prop_assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Header claims the file does not back — an entry count whose reservation
/// alone would abort the process, a dimension past the 32-bit index type —
/// are errors, not allocations.
#[test]
fn oversized_header_claims_are_errors() {
    for size in ["5 5 99999999999", "99999999999 99999999999 1"] {
        let doc = format!("%%MatrixMarket matrix coordinate real symmetric\n{size}\n1 1 4.0\n");
        let e = read_mm(doc.as_bytes()).expect_err(size);
        assert_structured(&e, line_count(doc.as_bytes()), size);
    }
    // The Harwell–Boeing reader checks its dimension the same way.
    let hb = String::from_utf8(sample_hb()).unwrap().replacen(
        &format!("{:>14}{:>14}", 3, 3),
        &format!("{:>14}{:>14}", 99999999999u64, 99999999999u64),
        1,
    );
    let e = read_hb(hb.as_bytes()).expect_err("HB dimension past u32");
    assert!(e.to_string().contains("32-bit index limit"), "{e}");
}

/// The HB fixture itself parses (so the fuzz above mutates live structure,
/// not an already-dead document).
#[test]
fn hb_fuzz_seed_is_valid() {
    let a = read_hb(&sample_hb()).expect("seed HB document parses");
    assert_eq!(a.n(), 3);
    assert_eq!(a.get(0, 0), 4.0);
}
