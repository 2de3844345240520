//! Matrix Market I/O for symmetric real matrices.
//!
//! Supports the `%%MatrixMarket matrix coordinate real symmetric` format,
//! which is how the Harwell-Boeing benchmark matrices circulate today. If a
//! user has the original BCSSTK files, they can be dropped in directly in
//! place of the synthetic stand-ins.
//!
//! Read errors carry the 1-based line number ([`Error::Parse`]) so a bad
//! entry in a million-line file can be found without bisecting.

use crate::{Error, Result, SymCscMatrix};
use std::io::{BufRead, Write};

fn parse_err(line: usize, msg: impl Into<String>) -> Error {
    Error::Parse { line, msg: msg.into() }
}

/// Reads a symmetric real matrix in Matrix Market coordinate format.
///
/// Accepts `real`, `integer` and `pattern` fields (pattern entries get value
/// 1.0 off-diagonal) with `symmetric` symmetry. Entries may be in either
/// triangle; one-based indices per the format. NaN and infinite values are
/// rejected — no downstream factorization can use them.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<SymCscMatrix> {
    let mut lines = reader.lines();
    let mut ln = 0usize; // 1-based line number of the last line read
    let header = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty file"))?
        .map_err(|e| parse_err(1, format!("read failed: {e}")))?;
    ln += 1;
    let h: Vec<String> = header.split_whitespace().map(|s| s.to_lowercase()).collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" || h[2] != "coordinate" {
        return Err(parse_err(ln, "expected MatrixMarket coordinate header"));
    }
    let pattern_only = h[3] == "pattern";
    if !matches!(h[3].as_str(), "real" | "integer" | "pattern") {
        return Err(parse_err(ln, format!("unsupported field {}", h[3])));
    }
    if h[4] != "symmetric" {
        return Err(parse_err(ln, format!("unsupported symmetry {}", h[4])));
    }

    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| parse_err(ln + 1, format!("read failed: {e}")))?;
        ln += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err(ln, "missing size line"))?;
    let size_ln = ln;
    let mut it = size_line.split_whitespace();
    let m: usize = parse(it.next(), size_ln)?;
    let n: usize = parse(it.next(), size_ln)?;
    let nnz: usize = parse(it.next(), size_ln)?;
    if m != n {
        return Err(parse_err(size_ln, format!("matrix is {m}x{n}, not square")));
    }
    check_dimension(n, size_ln)?;

    // Grown from the entries actually read: the header's count is a claim,
    // and reserving it up front would let a three-line file abort the
    // process on allocation.
    let mut coords = Vec::new();
    for line in lines {
        let line = line.map_err(|e| parse_err(ln + 1, format!("read failed: {e}")))?;
        ln += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = parse(it.next(), ln)?;
        let j: usize = parse(it.next(), ln)?;
        if i == 0 || j == 0 || i > n || j > n {
            return Err(parse_err(ln, format!("entry ({i},{j}) out of bounds for dimension {n}")));
        }
        let v: f64 = if pattern_only { 1.0 } else { parse(it.next(), ln)? };
        if !v.is_finite() {
            return Err(parse_err(ln, format!("non-finite value at entry ({i},{j})")));
        }
        coords.push(((i - 1) as u32, (j - 1) as u32, v));
    }
    if coords.len() != nnz {
        return Err(parse_err(
            ln,
            format!("expected {nnz} entries, found {}", coords.len()),
        ));
    }
    // Ensure a full diagonal (SymCscMatrix requires it; absent diagonals
    // become explicit zeros).
    for d in 0..n {
        coords.push((d as u32, d as u32, 0.0));
    }
    SymCscMatrix::from_coords(n, &coords)
}

/// Writes the lower triangle in Matrix Market coordinate real symmetric form.
pub fn write_matrix_market<W: Write>(a: &SymCscMatrix, mut w: W) -> Result<()> {
    let emit = |w: &mut W| -> std::io::Result<()> {
        writeln!(w, "%%MatrixMarket matrix coordinate real symmetric")?;
        writeln!(w, "{} {} {}", a.n(), a.n(), a.pattern().nnz())?;
        for j in 0..a.n() {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
            }
        }
        Ok(())
    };
    emit(&mut w).map_err(|e| Error::Format(e.to_string()))
}

/// Rejects a dimension whose indices do not fit the `u32` index type.
pub(crate) fn check_dimension(n: usize, line: usize) -> Result<()> {
    if n > u32::MAX as usize {
        return Err(parse_err(line, format!("dimension {n} exceeds the 32-bit index limit")));
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, line: usize) -> Result<T> {
    let t = tok.ok_or_else(|| parse_err(line, "missing token"))?;
    t.parse().map_err(|_| parse_err(line, format!("bad token {t:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn roundtrip() {
        let a = SymCscMatrix::from_coords(
            3,
            &[(0, 0, 4.0), (1, 0, -1.25), (1, 1, 4.0), (2, 2, 4.0)],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(BufReader::new(&buf[..])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_pattern_and_comments_and_upper_entries() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n% a comment\n3 3 2\n1 2\n3 3\n";
        let a = read_matrix_market(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(a.n(), 3);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(0, 0), 0.0); // synthesized zero diagonal
    }

    #[test]
    fn rejects_general_symmetry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n";
        assert!(read_matrix_market(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn rejects_wrong_counts() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 1 1.0\n";
        assert!(read_matrix_market(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn bad_token_names_its_line() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n% pad\n2 2 2\n1 1 1.0\n2 1 zero\n";
        match read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err() {
            Error::Parse { line: 5, msg } => assert!(msg.contains("zero"), "msg: {msg}"),
            other => panic!("expected line-5 parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!(
                "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 {bad}\n"
            );
            match read_matrix_market(BufReader::new(text.as_bytes())).unwrap_err() {
                Error::Parse { line: 3, msg } => {
                    assert!(msg.contains("non-finite"), "msg: {msg}")
                }
                other => panic!("expected non-finite rejection, got {other:?}"),
            }
        }
    }
}
