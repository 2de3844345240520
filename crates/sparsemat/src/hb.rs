//! Harwell-Boeing (RSA/PSA) format reader.
//!
//! The paper's benchmark matrices (BCSSTK15/29/31/33) circulate in the
//! Harwell-Boeing exchange format. This reader handles the symmetric
//! assembled types — `RSA` (real) and `PSA` (pattern) — including the
//! fixed-width Fortran numeric fields that are packed without separating
//! spaces, so original files can be used in place of this workspace's
//! synthetic stand-ins.
//!
//! Malformed input never panics: every failure surfaces as
//! [`Error::Parse`] carrying the 1-based source line, so a truncated or
//! hand-edited file points straight at the offending card.

use crate::{Error, Result, SymCscMatrix};
use std::io::BufRead;

/// A parsed Fortran edit descriptor like `(13I6)` or `(1P3E26.18)`:
/// `count` fields of `width` characters per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FortranFormat {
    count: usize,
    width: usize,
}

fn parse_err(line: usize, msg: impl Into<String>) -> Error {
    Error::Parse { line, msg: msg.into() }
}

impl FortranFormat {
    /// Parses descriptors of the shapes `(rIw)`, `(rEw.d)`, `(rFw.d)`,
    /// `(rDw.d)`, with an optional `1P`/`0P` scale prefix and optional
    /// comma, case-insensitive.
    fn parse(s: &str, line: usize) -> Result<Self> {
        let t = s.trim().to_ascii_uppercase();
        let inner = t
            .strip_prefix('(')
            .and_then(|x| x.strip_suffix(')'))
            .ok_or_else(|| parse_err(line, format!("bad Fortran format {s:?}")))?;
        let mut rest = inner.trim();
        // Optional scale factor "nP" possibly followed by a comma.
        if let Some(pos) = rest.find('P') {
            if rest[..pos].chars().all(|c| c.is_ascii_digit() || c == '-') && pos < 3 {
                rest = rest[pos + 1..].trim_start_matches(',').trim();
            }
        }
        let type_pos = rest
            .find(['I', 'E', 'F', 'D', 'G'])
            .ok_or_else(|| parse_err(line, format!("unsupported format {s:?}")))?;
        let count: usize = if type_pos == 0 {
            1
        } else {
            rest[..type_pos]
                .parse()
                .map_err(|_| parse_err(line, format!("bad repeat in {s:?}")))?
        };
        let after = &rest[type_pos + 1..];
        let width_str = after.split('.').next().unwrap_or(after);
        let width: usize = width_str
            .parse()
            .map_err(|_| parse_err(line, format!("bad width in {s:?}")))?;
        if count == 0 || width == 0 {
            return Err(parse_err(line, format!("degenerate format {s:?}")));
        }
        Ok(Self { count, width })
    }

    /// Splits a line into its fixed-width fields (trimmed, empties skipped).
    /// Fails rather than panics when a field boundary lands inside a
    /// multi-byte character.
    fn fields<'a>(&self, line: &'a str, ln: usize) -> Result<Vec<&'a str>> {
        let mut out = Vec::new();
        for i in 0..self.count {
            let lo = i * self.width;
            if lo >= line.len() {
                break;
            }
            let hi = ((i + 1) * self.width).min(line.len());
            let f = line
                .get(lo..hi)
                .ok_or_else(|| {
                    parse_err(ln, format!("field {} is not valid fixed-width text", i + 1))
                })?
                .trim();
            if !f.is_empty() {
                out.push(f);
            }
        }
        Ok(out)
    }
}

/// Line-counting reader so every error can name its source line.
struct LineReader<B> {
    lines: std::io::Lines<B>,
    /// 1-based number of the last line handed out.
    line: usize,
}

impl<B: BufRead> LineReader<B> {
    fn next_line(&mut self) -> Result<String> {
        self.line += 1;
        match self.lines.next() {
            None => Err(parse_err(self.line, "unexpected end of file")),
            Some(Err(e)) => Err(parse_err(self.line, format!("read failed: {e}"))),
            Some(Ok(s)) => Ok(s),
        }
    }
}

/// Pulls a 14-column header card field; blank fields read as 0, anything
/// non-numeric is an error.
fn card(s: &str, i: usize, line: usize) -> Result<usize> {
    let lo = (i * 14).min(s.len());
    let hi = ((i + 1) * 14).min(s.len());
    let t = s
        .get(lo..hi)
        .ok_or_else(|| parse_err(line, format!("header field {} is not valid text", i + 1)))?
        .trim();
    if t.is_empty() {
        return Ok(0);
    }
    t.parse()
        .map_err(|_| parse_err(line, format!("header field {}: bad integer {t:?}", i + 1)))
}

/// Reads a symmetric assembled Harwell-Boeing matrix (`RSA` or `PSA`).
///
/// Pattern-only files get 1.0 in every off-diagonal position and 0.0 on
/// missing diagonals (as with the Matrix Market reader).
pub fn read_harwell_boeing<R: BufRead>(reader: R) -> Result<SymCscMatrix> {
    let mut rd = LineReader { lines: reader.lines(), line: 0 };

    let _title = rd.next_line()?; // title + key
    let counts_line = rd.next_line()?;
    let counts_ln = rd.line;
    let ptrcrd = card(&counts_line, 1, counts_ln)?;
    let indcrd = card(&counts_line, 2, counts_ln)?;
    let valcrd = card(&counts_line, 3, counts_ln)?;
    let rhscrd = card(&counts_line, 4, counts_ln)?;

    let type_line = rd.next_line()?;
    let type_ln = rd.line;
    let mxtype = type_line.get(..3).unwrap_or("").to_ascii_uppercase();
    if !matches!(mxtype.as_str(), "RSA" | "PSA") {
        return Err(parse_err(
            type_ln,
            format!("unsupported Harwell-Boeing type {mxtype:?} (only RSA/PSA)"),
        ));
    }
    let nrow = card(&type_line, 1, type_ln)?;
    let ncol = card(&type_line, 2, type_ln)?;
    let nnzero = card(&type_line, 3, type_ln)?;
    if nrow != ncol {
        return Err(parse_err(type_ln, format!("matrix is {nrow}x{ncol}, not square")));
    }
    crate::io::check_dimension(ncol, type_ln)?;

    let fmt_line = rd.next_line()?;
    let fmt_ln = rd.line;
    let ptrfmt = FortranFormat::parse(fmt_line.get(..16).unwrap_or(""), fmt_ln)?;
    let indfmt = FortranFormat::parse(fmt_line.get(16..32).unwrap_or(""), fmt_ln)?;
    let valfmt = if valcrd > 0 {
        Some(FortranFormat::parse(fmt_line.get(32..52).unwrap_or(""), fmt_ln)?)
    } else {
        None
    };
    if rhscrd > 0 {
        let _rhs_fmt_line = rd.next_line()?; // right-hand sides ignored
    }

    // Tokens tagged with the line they came from, so value/index errors can
    // point at the exact card.
    let read_block = |lines_needed: usize,
                      fmt: FortranFormat,
                      rd: &mut LineReader<R>|
     -> Result<Vec<(String, usize)>> {
        let mut out = Vec::new();
        for _ in 0..lines_needed {
            let line = rd.next_line()?;
            let ln = rd.line;
            out.extend(fmt.fields(&line, ln)?.into_iter().map(|s| (s.to_string(), ln)));
        }
        Ok(out)
    };

    let ptr_tokens = read_block(ptrcrd, ptrfmt, &mut rd)?;
    if ptr_tokens.len() < ncol + 1 {
        return Err(parse_err(
            rd.line,
            format!("truncated pointer section: {} of {} entries", ptr_tokens.len(), ncol + 1),
        ));
    }
    let ind_tokens = read_block(indcrd, indfmt, &mut rd)?;
    if ind_tokens.len() < nnzero {
        return Err(parse_err(
            rd.line,
            format!("truncated index section: {} of {nnzero} entries", ind_tokens.len()),
        ));
    }
    let val_tokens = match valfmt {
        Some(f) if valcrd > 0 => read_block(valcrd, f, &mut rd)?,
        _ => Vec::new(),
    };
    if !val_tokens.is_empty() && val_tokens.len() < nnzero {
        return Err(parse_err(
            rd.line,
            format!("truncated value section: {} of {nnzero} entries", val_tokens.len()),
        ));
    }

    let parse_usize = |(t, ln): &(String, usize)| -> Result<usize> {
        t.parse().map_err(|_| parse_err(*ln, format!("bad integer {t:?}")))
    };
    // Fortran floats may use D exponents. Non-finite values are rejected:
    // nothing downstream can factor a matrix holding NaN or infinity.
    let parse_f64 = |(t, ln): &(String, usize)| -> Result<f64> {
        let v: f64 = t
            .replace(['D', 'd'], "E")
            .parse()
            .map_err(|_| parse_err(*ln, format!("bad value {t:?}")))?;
        if !v.is_finite() {
            return Err(parse_err(*ln, format!("non-finite value {t:?}")));
        }
        Ok(v)
    };

    // Sized from the tokens actually read, never from the header's counts.
    let mut coords = Vec::with_capacity(ind_tokens.len() + ptr_tokens.len());
    let mut e = 0usize;
    for j in 0..ncol {
        let lo = parse_usize(&ptr_tokens[j])?;
        let hi = parse_usize(&ptr_tokens[j + 1])?;
        if lo < 1 || hi < lo || hi - 1 > nnzero {
            return Err(parse_err(
                ptr_tokens[j].1,
                format!("bad column pointer at column {j}: {lo}..{hi} (nnz {nnzero})"),
            ));
        }
        for _ in lo..hi {
            let i = parse_usize(&ind_tokens[e])?;
            if i < 1 || i > nrow {
                return Err(parse_err(
                    ind_tokens[e].1,
                    format!("row index {i} out of range 1..={nrow}"),
                ));
            }
            // Symmetric assembled files store the lower triangle only; an
            // entry above the diagonal means the file is not really ?SA.
            if i - 1 < j {
                return Err(parse_err(
                    ind_tokens[e].1,
                    format!("entry ({i},{}) lies above the diagonal in a symmetric file", j + 1),
                ));
            }
            let v = if val_tokens.is_empty() {
                if i - 1 == j { 0.0 } else { 1.0 }
            } else {
                parse_f64(&val_tokens[e])?
            };
            coords.push(((i - 1) as u32, j as u32, v));
            e += 1;
        }
    }
    // Ensure the full diagonal exists.
    for d in 0..ncol {
        coords.push((d as u32, d as u32, 0.0));
    }
    SymCscMatrix::from_coords(ncol, &coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn fortran_formats_parse() {
        assert_eq!(
            FortranFormat::parse("(13I6)", 1).unwrap(),
            FortranFormat { count: 13, width: 6 }
        );
        assert_eq!(
            FortranFormat::parse("(1P3E26.18)", 1).unwrap(),
            FortranFormat { count: 3, width: 26 }
        );
        assert_eq!(
            FortranFormat::parse("(1P,4E20.12)", 1).unwrap(),
            FortranFormat { count: 4, width: 20 }
        );
        assert_eq!(FortranFormat::parse("(I8)", 1).unwrap(), FortranFormat { count: 1, width: 8 });
        assert!(FortranFormat::parse("13I6", 1).is_err());
        assert!(FortranFormat::parse("(XYZ)", 1).is_err());
    }

    #[test]
    fn fixed_width_fields_split_without_spaces() {
        let f = FortranFormat { count: 4, width: 3 };
        let fields = f.fields("  1 12123  4", 1).unwrap();
        assert_eq!(fields, vec!["1", "12", "123", "4"]);
    }

    #[test]
    fn fixed_width_fields_reject_split_multibyte() {
        let f = FortranFormat { count: 4, width: 3 };
        // The é spans the byte boundary between fields 1 and 2.
        let err = f.fields("  é12123  4", 1).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
    }

    /// A 3×3 symmetric matrix in genuine packed RSA layout:
    /// [ 4 -1  0 ]
    /// [-1  4 -1 ]
    /// [ 0 -1  4 ]  (lower triangle stored column-wise)
    fn sample_rsa() -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<72}{:<8}\n", "Test symmetric matrix", "TEST"));
        // totcrd=4, ptrcrd=1, indcrd=1, valcrd=2, rhscrd=0 (I14 fields)
        s.push_str(&format!(
            "{:>14}{:>14}{:>14}{:>14}{:>14}\n",
            4, 1, 1, 2, 0
        ));
        s.push_str(&format!(
            "{:<14}{:>14}{:>14}{:>14}{:>14}\n",
            "RSA", 3, 3, 5, 0
        ));
        s.push_str(&format!("{:<16}{:<16}{:<20}{:<20}\n", "(4I4)", "(5I4)", "(3E20.12)", ""));
        // Pointers: 1 3 5 6 (packed I4)
        s.push_str("   1   3   5   6\n");
        // Row indices: 1 2 2 3 3
        s.push_str("   1   2   2   3   3\n");
        // Values: 4, -1, 4, -1, 4 in E20.12 (3 per line)
        s.push_str(&format!(
            "{:>20.12E}{:>20.12E}{:>20.12E}\n",
            4.0f64, -1.0f64, 4.0f64
        ));
        s.push_str(&format!("{:>20.12E}{:>20.12E}\n", -1.0f64, 4.0f64));
        s
    }

    #[test]
    fn reads_packed_rsa() {
        let text = sample_rsa();
        let a = read_harwell_boeing(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(a.n(), 3);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(2, 1), -1.0);
        assert_eq!(a.get(2, 0), 0.0);
    }

    #[test]
    fn rejects_unsymmetric_types() {
        let mut text = sample_rsa();
        text = text.replacen("RSA", "RUA", 1);
        assert!(read_harwell_boeing(BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn pattern_only_psa() {
        let mut s = String::new();
        s.push_str(&format!("{:<72}{:<8}\n", "Pattern", "PAT"));
        s.push_str(&format!("{:>14}{:>14}{:>14}{:>14}{:>14}\n", 2, 1, 1, 0, 0));
        s.push_str(&format!("{:<14}{:>14}{:>14}{:>14}{:>14}\n", "PSA", 2, 2, 2, 0));
        s.push_str(&format!("{:<16}{:<16}{:<20}{:<20}\n", "(3I4)", "(2I4)", "", ""));
        s.push_str("   1   3   3\n"); // column pointers: col0 = entries 1..3
        s.push_str("   1   2\n");
        let a = read_harwell_boeing(BufReader::new(s.as_bytes())).unwrap();
        assert_eq!(a.n(), 2);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn truncated_value_section_is_an_error_not_a_panic() {
        let text = sample_rsa();
        // Drop the last value line entirely: 3 of 5 values remain, but the
        // header still promises valcrd=2 cards.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let truncated = lines.join("\n");
        let err = read_harwell_boeing(BufReader::new(truncated.as_bytes())).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }), "got {err:?}");
    }

    #[test]
    fn garbage_header_count_is_line_annotated() {
        let mut text = sample_rsa();
        text = text.replacen("             1", "         watch", 1);
        match read_harwell_boeing(BufReader::new(text.as_bytes())).unwrap_err() {
            Error::Parse { line: 2, .. } => {}
            other => panic!("expected line-2 parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_value_rejected() {
        let text = sample_rsa().replace("4.000000000000E0", "             NaN"); // same width
        let err = read_harwell_boeing(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            matches!(&err, Error::Parse { msg, .. } if msg.contains("non-finite")),
            "got {err:?}"
        );
    }

    #[test]
    fn upper_triangle_entry_rejected() {
        let mut text = sample_rsa();
        // Turn the second index (row 2 of column 1) into row 1 of column 2:
        // indices become 1 2 1 3 3 — the third entry (1,2) is upper-triangle.
        text = text.replacen("   1   2   2   3   3", "   1   2   1   3   3", 1);
        let err = read_harwell_boeing(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(
            matches!(&err, Error::Parse { msg, .. } if msg.contains("above the diagonal")),
            "got {err:?}"
        );
    }
}
