//! Output checks against the reference tables stored with the benchmark.
//!
//! Each op renders its output as a row of [`Token`]s: numbers (the
//! Performance rows, yield and Cpk) and words (job statuses). A row
//! passes when it has the reference row's shape, every word is equal and
//! every number is within [`REL_TOL`] of the reference. The tables live
//! in `reference/*.tsv`, one row per line: the key, then tab-separated
//! tokens, numbers written as the 16 hex digits of their IEEE-754 bits
//! so that they read back exactly.

use losac_sizing::Performance;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Relative tolerance of a numeric output against its reference. The
/// program is deterministic, so a correct build reproduces the reference
/// bit for bit; the tolerance admits re-associated floating-point sums
/// in a faster kernel, not a changed model.
pub const REL_TOL: f64 = 1e-6;

/// One output value.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A measured number.
    Num(f64),
    /// A status or other word.
    Word(String),
}

impl Token {
    /// The token as written in a table file.
    pub fn render(&self) -> String {
        match self {
            Token::Num(v) => format!("{:016x}", v.to_bits()),
            Token::Word(w) => w.clone(),
        }
    }

    fn parse(s: &str) -> Token {
        if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
            if let Ok(bits) = u64::from_str_radix(s, 16) {
                return Token::Num(f64::from_bits(bits));
            }
        }
        Token::Word(s.to_owned())
    }
}

/// Whether `got` matches `want` within [`REL_TOL`].
pub fn close(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits()
        || (got - want).abs() <= REL_TOL * got.abs().max(want.abs()) + 1e-300
}

/// Synthesized then extracted row of one case: the 11 Performance
/// fields of each.
pub fn case_tokens(synthesized: &Performance, extracted: &Performance) -> Vec<Token> {
    [synthesized, extracted]
        .iter()
        .flat_map(|p| losac_serve::wire::perf_values(p))
        .map(Token::Num)
        .collect()
}

/// A loaded reference table.
#[derive(Debug, Default)]
pub struct Table {
    rows: HashMap<String, Vec<Token>>,
}

impl Table {
    /// Parse a table file.
    ///
    /// # Errors
    ///
    /// When the file cannot be read.
    pub fn load(path: &Path) -> std::io::Result<Table> {
        Ok(Table::parse(&std::fs::read_to_string(path)?))
    }

    /// Parse table text.
    pub fn parse(text: &str) -> Table {
        let rows = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut it = l.split('\t');
                let key = it.next()?.to_owned();
                Some((key, it.map(Token::parse).collect()))
            })
            .collect();
        Table { rows }
    }

    /// Check `got` against the row under `key`; `Err` names the first
    /// difference.
    pub fn check(&self, key: &str, got: &[Token]) -> Result<(), String> {
        let want = self
            .rows
            .get(key)
            .ok_or_else(|| format!("{key}: no reference row"))?;
        if want.len() != got.len() {
            return Err(format!(
                "{key}: {} output values, reference has {}",
                got.len(),
                want.len()
            ));
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let ok = match (g, w) {
                (Token::Num(g), Token::Num(w)) => close(*g, *w),
                _ => g == w,
            };
            if !ok {
                return Err(format!("{key}: value {i} is {g:?}, reference {w:?}"));
            }
        }
        Ok(())
    }
}

/// Render rows as a table file.
pub fn render(header: &str, rows: &[(String, Vec<Token>)]) -> String {
    let mut out = format!("# {header}\n");
    for (key, tokens) in rows {
        out.push_str(key);
        for t in tokens {
            let _ = write!(out, "\t{}", t.render());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_exactly() {
        for v in [0.1, -3.25e-17, 6.5e7, f64::MIN_POSITIVE] {
            assert_eq!(Token::parse(&Token::Num(v).render()), Token::Num(v));
        }
        assert_eq!(Token::parse("finished"), Token::Word("finished".to_owned()));
    }

    #[test]
    fn tolerance_is_relative() {
        assert!(close(1.0, 1.0 + 1e-9));
        assert!(!close(1.0, 1.0 + 1e-5));
        assert!(close(-2e-9, -2e-9 * (1.0 + 1e-8)));
    }

    #[test]
    fn check_reports_the_first_difference() {
        let text = render(
            "t",
            &[("k".into(), vec![Token::Num(1.0), Token::Word("ok".into())])],
        );
        let t = Table::parse(&text);
        assert!(t
            .check("k", &[Token::Num(1.0), Token::Word("ok".into())])
            .is_ok());
        assert!(t
            .check("k", &[Token::Num(1.1), Token::Word("ok".into())])
            .is_err());
        assert!(t.check("missing", &[]).is_err());
    }
}
