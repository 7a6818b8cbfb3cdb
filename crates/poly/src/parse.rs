use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::Polynomial;

/// Error returned when parsing a polynomial expression fails.
///
/// Carries the byte offset and a short description of what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolynomialError {
    offset: usize,
    message: String,
}

impl ParsePolynomialError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        ParsePolynomialError {
            offset,
            message: message.into(),
        }
    }

    /// Byte offset in the input at which parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParsePolynomialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid polynomial at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParsePolynomialError {}

/// Variables are `x0 … x{MAX_VARIABLES − 1}`.
pub const MAX_VARIABLES: usize = 1024;

/// Largest exponent `e` of a power `atom^e`.
pub const MAX_EXPONENT: u32 = 64;

/// Budget on the expansion work of one parse: the term pairs multiplied
/// over every product and power. It also bounds the size of the result.
pub const MAX_EXPANSION: usize = 20_000;

/// Deepest nesting of parentheses and unary minus signs.
pub const MAX_DEPTH: usize = 128;

/// Parses expressions like `"0.5*x0^2*x1 - 3*x2 + 1"` or `"(x0+1)^2"`.
///
/// Grammar: `expr := term (('+'|'-') term)*`, `term := factor ('*' factor)*`,
/// `factor := atom ('^' uint)?`, `atom := number | 'x' uint | '(' expr ')' |
/// '-' factor`. Whitespace is ignored. Numbers must be finite, and the
/// input must stay within [`MAX_VARIABLES`], [`MAX_EXPONENT`],
/// [`MAX_EXPANSION`] and [`MAX_DEPTH`]; anything else is an error, never a
/// panic.
impl FromStr for Polynomial {
    type Err = ParsePolynomialError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Parser {
            input: s.as_bytes(),
            pos: 0,
            depth: 0,
            expansion: 0,
        };
        let poly = p.expr()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(ParsePolynomialError::new(p.pos, "unexpected trailing input"));
        }
        Ok(poly)
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Current nesting of `(` and unary `-`.
    depth: usize,
    /// Term pairs multiplied so far.
    expansion: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Polynomial, ParsePolynomialError> {
        let mut acc = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    let t = self.term()?;
                    acc += &t;
                }
                Some(b'-') => {
                    self.pos += 1;
                    let t = self.term()?;
                    acc -= &t;
                }
                _ => return Ok(acc),
            }
        }
    }

    /// `a · b`, charged to the expansion budget before any work is done.
    fn mul(&mut self, a: &Polynomial, b: &Polynomial) -> Result<Polynomial, ParsePolynomialError> {
        self.expansion += a.num_terms() * b.num_terms();
        if self.expansion > MAX_EXPANSION {
            return Err(ParsePolynomialError::new(
                self.pos,
                format!("expansion exceeds {MAX_EXPANSION} term products"),
            ));
        }
        Ok(a * b)
    }

    fn term(&mut self) -> Result<Polynomial, ParsePolynomialError> {
        let mut acc = self.factor()?;
        while self.peek() == Some(b'*') {
            self.pos += 1;
            let f = self.factor()?;
            acc = self.mul(&acc, &f)?;
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Polynomial, ParsePolynomialError> {
        let base = self.atom()?;
        if self.peek() == Some(b'^') {
            self.pos += 1;
            let start = self.pos;
            let e = self.uint()?;
            if e > MAX_EXPONENT {
                return Err(ParsePolynomialError::new(
                    start,
                    format!("exponent {e} exceeds {MAX_EXPONENT}"),
                ));
            }
            // Repeated multiplication, as `Polynomial::powi` does.
            let mut out = Polynomial::constant(1.0);
            for _ in 0..e {
                out = self.mul(&out, &base)?;
            }
            Ok(out)
        } else {
            Ok(base)
        }
    }

    /// Parses a nested `factor` (after unary `-`) or `expr` (inside
    /// parentheses), one level deeper.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Polynomial, ParsePolynomialError>,
    ) -> Result<Polynomial, ParsePolynomialError> {
        if self.depth == MAX_DEPTH {
            return Err(ParsePolynomialError::new(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn atom(&mut self) -> Result<Polynomial, ParsePolynomialError> {
        match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                let f = self.nested(Self::factor)?;
                Ok(-&f)
            }
            Some(b'(') => {
                self.pos += 1;
                let inner = self.nested(Self::expr)?;
                if self.peek() == Some(b')') {
                    self.pos += 1;
                    Ok(inner)
                } else {
                    Err(ParsePolynomialError::new(self.pos, "expected ')'"))
                }
            }
            Some(b'x') => {
                self.pos += 1;
                let start = self.pos;
                let i = self.uint()? as usize;
                if i >= MAX_VARIABLES {
                    return Err(ParsePolynomialError::new(
                        start,
                        format!("variable x{i} beyond x{}", MAX_VARIABLES - 1),
                    ));
                }
                Ok(Polynomial::var(i))
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => {
                let start = self.pos;
                while self.pos < self.input.len()
                    && (self.input[self.pos].is_ascii_digit()
                        || self.input[self.pos] == b'.'
                        || self.input[self.pos] == b'e'
                        || self.input[self.pos] == b'E'
                        || ((self.input[self.pos] == b'+' || self.input[self.pos] == b'-')
                            && self.pos > start
                            && (self.input[self.pos - 1] == b'e'
                                || self.input[self.pos - 1] == b'E')))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.input[start..self.pos])
                    .expect("ascii slice is valid utf8");
                match text.parse::<f64>() {
                    Ok(c) if c.is_finite() => Ok(Polynomial::constant(c)),
                    _ => Err(ParsePolynomialError::new(start, "invalid number")),
                }
            }
            _ => Err(ParsePolynomialError::new(
                self.pos,
                "expected number, variable, '(' or '-'",
            )),
        }
    }

    fn uint(&mut self) -> Result<u32, ParsePolynomialError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParsePolynomialError::new(start, "expected integer"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii slice is valid utf8")
            .parse()
            .map_err(|_| ParsePolynomialError::new(start, "integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_forms() {
        let a: Polynomial = "x0^2 + 2*x0*x1 + x1^2".parse().unwrap();
        let b: Polynomial = "(x0 + x1)^2".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scientific_notation_and_unary_minus() {
        let a: Polynomial = "-1.5e-1*x0 + 2E2".parse().unwrap();
        assert!((a.eval(&[2.0]) - (-0.3 + 200.0)).abs() < 1e-12);
    }

    #[test]
    fn whitespace_tolerant() {
        let a: Polynomial = "  x0  -   x1 ".parse().unwrap();
        assert_eq!(a, "x0-x1".parse().unwrap());
    }

    #[test]
    fn errors_carry_offset() {
        let err = "x0 + ".parse::<Polynomial>().unwrap_err();
        assert_eq!(err.offset(), 5);
        assert!("x0 )".parse::<Polynomial>().is_err());
        assert!("y0".parse::<Polynomial>().is_err());
    }

    #[test]
    fn display_round_trip() {
        let a: Polynomial = "0.159*x0^2 - 2.267*x0*x1 + 5.469*x2 - 10.541".parse().unwrap();
        let again: Polynomial = a.to_string().parse().unwrap();
        assert_eq!(a, again);
    }
}
