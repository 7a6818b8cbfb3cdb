//! Library backing the `snbc` command-line tool: a plain-text system
//! description format plus the three user-facing operations —
//! *synthesize* a barrier certificate, *check* a saved certificate, and
//! *falsify* by simulation.
//!
//! # System description format
//!
//! Line-oriented `key: value` pairs; `#` starts a comment. Polynomials use
//! the `snbc-poly` syntax with state variables `x0 … x{n−1}` and the control
//! input as `x{n}` (for `m` inputs, `x{n} … x{n+m−1}`):
//!
//! ```text
//! system: my-plant
//! state: 2
//! f0: x1
//! f1: -x0 - x1 + 0.5*x0^2 + x2
//! init:   box -0.3 0.3  -0.3 0.3
//! domain: box -2 2  -2 2
//! unsafe: box 1.4 1.9  1.4 1.9
//! # Either a fixed polynomial controller …
//! controller: -0.5*x0
//! # … or `controller: train <law polynomial>` to fit a tanh MLP to the law
//! # (the paper's pretrained-NN setting).
//! ```
//!
//! Sets are `box lo hi lo hi …` (one pair per state dimension) or
//! `ball c1 … cn radius`.

use std::fmt;

use snbc_dynamics::{Ccds, SemiAlgebraicSet};
use snbc_poly::Polynomial;

/// How the controller in a description file is obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerSpec {
    /// A fixed polynomial feedback law (abstraction error zero).
    Polynomial(Polynomial),
    /// Train a tanh MLP to imitate the given law, then abstract it (§3).
    Train(Polynomial),
}

/// A parsed system description.
#[derive(Debug, Clone)]
pub struct SystemFile {
    /// System name.
    pub name: String,
    /// The controlled system.
    pub system: Ccds,
    /// Controller specification.
    pub controller: ControllerSpec,
}

/// Error produced when parsing a system description.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSystemError {
    line: usize,
    message: String,
}

impl ParseSystemError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseSystemError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSystemError {}

/// Parses a system description (see the [crate docs](crate) for the format).
///
/// # Errors
///
/// Returns [`ParseSystemError`] with the offending line on any syntax or
/// consistency problem.
pub fn parse_system(text: &str) -> Result<SystemFile, ParseSystemError> {
    let mut name = None;
    let mut state: Option<usize> = None;
    let mut fields: Vec<(usize, usize, Polynomial)> = Vec::new();
    let mut init = None;
    let mut domain = None;
    let mut unsafe_set = None;
    let mut controller = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| ParseSystemError::new(lineno, "expected `key: value`"))?;
        let (key, value) = (key.trim(), value.trim());
        let poly = |text: &str| {
            text.parse::<Polynomial>()
                .map_err(|e| ParseSystemError::new(lineno, e.to_string()))
        };
        match key {
            "system" => name = Some(value.to_string()),
            "state" if state.is_some() => {
                return Err(ParseSystemError::new(lineno, "duplicate `state`"))
            }
            "state" => {
                state = Some(match value.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    Ok(_) => return Err(ParseSystemError::new(lineno, "state must be positive")),
                    Err(_) => {
                        return Err(ParseSystemError::new(lineno, "state must be an integer"))
                    }
                })
            }
            k if k.starts_with('f') => {
                let i: usize = k[1..]
                    .parse()
                    .map_err(|_| ParseSystemError::new(lineno, "field keys look like f0, f1, …"))?;
                fields.push((lineno, i, poly(value)?));
            }
            "init" => init = Some(parse_set(value, state, lineno)?),
            "domain" => domain = Some(parse_set(value, state, lineno)?),
            "unsafe" => unsafe_set = Some(parse_set(value, state, lineno)?),
            "controller" => {
                let spec = match value.strip_prefix("train ") {
                    Some(law) => ControllerSpec::Train(poly(law)?),
                    None => ControllerSpec::Polynomial(poly(value)?),
                };
                controller = Some((lineno, spec));
            }
            other => {
                return Err(ParseSystemError::new(lineno, format!("unknown key `{other}`")))
            }
        }
    }

    let missing = |what: &str| ParseSystemError::new(0, format!("missing `{what}`"));
    let name = name.ok_or_else(|| missing("system"))?;
    let n = state.ok_or_else(|| missing("state"))?;
    let init = init.ok_or_else(|| missing("init"))?;
    let domain = domain.ok_or_else(|| missing("domain"))?;
    let unsafe_set = unsafe_set.ok_or_else(|| missing("unsafe"))?;
    let (controller_line, controller) = controller.ok_or_else(|| missing("controller"))?;
    let (ControllerSpec::Polynomial(law) | ControllerSpec::Train(law)) = &controller;
    if law.nvars() > n {
        return Err(ParseSystemError::new(
            controller_line,
            format!("the controller may use the state x0 … x{} only", n - 1),
        ));
    }

    let mut field = vec![None; n];
    for (lineno, i, p) in fields {
        if i >= n {
            return Err(ParseSystemError::new(lineno, format!("f{i} outside state dimension {n}")));
        }
        if p.nvars() > n + 1 {
            return Err(ParseSystemError::new(
                lineno,
                format!("f{i} uses a variable beyond the input u = x{n}"),
            ));
        }
        if field[i].replace(p).is_some() {
            return Err(ParseSystemError::new(lineno, format!("duplicate f{i}")));
        }
    }
    let field: Vec<Polynomial> = field
        .into_iter()
        .enumerate()
        .map(|(i, p)| p.ok_or_else(|| missing(&format!("f{i}"))))
        .collect::<Result<_, _>>()?;

    let system = Ccds::new(name.clone(), field, init, domain, unsafe_set);
    Ok(SystemFile {
        name,
        system,
        controller,
    })
}

fn parse_set(
    value: &str,
    state: Option<usize>,
    lineno: usize,
) -> Result<SemiAlgebraicSet, ParseSystemError> {
    let n = state.ok_or_else(|| {
        ParseSystemError::new(lineno, "declare `state:` before any set definition")
    })?;
    let mut parts = value.split_whitespace();
    let kind = parts
        .next()
        .ok_or_else(|| ParseSystemError::new(lineno, "empty set definition"))?;
    let nums: Vec<f64> = parts
        .map(|t| {
            t.parse()
                .map_err(|_| ParseSystemError::new(lineno, format!("bad number `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    match kind {
        "box" => {
            if nums.len() != 2 * n {
                return Err(ParseSystemError::new(
                    lineno,
                    format!("box needs {} numbers (lo hi per dimension), got {}", 2 * n, nums.len()),
                ));
            }
            let bounds: Vec<(f64, f64)> = nums.chunks(2).map(|c| (c[0], c[1])).collect();
            if nums.iter().any(|v| !v.is_finite()) {
                return Err(ParseSystemError::new(lineno, "box bounds must be finite"));
            }
            if bounds.iter().any(|&(lo, hi)| lo >= hi) {
                return Err(ParseSystemError::new(lineno, "box bounds must satisfy lo < hi"));
            }
            Ok(SemiAlgebraicSet::box_set(&bounds))
        }
        "ball" => {
            if nums.len() != n + 1 {
                return Err(ParseSystemError::new(
                    lineno,
                    format!("ball needs {} numbers (center… radius), got {}", n + 1, nums.len()),
                ));
            }
            let (center, radius) = nums.split_at(n);
            if nums.iter().any(|v| !v.is_finite()) {
                return Err(ParseSystemError::new(lineno, "ball center and radius must be finite"));
            }
            if radius[0] <= 0.0 {
                return Err(ParseSystemError::new(lineno, "ball radius must be positive"));
            }
            Ok(SemiAlgebraicSet::ball(center, radius[0]))
        }
        other => Err(ParseSystemError::new(lineno, format!("unknown set kind `{other}`"))),
    }
}

/// A ready-to-use description of benchmark C3 in the file format (used by
/// tests and `snbc example`).
pub const EXAMPLE_SYSTEM: &str = "\
system: c3-demo
state: 2
f0: x1
f1: -x0 - x1 + 0.5*x0^2 + x2
init:   box -0.3 0.3  -0.3 0.3
domain: box -2 2  -2 2
unsafe: box 1.4 1.9  1.4 1.9
controller: train -0.5*x0
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_example() {
        let sf = parse_system(EXAMPLE_SYSTEM).unwrap();
        assert_eq!(sf.name, "c3-demo");
        assert_eq!(sf.system.nvars(), 2);
        assert!(matches!(sf.controller, ControllerSpec::Train(_)));
        assert!(sf.system.init().contains(&[0.0, 0.0]));
        assert!(sf.system.unsafe_set().contains(&[1.5, 1.5]));
    }

    #[test]
    fn polynomial_controller_variant() {
        let text = EXAMPLE_SYSTEM.replace("controller: train -0.5*x0", "controller: -0.5*x0");
        let sf = parse_system(&text).unwrap();
        match sf.controller {
            ControllerSpec::Polynomial(p) => assert_eq!(p, "-0.5*x0".parse().unwrap()),
            other => panic!("expected polynomial controller, got {other:?}"),
        }
    }

    #[test]
    fn ball_sets_parse() {
        let text = "\
system: b
state: 2
f0: x2
f1: -x1
init: ball 0 0 0.3
domain: ball 0 0 2
unsafe: ball 1.5 0 0.25
controller: -1*x0
";
        let sf = parse_system(text).unwrap();
        assert!(sf.system.init().contains(&[0.1, 0.1]));
        assert!(!sf.system.init().contains(&[0.3, 0.3]));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "system: x\nstate: two\n";
        let e = parse_system(bad).unwrap_err();
        assert_eq!(e.to_string(), "line 2: state must be an integer");

        let missing = "system: x\nstate: 1\n";
        assert!(parse_system(missing).unwrap_err().to_string().contains("missing"));

        let dup = "system: x\nstate: 1\nf0: x1\nf0: x1\ninit: box -1 1\ndomain: box -2 2\nunsafe: box 1 2\ncontroller: 0";
        assert!(parse_system(dup).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_malformed_sets() {
        let base = "system: x\nstate: 2\nf0: x2\nf1: x2\ncontroller: 0\ndomain: box -1 1 -1 1\nunsafe: box 0.5 1 0.5 1\n";
        for bad in [
            "init: box -1 1",              // wrong arity
            "init: box 1 -1 -1 1",         // inverted
            "init: ball 0 0 -1",           // bad radius
            "init: cylinder 0 0 1",        // unknown kind
            "init: box a b c d",           // bad numbers
        ] {
            let text = format!("{base}{bad}\n");
            assert!(parse_system(&text).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("# header\n\n{EXAMPLE_SYSTEM}\n# trailer\n");
        assert!(parse_system(&text).is_ok());
    }
}
