use crate::Monomial;

/// Dimension `v = C(n+d, n)` of the monomial basis `[x]_d` in `n` variables
/// up to degree `d` (§3 of the paper).
///
/// # Example
///
/// ```
/// // Quadratic basis in 3 variables: 1, x0, x1, x2, x0², x0x1, … (10 terms).
/// assert_eq!(snbc_poly::basis_size(3, 2), 10);
/// ```
pub fn basis_size(nvars: usize, degree: u32) -> usize {
    // C(n+d, n) computed incrementally to avoid overflow for the sizes we use.
    let n = nvars as u128;
    let d = u128::from(degree);
    let mut num = 1u128;
    let mut den = 1u128;
    for i in 1..=n {
        num *= d + i;
        den *= i;
        // Keep the intermediate reduced.
        let g = gcd(num, den);
        num /= g;
        den /= g;
    }
    usize::try_from(num / den).expect("basis size overflows usize")
}

fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// All monomials of exactly `degree` in `nvars` variables, in the paper's
/// graded-lex listing order for that degree (`x0^d` first, `x_{n-1}^d` last).
pub fn monomials_of_degree(nvars: usize, degree: u32) -> Vec<Monomial> {
    let mut out = Vec::new();
    let mut exps = vec![0u32; nvars];
    fill(&mut out, &mut exps, 0, degree);
    out
}

fn fill(out: &mut Vec<Monomial>, exps: &mut Vec<u32>, var: usize, remaining: u32) {
    if var == exps.len() {
        if remaining == 0 {
            out.push(Monomial::new(exps.clone()));
        }
        return;
    }
    if var + 1 == exps.len() {
        exps[var] = remaining;
        out.push(Monomial::new(exps.clone()));
        exps[var] = 0;
        return;
    }
    // Descending exponent on the earlier variable ⇒ paper's listing order.
    for e in (0..=remaining).rev() {
        exps[var] = e;
        fill(out, exps, var + 1, remaining - e);
    }
    exps[var] = 0;
}

/// The monomial basis `[x]_d` in `n` variables: all monomials of degree at
/// most `d`, ordered exactly as the paper lists them —
/// `[1, x₁, …, xₙ, x₁², x₁x₂, …, xₙ^d]` (degrees ascending, graded-lex within
/// each degree).
///
/// This ordering is the single source of truth for coefficient vectors
/// everywhere in the workspace (LP controller fitting, SOS Gram assembly,
/// network-to-polynomial extraction).
///
/// # Example
///
/// ```
/// use snbc_poly::{monomial_basis, Monomial};
///
/// let b = monomial_basis(2, 2);
/// let shown: Vec<String> = b.iter().map(|m| m.to_string()).collect();
/// assert_eq!(shown, ["1", "x0", "x1", "x0^2", "x0*x1", "x1^2"]);
/// assert_eq!(b.len(), snbc_poly::basis_size(2, 2));
/// ```
pub fn monomial_basis(nvars: usize, degree: u32) -> Vec<Monomial> {
    let mut out = Vec::with_capacity(basis_size(nvars, degree));
    for d in 0..=degree {
        out.extend(monomials_of_degree(nvars, d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_binomials() {
        assert_eq!(basis_size(1, 3), 4);
        assert_eq!(basis_size(2, 2), 6);
        assert_eq!(basis_size(3, 2), 10);
        assert_eq!(basis_size(12, 2), 91);
        assert_eq!(basis_size(12, 4), 1820);
        assert_eq!(basis_size(5, 0), 1);
    }

    #[test]
    fn basis_length_matches_size() {
        for n in 1..5 {
            for d in 0..5 {
                assert_eq!(monomial_basis(n, d).len(), basis_size(n, d));
            }
        }
    }

    #[test]
    fn paper_listing_order_degree_two_three_vars() {
        let shown: Vec<String> = monomial_basis(3, 2).iter().map(|m| m.to_string()).collect();
        assert_eq!(
            shown,
            [
                "1", "x0", "x1", "x2", "x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"
            ]
        );
    }

    #[test]
    fn monomials_unique() {
        let b = monomial_basis(4, 3);
        let mut seen = std::collections::BTreeSet::new();
        for m in &b {
            assert!(seen.insert(m.clone()), "duplicate monomial {m}");
        }
    }

    #[test]
    fn degrees_ascending() {
        let b = monomial_basis(3, 4);
        for w in b.windows(2) {
            assert!(w[0].degree() <= w[1].degree());
        }
    }
}
