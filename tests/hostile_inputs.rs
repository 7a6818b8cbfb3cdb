//! Outside input never panics. The system-file, certificate, jobs-document
//! and polynomial parsers answer every input below with a typed error (or a
//! value), and each answer comes back within a second: named regression
//! inputs that used to panic, abort or allocate without bound, plus seeded
//! truncations, splices and bit flips of valid documents.

use proptest::prelude::*;
use snbc::SafetyCertificate;
use snbc_cli::{parse_system, EXAMPLE_SYSTEM};
use snbc_poly::Polynomial;
use snbc_portfolio::BatchSpec;
use snbc_trace::Stopwatch;

/// The C3 certificate of the Table 1 run (synthesis seed 1, controller
/// seed 7).
const C3_CERTIFICATE: &str = "\
snbc-certificate v1
system: C3
barrier: -0.06967393768094386*x0^2 - 0.09650392615960178*x0*x1 - 0.050632305413697544*x1^2 - 0.039832982822194093*x0 - 0.06568653461164448*x1 + 0.2931334158283814
lambda: 0.8282880209593202*x0 + 0.12212750858303423*x1 - 1.5514892747630213
controller: -0.000351275358970267*x0^2 - 0.000012310776210563107*x0*x1 + 0.000003846384331336772*x1^2 - 0.4892265266998198*x0 - 0.0002379359300598515*x1 - 0.00018322358541746097
sigma_star: 0.031356130613262534
";

const JOBS: &str = include_str!("../examples/batch_jobs.json");

/// A field polynomial of C6.
const POLYNOMIAL: &str = "-x0 - 2*x1 - 2*x2 + 0.2*x0^3 + x3";

/// Runs `f` and asserts that it answers within a second.
fn within_a_second<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let watch = Stopwatch::start();
    let out = f();
    let elapsed = watch.elapsed();
    assert!(elapsed.as_secs_f64() < 1.0, "{what} took {elapsed:?}");
    out
}

fn system_error(text: &str) -> String {
    within_a_second("parse_system", || parse_system(text))
        .expect_err("the system file must be rejected")
        .to_string()
}

fn polynomial_error(text: &str) -> String {
    within_a_second("polynomial parse", || text.parse::<Polynomial>())
        .expect_err("the polynomial must be rejected")
        .to_string()
}

fn example_with(line: &str, replacement: &str) -> String {
    let out = EXAMPLE_SYSTEM
        .lines()
        .map(|l| if l.starts_with(line) { replacement } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(out.trim(), EXAMPLE_SYSTEM.trim(), "no line starts with `{line}`");
    out
}

#[test]
fn the_valid_inputs_still_parse() {
    assert!(parse_system(EXAMPLE_SYSTEM).is_ok());
    let cert: SafetyCertificate = C3_CERTIFICATE.parse().unwrap();
    assert_eq!(cert.to_string(), C3_CERTIFICATE);
    assert_eq!(BatchSpec::parse(JOBS).unwrap().jobs.len(), 2);
    assert_eq!(
        POLYNOMIAL.parse::<Polynomial>().unwrap().to_string(),
        "0.2*x0^3 - x0 - 2*x1 - 2*x2 + x3"
    );
}

#[test]
fn a_zero_state_dimension_is_an_error() {
    assert!(system_error(&example_with("state:", "state: 0")).contains("state must be positive"));
}

#[test]
fn a_repeated_state_dimension_is_an_error() {
    let text = example_with("init:", "state: 3\ninit: box -1 1 -1 1 -1 1");
    assert!(system_error(&text).contains("duplicate `state`"));
}

#[test]
fn a_nan_box_bound_is_an_error() {
    let text = example_with("init:", "init: box NaN 0.3 -0.3 0.3");
    assert!(system_error(&text).contains("finite"));
}

#[test]
fn an_infinite_box_bound_is_an_error() {
    let text = example_with("domain:", "domain: box -inf 2 -2 2");
    assert!(system_error(&text).contains("finite"));
}

#[test]
fn a_nan_ball_radius_is_an_error() {
    let text = example_with("init:", "init: ball 0 0 NaN");
    assert!(system_error(&text).contains("finite"));
}

#[test]
fn a_field_beyond_the_input_is_an_error() {
    let text = example_with("f0:", "f0: x3");
    assert!(system_error(&text).contains("beyond the input"));
}

#[test]
fn a_controller_beyond_the_state_is_an_error() {
    let text = example_with("controller:", "controller: train x2");
    assert!(system_error(&text).contains("state x0 … x1 only"));
}

#[test]
fn nesting_200000_deep_is_an_error() {
    let parens = "(".repeat(200_000);
    assert!(polynomial_error(&parens).contains("nesting deeper than 128"));
    let minus = "-".repeat(200_000) + "x0";
    assert!(polynomial_error(&minus).contains("nesting deeper than 128"));
    // 128 levels are fine.
    let deep = format!("{}x0{}", "(".repeat(128), ")".repeat(128));
    assert_eq!(deep.parse::<Polynomial>().unwrap(), Polynomial::var(0));
}

#[test]
fn a_huge_variable_index_is_an_error() {
    assert!(polynomial_error("x4000000000").contains("beyond x1023"));
    assert!(polynomial_error("x1024").contains("beyond x1023"));
    assert_eq!("x1023".parse::<Polynomial>().unwrap(), Polynomial::var(1023));
}

#[test]
fn a_huge_exponent_is_an_error() {
    assert!(polynomial_error("x0^4294967295").contains("exceeds 64"));
    assert!(polynomial_error("x0^65").contains("exceeds 64"));
    assert_eq!("x0^64".parse::<Polynomial>().unwrap().degree(), 64);
}

#[test]
fn an_expansion_beyond_the_budget_is_an_error() {
    let sum = (0..10).map(|i| format!("x{i}")).collect::<Vec<_>>().join("+");
    assert!(polynomial_error(&format!("({sum})^50")).contains("expansion exceeds"));
    assert!(polynomial_error(&["(x0+1)^64"; 64].join("*")).contains("expansion exceeds"));
    assert!(polynomial_error("((x0+1)^64)^64").contains("expansion exceeds"));
}

#[test]
fn a_non_finite_coefficient_is_an_error() {
    assert!(polynomial_error("1e999*x0").contains("invalid number"));
}

#[test]
fn json_nested_200000_deep_is_an_error() {
    let doc = "[".repeat(200_000);
    let err = within_a_second("json parse", || snbc_trace::json::parse(&doc)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than 128"));
    let err = within_a_second("jobs parse", || BatchSpec::parse(&doc)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than 128"));
}

#[test]
fn a_nan_or_negative_sigma_star_is_an_error() {
    for bad in ["NaN", "-1", "inf"] {
        let good = "sigma_star: 0.031356130613262534";
        let text = C3_CERTIFICATE.replace(good, &format!("sigma_star: {bad}"));
        let err = text.parse::<SafetyCertificate>().unwrap_err();
        assert!(err.to_string().contains("sigma_star must be"), "{bad}: {err}");
    }
}

#[test]
fn a_certificate_whose_sos_programs_would_be_huge_does_not_validate() {
    // Degree 128: the init condition alone would need a Gram basis of 2 145
    // monomials, a Schur complement of order 8 385. `validate` refuses it
    // before building any program.
    let sf = parse_system(EXAMPLE_SYSTEM).unwrap();
    let text = format!(
        "snbc-certificate v1\nsystem: {}\nbarrier: 1 - x0^2 - 0.000000001*x0^64*x1^64\n\
         lambda: 0\ncontroller: -0.5*x0\nsigma_star: 0\n",
        sf.name
    );
    let cert: SafetyCertificate = text.parse().unwrap();
    for deep in [false, true] {
        assert!(!within_a_second("validate", || cert.validate(&sf.system, deep)));
    }
}

/// Truncates (op 0), splices (op 1: duplicates or removes a byte range) or
/// flips one bit (op 2) of `text`; invalid UTF-8 becomes U+FFFD.
fn mutate(text: &str, [op, a, b, bit]: [usize; 4]) -> String {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let (i, j) = (a % (n + 1), b % (n + 1));
    let (lo, hi) = (i.min(j), i.max(j));
    let out = match op {
        0 => bytes[..i].to_vec(),
        1 if bit % 2 == 0 => [&bytes[..hi], &bytes[lo..]].concat(),
        1 => [&bytes[..lo], &bytes[hi..]].concat(),
        _ => {
            let mut v = bytes.to_vec();
            v[i % n] ^= 1 << (bit % 8);
            v
        }
    };
    String::from_utf8_lossy(&out).into_owned()
}

/// Op, two offsets and a bit for [`mutate`].
fn mutation() -> [std::ops::Range<usize>; 4] {
    [0..3, 0..1_000_000, 0..1_000_000, 0..8]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_system_files_never_panic(m in mutation()) {
        let text = mutate(EXAMPLE_SYSTEM, m);
        let _ = within_a_second(&text, || parse_system(&text));
    }

    #[test]
    fn mutated_certificates_never_panic(m in mutation()) {
        let text = mutate(C3_CERTIFICATE, m);
        let _ = within_a_second(&text, || text.parse::<SafetyCertificate>());
    }

    #[test]
    fn mutated_jobs_documents_never_panic(m in mutation()) {
        let text = mutate(JOBS, m);
        let _ = within_a_second(&text, || BatchSpec::parse(&text));
    }

    #[test]
    fn mutated_polynomials_never_panic(m in mutation()) {
        let text = mutate(POLYNOMIAL, m);
        let _ = within_a_second(&text, || text.parse::<Polynomial>());
    }
}
