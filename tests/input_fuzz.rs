//! "Error, never panic" on random input: the two file readers and the
//! two `SEED:SPEC` plan parsers either return a value or an error for
//! any text, and never panic.
//!
//! Every case is drawn from a seeded `StdRng`, so a failure names a
//! seed and a case number that reproduce it. Headers declare at most a
//! handful of vertices, nets and matrix rows: a reader allocates what a
//! header declares, and the point here is the parsing, not the
//! allocator.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dlb::core::WorldPlan;
use dlb::hypergraph::io::{read_hypergraph, read_matrix_market_graph};
use dlb::mpisim::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 20_000;

/// Numeric and non-numeric tokens that sit on the edges of what the
/// parsers accept.
const NUMBERS: &[&str] = &[
    "0", "1", "2", "3", "7", "-1", "-3", "0.5", "-0.5", "-0", "1e3", "1e400", "-1e400", "nan",
    "NaN", "inf", "-inf", "+2", "18446744073709551616", "9223372036854775808", "0x10", "1.",
    ".5", "", "x", "é", "#", "%",
];

/// Fragments of the plan grammar, valid and not.
const PLAN_PIECES: &[&str] = &[
    "42", "0", "7", "18446744073709551615", "18446744073709551616", "-1", ":", ":", ",", ",",
    "@", "rank", "join", "leave", "drop", "delay", "0.5", "1", "1.5", "nan", "inf", "-0.1",
    " ", "é", "@@", "::", "x",
];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A line of up to `max` tokens drawn from [`NUMBERS`] and small pin
/// indices, sometimes followed by a few random printable characters.
fn random_line(rng: &mut StdRng, max: usize) -> String {
    let mut toks = Vec::new();
    for _ in 0..rng.gen_range(0..=max) {
        if rng.gen_bool(0.5) {
            toks.push(rng.gen_range(0..9usize).to_string());
        } else {
            toks.push(pick(rng, NUMBERS).to_string());
        }
    }
    let mut line = toks.join(" ");
    if rng.gen_bool(0.05) {
        for _ in 0..rng.gen_range(1..6) {
            line.push(char::from(rng.gen_range(b' '..=b'~')));
        }
    }
    line
}

/// A size-line token: usually a tiny count, sometimes not a count at
/// all — never a large number.
fn tiny_count(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10) {
        0 => pick(rng, &["-1", "x", "", "1.5", "nan"]).to_string(),
        _ => rng.gen_range(0..6usize).to_string(),
    }
}

fn random_hg_text(rng: &mut StdRng) -> String {
    let mut text = format!("{} {} {}\n", tiny_count(rng), tiny_count(rng), tiny_count(rng));
    for _ in 0..rng.gen_range(0..12) {
        text.push_str(&random_line(rng, 5));
        text.push('\n');
    }
    text
}

fn random_mtx_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    if rng.gen_bool(0.5) {
        text.push_str("%%MatrixMarket matrix coordinate real symmetric\n");
    }
    if rng.gen_bool(0.2) {
        text.push_str("% a comment\n");
    }
    let n = tiny_count(rng);
    let cols = if rng.gen_bool(0.8) { n.clone() } else { tiny_count(rng) };
    text.push_str(&format!("{n} {cols} {}\n", tiny_count(rng)));
    for _ in 0..rng.gen_range(0..10) {
        text.push_str(&random_line(rng, 4));
        text.push('\n');
    }
    text
}

fn random_plan_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..10)).map(|_| pick(rng, PLAN_PIECES)).collect()
}

/// Runs `parse` on `CASES` texts from `generate` and fails on the first
/// panic, naming the case and its text.
fn never_panics(seed: u64, generate: fn(&mut StdRng) -> String, parse: impl Fn(&str)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        let text = generate(&mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&text)));
        assert!(outcome.is_ok(), "seed {seed} case {case} panicked on {text:?}");
    }
}

#[test]
fn hypergraph_reader_never_panics() {
    never_panics(1, random_hg_text, |t| {
        let _ = read_hypergraph(Cursor::new(t));
    });
}

#[test]
fn matrix_market_reader_never_panics() {
    never_panics(2, random_mtx_text, |t| {
        let _ = read_matrix_market_graph(Cursor::new(t));
    });
}

#[test]
fn fault_plan_parser_never_panics() {
    never_panics(3, random_plan_text, |t| {
        let _ = FaultPlan::parse(t);
    });
}

#[test]
fn world_plan_parser_never_panics() {
    never_panics(4, random_plan_text, |t| {
        let _ = WorldPlan::parse(t);
    });
}

#[test]
fn generators_reach_both_outcomes() {
    // A generator that only ever yields errors (or only successes)
    // would make the tests above vacuous.
    let mut rng = StdRng::seed_from_u64(5);
    let (mut hg, mut mtx, mut plans) = ([0usize; 2], [0usize; 2], [0usize; 2]);
    for _ in 0..CASES {
        hg[read_hypergraph(Cursor::new(random_hg_text(&mut rng))).is_ok() as usize] += 1;
        mtx[read_matrix_market_graph(Cursor::new(random_mtx_text(&mut rng))).is_ok() as usize] += 1;
        plans[FaultPlan::parse(&random_plan_text(&mut rng)).is_ok() as usize] += 1;
    }
    for (what, counts) in [("hg", hg), ("mtx", mtx), ("fault plan", plans)] {
        assert!(counts[0] > 0 && counts[1] > 0, "{what}: errors/successes {counts:?}");
    }
}
