//! Parser equivalence golden: the `{:?}` of `parse_statement_spanned`
//! (statement and spans, or the error with its column) for every line of
//! `tests/scripts/*.fdb` plus lexer and parser edge cases must match
//! `tests/fixtures/parse_corpus.golden` byte for byte.
//!
//! The golden pins the parser's observable behaviour, so a change to the
//! lexer or parser internals cannot move a statement, a span or an error
//! message unnoticed. To regenerate it deliberately (for a language
//! change), run
//! `cargo test --test parse_corpus -- --ignored write_parse_corpus_golden`
//! and review the diff.

use fdb::lang::parse_statement_spanned;

const GOLDEN: &str = "tests/fixtures/parse_corpus.golden";

/// Lines that exercise the lexer and parser beyond the shipped scripts.
const EDGE_CASES: &[&str] = &[
    // Mixed-case keywords and modifiers.
    "TrUtH pupil(prof3, student17)",
    "insert teach(a, b)",
    "Rep teach(a, b) wItH (a, c)",
    "explain Analyze pupil(a, b)",
    "Explain analyze(a, b)",
    "rollback to Before",
    "Trace On Sample 8",
    "stats Reset",
    // First tokens around and beyond the 16-byte keyword buffer.
    "DERIVATIONS pupil",
    "ABCDEFGHIJKLMNOP x",
    "ABCDEFGHIJKLMNOPQ x",
    "supercalifragilisticexpialidocious x",
    // Non-ASCII identifiers, inside and as the first token.
    "QUERY später(x)",
    "TRUTH später(größe, ß)",
    "DECLARE später: fakultät -> kurs (many-many)",
    "später x",
    "ÄNDERN f(x)",
    // String literals: plain, escaped, unterminated, as a keyword.
    r#"INSERT teach("Dr. Euclid", math)"#,
    r#"INSERT teach("Dr. \"Euclid\"", "a\\b")"#,
    r#"SAVE "a b.json""#,
    r#"DUMP "trace""#,
    r#"INSERT teach("oops, math)"#,
    r#"INSERT teach("ends in a backslash\", math)"#,
    r#"INSERT teach("", math)"#,
    r#""TRUTH" f(a, b)"#,
    // Comments, inverses, arrows and hyphenated functionality names.
    "STATS -- how bad is it?",
    "-- whole line comment",
    "INSERT teach(a, b) -- trailing comment",
    "INSERT teach(a--b, c)",
    "DERIVE lecturer_of = class_list^-1 o teach^-1",
    "DERIVE q = f^-1o g",
    "DERIVE q = f^1",
    "EVAL x : f o g^-1",
    "DECLARE grade: [student; course] -> letter_grade (many-one)",
    "DECLARE f: a->b (one-one)",
    "DECLARE f: [a; [b; c]] -> d (many-many)",
    "DECLARE f: a - > b (many-one)",
    // Unexpected characters.
    "QUERY f(x) @",
    "TRUTH f(a, b) !",
    "INSERT f(a, b)\u{1F600}",
    // Empty and blank lines.
    "",
    "   ",
    "\t",
    // Parse errors with columns.
    "INSERT teach",
    "INSERT teach(a b)",
    "REPLACE f(a, b) WITH",
    "REPLACE f(a, b) (c, d)",
    "TRUTH f(a, b) extra",
    "TIMEOUT abc",
    "TIMEOUT 250",
    "TRACE ON SAMPLE 0",
    "TRACE SLOW never",
    "STRICT maybe",
    "REPLICA LAG",
    "( x",
    "SHOW TRACE JSON",
    "SHOW trace",
    "DUMP TRACE",
    "ROLLBACK TO",
    "CHECK DATA",
    "DISCOVER JSON",
];

/// Every line of the shipped test scripts, in file-name order, then the
/// edge cases.
fn corpus() -> Vec<String> {
    let mut scripts: Vec<_> = std::fs::read_dir("tests/scripts")
        .expect("tests/scripts exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fdb"))
        .collect();
    scripts.sort();
    let mut lines = Vec::new();
    for path in scripts {
        let text = std::fs::read_to_string(&path).expect("script is readable");
        lines.extend(text.lines().map(str::to_owned));
    }
    lines.extend(EDGE_CASES.iter().map(|s| (*s).to_owned()));
    lines
}

fn render() -> String {
    let mut out = String::new();
    for (i, line) in corpus().iter().enumerate() {
        let parsed = parse_statement_spanned(line, i as u32 + 1);
        out.push_str(&format!("{line:?}\n  {parsed:?}\n"));
    }
    out
}

#[test]
fn parse_corpus_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    let actual = render();
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "parse corpus drifted from {GOLDEN} at line {}:\n  expected: {:?}\n  actual:   {:?}",
            first + 1,
            golden.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}

#[test]
#[ignore = "writes the golden file; run on purpose and review the diff"]
fn write_parse_corpus_golden() {
    std::fs::write(GOLDEN, render()).expect("golden is writable");
}
