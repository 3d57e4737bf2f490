//! ui-style fixture suite: every rule is proven to fire, and the lexer's
//! masking plus the suppression audit are proven on realistic source.
//!
//! Each file under `tests/fixtures/` is a Rust source that is never
//! compiled — the workspace walker skips the directory (see
//! `ssdx_lint::SKIP_DIRS`) because fixtures violate rules on purpose. A
//! fixture declares the virtual workspace path it pretends to live at
//! (which drives scope matching) and annotates each line expected to
//! produce findings:
//!
//! ```text
//! //@ path: crates/core/src/fixture.rs
//! use std::collections::Hash...;  #[expectation marker] ERROR rule-name
//! ```
//!
//! (The marker is spelled `//~ ERROR` in fixtures; several rule names may
//! follow, separated by spaces, when one line trips several rules.)
//! Expectations are compared as a set of `(line, rule)` pairs — both
//! missing and surplus findings fail the suite.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use ssdx_lint::{lint_source, registry, RULES};

const MARKER: &str = "//~ ERROR";

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn is_rule_token(tok: &str) -> bool {
    !tok.is_empty()
        && tok
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Parse `(line, rule)` expectations out of a fixture's text.
fn expectations(text: &str) -> BTreeSet<(usize, String)> {
    let mut expected = BTreeSet::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(pos) = line.find(MARKER) else {
            continue;
        };
        for tok in line[pos + MARKER.len()..].split_whitespace() {
            if !is_rule_token(tok) {
                break;
            }
            expected.insert((idx + 1, tok.to_string()));
        }
    }
    expected
}

fn run_fixture(name: &str) -> BTreeSet<(usize, String)> {
    let path = fixture_dir().join(name);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let vpath = text
        .lines()
        .find_map(|l| l.strip_prefix("//@ path: "))
        .unwrap_or_else(|| panic!("fixture {name} must declare `//@ path: <virtual path>`"))
        .trim()
        .to_string();
    let expected = expectations(&text);
    let rules = registry();
    let actual: BTreeSet<(usize, String)> = lint_source(&vpath, &text, &rules)
        .into_iter()
        .map(|d| (d.line, d.rule.to_string()))
        .collect();
    assert_eq!(
        actual, expected,
        "fixture {name} (as {vpath}): findings differ from `{MARKER}` expectations"
    );
    expected
}

#[test]
fn no_default_hasher_fires() {
    assert!(!run_fixture("no_default_hasher.rs").is_empty());
}

#[test]
fn no_wall_clock_fires() {
    assert!(!run_fixture("no_wall_clock.rs").is_empty());
}

#[test]
fn unsafe_outside_alloctrack_fires() {
    assert!(!run_fixture("unsafe_outside_alloctrack.rs").is_empty());
}

#[test]
fn no_thread_spawn_fires() {
    assert!(!run_fixture("no_thread_spawn.rs").is_empty());
}

#[test]
fn no_ambient_randomness_fires() {
    assert!(!run_fixture("no_ambient_randomness.rs").is_empty());
}

#[test]
fn no_print_in_lib_fires() {
    assert!(!run_fixture("no_print_in_lib.rs").is_empty());
}

#[test]
fn no_panic_in_hot_path_fires() {
    assert!(!run_fixture("no_panic_in_hot_path.rs").is_empty());
}

#[test]
fn panic_scope_stops_at_hot_path_modules() {
    // Same panic forms, a non-hot-path file: the scope table says clean.
    assert!(run_fixture("panic_allowed_outside_hot_path.rs").is_empty());
}

#[test]
fn every_hot_path_names_an_existing_file() {
    // A deleted or renamed module would leave the panic rule silently
    // auditing nothing, so the scope table must track the real tree.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for path in ssdx_lint::HOT_PATHS {
        assert!(
            root.join(path).is_file(),
            "HOT_PATHS entry {path} names no file in the workspace"
        );
    }
}

#[test]
fn print_scope_stops_at_library_sources() {
    // Same macros, examples/ path: the scope table says clean.
    assert!(run_fixture("print_allowed_outside_lib.rs").is_empty());
}

#[test]
fn suppression_audit_behaviours() {
    let expected = run_fixture("suppression.rs");
    let rules_seen: BTreeSet<&str> = expected.iter().map(|(_, r)| r.as_str()).collect();
    // The fixture must exercise all three audit diagnostics.
    for meta in [
        ssdx_lint::meta::BARE_SUPPRESSION,
        ssdx_lint::meta::UNKNOWN_RULE,
        ssdx_lint::meta::UNUSED_SUPPRESSION,
    ] {
        assert!(
            rules_seen.contains(meta),
            "suppression.rs must cover {meta}"
        );
    }
}

/// The acceptance bar: every rule in the registry is proven to fire by at
/// least one fixture expectation. A rule added to the table without a
/// fixture fails here, not in review.
#[test]
fn every_registered_rule_has_a_firing_fixture() {
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for entry in fs::read_dir(fixture_dir()).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("fixture readable");
            fired.extend(expectations(&text).into_iter().map(|(_, r)| r));
        }
    }
    for spec in RULES {
        assert!(
            fired.contains(spec.name),
            "rule `{}` has no fixture proving it fires; add one under tests/fixtures/",
            spec.name
        );
    }
}
