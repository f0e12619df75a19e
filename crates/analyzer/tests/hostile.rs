//! Hostile input through the analyzer's per-file pipeline: truncated and
//! bit-flipped copies of real workspace sources, and pathologically deep
//! nesting, go through `lex` → `run_lints` → `symbols::summarize` without a
//! panic.

#![expect(
    clippy::expect_used,
    reason = "a fixture registry that fails to load should fail the test"
)]

use alexa_analyzer::{lexer, lints, symbols, FileCtx, Registry};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// Real sources that between them hold every token class the lexer knows:
/// raw strings, char literals and lifetimes, escapes, exit calls,
/// observability names and `#[cfg(test)]` modules.
const SOURCES: &[&str] = &[
    include_str!("../src/lexer.rs"),
    include_str!("../src/symbols.rs"),
    include_str!("../../bench/src/bin/repro.rs"),
    include_str!("../../obs/src/names.rs"),
    include_str!("fixtures/ws/crates/demo/src/lib.rs"),
];

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Registry::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws"))
            .expect("fixture registry loads")
    })
}

/// The per-file pipeline, as a binary target so that AS04 runs too.
fn check(src: &str) {
    let ctx = FileCtx {
        rel_path: "crates/demo/src/main.rs".to_string(),
        crate_name: "demo".to_string(),
        is_bin: true,
    };
    let lexed = lexer::lex(src);
    let mut raw = Vec::new();
    lints::run_lints(&lexed, &ctx, registry(), &mut raw);
    symbols::summarize(&ctx, &lexed);
}

/// `src` cut to `cut` bytes with the given bits flipped, read back lossily.
fn mutate(src: &str, cut: usize, flips: &[(usize, u8)]) -> String {
    let mut bytes = src.as_bytes()[..cut % (src.len() + 1)].to_vec();
    if !bytes.is_empty() {
        let len = bytes.len();
        for &(pos, bit) in flips {
            bytes[pos % len] ^= 1 << bit;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn mutated_sources_never_panic(
        which in 0usize..SOURCES.len(),
        cut in 0usize..1_000_000,
        flips in prop::collection::vec((0usize..1_000_000, 0u8..8), 0..6),
    ) {
        let src = mutate(SOURCES[which], cut, &flips);
        let outcome = std::panic::catch_unwind(|| check(&src));
        prop_assert!(
            outcome.is_ok(),
            "source {which} cut at {cut} with flips {flips:?} panicked"
        );
    }
}

#[test]
fn deep_nesting_never_panics() {
    const DEPTH: usize = 100_000;
    // (prefix, repeated, closing): every scan that tracks nesting, and
    // every construct whose scan could restart at each repetition.
    for (prefix, open, close) in [
        ("", "/*", ""),
        ("", "{", ""),
        ("", "}", ""),
        ("", "#[", ""),
        ("#[cfg(test)]", "{", "}"),
        ("impl T ", "{fn f()", "}"),
        ("", "process::exit(", ")"),
    ] {
        check(&(prefix.to_string() + &open.repeat(DEPTH) + &close.repeat(DEPTH)));
    }
}
