//! Workspace lint engine: the panic-site ratchet plus the determinism
//! catalog that mechanically guards the bit-identity contract.
//!
//! [`scan_source`] runs the token-level scanner ([`crate::token`]) over
//! one file and reports [`LintHit`]s — comment, string-literal and
//! `#[cfg(test)]`/`mod tests` text can never produce a finding by
//! construction. Two families of lints are implemented:
//!
//! - **Panic hygiene** (`A3CS-L31x`): `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unimplemented!` outside tests, and value-returning `&self` methods
//!   without `#[must_use]`.
//! - **Determinism** (`A3CS-L30x`): every pattern that can silently break
//!   the loop's bit-identity guarantee — nondeterministically ordered
//!   collections, wall-clock reads, raw thread spawns that bypass the
//!   deterministic pool, ambient (unseeded) RNG construction, lossy `as`
//!   casts in checkpoint-serialization paths, and an `unsafe` ratchet.
//!
//! Counts are compared against a committed allowlist of per-`(file,
//! category)` counts that can only ratchet *down*; individual sites with
//! a written justification can instead be waived in place with an
//! `// a3cs::allow(<category>): <reason>` comment on the finding's line
//! or the line above (reason required — unjustified waivers are inert).
//! The `lint` binary (`cargo run -p a3cs-check --bin lint`) drives this
//! over the workspace.

use crate::diag::{codes, Diagnostic, Report};
use crate::token::{lex, Tok, TokKind};
use std::collections::BTreeMap;

/// What a lint hit is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCategory {
    /// An `.unwrap()` call.
    Unwrap,
    /// An `.expect(...)` call.
    Expect,
    /// A `panic!` invocation.
    Panic,
    /// A `todo!` invocation.
    Todo,
    /// An `unimplemented!` invocation.
    Unimplemented,
    /// A value-returning `&self` method without `#[must_use]`.
    MissingMustUse,
    /// `HashMap`/`HashSet` in non-test code: iteration order is seeded
    /// per-process, so any traversal can reorder results between runs.
    NondeterministicCollection,
    /// A wall-clock read (`Instant::now`, `SystemTime`) outside the
    /// telemetry/watchdog surfaces.
    WallClock,
    /// A raw `std::thread` spawn outside the deterministic pool and the
    /// watchdog.
    ThreadSpawn,
    /// Ambient RNG construction (`thread_rng`, `from_entropy`,
    /// `RandomState`, `rand::random`) outside the seeded plumbing.
    AmbientRng,
    /// A numeric `as` cast inside a checkpoint-serialization path.
    LossyCast,
    /// An `unsafe` block or function.
    UnsafeBlock,
}

/// Every category, in report order.
pub const ALL_CATEGORIES: [LintCategory; 12] = [
    LintCategory::Unwrap,
    LintCategory::Expect,
    LintCategory::Panic,
    LintCategory::Todo,
    LintCategory::Unimplemented,
    LintCategory::MissingMustUse,
    LintCategory::NondeterministicCollection,
    LintCategory::WallClock,
    LintCategory::ThreadSpawn,
    LintCategory::AmbientRng,
    LintCategory::LossyCast,
    LintCategory::UnsafeBlock,
];

impl LintCategory {
    /// Stable name used in reports, the allowlist file and waivers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LintCategory::Unwrap => "unwrap",
            LintCategory::Expect => "expect",
            LintCategory::Panic => "panic",
            LintCategory::Todo => "todo",
            LintCategory::Unimplemented => "unimplemented",
            LintCategory::MissingMustUse => "missing-must-use",
            LintCategory::NondeterministicCollection => "nondet-collection",
            LintCategory::WallClock => "wall-clock",
            LintCategory::ThreadSpawn => "thread-spawn",
            LintCategory::AmbientRng => "ambient-rng",
            LintCategory::LossyCast => "lossy-cast",
            LintCategory::UnsafeBlock => "unsafe-block",
        }
    }

    /// Stable diagnostic code (`A3CS-L3xx`) for JSON reports.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCategory::NondeterministicCollection => codes::LINT_NONDET_COLLECTION,
            LintCategory::WallClock => codes::LINT_WALL_CLOCK,
            LintCategory::ThreadSpawn => codes::LINT_THREAD_SPAWN,
            LintCategory::AmbientRng => codes::LINT_AMBIENT_RNG,
            LintCategory::LossyCast => codes::LINT_LOSSY_CAST,
            LintCategory::UnsafeBlock => codes::LINT_UNSAFE_BLOCK,
            LintCategory::Unwrap => codes::LINT_UNWRAP,
            LintCategory::Expect => codes::LINT_EXPECT,
            LintCategory::Panic => codes::LINT_PANIC,
            LintCategory::Todo => codes::LINT_TODO,
            LintCategory::Unimplemented => codes::LINT_UNIMPLEMENTED,
            LintCategory::MissingMustUse => codes::LINT_MISSING_MUST_USE,
        }
    }

    /// One-line hazard statement printed with every diagnostic: *why*
    /// this pattern threatens the bit-identity contract.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            LintCategory::Unwrap | LintCategory::Expect => {
                "panics abort the loop mid-phase instead of surfacing a typed \
                 error the supervisor can retry"
            }
            LintCategory::Panic => {
                "explicit panics bypass the supervised retry/rollback machinery"
            }
            LintCategory::Todo | LintCategory::Unimplemented => {
                "stub paths abort at runtime on inputs the gate claims to accept"
            }
            LintCategory::MissingMustUse => {
                "a silently dropped result hides a skipped computation"
            }
            LintCategory::NondeterministicCollection => {
                "HashMap/HashSet iteration order is randomized per process, so \
                 any traversal reorders results between runs; use BTreeMap/\
                 BTreeSet or an index-ordered Vec"
            }
            LintCategory::WallClock => {
                "wall-clock reads in a result path make outputs depend on \
                 scheduling jitter; only telemetry and the stall watchdog may \
                 observe time"
            }
            LintCategory::ThreadSpawn => {
                "raw threads bypass the deterministic pool's fixed chunk \
                 partitioning and fixed-order reduction"
            }
            LintCategory::AmbientRng => {
                "entropy-seeded RNGs cannot replay; all randomness must flow \
                 from the run seed through the SplitMix64/StdRng streams"
            }
            LintCategory::LossyCast => {
                "numeric `as` casts truncate silently; checkpoint round-trips \
                 must be bit-exact (use to_bits/from_bits or try_from)"
            }
            LintCategory::UnsafeBlock => {
                "unsafe code can introduce UB-dependent nondeterminism; every \
                 block needs a reviewed justification"
            }
        }
    }

    /// Parse a stable name back into a category.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        ALL_CATEGORIES.iter().copied().find(|c| c.as_str() == name)
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintHit {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub category: LintCategory,
}

impl LintHit {
    /// Render the hit as a diagnostic with its stable code and Why line.
    #[must_use]
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::warning(
            self.category.code(),
            format!(
                "{}:{}: {} — {}",
                self.file,
                self.line,
                self.category.as_str(),
                self.category.why()
            ),
        )
    }
}

/// Render hits as a [`Report`] (stable codes + Why lines), matching the
/// shape-check/legality JSON format.
#[must_use]
pub fn hits_to_report(hits: &[LintHit]) -> Report {
    let mut report = Report::new();
    for hit in hits {
        report.push(hit.to_diagnostic());
    }
    report
}

/// Per-`(file, category)` hit counts — the allowlist currency.
pub type LintCounts = BTreeMap<(String, String), usize>;

/// Checkpoint-serialization paths: the only files where [`LossyCast`]
/// applies. Everything else does float↔int arithmetic legitimately; these
/// files define the bits that land on disk.
///
/// [`LossyCast`]: LintCategory::LossyCast
const CHECKPOINT_PATHS: [&str; 4] = [
    "crates/core/src/checkpoint.rs",
    "crates/core/src/binfmt.rs",
    "crates/drl/src/checkpoint.rs",
    "crates/envs/src/state.rs",
];

/// Built-in per-category path exemptions: surfaces whose *job* is the
/// hazard in question. Everything here is documented in DESIGN.md §13.
fn exempt(relpath: &str, category: LintCategory) -> bool {
    let any = |prefixes: &[&str]| prefixes.iter().any(|p| relpath.starts_with(p));
    match category {
        // Telemetry timestamps spans; the watchdog measures phase
        // durations; the bench harness measures wall time. All are
        // observe-only by the §11 traced==untraced guarantee.
        LintCategory::WallClock => any(&[
            "vendor/telemetry/",
            "crates/bench/",
            "crates/core/src/supervision.rs",
        ]),
        // The deterministic pool and the watchdog are the two sanctioned
        // owners of OS threads.
        LintCategory::ThreadSpawn => any(&[
            "vendor/threadpool/",
            "crates/core/src/supervision.rs",
        ]),
        // Lossy casts are only policed where bytes are serialized.
        LintCategory::LossyCast => !CHECKPOINT_PATHS.contains(&relpath),
        _ => false,
    }
}

/// Numeric type names a cast to which is policed in checkpoint paths.
const NUMERIC_TYPES: [&str; 15] = [
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize",
    // Not a numeric type, but `as char` shares the truncation hazard.
    "char",
];

fn is_punct(toks: &[Tok<'_>], i: usize, ch: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
}

fn is_ident(toks: &[Tok<'_>], i: usize, name: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

fn ident_at<'a>(toks: &[Tok<'a>], i: usize) -> Option<&'a str> {
    toks.get(i)
        .and_then(|t| (t.kind == TokKind::Ident).then_some(t.text))
}

/// `::` at token positions `i`, `i + 1`.
fn is_path_sep(toks: &[Tok<'_>], i: usize) -> bool {
    is_punct(toks, i, ":") && is_punct(toks, i + 1, ":")
}

/// One parsed `#[...]` attribute: its token span and salient contents.
struct Attr {
    /// Index just past the closing `]`.
    end: usize,
    is_cfg_test: bool,
    has_must_use: bool,
}

/// Parse the attribute starting at `#` (or `#!`) at index `i`. Returns
/// `None` if `i` does not start an attribute.
fn parse_attr(toks: &[Tok<'_>], i: usize) -> Option<Attr> {
    if !is_punct(toks, i, "#") {
        return None;
    }
    let mut j = i + 1;
    if is_punct(toks, j, "!") {
        j += 1;
    }
    if !is_punct(toks, j, "[") {
        return None;
    }
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut has_test = false;
    let mut has_must_use = false;
    while j < toks.len() {
        if is_punct(toks, j, "[") {
            depth += 1;
        } else if is_punct(toks, j, "]") {
            depth -= 1;
            if depth == 0 {
                return Some(Attr {
                    end: j + 1,
                    is_cfg_test: is_cfg && has_test,
                    has_must_use,
                });
            }
        } else if is_ident(toks, j, "cfg") {
            is_cfg = true;
        } else if is_ident(toks, j, "test") {
            has_test = true;
        } else if is_ident(toks, j, "must_use") {
            has_must_use = true;
        }
        j += 1;
    }
    // Unterminated attribute (broken input): treat the rest of the file
    // as the attribute so the scanner still terminates.
    Some(Attr {
        end: toks.len(),
        is_cfg_test: is_cfg && has_test,
        has_must_use,
    })
}

/// Starting at `from` (just past a `#[cfg(test)]` attribute), return the
/// index just past the annotated item: past the matching `}` of its first
/// top-level brace block, or past the `;` that ends a braceless item.
/// Intervening attributes are skipped wholesale.
fn skip_item(toks: &[Tok<'_>], mut i: usize) -> usize {
    // Skip any further attributes on the same item.
    while let Some(attr) = parse_attr(toks, i) {
        i = attr.end;
    }
    let mut paren = 0i64;
    let mut brace = 0i64;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace <= 0 {
                        return i + 1;
                    }
                }
                ";" if paren <= 0 && brace == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    toks.len()
}

/// Try to match a `pub fn name(…&self…) -> …` without `#[must_use]`
/// starting at `i` (the `pub` token). Returns the hit line on success.
fn match_missing_must_use(toks: &[Tok<'_>], i: usize) -> Option<usize> {
    if !is_ident(toks, i, "pub") || !is_ident(toks, i + 1, "fn") {
        return None;
    }
    let name_line = toks.get(i + 2)?.line;
    // Find the opening paren of the argument list (skipping generics).
    let mut j = i + 3;
    while j < toks.len() && !is_punct(toks, j, "(") {
        if is_punct(toks, j, "{") || is_punct(toks, j, ";") {
            return None;
        }
        j += 1;
    }
    // First argument must be `&self` (parity with the historical lint:
    // `&mut self` methods are exempt — they are called for effect).
    if !(is_punct(toks, j + 1, "&") && is_ident(toks, j + 2, "self")) {
        return None;
    }
    // Find the matching close paren.
    let mut depth = 0i64;
    while j < toks.len() {
        if is_punct(toks, j, "(") {
            depth += 1;
        } else if is_punct(toks, j, ")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    // A return type after the argument list makes the method flaggable —
    // unless the type is already `#[must_use]` at the definition
    // (`Result`, `Option`) or an `impl Trait` (iterators and closures,
    // whose traits carry the attribute themselves).
    if !(is_punct(toks, j + 1, "-") && is_punct(toks, j + 2, ">")) {
        return None;
    }
    let mut k = j + 3;
    while k < toks.len() && k < j + 9 {
        match ident_at(toks, k) {
            Some("Result" | "Option" | "impl") => return None,
            Some(_) => {}
            None if is_punct(toks, k, ":") => {}
            // Anything else ends the return-type path prefix.
            None => break,
        }
        k += 1;
    }
    Some(name_line)
}

/// Scan one file's source text. `relpath` is recorded verbatim in the
/// hits and drives the per-category path exemptions. Code under
/// `#[cfg(test)]` or `mod tests { … }` is exempt, as are comments,
/// strings, and sites carrying a justified
/// `// a3cs::allow(<category>): <reason>` waiver.
#[must_use]
pub fn scan_source(relpath: &str, source: &str) -> Vec<LintHit> {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let lossy_applies = CHECKPOINT_PATHS.contains(&relpath);
    let mut raw_hits: Vec<LintHit> = Vec::new();
    let mut push = |line: usize, category: LintCategory| {
        if !exempt(relpath, category) {
            raw_hits.push(LintHit {
                file: relpath.to_string(),
                line,
                category,
            });
        }
    };

    let mut must_use_armed = false;
    let mut i = 0usize;
    while i < toks.len() {
        // Attributes: inspected for cfg(test)/must_use, never matched.
        if let Some(attr) = parse_attr(toks, i) {
            if attr.is_cfg_test {
                i = skip_item(toks, attr.end);
                must_use_armed = false;
                continue;
            }
            must_use_armed = must_use_armed || attr.has_must_use;
            i = attr.end;
            continue;
        }
        // `mod tests { … }` without an explicit cfg attribute.
        if is_ident(toks, i, "mod") && is_ident(toks, i + 1, "tests") && is_punct(toks, i + 2, "{")
        {
            i = skip_item(toks, i);
            must_use_armed = false;
            continue;
        }

        let line = toks[i].line;
        if let Some(hit_line) = match_missing_must_use(toks, i) {
            if !must_use_armed {
                push(hit_line, LintCategory::MissingMustUse);
            }
        }

        match ident_at(toks, i) {
            Some("unwrap") if is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(") =>
            {
                push(line, LintCategory::Unwrap);
            }
            Some("expect") if is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(") =>
            {
                push(line, LintCategory::Expect);
            }
            Some("panic") if is_punct(toks, i + 1, "!") => push(line, LintCategory::Panic),
            Some("todo") if is_punct(toks, i + 1, "!") => push(line, LintCategory::Todo),
            Some("unimplemented") if is_punct(toks, i + 1, "!") => {
                push(line, LintCategory::Unimplemented);
            }
            Some("HashMap" | "HashSet") => {
                push(line, LintCategory::NondeterministicCollection);
            }
            Some("Instant") if is_path_sep(toks, i + 1) && is_ident(toks, i + 3, "now") => {
                push(line, LintCategory::WallClock);
            }
            Some("SystemTime") => push(line, LintCategory::WallClock),
            Some("thread")
                if is_path_sep(toks, i + 1)
                    && (is_ident(toks, i + 3, "spawn") || is_ident(toks, i + 3, "Builder")) =>
            {
                push(line, LintCategory::ThreadSpawn);
            }
            Some("thread_rng" | "from_entropy" | "RandomState") => {
                push(line, LintCategory::AmbientRng);
            }
            Some("rand") if is_path_sep(toks, i + 1) && is_ident(toks, i + 3, "random") => {
                push(line, LintCategory::AmbientRng);
            }
            Some("as")
                if lossy_applies
                    && ident_at(toks, i + 1).is_some_and(|t| NUMERIC_TYPES.contains(&t)) =>
            {
                push(line, LintCategory::LossyCast);
            }
            Some("unsafe") => push(line, LintCategory::UnsafeBlock),
            _ => {}
        }

        // Any non-attribute token ends the attribute block a pending
        // `#[must_use]` belongs to.
        must_use_armed = false;
        i += 1;
    }

    // Apply justified waivers: a waiver on line L covers hits of its
    // category on L itself (trailing comment) and on the first code line
    // after L — the comment may wrap over several lines, so "the next
    // line" is the next line holding a token, not literally L + 1.
    let next_code_line = |after: usize| {
        toks.iter()
            .map(|t| t.line)
            .find(|&l| l > after)
            .unwrap_or(after + 1)
    };
    let covered: Vec<(usize, usize, &str)> = lexed
        .waivers
        .iter()
        .filter(|w| w.justified)
        .map(|w| (w.line, next_code_line(w.line), w.category.as_str()))
        .collect();
    raw_hits.retain(|hit| {
        !covered.iter().any(|&(start, end, category)| {
            category == hit.category.as_str() && hit.line >= start && hit.line <= end
        })
    });
    raw_hits
}

/// Aggregate hits into allowlist counts.
#[must_use]
pub fn count_hits(hits: &[LintHit]) -> LintCounts {
    let mut counts = LintCounts::new();
    for hit in hits {
        *counts
            .entry((hit.file.clone(), hit.category.as_str().to_string()))
            .or_insert(0) += 1;
    }
    counts
}

/// Parse the allowlist file format: `#`-comments and blank lines ignored,
/// otherwise `<path> <category> <count>` per line.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_allowlist(text: &str) -> Result<LintCounts, String> {
    let mut counts = LintCounts::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(category), Some(count)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("allowlist line {}: expected `<path> <category> <count>`", idx + 1));
        };
        if LintCategory::parse(category).is_none() {
            return Err(format!("allowlist line {}: unknown category `{category}`", idx + 1));
        }
        let n: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{count}`", idx + 1))?;
        counts.insert((path.to_string(), category.to_string()), n);
    }
    Ok(counts)
}

/// Render counts in the allowlist file format (sorted, reproducible).
#[must_use]
pub fn format_allowlist(counts: &LintCounts) -> String {
    let mut out = String::from(
        "# a3cs-check lint allowlist: grandfathered counts per (file, category).\n\
         # Counts may only ratchet down. Regenerate with:\n\
         #   cargo run -p a3cs-check --bin lint -- --update\n",
    );
    for ((path, category), count) in counts {
        out.push_str(&format!("{path} {category} {count}\n"));
    }
    out
}

/// Outcome of comparing actual counts against the allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintOutcome {
    /// `(file, category, actual, allowed)` where actual exceeds allowed.
    pub violations: Vec<(String, String, usize, usize)>,
    /// `(file, category, actual, allowed)` where the allowlist can shrink.
    pub ratchets: Vec<(String, String, usize, usize)>,
}

impl LintOutcome {
    /// `true` when no count exceeds its allowance.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compare actual counts with allowed ones. Entries absent from the
/// allowlist are allowed zero.
#[must_use]
pub fn compare(actual: &LintCounts, allowed: &LintCounts) -> LintOutcome {
    let mut outcome = LintOutcome::default();
    for (key, &n) in actual {
        let cap = allowed.get(key).copied().unwrap_or(0);
        if n > cap {
            outcome
                .violations
                .push((key.0.clone(), key.1.clone(), n, cap));
        } else if n < cap {
            outcome.ratchets.push((key.0.clone(), key.1.clone(), n, cap));
        }
    }
    for (key, &cap) in allowed {
        if !actual.contains_key(key) && cap > 0 {
            outcome.ratchets.push((key.0.clone(), key.1.clone(), 0, cap));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cats(relpath: &str, src: &str) -> Vec<LintCategory> {
        scan_source(relpath, src).iter().map(|h| h.category).collect()
    }

    #[test]
    fn flags_panics_outside_tests_only() {
        let src = "\
pub fn risky(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = Some(1).unwrap();
        panic!(\"fine here\");
    }
}
";
        let hits = scan_source("a.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].category, LintCategory::Unwrap);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn comments_and_strings_do_not_count() {
        let src = "\
// this mentions .unwrap() in prose
/// docs may say panic!(...) too
pub fn fine() {
    let url = \"https://example.com\"; // trailing .expect( note
    let raw = r#\"HashMap::new() and thread::spawn inside\"#;
    let _ = (url, raw);
}
";
        assert!(scan_source("b.rs", src).is_empty());
    }

    #[test]
    fn mod_tests_without_cfg_attr_is_exempt() {
        let src = "mod tests {\n    fn helper() { panic!(\"x\") }\n}\nfn f() { todo!() }\n";
        assert_eq!(cats("c.rs", src), vec![LintCategory::Todo]);
    }

    #[test]
    fn todo_and_unimplemented_are_flagged() {
        let src = "fn later() {\n    todo!()\n}\nfn never() {\n    unimplemented!()\n}\n";
        assert_eq!(
            cats("c.rs", src),
            vec![LintCategory::Todo, LintCategory::Unimplemented]
        );
    }

    #[test]
    fn must_use_attribute_suppresses_the_hit() {
        let flagged = "impl X {\n    pub fn value(&self) -> u32 {\n        self.0\n    }\n}\n";
        assert_eq!(cats("d.rs", flagged), vec![LintCategory::MissingMustUse]);
        let ok = "impl X {\n    /// Doc.\n    #[must_use]\n    pub fn value(&self) -> u32 {\n        self.0\n    }\n}\n";
        assert!(scan_source("e.rs", ok).is_empty());
    }

    #[test]
    fn must_use_types_need_no_attribute() {
        let src = "\
impl X {
    pub fn a(&self) -> Result<u32, String> { Ok(self.0) }
    pub fn b(&self) -> io::Result<()> { Ok(()) }
    pub fn c(&self) -> Option<u32> { Some(self.0) }
    pub fn d(&self) -> impl Iterator<Item = u32> { std::iter::once(self.0) }
}
";
        assert!(scan_source("m.rs", src).is_empty());
    }

    #[test]
    fn multiline_signatures_are_caught() {
        // The historical line-based scanner missed these.
        let src = "impl X {\n    pub fn value(\n        &self,\n        k: u32,\n    ) -> u32 {\n        self.0 + k\n    }\n}\n";
        assert_eq!(cats("f.rs", src), vec![LintCategory::MissingMustUse]);
    }

    #[test]
    fn determinism_catalog_fires() {
        let src = "\
use std::collections::HashMap;
fn f() {
    let t = std::time::Instant::now();
    let h = std::thread::spawn(|| 1);
    let mut r = rand::thread_rng();
}
";
        let got = cats("g.rs", src);
        assert_eq!(
            got,
            vec![
                LintCategory::NondeterministicCollection,
                LintCategory::WallClock,
                LintCategory::ThreadSpawn,
                LintCategory::AmbientRng,
            ]
        );
    }

    #[test]
    fn lossy_cast_only_in_checkpoint_paths() {
        let src = "fn f(x: f32) -> u32 { x as u32 }\n";
        assert!(cats("crates/tensor/src/linalg.rs", src).is_empty());
        assert_eq!(
            cats("crates/core/src/binfmt.rs", src),
            vec![LintCategory::LossyCast]
        );
    }

    #[test]
    fn builtin_exemptions_apply() {
        let spawn = "fn f() { std::thread::spawn(|| 1); }\n";
        assert!(cats("vendor/threadpool/src/lib.rs", spawn).is_empty());
        assert_eq!(cats("crates/drl/src/a2c.rs", spawn), vec![LintCategory::ThreadSpawn]);
        let clock = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert!(cats("vendor/telemetry/src/lib.rs", clock).is_empty());
        assert!(cats("crates/bench/src/bin/bench_ckpt.rs", clock).is_empty());
    }

    #[test]
    fn justified_waivers_suppress_and_unjustified_do_not() {
        let waived = "\
// a3cs::allow(wall-clock): feeds the watchdog EWMA only, observe-only
fn f() { let _ = std::time::Instant::now(); }
";
        assert!(scan_source("h.rs", waived).is_empty());
        let same_line = "fn f() { unsafe { core::hint::unreachable_unchecked() } } // a3cs::allow(unsafe-block): reviewed\n";
        assert!(scan_source("h2.rs", same_line).is_empty());
        let unjustified = "\
// a3cs::allow(wall-clock)
fn f() { let _ = std::time::Instant::now(); }
";
        assert_eq!(cats("i.rs", unjustified), vec![LintCategory::WallClock]);
        let wrong_category = "\
// a3cs::allow(unsafe-block): wrong tag
fn f() { let _ = std::time::Instant::now(); }
";
        assert_eq!(cats("j.rs", wrong_category), vec![LintCategory::WallClock]);
    }

    #[test]
    fn hits_become_coded_diagnostics() {
        let hits = scan_source("k.rs", "fn f() { let x: Option<u32> = None; x.unwrap(); }\n");
        let report = hits_to_report(&hits);
        assert!(report.has_code(codes::LINT_UNWRAP));
        let json = report.to_json();
        assert!(json.contains("A3CS-L310"), "{json}");
        assert!(json.contains("k.rs:1"), "{json}");
    }

    #[test]
    fn allowlist_round_trip_and_compare() {
        let hits = vec![
            LintHit {
                file: "x.rs".into(),
                line: 1,
                category: LintCategory::Unwrap,
            },
            LintHit {
                file: "x.rs".into(),
                line: 2,
                category: LintCategory::Unwrap,
            },
        ];
        let actual = count_hits(&hits);
        let text = format_allowlist(&actual);
        let parsed = parse_allowlist(&text).expect("well-formed");
        assert_eq!(parsed, actual);
        assert!(compare(&actual, &parsed).is_ok());

        // One fewer hit than allowed: a ratchet opportunity, still ok.
        let fewer = count_hits(&hits[..1]);
        let outcome = compare(&fewer, &parsed);
        assert!(outcome.is_ok());
        assert_eq!(outcome.ratchets.len(), 1);

        // More hits than allowed: a violation.
        let mut more = actual.clone();
        *more.get_mut(&("x.rs".to_string(), "unwrap".to_string())).expect("key") = 3;
        assert!(!compare(&more, &parsed).is_ok());
    }

    #[test]
    fn new_categories_parse_in_allowlists() {
        let text = "x.rs nondet-collection 1\ny.rs lossy-cast 2\nz.rs unsafe-block 1\n";
        let counts = parse_allowlist(text).expect("well-formed");
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn malformed_allowlist_lines_error() {
        assert!(parse_allowlist("x.rs unwrap notanumber").is_err());
        assert!(parse_allowlist("x.rs nonsense 3").is_err());
        assert!(parse_allowlist("# comment\n\n").expect("ok").is_empty());
    }
}
