//! Workspace lint driver:
//! `cargo run -p a3cs-check --bin lint [-- --update | --deny-new | --json]`.
//!
//! Walks every project-owned source root — `crates/*/src`, the root
//! `src/`, and the project-owned vendor crates `vendor/threadpool` and
//! `vendor/telemetry` (third-party vendored crates are upstream code and
//! out of the determinism contract) — runs the token-level scanner
//! (`a3cs_check::scan_source`), and compares the census against the
//! committed allowlist `crates/check/lint-allowlist.txt`.
//!
//! Modes:
//! - default: fail on any count above its allowance; print ratchet
//!   opportunities as suggestions.
//! - `--deny-new`: the CI gate. Additionally fails when the allowlist is
//!   *stale* (an allowance exceeds the actual count), so paid-down debt
//!   must be recorded with `--update` in the same change.
//! - `--update`: rewrite the allowlist to the current counts.
//! - `--json`: emit every finding as an `A3CS-L3xx` diagnostic in the
//!   same JSON report format as the shape/legality checks, then apply
//!   the normal gate.

use a3cs_check::{
    compare, count_hits, format_allowlist, hits_to_report, parse_allowlist, scan_source, LintHit,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const ALLOWLIST_REL: &str = "crates/check/lint-allowlist.txt";

/// Project-owned vendor crates included in the scan. The rest of
/// `vendor/` (serde, serde_derive, serde_json, proptest, rand) stands in
/// for third-party code.
const VENDOR_ROOTS: [&str; 2] = ["vendor/threadpool/src", "vendor/telemetry/src"];

fn repo_root() -> Option<PathBuf> {
    // This binary lives in crates/check; the workspace root is two up.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent()?.parent()?;
    Some(root.to_path_buf())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every scanned source root, relative to the repo root.
fn scan_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut crate_dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let src = crate_dir.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        roots.push(root_src);
    }
    for rel in VENDOR_ROOTS {
        let dir = root.join(rel);
        if dir.is_dir() {
            roots.push(dir);
        }
    }
    roots
}

fn scan_workspace(root: &Path) -> Result<Vec<LintHit>, String> {
    let mut hits = Vec::new();
    for scan_root in scan_roots(root) {
        let mut files = Vec::new();
        collect_rs_files(&scan_root, &mut files);
        for file in files {
            let source =
                fs::read_to_string(&file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            hits.extend(scan_source(&rel, &source));
        }
    }
    Ok(hits)
}

fn run() -> Result<ExitCode, String> {
    let mut update = false;
    let mut deny_new = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update" => update = true,
            "--deny-new" => deny_new = true,
            "--json" => json = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (accepted: --update, --deny-new, --json)"
                ))
            }
        }
    }
    let root = repo_root().ok_or_else(|| "cannot locate the workspace root".to_string())?;
    let hits = scan_workspace(&root)?;
    let actual = count_hits(&hits);
    let total: usize = actual.values().sum();
    let allowlist_path = root.join(ALLOWLIST_REL);

    if json {
        println!("{}", hits_to_report(&hits).to_json());
    }

    if update {
        fs::write(&allowlist_path, format_allowlist(&actual))
            .map_err(|e| format!("cannot write {allowlist_path:?}: {e}"))?;
        println!("lint: allowlist updated with {total} grandfathered findings ({ALLOWLIST_REL})");
        return Ok(ExitCode::SUCCESS);
    }

    let allowed = match fs::read_to_string(&allowlist_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(e) => {
            return Err(format!(
                "cannot read {ALLOWLIST_REL}: {e}; run with --update to create it"
            ))
        }
    };
    let outcome = compare(&actual, &allowed);
    if !outcome.is_ok() {
        eprintln!("lint: counts above the allowlist (new findings must be fixed, not added):");
        for (file, category, got, cap) in &outcome.violations {
            eprintln!("  {file}: {category} {got} > allowed {cap}");
            for hit in &hits {
                if &hit.file == file && hit.category.as_str() == category {
                    eprintln!("    {file}:{} — {}", hit.line, hit.category.why());
                }
            }
        }
        return Ok(ExitCode::FAILURE);
    }
    if outcome.ratchets.is_empty() {
        println!("lint: clean against allowlist ({total} grandfathered findings)");
    } else if deny_new {
        eprintln!(
            "lint: {} allowlist entries are stale — debt was paid but not recorded; \
             run `cargo run -p a3cs-check --bin lint -- --update`:",
            outcome.ratchets.len()
        );
        for (file, category, got, cap) in &outcome.ratchets {
            eprintln!("  {file}: {category} {got} (allowed {cap})");
        }
        return Ok(ExitCode::FAILURE);
    } else {
        println!(
            "lint: clean; {} entries improved — ratchet down with --update:",
            outcome.ratchets.len()
        );
        for (file, category, got, cap) in &outcome.ratchets {
            println!("  {file}: {category} {got} (allowed {cap})");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("lint: {message}");
            ExitCode::FAILURE
        }
    }
}
