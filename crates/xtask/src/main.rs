//! `fc-xtask` — repo-level checks that `cargo test` cannot express.
//!
//! `size` reports the two design-size numbers ROADMAP tracks for
//! `crates/core/src` and `crates/ssd/src`: non-test lines (each file's
//! lines before its first `#[cfg(test)]` line) and public types (those
//! lines starting, after indentation, with `pub struct`, `pub enum`,
//! `pub trait` or `pub type`). It only reports; nothing fails on a
//! number.
//!
//! `lint-mutators` fences raw mutation: the core device funnels
//! every structural mutation through seven chokepoints —
//! `ssd_mut()` (bumps the epoch and clears the result cache),
//! `chip_mut()` (raw NAND access for fault injection),
//! `ftl_mut_for_audit()` (the `fc_audit` mutation harness's deliberate
//! bypass), the lock-guarded trio `chip_exec()` (per-die chip mutex for
//! execute-path programming), `core_write()` (device write lock for
//! maintenance/scrub/durable writes) and `core_mut()` (exclusive `&mut`
//! access for config and fault injection), and `shard_mut()` (the
//! cluster router's raw shard escape hatch). A reference to any of them
//! outside the allowlisted modules is how the invariants the analyzer
//! checks (see `LINTS.md`) silently rot, so CI fails on one. CI also
//! fails on a stale allowlist entry — one no file under it references a
//! token through — since it widens the fence for nothing.
//!
//! Usage: `cargo run -p fc-xtask -- lint-mutators|size [repo-root]`

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Tokens whose presence marks raw-mutation access: the three `&mut
/// self` funnels, the three lock-guarded chokepoints the concurrent
/// serving core routes mutation through, and the cluster's shard hatch.
const MUTATOR_TOKENS: [&str; 7] = [
    "ssd_mut(",
    "chip_mut(",
    "ftl_mut_for_audit(",
    "chip_exec(",
    "core_write(",
    "core_mut(",
    "shard_mut(",
];

/// Files allowed to reference mutator tokens, relative to the repo
/// root. Definition sites, the chokepoint-discipline call sites behind
/// them, the audit mutation harness, and the test/bench suites (which
/// exercise fault injection and seeded corruption by design).
const ALLOWLIST: [&str; 11] = [
    "crates/ssd/src/device.rs",   // defines ssd-level accessors + chip_exec()
    "crates/core/src/device.rs",  // defines core_write()/core_mut() + epoch discipline
    "crates/core/src/batch.rs",   // the execution engine drives chips via chip_exec()
    "crates/core/src/session.rs", // the background tail takes the write lock
    "crates/core/src/maintenance.rs", // wrapper maintenance rides core_write()
    "crates/core/src/recovery.rs", // fault injection rides chip_mut()/core_mut()
    "crates/core/src/audit.rs",   // the mutation harness bypass
    "crates/core/src/cluster.rs", // defines shard_mut(), the router escape hatch
    "crates/xtask/src/main.rs",   // this linter names the tokens
    "crates/bench/benches/micro.rs", // benches time raw-path costs
    "tests/",                     // suites corrupt state on purpose
];

/// Source trees whose design size `size` reports.
const SIZE_DIRS: [&str; 2] = ["crates/core/src", "crates/ssd/src"];

/// Line prefixes (after indentation) that declare a public type.
const PUBLIC_TYPE_PREFIXES: [&str; 4] = ["pub struct ", "pub enum ", "pub trait ", "pub type "];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    let root = args.next().map(PathBuf::from).unwrap_or_else(default_root);
    match command.as_deref() {
        Some("lint-mutators") => lint_mutators(&root),
        Some("size") => size(&root),
        Some(other) => {
            eprintln!("fc-xtask: unknown subcommand {other:?} (try `lint-mutators` or `size`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p fc-xtask -- lint-mutators|size [repo-root]");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: this crate sits at `<root>/crates/xtask`.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).expect("crates/xtask has a grandparent").to_path_buf()
}

fn lint_mutators(root: &Path) -> ExitCode {
    let mut paths = Vec::new();
    for top in ["crates", "tests", "benches", "src"] {
        collect_rs_files(&root.join(top), &mut paths);
    }
    paths.sort();
    if paths.is_empty() {
        eprintln!("fc-xtask: no .rs files under {}", root.display());
        return ExitCode::FAILURE;
    }
    let files: Vec<(String, String)> = paths
        .iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path);
            let text = std::fs::read_to_string(path).ok()?;
            Some((rel.to_string_lossy().replace('\\', "/"), text))
        })
        .collect();
    let (violations, stale) = check_mutators(&files, &ALLOWLIST);
    if violations.is_empty() && stale.is_empty() {
        println!("fc-xtask lint-mutators: {} files clean", files.len());
        return ExitCode::SUCCESS;
    }
    if !violations.is_empty() {
        eprintln!(
            "fc-xtask lint-mutators: raw mutation access outside the allowlisted modules \
             (route through the device chokepoints, or extend the allowlist with a review):"
        );
        for v in &violations {
            eprintln!("  {v}");
        }
    }
    if !stale.is_empty() {
        eprintln!(
            "fc-xtask lint-mutators: stale allowlist entries (no file under them references a \
             mutator token; delete them from ALLOWLIST):"
        );
        for entry in &stale {
            eprintln!("  {entry}");
        }
    }
    ExitCode::FAILURE
}

/// The mutator lint over `(repo-relative path, text)` pairs: token
/// references in files outside `allowlist`, and the allowlist entries
/// (exact paths or directory prefixes) no file under them references a
/// token through.
fn check_mutators(files: &[(String, String)], allowlist: &[&str]) -> (Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let mut used = vec![false; allowlist.len()];
    for (rel, text) in files {
        let entry = allowlist.iter().position(|a| rel.starts_with(a));
        for (ln, line) in text.lines().enumerate() {
            for token in MUTATOR_TOKENS.iter().filter(|t| line.contains(*t)) {
                match entry {
                    Some(i) => used[i] = true,
                    None => violations.push(format!("{rel}:{}: references `{token}…)`", ln + 1)),
                }
            }
        }
    }
    let stale = allowlist.iter().zip(used).filter(|&(_, u)| !u).map(|(a, _)| a.to_string());
    (violations, stale.collect())
}

fn size(root: &Path) -> ExitCode {
    let (mut total_lines, mut total_types) = (0, 0);
    println!("{:<16} {:>15} {:>13}", "fc-xtask size", "non-test lines", "public types");
    for dir in SIZE_DIRS {
        let mut files = Vec::new();
        collect_rs_files(&root.join(dir), &mut files);
        if files.is_empty() {
            eprintln!("fc-xtask: no .rs files under {}", root.join(dir).display());
            return ExitCode::FAILURE;
        }
        let (mut lines, mut types) = (0, 0);
        for file in &files {
            let Ok(text) = std::fs::read_to_string(file) else { continue };
            let (l, t) = source_size(&text);
            lines += l;
            types += t;
        }
        println!("{dir:<16} {lines:>15} {types:>13}");
        total_lines += lines;
        total_types += types;
    }
    println!("{:<16} {total_lines:>15} {total_types:>13}", "total");
    ExitCode::SUCCESS
}

/// Non-test lines and public type declarations of one source file:
/// everything from the first `#[cfg(test)]` line on is test code.
fn source_size(text: &str) -> (usize, usize) {
    let (mut lines, mut types) = (0, 0);
    for line in text.lines() {
        let line = line.trim_start();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        lines += 1;
        types += usize::from(PUBLIC_TYPE_PREFIXES.iter().any(|p| line.starts_with(p)));
    }
    (lines, types)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != ".git" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(p, t)| (p.to_string(), t.to_string())).collect()
    }

    #[test]
    fn references_outside_the_allowlist_are_violations() {
        let files = files(&[
            ("crates/a.rs", "fn f(d: &mut D) { d.chip_mut(0); }"),
            ("crates/b.rs", "fn g(d: &D) {\n    d.core_write();\n}"),
        ]);
        let (violations, stale) = check_mutators(&files, &["crates/a.rs"]);
        assert_eq!(violations, ["crates/b.rs:2: references `core_write(…)`"]);
        assert!(stale.is_empty());
    }

    #[test]
    fn allowlist_entries_without_a_token_reference_are_stale() {
        let files = files(&[
            ("crates/a.rs", "d.ssd_mut();"),
            ("crates/b.rs", "fn clean() {}"),
            ("tests/t.rs", "d.chip_exec(die);"),
        ]);
        let allowlist = ["crates/a.rs", "crates/b.rs", "crates/gone.rs", "tests/", "benches/"];
        let (violations, stale) = check_mutators(&files, &allowlist);
        assert!(violations.is_empty());
        assert_eq!(stale, ["crates/b.rs", "crates/gone.rs", "benches/"]);
    }
}
