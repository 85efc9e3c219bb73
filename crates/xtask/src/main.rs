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
//! every structural mutation through a small set of chokepoints —
//! `ssd_mut()` (bumps the epoch and clears the result cache),
//! `chip_mut()` (raw NAND access for fault injection),
//! `ftl_mut_for_audit()` (the `fc_audit` mutation harness's deliberate
//! bypass), and since the concurrency refactor the lock-guarded trio:
//! `chip_exec()` (per-die chip mutex for execute-path programming),
//! `core_write()` (device write lock for maintenance/scrub/durable
//! writes), and `core_mut()` (exclusive `&mut` access for config and
//! fault injection), plus the channel-sharding pair: `adopt_for_audit()`
//! (raw FTL-shard insertion for the FC108 harness) and `shard_mut()`
//! (the cluster router's raw shard escape hatch). A reference to any of
//! them outside the allowlisted
//! modules is how the invariants the analyzer checks (see `LINTS.md`)
//! silently rot, so CI fails on one.
//!
//! Usage: `cargo run -p fc-xtask -- lint-mutators|size [repo-root]`

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Tokens whose presence marks raw-mutation access. The first three are
/// the original `&mut self` funnels; the last three are the lock-guarded
/// chokepoints the concurrent serving core routes mutation through.
const MUTATOR_TOKENS: [&str; 8] = [
    "ssd_mut(",
    "chip_mut(",
    "ftl_mut_for_audit(",
    "chip_exec(",
    "core_write(",
    "core_mut(",
    "adopt_for_audit(",
    "shard_mut(",
];

/// Files allowed to reference mutator tokens, relative to the repo
/// root. Definition sites, the chokepoint-discipline call sites behind
/// them, the audit mutation harness, and the test/bench suites (which
/// exercise fault injection and seeded corruption by design).
const ALLOWLIST: [&str; 14] = [
    "crates/ssd/src/device.rs",   // defines ssd-level accessors + chip_exec()
    "crates/nand/src/chip.rs",    // defines raw chip access
    "crates/core/src/device.rs",  // defines core_write()/core_mut() + epoch discipline
    "crates/core/src/batch.rs",   // the execution engine drives chips via chip_exec()
    "crates/core/src/session.rs", // the background tail takes the write lock
    "crates/core/src/maintenance.rs", // wrapper maintenance rides core_write()
    "crates/core/src/recovery.rs", // fault injection rides chip_mut()/core_mut()
    "crates/core/src/reliability.rs", // deterministic fault plans
    "crates/core/src/audit.rs",   // the mutation harness bypass
    "crates/core/src/cluster.rs", // defines shard_mut(), the router escape hatch
    "crates/ssd/src/ftl.rs",      // defines adopt_for_audit()
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
    let mut files = Vec::new();
    for top in ["crates", "tests", "benches", "src"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    if files.is_empty() {
        eprintln!("fc-xtask: no .rs files under {}", root.display());
        return ExitCode::FAILURE;
    }
    let mut violations = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if ALLOWLIST.iter().any(|a| rel_str == *a || rel_str.starts_with(a)) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(file) else { continue };
        for (ln, line) in text.lines().enumerate() {
            for token in MUTATOR_TOKENS {
                if line.contains(token) {
                    violations.push(format!("{rel_str}:{}: references `{token}…)`", ln + 1));
                }
            }
        }
    }
    if violations.is_empty() {
        println!("fc-xtask lint-mutators: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fc-xtask lint-mutators: raw mutation access outside the allowlisted modules \
             (route through the device chokepoints, or extend the allowlist with a review):"
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
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
