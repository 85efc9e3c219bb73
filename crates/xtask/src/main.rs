//! `fc-xtask` — repo-level checks that `cargo test` cannot express.
//!
//! `size` reports the two design-size numbers ROADMAP tracks for
//! `crates/core/src` and `crates/ssd/src`: non-test lines (each file's
//! lines before its first `#[cfg(test)]` line) and public types (those
//! lines starting, after indentation, with `pub struct`, `pub enum`,
//! `pub trait` or `pub type`). It only reports; nothing fails on a
//! number.
//!
//! `unreferenced-pub` lists the public items (`pub fn`, `pub struct`,
//! `pub enum`, `pub trait`, `pub type`, `pub const`, `pub static`)
//! declared in the non-test lines of `crates/core/src` and
//! `crates/ssd/src` whose name appears, as a whole word, in no other
//! `.rs` file of the repo: API that only its own file (usually its own
//! tests) calls, so a candidate for deletion or for `pub(crate)`. It
//! only reports and exits 0 whatever it finds; a name can also be
//! reached through a trait or a macro the word match cannot see.
//!
//! `lint-mutators` fences raw mutation: the core device funnels
//! every structural mutation through six chokepoints —
//! `ssd_mut()` (bumps the epoch and clears the result cache),
//! `chip_mut()` (raw NAND access for fault injection),
//! `ftl_mut_for_audit()` (the `fc_audit` mutation harness's deliberate
//! bypass), and the lock-guarded trio `chip_exec()` (per-die chip mutex
//! for execute-path programming), `core_write()` (device write lock for
//! maintenance/scrub/durable writes) and `core_mut()` (exclusive `&mut`
//! access for config and fault injection). A reference to any of them
//! outside the allowlisted modules is how the invariants the analyzer
//! checks (see `LINTS.md`) silently rot, so CI fails on one. CI also
//! fails on a stale allowlist entry — one no file under it references a
//! token through — since it widens the fence for nothing.
//!
//! Usage: `cargo run -p fc-xtask -- lint-mutators|size|unreferenced-pub [repo-root]`

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Tokens whose presence marks raw-mutation access: the three `&mut
/// self` funnels and the three lock-guarded chokepoints the concurrent
/// serving core routes mutation through.
const MUTATOR_TOKENS: [&str; 6] =
    ["ssd_mut(", "chip_mut(", "ftl_mut_for_audit(", "chip_exec(", "core_write(", "core_mut("];

/// Files allowed to reference mutator tokens, relative to the repo
/// root. Definition sites, the chokepoint-discipline call sites behind
/// them, the audit mutation harness, and the test/bench suites (which
/// exercise fault injection and seeded corruption by design).
const ALLOWLIST: [&str; 10] = [
    "crates/ssd/src/device.rs",   // defines ssd-level accessors + chip_exec()
    "crates/core/src/device.rs",  // defines core_write()/core_mut() + epoch discipline
    "crates/core/src/batch.rs",   // the execution engine drives chips via chip_exec()
    "crates/core/src/session.rs", // the background tail takes the write lock
    "crates/core/src/maintenance.rs", // wrapper maintenance rides core_write()
    "crates/core/src/recovery.rs", // fault injection rides chip_mut()/core_mut()
    "crates/core/src/audit.rs",   // the mutation harness bypass
    "crates/xtask/src/main.rs",   // this linter names the tokens
    "crates/bench/benches/micro.rs", // benches time raw-path costs
    "tests/",                     // suites corrupt state on purpose
];

/// Source trees whose design size `size` reports, and whose public
/// items `unreferenced-pub` looks up.
const SIZE_DIRS: [&str; 2] = ["crates/core/src", "crates/ssd/src"];

/// Line prefixes (after indentation) that declare a public type.
const PUBLIC_TYPE_PREFIXES: [&str; 4] = ["pub struct ", "pub enum ", "pub trait ", "pub type "];

/// Keywords that, right after `pub `, declare a public item
/// `unreferenced-pub` looks up by name.
const PUBLIC_ITEM_KEYWORDS: [&str; 7] =
    ["fn", "struct", "enum", "trait", "type", "const", "static"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    let root = args.next().map(PathBuf::from).unwrap_or_else(default_root);
    match command.as_deref() {
        Some("lint-mutators") => lint_mutators(&root),
        Some("size") => size(&root),
        Some("unreferenced-pub") => unreferenced_pub(&root),
        Some(other) => {
            eprintln!(
                "fc-xtask: unknown subcommand {other:?} \
                 (try `lint-mutators`, `size` or `unreferenced-pub`)"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo run -p fc-xtask -- lint-mutators|size|unreferenced-pub [repo-root]"
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: this crate sits at `<root>/crates/xtask`.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).expect("crates/xtask has a grandparent").to_path_buf()
}

/// Every `.rs` file under the `tops` directories of `root`, as
/// `(repo-relative path, text)` pairs sorted by path.
fn read_rs_files(root: &Path, tops: &[&str]) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for top in tops {
        collect_rs_files(&root.join(top), &mut paths);
    }
    paths.sort();
    paths
        .iter()
        .filter_map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path);
            let text = std::fs::read_to_string(path).ok()?;
            Some((rel.to_string_lossy().replace('\\', "/"), text))
        })
        .collect()
}

fn lint_mutators(root: &Path) -> ExitCode {
    let files = read_rs_files(root, &["crates", "tests", "benches", "src"]);
    if files.is_empty() {
        eprintln!("fc-xtask: no .rs files under {}", root.display());
        return ExitCode::FAILURE;
    }
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

/// The lines of one source file before its first `#[cfg(test)]` line
/// (everything from there on is test code), indentation trimmed.
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim_start).take_while(|line| !line.starts_with("#[cfg(test)]"))
}

/// Non-test lines and public type declarations of one source file.
fn source_size(text: &str) -> (usize, usize) {
    non_test_lines(text).fold((0, 0), |(lines, types), line| {
        (lines + 1, types + usize::from(PUBLIC_TYPE_PREFIXES.iter().any(|p| line.starts_with(p))))
    })
}

fn unreferenced_pub(root: &Path) -> ExitCode {
    let files = read_rs_files(root, &["crates", "tests", "benches", "src", "examples"]);
    if !SIZE_DIRS.iter().any(|dir| files.iter().any(|(rel, _)| rel.starts_with(dir))) {
        eprintln!("fc-xtask: no .rs files under {}", root.display());
        return ExitCode::FAILURE;
    }
    let found = find_unreferenced_pub(&files, &SIZE_DIRS);
    println!(
        "fc-xtask unreferenced-pub: {} public items of {} named in no other .rs file",
        found.len(),
        SIZE_DIRS.join(" and ")
    );
    for (rel, line, name) in &found {
        println!("  {rel}:{line}: {name}");
    }
    ExitCode::SUCCESS
}

/// The public items declared in the non-test lines of the `files` under
/// `dirs` whose name is a word of no other file, as `(path, line,
/// name)` in file order.
fn find_unreferenced_pub(
    files: &[(String, String)],
    dirs: &[&str],
) -> Vec<(String, usize, String)> {
    let file_words: Vec<HashSet<&str>> =
        files.iter().map(|(_, text)| words(text).collect()).collect();
    let mut found = Vec::new();
    for (i, (rel, text)) in files.iter().enumerate() {
        if !dirs.iter().any(|dir| rel.starts_with(dir)) {
            continue;
        }
        for (ln, line) in non_test_lines(text).enumerate() {
            let Some(name) = public_item_name(line) else { continue };
            let elsewhere = file_words.iter().enumerate().any(|(j, w)| j != i && w.contains(name));
            if !elsewhere {
                found.push((rel.clone(), ln + 1, name.to_string()));
            }
        }
    }
    found
}

/// The name a line (indentation trimmed) declares as a public item, if
/// it declares one: the word after `pub` and one of
/// [`PUBLIC_ITEM_KEYWORDS`] (after `pub const fn`, the function's).
fn public_item_name(line: &str) -> Option<&str> {
    let mut rest = words(line.strip_prefix("pub ")?);
    let keyword = rest.next()?;
    if !PUBLIC_ITEM_KEYWORDS.contains(&keyword) {
        return None;
    }
    rest.find(|&word| word != "fn")
}

/// The identifier-like words of `text`: maximal runs of alphanumerics
/// and underscores.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
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

    #[test]
    fn public_items_named_in_no_other_file_are_reported() {
        let files = files(&[
            (
                "crates/core/src/a.rs",
                "pub struct Used;\npub fn lonely() {}\n    pub fn only_here() {}\n\
                 pub(crate) fn private() {}\npub const fn lonely_const() {}\n\
                 pub mod m;\n#[cfg(test)]\nmod tests {\n    pub fn test_helper() {}\n}",
            ),
            ("crates/core/src/b.rs", "fn f(u: Used) { not_only_here(); }"),
            ("tests/t.rs", "// lonely_ish, only_here_too"),
            ("examples/e.rs", "fn g(_: crate::Used) {}"),
        ]);
        let found = find_unreferenced_pub(&files, &["crates/core/src"]);
        let found: Vec<(&str, usize, &str)> =
            found.iter().map(|(p, l, n)| (p.as_str(), *l, n.as_str())).collect();
        assert_eq!(
            found,
            [
                ("crates/core/src/a.rs", 2, "lonely"),
                ("crates/core/src/a.rs", 3, "only_here"),
                ("crates/core/src/a.rs", 5, "lonely_const"),
            ]
        );
        assert!(find_unreferenced_pub(&files, &["crates/ssd/src"]).is_empty());
    }
}
