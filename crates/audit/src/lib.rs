#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-audit
//!
//! A repo-specific static-analysis pass that makes the workspace's two
//! load-bearing contracts *unbreakable by accident* (DESIGN.md §2d):
//!
//! * **Determinism** — every digest pin (fig6-quick, sweep-k,
//!   query-throughput, scale-stress) asserts bit-identical selections at
//!   any thread width. The D-lints ban the constructs that silently
//!   break that: partial float orderings (`partial_cmp`), hash-order
//!   iteration (`HashMap`/`HashSet`), and ambient reads (`Instant`,
//!   `SystemTime`, `std::env`) in result-producing code.
//! * **Unsafe safety** — the workspace holds no `unsafe` code. The
//!   S-lints require `#![forbid(unsafe_code)]` at every unsafe-free
//!   crate root, strict hygiene attributes and a `SAFETY:` proof at
//!   every site wherever `unsafe` appears, and confine `unsafe impl Pod`
//!   to provably padding-free primitives.
//!
//! The scanner is a hand-rolled, comment/string-aware token lexer (no
//! crates.io access, so no `syn`); it runs in milliseconds over the
//! whole tree. Sites that are *deliberately* exempt carry an
//! `audit:allow` waiver comment naming the lint id and a quoted reason,
//! and every waiver is listed — with its reason — in the JSON report,
//! so the full trusted surface is reviewable in one place:
//!
//! ```text
//! cargo run -p vom-audit -- --workspace --json audit-report.json
//! ```
//!
//! Exit status: 0 when the tree is clean, 1 when any violation
//! survives, 2 on usage errors.

pub mod lexer;
pub mod lints;
pub mod report;

use lints::{FileScan, Lint};
use report::{AuditReport, ExemptionRecord, Violation, WaiverRecord};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never scanned: generated output, VCS metadata, and
/// test/bench/example/fixture code (test code may freely use hash maps,
/// timers and seeded violations).
const SKIP_DIRS: [&str; 7] = [
    "target",
    ".git",
    "tests",
    "benches",
    "examples",
    "fixtures",
    "node_modules",
];

/// The one crate allowed to define `Pod` impls.
const POD_HOME: &str = "vom-persist";

/// Built-in crate-level exemptions. These are *policy*, not waivers:
/// whole crates whose purpose contradicts a lint (a bench harness exists
/// to read the clock). They are reported whenever they absorb findings.
const EXEMPTIONS: [(&str, Lint, &str); 2] = [
    (
        "vom-bench",
        Lint::WallClock,
        "benchmark harness: measuring wall clock is its purpose; selections carry digests \
         asserted identical across widths, so timers cannot reach results",
    ),
    (
        "vom-bench",
        Lint::EnvRead,
        "CLI entry point parses std::env::args and temp paths; all selection output is \
         digest-pinned independently of the environment",
    ),
];

/// One discovered source file.
#[derive(Debug)]
struct SourceFile {
    /// Absolute path.
    abs: PathBuf,
    /// Root-relative display path.
    rel: String,
    /// Owning crate (package name from the nearest `Cargo.toml`).
    crate_name: String,
    /// Whether this file is a crate/bin root (`src/lib.rs`, `src/main.rs`,
    /// `src/bin/*.rs`).
    is_root: bool,
}

/// Scans the tree rooted at `root` and returns the full report.
pub fn scan_root(root: &Path) -> io::Result<AuditReport> {
    let files = discover(root)?;
    let mut report = AuditReport {
        root: root.display().to_string(),
        files_scanned: files.len(),
        ..AuditReport::default()
    };
    let mut crates: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut scans: Vec<FileScan> = Vec::with_capacity(files.len());
    for (idx, f) in files.iter().enumerate() {
        let src = fs::read_to_string(&f.abs)?;
        let scan = lints::scan_file(&src, f.crate_name == POD_HOME);
        crates.entry(f.crate_name.clone()).or_default().push(idx);
        scans.push(scan);
    }
    report.crates = crates.keys().cloned().collect();

    // Crate-level `s-crate-attrs` findings.
    let mut extra: Vec<(usize, lints::Finding)> = Vec::new();
    for (crate_name, members) in &crates {
        let has_unsafe = members.iter().any(|&i| scans[i].has_unsafe);
        for i in members {
            let f = &files[*i];
            if !f.is_root {
                continue;
            }
            let attrs = scans[*i].root_attrs;
            if has_unsafe && !attrs.denies_unsafe_op {
                extra.push((
                    *i,
                    lints::Finding {
                        lint: Lint::CrateAttrs,
                        line: 1,
                        message: format!(
                            "crate `{crate_name}` contains `unsafe` code but this root lacks \
                             `#![deny(unsafe_op_in_unsafe_fn)]`"
                        ),
                    },
                ));
            }
            if !has_unsafe && !attrs.forbids_unsafe_code {
                extra.push((
                    *i,
                    lints::Finding {
                        lint: Lint::CrateAttrs,
                        line: 1,
                        message: format!(
                            "crate `{crate_name}` is unsafe-free but this root lacks \
                             `#![forbid(unsafe_code)]` to keep it that way"
                        ),
                    },
                ));
            }
        }
    }
    for (i, f) in extra {
        scans[i].findings.push(f);
    }

    // Apply exemptions and waivers, then assemble.
    let mut exemption_hits: BTreeMap<(String, Lint), usize> = BTreeMap::new();
    for (idx, scan) in scans.iter_mut().enumerate() {
        let f = &files[idx];
        let mut waiver_used = vec![false; scan.waivers.len()];
        for finding in &scan.findings {
            // Built-in crate exemption?
            if let Some((_, lint, _)) = EXEMPTIONS
                .iter()
                .find(|(c, l, _)| *c == f.crate_name && *l == finding.lint)
            {
                *exemption_hits
                    .entry((f.crate_name.clone(), *lint))
                    .or_default() += 1;
                continue;
            }
            // Per-site waiver? (`s-crate-attrs` findings anchor to line 1
            // but may be waived from anywhere in the root file.)
            let waived = scan.waivers.iter().enumerate().find(|(_, w)| {
                w.lint == finding.lint
                    && (w.covers.contains(&finding.line) || finding.lint == Lint::CrateAttrs)
            });
            if let Some((wi, _)) = waived {
                waiver_used[wi] = true;
                continue;
            }
            report.violations.push(Violation {
                lint: finding.lint,
                file: f.rel.clone(),
                line: finding.line,
                message: finding.message.clone(),
            });
        }
        for (w, used) in scan.waivers.iter().zip(waiver_used) {
            report.waivers.push(WaiverRecord {
                lint: w.lint,
                file: f.rel.clone(),
                line: w.line,
                reason: w.reason.clone(),
                used,
            });
        }
    }
    for ((crate_name, lint), suppressed) in exemption_hits {
        let reason = EXEMPTIONS
            .iter()
            .find(|(c, l, _)| *c == crate_name && *l == lint)
            .map(|(_, _, r)| r.to_string())
            .unwrap_or_default();
        report.exemptions.push(ExemptionRecord {
            crate_name,
            lint,
            reason,
            suppressed,
        });
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Walks the workspace at `root` for scannable `.rs` files with their
/// crate attribution: the root package plus the packages its
/// `[workspace] members` name. A package directory that is not a member
/// (a separate Cargo workspace nested in the tree) is not scanned.
fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let members = workspace_members(root)?;
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for e in entries {
            let path = e.path();
            let name = e.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                let foreign_package =
                    package_name(&path.join("Cargo.toml")).is_some() && !members.contains(&path);
                if !SKIP_DIRS.contains(&name.as_str()) && !foreign_package {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let Some(crate_name) = owning_crate(&path, root) else {
                    continue; // stray file outside any package
                };
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .display()
                    .to_string();
                files.push(SourceFile {
                    is_root: is_crate_root(&path),
                    abs: path,
                    rel,
                    crate_name,
                });
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// The member directories named by the `members` array of `root`'s
/// `[workspace]` table. Entries are either a directory (`"dir"`) or all
/// package directories directly under one (`"dir/*"`).
fn workspace_members(root: &Path) -> io::Result<Vec<PathBuf>> {
    let Ok(text) = fs::read_to_string(root.join("Cargo.toml")) else {
        return Ok(Vec::new());
    };
    let mut in_workspace = false;
    let mut array: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(acc) = array.as_mut() {
            acc.push_str(line);
        } else if line.starts_with('[') {
            in_workspace = line == "[workspace]";
        } else if in_workspace {
            if let Some(rest) = line.strip_prefix("members") {
                if let Some(value) = rest.trim_start().strip_prefix('=') {
                    array = Some(value.to_string());
                }
            }
        }
        if array.as_deref().is_some_and(|a| a.contains(']')) {
            break;
        }
    }
    let mut members = Vec::new();
    for entry in array.unwrap_or_default().split('"').skip(1).step_by(2) {
        match entry.strip_suffix("/*") {
            Some(parent) => {
                let mut dirs: Vec<PathBuf> = fs::read_dir(root.join(parent))?
                    .map(|e| e.map(|e| e.path()))
                    .collect::<Result<_, _>>()?;
                dirs.retain(|d| d.join("Cargo.toml").is_file());
                members.extend(dirs);
            }
            None => members.push(root.join(entry)),
        }
    }
    Ok(members)
}

/// The package name of the nearest enclosing `Cargo.toml`, searching up
/// to (and including) `root`.
fn owning_crate(file: &Path, root: &Path) -> Option<String> {
    let mut dir = file.parent()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Some(name) = package_name(&manifest) {
                return Some(name);
            }
        }
        if dir == root {
            return None;
        }
        dir = dir.parent()?;
    }
}

/// Extracts `name = "..."` from a manifest's `[package]` table.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Whether `path` is a crate or bin root (`src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs`).
fn is_crate_root(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let parent = path
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        .unwrap_or("");
    if parent == "src" && (name == "lib.rs" || name == "main.rs") {
        return true;
    }
    let grandparent = path
        .parent()
        .and_then(|p| p.parent())
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        .unwrap_or("");
    parent == "bin" && grandparent == "src"
}

/// Finds the enclosing workspace root: the nearest ancestor of `start`
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_scans_members_and_skips_other_packages() {
        let root = std::env::temp_dir().join(format!("vom-audit-members-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        write(
            "Cargo.toml",
            "[workspace]\nmembers = [\n    \"crates/*\",\n    \"tool\",\n]\n\n[package]\nname = \"top\"\n",
        );
        write("src/lib.rs", "");
        write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write("crates/a/src/lib.rs", "");
        write("tool/Cargo.toml", "[package]\nname = \"tool\"\n");
        write("tool/src/main.rs", "");
        write(
            "bench/Cargo.toml",
            "[package]\nname = \"bench\"\n\n[workspace]\n",
        );
        write("bench/src/main.rs", "");

        let files = discover(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        let found: Vec<(&str, &str)> = files
            .iter()
            .map(|f| (f.rel.as_str(), f.crate_name.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                ("crates/a/src/lib.rs", "a"),
                ("src/lib.rs", "top"),
                ("tool/src/main.rs", "tool"),
            ]
        );
    }
}
