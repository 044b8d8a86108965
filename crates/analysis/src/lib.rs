#![warn(missing_docs)]

//! # analysis — workspace invariant linter
//!
//! CUDAlign's correctness rests on structural invariants that `rustc`
//! cannot see: all persistence flows through the checksummed
//! `cudalign::storage` layer, all parallelism through
//! `gpu_sim::exec::WorkerPool`, supervised loops stay interruptible,
//! condvars re-check their predicates, locks nest in one documented
//! order, and public failures surface as typed error enums. This crate
//! is a source-level lint pass over the whole workspace — run as
//! `cargo run -p analysis` and as a tier-1 test — that turns those
//! conventions into machine-checked rules.
//!
//! The linter is deliberately std-only (the build environment has no
//! registry access, the same constraint that produced the vendored
//! `rand`/`proptest`/`criterion` stubs). It works on a hand-rolled Rust
//! lexer ([`mod@lexer`]): each file is tokenized once into a stream that
//! understands raw strings, nested block comments, lifetimes vs. char
//! literals and doc comments, with brace-depth and paren/bracket-depth
//! tracked per token. A [`model::FileModel`] built on that stream maps
//! `#[cfg(test)]` regions, `struct *Stats` bodies, function items and
//! loop spans; every rule (see [`mod@rules`]) matches against this one
//! shared model, so banned patterns inside strings or comments can never
//! trip a rule and the whole-workspace pass stays under its performance
//! budget.
//!
//! ## Escape hatch
//!
//! A violating site can be suppressed with a per-site comment on the same
//! line or the line directly above:
//!
//! ```text
//! // lint: allow(no-panics): mutex poisoning is unrecoverable here
//! ```
//!
//! The justification after the rule name is mandatory — an `allow`
//! without one is itself reported. An allow whose rule no longer fires
//! at that site is reported as `stale-allow` (and `stale-allow` itself
//! cannot be allowed: delete the stale comment instead). Allows are only
//! read from plain `//`/`/* */` comments, never from doc comments, so
//! documentation *about* the allow syntax — like this page — does not
//! register as a suppression.
//!
//! ## Rules
//!
//! See [`rules()`] for the registry; DESIGN.md §13 documents each rule's
//! rationale and allow policy, and how to add a rule with its fixture.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod model;
mod rules;

use model::FileModel;
use rules::Raw;

/// Identifier of the "no panics in library code" rule.
pub const NO_PANICS: &str = "no-panics";
/// Identifier of the "filesystem access only in storage.rs" rule.
pub const FS_ISOLATION: &str = "fs-isolation";
/// Identifier of the "thread spawning only in gpu_sim::exec" rule.
pub const THREAD_ISOLATION: &str = "thread-isolation";
/// Identifier of the "unsafe blocks need SAFETY comments" rule.
pub const SAFETY_COMMENT: &str = "safety-comment";
/// Identifier of the "no wall-clock reads in hot paths" rule.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Identifier of the "public error enums are `#[non_exhaustive]`" rule.
pub const NON_EXHAUSTIVE_ERRORS: &str = "non-exhaustive-errors";
/// Identifier of the "wall-clock only via the injected obs::Clock" rule.
pub const CLOCK_INJECTION: &str = "clock-injection";
/// Identifier of the "no bare thread::sleep outside sanctioned backoff
/// helpers" rule.
pub const SLEEP_INJECTION: &str = "sleep-injection";
/// Identifier of the "locks nest in the documented order" rule.
pub const LOCK_ORDER: &str = "lock-order";
/// Identifier of the "Condvar waits sit inside predicate loops" rule.
pub const CONDVAR_WAIT_WHILE: &str = "condvar-wait-while";
/// Identifier of the "supervised hot-path loops reach a cancellation
/// check" rule.
pub const CANCEL_COVERAGE: &str = "cancel-coverage";
/// Identifier of the "public Result fns return typed error enums" rule.
pub const TYPED_ERRORS: &str = "typed-errors";
/// Identifier of the "every error-enum variant is constructed" rule.
pub const DEAD_ERROR_VARIANT: &str = "dead-error-variant";
/// Identifier of the "fns tagged `// hot-loop` stay allocation-free and
/// wallclock-free" rule.
pub const HOT_LOOP: &str = "hot-loop";
/// Identifier of the "no allow comments for rules that no longer fire"
/// rule.
pub const STALE_ALLOW: &str = "stale-allow";

/// Static description of one rule in the registry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier, as used in `// lint: allow(<id>): ...`.
    pub id: &'static str,
    /// One-line summary of the enforced invariant.
    pub summary: &'static str,
}

/// The rule registry.
pub fn rules() -> &'static [RuleInfo] {
    &[
        RuleInfo {
            id: NO_PANICS,
            summary: "no unwrap()/expect()/panic!/assert!/assert_eq!/assert_ne!/unreachable!/\
                      todo!/unimplemented! in cudalign/gpu-sim library code (debug_assert*, \
                      tests and bins exempt)",
        },
        RuleInfo {
            id: FS_ISOLATION,
            summary: "no direct std::fs/File access in cudalign/gpu-sim outside storage.rs \
                      (all persistence goes through the checksummed storage layer)",
        },
        RuleInfo {
            id: THREAD_ISOLATION,
            summary: "no thread::spawn/scope/Builder outside gpu_sim::exec and the baselines \
                      crate (all parallelism goes through the WorkerPool)",
        },
        RuleInfo {
            id: SAFETY_COMMENT,
            summary: "every `unsafe` is directly preceded by a // SAFETY: comment",
        },
        RuleInfo {
            id: NO_WALLCLOCK,
            summary: "no Instant/SystemTime in gpu-sim kernel/wavefront/multi/exec hot paths \
                      (stats structs exempt)",
        },
        RuleInfo {
            id: NON_EXHAUSTIVE_ERRORS,
            summary: "public enums named *Error carry #[non_exhaustive]",
        },
        RuleInfo {
            id: CLOCK_INJECTION,
            summary: "no Instant/SystemTime in cudalign outside obs.rs: sample time through \
                      the injected obs::Clock so runs trace deterministically",
        },
        RuleInfo {
            id: SLEEP_INJECTION,
            summary: "no bare std::thread::sleep outside cudalign::storage and gpu_sim::exec \
                      (delays route through injectable hooks so tests never wait wall-clock)",
        },
        RuleInfo {
            id: LOCK_ORDER,
            summary: "registered locks are acquired in the documented outermost-first order \
                      (coord > queue > pending > panic > flag > cause > diag) — inversions \
                      risk deadlock under the strip hand-off protocol",
        },
        RuleInfo {
            id: CONDVAR_WAIT_WHILE,
            summary: "every Condvar wait sits inside a while/loop predicate re-check, never \
                      a bare if (spurious wakeups, stolen signals)",
        },
        RuleInfo {
            id: CANCEL_COVERAGE,
            summary: "every outermost loop in the supervised hot paths (stage1..5, \
                      wavefront::strip, exec) reaches a RunControl/CancelToken check or \
                      carries a justified allow",
        },
        RuleInfo {
            id: TYPED_ERRORS,
            summary: "public Result fns in cudalign/gpu-sim return typed error enums — no \
                      Box<dyn Error>, no Result<_, String>",
        },
        RuleInfo {
            id: DEAD_ERROR_VARIANT,
            summary: "every variant of a cudalign/gpu-sim *Error enum is constructed \
                      somewhere (dead variants hide untested failure paths)",
        },
        RuleInfo {
            id: HOT_LOOP,
            summary: "a fn whose item is directly preceded by a `// hot-loop` comment \
                      contains no Instant/SystemTime reads and no Vec::new/vec!/Box::new \
                      allocations — per-column kernel loops take caller-allocated state",
        },
        RuleInfo {
            id: STALE_ALLOW,
            summary: "a `lint: allow(rule)` whose rule no longer fires at that site is \
                      itself an error (suppressions must not outlive their violation)",
        },
    ]
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the [`rules`] ids).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Outcome of a workspace lint pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All violations, in path/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Sites suppressed by a justified `// lint: allow(...)`.
    pub suppressed: usize,
}

impl LintReport {
    /// Machine-readable JSON rendering (stable key order, no deps):
    /// `{"files":N,"suppressed":N,"findings":[{path,line,rule,msg},..]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.findings.len() * 128);
        s.push_str("{\"files\":");
        s.push_str(&self.files.to_string());
        s.push_str(",\"suppressed\":");
        s.push_str(&self.suppressed.to_string());
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"path\":");
            json_str(&mut s, &f.path);
            s.push_str(",\"line\":");
            s.push_str(&f.line.to_string());
            s.push_str(",\"rule\":");
            json_str(&mut s, f.rule);
            s.push_str(",\"msg\":");
            json_str(&mut s, &f.msg);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Suppression and the lint pass.
// ---------------------------------------------------------------------------

/// Apply the allow hatch to `raw` findings for `m`, marking matched
/// allows used, then report stale allows. Appends to `findings`;
/// returns the number of suppressed sites.
fn resolve(m: &mut FileModel, mut raw: Vec<Raw>, findings: &mut Vec<Finding>) -> usize {
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    let mut suppressed = 0;
    for r in raw {
        match m.allow_for(r.line, r.rule) {
            Some(i) if m.allows[i].justified => {
                m.allows[i].used = true;
                suppressed += 1;
            }
            Some(i) => {
                // The allow matched a live violation — not stale, but its
                // missing justification keeps the finding alive.
                m.allows[i].used = true;
                findings.push(Finding {
                    path: m.rel_path.clone(),
                    line: r.line + 1,
                    rule: r.rule,
                    msg: format!(
                        "{} — `lint: allow({})` found but the mandatory justification is \
                         missing (write `// lint: allow({}): <why>`)",
                        r.msg, r.rule, r.rule
                    ),
                });
            }
            None => {
                findings.push(Finding {
                    path: m.rel_path.clone(),
                    line: r.line + 1,
                    rule: r.rule,
                    msg: r.msg,
                });
            }
        }
    }
    // Stale-allow: every surviving allow must have suppressed (or at
    // least matched) something. Allows in test regions are skipped —
    // most rules exempt test code, so they could never fire there.
    for a in &m.allows {
        if a.used || m.test_lines[a.line.min(m.nlines)] {
            continue;
        }
        let known = rules().iter().any(|r| r.id == a.rule);
        let msg = if known {
            format!(
                "stale `lint: allow({})`: the rule no longer fires at this site — \
                 delete the allow so the suppression can't mask a future regression",
                a.rule
            )
        } else {
            format!(
                "`lint: allow({})` names a rule that does not exist — fix the id \
                 (see `cargo run -p analysis -- --list-rules`) or delete the allow",
                a.rule
            )
        };
        findings.push(Finding {
            path: m.rel_path.clone(),
            line: a.line + 1,
            rule: STALE_ALLOW,
            msg,
        });
    }
    suppressed
}

/// Run the full rule set over `models` (files to lint) with `extra`
/// (test targets etc.) contributing to the variant-construction index
/// only. Returns `(findings, suppressed)`.
fn lint_models(models: &mut [FileModel], extra: &[FileModel]) -> (Vec<Finding>, usize) {
    let mut idx = BTreeSet::new();
    for m in models.iter().chain(extra) {
        rules::record_constructions(m, &mut idx);
    }
    let mut findings = Vec::new();
    let mut suppressed = 0;
    for m in models {
        let mut raw = Vec::new();
        rules::per_file(m, &mut raw);
        rules::dead_error_variants(m, &idx, &mut raw);
        suppressed += resolve(m, raw, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    (findings, suppressed)
}

/// Lint a single source buffer as if it lived at `rel_path` (workspace
/// relative, `/`-separated). The file doubles as its own construction
/// index, so workspace rules like dead-variant detection work on
/// self-contained fixtures. Returns `(findings, suppressed)`.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let mut models = [FileModel::new(rel_path, src)];
    lint_models(&mut models, &[])
}

// ---------------------------------------------------------------------------
// Workspace walk.
// ---------------------------------------------------------------------------

/// Collect the workspace's lintable sources: every `.rs` under
/// `crates/*/src`. Test *targets* (`tests/tests`, `crates/*/tests`,
/// benches, examples) are whole-file test code and are not walked.
fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path().join("src");
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Test targets whose sources feed the dead-variant construction index
/// without being linted themselves (a variant only built by a test is
/// still live).
fn usage_only_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut dirs: Vec<PathBuf> = vec![root.join("tests").join("tests")];
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let p = entry?.path();
        if p.is_dir() {
            dirs.push(p.join("tests"));
            dirs.push(p.join("benches"));
        }
    }
    for dir in dirs {
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the whole workspace rooted at `root`. Each file is read and
/// tokenized exactly once; all rules share the token cache.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut models = Vec::new();
    for path in workspace_sources(root)? {
        let src = std::fs::read_to_string(&path)?;
        models.push(FileModel::new(&rel_of(root, &path), &src));
    }
    let mut extra = Vec::new();
    for path in usage_only_sources(root)? {
        let src = std::fs::read_to_string(&path)?;
        extra.push(FileModel::new(&rel_of(root, &path), &src));
    }
    let files = models.len();
    let (findings, suppressed) = lint_models(&mut models, &extra);
    Ok(LintReport { findings, files, suppressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_comments_chars_never_trip_rules() {
        let src = "pub fn f() {\n    let s = \"panic! .unwrap() std::fs thread::spawn\";\n    // .unwrap() in a comment\n    let c = '\\n';\n    let _ = (s, c);\n}\n";
        let (findings, _) = lint_source("crates/cudalign/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn method_calls_reject_suffixed_names() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_else(|| 1) - x.map(|v| v).expect_err_count()\n}\n";
        let (findings, _) = lint_source("crates/cudalign/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        let bad = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let (findings, _) = lint_source("crates/cudalign/src/x.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, NO_PANICS);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        let (findings, _) = lint_source("crates/cudalign/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn raw_strings_are_opaque() {
        let src = "pub fn f() -> &'static str {\n    r#\"thread::spawn panic! \"quoted\" \"#\n}\n";
        let (findings, _) = lint_source("crates/cudalign/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_requires_justification() {
        let with = "pub fn f(y: Option<u32>) -> u32 {\n    // lint: allow(no-panics): infallible by construction\n    y.unwrap()\n}\n";
        let (f, s) = lint_source("crates/cudalign/src/x.rs", with);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s, 1);
        let without =
            "pub fn f(y: Option<u32>) -> u32 {\n    // lint: allow(no-panics)\n    y.unwrap()\n}\n";
        let (f, _) = lint_source("crates/cudalign/src/x.rs", without);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("justification"), "{}", f[0].msg);
    }

    #[test]
    fn stale_allow_is_reported_and_cannot_be_allowed() {
        let src = "// lint: allow(no-panics): leftover from a removed unwrap\npub fn f(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n";
        let (f, s) = lint_source("crates/cudalign/src/x.rs", src);
        assert_eq!(s, 0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, STALE_ALLOW);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// lint: allow(no-sutch-rule): typo\npub fn f() {}\n";
        let (f, _) = lint_source("crates/cudalign/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, STALE_ALLOW);
        assert!(f[0].msg.contains("does not exist"), "{}", f[0].msg);
    }

    #[test]
    fn json_output_round_trips_structure() {
        let report = LintReport {
            findings: vec![Finding {
                path: "crates/x/src/a.rs".into(),
                line: 3,
                rule: NO_PANICS,
                msg: "a \"quoted\" msg\nwith newline".into(),
            }],
            files: 2,
            suppressed: 1,
        };
        let j = report.to_json();
        assert!(j.starts_with("{\"files\":2,\"suppressed\":1,\"findings\":["), "{j}");
        assert!(j.contains("\\\"quoted\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert!(j.ends_with("}]}"), "{j}");
    }

    #[test]
    fn every_registered_rule_id_is_unique() {
        let mut seen = BTreeSet::new();
        for r in rules() {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
        }
        assert_eq!(seen.len(), 15);
    }
}
