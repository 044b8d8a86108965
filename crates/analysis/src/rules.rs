//! The rule implementations. Each rule walks a shared [`FileModel`]
//! (one lex per file, all rules reuse it) and pushes [`Raw`] findings;
//! suppression, stale-allow detection and sorting happen in `lib.rs`.

use crate::model::{FileModel, LoopKind};
use crate::*;
use std::collections::{BTreeMap, BTreeSet};

/// A rule hit before the allow hatch is applied: 0-based line.
pub(crate) struct Raw {
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

// ---------------------------------------------------------------------------
// Path scoping.
// ---------------------------------------------------------------------------

/// Crates vendored as minimal API mirrors of external registry crates;
/// they follow upstream's API shape, not this repo's conventions.
const VENDORED: &[&str] = &["crates/rand/", "crates/proptest/", "crates/criterion/"];

/// Files making up the gpu-sim compute hot path (the per-cell /
/// per-diagonal loops a wall-clock read would perturb and serialize).
const HOT_PATHS: &[&str] = &[
    "crates/gpu-sim/src/kernel.rs",
    "crates/gpu-sim/src/striped.rs",
    "crates/gpu-sim/src/striped8.rs",
    "crates/gpu-sim/src/wavefront.rs",
    "crates/gpu-sim/src/multi.rs",
    "crates/gpu-sim/src/exec.rs",
];

/// Files whose loops run under supervision and therefore must stay
/// interruptible (`wavefront.rs` is restricted to its `mod strip`).
const SUPERVISED: &[&str] = &[
    "crates/cudalign/src/stage1.rs",
    "crates/cudalign/src/stage2.rs",
    "crates/cudalign/src/stage3.rs",
    "crates/cudalign/src/stage4.rs",
    "crates/cudalign/src/stage5.rs",
    "crates/cudalign/src/serve.rs",
    "crates/gpu-sim/src/exec.rs",
];

/// The documented lock-acquisition order, outermost first (DESIGN.md
/// §13). Acquiring an earlier-ranked lock while holding a later-ranked
/// one inverts the order and risks deadlock. Lock fields not listed here
/// are single-lock protocols the rule ignores.
pub(crate) const LOCK_RANKS: &[&str] = &[
    "coord",   // wavefront strip scheduler state (gpu_sim::wavefront::strip)
    "queue",   // worker pool job queue (gpu_sim::exec)
    "pending", // worker pool in-flight counter (gpu_sim::exec)
    "panic",   // worker pool panic slot (gpu_sim::exec)
    "flag",    // watchdog shutdown flag (gpu_sim::exec)
    "cause",   // cancel token cause slot (gpu_sim::ctrl)
    "diag",    // cancel token strip diagnostics (gpu_sim::ctrl)
];

/// Identifiers whose presence in a supervised loop marks it as reaching
/// a cancellation check (directly or through the heartbeat protocol).
const CANCEL_MARKERS: &[&str] = &[
    "check",
    "is_cancelled",
    "cancel",
    "cancelled",
    "Cancelled",
    "beat",
    "beats",
    "shutdown",
    "CancelToken",
    "RunControl",
];

fn is_vendored(path: &str) -> bool {
    VENDORED.iter().any(|v| path.starts_with(v))
}

fn is_bin(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("/src/main.rs")
}

fn in_library_scope(path: &str) -> bool {
    (path.starts_with("crates/cudalign/src/") || path.starts_with("crates/gpu-sim/src/"))
        && !is_bin(path)
}

// ---------------------------------------------------------------------------
// Ported line rules (one finding per offending line, as before).
// ---------------------------------------------------------------------------

fn push_lines(out: &mut Vec<Raw>, lines: &BTreeSet<usize>, rule: &'static str, msg: &str) {
    for &l in lines {
        out.push(Raw { line: l, rule, msg: msg.to_owned() });
    }
}

/// Macros that panic in release builds; `debug_assert*` are exempt.
const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

fn no_panics(m: &FileModel, out: &mut Vec<Raw>) {
    if !in_library_scope(&m.rel_path) {
        return;
    }
    for ci in 0..m.code_len() {
        let t = m.ct(ci);
        if m.test_lines[t.line] {
            continue;
        }
        let what = if m.method_call_at(ci, "unwrap") {
            ".unwrap()".to_owned()
        } else if m.method_call_at(ci, "expect") {
            ".expect(..)".to_owned()
        } else if PANIC_MACROS.iter().any(|&mac| t.is_ident(mac))
            && !m.has_path_prefix(ci)
            && ci + 1 < m.code_len()
            && m.ct(ci + 1).is_punct(b'!')
        {
            format!("{}!", t.text)
        } else {
            continue;
        };
        out.push(Raw {
            line: t.line,
            rule: NO_PANICS,
            msg: format!(
                "`{what}` in library code: return a typed error \
                 (StageError/StorageError/ExecError) instead, or use debug_assert!"
            ),
        });
    }
}

fn fs_isolation(m: &FileModel, out: &mut Vec<Raw>) {
    let path = &m.rel_path;
    if !in_library_scope(path) || path.ends_with("/storage.rs") {
        return;
    }
    let mut lines = BTreeSet::new();
    for ci in 0..m.code_len() {
        let t = m.ct(ci);
        if m.test_lines[t.line] {
            continue;
        }
        let followed_by_path =
            ci + 2 < m.code_len() && m.ct(ci + 1).is_punct(b':') && m.ct(ci + 2).is_punct(b':');
        let after_std = m.has_path_prefix(ci) && ci >= 3 && m.ct(ci - 3).is_ident("std");
        let hit = (t.is_ident("fs") && (followed_by_path || after_std))
            || (t.is_ident("File") && followed_by_path && !m.has_path_prefix(ci))
            || (t.is_ident("OpenOptions") && !m.has_path_prefix(ci));
        if hit {
            lines.insert(t.line);
        }
    }
    push_lines(
        out,
        &lines,
        FS_ISOLATION,
        "direct filesystem access outside cudalign::storage: all persistence must go \
         through the checksummed storage layer",
    );
}

fn thread_isolation(m: &FileModel, out: &mut Vec<Raw>) {
    let path = &m.rel_path;
    if path == "crates/gpu-sim/src/exec.rs"
        || path.starts_with("crates/baselines/")
        || is_vendored(path)
    {
        return;
    }
    let mut lines = BTreeSet::new();
    for ci in 0..m.code_len() {
        let t = m.ct(ci);
        if m.test_lines[t.line] {
            continue;
        }
        if ["spawn", "scope", "Builder"].iter().any(|tail| m.path_at(ci, &["thread", tail])) {
            lines.insert(t.line);
        }
    }
    push_lines(
        out,
        &lines,
        THREAD_ISOLATION,
        "thread spawned outside gpu_sim::exec: all engine parallelism must go through \
         the shared WorkerPool",
    );
}

fn safety_comment(m: &FileModel, out: &mut Vec<Raw>) {
    let mut lines = BTreeSet::new();
    for ci in 0..m.code_len() {
        let t = m.ct(ci);
        if !t.is_ident("unsafe") {
            continue;
        }
        // Accept SAFETY: on the same line or in the contiguous comment
        // block whose last line is directly above.
        let mut ok = m.comment_text[t.line].contains("SAFETY:");
        let mut k = t.line;
        while !ok && k > 0 {
            k -= 1;
            if m.comment_text[k].is_empty() || m.has_code[k] {
                break;
            }
            ok = m.comment_text[k].contains("SAFETY:");
        }
        if !ok {
            lines.insert(t.line);
        }
    }
    push_lines(
        out,
        &lines,
        SAFETY_COMMENT,
        "`unsafe` without a `// SAFETY:` comment directly above: state the invariant \
         that makes this sound",
    );
}

fn wallclock_hits(m: &FileModel) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    for ci in 0..m.code_len() {
        let t = m.ct(ci);
        if m.test_lines[t.line] || m.stats_lines[t.line] {
            continue;
        }
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            lines.insert(t.line);
        }
    }
    lines
}

fn no_wallclock(m: &FileModel, out: &mut Vec<Raw>) {
    if !HOT_PATHS.contains(&m.rel_path.as_str()) {
        return;
    }
    push_lines(
        out,
        &wallclock_hits(m),
        NO_WALLCLOCK,
        "wall-clock read in a wavefront/kernel hot path: time only at stage \
         boundaries (pipeline.rs) or in stats structs",
    );
}

fn clock_injection(m: &FileModel, out: &mut Vec<Raw>) {
    let path = m.rel_path.as_str();
    if !path.starts_with("crates/cudalign/src/") || path.ends_with("/obs.rs") || is_bin(path) {
        return;
    }
    push_lines(
        out,
        &wallclock_hits(m),
        CLOCK_INJECTION,
        "wall-clock read outside cudalign::obs: sample time through the injected \
         obs::Clock (Obs::now) so traces stay deterministic",
    );
}

fn sleep_injection(m: &FileModel, out: &mut Vec<Raw>) {
    let path = m.rel_path.as_str();
    if path == "crates/cudalign/src/storage.rs"
        || path == "crates/gpu-sim/src/exec.rs"
        || is_vendored(path)
    {
        return;
    }
    let mut lines = BTreeSet::new();
    for ci in 0..m.code_len() {
        if m.test_lines[m.ct(ci).line] {
            continue;
        }
        if m.path_at(ci, &["thread", "sleep"]) {
            lines.insert(m.ct(ci).line);
        }
    }
    push_lines(
        out,
        &lines,
        SLEEP_INJECTION,
        "bare thread::sleep outside cudalign::storage / gpu_sim::exec: route the \
         delay through storage::fault::backoff_sleep or a watchdog TimeSource so \
         tests don't wait real wall-clock",
    );
}

fn non_exhaustive_errors(m: &FileModel, out: &mut Vec<Raw>) {
    if is_vendored(&m.rel_path) {
        return;
    }
    for ci in 0..m.code_len().saturating_sub(2) {
        if !(m.ct(ci).is_ident("pub") && m.ct(ci + 1).is_ident("enum")) {
            continue;
        }
        let name_tok = m.ct(ci + 2);
        if name_tok.kind != crate::lexer::TokKind::Ident || !name_tok.text.ends_with("Error") {
            continue;
        }
        if m.test_lines[m.ct(ci).line] {
            continue;
        }
        if !attrs_have_ident(m, ci, "non_exhaustive") {
            out.push(Raw {
                line: m.ct(ci).line,
                rule: NON_EXHAUSTIVE_ERRORS,
                msg: format!(
                    "public error enum `{}` is not `#[non_exhaustive]`: downstream \
                     matches would break when a failure mode is added",
                    name_tok.text
                ),
            });
        }
    }
}

/// Walk the `#[...]` attribute groups directly above the item whose
/// first code token is at `item`; true when any contains ident `want`.
fn attrs_have_ident(m: &FileModel, item: usize, want: &str) -> bool {
    let mut j = item;
    while j > 0 && m.ct(j - 1).is_punct(b']') {
        let close_delim = m.ct(j - 1).delim;
        let mut k = j - 1;
        while k > 0 && !(m.ct(k).is_punct(b'[') && m.ct(k).delim == close_delim) {
            k -= 1;
        }
        if k == 0 || !m.ct(k - 1).is_punct(b'#') {
            break;
        }
        if (k..j).any(|i| m.ct(i).is_ident(want)) {
            return true;
        }
        j = k - 1;
    }
    false
}

// ---------------------------------------------------------------------------
// lock-order: guards must nest according to LOCK_RANKS.
// ---------------------------------------------------------------------------

/// A recognized lock acquisition: `name.lock(` / `lock_unpoisoned(&x.name)`.
struct Acquire {
    /// Code-token index of the acquisition call.
    at: usize,
    /// Rank in [`LOCK_RANKS`] (lower = outer).
    rank: usize,
    /// Name of the lock field.
    name: &'static str,
    /// Code-token index just past the guard's live range.
    end: usize,
}

fn rank_of(name: &str) -> Option<usize> {
    LOCK_RANKS.iter().position(|&r| r == name)
}

fn lock_order(m: &FileModel, out: &mut Vec<Raw>) {
    if !in_library_scope(&m.rel_path) {
        return;
    }
    let mut acquires: Vec<Acquire> = Vec::new();
    for ci in 0..m.code_len() {
        if m.test_lines[m.ct(ci).line] {
            continue;
        }
        let name = if m.method_call_at(ci, "lock") && ci >= 2 {
            // `<field>.lock(` — take the receiver ident.
            let recv = m.ct(ci - 2);
            if recv.kind == crate::lexer::TokKind::Ident {
                Some(recv.text.as_str())
            } else {
                None
            }
        } else if m.ct(ci).is_ident("lock_unpoisoned")
            && ci + 1 < m.code_len()
            && m.ct(ci + 1).is_punct(b'(')
        {
            // `lock_unpoisoned(&self.<field>)` — last ident in the args.
            let arg_delim = m.ct(ci + 1).delim;
            let mut k = ci + 2;
            let mut last = None;
            while k < m.code_len() && !(m.ct(k).is_punct(b')') && m.ct(k).delim == arg_delim) {
                if m.ct(k).kind == crate::lexer::TokKind::Ident {
                    last = Some(k);
                }
                k += 1;
            }
            last.map(|i| m.ct(i).text.as_str())
        } else {
            None
        };
        let Some(rank) = name.and_then(rank_of) else { continue };
        acquires.push(Acquire { at: ci, rank, name: LOCK_RANKS[rank], end: guard_end(m, ci) });
    }
    // Any acquisition inside an earlier guard's live range must carry a
    // rank strictly greater than the held lock's.
    for outer in &acquires {
        for inner in &acquires {
            if inner.at > outer.at && inner.at < outer.end && inner.rank <= outer.rank {
                out.push(Raw {
                    line: m.ct(inner.at).line,
                    rule: LOCK_ORDER,
                    msg: format!(
                        "lock `{}` (rank {}) acquired while `{}` (rank {}) is held: \
                         the documented order is {:?} outermost-first — drop the held \
                         guard first or acquire in order",
                        inner.name, inner.rank, outer.name, outer.rank, LOCK_RANKS
                    ),
                });
            }
        }
    }
}

/// Code-token index just past the live range of the guard produced by
/// the lock call at `ci`: a `let`-bound guard lives to its enclosing
/// block's close (or an explicit `drop(name)`); a temporary dies at the
/// statement's `;`.
fn guard_end(m: &FileModel, ci: usize) -> usize {
    let (depth, delim) = (m.ct(ci).depth, m.ct(ci).delim);
    // Statement head: token after the nearest preceding `;`/`{`/`}`.
    let mut head = ci;
    while head > 0 {
        let t = m.ct(head - 1);
        if t.is_punct(b';') || t.is_punct(b'{') || t.is_punct(b'}') {
            break;
        }
        head -= 1;
    }
    let bound = m.ct(head).is_ident("let");
    let guard_name = if bound {
        let mut k = head + 1;
        while k < ci && (m.ct(k).is_ident("mut") || m.ct(k).kind != crate::lexer::TokKind::Ident) {
            k += 1;
        }
        (k < ci).then(|| m.ct(k).text.clone())
    } else {
        None
    };
    for k in ci + 1..m.code_len() {
        let t = m.ct(k);
        if bound {
            if let Some(name) = &guard_name {
                // Explicit `drop(name)` ends the guard early.
                if t.is_ident("drop")
                    && k + 2 < m.code_len()
                    && m.ct(k + 1).is_punct(b'(')
                    && m.ct(k + 2).is_ident(name)
                {
                    return k;
                }
            }
            // The enclosing block's close carries one less depth than
            // the tokens inside it; nested blocks' closes carry >= ours.
            if t.is_punct(b'}') && t.depth < depth {
                return k;
            }
        } else if t.is_punct(b';') && t.depth == depth && t.delim == delim {
            return k;
        }
    }
    m.code_len()
}

// ---------------------------------------------------------------------------
// condvar-wait-while: every wait re-checks its predicate in a loop.
// ---------------------------------------------------------------------------

fn condvar_wait_while(m: &FileModel, out: &mut Vec<Raw>) {
    if !in_library_scope(&m.rel_path) {
        return;
    }
    for ci in 0..m.code_len() {
        let t = m.ct(ci);
        if m.test_lines[t.line] {
            continue;
        }
        if !(m.method_call_at(ci, "wait") || m.method_call_at(ci, "wait_timeout")) {
            continue;
        }
        if m.enclosing_loop(ci).is_none() {
            out.push(Raw {
                line: t.line,
                rule: CONDVAR_WAIT_WHILE,
                msg: "`Condvar` wait outside a `while`/`loop` body: spurious wakeups and \
                      stolen signals require re-checking the predicate after every \
                      wakeup (use a loop, or `wait_while`)"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// cancel-coverage: supervised hot-path loops must stay interruptible.
// ---------------------------------------------------------------------------

fn cancel_coverage(m: &FileModel, out: &mut Vec<Raw>) {
    let path = m.rel_path.as_str();
    let strip_only = path == "crates/gpu-sim/src/wavefront.rs";
    if !SUPERVISED.contains(&path) && !strip_only {
        return;
    }
    // In wavefront.rs only `mod strip` (the scheduler) runs supervised.
    let region = if strip_only {
        let mut found = None;
        for ci in 0..m.code_len().saturating_sub(1) {
            if m.ct(ci).is_ident("mod") && m.ct(ci + 1).is_ident("strip") {
                let d = m.ct(ci).depth;
                let mut k = ci + 2;
                while k < m.code_len() && !(m.ct(k).is_punct(b'{') && m.ct(k).depth == d) {
                    k += 1;
                }
                if k < m.code_len() {
                    found = Some((k, m.matching_close(k)));
                }
                break;
            }
        }
        match found {
            Some(r) => Some(r),
            None => return,
        }
    } else {
        None
    };
    for l in &m.loops {
        let kw_line = m.ct(l.kw).line;
        if m.test_lines[kw_line] {
            continue;
        }
        if let Some((o, c)) = region {
            if !(o < l.kw && l.kw < c) {
                continue;
            }
        }
        // Only outermost loops: an inner loop is covered by the check the
        // outer one is required to reach per iteration.
        if m.enclosing_loop(l.kw).is_some() {
            continue;
        }
        // The loop condition counts too (e.g. `while !ctrl.is_cancelled()`).
        let covered = (l.kw..=l.body.1).any(|ci| {
            let t = m.ct(ci);
            t.kind == crate::lexer::TokKind::Ident && CANCEL_MARKERS.iter().any(|&w| t.text == w)
        });
        if !covered {
            let kind = match l.kind {
                LoopKind::For => "for",
                LoopKind::While => "while",
                LoopKind::Loop => "loop",
            };
            out.push(Raw {
                line: kw_line,
                rule: CANCEL_COVERAGE,
                msg: format!(
                    "`{kind}` loop in a supervised hot path never reaches a cancellation \
                     check: poll RunControl::check/CancelToken (or justify with an allow \
                     if the loop is provably bounded and fast)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// typed-errors: public Result fns return typed error enums.
// ---------------------------------------------------------------------------

fn typed_errors(m: &FileModel, out: &mut Vec<Raw>) {
    if !in_library_scope(&m.rel_path) {
        return;
    }
    for f in &m.fns {
        if !f.is_pub {
            continue;
        }
        let kw_line = m.ct(f.kw).line;
        if m.test_lines[kw_line] {
            continue;
        }
        // Return type: after the `->` at the signature's nesting level
        // (an `->` inside `Fn(..) -> T` params sits at a deeper delim).
        let (kw_depth, kw_delim) = (m.ct(f.kw).depth, m.ct(f.kw).delim);
        let mut ret_start = None;
        for ci in f.kw..f.sig_end.saturating_sub(1) {
            let t = m.ct(ci);
            if t.is_punct(b'-')
                && m.ct(ci + 1).is_punct(b'>')
                && t.depth == kw_depth
                && t.delim == kw_delim
            {
                ret_start = Some(ci + 2);
                break;
            }
        }
        let Some(start) = ret_start else { continue };
        let ret: Vec<usize> = (start..f.sig_end).collect();
        if !ret.iter().any(|&ci| m.ct(ci).is_ident("Result")) {
            continue;
        }
        let boxed_dyn = ret.iter().any(|&ci| m.ct(ci).is_ident("Box"))
            && ret.iter().any(|&ci| m.ct(ci).is_ident("dyn"));
        // Split `Result<...>`'s top-level generic args; a single-arg
        // alias (io::Result<T>) carries its own typed error.
        let stringly = result_err_is_stringly(m, &ret);
        if boxed_dyn || stringly {
            let what = if boxed_dyn { "Box<dyn Error>" } else { "Result<_, String>" };
            out.push(Raw {
                line: kw_line,
                rule: TYPED_ERRORS,
                msg: format!(
                    "public fn `{}` returns {what}: callers can't match on failure \
                     modes — return the crate's typed #[non_exhaustive] error enum",
                    f.name
                ),
            });
        }
    }
}

/// Does the `Result<..>` in the return-type token span `ret` carry a
/// stringly second argument (`String`/`&str`)?
fn result_err_is_stringly(m: &FileModel, ret: &[usize]) -> bool {
    let Some(rpos) = ret.iter().position(|&ci| m.ct(ci).is_ident("Result")) else {
        return false;
    };
    // Expect `<` right after; track angle nesting manually (the lexer
    // emits single-char puncts, so `>>` arrives as two tokens).
    let Some(&open) = ret.get(rpos + 1) else { return false };
    if !m.ct(open).is_punct(b'<') {
        return false;
    }
    let mut angle = 1i32;
    let mut args: Vec<Vec<usize>> = vec![Vec::new()];
    for &ci in &ret[rpos + 2..] {
        let t = m.ct(ci);
        if t.is_punct(b'<') {
            angle += 1;
        } else if t.is_punct(b'>') {
            angle -= 1;
            if angle == 0 {
                break;
            }
        } else if t.is_punct(b',') && angle == 1 && t.delim == m.ct(open).delim {
            args.push(Vec::new());
            continue;
        }
        args.last_mut().expect("args starts non-empty").push(ci);
    }
    if args.len() < 2 {
        return false;
    }
    let err = args.last().expect("len checked");
    err.iter().any(|&ci| m.ct(ci).is_ident("String") || m.ct(ci).is_ident("str"))
}

// ---------------------------------------------------------------------------
// dead-error-variant: every *Error variant is constructed somewhere.
// ---------------------------------------------------------------------------

/// Record every `Path::Variant` occurrence that reads as a construction
/// (not a match/let pattern) into `idx` as `(path_head, variant)`.
pub(crate) fn record_constructions(m: &FileModel, idx: &mut BTreeSet<(String, String)>) {
    let n = m.code_len();
    for ci in 0..n.saturating_sub(3) {
        let head = m.ct(ci);
        if head.kind != crate::lexer::TokKind::Ident
            || !m.ct(ci + 1).is_punct(b':')
            || !m.ct(ci + 2).is_punct(b':')
            || m.ct(ci + 3).kind != crate::lexer::TokKind::Ident
        {
            continue;
        }
        let variant = m.ct(ci + 3);
        // Skip an optional payload group `{..}` / `(..)` directly after.
        let mut after = ci + 4;
        if after < n && m.ct(after).is_punct(b'{') {
            after = m.matching_close(after) + 1;
        } else if after < n && m.ct(after).is_punct(b'(') {
            let d = m.ct(after).delim;
            after += 1;
            while after < n && !(m.ct(after).is_punct(b')') && m.ct(after).delim == d) {
                after += 1;
            }
            after += 1;
        }
        // Pattern positions: `=> `, `|`, or a destructuring `=` follow.
        let is_pattern = match (after < n).then(|| m.ct(after)) {
            Some(t) if t.is_punct(b'|') => true,
            Some(t) if t.is_punct(b'=') => {
                // `=>` (match arm) or `= expr` (let destructure) — but
                // `==` comparisons construct their right-hand side.
                !(after + 1 < n && m.ct(after + 1).is_punct(b'='))
            }
            _ => false,
        };
        if !is_pattern {
            idx.insert((head.text.clone(), variant.text.clone()));
        }
    }
}

/// Report variants of `*Error` enums (cudalign/gpu-sim sources) that no
/// file in `idx` ever constructs.
pub(crate) fn dead_error_variants(
    m: &FileModel,
    idx: &BTreeSet<(String, String)>,
    out: &mut Vec<Raw>,
) {
    let path = m.rel_path.as_str();
    if !(path.starts_with("crates/cudalign/src/") || path.starts_with("crates/gpu-sim/src/")) {
        return;
    }
    let n = m.code_len();
    for ci in 0..n.saturating_sub(1) {
        if !m.ct(ci).is_ident("enum") {
            continue;
        }
        let name_tok = m.ct(ci + 1);
        if name_tok.kind != crate::lexer::TokKind::Ident || !name_tok.text.ends_with("Error") {
            continue;
        }
        if m.test_lines[m.ct(ci).line] {
            continue;
        }
        // Body: first `{` at the keyword's depth.
        let d = m.ct(ci).depth;
        let mut open = None;
        for k in ci + 2..n {
            let t = m.ct(k);
            if t.is_punct(b'{') && t.depth == d {
                open = Some(k);
                break;
            }
            if t.is_punct(b';') {
                break;
            }
        }
        let Some(open) = open else { continue };
        let close = m.matching_close(open);
        // Tokens directly inside the body sit one brace level below the
        // `{` (which carries its outer depth).
        let (bd, bdl) = (m.ct(open).depth + 1, m.ct(open).delim);
        for k in open + 1..close {
            let t = m.ct(k);
            // A variant name: ident at the body's nesting level whose
            // predecessor opens the body, ends a variant, or closes an
            // attribute.
            if t.kind != crate::lexer::TokKind::Ident || t.depth != bd || t.delim != bdl {
                continue;
            }
            let prev = m.ct(k - 1);
            if !(prev.is_punct(b'{') || prev.is_punct(b',') || prev.is_punct(b']')) {
                continue;
            }
            let enum_name = &name_tok.text;
            let constructed = idx.contains(&(enum_name.clone(), t.text.clone()))
                || idx.contains(&("Self".to_owned(), t.text.clone()));
            if !constructed {
                out.push(Raw {
                    line: t.line,
                    rule: DEAD_ERROR_VARIANT,
                    msg: format!(
                        "error variant `{enum_name}::{}` is never constructed: a failure \
                         mode nothing can produce hides an untested path — remove it or \
                         wire it up",
                        t.text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hot-loop: tagged kernel inner loops stay allocation- and clock-free.
// ---------------------------------------------------------------------------

/// Code-token index where the item owning the `fn` keyword at `kw`
/// starts: walks back over visibility/qualifier tokens and `#[...]`
/// attribute groups so a marker comment above the attributes is still
/// "directly above" the item.
fn item_start(m: &FileModel, kw: usize) -> usize {
    let mut b = kw;
    while b > 0 {
        let t = m.ct(b - 1);
        let qualifier = t.kind == crate::lexer::TokKind::Ident
            && matches!(t.text.as_str(), "pub" | "const" | "unsafe" | "async" | "extern");
        let abi = t.kind == crate::lexer::TokKind::Lit(crate::lexer::LitKind::Str);
        if qualifier || abi {
            b -= 1;
            continue;
        }
        if t.is_punct(b')') {
            // `pub(crate)` restriction: hop back over the group.
            let mut g = b - 1;
            while g > 0 && !m.ct(g).is_punct(b'(') {
                g -= 1;
            }
            if g >= 1 && m.ct(g - 1).is_ident("pub") {
                b = g - 1;
                continue;
            }
        }
        break;
    }
    while b > 0 && m.ct(b - 1).is_punct(b']') {
        let close_delim = m.ct(b - 1).delim;
        let mut k = b - 1;
        while k > 0 && !(m.ct(k).is_punct(b'[') && m.ct(k).delim == close_delim) {
            k -= 1;
        }
        if k == 0 || !m.ct(k - 1).is_punct(b'#') {
            break;
        }
        b = k - 1;
    }
    b
}

/// Is a line's comment exactly the `// hot-loop` marker (possibly with
/// trailing prose on later lines of the same block)? Mentions of the
/// phrase inside longer comment text don't count as a tag.
fn is_hot_loop_marker(text: &str) -> bool {
    text.trim_start_matches('/').trim() == "hot-loop"
}

fn hot_loop(m: &FileModel, out: &mut Vec<Raw>) {
    if is_vendored(&m.rel_path) {
        return;
    }
    for f in &m.fns {
        let Some((open, close)) = f.body else { continue };
        if m.test_lines[m.ct(f.kw).line] {
            continue;
        }
        // Tagged: the contiguous comment block directly above the item
        // (attributes included) contains a line that is exactly
        // `// hot-loop`.
        let start_line = m.ct(item_start(m, f.kw)).line;
        let mut tagged = is_hot_loop_marker(&m.comment_text[start_line.min(m.nlines)]);
        let mut k = start_line;
        while !tagged && k > 0 {
            k -= 1;
            if m.has_code[k] || m.comment_text[k].is_empty() {
                break;
            }
            tagged = is_hot_loop_marker(&m.comment_text[k]);
        }
        if !tagged {
            continue;
        }
        let mut lines: BTreeMap<usize, &'static str> = BTreeMap::new();
        for ci in open + 1..close {
            let t = m.ct(ci);
            let vec_macro =
                t.is_ident("vec") && ci + 1 < m.code_len() && m.ct(ci + 1).is_punct(b'!');
            let what = if t.is_ident("Instant") || t.is_ident("SystemTime") {
                "wall-clock read"
            } else if m.path_at(ci, &["Vec", "new"]) || m.path_at(ci, &["Box", "new"]) || vec_macro
            {
                "heap allocation"
            } else {
                continue;
            };
            lines.entry(t.line).or_insert(what);
        }
        for (line, what) in lines {
            out.push(Raw {
                line,
                rule: HOT_LOOP,
                msg: format!(
                    "{what} inside `{}`, which is tagged `// hot-loop`: the per-column \
                     kernel loop must stay allocation- and clock-free — allocate in the \
                     caller and pass state in",
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Run every per-file rule over `m`.
pub(crate) fn per_file(m: &FileModel, out: &mut Vec<Raw>) {
    no_panics(m, out);
    fs_isolation(m, out);
    thread_isolation(m, out);
    safety_comment(m, out);
    no_wallclock(m, out);
    clock_injection(m, out);
    sleep_injection(m, out);
    non_exhaustive_errors(m, out);
    lock_order(m, out);
    condvar_wait_while(m, out);
    cancel_coverage(m, out);
    typed_errors(m, out);
    hot_loop(m, out);
}
