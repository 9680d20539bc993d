//! The rule registry and every rule implementation.
//!
//! Rules pattern-match over *code* tokens (comments and string literals
//! are filtered out first), scoped by path and by region: `#[cfg(test)]`
//! modules and files under `tests/`/`benches/` are exempt from all rules
//! except the structural `forbid-unsafe` check, and `hot-path-alloc` only
//! fires inside function bodies annotated `// hmd-analyze: hot-path`.

use crate::directives::{parse_directives, BadDirective, Directive};
use crate::lexer::{lex, Token, TokenKind};

/// How bad a diagnostic is. `Deny` fails the build; `Warn` is informative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported but does not affect the exit code.
    Warn,
    /// Unsuppressed occurrences make `hmd-analyze` exit nonzero.
    Deny,
}

impl Severity {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One finding: where, which rule, and why.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Rule name (stable identifier, used in `allow(...)`).
    pub rule: &'static str,
    /// Effective severity.
    pub severity: Severity,
    /// Human explanation of the finding.
    pub message: String,
    /// Supporting steps for interprocedural findings: each entry is one
    /// hop of the call chain / lock witness. Empty for lexical rules.
    pub chain: Vec<String>,
    /// `Some(reason)` when an `allow` directive suppressed this.
    pub suppressed: Option<String>,
}

/// The eight lexical rules, the four call-graph pass rules, and the two
/// directive-hygiene metarules. Order here is the order `--list-rules`
/// prints (pinned by `tests/list_rules.txt`).
pub const RULES: &[(&str, Severity, &str)] = &[
    (
        "nondet-collection",
        Severity::Deny,
        "HashMap/HashSet in deterministic paths (core, ml, sim, serve::session); use BTreeMap/BTreeSet",
    ),
    (
        "raw-spawn",
        Severity::Deny,
        "thread::spawn outside ml::par and the server accept/worker bootstrap",
    ),
    (
        "hot-path-alloc",
        Severity::Deny,
        "allocation marker inside a function annotated `// hmd-analyze: hot-path`",
    ),
    (
        "panic-in-serve",
        Severity::Deny,
        "unwrap/expect/panic in crates/serve non-test code; workers must not die",
    ),
    (
        "wallclock-in-core",
        Severity::Deny,
        "Instant::now/SystemTime in crates/{core,ml,sim}; breaks replay determinism",
    ),
    (
        "float-order",
        Severity::Deny,
        "float sum/fold in par-adjacent code without a `// hmd-analyze: fold-order-ok` attestation",
    ),
    (
        "det-index",
        Severity::Deny,
        "hash-mixing constant (SplitMix64/FNV) in deterministic paths outside a `// hmd-analyze: det-index`-attested fn",
    ),
    (
        "forbid-unsafe",
        Severity::Deny,
        "crate root missing `#![forbid(unsafe_code)]`",
    ),
    (
        "transitive-hot-path-alloc",
        Severity::Deny,
        "hot-path fn reaches an allocating construct through a resolved call chain",
    ),
    (
        "lock-order-cycle",
        Severity::Deny,
        "cycle in the crates/serve lock-order graph; one acquisition order prevents deadlock",
    ),
    (
        "lock-across-io",
        Severity::Warn,
        "lock guard held across a blocking read/write/flush call in crates/serve",
    ),
    (
        "determinism-taint",
        Severity::Deny,
        "nondeterminism source (wallclock, ambient RNG, unordered iteration, thread id) reaches a `det-sink` fn",
    ),
    (
        "bad-directive",
        Severity::Deny,
        "malformed or unknown `// hmd-analyze:` directive",
    ),
    (
        "unused-allow",
        Severity::Warn,
        "`allow` directive that suppressed nothing; remove it",
    ),
];

/// Rule names only, for directive validation and `--list-rules`.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|(n, _, _)| *n).collect()
}

/// Severity a rule was registered with (`Deny` for unknown names, so a
/// plumbing bug fails loudly instead of silently warning).
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|(n, _, _)| *n == rule)
        .map(|(_, s, _)| *s)
        .unwrap_or(Severity::Deny)
}

/// Maps a rule name back to its `&'static` registry entry — the seam the
/// interprocedural passes use to build `Diagnostic::rule` from a name.
pub fn static_rule_name(rule: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|(n, _, _)| *n == rule)
        .map(|(n, _, _)| *n)
}

/// Files allowed to call `thread::spawn`: the deterministic parallel
/// engine and the server's accept-loop/worker bootstrap.
const SPAWN_ALLOWLIST: &[&str] = &["crates/ml/src/par.rs", "crates/serve/src/server.rs"];

/// Allocation markers rejected inside hot-path regions. Matched as a
/// leading token path (`Vec :: new`) or a method-call suffix (`. clone (`).
pub(crate) const ALLOC_PATHS: &[&[&str]] = &[
    &["Vec", ":", ":", "new"],
    &["Vec", ":", ":", "with_capacity"],
    &["String", ":", ":", "new"],
    &["String", ":", ":", "from"],
    &["String", ":", ":", "with_capacity"],
    &["Box", ":", ":", "new"],
    &["vec", "!"],
    &["format", "!"],
];
pub(crate) const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// Hash-mixing constants the `det-index` rule recognizes, normalized
/// (lowercase, no `0x`, no `_`, no type suffix): the SplitMix64 finalizer
/// multipliers and increment, and the FNV-1a 64 offset basis and prime.
/// Hand-rolled hashing in a deterministic path is only legitimate inside
/// a fn attested `// hmd-analyze: det-index` — a fixed-seed mixer whose
/// output drives internal placement, never externally visible ordering.
const MIX_CONSTANTS: &[&str] = &[
    "9e3779b97f4a7c15", // SplitMix64 golden-ratio increment
    "bf58476d1ce4e5b9", // SplitMix64 finalizer multiplier 1
    "94d049bb133111eb", // SplitMix64 finalizer multiplier 2
    "cbf29ce484222325", // FNV-1a 64 offset basis
    "100000001b3",      // FNV-1a 64 prime
];

/// Panic markers for `panic-in-serve`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Everything derived from one source file that rules need.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Raw source text.
    pub src: &'a str,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of code tokens (no comments).
    pub code: Vec<usize>,
    /// Parsed suppression/annotation directives.
    pub directives: Vec<Directive>,
    /// Malformed directives (become `bad-directive` diagnostics).
    pub bad_directives: Vec<BadDirective>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(u32, u32)>,
    /// Line ranges (inclusive) of `hot-path`-annotated fn bodies.
    pub hot_ranges: Vec<(u32, u32)>,
    /// Line ranges (inclusive) of `det-index`-attested fn bodies.
    pub det_index_ranges: Vec<(u32, u32)>,
    /// Code-index ranges (inclusive braces) of `macro_rules!` bodies —
    /// `fn` tokens inside them are templates, not definitions.
    pub macro_ranges: Vec<(usize, usize)>,
    /// True for files under `tests/` or `benches/` directories.
    pub is_test_file: bool,
}

impl<'a> FileContext<'a> {
    /// Lexes and pre-computes regions for one file.
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let (directives, bad_directives) = parse_directives(src, &tokens, &rule_names());
        let test_ranges = find_cfg_test_ranges(src, &tokens, &code);
        let macro_ranges = find_macro_ranges(src, &tokens, &code);
        let hot_ranges = directive_fn_ranges(
            src,
            &tokens,
            &code,
            &directives,
            &macro_ranges,
            |d| match d {
                Directive::HotPath { line } => Some(*line),
                _ => None,
            },
        );
        let det_index_ranges = directive_fn_ranges(
            src,
            &tokens,
            &code,
            &directives,
            &macro_ranges,
            |d| match d {
                Directive::DetIndex { line } => Some(*line),
                _ => None,
            },
        );
        let is_test_file = path.contains("/tests/") || path.contains("/benches/");
        FileContext {
            path,
            src,
            tokens,
            code,
            directives,
            bad_directives,
            test_ranges,
            hot_ranges,
            det_index_ranges,
            macro_ranges,
            is_test_file,
        }
    }

    pub(crate) fn code_token(&self, code_idx: usize) -> &Token {
        &self.tokens[self.code[code_idx]]
    }

    pub(crate) fn code_text(&self, code_idx: usize) -> &str {
        self.code_token(code_idx).text(self.src)
    }

    pub(crate) fn in_macro_body(&self, code_idx: usize) -> bool {
        self.macro_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&code_idx))
    }

    pub(crate) fn in_test_region(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    fn in_hot_region(&self, line: u32) -> bool {
        self.hot_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    fn in_det_index_region(&self, line: u32) -> bool {
        self.det_index_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Does the code-token sequence starting at `at` spell out `pat`?
    pub(crate) fn matches_at(&self, at: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(j, want)| self.code.get(at + j).is_some() && self.code_text(at + j) == *want)
    }
}

/// Lines covered by `#[cfg(test)] mod … { … }` bodies (and any other
/// `#[cfg(test)]`-guarded item with a brace body, e.g. a fn).
fn find_cfg_test_ranges(src: &str, tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let text = |i: usize| tokens[code[i]].text(src);
    let mut i = 0;
    while i < code.len() {
        // Match `# [ cfg ( test ) ]` allowing extra tokens inside the
        // parens (e.g. `cfg(all(test, feature = "x"))`).
        if text(i) == "#" && i + 1 < code.len() && text(i + 1) == "[" {
            // Find the closing `]` of this attribute.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < code.len() {
                match text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "cfg" => saw_cfg = true,
                    "test" => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_cfg && saw_test && j < code.len() {
                // Attribute is cfg(test)-ish: find the `{` of the item it
                // guards and record the brace-matched line range.
                if let Some((open, close)) = item_body_after(src, tokens, code, j + 1) {
                    ranges.push((tokens[code[open]].line, tokens[code[close]].line));
                    i = close + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// From a code index just past an attribute, finds the `{ … }` body of the
/// item that follows. Returns code indices of the braces.
///
/// Braces inside the item *header* are skipped: const-generic expressions
/// (`fn f(x: Arr<{ N + 1 }>)`) can legally put `{ … }` inside parens or
/// angle brackets before the real body, so the body brace is the first
/// `{` at paren depth 0 and angle depth 0. Angle tracking is heuristic
/// (`<` opens only in type position — after an ident, `:` or another
/// `<`), which covers every signature shape the workspace uses.
pub(crate) fn item_body_after(
    src: &str,
    tokens: &[Token],
    code: &[usize],
    from: usize,
) -> Option<(usize, usize)> {
    item_body_within(src, tokens, code, from, code.len())
}

/// [`item_body_after`] bounded to `end` — the symbol walker uses this so
/// a `mod x;` inside an impl cannot latch onto a brace past the impl.
pub(crate) fn item_body_within(
    src: &str,
    tokens: &[Token],
    code: &[usize],
    from: usize,
    end: usize,
) -> Option<(usize, usize)> {
    let end = end.min(code.len());
    let text = |i: usize| tokens[code[i]].text(src);
    let mut i = from;
    let mut parens = 0usize;
    let mut angles = 0usize;
    // Skip further attributes and the item header up to the opening brace;
    // stop if we hit a `;` first (e.g. `#[cfg(test)] use …;` — no body).
    while i < end {
        match text(i) {
            "{" if parens == 0 && angles == 0 => break,
            ";" if parens == 0 => return None,
            "(" | "[" => parens += 1,
            ")" | "]" => parens = parens.saturating_sub(1),
            // Only a `<` in type position opens an angle bracket.
            "<" if i > from
                && matches!(
                    tokens[code[i - 1]].kind,
                    TokenKind::Ident | TokenKind::Punct(':') | TokenKind::Punct('<')
                ) =>
            {
                angles += 1;
            }
            // `->` is a return arrow, not an angle close.
            ">" if !(i > from && text(i - 1) == "-") => {
                angles = angles.saturating_sub(1);
            }
            _ => {}
        }
        i += 1;
    }
    if i >= code.len() {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < code.len() {
        match text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Code-index ranges (brace to brace) of `macro_rules! name { … }`
/// bodies. A `fn` token inside one is a template fragment, not an item —
/// both hot-range detection and the symbol indexer must skip it.
fn find_macro_ranges(src: &str, tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let text = |i: usize| tokens[code[i]].text(src);
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 2 < code.len() {
        if text(i) == "macro_rules" && text(i + 1) == "!" {
            if let Some((open, close)) = item_body_after(src, tokens, code, i + 2) {
                ranges.push((open, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Body line-ranges of fns annotated by a fn-scoped directive
/// (`hot-path`, `det-index`): `pick` returns the directive line for the
/// directives of interest.
fn directive_fn_ranges(
    src: &str,
    tokens: &[Token],
    code: &[usize],
    directives: &[Directive],
    macro_ranges: &[(usize, usize)],
    pick: impl Fn(&Directive) -> Option<u32>,
) -> Vec<(u32, u32)> {
    let in_macro = |ci: usize| macro_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&ci));
    let mut ranges = Vec::new();
    for d in directives {
        let Some(line) = pick(d) else {
            continue;
        };
        let line = &line;
        // First `fn` code token at or after the directive line (skipping
        // macro_rules templates, which are not fn items)…
        let Some(fn_idx) = (0..code.len()).find(|&ci| {
            tokens[code[ci]].line >= *line && tokens[code[ci]].text(src) == "fn" && !in_macro(ci)
        }) else {
            continue;
        };
        // …then its brace-matched body.
        if let Some((open, close)) = item_body_after(src, tokens, code, fn_idx) {
            ranges.push((tokens[code[open]].line, tokens[code[close]].line));
        }
    }
    ranges
}

/// Runs the lexical rules over one file without applying suppressions.
/// The two-phase driver in [`crate::analyze_texts`] merges these with the
/// interprocedural pass diagnostics before suppression matching, so an
/// `allow` that only covers a pass finding still counts as used.
pub fn lexical_raw(ctx: &FileContext) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();

    rule_nondet_collection(ctx, &mut raw);
    rule_raw_spawn(ctx, &mut raw);
    rule_hot_path_alloc(ctx, &mut raw);
    rule_panic_in_serve(ctx, &mut raw);
    rule_wallclock_in_core(ctx, &mut raw);
    rule_float_order(ctx, &mut raw);
    rule_det_index(ctx, &mut raw);
    rule_forbid_unsafe(ctx, &mut raw);

    for bad in &ctx.bad_directives {
        raw.push(Diagnostic {
            path: ctx.path.to_string(),
            line: bad.line,
            rule: "bad-directive",
            severity: severity_of("bad-directive"),
            message: bad.message.clone(),
            chain: Vec::new(),
            suppressed: None,
        });
    }

    raw
}

/// Lexical-rules-only convenience: runs every per-file rule, applies
/// suppressions, and reports unused allows. The interprocedural passes do
/// not run here — use [`crate::analyze_texts`] for the full engine.
pub fn check_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext::new(path, src);
    let raw = lexical_raw(&ctx);
    let allows = allow_facts(&ctx.directives);
    apply_suppressions(path, &allows, raw)
}

/// Extracts `(line, rule, reason)` triples from parsed directives.
pub fn allow_facts(directives: &[Directive]) -> Vec<(u32, String, String)> {
    directives
        .iter()
        .filter_map(|d| match d {
            Directive::Allow { line, rule, reason } => Some((*line, rule.clone(), reason.clone())),
            _ => None,
        })
        .collect()
}

/// Matches diagnostics against `allow` directives (same line or the line
/// directly below the comment) and flags allows that matched nothing.
/// Called once per file over the *combined* lexical + pass diagnostics.
pub fn apply_suppressions(
    path: &str,
    allows: &[(u32, String, String)],
    mut diags: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut used = vec![false; allows.len()];

    for diag in &mut diags {
        for (i, (line, rule, reason)) in allows.iter().enumerate() {
            if *rule == diag.rule && (diag.line == *line || diag.line == *line + 1) {
                diag.suppressed = Some(reason.clone());
                used[i] = true;
                break;
            }
        }
    }

    for (i, (line, rule, _)) in allows.iter().enumerate() {
        if !used[i] {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: *line,
                rule: "unused-allow",
                severity: severity_of("unused-allow"),
                message: format!("allow({rule}) suppressed no diagnostic; remove it"),
                chain: Vec::new(),
                suppressed: None,
            });
        }
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn emit(
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    line: u32,
    message: String,
) {
    out.push(Diagnostic {
        path: ctx.path.to_string(),
        line,
        rule,
        severity: severity_of(rule),
        message,
        chain: Vec::new(),
        suppressed: None,
    });
}

/// Paths where iteration order must be deterministic.
fn in_deterministic_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/ml/src/")
        || path.starts_with("crates/sim/src/")
        || path == "crates/serve/src/session.rs"
}

fn rule_nondet_collection(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !in_deterministic_scope(ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code_token(i);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = ctx.code_text(i);
        if (name == "HashMap" || name == "HashSet") && !ctx.in_test_region(t.line) {
            emit(
                ctx,
                out,
                "nondet-collection",
                t.line,
                format!("{name} has nondeterministic iteration order here; use BTree{} or sort before iterating",
                    if name == "HashMap" { "Map" } else { "Set" }),
            );
        }
    }
}

fn rule_raw_spawn(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if SPAWN_ALLOWLIST.contains(&ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.matches_at(i, &["thread", ":", ":", "spawn"]) {
            let line = ctx.code_token(i).line;
            if !ctx.in_test_region(line) {
                emit(
                    ctx,
                    out,
                    "raw-spawn",
                    line,
                    "thread::spawn outside hmd_ml::par and the server bootstrap; \
                     use par::par_map so results stay bit-identical at any thread count"
                        .to_string(),
                );
            }
        }
    }
}

fn rule_hot_path_alloc(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.hot_ranges.is_empty() {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code_token(i);
        if !ctx.in_hot_region(t.line) {
            continue;
        }
        for pat in ALLOC_PATHS {
            if ctx.matches_at(i, pat) {
                emit(
                    ctx,
                    out,
                    "hot-path-alloc",
                    t.line,
                    format!("`{}` allocates inside a hot-path fn", pat.join("")),
                );
            }
        }
        // `.method(` suffix form: Punct('.') Ident Punct('(').
        if t.kind == TokenKind::Punct('.')
            && i + 2 < ctx.code.len()
            && ALLOC_METHODS.contains(&ctx.code_text(i + 1))
            && ctx.code_text(i + 2) == "("
        {
            emit(
                ctx,
                out,
                "hot-path-alloc",
                t.line,
                format!(
                    "`.{}()` allocates inside a hot-path fn",
                    ctx.code_text(i + 1)
                ),
            );
        }
    }
}

fn rule_panic_in_serve(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.path.starts_with("crates/serve/src/") {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code_token(i);
        if t.kind != TokenKind::Ident || ctx.in_test_region(t.line) {
            continue;
        }
        let name = ctx.code_text(i);
        // `.unwrap(` / `.expect(` — require the leading dot so fns named
        // e.g. `expect_frame` don't trip it.
        if PANIC_METHODS.contains(&name)
            && i > 0
            && ctx.code_text(i - 1) == "."
            && i + 1 < ctx.code.len()
            && ctx.code_text(i + 1) == "("
        {
            emit(
                ctx,
                out,
                "panic-in-serve",
                t.line,
                format!(".{name}() can panic a serve worker; return a ServeError or recover"),
            );
        }
        // `panic!(` etc.
        if PANIC_MACROS.contains(&name) && i + 1 < ctx.code.len() && ctx.code_text(i + 1) == "!" {
            emit(
                ctx,
                out,
                "panic-in-serve",
                t.line,
                format!("{name}! can kill a serve worker; return a ServeError or recover"),
            );
        }
    }
}

fn rule_wallclock_in_core(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !(ctx.path.starts_with("crates/core/src/")
        || ctx.path.starts_with("crates/ml/src/")
        || ctx.path.starts_with("crates/sim/src/"))
    {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code_token(i);
        if t.kind != TokenKind::Ident || ctx.in_test_region(t.line) {
            continue;
        }
        let name = ctx.code_text(i);
        let hit = (name == "Instant" && ctx.matches_at(i, &["Instant", ":", ":", "now"]))
            || name == "SystemTime";
        if hit {
            emit(
                ctx,
                out,
                "wallclock-in-core",
                t.line,
                format!("{name} reads the wall clock; core/ml/sim must stay replay-deterministic"),
            );
        }
    }
}

/// Par-adjacent = the file itself calls into the deterministic parallel
/// engine, so any float reduction in it is one refactor away from running
/// across threads.
fn is_par_adjacent(ctx: &FileContext) -> bool {
    ctx.code
        .iter()
        .any(|&ti| matches!(ctx.tokens[ti].text(ctx.src), "par_map" | "with_threads"))
}

fn rule_float_order(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.is_test_file || !is_par_adjacent(ctx) {
        return;
    }
    let attested: Vec<u32> = ctx
        .directives
        .iter()
        .filter_map(|d| match d {
            Directive::FoldOrderOk { line } => Some(*line),
            _ => None,
        })
        .collect();
    let is_attested = |line: u32| attested.iter().any(|&a| line == a || line == a + 1);

    for i in 0..ctx.code.len() {
        let t = ctx.code_token(i);
        if ctx.in_test_region(t.line) || is_attested(t.line) {
            continue;
        }
        // `. sum :: < f32|f64` — the turbofish makes float sums explicit
        // in this codebase, which is what lets us match them lexically.
        if ctx.matches_at(i, &[".", "sum", ":", ":", "<", "f32"])
            || ctx.matches_at(i, &[".", "sum", ":", ":", "<", "f64"])
        {
            emit(
                ctx,
                out,
                "float-order",
                t.line,
                "float .sum() in par-adjacent code: addition order changes the result; \
                 attest with `// hmd-analyze: fold-order-ok` if sequential by design"
                    .to_string(),
            );
        }
        // `.fold(` — any fold in par-adjacent code needs an attestation.
        if ctx.matches_at(i, &[".", "fold", "("]) {
            emit(
                ctx,
                out,
                "float-order",
                t.line,
                ".fold() in par-adjacent code: reduction order may change the result; \
                 attest with `// hmd-analyze: fold-order-ok` if order-insensitive"
                    .to_string(),
            );
        }
    }
}

/// Number-literal text normalized for [`MIX_CONSTANTS`] comparison:
/// lowercase, `_` separators and leading zeros dropped, `0x` prefix
/// dropped, and anything from the first non-hex-digit on (type suffixes
/// like `u64`) truncated — so `0x0000_0100_0000_01b3u64` → `100000001b3`.
fn normalize_number(text: &str) -> String {
    let lower = text.to_ascii_lowercase().replace('_', "");
    let digits = lower.strip_prefix("0x").unwrap_or(&lower);
    let end = digits
        .find(|c: char| !c.is_ascii_hexdigit())
        .unwrap_or(digits.len());
    digits[..end].trim_start_matches('0').to_string()
}

/// Hand-rolled hashing is how nondeterminism sneaks past the collection
/// rules: a SplitMix or FNV mix whose output ends up ordering anything
/// visible reintroduces exactly what banning `HashMap` removed. In
/// deterministic scope every use of the known mixing constants must sit
/// inside a fn attested `// hmd-analyze: det-index` — a fixed-seed mixer
/// used only for internal placement (slot probing, per-task seed
/// derivation, order-independent journal hashing).
fn rule_det_index(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !in_deterministic_scope(ctx.path) {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.code_token(i);
        if t.kind != TokenKind::Number
            || ctx.in_test_region(t.line)
            || ctx.in_det_index_region(t.line)
        {
            continue;
        }
        let text = ctx.code_text(i);
        if MIX_CONSTANTS.contains(&normalize_number(text).as_str()) {
            emit(
                ctx,
                out,
                "det-index",
                t.line,
                format!(
                    "hash-mixing constant `{text}` outside a `det-index`-attested fn; \
                     hashed placement must never shape deterministic output — move the \
                     mixing into an attested fn or annotate this one with \
                     `// hmd-analyze: det-index`"
                ),
            );
        }
    }
}

fn rule_forbid_unsafe(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let is_crate_root = ctx.path.ends_with("src/lib.rs") || ctx.path == "src/lib.rs";
    if !is_crate_root {
        return;
    }
    let has = (0..ctx.code.len())
        .any(|i| ctx.matches_at(i, &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"]));
    if !has {
        emit(
            ctx,
            out,
            "forbid-unsafe",
            1,
            "crate root lacks #![forbid(unsafe_code)]".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsuppressed(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, src)
            .into_iter()
            .filter(|d| d.suppressed.is_none())
            .collect()
    }

    #[test]
    fn cfg_test_mod_ranges_cover_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        let ctx = FileContext::new("crates/core/src/x.rs", src);
        assert_eq!(ctx.test_ranges, vec![(3, 5)]);
        assert!(ctx.in_test_region(4));
        assert!(!ctx.in_test_region(1));
    }

    #[test]
    fn hashmap_in_core_flagged_but_not_in_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let d = unsuppressed("crates/core/src/x.rs", src);
        assert_eq!(
            d.iter().filter(|d| d.rule == "nondet-collection").count(),
            1
        );
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn hashmap_outside_scope_ignored() {
        let src = "use std::collections::HashMap;\n";
        assert!(unsuppressed("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn sim_crate_is_deterministic_scope() {
        let hash = "use std::collections::HashMap;\n";
        assert_eq!(unsuppressed("crates/sim/src/harness.rs", hash).len(), 1);
        assert_eq!(unsuppressed("crates/sim/src/bin/hmd-sim.rs", hash).len(), 1);
        let clock = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            unsuppressed("crates/sim/src/harness.rs", clock)
                .iter()
                .filter(|d| d.rule == "wallclock-in-core")
                .count(),
            1,
            "virtual-time sim must never read the wall clock"
        );
        // Panic discipline is a serve-worker rule; the sim harness may
        // expect() on its own invariants.
        let panics = "fn f() { x.unwrap(); }\n";
        assert!(unsuppressed("crates/sim/src/harness.rs", panics).is_empty());
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// hmd-analyze: allow(nondet-collection, \"membership only\")\nuse std::collections::HashMap;\n";
        let all = check_file("crates/core/src/x.rs", src);
        assert!(all.iter().any(|d| d.suppressed.is_some()));
        assert!(all
            .iter()
            .all(|d| d.suppressed.is_some() || d.rule != "nondet-collection"));
        // The allow was used, so no unused-allow either.
        assert!(all.iter().all(|d| d.rule != "unused-allow"));
    }

    #[test]
    fn unused_allow_warns() {
        let src = "// hmd-analyze: allow(raw-spawn, \"nothing here\")\nfn f() {}\n";
        let d = check_file("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "unused-allow"));
    }

    #[test]
    fn hot_path_alloc_fires_only_in_annotated_fn() {
        let src = "\
fn cold() { let v = Vec::new(); drop(v); }
// hmd-analyze: hot-path
fn hot(out: &mut Vec<u8>) {
    let v = vec![1, 2];
    let s = x.clone();
}
fn cold2() { let s = String::from(\"x\"); }
";
        let d = unsuppressed("crates/core/src/x.rs", src);
        let lines: Vec<u32> = d
            .iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![4, 5]);
    }

    #[test]
    fn hot_range_survives_const_generic_braces_in_signature() {
        // The `{ N + 1 }` inside the parameter list must not be mistaken
        // for the fn body — the vec! on line 4 is in the real body.
        let src = "\
// hmd-analyze: hot-path
fn hot<const N: usize>(x: [u8; { N + 1 }]) -> [u8; { N }]
{
    let v = vec![1u8];
    [0; { N }]
}
";
        let d = unsuppressed("crates/core/src/x.rs", src);
        let lines: Vec<u32> = d
            .iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![4], "{d:?}");
    }

    #[test]
    fn hot_range_skips_macro_rules_fn_templates() {
        // The `fn` inside the macro body is a template; the directive
        // must attach to the real fn below it.
        let src = "\
// hmd-analyze: hot-path
macro_rules! gen {
    () => {
        fn template() { let v = vec![1]; }
    };
}
fn hot() { let s = x.to_vec(); }
fn cold() { let v = vec![2]; }
";
        let ctx = FileContext::new("crates/core/src/x.rs", src);
        assert_eq!(ctx.hot_ranges, vec![(7, 7)], "{:?}", ctx.hot_ranges);
        let d = unsuppressed("crates/core/src/x.rs", src);
        let lines: Vec<u32> = d
            .iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![7], "{d:?}");
    }

    #[test]
    fn turbofish_in_header_does_not_eat_the_body() {
        let src = "\
// hmd-analyze: hot-path
fn hot(v: &[u8]) -> Vec<Vec<u8>> {
    v.iter().map(|b| vec![*b]).collect::<Vec<Vec<u8>>>()
}
";
        let d = unsuppressed("crates/core/src/x.rs", src);
        assert!(
            d.iter().any(|d| d.rule == "hot-path-alloc" && d.line == 3),
            "{d:?}"
        );
    }

    #[test]
    fn panic_in_serve_matches_methods_and_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"no\"); panic!(\"boom\"); }\n";
        let d = unsuppressed("crates/serve/src/x.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "panic-in-serve").count(), 3);
        // Same code outside serve is fine (no other rules hit either).
        assert!(unsuppressed("crates/hwmodel/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_in_serve_ignores_ident_lookalikes() {
        let src = "fn f() { expect_frame(x); let unwrap = 1; }\n";
        assert!(unsuppressed("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_spawn_flagged_except_allowlist() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(unsuppressed("crates/bench/src/x.rs", src).len(), 1);
        assert!(unsuppressed("crates/ml/src/par.rs", src).is_empty());
        assert!(unsuppressed("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn wallclock_in_core_flagged() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(unsuppressed("crates/ml/src/x.rs", src).len(), 1);
        assert!(unsuppressed("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_order_needs_par_adjacency_and_attestation() {
        let plain = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        assert!(unsuppressed("crates/ml/src/x.rs", plain).is_empty());

        let par = "fn g() { par_map(...); }\nfn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        assert_eq!(
            unsuppressed("crates/ml/src/x.rs", par)
                .iter()
                .filter(|d| d.rule == "float-order")
                .count(),
            1
        );

        let attested = "fn g() { par_map(...); }\n// hmd-analyze: fold-order-ok\nfn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n";
        assert!(unsuppressed("crates/ml/src/x.rs", attested)
            .iter()
            .all(|d| d.rule != "float-order"));
    }

    #[test]
    fn det_index_flags_mixing_constants_outside_attested_fns() {
        let bare = "fn h(x: u64) -> u64 { x.wrapping_mul(0xbf58_476d_1ce4_e5b9) }\n";
        let d = unsuppressed("crates/sim/src/x.rs", bare);
        assert_eq!(d.iter().filter(|d| d.rule == "det-index").count(), 1);
        // Outside deterministic scope the same code is fine.
        assert!(unsuppressed("crates/hwmodel/src/x.rs", bare).is_empty());
        // Suffixed/unseparated spellings normalize to the same constant.
        let suffixed = "fn h(x: u64) -> u64 { x ^ 0x9e3779b97f4a7c15u64 }\n";
        assert_eq!(unsuppressed("crates/ml/src/x.rs", suffixed).len(), 1);
    }

    #[test]
    fn det_index_attestation_covers_the_fn_body() {
        let src = "\
// hmd-analyze: det-index
fn mix(x: u64) -> u64 {
    let z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z.wrapping_mul(0x0000_0100_0000_01b3)
}
fn stray(x: u64) -> u64 { x ^ 0xcbf2_9ce4_8422_2325 }
";
        let d = unsuppressed("crates/serve/src/session.rs", src);
        let lines: Vec<u32> = d
            .iter()
            .filter(|d| d.rule == "det-index")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![6], "{d:?}");
    }

    #[test]
    fn det_index_ignores_unrelated_numbers_and_tests() {
        let plain = "fn f() -> u64 { 0xdead_beef + 42 }\n";
        assert!(unsuppressed("crates/sim/src/x.rs", plain).is_empty());
        let in_tests =
            "#[cfg(test)]\nmod tests {\n    fn h(x: u64) -> u64 { x ^ 0xcbf2_9ce4_8422_2325 }\n}\n";
        assert!(unsuppressed("crates/sim/src/x.rs", in_tests).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let bare = "pub fn f() {}\n";
        assert_eq!(unsuppressed("crates/core/src/lib.rs", bare).len(), 1);
        assert!(unsuppressed("crates/core/src/other.rs", bare).is_empty());
        let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(unsuppressed("crates/core/src/lib.rs", good).is_empty());
    }

    #[test]
    fn bad_directive_is_deny() {
        let src = "// hmd-analyze: allow(panic-in-serve)\nfn f() {}\n";
        let d = unsuppressed("crates/core/src/x.rs", src);
        assert!(d
            .iter()
            .any(|d| d.rule == "bad-directive" && d.severity == Severity::Deny));
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "fn f() { let s = \"HashMap Instant::now .unwrap()\"; } // HashMap\n";
        assert!(unsuppressed("crates/core/src/x.rs", src).is_empty());
        assert!(unsuppressed("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_files_exempt_from_code_rules() {
        let src = "fn f() { x.unwrap(); use std::collections::HashMap; }\n";
        assert!(unsuppressed("crates/serve/tests/x.rs", src).is_empty());
    }
}
