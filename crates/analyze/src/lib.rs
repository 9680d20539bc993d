#![forbid(unsafe_code)]
//! `hmd-analyze`: an offline invariant linter for the 2SMaRT workspace.
//!
//! The repo carries three hard-won invariants that generic tooling cannot
//! express: bit-identical results at any thread count (the `hmd_ml::par`
//! engine), zero-allocation inference hot paths, and panic-free serve
//! workers. This crate machine-checks them with a hand-rolled lexer and a
//! small rule registry — no external dependencies, because the linter is
//! the last line of defense for the offline build and must keep working
//! when everything else breaks.
//!
//! Analysis runs in two phases:
//!
//! 1. **Per file** — lexical rules ([`rules::lexical_raw`]) plus symbol
//!    and fact extraction ([`symbols::extract`]). This phase is pure in
//!    the file's content.
//! 2. **Workspace-wide** — a best-effort call graph
//!    ([`callgraph::CallGraph`]) and the interprocedural passes in
//!    [`passes`] (transitive hot-path allocation, lock-order cycles,
//!    determinism taint). Suppression (`allow` directives, unused-allow
//!    accounting) is applied at the very end so an allow consumed by a
//!    pass diagnostic is not flagged stale.
//!
//! See `RULES` in [`rules`] for the registry, and the README's
//! "Static analysis" section for the suppression syntax.

pub mod callgraph;
pub mod directives;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod workspace;

use std::io;
use std::path::Path;

use rules::{Diagnostic, FileContext};

/// Phase-1 output for one file: raw lexical diagnostics + facts.
pub struct FileAnalysis {
    /// Unsuppressed lexical diagnostics.
    pub raw: Vec<Diagnostic>,
    /// Extracted symbols/facts (carries the path).
    pub facts: symbols::FileFacts,
}

/// Runs phase 1 on one file.
pub fn analyze_file(path: &str, text: &str) -> FileAnalysis {
    let ctx = FileContext::new(path, text);
    FileAnalysis {
        raw: rules::lexical_raw(&ctx),
        facts: symbols::extract(&ctx),
    }
}

/// Phase 2: build the call graph, run the passes, then apply suppression
/// per file. Returns the final diagnostic stream sorted by (path, line,
/// rule).
pub fn finalize(items: Vec<FileAnalysis>) -> Vec<Diagnostic> {
    let mut raws: Vec<Vec<Diagnostic>> = Vec::with_capacity(items.len());
    let mut facts: Vec<symbols::FileFacts> = Vec::with_capacity(items.len());
    for it in items {
        raws.push(it.raw);
        facts.push(it.facts);
    }
    let graph = callgraph::CallGraph::build(&facts);
    let mut pass_diags = passes::run_all(&facts, &graph);

    let mut out = Vec::new();
    let mut order: Vec<usize> = (0..facts.len()).collect();
    order.sort_by(|&a, &b| facts[a].path.cmp(&facts[b].path));
    for i in order {
        let f = &facts[i];
        let mut diags = std::mem::take(&mut raws[i]);
        let mut j = 0;
        while j < pass_diags.len() {
            if pass_diags[j].path == f.path {
                diags.push(pass_diags.swap_remove(j));
            } else {
                j += 1;
            }
        }
        out.extend(rules::apply_suppressions(&f.path, &f.allows, diags));
    }
    // Pass diagnostics for paths not in the analyzed set cannot exist —
    // every pass anchors to a fn defined in some analyzed file.
    debug_assert!(pass_diags.is_empty());
    out
}

/// Analyzes `(path, source)` pairs: the workspace walk's files, or the
/// fixture tests' in-memory sources, whose synthetic paths must look
/// workspace-relative (`crates/serve/src/x.rs`) so the path-scoped rules
/// engage.
pub fn analyze_texts<P: AsRef<str>, T: AsRef<str>>(files: &[(P, T)]) -> Vec<Diagnostic> {
    finalize(
        files
            .iter()
            .map(|(path, text)| analyze_file(path.as_ref(), text.as_ref()))
            .collect(),
    )
}

/// Walks the workspace at `root` and analyzes every `.rs` file.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(analyze_texts(&workspace::collect_rust_files(root)?))
}
