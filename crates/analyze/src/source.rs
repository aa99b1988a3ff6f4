//! Workspace file discovery and per-file source model.
//!
//! A [`SourceFile`] bundles the lexed token stream with three derived
//! views every checker needs: the raw lines (for adjacent-comment
//! lookups), the `#[cfg(test)]` line regions (so test-only code is
//! exempt from production lints), and the enclosing-function map (so
//! findings and scoped configs can name the function they hit).

use crate::lexer::{self, Lexed, Tok, Token};
use std::path::{Path, PathBuf};

/// One workspace `.rs` file, lexed and indexed.
pub struct SourceFile {
    /// Path relative to the analysis root, with `/` separators.
    pub rel_path: String,
    /// Raw source lines (0-indexed; line N of the file is `lines[N-1]`).
    pub lines: Vec<String>,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Inclusive 1-based line ranges that are inside `#[cfg(test)]`
    /// items/modules or `#[test]` functions.
    test_regions: Vec<(u32, u32)>,
    /// Function spans: `(name, start_line, end_line)`, in source order.
    /// Nested functions appear after their parent; lookup picks the
    /// innermost (latest-starting) span containing a line.
    fn_spans: Vec<(String, u32, u32)>,
}

impl SourceFile {
    /// Loads and indexes one file. `rel_path` should already be
    /// root-relative with `/` separators.
    pub fn load(abs: &Path, rel_path: String) -> std::io::Result<SourceFile> {
        let src = std::fs::read_to_string(abs)?;
        Ok(Self::from_source(rel_path, &src))
    }

    /// Builds the model from in-memory source (used by fixture tests).
    pub fn from_source(rel_path: String, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let test_regions = find_test_regions(&lexed.tokens);
        let fn_spans = find_fn_spans(&lexed.tokens);
        SourceFile {
            rel_path,
            lines: src.lines().map(str::to_string).collect(),
            lexed,
            test_regions,
            fn_spans,
        }
    }

    /// True when `line` is inside `#[cfg(test)]` / `#[test]` code, or the
    /// whole file lives under a `tests/` or `benches/` directory.
    pub fn is_test_line(&self, line: u32) -> bool {
        if self.rel_path.contains("/tests/") || self.rel_path.contains("/benches/") {
            return true;
        }
        self.test_regions
            .iter()
            .any(|&(s, e)| s <= line && line <= e)
    }

    /// Name of the innermost function containing `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&str> {
        self.fn_spans
            .iter()
            .rfind(|&&(_, s, e)| s <= line && line <= e)
            .map(|(name, _, _)| name.as_str())
    }

    /// Whether a function named `name` is defined outside test code.
    pub fn defines_fn(&self, name: &str) -> bool {
        self.fn_spans
            .iter()
            .any(|(n, start, _)| n == name && !self.is_test_line(*start))
    }

    /// The raw text of `line` (1-based), or `""` past EOF.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Walks upward from the line above `line` through contiguous
    /// comment/attribute lines (stopping at the first blank or code
    /// line) and returns true if any comment on the way — or on `line`
    /// itself — contains `marker` (e.g. `"SAFETY:"`).
    ///
    /// The walk first hops to the start of the enclosing statement:
    /// rustfmt splits long calls across lines, so the marked token may
    /// sit lines below the comment with only continuation lines (lines
    /// above that end mid-expression) in between.
    pub fn has_adjacent_marker(&self, line: u32, marker: &str) -> bool {
        let line_has = |l: u32| {
            self.lexed
                .comments_on_line(l)
                .any(|c| c.text.contains(marker))
        };
        if line_has(line) {
            return true;
        }
        let mut l = line;
        // Hop over continuation lines of the same statement. A line
        // ending in `;`, `{`, or `}` (or a blank/comment line) finishes
        // whatever came before it, so the statement starts below it.
        while l > 1 {
            let above = self.line_text(l - 1).trim();
            let ends_statement = above.is_empty()
                || above.starts_with("//")
                || above.ends_with(';')
                || above.ends_with('{')
                || above.ends_with('}');
            if ends_statement || self.lexed.comments_on_line(l - 1).next().is_some() {
                break;
            }
            if line_has(l - 1) {
                return true; // trailing marker on a continuation line
            }
            l -= 1;
        }
        while l > 1 {
            l -= 1;
            let text = self.line_text(l).trim();
            let is_attr = text.starts_with("#[") || text.starts_with("#![");
            let is_comment =
                text.starts_with("//") || self.lexed.comments_on_line(l).next().is_some();
            if text.is_empty() || (!is_attr && !is_comment) {
                return false;
            }
            if line_has(l) {
                return true;
            }
        }
        false
    }

    /// Like [`Self::has_adjacent_marker`] but also accepts a doc-comment
    /// `# Safety` section heading (the idiomatic form on `unsafe fn`).
    pub fn has_safety_docs(&self, line: u32) -> bool {
        if self.has_adjacent_marker(line, "SAFETY:") {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let text = self.line_text(l).trim();
            let is_attr = text.starts_with("#[") || text.starts_with("#![");
            let is_comment =
                text.starts_with("//") || self.lexed.comments_on_line(l).next().is_some();
            if text.is_empty() || (!is_attr && !is_comment) {
                return false;
            }
            if self
                .lexed
                .comments_on_line(l)
                .any(|c| c.text.contains("# Safety"))
            {
                return true;
            }
        }
        false
    }
}

/// Collects all `.rs` files under `root/<r>` for each configured root
/// dir, returning them sorted by relative path for stable reports.
pub fn walk_workspace(root: &Path, roots: &[String]) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for r in roots {
        let dir = root.join(r);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        } else if dir.extension().is_some_and(|e| e == "rs") && dir.is_file() {
            paths.push(dir);
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::load(p, rel)?);
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds line regions covered by `#[cfg(test)]` items and `#[test]`
/// functions by scanning the token stream: when a test attribute is
/// seen, the following item's body (to the matching `}`, or a `;`) is
/// recorded as a test region.
fn find_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after) = match_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            let end = skip_item(tokens, after);
            let end_line = tokens
                .get(end.saturating_sub(1))
                .map(|t| t.line)
                .unwrap_or(start_line);
            regions.push((start_line, end_line));
            i = end;
        } else {
            i += 1;
        }
    }
    regions
}

/// If `tokens[i..]` starts a `#[…test…]` attribute (either `#[test]` or
/// `#[cfg(test)]` / `#[cfg(all(test, …))]`), returns the index just
/// past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.tok != Tok::Punct('#') || tokens.get(i + 1)?.tok != Tok::Punct('[') {
        return None;
    }
    let mut depth = 1u32;
    let mut j = i + 2;
    let mut saw_test = false;
    let mut saw_cfg_or_bare = false;
    // The attribute's first token tells the kind: a bare `test`, or
    // `cfg(...)` whose arguments mention `test`.
    match &tokens.get(i + 2)?.tok {
        Tok::Ident(name) if name == "test" => saw_cfg_or_bare = true,
        Tok::Ident(name) if name == "cfg" => saw_cfg_or_bare = true,
        _ => {}
    }
    while depth > 0 {
        let t = tokens.get(j)?;
        match &t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => depth -= 1,
            Tok::Ident(name) if name == "test" => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    (saw_cfg_or_bare && saw_test).then_some(j)
}

/// Skips one item starting at `i` (past any further attributes): scans
/// to the first `{` and returns the index past its matching `}`, or
/// past a terminating `;` if one comes first (e.g. `use` declarations).
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes between the test attr and the item.
    while tokens.get(i).map(|t| &t.tok) == Some(&Tok::Punct('#'))
        && tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('['))
    {
        let mut depth = 1u32;
        i += 2;
        while depth > 0 {
            match tokens.get(i).map(|t| &t.tok) {
                Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(']')) => depth -= 1,
                None => return i,
                _ => {}
            }
            i += 1;
        }
    }
    while let Some(t) = tokens.get(i) {
        match t.tok {
            Tok::Punct(';') => return i + 1,
            Tok::Punct('{') => {
                let mut depth = 1u32;
                i += 1;
                while depth > 0 {
                    match tokens.get(i).map(|t| &t.tok) {
                        Some(Tok::Punct('{')) => depth += 1,
                        Some(Tok::Punct('}')) => depth -= 1,
                        None => return i,
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => i += 1,
        }
    }
    i
}

/// Builds `(name, start, end)` spans for every `fn`. Tracks brace depth
/// with a stack; when `fn name` is seen, the next `{` at or below the
/// current nesting opens that function's body.
fn find_fn_spans(tokens: &[Token]) -> Vec<(String, u32, u32)> {
    let mut spans: Vec<(String, u32, u32)> = Vec::new();
    // Stack of (span index) for currently-open function bodies, plus a
    // parallel brace-depth ledger so closings pop the right entry.
    let mut open: Vec<(usize, u32)> = Vec::new();
    let mut depth = 0u32;
    let mut pending: Option<(String, u32)> = None;
    // Paren/bracket nesting inside a pending signature, so the `;` in
    // an array type like `fn f(m: [u8; 4])` doesn't end the pending fn.
    let mut sig_nest = 0u32;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                    pending = Some((name.clone(), tokens[i].line));
                    sig_nest = 0;
                }
            }
            Tok::Punct('(') | Tok::Punct('[') if pending.is_some() => sig_nest += 1,
            Tok::Punct(')') | Tok::Punct(']') if pending.is_some() => {
                sig_nest = sig_nest.saturating_sub(1);
            }
            // A top-level `;` before the body: trait/extern fn decl.
            Tok::Punct(';') if sig_nest == 0 => pending = None,
            Tok::Punct('{') => {
                depth += 1;
                if let Some((name, start)) = pending.take() {
                    spans.push((name, start, 0));
                    open.push((spans.len() - 1, depth));
                }
            }
            Tok::Punct('}') => {
                if open.last().map(|&(_, d)| d) == Some(depth) {
                    let (idx, _) = open.pop().unwrap();
                    spans[idx].2 = tokens[i].line;
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        i += 1;
    }
    // Unterminated spans (truncated input) extend to the last token.
    let last_line = tokens.last().map(|t| t.line).unwrap_or(0);
    for (_, _, end) in spans.iter_mut() {
        if *end == 0 {
            *end = last_line;
        }
    }
    spans.sort_by_key(|&(_, s, _)| s);
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = r#"
fn prod() { let v = 1; }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}
"#;
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(!f.is_test_line(2));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(7));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn helper() { body(); }\nfn prod() {}\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(feature = \"simd\")]\nfn prod() { body(); }\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = r#"
fn outer() {
    fn inner() {
        work();
    }
    other();
}
"#;
        let f = SourceFile::from_source("x.rs".into(), src);
        assert_eq!(f.enclosing_fn(4), Some("inner"));
        assert_eq!(f.enclosing_fn(6), Some("outer"));
        assert_eq!(f.enclosing_fn(1), None);
    }

    #[test]
    fn adjacent_marker_walks_over_attributes() {
        let src = r#"
// SAFETY: the pointer is valid for the whole call.
#[inline]
fn f() { g(); }
"#;
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(f.has_adjacent_marker(4, "SAFETY:"));
        assert!(!f.has_adjacent_marker(4, "ORDERING:"));
    }

    #[test]
    fn blank_line_breaks_adjacency() {
        let src = "// SAFETY: stale\n\nfn f() { g(); }\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(!f.has_adjacent_marker(3, "SAFETY:"));
    }

    #[test]
    fn marker_reaches_tokens_on_continuation_lines() {
        // rustfmt-split statement: the marked token lands lines below
        // the comment, reachable only through continuation lines.
        let src = "fn f() {\n    // ORDERING: fence.\n    self.shared\n        .batch\n        .store(null, Ordering::SeqCst);\n}\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(f.has_adjacent_marker(5, "ORDERING:"));
    }

    #[test]
    fn marker_does_not_leak_across_statement_boundaries() {
        let src =
            "fn f() {\n    // SAFETY: for g only.\n    g();\n    h(\n        arg,\n    );\n}\n";
        let f = SourceFile::from_source("x.rs".into(), src);
        // Line 6 is `);` — its statement starts at line 4, whose
        // neighbor above (`g();`) ends a different statement.
        assert!(!f.has_adjacent_marker(6, "SAFETY:"));
    }

    #[test]
    fn safety_docs_accept_doc_heading() {
        let src = r#"
/// Does the thing.
///
/// # Safety
/// Caller must uphold X.
unsafe fn f() {}
"#;
        let f = SourceFile::from_source("x.rs".into(), src);
        assert!(f.has_safety_docs(6));
    }
}
