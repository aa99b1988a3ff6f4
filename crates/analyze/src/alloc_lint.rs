//! Checker 3: the hot-path allocation lint.
//!
//! Files (or single functions) named in the `[no_alloc]` section of
//! `analyze.toml` must not allocate: `Vec::new`, `.to_vec()`,
//! `Box::new`, `format!`, `String::from`, and `.clone()` are banned
//! outside `#[cfg(test)]` code. This is the static twin of the runtime
//! counting-allocator test (`tests/alloc_regression.rs`): the dynamic
//! test proves the paths it happens to drive are clean, this lint
//! proves the listed code can't regress even on branches the test
//! doesn't reach. A scope that names a file or function the workspace
//! no longer has is itself a finding ([`stale_scopes`]), so a rename
//! cannot quietly take a hot path out of the lint.

use crate::allowlist::Allowlist;
use crate::config::NoAllocScope;
use crate::lexer::{Tok, Token};
use crate::report::Finding;
use crate::source::SourceFile;

/// Whether `scope`'s path names `file` itself or a directory above it.
fn covers(scope: &NoAllocScope, file: &SourceFile) -> bool {
    file.rel_path == scope.path || file.rel_path.starts_with(&format!("{}/", scope.path))
}

/// The scope entry covering `file`, if any (most specific path wins).
pub fn scope_for<'a>(file: &SourceFile, scopes: &'a [NoAllocScope]) -> Option<&'a NoAllocScope> {
    scopes
        .iter()
        .filter(|s| covers(s, file))
        .max_by_key(|s| s.path.len())
}

/// Reports every scope that names nothing: a path no scanned file
/// matches, and each listed function that no matched file defines
/// outside test code. The allowlist cannot suppress these; the fix is
/// an edit of `analyze.toml`.
pub fn stale_scopes(files: &[SourceFile], scopes: &[NoAllocScope], findings: &mut Vec<Finding>) {
    for scope in scopes {
        let matched: Vec<&SourceFile> = files.iter().filter(|f| covers(scope, f)).collect();
        let stale: Vec<(String, String)> = if matched.is_empty() {
            vec![("stale-scope".into(), "matches no scanned file".into())]
        } else {
            let functions = scope.functions.iter().flatten();
            functions
                .filter(|name| !matched.iter().any(|f| f.defines_fn(name)))
                .map(|name| {
                    (
                        format!("stale-scope:fn:{name}"),
                        format!("names `{name}`, which no matched file defines"),
                    )
                })
                .collect()
        };
        findings.extend(stale.into_iter().map(|(key, what)| Finding {
            checker: "alloc",
            path: scope.path.clone(),
            line: 0,
            key,
            message: format!("analyze.toml [no_alloc] scope {what} — fix or remove it"),
        }));
    }
}

/// Runs the lint over one in-scope file.
pub fn check(
    file: &SourceFile,
    scope: &NoAllocScope,
    allow: &Allowlist,
    findings: &mut Vec<Finding>,
) {
    let tokens = &file.lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        let Some(pattern) = match_banned(tokens, i) else {
            continue;
        };
        if file.is_test_line(t.line) {
            continue;
        }
        let ctx = file.enclosing_fn(t.line).unwrap_or("top");
        if let Some(fns) = &scope.functions {
            if !fns.iter().any(|f| f == ctx) {
                continue;
            }
        }
        let key = format!("fn:{ctx}:{pattern}");
        if allow.allows("alloc", &file.rel_path, &key) {
            continue;
        }
        findings.push(Finding {
            checker: "alloc",
            path: file.rel_path.clone(),
            line: t.line,
            key,
            message: format!(
                "no-alloc path `{ctx}` calls `{pattern}` (banned by analyze.toml [no_alloc])"
            ),
        });
    }
}

/// If the banned pattern starts at token `i`, returns its display name.
fn match_banned(tokens: &[Token], i: usize) -> Option<&'static str> {
    let ident = |j: usize, want: &str| matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Ident(n)) if n == want);
    let punct = |j: usize, want: char| matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == want);
    let path_call = |head: &str, tail: &str| {
        ident(i, head) && punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3, tail)
    };
    let method_call = |name: &str| {
        // `.name(` — require the dot so `fn clone(` definitions and
        // free fns named `clone` don't match.
        punct(i.wrapping_sub(1), '.') && ident(i, name) && punct(i + 1, '(')
    };
    if path_call("Vec", "new") {
        return Some("Vec::new");
    }
    if path_call("Box", "new") {
        return Some("Box::new");
    }
    if path_call("String", "from") {
        return Some("String::from");
    }
    if ident(i, "format") && punct(i + 1, '!') {
        return Some("format!");
    }
    if method_call("to_vec") {
        return Some(".to_vec()");
    }
    if method_call("clone") {
        return Some(".clone()");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, functions: Option<Vec<&str>>) -> Vec<Finding> {
        let file = SourceFile::from_source("crates/x/src/hot.rs".into(), src);
        let scope = NoAllocScope {
            path: "crates/x/src/hot.rs".into(),
            functions: functions.map(|f| f.into_iter().map(str::to_string).collect()),
        };
        let mut findings = Vec::new();
        check(&file, &scope, &Allowlist::empty(), &mut findings);
        findings
    }

    #[test]
    fn vec_new_in_hot_path_is_a_finding() {
        let findings = run("fn hot() {\n    let v: Vec<u8> = Vec::new();\n}\n", None);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "fn:hot:Vec::new");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn all_six_patterns_are_caught() {
        let src = "fn hot(s: &S, b: &[u8]) {\n    let a = Vec::new();\n    let c = b.to_vec();\n    let d = Box::new(1);\n    let e = format!(\"{a:?}\");\n    let f = String::from(\"x\");\n    let g = s.clone();\n}\n";
        let findings = run(src, None);
        let patterns: Vec<_> = findings.iter().map(|f| f.key.as_str()).collect();
        assert_eq!(
            patterns,
            vec![
                "fn:hot:Vec::new",
                "fn:hot:.to_vec()",
                "fn:hot:Box::new",
                "fn:hot:format!",
                "fn:hot:String::from",
                "fn:hot:.clone()",
            ]
        );
    }

    #[test]
    fn clone_definitions_do_not_match() {
        let src = "impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n";
        let findings = run(src, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = Vec::new(); }\n}\n";
        let findings = run(src, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn function_scoped_ban_ignores_other_fns() {
        let src = "fn hot() { let v = Vec::new(); }\nfn cold() { let v = Vec::new(); }\n";
        let findings = run(src, Some(vec!["hot"]));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "fn:hot:Vec::new");
    }

    #[test]
    fn allowlist_suppresses_one_site() {
        let file = SourceFile::from_source(
            "crates/x/src/hot.rs".into(),
            "fn init() { let v = Vec::new(); }\nfn hot() { let v = Vec::new(); }\n",
        );
        let scope = NoAllocScope {
            path: "crates/x/src/hot.rs".into(),
            functions: None,
        };
        let allow = Allowlist::parse("alloc crates/x/src/hot.rs fn:init:Vec::new\n").unwrap();
        let mut findings = Vec::new();
        check(&file, &scope, &allow, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "fn:hot:Vec::new");
    }

    #[test]
    fn scopes_naming_missing_files_or_functions_are_findings() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn only_in_tests() {}\n}\n";
        let files = [SourceFile::from_source("crates/x/src/hot.rs".into(), src)];
        let functions = Some(["hot", "gone", "only_in_tests"].map(String::from).to_vec());
        let scopes = [
            ("crates/x/src/hot.rs", functions),
            ("crates/x", None),
            ("crates/x/src/moved.rs", None),
        ]
        .map(|(path, functions)| NoAllocScope {
            path: path.into(),
            functions,
        });
        let mut findings = Vec::new();
        stale_scopes(&files, &scopes, &mut findings);
        let found: Vec<_> = findings
            .iter()
            .map(|f| format!("{} {}", f.path, f.key))
            .collect();
        assert_eq!(
            found,
            [
                "crates/x/src/hot.rs stale-scope:fn:gone",
                "crates/x/src/hot.rs stale-scope:fn:only_in_tests",
                "crates/x/src/moved.rs stale-scope",
            ]
        );
    }

    #[test]
    fn most_specific_scope_wins() {
        let file = SourceFile::from_source("crates/x/src/hot.rs".into(), "");
        let scopes = vec![
            NoAllocScope {
                path: "crates/x".into(),
                functions: None,
            },
            NoAllocScope {
                path: "crates/x/src/hot.rs".into(),
                functions: Some(vec!["hot".into()]),
            },
        ];
        let s = scope_for(&file, &scopes).unwrap();
        assert!(s.functions.is_some());
    }
}
