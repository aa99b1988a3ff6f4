//! `deepmorph-analyze` — the workspace's static invariant checker.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run -p deepmorph-analyze --release            # human report
//! cargo run -p deepmorph-analyze --release -- --json  # machine report
//! ```
//!
//! Three checkers (see each module's docs): the unsafe audit
//! ([`unsafe_audit`]), the atomic-ordering lint ([`atomics`]), and the
//! hot-path allocation lint ([`alloc_lint`]). Configuration lives in
//! `analyze.toml`; suppressions in `analyze.allow` (one per line, stale
//! entries are themselves findings). Exit code 0 = clean, 1 = findings,
//! 2 = bad setup.

mod alloc_lint;
mod allowlist;
mod atomics;
mod config;
mod lexer;
mod report;
mod source;
mod unsafe_audit;

use allowlist::Allowlist;
use config::AnalyzeConfig;
use report::{Finding, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const CONFIG_FILE: &str = "analyze.toml";
const ALLOW_FILE: &str = "analyze.allow";

fn main() -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("usage: deepmorph-analyze [--json] [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deepmorph-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("deepmorph-analyze: {msg}");
    eprintln!("usage: deepmorph-analyze [--json] [--root <dir>]");
    ExitCode::from(2)
}

/// Loads config + allowlist, scans the workspace, runs all checkers.
fn run(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join(CONFIG_FILE);
    let cfg_text =
        std::fs::read_to_string(&cfg_path).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    let cfg = AnalyzeConfig::from_toml(&cfg_text).map_err(|e| format!("{CONFIG_FILE}: {e}"))?;

    let allow = match std::fs::read_to_string(root.join(ALLOW_FILE)) {
        Ok(text) => Allowlist::parse(&text).map_err(|e| format!("{ALLOW_FILE}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Allowlist::empty(),
        Err(e) => return Err(format!("{ALLOW_FILE}: {e}")),
    };

    let files =
        source::walk_workspace(root, &cfg.roots).map_err(|e| format!("workspace walk: {e}"))?;
    if files.is_empty() {
        return Err(format!(
            "no .rs files under configured roots {:?}",
            cfg.roots
        ));
    }

    let mut findings = Vec::new();
    let mut inventory = Vec::new();
    for file in &files {
        unsafe_audit::check(file, &allow, &mut findings, &mut inventory);
        if atomics::in_scope(file, &cfg.atomics_paths) {
            atomics::check(file, &allow, &mut findings);
        }
        if let Some(scope) = alloc_lint::scope_for(file, &cfg.no_alloc) {
            alloc_lint::check(file, scope, &allow, &mut findings);
        }
    }

    // A [no_alloc] scope that names nothing lints nothing.
    alloc_lint::stale_scopes(&files, &cfg.no_alloc, &mut findings);

    // Suppressions that matched nothing are dead weight — flag them so
    // the allowlist can only shrink as violations get fixed.
    for e in allow.stale() {
        findings.push(Finding {
            checker: "allowlist",
            path: ALLOW_FILE.to_string(),
            line: e.line,
            key: format!("{}:{}:{}", e.checker, e.path, e.key),
            message: format!(
                "stale allowlist entry `{} {} {}` matched no finding — remove it",
                e.checker, e.path, e.key
            ),
        });
    }

    Ok(Report {
        files_scanned: files.len(),
        allow_entries: allow.len(),
        findings,
        unsafe_inventory: inventory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end over a synthetic workspace in a temp dir: seeded
    /// violations for every checker surface as findings, and the fixed
    /// variant comes back clean.
    #[test]
    fn end_to_end_over_temp_workspace() {
        let dir =
            std::env::temp_dir().join(format!("deepmorph-analyze-e2e-{}", std::process::id()));
        let src = dir.join("crates/serve/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            dir.join(CONFIG_FILE),
            r#"
[workspace]
roots = ["crates"]
[atomics]
paths = ["crates/serve"]
[no_alloc]
"crates/serve/src/hot.rs" = "*"
"#,
        )
        .unwrap();
        std::fs::write(
            src.join("hot.rs"),
            "fn hot() { let v: Vec<u8> = Vec::new(); }\nfn arm() { unsafe { g() }; A.store(1, Ordering::SeqCst); }\n",
        )
        .unwrap();

        let report = run(&dir).unwrap();
        let keys: Vec<_> = report.findings.iter().map(|f| f.key.as_str()).collect();
        assert!(keys.contains(&"fn:hot:Vec::new"), "{keys:?}");
        assert!(keys.contains(&"block:arm"), "{keys:?}");
        assert!(keys.contains(&"seqcst:arm"), "{keys:?}");
        assert_eq!(report.unsafe_inventory.len(), 1);

        // Fix the seeded violations; the run comes back clean.
        std::fs::write(
            src.join("hot.rs"),
            "fn arm() {\n    // SAFETY: g is a no-op stub.\n    unsafe { g() };\n    // ORDERING: fences the arming flag against hot().\n    A.store(1, Ordering::SeqCst);\n}\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        assert!(report.clean(), "{:?}", report.findings);

        std::fs::remove_dir_all(&dir).ok();
    }
}
