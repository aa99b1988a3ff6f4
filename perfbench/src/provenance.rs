//! Where a run record came from: source, build, machine and command.
//!
//! Two records compare only when everything but the source identity and
//! the seed agrees — the same CPU key, thread count, core count, cargo
//! features, SIMD availability, compiler and workload command. The
//! source identity is what a comparison is *about*, so it may differ.

use std::path::Path;

use deepmorph::prelude::content_fingerprint;
use deepmorph_json::Json;

/// Fields that must agree for two records to be comparable.
pub const COMPARABLE: [&str; 7] = [
    "cpu_key",
    "max_threads",
    "nproc",
    "features",
    "simd_available",
    "rustc",
    "command_shape",
];

/// The git commit of the checkout, read from `.git` without running git
/// (a source export has no `.git`; the source digest still identifies it).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        ) {
            out.push(path);
        }
    }
}

/// Content digest of the program and benchmark sources (`src/`,
/// `crates/`, `vendor/`, `perfbench/` and the root manifests).
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["src", "crates", "vendor", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    for file in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        files.push(root.join(file));
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        if let Ok(content) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    content_fingerprint(&bytes)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(feature = "parallel") {
        f.push("parallel");
    }
    if cfg!(feature = "simd") {
        f.push("simd");
    }
    f
}

/// The command with the seed value masked: runs of one workload on
/// different seeds share a shape.
fn command_shape(args: &[String]) -> String {
    let mut masked = Vec::with_capacity(args.len());
    let mut after_seed = false;
    for a in args {
        masked.push(if after_seed {
            "<seed>".to_string()
        } else {
            a.clone()
        });
        after_seed = a == "--seed";
    }
    masked.join(" ")
}

/// The provenance block of a run record.
pub fn collect(root: &Path, args: &[String]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("git_commit", Json::str(git_commit(root))),
        ("source_digest", Json::str(source_digest(root))),
        (
            "cpu_key",
            Json::str(deepmorph_tensor::backend::tune::cpu_key()),
        ),
        (
            "max_threads",
            Json::usize(deepmorph_parallel::max_threads()),
        ),
        ("nproc", Json::usize(nproc)),
        ("features", Json::arr(features().into_iter().map(Json::str))),
        (
            "simd_available",
            Json::Bool(deepmorph_tensor::backend::simd_available()),
        ),
        ("rustc", Json::str(rustc_version())),
        ("command", Json::str(args.join(" "))),
        ("command_shape", Json::str(command_shape(args))),
    ])
}

/// The comparable fields on which two provenance blocks disagree.
pub fn differences(a: &Json, b: &Json) -> Vec<String> {
    COMPARABLE
        .iter()
        .filter(|key| a.get(key) != b.get(key))
        .map(|key| {
            format!(
                "{key}: {} vs {}",
                a.get(key).map_or("missing".into(), Json::to_string_compact),
                b.get(key).map_or("missing".into(), Json::to_string_compact)
            )
        })
        .collect()
}
