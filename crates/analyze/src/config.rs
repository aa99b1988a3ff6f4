//! `analyze.toml` — analyzer configuration.
//!
//! The workspace bans crates.io dependencies, so this is a small
//! hand-rolled parser for the TOML subset the config actually uses:
//! `[section]` headers, string values, string arrays (single- or
//! multi-line), quoted keys, and `#` comments. Anything outside that
//! subset is a hard error — config typos should fail the run, not be
//! silently skipped.

use std::collections::BTreeMap;

/// A parsed value: a string or an array of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    Arr(Vec<String>),
}

/// One `[no_alloc]` entry: a file (or directory prefix) and the
/// functions the ban is scoped to — `None` means the whole file.
#[derive(Debug, Clone)]
pub struct NoAllocScope {
    pub path: String,
    pub functions: Option<Vec<String>>,
}

/// The analyzer's full configuration.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Directories (relative to the root) whose `.rs` files are scanned.
    pub roots: Vec<String>,
    /// Hot paths where allocation calls are banned.
    pub no_alloc: Vec<NoAllocScope>,
    /// Path prefixes the atomic-ordering lint applies to.
    pub atomics_paths: Vec<String>,
}

impl AnalyzeConfig {
    /// Parses the config from TOML text.
    pub fn from_toml(text: &str) -> Result<AnalyzeConfig, String> {
        let sections = parse_toml(text)?;
        let get = |section: &str, key: &str| -> Option<&Value> {
            sections
                .get(section)?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        };
        let arr_of = |section: &str, key: &str| -> Result<Vec<String>, String> {
            match get(section, key) {
                Some(Value::Arr(a)) => Ok(a.clone()),
                Some(Value::Str(_)) => Err(format!("[{section}] {key}: expected an array")),
                None => Err(format!("[{section}] {key}: missing")),
            }
        };

        let mut no_alloc = Vec::new();
        if let Some(entries) = sections.get("no_alloc") {
            for (path, v) in entries {
                let functions = match v {
                    Value::Str(s) if s == "*" => None,
                    Value::Str(s) => {
                        return Err(format!(
                            "[no_alloc] {path}: expected \"*\" or a function array, got {s:?}"
                        ))
                    }
                    Value::Arr(fns) => Some(fns.clone()),
                };
                no_alloc.push(NoAllocScope {
                    path: path.clone(),
                    functions,
                });
            }
        }

        Ok(AnalyzeConfig {
            roots: arr_of("workspace", "roots")?,
            no_alloc,
            atomics_paths: arr_of("atomics", "paths")?,
        })
    }
}

type Sections = BTreeMap<String, Vec<(String, Value)>>;

/// Parses the supported TOML subset into section → key/value pairs.
/// Keys keep their section-local order (it matters for report output).
fn parse_toml(text: &str) -> Result<Sections, String> {
    let mut sections: Sections = BTreeMap::new();
    let mut current = String::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or(format!("line {lineno}: unterminated section header"))?;
            current = name.trim().trim_matches('"').to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim().trim_matches('"').to_string();
        let mut value = value.trim().to_string();
        // Multi-line arrays: accumulate until the closing bracket.
        while value.starts_with('[') && !balanced_array(&value) {
            let (_, cont) = lines
                .next()
                .ok_or(format!("line {lineno}: unterminated array"))?;
            value.push(' ');
            value.push_str(strip_comment(cont).trim());
        }
        let parsed = parse_value(&value).map_err(|e| format!("line {lineno}: {e}"))?;
        if current.is_empty() {
            return Err(format!("line {lineno}: key before any [section]"));
        }
        sections.get_mut(&current).unwrap().push((key, parsed));
    }
    Ok(sections)
}

/// Strips a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced_array(s: &str) -> bool {
    s.trim_end().ends_with(']')
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or("unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_string(part)?);
        }
        return Ok(Value::Arr(items));
    }
    Ok(Value::Str(parse_string(s)?))
}

fn parse_string(s: &str) -> Result<String, String> {
    let s = s.trim();
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or(format!("expected a quoted string, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[workspace]
roots = ["crates", "src"]

[no_alloc]
"crates/tensor/src/workspace.rs" = "*"
"crates/telemetry/src/lib.rs" = [
    "record",  # scoped
    "add",
]

[atomics]
paths = ["crates/telemetry"]
"#;

    #[test]
    fn parses_full_config() {
        let cfg = AnalyzeConfig::from_toml(SAMPLE).unwrap();
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.no_alloc.len(), 2);
        assert_eq!(cfg.no_alloc[0].path, "crates/tensor/src/workspace.rs");
        assert!(cfg.no_alloc[0].functions.is_none());
        assert_eq!(
            cfg.no_alloc[1].functions.as_deref(),
            Some(&["record".to_string(), "add".to_string()][..])
        );
        assert_eq!(cfg.atomics_paths, vec!["crates/telemetry"]);
    }

    #[test]
    fn missing_key_is_an_error() {
        let err = AnalyzeConfig::from_toml("[workspace]\n").unwrap_err();
        assert!(err.contains("roots"), "err: {err}");
    }

    #[test]
    fn bad_scope_value_is_an_error() {
        let toml = r#"
[workspace]
roots = ["crates"]
[atomics]
paths = []
[no_alloc]
"x.rs" = "sometimes"
"#;
        let err = AnalyzeConfig::from_toml(toml).unwrap_err();
        assert!(err.contains("function array"), "err: {err}");
    }
}
