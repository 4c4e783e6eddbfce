//! Workspace discovery: find every first-party `.rs` file and `Cargo.toml`
//! under the root, in deterministic (sorted) order.

use crate::config::{path_matches, Config};
use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// One dependency edge declared in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// Dependency package name (the part before any `.workspace` suffix).
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// True when declared under `[dev-dependencies]`.
    pub dev: bool,
}

/// A parsed `Cargo.toml`, reduced to what layering checks need.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workspace-relative `/`-separated path of the manifest file.
    pub rel_path: String,
    /// `[package] name`, when present (the root may be a virtual manifest).
    pub package_name: Option<String>,
    /// All `[dependencies]`/`[dev-dependencies]` entries.
    pub deps: Vec<DepEntry>,
}

impl Manifest {
    /// Line-oriented parse: good enough for the manifests this workspace
    /// writes (no multi-line inline tables for dependency entries).
    pub fn parse(rel_path: &str, text: &str) -> Manifest {
        let mut package_name = None;
        let mut deps = Vec::new();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = header.trim().to_owned();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            match section.as_str() {
                "package" if key == "name" => {
                    package_name = Some(value.trim_matches('"').to_owned());
                }
                "dependencies" | "dev-dependencies" => {
                    // `mp-relation.workspace = true` or `rand = { … }`.
                    let name = key.split('.').next().unwrap_or(key).trim_matches('"');
                    deps.push(DepEntry {
                        name: name.to_owned(),
                        line: idx + 1,
                        dev: section == "dev-dependencies",
                    });
                }
                _ => {}
            }
        }
        Manifest {
            rel_path: rel_path.to_owned(),
            package_name,
            deps,
        }
    }
}

/// Everything the lint registry runs over.
pub struct Workspace {
    /// Filesystem root the relative paths are anchored at.
    pub root: PathBuf,
    /// All first-party source files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// All first-party manifests, sorted by relative path.
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    /// Walks `root`, collecting `.rs` files and `Cargo.toml`s outside the
    /// configured `exclude` prefixes (plus dotted directories).
    pub(crate) fn discover(root: &Path, config: &Config) -> Result<Workspace, String> {
        let mut rs_paths: Vec<String> = Vec::new();
        let mut manifest_paths: Vec<String> = Vec::new();
        walk(root, root, config, &mut rs_paths, &mut manifest_paths)?;
        rs_paths.sort();
        manifest_paths.sort();
        let mut files = Vec::with_capacity(rs_paths.len());
        for rel in &rs_paths {
            let text =
                fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
            files.push(SourceFile::parse(rel, text));
        }
        let mut manifests = Vec::with_capacity(manifest_paths.len());
        for rel in &manifest_paths {
            let text =
                fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
            manifests.push(Manifest::parse(rel, &text));
        }
        Ok(Workspace {
            root: root.to_owned(),
            files,
            manifests,
        })
    }
}

fn walk(
    root: &Path,
    dir: &Path,
    config: &Config,
    rs: &mut Vec<String>,
    manifests: &mut Vec<String>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let rel = rel_path(root, &path);
        if config.exclude.iter().any(|p| path_matches(p, &rel)) {
            continue;
        }
        let kind = entry
            .file_type()
            .map_err(|e| format!("stat {}: {e}", path.display()))?;
        if kind.is_dir() {
            walk(root, &path, config, rs, manifests)?;
        } else if name.ends_with(".rs") {
            rs.push(rel);
        } else if name == "Cargo.toml" {
            manifests.push(rel);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parse_extracts_package_and_deps() {
        let text = r#"
[package]
name = "mp-relation"
version.workspace = true

[dependencies]
mp-observe.workspace = true
rand = { path = "../vendor/rand" }

[dev-dependencies]
proptest.workspace = true
"#;
        let m = Manifest::parse("crates/relation/Cargo.toml", text);
        assert_eq!(m.package_name.as_deref(), Some("mp-relation"));
        let names: Vec<(&str, bool)> = m.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![("mp-observe", false), ("rand", false), ("proptest", true)]
        );
        assert!(m.deps[0].line > 0);
    }

    #[test]
    fn workspace_dependencies_section_is_not_a_dep() {
        let text = "[workspace.dependencies]\nmp-relation = { path = \"x\" }\n";
        let m = Manifest::parse("Cargo.toml", text);
        assert!(m.deps.is_empty());
    }

    #[test]
    fn virtual_manifest_has_no_package() {
        let m = Manifest::parse("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        assert_eq!(m.package_name, None);
    }
}
