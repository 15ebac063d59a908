//! Every file, binary and environment variable the documentation names
//! must exist.
//!
//! Scans `README.md`, `DESIGN.md`, `EXPERIMENTS.md` and `docs/*.md` (not
//! the roadmap, the change log, the paper inputs or `benchmark/`, which
//! record history or are owned by the benchmark) for:
//!
//! * a backticked repository path under `crates/`, `tests/`,
//!   `examples/`, `docs/`, `scripts/` or `results/` (a `*` matches within
//!   one path component; a `:line` suffix is ignored);
//! * `--bin NAME`, which must be a binary of some workspace crate;
//! * an `MPFA_*` name, which some `.rs` file must mention.

use std::fs;
use std::path::{Path, PathBuf};

const PATH_PREFIXES: [&str; 6] = [
    "crates/",
    "tests/",
    "examples/",
    "docs/",
    "scripts/",
    "results/",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The scanned documents, as (repo-relative name, text).
fn documents(root: &Path) -> Vec<(String, String)> {
    let mut names: Vec<String> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut docs: Vec<String> = fs::read_dir(root.join("docs"))
        .expect("docs/ exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".md"))
        .map(|n| format!("docs/{n}"))
        .collect();
    docs.sort();
    names.extend(docs);
    names
        .into_iter()
        .map(|n| {
            let text = fs::read_to_string(root.join(&n)).unwrap_or_else(|e| panic!("{n}: {e}"));
            (n, text)
        })
        .collect()
}

/// `*` matches any run of characters inside one path component.
fn glob_match(pat: &str, name: &str) -> bool {
    match pat.split_once('*') {
        None => pat == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && glob_match(tail, &name[i..]))
        }
    }
}

/// Does `rel` (components joined by `/`, possibly with `*`) name
/// anything under `dir`?
fn path_exists(dir: &Path, rel: &str) -> bool {
    let (first, rest) = match rel.split_once('/') {
        Some((f, r)) => (f, Some(r)),
        None => (rel, None),
    };
    if first.is_empty() {
        return dir.is_dir() && rest.is_none_or(|r| path_exists(dir, r));
    }
    let candidates: Vec<PathBuf> = if first.contains('*') {
        match fs::read_dir(dir) {
            Ok(rd) => rd
                .map(|e| e.unwrap())
                .filter(|e| glob_match(first, &e.file_name().to_string_lossy()))
                .map(|e| e.path())
                .collect(),
            Err(_) => Vec::new(),
        }
    } else {
        vec![dir.join(first)]
    };
    candidates.iter().any(|p| match rest {
        None => p.exists(),
        Some(r) => p.is_dir() && path_exists(p, r),
    })
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "/_-.*".contains(c)
}

/// Repository paths named inside backticks in `text`.
fn backticked_paths(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        for token in span.split_whitespace() {
            for prefix in PATH_PREFIXES {
                let Some(at) = token.find(prefix) else {
                    continue;
                };
                // `target/release/examples/x` is a build output, not a
                // repository path.
                if token[..at].ends_with(is_path_char) {
                    continue;
                }
                let path: String = token[at..]
                    .chars()
                    .take_while(|&c| is_path_char(c))
                    .collect();
                out.push(path.trim_end_matches('.').to_string());
            }
        }
    }
    out
}

/// Names following `--bin` in `text`.
fn bin_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut words = text.split_whitespace();
    while let Some(w) = words.next() {
        if w.trim_start_matches('`') == "--bin" {
            if let Some(name) = words.next() {
                let name: String = name
                    .trim_start_matches('`')
                    .chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                    .collect();
                if !name.is_empty() {
                    out.push(name);
                }
            }
        }
    }
    out
}

/// `MPFA_*` identifiers in `text` (a bare `MPFA_` prefix is skipped).
fn env_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("MPFA_") {
        let before_ok = !rest[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        let name: String = rest[at..]
            .chars()
            .take_while(|&c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            .collect();
        rest = &rest[at + name.len()..];
        let name = name.trim_end_matches('_');
        if before_ok && name.len() > "MPFA".len() {
            out.push(name.to_string());
        }
    }
    out
}

/// Every binary target of the workspace's crates (`src/bin/NAME.rs`).
fn workspace_bins(root: &Path) -> Vec<String> {
    let mut bins = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        if let Ok(rd) = fs::read_dir(krate.unwrap().path().join("src/bin")) {
            for e in rd {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                bins.push(name.trim_end_matches(".rs").to_string());
            }
        }
    }
    bins
}

/// Concatenated text of every `.rs` file outside build output.
fn all_rust(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut String) {
        for e in fs::read_dir(dir).unwrap() {
            let e = e.unwrap();
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && name != ".git" {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push_str(&fs::read_to_string(&p).unwrap_or_default());
            }
        }
    }
    let mut out = String::new();
    walk(root, &mut out);
    out
}

/// Every dangling reference in `docs`, as "doc: kind `name`".
fn dangling(root: &Path, docs: &[(String, String)]) -> Vec<String> {
    let bins = workspace_bins(root);
    let rust = all_rust(root);
    let mut bad = Vec::new();
    for (doc, text) in docs {
        for p in backticked_paths(text) {
            if !path_exists(root, &p) {
                bad.push(format!("{doc}: path `{p}`"));
            }
        }
        for b in bin_names(text) {
            if !bins.contains(&b) {
                bad.push(format!("{doc}: --bin `{b}`"));
            }
        }
        for v in env_names(text) {
            if !rust.contains(&v) {
                bad.push(format!("{doc}: env `{v}`"));
            }
        }
    }
    bad.sort();
    bad.dedup();
    bad
}

#[test]
fn docs_name_only_things_that_exist() {
    let root = root();
    let bad = dangling(&root, &documents(&root));
    assert!(
        bad.is_empty(),
        "dangling doc references:\n  {}",
        bad.join("\n  ")
    );
}

#[test]
fn planted_references_are_caught() {
    let root = root();
    // Spelled in two pieces so that this file does not define the name.
    let knob = ["MPFA", "NO_SUCH_KNOB"].join("_");
    let planted = format!(
        "Run `cargo run --release -p mpfa-bench --bin no_such_bin`, \
         read `results/no_such_file.json` and set `{knob}=1`; \
         `crates/core/src/stream.rs:42` and `tests/prop_*.rs` exist, \
         `target/release/examples/x` is build output."
    );
    let bad = dangling(&root, &[("planted.md".to_string(), planted)]);
    assert_eq!(
        bad,
        vec![
            "planted.md: --bin `no_such_bin`".to_string(),
            format!("planted.md: env `{knob}`"),
            "planted.md: path `results/no_such_file.json`".to_string(),
        ]
    );
}
