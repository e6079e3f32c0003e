//! Prose that resolves: the top-level documents may only name code that
//! exists.
//!
//! Every inline-code token in README.md, DESIGN.md and EXPERIMENTS.md
//! that looks like a Rust path, an identifier, an environment variable, a
//! metric name or a file name — any backticked word containing `_` or
//! `::` — must have its last path segment occur somewhere under `crates`,
//! `tests`, `examples` or `scripts` (file contents or file names). A
//! section whose heading says *retired* or *historical* is exempt down to
//! the next heading of its own level or above: it documents what the tree
//! no longer has. Fenced code blocks are not inline code and are skipped.
//!
//! This is a first cut (ROADMAP item 10a): it catches a name that was
//! deleted or renamed under the prose, not a sentence that is wrong about
//! a name that still exists.

use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const ROOTS: [&str; 4] = ["crates", "tests", "examples", "scripts"];

/// File contents and relative paths under `dir`, appended to `corpus`.
/// Build outputs (`target`, the benchmark's git-ignored `out`) are not
/// part of the tree.
fn read_tree(dir: &Path, corpus: &mut String) {
    let mut entries: Vec<_> = fs::read_dir(dir).expect("readable directory").flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "out" {
                read_tree(&path, corpus);
            }
        } else if let Ok(text) = fs::read_to_string(&path) {
            corpus.push_str(&path.to_string_lossy());
            corpus.push('\n');
            corpus.push_str(&text);
            corpus.push('\n');
        }
    }
}

/// The identifier a backticked word must resolve by: the last `::` / `/`
/// segment, and within it the first `[A-Za-z0-9_]+` run that has an
/// underscore (`query.dataflow.work_per_row` → `work_per_row`,
/// `durability_wal.rs` → `durability_wal`), else the first run
/// (`Catalog::register()` → `register`).
fn last_segment(word: &str) -> Option<&str> {
    let segment = word.rsplit("::").next()?.rsplit('/').next()?;
    let mut runs = segment
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|run| !run.is_empty());
    let first = runs.clone().next()?;
    Some(runs.find(|run| run.contains('_')).unwrap_or(first))
}

/// `(line number, token)` for every inline-code word of `text` the lint
/// covers, outside fenced blocks and historical sections.
fn tokens(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    // Heading level of the historical section we are inside, if any.
    let mut historical: Option<usize> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let level = line.chars().take_while(|&c| c == '#').count();
        if level > 0 && line[level..].starts_with(' ') {
            if historical.is_some_and(|h| level <= h) {
                historical = None;
            }
            let heading = line.to_lowercase();
            if historical.is_none() && (heading.contains("retired") || heading.contains("historical")) {
                historical = Some(level);
            }
        }
        if historical.is_some() {
            continue;
        }
        // Odd-numbered pieces of a split on backticks are inline code.
        for code in line.split('`').skip(1).step_by(2) {
            for word in code.split_whitespace() {
                if word.contains('_') || word.contains("::") {
                    out.push((i + 1, word.to_string()));
                }
            }
        }
    }
    out
}

#[test]
fn backticked_names_in_the_docs_resolve_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut corpus = String::new();
    for dir in ROOTS {
        read_tree(&root.join(dir), &mut corpus);
    }
    let mut dangling = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("top-level document");
        for (line, word) in tokens(&text) {
            let Some(name) = last_segment(&word) else { continue };
            if !corpus.contains(name) {
                dangling.push(format!("{doc}:{line}: `{word}` — `{name}` occurs nowhere in the tree"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "{} name(s) in the docs no longer resolve (fix the prose, or mark the section \
         retired/historical):\n{}",
        dangling.len(),
        dangling.join("\n")
    );
}

#[test]
fn the_lint_reads_tokens_the_way_its_doc_says() {
    assert_eq!(last_segment("Catalog::register()"), Some("register"));
    assert_eq!(last_segment("query.dataflow.work_per_row"), Some("work_per_row"));
    assert_eq!(last_segment("tests/durability_wal.rs"), Some("durability_wal"));
    assert_eq!(last_segment("REVERE_CHAOS_SEEDS=\"1"), Some("REVERE_CHAOS_SEEDS"));
    let text = "# Doc\n`a_b` and `x y::z`\n```\n`in_fence`\n```\n## Old (retired)\n`gone_name`\n\
                ### Deeper\n`also_gone`\n## Live\n`back_again`\n";
    let words: Vec<String> = tokens(text).into_iter().map(|(_, w)| w).collect();
    assert_eq!(words, ["a_b", "y::z", "back_again"]);
}
