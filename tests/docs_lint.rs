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
//!
//! The same walk holds `crates/pdms/src` to its cut: no source file over
//! [`MAX_PDMS_LINES`] lines (unit tests included), and no function there
//! returning `Result<_, String>` — its front doors fail with `PdmsError`.
//!
//! And it holds every library crate to one thread per call: no source
//! under `crates/*/src` (the `e2e` and `bench` harnesses aside) names
//! [`THREAD_STARTS`] above its first `#[cfg(test)]`. Tests may start
//! threads to check what the library does under them.
//!
//! And it holds every library crate to no wall clock: no source there
//! names one of [`WALL_CLOCKS`] above its first `#[cfg(test)]`, so what
//! a call records is a function of its inputs, not of the machine. The
//! bench harness in [`TIMING_HARNESSES`] times code by design.
//!
//! And it holds every library crate to no process-global mutable state:
//! no source there declares a `static` atomic or a `static mut` above its
//! first `#[cfg(test)]`, so a call's result cannot depend on what other
//! calls in the process did before it.
//!
//! And it holds CHANGES.md to a budget: every entry from PR
//! [`BUDGET_FROM_PR`] on has at most [`MAX_ENTRY_WORDS`] words. An entry
//! is a `- PR N …` line plus the indented lines that continue it.

use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const ROOTS: [&str; 4] = ["crates", "tests", "examples", "scripts"];
const MAX_PDMS_LINES: usize = 800;
const THREAD_STARTS: [&str; 2] = ["thread::scope", "thread::spawn"];
/// Crates whose `src` is a harness, not the library: they may start threads.
const HARNESS_CRATES: [&str; 2] = ["e2e", "bench"];
const WALL_CLOCKS: [&str; 2] = ["Instant::now", "SystemTime::now"];
/// Library sources that are a bench harness: they may read the wall clock.
const TIMING_HARNESSES: [&str; 1] = ["crates/util/src/criterion.rs"];
/// The first CHANGES.md entry the word budget holds; older ones predate it.
const BUDGET_FROM_PR: u32 = 35;
const MAX_ENTRY_WORDS: usize = 300;

/// Visit every readable file under `dir` with its path and contents, in
/// path order. Build outputs (`target`, the benchmark's git-ignored
/// `out`) are not part of the tree.
fn read_tree(dir: &Path, visit: &mut dyn FnMut(&Path, &str)) {
    let mut entries: Vec<_> = fs::read_dir(dir).expect("readable directory").flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "out" {
                read_tree(&path, visit);
            }
        } else if let Ok(text) = fs::read_to_string(&path) {
            visit(&path, &text);
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
        read_tree(&root.join(dir), &mut |path, text| {
            corpus.push_str(&path.to_string_lossy());
            corpus.push('\n');
            corpus.push_str(text);
            corpus.push('\n');
        });
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

/// The error type of a `-> Result<T, E>` on `line`, when it fits there.
fn result_error_type(line: &str) -> Option<&str> {
    let args = line.split("-> Result<").nth(1)?;
    let (mut depth, mut last_comma) = (0usize, None);
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            ',' if depth == 0 => last_comma = Some(i),
            '>' if depth == 0 => return Some(args[last_comma? + 1..i].trim()),
            '>' => depth -= 1,
            _ => {}
        }
    }
    None
}

#[test]
fn pdms_sources_stay_small_and_return_typed_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../crates/pdms/src");
    let mut findings = Vec::new();
    read_tree(&root, &mut |path, text| {
        if path.extension().is_some_and(|e| e == "rs") {
            let lines = text.lines().count();
            if lines > MAX_PDMS_LINES {
                findings.push(format!("{}: {lines} lines", path.display()));
            }
            for (i, line) in text.lines().enumerate() {
                if result_error_type(line) == Some("String") {
                    findings.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
                }
            }
        }
    });
    assert!(
        findings.is_empty(),
        "crates/pdms/src must keep every file within {MAX_PDMS_LINES} lines and return typed \
         errors, not `Result<_, String>`:\n{}",
        findings.join("\n")
    );
}

#[test]
fn the_result_check_reads_the_error_type() {
    assert_eq!(result_error_type("fn f() -> Result<(), String> {"), Some("String"));
    assert_eq!(result_error_type("-> Result<(Relation, usize), PdmsError> {"), Some("PdmsError"));
    assert_eq!(result_error_type("-> Result<BTreeMap<u32, String>, E>"), Some("E"));
    assert_eq!(result_error_type("-> Result<&Subscription, String> {"), Some("String"));
    assert_eq!(result_error_type("let r: Result<(), String> = Ok(());"), None);
}

/// `(line number, line)` for every line of `text` above its first
/// `#[cfg(test)]` that names one of `needles`.
fn library_lines_naming<'t>(text: &'t str, needles: &[&str]) -> Vec<(usize, &'t str)> {
    let library = text.split("#[cfg(test)]").next().unwrap_or_default();
    library
        .lines()
        .enumerate()
        .filter(|(_, line)| needles.iter().any(|t| line.contains(t)))
        .map(|(i, line)| (i + 1, line.trim()))
        .collect()
}

/// The lines of `text` that start a thread ([`THREAD_STARTS`]).
fn thread_starts(text: &str) -> Vec<(usize, &str)> {
    library_lines_naming(text, &THREAD_STARTS)
}

#[test]
fn library_code_starts_no_threads() {
    let mut findings = Vec::new();
    library_sources(&mut |path, text| {
        for (line, code) in thread_starts(text) {
            findings.push(format!("{path}:{line}: {code}"));
        }
    });
    assert!(
        findings.is_empty(),
        "library code runs each call on its caller's thread; outside `#[cfg(test)]` no source \
         may name {THREAD_STARTS:?}:\n{}",
        findings.join("\n")
    );
}

#[test]
fn the_thread_check_reads_only_library_code() {
    let text = "fn f() {\n    std::thread::scope(|s| {});\n}\n#[cfg(test)]\nmod tests {\n    \
                fn g() { std::thread::spawn(|| {}); }\n}\n";
    assert_eq!(thread_starts(text), [(2, "std::thread::scope(|s| {});")]);
    assert!(thread_starts("use std::thread;\nfn f() {}\n").is_empty());
}

/// The lines of `text` that read a wall clock ([`WALL_CLOCKS`]).
fn wall_clock_reads(text: &str) -> Vec<(usize, &str)> {
    library_lines_naming(text, &WALL_CLOCKS)
}

#[test]
fn library_code_reads_no_wall_clock() {
    let mut findings = Vec::new();
    library_sources(&mut |path, text| {
        if TIMING_HARNESSES.contains(&path.as_str()) {
            return;
        }
        for (line, code) in wall_clock_reads(text) {
            findings.push(format!("{path}:{line}: {code}"));
        }
    });
    assert!(
        findings.is_empty(),
        "library code records logical ticks, not time; outside `#[cfg(test)]` no source may \
         name {WALL_CLOCKS:?}:\n{}",
        findings.join("\n")
    );
}

#[test]
fn the_wall_clock_check_reads_only_library_code() {
    let text = "use std::time::Instant;\nfn f() {\n    let t = Instant::now();\n}\n\
                fn g() -> u64 { SystemTime::now().elapsed().as_secs() }\n#[cfg(test)]\n\
                mod tests {\n    fn h() { let _ = std::time::Instant::now(); }\n}\n";
    assert_eq!(
        wall_clock_reads(text),
        [
            (3, "let t = Instant::now();"),
            (5, "fn g() -> u64 { SystemTime::now().elapsed().as_secs() }"),
        ]
    );
    let names_the_type_only = "use std::time::{Duration, Instant};\nfn f(_: Instant) {}\n";
    assert!(wall_clock_reads(names_the_type_only).is_empty());
}

/// `(line number, line)` for every line of `text` above its first
/// `#[cfg(test)]` that declares a `static` atomic or a `static mut`.
fn global_state(text: &str) -> Vec<(usize, &str)> {
    let library = text.split("#[cfg(test)]").next().unwrap_or_default();
    library
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            let mut words = line.split_whitespace().skip_while(|w| w.starts_with("pub"));
            words.next() == Some("static") && (words.next() == Some("mut") || line.contains("Atomic"))
        })
        .map(|(i, line)| (i + 1, line.trim()))
        .collect()
}

/// Every library crate's sources: `crates/*/src`, the harnesses aside, as
/// `(path under the repository, text)`.
fn library_sources(visit: &mut dyn FnMut(String, &str)) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../crates");
    let mut crates: Vec<_> = fs::read_dir(&root).expect("crates directory").flatten().collect();
    crates.sort_by_key(|e| e.path());
    for krate in crates {
        if HARNESS_CRATES.iter().any(|h| krate.file_name() == *h) {
            continue;
        }
        read_tree(&krate.path().join("src"), &mut |path, text| {
            let path = path.strip_prefix(&root).unwrap_or(path);
            visit(format!("crates/{}", path.display()), text);
        });
    }
}

#[test]
fn library_code_keeps_no_process_global_state() {
    let mut findings = Vec::new();
    library_sources(&mut |path, text| {
        for (line, code) in global_state(text) {
            findings.push(format!("{path}:{line}: {code}"));
        }
    });
    assert!(
        findings.is_empty(),
        "library code is a function of its inputs; outside `#[cfg(test)]` no source may declare \
         a `static` atomic or a `static mut`:\n{}",
        findings.join("\n")
    );
}

#[test]
fn the_global_state_check_reads_only_library_code() {
    let text = "static FRESH: AtomicU64 = AtomicU64::new(0);\npub(crate) static mut N: u32 = 0;\n\
                pub static NAMES: [&str; 1] = [\"x\"];\nfn f(s: &'static str) {}\n#[cfg(test)]\n\
                mod tests {\n    static SEEN: AtomicUsize = AtomicUsize::new(0);\n}\n";
    assert_eq!(
        global_state(text),
        [(1, "static FRESH: AtomicU64 = AtomicU64::new(0);"), (2, "pub(crate) static mut N: u32 = 0;")]
    );
}

/// `(line number, PR number, words)` of every CHANGES entry from
/// [`BUDGET_FROM_PR`] on that has more than [`MAX_ENTRY_WORDS`] words. The
/// bullet is not a word; an unindented or blank line ends an entry.
fn over_budget(text: &str) -> Vec<(usize, u32, usize)> {
    let mut entries: Vec<(usize, u32, usize)> = Vec::new();
    let mut open = false;
    for (i, line) in text.lines().enumerate() {
        let pr = line.strip_prefix("- PR ").and_then(|rest| {
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
            digits.parse::<u32>().ok()
        });
        if let Some(pr) = pr {
            entries.push((i + 1, pr, line.split_whitespace().count() - 1));
            open = true;
        } else if open && line.starts_with(char::is_whitespace) && !line.trim().is_empty() {
            entries.last_mut().expect("an open entry").2 += line.split_whitespace().count();
        } else {
            open = false;
        }
    }
    entries.retain(|&(_, pr, words)| pr >= BUDGET_FROM_PR && words > MAX_ENTRY_WORDS);
    entries
}

#[test]
fn changes_entries_stay_within_their_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join("CHANGES.md")).expect("CHANGES.md");
    let over: Vec<String> = over_budget(&text)
        .into_iter()
        .map(|(line, pr, words)| format!("CHANGES.md:{line}: PR {pr} has {words} words"))
        .collect();
    assert!(
        over.is_empty(),
        "a CHANGES.md entry from PR {BUDGET_FROM_PR} on has at most {MAX_ENTRY_WORDS} words:\n{}",
        over.join("\n")
    );
}

#[test]
fn the_budget_check_counts_whole_entries_from_its_first_pr() {
    let words = |n: usize| vec!["w"; n].join(" ");
    let text = format!(
        "- PR 34 {}\n- PR 35 {}\n  {}\n- FOUND: {}\n- PR 36 {}\n\n  {}\n",
        words(400),
        words(150),
        words(149),
        words(400),
        words(298),
        words(5)
    );
    // PR 34 predates the budget; PR 35 is "PR", "35" and 299 more words;
    // PR 36 is exactly at the budget, and the blank line ends it.
    assert_eq!(over_budget(&text), [(2, 35, 301)]);
}
