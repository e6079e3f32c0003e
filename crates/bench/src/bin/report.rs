//! Regenerate every experiment table of EXPERIMENTS.md.
//!
//! Usage:
//!   cargo run --release -p revere-bench --bin report          # all
//!   cargo run --release -p revere-bench --bin report E6       # one
//!   cargo run --release -p revere-bench --bin report --markdown

use revere_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let tables = if ids.is_empty() {
        experiments::run_all()
    } else {
        ids.iter()
            .flat_map(|id| {
                experiments::run_one(id)
                    .unwrap_or_else(|| panic!("unknown experiment {id:?} (use E1..E17, E19)"))
            })
            .collect()
    };
    for t in tables {
        if markdown {
            println!("{}", t.markdown());
        } else {
            println!("{t}\n");
        }
    }
}
