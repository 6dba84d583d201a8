//! Regenerate the experiment tables recorded in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ft-bench --bin repro -- all      # everything
//! cargo run --release -p ft-bench --bin repro -- e1 e6    # a subset
//! cargo run --release -p ft-bench --bin repro -- --list   # available ids
//! ```

use ft_bench::{run_experiment, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<&str> = ALL_EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: repro [--list] [all | {}]", all.join(" "));
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        for id in all {
            println!("{id}");
        }
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        all
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in ids {
        match run_experiment(id) {
            Some(tables) => {
                for t in tables {
                    println!("{}", t.render_markdown());
                }
            }
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                std::process::exit(2);
            }
        }
    }
}
