//! Run every experiment with the given options — regenerates all the
//! tables and figures of the experiment index in the `tg_experiments`
//! crate docs. The execution order, the `--list` output, and the
//! `--only` validation all come from one place:
//! [`tg_experiments::exp::REGISTRY`].
//!
//! * `--list` — print the registry (name + one-line description) and
//!   exit 0,
//! * `--only e10,e11,e12` — restrict the run to a subset (CI smoke and
//!   local iteration); unknown names exit 2 with the known list.

use tg_experiments::exp::REGISTRY;
use tg_experiments::Options;

fn main() {
    let opts = Options::from_env();
    if opts.list {
        let width = REGISTRY.iter().map(|e| e.name.len()).max().unwrap_or(0);
        for e in REGISTRY {
            println!("{:width$}  {}", e.name, e.description);
        }
        return;
    }
    if let Some(only) = &opts.only {
        let unknown: Vec<&str> = only
            .iter()
            .map(String::as_str)
            .filter(|n| !REGISTRY.iter().any(|e| e.name == *n))
            .collect();
        if !unknown.is_empty() {
            let known: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
            eprintln!("[run_all] unknown experiment(s) {unknown:?}; known: {known:?}");
            std::process::exit(2);
        }
    }
    let t0 = std::time::Instant::now();
    let mut ran = 0usize;
    for e in REGISTRY {
        if opts.selected(e.name) {
            eprintln!("[run_all] {}: {}…", e.name, e.description);
            (e.run)(&opts);
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("[run_all] nothing selected — check the --only list");
        std::process::exit(2);
    }
    eprintln!("[run_all] {ran} experiment(s) done in {:.1?}", t0.elapsed());
    let dropped = tg_experiments::artifacts::dropped_count();
    if dropped > 0 {
        eprintln!("[run_all] {dropped} requested artifact(s) could not be written (see warnings)");
        std::process::exit(1);
    }
}
