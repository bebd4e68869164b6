//! **F1 — Figure 1**: the input graph and group graph panels.
//!
//! Builds a small system, runs one search, and emits Graphviz DOT for
//! both panels: the input graph `H` with the search `w → … → y`
//! highlighted, and the group graph with red groups marked "B" and
//! dashed all-to-all links — the paper's illustration, regenerated from
//! live data.

use crate::args::Options;
use crate::table::Table;
use rand::Rng;
use tg_core::render::render_figure1;
use tg_core::{build_initial_graph, Params, Population};
use tg_crypto::OracleFamily;
use tg_idspace::Id;
use tg_overlay::GraphKind;
use tg_sim::stream_rng;

/// Run F1: writes `figure1_h.dot` and `figure1_g.dot` under the output
/// directory and returns a summary table.
pub fn run(opts: &Options) -> Table {
    let mut rng = stream_rng(opts.seed, "figure1", 0);
    let pop = Population::uniform(12, 2, &mut rng);
    let params = Params::paper_defaults();
    let gg = build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(opts.seed).h1, &params);

    // A search from a good leader for a random key.
    let from = (0..gg.len()).find(|&i| !gg.leaders.is_bad(i) && !gg.is_red(i)).unwrap_or(0);
    let key = Id(rng.gen());
    let (h_dot, g_dot) = render_figure1(&gg, from, key);

    let mut table = Table::new("figure1", &["panel", "path", "nodes", "red_groups"]);
    let red = (0..gg.len()).filter(|&i| gg.is_red(i)).count();
    // A failed out-dir creation used to be swallowed with `.ok()`,
    // silently skipping both panels; now it is counted so `run_all`
    // exits non-zero when requested artifacts were dropped.
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        crate::artifacts::note_dropped(&format!("figure1 panels under {}", opts.out_dir), &e);
    }
    for (panel, dot) in [("H", &h_dot), ("G", &g_dot)] {
        let path = format!("{}/figure1_{}.dot", opts.out_dir, panel.to_lowercase());
        if let Err(e) = tg_sim::store::write_atomic(std::path::Path::new(&path), dot.as_bytes()) {
            crate::artifacts::note_dropped(&path, &e);
        }
        table.push(vec![panel.to_string(), path, gg.len().to_string(), red.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_writes_dot_files() {
        let dir = std::env::temp_dir().join("tg-figure1-test");
        let opts = Options {
            runtime: Default::default(),
            seed: 21,
            full: false,
            out_dir: dir.to_str().unwrap().to_string(),
            quiet: true,
            only: None,
            list: false,
            transport: Default::default(),
            store: None,
            check_invariants: false,
        };
        let t = run(&opts);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let dot = std::fs::read_to_string(&row[1]).expect("dot file written");
            assert!(dot.starts_with("digraph"));
        }
    }
}
