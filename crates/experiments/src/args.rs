//! Minimal CLI option parsing shared by the experiment binaries.
//!
//! Supported flags (all optional):
//! `--seed <u64>` (default 42), `--full` (paper-scale parameters),
//! `--out <dir>` (default `results/`), `--quiet` (suppress the table),
//! `--only e10,e11,e12` (run a subset), `--list` (print the
//! experiment registry and exit — both consumed by `run_all`; the
//! single-experiment binaries accept and ignore them so one flag set
//! can be passed around scripts unchanged), `--runtime sync|actor`
//! (which epoch runtime advances the simulated systems —
//! identical results over the actor runtime's default perfect
//! transport; e14 is the faulty-transport sweep), `--transport
//! mem|socket` (which transport carries the actor runtime's protocol
//! messages — the deterministic in-memory network or real loopback TCP
//! sockets; identical results either way, by the shared fault-fate
//! construction), and `--store <dir>`
//! (a content-addressed result store: sweeps replay cells whose
//! observation streams are already stored and publish the ones they
//! simulate, making warm re-runs cheap and long sweeps resumable), and
//! `--check-invariants` (wrap every driver the experiment builds in
//! `tg_verify::CheckedDriver`, evaluating the named paper invariants
//! after every epoch and panicking with a reproduction line on the
//! first violation — observations are unchanged, only checked).

use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::TransportChoice;

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Master seed for the experiment's randomness streams.
    pub seed: u64,
    /// Run the larger, paper-scale configuration.
    pub full: bool,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Suppress stdout tables.
    pub quiet: bool,
    /// Restrict `run_all` to the named experiments (`e1`…`e14`,
    /// `figure1`). `None` runs everything.
    pub only: Option<Vec<String>>,
    /// Print the experiment registry (name + one-line description) and
    /// exit 0 instead of running anything (`run_all --list`).
    pub list: bool,
    /// Which epoch runtime advances them (synchronous in-process vs
    /// actor message passing).
    pub runtime: RuntimeChoice,
    /// Which transport carries the actor runtime's protocol messages
    /// (in-memory vs loopback TCP sockets). Only meaningful with
    /// `--runtime actor`; experiments thread it into their specs, where
    /// the socket/sync combination is rejected at build time.
    pub transport: TransportChoice,
    /// Directory of the content-addressed result store
    /// ([`tg_sim::store`]). When set, sweeps replay any cell whose
    /// observation stream is already stored and publish the streams of
    /// cells they simulate — warm re-runs and resumed sweeps skip the
    /// work already on disk. `None` (the default) runs everything live.
    pub store: Option<String>,
    /// Evaluate the `tg_verify` invariant registry after every epoch of
    /// every driver the experiment builds, panicking with a full
    /// reproduction line (invariant ID + scenario label + epoch) on the
    /// first violation. Checks draw from their own RNG streams, so the
    /// observations — and every CSV and golden — are byte-identical
    /// with or without the flag.
    pub check_invariants: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            full: false,
            out_dir: "results".to_string(),
            quiet: false,
            only: None,
            list: false,
            runtime: RuntimeChoice::default(),
            transport: TransportChoice::default(),
            store: None,
            check_invariants: false,
        }
    }
}

impl Options {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// # Panics
    /// Panics with a usage message on unknown flags or malformed values —
    /// the binaries are developer tools, failing loudly is the feature.
    pub fn parse(args: impl Iterator<Item = String>) -> Options {
        let mut opts = Options::default();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    opts.seed = v.parse().unwrap_or_else(|_| usage("--seed must be a u64"));
                }
                "--full" => opts.full = true,
                "--quiet" => opts.quiet = true,
                "--list" => opts.list = true,
                "--out" => {
                    opts.out_dir = it.next().unwrap_or_else(|| usage("--out needs a value"));
                }
                "--only" => {
                    let v = it.next().unwrap_or_else(|| usage("--only needs a value"));
                    let names: Vec<String> = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if names.is_empty() {
                        usage("--only needs a comma-separated experiment list");
                    }
                    opts.only = Some(names);
                }
                "--runtime" => {
                    let v = it.next().unwrap_or_else(|| usage("--runtime needs a value"));
                    opts.runtime = RuntimeChoice::parse(&v)
                        .unwrap_or_else(|| usage("--runtime must be sync or actor"));
                }
                "--transport" => {
                    let v = it.next().unwrap_or_else(|| usage("--transport needs a value"));
                    opts.transport = TransportChoice::parse(&v)
                        .unwrap_or_else(|| usage("--transport must be mem or socket"));
                }
                "--store" => {
                    opts.store = Some(it.next().unwrap_or_else(|| usage("--store needs a value")));
                }
                "--check-invariants" => opts.check_invariants = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Options {
        Options::parse(std::env::args().skip(1))
    }

    /// Open the result store named by `--store`, if any. A store
    /// directory that cannot be created degrades to a live run with a
    /// warning — caching is an accelerator, never a prerequisite.
    pub fn open_store(&self) -> Option<tg_sim::ResultStore> {
        let dir = self.store.as_ref()?;
        match tg_sim::ResultStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("warning: could not open result store at {dir}: {e}");
                None
            }
        }
    }

    /// Whether `run_all` should run the experiment with this stem name
    /// (`"e10"`, `"figure1"`, …). Everything is selected when no
    /// `--only` filter was given.
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_ref().is_none_or(|names| names.iter().any(|n| n == name))
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <experiment> [--seed N] [--full] [--out DIR] [--quiet] [--only e10,e11,e12] \
         [--list] [--runtime sync|actor] [--transport mem|socket] [--store DIR] \
         [--check-invariants]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Options {
        Options::parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.seed, 42);
        assert!(!o.full);
        assert_eq!(o.out_dir, "results");
        assert!(o.only.is_none());
    }

    #[test]
    fn flags() {
        let o = parse(&["--seed", "7", "--full", "--out", "/tmp/x", "--quiet"]);
        assert_eq!(o.seed, 7);
        assert!(o.full);
        assert_eq!(o.out_dir, "/tmp/x");
        assert!(o.quiet);
    }

    #[test]
    fn list_flag_parses() {
        assert!(parse(&["--list"]).list);
        assert!(!parse(&[]).list);
    }

    #[test]
    fn runtime_flag_parses() {
        assert_eq!(parse(&[]).runtime, RuntimeChoice::Sync);
        assert_eq!(parse(&["--runtime", "actor"]).runtime, RuntimeChoice::Actor);
        assert_eq!(parse(&["--runtime", "sync"]).runtime, RuntimeChoice::Sync);
    }

    #[test]
    fn transport_flag_parses() {
        assert_eq!(parse(&[]).transport, TransportChoice::Mem);
        assert_eq!(parse(&["--transport", "socket"]).transport, TransportChoice::Socket);
        assert_eq!(parse(&["--transport", "mem"]).transport, TransportChoice::Mem);
    }

    #[test]
    fn store_flag_parses_and_opens() {
        assert_eq!(parse(&[]).store, None);
        let dir = std::env::temp_dir()
            .join(format!("tg-args-store-{}", std::process::id()))
            .display()
            .to_string();
        let o = parse(&["--store", &dir]);
        assert_eq!(o.store.as_deref(), Some(dir.as_str()));
        assert!(o.open_store().is_some(), "a creatable directory opens");
        assert!(parse(&[]).open_store().is_none(), "no flag, no store");
    }

    #[test]
    fn check_invariants_flag_parses() {
        assert!(!parse(&[]).check_invariants);
        assert!(parse(&["--check-invariants"]).check_invariants);
    }

    #[test]
    fn only_filters_experiments() {
        let o = parse(&["--only", "e10, e12"]);
        assert!(o.selected("e10"));
        assert!(o.selected("e12"));
        assert!(!o.selected("e11"));
        assert!(!o.selected("figure1"));
        // No filter selects everything.
        assert!(parse(&[]).selected("e11"));
    }
}
