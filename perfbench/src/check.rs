//! Output checks: committed golden digests and stream comparison.
//!
//! Every op's `ObsRow` stream is compared with a reference that was not
//! timed. At the default seed, `scale` and `sweep` compare against the
//! per-epoch digests committed under `golden/` (recorded with
//! `--record-golden`); at any other seed, and past the recorded units,
//! the reference is an untimed replay.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::workload::DEFAULT_SEED;

const SCALE: &str = include_str!("../golden/scale.txt");
const SWEEP: &str = include_str!("../golden/sweep.txt");

/// The digest of one encoded `ObsRow` line: the first 8 bytes of its
/// SHA-256, in hex.
pub fn digest(line: &str) -> String {
    tg_crypto::sha256(line.as_bytes())[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// One golden file line: the unit index and its per-epoch digests.
pub fn golden_line(index: usize, rows: &[String]) -> String {
    let digests: Vec<String> = rows.iter().map(|r| digest(r)).collect();
    format!("{index} {}", digests.join(","))
}

fn parse(text: &'static str) -> HashMap<usize, Vec<&'static str>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (index, digests) = l.split_once(' ')?;
            Some((index.parse().ok()?, digests.split(',').collect()))
        })
        .collect()
}

/// The committed per-epoch digests of unit `index`, if recorded.
pub fn golden(workload: &str, seed: u64, index: usize) -> Option<&'static [&'static str]> {
    static TABLES: OnceLock<[HashMap<usize, Vec<&'static str>>; 2]> = OnceLock::new();
    if seed != DEFAULT_SEED {
        return None;
    }
    let tables = TABLES.get_or_init(|| [parse(SCALE), parse(SWEEP)]);
    let table = match workload {
        "scale" => &tables[0],
        "sweep" => &tables[1],
        _ => return None,
    };
    table.get(&index).map(Vec::as_slice)
}

/// Per-epoch agreement of `rows` with a reference stream: how many
/// epochs differ or have no reference row.
pub fn mismatches(rows: &[String], reference: &[String]) -> usize {
    (0..rows.len()).filter(|&i| reference.get(i) != Some(&rows[i])).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_and_distinct() {
        assert_eq!(digest("o2;1,1,1"), digest("o2;1,1,1"));
        assert_ne!(digest("o2;1,1,1"), digest("o2;1,1,2"));
        assert_eq!(digest("x").len(), 16);
    }

    #[test]
    fn golden_lines_round_trip() {
        let rows = vec!["a".to_string(), "b".to_string()];
        let line = golden_line(7, &rows);
        let table = parse(Box::leak(line.into_boxed_str()));
        let expect: Vec<String> = rows.iter().map(|r| digest(r)).collect();
        assert_eq!(table[&7], expect);
        assert_eq!(mismatches(&rows, &rows[..1]), 1);
    }

    #[test]
    fn committed_goldens_cover_the_default_seed_only() {
        assert!(golden("scale", DEFAULT_SEED, 0).is_some());
        assert!(golden("sweep", DEFAULT_SEED, 0).is_some());
        assert!(golden("scale", DEFAULT_SEED + 1, 0).is_none());
        assert!(golden("net", DEFAULT_SEED, 0).is_none());
    }
}
