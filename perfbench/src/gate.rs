//! Reproducibility gate: every run of a seed must reproduce the exact
//! counts and the plan digest of the first run of that seed.
//!
//! The first run of a `(workload, seed, seconds)` triple over the same
//! sources (see `metrics::source_digest`) records its counts
//! under the state directory; every later run compares against them and
//! fails on any difference, so no number is ever reported from different
//! work. Counts that only traced runs produce are added the first time a
//! traced run sees them.

use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;

pub fn check(
    state: &Path,
    args: &Args,
    digest: &str,
    counts: &[(&'static str, u64)],
) -> Result<(), String> {
    let dir = state.join("reference");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path =
        dir.join(format!("{digest}-{}-seed{}-s{}.txt", args.workload, args.seed, args.seconds));

    let mut reference: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match (it.next(), it.next().and_then(|v| v.parse().ok())) {
                (Some(k), Some(v)) => {
                    reference.insert(k.to_string(), v);
                }
                _ => {
                    return Err(format!("unreadable reference line {line:?} in {}", path.display()))
                }
            }
        }
    }

    let mut mismatches = Vec::new();
    let mut grew = false;
    for &(name, value) in counts {
        match reference.get(name) {
            Some(&want) if want != value => {
                mismatches.push(format!("{name}: {value} (first run of this seed: {want})"))
            }
            Some(_) => {}
            None => {
                reference.insert(name.to_string(), value);
                grew = true;
            }
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "the run did different work than the first run of its seed: {}",
            mismatches.join("; ")
        ));
    }
    if grew {
        let text: String = reference.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .and_then(|_| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
