//! Reference group sets: the bug groups (and candidate counts) of a sweep
//! made apart from the code path a workload times, stored as text in
//! `perfbench/reference/` together with the command that regenerates them.
//!
//! Format, one record per line (`#` lines are comments):
//!
//! ```text
//! tested <n>
//! skipped <n>
//! pruned <n>
//! group <consequence code> <count> <skeleton> <exemplar workload>
//! ```
//!
//! Fields of a `group` line are tab-separated.

use std::collections::BTreeMap;
use std::path::PathBuf;

use b3::harness::GroupTable;

/// `(skeleton, consequence code)` → `(report count, exemplar workload)`.
pub type Groups = BTreeMap<(String, u8), (u64, String)>;

/// Flattens a group table into comparable plain data.
pub fn groups_of(table: &GroupTable) -> Groups {
    table
        .entries()
        .map(|((skeleton, consequence), entry)| {
            (
                (skeleton.clone(), consequence.code()),
                (entry.count, entry.exemplar.workload_name.clone()),
            )
        })
        .collect()
}

/// One recorded reference sweep.
#[derive(Debug, Default, PartialEq)]
pub struct Reference {
    pub tested: u64,
    pub skipped: u64,
    pub pruned: u64,
    pub groups: Groups,
}

/// Where the reference of `workload` lives.
pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/reference")).join(format!("{workload}.txt"))
}

impl Reference {
    /// Renders the reference with a header naming what it is and how to
    /// regenerate it.
    pub fn render(&self, workload: &str, description: &str) -> String {
        let mut text = format!(
            "# {workload}: {description}\n\
             # regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- \
             reference --workload {workload}\n\
             tested {}\nskipped {}\npruned {}\n",
            self.tested, self.skipped, self.pruned
        );
        for ((skeleton, code), (count, exemplar)) in &self.groups {
            text.push_str(&format!("group\t{code}\t{count}\t{skeleton}\t{exemplar}\n"));
        }
        text
    }

    /// Parses [`Reference::render`] output.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut reference = Reference::default();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let number = |value: &str| {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("bad number in {line:?}: {e}"))
            };
            if let Some(fields) = line.strip_prefix("group\t") {
                let fields: Vec<&str> = fields.split('\t').collect();
                let [code, count, skeleton, exemplar] = fields[..] else {
                    return Err(format!("malformed group line {line:?}"));
                };
                let code = u8::try_from(number(code)?)
                    .map_err(|e| format!("bad code in {line:?}: {e}"))?;
                reference.groups.insert(
                    (skeleton.to_string(), code),
                    (number(count)?, exemplar.to_string()),
                );
            } else if let Some((key, value)) = line.split_once(' ') {
                let value = number(value)?;
                match key {
                    "tested" => reference.tested = value,
                    "skipped" => reference.skipped = value,
                    "pruned" => reference.pruned = value,
                    _ => return Err(format!("unknown reference line {line:?}")),
                }
            } else {
                return Err(format!("unknown reference line {line:?}"));
            }
        }
        Ok(reference)
    }

    /// Loads the reference of `workload`.
    pub fn load(workload: &str) -> Result<Reference, String> {
        let path = path(workload);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "read reference {}: {e} (regenerate it with the `reference` command)",
                path.display()
            )
        })?;
        Reference::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_through_its_text_form() {
        let mut reference = Reference {
            tested: 7,
            skipped: 2,
            pruned: 40,
            groups: Groups::new(),
        };
        reference
            .groups
            .insert(("link-rename".into(), 3), (12, "seq-2-0000042".into()));
        reference
            .groups
            .insert(("P|A".into(), 19), (1, "app-txn-0000001".into()));
        let text = reference.render("demo", "a demo space");
        assert!(text.starts_with("# demo: a demo space\n# regenerate: "));
        assert_eq!(Reference::parse(&text), Ok(reference));
        assert!(Reference::parse("group\t1\t2\tonly-three\n").is_err());
        assert!(Reference::parse("tested many\n").is_err());
    }
}
