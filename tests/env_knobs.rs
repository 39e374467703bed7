//! The environment-knob catalogue: every `VARDELAY_*` string literal in
//! the non-test code under `crates/` has a row in the README's
//! environment table, and every row names a knob the code reads.

use std::collections::BTreeSet;
use std::path::Path;

/// Knob names in the README table's `| \`VARDELAY_…` rows.
fn readme_knobs(readme: &str) -> BTreeSet<String> {
    readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter(|cell| cell.starts_with("VARDELAY_"))
        .map(|cell| knob_prefix(cell).to_owned())
        .collect()
}

/// The `VARDELAY_[A-Z0-9_]*` name at the start of `s`, without a
/// trailing underscore.
fn knob_prefix(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(s.len());
    s[..end].trim_end_matches('_')
}

/// Knob names that open a string literal (`"VARDELAY_…`) in `source`,
/// ignoring everything from the first `#[cfg(test)]` on.
fn literal_knobs(source: &str, knobs: &mut BTreeSet<String>) {
    let code = source.split("#[cfg(test)]").next().unwrap_or_default();
    for (at, _) in code.match_indices("\"VARDELAY_") {
        knobs.insert(knob_prefix(&code[at + 1..]).to_owned());
    }
}

fn scan(dir: &Path, knobs: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("read crate dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // Integration-test directories are test code.
            if path.file_name().is_some_and(|name| name != "tests") {
                scan(&path, knobs);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            literal_knobs(&std::fs::read_to_string(&path).expect("read source"), knobs);
        }
    }
}

#[test]
fn every_env_knob_is_documented_and_every_documented_knob_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README");
    let documented = readme_knobs(&readme);
    let mut read = BTreeSet::new();
    scan(&root.join("crates"), &mut read);

    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty(),
        "knobs missing from README: {undocumented:?}"
    );
    assert!(unread.is_empty(), "README rows no code reads: {unread:?}");
    assert_eq!(read.len(), 18, "{read:?}");
}
