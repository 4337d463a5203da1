//! The metric catalogue in OBSERVABILITY.md lists exactly the names in
//! `obs::names`: one row per `&str` constant, no row without one.

use std::collections::BTreeSet;

const NAMES_RS: &str = include_str!("../src/names.rs");
const OBSERVABILITY_MD: &str = include_str!("../../../OBSERVABILITY.md");

/// Every `pub const X: &str = "name";` value in `names.rs`.
fn name_constants() -> BTreeSet<&'static str> {
    NAMES_RS
        .lines()
        .filter_map(|l| l.strip_prefix("pub const "))
        .filter_map(|l| l.split_once(": &str = \"")?.1.strip_suffix("\";"))
        .collect()
}

/// The first cell of every row of the table under "## Metric catalogue".
fn catalogue_rows() -> Vec<&'static str> {
    let section = OBSERVABILITY_MD
        .split_once("## Metric catalogue")
        .expect("OBSERVABILITY.md has a metric catalogue")
        .1;
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            let cell = l.split('|').nth(1).expect("row has a first cell").trim();
            cell.strip_prefix('`')
                .and_then(|c| c.strip_suffix('`'))
                .unwrap_or_else(|| panic!("metric cell is not a `code` name: {cell}"))
        })
        .collect()
}

#[test]
fn catalogue_rows_equal_the_name_constants() {
    let constants = name_constants();
    // The parser must see the constants the crate actually exports.
    for name in [
        obs::names::WORKER_PARKS,
        obs::names::FAULT_KILLED,
        obs::names::CAUSAL_DROPPED_EVENTS,
    ] {
        assert!(constants.contains(name), "{name} not parsed from names.rs");
    }
    let rows = catalogue_rows();
    let documented: BTreeSet<&str> = rows.iter().copied().collect();
    assert_eq!(documented.len(), rows.len(), "a metric has two rows");
    let missing: Vec<_> = constants.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&constants).collect();
    assert!(
        missing.is_empty() && unknown.is_empty(),
        "catalogue out of sync with obs::names: no row for {missing:?}; \
         rows without a constant: {unknown:?}"
    );
}
