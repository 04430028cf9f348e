//! Fuzz-style property tests for the crate's hand-rolled parsers: the
//! flat JSON reader, the store line format and the scenario TOML subset.
//!
//! Each parser is fed arbitrary bytes (decoded as lossy UTF-8) and
//! byte-level mutations of valid input.  Every input must give a value or
//! an error; a panic fails the property.

use std::sync::OnceLock;

use dmpb_core::runner::ProxyRun;
use dmpb_core::{DagExecutor, ProxyGenerator};
use dmpb_metrics::json::parse_object;
use proptest::prelude::*;

use crate::dsl::Scenario;
use crate::store::CellResult;

/// Bytes a mutation favours: the punctuation, digits and letters the JSON
/// and TOML grammars turn on.
const SYNTAX: &[u8] = b"{}[]\",:=.-+#eE0123456789tfnux_ \n\\";

/// The scenarios shipped under `examples/scenarios`.
const EXAMPLES: [&str; 4] = [
    include_str!("../../../examples/scenarios/cross_architecture.toml"),
    include_str!("../../../examples/scenarios/decomposition.toml"),
    include_str!("../../../examples/scenarios/paper_tables.toml"),
    include_str!("../../../examples/scenarios/population_sweep.toml"),
];

/// Applies `edits` to `source`'s bytes.  Each edit packs a position, an
/// operation (delete, replace or insert one byte) and a byte, half the
/// time drawn from [`SYNTAX`], into one `u64`.
fn mutate(source: &str, edits: &[u64]) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for &edit in edits {
        let at = (edit >> 16) as usize % (bytes.len() + 1);
        let byte = if edit & 0x1000 == 0 {
            SYNTAX[edit as usize % SYNTAX.len()]
        } else {
            edit as u8
        };
        match (edit >> 8) % 3 {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One real store line: the first default cell, tuned and executed.
fn store_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let cell = Scenario::with_defaults("fuzz").expand()[0].clone();
        let report = ProxyGenerator::new(cell.tuning_cluster()).generate_kind(cell.kind);
        let run = ProxyRun::execute(report, &DagExecutor::new(), cell.elements, cell.seed);
        CellResult::compute(&cell, &run, 1).to_line()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn json_reader_and_store_lines_never_panic(
        noise in prop::collection::vec(0u16..256, 0..128),
        edits in prop::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let bytes: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        let noise = String::from_utf8_lossy(&bytes);
        let mutated = mutate(store_line(), &edits);
        for input in [&*noise, &*mutated] {
            let _ = parse_object(input);
            let _ = CellResult::from_line(input);
        }
    }

    #[test]
    fn scenario_parse_errors_name_a_line_of_the_input(
        which in 0..EXAMPLES.len(),
        edits in prop::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let source = mutate(EXAMPLES[which], &edits);
        if let Err(e) = Scenario::parse(&source) {
            let lines = source.lines().count();
            prop_assert!(
                (1..=lines + 1).contains(&e.line),
                "line {} of {lines}: {e}\n{source}",
                e.line
            );
        }
    }
}
