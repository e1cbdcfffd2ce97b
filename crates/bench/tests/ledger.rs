//! The ledger CI diffs must be the same bytes on every run, and every
//! claim in it must carry a verdict the schema allows.

use amd_bench::ledger::ledger_json;
use amd_bench::paper::table2_datasets;
use amd_bench::BENCH_SEED;
use amd_obs::{parse_json, JsonValue};

#[test]
fn a_written_experiment_is_byte_identical_and_parses_back() {
    let n = 2_000;
    let first = ledger_json(n, BENCH_SEED, &[table2_datasets(n)]);
    let second = ledger_json(n, BENCH_SEED, &[table2_datasets(n)]);
    assert_eq!(first, second, "two runs wrote different bytes");

    let doc = parse_json(&first).expect("the ledger is JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("amd-repro/1")
    );
    let e2 = doc
        .get("experiments")
        .and_then(|e| e.get("table2_datasets"))
        .expect("E2 is written under its name");
    assert_eq!(e2.get("id").and_then(JsonValue::as_str), Some("E2"));
    let Some(JsonValue::Arr(rows)) = e2.get("rows") else {
        panic!("E2 has rows");
    };
    assert_eq!(rows.len(), 6, "one row per dataset");
    let Some(JsonValue::Arr(claims)) = e2.get("claims") else {
        panic!("E2 has claims");
    };
    assert!(!claims.is_empty());
    for claim in claims {
        let verdict = claim.get("verdict").and_then(JsonValue::as_str);
        assert!(
            matches!(verdict, Some("holds" | "direction_only" | "fails")),
            "{claim:?}"
        );
        for range in ["paper", "measured"] {
            let Some(JsonValue::Arr(ends)) = claim.get(range) else {
                panic!("{range} is a [lo, hi] pair: {claim:?}");
            };
            assert_eq!(ends.len(), 2, "{claim:?}");
        }
    }
}
