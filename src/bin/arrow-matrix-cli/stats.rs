//! `stats`: pretty-print a `--metrics-json` snapshot.

use crate::args::{Args, Outcome};
use arrow_matrix::obs::{parse_json, JsonValue};

pub fn run(args: &Args) -> Outcome {
    let path = args.str("metrics.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Some(members) = doc.members() else {
        return Err(format!("{path}: metrics snapshot must be a JSON object").into());
    };
    // Duration histograms record nanoseconds (the `.seconds` naming
    // convention); everything else prints raw.
    for (name, value) in members {
        match value {
            JsonValue::Num(_) => {
                let v = value
                    .as_u64()
                    .map(|u| u.to_string())
                    .unwrap_or_else(|| format!("{}", value.as_f64().unwrap_or(f64::NAN)));
                println!("{name:<44} {v}");
            }
            JsonValue::Obj(_) => {
                let field = |k: &str| value.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                let quantile = |k: &str| match name.ends_with(".seconds") {
                    true => format!("{k} = {:.3} ms", field(k) as f64 / 1e6),
                    false => format!("{k} = {}", field(k)),
                };
                let quantiles = ["p50", "p90", "p99", "p999", "max"].map(quantile);
                println!(
                    "{name:<44} count = {}, {}",
                    field("count"),
                    quantiles.join(", ")
                );
            }
            JsonValue::Str(s) => println!("{name:<44} {s}"),
            other => println!("{name:<44} {other:?}"),
        }
    }
    Ok(())
}
