//! `top`: render the tail of a `--timeseries` JSONL log as a one-shot
//! terminal dashboard — the latest window's rates and multiply latency,
//! plus cumulative splice/cache efficiency and the busiest tenants.

use crate::args::{Args, Outcome};
use arrow_matrix::obs::{parse_ts_line, TsPoint};
use std::cmp::Reverse;
use std::collections::BTreeMap;

pub fn run(args: &Args) -> Outcome {
    let path = args.str("timeseries.jsonl");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let points: Vec<TsPoint> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_ts_line)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    let Some(last) = points.last() else {
        return Err(format!("{path}: no time-series lines").into());
    };
    println!(
        "arrow-matrix top — sample {} of {}, t = {:.1} s, window = {:.1} s",
        last.seq + 1,
        points.len(),
        last.t_seconds,
        last.window_seconds
    );
    println!(
        "rates   : {:>8.1} queries/s, {:>6.1} runs/s, {:>6.1} updates/s, {:>5.2} refreshes/s",
        last.qps, last.runs_per_s, last.updates_per_s, last.refreshes_per_s
    );
    println!(
        "multiply: {:>8} in window, p50 = {:.3} ms, p99 = {:.3} ms",
        last.multiply_window_count, last.multiply_p50_ms, last.multiply_p99_ms
    );
    let c = |name: &str| last.counter(name);
    let pct = |part: u64, whole: u64| match whole {
        0 => "n/a".to_string(),
        _ => format!("{:.1}%", 100.0 * part as f64 / whole as f64),
    };
    let incremental = c("hub.splice.incremental_refreshes");
    let cold = c("hub.splice.fallback_refreshes");
    let ratio = pct(incremental, incremental + cold);
    println!("splice  : {incremental} incremental / {cold} cold — incremental ratio {ratio}");
    let (hits, misses) = (c("cache.hits"), c("cache.misses"));
    let rate = pct(hits, hits + misses);
    println!("cache   : {hits} hit(s) / {misses} miss(es) — hit rate {rate}");
    // Busiest tenants by cumulative queries + updates.
    let mut tenants: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (name, value) in &last.counters {
        let tenant = name
            .strip_prefix("hub.tenant.")
            .and_then(|t| t.split_once('.'));
        let Some((Ok(id), leaf)) = tenant.map(|(id, leaf)| (id.parse::<u64>(), leaf)) else {
            continue;
        };
        let (queries, updates) = tenants.entry(id).or_default();
        match leaf {
            "queries" => *queries += *value,
            "updates" => *updates += *value,
            _ => {}
        }
    }
    let mut tenants: Vec<(u64, (u64, u64))> = tenants.into_iter().collect();
    tenants.sort_by_key(|&(id, (q, u))| (Reverse(q + u), id));
    if !tenants.is_empty() {
        println!(
            "tenants : top {} of {}",
            tenants.len().min(5),
            tenants.len()
        );
        for &(id, (queries, updates)) in tenants.iter().take(5) {
            println!("  tenant {id:<4} {queries:>8} queries, {updates:>8} updates");
        }
    }
    Ok(())
}
