//! `catalog ls|gc|restore`: inspect, prune and point-in-time-restore
//! the version chains of an existing catalog directory.

use crate::args::{Args, Outcome};
use arrow_matrix::core::catalog::RetainPolicy;
use arrow_matrix::core::Catalog;
use std::error::Error;

/// Opens the catalog at `<dir>`, which must exist: inspecting a
/// catalog never creates one (serving does).
fn open_existing<'a>(args: &Args<'a>) -> Result<(Catalog, &'a str), Box<dyn Error>> {
    let dir = args.str("dir");
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("no catalog directory {dir}").into());
    }
    Ok((Catalog::open(dir)?, dir))
}

pub fn ls(args: &Args) -> Outcome {
    let (catalog, dir) = open_existing(args)?;
    let stats = catalog.stats();
    if stats.recovered_records > 0 {
        println!(
            "recovered {} record(s) from payload headers (manifest was stale or lost)",
            stats.recovered_records
        );
    }
    println!("catalog {dir}: {} version(s)", catalog.len());
    for r in catalog.records() {
        let size = std::fs::metadata(catalog.payload_path(r))
            .map(|m| m.len())
            .unwrap_or(0);
        println!(
            "  {:032x} v{} parent={:032x} created={} b={} seed={} {:>9} B  {}",
            r.fingerprint,
            r.version,
            r.parent,
            r.created_at,
            r.config.arrow_width,
            r.seed,
            size,
            r.payload
        );
    }
    // Chain shape: roots start lineages, everything else extends
    // one (parent edges within the catalog).
    let fps: std::collections::HashSet<u128> =
        catalog.records().iter().map(|r| r.fingerprint).collect();
    let roots = catalog
        .records()
        .iter()
        .filter(|r| r.parent == 0 || !fps.contains(&r.parent))
        .count();
    println!(
        "totals : {} version(s) in {} chain(s), payload bytes = {}",
        catalog.len(),
        roots,
        catalog.payload_bytes()
    );
    println!(
        "io     : puts = {}, loads = {}, load failures = {}, gc-removed = {}, \
         recovered = {}",
        stats.puts, stats.loads, stats.load_failures, stats.removed, stats.recovered_records
    );
    Ok(())
}

pub fn gc(args: &Args) -> Outcome {
    let keep: usize = args.parse("retain-last-k")?;
    let (mut catalog, dir) = open_existing(args)?;
    let report = catalog.gc(&RetainPolicy::last(keep))?;
    println!(
        "gc {dir}: removed {} version(s), kept {} (newest {keep} per lineage), \
         remaining payload bytes = {}",
        report.removed,
        report.kept,
        catalog.payload_bytes()
    );
    Ok(())
}

pub fn restore(args: &Args) -> Outcome {
    let fp = u128::from_str_radix(args.str("fingerprint-hex").trim_start_matches("0x"), 16)
        .map_err(|e| format!("bad fingerprint: {e}"))?;
    let version: u64 = args.parse("version")?;
    let out = args.str("out.amd");
    let (mut catalog, dir) = open_existing(args)?;
    let Some((d, record)) = catalog.restore_head_at(fp, version)? else {
        return Err(format!("no version {version} reachable from {fp:032x} in {dir}").into());
    };
    Catalog::save_file(out, &d, &record.meta())?;
    println!(
        "restored {:032x} v{} (b = {}, created = {}) -> {out}",
        record.fingerprint, record.version, record.config.arrow_width, record.created_at
    );
    Ok(())
}
