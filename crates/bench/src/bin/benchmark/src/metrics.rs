//! The names, units, directions and bounds of every metric, and the
//! workloads. `BENCHMARK.json` at the repository root is printed from
//! these tables (`benchmark manifest`), and a test keeps the two equal.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these; the README's glossary
/// says what each means on each workload. Wall-clock latency and
/// throughput are not here: on this shared host they do not repeat
/// within a quarter between runs of the same code (README, "Measured
/// disagreement"), so they are per-layer diagnostics, and the gate on
/// speed is `floor_ratio`, where the host's pace cancels.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "floor_ratio",
        unit: "x",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "arrow_max_rank_bytes",
        unit: "bytes",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "arrow_sim_iter_us",
        unit: "sim_us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-small",
        why: "4 tenants, n = 1 024, one query per request: per-request hub, engine, comm and exec \
              machinery is about 90 % of the time, so it shows serving-path work and bypasses kernels",
    },
    Workload {
        name: "serve-wide",
        why: "1 tenant, n = 16 384, 64 queries per request: overhead is amortised 64 ways and the \
              floor is most of the request, so it shows kernel and pack/unpack work",
    },
    Workload {
        name: "mutate-refresh",
        why: "updates beside reads with the catalog on: the only place update, trip, refresh, \
              swap, delta-corrected multiply, incremental splice and catalog I/O run",
    },
    Workload {
        name: "dist-repro",
        why: "the paper's experiment at sandbox scale: Arrow, 1.5D, 2D and HP-1D run directly on \
              grid160 and rmat13, with no hub or engine, reporting exact bytes and simulated clock",
    },
];

/// `(name, unit, better)` of every per-layer metric, grouped by the
/// crate that owns the layer. A traced run reports all of them on every
/// workload; a count the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 104] = [
    // the whole request, in wall-clock terms (see END_TO_END)
    ("request_p50_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    // amd-stream
    ("stream.request_ms", "ms", "lower"),
    ("stream.request_tail_ms", "ms", "lower"),
    ("stream.submit_us", "us", "lower"),
    ("stream.flush_ms", "ms", "lower"),
    ("stream.self_ms", "ms", "lower"),
    ("stream.admit_ms", "ms", "lower"),
    ("stream.update_us", "us", "lower"),
    ("stream.trip_update_ms", "ms", "lower"),
    ("stream.corrected_request_ms", "ms", "lower"),
    ("stream.clean_request_ms", "ms", "lower"),
    ("stream.updates_per_s", "1/s", "higher"),
    ("stream.freshness_p50_ms", "ms", "lower"),
    ("stream.freshness_tail_ms", "ms", "lower"),
    ("stream.refresh_drain_ms", "ms", "lower"),
    ("stream.refreshes_completed", "count", "higher"),
    ("stream.incremental_refreshes", "count", "higher"),
    ("stream.fallback_refreshes", "count", "lower"),
    ("stream.reused_vertex_share", "share", "higher"),
    ("stream.suppressed_triggers", "count", "lower"),
    ("stream.sync_fallbacks", "count", "lower"),
    ("stream.worker_restarts", "count", "lower"),
    ("stream.refresh_failures", "count", "lower"),
    // amd-engine
    ("engine.register_ms", "ms", "lower"),
    ("engine.plan_ms", "ms", "lower"),
    ("engine.request_ms", "ms", "lower"),
    ("engine.run_single_ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.set_delta_ms", "ms", "lower"),
    ("engine.refresh_ms", "ms", "lower"),
    ("engine.batch_mean", "count", "higher"),
    ("engine.runs", "count", "lower"),
    ("engine.corrected_runs", "count", "lower"),
    ("engine.mispredictions", "count", "lower"),
    ("engine.decompositions", "count", "lower"),
    ("engine.planner_regret", "x", "lower"),
    // amd-spmm
    ("spmm.arrow.build_ms", "ms", "lower"),
    ("spmm.arrow.iter_ms", "ms", "lower"),
    ("spmm.arrow.predict_us", "us", "lower"),
    ("spmm.arrow.max_rank_bytes", "bytes", "lower"),
    ("spmm.arrow.max_rank_msgs", "count", "lower"),
    ("spmm.arrow.sim_iter_us", "us", "lower"),
    ("spmm.arrow.pred_over_acct", "x", "lower"),
    ("spmm.a15d.build_ms", "ms", "lower"),
    ("spmm.a15d.iter_ms", "ms", "lower"),
    ("spmm.a15d.predict_us", "us", "lower"),
    ("spmm.a15d.max_rank_bytes", "bytes", "lower"),
    ("spmm.a15d.max_rank_msgs", "count", "lower"),
    ("spmm.a15d.sim_iter_us", "us", "lower"),
    ("spmm.a15d.pred_over_acct", "x", "lower"),
    ("spmm.a2d.build_ms", "ms", "lower"),
    ("spmm.a2d.iter_ms", "ms", "lower"),
    ("spmm.a2d.predict_us", "us", "lower"),
    ("spmm.a2d.max_rank_bytes", "bytes", "lower"),
    ("spmm.a2d.max_rank_msgs", "count", "lower"),
    ("spmm.a2d.sim_iter_us", "us", "lower"),
    ("spmm.a2d.pred_over_acct", "x", "lower"),
    ("spmm.hp1d.build_ms", "ms", "lower"),
    ("spmm.hp1d.iter_ms", "ms", "lower"),
    ("spmm.hp1d.predict_us", "us", "lower"),
    ("spmm.hp1d.max_rank_bytes", "bytes", "lower"),
    ("spmm.hp1d.max_rank_msgs", "count", "lower"),
    ("spmm.hp1d.sim_iter_us", "us", "lower"),
    ("spmm.hp1d.pred_over_acct", "x", "lower"),
    ("spmm.bound_iter_ms", "ms", "lower"),
    ("spmm.self_ms", "ms", "lower"),
    ("spmm.delta_build_ms", "ms", "lower"),
    ("spmm.delta_iter_ms", "ms", "lower"),
    // amd-comm
    ("comm.dispatch_us", "us", "lower"),
    ("comm.p2p_us", "us", "lower"),
    ("comm.bcast_us", "us", "lower"),
    ("comm.allreduce_us", "us", "lower"),
    ("comm.compute_imbalance", "x", "lower"),
    // amd-exec
    ("exec.scope_us", "us", "lower"),
    ("exec.compute_jobs", "count", "lower"),
    ("exec.rank_runs", "count", "lower"),
    ("exec.rank_threads_spawned", "count", "lower"),
    ("exec.rank_threads_reused", "count", "higher"),
    // arrow-core
    ("core.decompose_ms", "ms", "lower"),
    ("core.order", "count", "lower"),
    ("core.active_prefix", "share", "lower"),
    ("core.fused_ms", "ms", "lower"),
    ("core.self_ms", "ms", "lower"),
    ("core.compile_f32_ms", "ms", "lower"),
    ("core.fused_f32_ms", "ms", "lower"),
    ("core.incremental_ms", "ms", "lower"),
    ("core.reused_share", "share", "higher"),
    ("core.catalog_open_ms", "ms", "lower"),
    ("core.catalog_put_ms", "ms", "lower"),
    ("core.catalog_get_ms", "ms", "lower"),
    ("core.catalog_bytes", "bytes", "lower"),
    // amd-linarr, amd-partition
    ("linarr.forest_la_ms", "ms", "lower"),
    ("partition.hype_ms", "ms", "lower"),
    // amd-sparse
    ("sparse.spmm_ms", "ms", "lower"),
    ("sparse.spmm_gflops", "GF/s", "higher"),
    ("sparse.spmm_bytes", "bytes", "lower"),
    ("sparse.pack_ms", "ms", "lower"),
    ("sparse.delta_to_csr_ms", "ms", "lower"),
    ("sparse.fingerprint_ms", "ms", "lower"),
    // amd-obs and the harness itself
    ("obs.overhead_share", "share", "lower"),
    ("obs.snapshot_ms", "ms", "lower"),
    ("bench.floor_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
];

/// Counts that the load alone determines: `selfcheck` requires them to
/// be equal between two runs at one seed. The rest depend on when the
/// background refresh worker happens to finish (`stream.*` refresh
/// counts, `engine.corrected_runs`, `engine.decompositions` and
/// `engine.runs` on `mutate-refresh`) or on work stealing
/// (`exec.compute_jobs`, `exec.rank_threads_*`), and are only printed.
pub const LOAD_DETERMINED: [&str; 12] = [
    "exec.rank_runs",
    "engine.batch_mean",
    "stream.sync_fallbacks",
    "stream.worker_restarts",
    "stream.refresh_failures",
    "spmm.arrow.max_rank_bytes",
    "spmm.arrow.max_rank_msgs",
    "spmm.arrow.sim_iter_us",
    "spmm.a15d.max_rank_bytes",
    "spmm.a2d.max_rank_bytes",
    "spmm.hp1d.max_rank_bytes",
    "spmm.hp1d.sim_iter_us",
];

/// The contract file, printed from the tables above.
pub fn manifest(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    ));
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for (_, unit, better) in PER_LAYER {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
            assert!(better == "lower" || better == "higher");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(WORKLOADS.iter().all(|w| w
            .why
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .len()
            <= 200));
        assert!(LOAD_DETERMINED
            .iter()
            .all(|c| PER_LAYER.iter().any(|m| m.0 == *c)));
    }

    #[test]
    fn committed_manifest_is_the_one_the_tables_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        let json = amd_obs::parse_json(&committed).expect("valid JSON");
        let seconds = json.get("run_seconds").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(committed, manifest(seconds as u32));
    }
}
