//! `stream`: interleave a synthetic mutation stream with multiply
//! queries on one or more tenants of a `StreamHub`, verifying every
//! answer against a serial reference of each tenant's mutated matrix.

use crate::args::{Args, Outcome};
use crate::sink::Sink;
use arrow_matrix::obs::Stopwatch;
use arrow_matrix::sparse::{CsrMatrix, DenseMatrix};
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, TenantId, Update};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub fn run(args: &Args) -> Outcome {
    let tenants_flag: usize = args.parse_flag("tenants")?.unwrap_or(1);
    if tenants_flag == 0 {
        return Err("bad --tenants: must be at least 1".into());
    }
    let async_refresh = args.switch("async-refresh");
    let input = args.str("matrix.mtx");
    let a = crate::load_square(args)?;
    let engine = crate::engine_config(args)?;
    let updates: usize = args.parse("updates")?;
    let queries: usize = args.parse("queries")?;
    let budget_frac: f64 = args.parse("budget-frac")?;
    if budget_frac.is_nan() || budget_frac <= 0.0 {
        return Err(format!("bad budget-frac: {budget_frac} (must be > 0)").into());
    }
    let seed: u64 = args.parse("seed")?;

    let n = a.rows();
    if n == 0 && updates > 0 {
        return Err(format!("{input}: an empty matrix takes no updates").into());
    }
    let base_nnz = a.nnz();
    let t0 = Stopwatch::start();
    let mut hub = StreamHub::new(HubConfig {
        engine,
        budget: StalenessBudget::nnz_fraction(budget_frac),
        async_refresh,
        ..HubConfig::default()
    })?;
    let mut sink = Sink::open(args, hub.telemetry())?;
    let ids: Vec<TenantId> = (0..tenants_flag)
        .map(|_| hub.admit(a.clone()))
        .collect::<Result<_, _>>()?;
    let mut truth: Vec<CsrMatrix<f64>> = vec![a.clone(); tenants_flag];
    println!(
        "registered {input} × {tenants_flag} tenant(s) in {:.1} ms (n = {n}, nnz = {base_nnz}, \
         staleness budget = {:.1}% of base nnz, refresh = {})",
        t0.elapsed_seconds() * 1e3,
        budget_frac * 100.0,
        if async_refresh {
            "background"
        } else {
            "synchronous"
        }
    );
    println!("planner : bound {}", hub.chosen_algorithm(ids[0])?);

    // The corrected path is bit-exact vs the rebuilt reference only when
    // every reduction is exact; the synthetic updates and operands are
    // integer-valued, so that holds iff the input matrix is too. Float-
    // weighted matrices verify to rounding instead.
    let exact = a.values().iter().all(|v| v.fract() == 0.0);

    // Deterministic synthetic mutation stream: rotate over inserts,
    // re-weightings, and removals, round-robin across tenants. Mutations
    // draw from a slowly sliding *window* of the vertex space — real
    // update streams are localized, and locality is what lets a refresh
    // re-decompose incrementally instead of falling back cold (watch the
    // `splice :` line). Only the subsystem calls (update / submit /
    // flush) are timed — truth mirroring and reference verification
    // stay outside the clock.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let window = (n / 50).clamp(8.min(n), n);
    let mut max_abs_err = 0.0f64;
    let mut verified = 0usize;
    let expected = queries * tenants_flag;
    let mut stream_secs = 0.0f64;
    for step in 0..updates.max(queries) {
        // Periodic checkpoints: a tailing `stats`/`top` sees the run
        // progress without waiting for the final snapshot.
        if step % 32 == 0 {
            sink.checkpoint()?;
        }
        if step < updates {
            use rand::Rng;
            let tenant_idx = step % tenants_flag;
            let start = ((step as u64 / 64) * (window as u64 / 2) % n as u64) as u32;
            let u = (start + rng.gen_range(0..window)) % n;
            let v = (start + rng.gen_range(0..window)) % n;
            let update = match step % 3 {
                0 => Update::Add {
                    row: u,
                    col: v,
                    delta: 1.0 + (step % 4) as f64,
                },
                kind => Update::Set {
                    row: u,
                    col: v,
                    value: if kind == 1 { (step % 5) as f64 } else { 0.0 },
                },
            };
            for part in update.sym_pair() {
                let (r, c) = part.position();
                arrow_matrix::scenario::mirror(&mut truth[tenant_idx], part)?;
                let t0 = Stopwatch::start();
                hub.update(ids[tenant_idx], part)?;
                stream_secs += t0.elapsed_seconds();
                if r == c {
                    break; // diagonal: the pair addresses one entry
                }
            }
        }
        if step < queries {
            let xm = DenseMatrix::from_fn(n, 1, |r, _| (((step as u32 + 3 * r) % 11) as f64) - 5.0);
            let x = xm.data().to_vec();
            let t0 = Stopwatch::start();
            // One query per tenant per query step; the flush answers the
            // whole hub (same-tenant queries coalesce into shared runs)
            // in submission order, i.e. tenant j answers at index j.
            for &id in &ids {
                hub.submit(id, x.clone(), 2, None)?;
            }
            let responses = hub.flush()?;
            stream_secs += t0.elapsed_seconds();
            for (j, resp) in responses.iter().enumerate() {
                let want = arrow_matrix::spmm::reference::iterated_spmm(&truth[j], &xm, 2)?;
                let got = DenseMatrix::from_vec(n, 1, resp.y.clone())?;
                max_abs_err = max_abs_err.max(got.max_abs_diff(&want)?);
                verified += 1;
            }
        }
    }
    // Settle in-flight background rebuilds before the final report.
    let t0 = Stopwatch::start();
    hub.wait_refreshes()?;
    stream_secs += t0.elapsed_seconds();
    let tolerance = if exact { 0.0 } else { 1e-9 };
    if max_abs_err > tolerance {
        return Err(format!(
            "corrected serving diverged from the rebuilt reference: \
             max |Δ| = {max_abs_err:.3e} (tolerance {tolerance:.0e})"
        )
        .into());
    }
    let (engine, cache, hstats) = (hub.engine_stats(), hub.cache_stats(), hub.stats());
    println!(
        "stream  : {updates} updates + {expected} queries × 2 iters in {:.1} ms ({:.0} events/s)",
        stream_secs * 1e3,
        (updates + expected) as f64 / stream_secs
    );
    println!(
        "serving : runs = {}, corrected runs = {}, verified {verified}/{expected} answers {}",
        engine.runs,
        engine.corrected_runs,
        if exact {
            "exactly".to_string()
        } else {
            format!("within {tolerance:.0e}")
        }
    );
    let versions: Vec<u64> = ids
        .iter()
        .map(|&id| hub.version(id))
        .collect::<Result<_, _>>()?;
    let pending: usize = ids.iter().map(|&id| hub.delta_nnz(id).unwrap_or(0)).sum();
    println!(
        "refresh : refreshes = {} ({} suppressed mid-flight), versions = {versions:?}, \
         pending delta nnz = {pending}",
        hstats.refreshes_completed, hstats.suppressed_triggers
    );
    println!(
        "splice  : incremental = {}, cold fallbacks = {}, reused vertices = {:.1}%",
        hstats.splice.incremental_refreshes,
        hstats.splice.fallback_refreshes,
        hstats.splice.reused_vertex_fraction() * 100.0
    );
    println!(
        "cache   : decompositions = {}, admitted from workers = {}, disk loads = {}",
        cache.decompositions, cache.admitted, cache.disk_loads
    );
    let bound = hub.chosen_algorithm(ids[0])?;
    println!("planner : now bound {bound}");
    sink.finish()
}
