//! Per-layer numbers of a traced run, all taken from outside: the
//! benchmark may not instrument the program, so a layer's self time
//! comes from a **ladder** — the same inputs replayed one layer lower
//! each time — and the rest from timing single public calls.
//!
//! Rungs: 1 `StreamHub` submit/flush → 2 a bare `Engine` with the same
//! config → 3 the algorithm `plan` binds, run directly → 4
//! `ArrowDecomposition::multiply` iterated → 5 `amd_sparse::spmm`
//! iterated → the owned floor. A self time is the difference of two
//! neighbouring rungs' medians.

use crate::common::{self, agree, pack, unpack, Tally, Values};
use crate::dist;
use crate::floor::{self, Mirror, OwnCsr};
use crate::gen::{self, SplitMix64};
use crate::mutate;
use crate::stats;
use crate::trace::Tracer;
use amd_comm::{Group, Machine};
use amd_engine::{plan, Engine, EngineConfig, MatrixId, MultiplyQuery, Plan, PlannerConfig};
use amd_graph::Graph;
use amd_linarr::spanning_forest_la;
use amd_obs::Telemetry;
use amd_sparse::{spmm::spmm, CsrMatrix, DeltaBuilder, DenseMatrix};
use amd_spmm::{DeltaSpmm, DistSpmm};
use amd_stream::{HubConfig, StreamHub, TenantId, Update};
use arrow_core::{
    decompose_snapshot_incremental, la_decompose, ArrowDecomposition, Catalog, DecomposeConfig,
    IncrementalPolicy, RandomForestLa,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// The shape of the requests the ladder replays: the traced workload's
/// own matrix, batch width and iteration count.
pub struct Shape<'a> {
    pub own: &'a OwnCsr,
    pub program: &'a CsrMatrix<f64>,
    pub width: usize,
    pub iters: u32,
    pub seed: u64,
}

/// One object per rung, all standing on the same matrix with the
/// program's default configuration.
struct Rig {
    hub: StreamHub,
    tenant: TenantId,
    quiet_hub: StreamHub,
    quiet_tenant: TenantId,
    engine: Engine,
    matrix: MatrixId,
    decompose_config: DecomposeConfig,
    decompose_seed: u64,
    d: ArrowDecomposition,
    bound: Box<dyn DistSpmm + Send + Sync>,
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn set(values: &mut Values, name: &str, value: f64) {
    values.insert(name.into(), value);
}

/// Median seconds of `reps` timed calls, each a span.
fn repeat<R>(
    reps: usize,
    name: &'static str,
    tracer: &mut Tracer,
    mut call: impl FnMut() -> R,
) -> (R, f64) {
    let mut last = None;
    let mut seconds = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let (r, s) = tracer.time(name, None, 0, &mut call);
        last = Some(r);
        seconds.push(s);
    }
    (
        last.expect("at least one repetition"),
        stats::median(&seconds),
    )
}

impl Rig {
    /// Stands every rung up, timing each public call on the way:
    /// `stream.admit_ms`, `engine.register_ms`, `core.decompose_ms`,
    /// `engine.plan_ms`.
    fn build(shape: &Shape, tracer: &mut Tracer, values: &mut Values) -> Result<Self, String> {
        let err = |what: &str| {
            let what = what.to_string();
            move |e| format!("{what}: {e}")
        };
        let a = shape.program;
        let mut hub = StreamHub::new(HubConfig::default()).map_err(err("hub"))?;
        let to_admit = a.clone();
        let (tenant, admit_s) = tracer.time("stream.admit", None, 0, || hub.admit(to_admit));
        let tenant = tenant.map_err(err("admit"))?;
        set(values, "stream.admit_ms", ms(admit_s));

        let mut quiet_hub = StreamHub::with_telemetry(HubConfig::default(), Telemetry::disabled())
            .map_err(err("quiet hub"))?;
        let quiet_tenant = quiet_hub.admit(a.clone()).map_err(err("quiet admit"))?;

        let config = EngineConfig::default();
        let mut engine = Engine::new(config.clone()).map_err(err("engine"))?;
        let (matrix, register_s) = tracer.time("engine.register", None, 0, || engine.register(a));
        let matrix = matrix.map_err(err("register"))?;
        set(values, "engine.register_ms", ms(register_s));

        // What `register` does inside, one public call at a time.
        let decompose_config = DecomposeConfig::with_width(config.arrow_width);
        let (d, decompose_s) = tracer.time("core.la_decompose", None, 0, || {
            la_decompose(
                a,
                &decompose_config,
                &mut RandomForestLa::new(config.decompose_seed),
            )
        });
        let d = d.map_err(err("la_decompose"))?;
        set(values, "core.decompose_ms", ms(decompose_s));
        set(values, "core.order", d.order() as f64);
        set(values, "core.active_prefix", d.active_prefix_fraction());
        let planner = PlannerConfig {
            cost: config.cost,
            target_ranks: config.target_ranks,
            k_hint: (config.max_batch as u32).clamp(1, 64),
            dtype: config.dtype,
            ..PlannerConfig::default()
        };
        let (planned, plan_s) = tracer.time("engine.plan", None, 0, || plan(a, &d, &planner));
        let Plan { algo: bound, .. } = planned.map_err(err("plan"))?;
        set(values, "engine.plan_ms", ms(plan_s));
        Ok(Self {
            hub,
            tenant,
            quiet_hub,
            quiet_tenant,
            engine,
            matrix,
            decompose_config,
            decompose_seed: config.decompose_seed,
            d,
            bound,
        })
    }

    fn engine_request(
        &mut self,
        columns: Vec<Vec<f64>>,
        iters: u32,
    ) -> Result<Vec<Vec<f64>>, String> {
        for x in columns {
            let query = MultiplyQuery {
                matrix: self.matrix,
                x,
                iters,
                sigma: None,
            };
            self.engine
                .submit(query)
                .map_err(|e| format!("engine submit: {e}"))?;
        }
        let responses = self
            .engine
            .flush()
            .map_err(|e| format!("engine flush: {e}"))?;
        Ok(responses.into_iter().map(|r| r.y).collect())
    }

    /// Climbs down the ladder once per repetition until `deadline` (at
    /// least `min_reps` times). The rungs take turns on the same
    /// columns, so drift of the host falls on all of them alike.
    fn climb(
        &mut self,
        shape: &Shape,
        min_reps: usize,
        deadline: Instant,
        tracer: &mut Tracer,
        tally: &mut Tally,
        values: &mut Values,
    ) {
        let n = shape.own.n;
        let mut columns_rng = SplitMix64::stream(shape.seed, "ladder");
        let mut rungs: [Vec<f64>; 8] = Default::default();
        let mut reps = 0;
        while reps < min_reps || Instant::now() < deadline {
            reps += 1;
            let rid = 1_000_000 + reps as u64;
            let columns: Vec<Vec<f64>> = (0..shape.width)
                .map(|_| gen::column(n, &mut columns_rng))
                .collect();
            let (expected, floor_s) = tracer.time("bench.floor", None, rid, || {
                floor::answer(shape.own, &columns, shape.iters)
            });
            rungs[7].push(floor_s);

            let (r1, s) = common::hub_request(
                &mut self.hub,
                self.tenant,
                columns.clone(),
                shape.iters,
                tracer,
                rid,
            );
            rungs[0].push(s);
            let mut quiet = Tracer::new(false);
            let (r1q, s) = common::hub_request(
                &mut self.quiet_hub,
                self.quiet_tenant,
                columns.clone(),
                shape.iters,
                &mut quiet,
                rid,
            );
            rungs[1].push(s);
            let sent = columns.clone();
            let (r2, s) = tracer.time("engine.request", None, rid, || {
                self.engine_request(sent, shape.iters)
            });
            rungs[2].push(s);
            let (x, s) = tracer.time("sparse.pack", None, rid, || pack(n, &columns));
            rungs[6].push(s);
            let (r3, s) = tracer.time("spmm.bound_run", None, rid, || {
                self.bound.run(&x, shape.iters)
            });
            rungs[3].push(s);
            let (r4, s) = tracer.time("core.fused", None, rid, || {
                let mut y = self.d.multiply(&x)?;
                for _ in 1..shape.iters {
                    y = self.d.multiply(&y)?;
                }
                Ok::<_, amd_sparse::SparseError>(y)
            });
            rungs[4].push(s);
            let (r5, s) = tracer.time("sparse.spmm", None, rid, || {
                let mut y = spmm(shape.program, &x)?;
                for _ in 1..shape.iters {
                    y = spmm(shape.program, &y)?;
                }
                Ok::<_, amd_sparse::SparseError>(y)
            });
            rungs[5].push(s);

            tally.record(r1.is_ok_and(|got| agree(&got, &expected)));
            tally.record(r1q.is_ok_and(|got| agree(&got, &expected)));
            tally.record(r2.is_ok_and(|got| agree(&got, &expected)));
            tally.record(r3.is_ok_and(|run| agree(&unpack(&run.y), &expected)));
            tally.record(r4.is_ok_and(|y| agree(&unpack(&y), &expected)));
            tally.record(r5.is_ok_and(|y| agree(&unpack(&y), &expected)));
        }

        let [r1, r1q, r2, r3, r4, r5, pack_s, floor_s] = rungs.map(|s| stats::median(&s));
        set(values, "ladder.reps", reps as f64);
        set(values, "stream.request_ms", ms(r1));
        set(values, "stream.self_ms", ms(r1 - r2));
        set(values, "obs.overhead_share", (r1 - r1q) / r1q);
        set(values, "engine.request_ms", ms(r2));
        set(values, "engine.self_ms", ms(r2 - r3));
        set(
            values,
            "spmm.bound_iter_ms",
            ms(r3) / f64::from(shape.iters),
        );
        set(values, "spmm.self_ms", ms(r3 - r5));
        set(values, "core.fused_ms", ms(r4));
        set(values, "core.self_ms", ms(r4 - r5));
        set(values, "sparse.spmm_ms", ms(r5));
        set(values, "sparse.pack_ms", ms(pack_s));
        set(values, "bench.floor_ms", ms(floor_s));
        let multiplies = f64::from(shape.iters);
        let flops = 2.0 * shape.own.nnz() as f64 * shape.width as f64 * multiplies;
        set(values, "sparse.spmm_gflops", flops / r5 / 1e9);
        // Computed from array sizes (A once, X read, Y written, per
        // multiply) — not measured traffic.
        let dense = 2 * n as usize * shape.width * 8;
        set(
            values,
            "sparse.spmm_bytes",
            (shape.own.bytes() + dense) as f64 * multiplies,
        );
    }

    /// Single public calls of the engine, the delta path, the
    /// decomposition kernels, the catalog and the small layers, each
    /// timed from outside on the ladder's matrix.
    fn probe(
        &mut self,
        shape: &Shape,
        reps: usize,
        scratch: &Path,
        tracer: &mut Tracer,
        tally: &mut Tally,
        values: &mut Values,
    ) -> Result<(), String> {
        let n = shape.own.n;
        let a = shape.program;
        let mut rng = SplitMix64::stream(shape.seed, "probe");
        let columns: Vec<Vec<f64>> = (0..shape.width).map(|_| gen::column(n, &mut rng)).collect();
        let x = pack(n, &columns);

        let single = columns[0].clone();
        let (_, s) = repeat(reps, "engine.run_single", tracer, || {
            let query = MultiplyQuery {
                matrix: self.matrix,
                x: single.clone(),
                iters: shape.iters,
                sigma: None,
            };
            tally.record(self.engine.run_single(query).is_ok());
        });
        set(values, "engine.run_single_ms", ms(s));

        // A delta confined to a 256-vertex window, as `grid96` gets.
        let span = n.min(256);
        let start = rng.below(n - span + 1);
        let mut delta = DeltaBuilder::new(n, n);
        let mut mirror = Mirror::new(shape.own);
        for (row, col) in gen::update_positions(start, span, 256, &mut rng) {
            tally.record(delta.add(row, col, 1.0).is_ok());
            mirror.add(row, col, 1.0);
        }
        let merged_own = mirror.snapshot();
        let merged = merged_own.to_program();
        let expected = floor::answer(&merged_own, &columns, shape.iters);
        let (delta_csr, s) = repeat(reps, "sparse.delta_to_csr", tracer, || delta.to_csr());
        set(values, "sparse.delta_to_csr_ms", ms(s));

        let (corrected, s) = repeat(reps, "spmm.delta_build", tracer, || {
            DeltaSpmm::new(&*self.bound, &delta_csr)
        });
        set(values, "spmm.delta_build_ms", ms(s));
        let corrected = corrected.map_err(|e| format!("DeltaSpmm: {e}"))?;
        let (run, s) = repeat(reps, "spmm.delta_run", tracer, || {
            corrected.run(&x, shape.iters)
        });
        set(values, "spmm.delta_iter_ms", ms(s) / f64::from(shape.iters));
        tally.record(run.is_ok_and(|run| agree(&unpack(&run.y), &expected)));

        let (_, s) = repeat(reps, "engine.set_delta", tracer, || {
            tally.record(
                self.engine
                    .set_delta(self.matrix, delta_csr.clone())
                    .is_ok(),
            );
        });
        set(values, "engine.set_delta_ms", ms(s));
        let (refreshed, s) = tracer.time("engine.refresh", None, 0, || {
            self.engine.refresh(self.matrix, &merged)
        });
        set(values, "engine.refresh_ms", ms(s));
        self.matrix = refreshed.map_err(|e| format!("engine refresh: {e}"))?;
        let after = self.engine_request(columns.clone(), shape.iters);
        tally.record(after.is_ok_and(|got| agree(&got, &expected)));

        let touched = delta.touched_vertices();
        let policy = IncrementalPolicy::default();
        let (spliced, s) = repeat(reps, "core.incremental", tracer, || {
            decompose_snapshot_incremental(
                &merged,
                &self.decompose_config,
                self.decompose_seed,
                Some(&self.d),
                Some(&touched),
                &policy,
            )
        });
        set(values, "core.incremental_ms", ms(s));
        let (spliced, outcome) = spliced.map_err(|e| format!("incremental: {e}"))?;
        set(values, "core.reused_share", outcome.reused_fraction());
        let y = spliced.multiply(&x).map(|y| unpack(&y));
        let once = floor::answer(&merged_own, &columns, 1);
        tally.record(y.is_ok_and(|got| agree(&got, &once)));

        let (compiled, s) = repeat(reps, "core.compile_f32", tracer, || self.d.compile::<f32>());
        set(values, "core.compile_f32_ms", ms(s));
        let x32 = DenseMatrix::from_fn(n, shape.width as u32, |r, c| {
            columns[c as usize][r as usize] as f32
        });
        let (y32, s) = repeat(reps, "core.fused_f32", tracer, || {
            let mut y = compiled.multiply(&x32)?;
            for _ in 1..shape.iters {
                y = compiled.multiply(&y)?;
            }
            Ok::<_, amd_sparse::SparseError>(y)
        });
        set(values, "core.fused_f32_ms", ms(s));
        tally.record(y32.is_ok());

        let dir = scratch.join("probe-catalog");
        let _ = std::fs::remove_dir_all(&dir);
        let fingerprint = a.fingerprint();
        let mut catalog = Catalog::open(&dir).map_err(|e| format!("catalog open: {e}"))?;
        let (put, s) = tracer.time("core.catalog_put", None, 0, || {
            catalog.put(
                &self.d,
                fingerprint,
                &self.decompose_config,
                self.decompose_seed,
                0,
                0,
            )
        });
        set(values, "core.catalog_put_ms", ms(s));
        tally.record(put.is_ok());
        set(values, "core.catalog_bytes", catalog.payload_bytes() as f64);
        let (got, s) = repeat(reps, "core.catalog_get", tracer, || {
            catalog.get(fingerprint, &self.decompose_config, self.decompose_seed)
        });
        set(values, "core.catalog_get_ms", ms(s));
        tally.record(got.is_ok_and(|found| found.is_some()));
        drop(catalog);
        let (reopened, s) = repeat(reps, "core.catalog_open", tracer, || Catalog::open(&dir));
        set(values, "core.catalog_open_ms", ms(s));
        tally.record(reopened.is_ok_and(|c| c.len() == 1));
        let _ = std::fs::remove_dir_all(&dir);

        let g = Graph::from_matrix_structure(a);
        let (_, s) = repeat(reps, "linarr.forest_la", tracer, || {
            spanning_forest_la(&g, &mut ChaCha8Rng::seed_from_u64(shape.seed))
        });
        set(values, "linarr.forest_la_ms", ms(s));
        let (_, s) = repeat(reps, "sparse.fingerprint", tracer, || a.fingerprint());
        set(values, "sparse.fingerprint_ms", ms(s));
        let (_, s) = repeat(reps, "obs.snapshot", tracer, || {
            self.hub.telemetry().registry.snapshot()
        });
        set(values, "obs.snapshot_ms", ms(s));
        Ok(())
    }
}

/// `amd-comm` and `amd-exec` on their own: an empty 16-rank program, a
/// ring exchange, and the two collectives on 128 KiB.
fn probe_comm_exec(reps: usize, tracer: &mut Tracer, values: &mut Values) {
    const RANKS: u32 = 16;
    const WORDS: usize = 128 * 1024 / 8;
    let machine = Machine::new(RANKS).with_cost(dist::pinned_cost());
    let reps = reps * 10;
    machine.run(|_| ());
    let (_, s) = repeat(reps, "comm.dispatch", tracer, || machine.run(|_| ()));
    set(values, "comm.dispatch_us", s * 1e6);
    let (_, s) = repeat(reps, "comm.p2p", tracer, || {
        machine.run(|ctx| {
            let r = ctx.rank();
            ctx.send((r + 1) % RANKS, 0, vec![f64::from(r); 64]);
            ctx.recv::<Vec<f64>>((r + RANKS - 1) % RANKS, 0).len()
        })
    });
    set(values, "comm.p2p_us", s * 1e6);
    let (_, s) = repeat(reps, "comm.bcast", tracer, || {
        machine.run(|ctx| {
            let root = (ctx.rank() == 0).then(|| vec![1.0f64; WORDS]);
            Group::world(ctx).broadcast(ctx, 0, root).len()
        })
    });
    set(values, "comm.bcast_us", s * 1e6);
    let (_, s) = repeat(reps, "comm.allreduce", tracer, || {
        machine.run(|ctx| {
            Group::world(ctx)
                .allreduce_sum(ctx, vec![1.0f64; WORDS])
                .len()
        })
    });
    set(values, "comm.allreduce_us", s * 1e6);

    let pool = amd_exec::global();
    let jobs = pool.threads();
    let (_, s) = repeat(reps, "exec.scope", tracer, || {
        pool.scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {});
            }
        })
    });
    set(values, "exec.scope_us", s * 1e6);
}

/// The write path on its own: updates until the 2 % budget trips, a
/// request while the delta is pending, the refresh, and a request after
/// it. On `mutate-refresh` the measured window gives the rates; this
/// gives the single-call times on every workload.
fn probe_mutation(
    shape: &Shape,
    reps: usize,
    scratch: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let n = shape.own.n;
    let catalog = scratch.join("probe-hub-catalog");
    let _ = std::fs::remove_dir_all(&catalog);
    let mut hub =
        StreamHub::new(mutate::hub_config(&catalog)).map_err(|e| format!("probe hub: {e}"))?;
    let tenant = hub
        .admit(shape.program.clone())
        .map_err(|e| format!("probe admit: {e}"))?;
    let mut mirror = Mirror::new(shape.own);
    let mut rng = SplitMix64::stream(shape.seed, "mutation-probe");
    let mut request = |hub: &mut StreamHub,
                       mirror: &Mirror,
                       tracer: &mut Tracer,
                       tally: &mut Tally| {
        let mut seconds = Vec::new();
        for _ in 0..reps.max(1) {
            let columns: Vec<Vec<f64>> =
                (0..shape.width).map(|_| gen::column(n, &mut rng)).collect();
            let (answers, s) =
                common::hub_request(hub, tenant, columns.clone(), shape.iters, tracer, 2_000_000);
            seconds.push(s);
            let mut silent = Tracer::new(false);
            let now = mirror.snapshot();
            common::floor_check(&now, &columns, shape.iters, &answers, &mut silent, 0, tally);
        }
        ms(stats::median(&seconds))
    };
    let clean = request(&mut hub, &mirror, tracer, tally);
    set(values, "stream.clean_request_ms", clean);

    // Updates up to half the 2 % budget, a request while that delta is
    // pending and nothing is refreshing, then on until the budget trips
    // (a tenth of nnz bounds the loop whatever the budget does).
    let mut positions = SplitMix64::stream(shape.seed, "mutation-probe/updates");
    let mut update_s = Vec::new();
    let mut tripped_at = None;
    let half_budget = shape.own.nnz() / 100;
    for i in 0..shape.own.nnz() / 10 + 64 {
        if i == half_budget {
            let corrected = request(&mut hub, &mirror, tracer, tally);
            set(values, "stream.corrected_request_ms", corrected);
        }
        let (row, col) = (positions.below(n), positions.below(n));
        let update = Update::Add {
            row,
            col,
            delta: 1.0,
        };
        let t = Instant::now();
        let result = hub.update(tenant, update);
        let s = t.elapsed().as_secs_f64();
        mirror.add(row, col, 1.0);
        tally.record(result.is_ok());
        if result == Ok(true) {
            tripped_at = Some(t);
            set(values, "stream.trip_update_ms", ms(s));
            update_s.push(s);
            break;
        }
        update_s.push(s);
    }
    let (drained, s) = tracer.time("stream.refresh_drain", None, 0, || hub.wait_refreshes());
    let freshness = tripped_at.map_or(0.0, |t| t.elapsed().as_secs_f64());
    tally.record(drained.is_ok() && hub.version(tenant).is_ok_and(|v| v > 0));
    set(values, "stream.update_us", stats::median(&update_s) * 1e6);
    // `mutate-refresh` has these four from its measured window, at a
    // sustained rate; the probe's single pass fills them elsewhere.
    let rate = update_s.len() as f64 / update_s.iter().sum::<f64>();
    for (name, value) in [
        ("stream.updates_per_s", rate),
        ("stream.refresh_drain_ms", ms(s)),
        ("stream.freshness_p50_ms", ms(freshness)),
        ("stream.freshness_tail_ms", ms(freshness)),
    ] {
        values.entry(name.into()).or_insert(value);
    }
    // The refreshed binding must still serve the mutated matrix.
    request(&mut hub, &mirror, tracer, tally);
    drop(hub);
    let _ = std::fs::remove_dir_all(&catalog);
    Ok(())
}

/// Everything a traced run adds: the single-call probes first, then the
/// ladder for as long as the run has left.
pub fn measure(
    shape: &Shape,
    reps: usize,
    deadline: Instant,
    scratch: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let mut rig = Rig::build(shape, tracer, values)?;
    probe_comm_exec(reps, tracer, values);
    probe_mutation(shape, reps, scratch, tracer, tally, values)?;
    rig.climb(shape, reps, deadline, tracer, tally, values);
    // Last: the probe rebinds the rig's engine to a mutated matrix.
    rig.probe(shape, reps, scratch, tracer, tally, values)
}
