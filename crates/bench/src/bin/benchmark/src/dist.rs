//! `dist-repro`: the paper's experiment at sandbox scale. No hub,
//! engine or batcher: the four distributed algorithms are built and run
//! directly, and the paper's own quantities (exact per-rank bytes and
//! messages, the simulated clock) are reported next to wall time. With
//! more ranks than cores the wall numbers measure the simulator, not
//! scaling, so no scaling curve is drawn.
//!
//! The same build-and-sweep code gives the `spmm.<algo>.*` layer numbers
//! of the other workloads, run on their own matrix.

use crate::common::{self, agree, pack, unpack, Block, Tally, Values, Window};
use crate::floor::{self, OwnCsr};
use crate::gen::{self, Fnv64, SplitMix64};
use crate::stats;
use crate::trace::Tracer;
use amd_comm::CostModel;
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{CsrMatrix, DenseMatrix};
use amd_spmm::{A15dSpmm, A2dSpmm, ArrowSpmm, DistSpmm, Hp1dSpmm, SpmmRun};
use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Op counts are per window: `sweeps` times, every algorithm runs once
/// on every matrix.
pub struct Spec {
    pub sweeps: usize,
    pub width: usize,
    pub iters: u32,
    pub ranks: u32,
    pub replication: u32,
}

pub const SPEC: Spec = Spec {
    sweeps: 10,
    width: 16,
    iters: 8,
    ranks: 16,
    replication: 4,
};

/// Short names of the four algorithms, in the planner's candidate order.
pub const ALGOS: [&str; 4] = ["arrow", "a15d", "a2d", "hp1d"];
const RUN_SPANS: [&str; 4] = [
    "spmm.arrow.run",
    "spmm.a15d.run",
    "spmm.a2d.run",
    "spmm.hp1d.run",
];

/// The simulated machine's cost model, pinned so the simulated clock
/// does not move when the program's default does.
#[allow(clippy::needless_update)] // a field added later takes its default
pub fn pinned_cost() -> CostModel {
    CostModel {
        alpha: 1e-6,
        beta: 1e-10,
        compute_rate: 5e9,
        ..CostModel::default()
    }
}

/// Seed of the random-forest arrangement and of the HYPE partition.
/// They are parameters of the algorithms, not inputs, so like the cost
/// model they are pinned: the exact byte counts then depend on the
/// matrix alone.
const ALGORITHM_SEED: u64 = 42;

pub struct Inputs {
    pub own: Vec<OwnCsr>,
    pub program: Vec<CsrMatrix<f64>>,
    columns: SplitMix64,
}

impl Inputs {
    /// `grid160` (planar, where the decomposition should win) and
    /// `rmat13` (skewed, where it should not).
    pub fn generate(seed: u64, fingerprint: &mut Fnv64) -> Self {
        let inputs = Self::of(
            vec![
                gen::grid(160),
                gen::rmat(13, 8, &mut SplitMix64::stream(seed, "rmat13")),
            ],
            seed,
        );
        for a in &inputs.own {
            fingerprint.eat_matrix(a);
        }
        let mut preview = inputs.columns.clone();
        fingerprint.eat_f64s(&gen::column(inputs.own[0].n, &mut preview));
        inputs
    }

    /// Operands for the given matrices, from the run's seed.
    pub fn of(own: Vec<OwnCsr>, seed: u64) -> Self {
        let program = own.iter().map(OwnCsr::to_program).collect();
        Self {
            own,
            program,
            columns: SplitMix64::stream(seed, "operands"),
        }
    }

    fn operand(&mut self, matrix: usize, width: usize) -> Vec<Vec<f64>> {
        let n = self.own[matrix].n;
        (0..width)
            .map(|_| gen::column(n, &mut self.columns))
            .collect()
    }
}

/// What the runs of one algorithm on one matrix added up to.
#[derive(Default, Clone)]
struct Measured {
    build_s: f64,
    run_s: f64,
    iters: u64,
    predict_s: Vec<f64>,
    predicted_bytes: f64,
    bytes_per_iter: f64,
    msgs_per_iter: f64,
    sim_iter_s: f64,
    imbalance: f64,
}

struct Built {
    algos: Vec<Box<dyn DistSpmm>>,
    measured: Vec<Measured>,
}

/// Builds the four algorithms on one matrix: Arrow from LA-Decompose at
/// `b = ⌈n / ranks⌉` (17–19 ranks here), 1.5D, 2D, and HP-1D from a HYPE
/// partition.
fn build(
    a: &CsrMatrix<f64>,
    spec: &Spec,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Built, String> {
    let cost = pinned_cost();
    let config = DecomposeConfig::with_width(a.rows().div_ceil(spec.ranks));
    let (d, decompose_s) = tracer.time("core.la_decompose", None, 0, || {
        la_decompose(a, &config, &mut RandomForestLa::new(ALGORITHM_SEED))
    });
    let d = d.map_err(|e| format!("la_decompose: {e}"))?;
    let (part, hype_s) = tracer.time("partition.hype", None, 0, || {
        let g = Graph::from_matrix_structure(a);
        let mut rng = ChaCha8Rng::seed_from_u64(ALGORITHM_SEED);
        hype_partition(&g, spec.ranks, &HypeConfig::default(), &mut rng)
    });
    *values.entry("partition.hype_ms".into()).or_default() += hype_s * 1e3;
    *values.entry("dist.decompose_ms".into()).or_default() += decompose_s * 1e3;

    type Boxed = Result<Box<dyn DistSpmm>, String>;
    fn boxed<A: DistSpmm + 'static>(algo: amd_sparse::SparseResult<A>) -> Boxed {
        algo.map(|a| Box::new(a) as Box<dyn DistSpmm>)
            .map_err(|e| e.to_string())
    }
    let timed: [(Boxed, f64); 4] = [
        tracer.time("spmm.arrow.build", None, 0, || {
            boxed(ArrowSpmm::new(&d).map(|x| x.with_cost(cost)))
        }),
        tracer.time("spmm.a15d.build", None, 0, || {
            boxed(A15dSpmm::new(a, spec.ranks, spec.replication).map(|x| x.with_cost(cost)))
        }),
        tracer.time("spmm.a2d.build", None, 0, || {
            boxed(A2dSpmm::new(a, spec.ranks).map(|x| x.with_cost(cost)))
        }),
        tracer.time("spmm.hp1d.build", None, 0, || {
            boxed(Hp1dSpmm::new(a, &part).map(|x| x.with_cost(cost)))
        }),
    ];
    let mut algos = Vec::new();
    let mut measured = Vec::new();
    for ((algo, build_s), name) in timed.into_iter().zip(ALGOS) {
        algos.push(algo.map_err(|e| format!("{name}: {e}"))?);
        measured.push(Measured {
            build_s,
            ..Measured::default()
        });
    }
    Ok(Built { algos, measured })
}

/// The paper's own quantities for a workload's matrices: Arrow's
/// per-iteration maximum per-rank volume in bytes and its simulated
/// per-iteration makespan in seconds, at `b = ⌈n / ranks⌉` and `width`
/// columns, each summed over the matrices. Both are exact: they follow
/// from the matrices, the pinned seed and the pinned cost model, never
/// from the clock.
pub fn paper_quantities(
    matrices: &[CsrMatrix<f64>],
    width: usize,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let (mut bytes, mut sim_s) = (0.0, 0.0);
    for a in matrices {
        let config = DecomposeConfig::with_width(a.rows().div_ceil(SPEC.ranks));
        let d = la_decompose(a, &config, &mut RandomForestLa::new(ALGORITHM_SEED))
            .map_err(|e| format!("la_decompose: {e}"))?;
        let arrow = ArrowSpmm::new(&d)
            .map_err(|e| format!("arrow: {e}"))?
            .with_cost(pinned_cost());
        // The accounting does not look at the operand's values.
        let x = DenseMatrix::from_fn(a.rows(), width as u32, |_, _| 1.0);
        let run = arrow.run(&x, 1);
        tally.record(run.is_ok());
        let run = run.map_err(|e| format!("arrow run: {e}"))?;
        bytes += run.volume_per_iter();
        sim_s += run.sim_time_per_iter();
    }
    Ok((bytes, sim_s))
}

fn finite(run: &SpmmRun) -> bool {
    run.y.data().iter().all(|v| v.is_finite())
}

/// One window: build every algorithm on every matrix (timed as set-up),
/// verify each against the floor with a short exact run, then `sweeps`
/// sweeps. A sweep — one run of each algorithm on each matrix — is the
/// request of this workload.
pub fn window(
    spec: &Spec,
    sweeps: usize,
    inputs: &mut Inputs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Window, String> {
    let mut w = Window::default();
    let setup = tracer.open("setup", None, 0);
    let mut built = Vec::new();
    for a in &inputs.program {
        built.push(build(a, spec, tracer, &mut w.counts)?);
    }
    w.setup_s = tracer.close(setup);

    // Exactness needs every intermediate below 2^53, which eight
    // iterations on rmat13 exceed; two iterations stay far below it. So
    // each algorithm is verified by a run of its own, outside the timing,
    // and the timed runs are only checked for finite answers.
    for (m, b) in built.iter().enumerate() {
        let columns = inputs.operand(m, spec.width);
        let x = pack(inputs.own[m].n, &columns);
        let expected = floor::answer(&inputs.own[m], &columns, 2);
        for algo in &b.algos {
            let ok = match algo.run(&x, 2) {
                Ok(run) if agree(&unpack(&run.y), &expected) => true,
                Ok(_) => {
                    eprintln!("{} differs from the owned floor", algo.name());
                    false
                }
                Err(e) => {
                    eprintln!("{} failed: {e}", algo.name());
                    false
                }
            };
            tally.record(ok);
        }
    }

    let exec_before = amd_exec::global().stats();
    for sweep in 0..sweeps.div_ceil(20) + sweeps {
        let measured = sweep >= sweeps.div_ceil(20);
        let rid = sweep as u64 + 1;
        let span = tracer.open("sweep", None, rid);
        let mut sweep_s = 0.0;
        let mut floor_s = 0.0;
        for (m, b) in built.iter_mut().enumerate() {
            let columns = inputs.operand(m, spec.width);
            let x = pack(inputs.own[m].n, &columns);
            for ((algo, acc), name) in b.algos.iter().zip(&mut b.measured).zip(RUN_SPANS) {
                let (run, seconds) =
                    tracer.time(name, Some(span.id), rid, || algo.run(&x, spec.iters));
                sweep_s += seconds;
                let ok = run.as_ref().is_ok_and(finite);
                tally.record(ok);
                if let (true, Ok(run)) = (measured, &run) {
                    acc.run_s += seconds;
                    acc.iters += u64::from(run.iters);
                    acc.bytes_per_iter = run.volume_per_iter();
                    acc.msgs_per_iter = run.messages_per_iter();
                    acc.sim_iter_s = run.sim_time_per_iter();
                    acc.imbalance = run.stats.compute_imbalance();
                }
            }
            // The four runs answered the same product; the floor
            // answers it once and counts four times.
            let (_, seconds) = tracer.time("bench.floor", Some(span.id), rid, || {
                std::hint::black_box(floor::answer(&inputs.own[m], &columns, spec.iters))
            });
            floor_s += 4.0 * seconds;
        }
        tracer.close(span);
        if measured {
            w.requests_s.push(sweep_s);
            w.blocks.push(Block {
                queries: (spec.width * 4 * built.len()) as u64,
                client_s: sweep_s,
            });
            w.floor_ratios.push(sweep_s / floor_s);
        }
    }
    common::exec_counts(exec_before, &mut w.counts);

    for b in &mut built {
        for (algo, acc) in b.algos.iter().zip(&mut b.measured) {
            for _ in 0..20 {
                let t = std::time::Instant::now();
                let estimate = std::hint::black_box(algo.predict_volume(spec.width as u32));
                acc.predict_s.push(t.elapsed().as_secs_f64());
                acc.predicted_bytes = estimate.max_rank_bytes;
            }
        }
    }
    layer_values(&built, &mut w.counts);
    Ok(w)
}

/// `spmm.<algo>.*`: times are pooled over the matrices (`Σ wall ÷ Σ
/// iterations`), exact quantities are summed over them.
fn layer_values(built: &[Built], values: &mut Values) {
    let mut fastest_first = f64::INFINITY;
    for (i, algo) in ALGOS.iter().enumerate() {
        let per: Vec<&Measured> = built.iter().map(|b| &b.measured[i]).collect();
        let sum = |f: fn(&Measured) -> f64| per.iter().map(|m| f(m)).sum::<f64>();
        let mut set = |key: &str, value: f64| values.insert(format!("spmm.{algo}.{key}"), value);
        let bytes = sum(|m| m.bytes_per_iter);
        set("build_ms", sum(|m| m.build_s) * 1e3);
        set("iter_ms", sum(|m| m.run_s) / sum(|m| m.iters as f64) * 1e3);
        set(
            "predict_us",
            sum(|m| stats::median(&m.predict_s)) / per.len() as f64 * 1e6,
        );
        set("max_rank_bytes", bytes);
        set("max_rank_msgs", sum(|m| m.msgs_per_iter));
        set("sim_iter_us", sum(|m| m.sim_iter_s) * 1e6);
        set("pred_over_acct", sum(|m| m.predicted_bytes) / bytes);
        let first = &built[0].measured[i];
        fastest_first = fastest_first.min(first.run_s / first.iters as f64);
    }
    // A run waits on its slowest rank; Arrow's is the one the paper's
    // bound is about.
    values.insert(
        "comm.compute_imbalance".into(),
        built
            .iter()
            .map(|b| b.measured[0].imbalance)
            .fold(0.0, f64::max),
    );
    // For `engine.planner_regret`: the fastest of the four on the first
    // matrix, the one the ladder binds an algorithm for.
    values.insert("dist.fastest_iter_ms".into(), fastest_first * 1e3);
}
