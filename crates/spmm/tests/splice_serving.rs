//! What a spliced decomposition costs to *serve* on its ranks, against a
//! cold decomposition of the same matrix — ROADMAP item 3's table — and
//! the property the table rests on: every decomposition a chained splice
//! produces is one `ArrowSpmm` can distribute, and answers exactly
//! through.
//!
//! Run with `--nocapture` for the table. Bytes, messages and predicted
//! seconds come from `predict_volume` under `CostModel::default()`, so
//! every figure is exact and seed-stable. The default test sweeps inputs
//! small enough to run every round on the simulated machine; the ignored
//! one (`cargo test --release -p amd-spmm --test splice_serving --
//! --ignored --nocapture`) prints the same table at the scale ROADMAP
//! quotes, where a level has too many ranks to run as threads.

use amd_comm::CostModel;
use amd_graph::generators::{basic, datasets, rmat};
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use amd_spmm::{reference, ArrowSpmm, DistSpmm};
use arrow_core::incremental::{decompose_snapshot_incremental, IncrementalPolicy};
use arrow_core::{decompose_snapshot, DecomposeConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 31;
const UPDATES_PER_ROUND: u32 = 4;
/// Width the cost prediction is taken at (the planner's hint).
const K_PREDICT: u32 = 64;

fn rmat_with_isolated(scale: u32) -> CsrMatrix<f64> {
    let a = rmat::rmat(
        scale,
        8,
        rmat::RmatParams::graph500(),
        &mut ChaCha8Rng::seed_from_u64(3),
    )
    .to_adjacency();
    assert!(
        (0..a.rows()).any(|v| a.row_nnz(v) == 0),
        "the R-MAT input must carry isolated vertices"
    );
    a
}

fn mawi(n: u32) -> CsrMatrix<f64> {
    datasets::mawi_like(n, &mut ChaCha8Rng::seed_from_u64(4)).to_adjacency()
}

/// One round of integer updates confined to a window of `window`
/// consecutive vertices: the merged matrix and the touched set.
fn localized_round(
    a: &CsrMatrix<f64>,
    window: u32,
    rng: &mut ChaCha8Rng,
) -> (CsrMatrix<f64>, Vec<u32>) {
    let n = a.rows();
    let start = rng.gen_range(0..=n - window);
    let mut delta = CooMatrix::new(n, n);
    let mut touched = Vec::new();
    for _ in 0..UPDATES_PER_ROUND {
        let u = start + rng.gen_range(0..window);
        let v = start + rng.gen_range(0..window);
        if u != v {
            delta.push_sym(u, v, 1.0).unwrap();
            touched.extend([u, v]);
        }
    }
    touched.sort_unstable();
    touched.dedup();
    (ops::apply_delta(a, &delta.to_csr()).unwrap(), touched)
}

/// The extremes of one sweep's spliced ÷ cold ratios, over the rounds
/// that spliced.
struct Sweep {
    rounds: u32,
    fallbacks: u32,
    bytes: (f64, f64),
    seconds: (f64, f64),
    ranks: f64,
}

/// For every (input, b, locality): `rounds` chained refreshes, each
/// checked for distributability (and, with `run`, for a bit-exact
/// 2-iteration answer) and printed beside a cold decomposition of the
/// same merged matrix.
fn sweep(inputs: &[(&str, CsrMatrix<f64>)], rounds: u32, run: bool) -> Sweep {
    let cost = CostModel::default();
    let policy = IncrementalPolicy::default();
    println!(
        "{:<9} {:>2} {:>5} {:>2} {:<14} {:>5} {:>9} {:>17} {:>7} {:>13}  bytes× secs×",
        "input",
        "b",
        "local",
        "r",
        "refresh",
        "order",
        "ranks",
        "max-rank bytes",
        "msgs",
        "pred µs"
    );
    let mut seen = Sweep {
        rounds: 0,
        fallbacks: 0,
        bytes: (f64::INFINITY, 0.0),
        seconds: (f64::INFINITY, 0.0),
        ranks: 0.0,
    };
    for (name, base) in inputs {
        let n = base.rows();
        for b in [32u32, 64] {
            let cfg = DecomposeConfig::with_width(b);
            for locality in [0.001f64, 0.01, 0.1] {
                let window = ((locality * n as f64).ceil() as u32).max(2);
                let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ (b as u64) << 8 ^ window as u64);
                let mut current = base.clone();
                let mut d = decompose_snapshot(base, &cfg, SEED).unwrap();
                for round in 1..=rounds {
                    let (merged, touched) = localized_round(&current, window, &mut rng);
                    let (next, outcome) = decompose_snapshot_incremental(
                        &merged,
                        &cfg,
                        SEED,
                        Some(&d),
                        Some(&touched),
                        &policy,
                    )
                    .unwrap();
                    let at = format!("{name} b={b} locality={locality} round {round}");
                    // The property: the ranks can route it, and answer
                    // exactly through it.
                    let spliced = ArrowSpmm::new(&next).unwrap_or_else(|e| panic!("{at}: {e}"));
                    if run {
                        let x =
                            DenseMatrix::from_fn(n, 3, |r, c| ((r * 5 + c * 3) % 9) as f64 - 4.0);
                        let got = spliced.run(&x, 2).unwrap();
                        let want = reference::iterated_spmm(&merged, &x, 2).unwrap();
                        assert_eq!(got.y, want, "{at}");
                    }

                    // The table: the same matrix, decomposed cold.
                    let cold_d = decompose_snapshot(&merged, &cfg, SEED).unwrap();
                    let cold = ArrowSpmm::new(&cold_d).unwrap();
                    let (s, c) = (
                        spliced.predict_volume(K_PREDICT),
                        cold.predict_volume(K_PREDICT),
                    );
                    let (s_us, c_us) = (
                        s.predicted_seconds(&cost) * 1e6,
                        c.predicted_seconds(&cost) * 1e6,
                    );
                    let bytes = s.max_rank_bytes / c.max_rank_bytes;
                    println!(
                        "{name:<9} {b:>2} {locality:>5} {round:>2} {:<14} {:>2}/{:<2} {:>4}/{:<4} \
                         {:>8.0}/{:<8.0} {:>3.0}/{:<3.0} {s_us:>6.1}/{c_us:<6.1} {bytes:>6.2} {:>5.2}",
                        outcome
                            .fallback
                            .map_or("splice".to_string(), |why| format!("{why:?}")),
                        next.order(),
                        cold_d.order(),
                        spliced.ranks(),
                        cold.ranks(),
                        s.max_rank_bytes,
                        c.max_rank_bytes,
                        s.max_rank_messages,
                        c.max_rank_messages,
                        s_us / c_us,
                    );
                    seen.rounds += 1;
                    if outcome.incremental {
                        seen.bytes = (seen.bytes.0.min(bytes), seen.bytes.1.max(bytes));
                        let secs = s_us / c_us;
                        seen.seconds = (seen.seconds.0.min(secs), seen.seconds.1.max(secs));
                        seen.ranks = seen.ranks.max(spliced.ranks() as f64 / cold.ranks() as f64);
                    } else {
                        seen.fallbacks += 1;
                    }
                    current = merged;
                    d = next;
                }
            }
        }
    }
    println!(
        "{} rounds, {} cold fallbacks; spliced ÷ cold over the rest: max-rank bytes \
         {:.2}–{:.2}, predicted seconds {:.2}–{:.2}, ranks up to {:.2}",
        seen.rounds,
        seen.fallbacks,
        seen.bytes.0,
        seen.bytes.1,
        seen.seconds.0,
        seen.seconds.1,
        seen.ranks
    );
    assert!(seen.fallbacks < seen.rounds, "no round spliced");
    seen
}

#[test]
fn chained_splices_distribute_and_serve_near_cold_cost() {
    let inputs = [
        ("grid40", basic::grid_2d(40, 40).to_adjacency()),
        ("rmat10", rmat_with_isolated(10)),
        ("mawi1500", mawi(1500)),
    ];
    let seen = sweep(&inputs, 8, true);
    // At n = 8 192 – 25 600 the same sweep stays within 1.15× (the
    // ignored test below; ROADMAP item 3). Here the busiest rank moves a
    // dozen `b × k` blocks, so one more routed hop is already a 1/6
    // step: the worst row of this table is 1.167×.
    assert!(seen.bytes.1 <= 1.25, "worst: {:.3}", seen.bytes.1);
}

#[test]
#[ignore = "the table at the scale ROADMAP quotes: release only, prints 384 rows"]
fn full_scale_table() {
    let osm = datasets::osm_like(20_000, &mut ChaCha8Rng::seed_from_u64(6)).to_adjacency();
    let inputs = [
        ("grid160", basic::grid_2d(160, 160).to_adjacency()),
        ("rmat13", rmat_with_isolated(13)),
        ("mawi20k", mawi(20_000)),
        ("osm20k", osm),
    ];
    let seen = sweep(&inputs, 16, false);
    assert!(seen.bytes.1 <= 1.15, "worst: {:.3}", seen.bytes.1);
}
