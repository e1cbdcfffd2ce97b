//! The rank programs on both sides of the crossovers of `amd_comm`'s row
//! collectives, on non-integer data: a narrow operand keeps every
//! collective on the binomial tree, a wide one sends them through the
//! scatter + all-gather broadcast (all three) and the reduce-scatter +
//! gather reduce (Arrow); on a grid, Arrow's level reduce moves from the
//! tree to the sparse schedule, which ships only the rows a rank's
//! partial writes. A column's answer must not depend on which side its
//! run was on — the serving engine batches on that — and the wide run
//! must still be the product.

use amd_comm::Schedule;
use amd_graph::generators::{basic, datasets};
use amd_sparse::{CsrMatrix, DenseMatrix};
use amd_spmm::reference::iterated_spmm;
use amd_spmm::{A15dSpmm, A2dSpmm, ArrowSpmm, DistSpmm};
use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: u32 = 2048;
const ITERS: u32 = 2;

fn matrix() -> CsrMatrix<f64> {
    datasets::mawi_like(N, &mut ChaCha8Rng::seed_from_u64(77)).to_adjacency()
}

fn column(j: u32) -> impl Fn(u32) -> f64 {
    move |r| ((r * 7 + j * 13) % 31) as f64 / 7.0 - 1.9
}

fn bits(m: &DenseMatrix<f64>, col: u32) -> Vec<u64> {
    (0..m.rows())
        .map(|r| m.row(r)[col as usize].to_bits())
        .collect()
}

/// Runs `alg` on a `wide`-column operand and on `narrow`-column operands
/// holding its columns `0, stride, 2·stride, …` (so column `j` of a
/// narrow run is column `j·stride` of the wide one), and checks that the
/// two sides used different schedules, agree bit for bit, and that the
/// wide run is `A^ITERS · X`.
fn check(alg: &dyn DistSpmm, a: &CsrMatrix<f64>, wide: u32, narrow: u32) {
    let (n, stride) = (a.rows(), wide / narrow);
    let x_wide = DenseMatrix::from_fn(n, wide, |r, c| column(c)(r));
    let x_narrow = DenseMatrix::from_fn(n, narrow, |r, c| column(c * stride)(r));
    let run_wide = alg.run(&x_wide, ITERS).unwrap();
    let run_narrow = alg.run(&x_narrow, ITERS).unwrap();
    assert_ne!(
        run_wide.stats.max_messages(),
        run_narrow.stats.max_messages(),
        "{}: both widths took one schedule; the test has decayed",
        alg.name()
    );
    for j in 0..narrow {
        assert_eq!(
            bits(&run_narrow.y, j),
            bits(&run_wide.y, j * stride),
            "{}: column {j} depends on the operand width",
            alg.name()
        );
    }
    let want = iterated_spmm(a, &x_wide, ITERS).unwrap();
    let scale = want.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let err = run_wide.y.max_abs_diff(&want).unwrap();
    assert!(err <= 1e-12 * scale, "{}: off by {err:e}", alg.name());
    // The prediction follows the run across the crossover.
    for (k, run) in [(wide, &run_wide), (narrow, &run_narrow)] {
        assert_eq!(
            alg.predict_volume(k).max_rank_bytes,
            run.volume_per_iter(),
            "{}: k = {k}",
            alg.name()
        );
    }
}

#[test]
fn arrow_answers_do_not_depend_on_the_schedule() {
    let a = matrix();
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(256),
        &mut RandomForestLa::new(1),
    )
    .unwrap();
    check(&ArrowSpmm::new(&d).unwrap(), &a, 64, 1);
}

/// A 45 × 45 grid at `b = 128`: a level-0 rank writes a few rows of its
/// partial. At 64 columns level 0's reduce takes the sparse schedule, at
/// one column the binomial tree (the sparse reduce would put more
/// messages on its root than the tree's busiest rank handles), so the
/// summation crosses from one schedule to the other.
#[test]
fn arrow_answers_do_not_depend_on_the_sparse_schedule() {
    let a: CsrMatrix<f64> = basic::grid_2d(45, 45).to_adjacency();
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(128),
        &mut RandomForestLa::new(1),
    )
    .unwrap();
    let arrow = ArrowSpmm::new(&d).unwrap();
    let level0 = |k| arrow.schedules(k)[0];
    assert_eq!(level0(64), [Schedule::Tree, Schedule::Sparse]);
    assert_eq!(level0(1), [Schedule::Tree, Schedule::Tree]);
    check(&arrow, &a, 64, 1);
}

#[test]
fn a15d_answers_do_not_depend_on_the_schedule() {
    let a = matrix();
    check(&A15dSpmm::new(&a, 16, 4).unwrap(), &a, 64, 1);
}

/// 2D cuts the operand's columns over its grid columns, so a column's
/// phase — and with it the root of its reduction — moves with the
/// width. Comparing column `j` of a four-column run (one column per
/// phase) with column `64·j` of a 256-column run keeps the phase fixed
/// and changes only the tile size.
#[test]
fn a2d_answers_do_not_depend_on_the_schedule() {
    let a = matrix();
    check(&A2dSpmm::new(&a, 16).unwrap(), &a, 256, 4);
}
