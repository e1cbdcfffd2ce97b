//! Integration tests pinning the paper's *relative* claims at test scale:
//! who wins, and in which direction the trends move.

use arrow_matrix::core::stats::{direct_tiling_nonzero_blocks, DecompositionStats};
use arrow_matrix::core::{la_decompose, DecomposeConfig, RandomForestLa};
use arrow_matrix::graph::generators::{basic, datasets, rmat};
use arrow_matrix::partition::{hype_partition, HypeConfig};
use arrow_matrix::sparse::{bandwidth, CsrMatrix, DenseMatrix};
use arrow_matrix::spmm::{A15dSpmm, ArrowSpmm, DistSpmm, Hp1dSpmm, SpmmRun};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn mawi(n: u32) -> (arrow_matrix::graph::Graph, CsrMatrix<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let g = datasets::mawi_like(n, &mut rng);
    let a = g.to_adjacency();
    (g, a)
}

/// §1: "On 128 GPUs, our approach reduces the communication volume by 3-5
/// times compared to a 1.5D decomposition." At test scale and `k = 64`
/// (blocks of `b·k·8` = 256 / 128 KiB, where both algorithms' collectives
/// run their large-message schedules) the reduction must exceed 2.5× at
/// `p = 8` and 4× at `p = 16`, and not shrink with `p`.
#[test]
fn arrow_volume_beats_15d_on_mawi() {
    let n = 4096;
    let (_, a) = mawi(n);
    let k = 64;
    let x = DenseMatrix::from_fn(n, k, |r, _| r as f64);
    let mut ratios = Vec::new();
    for (p, floor) in [(8u32, 2.5), (16, 4.0)] {
        let b = n / p;
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(1),
        )
        .unwrap();
        let arrow = ArrowSpmm::new(&d).unwrap();
        let ra = arrow.run(&x, 2).unwrap();
        let c = (p as f64).sqrt() as u32;
        let a15 = arrow_matrix::spmm::A15dSpmm::new(&a, p, c).unwrap();
        let r15 = a15.run(&x, 2).unwrap();
        let ratio = r15.volume_per_iter() / ra.volume_per_iter();
        ratios.push(ratio);
        assert!(
            ratio > floor,
            "p={p}: 1.5D/arrow volume ratio only {ratio:.2}"
        );
    }
    assert!(
        ratios[1] > ratios[0] * 0.9,
        "volume advantage should not shrink with p: {ratios:?}"
    );
}

/// §5 intro: any low-diameter tree has Ω(n / log n) bandwidth, yet its
/// arrow decomposition has small width — the motivating separation.
#[test]
fn tree_bandwidth_vs_arrow_width_separation() {
    let n = 1023u32;
    let tree: CsrMatrix<f64> = basic::complete_ary_tree(2, n).to_adjacency();
    // BFS order (natural here) has bandwidth Θ(n/2) — and NO order can be
    // better than (n-1)/D = (n-1)/(2 log n).
    let natural_bw = bandwidth(&tree);
    assert!(natural_bw as f64 >= (n as f64) / (2.0 * (n as f64).log2()));
    // The decomposition achieves width 32 with small order.
    let d = la_decompose(
        &tree,
        &DecomposeConfig::with_width(32),
        &mut RandomForestLa::new(2),
    )
    .unwrap();
    assert_eq!(d.validate(&tree).unwrap(), 0.0);
    assert!(d.order() <= 8, "order {}", d.order());
}

/// §7.2: the arrow decomposition needs 15–100× fewer nonzero blocks than
/// direct 1.5D tiling; largest effects on star-heavy data. At test scale
/// we require ≥ 3× on MAWI and the ratio to grow as b shrinks.
#[test]
fn block_count_reduction_grows_as_b_shrinks() {
    let (_, a) = mawi(4096);
    let mut ratios = Vec::new();
    for b in [512u32, 128, 32] {
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(3),
        )
        .unwrap();
        let s = DecompositionStats::of(&d);
        let ratio = direct_tiling_nonzero_blocks(&a, b) as f64 / s.total_nonzero_tiles() as f64;
        ratios.push(ratio);
    }
    assert!(ratios[0] > 3.0, "ratios {ratios:?}");
    assert!(
        ratios[2] > ratios[0],
        "reduction should grow as b shrinks: {ratios:?}"
    );
}

/// §7.2: "the second matrix contained ... less than 0.1%-13% of the rows"
/// on the sparse datasets.
#[test]
fn second_level_is_small_on_sparse_datasets() {
    for kind in [
        datasets::DatasetKind::Mawi,
        datasets::DatasetKind::GenBank,
        datasets::DatasetKind::OsmEurope,
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a: CsrMatrix<f64> = kind.generate(4000, &mut rng).to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(200),
            &mut RandomForestLa::new(4),
        )
        .unwrap();
        let s = DecompositionStats::of(&d);
        assert!(
            s.second_level_row_fraction <= 0.13,
            "{}: second level has {:.1}% of rows",
            kind.name(),
            100.0 * s.second_level_row_fraction
        );
    }
}

/// Figure 6: under weak scaling (constant arrow width, `n` and `p`
/// growing together) the paper reports Arrow's per-rank volume growing by
/// 2.4–6.2 %: §6 prices both level collectives as a dense `b × k` block,
/// so a rank moves a constant number of blocks whatever `p` — on the
/// large-message schedules a non-root about four (over binomial trees of
/// whole buffers the level root relayed `2⌈log₂ p⌉`). From 8 to 32 ranks
/// every rank of the run must stay within that constant, four blocks.
///
/// The run need not stay at one level below it, and cannot. Where a rank
/// reads part of `D(0)` the sparse schedule ships only that part, and the
/// level root, which alone holds `D(0)` and the reduced rows, must send
/// every row some rank reads and receive every row some rank writes: the
/// union of the supports, 153 + 166 of 256 rows at `p` = 8 and 230 + 233
/// at `p` = 32 on this series. The run moves 402 rows' worth at `p` = 8,
/// so no schedule keeps `p` = 32 within 1.10 of it.
#[test]
fn weak_scaling_volume_stays_flat() {
    let (b, k) = (256u32, 64u32);
    let block = f64::from(8 * b * k);
    let mut volumes = Vec::new();
    for p in [8u32, 16, 32] {
        let n = b * p;
        let (_, a) = mawi(n);
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(6),
        )
        .unwrap();
        let alg = ArrowSpmm::new(&d).unwrap();
        let x = DenseMatrix::from_fn(n, k, |r, _| (r % 7) as f64);
        volumes.push(alg.run(&x, 1).unwrap().volume_per_iter());
    }
    let blocks: Vec<f64> = volumes.iter().map(|v| v / block).collect();
    assert!(
        blocks.iter().all(|&v| v <= 4.0),
        "per-rank volume above four b × k blocks at p = 8, 16, 32: {blocks:?}"
    );
}

/// Figure 6's claim direction: with constant arrow width, arrow's
/// simulated per-iteration time grows far slower than n.
#[test]
fn weak_scaling_time_grows_sublinearly() {
    let k = 8;
    let b = 256;
    let mut times = Vec::new();
    for n in [2048u32, 8192] {
        let (_, a) = mawi(n);
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(b),
            &mut RandomForestLa::new(6),
        )
        .unwrap();
        let alg = ArrowSpmm::new(&d).unwrap();
        let x = DenseMatrix::from_fn(n, k, |r, _| (r % 7) as f64);
        times.push(alg.run(&x, 2).unwrap().sim_time_per_iter());
    }
    // n grew 4×; arrow time must grow well below 4× (paper: ~flat).
    let growth = times[1] / times[0];
    assert!(
        growth < 2.5,
        "weak-scaling growth {growth:.2} too steep: {times:?}"
    );
}

/// Arrow with `b = n / p` on `a`, and two iterations of it on a
/// `k`-column operand.
fn arrow_run(a: &CsrMatrix<f64>, p: u32, k: u32) -> (ArrowSpmm, SpmmRun) {
    let d = la_decompose(
        a,
        &DecomposeConfig::with_width(a.rows() / p),
        &mut RandomForestLa::new(1),
    )
    .unwrap();
    let arrow = ArrowSpmm::new(&d).unwrap();
    let run = arrow.run(&operand(a.rows(), k), 2).unwrap();
    (arrow, run)
}

fn operand(n: u32, k: u32) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, k, |r, c| ((r * 7 + c * 3) % 11) as f64)
}

/// Figures 5 and 6 are a *time* per iteration, and Algorithm 1 gets it
/// from tile multiplies that overlap across a level's ranks. On a skewed
/// input LA-Decompose puts the hubs first, so the hub–hub tile `B(0,0)`
/// holds a third of the matrix; multiplied by the level's rank 0 alone it
/// was the iteration (R-MAT scale 13: compute imbalance 5.7 and 270
/// sim-µs, a sixth under HP-1D's 318; WebBase-like: 504 sim-µs, behind
/// 1.5D's 469). Shared by rows over the level — every rank holds `D(0)`
/// after the broadcast, and the reduction carries the rows home — the
/// imbalance is 1.5 and Arrow takes 105 and 218 sim-µs.
#[test]
fn arrow_compute_is_balanced_on_skewed_inputs() {
    let (p, k) = (16u32, 16u32);
    let g = rmat::rmat(
        13,
        8,
        rmat::RmatParams::graph500(),
        &mut ChaCha8Rng::seed_from_u64(13),
    );
    let a: CsrMatrix<f64> = g.to_adjacency();
    let (_, arrow) = arrow_run(&a, p, k);
    let imbalance = arrow.stats.compute_imbalance();
    assert!(imbalance <= 1.6, "R-MAT compute imbalance {imbalance:.2}");
    let part = hype_partition(
        &g,
        p,
        &HypeConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(42),
    );
    let hp1d = Hp1dSpmm::new(&a, &part)
        .unwrap()
        .run(&operand(a.rows(), k), 2)
        .unwrap();
    assert!(
        arrow.sim_time_per_iter() < hp1d.sim_time_per_iter(),
        "R-MAT: Arrow {:.1} sim-µs vs HP-1D {:.1}",
        arrow.sim_time_per_iter() * 1e6,
        hp1d.sim_time_per_iter() * 1e6
    );

    let k = 64;
    let a: CsrMatrix<f64> =
        datasets::webbase_like(8192, &mut ChaCha8Rng::seed_from_u64(77)).to_adjacency();
    let (_, arrow) = arrow_run(&a, p, k);
    let a15d = A15dSpmm::new(&a, p, 4)
        .unwrap()
        .run(&operand(a.rows(), k), 2)
        .unwrap();
    assert!(
        arrow.sim_time_per_iter() < a15d.sim_time_per_iter(),
        "WebBase-like: Arrow {:.1} sim-µs vs 1.5D {:.1}",
        arrow.sim_time_per_iter() * 1e6,
        a15d.sim_time_per_iter() * 1e6
    );
}

/// The share is water-filled over what a rank multiplies *before* the
/// reduce, with the root starting one post-reduce tail below the others,
/// so a hub tile that fits under the root's quota stays with the root
/// and the level runs as Algorithm 1 has it: on the grid every level's
/// root keeps its whole tile, and the grid's and the paper's headline
/// input's simulated iterations are pinned to the digit (the grid's was
/// re-pinned, 83.3952 → 78.4848, when its second level took the direct
/// feed, and 78.4848 → 53.3760 when its deeper rows moved onto the
/// level-0 ranks that hold them, the gather feed; neither moves a hub
/// row). The MAWI figure was re-pinned, 54.7448 → 54.2320, when each
/// rank's steps were ordered to fill its waits (`amd_comm::order`),
/// which moves no hub row, byte or message. The obvious
/// rule — balance each rank's *total* entries — does move them: it tops up
/// ranks whose light compute hides a heavy reduce entry, and read
/// 255.37 → 258.14 sim-µs on MAWI-like `n = 16 000` and 127.59 → 128.12
/// on this one. On this MAWI instance the rule does hand the ragged last
/// rank and rank 1 a fifth of the hub's entries; the root still holds
/// most of them and the clock does not notice.
#[test]
fn hub_share_leaves_balanced_inputs_alone() {
    let grid: CsrMatrix<f64> = basic::grid_2d(160, 160).to_adjacency();
    let (plan, run) = arrow_run(&grid, 16, 16);
    for (level, runs) in plan.hub_runs().iter().enumerate() {
        assert_eq!(runs[0].start, 0);
        assert!(
            runs[1..]
                .iter()
                .all(|r| r.is_empty() && r.end == runs[0].end),
            "grid level {level}: the root must keep its hub tile, got {runs:?}"
        );
    }
    assert_eq!(format!("{:.4}", run.sim_time_per_iter() * 1e6), "53.3760");

    let (_, a) = mawi(4096);
    let (plan, run) = arrow_run(&a, 8, 64);
    assert_eq!(format!("{:.4}", run.sim_time_per_iter() * 1e6), "54.2320");
    let runs = &plan.hub_runs()[0];
    assert!(
        runs[0].len() > runs[1..].iter().map(|r| r.len()).sum(),
        "MAWI: the root must hold most of its hub tile, got {runs:?}"
    );
}

/// §6 prices a level's broadcast and reduce as one dense `b × k` block of
/// `D(0)` each, and on the large-message schedules a level-0 non-root
/// moves about four such blocks. A rank multiplies only the rows its
/// tiles touch; on a planar input that is a sliver of `D(0)` (a 160 × 160
/// grid at `b = n / 16`: about 1 % per level-0 non-root), and the sparse
/// schedule ships nothing else. Every level-0 non-root's broadcast plus
/// reduce must stay within a quarter of one block. The figures are the
/// walks of the plans the run took, which are its accounting.
#[test]
fn arrow_ships_only_the_rows_it_multiplies_on_planar_inputs() {
    use arrow_matrix::comm::{Collective, CostModel};
    let (p, k) = (16u32, 16u32);
    let grid: CsrMatrix<f64> = basic::grid_2d(160, 160).to_adjacency();
    let (arrow, run) = arrow_run(&grid, p, k);
    assert_eq!(
        arrow.predict_volume(k).max_rank_bytes,
        run.volume_per_iter()
    );
    let [reads, writes] = arrow.supports()[0];
    let nb = reads.len();
    let d0_rows = arrow.hub_runs()[0][nb - 1].end as usize;
    let block = (8 * d0_rows * k as usize) as f64;
    let (cost, kk) = (CostModel::default(), k as usize);
    let bcast = Collective::broadcast(nb, d0_rows, Some(reads));
    let reduce = Collective::reduce(nb, d0_rows, Some(writes));
    let [bcast, reduce] = [bcast, reduce].map(|c| c.pick(kk, &cost).alone(kk, &cost).ranks);
    let shares: Vec<f64> = (1..nb)
        .map(|i| (bcast[i].volume() + reduce[i].volume()) as f64 / block)
        .collect();
    let worst = shares.iter().fold(0.0f64, |m, &s| m.max(s));
    assert!(
        worst <= 0.25,
        "a level-0 non-root moves {worst:.3} of a b × k block: {shares:?}"
    );
}
