//! Golden accounting: the bytes, messages, simulated clock and answer
//! bits of every distributed algorithm on one grid and one R-MAT, pinned
//! to what the machine charged (and the kernels summed) before the rank
//! programs stopped copying their operands. A shared (`Arc`) payload must be charged like an owned one
//! and a forwarded ring chunk like a copied one — a copy removed can
//! never be a message removed.
//!
//! The answer hashes of the Arrow rows and of the R-MAT 2D row were
//! re-pinned once, when `Group::reduce_sum` took the root-last
//! association (`x_root + (c₁ + c₂ + …)`, was `((x_root + c₁) + c₂) + …`)
//! so that the tree and the large-message reduce can sum in one order;
//! the 2D grid row's bits happen not to depend on it. The triples did not
//! move — `b = 32`, `k = 6` is below every tree/large crossover — and
//! 1.5D (ring) and HP-1D (point-to-point) never call that reduce.
//!
//! The answer hash of the R-MAT Arrow row was re-pinned a second time
//! (`12112403874418699866` → `1498314866888925756`) when the ranks of a
//! level began to share the hub tile: a row of `B(0,0) · D(0)` that rank
//! `i` multiplies continues rank `i`'s row-arm sum instead of starting
//! the root's, so on non-integer data it enters `C(0)` in another
//! association. Nothing else moved: the share adds no message (every
//! triple is as it was, the R-MAT row's simulated time included — at
//! `k = 6` it is latency, not flops), the grid's root keeps its whole
//! hub tile (its hash stands), and the other three algorithms have no
//! hub tile.
//!
//! The grid's Arrow volume was re-pinned (`29184` → `24576`) when a
//! level's broadcast and reduce gained the sparse schedule, which moves a
//! rank only the rows of `D(0)` its tiles read and the rows its partial
//! writes: the grid's busiest rank now sits on a level that takes it,
//! for the same messages and the same simulated time. Nothing else
//! moved. The answer hashes stand — the sparse reduce folds in the
//! tree's root-last order with a literal `+ 0.0` for every row a rank
//! does not ship — and 1.5D, 2D and HP-1D pass no supports.
//!
//! Both Arrow triples were re-pinned a third time when the levels below
//! the first gained the direct feed, which both inputs take at `k = 6`:
//! a deeper level's ranks receive the rows they read from the ranks that
//! hold them and return their rows there, and the level root no longer
//! relays `D(0)`. The grid's busiest rank moves `24576` → `10944` bytes in
//! `56` → `44` messages (`41.63` → `36.36` sim-µs); the R-MAT's keeps its
//! bytes and sheds messages, `44` → `36` (`31.82` → `28.87` sim-µs). The
//! answer hashes stand — the holder folds each row's partials in the
//! reduce's root-last order, with the same `+ 0.0` for a member that did
//! not ship the row — and the other three algorithms have no levels.
//!
//! The grid's Arrow triple was re-pinned a fourth time when the gather
//! feed arrived, which the grid takes at `k = 6`: every row of a deeper
//! level is multiplied on the level-0 rank that holds its vertex, from
//! the rows of `X` gathered there, so no block makes a round trip to a
//! deeper level's ranks. Its busiest rank moves `10944` → `6720` bytes in
//! `44` → `32` messages (`36.36` → `16.92` sim-µs). The answer hash
//! stands — each deeper row is summed in its tiles' order from `+ 0.0`,
//! a row of a level's `D(0)` is folded from its members' pieces in the
//! reduce's root-last order, and each row gains the next level's row
//! where the relay would have added it. The R-MAT keeps the direct feed
//! (gathering would not lighten its busiest rank), so its row stands.

use amd_comm::MachineStats;
use amd_graph::generators::{basic, rmat};
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{CsrMatrix, DenseMatrix};
use amd_spmm::{A15dSpmm, A2dSpmm, ArrowSpmm, DistSpmm, Hp1dSpmm};
use arrow_core::{la_decompose, DecomposeConfig, RandomForestLa};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const K: u32 = 6;
const ITERS: u32 = 2;

/// Every rank's bytes, messages, clock and charged compute, the two
/// times as their bits.
fn exact(stats: &MachineStats) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    (stats.ranks.iter())
        .map(|r| {
            let (t, c) = (r.sim_time.to_bits(), r.compute_time.to_bits());
            (r.sent_bytes, r.recv_bytes, r.sent_msgs, r.recv_msgs, t, c)
        })
        .collect()
}

/// `(max_volume, max_messages, sim_time, FNV-1a of the answer's bits)`
/// of a two-iteration run on non-integer data, whose every rank's
/// accounting the dry method gives too, bit for bit.
fn account(alg: &dyn DistSpmm, n: u32) -> (u64, u64, f64, u64) {
    let x = DenseMatrix::from_fn(n, K, |r, c| ((r * 7 + c * 3) % 11) as f64 / 7.0 - 0.6);
    let run = alg.run(&x, ITERS).unwrap();
    let dry = alg.dry_run(K, ITERS);
    assert_eq!(exact(&dry), exact(&run.stats), "{}: dry vs run", alg.name());
    let bits = run.y.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x1000_0000_01b3)
    });
    (
        run.stats.max_volume(),
        run.stats.max_messages(),
        run.stats.sim_time(),
        bits,
    )
}

/// Arrow (b = 32), 1.5D (p = 8, c = 2), 2D (p = 9) and HP-1D (4 parts)
/// on `g`, in that order.
fn accounts(g: &Graph) -> [(u64, u64, f64, u64); 4] {
    let a: CsrMatrix<f64> = g.to_adjacency();
    let n = a.rows();
    let d = la_decompose(
        &a,
        &DecomposeConfig::with_width(32),
        &mut RandomForestLa::new(5),
    )
    .unwrap();
    let part = hype_partition(
        g,
        4,
        &HypeConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(11),
    );
    [
        account(&ArrowSpmm::new(&d).unwrap(), n),
        account(&A15dSpmm::new(&a, 8, 2).unwrap(), n),
        account(&A2dSpmm::new(&a, 9).unwrap(), n),
        account(&Hp1dSpmm::new(&a, &part).unwrap(), n),
    ]
}

#[test]
fn grid_accounting_is_pinned() {
    let got = accounts(&basic::grid_2d(20, 20));
    let want = [
        (6720, 32, 1.6921599999999997e-5, 4113953530296403909),
        (48000, 14, 1.7784e-5, 4480212453878409906),
        (51456, 24, 2.9770399999999992e-5, 3490415359245755352),
        (10176, 12, 8.3328e-6, 12130020257853090277),
    ];
    assert_eq!(got, want);
}

#[test]
fn rmat_accounting_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let got = accounts(&rmat::rmat(9, 4, rmat::RmatParams::graph500(), &mut rng));
    let want = [
        (24576, 36, 2.88688e-5, 1498314866888925756),
        (61440, 14, 2.1705599999999998e-5, 9772577914616040458),
        (65664, 24, 3.27808e-5, 16758117070859729530),
        (34368, 12, 1.56864e-5, 2158169194336856191),
    ];
    assert_eq!(got, want);
}
