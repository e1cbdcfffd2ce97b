//! Golden decompositions: an FNV-1a over every level's arrangement,
//! active prefix and exact CSR arrays (column structure and value bits),
//! pinned for eight generated inputs × two arrow widths × pruning on and
//! off × the four arrangement strategies, plus the same hash over
//! spliced incremental refreshes, the tiled arrow view of every level and
//! HP-1D's plan. The constants were recorded from the implementation
//! that went through `HashMap`, `CooMatrix` and nested `Vec`s; whatever
//! builds decompositions now must reproduce them bit for bit, because
//! catalog fingerprints, spliced lineages and the paper's communication
//! volumes all hang off these arrays. **Never edit the constants** — a
//! mismatch means the decomposition moved.

use amd_graph::generators::{basic, datasets, random, rmat};
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use amd_spmm::{DistSpmm, Hp1dSpmm};
use arrow_core::incremental::{
    affected_region, decompose_snapshot_incremental, IncrementalPolicy, RefreshOutcome,
};
use arrow_core::strategy::{
    ArrangementStrategy, IdentityLa, RandomForestLa, RcmLa, SeparatorLaStrategy,
};
use arrow_core::{decompose_snapshot, la_decompose, ArrowDecomposition, DecomposeConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

const WIDTHS: [u32; 2] = [8, 32];

/// 64-bit FNV-1a, one byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }

    fn csr(&mut self, m: &CsrMatrix<f64>) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.u64(m.indptr().len() as u64);
        for &p in m.indptr() {
            self.u64(p as u64);
        }
        self.u32s(m.indices());
        for v in m.values() {
            self.u64(v.to_bits());
        }
    }

    fn decomposition(&mut self, d: &ArrowDecomposition) {
        self.u64(d.n() as u64);
        self.u64(d.b() as u64);
        self.u64(d.order() as u64);
        for level in d.levels() {
            self.u32s(level.perm.order());
            self.u64(level.active_n as u64);
            self.csr(&level.matrix);
        }
    }

    /// The three tile families of every level's arrow view.
    fn tiles(&mut self, d: &ArrowDecomposition) {
        for level in d.levels() {
            let arrow = level.to_arrow(d.b()).expect("levels are arrow-shaped");
            let nb = arrow.block_count();
            self.u64(nb as u64);
            for j in 0..nb {
                self.csr(arrow.row_tile(j));
            }
            for i in 1..nb {
                self.csr(arrow.col_tile(i));
                self.csr(arrow.diag_tile(i));
            }
        }
    }

    fn outcome(&mut self, o: &RefreshOutcome) {
        self.u64(o.incremental as u64);
        self.u64(o.affected_vertices as u64);
        self.u64(o.total_vertices as u64);
        self.u64(o.order as u64);
    }
}

/// A deterministic stand-in for an RNG in the hand-built inputs.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Non-integer weights on a graph's adjacency pattern, different in the
/// two directions of an edge.
fn weighted(g: &Graph) -> CsrMatrix<f64> {
    let n = g.n();
    let mut coo = CooMatrix::new(n, n);
    for u in 0..n {
        for &v in g.neighbors(u) {
            let w = (mix((u as u64) << 32 | v as u64) % 1000) as f64 / 37.0 - 9.5;
            coo.push(u, v, w).unwrap();
        }
    }
    coo.to_csr()
}

/// A non-symmetric pattern: most entries stored in one direction only,
/// a quarter mirrored with a different value, a few on the diagonal.
fn one_sided(n: u32) -> CsrMatrix<f64> {
    let mut seen = HashSet::new();
    let mut coo = CooMatrix::new(n, n);
    for i in 0..3 * n as u64 {
        let h = mix(i);
        let (r, c) = ((h % n as u64) as u32, ((h >> 20) % n as u64) as u32);
        if seen.insert((r, c)) {
            coo.push(r, c, (h >> 40) as f64 / 4096.0 - 1.0).unwrap();
        }
        if h & 3 == 0 && seen.insert((c, r)) {
            coo.push(c, r, (h >> 44) as f64 / 512.0 + 0.25).unwrap();
        }
    }
    coo.to_csr()
}

/// Explicit diagonal entries only, at a subset of the rows.
fn diagonal_only(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in (0..n).filter(|v| v % 3 != 1) {
        coo.push(v, v, v as f64 * 0.5 - 7.0).unwrap();
    }
    coo.to_csr()
}

/// Several components separated by isolated vertices: a path, a cycle,
/// a small clique, a far-apart pair, and diagonal entries on some of
/// the vertices no edge touches.
fn with_isolated(n: u32) -> CsrMatrix<f64> {
    assert!(n >= 400);
    let mut coo = CooMatrix::new(n, n);
    for v in 10..110 {
        coo.push_sym(v, v + 1, 1.0 + v as f64).unwrap();
    }
    for v in 200..260 {
        coo.push_sym(v, 200 + (v - 200 + 1) % 60, 0.5).unwrap();
    }
    for u in 300..306 {
        for v in (u + 1)..306 {
            coo.push_sym(u, v, -2.0).unwrap();
        }
    }
    coo.push_sym(3, n - 2, 4.25).unwrap();
    for v in [0, 150, 151, n - 1] {
        coo.push(v, v, 9.0).unwrap();
    }
    coo.to_csr()
}

fn inputs() -> Vec<(&'static str, CsrMatrix<f64>)> {
    vec![
        ("grid", weighted(&basic::grid_2d(24, 20))),
        (
            "rmat",
            rmat::rmat(
                9,
                4,
                rmat::RmatParams::graph500(),
                &mut ChaCha8Rng::seed_from_u64(13),
            )
            .to_adjacency(),
        ),
        (
            "mawi",
            datasets::mawi_like(600, &mut ChaCha8Rng::seed_from_u64(4)).to_adjacency(),
        ),
        (
            "tree",
            weighted(&random::random_tree(500, &mut ChaCha8Rng::seed_from_u64(5))),
        ),
        ("one-sided", one_sided(300)),
        ("diagonal", diagonal_only(64)),
        ("isolated", with_isolated(420)),
        ("empty", CsrMatrix::zeros(50, 50)),
    ]
}

fn strategies() -> Vec<Box<dyn ArrangementStrategy>> {
    vec![
        Box::new(RandomForestLa::new(17)),
        Box::new(SeparatorLaStrategy),
        Box::new(RcmLa),
        Box::new(IdentityLa),
    ]
}

/// One hash per (width, prune, strategy), in that nesting order. A
/// failed decomposition (the `max_levels` cap under an arrangement that
/// does not shorten edges) hashes its message, which pins the diagnostic.
fn decomposition_hashes(a: &CsrMatrix<f64>) -> Vec<u64> {
    let mut out = Vec::new();
    for &width in &WIDTHS {
        for prune in [true, false] {
            for mut strategy in strategies() {
                let cfg = DecomposeConfig {
                    arrow_width: width,
                    prune,
                    max_levels: 64,
                };
                let mut h = Fnv::new();
                match la_decompose(a, &cfg, strategy.as_mut()) {
                    Ok(d) => {
                        assert_eq!(d.validate(a).unwrap(), 0.0, "{}", strategy.name());
                        h.decomposition(&d);
                    }
                    Err(e) => h.bytes(e.to_string().as_bytes()),
                }
                out.push(h.0);
            }
        }
    }
    out
}

#[test]
fn decompositions_are_pinned() {
    let want: [(&str, [u64; 16]); 8] = GOLDEN_DECOMPOSITIONS;
    let got: Vec<(&str, Vec<u64>)> = inputs()
        .iter()
        .map(|(name, a)| (*name, decomposition_hashes(a)))
        .collect();
    for ((name, got), (want_name, want)) in got.iter().zip(want) {
        assert_eq!(*name, want_name);
        assert_eq!(got[..], want[..], "decompositions of `{name}` moved");
    }
}

#[test]
fn arrow_tiles_are_pinned() {
    let mut got = Vec::new();
    for (_, a) in inputs() {
        let mut h = Fnv::new();
        for &width in &WIDTHS {
            let d = decompose_snapshot(&a, &DecomposeConfig::with_width(width), 23).unwrap();
            h.tiles(&d);
        }
        got.push(h.0);
    }
    assert_eq!(got, GOLDEN_TILES);
}

/// The `max_levels` diagnostic names the edges left and every completed
/// level's active prefix; both come out of the peel, so they are pinned
/// with it.
#[test]
fn max_levels_diagnostic_is_pinned() {
    let message = |a: &CsrMatrix<f64>, prune: bool, strategy: &mut dyn ArrangementStrategy| {
        let cfg = DecomposeConfig {
            arrow_width: 8,
            prune,
            max_levels: 3,
        };
        la_decompose(a, &cfg, strategy).unwrap_err().to_string()
    };
    let all = inputs();
    let got = [
        message(&all[0].1, false, &mut IdentityLa),
        message(&all[1].1, true, &mut RcmLa),
    ];
    assert_eq!(got, GOLDEN_DIAGNOSTICS);
}

/// `base` plus symmetric additive updates; returns the merged matrix and
/// the touched vertices.
fn updated(base: &CsrMatrix<f64>, updates: &[(u32, u32, f64)]) -> (CsrMatrix<f64>, Vec<u32>) {
    let n = base.rows();
    let mut coo = CooMatrix::new(n, n);
    let mut touched = Vec::new();
    for &(r, c, v) in updates {
        coo.push_sym(r, c, v).unwrap();
        touched.extend([r, c]);
    }
    touched.sort_unstable();
    touched.dedup();
    (ops::apply_delta(base, &coo.to_csr()).unwrap(), touched)
}

/// Region mask, spliced decomposition, its tiles and the outcome of one
/// refresh, then of a second refresh chained on the first.
fn splice_hash(base: &CsrMatrix<f64>, width: u32, rounds: [&[(u32, u32, f64)]; 2]) -> u64 {
    let cfg = DecomposeConfig::with_width(width);
    let policy = IncrementalPolicy::default();
    let mut h = Fnv::new();
    let mut current = base.clone();
    let mut d = decompose_snapshot(base, &cfg, 31).unwrap();
    for updates in rounds {
        let (merged, touched) = updated(&current, updates);
        let region = affected_region(&d, &touched).unwrap();
        h.bytes(&region.iter().map(|&m| m as u8).collect::<Vec<_>>());
        let (next, outcome) =
            decompose_snapshot_incremental(&merged, &cfg, 31, Some(&d), Some(&touched), &policy)
                .unwrap();
        assert_eq!(next.validate(&merged).unwrap(), 0.0);
        h.outcome(&outcome);
        h.decomposition(&next);
        h.tiles(&next);
        current = merged;
        d = next;
    }
    h.0
}

#[test]
fn spliced_refreshes_are_pinned() {
    // A ring with second chords (the perf gate's shape, smaller): chord
    // inserts, a re-weight and a deletion inside one window, then a
    // second window further along.
    let ring = {
        let n = 2000u32;
        let mut coo = CooMatrix::<f64>::new(n, n);
        for v in 0..n {
            coo.push_sym(v, (v + 1) % n, 1.0).unwrap();
            coo.push_sym(v, (v + 4) % n, 1.0).unwrap();
        }
        coo.to_csr()
    };
    let first: Vec<(u32, u32, f64)> = (0..8)
        .map(|i| (500 + 3 * i, 502 + 3 * i, 1.5))
        .chain([(510, 511, 0.25), (520, 521, -1.0)])
        .collect();
    let second = [(1200, 1203, 2.0), (1204, 1210, 2.0), (505, 509, -0.5)];
    let grid = weighted(&basic::grid_2d(24, 20));
    let mawi: CsrMatrix<f64> =
        datasets::mawi_like(600, &mut ChaCha8Rng::seed_from_u64(4)).to_adjacency();
    let got = [
        splice_hash(&ring, 16, [&first, &second]),
        // A grid is well connected: regions are large, some rounds fall
        // back to a cold rebuild — pinned either way.
        splice_hash(&grid, 8, [&[(0, 30, 1.0)], &[(200, 470, 3.0), (5, 6, 1.0)]]),
        // Touching a leaf of the giant star and a chain vertex.
        splice_hash(&mawi, 32, [&[(17, 590, 1.0)], &[(0, 17, 2.0)]]),
        // A diagonal-only update on a matrix with isolated vertices.
        splice_hash(
            &with_isolated(420),
            8,
            [&[(150, 150, 1.0)], &[(150, 152, 1.0), (50, 51, -51.0)]],
        ),
    ];
    assert_eq!(got, GOLDEN_SPLICES);
}

#[test]
fn hp1d_plans_are_pinned() {
    let mut got = Vec::new();
    for (name, a) in inputs() {
        let n = a.rows();
        let g = Graph::from_matrix_structure(&a);
        let x = DenseMatrix::from_fn(n, 3, |r, c| ((r * 5 + c * 3) % 13) as f64 / 8.0 - 0.7);
        let mut h = Fnv::new();
        for parts in [3u32, 7] {
            let part = hype_partition(
                &g,
                parts,
                &HypeConfig::default(),
                &mut ChaCha8Rng::seed_from_u64(11),
            );
            let hp = Hp1dSpmm::new(&a, &part).unwrap();
            let est = hp.predict_volume(3);
            h.u64(est.max_rank_bytes.to_bits());
            h.u64(est.max_rank_messages.to_bits());
            h.u64(est.max_rank_flops.to_bits());
            h.u64(hp.max_external_rows() as u64);
            let run = hp.run(&x, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
            h.u64(run.stats.max_volume());
            for v in run.y.data() {
                h.u64(v.to_bits());
            }
        }
        got.push(h.0);
    }
    assert_eq!(got, GOLDEN_HP1D);
}

const GOLDEN_DECOMPOSITIONS: [(&str, [u64; 16]); 8] = [
    (
        "grid",
        [
            14295864912936070277,
            11819035299703548567,
            18044716891981077368,
            2050668417714151406,
            3804618592738562241,
            17147790506035403281,
            11427939943262254844,
            16859373762749602166,
            7256591027410498615,
            11957199006927442663,
            13088259621954401779,
            13700071890042555764,
            17581352018216655235,
            2970388627212412342,
            11721269524871582961,
            5855629523443519450,
        ],
    ),
    (
        "rmat",
        [
            2683604483200199297,
            15137021846330618359,
            11443565892421342275,
            11526475797441465415,
            15691889726438669038,
            16271990493935196152,
            15160885843435330005,
            9192043724129063765,
            6262830185342025802,
            17085542511454070622,
            3992043702264244723,
            5353388971211586054,
            9840052198527989217,
            5489220258765893297,
            17604420508440897097,
            1635897931839277780,
        ],
    ),
    (
        "mawi",
        [
            14624843981356747572,
            17389675996329645996,
            10862672480935468442,
            8556958391941367455,
            10077691186701661612,
            8792181032445169184,
            2687357653372518599,
            12614972233910757808,
            10862688797884850436,
            10862688797884850436,
            11620942544857584895,
            4522454409739885525,
            5480629912078361677,
            14128165806942644127,
            7303826504011214181,
            9790974509643832227,
        ],
    ),
    (
        "tree",
        [
            1495573435399112020,
            13032549204031191155,
            13575305392506742558,
            7479323583231749549,
            18098315771047650757,
            16298626559012929214,
            5919900597451426201,
            11416230495339610546,
            10892774258786014554,
            5572745684987617390,
            4557925245683103289,
            2444706945410445629,
            12258104360268436796,
            12169304852107272929,
            15509276145052102431,
            12903565262809322981,
        ],
    ),
    (
        "one-sided",
        [
            182121611044249814,
            16334824717429751851,
            17603306155455454483,
            5325336631021050211,
            7804292525751607837,
            15615082751594820768,
            1570674391960155609,
            7142465913587028339,
            3054844373622189087,
            13981122722946051357,
            16112754216158872787,
            8156574036278319601,
            15899670130157754743,
            5334069698180057067,
            4791067017093457611,
            3310279832416625899,
        ],
    ),
    (
        "diagonal",
        [
            1187590798735151242,
            1187590798735151242,
            1187590798735151242,
            1187590798735151242,
            1187590798735151242,
            1187590798735151242,
            1187590798735151242,
            1187590798735151242,
            1786737814228730722,
            1786737814228730722,
            1786737814228730722,
            1786737814228730722,
            1786737814228730722,
            1786737814228730722,
            1786737814228730722,
            1786737814228730722,
        ],
    ),
    (
        "isolated",
        [
            14618701722175827713,
            4019082403840550653,
            11621047251728842456,
            15623552123866989520,
            13600019317115283722,
            7748026570155492942,
            10749176827314841721,
            11273024258457304565,
            12014156083793399142,
            16288396573428572569,
            10309473678875329476,
            1929595971575223814,
            1124639542358808104,
            1256599753537373997,
            176251762308444281,
            17620051477900128171,
        ],
    ),
    (
        "empty",
        [
            15895363433090651071,
            15895363433090651071,
            15895363433090651071,
            15895363433090651071,
            15895363433090651071,
            15895363433090651071,
            15895363433090651071,
            15895363433090651071,
            9575855193578162583,
            9575855193578162583,
            9575855193578162583,
            9575855193578162583,
            9575855193578162583,
            9575855193578162583,
            9575855193578162583,
            9575855193578162583,
        ],
    ),
];

const GOLDEN_DIAGNOSTICS: [&str; 2] = [
    "invalid CSR structure: LA-Decompose did not converge within 3 levels (470 edges left); \
     the arrangement strategy is not reducing edge lengths \
     (per-level active-prefix sizes: [480, 472, 464])",
    "invalid CSR structure: LA-Decompose did not converge within 3 levels (455 edges left); \
     the arrangement strategy is not reducing edge lengths \
     (per-level active-prefix sizes: [367, 319, 287])",
];

const GOLDEN_TILES: [u64; 8] = [
    6683227243947199088,
    17710296047129806912,
    9231445739572085923,
    12108964537350798155,
    17453278061116095883,
    5781598964406139915,
    1727692666484282127,
    14695981039346656037,
];

const GOLDEN_SPLICES: [u64; 4] = [
    11765950877462213762,
    18083867634733521938,
    // Re-recorded once (was 3581470769617322351): vertex 590 is isolated
    // in `mawi_like(600)`, so the first round's splice held a vertex
    // active at its last level and at no earlier one — a decomposition
    // `ArrowSpmm::new` refuses. That round is now the `Unroutable` cold
    // fallback.
    8166238939142308557,
    17363814612947673510,
];

const GOLDEN_HP1D: [u64; 8] = [
    11821859499239410457,
    6658031103545434994,
    14830419164300451386,
    4522832261811075184,
    1399714688170160855,
    3572972723982721559,
    12642615222915322490,
    132402238013330661,
];
