//! Synthetic stand-ins for the SuiteSparse datasets of Table 2.
//!
//! The paper evaluates on eight matrices whose decisive properties are
//! their density signatures (Table 2) and structure:
//!
//! | Dataset      | nnz/n | Δ          | structure                         |
//! |--------------|-------|------------|-----------------------------------|
//! | MAWI         | 2.1   | ≈ 0.93 · n | a few giant stars + sparse rest   |
//! | GenBank      | 2.1   | 8–35       | k-mer graph: long, branchy paths  |
//! | WebBase      | 8.6   | ≈ 0.7% · n | power law, moderate skew          |
//! | OSM Europe   | 2.1   | 13         | road network: chains of degree 2  |
//! | GAP-twitter  | 23.9  | ≈ 1.25%· n | heavy power law                   |
//! | sk-2005      | 38.5  | ≈ 17% · n  | very heavy power law              |
//!
//! Each generator reproduces that signature at a caller-chosen scale `n`.
//! The decomposition and the SpMM baselines only "see" the degree
//! distribution and sparsity structure, so matching the signature
//! preserves the experimental behaviour.

use crate::builder::GraphBuilder;
use crate::generators::random::{chung_lu, AliasTable};
use crate::graph::Graph;
use crate::zipf::TruncatedZipf;
use rand::Rng;

/// Identifier for the eight Table 2 datasets (scaled stand-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MAWI traffic trace (giant stars): `mawi_201512020030` family.
    Mawi,
    /// GenBank k-mer graph: `kmer_V1r` family.
    GenBank,
    /// WebBase 2001 web crawl.
    WebBase,
    /// OSM Europe road network.
    OsmEurope,
    /// GAP-twitter follower graph.
    GapTwitter,
    /// sk-2005 web crawl.
    Sk2005,
}

impl DatasetKind {
    /// All kinds in the order of Figure 5 of the paper.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::Mawi,
        DatasetKind::GenBank,
        DatasetKind::WebBase,
        DatasetKind::OsmEurope,
        DatasetKind::GapTwitter,
        DatasetKind::Sk2005,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Mawi => "MAWI",
            DatasetKind::GenBank => "GenBank",
            DatasetKind::WebBase => "WebBase",
            DatasetKind::OsmEurope => "OSM-Europe",
            DatasetKind::GapTwitter => "GAP-twitter",
            DatasetKind::Sk2005 => "sk-2005",
        }
    }

    /// Target `nnz(A)/n` from Table 2.
    pub fn target_avg_degree(&self) -> f64 {
        match self {
            DatasetKind::Mawi => 2.1,
            DatasetKind::GenBank => 2.1,
            DatasetKind::WebBase => 8.63,
            DatasetKind::OsmEurope => 2.12,
            DatasetKind::GapTwitter => 23.85,
            DatasetKind::Sk2005 => 38.5,
        }
    }

    /// Target Δ as a fraction of `n` (approximate; Table 2).
    pub fn target_max_degree_fraction(&self) -> f64 {
        match self {
            DatasetKind::Mawi => 0.93,
            DatasetKind::GenBank => 0.0, // bounded constant (≤ 35)
            DatasetKind::WebBase => 0.0069,
            DatasetKind::OsmEurope => 0.0, // bounded constant (≤ 13)
            DatasetKind::GapTwitter => 0.0125,
            DatasetKind::Sk2005 => 0.17,
        }
    }

    /// The smallest scale `n` the stand-in generator accepts.
    pub fn min_n(&self) -> u32 {
        match self {
            DatasetKind::Mawi | DatasetKind::GenBank => 16,
            _ => 64,
        }
    }

    /// Generates the stand-in graph at scale `n` (at least
    /// [`min_n`](Self::min_n)).
    pub fn generate<R: Rng>(&self, n: u32, rng: &mut R) -> Graph {
        match self {
            DatasetKind::Mawi => mawi_like(n, rng),
            DatasetKind::GenBank => genbank_like(n, rng),
            DatasetKind::WebBase => webbase_like(n, rng),
            DatasetKind::OsmEurope => osm_like(n, rng),
            DatasetKind::GapTwitter => gap_twitter_like(n, rng),
            DatasetKind::Sk2005 => sk2005_like(n, rng),
        }
    }
}

fn assert_min_n(kind: DatasetKind, n: u32) {
    assert!(
        n >= kind.min_n(),
        "the {} stand-in needs n >= {}, got {n}",
        kind.name(),
        kind.min_n()
    );
}

/// MAWI-like: one giant star covering ≈ 90% of the vertices, a few
/// second-tier stars, and chains filling the remaining average degree to
/// ≈ 2.1 (`Δ ≈ 0.93 n`, giant stars cause the pruning behaviour of §7.2).
pub fn mawi_like<R: Rng>(n: u32, rng: &mut R) -> Graph {
    assert_min_n(DatasetKind::Mawi, n);
    let mut b = GraphBuilder::with_capacity(n, (1.05 * n as f64) as usize + 8);
    let hub = 0u32;
    let giant = (0.90 * n as f64) as u32;
    for v in 1..=giant {
        b.add_edge(hub, v);
    }
    // Second-tier hubs with stars over a few percent of the vertices each.
    let tier2 = [(giant + 1, n / 50), (giant + 2, n / 100)];
    for &(h, size) in &tier2 {
        for _ in 0..size {
            let leaf = rng.gen_range(0..n);
            if leaf != h {
                b.add_edge(h, leaf);
            }
        }
    }
    // Sparse chains among the non-hub tail to reach nnz/n ≈ 2.1 (m ≈ 1.05 n).
    let target_m = (1.05 * n as f64) as usize;
    while b.staged_edges() < target_m {
        let u = rng.gen_range(1..n);
        let v = rng.gen_range(1..n);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// GenBank-like k-mer graph: a union of long paths with occasional
/// branching, maximum degree bounded by a small constant (paper: 8–35).
pub fn genbank_like<R: Rng>(n: u32, rng: &mut R) -> Graph {
    assert_min_n(DatasetKind::GenBank, n);
    let mut b = GraphBuilder::with_capacity(n, (1.05 * n as f64) as usize);
    // Partition vertices into paths of random length 50..500.
    let mut v = 0u32;
    while v < n {
        let len = rng.gen_range(50..500).min(n - v);
        for i in 1..len {
            b.add_edge(v + i - 1, v + i);
        }
        v += len;
    }
    // Branching: ~5% extra edges between nearby vertices (k-mer overlaps),
    // keeping the degree bounded.
    let extra = n / 20;
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let offset = rng.gen_range(2..40);
        let w = (u + offset).min(n - 1);
        if u != w {
            b.add_edge(u, w);
        }
    }
    b.build()
}

/// WebBase-like: Chung-Lu with truncated-Zipf weights capped at
/// `0.7% · n`, average degree ≈ 8.6.
pub fn webbase_like<R: Rng>(n: u32, rng: &mut R) -> Graph {
    power_law_like(DatasetKind::WebBase, n, 1.9, rng)
}

/// GAP-twitter-like: heavier power law, average degree ≈ 23.9, Δ ≈ 1.25% n.
pub fn gap_twitter_like<R: Rng>(n: u32, rng: &mut R) -> Graph {
    power_law_like(DatasetKind::GapTwitter, n, 1.8, rng)
}

/// sk-2005-like: very heavy power law, average degree ≈ 38.5, Δ ≈ 17% n.
pub fn sk2005_like<R: Rng>(n: u32, rng: &mut R) -> Graph {
    power_law_like(DatasetKind::Sk2005, n, 1.6, rng)
}

/// Common power-law scaffold: Zipf(α) vertex weights capped at `kind`'s
/// Δ target `max_frac · n`, then Chung-Lu sampling of `avg_degree · n /
/// 2` edges at its degree target, with a final boost of the heaviest
/// vertex to hit the Δ target.
fn power_law_like<R: Rng>(kind: DatasetKind, n: u32, alpha: f64, rng: &mut R) -> Graph {
    assert_min_n(kind, n);
    let (avg_degree, max_frac) = (kind.target_avg_degree(), kind.target_max_degree_fraction());
    let zipf = TruncatedZipf::new(n as u64, alpha);
    let cap = (max_frac * n as f64).max(8.0);
    let mut weights: Vec<f64> = (0..n).map(|_| (zipf.sample(rng) as f64).min(cap)).collect();
    // Give vertex 0 the cap weight so Δ lands near the target.
    weights[0] = cap;
    let m = (avg_degree * n as f64 / 2.0) as usize;
    let g = chung_lu(&weights, m, rng);
    // Ensure the hub really has ≈ cap neighbours (Chung-Lu undershoots for
    // weights comparable to n): top it up explicitly.
    let hub_target = cap as u32;
    if g.degree(0) < hub_target {
        let mut b = GraphBuilder::with_capacity(n, g.m() + hub_target as usize);
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        let sampler = AliasTable::new(&weights);
        let mut added = g.degree(0);
        let mut attempts = 0;
        while added < hub_target && attempts < 4 * hub_target {
            attempts += 1;
            let v = sampler.sample(rng);
            if v != 0 && !g.has_edge(0, v) {
                b.add_edge(0, v);
                added += 1;
            }
        }
        b.build()
    } else {
        g
    }
}

/// OSM-like road network: a sparse grid of intersections whose road
/// segments are subdivided into chains, giving mostly degree-2 vertices,
/// bounded maximum degree, and near-planar structure.
pub fn osm_like<R: Rng>(n: u32, rng: &mut R) -> Graph {
    assert_min_n(DatasetKind::OsmEurope, n);
    // Roughly n / (1 + chain) intersections on a grid; chain ≈ 8 gives the
    // degree-2-dominated profile of road networks.
    let chain = 8u32;
    let intersections = (n / (1 + chain)).max(4);
    let side = (intersections as f64).sqrt().ceil() as u32;
    let mut b = GraphBuilder::with_capacity(n, (1.1 * n as f64) as usize);
    let mut next = side * side; // chain vertices start after the grid block
    let grid_edges = {
        let mut e = Vec::new();
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                if x + 1 < side {
                    e.push((v, v + 1));
                }
                if y + 1 < side {
                    e.push((v, v + side));
                }
            }
        }
        e
    };
    for (u, w) in grid_edges {
        // Subdivide u—w into a chain with `chain` interior vertices while
        // capacity remains; otherwise add the direct edge.
        if next + chain <= n && rng.gen_bool(0.96) {
            let mut prev = u;
            for _ in 0..chain {
                b.add_edge(prev, next);
                prev = next;
                next += 1;
            }
            b.add_edge(prev, w);
        } else if rng.gen_bool(0.96) {
            // 4% of segments randomly deleted (missing roads).
            b.add_edge(u, w);
        }
    }
    // Attach any unused chain vertices as pendant spurs (dead ends).
    while next < n {
        let u = rng.gen_range(0..next);
        b.add_edge(u, next);
        next += 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(20240314)
    }

    #[test]
    fn mawi_signature() {
        let g = mawi_like(20_000, &mut rng());
        let s = DegreeStats::of(&g);
        assert!(
            s.max_degree_fraction() > 0.85,
            "Δ/n = {}",
            s.max_degree_fraction()
        );
        assert!((1.7..2.6).contains(&s.avg_degree), "avg = {}", s.avg_degree);
    }

    #[test]
    fn genbank_signature() {
        let g = genbank_like(20_000, &mut rng());
        let s = DegreeStats::of(&g);
        assert!(s.max_degree <= 40, "Δ = {}", s.max_degree);
        assert!((1.8..2.4).contains(&s.avg_degree), "avg = {}", s.avg_degree);
        assert_eq!(s.median_degree, 2); // path-dominated
    }

    #[test]
    fn webbase_signature() {
        let g = webbase_like(20_000, &mut rng());
        let s = DegreeStats::of(&g);
        assert!(
            (6.0..11.0).contains(&s.avg_degree),
            "avg = {}",
            s.avg_degree
        );
        let frac = s.max_degree_fraction();
        assert!((0.003..0.02).contains(&frac), "Δ/n = {frac}");
    }

    #[test]
    fn osm_signature() {
        let g = osm_like(20_000, &mut rng());
        let s = DegreeStats::of(&g);
        assert!(s.max_degree <= 16, "Δ = {}", s.max_degree);
        assert!((1.8..2.6).contains(&s.avg_degree), "avg = {}", s.avg_degree);
        assert_eq!(s.median_degree, 2);
    }

    #[test]
    fn gap_twitter_signature() {
        let g = gap_twitter_like(10_000, &mut rng());
        let s = DegreeStats::of(&g);
        assert!(
            (15.0..30.0).contains(&s.avg_degree),
            "avg = {}",
            s.avg_degree
        );
        assert!(
            s.max_degree_fraction() > 0.008,
            "Δ/n = {}",
            s.max_degree_fraction()
        );
    }

    #[test]
    fn sk2005_signature() {
        let g = sk2005_like(5_000, &mut rng());
        let s = DegreeStats::of(&g);
        assert!(
            (25.0..50.0).contains(&s.avg_degree),
            "avg = {}",
            s.avg_degree
        );
        assert!(
            s.max_degree_fraction() > 0.10,
            "Δ/n = {}",
            s.max_degree_fraction()
        );
    }

    #[test]
    fn all_kinds_generate_and_name() {
        let mut r = rng();
        for kind in DatasetKind::ALL {
            let g = kind.generate(2_000, &mut r);
            assert_eq!(g.n(), 2_000);
            assert!(g.m() > 0);
            assert!(!kind.name().is_empty());
            assert!(kind.target_avg_degree() > 0.0);
        }
    }

    /// `min_n` is the floor the generators hold: each kind builds at it
    /// and refuses one below it.
    #[test]
    fn every_kind_generates_at_its_floor_and_not_below() {
        for kind in DatasetKind::ALL {
            let n = kind.min_n();
            assert_eq!(kind.generate(n, &mut rng()).n(), n);
            let below = std::panic::catch_unwind(|| kind.generate(n - 1, &mut rng()));
            assert!(below.is_err(), "{} accepted n = {}", kind.name(), n - 1);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = mawi_like(5_000, &mut ChaCha8Rng::seed_from_u64(7));
        let b = mawi_like(5_000, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = mawi_like(5_000, &mut ChaCha8Rng::seed_from_u64(8));
        assert_ne!(a, c);
    }
}
