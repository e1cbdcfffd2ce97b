//! Placement against the peel, entry by entry. LA-Decompose places an
//! entry at the first level whose arrangement captures it, read off the
//! arrangements' block maps; the peel it replaced removed the surviving
//! edges level by level with `min(p, q) < b || p / b == q / b` on the
//! positions. On the eight inputs of `decompose_golden.rs`, under every
//! strategy, the level each stored entry was placed at must be the level
//! that peel captures its edge at — so a change to either is caught here,
//! with the entry named, before it shows up as a moved hash.

use amd_graph::generators::{basic, datasets, random, rmat};
use amd_graph::graph::structure_edges;
use amd_sparse::{CooMatrix, CsrMatrix};
use arrow_core::strategy::{
    ArrangementStrategy, IdentityLa, RandomForestLa, RcmLa, SeparatorLaStrategy,
};
use arrow_core::{la_decompose, ArrowDecomposition, DecomposeConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Most entries stored in one direction only, a quarter mirrored, a few
/// on the diagonal.
fn one_sided(n: u32) -> CsrMatrix<f64> {
    let mut seen = HashSet::new();
    let mut coo = CooMatrix::new(n, n);
    for i in 0..3 * n as u64 {
        let h = mix(i);
        let (r, c) = ((h % n as u64) as u32, ((h >> 20) % n as u64) as u32);
        if seen.insert((r, c)) {
            coo.push(r, c, 1.0).unwrap();
        }
        if h & 3 == 0 && seen.insert((c, r)) {
            coo.push(c, r, 2.0).unwrap();
        }
    }
    coo.to_csr()
}

fn diagonal_only(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in (0..n).filter(|v| v % 3 != 1) {
        coo.push(v, v, 1.0).unwrap();
    }
    coo.to_csr()
}

/// A path, a cycle, a clique and a far-apart pair between isolated
/// vertices, some of which carry a diagonal entry.
fn with_isolated(n: u32) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for v in 10..110 {
        coo.push_sym(v, v + 1, 1.0).unwrap();
    }
    for v in 200..260 {
        coo.push_sym(v, 200 + (v - 200 + 1) % 60, 1.0).unwrap();
    }
    for u in 300..306 {
        for v in (u + 1)..306 {
            coo.push_sym(u, v, 1.0).unwrap();
        }
    }
    coo.push_sym(3, n - 2, 1.0).unwrap();
    for v in [0, 150, 151, n - 1] {
        coo.push(v, v, 1.0).unwrap();
    }
    coo.to_csr()
}

fn inputs() -> Vec<(&'static str, CsrMatrix<f64>)> {
    let rng = ChaCha8Rng::seed_from_u64;
    vec![
        ("grid", basic::grid_2d(24, 20).to_adjacency()),
        (
            "rmat",
            rmat::rmat(9, 4, rmat::RmatParams::graph500(), &mut rng(13)).to_adjacency(),
        ),
        ("mawi", datasets::mawi_like(600, &mut rng(4)).to_adjacency()),
        ("tree", random::random_tree(500, &mut rng(5)).to_adjacency()),
        ("one-sided", one_sided(300)),
        ("diagonal", diagonal_only(64)),
        ("isolated", with_isolated(420)),
        ("empty", CsrMatrix::zeros(50, 50)),
    ]
}

/// The level the peel captures every structure edge at, given the
/// arrangements of `d`.
fn peel_levels(a: &CsrMatrix<f64>, d: &ArrowDecomposition) -> HashMap<(u32, u32), usize> {
    let b = d.b();
    let mut alive = structure_edges(a);
    let mut level_of = HashMap::new();
    for (level, l) in d.levels().iter().enumerate() {
        alive.retain(|&(u, v)| {
            let (p, q) = (l.perm.position(u), l.perm.position(v));
            let captured = p.min(q) < b || p / b == q / b;
            if captured {
                level_of.insert((u, v), level);
            }
            !captured
        });
    }
    assert!(alive.is_empty(), "{} edges never captured", alive.len());
    level_of
}

#[test]
fn every_entry_sits_at_the_level_the_peel_captures_it() {
    for (name, a) in inputs() {
        for width in [8, 32] {
            for prune in [true, false] {
                let strategies: [Box<dyn ArrangementStrategy>; 4] = [
                    Box::new(RandomForestLa::new(17)),
                    Box::new(SeparatorLaStrategy),
                    Box::new(RcmLa),
                    Box::new(IdentityLa),
                ];
                for mut strategy in strategies {
                    let cfg = DecomposeConfig {
                        arrow_width: width,
                        prune,
                        max_levels: 64,
                    };
                    // An arrangement that does not shorten edges hits the
                    // level cap; there is no placement to check then.
                    let Ok(d) = la_decompose(&a, &cfg, strategy.as_mut()) else {
                        continue;
                    };
                    let what = format!("{name}, b = {width}, prune = {prune}, {}", strategy.name());
                    let peel = peel_levels(&a, &d);
                    let mut placed = 0;
                    for (level, l) in d.levels().iter().enumerate() {
                        for (p, q, _) in l.matrix.iter() {
                            let (r, c) = (l.perm.vertex_at(p), l.perm.vertex_at(q));
                            let expected = if r == c {
                                0
                            } else {
                                peel[&(r.min(c), r.max(c))]
                            };
                            assert_eq!(level, expected, "entry ({r}, {c}) of {what}");
                            placed += 1;
                        }
                    }
                    assert_eq!(placed, a.nnz(), "{what}");
                }
            }
        }
    }
}
