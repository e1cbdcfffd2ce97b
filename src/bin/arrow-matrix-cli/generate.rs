//! `generate`: a synthetic stand-in for one of the paper's datasets,
//! written as Matrix Market.

use crate::args::{Args, Outcome};
use arrow_matrix::graph::degree::DegreeStats;
use arrow_matrix::graph::generators::datasets::DatasetKind;
use arrow_matrix::sparse::io::write_matrix_market;
use arrow_matrix::sparse::CsrMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::io::BufWriter;

fn kind_by_name(name: &str) -> Result<DatasetKind, String> {
    match name.to_lowercase().as_str() {
        "mawi" => Ok(DatasetKind::Mawi),
        "genbank" => Ok(DatasetKind::GenBank),
        "webbase" => Ok(DatasetKind::WebBase),
        "osm" | "osm-europe" => Ok(DatasetKind::OsmEurope),
        "gap-twitter" | "twitter" => Ok(DatasetKind::GapTwitter),
        "sk-2005" | "sk2005" => Ok(DatasetKind::Sk2005),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

pub fn run(args: &Args) -> Outcome {
    let kind = kind_by_name(args.str("dataset"))?;
    let n: u32 = args.parse("n")?;
    if n < kind.min_n() {
        return Err(format!(
            "bad n: {n} (the {} stand-in needs n >= {})",
            kind.name(),
            kind.min_n()
        )
        .into());
    }
    let seed: u64 = args.parse("seed")?;
    let out = args.str("out.mtx");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = kind.generate(n, &mut rng);
    let a: CsrMatrix<f64> = g.to_adjacency();
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_matrix_market(&a, BufWriter::new(file))?;
    let s = DegreeStats::of(&g);
    println!(
        "wrote {out}: {} ({} vertices, {} edges, nnz/n = {:.2}, Δ = {})",
        kind.name(),
        s.n,
        s.m,
        s.avg_degree,
        s.max_degree
    );
    Ok(())
}
