//! `info`: a matrix's shape, degree profile and bandwidth bounds.

use crate::args::{Args, Outcome};
use arrow_matrix::graph::degree::DegreeStats;
use arrow_matrix::graph::Graph;
use arrow_matrix::sparse::bandwidth;

pub fn run(args: &Args) -> Outcome {
    let a = crate::load_matrix(args.str("matrix.mtx"))?;
    println!("matrix : {} x {}, nnz = {}", a.rows(), a.cols(), a.nnz());
    if a.rows() == a.cols() {
        let g = Graph::from_matrix_structure(&a);
        let s = DegreeStats::of(&g);
        println!(
            "graph  : m = {}, avg degree = {:.2}, Δ = {} ({:.2}% of n), isolated = {}",
            s.m,
            s.avg_degree,
            s.max_degree,
            100.0 * s.max_degree_fraction(),
            s.isolated
        );
        println!(
            "bounds : natural-order bandwidth = {}, §3 bandwidth lower bound = {}",
            bandwidth(&a),
            arrow_matrix::graph::bounds::bandwidth_lower_bound(&g)
        );
    }
    Ok(())
}
