//! The by-value entry, `DistSpmm::run_owned`, against the borrowing
//! `run_sigma`: equal bit for bit — answers and accounting — for the
//! shared-memory binding and for the delta-corrected path over it, at
//! every width, iteration count, σ and dtype; and equal to what the
//! corrected path computes one base run per iteration, which is how it
//! serves a distributed base.

use amd_comm::MachineStats;
use amd_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Dtype, SparseResult};
use amd_spmm::traits::Sigma;
use amd_spmm::{CommEstimate, DeltaSpmm, DistSpmm, LocalSpmm, SpmmRun};

/// A [`LocalSpmm`] that does not say it is one: [`DeltaSpmm`] over it
/// takes the path it takes over a distributed base.
struct Opaque<'a>(&'a LocalSpmm);

impl DistSpmm for Opaque<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn ranks(&self) -> u32 {
        self.0.ranks()
    }

    fn run_sigma(
        &self,
        x: &DenseMatrix<f64>,
        iters: u32,
        sigma: Option<Sigma>,
    ) -> SparseResult<SpmmRun> {
        self.0.run_sigma(x, iters, sigma)
    }

    fn dry_run(&self, k: u32, iters: u32) -> MachineStats {
        self.0.dry_run(k, iters)
    }

    fn predict_ranks(&self, k: u32) -> Vec<CommEstimate> {
        self.0.predict_ranks(k)
    }
}

/// 1 031 rows of five non-integer entries, every 17th row empty: at
/// `k = 64` the product crosses the pool's work threshold, below it
/// runs serially.
fn matrix() -> CsrMatrix<f64> {
    let n = 1031;
    let mut coo = CooMatrix::new(n, n);
    for r in (0..n).filter(|r| r % 17 != 3) {
        for d in 0..5 {
            let v = ((r + 3 * d) % 5) as f64 - 2.0;
            coo.push(r, (r * 7 + d * 131 + 1) % n, v / 7.0 + 0.05)
                .unwrap();
        }
    }
    coo.to_csr()
}

/// A pending correction that adds, cancels and perturbs entries.
fn delta() -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(1031, 1031);
    coo.push_sym(0, 515, 2.5).unwrap();
    coo.push(8, 57, -1.0 / 3.0).unwrap();
    coo.push(1030, 3, 4.25).unwrap();
    coo.to_csr()
}

fn operand(k: u32) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(1031, k, |r, c| (((r * 5 + c * 3) % 7) as f64 - 3.0) / 3.0)
}

fn bits(y: &DenseMatrix<f64>) -> Vec<u64> {
    y.data().iter().map(|v| v.to_bits()).collect()
}

fn clock(stats: &MachineStats) -> Vec<(u64, u64, u64, u64)> {
    stats
        .ranks
        .iter()
        .map(|r| {
            let bytes = r.sent_bytes + r.recv_bytes;
            let msgs = r.sent_msgs + r.recv_msgs;
            (r.sim_time.to_bits(), r.compute_time.to_bits(), bytes, msgs)
        })
        .collect()
}

fn assert_same(got: &SpmmRun, want: &SpmmRun, case: &str) {
    assert_eq!(got.iters, want.iters, "{case}");
    assert_eq!(bits(&got.y), bits(&want.y), "{case}");
    assert_eq!(
        (got.y.rows(), got.y.cols()),
        (want.y.rows(), want.y.cols()),
        "{case}"
    );
    assert_eq!(clock(&got.stats), clock(&want.stats), "{case}");
}

#[test]
fn run_owned_equals_run_sigma_bit_for_bit() {
    let relu: Sigma = |v| v.max(0.0);
    let (a, d) = (matrix(), delta());
    for dtype in [Dtype::F64, Dtype::F32] {
        let local = LocalSpmm::new(a.clone()).unwrap().with_dtype(dtype);
        let opaque = Opaque(&local);
        let corrected = DeltaSpmm::new(&local, &d).unwrap();
        let per_iteration = DeltaSpmm::new(&opaque, &d).unwrap();
        for k in [1u32, 3, 16, 64] {
            let x = operand(k);
            for iters in 0..=3 {
                for sigma in [None, Some(relu)] {
                    let case = format!("{dtype} k={k} iters={iters} σ={}", sigma.is_some());
                    let want = local.run_sigma(&x, iters, sigma).unwrap();
                    let got = local.run_owned(x.clone(), iters, sigma).unwrap();
                    assert_same(&got, &want, &format!("local {case}"));

                    let want = per_iteration.run_sigma(&x, iters, sigma).unwrap();
                    let borrowed = corrected.run_sigma(&x, iters, sigma).unwrap();
                    assert_same(&borrowed, &want, &format!("corrected {case}"));
                    let owned = corrected.run_owned(x.clone(), iters, sigma).unwrap();
                    assert_same(&owned, &want, &format!("corrected, owned {case}"));
                }
            }
        }
    }
}

/// A caller that recycles each answer's storage as its next operand —
/// what the serving engine does — gets what fresh storage would give,
/// across widths and iteration counts that leave the binding's spare at
/// another shape and full of other values.
#[test]
fn recycled_storage_answers_like_fresh_storage() {
    let (a, d) = (matrix(), delta());
    let local = LocalSpmm::new(a.clone()).unwrap();
    let corrected = DeltaSpmm::new(&local, &d).unwrap();
    let mut storage = Vec::new();
    for (step, (k, iters)) in [
        (64u32, 3u32),
        (3, 2),
        (64, 1),
        (16, 2),
        (64, 3),
        (1, 1),
        (64, 2),
    ]
    .into_iter()
    .enumerate()
    {
        let x = operand(k);
        let algo: &dyn DistSpmm = if step % 2 == 0 { &local } else { &corrected };
        let want = algo.run(&x, iters).unwrap();
        let mut data: Vec<f64> = storage;
        data.clear();
        data.extend_from_slice(x.data());
        let got = algo
            .run_owned(DenseMatrix::from_vec(1031, k, data).unwrap(), iters, None)
            .unwrap();
        assert_eq!(
            bits(&got.y),
            bits(&want.y),
            "step {step}: k={k} iters={iters}"
        );
        storage = got.y.into_vec();
    }
}

#[test]
fn run_owned_rejects_a_wrong_shape() {
    let (a, d) = (matrix(), delta());
    let local = LocalSpmm::new(a.clone()).unwrap();
    let corrected = DeltaSpmm::new(&local, &d).unwrap();
    for iters in [0u32, 1] {
        assert!(local
            .run_owned(DenseMatrix::zeros(1030, 2), iters, None)
            .is_err());
        assert!(corrected
            .run_owned(DenseMatrix::zeros(1030, 2), iters, None)
            .is_err());
    }
}
