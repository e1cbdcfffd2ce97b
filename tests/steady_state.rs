//! A warm wide request allocates no `n × k` memory: after two warm-up
//! flushes, a third identical flush — through a bare `Engine` or a
//! `StreamHub`, with and without a pending delta — requests no single
//! block of `n × 8` bytes or more on any thread. The packed operand is
//! recycled as the answer buffer, and each query's own vector carries
//! its answer back. A batch wide enough that its pack and unpack run as
//! row-block parts on the pool is held to the same bound, and so is a
//! `LocalSpmm` caller that recycles each answer as its next operand.
//!
//! A tenant's matrix is stored once: a one-rank hub admits it without
//! requesting a block the size of one of its CSR arrays, and an inline
//! refresh requests the merged matrix's arrays once — the binding
//! shares the tenant's base instead of copying it.
//!
//! Lives in a test binary of its own: the allocator below counts every
//! thread of the process (the `amd-exec` pool's workers included), so
//! each test holds `EXCLUSIVE` for its whole body.

use arrow_matrix::engine::{Engine, EngineConfig, MatrixId, MultiplyQuery, QueryResponse};
use arrow_matrix::sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use arrow_matrix::spmm::reference::iterated_spmm;
use arrow_matrix::spmm::{DistSpmm, LocalSpmm};
use arrow_matrix::stream::{HubConfig, StalenessBudget, StreamHub, Update};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Largest single block requested since the last reset, on any thread.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

/// Blocks of at least [`CSR_ARRAY_BYTES`] requested since the last
/// reset, on any thread.
static CSR_SIZED_REQUESTS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, noting the size of every request.
struct NotingAlloc;

fn note(size: usize) {
    LARGEST_REQUEST.fetch_max(size, Ordering::Relaxed);
    if size >= CSR_ARRAY_BYTES {
        CSR_SIZED_REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only updates an atomic.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and reports the largest single block requested meanwhile.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST_REQUEST.load(Ordering::Relaxed))
}

/// Runs `f` and reports how many blocks of at least [`CSR_ARRAY_BYTES`]
/// it requested.
fn csr_sized_requests<T>(f: impl FnOnce() -> T) -> (T, usize) {
    CSR_SIZED_REQUESTS.store(0, Ordering::Relaxed);
    let out = f();
    (out, CSR_SIZED_REQUESTS.load(Ordering::Relaxed))
}

const N: u32 = 4096;
const K: u32 = 16;
/// One `n`-long column of `f64`: the smallest block the bound forbids.
const COLUMN_BYTES: usize = N as usize * 8;
/// The fixture's smallest CSR array: its `n + 1` row offsets (the
/// column indices and values hold four entries a row).
const CSR_ARRAY_BYTES: usize = (N as usize + 1) * std::mem::size_of::<usize>();

/// A ring with chords: four stored values per row, integer-valued, so
/// every path's answer is exact.
fn matrix() -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(N, N);
    for r in 0..N {
        for (d, v) in [(1u32, 1.0), (N - 1, 1.0), (37, 2.0), (1009, -1.0)] {
            coo.push(r, (r + d) % N, v).unwrap();
        }
    }
    coo.to_csr()
}

/// The pending correction: adds, cancels and changes entries.
const DELTA: [(u32, u32, f64); 3] = [(0, 2048, 2.0), (5, 6, -1.0), (4095, 3, 3.0)];

fn delta() -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(N, N);
    for (r, c, v) in DELTA {
        coo.push(r, c, v).unwrap();
    }
    coo.to_csr()
}

fn column(q: u32) -> Vec<f64> {
    (0..N)
        .map(|r| ((q * 13 + 3 * r) % 11) as f64 - 5.0)
        .collect()
}

/// The reference answers of the `K` columns after `iters` iterations.
fn expected(a: &CsrMatrix<f64>, iters: u32) -> Vec<Vec<f64>> {
    expected_columns(a, iters, K)
}

/// The reference answers of the first `k` columns after `iters`
/// iterations.
fn expected_columns(a: &CsrMatrix<f64>, iters: u32, k: u32) -> Vec<Vec<f64>> {
    (0..k)
        .map(|q| {
            let x = DenseMatrix::from_vec(N, 1, column(q)).unwrap();
            iterated_spmm(a, &x, iters).unwrap().into_vec()
        })
        .collect()
}

/// Sends the same wide request three times through `request`, checks
/// every answer, and asserts the third allocated no column-sized block.
fn third_request_allocates_no_column(
    case: &str,
    want: &[Vec<f64>],
    request: impl FnMut(Vec<Vec<f64>>) -> Vec<QueryResponse>,
) {
    third_request_of_width_allocates_no_column(case, K, want, request);
}

/// [`third_request_allocates_no_column`] for a request of `k` queries.
fn third_request_of_width_allocates_no_column(
    case: &str,
    k: u32,
    want: &[Vec<f64>],
    mut request: impl FnMut(Vec<Vec<f64>>) -> Vec<QueryResponse>,
) {
    for round in 0..3 {
        let columns: Vec<Vec<f64>> = (0..k).map(column).collect();
        let (responses, largest) = largest_request(|| request(columns));
        assert_eq!(responses.len(), k as usize, "{case}");
        for (j, response) in responses.iter().enumerate() {
            assert_eq!(response.batch_size, k as usize, "{case}");
            assert_eq!(response.y, want[j], "{case}, round {round}, column {j}");
        }
        if round == 2 {
            assert!(
                largest < COLUMN_BYTES,
                "{case}: a warm request allocated a block of {largest} bytes \
                 (one column is {COLUMN_BYTES})"
            );
        }
    }
}

fn query(matrix: MatrixId, x: Vec<f64>, iters: u32) -> MultiplyQuery {
    MultiplyQuery {
        matrix,
        x,
        iters,
        sigma: None,
    }
}

#[test]
fn a_warm_wide_engine_flush_allocates_no_column() {
    let _exclusive = exclusive();
    let a = matrix();
    let merged = ops::apply_delta(&a, &delta()).unwrap();
    for iters in 1..=3 {
        for pending in [false, true] {
            let mut engine = Engine::new(EngineConfig::default()).unwrap();
            let id = engine.register(&a).unwrap();
            if pending {
                engine.set_delta(id, delta()).unwrap();
            }
            let want = expected(if pending { &merged } else { &a }, iters);
            let case = format!("engine, iters = {iters}, delta pending = {pending}");
            third_request_allocates_no_column(&case, &want, |columns| {
                for x in columns {
                    engine.submit(query(id, x, iters)).unwrap();
                }
                engine.flush().unwrap()
            });
        }
    }
}

#[test]
fn a_warm_wide_hub_flush_allocates_no_column() {
    let _exclusive = exclusive();
    let a = matrix();
    let merged = ops::apply_delta(&a, &delta()).unwrap();
    for iters in 1..=3 {
        for pending in [false, true] {
            // Refreshes only when asked: the delta stays pending.
            let mut hub = StreamHub::new(HubConfig {
                budget: StalenessBudget::nnz_fraction(1e9),
                auto_refresh: false,
                ..HubConfig::default()
            })
            .unwrap();
            let t = hub.admit(a.clone()).unwrap();
            if pending {
                for (row, col, delta) in DELTA {
                    hub.update(t, Update::Add { row, col, delta }).unwrap();
                }
            }
            let want = expected(if pending { &merged } else { &a }, iters);
            let case = format!("hub, iters = {iters}, delta pending = {pending}");
            third_request_allocates_no_column(&case, &want, |columns| {
                for x in columns {
                    hub.submit(t, x, iters, None).unwrap();
                }
                hub.flush().unwrap()
            });
        }
    }
}

/// A batch of 64 queries: `N · 64 = 2¹⁸` elements, so the batch's pack
/// and unpack run as row-block parts on the pool (at two or more pool
/// workers), held to the same bound through the engine and the hub.
#[test]
fn a_warm_pooled_transpose_flush_allocates_no_column() {
    const WIDE: u32 = 64;
    let _exclusive = exclusive();
    let a = matrix();
    let want = expected_columns(&a, 2, WIDE);
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let id = engine.register(&a).unwrap();
    third_request_of_width_allocates_no_column("engine, k = 64", WIDE, &want, |columns| {
        for x in columns {
            engine.submit(query(id, x, 2)).unwrap();
        }
        engine.flush().unwrap()
    });
    let mut hub = StreamHub::new(HubConfig::default()).unwrap();
    let t = hub.admit(a.clone()).unwrap();
    third_request_of_width_allocates_no_column("hub, k = 64", WIDE, &want, |columns| {
        for x in columns {
            hub.submit(t, x, 2, None).unwrap();
        }
        hub.flush().unwrap()
    });
}

#[test]
fn a_local_binding_answers_in_recycled_storage() {
    let _exclusive = exclusive();
    let a = matrix();
    let local = LocalSpmm::new(a.clone()).unwrap();
    let operand = DenseMatrix::from_fn(N, K, |r, c| column(c)[r as usize]);
    for iters in 1..=3 {
        let want = iterated_spmm(&a, &operand, iters).unwrap();
        let mut storage = Vec::new();
        for round in 0..3 {
            let (run, largest) = largest_request(|| {
                let mut data: Vec<f64> = std::mem::take(&mut storage);
                data.clear();
                data.extend_from_slice(operand.data());
                let x = DenseMatrix::from_vec(N, K, data).unwrap();
                local.run_owned(x, iters, None).unwrap()
            });
            assert_eq!(run.y, want, "iters = {iters}, round {round}");
            if round == 2 {
                assert!(
                    largest < COLUMN_BYTES,
                    "iters = {iters}: a warm run allocated a block of {largest} bytes"
                );
            }
            storage = run.y.into_vec();
        }
    }
}

#[test]
fn a_one_rank_tenant_stores_its_matrix_once() {
    let _exclusive = exclusive();
    let a = matrix();
    let merged = ops::apply_delta(&a, &delta()).unwrap();
    // Refreshes only when asked, on the calling thread.
    let mut hub = StreamHub::new(HubConfig {
        budget: StalenessBudget::nnz_fraction(1e9),
        auto_refresh: false,
        async_refresh: false,
        ..HubConfig::default()
    })
    .unwrap();
    let to_admit = a.clone();
    let (t, requested) = csr_sized_requests(|| hub.admit(to_admit).unwrap());
    assert_eq!(requested, 0, "admission copied the tenant's CSR");
    for (row, col, delta) in DELTA {
        hub.update(t, Update::Add { row, col, delta }).unwrap();
    }
    let (refreshed, requested) = csr_sized_requests(|| hub.refresh(t).unwrap());
    assert!(refreshed);
    // The grant's delta CSR (its row counts, their running copy and its
    // row offsets: 3) and the merged matrix's three arrays, once: 3.
    assert_eq!(requested, 6, "an inline refresh's CSR-sized blocks");
    assert_eq!(hub.base(t).unwrap(), &merged);
    let want = expected(&merged, 2);
    for x in (0..K).map(column) {
        hub.submit(t, x, 2, None).unwrap();
    }
    let responses = hub.flush().unwrap();
    for (j, response) in responses.iter().enumerate() {
        assert_eq!(response.y, want[j], "column {j} after the refresh");
    }
}
