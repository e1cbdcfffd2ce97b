//! Adversarial delta generators: deterministic trace builders that
//! stress the parts of the stack a uniform-random workload never
//! touches.
//!
//! All generated values are small integers, so replayed answers are
//! exactly representable in `f64` and the bit-exactness invariant
//! (faulty run ≡ fault-free reference ≡ serial `iterated_spmm`) is
//! meaningful.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::{ScenarioTrace, TraceOp};

/// Region-merging deltas: every added edge connects a row to a column
/// roughly `n/2` away, so each update merges arrow regions on opposite
/// sides of the matrix. This defeats splice locality — the touched
/// region spans the whole dimension and the incremental refresh path
/// is pushed toward its cold-fallback guard.
pub fn region_merging(
    n: usize,
    tenants: usize,
    rounds: usize,
    edges_per_round: usize,
    seed: u64,
) -> ScenarioTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = ScenarioTrace::new(n, tenants);
    let half = (n / 2).max(1) as u32;
    for round in 0..rounds {
        for tenant in 0..tenants {
            for _ in 0..edges_per_round {
                let row = rng.gen_range(0..n as u32);
                let col = (row + half) % n as u32;
                trace.ops.push(TraceOp::Add {
                    tenant,
                    row,
                    col,
                    value: 1.0,
                });
            }
            trace.ops.push(TraceOp::Query {
                tenant,
                salt: (round * 31 + tenant) as u64,
                iters: 2,
            });
            trace.ops.push(TraceOp::Refresh { tenant });
        }
        trace.ops.push(TraceOp::Settle);
    }
    trace
}

/// Oscillating content: each tenant owns a small fixed set of
/// coordinates that alternate between `+1` and back to `0` round over
/// round, so the merged matrix keeps returning to fingerprints it has
/// had before. With a catalog or decomposition cache attached, the
/// even rounds must be served by reuse, not fresh decompositions.
pub fn oscillating(n: usize, tenants: usize, rounds: usize, seed: u64) -> ScenarioTrace {
    const COORDS_PER_TENANT: usize = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = ScenarioTrace::new(n, tenants);
    let coords: Vec<Vec<(u32, u32)>> = (0..tenants)
        .map(|_| {
            (0..COORDS_PER_TENANT)
                .map(|_| {
                    let row = rng.gen_range(0..n as u32);
                    let col = (row + 1 + rng.gen_range(0..(n as u32 - 1))) % n as u32;
                    (row, col)
                })
                .collect()
        })
        .collect();
    for round in 0..rounds {
        let value = if round % 2 == 0 { 1.0 } else { -1.0 };
        for (tenant, tenant_coords) in coords.iter().enumerate() {
            for &(row, col) in tenant_coords {
                trace.ops.push(TraceOp::Add {
                    tenant,
                    row,
                    col,
                    value,
                });
            }
            trace.ops.push(TraceOp::Query {
                tenant,
                salt: (round * 17 + tenant) as u64,
                iters: 2,
            });
            trace.ops.push(TraceOp::Refresh { tenant });
        }
        trace.ops.push(TraceOp::Settle);
    }
    trace
}

/// Zipf-skewed bursty traffic: each round picks a tenant from a
/// truncated Zipf(`alpha`) distribution, and every third round the
/// chosen tenant emits a burst of updates back-to-back instead of one.
/// The hot tenant hammers the refresh queue while cold tenants go
/// quiet for long stretches — the fairness/backoff machinery has to
/// keep all of them exact.
pub fn zipf_bursts(
    n: usize,
    tenants: usize,
    rounds: usize,
    alpha: f64,
    burst: usize,
    seed: u64,
) -> ScenarioTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = ScenarioTrace::new(n, tenants);
    let zipf = Zipf::new(tenants, alpha);
    for round in 0..rounds {
        let tenant = zipf.sample(&mut rng);
        let updates = if round % 3 == 2 { burst.max(1) } else { 1 };
        for _ in 0..updates {
            let row = rng.gen_range(0..n as u32);
            let col = (row + 1 + rng.gen_range(0..(n as u32 - 1))) % n as u32;
            trace.ops.push(TraceOp::Add {
                tenant,
                row,
                col,
                value: 1.0,
            });
        }
        trace.ops.push(TraceOp::Query {
            tenant,
            salt: round as u64,
            iters: 2,
        });
        if round % 2 == 1 {
            trace.ops.push(TraceOp::Refresh { tenant });
        }
    }
    trace.ops.push(TraceOp::Settle);
    // One final query per tenant so even tenants Zipf never picked are
    // verified against the reference.
    for tenant in 0..tenants {
        trace.ops.push(TraceOp::Query {
            tenant,
            salt: 9999 + tenant as u64,
            iters: 2,
        });
    }
    trace
}

/// Power-law *tenant* skew: every operation's tenant is drawn from a
/// truncated Zipf(`alpha`) over the tenant IDs, so a handful of hot
/// tenants absorb most of the mutation and query traffic while the
/// long tail sits nearly idle. Unlike [`zipf_bursts`] (one tenant per
/// round), every round interleaves several independently-drawn
/// tenants, which is what multi-tenant serving actually looks like:
/// hot tenants' refreshes overlap cold tenants' queries, and the
/// per-tenant isolation (caches, refresh queues, catalogs) must keep
/// every answer exact under the contention.
pub fn zipf_tenant_skew(
    n: usize,
    tenants: usize,
    rounds: usize,
    ops_per_round: usize,
    alpha: f64,
    seed: u64,
) -> ScenarioTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = ScenarioTrace::new(n, tenants);
    let zipf = Zipf::new(tenants, alpha);
    for round in 0..rounds {
        for slot in 0..ops_per_round.max(1) {
            let tenant = zipf.sample(&mut rng);
            let row = rng.gen_range(0..n as u32);
            let col = (row + 1 + rng.gen_range(0..(n as u32 - 1))) % n as u32;
            trace.ops.push(TraceOp::Add {
                tenant,
                row,
                col,
                value: 1.0,
            });
            trace.ops.push(TraceOp::Query {
                tenant,
                salt: (round * 131 + slot) as u64,
                iters: 2,
            });
            // Hot tenants refresh often; the tail almost never does, so
            // its serving stays on the corrected (delta) path.
            if slot % 2 == 0 {
                trace.ops.push(TraceOp::Refresh { tenant });
            }
        }
        trace.ops.push(TraceOp::Settle);
    }
    // Verify every tenant at least once, including those the skew
    // never picked — the cold tail must be exact too.
    for tenant in 0..tenants {
        trace.ops.push(TraceOp::Query {
            tenant,
            salt: 7777 + tenant as u64,
            iters: 2,
        });
    }
    trace
}

/// Tiny truncated-Zipf sampler over `{0, …, n-1}` (rank k+1 has weight
/// `(k+1)^-alpha`) via an inverse-CDF table walk. Kept inline so this
/// crate stays at the bottom of the dependency stack.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, alpha: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for k in 1..=n.max(1) {
            total += (k as f64).powf(-alpha);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty table");
        let u = rng.gen::<f64>() * total;
        self.cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ScenarioTrace;

    fn roundtrips(trace: &ScenarioTrace) {
        let back = ScenarioTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(&back, trace);
    }

    #[test]
    fn generators_are_deterministic_and_roundtrip() {
        let a = region_merging(64, 2, 4, 3, 11);
        assert_eq!(a, region_merging(64, 2, 4, 3, 11));
        assert_ne!(a, region_merging(64, 2, 4, 3, 12));
        roundtrips(&a);

        let b = oscillating(64, 2, 4, 11);
        assert_eq!(b, oscillating(64, 2, 4, 11));
        roundtrips(&b);

        let c = zipf_bursts(64, 3, 12, 1.2, 6, 11);
        assert_eq!(c, zipf_bursts(64, 3, 12, 1.2, 6, 11));
        roundtrips(&c);

        let d = zipf_tenant_skew(64, 16, 4, 6, 1.3, 11);
        assert_eq!(d, zipf_tenant_skew(64, 16, 4, 6, 1.3, 11));
        assert_ne!(d, zipf_tenant_skew(64, 16, 4, 6, 1.3, 12));
        roundtrips(&d);
    }

    #[test]
    fn tenant_skew_is_power_law_but_covers_every_tenant() {
        let tenants = 16;
        let t = zipf_tenant_skew(64, tenants, 8, 8, 1.3, 7);
        let mut updates = vec![0usize; tenants];
        let mut queried = vec![false; tenants];
        let mut highest = 0;
        for op in &t.ops {
            match op {
                TraceOp::Add { tenant, .. } => updates[*tenant] += 1,
                TraceOp::Query { tenant, .. } => queried[*tenant] = true,
                _ => {}
            }
            if let TraceOp::Add { tenant, .. }
            | TraceOp::Set { tenant, .. }
            | TraceOp::Query { tenant, .. }
            | TraceOp::Refresh { tenant } = op
            {
                highest = highest.max(*tenant);
            }
        }
        // The head must dominate the tail: the hottest tenant sees more
        // traffic than the coldest half combined.
        let hottest = *updates.iter().max().unwrap();
        let cold_half: usize = {
            let mut sorted = updates.clone();
            sorted.sort_unstable();
            sorted[..tenants / 2].iter().sum()
        };
        assert!(
            hottest > cold_half,
            "hottest tenant ({hottest}) must out-traffic the cold half ({cold_half}): {updates:?}"
        );
        // ... but every tenant is still verified at least once.
        assert!(
            queried.iter().all(|&q| q),
            "all tenants queried: {queried:?}"
        );
        assert_eq!(highest, tenants - 1);
    }

    #[test]
    fn region_merging_edges_span_half_the_dimension() {
        let t = region_merging(100, 1, 2, 5, 3);
        for op in &t.ops {
            if let TraceOp::Add { row, col, .. } = op {
                let d = (*col as i64 - *row as i64).rem_euclid(100);
                assert_eq!(d, 50, "edge must reach across the matrix");
            }
        }
    }

    #[test]
    fn oscillating_rounds_cancel() {
        let t = oscillating(32, 1, 4, 5);
        let mut sum = 0.0;
        let mut coords = std::collections::HashSet::new();
        for op in &t.ops {
            if let TraceOp::Add {
                row, col, value, ..
            } = op
            {
                assert_ne!(row, col, "off-diagonal updates only");
                sum += value;
                coords.insert((*row, *col));
            }
        }
        assert_eq!(sum, 0.0, "even round count must return to base content");
        assert!(
            coords.len() <= 4,
            "oscillation reuses a fixed coordinate set"
        );
    }

    #[test]
    fn zipf_bursts_skew_toward_rank_zero() {
        let t = zipf_bursts(64, 4, 60, 1.4, 5, 7);
        let mut per_tenant = [0usize; 4];
        let mut highest = 0;
        for op in &t.ops {
            if let TraceOp::Add { tenant, .. } = op {
                per_tenant[*tenant] += 1;
            }
            if let TraceOp::Add { tenant, .. }
            | TraceOp::Set { tenant, .. }
            | TraceOp::Query { tenant, .. }
            | TraceOp::Refresh { tenant } = op
            {
                highest = highest.max(*tenant);
            }
        }
        assert!(
            per_tenant[0] > per_tenant[3],
            "rank 0 must dominate rank 3: {per_tenant:?}"
        );
        assert!(highest <= 3);
    }
}
