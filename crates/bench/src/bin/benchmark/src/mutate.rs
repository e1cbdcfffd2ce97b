//! `mutate-refresh`: writes beside reads. The only workload where
//! `update → trip → refresh → swap`, overlay sync, the delta-corrected
//! multiply, LA-Decompose on a live tenant, the incremental splice and
//! catalog I/O run at all.

use crate::common::{self, Block, Tally, Window};
use crate::floor::{Mirror, OwnCsr};
use crate::gen::{self, Fnv64, SplitMix64};
use crate::stats;
use crate::trace::Tracer;
use amd_engine::EngineConfig;
use amd_sparse::CsrMatrix;
use amd_stream::{HubConfig, StalenessBudget, StreamHub, TenantId, Update};
use std::path::Path;
use std::time::Instant;

/// Op counts are per window. Tenant 0 (`rmat13`) gets uniform updates,
/// which touch too much for a splice and so refresh by cold fallback;
/// tenant 1 (`grid96`) gets updates inside a `span`-vertex window that
/// moves every `move_every` rounds, which refresh by incremental splice.
pub struct Spec {
    pub rounds: usize,
    pub updates: usize,
    pub width: usize,
    pub iters: u32,
    pub verify_every: usize,
    /// Rounds per block (see [`Block`]).
    pub block: usize,
    pub span: u32,
    pub move_every: usize,
}

pub const SPEC: Spec = Spec {
    rounds: 96,
    updates: 256,
    width: 8,
    iters: 1,
    verify_every: 4,
    block: 8,
    span: 256,
    move_every: 20,
};

pub struct Inputs {
    pub own: Vec<OwnCsr>,
    pub program: Vec<CsrMatrix<f64>>,
    updates: SplitMix64,
    columns: SplitMix64,
}

impl Inputs {
    pub fn generate(seed: u64, fingerprint: &mut Fnv64) -> Self {
        let own = vec![
            gen::rmat(13, 8, &mut SplitMix64::stream(seed, "rmat13")),
            gen::grid(96),
        ];
        for a in &own {
            fingerprint.eat_matrix(a);
        }
        let mut preview = SplitMix64::stream(seed, "updates");
        for (r, c) in gen::update_positions(0, own[0].n, SPEC.updates, &mut preview) {
            fingerprint.eat_u32(r);
            fingerprint.eat_u32(c);
        }
        let program = own.iter().map(OwnCsr::to_program).collect();
        Self {
            own,
            program,
            updates: SplitMix64::stream(seed, "updates"),
            columns: SplitMix64::stream(seed, "columns"),
        }
    }
}

/// Times from the `update` that trips the budget with no refresh pending
/// to the first block boundary at which the tenant's version has
/// advanced. A refresh the hub starts on its own when a swap commits has
/// no such `update`, so it is waited out, not timed.
#[derive(Default)]
struct Freshness {
    since: Option<Instant>,
    version: u64,
    blind: bool,
    samples_s: Vec<f64>,
}

impl Freshness {
    fn tripped(&mut self) {
        if self.since.is_none() && !self.blind {
            self.since = Some(Instant::now());
        }
    }

    fn observe(&mut self, hub: &StreamHub, tenant: TenantId) {
        let version = hub.version(tenant).unwrap_or(self.version);
        if version > self.version {
            self.version = version;
            if let Some(since) = self.since.take() {
                self.samples_s.push(since.elapsed().as_secs_f64());
            }
        }
        self.blind = self.since.is_none()
            && hub
                .tenant_stats(tenant)
                .is_ok_and(|s| s.refreshing || s.queued);
    }
}

/// The hub this workload serves from: catalog on, a 2 % staleness
/// budget, everything else the program's default (async refresh).
pub fn hub_config(catalog: &Path) -> HubConfig {
    HubConfig {
        engine: EngineConfig {
            spill_dir: Some(catalog.to_path_buf()),
            ..EngineConfig::default()
        },
        budget: StalenessBudget::nnz_fraction(0.02),
        ..HubConfig::default()
    }
}

/// One window: fresh hub and catalog, 5 % warm-up rounds, then `rounds`
/// rounds of {`updates` updates per tenant, one request per tenant},
/// then `wait_refreshes`. Every `verify_every`-th round is checked
/// against the floor on the benchmark's own mirror of the tenant.
pub fn window(
    rounds: usize,
    inputs: &mut Inputs,
    scratch: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Window, String> {
    let spec = &SPEC;
    let catalog = scratch.join("catalog");
    let _ = std::fs::remove_dir_all(&catalog);
    let to_admit = inputs.program.clone();
    let config = hub_config(&catalog);
    let (hub, setup_s) = tracer.time("setup", None, 0, || -> Result<_, String> {
        let mut hub = StreamHub::new(config).map_err(|e| format!("hub: {e}"))?;
        let ids = to_admit
            .into_iter()
            .map(|a| hub.admit(a).map_err(|e| format!("admit: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((hub, ids))
    });
    let (mut hub, ids) = hub?;
    let mut w = Window {
        setup_s,
        ..Window::default()
    };
    let mut mirrors: Vec<Mirror> = inputs.own.iter().map(Mirror::new).collect();
    let mut fresh = [Freshness::default(), Freshness::default()];
    let mut silent = Tracer::new(false);
    let exec_before = amd_exec::global().stats();
    let warm = rounds.div_ceil(20);
    let (mut updates, mut updates_s) = (0u64, 0.0f64);
    let mut grid_start = 0;

    let mut sums = Block::default();
    for round in 0..warm + rounds {
        let measured = round >= warm;
        let tr: &mut Tracer = if measured { tracer } else { &mut silent };
        if round % spec.move_every == 0 {
            grid_start = inputs.updates.below(inputs.own[1].n - spec.span);
        }
        for t in 0..2 {
            let rid = (round * 4 + t + 1) as u64;
            let positions = if t == 0 {
                gen::update_positions(0, inputs.own[0].n, spec.updates, &mut inputs.updates)
            } else {
                gen::update_positions(grid_start, spec.span, spec.updates, &mut inputs.updates)
            };
            let mut ok = true;
            let block = tr.open("stream.update_block", None, rid);
            for &(row, col) in &positions {
                let update = Update::Add {
                    row,
                    col,
                    delta: 1.0,
                };
                match hub.update(ids[t], update) {
                    Ok(true) => fresh[t].tripped(),
                    Ok(false) => {}
                    Err(e) => {
                        eprintln!("update ({row}, {col}) failed: {e}");
                        ok = false;
                    }
                }
            }
            let seconds = tr.close(block);
            fresh[t].observe(&hub, ids[t]);
            for &(row, col) in &positions {
                mirrors[t].add(row, col, 1.0);
            }
            tally.record(ok);
            if measured {
                sums.client_s += seconds;
                updates_s += seconds;
                updates += positions.len() as u64;
            }
        }
        for t in 0..2 {
            let rid = (round * 4 + t + 3) as u64;
            let columns: Vec<Vec<f64>> = (0..spec.width)
                .map(|_| gen::column(inputs.own[t].n, &mut inputs.columns))
                .collect();
            let (answers, seconds) =
                common::hub_request(&mut hub, ids[t], columns.clone(), spec.iters, tr, rid);
            fresh[t].observe(&hub, ids[t]);
            if measured {
                w.requests_s.push(seconds);
                sums.queries += spec.width as u64;
                sums.client_s += seconds;
            }
            if round % spec.verify_every == 0 {
                let snapshot = mirrors[t].snapshot();
                let floor_s =
                    common::floor_check(&snapshot, &columns, spec.iters, &answers, tr, rid, tally);
                if measured {
                    w.floor_ratios.push(seconds / floor_s);
                }
            } else {
                if let Err(e) = &answers {
                    eprintln!("request {rid} failed: {e}");
                }
                tally.record(answers.is_ok());
            }
        }
        if measured && (round - warm + 1).is_multiple_of(spec.block) {
            w.blocks.push(std::mem::take(&mut sums));
        }
    }
    if sums.queries > 0 {
        w.blocks.push(sums);
    }
    let (drained, drain_s) = tracer.time("stream.refresh_drain", None, 0, || hub.wait_refreshes());
    tally.record(drained.is_ok());
    for (t, f) in fresh.iter_mut().enumerate() {
        f.observe(&hub, ids[t]);
    }

    common::exec_counts(exec_before, &mut w.counts);
    common::hub_counts(&hub, &mut w.counts);
    let freshness: Vec<f64> = fresh.iter().flat_map(|f| &f.samples_s).copied().collect();
    w.counts
        .insert("stream.updates_per_s".into(), updates as f64 / updates_s);
    w.counts.insert(
        "stream.freshness_p50_ms".into(),
        stats::median(&freshness) * 1e3,
    );
    w.counts.insert(
        "stream.freshness_tail_ms".into(),
        stats::tail(&freshness).0 * 1e3,
    );
    w.counts
        .insert("stream.freshness_samples".into(), freshness.len() as f64);
    w.counts
        .insert("stream.refresh_drain_ms".into(), drain_s * 1e3);
    drop(hub);
    let _ = std::fs::remove_dir_all(&catalog);
    Ok(w)
}
