//! `serve-small` and `serve-wide`: the same hub, engine and batcher used
//! two opposite ways. Small requests leave per-request machinery as
//! nearly all of the time; wide requests amortise it 64 ways so data
//! movement and the kernel dominate.

use crate::common::{self, Block, Tally, Window};
use crate::floor::OwnCsr;
use crate::gen::{self, Fnv64, SplitMix64};
use crate::trace::Tracer;
use amd_sparse::CsrMatrix;
use amd_stream::{HubConfig, StreamHub};

/// Shape of a serving workload; op counts are per window.
pub struct Spec {
    pub tenants: usize,
    pub scale: u32,
    pub requests: usize,
    pub width: usize,
    pub iters: u32,
    /// Requests per block; a floor block follows each request block so
    /// slow drift of the host falls on both sides of `floor_ratio`.
    pub block: usize,
}

pub const SMALL: Spec = Spec {
    tenants: 4,
    scale: 10,
    requests: 1000,
    width: 1,
    iters: 2,
    block: 100,
};

pub const WIDE: Spec = Spec {
    tenants: 1,
    scale: 14,
    requests: 24,
    width: 64,
    iters: 2,
    block: 3,
};

/// The generated tenants of a serving workload, in both the
/// benchmark's arrays and the program's type.
pub struct Inputs {
    pub own: Vec<OwnCsr>,
    pub program: Vec<CsrMatrix<f64>>,
    columns: SplitMix64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, fingerprint: &mut Fnv64) -> Self {
        let own: Vec<OwnCsr> = (0..spec.tenants)
            .map(|t| {
                let label = format!("rmat{}/tenant{t}", spec.scale);
                gen::rmat(spec.scale, 8, &mut SplitMix64::stream(seed, &label))
            })
            .collect();
        for a in &own {
            fingerprint.eat_matrix(a);
        }
        // The fingerprint covers the first columns the stream will give.
        let mut preview = SplitMix64::stream(seed, "columns");
        fingerprint.eat_f64s(&gen::column(own[0].n, &mut preview));
        let program = own.iter().map(OwnCsr::to_program).collect();
        Self {
            own,
            program,
            columns: SplitMix64::stream(seed, "columns"),
        }
    }

    fn request_columns(&mut self, tenant: usize, width: usize) -> Vec<Vec<f64>> {
        let n = self.own[tenant].n;
        (0..width)
            .map(|_| gen::column(n, &mut self.columns))
            .collect()
    }
}

/// One window: fresh hub, 5 % warm-up, then `requests` requests
/// round-robin over the tenants in alternating request and floor blocks.
pub fn window(
    spec: &Spec,
    requests: usize,
    inputs: &mut Inputs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Window, String> {
    let to_admit = inputs.program.clone();
    let (hub, setup_s) = tracer.time("setup", None, 0, || -> Result<_, String> {
        let mut hub = StreamHub::new(HubConfig::default()).map_err(|e| format!("hub: {e}"))?;
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

    let exec_before = amd_exec::global().stats();
    let mut silent = Tracer::new(false);
    for i in 0..requests.div_ceil(20) {
        let t = i % spec.tenants;
        let columns = inputs.request_columns(t, spec.width);
        let (answers, _) = common::hub_request(
            &mut hub,
            ids[t],
            columns.clone(),
            spec.iters,
            &mut silent,
            0,
        );
        common::floor_check(
            &inputs.own[t],
            &columns,
            spec.iters,
            &answers,
            &mut silent,
            0,
            tally,
        );
    }

    let mut next = 0usize;
    while next < requests {
        let block: Vec<(usize, Vec<Vec<f64>>)> = (next..requests.min(next + spec.block))
            .map(|i| i % spec.tenants)
            .map(|t| (t, inputs.request_columns(t, spec.width)))
            .collect();
        let mut answered = Vec::with_capacity(block.len());
        let mut sums = Block::default();
        for (offset, (t, columns)) in block.iter().enumerate() {
            let rid = (next + offset + 1) as u64;
            let (answers, seconds) =
                common::hub_request(&mut hub, ids[*t], columns.clone(), spec.iters, tracer, rid);
            w.requests_s.push(seconds);
            sums.queries += spec.width as u64;
            sums.client_s += seconds;
            answered.push(answers);
        }
        for (offset, ((t, columns), answers)) in block.iter().zip(&answered).enumerate() {
            let rid = (next + offset + 1) as u64;
            let floor_s = common::floor_check(
                &inputs.own[*t],
                columns,
                spec.iters,
                answers,
                tracer,
                rid,
                tally,
            );
            w.floor_ratios.push(w.requests_s[next + offset] / floor_s);
        }
        w.blocks.push(sums);
        next += block.len();
    }
    // Counters cover the window's warm-up too; it is as fixed as the rest.
    common::exec_counts(exec_before, &mut w.counts);
    common::hub_counts(&hub, &mut w.counts);
    Ok(w)
}
