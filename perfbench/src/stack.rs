//! The pieces every workload shares: the explicit server configuration,
//! query generation, the pipelined wire client, the bit-identity oracle
//! and the final-state check phase.

use crate::report::Report;
use crate::trace::{QueryTracer, Spans};
use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::net::client::{range_query, stab_query};
use serve::net::{WireErrorCode, WireQuery, WireReply};
use serve::{ContextPool, ServeConfig, ServerHandle, ShardedStore, SketchClient, SketchService};
use sketch::{BatchQuery, Estimate, QueryContext, RangeQuery, SketchSet};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the sketches' random ξ families. Fixed, like a deployed
/// system's configuration: `--seed` varies the inputs, not the program.
pub const SCHEMA_SEED: u64 = 0x5eed_5c4e;

/// How a client loads the server: connections (one generator thread
/// drives them all, so load never needs more threads or connections than
/// the two cores the benchmark is sized for) and frames in flight on each.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub conns: usize,
    pub depth: usize,
}

/// The check phases' load: batch-of-1 frames, deep enough that the server
/// never parks between them.
pub const CHECK_LOAD: Load = Load {
    conns: 2,
    depth: 16,
};

/// Every server knob spelled out, so no environment variable can change
/// the program under test. One worker and one reactor: with the client and
/// feed threads that already fills two cores. `max_batch` is how many
/// queued queries the worker answers in one pass (1: one at a time).
pub fn serve_config(max_batch: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch,
        queue_capacity: 256,
        fault_injection: false,
        reactors: 1,
        coalesce_us: 0,
        write_buf_cap: 1 << 20,
        max_pipeline: 128,
    }
}

/// Derives an independent stream seed for one input from the run seed.
pub fn rng(seed: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(datagen::rng::derive_seed(seed, label))
}

/// A range or stab query against one store of the service's table.
#[derive(Debug, Clone, Copy)]
pub enum Q {
    Range(HyperRect<2>),
    Stab([u64; 2]),
}

impl Q {
    /// A query with the shape the repo's probes use: ranges with sides of
    /// n/8 + U[0, n/4) (large enough for the estimate to carry signal) and
    /// one stab in four.
    pub fn random(rng: &mut StdRng, bits: u32) -> Self {
        let n = 1u64 << bits;
        if rng.gen_range(0..4) == 0 {
            return Q::Stab([rng.gen_range(0..n), rng.gen_range(0..n)]);
        }
        let side = n / 8 + rng.gen_range(0..n / 4);
        let x = rng.gen_range(0..n - side - 1);
        let y = rng.gen_range(0..n - side - 1);
        Q::Range(HyperRect::new([
            Interval::new(x, x + side),
            Interval::new(y, y + side),
        ]))
    }

    pub fn wire(&self, store: u32) -> WireQuery {
        match self {
            Q::Range(r) => range_query(store, r),
            Q::Stab(p) => stab_query(store, p),
        }
    }

    pub fn batch(&self) -> BatchQuery<2> {
        match self {
            Q::Range(r) => BatchQuery::Range(*r),
            Q::Stab(p) => BatchQuery::Stab(*p),
        }
    }

    /// The exact answer over `live`, from the `exact` crate for ranges.
    pub fn exact(&self, live: &[HyperRect<2>]) -> u64 {
        match self {
            Q::Range(r) => exact::naive::range_count(live, r),
            Q::Stab(p) => live.iter().filter(|o| o.contains_point(p)).count() as u64,
        }
    }

    /// The in-process answer over an unsharded sketch.
    pub fn oracle(
        &self,
        rq: &RangeQuery<2>,
        ctx: &mut QueryContext,
        sk: &SketchSet<2>,
    ) -> Estimate {
        match self {
            Q::Range(r) => rq.estimate_with(ctx, sk, r),
            Q::Stab(p) => rq.estimate_stab_with(ctx, sk, p),
        }
        .expect("oracle estimate over a validated query")
    }
}

/// One frame of a schedule: its wire queries and, for tracing, the same
/// queries in estimator form (`None` for a join).
pub struct Frame {
    pub wire: Vec<WireQuery>,
    pub queries: Vec<(u32, Option<Q>)>,
}

impl Frame {
    pub fn of(store: u32, qs: &[Q]) -> Self {
        Self {
            wire: qs.iter().map(|q| q.wire(store)).collect(),
            queries: qs.iter().map(|q| (store, Some(*q))).collect(),
        }
    }

    pub fn join(r_store: u32, s_store: u32) -> Self {
        Self {
            wire: vec![WireQuery::Join { r_store, s_store }],
            queries: vec![(r_store, None)],
        }
    }

    pub fn is_join(&self) -> bool {
        matches!(self.wire[0], WireQuery::Join { .. })
    }
}

/// Whether a wire reply is bit-identical (value and row means) to the
/// oracle's estimate.
pub fn same(reply: &WireReply, want: &Estimate) -> bool {
    match reply {
        WireReply::Estimate { value, row_means } => {
            value.to_bits() == want.value.to_bits()
                && row_means.len() == want.row_means.len()
                && row_means
                    .iter()
                    .zip(&want.row_means)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }
        _ => false,
    }
}

/// Counts error replies (sheds included) as failed operations.
pub fn count_errors(report: &mut Report, replies: &[WireReply]) {
    for r in replies {
        if let WireReply::Error { code, message } = r {
            let kind = if *code == WireErrorCode::Overloaded {
                "shed"
            } else {
                "error reply"
            };
            report.fail(format!("{kind}: {message}"));
        }
    }
}

/// A served stack: the server, and what the benchmark keeps to drive and
/// trace it.
pub struct Served {
    pub server: ServerHandle,
    pub service: Arc<SketchService<2>>,
    pub pool: Arc<ContextPool<2>>,
    /// Connections, opened on first use; the first answered the setup's
    /// first frame.
    clients: Vec<SketchClient>,
}

impl Served {
    /// Closes the client connections (the next `drive` reopens them). An
    /// open connection, even an idle one, keeps the reactor sweeping every
    /// 100 µs.
    pub fn disconnect(&mut self) {
        self.clients.clear();
    }
}

/// Binds a server over `service` and waits for the first answered frame.
pub fn serve_first(service: SketchService<2>, first: &WireQuery, config: &ServeConfig) -> Served {
    let service = Arc::new(service);
    let pool = Arc::new(ContextPool::new(config.workers));
    let server = serve::net::serve(Arc::clone(&service), Arc::clone(&pool), config, 0)
        .expect("bind loopback server");
    let mut client = SketchClient::connect(server.local_addr()).expect("connect");
    let replies = client
        .query_batch(std::slice::from_ref(first))
        .expect("first frame");
    assert!(
        matches!(replies[0], WireReply::Estimate { .. }),
        "first frame answered with {:?}",
        replies[0]
    );
    Served {
        server,
        service,
        pool,
        clients: vec![client],
    }
}

/// Bulk-loads `data` through `ShardedStore::insert_slice` in fixed chunks,
/// recording the latency in µs of each call with a full chunk (the short
/// last one costs a fraction of the others and would be read as the fast
/// end of the distribution).
pub fn bulk_load(
    store: &ShardedStore<2>,
    data: &[HyperRect<2>],
    chunk: usize,
    lat_us: &mut Vec<f64>,
) {
    for c in data.chunks(chunk) {
        let t = Instant::now();
        store.insert_slice(c).expect("bulk load within the domain");
        if c.len() == chunk {
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// What one pass of the wire client measured.
#[derive(Default)]
pub struct WireRun {
    /// Round trip of every frame, µs.
    pub frame_us: Vec<f64>,
    /// Round trip of join frames only, µs.
    pub join_us: Vec<f64>,
    pub queries: u64,
    /// (seconds since the first submit, queries answered so far) after
    /// each frame, from (0, 0): the completion curve rates are cut from.
    pub completed: Vec<(f64, u64)>,
}

/// Drives `frames` frames from `make` under `load`, from the calling
/// thread (closed loop: a connection's next frame waits for a free slot in
/// its window). `check`
/// sees every completed frame with its replies; `tracer`, when given,
/// re-answers every `stride`-th frame in-process down the layers.
pub fn drive(
    served: &mut Served,
    load: Load,
    frames: usize,
    mut make: impl FnMut(usize) -> Frame,
    mut check: impl FnMut(usize, &Frame, &[WireReply]),
    mut tracer: Option<(&mut QueryTracer, &mut Spans, usize)>,
) -> WireRun {
    while served.clients.len() < load.conns {
        let addr = served.server.local_addr();
        served
            .clients
            .push(SketchClient::connect(addr).expect("connect"));
    }
    let clients = &mut served.clients;
    let mut windows: Vec<VecDeque<(serve::net::client::Ticket, Instant, usize, Frame)>> =
        (0..load.conns).map(|_| VecDeque::new()).collect();
    let start = Instant::now();
    let mut run = WireRun {
        completed: vec![(0.0, 0)],
        ..WireRun::default()
    };
    let mut seen = [0usize; 2];
    let mut complete =
        |c: &mut SketchClient,
         (ticket, t0, i, frame): (serve::net::client::Ticket, Instant, usize, Frame),
         run: &mut WireRun| {
            let replies = c.collect(ticket).expect("collect frame");
            let t1 = Instant::now();
            let us = (t1 - t0).as_secs_f64() * 1e6;
            run.frame_us.push(us);
            if frame.is_join() {
                run.join_us.push(us);
            }
            run.queries += replies.len() as u64;
            run.completed
                .push(((t1 - start).as_secs_f64(), run.queries));
            check(i, &frame, &replies);
            if let Some((tr, spans, stride)) = tracer.as_mut() {
                // Every `stride`-th frame of each kind, so the sample keeps
                // the schedule's mix of range and join frames.
                let seen = &mut seen[usize::from(frame.is_join())];
                if *seen % *stride == 0 {
                    tr.frame(spans, i as u64, t0, t1, &frame);
                }
                *seen += 1;
            }
        };
    for i in 0..frames {
        let c = i % load.conns;
        if windows[c].len() >= load.depth {
            let done = windows[c].pop_front().expect("full window");
            complete(&mut clients[c], done, &mut run);
        }
        let frame = make(i);
        let t0 = Instant::now();
        let ticket = clients[c].submit(&frame.wire).expect("submit frame");
        windows[c].push_back((ticket, t0, i, frame));
    }
    for (c, window) in windows.iter_mut().enumerate() {
        while let Some(done) = window.pop_front() {
            complete(&mut clients[c], done, &mut run);
        }
    }
    run
}

/// One relation of the final-state check.
pub struct Relation<'a> {
    pub store: u32,
    pub live: &'a [HyperRect<2>],
    pub oracle: &'a SketchSet<2>,
    pub sample: &'a [Q],
}

/// The check phase: sends each relation's sample in frames of `batch`
/// queries under `load`, `repeats` times;
/// requires every reply to be bit-identical to the unsharded oracle, and
/// returns the selectivity errors against the exact answers
/// (|estimate - exact| / live objects) with the wire timings.
#[allow(clippy::too_many_arguments)]
pub fn check_phase(
    report: &mut Report,
    served: &mut Served,
    rq: &RangeQuery<2>,
    relations: &[Relation],
    repeats: usize,
    batch: usize,
    load: Load,
    tracer: Option<(&mut QueryTracer, &mut Spans, usize)>,
) -> (Vec<f64>, WireRun) {
    let mut ctx = QueryContext::new();
    let mut frames: Vec<(u32, &[Q], Vec<Estimate>)> = Vec::new();
    let mut sel_err = Vec::new();
    for rel in relations {
        let n = rel.live.len().max(1) as f64;
        for qs in rel.sample.chunks(batch) {
            let wants = qs
                .iter()
                .map(|q| {
                    let want = q.oracle(rq, &mut ctx, rel.oracle);
                    sel_err.push((want.value - q.exact(rel.live) as f64).abs() / n);
                    want
                })
                .collect();
            frames.push((rel.store, qs, wants));
        }
    }
    let total = frames.len() * repeats;
    let mut errors = Vec::new();
    let mut mismatches = 0u64;
    let run = drive(
        served,
        load,
        total,
        |i| {
            let (store, qs, _) = &frames[i % frames.len()];
            Frame::of(*store, qs)
        },
        |i, _, replies| {
            for (reply, want) in replies.iter().zip(&frames[i % frames.len()].2) {
                if matches!(reply, WireReply::Error { .. }) {
                    errors.push(reply.clone());
                } else if !same(reply, want) {
                    mismatches += 1;
                }
            }
        },
        tracer,
    );
    report.attempted += run.queries;
    count_errors(report, &errors);
    for _ in 0..mismatches {
        report.fail("wire answer differs from the unsharded oracle");
    }
    (sel_err, run)
}

/// How long before a due time an open-loop generator stops sleeping and
/// spins: waking from a sleep takes tens of µs on a virtual machine, more
/// or less depending on how idle the core was, and that wake-up belongs to
/// the generator, not to the call it times.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(300);

/// Sleeps until just before `due` and spins to it, returning how late the
/// caller reached it (µs).
pub fn sleep_until(due: Instant) -> f64 {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN_BEFORE_DUE) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6
}
