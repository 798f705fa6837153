//! The traced run's instruments. Spans are recorded from the benchmark's
//! own code around calls into each layer's public functions, kept in
//! memory and written out when the run ends.
//!
//! A sampled wire frame is re-answered in-process down the layers, each
//! with a context of its own so its plan cache and merged views see the
//! same query stream the server's do:
//!
//! ```text
//! frame (wire round trip)
//! └─ service   SketchService::answer_batch under ContextPool::with
//!    └─ router QueryRouter::estimate_batch / estimate_join
//!       └─ estimator RangeQuery::estimate_batch_with / SpatialJoin::estimate_with
//! ```
//!
//! The calls run one after another, not nested, so a layer's self time is
//! its span minus its child's span on the same frame; the frame's
//! remainder after the service span is the network path (codec, reactor,
//! queue, socket) and, with frames pipelined, the wait behind earlier
//! frames. Per-query spans beside the chain time the single-query
//! router path, the unboosted `estimate_partial_with` and the boosting
//! step on its grid (`PartialEstimate::boost`). Boosting is timed directly:
//! `estimate_with` minus `estimate_partial_with` would also subtract the
//! partial path's grid copy, which costs more than the median-of-means
//! at 160 instances and turns the difference negative.

use crate::report::{mean, Report};
use crate::stack::{Frame, Q};
use serve::{ContextPool, QueryRouter, ShardedStore, SketchService, WorkerContext};
use sketch::{QueryContext, RangeQuery, SketchSet, SpatialJoin};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// One thread's spans. Ids are indices into the thread's own list.
pub struct Spans {
    pub thread: &'static str,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(thread: &'static str) -> Self {
        Self {
            thread,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            req,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result, duration (ns) and id.
    pub fn time<R>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(req, name, parent, start, end);
        (out, (end - start).as_nanos() as f64, id)
    }
}

/// Writes every thread's spans as tab-separated rows (thread, request, id,
/// parent, name, start ns, end ns; times relative to `epoch`).
pub fn write_spans(
    path: &std::path::Path,
    epoch: Instant,
    all: &[&Spans],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\treq\tid\tparent\tname\tstart_ns\tend_ns")?;
    let mut rows = 0;
    for spans in all {
        for (id, s) in spans.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                spans.thread,
                s.req,
                s.name,
                s.start.saturating_duration_since(epoch).as_nanos(),
                s.end.saturating_duration_since(epoch).as_nanos()
            )?;
            rows += 1;
        }
    }
    out.flush()?;
    Ok(rows)
}

/// Re-answers sampled frames down the public layers and accumulates each
/// layer's timings.
pub struct QueryTracer {
    service: Arc<SketchService<2>>,
    rq: RangeQuery<2>,
    join: Option<SpatialJoin<2>>,
    instances: f64,
    pool: ContextPool<2>,
    router: QueryRouter,
    router_ctx: WorkerContext<2>,
    estimator_ctx: QueryContext,
    single_router_ctx: WorkerContext<2>,
    join_router_ctx: WorkerContext<2>,
    join_ctx: QueryContext,
    single_ctx: QueryContext,
    partial_ctx: QueryContext,
    /// Merged view per store index, rebuilt when the store's epoch moves.
    views: Vec<Option<(u64, SketchSet<2>)>>,
    // Accumulators (µs unless named otherwise).
    frame: Vec<f64>,
    net: Vec<f64>,
    service_us: Vec<f64>,
    service_self: Vec<f64>,
    router_batch: Vec<f64>,
    router_self: Vec<f64>,
    estimator: Vec<f64>,
    batch_ns_per_q_inst: Vec<f64>,
    router_single: Vec<f64>,
    single_ns_per_inst: Vec<f64>,
    boost_ns: Vec<f64>,
    view_merge: Vec<f64>,
    join_estimate: Vec<f64>,
}

impl QueryTracer {
    pub fn new(
        service: Arc<SketchService<2>>,
        rq: RangeQuery<2>,
        join: Option<SpatialJoin<2>>,
    ) -> Self {
        let instances = rq.schema().instances() as f64;
        let stores = service.stores().len();
        Self {
            service,
            rq,
            join,
            instances,
            pool: ContextPool::new(1),
            router: QueryRouter::new(),
            router_ctx: WorkerContext::new(),
            estimator_ctx: QueryContext::new(),
            single_router_ctx: WorkerContext::new(),
            join_router_ctx: WorkerContext::new(),
            join_ctx: QueryContext::new(),
            single_ctx: QueryContext::new(),
            partial_ctx: QueryContext::new(),
            views: (0..stores).map(|_| None).collect(),
            frame: Vec::new(),
            net: Vec::new(),
            service_us: Vec::new(),
            service_self: Vec::new(),
            router_batch: Vec::new(),
            router_self: Vec::new(),
            estimator: Vec::new(),
            batch_ns_per_q_inst: Vec::new(),
            router_single: Vec::new(),
            single_ns_per_inst: Vec::new(),
            boost_ns: Vec::new(),
            view_merge: Vec::new(),
            join_estimate: Vec::new(),
        }
    }

    fn store(&self, index: u32) -> Arc<ShardedStore<2>> {
        Arc::clone(&self.service.stores()[index as usize])
    }

    /// The merged view of a store, timing `QueryRouter::collect` whenever
    /// the store has published a new epoch since the last look.
    fn view(&mut self, spans: &mut Spans, req: u64, parent: usize, index: u32) -> &SketchSet<2> {
        let store = self.store(index);
        let tag = store.epoch_tag();
        let slot = &mut self.views[index as usize];
        if slot.as_ref().is_none_or(|(t, _)| *t != tag) {
            let (view, ns, _) = spans.time(req, "router.collect", Some(parent), || {
                self.router
                    .collect(&store, None)
                    .expect("collect merged view")
            });
            self.view_merge.push(ns / 1e3);
            *slot = Some((tag, view));
        }
        &slot.as_ref().expect("view just ensured").1
    }

    /// Re-answers one completed frame in-process; `t0`/`t1` bound its wire
    /// round trip.
    pub fn frame(&mut self, spans: &mut Spans, req: u64, t0: Instant, t1: Instant, frame: &Frame) {
        let frame_id = spans.record(req, "frame", None, t0, t1);
        let rtt = (t1 - t0).as_secs_f64() * 1e6;
        let refs: Vec<&serve::net::WireQuery> = frame.wire.iter().collect();
        let (_, svc_ns, svc_id) = spans.time(req, "service.answer_batch", Some(frame_id), || {
            self.pool
                .with(|ctx| self.service.answer_batch(ctx, &refs, false))
        });
        let (router_ns, est_ns) = if frame.is_join() {
            self.join_chain(spans, req, svc_id, frame)
        } else {
            self.range_chain(spans, req, svc_id, frame)
        };
        let svc = svc_ns / 1e3;
        self.frame.push(rtt);
        self.net.push(rtt - svc);
        if !frame.is_join() {
            self.service_us.push(svc);
        }
        self.service_self.push(svc - router_ns / 1e3);
        self.router_self.push((router_ns - est_ns) / 1e3);
        self.estimator.push(est_ns / 1e3);
    }

    fn join_chain(
        &mut self,
        spans: &mut Spans,
        req: u64,
        parent: usize,
        frame: &Frame,
    ) -> (f64, f64) {
        let serve::net::WireQuery::Join { r_store, s_store } = frame.wire[0] else {
            unreachable!("join chain on a non-join frame")
        };
        let join = self
            .join
            .clone()
            .expect("join frames need a join estimator");
        let (r, s) = (self.store(r_store), self.store(s_store));
        let (_, router_ns, router_id) =
            spans.time(req, "router.estimate_join", Some(parent), || {
                self.router
                    .estimate_join(&join, &r, &s, &mut self.join_router_ctx)
                    .expect("routed join")
            });
        let r_view = self.view(spans, req, router_id, r_store).clone();
        let s_view = self.view(spans, req, router_id, s_store).clone();
        let ctx = &mut self.join_ctx;
        let (_, est_ns, _) = spans.time(req, "join.estimate_with", Some(router_id), || {
            join.estimate_with(ctx, &r_view, &s_view)
                .expect("join estimate")
        });
        self.join_estimate.push(est_ns / 1e3);
        (router_ns, est_ns)
    }

    fn range_chain(
        &mut self,
        spans: &mut Spans,
        req: u64,
        parent: usize,
        frame: &Frame,
    ) -> (f64, f64) {
        // Frames address one store each in every workload.
        let store_index = frame.queries[0].0;
        let store = self.store(store_index);
        let qs: Vec<Q> = frame.queries.iter().filter_map(|(_, q)| *q).collect();
        let batch: Vec<sketch::BatchQuery<2>> = qs.iter().map(Q::batch).collect();
        let (_, router_ns, router_id) =
            spans.time(req, "router.estimate_batch", Some(parent), || {
                self.router
                    .estimate_batch(&self.rq, &store, &mut self.router_ctx, &batch)
            });
        self.router_batch.push(router_ns / 1e3);
        let view = self.view(spans, req, router_id, store_index).clone();
        let (_, est_ns, _) = spans.time(req, "range.estimate_batch_with", Some(router_id), || {
            self.rq
                .estimate_batch_with(&mut self.estimator_ctx, &view, &batch)
        });
        self.batch_ns_per_q_inst
            .push(est_ns / (qs.len() as f64 * self.instances));
        // The single-query path beside the chain.
        for q in &qs {
            let (_, single_router_ns, single_id) =
                spans.time(req, "router.estimate_single", Some(parent), || match q {
                    Q::Range(r) => {
                        self.router
                            .estimate_range(&self.rq, &store, &mut self.single_router_ctx, r)
                    }
                    Q::Stab(p) => {
                        self.router
                            .estimate_stab(&self.rq, &store, &mut self.single_router_ctx, p)
                    }
                });
            self.router_single.push(single_router_ns / 1e3);
            let (_, single_ns, single_span) =
                spans.time(req, "range.estimate_with", Some(single_id), || match q {
                    Q::Range(r) => self.rq.estimate_with(&mut self.single_ctx, &view, r),
                    Q::Stab(p) => self.rq.estimate_stab_with(&mut self.single_ctx, &view, p),
                });
            self.single_ns_per_inst.push(single_ns / self.instances);
            let (partial, _, partial_span) = spans.time(
                req,
                "range.estimate_partial_with",
                Some(single_span),
                || match q {
                    Q::Range(r) => self
                        .rq
                        .estimate_partial_with(&mut self.partial_ctx, &view, r),
                    Q::Stab(p) => {
                        self.rq
                            .estimate_stab_partial_with(&mut self.partial_ctx, &view, p)
                    }
                },
            );
            let partial = partial.expect("partial estimate");
            let (_, boost_ns, _) =
                spans.time(req, "partial.boost", Some(partial_span), || partial.boost());
            self.boost_ns.push(boost_ns);
        }
        (router_ns, est_ns)
    }

    /// Each re-answered frame's round trip minus its `answer_batch`, µs.
    pub fn net_us(&self) -> &[f64] {
        &self.net
    }

    /// Moves the accumulated layer timings into the report.
    pub fn report(&self, report: &mut Report) {
        report.pct("service.answer_batch_p50_us", &self.service_us, 0.5);
        if !self.router_batch.is_empty() {
            report.pct("router.batch_p50_us", &self.router_batch, 0.5);
            report.pct("router.single_p50_us", &self.router_single, 0.5);
            report.pct(
                "range.batch_ns_per_query_inst",
                &self.batch_ns_per_q_inst,
                0.5,
            );
            report.pct("range.single_ns_per_inst", &self.single_ns_per_inst, 0.5);
            report.pct("boost.p50_ns", &self.boost_ns, 0.5);
        }
        if !self.join_estimate.is_empty() {
            report.pct("join.estimate_p50_us", &self.join_estimate, 0.5);
        }
        if self.view_merge.len() >= 20 {
            report.pct("context.view_merge_us", &self.view_merge, 0.5);
        } else if !self.view_merge.is_empty() {
            report.scalar(
                "context.view_merge_us",
                mean(&self.view_merge),
                self.view_merge.len(),
            );
        }
        // Means, so the layers sum exactly to the frame.
        let n = self.frame.len();
        report.scalar("trace.frame_mean_us", mean(&self.frame), n);
        report.scalar("trace.net_self_us", mean(&self.net), n);
        report.scalar("trace.service_self_us", mean(&self.service_self), n);
        report.scalar("trace.router_self_us", mean(&self.router_self), n);
        report.scalar("trace.estimator_us", mean(&self.estimator), n);
        report.scalar("trace.sampled_frames", n as f64, n);
    }

    /// The breakdown table: layer self times summing to the mean frame.
    pub fn print_breakdown(&self) {
        let n = self.frame.len();
        if n == 0 {
            return;
        }
        let total = mean(&self.frame);
        let rows = [
            ("net+queue (frame - service)", mean(&self.net)),
            ("service self", mean(&self.service_self)),
            ("router self", mean(&self.router_self)),
            ("estimator", mean(&self.estimator)),
        ];
        println!("-- traced breakdown over {n} sampled frames (mean µs) --");
        for (name, v) in rows {
            println!("  {name:<28} {v:>10.2}  {:>5.1}%", 100.0 * v / total);
        }
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        println!("  {:<28} {sum:>10.2}  (frame mean {total:.2})", "sum");
    }
}

/// Decomposes one store ingest call from outside: for each shard the call
/// touched, `SketchSet::clone` of that shard and `SketchSet::update_slice`
/// of its group on the clone. The call's remainder is the publish step
/// (epoch assembly, swap, journal append).
pub struct IngestTracer {
    instances: f64,
    pub clone_us: Vec<f64>,
    pub apply_ns_per_obj_inst: Vec<f64>,
    pub publish_us: Vec<f64>,
}

impl IngestTracer {
    pub fn new(instances: usize) -> Self {
        Self {
            instances: instances as f64,
            clone_us: Vec::new(),
            apply_ns_per_obj_inst: Vec::new(),
            publish_us: Vec::new(),
        }
    }

    /// `call` spans the real `insert_slice`/`delete_slice` that applied
    /// `rects` with `delta`.
    pub fn decompose(
        &mut self,
        spans: &mut Spans,
        req: u64,
        call: usize,
        store: &ShardedStore<2>,
        rects: &[geometry::HyperRect<2>],
        delta: i64,
    ) {
        let epoch = store.load();
        let partition = epoch.partition();
        let mut groups: Vec<Vec<geometry::HyperRect<2>>> = vec![Vec::new(); epoch.shards().len()];
        for r in rects {
            groups[partition.shard_of(r.range(0).lo())].push(*r);
        }
        let (mut clone_ns, mut apply_ns) = (0.0, 0.0);
        for (s, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let sketch = epoch.shards()[s].sketch();
            let (mut copy, ns, _) = spans.time(req, "sketch.clone", Some(call), || sketch.clone());
            clone_ns += ns;
            self.clone_us.push(ns / 1e3);
            let (_, ns, _) = spans.time(req, "sketch.update_slice", Some(call), || {
                copy.update_slice(group, delta)
                    .expect("re-apply a validated group")
            });
            apply_ns += ns;
            self.apply_ns_per_obj_inst
                .push(ns / (group.len() as f64 * self.instances));
        }
        let call_span = &spans.spans[call];
        let call_ns = (call_span.end - call_span.start).as_nanos() as f64;
        self.publish_us.push((call_ns - clone_ns - apply_ns) / 1e3);
    }

    pub fn report(&self, report: &mut Report) {
        report.pct("store.stage_clone_p50_us", &self.clone_us, 0.5);
        report.pct(
            "atomic.apply_ns_per_obj_inst",
            &self.apply_ns_per_obj_inst,
            0.5,
        );
        report.pct("store.publish_us", &self.publish_us, 0.5);
    }
}
