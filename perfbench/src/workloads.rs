//! The three workloads. Each builds its stack several times (setup time
//! is the median), drives a count-based schedule sized from
//! `--seconds`, then checks the final state against the unsharded oracle
//! and the exact answers.

use crate::feed;
use crate::report::{peak_rss_mb, Report, FAST_Q};
use crate::stack::{self, check_phase, Frame, Load, Relation, Served, Q, SCHEMA_SEED};
use crate::trace::{IngestTracer, QueryTracer, Spans};
use crate::Args;
use geometry::HyperRect;
use rand::{Rng, SeedableRng};
use serve::net::WireReply;
use serve::{ServeConfig, ShardedStore, SketchService};
use sketch::estimators::SketchConfig;
use sketch::{EndpointStrategy, LogRetention, RangeQuery, RangeStrategy, SketchSet, SpatialJoin};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of each workload's data set. The relations are fixed, like the
/// paper's maps: `--seed` draws the traffic (hot set, schedule, queries,
/// feed), so run-to-run spread measures the program, not a new data set's
/// sketch error.
const DATA_SEED: u64 = 2004;
/// Every frame's replies are checked; every `TRACE_STRIDE`-th frame (and
/// feed tick) is re-answered down the layers in a traced run.
const TRACE_STRIDE: usize = 16;
const BITS: u32 = datagen::GIS_DOMAIN_BITS;

/// The paper's §6.5 adaptive `maxLevel`, computed the way the figure
/// binaries do, at `k1 × k2` instances.
fn config(data: &[&[HyperRect<2>]], k1: usize, k2: usize) -> SketchConfig {
    let extent = spatial_bench::runner::mean_sketch_extent(data);
    SketchConfig {
        max_level: Some(sketch::plan::adaptive_max_level(extent, BITS + 2)),
        ..SketchConfig::new(k1, k2)
    }
}

fn range_estimator(cfg: SketchConfig) -> RangeQuery<2> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SCHEMA_SEED);
    RangeQuery::new(&mut rng, cfg, [BITS, BITS], RangeStrategy::Transform)
}

fn oracle_of(proto: SketchSet<2>, live: &[HyperRect<2>]) -> SketchSet<2> {
    let mut sk = proto;
    sketch::par_insert_batch(&mut sk, live, 2).expect("oracle build");
    sk
}

/// Runs `build` `reps` times, keeping the last stack. Reports the median
/// setup and its build/serve split.
fn setup_reps<T>(
    report: &mut Report,
    reps: usize,
    mut build: impl FnMut() -> (T, Duration, Duration),
) -> T {
    let mut total = Vec::new();
    let mut builds = Vec::new();
    let mut serves = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        // Drop the previous stack first so setups do not overlap in memory.
        drop(kept.take());
        let (stack, build_t, serve_t) = build();
        total.push((build_t + serve_t).as_secs_f64());
        builds.push(build_t.as_secs_f64());
        serves.push(serve_t.as_secs_f64());
        kept = Some(stack);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    report.note(
        "setup_times_s",
        total
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.scalar("setup_s", median(&mut total), reps);
    report.scalar("setup.build_s", median(&mut builds), reps);
    report.scalar("setup.serve_s", median(&mut serves), reps);
    kept.expect("at least one setup")
}

/// The server's counters at one instant: its wire stats and the serving
/// context's plan-cache counts.
#[derive(Clone, Copy)]
struct Counters(serve::ServeStats, sketch::PlanCacheReport);

impl Counters {
    fn of(served: &Served) -> Self {
        Self(
            served.server.stats(),
            served.pool.with(|ctx| ctx.query.plan_cache_report()),
        )
    }
}

/// The main traffic's share of the server's counters (`after` minus
/// `before`, so the check and probe phases stay out): realized batch size,
/// shed share (sheds are also counted as failed operations) and the plan
/// caches' hit ratios.
fn server_stats(report: &mut Report, before: Counters, after: Counters) {
    let served = after.0.served - before.0.served;
    let batches = after.0.batches - before.0.batches;
    let shed = after.0.shed - before.0.shed;
    report.scalar(
        "net.coalesce_factor",
        served as f64 / batches.max(1) as f64,
        batches as usize,
    );
    report.scalar(
        "net.shed_ratio",
        shed as f64 / (served + shed).max(1) as f64,
        (served + shed) as usize,
    );
    let ratio =
        |name, a: sketch::PlanCacheStats, b: sketch::PlanCacheStats, report: &mut Report| {
            let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
            report.scalar(
                name,
                hits as f64 / (hits + misses).max(1) as f64,
                (hits + misses) as usize,
            );
        };
    ratio(
        "query.plan_hit_ratio",
        after.1.single,
        before.1.single,
        report,
    );
    ratio(
        "query.multi_plan_hit_ratio",
        after.1.multi,
        before.1.multi,
        report,
    );
}

fn describe(
    report: &mut Report,
    args: &Args,
    rq: &RangeQuery<2>,
    cfg: SketchConfig,
    shards: usize,
    serve: &ServeConfig,
    load: Load,
) {
    let instances = rq.schema().instances();
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("instances", instances);
    report.note("max_level", cfg.max_level.expect("adaptive maxLevel"));
    report.note("shards", shards);
    report.note(
        "lane_width",
        sketch::kernel::preferred_lane_width(instances),
    );
    report.note("serve_config", format!("{serve:?}"));
    report.note("load", format!("{load:?}"));
}

/// Ends a run: the tracers' layer timings go into the report, the server stops, and a traced run writes its spans.
fn finish(
    report: &mut Report,
    served: Served,
    tracers: (Option<&QueryTracer>, Option<&IngestTracer>),
    spans: &[&Spans],
    epoch: Instant,
    args: &Args,
) {
    if let Some(tr) = tracers.0 {
        tr.report(report);
        tr.print_breakdown();
    }
    if let Some(tr) = tracers.1 {
        tr.report(report);
    }
    served.server.shutdown();
    report.scalar("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), 1);
    if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match crate::trace::write_spans(&path, epoch, spans) {
            Ok(rows) => report.note("spans", format!("{rows} rows in {}", path.display())),
            Err(e) => report.problems.push(format!("writing spans: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// optimizer-hot

/// Frames per second of `--seconds`, about as many as a busy host answers
/// (a closed loop: the schedule is a fixed frame count, the window is
/// what it takes: 8–11 s per 10 s of `--seconds` on the reference box).
const HOT_FRAMES_PER_S: usize = 3_000;
/// Range/stab queries per frame; every `JOIN_EVERY`-th frame is a join.
const HOT_BATCH: usize = 8;
const JOIN_EVERY: usize = 8;
/// Distinct frames per range store: 2 stores × 3 frames × 8 queries = 48
/// distinct queries, inside the 64-entry plan cache.
const HOT_FRAMES_PER_STORE: usize = 3;
/// Two connections, a few frames in flight on each: an optimizer
/// pipelines its probes.
const HOT_LOAD: Load = Load { conns: 2, depth: 4 };
/// Queued queries the worker answers in one pass: two frames' worth.
const HOT_MAX_BATCH: usize = 16;
/// Setups per run: `setup_s` is their median. The workloads with
/// sub-second setups take nine.
const HOT_SETUPS: usize = 3;
const SETUPS: usize = 9;
/// Queries in the fixed accuracy and bit-identity sample.
const ACCURACY_SAMPLE: usize = 1024;

pub fn optimizer_hot(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let lando = datagen::lando(DATA_SEED);
    let soil = datagen::soil(DATA_SEED);
    let cfg = config(&[&lando, &soil], 203, 5);
    let rq = range_estimator(cfg);
    let join = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(SCHEMA_SEED + 1);
        SpatialJoin::<2>::new(&mut rng, cfg, [BITS, BITS], EndpointStrategy::Transform)
    };
    let serve_cfg = stack::serve_config(HOT_MAX_BATCH);
    describe(&mut report, args, &rq, cfg, 2, &serve_cfg, HOT_LOAD);

    // Store table: 0/1 range sketches of LANDO/SOIL, 2/3 their join sides.
    // The hot set is fixed like the data; `--seed` orders the frames.
    let mut hot_rng = stack::rng(DATA_SEED, "hot-set");
    let hot: Vec<(u32, Vec<Q>)> = (0..2 * HOT_FRAMES_PER_STORE)
        .map(|f| {
            let qs = (0..HOT_BATCH)
                .map(|_| Q::random(&mut hot_rng, BITS))
                .collect();
            ((f % 2) as u32, qs)
        })
        .collect();
    // Bulk-load call latencies (full chunks), in call order over every
    // setup: calls of 512 objects cost about the same on the range and the
    // join sketches.
    const LOAD_CHUNK: usize = 512;
    let mut load_us = Vec::new();
    let mut served = setup_reps(&mut report, HOT_SETUPS, || {
        let t = Instant::now();
        let load = |proto: SketchSet<2>, data: &[HyperRect<2>], lat: &mut Vec<f64>| {
            let store = ShardedStore::like(&proto, 2);
            stack::bulk_load(&store, data, LOAD_CHUNK, lat);
            Arc::new(store)
        };
        let stores = vec![
            load(rq.new_sketch(), &lando, &mut load_us),
            load(rq.new_sketch(), &soil, &mut load_us),
            load(join.new_sketch_r(), &lando, &mut load_us),
            load(join.new_sketch_s(), &soil, &mut load_us),
        ];
        let build_t = t.elapsed();
        let t = Instant::now();
        let service = SketchService::new(rq.clone(), stores).with_join(join.clone());
        let served = stack::serve_first(service, &hot[0].1[0].wire(0), &serve_cfg);
        (served, build_t, t.elapsed())
    });
    let calls = 2 * (lando.len().div_ceil(LOAD_CHUNK) + soil.len().div_ceil(LOAD_CHUNK));
    report.attempted += (HOT_SETUPS * calls) as u64;
    report.pct("ingest_p2_us", &load_us, FAST_Q);
    report.pct("window.ingest_p50_us", &load_us, 0.5);
    report.tail("feed.ingest_p99_us", &load_us, 0.99);
    report.pct("store.ingest_p50_us", &load_us, 0.5);
    report.tail("store.ingest_p99_us", &load_us, 0.99);

    // Oracles and exact answers: outside every timed section.
    let oracles = [
        oracle_of(rq.new_sketch(), &lando),
        oracle_of(rq.new_sketch(), &soil),
        oracle_of(join.new_sketch_r(), &lando),
        oracle_of(join.new_sketch_s(), &soil),
    ];
    let mut octx = sketch::QueryContext::new();
    let want_hot: Vec<Vec<sketch::Estimate>> = hot
        .iter()
        .map(|(store, qs)| {
            qs.iter()
                .map(|q| q.oracle(&rq, &mut octx, &oracles[*store as usize]))
                .collect()
        })
        .collect();
    let want_join = join
        .estimate_with(&mut octx, &oracles[2], &oracles[3])
        .expect("oracle join");
    let join_truth = exact::rect_join_count(&lando, &soil) as f64;
    report.scalar(
        "join.rel_err",
        (want_join.value - join_truth).abs() / join_truth,
        1,
    );

    let sample = accuracy_sample(ACCURACY_SAMPLE);
    let (lando_sample, soil_sample) = sample.split_at(ACCURACY_SAMPLE / 2);
    let relations = [
        Relation {
            store: 0,
            live: &lando,
            oracle: &oracles[0],
            sample: lando_sample,
        },
        Relation {
            store: 1,
            live: &soil,
            oracle: &oracles[1],
            sample: soil_sample,
        },
    ];
    accuracy(&mut report, &mut served, &rq, &relations);

    let frames = HOT_FRAMES_PER_S * args.seconds as usize;
    let mut sched = stack::rng(args.seed, "hot-schedule");
    let order: Vec<usize> = (0..frames).map(|_| sched.gen_range(0..hot.len())).collect();
    let mut tracer = args
        .trace
        .then(|| QueryTracer::new(Arc::clone(&served.service), rq.clone(), Some(join.clone())));
    let mut spans = Spans::new("client");
    let mut mismatches = 0u64;
    let mut errors: Vec<WireReply> = Vec::new();
    let before = Counters::of(&served);
    let run = stack::drive(
        &mut served,
        HOT_LOAD,
        frames,
        |i| {
            if i % JOIN_EVERY == JOIN_EVERY - 1 {
                Frame::join(2, 3)
            } else {
                let (store, qs) = &hot[order[i]];
                Frame::of(*store, qs)
            }
        },
        |i, frame, replies| {
            let wants: &[sketch::Estimate] = if frame.is_join() {
                std::slice::from_ref(&want_join)
            } else {
                &want_hot[order[i]]
            };
            for (reply, want) in replies.iter().zip(wants) {
                if matches!(reply, WireReply::Error { .. }) {
                    errors.push(reply.clone());
                } else if !stack::same(reply, want) {
                    mismatches += 1;
                }
            }
        },
        tracer.as_mut().map(|t| (t, &mut spans, TRACE_STRIDE)),
    );
    server_stats(&mut report, before, Counters::of(&served));
    report.attempted += run.queries;
    stack::count_errors(&mut report, &errors);
    for _ in 0..mismatches {
        report.fail("wire answer differs from the unsharded oracle");
    }
    window_metrics(&mut report, &run, args.trace);
    report.pct("join.frame_p50_us", &run.join_us, 0.5);
    report.scalar("context.swaps_per_query", 0.0, run.queries as usize);
    let probe_spans = probe_overhead(&mut report, &mut served, &rq, &relations, HOT_BATCH, args);

    finish(
        &mut report,
        served,
        (tracer.as_ref(), None),
        &[&spans, &probe_spans],
        epoch,
        args,
    );
    report
}

/// The accuracy check, run on the state setup built, before any traffic:
/// a fixed query sample over the wire, bit-identical to the oracle, with
/// `sel_err` against the exact answers. Fixed data and a fixed sample make
/// it move only when the program's estimates do.
fn accuracy(report: &mut Report, served: &mut Served, rq: &RangeQuery<2>, relations: &[Relation]) {
    let (sel_err, _) = check_phase(report, served, rq, relations, 1, 1, stack::CHECK_LOAD, None);
    report.pct("sel_err_p50", &sel_err, 0.5);
    report.pct("sel_err_p90", &sel_err, 0.9);
}

/// The traced run's wire-overhead probe: the check sample once more, in
/// frames of `batch`, one frame in flight on one connection, every frame
/// re-answered in-process. Unpipelined, a frame's round trip minus its
/// `answer_batch` is its wire path alone (codec, reactor, queue hand-off,
/// socket, wake-ups) with no wait behind other frames: that is
/// `net.overhead_p50_us`. Untraced runs skip it.
fn probe_overhead(
    report: &mut Report,
    served: &mut Served,
    rq: &RangeQuery<2>,
    relations: &[Relation],
    batch: usize,
    args: &Args,
) -> Spans {
    let mut spans = Spans::new("probe");
    if args.trace {
        let mut tracer = QueryTracer::new(Arc::clone(&served.service), rq.clone(), None);
        let one = Load { conns: 1, depth: 1 };
        check_phase(
            report,
            served,
            rq,
            relations,
            1,
            batch,
            one,
            Some((&mut tracer, &mut spans, 1)),
        );
        report.pct("net.overhead_p50_us", tracer.net_us(), 0.5);
    }
    spans
}

/// The fixed accuracy sample: `n` queries, independent of `--seed`.
fn accuracy_sample(n: usize) -> Vec<Q> {
    let mut rng = stack::rng(DATA_SEED, "accuracy");
    (0..n).map(|_| Q::random(&mut rng, BITS)).collect()
}

/// The window's end-to-end round trip (or its traced twin) at the fast
/// end of its distribution, and the whole-window figures beside it.
fn window_metrics(report: &mut Report, run: &stack::WireRun, trace: bool) {
    let p2 = if trace {
        "trace.query_p2_us"
    } else {
        "query_p2_us"
    };
    report.pct(p2, &run.frame_us, FAST_Q);
    report.set("window.qps", crate::report::window_rate(&run.completed));
    report.pct("window.query_p50_us", &run.frame_us, 0.5);
    report.tail("wire.query_p99_us", &run.frame_us, 0.99);
}

// ---------------------------------------------------------------------------
// stream-mix

const MIX_OBJECTS: usize = 20_000;
/// About as many as a busy host answers: at the feed's 16 ms ticks, even a
/// calm host's shorter window holds the 500 ticks a p2 needs.
const MIX_QUERIES_PER_S: usize = 40_000;
/// Many dashboards' frames in flight on one connection: deep enough that
/// the server never parks between frames. One frame in flight made the
/// round trip flip between ~20 µs (server threads caught each frame
/// spinning) and ~190 µs (they parked and were woken) from run to run; two
/// connections made its median depend on how their windows interleaved.
const MIX_LOAD: Load = Load {
    conns: 1,
    depth: 32,
};
/// The worker answers one query per pass, so every frame takes the
/// single-query path, never a merged sweep.
const MIX_MAX_BATCH: usize = 1;
/// 512 updates (one `insert_slice`, one `delete_slice`) every 16 ms:
/// about a quarter of a core, and with ~125 epoch swaps a second against
/// 25K-75K queries a second (a busy host to a calm one), 0.2-0.5% of
/// queries follow a swap, clearly below 1%. At 8 ms ticks a busy host put
/// it at 1%.
const MIX_TICK: Duration = Duration::from_millis(16);
const MIX_OPS_PER_TICK: usize = 512;
/// The feed's schedule spans this many times `--seconds`, so it outlasts
/// the query stream even on a slow run (queries measured after the feed
/// ended ran a third faster: a different workload); it stops when the
/// query stream ends, and only ticks due before then are reported.
const MIX_FEED_SCALE: u32 = 3;

pub fn stream_mix(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let data: Vec<HyperRect<2>> = datagen::SyntheticSpec::paper(
        MIX_OBJECTS,
        BITS,
        1.0,
        datagen::rng::derive_seed(DATA_SEED, "stream-mix data"),
    )
    .generate();
    let cfg = config(&[&data], 32, 5);
    let rq = range_estimator(cfg);
    let serve_cfg = stack::serve_config(MIX_MAX_BATCH);
    describe(&mut report, args, &rq, cfg, 4, &serve_cfg, MIX_LOAD);
    let ticks =
        (args.seconds as u128 * 1000 / MIX_TICK.as_millis()) as usize * MIX_FEED_SCALE as usize;
    let plan = feed::schedule(
        &data,
        ticks,
        MIX_OPS_PER_TICK,
        datagen::rng::derive_seed(args.seed, "stream-mix feed"),
    );
    let mut qrng = stack::rng(args.seed, "stream-mix queries");
    let first_q = Q::random(&mut qrng, BITS);
    let mut served = setup_reps(&mut report, SETUPS, || {
        let t = Instant::now();
        let store = ShardedStore::like(&rq.new_sketch(), 4);
        stack::bulk_load(&store, &data, 512, &mut Vec::new());
        let build_t = t.elapsed();
        let t = Instant::now();
        let served = stack::serve_first(
            SketchService::new(rq.clone(), vec![Arc::new(store)]),
            &first_q.wire(0),
            &serve_cfg,
        );
        (served, build_t, t.elapsed())
    });
    let store = Arc::clone(&served.service.stores()[0]);
    report.note(
        "feed",
        format!("{ticks} ticks x {MIX_OPS_PER_TICK} ops every {MIX_TICK:?}"),
    );
    let sample = accuracy_sample(ACCURACY_SAMPLE);
    let oracle = oracle_of(rq.new_sketch(), &data);
    accuracy(
        &mut report,
        &mut served,
        &rq,
        &[Relation {
            store: 0,
            live: &data,
            oracle: &oracle,
            sample: &sample,
        }],
    );

    let frames = MIX_QUERIES_PER_S * args.seconds as usize;
    let mut tracer = args
        .trace
        .then(|| QueryTracer::new(Arc::clone(&served.service), rq.clone(), None));
    let mut ingest_tracer = args
        .trace
        .then(|| IngestTracer::new(rq.schema().instances()));
    let mut spans = Spans::new("client");
    let mut feed_spans = Spans::new("feed");
    let progress = AtomicUsize::new(0);
    let epochs_before = store.load().epoch();
    let mut errors: Vec<WireReply> = Vec::new();
    let before = Counters::of(&served);
    let feed_start = Instant::now();
    let stop = AtomicBool::new(false);
    let (run, fed, overlap, swaps) = std::thread::scope(|scope| {
        let feed = scope.spawn(|| {
            feed::run(
                &store,
                &plan,
                feed_start,
                MIX_TICK,
                &progress,
                Some(&stop),
                ingest_tracer
                    .as_mut()
                    .map(|t| (t, &mut feed_spans, TRACE_STRIDE)),
            )
        });
        // Never-repeating queries: every plan compile misses.
        let run = stack::drive(
            &mut served,
            MIX_LOAD,
            frames,
            |_| Frame::of(0, &[Q::random(&mut qrng, BITS)]),
            |_, _, replies| {
                errors.extend(
                    replies
                        .iter()
                        .filter(|r| matches!(r, WireReply::Error { .. }))
                        .cloned(),
                )
            },
            tracer.as_mut().map(|t| (t, &mut spans, TRACE_STRIDE)),
        );
        // Ticks due while the query stream ran.
        let overlap = (feed_start.elapsed().as_secs_f64() / MIX_TICK.as_secs_f64()).ceil() as usize;
        let swaps = store.load().epoch() - epochs_before;
        stop.store(true, Ordering::Release);
        let fed = feed.join().expect("feed thread");
        let overlap = overlap.min(fed.ticks());
        (run, fed, overlap, swaps)
    });
    server_stats(&mut report, before, Counters::of(&served));
    report.attempted += run.queries + fed.calls;
    stack::count_errors(&mut report, &errors);
    window_metrics(&mut report, &run, args.trace);
    report.note("feed_ticks_under_queries", overlap);
    feed_metrics(&mut report, &fed, overlap);
    report.scalar(
        "context.swaps_per_query",
        swaps as f64 / run.queries as f64,
        run.queries as usize,
    );

    // Final state: bit identity with the oracle over the live set after
    // every applied tick.
    let live = feed::live_after(&data, &plan[..fed.ticks()]);
    let oracle = oracle_of(rq.new_sketch(), &live);
    let relations = [Relation {
        store: 0,
        live: &live,
        oracle: &oracle,
        sample: &sample,
    }];
    check_phase(
        &mut report,
        &mut served,
        &rq,
        &relations,
        1,
        1,
        stack::CHECK_LOAD,
        None,
    );
    let probe_spans = probe_overhead(&mut report, &mut served, &rq, &relations, 1, args);
    finish(
        &mut report,
        served,
        (tracer.as_ref(), ingest_tracer.as_ref()),
        &[&spans, &feed_spans, &probe_spans],
        epoch,
        args,
    );
    report
}

/// The feed's metrics over its first `ticks` ticks.
fn feed_metrics(report: &mut Report, fed: &feed::FeedRun, ticks: usize) {
    let due = &fed.due_us[..ticks];
    let calls: Vec<f64> = fed
        .call_us
        .iter()
        .zip(&fed.call_tick)
        .filter(|(_, &t)| t < ticks)
        .map(|(&us, _)| us)
        .collect();
    report.pct("ingest_p2_us", due, FAST_Q);
    report.pct("window.ingest_p50_us", due, 0.5);
    report.tail("feed.ingest_p99_us", due, 0.99);
    report.pct("store.ingest_p50_us", &calls, 0.5);
    report.tail("store.ingest_p99_us", &calls, 0.99);
    report.tail("feed.late_p99_us", &fed.late_us[..ticks], 0.99);
}

// ---------------------------------------------------------------------------
// rebalance-churn

const CHURN_OBJECTS: usize = 5_000;
/// Two updates every 32 ms, over twice `--seconds`: 625 ticks per 10 s of
/// `--seconds` (a p2 needs 500) and 1.25K journaled rects, a quarter of
/// the base set.
const CHURN_TICK: Duration = Duration::from_millis(32);
const CHURN_OPS_PER_TICK: usize = 2;
const CHURN_WINDOW_SCALE: u32 = 2;
/// Topology cycles (split → move → merge) per second of `--seconds`:
/// twenty per run, enough to support each op's p50. Over the doubled
/// window they hold the writer lock a tenth to a quarter of the time,
/// as the host is calm or busy, so the ingest p2 reads the unpaused path
/// and the p99 the pauses.
const CYCLES_PER_S: usize = 2;
/// Each split and move starts this long before a tick is due, so every
/// op stalls the next tick by about its own length: the pauses land in
/// the ingest tail by construction rather than by where an op happens to
/// fall between ticks.
const OP_LEAD: Duration = Duration::from_millis(4);
/// Times the final-state sample is replayed over the wire: about five
/// seconds of the settled read path on a calm host, ten on a busy one.
const CHURN_CHECK_REPEATS: usize = 192;
/// The settled read path's frames: batches of 8 from the sample, 4 in
/// flight per connection. Batch-of-1 frames at 1015 instances left the
/// worker's share of the two cores to thread placement, which flipped
/// throughput between two levels from run to run.
const READ_BATCH: usize = 8;
const READ_LOAD: Load = Load { conns: 2, depth: 4 };
const READ_MAX_BATCH: usize = 16;

pub fn rebalance_churn(args: &Args) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let data: Vec<HyperRect<2>> = datagen::SyntheticSpec::paper(
        CHURN_OBJECTS,
        BITS,
        0.0,
        datagen::rng::derive_seed(DATA_SEED, "rebalance-churn data"),
    )
    .generate();
    let cfg = config(&[&data], 203, 5);
    let rq = range_estimator(cfg);
    let instances = rq.schema().instances() as f64;
    let serve_cfg = stack::serve_config(READ_MAX_BATCH);
    describe(&mut report, args, &rq, cfg, 2, &serve_cfg, READ_LOAD);
    let ticks = (args.seconds as u128 * 1000 / CHURN_TICK.as_millis()) as usize
        * CHURN_WINDOW_SCALE as usize;
    let cycles = CYCLES_PER_S * args.seconds as usize;
    let every = ticks / (cycles + 1);
    let plan = feed::schedule(
        &data,
        ticks,
        CHURN_OPS_PER_TICK,
        datagen::rng::derive_seed(args.seed, "rebalance-churn feed"),
    );
    let sample = accuracy_sample(ACCURACY_SAMPLE);
    let mut served = setup_reps(&mut report, SETUPS, || {
        let t = Instant::now();
        let store = ShardedStore::like(&rq.new_sketch(), 2).with_log(LogRetention::Full);
        stack::bulk_load(&store, &data, 512, &mut Vec::new());
        let build_t = t.elapsed();
        let t = Instant::now();
        let served = stack::serve_first(
            SketchService::new(rq.clone(), vec![Arc::new(store)]),
            &sample[0].wire(0),
            &serve_cfg,
        );
        (served, build_t, t.elapsed())
    });
    let store = Arc::clone(&served.service.stores()[0]);
    let oracle = oracle_of(rq.new_sketch(), &data);
    accuracy(
        &mut report,
        &mut served,
        &rq,
        &[Relation {
            store: 0,
            live: &data,
            oracle: &oracle,
            sample: &sample,
        }],
    );
    report.note(
        "feed",
        format!("{ticks} ticks x {CHURN_OPS_PER_TICK} ops every {CHURN_TICK:?}; {cycles} cycles every {every} ticks"),
    );

    // No queries during the churn: the operator has drained the node.
    served.disconnect();
    let mut ingest_tracer = args
        .trace
        .then(|| IngestTracer::new(rq.schema().instances()));
    let mut feed_spans = Spans::new("feed");
    let mut topo_spans = Spans::new("topology");
    let progress = AtomicUsize::new(0);
    let bulk_batches = data.len().div_ceil(512);
    // The feed's ledger: every journaled rect in journal order (the bulk
    // load, then each tick's inserts and deletes).
    let mut ledger: Vec<HyperRect<2>> = data.clone();
    let mut ledger_ticks = Vec::with_capacity(plan.len() + 1);
    for t in &plan {
        ledger_ticks.push(ledger.len());
        ledger.extend(t.inserts.iter().chain(&t.deletes));
    }
    ledger_ticks.push(ledger.len());
    let replayed = |done_ticks: usize, spans: &[geometry::Interval]| -> usize {
        ledger[..ledger_ticks[done_ticks.min(plan.len())]]
            .iter()
            .filter(|r| spans.iter().any(|s| s.contains(r.range(0).lo())))
            .count()
    };
    let start = Instant::now();
    let (fed, ops) = std::thread::scope(|scope| {
        let topo = scope.spawn(|| {
            let mut ops: Vec<(&'static str, f64, usize)> = Vec::new();
            let mut failed = Vec::new();
            // Waits until `tick` ticks are done, then until `OP_LEAD`
            // before the next one is due.
            let wait_for = |tick: usize| {
                while progress.load(Ordering::Acquire) < tick {
                    std::thread::sleep(Duration::from_millis(1));
                }
                stack::sleep_until(start + CHURN_TICK * tick as u32 - OP_LEAD);
            };
            for c in 1..=cycles {
                wait_for(c * every);
                let report = store.load_report();
                let Some((s, mid)) = report.split_candidate() else {
                    failed.push("no split candidate".to_string());
                    continue;
                };
                let span = report.shards()[s].span;
                let done = progress.load(Ordering::Acquire);
                let rects = replayed(done, &[span]);
                let (r, ns, _) = topo_spans.time(c as u64, "store.split_shard", None, || {
                    store.split_shard(s, mid)
                });
                ops.push(("split", ns, rects));
                if let Err(e) = r {
                    failed.push(format!("split: {e}"));
                    continue;
                }
                // Half a cycle apart, so each op is its own writer-lock
                // pause: a tick never waits for a split and a move back to
                // back in some cycles and for one op in others.
                wait_for(c * every + every / 2);
                let to = mid + (span.hi() - mid) / 2;
                let rects = replayed(progress.load(Ordering::Acquire), &[span]);
                let (r, ns, _) =
                    topo_spans.time(c as u64, "store.move_shard_boundary", None, || {
                        store.move_shard_boundary(s + 1, to)
                    });
                ops.push(("move", ns, rects));
                if let Err(e) = r {
                    failed.push(format!("move: {e}"));
                }
                let (r, ns, _) = topo_spans.time(c as u64, "store.merge_shards", None, || {
                    store.merge_shards(s)
                });
                ops.push(("merge", ns, 0));
                if let Err(e) = r {
                    failed.push(format!("merge: {e}"));
                }
            }
            (ops, failed)
        });
        let fed = feed::run(
            &store,
            &plan,
            start,
            CHURN_TICK,
            &progress,
            None,
            ingest_tracer
                .as_mut()
                .map(|t| (t, &mut feed_spans, TRACE_STRIDE)),
        );
        (fed, topo.join().expect("topology thread"))
    });
    let (ops, op_failures) = ops;
    report.attempted += fed.calls + ops.len() as u64;
    for f in op_failures {
        report.fail(f);
    }
    feed_metrics(&mut report, &fed, plan.len());
    let times = |kind: &str, scale: f64| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.0 == kind)
            .map(|o| o.1 / scale)
            .collect()
    };
    report.pct("rebalance.split_ms_p50", &times("split", 1e6), 0.5);
    report.pct("rebalance.move_ms_p50", &times("move", 1e6), 0.5);
    report.pct("rebalance.merge_us_p50", &times("merge", 1e3), 0.5);
    let topo: Vec<f64> = times("split", 1e6)
        .into_iter()
        .chain(times("move", 1e6))
        .collect();
    report.pct("rebalance.topology_op_p50_ms", &topo, 0.5);
    let replay: Vec<f64> = ops
        .iter()
        .filter(|o| o.0 != "merge" && o.2 > 0)
        .map(|o| o.1 / (o.2 as f64 * instances))
        .collect();
    report.pct("rebalance.replay_ns_per_rect_inst", &replay, 0.5);
    report.scalar(
        "rebalance.journal_entries",
        (bulk_batches as u64 + fed.calls) as f64,
        1,
    );
    report.note("shards_after", store.shard_count());

    // The settled read path: the final-state sample over the wire, checked
    // bit for bit, is the workload's only query traffic.
    let live = feed::live_after(&data, &plan);
    let oracle = oracle_of(rq.new_sketch(), &live);
    let mut tracer = args
        .trace
        .then(|| QueryTracer::new(Arc::clone(&served.service), rq.clone(), None));
    let mut spans = Spans::new("client");
    let relations = [Relation {
        store: 0,
        live: &live,
        oracle: &oracle,
        sample: &sample,
    }];
    let before = Counters::of(&served);
    let (_, run) = check_phase(
        &mut report,
        &mut served,
        &rq,
        &relations,
        CHURN_CHECK_REPEATS,
        READ_BATCH,
        READ_LOAD,
        tracer.as_mut().map(|t| (t, &mut spans, TRACE_STRIDE)),
    );
    server_stats(&mut report, before, Counters::of(&served));
    window_metrics(&mut report, &run, args.trace);
    report.scalar("context.swaps_per_query", 0.0, run.queries as usize);
    let probe_spans = probe_overhead(&mut report, &mut served, &rq, &relations, READ_BATCH, args);
    finish(
        &mut report,
        served,
        (tracer.as_ref(), ingest_tracer.as_ref()),
        &[&spans, &feed_spans, &topo_spans, &probe_spans],
        epoch,
        args,
    );
    report
}
