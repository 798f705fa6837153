//! Perf-probe harnesses behind the `perf_probe` binary: build, estimate,
//! net, batch and rebalance sweeps with self-describing JSON records.
//!
//! Each probe times what a `perf_check` row reads or a gate floor needs,
//! and no more: the build and estimate probes time only the blocked
//! (`wide`) kernels, whose scalar oracles the differential suites and the
//! `estimator_throughput` bench cover.
//!
//! Every probe **appends** its record to `results/perf_probe.json` (the
//! committed `BENCH_*.json` files are copies of such records, kept as
//! history). The `perf_check` gate runs the quick presets of two builds as
//! subprocesses and reads these records back, so a record's field names
//! are read by every later commit's gate: rename or drop one only together
//! with the row that reads it.

use rand::SeedableRng;
use serve::net::{range_query as wire_range, SketchClient, WireReply};
use serve::{ContextPool, QueryRouter, ServeConfig, ShardedStore, SketchService};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{par_insert_batch, BatchQuery, BuildKernel, QueryContext, QueryKernel};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Milliseconds of repeated calls per timing point (the estimate path is
/// microseconds per call, so each point averages thousands of calls).
const ESTIMATE_PROBE_BUDGET_MS: u128 = 250;

/// Distinct queries the estimate probe cycles on its cold range path: 16x
/// the 64 plans one query context caches, so no query is still cached when
/// it comes round again and every estimate compiles and evaluates cold.
const COLD_RANGE_POOL: usize = 1024;

/// `(k1, k2)` boosting shapes of the quick build and estimate presets (the
/// points `perf_check` compares).
pub const QUICK_SHAPES: &[(usize, usize)] = &[(88, 5)];

/// Shapes of the full build sweep: 440, 2200 and 6000 instances.
pub const BUILD_SHAPES: &[(usize, usize)] = &[(88, 5), (440, 5), (1200, 5)];

/// `(k1, k2)` of the build probe's adaptive point: the 1015 instances the
/// repo benchmark's optimizer-hot and rebalance-churn stores build with.
const ADAPTIVE_BUILD_SHAPE: (usize, usize) = (203, 5);

/// LANDO objects the adaptive build point ingests per build.
const ADAPTIVE_BUILD_OBJECTS: usize = 10_000;

/// Shapes of the full estimate sweep: 440, 1015 and 4100 instances.
pub const ESTIMATE_SHAPES: &[(usize, usize)] = &[(88, 5), (203, 5), (820, 5)];

/// The runtime kernel constants recorded with every probe record, so a
/// record documents the machine it was measured on.
#[derive(serde::Serialize)]
struct DispatchMeta {
    /// Workers a blocked slice ingest splits its instance blocks across.
    ingest_threads: usize,
}

/// Snapshots [`sketch::dispatch_report`] into the serializable probe form.
fn dispatch_meta() -> DispatchMeta {
    let report = sketch::dispatch_report();
    DispatchMeta {
        ingest_threads: report.ingest_threads,
    }
}

/// Times `f` repeatedly until the budget elapses; returns ns per call.
fn time_ns_per_call(mut f: impl FnMut() -> f64) -> f64 {
    // Warm up (context scratch growth, branch predictors).
    let mut sink = 0.0;
    for _ in 0..3 {
        sink += f();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_millis() < ESTIMATE_PROBE_BUDGET_MS {
        for _ in 0..8 {
            sink += f();
        }
        calls += 8;
    }
    let ns = start.elapsed().as_nanos() as f64 / calls as f64;
    assert!(sink.is_finite());
    ns
}

/// Seeded random range queries over a 2-d `2^bits` domain (side lengths
/// `n/8 + U[0, n/4)`): the shared workload the estimate, net, batch and
/// rebalance probes and the `serve_throughput` bench all cycle, so their
/// numbers stay comparable — tweak the shape here and every consumer moves
/// together.
pub fn range_query_workload(seed: u64, count: usize, bits: u32) -> Vec<geometry::HyperRect<2>> {
    use rand::Rng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = 1u64 << bits;
    (0..count)
        .map(|_| {
            let side = n / 8 + rng.gen_range(0..n / 4);
            let x = rng.gen_range(0..n - side - 1);
            let y = rng.gen_range(0..n - side - 1);
            geometry::HyperRect::new([
                geometry::Interval::new(x, x + side),
                geometry::Interval::new(y, y + side),
            ])
        })
        .collect()
}

/// The one kernel every probe times, the 512-lane blocked kernel, as its
/// records tag it: the `perf_check` rows find their numbers under
/// `kernel: "wide"`.
const WIDE: &str = "wide";

/// The query kernel's estimate timings across the instance configurations.
#[derive(serde::Serialize)]
struct QueryKernelRecord {
    /// Kernel name (`wide`).
    kernel: String,
    /// Instance lanes per kernel word.
    lane_width: usize,
    /// Whole-estimate latency per configuration.
    ns_per_estimate: Vec<f64>,
    /// Latency normalized per boosting instance.
    ns_per_estimate_instance: Vec<f64>,
}

impl QueryKernelRecord {
    fn wide() -> Self {
        Self {
            kernel: WIDE.into(),
            lane_width: fourwise::LaneWord::LANES,
            ns_per_estimate: Vec::new(),
            ns_per_estimate_instance: Vec::new(),
        }
    }

    fn push(&mut self, ns: f64, instances: usize) {
        self.ns_per_estimate.push(ns);
        self.ns_per_estimate_instance.push(ns / instances as f64);
    }
}

/// The `--probe estimate` record: join and cold range estimation
/// throughput.
#[derive(serde::Serialize)]
struct EstimateProbeRecord {
    /// Probe tag (`estimate`).
    probe: String,
    /// Objects summarized per sketch.
    objects: usize,
    /// Data-domain bits per dimension.
    domain_bits: u32,
    /// Instance counts probed.
    instances: Vec<usize>,
    /// The runtime dispatch decision on the probing machine.
    dispatch: DispatchMeta,
    /// Join-path timings.
    join_kernels: Vec<QueryKernelRecord>,
    /// Cold range-path timings: no query repeats within the plan cache's
    /// reach, so every estimate compiles its plan and runs the blocked ξ
    /// cover kernel (the path every first query takes).
    range_kernels: Vec<QueryKernelRecord>,
}

/// Estimation-path throughput under the blocked query kernel, for the join
/// (counter-product combine) and cold range (query-side ξ sums) paths, at
/// every `(k1, k2)` of `configs`. The range path cycles a pool of
/// `COLD_RANGE_POOL` queries, far more than one context's plan cache holds,
/// so every lookup misses. Appends a record to `results/perf_probe.json`.
pub fn estimate_probe(threads: usize, configs: &[(usize, usize)]) {
    let bits = 14u32;
    let data: Vec<geometry::HyperRect<2>> =
        datagen::SyntheticSpec::paper(20_000, bits, 0.0, 5).generate();
    let queries = range_query_workload(9, COLD_RANGE_POOL, bits);
    let (mut join_rec, mut range_rec) = (QueryKernelRecord::wide(), QueryKernelRecord::wide());
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for &(k1, k2) in configs {
        let instances = k1 * k2;
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(k1, k2),
            [bits, bits],
            EndpointStrategy::Transform,
        );
        let mut r = join.new_sketch_r();
        let mut s = join.new_sketch_s();
        par_insert_batch(&mut r, &data, threads).unwrap();
        par_insert_batch(&mut s, &data[..10_000], threads).unwrap();
        let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
        let ns = time_ns_per_call(|| join.estimate_with(&mut ctx, &r, &s).unwrap().value);
        println!(
            "join   wide kernel, instances {instances}: {ns:.0} ns/estimate ({:.2} ns/(est.inst))",
            ns / instances as f64
        );
        join_rec.push(ns, instances);

        let rq = sketch::RangeQuery::<2>::new(
            &mut rng,
            SketchConfig::new(k1, k2),
            [bits, bits],
            sketch::RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        par_insert_batch(&mut sk, &data, threads).unwrap();
        let mut qi = 0usize;
        let ns = time_ns_per_call(|| {
            qi = (qi + 1) % queries.len();
            rq.estimate_with(&mut ctx, &sk, &queries[qi]).unwrap().value
        });
        println!(
            "range  wide kernel cold, instances {instances}: {ns:.0} ns/estimate ({:.2} ns/(est.inst))",
            ns / instances as f64
        );
        range_rec.push(ns, instances);
    }
    let record = EstimateProbeRecord {
        probe: "estimate".into(),
        objects: data.len(),
        domain_bits: bits,
        instances: configs.iter().map(|&(k1, k2)| k1 * k2).collect(),
        dispatch: dispatch_meta(),
        join_kernels: vec![join_rec],
        range_kernels: vec![range_rec],
    };
    let path = crate::report::append_json("perf_probe", &record);
    println!("appended to {}", path.display());
}

/// The build kernel's timings across the instance configurations.
#[derive(serde::Serialize)]
struct KernelRecord {
    /// Kernel name (`wide`).
    kernel: String,
    /// Instance lanes per kernel word.
    lane_width: usize,
    /// Whole-build wall time per configuration.
    build_secs: Vec<f64>,
    /// Build cost normalized per object and instance.
    ns_per_obj_instance: Vec<f64>,
}

/// The default-probe record: build throughput of the blocked maintenance
/// kernel.
#[derive(serde::Serialize)]
struct BuildProbeRecord {
    /// Probe tag (`build`).
    probe: String,
    /// Objects ingested per build.
    objects: usize,
    /// Data-domain bits per dimension.
    domain_bits: u32,
    /// Worker threads used for the parallel build.
    threads: usize,
    /// Instance counts probed.
    instances: Vec<usize>,
    /// The runtime dispatch decision on the probing machine.
    dispatch: DispatchMeta,
    /// Build timings.
    kernels: Vec<KernelRecord>,
    /// The benchmark's build shape, timed in every run.
    adaptive: AdaptiveBuildPoint,
}

/// One build in the shape the repo benchmark's stores take: range words
/// `{I, U}²` at the §6.5 adaptive `maxLevel`, 1015 instances, small GIS
/// rectangles. Short covers make the per-word counter products a large
/// share of it, where the dyadic sweep's join sketches are dominated by ξ
/// cover sums.
#[derive(serde::Serialize)]
struct AdaptiveBuildPoint {
    /// Objects ingested per build.
    objects: usize,
    /// Boosting instances.
    instances: usize,
    /// The adaptive `maxLevel`.
    max_level: u32,
    /// Workers: one, so the point times the kernel, not the split.
    threads: usize,
    /// Fastest of three builds' wall time.
    build_secs: f64,
    /// That build's cost per object and instance.
    ns_per_obj_instance: f64,
}

/// Times [`AdaptiveBuildPoint`]'s build on one thread, fastest of three.
fn adaptive_build_point() -> AdaptiveBuildPoint {
    let bits = datagen::GIS_DOMAIN_BITS;
    let data: Vec<geometry::HyperRect<2>> = datagen::lando(1)
        .into_iter()
        .take(ADAPTIVE_BUILD_OBJECTS)
        .collect();
    let max_level =
        sketch::plan::adaptive_max_level(crate::runner::mean_sketch_extent(&[&data]), bits + 2);
    let (k1, k2) = ADAPTIVE_BUILD_SHAPE;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let rq = sketch::RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(k1, k2).with_max_level(max_level),
        [bits, bits],
        sketch::RangeStrategy::Transform,
    );
    let build_secs = (0..3)
        .map(|_| {
            let mut sk = rq.new_sketch().with_kernel(BuildKernel::Wide);
            let t = Instant::now();
            par_insert_batch(&mut sk, &data, 1).unwrap();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let ns = build_secs * 1e9 / (data.len() * k1 * k2) as f64;
    println!(
        "wide kernel, adaptive maxLevel {max_level}, range words, instances {}, 1 thread: {ns:.1} ns/(obj.inst)",
        k1 * k2
    );
    AdaptiveBuildPoint {
        objects: data.len(),
        instances: k1 * k2,
        max_level,
        threads: 1,
        build_secs,
        ns_per_obj_instance: ns,
    }
}

/// Build-throughput sweep under the blocked maintenance kernel at every
/// `(k1, k2)` of `configs`, plus one single-threaded build in the repo
/// benchmark's shape (range words, adaptive `maxLevel`, 1015 instances).
/// Appends a record to `results/perf_probe.json`.
pub fn build_probe(threads: usize, configs: &[(usize, usize)]) {
    let data: Vec<geometry::HyperRect<2>> =
        datagen::SyntheticSpec::paper(50_000, 14, 0.0, 1).generate();
    let mut rec = KernelRecord {
        kernel: WIDE.into(),
        lane_width: fourwise::LaneWord::LANES,
        build_secs: Vec::new(),
        ns_per_obj_instance: Vec::new(),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for &(k1, k2) in configs {
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(k1, k2),
            [14, 14],
            EndpointStrategy::Transform,
        );
        let mut r = join.new_sketch_r().with_kernel(BuildKernel::Wide);
        let t = Instant::now();
        par_insert_batch(&mut r, &data, threads).unwrap();
        let el = t.elapsed();
        let ns = el.as_nanos() as f64 / (data.len() as f64 * (k1 * k2) as f64);
        println!(
            "wide kernel, instances {}: {el:?} total, {ns:.1} ns/(obj.inst)",
            k1 * k2
        );
        rec.build_secs.push(el.as_secs_f64());
        rec.ns_per_obj_instance.push(ns);
    }
    let record = BuildProbeRecord {
        probe: "build".into(),
        objects: data.len(),
        domain_bits: 14,
        threads,
        instances: configs.iter().map(|&(k1, k2)| k1 * k2).collect(),
        dispatch: dispatch_meta(),
        kernels: vec![rec],
        adaptive: adaptive_build_point(),
    };
    let path = crate::report::append_json("perf_probe", &record);
    println!("appended to {}", path.display());
}

/// One `(clients, batch, coalesce_us)` configuration's measurements in the
/// `--probe net` sweep.
///
/// Latency is the *batch round-trip* seen by a blocking client — encode,
/// loopback TCP, reactor decode, queue admission, one pooled-context
/// worker pass, reply framing — the number a serving SLO would be written
/// against. Percentiles come from the sorted per-round latencies of all
/// clients (fixed round counts, so the workload itself is deterministic;
/// only the timings vary with the machine).
#[derive(serde::Serialize)]
struct NetConfigPoint {
    /// Concurrent client connections.
    clients: usize,
    /// Queries per batch frame.
    batch: usize,
    /// Cross-connection coalescing window active on the server
    /// (microseconds; `0` = coalescing off, drain immediately).
    coalesce_us: u64,
    /// Frames each client keeps in flight (1 = blocking round-trips, the
    /// pure-RTT measurement; deeper pipelines measure wire throughput the
    /// way a real caller drives the front-end). Latencies at depth > 1 are
    /// frame *turnaround* times — they include queueing behind the
    /// connection's own earlier frames.
    pipeline: usize,
    /// Batch round-trips per client.
    rounds_per_client: usize,
    /// Median batch round-trip latency, microseconds.
    p50_us: f64,
    /// 99th-percentile batch round-trip latency, microseconds.
    p99_us: f64,
    /// 99.9th-percentile batch round-trip latency, microseconds.
    p999_us: f64,
    /// Aggregate queries per second across all clients (batch answers
    /// count each query once).
    qps: f64,
    /// Queries the server evaluated (its own counter; shed queries are
    /// counted separately and were zero if `shed` is zero).
    served: u64,
    /// Queries shed at admission during the run.
    shed: u64,
    /// Worker passes the workers ran — `served / batches` is the realized
    /// coalescing factor (queries amortized per context pass).
    batches: u64,
}

/// The `--probe net` record: a sweep of the TCP front-end over connection
/// counts × coalescing windows, each configuration against a fresh server
/// with concurrent ingest churning epochs underneath.
#[derive(serde::Serialize)]
struct NetProbeRecord {
    /// Probe tag (`net`).
    probe: String,
    /// Objects summarized in the served store.
    objects: usize,
    /// Data-domain bits per dimension.
    domain_bits: u32,
    /// Boosting instances per sketch.
    instances: usize,
    /// The runtime dispatch decision on the probing machine.
    dispatch: DispatchMeta,
    /// Reactor threads multiplexing connections in every configuration.
    reactors: usize,
    /// One measurement per swept `(clients, batch, coalesce_us)` point.
    configs: Vec<NetConfigPoint>,
    /// Store epochs swapped in by the concurrent-ingest writer across the
    /// whole sweep.
    ingest_epochs: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs one `(clients, batch, coalesce_us)` configuration against its own
/// freshly bound server, with the epoch-churn writer running for the whole
/// measurement window.
#[allow(clippy::too_many_arguments)]
fn net_config_point<const D: usize>(
    service: &Arc<SketchService<D>>,
    pool: &Arc<ContextPool<D>>,
    store: &Arc<ShardedStore<D>>,
    churn: &[geometry::HyperRect<D>],
    queries: &[geometry::HyperRect<D>],
    clients: usize,
    batch: usize,
    coalesce_us: u64,
    pipeline: usize,
    rounds: usize,
    reactors: usize,
) -> NetConfigPoint {
    // One worker sweep can answer a whole 64-connection wave: the drain
    // limit matches the largest swept connection count so admission, not
    // the config, bounds the realized coalescing factor.
    let config = ServeConfig {
        max_batch: 64,
        reactors,
        coalesce_us,
        ..ServeConfig::default()
    };
    let server = serve::net::serve(Arc::clone(service), Arc::clone(pool), &config, 0)
        .expect("net probe: cannot bind loopback server");
    let addr = server.local_addr();

    let done = AtomicUsize::new(0);
    let mut latencies_us: Vec<f64> = Vec::with_capacity(clients * rounds);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let done = &done;
                scope.spawn(move || {
                    let mut client =
                        SketchClient::connect(addr).expect("net probe: cannot connect");
                    let mut lat = Vec::with_capacity(rounds);
                    // Keep up to `pipeline` frames in flight: submit until
                    // the window is full, then collect the oldest. Depth 1
                    // degenerates to blocking round-trips.
                    let mut window = std::collections::VecDeque::with_capacity(pipeline);
                    let mut submitted = 0usize;
                    while submitted < rounds || !window.is_empty() {
                        while submitted < rounds && window.len() < pipeline {
                            let round = submitted;
                            let wire: Vec<_> = (0..batch)
                                .map(|j| {
                                    wire_range(0, &queries[(t + round * batch + j) % queries.len()])
                                })
                                .collect();
                            let t0 = Instant::now();
                            let ticket = client.submit(&wire).expect("net probe submit");
                            window.push_back((ticket, t0));
                            submitted += 1;
                        }
                        let (ticket, t0) = window.pop_front().expect("window non-empty");
                        let replies = client.collect(ticket).expect("net probe batch");
                        lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
                        assert!(
                            replies
                                .iter()
                                .all(|r| matches!(r, WireReply::Estimate { .. })),
                            "net probe: non-estimate reply under default capacity"
                        );
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    lat
                })
            })
            .collect();
        // Writer churn: insert + delete the same chunk, so epochs keep
        // swapping while the store's contents stay fixed. Paced at a fixed
        // cadence rather than a tight loop — the probe measures serving
        // throughput *under* concurrent ingest, not how thoroughly an
        // unthrottled rebuild loop can starve the workers of cores.
        while done.load(Ordering::SeqCst) < clients {
            store.insert_slice(churn).unwrap();
            store.delete_slice(churn).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        for handle in handles {
            latencies_us.extend(handle.join().expect("net probe client"));
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let stats = server.shutdown();

    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let point = NetConfigPoint {
        clients,
        batch,
        coalesce_us,
        pipeline,
        rounds_per_client: rounds,
        p50_us: percentile(&latencies_us, 0.5),
        p99_us: percentile(&latencies_us, 0.99),
        p999_us: percentile(&latencies_us, 0.999),
        qps: (clients * rounds * batch) as f64 / wall,
        served: stats.served,
        shed: stats.shed,
        batches: stats.batches,
    };
    println!(
        "net    {clients:>2} conns x {batch}/frame depth {pipeline} coalesce {coalesce_us:>3} µs: p50 {:>6.0} µs, p99 {:>7.0} µs, p999 {:>7.0} µs, {:>6.0} qps ({} sweeps, {} shed)",
        point.p50_us, point.p99_us, point.p999_us, point.qps, point.batches, point.shed
    );
    point
}

/// End-to-end network serving probe: sweeps connection counts (1/8/64,
/// batch-of-1 frames) × coalescing window (off / 200 µs) plus the
/// 2-client × batch-8 continuity point earlier anchors recorded, each
/// against a fresh real TCP server, with a writer swapping epochs in for
/// every measurement window. Appends a record to
/// `results/perf_probe.json`.
pub fn net_probe(quick: bool) {
    let bits = 14u32;
    let objects = if quick { 5_000 } else { 20_000 };
    let data: Vec<geometry::HyperRect<2>> =
        datagen::SyntheticSpec::paper(objects, bits, 0.0, 5).generate();
    let (k1, k2) = (203usize, 5usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let rq = sketch::RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(k1, k2),
        [bits, bits],
        sketch::RangeStrategy::Transform,
    );
    let store = Arc::new(ShardedStore::like(&rq.new_sketch(), 2));
    for chunk in data.chunks(512) {
        store.insert_slice(chunk).unwrap();
    }
    let epochs_before = store.load().epoch();

    let service = Arc::new(SketchService::new(rq.clone(), vec![Arc::clone(&store)]));
    let pool = Arc::new(ContextPool::new(2));
    let queries = range_query_workload(9, 32, bits);
    let churn = &data[..512.min(data.len())];
    let reactors = ServeConfig::default().reactors;

    // The wire-QPS sweep: batch-of-1 frames (per-frame overhead dominates,
    // the case the reactor multiplexer exists for) across connection
    // counts, with and without the coalescing window. The single
    // connection runs blocking round-trips (depth 1 — the pure-RTT
    // latency guard); the concurrent counts pipeline a few frames per
    // connection, the way a real caller drives this front-end and the
    // only shape where wire throughput rather than client scheduling is
    // what gets measured. Round counts shrink with the client count so
    // every point collects a comparable number of latency samples.
    let mut configs = Vec::new();
    for &clients in &[1usize, 8, 64] {
        let pipeline = if clients == 1 { 1 } else { 4 };
        let rounds = if quick {
            (2048 / clients).max(24)
        } else {
            (8192 / clients).max(96)
        };
        for &coalesce_us in &[0u64, 200] {
            configs.push(net_config_point(
                &service,
                &pool,
                &store,
                churn,
                &queries,
                clients,
                1,
                coalesce_us,
                pipeline,
                rounds,
                reactors,
            ));
        }
    }
    // Continuity point: the 2-client × batch-8 blocking round-trip shape
    // every pre-sweep anchor recorded, so the series stays comparable
    // across PRs.
    configs.push(net_config_point(
        &service,
        &pool,
        &store,
        churn,
        &queries,
        2,
        8,
        0,
        1,
        if quick { 150 } else { 600 },
        reactors,
    ));
    let ingest_epochs = store.load().epoch() - epochs_before;

    let record = NetProbeRecord {
        probe: "net".into(),
        objects: data.len(),
        domain_bits: bits,
        instances: k1 * k2,
        dispatch: dispatch_meta(),
        reactors,
        configs,
        ingest_epochs,
    };
    println!(
        "net    sweep done: {} configs, {} reactors, {} epochs churned",
        record.configs.len(),
        record.reactors,
        record.ingest_epochs
    );
    let path = crate::report::append_json("perf_probe", &record);
    println!("appended to {}", path.display());
}

/// Compiled-plan cache counters recorded with the batch probe — the
/// serializable mirror of [`sketch::PlanCacheReport`]: the plan LRU and
/// the query-product memos its hot plans carry.
#[derive(serde::Serialize)]
struct PlanCacheMeta {
    /// Plan cache hits.
    single_hits: u64,
    /// Plan cache misses (cold compiles).
    single_misses: u64,
    /// Plans evicted by the LRU.
    single_evictions: u64,
    /// Query-product memos filled (once per plan, on its first hit).
    memo_fills: u64,
    /// Estimates answered from an already-filled memo.
    memo_reuses: u64,
    /// Memoized plans evicted (memo freed with the plan).
    memo_dropped: u64,
    /// Memo bytes held by the cached plans at the snapshot.
    memo_resident_bytes: u64,
}

/// Snapshots a [`sketch::PlanCacheReport`] into the serializable probe
/// form.
fn plan_cache_meta(report: &sketch::PlanCacheReport) -> PlanCacheMeta {
    PlanCacheMeta {
        single_hits: report.single.hits,
        single_misses: report.single.misses,
        single_evictions: report.single.evictions,
        memo_fills: report.memo.fills,
        memo_reuses: report.memo.reuses,
        memo_dropped: report.memo.dropped,
        memo_resident_bytes: report.memo.resident_bytes,
    }
}

/// One batch size's timings in the `--probe batchq` sweep.
#[derive(serde::Serialize)]
struct BatchPoint {
    /// Queries per `estimate_batch_with` call.
    batch: usize,
    /// Amortized latency per query at this batch size.
    ns_per_query: f64,
    /// Latency normalized per query and boosting instance.
    ns_per_query_instance: f64,
}

/// The `--probe batchq` sweep's warm-vs-cold pair on an adaptive-`maxLevel`
/// sketch, the configuration the serving benchmark uses: the same batch
/// shape answered from query-product memos (a recurring hot set) and from
/// never-repeating queries (every plan compiled and its covers evaluated).
#[derive(serde::Serialize)]
struct AdaptiveBatchPoints {
    /// The §6.5 adaptive `maxLevel` the sketch was built with.
    max_level: u32,
    /// Queries per `estimate_batch_with` call at both points.
    batch: usize,
    /// Amortized latency per query over the warm hot set: every plan is
    /// cached with its memo filled, so each answer is one counter dot
    /// product per instance.
    warm_ns_per_query: f64,
    /// Amortized latency per query when no query ever repeats: plan
    /// compiles, one per-plan cover fill per query, LRU churn.
    cold_ns_per_query: f64,
    /// `cold_ns_per_query / warm_ns_per_query`: how much a warm query
    /// saves over a cold one.
    speedup_warm_over_cold: f64,
}

/// The `--probe batchq` record: batch entry-point throughput vs the
/// sequential single-query path, over a serving-shaped hot set.
#[derive(serde::Serialize)]
struct BatchProbeRecord {
    /// Probe tag (`batchq`).
    probe: String,
    /// Objects summarized per sketch.
    objects: usize,
    /// Data-domain bits per dimension.
    domain_bits: u32,
    /// Boosting instances per sketch.
    instances: usize,
    /// The runtime dispatch decision on the probing machine.
    dispatch: DispatchMeta,
    /// Distinct queries in the cycled hot set.
    query_set: usize,
    /// Amortized per-query timings at each batch size over the hot set on
    /// the fully dyadic sketch (batch 1 takes the sequential single-query
    /// path — the baseline the batch amortizes).
    points: Vec<BatchPoint>,
    /// Batch-1 ns/query over batch-64 ns/query: how much cheaper each
    /// query gets when a whole batch is answered in one call.
    speedup_b64_over_b1: f64,
    /// Plan-cache counters accumulated across the `points` sweep.
    plan_cache: PlanCacheMeta,
    /// Warm (memo) vs cold (per-plan fill) on an adaptive-`maxLevel` sketch.
    adaptive: AdaptiveBatchPoints,
}

/// The hot-set shape every batchq point uses: ranges, with every 8th query
/// a stab at its rect's low corner.
fn batchq_queries(rects: &[geometry::HyperRect<2>]) -> Vec<BatchQuery<2>> {
    rects
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 8 == 7 {
                BatchQuery::Stab([q.range(0).lo(), q.range(1).lo()])
            } else {
                BatchQuery::Range(*q)
            }
        })
        .collect()
}

/// Batch throughput: amortized ns/query of
/// `estimate_batch_with` at batch sizes 1/8/64 over a 32-query hot set
/// (the shape the TCP front-end's `max_batch` drain produces), on the same
/// sketch configuration as the net probe so the records compose. Batch 1
/// routes through the sequential single-query path, so
/// `speedup_b64_over_b1` is exactly the batching win. A second,
/// adaptive-`maxLevel` sketch times batch-8 calls warm (hot set, memos
/// filled) and cold (never-repeating queries, per-plan fills). Appends a
/// record to `results/perf_probe.json`.
pub fn batchq_probe(threads: usize, quick: bool) {
    let bits = 14u32;
    let objects = if quick { 5_000 } else { 20_000 };
    let data: Vec<geometry::HyperRect<2>> =
        datagen::SyntheticSpec::paper(objects, bits, 0.0, 5).generate();
    let (k1, k2) = (203usize, 5usize);
    let instances = k1 * k2;
    let build = |config: SketchConfig| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let rq = sketch::RangeQuery::<2>::new(
            &mut rng,
            config,
            [bits, bits],
            sketch::RangeStrategy::Transform,
        );
        let mut sk = rq.new_sketch();
        par_insert_batch(&mut sk, &data, threads).unwrap();
        (rq, sk)
    };
    let (rq, sk) = build(SketchConfig::new(k1, k2));

    // Serving-shaped hot set: 28 ranges + 4 stabs at range corners.
    let hot = batchq_queries(&range_query_workload(9, 32, bits));
    let mut points = Vec::new();
    let mut ctx = QueryContext::new();
    for &batch in &[1usize, 8, 64] {
        // Deterministic compositions cycling the hot set, so every query
        // recurs the way a steady serving hot set makes it recur.
        let compositions = if batch >= hot.len() {
            1
        } else {
            hot.len() / batch
        };
        let batches: Vec<Vec<BatchQuery<2>>> = (0..compositions)
            .map(|c| {
                (0..batch)
                    .map(|j| hot[(c * batch + j) % hot.len()])
                    .collect()
            })
            .collect();
        let mut bi = 0usize;
        let ns_call = time_ns_per_call(|| {
            bi = (bi + 1) % batches.len();
            answer_sum(&rq, &mut ctx, &sk, &batches[bi])
        });
        let ns_per_query = ns_call / batch as f64;
        println!(
            "batchq batch {batch:>2}: {ns_per_query:.0} ns/query ({:.2} ns/(query.inst))",
            ns_per_query / instances as f64
        );
        points.push(BatchPoint {
            batch,
            ns_per_query,
            ns_per_query_instance: ns_per_query / instances as f64,
        });
    }
    let speedup_b64_over_b1 = points[0].ns_per_query / points.last().unwrap().ns_per_query;
    let plan_cache = plan_cache_meta(&ctx.plan_cache_report());
    println!("batchq batch-64 speedup over batch-1: {speedup_b64_over_b1:.2}x");
    println!(
        "batchq plan cache: {}h/{}m/{}e, memo {} fills/{} reuses/{} dropped, {} B resident",
        plan_cache.single_hits,
        plan_cache.single_misses,
        plan_cache.single_evictions,
        plan_cache.memo_fills,
        plan_cache.memo_reuses,
        plan_cache.memo_dropped,
        plan_cache.memo_resident_bytes,
    );

    // Warm vs cold at the optimizer-shaped batch of 8, under the §6.5
    // adaptive maxLevel (longer covers: the cold path's ξ work grows, the
    // warm path's dot product does not).
    let max_level =
        sketch::plan::adaptive_max_level(crate::runner::mean_sketch_extent(&[&data]), bits + 2);
    let (rq, sk) = build(SketchConfig::new(k1, k2).with_max_level(max_level));
    let batch = 8usize;
    let mut ctx = QueryContext::new();
    let warm_batches: Vec<&[BatchQuery<2>]> = hot.chunks(batch).collect();
    for b in warm_batches.iter().chain(&warm_batches) {
        // Two passes: the first compiles each plan, the second fills its memo.
        answer_sum(&rq, &mut ctx, &sk, b);
    }
    let mut bi = 0usize;
    let warm_ns_per_query = time_ns_per_call(|| {
        bi = (bi + 1) % warm_batches.len();
        answer_sum(&rq, &mut ctx, &sk, warm_batches[bi])
    }) / batch as f64;
    let mut seed = 1_000u64;
    let cold_ns_per_query = time_ns_per_call(|| {
        seed += 1;
        let fresh = batchq_queries(&range_query_workload(seed, batch, bits));
        answer_sum(&rq, &mut ctx, &sk, &fresh)
    }) / batch as f64;
    let adaptive = AdaptiveBatchPoints {
        max_level,
        batch,
        warm_ns_per_query,
        cold_ns_per_query,
        speedup_warm_over_cold: cold_ns_per_query / warm_ns_per_query,
    };
    println!(
        "batchq adaptive maxLevel {max_level}, batch {batch}: warm {warm_ns_per_query:.0} ns/query, \
         cold {cold_ns_per_query:.0} ns/query ({:.2}x warm over cold)",
        adaptive.speedup_warm_over_cold
    );

    let record = BatchProbeRecord {
        probe: "batchq".into(),
        objects: data.len(),
        domain_bits: bits,
        instances,
        dispatch: dispatch_meta(),
        query_set: hot.len(),
        points,
        speedup_b64_over_b1,
        plan_cache,
        adaptive,
    };
    let path = crate::report::append_json("perf_probe", &record);
    println!("appended to {}", path.display());
}

/// Answers one batch, returning the sum of its estimates (a sink the
/// optimizer cannot discard).
fn answer_sum(
    rq: &sketch::RangeQuery<2>,
    ctx: &mut QueryContext,
    sk: &sketch::SketchSet<2>,
    batch: &[BatchQuery<2>],
) -> f64 {
    rq.estimate_batch_with(ctx, sk, batch)
        .iter()
        .map(|r| r.as_ref().unwrap().value)
        .sum()
}

/// One online topology operation's cost, as measured by the rebalance
/// probe.
#[derive(serde::Serialize)]
struct RebalanceOpPoint {
    /// Operation kind (`split` / `move` / `merge`).
    op: String,
    /// Wall time of the operation: journal replay of the rebuilt shards
    /// (merges skip it) plus the atomic epoch swap.
    wall_ms: f64,
    /// Longest single `insert_slice` a concurrent ingest thread observed
    /// while the operation ran — the write-path cutover pause (topology
    /// changes hold the writer lock; queries never wait on it).
    ingest_stall_ms: f64,
    /// Shard count after the operation.
    shards_after: usize,
}

/// The `--probe rebalance` record: online split / boundary-move / merge
/// cost, the write-path cutover pause, and warm routed QPS before, during
/// and after the topology churn. Every phase is asserted bit-identical to
/// an unsharded oracle before timing moves on.
#[derive(serde::Serialize)]
struct RebalanceProbeRecord {
    /// Probe tag (`rebalance`).
    probe: String,
    /// Objects summarized and journaled — the replay-cost driver, so
    /// records of this probe compare only within one preset (CI compares
    /// quick runs with quick runs).
    objects: usize,
    /// Data-domain bits per dimension.
    domain_bits: u32,
    /// Boosting instances per sketch.
    instances: usize,
    /// The runtime dispatch decision on the probing machine.
    dispatch: DispatchMeta,
    /// Distinct queries cycled through the router.
    query_set: usize,
    /// Warm routed QPS before any topology change (2 shards).
    qps_before: f64,
    /// Per-operation timings: a split at an unaligned cut, a boundary
    /// move, and a merge, in that order.
    ops: Vec<RebalanceOpPoint>,
    /// Worst write-path stall across the measured operations — the
    /// headline cutover-pause number.
    max_ingest_stall_ms: f64,
    /// Warm routed QPS measured while a split/merge storm churned the
    /// topology. Reads never pause for a cutover, so this should stay
    /// near `qps_before`.
    qps_during_storm: f64,
    /// Topology operations completed during the storm window.
    storm_ops: usize,
    /// Warm routed QPS after the churn settled back to 2 shards.
    qps_after: f64,
    /// `qps_after / qps_before` — CI holds this above a floor: topology
    /// churn must not leave the read path degraded.
    recovery_ratio: f64,
}

/// Rebalance-path probe: cost of online split / boundary-move / merge on a
/// journaled store, the ingest cutover pause each one causes, and routed
/// QPS before / during / after the churn — with bit-match assertions
/// against an unsharded oracle at every step. Appends a record to
/// `results/perf_probe.json`.
pub fn rebalance_probe(threads: usize, quick: bool) {
    use rand::Rng as _;
    let bits = 14u32;
    let objects = if quick { 5_000 } else { 20_000 };
    let data: Vec<geometry::HyperRect<2>> =
        datagen::SyntheticSpec::paper(objects, bits, 0.0, 5).generate();
    let (k1, k2) = (203usize, 5usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let rq = sketch::RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(k1, k2),
        [bits, bits],
        sketch::RangeStrategy::Transform,
    );
    let queries = range_query_workload(9, 32, bits);

    // Unsharded oracle plus a journaled 2-shard store (`LogRetention::Full`
    // is what makes replay-based topology changes legal).
    let mut oracle = rq.new_sketch();
    par_insert_batch(&mut oracle, &data, threads).unwrap();
    let store = Arc::new(ShardedStore::like(&oracle, 2).with_log(sketch::LogRetention::Full));
    for chunk in data.chunks(512) {
        store.insert_slice(chunk).unwrap();
    }
    // Side pool of rects the stall-measuring ingest threads drain (cycled);
    // whatever they applied is replayed into the oracle afterwards so the
    // bit-match assertions keep holding.
    let extra: Vec<geometry::HyperRect<2>> =
        datagen::SyntheticSpec::paper(256, bits, 0.0, 11).generate();

    let router = QueryRouter::new();
    let pool = ContextPool::new(1);
    let routed_qps = |oracle: &sketch::SketchSet<2>, label: &str| -> f64 {
        // Bit-match gate first: the number is only worth recording if the
        // store still answers exactly like the unsharded oracle.
        let mut octx = QueryContext::new();
        for q in &queries {
            let want = rq.estimate_with(&mut octx, oracle, q).unwrap().value;
            let got = pool
                .with(|ctx| router.estimate_range(&rq, &store, ctx, q))
                .unwrap()
                .value;
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "routed answer diverged from the unsharded oracle ({label})"
            );
        }
        let mut qi = 0usize;
        let ns = time_ns_per_call(|| {
            qi = (qi + 1) % queries.len();
            pool.with(|ctx| router.estimate_range(&rq, &store, ctx, &queries[qi]))
                .unwrap()
                .value
        });
        1e9 / ns
    };

    let qps_before = routed_qps(&oracle, "before");
    println!("rebalance  2 shards, warm routed: {qps_before:.0} qps");

    let mut record = RebalanceProbeRecord {
        probe: "rebalance".into(),
        objects: data.len(),
        domain_bits: bits,
        instances: k1 * k2,
        dispatch: dispatch_meta(),
        query_set: queries.len(),
        qps_before,
        ops: Vec::new(),
        max_ingest_stall_ms: 0.0,
        qps_during_storm: 0.0,
        storm_ops: 0,
        qps_after: 0.0,
        recovery_ratio: 0.0,
    };

    // The three measured ops, each chosen from the live load report: an
    // unaligned split of shard 0, a move of the new boundary, and a merge
    // folding it back. Each runs against a concurrent single-rect ingest
    // loop whose worst per-insert wall time is the cutover pause.
    let spans = |st: &ShardedStore<2>| -> Vec<geometry::Interval> {
        st.load_report().shards().iter().map(|s| s.span).collect()
    };
    type TopologyOp = Box<dyn Fn() + Send + Sync>;
    let ops: Vec<(&str, TopologyOp)> = {
        let s0 = spans(&store)[0];
        // An unaligned cut two-fifths in: replay must handle boundaries
        // that match no dyadic block edge.
        let split_at = s0.lo() + 2 * (s0.hi() - s0.lo()) / 5 + 1;
        let move_to = s0.lo() + (s0.hi() - s0.lo()) / 2 + 3;
        let (st_a, st_b, st_c) = (Arc::clone(&store), Arc::clone(&store), Arc::clone(&store));
        vec![
            (
                "split",
                Box::new(move || st_a.split_shard(0, split_at).unwrap()) as Box<_>,
            ),
            (
                "move",
                Box::new(move || st_b.move_shard_boundary(1, move_to).unwrap()) as Box<_>,
            ),
            (
                "merge",
                Box::new(move || st_c.merge_shards(0).unwrap()) as Box<_>,
            ),
        ]
    };
    for (name, op) in ops {
        let stop = AtomicBool::new(false);
        let (wall_ms, stall_ms, applied) = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                // Cycle single-rect inserts until told to stop; the insert
                // issued while the op holds the writer lock blocks for the
                // whole rebuild — its wall time is the pause.
                let mut worst = 0.0f64;
                let mut n = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    store
                        .insert_slice(&extra[n % extra.len()..n % extra.len() + 1])
                        .unwrap();
                    worst = worst.max(t.elapsed().as_secs_f64() * 1e3);
                    n += 1;
                }
                (worst, n)
            });
            let t = Instant::now();
            op();
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            stop.store(true, Ordering::Relaxed);
            let (stall_ms, applied) = ingest.join().unwrap();
            (wall_ms, stall_ms, applied)
        });
        // Mirror the side ingest into the oracle (same rects, same cycle
        // order) so the next bit-match gate compares like with like.
        let replay: Vec<geometry::HyperRect<2>> =
            (0..applied).map(|i| extra[i % extra.len()]).collect();
        par_insert_batch(&mut oracle, &replay, threads).unwrap();
        let shards_after = store.shard_count();
        println!(
            "rebalance  {name}: {wall_ms:.1} ms wall, {stall_ms:.1} ms worst ingest stall, \
             {shards_after} shard(s) after"
        );
        record.max_ingest_stall_ms = record.max_ingest_stall_ms.max(stall_ms);
        record.ops.push(RebalanceOpPoint {
            op: name.into(),
            wall_ms,
            ingest_stall_ms: stall_ms,
            shards_after,
        });
    }

    // Storm phase: a policy thread keeps splitting (load-report candidate)
    // and merging while the read path is timed. Data stays fixed, so every
    // concurrently routed answer still bit-matches the oracle — asserted by
    // the `routed_qps` gate right before timing starts and again after.
    let stop = AtomicBool::new(false);
    let ops_done = AtomicUsize::new(0);
    record.qps_during_storm = std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            let mut srng = rand::rngs::StdRng::seed_from_u64(23);
            while !stop.load(Ordering::Relaxed) {
                if store.shard_count() > 2 {
                    store.merge_shards(0).unwrap();
                } else if let Some((shard, mid)) = store.load_report().split_candidate() {
                    // Jitter the cut off the midpoint so successive storms
                    // exercise different boundaries.
                    let at = mid.saturating_sub(srng.gen_range(0..32)).max(1);
                    if store.split_shard(shard, at).is_err() {
                        store.split_shard(shard, mid).unwrap();
                    }
                }
                ops_done.fetch_add(1, Ordering::Relaxed);
            }
        });
        let qps = routed_qps(&oracle, "mid-storm");
        stop.store(true, Ordering::Relaxed);
        storm.join().unwrap();
        qps
    });
    record.storm_ops = ops_done.load(Ordering::Relaxed);
    println!(
        "rebalance  mid-storm routed: {:.0} qps over {} topology ops",
        record.qps_during_storm, record.storm_ops
    );

    // Settle back to the starting topology and measure recovery.
    while store.shard_count() > 2 {
        store.merge_shards(0).unwrap();
    }
    record.qps_after = routed_qps(&oracle, "after");
    record.recovery_ratio = record.qps_after / record.qps_before;
    println!(
        "rebalance  settled (2 shards): {:.0} qps — {:.2}x of pre-churn",
        record.qps_after, record.recovery_ratio
    );

    let path = crate::report::append_json("perf_probe", &record);
    println!("appended to {}", path.display());
}
