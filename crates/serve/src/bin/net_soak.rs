//! Network-layer soak test: a real TCP server under concurrent ingest,
//! batched queries, one injected handler panic and a deterministic
//! overload phase — the binary the CI `serve-net` lane runs under each
//! blocked kernel (`SKETCH_KERNEL=wide|wide512`).
//!
//! Usage: cargo run --release -p spatial-serve --bin net_soak --
//!          [--iters N] [--shards N] [--seed N] [--clients N] [--batch N]
//!
//! Five phases:
//!
//! 1. **Quiescent differential** — each round ingests into the sharded
//!    stores *and* unsharded oracles, then sends a mixed range/stab/join
//!    batch over TCP and asserts every reply is **bit-identical** to the
//!    oracle estimate.
//! 2. **Fault injection + recovery** — a wire `FaultPanic` must come back
//!    `Internal`, the server must record the panic, and the very next
//!    batches must bit-match again (the poisoned pool slot was recovered,
//!    not abandoned).
//! 3. **Concurrency smoke** — client threads stream batches while the
//!    main thread swaps epochs in; replies must stay well-formed, and at
//!    quiescence every connection must bit-match the oracle.
//! 4. **Deterministic overload** — a zero-capacity server sheds every
//!    query with `Overloaded`, never dropping or blocking.
//! 5. **Slow-reader write-backpressure** — a client pipelines dozens of
//!    frames into a server with a tiny reply write buffer and collects
//!    nothing until the end; the reactor must stop *reading* that
//!    connection instead of buffering replies without bound, resume when
//!    the client drains, and every reply must still bit-match the oracle.
//!
//! The server honors the `SKETCH_NET_REACTORS` / `SKETCH_NET_COALESCE_US`
//! env knobs, which the CI `serve-net` lane sweeps (coalescing on/off).
//! Everything is seeded; a nonzero exit (assert) means a real bug in the
//! codec, the reactor, the batch queue, the pool recovery or the router.

use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::net::{range_query, stab_query, SketchClient, WireErrorCode, WireQuery, WireReply};
use serve::{ContextPool, ServeConfig, SketchService};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{Estimate, QueryContext, RangeQuery};
use std::sync::Arc;

const BITS: u32 = 8;
/// Store-table indices the wire queries address.
const RANGE_STORE: u32 = 0;
const R_STORE: u32 = 1;
const S_STORE: u32 = 2;

struct Args {
    iters: usize,
    shards: usize,
    seed: u64,
    clients: usize,
    batch: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 20,
        shards: 3,
        seed: 17,
        clients: 2,
        batch: 7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| die(&format!("flag {flag} needs a value")));
        let parsed: u64 = value
            .parse()
            .unwrap_or_else(|_| die(&format!("cannot parse `{value}` for {flag}")));
        match flag.as_str() {
            "--iters" => args.iters = parsed as usize,
            "--shards" => args.shards = (parsed as usize).max(1),
            "--seed" => args.seed = parsed,
            "--clients" => args.clients = (parsed as usize).max(1),
            "--batch" => args.batch = (parsed as usize).max(1),
            other => die(&format!(
                "unknown flag `{other}` (supported: --iters --shards --seed --clients --batch)"
            )),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("net_soak: {msg}");
    std::process::exit(2);
}

fn rand_rects(rng: &mut StdRng, n: usize) -> Vec<HyperRect<2>> {
    let max = (1u64 << BITS) - 1;
    (0..n)
        .map(|_| {
            HyperRect::new(std::array::from_fn(|_| {
                let lo = rng.gen_range(0..max - 17);
                Interval::new(lo, lo + rng.gen_range(1..=16u64))
            }))
        })
        .collect()
}

fn assert_wire_matches(want: &Estimate, got: &WireReply, label: &str) {
    match got {
        WireReply::Estimate { value, row_means } => {
            assert_eq!(
                want.value.to_bits(),
                value.to_bits(),
                "{label}: networked total diverged from the oracle ({value} vs {})",
                want.value
            );
            assert_eq!(&want.row_means, row_means, "{label}: row means diverged");
        }
        WireReply::Error { code, message } => {
            panic!("{label}: expected an estimate, got {code:?}: {message}")
        }
        WireReply::Partial { .. } => {
            panic!("{label}: expected a boosted estimate, got a partial grid")
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    let report = sketch::dispatch_report();
    println!(
        "net-soak dispatch: cpu={} max_lane_width={} override={} ingest_threads={}",
        report.cpu.name(),
        report.max_lane_width,
        report.env_override.unwrap_or("none"),
        report.ingest_threads,
    );
    let mut rng = StdRng::seed_from_u64(args.seed);

    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [BITS, BITS],
        sketch::RangeStrategy::Transform,
    );
    let join = SpatialJoin::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [BITS, BITS],
        EndpointStrategy::Transform,
    );
    let range_store = Arc::new(serve::ShardedStore::like(&rq.new_sketch(), args.shards));
    let r_store = Arc::new(serve::ShardedStore::like(&join.new_sketch_r(), args.shards));
    let s_store = Arc::new(serve::ShardedStore::like(&join.new_sketch_s(), args.shards));
    let mut range_oracle = rq.new_sketch();
    let mut r_oracle = join.new_sketch_r();
    let mut s_oracle = join.new_sketch_s();

    let service = Arc::new(
        SketchService::new(
            rq.clone(),
            vec![
                Arc::clone(&range_store),
                Arc::clone(&r_store),
                Arc::clone(&s_store),
            ],
        )
        .with_join(join.clone()),
    );
    let pool = Arc::new(ContextPool::new(2));
    // The remaining knobs (reactors, coalesce_us, write-backpressure
    // bounds) come from `Default`, which consults the `SKETCH_NET_*` env
    // vars — the CI lane matrix sweeps coalescing on/off through them.
    let config = ServeConfig {
        workers: 2,
        max_batch: args.batch.max(4),
        queue_capacity: 256,
        fault_injection: true,
        ..ServeConfig::default()
    };
    println!(
        "net-soak multiplexer: reactors={} coalesce_us={}",
        config.reactors, config.coalesce_us
    );
    let server = serve::net::serve(Arc::clone(&service), Arc::clone(&pool), &config, 0)
        .unwrap_or_else(|e| die(&format!("cannot bind: {e}")));
    let addr = server.local_addr();
    let mut client =
        SketchClient::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect: {e}")));
    client.ping().expect("ping");

    let mut octx = QueryContext::new();
    let mut live: Vec<HyperRect<2>> = Vec::new();
    let mut checks = 0u64;

    // Phase 1: quiescent differential rounds.
    for round in 0..args.iters {
        let batch = rand_rects(&mut rng, 30);
        range_store.insert_slice(&batch).unwrap();
        range_oracle.insert_slice(&batch).unwrap();
        r_store.insert_slice(&batch).unwrap();
        r_oracle.insert_slice(&batch).unwrap();
        let other = rand_rects(&mut rng, 30);
        s_store.insert_slice(&other).unwrap();
        s_oracle.insert_slice(&other).unwrap();
        live.extend_from_slice(&batch);
        if live.len() > 90 {
            let dels: Vec<HyperRect<2>> = live.drain(..20).collect();
            range_store.delete_slice(&dels).unwrap();
            range_oracle.delete_slice(&dels).unwrap();
            r_store.delete_slice(&dels).unwrap();
            r_oracle.delete_slice(&dels).unwrap();
        }

        // One mixed wire batch per round: ranges, stabs, one join.
        let rects = rand_rects(&mut rng, args.batch.saturating_sub(3).max(1));
        let mut queries: Vec<WireQuery> =
            rects.iter().map(|q| range_query(RANGE_STORE, q)).collect();
        let anchor = live[rng.gen_range(0..live.len())];
        let p = [anchor.range(0).lo(), anchor.range(1).lo()];
        queries.push(stab_query(RANGE_STORE, &p));
        queries.push(WireQuery::Join {
            r_store: R_STORE,
            s_store: S_STORE,
        });
        let replies = client.query_batch(&queries).expect("query batch");
        for (i, q) in rects.iter().enumerate() {
            let want = rq.estimate_with(&mut octx, &range_oracle, q).unwrap();
            assert_wire_matches(&want, &replies[i], &format!("round {round} range {i}"));
            checks += 1;
        }
        let want = rq.estimate_stab_with(&mut octx, &range_oracle, &p).unwrap();
        assert_wire_matches(&want, &replies[rects.len()], &format!("round {round} stab"));
        let want = join.estimate_with(&mut octx, &r_oracle, &s_oracle).unwrap();
        assert_wire_matches(
            &want,
            &replies[rects.len() + 1],
            &format!("round {round} join"),
        );
        checks += 2;
    }

    // Phase 2: injected handler panic over the wire, then recovery.
    let replies = client
        .query_batch(&[WireQuery::FaultPanic])
        .expect("fault batch");
    assert!(
        matches!(
            replies[0],
            WireReply::Error {
                code: WireErrorCode::Internal,
                ..
            }
        ),
        "injected panic should answer Internal, got {:?}",
        replies[0]
    );
    assert!(
        server.stats().panics >= 1,
        "server did not record the injected panic"
    );
    for round in 0..3 {
        let q = rand_rects(&mut rng, 1)[0];
        let replies = client
            .query_batch(&[range_query(RANGE_STORE, &q)])
            .expect("post-panic batch");
        let want = rq.estimate_with(&mut octx, &range_oracle, &q).unwrap();
        assert_wire_matches(&want, &replies[0], &format!("post-panic round {round}"));
        checks += 1;
    }

    // Phase 3: concurrent clients race epoch swaps, then quiesce.
    let queries = rand_rects(&mut rng, 8);
    let churn = rand_rects(&mut rng, 60);
    std::thread::scope(|scope| {
        for t in 0..args.clients {
            let queries = &queries;
            scope.spawn(move || {
                let mut c = SketchClient::connect(addr).expect("client connect");
                for i in 0..15usize {
                    let batch: Vec<WireQuery> = (0..3)
                        .map(|j| range_query(RANGE_STORE, &queries[(t + i + j) % queries.len()]))
                        .collect();
                    let replies = c.query_batch(&batch).expect("concurrent batch");
                    for reply in replies {
                        match reply {
                            WireReply::Estimate { value, .. } => {
                                assert!(value.is_finite(), "client {t} non-finite estimate")
                            }
                            WireReply::Error { code, message } => {
                                panic!("client {t} mid-churn error {code:?}: {message}")
                            }
                            WireReply::Partial { .. } => {
                                panic!("client {t} got a partial grid for a boosted query")
                            }
                        }
                    }
                }
            });
        }
        for chunk in churn.chunks(12) {
            range_store.insert_slice(chunk).unwrap();
        }
    });
    range_oracle.insert_slice(&churn).unwrap();
    let batch: Vec<WireQuery> = queries
        .iter()
        .map(|q| range_query(RANGE_STORE, q))
        .collect();
    let replies = client.query_batch(&batch).expect("quiescent batch");
    for (q, reply) in queries.iter().zip(&replies) {
        let want = rq.estimate_with(&mut octx, &range_oracle, q).unwrap();
        assert_wire_matches(&want, reply, "post-churn quiescence");
        checks += 1;
    }

    let stats = server.shutdown();

    // Phase 4: a zero-capacity server sheds deterministically.
    let shed_server = serve::net::serve(
        Arc::clone(&service),
        Arc::clone(&pool),
        &ServeConfig {
            queue_capacity: 0,
            ..config.clone()
        },
        0,
    )
    .unwrap_or_else(|e| die(&format!("cannot bind shed server: {e}")));
    let mut shed_client = SketchClient::connect(shed_server.local_addr()).expect("shed connect");
    let replies = shed_client
        .query_batch(&batch)
        .expect("shed batch round-trips");
    assert!(
        replies.iter().all(|r| matches!(
            r,
            WireReply::Error {
                code: WireErrorCode::Overloaded,
                ..
            }
        )),
        "zero-capacity server must shed every query"
    );
    let shed_stats = shed_server.shutdown();
    assert_eq!(shed_stats.shed, batch.len() as u64);

    // Phase 5: slow-reader write-backpressure. A tiny reply write buffer
    // plus a client that pipelines every frame before collecting any
    // forces the reactor past `write_buf_cap`; it must park the reads for
    // that connection (bounding memory), keep the rest of the server
    // live, and deliver every bit-identical reply once the client drains.
    let bp_server = serve::net::serve(
        Arc::clone(&service),
        Arc::clone(&pool),
        &ServeConfig {
            write_buf_cap: 1024,
            max_pipeline: 64,
            fault_injection: false,
            ..config.clone()
        },
        0,
    )
    .unwrap_or_else(|e| die(&format!("cannot bind backpressure server: {e}")));
    let mut slow = SketchClient::connect(bp_server.local_addr()).expect("slow-reader connect");
    let bp_rects = rand_rects(&mut rng, 24);
    let tickets: Vec<_> = bp_rects
        .iter()
        .map(|q| {
            let frame: Vec<WireQuery> = (0..3).map(|_| range_query(RANGE_STORE, q)).collect();
            slow.submit(&frame).expect("pipelined submit")
        })
        .collect();
    assert_eq!(slow.in_flight(), tickets.len());
    // Give the server time to answer what it admitted and hit the write
    // cap; a healthy reactor keeps serving *other* connections meanwhile.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut other = SketchClient::connect(bp_server.local_addr()).expect("second connect");
    other.ping().expect("server responsive under backpressure");
    // Drain in reverse submission order: completion order is the
    // server's, association is by frame id.
    for (i, ticket) in tickets.iter().enumerate().rev() {
        let replies = slow.collect(*ticket).expect("backpressured collect");
        assert_eq!(replies.len(), 3, "backpressure frame {i} arity");
        let want = rq
            .estimate_with(&mut octx, &range_oracle, &bp_rects[i])
            .unwrap();
        for reply in &replies {
            assert_wire_matches(&want, reply, &format!("backpressure frame {i}"));
            checks += 1;
        }
    }
    let bp_stats = bp_server.shutdown();
    assert_eq!(
        bp_stats.served,
        3 * bp_rects.len() as u64,
        "every pipelined query must be served, none dropped under backpressure"
    );

    println!(
        "net-soak OK: {} rounds, {checks} bit-match checks, {} served / {} batches, {} panic(s) recovered, {} shed, backpressure drained {}",
        args.iters, stats.served, stats.batches, stats.panics, shed_stats.shed, bp_stats.served
    );
}
