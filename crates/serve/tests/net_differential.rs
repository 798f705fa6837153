//! Differential suite for the network front-end: batched answers over a
//! real TCP connection against the in-process `QueryRouter` oracle.
//!
//! The wire carries f64 *bit patterns*, the workers answer through the
//! same router + pooled contexts the in-process path uses, and counter
//! merges are integer folds — so every networked estimate must be
//! **bit-identical** to the in-process answer, across the query-kernel
//! matrix and batch sizes 1/7/64. Also covered: pipelined out-of-order
//! frame completion, cross-connection batch coalescing, client timeouts
//! and reconnect against a dying server, deterministic load shedding,
//! wire-injected panic + pool recovery, protocol-violation handling, and
//! ping liveness.
//!
//! Heavyweight cases (the full kernel × batch-size sweep, the coalescing
//! cases under both kernels) are gated to the `tests-release` lane with
//! `#[cfg_attr(debug_assertions, ignore)]`, following the ROADMAP
//! convention.

use geometry::{HyperRect, Interval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::net::codec::{decode_queries, encode_replies, Opcode};
use serve::net::io::{frame_bytes, read_frame, write_frame};
use serve::net::{
    range_query, serve, stab_query, ClientConfig, SketchClient, WireError, WireErrorCode,
    WireQuery, WireReply,
};
use serve::{ContextPool, QueryRouter, ServeConfig, ShardedStore, SketchService, WorkerContext};
use sketch::estimators::joins::{EndpointStrategy, SpatialJoin};
use sketch::estimators::SketchConfig;
use sketch::{Estimate, QueryKernel, RangeQuery, RangeStrategy};
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const KERNELS: [QueryKernel; 2] = [QueryKernel::Scalar, QueryKernel::Wide];
const BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// A served fixture: range + join estimators over three sharded stores
/// (range at index 0, join R/S at 1/2), with unsharded oracle routing
/// state kept alongside for the differential checks.
struct Fixture {
    rq: RangeQuery<2>,
    join: SpatialJoin<2>,
    stores: Vec<Arc<ShardedStore<2>>>,
    data: Vec<HyperRect<2>>,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [8, 8],
        RangeStrategy::Transform,
    );
    let join = SpatialJoin::<2>::new(
        &mut rng,
        SketchConfig::new(13, 3),
        [8, 8],
        EndpointStrategy::Transform,
    );
    let range_store = Arc::new(ShardedStore::like(&rq.new_sketch(), 3));
    let r_store = Arc::new(ShardedStore::like(&join.new_sketch_r(), 2));
    let s_store = Arc::new(ShardedStore::like(&join.new_sketch_s(), 4));
    let data = rand_rects(&mut rng, 80);
    // Multi-epoch history with deletes, mirrored into all three stores.
    for store in [&range_store, &r_store, &s_store] {
        for chunk in data.chunks(30) {
            store.insert_slice(chunk).unwrap();
        }
        store.delete_slice(&data[..15]).unwrap();
    }
    Fixture {
        rq,
        join,
        stores: vec![range_store, r_store, s_store],
        data,
    }
}

fn rand_rects(rng: &mut StdRng, n: usize) -> Vec<HyperRect<2>> {
    (0..n)
        .map(|_| {
            HyperRect::new(std::array::from_fn(|_| {
                let lo = rng.gen_range(0..255 - 17u64);
                Interval::new(lo, lo + rng.gen_range(1..=16u64))
            }))
        })
        .collect()
}

fn assert_wire_bit_identical(want: &Estimate, got: &WireReply, label: &str) {
    let WireReply::Estimate { value, row_means } = got else {
        panic!("{label}: expected an estimate, got {got:?}");
    };
    assert_eq!(
        want.value.to_bits(),
        value.to_bits(),
        "{label}: networked value diverged ({value} vs {})",
        want.value
    );
    assert_eq!(want.row_means.len(), row_means.len(), "{label}: row count");
    for (i, (a, b)) in want.row_means.iter().zip(row_means.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: row mean {i} diverged");
    }
}

/// The full matrix: for each query kernel and batch size, a mixed
/// range/stab/join batch answered over TCP must bit-match the in-process
/// router driven with the same kernel.
fn kernel_batch_matrix(fx: &Fixture, kernels: &[QueryKernel], sizes: &[usize]) {
    let mut rng = StdRng::seed_from_u64(907);
    let router = QueryRouter::new();
    for &kernel in kernels {
        let service = Arc::new(
            SketchService::new(fx.rq.clone(), fx.stores.clone()).with_join(fx.join.clone()),
        );
        // Pin the served kernel through the pool contexts.
        let pool = Arc::new(ContextPool::new(2));
        pool.with(|ctx| ctx.query.set_kernel(kernel));
        pool.with(|ctx| ctx.query.set_kernel(kernel));
        let server = serve(service, pool, &ServeConfig::default(), 0).unwrap();
        let mut client = SketchClient::connect(server.local_addr()).unwrap();
        let mut ctx = WorkerContext::new().with_kernel(kernel);

        for &size in sizes {
            let label = format!("{kernel:?}/batch{size}");
            let mut queries = Vec::with_capacity(size);
            let mut oracle: Vec<Estimate> = Vec::with_capacity(size);
            for i in 0..size {
                match i % 3 {
                    0 => {
                        let q = rand_rects(&mut rng, 1)[0];
                        queries.push(range_query(0, &q));
                        oracle.push(
                            router
                                .estimate_range(&fx.rq, &fx.stores[0], &mut ctx, &q)
                                .unwrap(),
                        );
                    }
                    1 => {
                        let anchor = fx.data[rng.gen_range(15..fx.data.len())];
                        let p = [anchor.range(0).lo(), anchor.range(1).lo()];
                        queries.push(stab_query(0, &p));
                        oracle.push(
                            router
                                .estimate_stab(&fx.rq, &fx.stores[0], &mut ctx, &p)
                                .unwrap(),
                        );
                    }
                    _ => {
                        queries.push(WireQuery::Join {
                            r_store: 1,
                            s_store: 2,
                        });
                        oracle.push(
                            router
                                .estimate_join(&fx.join, &fx.stores[1], &fx.stores[2], &mut ctx)
                                .unwrap(),
                        );
                    }
                }
            }
            let replies = client.query_batch(&queries).unwrap();
            assert_eq!(replies.len(), size, "{label}: reply arity");
            for (i, (want, got)) in oracle.iter().zip(replies.iter()).enumerate() {
                assert_wire_bit_identical(want, got, &format!("{label}/q{i}"));
            }
        }
        drop(client);
        server.shutdown();
    }
}

#[test]
fn networked_batches_bit_match_router_small() {
    let fx = fixture(901);
    kernel_batch_matrix(&fx, &[QueryKernel::Wide], &[1, 7]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn networked_batches_bit_match_router_matrix() {
    let fx = fixture(902);
    kernel_batch_matrix(&fx, &KERNELS, &BATCH_SIZES);
}

#[test]
fn zero_capacity_server_sheds_every_query() {
    let fx = fixture(903);
    let service = Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()));
    let pool = Arc::new(ContextPool::new(1));
    let config = ServeConfig {
        queue_capacity: 0,
        ..ServeConfig::default()
    };
    let server = serve(service, pool, &config, 0).unwrap();
    let mut client = SketchClient::connect(server.local_addr()).unwrap();
    let queries: Vec<WireQuery> = fx.data[..5].iter().map(|q| range_query(0, q)).collect();
    let replies = client.query_batch(&queries).unwrap();
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            matches!(
                reply,
                WireReply::Error {
                    code: WireErrorCode::Overloaded,
                    ..
                }
            ),
            "query {i} was not shed: {reply:?}"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed, 5);
    assert_eq!(stats.served, 0);
}

#[test]
fn wire_injected_panic_recovers_single_worker() {
    // One worker, one pool slot: the panicking batch and every later batch
    // share the same context, so recovery (not just survival) is proven.
    let fx = fixture(904);
    let service = Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()));
    let pool = Arc::new(ContextPool::new(1));
    let config = ServeConfig {
        workers: 1,
        fault_injection: true,
        ..ServeConfig::default()
    };
    let server = serve(service, pool, &config, 0).unwrap();
    let mut client = SketchClient::connect(server.local_addr()).unwrap();

    // Warm the slot's caches first so the reset discards real state.
    let q = fx.data[20];
    let warm = client.query_batch(&[range_query(0, &q)]).unwrap();
    assert!(matches!(warm[0], WireReply::Estimate { .. }));

    let replies = client.query_batch(&[WireQuery::FaultPanic]).unwrap();
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

    // The recovered slot must serve bit-identical answers again.
    let router = QueryRouter::new();
    let mut ctx = WorkerContext::new();
    for round in 0..3 {
        let want = router
            .estimate_range(&fx.rq, &fx.stores[0], &mut ctx, &q)
            .unwrap();
        let got = client.query_batch(&[range_query(0, &q)]).unwrap();
        assert_wire_bit_identical(&want, &got[0], &format!("post-panic round {round}"));
    }
    let stats = server.shutdown();
    assert_eq!(stats.panics, 1);
}

#[test]
fn malformed_queries_answer_bad_request_without_killing_batchmates() {
    let fx = fixture(905);
    let service = Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()));
    let pool = Arc::new(ContextPool::new(1));
    let server = serve(service, pool, &ServeConfig::default(), 0).unwrap();
    let mut client = SketchClient::connect(server.local_addr()).unwrap();

    let good = fx.data[30];
    let queries = vec![
        range_query(0, &good),
        WireQuery::Range {
            store: 99, // unknown store index
            ranges: vec![(0, 10), (0, 10)],
        },
        WireQuery::Stab {
            store: 0,
            point: vec![1, 2, 3], // wrong dimensionality
        },
        WireQuery::Join {
            r_store: 1,
            s_store: 2, // service has no join estimator
        },
        WireQuery::FaultPanic, // fault injection disabled
        range_query(0, &good),
    ];
    let replies = client.query_batch(&queries).unwrap();
    let router = QueryRouter::new();
    let mut ctx = WorkerContext::new();
    let want = router
        .estimate_range(&fx.rq, &fx.stores[0], &mut ctx, &good)
        .unwrap();
    assert_wire_bit_identical(&want, &replies[0], "good before bad");
    assert_wire_bit_identical(&want, &replies[5], "good after bad");
    for (i, reply) in replies[1..5].iter().enumerate() {
        assert!(
            matches!(
                reply,
                WireReply::Error {
                    code: WireErrorCode::BadRequest,
                    ..
                }
            ),
            "bad query {} did not answer BadRequest: {reply:?}",
            i + 1
        );
    }
    server.shutdown();
}

fn assert_replies_bit_identical(want: &WireReply, got: &WireReply, label: &str) {
    match (want, got) {
        (
            WireReply::Estimate {
                value: va,
                row_means: ra,
            },
            WireReply::Estimate {
                value: vb,
                row_means: rb,
            },
        ) => {
            assert_eq!(va.to_bits(), vb.to_bits(), "{label}: value diverged");
            assert_eq!(ra.len(), rb.len(), "{label}: row count diverged");
            for (i, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: row mean {i} diverged");
            }
        }
        (want, got) => assert_eq!(want, got, "{label}: replies diverged"),
    }
}

#[test]
fn chunked_client_bit_matches_one_by_one() {
    let fx = fixture(908);
    let service = Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()));
    let pool = Arc::new(ContextPool::new(2));
    let config = ServeConfig::default();
    let server = serve(service, pool, &config, 0).unwrap();
    let mut client = SketchClient::connect(server.local_addr()).unwrap();

    let mut rng = StdRng::seed_from_u64(908);
    // 41 queries: more than two max_batch frames, with a short final chunk;
    // mixes ranges, stabs and one bad slot so errors chunk through too.
    let mut queries = Vec::new();
    for i in 0..41 {
        match i % 4 {
            3 => {
                let anchor = fx.data[rng.gen_range(15..fx.data.len())];
                queries.push(stab_query(0, &[anchor.range(0).lo(), anchor.range(1).lo()]));
            }
            2 if i == 22 => queries.push(WireQuery::Stab {
                store: 0,
                point: vec![1, 2, 3], // wrong dimensionality: BadRequest slot
            }),
            _ => queries.push(range_query(0, &rand_rects(&mut rng, 1)[0])),
        }
    }

    // An empty list performs no round-trip and answers nothing.
    assert!(client
        .query_batch_chunked(&[], config.max_batch)
        .unwrap()
        .is_empty());

    let chunked = client
        .query_batch_chunked(&queries, config.max_batch)
        .unwrap();
    assert_eq!(chunked.len(), queries.len(), "chunked reply arity");
    for (i, q) in queries.iter().enumerate() {
        let single = client.query_batch(std::slice::from_ref(q)).unwrap();
        assert_replies_bit_identical(&single[0], &chunked[i], &format!("chunked slot {i}"));
    }
    server.shutdown();
}

/// Many frames in flight on one connection, redeemed in *reverse*
/// submission order: whatever order the server completes them in, the
/// frame-id matching must hand every ticket its own replies, bit-identical
/// to the in-process router.
#[test]
fn pipelined_frames_complete_out_of_order_bit_identically() {
    let fx = fixture(909);
    let service =
        Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()).with_join(fx.join.clone()));
    let pool = Arc::new(ContextPool::new(2));
    let server = serve(service, pool, &ServeConfig::default(), 0).unwrap();
    let mut client = SketchClient::connect(server.local_addr()).unwrap();
    let router = QueryRouter::new();
    let mut ctx = WorkerContext::new();
    let mut rng = StdRng::seed_from_u64(909);

    // Frames of varying size and kind, all submitted before any collect.
    let mut frames: Vec<(serve::net::Ticket, Vec<Estimate>)> = Vec::new();
    for f in 0..9usize {
        let mut queries = Vec::new();
        let mut oracle = Vec::new();
        for i in 0..(f % 4) + 1 {
            match (f + i) % 3 {
                0 => {
                    let q = rand_rects(&mut rng, 1)[0];
                    queries.push(range_query(0, &q));
                    oracle.push(
                        router
                            .estimate_range(&fx.rq, &fx.stores[0], &mut ctx, &q)
                            .unwrap(),
                    );
                }
                1 => {
                    let anchor = fx.data[rng.gen_range(15..fx.data.len())];
                    let p = [anchor.range(0).lo(), anchor.range(1).lo()];
                    queries.push(stab_query(0, &p));
                    oracle.push(
                        router
                            .estimate_stab(&fx.rq, &fx.stores[0], &mut ctx, &p)
                            .unwrap(),
                    );
                }
                _ => {
                    queries.push(WireQuery::Join {
                        r_store: 1,
                        s_store: 2,
                    });
                    oracle.push(
                        router
                            .estimate_join(&fx.join, &fx.stores[1], &fx.stores[2], &mut ctx)
                            .unwrap(),
                    );
                }
            }
        }
        let ticket = client.submit(&queries).unwrap();
        frames.push((ticket, oracle));
    }
    assert_eq!(client.in_flight(), frames.len());

    for (f, (ticket, oracle)) in frames.iter().enumerate().rev() {
        let replies = client.collect(*ticket).unwrap();
        assert_eq!(replies.len(), oracle.len(), "frame {f} arity");
        for (i, (want, got)) in oracle.iter().zip(replies.iter()).enumerate() {
            assert_wire_bit_identical(want, got, &format!("pipelined frame {f} q{i}"));
        }
    }
    assert_eq!(client.in_flight(), 0);
    // A redeemed ticket is spent.
    assert!(matches!(
        client.collect(frames[0].0),
        Err(WireError::UnknownFrame(_))
    ));
    server.shutdown();
}

/// A hand-rolled server that answers in **reverse** arrival order proves
/// the client's id matching deterministically: the reply read off the
/// wire first belongs to the frame submitted last.
#[test]
fn reply_matching_handles_out_of_order_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let frame = read_frame(&mut stream).unwrap();
            assert_eq!(frame.opcode, Opcode::QueryBatch);
            let queries = decode_queries(&frame.payload).unwrap();
            // Tag each reply with its frame id so the test can prove the
            // client handed the right replies to the right ticket.
            let replies: Vec<WireReply> = queries
                .iter()
                .map(|_| WireReply::Estimate {
                    value: f64::from(frame.frame_id),
                    row_means: Vec::new(),
                })
                .collect();
            got.push((frame.frame_id, encode_replies(&replies)));
        }
        got.reverse();
        for (id, payload) in got {
            write_frame(&mut stream, Opcode::ReplyBatch, id, &payload).unwrap();
        }
    });

    let mut client = SketchClient::connect(addr).unwrap();
    let q = WireQuery::Stab {
        store: 0,
        point: vec![1, 2],
    };
    let first = client.submit(std::slice::from_ref(&q)).unwrap();
    let second = client.submit(std::slice::from_ref(&q)).unwrap();
    assert_ne!(first.frame_id(), second.frame_id());
    // Collect in submission order even though the wire carries the
    // replies reversed: `first`'s collect stashes `second`'s reply.
    let replies = client.collect(first).unwrap();
    assert_eq!(replies.len(), 1);
    assert!(
        matches!(&replies[0], WireReply::Estimate { value, .. } if *value == f64::from(first.frame_id()))
    );
    let replies = client.collect(second).unwrap();
    assert!(
        matches!(&replies[0], WireReply::Estimate { value, .. } if *value == f64::from(second.frame_id()))
    );
    fake.join().unwrap();
}

/// Batch-of-1 clients on separate connections, a coalescing window wide
/// enough to merge them: every reply must still be bit-identical to the
/// sequential oracle — coalescing may change *when* queries are
/// evaluated, never *what* they answer.
fn coalescing_case(fx: &Fixture, kernel: QueryKernel, clients: usize, rounds: usize) {
    let service = Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()));
    // One worker and one pool slot: every coalesced batch rides the same
    // context, so cross-connection merging is maximal and kernel pinning
    // is deterministic.
    let pool = Arc::new(ContextPool::new(1));
    pool.with(|ctx| ctx.query.set_kernel(kernel));
    let config = ServeConfig {
        workers: 1,
        max_batch: 16,
        coalesce_us: 2_000,
        ..ServeConfig::default()
    };
    let server = serve(service, pool, &config, 0).unwrap();
    let addr = server.local_addr();

    let per_client: Vec<Vec<WireQuery>> = (0..clients)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(910 + t as u64);
            (0..rounds)
                .map(|i| {
                    if i % 3 == 2 {
                        let anchor = fx.data[rng.gen_range(15..fx.data.len())];
                        stab_query(0, &[anchor.range(0).lo(), anchor.range(1).lo()])
                    } else {
                        range_query(0, &rand_rects(&mut rng, 1)[0])
                    }
                })
                .collect()
        })
        .collect();

    let answers: Vec<Vec<WireReply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|queries| {
                scope.spawn(move || {
                    let mut client = SketchClient::connect(addr).expect("coalesce connect");
                    queries
                        .iter()
                        .map(|q| {
                            let replies =
                                client.query_batch(std::slice::from_ref(q)).expect("batch");
                            assert_eq!(replies.len(), 1);
                            replies.into_iter().next().unwrap()
                        })
                        .collect::<Vec<WireReply>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = server.shutdown();
    assert_eq!(stats.served, (clients * rounds) as u64);

    let mut ctx = WorkerContext::new().with_kernel(kernel);
    let router = QueryRouter::new();
    for (t, (queries, replies)) in per_client.iter().zip(&answers).enumerate() {
        for (i, (query, got)) in queries.iter().zip(replies).enumerate() {
            let want = match query {
                WireQuery::Range { ranges, .. } => {
                    let rect = HyperRect::new(std::array::from_fn(|d| {
                        Interval::new(ranges[d].0, ranges[d].1)
                    }));
                    router
                        .estimate_range(&fx.rq, &fx.stores[0], &mut ctx, &rect)
                        .unwrap()
                }
                WireQuery::Stab { point, .. } => router
                    .estimate_stab(&fx.rq, &fx.stores[0], &mut ctx, &[point[0], point[1]])
                    .unwrap(),
                other => panic!("unexpected query {other:?}"),
            };
            assert_wire_bit_identical(&want, got, &format!("{kernel:?} client {t} round {i}"));
        }
    }
}

#[test]
fn cross_connection_coalescing_is_bit_identical_small() {
    let fx = fixture(911);
    coalescing_case(&fx, QueryKernel::Wide, 4, 5);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "heavyweight: tests-release lane")]
fn cross_connection_coalescing_is_bit_identical_matrix() {
    let fx = fixture(912);
    for kernel in KERNELS {
        coalescing_case(&fx, kernel, 8, 12);
    }
}

/// A server that accepts and reads but never replies must surface as
/// [`WireError::Timeout`], not a forever-blocked client.
#[test]
fn client_times_out_instead_of_blocking_when_server_stalls() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Read the request, answer nothing, hold the socket open until
        // the client has long given up.
        let _ = read_frame(&mut stream);
        std::thread::sleep(Duration::from_millis(800));
    });
    let mut client = SketchClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(120)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let q = WireQuery::Stab {
        store: 0,
        point: vec![3, 4],
    };
    assert!(matches!(
        client.query_batch(std::slice::from_ref(&q)),
        Err(WireError::Timeout)
    ));
    stall.join().unwrap();
}

/// The kill-the-server-mid-batch case: the peer dies after a *partial*
/// reply frame. The client must report [`WireError::Disconnected`] — not
/// hang, not misparse — and [`SketchClient::reconnect`] must yield a
/// working connection.
#[test]
fn server_death_mid_frame_surfaces_disconnected_and_reconnect_recovers() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        // First connection: die mid-frame, after the header but before
        // the payload completes.
        let (mut stream, _) = listener.accept().unwrap();
        let frame = read_frame(&mut stream).unwrap();
        let queries = decode_queries(&frame.payload).unwrap();
        let replies: Vec<WireReply> = queries
            .iter()
            .map(|_| WireReply::Estimate {
                value: 7.5,
                row_means: Vec::new(),
            })
            .collect();
        let bytes = frame_bytes(
            Opcode::ReplyBatch,
            frame.frame_id,
            &encode_replies(&replies),
        );
        stream.write_all(&bytes[..bytes.len() - 3]).unwrap();
        drop(stream); // mid-frame death

        // Second connection (the reconnect): answer properly.
        let (mut stream, _) = listener.accept().unwrap();
        let frame = read_frame(&mut stream).unwrap();
        let queries = decode_queries(&frame.payload).unwrap();
        let replies: Vec<WireReply> = queries
            .iter()
            .map(|_| WireReply::Estimate {
                value: 7.5,
                row_means: Vec::new(),
            })
            .collect();
        write_frame(
            &mut stream,
            Opcode::ReplyBatch,
            frame.frame_id,
            &encode_replies(&replies),
        )
        .unwrap();
    });

    let mut client = SketchClient::connect(addr).unwrap();
    let q = WireQuery::Stab {
        store: 0,
        point: vec![5, 6],
    };
    assert!(matches!(
        client.query_batch(std::slice::from_ref(&q)),
        Err(WireError::Disconnected)
    ));
    client.reconnect().unwrap();
    assert_eq!(
        client.in_flight(),
        0,
        "reconnect invalidates in-flight state"
    );
    let replies = client.query_batch(std::slice::from_ref(&q)).unwrap();
    assert!(matches!(&replies[0], WireReply::Estimate { value, .. } if *value == 7.5));
    fake.join().unwrap();
}

#[test]
fn garbage_frames_close_only_the_offending_connection() {
    let fx = fixture(906);
    let service = Arc::new(SketchService::new(fx.rq.clone(), fx.stores.clone()));
    let pool = Arc::new(ContextPool::new(1));
    let server = serve(service, pool, &ServeConfig::default(), 0).unwrap();

    // A peer that writes garbage gets dropped…
    let mut garbage = std::net::TcpStream::connect(server.local_addr()).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    garbage.flush().unwrap();
    let mut probe = SketchClient::connect(server.local_addr()).unwrap();
    // …while a well-behaved connection keeps serving.
    probe.ping().unwrap();
    let q = fx.data[40];
    let replies = probe.query_batch(&[range_query(0, &q)]).unwrap();
    assert!(matches!(replies[0], WireReply::Estimate { .. }));
    server.shutdown();
}
