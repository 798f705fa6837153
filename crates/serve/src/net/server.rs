//! The TCP serving front-end: a small fixed pool of **reactor** threads
//! multiplexing every connection over non-blocking sockets, feeding a
//! bounded batch queue with a cross-connection coalescing window, worker
//! threads answering whole batches through one [`ContextPool`] pass,
//! load-shedding at admission, graceful drain on shutdown.
//!
//! ## The reactor
//!
//! Connections cost state, not threads. Each reactor thread owns a set of
//! non-blocking `TcpStream`s and sweeps them in a readiness loop: read
//! whatever bytes the kernel has (`WouldBlock` ends the attempt), feed
//! them to the connection's incremental [`FrameDecoder`], admit decoded
//! queries to the shared queue, and flush the connection's write buffer as
//! far as the socket accepts. A connection is a state machine:
//!
//! ```text
//!             bytes                    frames                 jobs
//!   socket ──────────▶ FrameDecoder ──────────▶ PendingFrame ─────▶ BatchQueue
//!     ▲                                          (one slot            │ drain ≤ max_batch,
//!     │ flush ≤ WouldBlock                        per query)          │ coalescing window
//!   WriteBuf ◀── encode ReplyBatch ◀── last slot filled ◀── Completion(conn, frame, slot)
//! ```
//!
//! When a reactor sweep makes no progress it parks: first a few
//! `yield_now` passes (cheap, keeps latency low while traffic flows),
//! then a short `Condvar` timed wait that worker completions and the
//! acceptor's new-connection handoff interrupt. Thousands of idle
//! connections therefore cost a few parked threads and their buffers.
//!
//! ## Pipelining
//!
//! Every frame carries a client-chosen id, and a connection may have many
//! request frames in flight ([`ServeConfig::max_pipeline`]). Each admitted
//! query remembers its `(connection, frame id, slot)` origin; when the
//! last slot of a frame completes, the reply frame — tagged with the
//! request's id — is encoded into the connection's write buffer. Frames
//! complete **out of request order** whenever their batches do; the id is
//! what lets the client re-associate them.
//!
//! ## Cross-connection coalescing
//!
//! Workers drain up to [`ServeConfig::max_batch`] jobs at a time — from
//! any mix of connections and frames. With a coalescing window
//! ([`ServeConfig::coalesce_us`]) a worker that finds the queue non-empty
//! but below `max_batch` waits up to the window for more arrivals before
//! evaluating, so even a fleet of batch-of-1 clients fills whole worker
//! passes ([`SketchService::answer_batch`] →
//! [`QueryRouter::estimate_batch`] / [`QueryRouter::partial_batch`]): one
//! pool checkout and epoch check per pass, one view fold and routed call
//! per (store, partial) group, one answer per distinct query, duplicates
//! cloned.
//! The window trades a bounded latency add at low load for per-query cost
//! at high load; coalesced batches stay bit-identical to sequential
//! evaluation because every batched query runs the single-query fill.
//!
//! ## Backpressure
//!
//! Two distinct mechanisms:
//!
//! * **Admission**: the queue is bounded by
//!   [`ServeConfig::queue_capacity`]; when it is full (or closed for
//!   shutdown) the query is *shed* — answered immediately with
//!   [`WireErrorCode::Overloaded`], never silently dropped.
//! * **Write**: a connection whose peer reads slowly accumulates encoded
//!   replies in its write buffer. Past [`ServeConfig::write_buf_cap`] (or
//!   `max_pipeline` unanswered frames) the reactor stops *reading* that
//!   connection — bytes queue in the kernel, eventually stalling the
//!   sender — instead of buffering replies without bound. Other
//!   connections on the same reactor are unaffected.
//!
//! ## Crash resilience
//!
//! Each worker pass runs under `catch_unwind`: a panic while evaluating a
//! batch (the fault-injection hook, or a real bug) converts the whole
//! batch to [`WireErrorCode::Internal`] replies, and the poisoned pool
//! slot is recovered — reset, not abandoned — by [`ContextPool::with`] on
//! the next pass. One bad query costs its batch, never the server. A
//! protocol violation (bad magic, a reused in-flight frame id, a
//! client-sent server opcode) kills only the offending connection.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] closes the queue (late arrivals shed),
//! unblocks and joins the acceptor, joins the workers — which first
//! **drain** every already-admitted job and deliver its completion — then
//! signals the reactors, which apply those final completions, flush each
//! connection's write buffer (bounded, best-effort) and close the
//! sockets. No accepted query goes unanswered.
//!
//! [`QueryRouter::estimate_batch`]: crate::router::QueryRouter::estimate_batch
//! [`QueryRouter::partial_batch`]: crate::router::QueryRouter::partial_batch

use super::codec::{decode_queries, encode_replies, Opcode, WireErrorCode, WireQuery, WireReply};
use super::io::{frame_bytes, Frame, FrameDecoder};
use crate::context::{ContextPool, WorkerContext};
use crate::router::QueryRouter;
use crate::store::ShardedStore;
use geometry::{HyperRect, Interval};
use sketch::estimators::joins::SpatialJoin;
use sketch::{BatchQuery, RangeQuery};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Parses an environment knob, falling back to `default` when unset or
/// malformed.
fn env_knob(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the batch queue (each holds one
    /// [`ContextPool`] slot per pass; pools at least this large avoid
    /// blocking).
    pub workers: usize,
    /// Most queries one worker admits into a single context pass.
    pub max_batch: usize,
    /// Bound on queued-but-unevaluated queries; admission beyond it sheds
    /// with [`WireErrorCode::Overloaded`]. Zero sheds everything — useful
    /// for deterministic overload tests.
    pub queue_capacity: usize,
    /// Honor [`WireQuery::FaultPanic`] (soak tests / CI only). Off by
    /// default: a production server answers the opcode with
    /// [`WireErrorCode::BadRequest`] instead of letting a peer panic it.
    pub fault_injection: bool,
    /// Reactor threads multiplexing the connections. Default: the
    /// `SKETCH_NET_REACTORS` env var, else `available_parallelism / 4`
    /// clamped to `1..=4` — connection I/O is cheap relative to query
    /// evaluation, so a few reactors serve many cores of workers.
    pub reactors: usize,
    /// Cross-connection coalescing window in microseconds: how long a
    /// worker that found the queue non-empty but below `max_batch` waits
    /// for more arrivals before evaluating. `0` disables coalescing
    /// (drain immediately — the latency-first setting). Default: the
    /// `SKETCH_NET_COALESCE_US` env var, else `0`.
    pub coalesce_us: u64,
    /// Write-backpressure threshold in bytes: past this much un-flushed
    /// reply data the reactor stops reading the connection until its peer
    /// drains. Bounds per-connection memory against slow readers.
    pub write_buf_cap: usize,
    /// Most request frames one connection may have unanswered before the
    /// reactor stops reading it — the server-side pipelining bound.
    pub max_pipeline: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as u64;
        Self {
            workers: 2,
            max_batch: 16,
            queue_capacity: 256,
            fault_injection: false,
            reactors: env_knob("SKETCH_NET_REACTORS", (cores / 4).clamp(1, 4)) as usize,
            coalesce_us: env_knob("SKETCH_NET_COALESCE_US", 0),
            write_buf_cap: 1 << 20,
            max_pipeline: 128,
        }
    }
}

/// The queries a server answers: one range estimator, optionally one join
/// estimator, over an indexed table of sharded stores.
///
/// Wire queries address stores by table index;
/// [`SketchService::answer_batch`] validates the index, the dimensionality
/// and the interval bounds before touching the router, answering malformed
/// queries with [`WireErrorCode::BadRequest`] rather than failing the
/// connection.
#[derive(Debug)]
pub struct SketchService<const D: usize> {
    range: RangeQuery<D>,
    join: Option<SpatialJoin<D>>,
    stores: Vec<Arc<ShardedStore<D>>>,
    router: QueryRouter,
}

impl<const D: usize> SketchService<D> {
    /// A service answering range/stab queries over `stores` with `range`.
    pub fn new(range: RangeQuery<D>, stores: Vec<Arc<ShardedStore<D>>>) -> Self {
        Self {
            range,
            join: None,
            stores,
            router: QueryRouter::new(),
        }
    }

    /// Also answer join queries with `join` (builder form). The join's
    /// stores must share its schema, as everywhere in the serving layer.
    pub fn with_join(mut self, join: SpatialJoin<D>) -> Self {
        self.join = Some(join);
        self
    }

    /// Routes queries with `router` instead of the default exact-mode one
    /// (builder form).
    pub fn with_router(mut self, router: QueryRouter) -> Self {
        self.router = router;
        self
    }

    /// The store table a wire query's `store` index resolves against.
    pub fn stores(&self) -> &[Arc<ShardedStore<D>>] {
        &self.stores
    }

    fn store(&self, index: u32) -> Result<&Arc<ShardedStore<D>>, WireReply> {
        self.stores
            .get(index as usize)
            .ok_or_else(|| WireReply::Error {
                code: WireErrorCode::BadRequest,
                message: format!(
                    "store index {index} out of range ({} stores)",
                    self.stores.len()
                ),
            })
    }

    /// The one validation step of every wire query, which also says how
    /// [`SketchService::answer_batch`] answers it: a range or stab query,
    /// full or partial, checks its store index first, then `D`
    /// non-inverted `(lo, hi)` pairs or `D` coordinates; a join checks that
    /// the service has a join estimator, then both store indices.
    fn parse(&self, query: &WireQuery, fault_injection: bool) -> Parsed<'_, D> {
        let range = |ranges: &[(u64, u64)]| {
            rect_of::<D>(ranges).map(BatchQuery::Range).ok_or_else(|| {
                bad_request(format!("range query needs {D} non-inverted (lo, hi) pairs"))
            })
        };
        let stab = |point: &[u64]| {
            <[u64; D]>::try_from(point)
                .map(BatchQuery::Stab)
                .map_err(|_| bad_request(format!("stab query needs {D} coordinates")))
        };
        let (index, shape, partial) = match query {
            WireQuery::Range { store, ranges } => (*store, range(ranges), false),
            WireQuery::Stab { store, point } => (*store, stab(point), false),
            WireQuery::RangePartial { store, ranges } => (*store, range(ranges), true),
            WireQuery::StabPartial { store, point } => (*store, stab(point), true),
            WireQuery::Join { r_store, s_store } => {
                let Some(join) = &self.join else {
                    return Parsed::Reply(bad_request("this service has no join estimator".into()));
                };
                return match (self.store(*r_store), self.store(*s_store)) {
                    (Ok(r), Ok(s)) => Parsed::Join(join, r, s),
                    (Err(reply), _) | (_, Err(reply)) => Parsed::Reply(reply),
                };
            }
            WireQuery::FaultPanic if fault_injection => return Parsed::Fault,
            WireQuery::FaultPanic => {
                return Parsed::Reply(bad_request(
                    "fault injection is disabled on this server".into(),
                ))
            }
        };
        let routed = self.store(index).and_then(|store| {
            Ok(Parsed::Routed {
                index,
                partial,
                store,
                query: shape?,
            })
        });
        routed.unwrap_or_else(Parsed::Reply)
    }

    /// Answers a whole batch of wire queries with `ctx`. Infallible by
    /// design: every failure mode becomes a [`WireReply::Error`] entry, so
    /// a bad query can never take down its batch-mates or the connection.
    ///
    /// Valid range/stab queries are grouped per (store, partial), and each
    /// group takes **one** routed batch call —
    /// [`QueryRouter::estimate_batch`] or [`QueryRouter::partial_batch`]:
    /// one route and view fold, duplicates answered once. Malformed queries
    /// answer [`WireErrorCode::BadRequest`] individually, and joins and
    /// fault injection take their own per-query path. Every reply is
    /// bit-identical to answering its query alone.
    ///
    /// # Panics
    ///
    /// [`WireQuery::FaultPanic`] panics when `fault_injection` is true —
    /// deliberately, to exercise the worker's `catch_unwind` + pool
    /// recovery path from the wire.
    pub fn answer_batch(
        &self,
        ctx: &mut WorkerContext<D>,
        queries: &[&WireQuery],
        fault_injection: bool,
    ) -> Vec<WireReply> {
        let mut replies: Vec<Option<WireReply>> = vec![None; queries.len()];
        // Batches are `max_batch`-bounded, so linear scans over the handful
        // of distinct (store, partial) groups are fine.
        let mut groups: Vec<Group<'_, D>> = Vec::new();
        for (slot, query) in queries.iter().enumerate() {
            match self.parse(query, fault_injection) {
                Parsed::Routed {
                    index,
                    partial,
                    store,
                    query,
                } => {
                    match groups
                        .iter_mut()
                        .find(|g| (g.index, g.partial) == (index, partial))
                    {
                        Some(g) => {
                            g.slots.push(slot);
                            g.queries.push(query);
                        }
                        None => groups.push(Group {
                            index,
                            partial,
                            store,
                            slots: vec![slot],
                            queries: vec![query],
                        }),
                    }
                }
                Parsed::Join(join, r, s) => {
                    replies[slot] = Some(estimate_reply(self.router.estimate_join(join, r, s, ctx)))
                }
                Parsed::Fault => panic!("injected fault: wire-requested handler panic"),
                Parsed::Reply(reply) => replies[slot] = Some(reply),
            }
        }
        for g in &groups {
            let (range, store) = (&self.range, g.store);
            let answers: Vec<WireReply> = if g.partial {
                let answers = self.router.partial_batch(range, store, ctx, &g.queries);
                answers.into_iter().map(partial_reply).collect()
            } else {
                let answers = self.router.estimate_batch(range, store, ctx, &g.queries);
                answers.into_iter().map(estimate_reply).collect()
            };
            for (&slot, reply) in g.slots.iter().zip(answers) {
                replies[slot] = Some(reply);
            }
        }
        replies
            .into_iter()
            .map(|r| r.expect("every query classified"))
            .collect()
    }
}

/// A wire query after [`SketchService::parse`].
enum Parsed<'s, const D: usize> {
    /// A valid range or stab query of the store at table `index`, asking
    /// for the boosted estimate or the `partial` grid.
    Routed {
        index: u32,
        partial: bool,
        store: &'s ShardedStore<D>,
        query: BatchQuery<D>,
    },
    /// A valid join between two stores.
    Join(&'s SpatialJoin<D>, &'s ShardedStore<D>, &'s ShardedStore<D>),
    /// A wire-requested handler panic, with fault injection on.
    Fault,
    /// Answered as it stands: the `BadRequest` of a malformed query, or of
    /// a join or fault this service does not serve.
    Reply(WireReply),
}

/// The valid range/stab queries of one batch that share a store and a
/// finish (boosted or partial): one routed call answers them all.
struct Group<'s, const D: usize> {
    index: u32,
    partial: bool,
    store: &'s ShardedStore<D>,
    slots: Vec<usize>,
    queries: Vec<BatchQuery<D>>,
}

/// Builds a `HyperRect` from wire `(lo, hi)` pairs; `None` on arity or
/// interval-order violations (closed intervals, `lo <= hi`).
fn rect_of<const D: usize>(ranges: &[(u64, u64)]) -> Option<HyperRect<D>> {
    if ranges.len() != D {
        return None;
    }
    let mut intervals = Vec::with_capacity(D);
    for &(lo, hi) in ranges {
        intervals.push(Interval::try_new(lo, hi)?);
    }
    Some(HyperRect::new(std::array::from_fn(|d| intervals[d])))
}

fn bad_request(message: String) -> WireReply {
    WireReply::Error {
        code: WireErrorCode::BadRequest,
        message,
    }
}

fn estimate_reply(result: sketch::Result<sketch::Estimate>) -> WireReply {
    match result {
        Ok(est) => WireReply::Estimate {
            value: est.value,
            row_means: est.row_means,
        },
        Err(e) => WireReply::Error {
            code: WireErrorCode::Estimate,
            message: e.to_string(),
        },
    }
}

fn partial_reply(result: sketch::Result<sketch::PartialEstimate>) -> WireReply {
    match result {
        Ok(partial) => {
            let shape = partial.shape();
            if shape.k1 > u16::MAX as usize || shape.k2 > u16::MAX as usize {
                return WireReply::Error {
                    code: WireErrorCode::Internal,
                    message: "boosting shape exceeds the wire's u16 grid bounds".into(),
                };
            }
            WireReply::Partial {
                k1: shape.k1 as u16,
                k2: shape.k2 as u16,
                atomic: partial.atomic().to_vec(),
            }
        }
        Err(e) => WireReply::Error {
            code: WireErrorCode::Estimate,
            message: e.to_string(),
        },
    }
}

fn overloaded() -> WireReply {
    WireReply::Error {
        code: WireErrorCode::Overloaded,
        message: "in-flight queue full; retry with backoff".into(),
    }
}

/// Where an admitted query came from, so its reply finds its way back to
/// the right connection, frame and slot — the unit of out-of-order
/// completion.
struct Origin {
    reactor: Arc<ReactorShared>,
    conn: u64,
    frame: u32,
    slot: u32,
}

/// One admitted query: what to evaluate and where its reply goes.
struct Job {
    query: WireQuery,
    origin: Origin,
}

/// One evaluated query on its way back to its reactor.
struct Completion {
    conn: u64,
    frame: u32,
    slot: u32,
    reply: WireReply,
}

/// The bounded in-flight queue between reactors and workers.
struct BatchQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl BatchQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Locks the queue state. A thread that panicked while holding the
    /// lock cannot have left it half-updated — every critical section is
    /// one deque push or drain or one flag store — so a poisoned lock is
    /// taken over as it stands rather than wedging every reactor and
    /// worker behind it.
    fn state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `job`, or gives it back when the queue is full or closed —
    /// the caller sheds it. Never blocks.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state();
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for work and takes up to `max` jobs. A non-zero coalescing
    /// `window` makes a worker that found fewer than `max` jobs linger for
    /// late arrivals — from any connection — before evaluating, so
    /// batch-of-1 clients still produce full worker passes. An empty
    /// result means the queue is closed **and** fully drained: workers
    /// exit only after every admitted job has been taken.
    fn drain(&self, max: usize, window: Duration) -> Vec<Job> {
        let mut state = self.state();
        loop {
            if state.jobs.is_empty() {
                if state.closed {
                    return Vec::new();
                }
                state = self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if !state.closed && state.jobs.len() < max && !window.is_zero() {
                let deadline = Instant::now() + window;
                loop {
                    let now = Instant::now();
                    if now >= deadline
                        || state.closed
                        || state.jobs.len() >= max
                        || state.jobs.is_empty()
                    {
                        break;
                    }
                    let (s, wait) = self
                        .ready
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = s;
                    if wait.timed_out() {
                        break;
                    }
                }
                if state.jobs.is_empty() {
                    // Another worker took everything while we coalesced.
                    continue;
                }
            }
            let take = state.jobs.len().min(max);
            return state.jobs.drain(..take).collect();
        }
    }

    fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }
}

/// Monotonic serving counters, readable while the server runs.
#[derive(Debug, Default)]
struct ServeCounters {
    served: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    batches: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries evaluated (successfully or as per-query errors).
    pub served: u64,
    /// Queries shed at admission with [`WireErrorCode::Overloaded`].
    pub shed: u64,
    /// Worker passes that panicked (each converts its batch to
    /// [`WireErrorCode::Internal`] replies and recovers the pool slot).
    pub panics: u64,
    /// Worker passes executed; `served / batches` is the realized batch
    /// size — the coalescing window's effect made visible.
    pub batches: u64,
}

/// What the acceptor and workers hand a reactor thread: new connections
/// to adopt, completions to apply, and the stop signal.
#[derive(Default)]
struct ReactorShared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
    stopping: bool,
}

impl ReactorShared {
    /// Locks the inbox, taking a poisoned lock over as it stands: its data
    /// is plain vectors and a flag, each updated in one step (see
    /// [`BatchQueue::state`]).
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn adopt(&self, stream: TcpStream) {
        self.inbox().conns.push(stream);
        self.wake.notify_one();
    }

    fn deliver(&self, completions: Vec<Completion>) {
        self.inbox().completions.extend(completions);
        self.wake.notify_one();
    }

    fn stop(&self) {
        self.inbox().stopping = true;
        self.wake.notify_one();
    }
}

/// Per-reactor limits, copied out of [`ServeConfig`].
#[derive(Clone, Copy)]
struct ConnLimits {
    write_buf_cap: usize,
    max_pipeline: usize,
}

/// Everything a reactor sweep needs besides the connections themselves.
struct ReactorEnv {
    shared: Arc<ReactorShared>,
    queue: Arc<BatchQueue>,
    counters: Arc<ServeCounters>,
    limits: ConnLimits,
}

/// A request frame with at least one query still unevaluated.
struct PendingFrame {
    frame: u32,
    replies: Vec<Option<WireReply>>,
    missing: usize,
}

/// A connection's un-flushed reply bytes, drained from the front as the
/// socket accepts them.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    at: usize,
}

impl WriteBuf {
    fn len(&self) -> usize {
        self.buf.len() - self.at
    }

    fn is_empty(&self) -> bool {
        self.at == self.buf.len()
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.is_empty() || self.at >= 64 * 1024 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Writes as much as the socket accepts. Returns whether any bytes
    /// moved; `Err(())` means the connection is lost.
    fn flush(&mut self, stream: &mut TcpStream) -> Result<bool, ()> {
        let mut progressed = false;
        while self.at < self.buf.len() {
            match stream.write(&self.buf[self.at..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.at += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.is_empty() && self.at > 0 {
            self.buf.clear();
            self.at = 0;
        }
        Ok(progressed)
    }
}

/// One multiplexed connection: a non-blocking socket plus the state that
/// replaces a dedicated thread — decoder, pending frames, write buffer.
struct Conn {
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    write_buf: WriteBuf,
    pending: Vec<PendingFrame>,
    read_closed: bool,
    dead: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Self {
        Self {
            id,
            stream,
            decoder: FrameDecoder::new(),
            write_buf: WriteBuf::default(),
            pending: Vec::new(),
            read_closed: false,
            dead: false,
        }
    }

    /// Reply-side backpressure: stop reading this connection while its
    /// peer is behind on draining replies or has too many frames in
    /// flight.
    fn backpressured(&self, limits: &ConnLimits) -> bool {
        self.write_buf.len() >= limits.write_buf_cap || self.pending.len() >= limits.max_pipeline
    }

    /// One sweep over this connection: flush, decode buffered bytes, read
    /// fresh bytes, flush again. Returns whether anything moved.
    fn pump(&mut self, env: &ReactorEnv, scratch: &mut [u8]) -> bool {
        let mut progress = self.flush();
        if self.dead {
            return progress;
        }
        // Bytes may be sitting in the decoder from a sweep that ended
        // backpressured; frames decode as soon as pressure lifts, without
        // waiting for new socket bytes.
        progress |= self.decode_frames(env);
        let mut reads = 0;
        while !self.dead && !self.read_closed && reads < 4 && !self.backpressured(&env.limits) {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    progress = true;
                }
                Ok(n) => {
                    reads += 1;
                    progress = true;
                    self.decoder.extend(&scratch[..n]);
                    self.decode_frames(env);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        progress |= self.flush();
        if !self.dead && self.read_closed && self.pending.is_empty() && self.write_buf.is_empty() {
            // Peer finished sending and every reply has been delivered.
            self.dead = true;
        }
        progress
    }

    fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        match self.write_buf.flush(&mut self.stream) {
            Ok(progressed) => progressed,
            Err(()) => {
                self.dead = true;
                false
            }
        }
    }

    /// Decodes and handles every complete frame the buffer holds, up to
    /// the backpressure bound. Returns whether any frame was handled.
    fn decode_frames(&mut self, env: &ReactorEnv) -> bool {
        let mut any = false;
        while !self.dead && !self.backpressured(&env.limits) {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    any = true;
                    self.handle_frame(frame, env);
                }
                Ok(None) => break,
                Err(_) => {
                    // No sound resynchronization after a framing error.
                    self.dead = true;
                }
            }
        }
        any
    }

    fn handle_frame(&mut self, frame: Frame, env: &ReactorEnv) {
        match frame.opcode {
            Opcode::Ping => {
                self.write_buf
                    .push(&frame_bytes(Opcode::Pong, frame.frame_id, &[]));
            }
            Opcode::QueryBatch => {
                let Ok(queries) = decode_queries(&frame.payload) else {
                    self.dead = true;
                    return;
                };
                if self.pending.iter().any(|p| p.frame == frame.frame_id) {
                    // Reusing an in-flight id would make replies ambiguous.
                    self.dead = true;
                    return;
                }
                if queries.is_empty() {
                    self.write_buf.push(&frame_bytes(
                        Opcode::ReplyBatch,
                        frame.frame_id,
                        &encode_replies(&[]),
                    ));
                    return;
                }
                let mut pending = PendingFrame {
                    frame: frame.frame_id,
                    replies: vec![None; queries.len()],
                    missing: queries.len(),
                };
                for (slot, query) in queries.into_iter().enumerate() {
                    let origin = Origin {
                        reactor: Arc::clone(&env.shared),
                        conn: self.id,
                        frame: frame.frame_id,
                        slot: slot as u32,
                    };
                    if env.queue.push(Job { query, origin }).is_err() {
                        env.counters.shed.fetch_add(1, Ordering::Relaxed);
                        pending.replies[slot] = Some(overloaded());
                        pending.missing -= 1;
                    }
                }
                if pending.missing == 0 {
                    // Fully shed: the reply needs no worker pass.
                    let replies: Vec<WireReply> =
                        pending.replies.into_iter().map(Option::unwrap).collect();
                    self.write_buf.push(&frame_bytes(
                        Opcode::ReplyBatch,
                        pending.frame,
                        &encode_replies(&replies),
                    ));
                } else {
                    self.pending.push(pending);
                }
            }
            // Server-to-client opcodes from a client are a protocol error.
            Opcode::ReplyBatch | Opcode::Pong => self.dead = true,
        }
    }

    /// Files one completed query into its pending frame; when the frame's
    /// last slot fills, encodes the reply frame into the write buffer.
    fn complete(&mut self, done: Completion) {
        let Some(at) = self.pending.iter().position(|p| p.frame == done.frame) else {
            return; // frame already abandoned (connection violation path)
        };
        let pending = &mut self.pending[at];
        let slot = done.slot as usize;
        if slot >= pending.replies.len() || pending.replies[slot].is_some() {
            return;
        }
        pending.replies[slot] = Some(done.reply);
        pending.missing -= 1;
        if pending.missing == 0 {
            let pending = self.pending.swap_remove(at);
            let replies: Vec<WireReply> = pending
                .replies
                .into_iter()
                .map(|r| r.expect("missing == 0"))
                .collect();
            self.write_buf.push(&frame_bytes(
                Opcode::ReplyBatch,
                pending.frame,
                &encode_replies(&replies),
            ));
        }
    }
}

/// Consecutive progress-free sweeps before a reactor parks on its condvar
/// (it yields the CPU between those sweeps, so traffic bursts stay cheap).
/// Kept small: every progress-free sweep probes *all* sockets — O(conns)
/// `WouldBlock` reads — so long spins burn syscalls exactly when the box
/// is busiest; parking instead hands the core to the workers (measurably
/// faster under the 64-connection probe on small machines).
const SPIN_SWEEPS: u32 = 4;
/// Park bound while connections are open: an upper bound on how late a
/// reactor notices fresh request bytes (completions interrupt the park).
const PARK_ACTIVE: Duration = Duration::from_micros(100);
/// Park bound with no connections at all.
const PARK_IDLE: Duration = Duration::from_millis(2);
/// How long shutdown keeps trying to flush un-delivered replies.
const FINAL_FLUSH_BUDGET: Duration = Duration::from_secs(2);

/// One reactor thread: adopt connections, apply completions, sweep every
/// connection's state machine, park when nothing moves.
fn reactor_loop(env: &ReactorEnv) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_id: u64 = 1;
    let mut idle: u32 = 0;
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let (adopted, completions, stopping) = {
            let mut inbox = env.shared.inbox();
            (
                std::mem::take(&mut inbox.conns),
                std::mem::take(&mut inbox.completions),
                inbox.stopping,
            )
        };
        let mut progress = !adopted.is_empty() || !completions.is_empty();
        for stream in adopted {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            conns.push(Conn::new(next_id, stream));
            next_id += 1;
        }
        for done in completions {
            // Ids are assigned in increasing order and `retain` preserves
            // order, so the vec stays sorted — binary search is sound.
            if let Ok(at) = conns.binary_search_by_key(&done.conn, |c| c.id) {
                conns[at].complete(done);
            }
        }
        for conn in &mut conns {
            progress |= conn.pump(env, &mut scratch);
        }
        conns.retain_mut(|conn| {
            if conn.dead {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            !conn.dead
        });
        if stopping {
            final_flush(&mut conns);
            return;
        }
        if progress {
            idle = 0;
            continue;
        }
        idle += 1;
        if idle <= SPIN_SWEEPS {
            std::thread::yield_now();
            continue;
        }
        let park = if conns.is_empty() {
            PARK_IDLE
        } else {
            PARK_ACTIVE
        };
        let inbox = env.shared.inbox();
        if inbox.conns.is_empty() && inbox.completions.is_empty() && !inbox.stopping {
            let _ = env
                .shared
                .wake
                .wait_timeout(inbox, park)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Best-effort bounded flush of every connection's remaining reply bytes
/// at shutdown, then close the sockets.
fn final_flush(conns: &mut Vec<Conn>) {
    let deadline = Instant::now() + FINAL_FLUSH_BUDGET;
    loop {
        let mut remaining = false;
        for conn in conns.iter_mut() {
            conn.flush();
            remaining |= !conn.dead && !conn.write_buf.is_empty();
        }
        if !remaining || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for conn in conns.drain(..) {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// A running server. Dropping the handle shuts the server down (prefer
/// calling [`ServerHandle::shutdown`] to observe the drain explicitly).
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<BatchQueue>,
    counters: Arc<ServeCounters>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reactors: Vec<Arc<ReactorShared>>,
    reactor_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.counters.served.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stop admitting, answer everything already admitted,
    /// then tear the threads down (see the module docs for the order).
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return; // already shut down
        };
        self.stopping.store(true, Ordering::SeqCst);
        self.queue.close();
        // The acceptor blocks in accept(); a throwaway local connection
        // wakes it to observe `stopping`.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // Workers drain the queue dry — delivering every completion to its
        // reactor — then see `closed` and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Reactors apply those final completions, flush, and close.
        for reactor in &self.reactors {
            reactor.stop();
        }
        for thread in self.reactor_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Binds `127.0.0.1:<port>` (port 0 = ephemeral, the test/CI default) and
/// starts serving `service` through `pool`.
pub fn serve<const D: usize>(
    service: Arc<SketchService<D>>,
    pool: Arc<ContextPool<D>>,
    config: &ServeConfig,
    port: u16,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let queue = Arc::new(BatchQueue::new(config.queue_capacity));
    let counters = Arc::new(ServeCounters::default());
    let stopping = Arc::new(AtomicBool::new(false));
    let limits = ConnLimits {
        write_buf_cap: config.write_buf_cap.max(1),
        max_pipeline: config.max_pipeline.max(1),
    };

    let reactors: Vec<Arc<ReactorShared>> = (0..config.reactors.max(1))
        .map(|_| Arc::new(ReactorShared::default()))
        .collect();
    let reactor_threads = reactors
        .iter()
        .map(|shared| {
            let env = ReactorEnv {
                shared: Arc::clone(shared),
                queue: Arc::clone(&queue),
                counters: Arc::clone(&counters),
                limits,
            };
            std::thread::spawn(move || reactor_loop(&env))
        })
        .collect();

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let (service, pool, queue, counters) = (
                Arc::clone(&service),
                Arc::clone(&pool),
                Arc::clone(&queue),
                Arc::clone(&counters),
            );
            let (max_batch, fault) = (config.max_batch.max(1), config.fault_injection);
            let window = Duration::from_micros(config.coalesce_us);
            std::thread::spawn(move || {
                worker_loop(&service, &pool, &queue, &counters, max_batch, window, fault)
            })
        })
        .collect();

    let acceptor = {
        let stopping = Arc::clone(&stopping);
        let reactors = reactors.clone();
        std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                reactors[i % reactors.len()].adopt(stream);
            }
        })
    };

    Ok(ServerHandle {
        addr,
        queue,
        counters,
        stopping,
        acceptor: Some(acceptor),
        workers,
        reactors,
        reactor_threads,
    })
}

/// One worker: drain a (possibly coalesced) batch, answer it in a single
/// pooled-context pass, deliver the completions to their reactors. Exits
/// when the queue is closed and dry.
fn worker_loop<const D: usize>(
    service: &SketchService<D>,
    pool: &ContextPool<D>,
    queue: &BatchQueue,
    counters: &ServeCounters,
    max_batch: usize,
    window: Duration,
    fault_injection: bool,
) {
    loop {
        let batch = queue.drain(max_batch, window);
        if batch.is_empty() {
            return;
        }
        // One pool pass per batch: the first query pays epoch revalidation
        // and any view re-fold, the rest ride the warm caches, and each
        // store's queries take one batched call that answers every distinct
        // query once through its plan's fill. A panic anywhere in the pass poisons
        // the slot; `ContextPool::with` recovers it on the next checkout,
        // and this batch answers `Internal` rather than leaving its
        // connections waiting forever.
        let replies = catch_unwind(AssertUnwindSafe(|| {
            pool.with(|ctx| {
                let queries: Vec<&WireQuery> = batch.iter().map(|job| &job.query).collect();
                service.answer_batch(ctx, &queries, fault_injection)
            })
        }));
        counters.batches.fetch_add(1, Ordering::Relaxed);
        let replies = match replies {
            Ok(replies) => {
                counters
                    .served
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                replies
            }
            Err(_) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                vec![
                    WireReply::Error {
                        code: WireErrorCode::Internal,
                        message: "handler panicked evaluating this batch".into(),
                    };
                    batch.len()
                ]
            }
        };
        route_completions(batch, replies);
    }
}

/// Groups a batch's completions per reactor so each reactor's inbox lock
/// is taken (and its thread woken) once per pass, not once per query.
fn route_completions(batch: Vec<Job>, replies: Vec<WireReply>) {
    let mut groups: Vec<(Arc<ReactorShared>, Vec<Completion>)> = Vec::new();
    for (job, reply) in batch.into_iter().zip(replies) {
        let Origin {
            reactor,
            conn,
            frame,
            slot,
        } = job.origin;
        let done = Completion {
            conn,
            frame,
            slot,
            reply,
        };
        match groups.iter_mut().find(|(r, _)| Arc::ptr_eq(r, &reactor)) {
            Some((_, dones)) => dones.push(done),
            None => groups.push((reactor, vec![done])),
        }
    }
    for (reactor, dones) in groups {
        reactor.deliver(dones);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poisons `lock` by panicking on another thread while holding it.
    fn poison<T: Send + Sync + 'static, U: 'static>(owner: Arc<T>, lock: fn(&T) -> &Mutex<U>) {
        let held = Arc::clone(&owner);
        let result = std::thread::spawn(move || {
            let _guard = lock(&held).lock();
            panic!("injected panic while holding the lock");
        })
        .join();
        assert!(result.is_err());
        assert!(lock(&owner).is_poisoned());
    }

    fn job(slot: u32) -> Job {
        Job {
            query: WireQuery::Stab {
                store: 0,
                point: vec![1, 2],
            },
            origin: Origin {
                reactor: Arc::new(ReactorShared::default()),
                conn: 1,
                frame: 0,
                slot,
            },
        }
    }

    #[test]
    fn poisoned_queue_still_pushes_drains_and_closes() {
        let queue = Arc::new(BatchQueue::new(2));
        poison(Arc::clone(&queue), |q| &q.state);
        assert!(queue.push(job(0)).is_ok());
        assert!(queue.push(job(1)).is_ok());
        assert!(queue.push(job(2)).is_err(), "capacity still sheds");
        // The coalescing wait (`wait_timeout`) on a poisoned lock.
        let taken = queue.drain(4, Duration::from_millis(1));
        assert_eq!(
            taken.iter().map(|j| j.origin.slot).collect::<Vec<_>>(),
            [0, 1]
        );
        // The blocking wait on a poisoned lock: a worker parks on the empty
        // queue until a push wakes it.
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.drain(4, Duration::ZERO).len())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(queue.push(job(3)).is_ok());
        assert_eq!(worker.join().unwrap(), 1);
        queue.close();
        assert!(queue.push(job(4)).is_err(), "a closed queue sheds");
        assert!(
            queue.drain(4, Duration::ZERO).is_empty(),
            "closed and drained"
        );
    }

    #[test]
    fn poisoned_inbox_still_adopts_delivers_and_stops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let shared = Arc::new(ReactorShared::default());
        poison(Arc::clone(&shared), |s| &s.inbox);
        shared.adopt(accepted);
        shared.deliver(vec![Completion {
            conn: 1,
            frame: 0,
            slot: 0,
            reply: overloaded(),
        }]);
        {
            let inbox = shared.inbox();
            assert_eq!(inbox.conns.len(), 1);
            assert_eq!(inbox.completions.len(), 1);
            assert!(!inbox.stopping);
        }
        // A reactor on the poisoned inbox takes the adopted connection,
        // parks (the timed wait) while nothing moves, and exits on stop.
        let env = ReactorEnv {
            shared: Arc::clone(&shared),
            queue: Arc::new(BatchQueue::new(1)),
            counters: Arc::new(ServeCounters::default()),
            limits: ConnLimits {
                write_buf_cap: 1 << 16,
                max_pipeline: 4,
            },
        };
        let reactor = std::thread::spawn(move || reactor_loop(&env));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !shared.inbox().conns.is_empty() {
            assert!(Instant::now() < deadline, "the reactor never adopted it");
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.stop();
        reactor.join().unwrap();
        assert!(shared.inbox().stopping);
        drop(client);
    }
}
