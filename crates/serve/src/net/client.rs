//! A blocking client with frame pipelining: submit many request frames,
//! collect their replies in any order — the frame id re-associates them
//! even when the server completes frames out of request order.
//!
//! The synchronous [`SketchClient::query_batch`] round-trip remains the
//! simple path (one `submit` + `collect`); the differential suites and the
//! latency probe drive the pipelined form directly. Timeouts are
//! first-class: a stalled server surfaces as [`WireError::Timeout`] and a
//! dead one as [`WireError::Disconnected`] instead of blocking forever,
//! and [`SketchClient::reconnect`] replaces the broken connection in
//! place.

use super::codec::{decode_replies, encode_queries, Opcode, WireError, WireQuery, WireReply};
use super::io::{read_frame, wire_error_of, write_frame};
use geometry::{HyperRect, Point};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection knobs of a [`SketchClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on any single blocking read; `None` waits forever. When it
    /// elapses the stream may be mid-frame, so the error is terminal for
    /// the connection — recover with [`SketchClient::reconnect`].
    pub read_timeout: Option<Duration>,
    /// Bound on any single blocking write; `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// `TCP_NODELAY` — on by default, frames are small and
    /// latency-sensitive.
    pub nodelay: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            nodelay: true,
        }
    }
}

/// A claim on one in-flight request frame, returned by
/// [`SketchClient::submit`] and redeemed by [`SketchClient::collect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    id: u32,
    queries: usize,
}

impl Ticket {
    /// The frame id this ticket's replies will arrive under.
    pub fn frame_id(&self) -> u32 {
        self.id
    }

    /// How many replies [`SketchClient::collect`] will return for it.
    pub fn queries(&self) -> usize {
        self.queries
    }
}

/// What an in-flight frame id is owed.
enum Expect {
    Replies(usize),
    Pong,
}

/// A blocking connection to a sketch server, with frame pipelining.
#[derive(Debug)]
pub struct SketchClient {
    addr: SocketAddr,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    inflight: HashMap<u32, Expect>,
    ready: HashMap<u32, Vec<WireReply>>,
}

impl std::fmt::Debug for Expect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expect::Replies(n) => write!(f, "Replies({n})"),
            Expect::Pong => write!(f, "Pong"),
        }
    }
}

impl SketchClient {
    /// Connects with the default [`ClientConfig`] (30 s read/write
    /// timeouts, `TCP_NODELAY`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit connection knobs.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, WireError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(wire_error_of)?
            .next()
            .ok_or_else(|| {
                wire_error_of(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                ))
            })?;
        Self::open(addr, config)
    }

    fn open(addr: SocketAddr, config: ClientConfig) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(wire_error_of)?;
        stream.set_nodelay(config.nodelay).map_err(wire_error_of)?;
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(wire_error_of)?;
        stream
            .set_write_timeout(config.write_timeout)
            .map_err(wire_error_of)?;
        let read_half = stream.try_clone().map_err(wire_error_of)?;
        Ok(Self {
            addr,
            config,
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            next_id: 0,
            inflight: HashMap::new(),
            ready: HashMap::new(),
        })
    }

    /// Replaces a broken connection with a fresh one to the same address,
    /// keeping the configuration. Every outstanding [`Ticket`] is
    /// invalidated: whatever the old connection still owed is gone, and
    /// collecting an old ticket on the new connection reports
    /// [`WireError::UnknownFrame`].
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        *self = Self::open(self.addr, self.config.clone())?;
        Ok(())
    }

    /// Request frames submitted but not yet collected.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn take_frame_id(&mut self) -> u32 {
        // Skip ids still owed a reply (or already holding one): an id on
        // the wire twice would make the server's answers ambiguous.
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            if !self.inflight.contains_key(&id) && !self.ready.contains_key(&id) {
                return id;
            }
        }
    }

    /// Sends one query batch **without waiting for its replies**: the
    /// frame goes out, the returned [`Ticket`] redeems the replies later
    /// via [`SketchClient::collect`]. Submitting repeatedly pipelines
    /// frames — the server evaluates them concurrently and replies in
    /// completion order.
    pub fn submit(&mut self, queries: &[WireQuery]) -> Result<Ticket, WireError> {
        let id = self.take_frame_id();
        write_frame(
            &mut self.writer,
            Opcode::QueryBatch,
            id,
            &encode_queries(queries),
        )?;
        self.inflight.insert(id, Expect::Replies(queries.len()));
        Ok(Ticket {
            id,
            queries: queries.len(),
        })
    }

    /// Blocks for `ticket`'s replies, which arrive in request order within
    /// the frame, exactly one per query ([`WireError::ReplyArity`]
    /// otherwise — a server that drops entries is broken, not slow).
    /// Reply frames for *other* tickets that arrive first are stashed and
    /// redeemed instantly when their tickets are collected, so collection
    /// order is the caller's choice even though the wire order is the
    /// server's. A [`WireError::Timeout`] or [`WireError::Disconnected`]
    /// here is terminal for the connection (the stream may be mid-frame);
    /// recover with [`SketchClient::reconnect`].
    pub fn collect(&mut self, ticket: Ticket) -> Result<Vec<WireReply>, WireError> {
        loop {
            if let Some(replies) = self.ready.remove(&ticket.id) {
                return Ok(replies);
            }
            if !self.inflight.contains_key(&ticket.id) {
                return Err(WireError::UnknownFrame(ticket.id));
            }
            let frame = read_frame(&mut self.reader)?;
            let Some(expect) = self.inflight.remove(&frame.frame_id) else {
                return Err(WireError::UnknownFrame(frame.frame_id));
            };
            let replies = match (frame.opcode, expect) {
                (Opcode::ReplyBatch, Expect::Replies(sent)) => {
                    let replies = decode_replies(&frame.payload)?;
                    if replies.len() != sent {
                        return Err(WireError::ReplyArity {
                            sent,
                            got: replies.len(),
                        });
                    }
                    replies
                }
                (Opcode::Pong, Expect::Pong) => {
                    if !frame.payload.is_empty() {
                        return Err(WireError::TrailingBytes(frame.payload.len()));
                    }
                    Vec::new()
                }
                (opcode, _) => return Err(WireError::BadOpcode(opcode as u8)),
            };
            self.ready.insert(frame.frame_id, replies);
        }
    }

    /// Sends one query batch and blocks for its replies — `submit` +
    /// `collect` in one call, for callers that don't pipeline.
    pub fn query_batch(&mut self, queries: &[WireQuery]) -> Result<Vec<WireReply>, WireError> {
        let ticket = self.submit(queries)?;
        self.collect(ticket)
    }

    /// Like [`SketchClient::query_batch`], but splits an oversized query
    /// list into **pipelined** frames of at most `max_batch` queries each
    /// instead of failing (or letting the codec's batch-size assertion
    /// abort) the whole request: every chunk is submitted before any reply
    /// is collected, so the chunks overlap on the server. Use the server's
    /// [`ServeConfig::max_batch`] as the chunk size so each frame fits one
    /// worker pass, which routes it once and answers each distinct query
    /// once. Replies concatenate in request order, exactly one per query;
    /// an empty query list performs no round-trip at all.
    ///
    /// [`ServeConfig::max_batch`]: crate::net::ServeConfig::max_batch
    pub fn query_batch_chunked(
        &mut self,
        queries: &[WireQuery],
        max_batch: usize,
    ) -> Result<Vec<WireReply>, WireError> {
        let tickets: Vec<Ticket> = queries
            .chunks(max_batch.max(1))
            .map(|chunk| self.submit(chunk))
            .collect::<Result<_, _>>()?;
        let mut replies = Vec::with_capacity(queries.len());
        for ticket in tickets {
            replies.extend(self.collect(ticket)?);
        }
        Ok(replies)
    }

    /// Liveness round-trip (its `Pong` pipelines like any other frame).
    pub fn ping(&mut self) -> Result<(), WireError> {
        let id = self.take_frame_id();
        write_frame(&mut self.writer, Opcode::Ping, id, &[])?;
        self.inflight.insert(id, Expect::Pong);
        let replies = self.collect(Ticket { id, queries: 0 })?;
        debug_assert!(replies.is_empty());
        Ok(())
    }
}

/// The wire form of a range query against store `store`.
pub fn range_query<const D: usize>(store: u32, q: &HyperRect<D>) -> WireQuery {
    WireQuery::Range {
        store,
        ranges: (0..D).map(|d| (q.range(d).lo(), q.range(d).hi())).collect(),
    }
}

/// The wire form of a stabbing query at `p` against store `store`.
pub fn stab_query<const D: usize>(store: u32, p: &Point<D>) -> WireQuery {
    WireQuery::Stab {
        store,
        point: p.to_vec(),
    }
}

/// The wire form of a partial-estimate range query against store `store` —
/// answered with an unboosted [`super::codec::WireReply::Partial`] grid for
/// a gatherer to merge (see [`crate::cluster`]).
pub fn range_partial_query<const D: usize>(store: u32, q: &HyperRect<D>) -> WireQuery {
    WireQuery::RangePartial {
        store,
        ranges: (0..D).map(|d| (q.range(d).lo(), q.range(d).hi())).collect(),
    }
}

/// The wire form of a partial-estimate stabbing query at `p` against store
/// `store`.
pub fn stab_partial_query<const D: usize>(store: u32, p: &Point<D>) -> WireQuery {
    WireQuery::StabPartial {
        store,
        point: p.to_vec(),
    }
}
