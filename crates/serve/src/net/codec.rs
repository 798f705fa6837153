//! The compact binary query/response codec of the network front-end.
//!
//! Everything on the wire is a **frame**: a 12-byte little-endian header
//! followed by `len` payload bytes:
//!
//! ```text
//! ┌───────────┬──────────┬──────────┬──────────────┬────────────────┬─────────────┐
//! │ magic u16 │ ver  u8  │ op   u8  │ frame id u32 │ len        u32 │ payload ... │
//! │  0x534B   │  0x02    │  opcode  │  pipelining  │  payload bytes │             │
//! └───────────┴──────────┴──────────┴──────────────┴────────────────┴─────────────┘
//! ```
//!
//! The **frame id** is the pipelining key: a client may keep many request
//! frames in flight on one connection, and the server answers each with a
//! reply frame carrying the *same* id — possibly **out of request order**,
//! because batches from different frames (and different connections)
//! complete whenever their worker pass does. Ids are chosen by the
//! client; the only rule is that an id must not be reused while its reply
//! is still outstanding. `Pong` echoes the `Ping`'s id.
//!
//! A `QueryBatch` payload is `count: u16` followed by `count` encoded
//! [`WireQuery`]s; the matching `ReplyBatch` carries `count` encoded
//! [`WireReply`]s **in request order within the frame**, one per query — a
//! per-query failure (bad request, load shed, estimator error) is an error
//! *entry*, never a broken stream, so one misrouted query cannot poison
//! its batch-mates' answers. Connection-level failures (bad magic, unknown
//! version, truncated frames, a duplicated in-flight id) are unrecoverable
//! by design: the server drops the connection rather than guessing at
//! resynchronization.
//!
//! This module owns the *format* — constants, payload encodings, error
//! taxonomy. Actually moving frames over sockets (blocking helpers and the
//! reactor's incremental decoder) lives in [`super::io`].
//!
//! The codec is deliberately self-contained `std`-only code (no serde):
//! the vendored-dependency policy keeps the wire format free of external
//! crates, the framing must be stable across refactors of the in-process
//! types, and fixed-width little-endian fields make the format easy to
//! implement from any language.

use std::fmt;

/// Frame magic, `"SK"` little-endian — rejects non-protocol peers fast.
pub const MAGIC: u16 = 0x4B53;

/// Protocol version carried by every frame; peers reject mismatches
/// rather than misinterpreting payload bytes. Version 2 added the
/// `frame id` header field (pipelined out-of-order replies); version 3
/// added the partial-estimate query kinds and reply (the scatter-gather
/// distributed query path).
pub const VERSION: u8 = 3;

/// Bytes in a frame header: magic, version, opcode, frame id, payload len.
pub const HEADER_LEN: usize = 12;

/// Hard cap on a frame payload (1 MiB): a corrupt or hostile length field
/// must not make a peer allocate unboundedly.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Most queries a single batch frame may carry; bounds the work one frame
/// can enqueue (admission control still applies per query).
pub const MAX_BATCH: usize = 4096;

/// Most atomic-estimate entries a partial-estimate reply may declare
/// (`k1 · k2`); 1 MiB of `f64`s, matching [`MAX_PAYLOAD`] — a hostile
/// shape field must not drive a huge allocation before the length check.
pub const MAX_PARTIAL_GRID: usize = 1 << 17;

/// Frame kinds. Requests flow client → server, replies server → client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// A batch of queries (client → server).
    QueryBatch = 0x01,
    /// Liveness probe (client → server).
    Ping = 0x02,
    /// Per-query replies, in request order (server → client).
    ReplyBatch = 0x81,
    /// Liveness answer (server → client).
    Pong = 0x82,
}

impl Opcode {
    pub(crate) fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            0x01 => Ok(Opcode::QueryBatch),
            0x02 => Ok(Opcode::Ping),
            0x81 => Ok(Opcode::ReplyBatch),
            0x82 => Ok(Opcode::Pong),
            other => Err(WireError::BadOpcode(other)),
        }
    }
}

/// One query as it travels on the wire. Dimensionality is explicit (a `u8`
/// count before the coordinates), so the codec is independent of the
/// server's const-generic `D`; the server validates the arity against its
/// service and answers a mismatch with [`WireErrorCode::BadRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireQuery {
    /// Range-selectivity estimate over the store's registered range query:
    /// per dimension a closed `[lo, hi]` coordinate pair.
    Range {
        /// Index of the target store in the service's store table.
        store: u32,
        /// Per-dimension `(lo, hi)` bounds of the query rectangle.
        ranges: Vec<(u64, u64)>,
    },
    /// Stabbing-count estimate at a point.
    Stab {
        /// Index of the target store in the service's store table.
        store: u32,
        /// The stabbing point, one coordinate per dimension.
        point: Vec<u64>,
    },
    /// Spatial-join estimate over two stores sharing the join's schema.
    Join {
        /// Index of the join's R-side store.
        r_store: u32,
        /// Index of the join's S-side store.
        s_store: u32,
    },
    /// Fault injection: makes the handler panic while it holds its
    /// [`crate::ContextPool`] slot. Honored only when the server was
    /// configured with fault injection enabled (soak tests / CI); answered
    /// with [`WireErrorCode::BadRequest`] otherwise.
    FaultPanic,
    /// Like [`WireQuery::Range`], but answered with the **unboosted**
    /// partial grid ([`WireReply::Partial`]) instead of a finished
    /// estimate — the mergeable form a cluster router gathers from shard
    /// owners (see [`crate::cluster`]).
    RangePartial {
        /// Index of the target store in the service's store table.
        store: u32,
        /// Per-dimension `(lo, hi)` bounds of the query rectangle.
        ranges: Vec<(u64, u64)>,
    },
    /// Like [`WireQuery::Stab`], but answered with the unboosted partial
    /// grid.
    StabPartial {
        /// Index of the target store in the service's store table.
        store: u32,
        /// The stabbing point, one coordinate per dimension.
        point: Vec<u64>,
    },
}

const QUERY_RANGE: u8 = 0;
const QUERY_STAB: u8 = 1;
const QUERY_JOIN: u8 = 2;
const QUERY_FAULT_PANIC: u8 = 3;
const QUERY_RANGE_PARTIAL: u8 = 4;
const QUERY_STAB_PARTIAL: u8 = 5;

/// One per-query reply. `Estimate` carries the boosted value *and* every
/// row mean, bit-exact (f64 bit patterns travel as `u64`), so a networked
/// client can hold the server to the same bit-identity contract the
/// in-process differential suites use.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// A successful estimate: the boosted value and the `k2` row means.
    Estimate {
        /// The boosted (median-of-means) estimate.
        value: f64,
        /// The row means the median was taken over.
        row_means: Vec<f64>,
    },
    /// A per-query failure; the batch's other entries are unaffected.
    Error {
        /// Machine-readable failure class.
        code: WireErrorCode,
        /// Human-readable detail (diagnostics only; not part of the
        /// stability contract).
        message: String,
    },
    /// An unboosted partial-estimate grid (the answer to
    /// [`WireQuery::RangePartial`] / [`WireQuery::StabPartial`]): the
    /// boosting-grid shape plus `k1 · k2` instance-major atomic estimates,
    /// bit-exact. The gatherer merges grids instance-wise and boosts once.
    Partial {
        /// Boosting-grid columns (means per row).
        k1: u16,
        /// Boosting-grid rows (the median is over `k2` row means).
        k2: u16,
        /// The atomic grid, instance-major, `k1 · k2` entries.
        atomic: Vec<f64>,
    },
}

const REPLY_ESTIMATE: u8 = 0;
const REPLY_PARTIAL: u8 = 0x10;

/// Machine-readable per-query failure classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireErrorCode {
    /// The server's bounded in-flight queue was full: the query was shed
    /// at admission without being evaluated. Retry with backoff.
    Overloaded = 1,
    /// The query was malformed for this service (unknown store index,
    /// dimensionality mismatch, inverted interval, disabled fault hook).
    BadRequest = 2,
    /// The estimator rejected the query (e.g. a coordinate beyond the
    /// sketch domain).
    Estimate = 3,
    /// The handler failed internally (e.g. a panic unwound out of the
    /// evaluation pass); the worker slot recovers, the query does not.
    Internal = 4,
}

impl WireErrorCode {
    fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            1 => Ok(WireErrorCode::Overloaded),
            2 => Ok(WireErrorCode::BadRequest),
            3 => Ok(WireErrorCode::Estimate),
            4 => Ok(WireErrorCode::Internal),
            other => Err(WireError::BadStatus(other)),
        }
    }
}

/// Everything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure not covered by a more specific variant.
    Io(std::io::Error),
    /// The peer went away: EOF (clean or mid-frame), connection reset,
    /// aborted, or a broken pipe. The connection is unusable; a client
    /// recovers with [`super::SketchClient::reconnect`].
    Disconnected,
    /// A configured read/write timeout elapsed mid-operation. The stream
    /// may now be mid-frame, so the connection is unusable for framing;
    /// a client recovers with [`super::SketchClient::reconnect`].
    Timeout,
    /// A reply frame arrived whose id matches no in-flight request (or a
    /// ticket was redeemed twice / on the wrong connection).
    UnknownFrame(u32),
    /// The peer did not send this protocol's magic.
    BadMagic(u16),
    /// The peer speaks an incompatible protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadOpcode(u8),
    /// Unknown query kind inside a `QueryBatch` payload.
    BadQueryKind(u8),
    /// Unknown reply status inside a `ReplyBatch` payload.
    BadStatus(u8),
    /// A declared length exceeds [`MAX_PAYLOAD`] / [`MAX_BATCH`].
    Oversize(usize),
    /// The payload ended before the structure it declared.
    Truncated,
    /// The payload continued past the structure it declared.
    TrailingBytes(usize),
    /// An error message was not valid UTF-8.
    BadUtf8,
    /// The reply count does not match the request count.
    ReplyArity {
        /// Queries sent.
        sent: usize,
        /// Replies received.
        got: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Disconnected => write!(f, "peer disconnected"),
            WireError::Timeout => write!(f, "operation timed out"),
            WireError::UnknownFrame(id) => write!(f, "reply for unknown frame id {id}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::BadQueryKind(k) => write!(f, "unknown query kind {k}"),
            WireError::BadStatus(s) => write!(f, "unknown reply status {s}"),
            WireError::Oversize(n) => write!(f, "declared length {n} exceeds the protocol cap"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            WireError::ReplyArity { sent, got } => {
                write!(f, "sent {sent} queries but received {got} replies")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a `QueryBatch` payload.
pub fn encode_queries(queries: &[WireQuery]) -> Vec<u8> {
    assert!(queries.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    let mut out = Vec::with_capacity(4 + queries.len() * 24);
    out.extend_from_slice(&(queries.len() as u16).to_le_bytes());
    for q in queries {
        match q {
            WireQuery::Range { store, ranges } => {
                out.push(QUERY_RANGE);
                out.extend_from_slice(&store.to_le_bytes());
                out.push(ranges.len() as u8);
                for &(lo, hi) in ranges {
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
            }
            WireQuery::Stab { store, point } => {
                out.push(QUERY_STAB);
                out.extend_from_slice(&store.to_le_bytes());
                out.push(point.len() as u8);
                for &c in point {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            WireQuery::Join { r_store, s_store } => {
                out.push(QUERY_JOIN);
                out.extend_from_slice(&r_store.to_le_bytes());
                out.extend_from_slice(&s_store.to_le_bytes());
            }
            WireQuery::FaultPanic => out.push(QUERY_FAULT_PANIC),
            WireQuery::RangePartial { store, ranges } => {
                out.push(QUERY_RANGE_PARTIAL);
                out.extend_from_slice(&store.to_le_bytes());
                out.push(ranges.len() as u8);
                for &(lo, hi) in ranges {
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
            }
            WireQuery::StabPartial { store, point } => {
                out.push(QUERY_STAB_PARTIAL);
                out.extend_from_slice(&store.to_le_bytes());
                out.push(point.len() as u8);
                for &c in point {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Decodes a `QueryBatch` payload; the whole payload must be consumed.
pub fn decode_queries(payload: &[u8]) -> Result<Vec<WireQuery>, WireError> {
    let mut r = Reader::new(payload);
    let count = r.u16()? as usize;
    if count > MAX_BATCH {
        return Err(WireError::Oversize(count));
    }
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        queries.push(match r.u8()? {
            QUERY_RANGE => {
                let store = r.u32()?;
                let dims = r.u8()? as usize;
                let mut ranges = Vec::with_capacity(dims);
                for _ in 0..dims {
                    ranges.push((r.u64()?, r.u64()?));
                }
                WireQuery::Range { store, ranges }
            }
            QUERY_STAB => {
                let store = r.u32()?;
                let dims = r.u8()? as usize;
                let mut point = Vec::with_capacity(dims);
                for _ in 0..dims {
                    point.push(r.u64()?);
                }
                WireQuery::Stab { store, point }
            }
            QUERY_JOIN => WireQuery::Join {
                r_store: r.u32()?,
                s_store: r.u32()?,
            },
            QUERY_FAULT_PANIC => WireQuery::FaultPanic,
            QUERY_RANGE_PARTIAL => {
                let store = r.u32()?;
                let dims = r.u8()? as usize;
                let mut ranges = Vec::with_capacity(dims);
                for _ in 0..dims {
                    ranges.push((r.u64()?, r.u64()?));
                }
                WireQuery::RangePartial { store, ranges }
            }
            QUERY_STAB_PARTIAL => {
                let store = r.u32()?;
                let dims = r.u8()? as usize;
                let mut point = Vec::with_capacity(dims);
                for _ in 0..dims {
                    point.push(r.u64()?);
                }
                WireQuery::StabPartial { store, point }
            }
            other => return Err(WireError::BadQueryKind(other)),
        });
    }
    r.finish()?;
    Ok(queries)
}

/// Encodes a `ReplyBatch` payload.
pub fn encode_replies(replies: &[WireReply]) -> Vec<u8> {
    assert!(replies.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    let mut out = Vec::with_capacity(4 + replies.len() * 32);
    out.extend_from_slice(&(replies.len() as u16).to_le_bytes());
    for reply in replies {
        match reply {
            WireReply::Estimate { value, row_means } => {
                out.push(REPLY_ESTIMATE);
                out.extend_from_slice(&value.to_bits().to_le_bytes());
                out.extend_from_slice(&(row_means.len() as u16).to_le_bytes());
                for &m in row_means {
                    out.extend_from_slice(&m.to_bits().to_le_bytes());
                }
            }
            WireReply::Error { code, message } => {
                out.push(*code as u8);
                let bytes = message.as_bytes();
                let len = bytes.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&bytes[..len]);
            }
            WireReply::Partial { k1, k2, atomic } => {
                assert_eq!(
                    atomic.len(),
                    *k1 as usize * *k2 as usize,
                    "partial grid length must match its k1 x k2 shape"
                );
                out.push(REPLY_PARTIAL);
                out.extend_from_slice(&k1.to_le_bytes());
                out.extend_from_slice(&k2.to_le_bytes());
                for &a in atomic {
                    out.extend_from_slice(&a.to_bits().to_le_bytes());
                }
            }
        }
    }
    out
}

/// Decodes a `ReplyBatch` payload; the whole payload must be consumed.
pub fn decode_replies(payload: &[u8]) -> Result<Vec<WireReply>, WireError> {
    let mut r = Reader::new(payload);
    let count = r.u16()? as usize;
    if count > MAX_BATCH {
        return Err(WireError::Oversize(count));
    }
    let mut replies = Vec::with_capacity(count);
    for _ in 0..count {
        replies.push(match r.u8()? {
            REPLY_ESTIMATE => {
                let value = f64::from_bits(r.u64()?);
                let rows = r.u16()? as usize;
                let mut row_means = Vec::with_capacity(rows);
                for _ in 0..rows {
                    row_means.push(f64::from_bits(r.u64()?));
                }
                WireReply::Estimate { value, row_means }
            }
            REPLY_PARTIAL => {
                let k1 = r.u16()?;
                let k2 = r.u16()?;
                let grid = k1 as usize * k2 as usize;
                if grid > MAX_PARTIAL_GRID {
                    return Err(WireError::Oversize(grid));
                }
                let mut atomic = Vec::with_capacity(grid);
                for _ in 0..grid {
                    atomic.push(f64::from_bits(r.u64()?));
                }
                WireReply::Partial { k1, k2, atomic }
            }
            status => {
                let code = WireErrorCode::from_u8(status)?;
                let len = r.u16()? as usize;
                let message =
                    String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| WireError::BadUtf8)?;
                WireReply::Error { code, message }
            }
        });
    }
    r.finish()?;
    Ok(replies)
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.at))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_query(rng: &mut StdRng) -> WireQuery {
        match rng.gen_range(0..6u32) {
            0 => WireQuery::Range {
                store: rng.gen_range(0..9u32),
                ranges: (0..rng.gen_range(1..=4usize))
                    .map(|_| {
                        let lo = rng.gen_range(0..u64::MAX / 2);
                        (lo, lo + rng.gen_range(0..1000u64))
                    })
                    .collect(),
            },
            1 => WireQuery::Stab {
                store: rng.gen_range(0..9u32),
                point: (0..rng.gen_range(1..=4usize))
                    .map(|_| rng.gen_range(0..u64::MAX))
                    .collect(),
            },
            2 => WireQuery::Join {
                r_store: rng.gen_range(0..9u32),
                s_store: rng.gen_range(0..9u32),
            },
            3 => WireQuery::FaultPanic,
            4 => WireQuery::RangePartial {
                store: rng.gen_range(0..9u32),
                ranges: (0..rng.gen_range(1..=4usize))
                    .map(|_| {
                        let lo = rng.gen_range(0..u64::MAX / 2);
                        (lo, lo + rng.gen_range(0..1000u64))
                    })
                    .collect(),
            },
            _ => WireQuery::StabPartial {
                store: rng.gen_range(0..9u32),
                point: (0..rng.gen_range(1..=4usize))
                    .map(|_| rng.gen_range(0..u64::MAX))
                    .collect(),
            },
        }
    }

    fn rand_reply(rng: &mut StdRng) -> WireReply {
        match rng.gen_range(0..4u32) {
            0 | 1 => WireReply::Estimate {
                value: f64::from_bits(rng.gen_range(0..u64::MAX)),
                row_means: (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(0..1u64 << 52) as f64 * 0.5)
                    .collect(),
            },
            2 => {
                let k1 = rng.gen_range(1..=6u16);
                let k2 = rng.gen_range(1..=6u16);
                WireReply::Partial {
                    k1,
                    k2,
                    atomic: (0..k1 as usize * k2 as usize)
                        .map(|_| f64::from_bits(rng.gen_range(0..u64::MAX)))
                        .collect(),
                }
            }
            _ => {
                let code = match rng.gen_range(1..=4u8) {
                    1 => WireErrorCode::Overloaded,
                    2 => WireErrorCode::BadRequest,
                    3 => WireErrorCode::Estimate,
                    _ => WireErrorCode::Internal,
                };
                let len = rng.gen_range(0..40usize);
                WireReply::Error {
                    code,
                    message: "shard fault: 早め".chars().cycle().take(len).collect(),
                }
            }
        }
    }

    /// Seeded stand-in for a property test: random batches round-trip
    /// bit-exactly through encode → decode.
    #[test]
    fn queries_and_replies_roundtrip() {
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..200 {
            let queries: Vec<WireQuery> = (0..rng.gen_range(0..40usize))
                .map(|_| rand_query(&mut rng))
                .collect();
            let replies: Vec<WireReply> = (0..rng.gen_range(0..40usize))
                .map(|_| rand_reply(&mut rng))
                .collect();

            assert_eq!(
                decode_queries(&encode_queries(&queries)).unwrap(),
                queries,
                "round {round}"
            );
            let back = decode_replies(&encode_replies(&replies)).unwrap();
            assert_eq!(back.len(), replies.len(), "round {round}");
            for (a, b) in back.iter().zip(replies.iter()) {
                match (a, b) {
                    // NaN-safe: compare bit patterns, not f64 equality.
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
                        assert_eq!(va.to_bits(), vb.to_bits(), "round {round}");
                        assert_eq!(ra.len(), rb.len());
                        for (x, y) in ra.iter().zip(rb.iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "round {round}");
                        }
                    }
                    (
                        WireReply::Partial {
                            k1: ka,
                            k2: kb,
                            atomic: aa,
                        },
                        WireReply::Partial {
                            k1: kc,
                            k2: kd,
                            atomic: ab,
                        },
                    ) => {
                        assert_eq!((ka, kb), (kc, kd), "round {round}");
                        assert_eq!(aa.len(), ab.len());
                        for (x, y) in aa.iter().zip(ab.iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "round {round}");
                        }
                    }
                    (a, b) => assert_eq!(a, b, "round {round}"),
                }
            }
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let payload = encode_queries(&[WireQuery::Stab {
            store: 1,
            point: vec![7, 9],
        }]);
        for cut in 0..payload.len() {
            assert!(
                decode_queries(&payload[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(matches!(
            decode_queries(&padded),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn oversize_batch_counts_are_rejected_structurally() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_queries(&payload),
            Err(WireError::Oversize(_))
        ));
    }
}
