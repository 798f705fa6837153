//! Cluster-level scatter-gather: a router node fronting **remote** store
//! nodes over [`crate::net`].
//!
//! A [`ClusterRouter`] owns one connection per data node. A range or stab
//! query *scatters* as a partial-estimate wire query
//! ([`WireQuery::RangePartial`] / [`WireQuery::StabPartial`]) to every
//! node, *gathers* the unboosted [`WireReply::Partial`] grids, merges them
//! instance-wise in **fixed node order**, and boosts once. Shipping the
//! `k1·k2` partial grid instead of raw counters is what makes the hop
//! cheap: a few hundred floats rather than `k1·k2·|words|` counters.
//!
//! ## Determinism
//!
//! The partial-grid merge is an `f64` sum, so the cluster answer is
//! *deterministic* (same nodes, same order ⇒ same bits — the gather always
//! merges in node-index order regardless of reply arrival) and *unbiased*,
//! but not bit-identical to an unsharded sketch of the union: summation
//! order differs. Within one node the partial is computed from the node's
//! counter-merged view, so a single-node cluster boosts to exactly the
//! direct estimate. See `DESIGN.md` § "Elastic sharding" for the merge-rule
//! table.
//!
//! ## Joins
//!
//! Pair estimators are bilinear — their only correct merge point is the
//! counter level on both sides, before any product — so there is no
//! per-node partial form to gather. The cluster router deliberately has no
//! join method; joins run where both stores' counters live.
//!
//! ## Failover
//!
//! Each [`ClusterNode`] lists its primary address first, then replica
//! addresses (kept caught-up via [`crate::replica`] snapshots + log
//! tailing). A transport failure ([`WireError::Disconnected`] /
//! [`WireError::Timeout`] / [`WireError::Io`]) advances the node's active
//! address and retries, wrapping through every address once before giving
//! up; [`ClusterRouter::health`] exposes the resulting view and
//! [`ClusterRouter::fail_back`] forces a node back to its primary.

use crate::net::codec::{WireError, WireErrorCode, WireQuery, WireReply};
use crate::net::{range_partial_query, stab_partial_query, ClientConfig, SketchClient, Ticket};
use geometry::{HyperRect, Point};
use sketch::schema::BoostShape;
use sketch::{Estimate, PartialEstimate, SketchError};
use std::net::SocketAddr;

/// Everything that can go wrong answering a cluster query.
#[derive(Debug)]
pub enum ClusterError {
    /// A cluster with no nodes (or a node with no addresses) was asked to
    /// answer a query.
    Empty,
    /// Every address of the named node failed at the transport level; the
    /// last failure is attached.
    NodeDown {
        /// Index of the node in the cluster's node list.
        node: usize,
        /// The transport error from the final address attempt.
        last: WireError,
    },
    /// A node answered the query with a per-query wire error.
    Remote {
        /// Index of the node in the cluster's node list.
        node: usize,
        /// Machine-readable failure class from the wire.
        code: WireErrorCode,
        /// Human-readable detail from the wire.
        message: String,
    },
    /// A node answered with a structurally invalid reply (wrong reply kind
    /// or an impossible boosting shape).
    Protocol(&'static str),
    /// Merging or boosting the gathered partials failed (e.g. the nodes
    /// disagree on the boosting shape — mixed schemas).
    Sketch(SketchError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Empty => write!(f, "cluster has no nodes to query"),
            ClusterError::NodeDown { node, last } => {
                write!(f, "node {node}: every address failed (last: {last})")
            }
            ClusterError::Remote {
                node,
                code,
                message,
            } => write!(f, "node {node} answered {code:?}: {message}"),
            ClusterError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClusterError::Sketch(e) => write!(f, "gather failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SketchError> for ClusterError {
    fn from(e: SketchError) -> Self {
        ClusterError::Sketch(e)
    }
}

/// One data node: a primary address plus replica addresses to fail over
/// to, in preference order.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    addrs: Vec<SocketAddr>,
}

impl ClusterNode {
    /// A node with only a primary address.
    pub fn new(primary: SocketAddr) -> Self {
        Self {
            addrs: vec![primary],
        }
    }

    /// Adds a replica address to fail over to (builder form; replicas are
    /// tried in the order added).
    pub fn with_replica(mut self, replica: SocketAddr) -> Self {
        self.addrs.push(replica);
        self
    }

    /// The node's addresses, primary first.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }
}

/// A router-side view of one node's serving state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHealth {
    /// The address the node is currently served from.
    pub active: SocketAddr,
    /// Whether the active address is the node's primary.
    pub primary: bool,
    /// Whether a connection to the active address is currently open.
    pub connected: bool,
    /// How many times this node has failed over to another address.
    pub failovers: u64,
}

/// One node's connection state: the address list, which address is
/// active, and the (lazily opened) client.
struct NodeConn {
    addrs: Vec<SocketAddr>,
    active: usize,
    client: Option<SketchClient>,
    failovers: u64,
}

impl NodeConn {
    fn health(&self) -> NodeHealth {
        NodeHealth {
            active: self.addrs[self.active],
            primary: self.active == 0,
            connected: self.client.is_some(),
            failovers: self.failovers,
        }
    }
}

/// Scatter-gather router over remote store nodes (see the module docs).
///
/// Every node must serve the same store table (same schema, same store
/// indices); each node holds its own disjoint slice of the objects, and a
/// query's answer is the boosted merge of every node's partial grid.
pub struct ClusterRouter {
    nodes: Vec<NodeConn>,
    config: ClientConfig,
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("nodes", &self.health())
            .finish()
    }
}

impl ClusterRouter {
    /// A router over `nodes` with the default [`ClientConfig`].
    /// Connections open lazily on the first query.
    pub fn new(nodes: Vec<ClusterNode>) -> Self {
        Self::with_config(nodes, ClientConfig::default())
    }

    /// A router over `nodes` with explicit connection knobs.
    pub fn with_config(nodes: Vec<ClusterNode>, config: ClientConfig) -> Self {
        Self {
            nodes: nodes
                .into_iter()
                .map(|n| NodeConn {
                    addrs: n.addrs,
                    active: 0,
                    client: None,
                    failovers: 0,
                })
                .collect(),
            config,
        }
    }

    /// How many data nodes this router fronts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the router fronts no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The router-side health view, one entry per node.
    pub fn health(&self) -> Vec<NodeHealth> {
        self.nodes.iter().map(NodeConn::health).collect()
    }

    /// Forces `node` back to its primary address (e.g. after the primary
    /// recovered); the next query reconnects.
    pub fn fail_back(&mut self, node: usize) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.active = 0;
            n.client = None;
        }
    }

    /// Estimates range selectivity of `q` against store `store` across the
    /// whole cluster: scatter partials, merge in node order, boost once.
    pub fn estimate_range<const D: usize>(
        &mut self,
        store: u32,
        q: &HyperRect<D>,
    ) -> Result<Estimate, ClusterError> {
        self.scatter_gather(|_| range_partial_query(store, q))
    }

    /// Estimates the stabbing count at `p` against store `store` across
    /// the whole cluster.
    pub fn estimate_stab<const D: usize>(
        &mut self,
        store: u32,
        p: &Point<D>,
    ) -> Result<Estimate, ClusterError> {
        self.scatter_gather(|_| stab_partial_query(store, p))
    }

    /// The scatter-gather core: submit the query to every node (pipelined
    /// — all frames are on the wire before any reply is read), gather the
    /// partial grids, merge in **node-index order** and boost once.
    fn scatter_gather(
        &mut self,
        query_for: impl Fn(usize) -> WireQuery,
    ) -> Result<Estimate, ClusterError> {
        if self.nodes.is_empty() {
            return Err(ClusterError::Empty);
        }
        // Scatter: best-effort pipelined submit to every node. A node
        // whose submit fails is retried synchronously during the gather
        // (with address failover), so a dead primary costs one node's
        // round-trip, not the scatter.
        let mut tickets: Vec<Option<Ticket>> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            tickets.push(submit_once(node, &self.config, &query_for(i)));
        }
        // Gather in fixed node order; arrival order does not matter
        // because each node has a dedicated connection and merge order is
        // ours to choose.
        let mut merged: Option<PartialEstimate> = None;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let reply = match tickets[i].take() {
                Some(ticket) => match collect_one(node, ticket) {
                    Ok(reply) => Ok(reply),
                    // The connection died between submit and collect:
                    // fall back to the synchronous failover round-trip.
                    Err(e) if transport(&e) => roundtrip(node, &self.config, &query_for(i), i),
                    Err(e) => Err(ClusterError::NodeDown { node: i, last: e }),
                },
                None => roundtrip(node, &self.config, &query_for(i), i),
            }?;
            let partial = partial_of(reply, i)?;
            match merged.as_mut() {
                None => merged = Some(partial),
                Some(m) => m.merge_from(&partial)?,
            }
        }
        Ok(merged.expect("at least one node gathered").boost())
    }
}

/// Whether a wire error means the *connection* failed (fail over) rather
/// than the query (report).
fn transport(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Io(_) | WireError::Disconnected | WireError::Timeout
    )
}

/// One submit attempt on the node's current connection (opening it if
/// needed). `None` means the attempt failed; the gather retries with
/// failover.
fn submit_once(node: &mut NodeConn, config: &ClientConfig, query: &WireQuery) -> Option<Ticket> {
    if node.client.is_none() {
        node.client = SketchClient::connect_with(node.addrs[node.active], config.clone()).ok();
    }
    let client = node.client.as_mut()?;
    match client.submit(std::slice::from_ref(query)) {
        Ok(ticket) => Some(ticket),
        Err(_) => {
            node.client = None;
            None
        }
    }
}

/// Collects exactly one reply for `ticket`; drops the connection on
/// transport failure so the caller's retry reconnects.
fn collect_one(node: &mut NodeConn, ticket: Ticket) -> Result<WireReply, WireError> {
    let client = node.client.as_mut().ok_or(WireError::Disconnected)?;
    match client.collect(ticket) {
        Ok(mut replies) if replies.len() == 1 => Ok(replies.pop().expect("len checked")),
        Ok(replies) => Err(WireError::ReplyArity {
            sent: 1,
            got: replies.len(),
        }),
        Err(e) => {
            if transport(&e) {
                node.client = None;
            }
            Err(e)
        }
    }
}

/// Synchronous single-query round-trip with address failover: try the
/// active address, advance past transport failures, wrap through every
/// address once.
fn roundtrip(
    node: &mut NodeConn,
    config: &ClientConfig,
    query: &WireQuery,
    index: usize,
) -> Result<WireReply, ClusterError> {
    let mut last = WireError::Disconnected;
    for _ in 0..node.addrs.len() {
        let attempt = submit_once(node, config, query)
            .ok_or(WireError::Disconnected)
            .and_then(|ticket| collect_one(node, ticket));
        match attempt {
            Ok(reply) => return Ok(reply),
            Err(e) if transport(&e) => {
                last = e;
                node.client = None;
                node.active = (node.active + 1) % node.addrs.len();
                node.failovers += 1;
            }
            Err(e) => {
                return Err(ClusterError::NodeDown {
                    node: index,
                    last: e,
                })
            }
        }
    }
    Err(ClusterError::NodeDown { node: index, last })
}

/// Validates and converts one gathered reply into a [`PartialEstimate`].
fn partial_of(reply: WireReply, node: usize) -> Result<PartialEstimate, ClusterError> {
    match reply {
        WireReply::Partial { k1, k2, atomic } => {
            if k1 == 0 || k2 == 0 {
                return Err(ClusterError::Protocol(
                    "partial reply declares a zero boosting-shape factor",
                ));
            }
            PartialEstimate::from_parts(BoostShape::new(k1 as usize, k2 as usize), atomic)
                .map_err(ClusterError::from)
        }
        WireReply::Error { code, message } => Err(ClusterError::Remote {
            node,
            code,
            message,
        }),
        WireReply::Estimate { .. } => Err(ClusterError::Protocol(
            "expected a partial reply, got a boosted estimate",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextPool;
    use crate::net::{serve, ServeConfig, SketchService};
    use crate::router::QueryRouter;
    use crate::store::ShardedStore;
    use geometry::rect2;
    use rand::SeedableRng;
    use sketch::estimators::SketchConfig;
    use sketch::{BatchQuery, RangeQuery, RangeStrategy};
    use std::sync::Arc;

    fn serving_node(
        rq: &RangeQuery<2>,
        rects: &[geometry::HyperRect<2>],
    ) -> (crate::net::ServerHandle, Arc<ShardedStore<2>>) {
        let store = Arc::new(ShardedStore::like(&rq.new_sketch(), 2));
        store.insert_slice(rects).unwrap();
        let service = Arc::new(SketchService::new(rq.clone(), vec![Arc::clone(&store)]));
        let pool = Arc::new(ContextPool::new(2));
        let handle = serve(service, pool, &ServeConfig::default(), 0).unwrap();
        (handle, store)
    }

    fn test_query() -> RangeQuery<2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        RangeQuery::new(
            &mut rng,
            SketchConfig::new(16, 5),
            [8, 8],
            RangeStrategy::Transform,
        )
    }

    /// The wire scatter-gather answer is bit-identical to an in-process
    /// gather over the same nodes in the same order: partials per node,
    /// merged node 0 → node 1, boosted once.
    #[test]
    fn scatter_gather_matches_in_process_partial_merge() {
        let rq = test_query();
        let left: Vec<_> = (0..8).map(|i| rect2(i * 8, i * 8 + 6, 4, 90)).collect();
        let right: Vec<_> = (0..8)
            .map(|i| rect2(128 + i * 8, 128 + i * 8 + 6, 40, 200))
            .collect();
        let (h0, s0) = serving_node(&rq, &left);
        let (h1, s1) = serving_node(&rq, &right);

        let router = QueryRouter::new();
        let pool = ContextPool::new(1);
        let q = rect2(0, 255, 0, 255);
        let stab = [66u64, 66u64];
        let batch = [BatchQuery::Range(q), BatchQuery::Stab(stab)];
        let oracle: Vec<Estimate> = pool.with(|ctx| {
            let left = router.partial_batch(&rq, &s0, ctx, &batch);
            let right = router.partial_batch(&rq, &s1, ctx, &batch);
            left.into_iter()
                .zip(right)
                .map(|(l, r)| {
                    let mut m = l.unwrap();
                    m.merge_from(&r.unwrap()).unwrap();
                    m.boost()
                })
                .collect()
        });
        let (oracle_range, oracle_stab) = (&oracle[0], &oracle[1]);

        let mut cluster = ClusterRouter::new(vec![
            ClusterNode::new(h0.local_addr()),
            ClusterNode::new(h1.local_addr()),
        ]);
        let got_range = cluster.estimate_range(0, &q).unwrap();
        let got_stab = cluster.estimate_stab(0, &stab).unwrap();
        assert_eq!(got_range.value.to_bits(), oracle_range.value.to_bits());
        assert_eq!(got_stab.value.to_bits(), oracle_stab.value.to_bits());
        assert!(cluster
            .health()
            .iter()
            .all(|h| h.primary && h.failovers == 0));

        h0.shutdown();
        h1.shutdown();
    }

    /// A dead primary address fails over to the replica address and the
    /// query still answers; health reflects the failover, and `fail_back`
    /// returns to the primary.
    #[test]
    fn dead_primary_fails_over_to_replica_address() {
        let rq = test_query();
        let rects: Vec<_> = (0..6)
            .map(|i| rect2(i * 30, i * 30 + 20, 10, 120))
            .collect();
        let (handle, store) = serving_node(&rq, &rects);

        // A bound-then-dropped listener yields an address that refuses
        // connections — a deterministic "dead primary".
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };

        let router = QueryRouter::new();
        let pool = ContextPool::new(1);
        let q = rect2(0, 200, 0, 200);
        let oracle = pool
            .with(|ctx| router.partial_batch(&rq, &store, ctx, &[BatchQuery::Range(q)]))
            .pop()
            .unwrap()
            .unwrap()
            .boost();

        let mut cluster = ClusterRouter::new(vec![
            ClusterNode::new(dead).with_replica(handle.local_addr())
        ]);
        let got = cluster.estimate_range(0, &q).unwrap();
        assert_eq!(got.value.to_bits(), oracle.value.to_bits());
        let health = &cluster.health()[0];
        assert!(!health.primary);
        assert_eq!(health.active, handle.local_addr());
        assert!(health.failovers >= 1);

        cluster.fail_back(0);
        assert!(cluster.health()[0].primary);
        // The primary is still dead, so the next query fails over again.
        let again = cluster.estimate_range(0, &q).unwrap();
        assert_eq!(again.value.to_bits(), oracle.value.to_bits());

        handle.shutdown();
    }

    /// With every address dead the query reports `NodeDown` instead of
    /// hanging or panicking.
    #[test]
    fn all_addresses_dead_reports_node_down() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut cluster = ClusterRouter::new(vec![ClusterNode::new(dead)]);
        let err = cluster.estimate_range(0, &rect2(0, 10, 0, 10)).unwrap_err();
        assert!(
            matches!(err, ClusterError::NodeDown { node: 0, .. }),
            "{err}"
        );
    }
}
