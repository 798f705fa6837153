//! The blocked query kernels: block-evaluated estimation.
//!
//! Every estimator in the paper reduces to the same inner loop: per boosting
//! instance, form an atomic estimate `Z_i` — either a signed sum of counter
//! products (pair estimators: joins, containment, ε-join, self-join sizes)
//! or a sum of *query-side* ξ products against maintained counters (range
//! and stabbing queries) — then boost the grid of `Z_i` by mean-then-median
//! (§4.2). The build side bit-sliced this loop shape in PR 2
//! ([`fourwise::batch`]); this module does the same for estimation.
//!
//! Two interchangeable kernels fill the atomic grid ([`QueryKernel`]); both
//! produce **bit-identical** [`Estimate`]s (enforced by
//! `crates/core/tests/differential_estimators.rs`):
//!
//! * [`QueryKernel::Scalar`] — the reference path: walk instances one at a
//!   time, instantiate each instance's ξ families and evaluate covers
//!   per-instance (the query path), or form counter products with plain
//!   128-bit widening (the pair path). Kept as the differential oracle.
//! * [`QueryKernel::Wide`] (the default) — walk whole 512-lane instance
//!   blocks: query-side cover node ids and their GF(2^k) cubes are
//!   computed **once per query**, evaluated for a block of instances per
//!   pass via the schema's packed [`fourwise::LaneWord`] seed tables
//!   (per-lane sums through [`fourwise::BlockSums`]; eight-word lane
//!   operations LLVM unrolls and autovectorizes, and partly filled blocks
//!   fold only their occupied words), and combined with the block's
//!   contiguous counter rows term-major — independent f64 accumulations
//!   across lanes instead of one serial chain per instance, and counter
//!   products take a 64-bit fast path instead of the 128-bit soft-float
//!   conversion.
//!
//! A [`QueryContext`] owns all the kernel scratch (atomic grid, lane sums,
//! boosting buffers) **plus a compiled-plan cache**: query-side
//! `XiQueryPlan`s are memoized per (schema, query) so a serving loop
//! issuing repeated queries skips cover compilation entirely and allocates
//! only the returned [`Estimate`] per call. One context serves every
//! estimator and every dimensionality.
//!
//! ## Query-product memos
//!
//! The blocked kernels split the query side in two stages. First, per word
//! term `t` and instance `i`, the exact `i64` query product
//! `q[t][i] = Π_dim ξ̄-sum(cover list)` — the expensive ξ evaluation, a
//! function of the query and the schema's seeds only, never of the data.
//! Second, the combine `Z_i = Σ_t prod_f64(q[t][i], X_i[word_t])`, terms in
//! plan order. Since the first stage ignores the counters, a plan caches
//! its products (term-major, `terms × instances`) once it proves hot:
//!
//! * **Filled on the first cache hit, never on a miss.** A freshly compiled
//!   plan computes its products into context scratch; one-shot traffic pays
//!   no memo time or memory. The second lookup of the same plan fills the
//!   memo, and every later estimate — single, batch or shard partial —
//!   runs only the combine: one counter dot product per instance.
//! * **Dropped with the plan.** The memo lives inside the cached plan, so
//!   LRU eviction frees it; [`PlanCacheReport::memo`] counts fills, reuses,
//!   drops and resident bytes.
//! * **Valid across ingest.** Counters change under inserts and deletes;
//!   the products do not, and the plan key pins the schema.
//! * **Bit-identical.** The memo stores the same exact `i64` products the
//!   cold path computes, and the combine adds them per instance in the same
//!   term order, so the f64 operation sequence — hence every estimate — is
//!   unchanged. [`QueryKernel::Scalar`] never reads a memo and stays the
//!   oracle (`crates/core/tests/batch_differential.rs` checks cold, filling
//!   and warm rounds against it).
//!
//! ## Batches
//!
//! A range/stab batch ([`crate::RangeQuery::estimate_batch_with`]) is only
//! validation and exact-duplicate dedup in front of this module's one
//! per-plan fill: each distinct query looks its plan up, then answers from
//! the memo, fills it, or evaluates its own covers into scratch, exactly as
//! a single query does. There is no cross-query kernel: real queries share
//! too few cover cells for a merged sweep to pay for its per-batch merge
//! and per-slot counters (DESIGN.md "Batch path" has the measurements).

use crate::atomic::SketchSet;
use crate::boost::{mean_median_with, Estimate};
use crate::estimator::Term;
use crate::schema::{BoostShape, SketchSchema};
use fourwise::{BlockSums, IndexPre, LaneWord};
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// Which implementation evaluates estimates over the instance grid.
///
/// Both kernels compute bit-identical estimates — the scalar path is
/// retained as the differential-test oracle of the blocked one, mirroring
/// [`crate::atomic::BuildKernel`] on the build side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryKernel {
    /// Per-instance evaluation (the original reference path).
    Scalar,
    /// Bit-sliced evaluation of 512 instances per pass over the schema's
    /// [`fourwise::LaneWord`]-packed seed tables, with block-contiguous
    /// counter walks.
    #[default]
    Wide,
}

/// Most compiled plans one [`QueryContext`] retains (least recently used
/// entries are evicted first). A plan's cover lists grow with the query's
/// cover length (longer under an adaptive `maxLevel`), and a warm plan also
/// holds its query-product memo of `terms × instances` `i64`s — a 2-d range
/// plan at 1015 instances carries 4 × 1015 × 8 B ≈ 32 KB. One context thus
/// holds at most `64 × terms × instances × 8` bytes of memos.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Identity of a compiled query plan: the schema (which pins the ξ kind,
/// domain layout and maxLevel), the query class, and the query coordinates
/// the covers were compiled from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    schema_id: u64,
    class: u8,
    coords: Vec<u64>,
}

impl PlanKey {
    pub(crate) fn new(schema_id: u64, class: u8, coords: Vec<u64>) -> Self {
        Self {
            schema_id,
            class,
            coords,
        }
    }
}

/// Plan classes for [`PlanKey`] (disambiguate different covers compiled
/// from the same coordinates).
pub(crate) const PLAN_CLASS_OVERLAP: u8 = 0;
pub(crate) const PLAN_CLASS_STAB: u8 = 1;

/// Point-in-time counters of one compiled-plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (cover compilation skipped).
    pub hits: u64,
    /// Lookups that compiled a fresh plan.
    pub misses: u64,
    /// Entries dropped to make room (least recently used first).
    pub evictions: u64,
}

/// Counters of the query-product memos cached plans carry (see the module
/// docs' "Query-product memos").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanMemoStats {
    /// Memos computed: at most one per cached plan, on its first cache hit
    /// under a blocked kernel.
    pub fills: u64,
    /// Estimates answered from an already-filled memo.
    pub reuses: u64,
    /// Memoized plans evicted from the cache; the memo is freed with the
    /// plan.
    pub dropped: u64,
    /// Memo bytes held by the plans currently cached.
    pub resident_bytes: u64,
}

/// Counters of a [`QueryContext`]'s plan cache and its memos, reported next
/// to [`crate::kernel::dispatch_report`] by the bench probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheReport {
    /// The single-query `XiQueryPlan` LRU.
    pub single: PlanCacheStats,
    /// Always zero. This reported a second LRU of merged batch plans, which
    /// the memos made redundant: batch queries look up and fill the same
    /// single-query plans. The field stays so existing readers of the
    /// report keep compiling.
    pub multi: PlanCacheStats,
    /// The cached plans' query-product memos.
    pub memo: PlanMemoStats,
}

/// A cached plan, type-erased over its dimensionality.
trait CachedPlan: Any + Send + Sync {
    /// Bytes held by the plan's query-product memo (0 while unfilled).
    fn memo_bytes(&self) -> usize;
}

impl<const D: usize> CachedPlan for XiQueryPlan<D> {
    fn memo_bytes(&self) -> usize {
        self.memo
            .get()
            .map_or(0, |m| std::mem::size_of_val::<[i64]>(m))
    }
}

/// A bounded LRU of compiled query plans, plus the memo counters.
#[derive(Clone, Default)]
struct PlanCache {
    /// Most recently used last; linear scans are fine at this capacity.
    entries: Vec<(PlanKey, Arc<dyn CachedPlan>)>,
    stats: PlanCacheStats,
    /// Fills, reuses and drops; resident bytes are summed on report.
    memo: PlanMemoStats,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.entries.len())
            .field("stats", &self.stats)
            .field("memo", &self.memo)
            .finish()
    }
}

impl PlanCache {
    /// Looks `key` up, refreshing its recency on a hit. Counts a miss (and
    /// drops the stale entry) when the stored plan is of the wrong type —
    /// impossible for well-formed keys, handled defensively rather than
    /// serving a wrong-typed plan.
    fn lookup<const D: usize>(&mut self, key: &PlanKey) -> Option<Arc<XiQueryPlan<D>>> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
            let entry = self.entries.remove(pos);
            let any: Arc<dyn Any + Send + Sync> = entry.1.clone();
            if let Ok(plan) = any.downcast::<XiQueryPlan<D>>() {
                self.entries.push(entry);
                self.stats.hits += 1;
                return Some(plan);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Caches a freshly compiled plan, evicting the least recently used
    /// entry (and with it any memo it holds) at capacity.
    fn insert<const D: usize>(&mut self, key: PlanKey, plan: Arc<XiQueryPlan<D>>) {
        if self.entries.len() >= PLAN_CACHE_CAPACITY {
            let (_, evicted) = self.entries.remove(0);
            self.stats.evictions += 1;
            if evicted.memo_bytes() > 0 {
                self.memo.dropped += 1;
            }
        }
        self.entries.push((key, plan));
    }

    fn report(&self) -> PlanCacheReport {
        let resident: usize = self.entries.iter().map(|(_, p)| p.memo_bytes()).sum();
        PlanCacheReport {
            single: self.stats,
            multi: PlanCacheStats::default(),
            memo: PlanMemoStats {
                resident_bytes: resident as u64,
                ..self.memo
            },
        }
    }
}

/// A plan handed out by [`QueryContext::plan_for`], with whether the lookup
/// hit the cache — a hit is what licenses filling the plan's memo.
pub(crate) struct PlanRef<const D: usize> {
    pub plan: Arc<XiQueryPlan<D>>,
    pub hit: bool,
}

#[cfg(test)]
thread_local! {
    /// Test hook: makes the next memo fill on this thread panic after its
    /// products are computed but before the memo is stored.
    static PANIC_IN_NEXT_MEMO_FILL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Reusable estimation scratch shared by every estimator: the atomic
/// estimate grid, the query-side per-lane sum bank, the boosting buffers,
/// and the compiled-plan cache. Construction-free to
/// share across dimensionalities — one context can serve a 2-d join and a
/// 4-d containment estimator back to back.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    kernel: QueryKernel,
    /// Atomic estimates, instance-major (`atomic[row * k1 + col]`).
    atomic: Vec<f64>,
    /// Row means of the last boost (copied into the returned [`Estimate`]).
    rows: Vec<f64>,
    /// Sort scratch for the median step.
    med: Vec<f64>,
    /// Query-side per-lane cover sums, one slot per (dimension, list) pair.
    sums: BlockSums,
    /// A cold plan's query products (term-major), recomputed per call.
    qprod: Vec<i64>,
    /// Compiled query plans, memoized per (schema, query).
    plans: PlanCache,
}

impl QueryContext {
    /// Fresh context with the default ([`QueryKernel::Wide`]) kernel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the evaluation kernel (builder form).
    pub fn with_kernel(mut self, kernel: QueryKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the evaluation kernel in place. Kernels are interchangeable
    /// at any point: all compute bit-identical estimates.
    pub fn set_kernel(&mut self, kernel: QueryKernel) {
        self.kernel = kernel;
    }

    /// The configured evaluation kernel.
    pub fn kernel(&self) -> QueryKernel {
        self.kernel
    }

    /// Hit/miss/eviction counters of the plan cache and the fill, reuse,
    /// drop and resident-byte counters of its query-product memos, since
    /// the context was created.
    pub fn plan_cache_report(&self) -> PlanCacheReport {
        self.plans.report()
    }

    /// Looks up the compiled plan for `key`, compiling and caching it on a
    /// miss. Hits refresh the entry's recency; the cache holds at most
    /// [`PLAN_CACHE_CAPACITY`] plans.
    pub(crate) fn plan_for<const D: usize>(
        &mut self,
        key: PlanKey,
        compile: impl FnOnce() -> XiQueryPlan<D>,
    ) -> PlanRef<D> {
        if let Some(plan) = self.plans.lookup::<D>(&key) {
            return PlanRef { plan, hit: true };
        }
        let plan = Arc::new(compile());
        self.plans.insert(key, plan.clone());
        PlanRef { plan, hit: false }
    }

    /// Finishes a fill by boosting the grid it left in `self.atomic`.
    pub(crate) fn boost(&mut self, shape: BoostShape) -> Estimate {
        let value = mean_median_with(
            &self.atomic,
            shape.k1,
            shape.k2,
            &mut self.rows,
            &mut self.med,
        );
        Estimate {
            value,
            row_means: self.rows.clone(),
        }
    }

    /// Finishes a fill by copying its grid out unboosted, as a
    /// shard-mergeable [`PartialEstimate`].
    pub(crate) fn partial(&mut self, shape: BoostShape) -> PartialEstimate {
        PartialEstimate {
            shape,
            atomic: self.atomic.clone(),
        }
    }

    /// Pair combine: `Z_i = Σ_t coeff_t · R_i[rw_t] · S_i[sw_t]`, boosted.
    ///
    /// Callers must have verified that `r` and `s` share a schema and that
    /// the term word indices are in range.
    pub(crate) fn pair_estimate<const D: usize>(
        &mut self,
        terms: &[Term],
        r: &SketchSet<D>,
        s: &SketchSet<D>,
    ) -> Estimate {
        let shape = r.schema().shape();
        self.atomic.resize(shape.instances(), 0.0);
        match self.kernel {
            QueryKernel::Scalar => pair_fill_scalar(terms, r, s, &mut self.atomic),
            QueryKernel::Wide => pair_fill_blocked(terms, r, s, &mut self.atomic),
        }
        self.boost(shape)
    }

    /// Query-side fill: leaves the atomic grid of `Z_i = Σ_t X_i[word_t] ·
    /// Π_dim ξ̄-sum of the term's chosen cover list` in `self.atomic`, for
    /// [`QueryContext::boost`] or [`QueryContext::partial`] to finish. No
    /// plan (a degenerate query, which selects nothing) leaves all zeros.
    ///
    /// The blocked kernel takes the query products from the plan's memo
    /// when it is filled, fill it when this lookup was a cache hit, and
    /// otherwise compute them into context scratch; the scalar oracle
    /// ignores the memo entirely.
    pub(crate) fn xi_fill<const D: usize>(
        &mut self,
        plan: Option<&PlanRef<D>>,
        sketch: &SketchSet<D>,
    ) {
        let schema = sketch.schema();
        let instances = schema.instances();
        self.atomic.resize(instances, 0.0);
        let Some(PlanRef { plan, hit }) = plan else {
            return self.atomic.fill(0.0);
        };
        if self.kernel == QueryKernel::Scalar {
            return xi_fill_scalar(plan, sketch, &mut self.atomic);
        }
        let products: &[i64] = if let Some(memo) = plan.memo.get() {
            self.plans.memo.reuses += 1;
            memo
        } else if *hit {
            let mut filled = false;
            let memo = plan.memo.get_or_init(|| {
                let mut memo = vec![0; plan.terms.len() * instances];
                xi_products(plan, schema, &mut self.sums, &mut memo);
                #[cfg(test)]
                if PANIC_IN_NEXT_MEMO_FILL.with(|p| p.replace(false)) {
                    panic!("injected memo-fill panic");
                }
                filled = true;
                memo.into_boxed_slice()
            });
            if filled {
                self.plans.memo.fills += 1;
            } else {
                // Another context sharing the plan filled it meanwhile.
                self.plans.memo.reuses += 1;
            }
            memo
        } else {
            self.qprod.resize(plan.terms.len() * instances, 0);
            xi_products(plan, schema, &mut self.sums, &mut self.qprod);
            &self.qprod
        };
        xi_combine(&plan.terms, products, sketch, &mut self.atomic);
    }
}

/// An **unboosted** atomic-estimate grid: the shard-mergeable partial form
/// of an estimate for the *linear* (single-sketch) query classes — range
/// selectivity and stabbing counts.
///
/// ## Merge rules (what may be combined, and where)
///
/// Boosting (mean-then-median) is nonlinear, so partial results must merge
/// **before** it:
///
/// * **Counters** merge exactly: sketches are linear over `i64` counters,
///   so folding shard counters and then estimating is *bit-identical* to
///   estimating an unsharded sketch of the same objects. This is the merge
///   the serving router uses when bit-reproducibility matters.
/// * **Partial grids** (this type) merge per instance in `f64`: summing the
///   per-shard `Z_i` grids yields an unbiased estimator of the shard union
///   whose expectation equals the counter-merged estimate, but whose
///   floating-point rounding may differ in the last bits (different
///   summation order). Partial grids are what a *distributed* deployment
///   ships — `k1·k2` floats instead of `k1·k2·|words|` counters.
/// * **Boosted [`Estimate`]s never merge**: medians of sums are not sums of
///   medians. Combining finished estimates from two shards is a semantic
///   error, which is why the router only exposes pre-boost merge points.
///
/// Bilinear pair estimators (joins, containment, ε-joins) have no per-shard
/// partial form at all: the atomic estimate multiplies `R`- and `S`-side
/// counters, so cross-shard product terms would be lost. Their only correct
/// merge point is the counter level, on both sides, before any product.
#[derive(Debug, Clone)]
pub struct PartialEstimate {
    shape: BoostShape,
    /// Atomic estimates, instance-major (`atomic[row * k1 + col]`).
    atomic: Vec<f64>,
}

impl PartialEstimate {
    /// The boosting-grid shape this partial was computed over.
    pub fn shape(&self) -> BoostShape {
        self.shape
    }

    /// The unboosted atomic grid, instance-major.
    pub fn atomic(&self) -> &[f64] {
        &self.atomic
    }

    /// Reassembles a partial from its `shape` and instance-major `atomic`
    /// grid — the inverse of reading [`PartialEstimate::shape`] and
    /// [`PartialEstimate::atomic`], for partials that crossed a process
    /// boundary (e.g. the serving layer's wire codec). Fails if the grid
    /// length does not match `shape.instances()`.
    pub fn from_parts(shape: BoostShape, atomic: Vec<f64>) -> crate::error::Result<Self> {
        if atomic.len() != shape.instances() {
            return Err(crate::error::SketchError::InvalidParameter(
                "partial estimate grid length does not match its boosting shape",
            ));
        }
        Ok(Self { shape, atomic })
    }

    /// Accumulates another shard's partial grid (instance-wise `f64` sum).
    /// Both partials must come from sketches over the same boosting shape —
    /// in practice the same schema.
    pub fn merge_from(&mut self, other: &PartialEstimate) -> crate::error::Result<()> {
        if self.shape != other.shape {
            return Err(crate::error::SketchError::InvalidParameter(
                "partial estimates have different boosting shapes",
            ));
        }
        for (a, b) in self.atomic.iter_mut().zip(other.atomic.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Boosts the (merged) grid into the final [`Estimate`].
    pub fn boost(&self) -> Estimate {
        Estimate::from_grid(&self.atomic, self.shape.k1, self.shape.k2)
    }
}

/// One query-side word term: which maintained word the counters come from
/// and, per dimension, which of the plan's cover lists multiplies it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XiWordTerm<const D: usize> {
    /// Index into the sketch's maintained word list.
    pub word: usize,
    /// Per dimension, an index into [`XiQueryPlan::lists`] of that dimension.
    pub slots: [usize; D],
}

/// A compiled query side: the cover node lists (ids + GF cubes precomputed
/// once per query, shared by every instance), the word terms combining
/// them with maintained counters, and — once the plan is hot — the memo of
/// its per-term, per-instance query products.
#[derive(Debug, Clone)]
pub(crate) struct XiQueryPlan<const D: usize> {
    /// `lists[dim]` holds that dimension's cover lists (e.g. the query
    /// interval cover and the upper-endpoint point cover).
    pub lists: [Vec<Vec<IndexPre>>; D],
    /// The word terms, in maintained-word order.
    pub terms: Vec<XiWordTerm<D>>,
    /// The [`xi_products`] of this plan over its schema, term-major; set on
    /// the plan's first cache hit under a blocked kernel (module docs).
    pub memo: OnceLock<Box<[i64]>>,
}

impl<const D: usize> Default for XiQueryPlan<D> {
    fn default() -> Self {
        Self {
            lists: std::array::from_fn(|_| Vec::new()),
            terms: Vec::new(),
            memo: OnceLock::new(),
        }
    }
}

impl<const D: usize> XiQueryPlan<D> {
    /// Largest per-dimension list count (the slot stride of the lane bank).
    fn max_slots(&self) -> usize {
        self.lists.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// `a·b` as f64, bit-identical to `(a as i128 * b as i128) as f64` but
/// taking a 64-bit fast path when the product fits (both conversions round
/// the same mathematical value to nearest, so the results coincide exactly).
/// Sketch counters sit far below 2^63 in practice; the 128-bit fallback only
/// guards pathological inputs.
#[inline(always)]
fn prod_f64(a: i64, b: i64) -> f64 {
    match a.checked_mul(b) {
        Some(p) => p as f64,
        None => (a as i128 * b as i128) as f64,
    }
}

/// Fills `out[i]` with the pair atomic estimate of instance `i`,
/// per-instance (the scalar reference path — kept verbatim from the
/// pre-kernel estimator).
fn pair_fill_scalar<const D: usize>(
    terms: &[Term],
    r: &SketchSet<D>,
    s: &SketchSet<D>,
    out: &mut [f64],
) {
    for (inst, z_out) in out.iter_mut().enumerate() {
        let rc = r.instance_counters(inst);
        let sc = s.instance_counters(inst);
        let mut z = 0.0f64;
        for t in terms {
            // Counter products can exceed i64; widen before converting.
            let prod = rc[t.r_word] as i128 * sc[t.s_word] as i128;
            z += t.coeff * prod as f64;
        }
        *z_out = z;
    }
}

/// Fills the pair atomic estimates of every instance block; `out` holds
/// one entry per instance. Terms walk in the outer loop so the f64
/// accumulations of different lanes stay independent (per-lane term order
/// — and thus rounding — matches the scalar path exactly).
fn pair_fill_blocked<const D: usize>(
    terms: &[Term],
    r: &SketchSet<D>,
    s: &SketchSet<D>,
    out: &mut [f64],
) {
    let rw = r.words().len();
    let sw = s.words().len();
    let rc = r.counters();
    let sc = s.counters();
    for (b, z) in out.chunks_mut(LaneWord::LANES).enumerate() {
        let base = b * LaneWord::LANES;
        let lanes = z.len();
        let rb = &rc[base * rw..(base + lanes) * rw];
        let sb = &sc[base * sw..(base + lanes) * sw];
        z.fill(0.0);
        for t in terms {
            let (rword, sword, coeff) = (t.r_word, t.s_word, t.coeff);
            for (lane, slot) in z.iter_mut().enumerate() {
                *slot += coeff * prod_f64(rb[lane * rw + rword], sb[lane * sw + sword]);
            }
        }
    }
}

/// Fills `out[i]` with the query-side atomic estimate of instance `i`,
/// instantiating each instance's ξ families and summing every cover list
/// per instance (the scalar reference path).
fn xi_fill_scalar<const D: usize>(plan: &XiQueryPlan<D>, sketch: &SketchSet<D>, out: &mut [f64]) {
    let schema = sketch.schema();
    let stride = plan.max_slots();
    let mut sums = vec![0i64; D * stride];
    for (inst, z_out) in out.iter_mut().enumerate() {
        let seeds = schema.instance_seeds(inst);
        for (dim, lists) in plan.lists.iter().enumerate() {
            let fam = schema.xi_ctx()[dim].family(seeds[dim]);
            for (slot, list) in lists.iter().enumerate() {
                sums[dim * stride + slot] = fam.sum_pre(list);
            }
        }
        let counters = sketch.instance_counters(inst);
        let mut z = 0.0f64;
        for t in &plan.terms {
            let mut qprod: i64 = 1;
            for (dim, &slot) in t.slots.iter().enumerate() {
                qprod *= sums[dim * stride + slot];
            }
            z += (qprod as i128 * counters[t.word] as i128) as f64;
        }
        *z_out = z;
    }
}

/// Fills `out` (term-major: `out[t * instances + i]`) with every instance's
/// exact query product of each word term, `Π_dim ξ̄-sum(list chosen by the
/// term)`: every cover list is evaluated for all lanes of an instance block
/// in one bit-sliced pass over the schema's packed seed tables, then each
/// term's product is folded across the lanes in dimension order — the
/// scalar path's order, so the `i64` products are bit-identical to it.
/// Depends on the query and the schema only, never on counters: this is
/// what a hot plan memoizes.
pub(crate) fn xi_products<const D: usize>(
    plan: &XiQueryPlan<D>,
    schema: &SketchSchema<D>,
    sums: &mut BlockSums,
    out: &mut [i64],
) {
    let instances = schema.instances();
    debug_assert_eq!(out.len(), plan.terms.len() * instances);
    let stride = plan.max_slots();
    sums.reserve_slots(D * stride);
    for (b, block) in schema.seed_blocks(0).iter().enumerate() {
        let base = b * LaneWord::LANES;
        let lanes = block.lanes();
        for (dim, lists) in plan.lists.iter().enumerate() {
            let xb = &schema.seed_blocks(dim)[b];
            for (slot, list) in lists.iter().enumerate() {
                sums.eval_into(dim * stride + slot, xb, list);
            }
        }
        for (t, term) in plan.terms.iter().enumerate() {
            let ids: [usize; D] = std::array::from_fn(|d| d * stride + term.slots[d]);
            let start = t * instances + base;
            out[start..start + lanes].copy_from_slice(sums.slot_products(&ids, lanes));
        }
    }
}

/// Combines query products ([`xi_products`] layout) with the sketch's
/// counters: `out[i] = Σ_t prod_f64(products[t][i], X_i[word_t])`, each
/// instance accumulating from `0.0` in term order — the scalar path's f64
/// operation sequence. Terms walk in the outer loop so the accumulations of
/// different instances stay independent (one multiply-add per instance per
/// term, which LLVM autovectorizes).
fn xi_combine<const D: usize>(
    terms: &[XiWordTerm<D>],
    products: &[i64],
    sketch: &SketchSet<D>,
    out: &mut [f64],
) {
    let w = sketch.words().len();
    let rows = sketch.counters().chunks_exact(w);
    let n = out.len();
    out.fill(0.0);
    for (t, term) in terms.iter().enumerate() {
        let q = &products[t * n..(t + 1) * n];
        for ((z, &q), row) in out.iter_mut().zip(q).zip(rows.clone()) {
            *z += prod_f64(q, row[term.word]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::EndpointPolicy;
    use crate::comp::ie_words;
    use crate::schema::{DimSpec, SketchSchema};
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn prod_f64_matches_widening_conversion() {
        let cases = [
            (0i64, 0i64),
            (3, -7),
            (i64::MAX, 1),
            (i64::MAX, -1),
            (i64::MAX, i64::MAX), // overflows i64: 128-bit fallback
            (i64::MIN, i64::MIN), // likewise
            (i64::MIN, -1),       // checked_mul fails, product = 2^63
            (1 << 40, 1 << 30),   // overflow by a hair over the boundary
            (987654321, -123456789),
        ];
        for (a, b) in cases {
            let want = (a as i128 * b as i128) as f64;
            assert_eq!(prod_f64(a, b).to_bits(), want.to_bits(), "{a} * {b}");
        }
    }

    #[test]
    fn pair_kernels_agree_on_built_sketches() {
        let mut rng = StdRng::seed_from_u64(200);
        // 70 instances: one partial block with two occupied words.
        let schema = SketchSchema::<2>::new(
            &mut rng,
            crate::schema::BoostShape::new(35, 2),
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let mut r = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        let mut s = SketchSet::new(schema.clone(), words, EndpointPolicy::Raw);
        for _ in 0..40 {
            let x = rng.gen_range(0..200u64);
            let y = rng.gen_range(0..200u64);
            r.insert(&rect2(x, x + 9, y, y + 5)).unwrap();
            s.insert(&rect2(y, y + 3, x, x + 11)).unwrap();
        }
        let terms = [
            Term {
                r_word: 0,
                s_word: 3,
                coeff: 0.25,
            },
            Term {
                r_word: 1,
                s_word: 2,
                coeff: 0.25,
            },
            Term {
                r_word: 2,
                s_word: 1,
                coeff: -0.5,
            },
        ];
        let mut scalar_out = vec![0.0; schema.instances()];
        let mut wide_out = vec![0.0; schema.instances()];
        pair_fill_scalar(&terms, &r, &s, &mut scalar_out);
        pair_fill_blocked(&terms, &r, &s, &mut wide_out);
        for (i, (a, b)) in scalar_out.iter().zip(wide_out.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "wide instance {i}");
        }
        // Context dispatch returns the boosted estimate of the same grid,
        // whichever kernel is selected.
        let mut ctx = QueryContext::new().with_kernel(QueryKernel::Scalar);
        let es = ctx.pair_estimate(&terms, &r, &s);
        assert_eq!(es.row_means.len(), 2);
        ctx.set_kernel(QueryKernel::Wide);
        let eb = ctx.pair_estimate(&terms, &r, &s);
        assert_eq!(es.value.to_bits(), eb.value.to_bits());
        assert_eq!(es.row_means, eb.row_means);
    }

    /// A 2-d sketch at 70 instances (one partial block) over random rects, and `n` synthetic plans with overlapping
    /// cover cells (shared ids across plans and a duplicate inside one list).
    fn synthetic_plans(seed: u64, n: usize) -> (SketchSet<2>, Vec<XiQueryPlan<2>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = SketchSchema::<2>::new(
            &mut rng,
            crate::schema::BoostShape::new(35, 2),
            [DimSpec::dyadic(8); 2],
        );
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema.clone(), words, EndpointPolicy::Raw);
        for _ in 0..40 {
            let x = rng.gen_range(0..200u64);
            let y = rng.gen_range(0..200u64);
            sk.insert(&rect2(x, x + 9, y, y + 5)).unwrap();
        }
        let plans = (0..n)
            .map(|p| {
                let mut plan = XiQueryPlan::<2>::default();
                for (dim, lists) in plan.lists.iter_mut().enumerate() {
                    let ctx = &schema.xi_ctx()[dim];
                    for l in 0..2usize {
                        let mut list: Vec<IndexPre> = (0..6 + 3 * l)
                            .map(|_| ctx.precompute(rng.gen_range(0..64u64)))
                            .collect();
                        if p == 1 && l == 0 {
                            let dup = list[0];
                            list.push(dup);
                        }
                        lists.push(list);
                    }
                }
                plan.terms = (0..4usize)
                    .map(|mask| XiWordTerm {
                        word: mask,
                        slots: std::array::from_fn(|d| (mask >> d ^ p) & 1),
                    })
                    .collect();
                plan
            })
            .collect();
        (sk, plans)
    }

    fn plan_key(i: u64) -> PlanKey {
        PlanKey::new(i, PLAN_CLASS_OVERLAP, vec![i, i + 1])
    }

    /// Fills `plan`'s grid over `sk` and boosts it.
    fn estimate(ctx: &mut QueryContext, plan: &PlanRef<2>, sk: &SketchSet<2>) -> Estimate {
        ctx.xi_fill(Some(plan), sk);
        ctx.boost(sk.schema().shape())
    }

    /// The scalar oracle's estimate of `plan` (never touches the memo).
    fn oracle(plan: &XiQueryPlan<2>, sk: &SketchSet<2>) -> Estimate {
        let cold = PlanRef {
            plan: Arc::new(plan.clone()),
            hit: false,
        };
        estimate(
            &mut QueryContext::new().with_kernel(QueryKernel::Scalar),
            &cold,
            sk,
        )
    }

    fn assert_same(a: &Estimate, b: &Estimate, label: &str) {
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{label}: value");
        let bits = |e: &Estimate| e.row_means.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{label}: row means");
    }

    #[test]
    fn memo_fills_on_first_hit_never_on_a_miss() {
        let (sk, plans) = synthetic_plans(220, 1);
        let plan = &plans[0];
        let want = oracle(plan, &sk);
        let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
        let cold = ctx.plan_for(plan_key(0), || plan.clone());
        assert!(!cold.hit);
        assert_same(&estimate(&mut ctx, &cold, &sk), &want, "miss");
        assert!(cold.plan.memo.get().is_none(), "a miss fills no memo");
        assert_eq!(ctx.plan_cache_report().memo, PlanMemoStats::default());

        let hot = ctx.plan_for(plan_key(0), || unreachable!("cached"));
        assert!(hot.hit);
        assert_same(&estimate(&mut ctx, &hot, &sk), &want, "first hit");
        let bytes = (plan.terms.len() * sk.schema().instances() * 8) as u64;
        let report = ctx.plan_cache_report().memo;
        assert_eq!((report.fills, report.reuses), (1, 0));
        assert_eq!(report.resident_bytes, bytes);
        let warm = ctx.plan_for(plan_key(0), || unreachable!("cached"));
        assert_same(&estimate(&mut ctx, &warm, &sk), &want, "warm");
        assert_eq!(ctx.plan_cache_report().memo.reuses, 1);
    }

    #[test]
    fn evicted_plan_frees_its_memo() {
        let (sk, plans) = synthetic_plans(221, 1);
        let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
        let _ = ctx.plan_for(plan_key(0), || plans[0].clone());
        let hot = ctx.plan_for(plan_key(0), || unreachable!("cached"));
        estimate(&mut ctx, &hot, &sk);
        assert!(hot.plan.memo.get().is_some());
        let weak = Arc::downgrade(&hot.plan);
        drop(hot);
        for i in 1..=PLAN_CACHE_CAPACITY as u64 {
            let _ = ctx.plan_for::<2>(plan_key(i), XiQueryPlan::default);
        }
        assert!(
            weak.upgrade().is_none(),
            "the evicted plan and memo are freed"
        );
        let report = ctx.plan_cache_report();
        assert_eq!(report.single.evictions, 1);
        assert_eq!(report.memo.dropped, 1);
        assert_eq!(report.memo.resident_bytes, 0);
    }

    #[test]
    fn scalar_context_ignores_memos_of_hot_plans() {
        let (sk, plans) = synthetic_plans(222, 3);
        let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
        for _ in 0..2 {
            for (i, plan) in plans.iter().enumerate() {
                let r = ctx.plan_for(plan_key(i as u64), || plan.clone());
                estimate(&mut ctx, &r, &sk);
            }
        }
        let memoized = ctx.plan_cache_report().memo;
        assert_eq!(memoized.fills, 3);
        ctx.set_kernel(QueryKernel::Scalar);
        for (i, plan) in plans.iter().enumerate() {
            let r = ctx.plan_for(plan_key(i as u64), || unreachable!("cached"));
            assert!(r.plan.memo.get().is_some());
            assert_same(&estimate(&mut ctx, &r, &sk), &oracle(plan, &sk), "scalar");
        }
        assert_eq!(
            ctx.plan_cache_report().memo,
            memoized,
            "scalar reads no memo"
        );
    }

    #[test]
    fn panicking_memo_fill_leaves_the_plan_usable() {
        let (sk, plans) = synthetic_plans(223, 1);
        let want = oracle(&plans[0], &sk);
        let mut ctx = QueryContext::new().with_kernel(QueryKernel::Wide);
        let _ = ctx.plan_for(plan_key(0), || plans[0].clone());
        let hot = ctx.plan_for(plan_key(0), || unreachable!("cached"));
        PANIC_IN_NEXT_MEMO_FILL.with(|p| p.set(true));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            estimate(&mut ctx, &hot, &sk)
        }));
        assert!(unwound.is_err(), "the injected panic fired");
        assert!(hot.plan.memo.get().is_none(), "no half-filled memo");
        assert_eq!(ctx.plan_cache_report().memo.fills, 0);
        drop(hot);
        // The plan stays cached; the next hit fills the memo and answers.
        let again = ctx.plan_for(plan_key(0), || unreachable!("still cached"));
        assert_same(&estimate(&mut ctx, &again, &sk), &want, "after panic");
        assert!(again.plan.memo.get().is_some());
        assert_eq!(ctx.plan_cache_report().memo.fills, 1);
    }

    #[test]
    fn blocked_products_bit_match_scalar_oracle() {
        // Cover cells shared across plans and a duplicate inside one list:
        // per-plan products, then the combine, reproduce the oracle's grid.
        let (sk, plans) = synthetic_plans(210, 3);
        let instances = sk.schema().instances();
        let mut sums = BlockSums::new();
        for (q, plan) in plans.iter().enumerate() {
            let mut products = vec![0i64; plan.terms.len() * instances];
            xi_products(plan, sk.schema(), &mut sums, &mut products);
            let mut blocked = vec![0.0f64; instances];
            xi_combine(&plan.terms, &products, &sk, &mut blocked);
            let mut scalar = vec![0.0f64; instances];
            xi_fill_scalar(plan, &sk, &mut scalar);
            for (i, (a, b)) in blocked.iter().zip(&scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "query {q} instance {i}");
            }
        }
    }

    #[test]
    fn zero_estimate_has_grid_shape() {
        // A degenerate query's fill (no plan) zeroes whatever grid the last
        // fill left, and both finishes keep the grid's shape.
        let (sk, plans) = synthetic_plans(224, 1);
        let shape = sk.schema().shape();
        let mut ctx = QueryContext::new();
        let cold = ctx.plan_for(plan_key(0), || plans[0].clone());
        ctx.xi_fill(Some(&cold), &sk);
        ctx.xi_fill::<2>(None, &sk);
        let est = ctx.boost(shape);
        assert_eq!(est.value, 0.0);
        assert_eq!(est.row_means, vec![0.0; shape.k2]);
        let partial = ctx.partial(shape);
        assert_eq!(partial.shape(), shape);
        assert_eq!(partial.atomic(), vec![0.0; shape.instances()]);
    }

    #[test]
    fn plan_cache_hits_refresh_and_evict_lru() {
        let mut ctx = QueryContext::new();
        let key = |i: u64| PlanKey::new(i, PLAN_CLASS_OVERLAP, vec![i, i + 1]);
        let counts = |ctx: &QueryContext| {
            let single = ctx.plan_cache_report().single;
            (single.hits, single.misses)
        };
        // Fill past capacity; every insert is a miss.
        for i in 0..(PLAN_CACHE_CAPACITY as u64 + 4) {
            let _ = ctx.plan_for::<1>(key(i), XiQueryPlan::default);
        }
        assert_eq!(counts(&ctx), (0, PLAN_CACHE_CAPACITY as u64 + 4));
        // The oldest entries were evicted, the newest survive.
        let _ = ctx.plan_for::<1>(key(0), XiQueryPlan::default);
        assert_eq!(counts(&ctx).1, PLAN_CACHE_CAPACITY as u64 + 5);
        let _ = ctx.plan_for::<1>(key(PLAN_CACHE_CAPACITY as u64 + 3), XiQueryPlan::default);
        assert_eq!(counts(&ctx).0, 1);
        // Same coords under a different class or schema are distinct plans.
        let _ = ctx.plan_for::<1>(
            PlanKey::new(7, PLAN_CLASS_STAB, vec![7, 8]),
            XiQueryPlan::default,
        );
        assert_eq!(counts(&ctx), (1, PLAN_CACHE_CAPACITY as u64 + 6));
    }
}
