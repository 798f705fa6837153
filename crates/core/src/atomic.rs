//! Atomic sketch sets: the maintained counters.
//!
//! A [`SketchSet`] holds, for every boosting instance `i` and every word `w`
//! in its word set, the atomic sketch value `X_w^{(i)}` — an integer counter
//! updated by `± Π_dim component(dim)` per inserted/deleted object
//! (Sections 3.1-3.2 of the paper). All instances share one
//! [`SketchSchema`], so sketch sets over the same schema are combinable into
//! join estimates.
//!
//! The hot loop is arranged so that per-object work shared by *all*
//! instances (dyadic covers and the GF(2^k) index cubes) is computed once
//! into a per-object scratch. Two kernels can then apply the scratch to
//! the counters (see [`BuildKernel`]): the scalar reference path walks
//! instances one at a time, while the blocked path evaluates ξ for a whole
//! [`LaneWord`] of 512 instances per operation (bit-sliced seed tables,
//! `fourwise::batch`) and walks the counter array one contiguous
//! instance-block at a time. Both produce bit-identical counters.
//!
//! Both the scratch and the blocked kernels do only what the word set
//! reads: each word multiplies one component per dimension, so a dimension
//! no word reads the lower point cover of (say) never compiles that list
//! and never sums it over an instance block (`DimNeeds`). The range
//! sketches' `{I, U}^D` words read neither the lower point cover nor the
//! leaves; the join sketches' `{I, E}^D` words never read the leaves.

use crate::comp::{Comp, Word};
use crate::error::{Result, SketchError};
use crate::kernel;
use crate::schema::SketchSchema;
use dyadic::{interval_cover_into, point_cover_into};
use fourwise::{IndexPre, LaneCounter, LaneWord};
use geometry::transform::{shrink_interval, triple, triple_interval};
use geometry::{HyperRect, Interval};
use std::cell::RefCell;
use std::sync::Arc;

/// Objects per scratch chunk in [`SketchSet::update_slice`]: bounds scratch
/// memory (a couple of KB per object) while letting one cover computation
/// serve every instance block that streams over the chunk.
const OBJ_CHUNK: usize = 128;

/// Which implementation maintains the counters on insert/delete.
///
/// Both kernels compute the exact same integer counter updates — the
/// scalar path is retained as the differential-test oracle of the blocked
/// one. [`SketchSet::new`] picks [`BuildKernel::Wide`] for every schema
/// (see `sketch::kernel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildKernel {
    /// Per-instance scalar ξ evaluation (the original reference path).
    Scalar,
    /// Bit-sliced evaluation of 512 instances per pass over
    /// [`LaneWord`]-packed seed tables with a cache-blocked
    /// counter walk; a partly filled block folds only its occupied words.
    #[default]
    Wide,
}

/// How object geometry is mapped into the sketch coordinate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointPolicy {
    /// Coordinates are used as-is. Join estimates then require the paper's
    /// Assumption 1 (no endpoint shared between the two relations) unless an
    /// Appendix-C estimator is used.
    Raw,
    /// Coordinates are tripled (`x → 3x`), embedding into the enlarged
    /// domain of Section 5.2. Used for the `R` side of transformed joins.
    Tripled,
    /// Coordinates are tripled and geometric components use the *shrunken*
    /// range `[3l + 1, 3u - 1]`; leaf components keep the tripled original
    /// endpoints (Appendix B.1). Used for the `S` side of transformed joins.
    /// Ranges degenerate in a dimension contribute zero to that dimension's
    /// geometric components.
    TripledShrunk,
}

impl EndpointPolicy {
    /// Extra domain bits this policy needs over the data domain.
    pub fn extra_bits(&self) -> u32 {
        match self {
            EndpointPolicy::Raw => 0,
            EndpointPolicy::Tripled | EndpointPolicy::TripledShrunk => 2,
        }
    }

    /// Maps a data-domain range to (geometric range, leaf endpoint coords).
    fn apply(&self, iv: &Interval) -> (Option<Interval>, u64, u64) {
        match self {
            EndpointPolicy::Raw => (Some(*iv), iv.lo(), iv.hi()),
            EndpointPolicy::Tripled => {
                (Some(triple_interval(iv)), triple(iv.lo()), triple(iv.hi()))
            }
            EndpointPolicy::TripledShrunk => {
                (shrink_interval(iv), triple(iv.lo()), triple(iv.hi()))
            }
        }
    }
}

/// Which component inputs one dimension's words read — the interval cover,
/// the lower and upper point covers (`E` reads both, and their sum) and the
/// leaf signs — derived from the word set: [`SketchSet::fill_scratch`]
/// compiles only these lists and the blocked kernels sum and unpack only
/// these, so a range sketch's `{I, U}` words never pay for the lower point
/// cover or the leaves. The scalar oracle evaluates every component
/// regardless (an uncompiled list sums to zero, and no word reads it).
#[derive(Debug, Clone, Copy, Default)]
struct DimNeeds {
    cover: bool,
    lo: bool,
    hi: bool,
    /// Some word reads `Endpoints`, so blocks sum the `lo + hi` column.
    ends: bool,
    leaf: bool,
}

impl DimNeeds {
    /// Per dimension, the components some word of `words` reads.
    fn of<const D: usize>(words: &[Word<D>]) -> [DimNeeds; D] {
        let mut needs = [DimNeeds::default(); D];
        for w in words {
            for (n, comp) in needs.iter_mut().zip(w.iter()) {
                match comp {
                    Comp::Interval => n.cover = true,
                    Comp::Endpoints => (n.lo, n.hi, n.ends) = (true, true, true),
                    Comp::LowerPoint => n.lo = true,
                    Comp::UpperPoint => n.hi = true,
                    Comp::LowerLeaf | Comp::UpperLeaf => n.leaf = true,
                }
            }
        }
        needs
    }
}

/// Per-dimension precomputed node lists for one object.
#[derive(Debug, Clone)]
struct DimScratch {
    cover: Vec<IndexPre>,
    pcover_lo: Vec<IndexPre>,
    pcover_hi: Vec<IndexPre>,
    leaf_lo: IndexPre,
    leaf_hi: IndexPre,
    geo_present: bool,
    /// The components this scratch carries (the filling sketch's needs).
    needs: DimNeeds,
    /// Reusable node-id buffer (avoids per-update allocation).
    ids: Vec<u64>,
}

/// Shared per-object precomputation: node ids and their GF cubes, one set
/// per dimension, reused across all sketch instances.
#[derive(Debug, Clone)]
struct RectScratch<const D: usize> {
    dims: [DimScratch; D],
}

impl<const D: usize> RectScratch<D> {
    fn new() -> Self {
        Self {
            dims: std::array::from_fn(|_| DimScratch {
                cover: Vec::new(),
                pcover_lo: Vec::new(),
                pcover_hi: Vec::new(),
                leaf_lo: IndexPre { index: 0, cube: 0 },
                leaf_hi: IndexPre { index: 0, cube: 0 },
                geo_present: false,
                needs: DimNeeds::default(),
                ids: Vec::new(),
            }),
        }
    }
}

/// Per-instance, per-dimension component values.
#[derive(Debug, Clone, Copy)]
struct DimVals {
    interval: i64,
    lo: i64,
    hi: i64,
    leaf_lo: i64,
    leaf_hi: i64,
}

impl DimVals {
    #[inline]
    fn get(&self, comp: Comp) -> i64 {
        match comp {
            Comp::Interval => self.interval,
            Comp::Endpoints => self.lo + self.hi,
            Comp::LowerPoint => self.lo,
            Comp::UpperPoint => self.hi,
            Comp::LowerLeaf => self.leaf_lo,
            Comp::UpperLeaf => self.leaf_hi,
        }
    }
}

/// One dimension's component columns for a whole instance block, one lane
/// per instance (the block analogue of `DimVals`). Only the columns some
/// word reads are ever grown and filled; `ends` holds `lo + hi` for the
/// `Endpoints` words.
#[derive(Debug, Default)]
struct DimLanes {
    interval: Vec<i64>,
    lo: Vec<i64>,
    hi: Vec<i64>,
    ends: Vec<i64>,
    leaf_lo: Vec<i64>,
    leaf_hi: Vec<i64>,
}

impl DimLanes {
    /// Grows the columns `needs` names to a full [`LaneWord`] block.
    fn reserve(&mut self, needs: DimNeeds) {
        for (need, col) in [
            (needs.cover, &mut self.interval),
            (needs.lo, &mut self.lo),
            (needs.hi, &mut self.hi),
            (needs.ends, &mut self.ends),
            (needs.leaf, &mut self.leaf_lo),
            (needs.leaf, &mut self.leaf_hi),
        ] {
            if need && col.len() < LaneWord::LANES {
                col.resize(LaneWord::LANES, 0);
            }
        }
    }

    /// The column a word's component in this dimension reads.
    #[inline]
    fn column(&self, comp: Comp) -> &[i64] {
        match comp {
            Comp::Interval => &self.interval,
            Comp::Endpoints => &self.ends,
            Comp::LowerPoint => &self.lo,
            Comp::UpperPoint => &self.hi,
            Comp::LowerLeaf => &self.leaf_lo,
            Comp::UpperLeaf => &self.leaf_hi,
        }
    }
}

/// Working memory of the blocked kernel: one carry-save counter plus
/// per-dimension component columns. One lives per thread
/// ([`LaneScratch::with`]) and serves every sketch that thread ingests
/// into, so a sketch, and every staging clone of it, carries counters only.
#[derive(Debug, Default)]
struct LaneScratch {
    counter: LaneCounter,
    dims: Vec<DimLanes>,
}

thread_local! {
    static LANE_SCRATCH: RefCell<LaneScratch> = RefCell::default();
}

impl LaneScratch {
    /// Runs `walk` with this thread's scratch, its first `D` dimensions'
    /// columns grown to what `needs` names.
    fn with<const D: usize, R>(needs: &[DimNeeds; D], walk: impl FnOnce(&mut Self) -> R) -> R {
        LANE_SCRATCH.with_borrow_mut(|ls| {
            if ls.dims.len() < D {
                ls.dims.resize_with(D, DimLanes::default);
            }
            for (dl, n) in ls.dims.iter_mut().zip(needs) {
                dl.reserve(*n);
            }
            walk(ls)
        })
    }
}

/// A set of atomic sketches (one per word per instance) over one relation.
#[derive(Debug, Clone)]
pub struct SketchSet<const D: usize> {
    schema: Arc<SketchSchema<D>>,
    words: Arc<Vec<Word<D>>>,
    policy: EndpointPolicy,
    data_bits: [u32; D],
    needs: [DimNeeds; D],
    /// Counter layout: `counters[instance * words.len() + word_idx]` —
    /// instance-major, so one instance block's rows are contiguous.
    counters: Vec<i64>,
    /// Net inserted object count (inserts minus deletes).
    len: i64,
    kernel: BuildKernel,
}

impl<const D: usize> SketchSet<D> {
    /// Creates an empty sketch set.
    ///
    /// `words` is the set of atomic sketches to maintain; `policy` maps data
    /// coordinates into the sketch domain. The schema's per-dimension domain
    /// must be large enough for the policy (`data_bits = sketch_bits -
    /// policy.extra_bits()` is the admissible input range).
    ///
    /// The maintenance kernel defaults to [`BuildKernel::Wide`]; override
    /// with [`SketchSet::with_kernel`].
    pub fn new(
        schema: Arc<SketchSchema<D>>,
        words: Arc<Vec<Word<D>>>,
        policy: EndpointPolicy,
    ) -> Self {
        assert!(!words.is_empty(), "sketch sets need at least one word");
        let needs = DimNeeds::of(&words);
        let data_bits = std::array::from_fn(|i| schema.dims()[i].sketch_bits - policy.extra_bits());
        let counters = vec![0i64; schema.instances() * words.len()];
        Self {
            schema,
            words,
            policy,
            data_bits,
            needs,
            counters,
            len: 0,
            kernel: BuildKernel::default(),
        }
    }

    /// Selects the maintenance kernel (builder form).
    pub fn with_kernel(mut self, kernel: BuildKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the maintenance kernel in place. Kernels are interchangeable
    /// at any point: all compute bit-identical counter updates.
    pub fn set_kernel(&mut self, kernel: BuildKernel) {
        self.kernel = kernel;
    }

    /// The active maintenance kernel.
    pub fn kernel(&self) -> BuildKernel {
        self.kernel
    }

    /// The schema this sketch was drawn from.
    pub fn schema(&self) -> &Arc<SketchSchema<D>> {
        &self.schema
    }

    /// The maintained words.
    pub fn words(&self) -> &Arc<Vec<Word<D>>> {
        &self.words
    }

    /// The endpoint policy.
    pub fn policy(&self) -> EndpointPolicy {
        self.policy
    }

    /// Admissible data-domain bits per dimension.
    pub fn data_bits(&self) -> &[u32; D] {
        &self.data_bits
    }

    /// Net number of objects currently summarized.
    pub fn len(&self) -> i64 {
        self.len
    }

    /// Whether no net objects are summarized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw counter of `(instance, word_idx)`.
    pub fn counter(&self, instance: usize, word_idx: usize) -> i64 {
        self.counters[instance * self.words.len() + word_idx]
    }

    /// All counters of one instance, ordered like [`SketchSet::words`].
    pub fn instance_counters(&self, instance: usize) -> &[i64] {
        let w = self.words.len();
        &self.counters[instance * w..(instance + 1) * w]
    }

    /// The full counter array, instance-major (`[instance][word]`) — the
    /// blocked query kernels walk whole instance blocks of it contiguously.
    pub(crate) fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Inserts an object (cost `O(instances · d · log n)`).
    pub fn insert(&mut self, rect: &HyperRect<D>) -> Result<()> {
        self.update(rect, 1)
    }

    /// Deletes a previously inserted object. Sketches are linear, so
    /// deletion is exact: deleting everything inserted returns the sketch to
    /// the all-zero state.
    pub fn delete(&mut self, rect: &HyperRect<D>) -> Result<()> {
        self.update(rect, -1)
    }

    /// Applies a signed update: the slice walk over one object, which never
    /// splits.
    pub fn update(&mut self, rect: &HyperRect<D>, delta: i64) -> Result<()> {
        self.update_slice_on(std::slice::from_ref(rect), delta, 1)
    }

    /// Inserts every rectangle of a slice; see [`SketchSet::update_slice`].
    pub fn insert_slice(&mut self, rects: &[HyperRect<D>]) -> Result<()> {
        self.update_slice(rects, 1)
    }

    /// Deletes every rectangle of a slice; see [`SketchSet::update_slice`].
    pub fn delete_slice(&mut self, rects: &[HyperRect<D>]) -> Result<()> {
        self.update_slice(rects, -1)
    }

    /// Applies one signed update per rectangle, amortizing the per-object
    /// cover computation across the slice: objects are ingested in chunks of
    /// `OBJ_CHUNK` (128) scratches, and (under the blocked kernel) each instance
    /// block streams over a whole chunk before the walk moves to the next
    /// block, so a block's counters and packed seed tables stay cache-hot.
    /// Instance blocks are independent, so a slice of at least
    /// [`kernel::INGEST_SPLIT_FLOOR`] object·instances splits its blocks
    /// across the machine's cores; the counters are the same in any split.
    ///
    /// All rectangles are validated up front — either the whole slice
    /// applies or the sketch is untouched.
    pub fn update_slice(&mut self, rects: &[HyperRect<D>], delta: i64) -> Result<()> {
        self.update_slice_on(rects, delta, kernel::ingest_threads())
    }

    /// The one ingest walk: [`SketchSet::update_slice`] with at most
    /// `threads` workers. The blocked kernel cuts its instance blocks into
    /// `min(threads, blocks)` contiguous spans (one span, so no worker,
    /// below [`kernel::INGEST_SPLIT_FLOOR`]) and opens one thread scope for
    /// the whole slice: the calling thread walks the first span, scoped
    /// workers walk the others, each with its thread's lane scratch, and
    /// every span fills its own chunk scratches. The scalar oracle never
    /// splits.
    pub(crate) fn update_slice_on(
        &mut self,
        rects: &[HyperRect<D>],
        delta: i64,
        threads: usize,
    ) -> Result<()> {
        for r in rects {
            self.validate_rect(r)?;
        }
        let mut counters = std::mem::take(&mut self.counters);
        match self.kernel {
            BuildKernel::Wide => self.walk_spans(rects, delta, threads, &mut counters),
            BuildKernel::Scalar => {
                let (schema, words) = (&*self.schema, &self.words[..]);
                self.for_each_chunk(rects, |chunk| {
                    for (instance, row) in counters.chunks_mut(words.len()).enumerate() {
                        for scratch in chunk {
                            apply_instance(schema, words, scratch, instance, row, delta);
                        }
                    }
                });
            }
        }
        self.counters = counters;
        self.len += delta * rects.len() as i64;
        Ok(())
    }

    /// Cuts the instance blocks into `min(threads, blocks)` contiguous
    /// spans and streams every chunk of `rects` over each span (see
    /// [`SketchSet::update_slice_on`]). Spans hold whole blocks, so lanes
    /// never straddle a worker boundary.
    fn walk_spans(&self, rects: &[HyperRect<D>], delta: i64, threads: usize, counters: &mut [i64]) {
        let blocks = self.schema.instance_blocks();
        let small = rects.len() * self.schema.instances() < kernel::INGEST_SPLIT_FLOOR;
        let spans = if small { 1 } else { threads.clamp(1, blocks) };
        let per_span = blocks.div_ceil(spans);
        let span_len = per_span * LaneWord::LANES * self.words.len();
        let walk = |first: usize, span: &mut [i64]| {
            LaneScratch::with(&self.needs, |lanes| {
                self.for_each_chunk(rects, |chunk| {
                    apply_chunk_blocked(&self.schema, &self.words, chunk, first, lanes, span, delta)
                })
            })
        };
        std::thread::scope(|scope| {
            let (head, mut rest) = counters.split_at_mut(span_len.min(counters.len()));
            for first in (per_span..blocks).step_by(per_span) {
                let (span, tail) = rest.split_at_mut(span_len.min(rest.len()));
                rest = tail;
                scope.spawn(move || walk(first, span));
            }
            walk(0, head);
        });
    }

    /// Fills `rects` (validated) into chunks of up to `OBJ_CHUNK` object
    /// scratches and hands each filled chunk to `apply`.
    fn for_each_chunk(&self, rects: &[HyperRect<D>], mut apply: impl FnMut(&[RectScratch<D>])) {
        let mut scratches: Vec<RectScratch<D>> = (0..OBJ_CHUNK.min(rects.len()))
            .map(|_| RectScratch::new())
            .collect();
        for chunk in rects.chunks(OBJ_CHUNK) {
            for (slot, rect) in scratches.iter_mut().zip(chunk) {
                self.fill_scratch(rect, slot).expect("validated above");
            }
            apply(&scratches[..chunk.len()]);
        }
    }

    /// Checks that an object fits the admissible data domain.
    fn validate_rect(&self, rect: &HyperRect<D>) -> Result<()> {
        for dim in 0..D {
            let iv = rect.range(dim);
            let max = (1u64 << self.data_bits[dim]) - 1;
            if iv.hi() > max {
                return Err(SketchError::DomainOverflow {
                    coord: iv.hi(),
                    max,
                    dim,
                });
            }
        }
        Ok(())
    }

    /// Validates an object and fills the shared per-object scratch.
    fn fill_scratch(&self, rect: &HyperRect<D>, scratch: &mut RectScratch<D>) -> Result<()> {
        self.validate_rect(rect)?;
        for dim in 0..D {
            let iv = rect.range(dim);
            let (geo, leaf_lo, leaf_hi) = self.policy.apply(&iv);
            let ds = &mut scratch.dims[dim];
            let dyadic = &self.schema.dyadic()[dim];
            let ctx = &self.schema.xi_ctx()[dim];
            let max_level = self.schema.dims()[dim].max_level;
            let needs = self.needs[dim];
            ds.needs = needs;
            ds.cover.clear();
            ds.pcover_lo.clear();
            ds.pcover_hi.clear();
            ds.geo_present = geo.is_some();
            if let Some(g) = geo {
                if needs.cover {
                    ds.ids.clear();
                    interval_cover_into(dyadic, &g, max_level, &mut ds.ids);
                    ds.cover.extend(ds.ids.iter().map(|&id| ctx.precompute(id)));
                }
                for (need, coord, list) in [
                    (needs.lo, g.lo(), &mut ds.pcover_lo),
                    (needs.hi, g.hi(), &mut ds.pcover_hi),
                ] {
                    if need {
                        ds.ids.clear();
                        point_cover_into(dyadic, coord, max_level, &mut ds.ids);
                        list.extend(ds.ids.iter().map(|&id| ctx.precompute(id)));
                    }
                }
            }
            if needs.leaf {
                ds.leaf_lo = ctx.precompute(dyadic.leaf(leaf_lo));
                ds.leaf_hi = ctx.precompute(dyadic.leaf(leaf_hi));
            }
        }
        Ok(())
    }

    /// Resets every counter to zero and the net length to `0`, keeping the
    /// schema, words, policy and kernel. A reset sketch is
    /// indistinguishable from a freshly constructed one — the serving layer
    /// reuses one sketch set per worker as a cross-shard merge target
    /// instead of reallocating per query.
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.len = 0;
    }

    /// Folds another sketch set into this one (multiset union). Both must
    /// share schema, words and policy; sketches are linear so the result
    /// summarizes the concatenation of both inputs.
    pub fn merge_from(&mut self, other: &SketchSet<D>) -> Result<()> {
        self.check_mergeable(other)?;
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        self.len += other.len;
        Ok(())
    }

    /// Subtracts another sketch set (multiset difference).
    pub fn unmerge_from(&mut self, other: &SketchSet<D>) -> Result<()> {
        self.check_mergeable(other)?;
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c -= o;
        }
        self.len -= other.len;
        Ok(())
    }

    pub(crate) fn check_mergeable(&self, other: &SketchSet<D>) -> Result<()> {
        if self.schema.id() != other.schema.id() {
            return Err(SketchError::SchemaMismatch);
        }
        if self.words != other.words || self.policy != other.policy {
            return Err(SketchError::WordMismatch);
        }
        Ok(())
    }

    /// Whether `self` and `other` can be multiplied into an estimate
    /// (same schema; word sets may differ).
    pub fn same_schema(&self, other: &SketchSet<D>) -> bool {
        self.schema.id() == other.schema.id()
    }

    /// Index of a word within this sketch's word list.
    pub fn word_index(&self, w: &Word<D>) -> Option<usize> {
        self.words.iter().position(|x| x == w)
    }

    /// Mutable access to the raw counter array, exposed for the parallel
    /// batch builder. Layout: `[instance][word]`.
    pub(crate) fn counters_mut(&mut self) -> &mut Vec<i64> {
        &mut self.counters
    }

    /// Adjusts the net length (parallel builder bookkeeping).
    pub(crate) fn add_len(&mut self, delta: i64) {
        self.len += delta;
    }
}

/// Applies one object's scratch to one instance's counter row.
fn apply_instance<const D: usize>(
    schema: &SketchSchema<D>,
    words: &[Word<D>],
    scratch: &RectScratch<D>,
    instance: usize,
    counter_row: &mut [i64],
    delta: i64,
) {
    let seeds = schema.instance_seeds(instance);
    let mut vals = [DimVals {
        interval: 0,
        lo: 0,
        hi: 0,
        leaf_lo: 0,
        leaf_hi: 0,
    }; D];
    for dim in 0..D {
        let fam = schema.xi_ctx()[dim].family(seeds[dim]);
        let ds = &scratch.dims[dim];
        let v = &mut vals[dim];
        if ds.geo_present {
            v.interval = fam.sum_pre(&ds.cover);
            v.lo = fam.sum_pre(&ds.pcover_lo);
            v.hi = fam.sum_pre(&ds.pcover_hi);
        }
        v.leaf_lo = fam.xi_pre(ds.leaf_lo);
        v.leaf_hi = fam.xi_pre(ds.leaf_hi);
    }
    for (slot, w) in counter_row.iter_mut().zip(words.iter()) {
        let mut prod = delta;
        for dim in 0..D {
            prod *= vals[dim].get(w[dim]);
        }
        *slot += prod;
    }
}

/// Streams a chunk of object scratches over a span of whole instance
/// blocks, starting at block `first`: the cache-blocked walk every blocked
/// ingest runs. `counters` holds exactly the span's rows.
fn apply_chunk_blocked<const D: usize>(
    schema: &SketchSchema<D>,
    words: &[Word<D>],
    scratches: &[RectScratch<D>],
    first: usize,
    lanes: &mut LaneScratch,
    counters: &mut [i64],
    delta: i64,
) {
    for (b, rows) in counters
        .chunks_mut(LaneWord::LANES * words.len())
        .enumerate()
    {
        for (i, scratch) in scratches.iter().enumerate() {
            // Software prefetch: touch the next scratch's streamed node
            // lists while this one is being applied, so its cache lines are
            // resident when the walk gets there.
            if let Some(next) = scratches.get(i + 1) {
                prefetch_scratch(next);
            }
            apply_block(schema, words, scratch, first + b, lanes, rows, delta);
        }
    }
}

/// Portable software prefetch of one object scratch: demand-reads one entry
/// per cache line of every streamed node list (`IndexPre` is 16 bytes, so
/// stride 4 covers 64-byte lines) and anchors the reads behind
/// [`std::hint::black_box`] so they survive optimization. The workspace
/// forbids `unsafe`, which rules out `_mm_prefetch`; an early demand touch
/// of lines the block walk is about to stream is the portable equivalent.
#[inline]
fn prefetch_scratch<const D: usize>(scratch: &RectScratch<D>) {
    const STRIDE: usize = 4;
    let mut acc = 0u64;
    for ds in &scratch.dims {
        for list in [&ds.cover, &ds.pcover_lo, &ds.pcover_hi] {
            let mut i = 0;
            while i < list.len() {
                acc ^= list[i].index;
                i += STRIDE;
            }
        }
    }
    std::hint::black_box(acc);
}

/// Applies one object's scratch to a whole instance block's counter rows.
///
/// `counter_rows` must hold exactly the block's rows (`lanes × words.len()`
/// counters, instance-major). Per dimension, only the columns some word
/// reads ([`DimNeeds`]) are computed for all lanes: each cover list by one
/// bit-sliced pass over its nodes, the leaf signs from one mask each, and
/// the `Endpoints` column as `lo + hi` once per block. Then one pass per
/// word resolves the word's column in every dimension and adds
/// `delta · Π_dim column[lane]` to each lane's counter, multiplying in the
/// scalar oracle's order (delta, then dimension 0, 1, …), so the counters
/// stay bit-identical. The workspace builds for baseline x86-64, whose
/// SSE2 has no packed `i64` multiply, so the products are scalar either
/// way; one fused pass per word saves the memory passes a per-word product
/// buffer would cost.
fn apply_block<const D: usize>(
    schema: &SketchSchema<D>,
    words: &[Word<D>],
    scratch: &RectScratch<D>,
    block: usize,
    ls: &mut LaneScratch,
    counter_rows: &mut [i64],
    delta: i64,
) {
    let lanes = schema.seed_blocks(0)[block].lanes();
    let LaneScratch { counter, dims } = ls;
    for (dim, dl) in dims[..D].iter_mut().enumerate() {
        let xb = &schema.seed_blocks(dim)[block];
        let ds = &scratch.dims[dim];
        let needs = ds.needs;
        for (need, list, out) in [
            (needs.cover, &ds.cover, &mut dl.interval),
            (needs.lo, &ds.pcover_lo, &mut dl.lo),
            (needs.hi, &ds.pcover_hi, &mut dl.hi),
        ] {
            if !need {
                continue;
            }
            if ds.geo_present {
                xb.sum_pre_into(list, counter, out);
            } else {
                out[..lanes].fill(0);
            }
        }
        if needs.ends {
            for ((e, lo), hi) in dl.ends[..lanes].iter_mut().zip(&dl.lo).zip(&dl.hi) {
                *e = lo + hi;
            }
        }
        if needs.leaf {
            let mask_lo = xb.eval_mask(ds.leaf_lo);
            let mask_hi = xb.eval_mask(ds.leaf_hi);
            for j in 0..lanes {
                dl.leaf_lo[j] = 1 - 2 * mask_lo.bit(j) as i64;
                dl.leaf_hi[j] = 1 - 2 * mask_hi.bit(j) as i64;
            }
        }
    }
    let w = words.len();
    debug_assert_eq!(counter_rows.len(), lanes * w);
    for (wi, word) in words.iter().enumerate() {
        let cols: [&[i64]; D] = std::array::from_fn(|dim| &dims[dim].column(word[dim])[..lanes]);
        for (lane, row) in counter_rows.chunks_exact_mut(w).enumerate() {
            row[wi] += cols.iter().fold(delta, |p, col| p * col[lane]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comp::ie_words;
    use crate::schema::{BoostShape, DimSpec};
    use geometry::rect2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema2(seed: u64, k1: usize, k2: usize) -> Arc<SketchSchema<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        SketchSchema::new(&mut rng, BoostShape::new(k1, k2), [DimSpec::dyadic(8); 2])
    }

    #[test]
    fn insert_then_delete_returns_to_zero() {
        let schema = schema2(1, 3, 3);
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        let rects = [
            rect2(1, 10, 2, 20),
            rect2(0, 255, 0, 255),
            rect2(7, 9, 200, 201),
        ];
        for r in &rects {
            sk.insert(r).unwrap();
        }
        assert_eq!(sk.len(), 3);
        assert!(sk.counters.iter().any(|&c| c != 0));
        for r in &rects {
            sk.delete(r).unwrap();
        }
        assert_eq!(sk.len(), 0);
        assert!(sk.counters.iter().all(|&c| c == 0));
    }

    #[test]
    fn domain_overflow_rejected_and_sketch_unchanged() {
        let schema = schema2(2, 2, 2);
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        let err = sk.insert(&rect2(0, 300, 0, 10)).unwrap_err();
        assert!(matches!(err, SketchError::DomainOverflow { dim: 0, .. }));
        assert_eq!(sk.len(), 0);
        assert!(sk.counters.iter().all(|&c| c == 0));
    }

    #[test]
    fn tripled_policies_shrink_admissible_domain() {
        let schema = schema2(3, 1, 1);
        let words = Arc::new(ie_words::<2>());
        let sk = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Tripled);
        assert_eq!(sk.data_bits(), &[6, 6]);
        let mut sk = sk;
        // 63 is the max admissible coordinate now.
        sk.insert(&rect2(0, 63, 0, 63)).unwrap();
        assert!(sk.insert(&rect2(0, 64, 0, 1)).is_err());
    }

    #[test]
    fn deterministic_across_equal_schemas() {
        // Same seed -> same schema RNG -> identical counters.
        let a = {
            let schema = schema2(7, 2, 3);
            let mut sk = SketchSet::new(schema, Arc::new(ie_words::<2>()), EndpointPolicy::Raw);
            sk.insert(&rect2(3, 99, 14, 200)).unwrap();
            sk.counters.clone()
        };
        let b = {
            let schema = schema2(7, 2, 3);
            let mut sk = SketchSet::new(schema, Arc::new(ie_words::<2>()), EndpointPolicy::Raw);
            sk.insert(&rect2(3, 99, 14, 200)).unwrap();
            sk.counters.clone()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_linear() {
        let schema = schema2(9, 2, 2);
        let words = Arc::new(ie_words::<2>());
        let mut all = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        let mut part1 = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        let mut part2 = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        let rs = [
            rect2(0, 5, 0, 5),
            rect2(10, 30, 10, 30),
            rect2(4, 200, 90, 110),
        ];
        all.insert(&rs[0]).unwrap();
        all.insert(&rs[1]).unwrap();
        all.insert(&rs[2]).unwrap();
        part1.insert(&rs[0]).unwrap();
        part2.insert(&rs[1]).unwrap();
        part2.insert(&rs[2]).unwrap();
        part1.merge_from(&part2).unwrap();
        assert_eq!(part1.counters, all.counters);
        assert_eq!(part1.len(), 3);
        part1.unmerge_from(&part2).unwrap();
        part1
            .unmerge_from(&{
                let mut s = SketchSet::new(schema, words, EndpointPolicy::Raw);
                s.insert(&rs[0]).unwrap();
                s
            })
            .unwrap();
        assert!(part1.counters.iter().all(|&c| c == 0));
    }

    #[test]
    fn merge_rejects_different_schema() {
        let words = Arc::new(ie_words::<2>());
        let schema = schema2(1, 2, 2);
        let mut a = SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        a.insert(&rect2(3, 40, 5, 9)).unwrap();
        let before = a.counters.clone();
        let b = SketchSet::new(schema2(2, 2, 2), words.clone(), EndpointPolicy::Raw);
        assert_eq!(a.merge_from(&b).unwrap_err(), SketchError::SchemaMismatch);
        // Foreign words or a foreign policy are rejected too, and a rejected
        // merge leaves the target untouched.
        let c = SketchSet::new(schema.clone(), words, EndpointPolicy::Tripled);
        assert_eq!(a.merge_from(&c).unwrap_err(), SketchError::WordMismatch);
        let d = SketchSet::new(
            schema,
            Arc::new(vec![[Comp::Interval; 2]]),
            EndpointPolicy::Raw,
        );
        assert_eq!(a.merge_from(&d).unwrap_err(), SketchError::WordMismatch);
        assert_eq!(a.counters, before);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn reset_returns_a_merge_target_to_fresh() {
        // The serving layer folds shard counters into one reused view:
        // after a reset the view is indistinguishable from a fresh sketch
        // and refolds to the same counters.
        let schema = schema2(5, 67, 3); // straddles a lane-word boundary
        let words = Arc::new(ie_words::<2>());
        let mk = || SketchSet::new(schema.clone(), words.clone(), EndpointPolicy::Raw);
        let mut parts = [mk(), mk()];
        for (i, x) in (0..40u64).enumerate() {
            parts[i % 2]
                .insert(&rect2(x, x + 30, 2 * x, 2 * x + 7))
                .unwrap();
        }
        let mut view = mk();
        for p in &parts {
            view.merge_from(p).unwrap();
        }
        let folded = view.counters.clone();
        view.reset();
        assert!(view.is_empty());
        assert_eq!(view.counters, mk().counters);
        for p in &parts {
            view.merge_from(p).unwrap();
        }
        assert_eq!(view.counters, folded);
        assert_eq!(view.len(), 40);
    }

    #[test]
    fn shrunk_policy_drops_degenerate_geometry_but_keeps_leaves() {
        let schema = schema2(11, 1, 1);
        // One word reading geometry, one reading leaves.
        let words = Arc::new(vec![
            [Comp::Interval, Comp::Interval],
            [Comp::LowerLeaf, Comp::LowerLeaf],
        ]);
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::TripledShrunk);
        // Degenerate in dim 0: geometric word contributes 0, leaf word +-1.
        sk.insert(&rect2(5, 5, 1, 9)).unwrap();
        assert_eq!(sk.counter(0, 0), 0);
        assert_ne!(sk.counter(0, 1), 0);
    }

    #[test]
    fn counter_magnitude_bounded_by_cover_sizes() {
        let schema = schema2(13, 1, 1);
        let words = Arc::new(ie_words::<2>());
        let mut sk = SketchSet::new(schema, words, EndpointPolicy::Raw);
        sk.insert(&rect2(0, 255, 0, 255)).unwrap();
        // Per dim: |I| <= 2*8 = 16 cover nodes, |E| <= 2*(8+1).
        for (i, w) in ie_words::<2>().iter().enumerate() {
            let bound: i64 = w
                .iter()
                .map(|c| match c {
                    Comp::Endpoints => 18i64,
                    _ => 16i64,
                })
                .product();
            assert!(sk.counter(0, i).abs() <= bound, "word {i}");
        }
    }
}
