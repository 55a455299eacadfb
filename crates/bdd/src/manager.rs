//! The shared ROBDD manager: node pool, unique table, memoized ITE,
//! mark-and-sweep garbage collection.
//!
//! Design notes, for readers coming from the textbook presentation:
//!
//! * **Complement edges** (Brace–Rudell–Bryant): an [`Edge`] is a node
//!   index plus a complement bit, so negation is free and `f`/`¬f` share
//!   every node. Canonical form: the *high* (then) edge of a stored node
//!   is never complemented; [`Bdd::mk`] re-roots and complements the
//!   result edge when it would be.
//! * **Variables are levels**: the manager orders variables by their
//!   index, so variable `0` is always the root level. Callers pick the
//!   ordering by deciding which circuit input each manager variable
//!   stands for (see [`crate::order`]).
//! * **One terminal**: node `0` is the constant `1`; `0` is its
//!   complement. The terminal's `var` is [`TERMINAL_VAR`], which sorts
//!   below every real level.
//! * **Node pool**: nodes live in a struct-of-arrays pool (`vars` /
//!   `lows` / `highs`, each a flat `Vec<u32>`), indexed by the edge's
//!   node index. Dead slots are threaded into a free list (next pointer
//!   stored in `lows`) and recycled by the allocator, so a long build
//!   touches a working set near its *live* size, not its allocation
//!   total.
//! * **Unique table**: a custom open-addressed hash table (power-of-two
//!   capacity, multiplicative hashing, linear probing, no tombstones).
//!   Slots store only the node index; key comparison reads the pool, so
//!   the table is rebuilt — never patched — whenever pool contents
//!   change wholesale (garbage collection, level swaps).
//! * **Operation caches**: ITE, restrict and Boolean-difference results
//!   go through direct-mapped caches — lossy by design, no allocation
//!   per operation — that start small and double with the node pool up
//!   to a fixed cap. [`Bdd::cache_stats`] exposes the hit counters that
//!   EXPERIMENTS.md reports.
//! * **Garbage collection**: mark-and-sweep from the *registered roots*
//!   ([`Bdd::protect`]). Collection never runs behind the caller's back:
//!   it happens only in [`Bdd::gc`] and [`Bdd::maybe_gc`], which callers
//!   (the whole-circuit engine in [`crate::circuit`]) invoke at safe
//!   points where every edge they still need is protected; `maybe_gc`
//!   fires once the live count crosses an adaptive trigger (a multiple
//!   of the last collection's survivor count, floored at the
//!   configurable threshold). A collection recycles dead nodes into the
//!   free list, rebuilds the unique table and clears the operation
//!   caches (whose entries may reference recycled indices). **Any
//!   unprotected edge is invalidated by a collection.**
//! * **Node budget**: [`BddError::NodeLimit`] now fires on the *live*
//!   node count (allocated minus recycled), not the historical
//!   allocation total — dead intermediates that a collection can reclaim
//!   no longer count against the budget.

use std::fmt;
use tr_boolean::govern::{Governor, Interrupted};

/// Level assigned to the terminal node: sorts after every real variable.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Level marking a pool slot as free (on the free list, awaiting reuse).
const FREE_VAR: u32 = u32::MAX - 1;

/// Sentinel for "no index" in the free list and unique table.
const NIL: u32 = u32::MAX;

/// Unique-table capacity floor (slots).
const MIN_TABLE_CAPACITY: usize = 1 << 10;

/// Direct-mapped cache size bounds (entries). The caches start at the
/// minimum and double as the node pool grows (a 6-gate circuit must not
/// pay a 20-MB memset; `mult8`-scale managers want every slot), capped
/// at the maximum. The ITE cache carries the bulk of the memoization
/// traffic; restrict feeds the Boolean-difference loop; the difference
/// cache holds only top-level `(f, var)` results.
const ITE_CACHE_MIN: usize = 1 << 12;
const ITE_CACHE_MAX: usize = 1 << 20;
const RESTRICT_CACHE_MIN: usize = 1 << 11;
const RESTRICT_CACHE_MAX: usize = 1 << 19;
const DIFF_CACHE_MIN: usize = 1 << 10;
const DIFF_CACHE_MAX: usize = 1 << 16;

/// Default live-node floor below which [`Bdd::maybe_gc`] never collects.
/// Collecting clears the operation caches (their entries may reference
/// recycled indices), so eager collection trades cache hits for memory;
/// two-million-node pools (~24 MB) are cheap enough to let garbage ride
/// until the working set is genuinely large.
pub const DEFAULT_GC_THRESHOLD: usize = 1 << 21;

/// After a collection the next one arms at this multiple of the
/// surviving live count (floored at the threshold): garbage must
/// dominate the pool again before another cache-clearing sweep pays.
const GC_GROWTH_FACTOR: usize = 4;

/// Floor for [`apportioned_gc_threshold`]: even with hundreds of
/// coexisting engines, collecting below ~16k live nodes costs more in
/// cleared caches than it recovers in memory.
const APPORTIONED_GC_FLOOR: usize = 1 << 14;

/// The GC threshold each of `engines` concurrently live managers should
/// use so their *combined* uncollected garbage stays near one
/// [`DEFAULT_GC_THRESHOLD`], instead of `engines` times it.
///
/// The default threshold assumes one manager owns the process: two
/// million nodes (~24 MB) of garbage are allowed to ride before the
/// first cache-clearing sweep. A partitioned statistics pass runs one
/// manager per pool worker — with N workers at the default floor the
/// fleet could hold N×2M dead nodes before any engine collects. Callers
/// that know how many engines coexist divide the budget here (floored,
/// so tiny shares don't thrash the operation caches).
pub fn apportioned_gc_threshold(engines: usize) -> usize {
    (DEFAULT_GC_THRESHOLD / engines.max(1)).max(APPORTIONED_GC_FLOOR)
}

/// Errors from BDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The *live* node count reached the configured limit; the function
    /// being built is too large under the current variable ordering even
    /// after garbage collection.
    NodeLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The manager's [`Governor`] tripped (cancellation, deadline or a
    /// deterministic work-limit trip point) mid-operation. The pool and
    /// unique table stay consistent — protected roots are untouched and
    /// any half-built intermediates are ordinary garbage for the next
    /// collection — so the manager remains fully usable.
    ///
    /// Boxed so the error variant does not widen `Result<Edge, BddError>`
    /// on the ITE hot path (a fat error would push every recursive
    /// return through memory).
    Interrupted(Box<Interrupted>),
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit } => {
                write!(f, "BDD node limit of {limit} live nodes exceeded")
            }
            BddError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for BddError {}

impl From<Interrupted> for BddError {
    fn from(i: Interrupted) -> Self {
        BddError::Interrupted(Box::new(i))
    }
}

/// Zero-sized "the governor tripped" marker used inside the density
/// walk's recursion, so its `Result<f64, Tripped>` stays two machine
/// words and returns in registers. Converted to the full
/// [`BddError::Interrupted`] at the walk's public entry point.
struct Tripped;

/// A reference to a BDD function: node index plus complement bit.
///
/// Copyable and 4 bytes; negation ([`Edge::complement`]) costs one XOR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(u32);

impl Edge {
    /// The constant-true function.
    pub const ONE: Edge = Edge(0);
    /// The constant-false function (complement of the terminal).
    pub const ZERO: Edge = Edge(1);

    #[inline]
    fn new(index: u32, complemented: bool) -> Self {
        Edge(index << 1 | u32::from(complemented))
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    #[inline]
    pub(crate) fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// `¬f`, for free.
    #[inline]
    #[must_use]
    pub fn complement(self) -> Self {
        Edge(self.0 ^ 1)
    }

    /// Whether this is one of the two constant functions.
    pub fn is_constant(self) -> bool {
        self.index() == 0
    }

    /// The raw key used in cache tables.
    #[inline]
    fn key(self) -> u32 {
        self.0
    }
}

/// Cache hit/lookup counters, exposed for EXPERIMENTS.md and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// ITE cache probes.
    pub ite_lookups: u64,
    /// ITE cache probes that hit.
    pub ite_hits: u64,
    /// Restrict/Boolean-difference cache probes.
    pub restrict_lookups: u64,
    /// Restrict/Boolean-difference cache probes that hit.
    pub restrict_hits: u64,
}

impl CacheStats {
    /// Combined hit fraction over both op caches (0 when nothing was
    /// probed) — the headline number for the report's `perf` block.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.ite_lookups + self.restrict_lookups;
        if lookups == 0 {
            0.0
        } else {
            (self.ite_hits + self.restrict_hits) as f64 / lookups as f64
        }
    }
}

/// Garbage-collection counters ([`Bdd::gc_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Completed mark-and-sweep collections.
    pub runs: u64,
    /// Nodes recycled onto the free list, summed over all collections.
    pub freed: u64,
    /// High-water mark of the live node count.
    pub peak_live: usize,
}

/// One coherent snapshot of the engine's health ([`Bdd::engine_stats`]):
/// the op-cache and GC counters that previously had to be read through
/// two separate calls (and could drift between them), plus the live and
/// all-time node counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Op-cache hit/lookup counters.
    pub caches: CacheStats,
    /// Collection counters, including the live-node high-water mark.
    pub gc: GcStats,
    /// Live nodes right now (allocated minus recycled, incl. terminal).
    pub live: usize,
    /// All-time allocation count (recycled slots count once per reuse).
    pub allocated_total: u64,
}

/// GC-epoch tracker shared by every external memo keyed on node indices
/// ([`DensityScratch`], [`ProbScratch`]): a collection recycles indices,
/// so any memoized value may alias a different node afterwards.
#[derive(Debug, Clone, Copy, Default)]
struct GcEpoch {
    runs: u64,
}

impl GcEpoch {
    /// Catches up with the manager's collection count; returns whether a
    /// collection has run since the previous call (= the memo is stale).
    fn stale(&mut self, bdd: &Bdd) -> bool {
        if self.runs == bdd.gc.runs {
            false
        } else {
            self.runs = bdd.gc.runs;
            true
        }
    }
}

/// Direct-mapped ITE cache entry (`a == NIL` marks an empty slot).
#[derive(Clone, Copy)]
struct Ite4 {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
}

const ITE4_EMPTY: Ite4 = Ite4 {
    a: NIL,
    b: 0,
    c: 0,
    r: 0,
};

/// Direct-mapped restrict/difference cache entry (`f == NIL` is empty;
/// `k` packs `var << 1 | val` for restrict and plain `var` for the
/// difference cache).
#[derive(Clone, Copy)]
struct Memo2 {
    f: u32,
    k: u32,
    r: u32,
}

const MEMO2_EMPTY: Memo2 = Memo2 { f: NIL, k: 0, r: 0 };

/// Multiplicative triple hash for the unique table and op caches: three
/// odd-constant multiplies folded with a final avalanche, so power-of-two
/// masking sees well-mixed high bits. No SipHash, no allocation.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> usize {
    let h = (u64::from(a)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(b)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (u64::from(c)).wrapping_mul(0x1656_67B1_9E37_79F9);
    let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (h >> 32) as usize
}

/// Epoch-stamped visited set over the node pool, for traversals that
/// repeat across many roots ([`Bdd::support_into`]). Bumping the epoch
/// invalidates every mark in O(1) — no per-call memset of a pool-sized
/// bitmap, which dominated the statistics pass on large managers.
#[derive(Debug, Clone, Default)]
pub struct VisitScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl VisitScratch {
    /// Empty scratch; storage grows to the pool size on first use.
    pub fn new() -> Self {
        VisitScratch::default()
    }

    /// Starts a fresh traversal over a pool of `n` slots.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
    }

    /// Marks `idx`; returns whether this was the first visit.
    #[inline]
    fn visit(&mut self, idx: usize) -> bool {
        if self.stamp[idx] == self.epoch {
            false
        } else {
            self.stamp[idx] = self.epoch;
            true
        }
    }
}

/// Direct-mapped probability-memo entry for [`DensityScratch`]
/// (`a == NIL` marks an empty slot).
#[derive(Clone, Copy)]
struct PairP {
    a: u32,
    b: u32,
    p: f64,
}

const PAIRP_EMPTY: PairP = PairP {
    a: NIL,
    b: 0,
    p: 0.0,
};

/// Memo size bounds for [`Bdd::difference_probability`] (sized to the
/// manager's pool on first use, like the op caches): the XOR-pair memo
/// walks the product of two cofactor graphs, the descent memo one
/// `(node, variable)` pair per level above the differenced variable.
const XOR_MEMO_MIN: usize = 1 << 10;
const XOR_MEMO_MAX: usize = 1 << 18;
const DIFF_MEMO_MIN: usize = 1 << 10;
const DIFF_MEMO_MAX: usize = 1 << 17;

/// Reusable scratch for [`Bdd::difference_probability`]: two
/// direct-mapped probability memos (lossy, fixed-size, no allocation
/// per query).
///
/// Values stay valid across calls **only** for an identical probability
/// vector; call [`DensityScratch::reset`] when the probabilities
/// change. A garbage collection in the manager invalidates the scratch
/// automatically (recycled node indices would otherwise alias stale
/// entries).
#[derive(Clone)]
pub struct DensityScratch {
    xor_memo: Vec<PairP>,
    diff_memo: Vec<PairP>,
    epoch: GcEpoch,
}

impl fmt::Debug for DensityScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DensityScratch").finish_non_exhaustive()
    }
}

impl Default for DensityScratch {
    fn default() -> Self {
        DensityScratch::new()
    }
}

impl DensityScratch {
    /// Empty scratch; the memos are sized to the manager's pool on
    /// first use.
    pub fn new() -> Self {
        DensityScratch {
            xor_memo: Vec::new(),
            diff_memo: Vec::new(),
            epoch: GcEpoch::default(),
        }
    }

    /// Drops all memoized values (required when the probability vector
    /// changes between calls).
    pub fn reset(&mut self) {
        self.xor_memo.fill(PAIRP_EMPTY);
        self.diff_memo.fill(PAIRP_EMPTY);
    }

    /// Sizes the memos for `bdd`'s pool (growing only, pow-2, clamped)
    /// and invalidates the scratch if the manager has collected since
    /// the last call.
    fn prepare(&mut self, bdd: &Bdd) {
        if self.epoch.stale(bdd) {
            self.reset();
        }
        let pool = bdd.vars.len();
        let xor_want = (pool * 2)
            .next_power_of_two()
            .clamp(XOR_MEMO_MIN, XOR_MEMO_MAX);
        if self.xor_memo.len() < xor_want {
            self.xor_memo = vec![PAIRP_EMPTY; xor_want];
        }
        let diff_want = pool.next_power_of_two().clamp(DIFF_MEMO_MIN, DIFF_MEMO_MAX);
        if self.diff_memo.len() < diff_want {
            self.diff_memo = vec![PAIRP_EMPTY; diff_want];
        }
    }
}

/// Reusable scratch for [`Bdd::probability`]: per-node probabilities in
/// a flat, epoch-stamped array instead of a fresh `HashMap` per call
/// (mirroring `tr_reorder`'s `Scratch` pattern).
///
/// Values stay valid across calls **only** for an identical probability
/// vector; call [`ProbScratch::reset`] when the probabilities change. A
/// garbage collection in the manager invalidates the scratch
/// automatically (recycled node indices would otherwise alias stale
/// entries).
#[derive(Debug, Clone, Default)]
pub struct ProbScratch {
    values: Vec<f64>,
    stamp: Vec<u32>,
    stamp_epoch: u32,
    epoch: GcEpoch,
}

impl ProbScratch {
    /// Empty scratch; storage grows to the pool size on first use.
    pub fn new() -> Self {
        ProbScratch {
            values: Vec::new(),
            stamp: Vec::new(),
            stamp_epoch: 1,
            epoch: GcEpoch::default(),
        }
    }

    /// Drops all memoized values (required when the probability vector
    /// changes between calls).
    pub fn reset(&mut self) {
        self.stamp_epoch = self.stamp_epoch.wrapping_add(1);
        if self.stamp_epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            self.stamp.fill(0);
            self.stamp_epoch = 1;
        }
    }

    /// Sizes the scratch for `bdd`'s pool and invalidates it if the
    /// manager has collected since the last call.
    fn prepare(&mut self, bdd: &Bdd) {
        if self.epoch.stale(bdd) {
            self.reset();
        }
        let n = bdd.vars.len();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.values.resize(n, 0.0);
        }
    }
}

/// A reduced-ordered BDD manager with complement edges, recycled nodes
/// and a mark-and-sweep collector.
///
/// # Example
///
/// ```
/// use tr_bdd::{Bdd, Edge};
///
/// let mut bdd = Bdd::new(2);
/// let a = bdd.var(0);
/// let b = bdd.var(1);
/// let f = bdd.and(a, b).unwrap();
/// assert_eq!(bdd.eval(f, &[true, true]), true);
/// assert_eq!(bdd.eval(f, &[true, false]), false);
/// // Complementation is free and canonical:
/// let g = bdd.or(a.complement(), b.complement()).unwrap();
/// assert_eq!(g, f.complement());
/// ```
#[derive(Clone)]
pub struct Bdd {
    /// Node levels; `TERMINAL_VAR` for the terminal, `FREE_VAR` for
    /// recycled slots.
    vars: Vec<u32>,
    /// Low (else) edges, raw bits; next-free index for recycled slots.
    lows: Vec<u32>,
    /// High (then) edges, raw bits — never complemented.
    highs: Vec<u32>,
    /// Head of the free list (`NIL` when empty).
    free_head: u32,
    /// Open-addressed unique table: node indices, `NIL` marks empty.
    table: Vec<u32>,
    table_mask: usize,
    table_occupied: usize,
    ite_cache: Vec<Ite4>,
    restrict_cache: Vec<Memo2>,
    diff_cache: Vec<Memo2>,
    /// External roots for mark-and-sweep (see [`Bdd::protect`]).
    roots: Vec<Edge>,
    /// Mark bitmap scratch reused across collections.
    mark: Vec<bool>,
    n_vars: usize,
    node_limit: usize,
    /// Live nodes: allocated minus recycled (includes the terminal).
    live: usize,
    /// All-time allocation count (each free-list reuse counts again).
    total_allocated: u64,
    /// Level swaps leave ordering-dependent cache entries behind; the
    /// next operation that would read them clears lazily (so a sifting
    /// pass of hundreds of swaps pays one clear, not hundreds).
    caches_stale: bool,
    /// Live-count floor below which [`Bdd::maybe_gc`] stays idle.
    gc_threshold: usize,
    /// Live count that arms the next threshold-triggered collection.
    next_gc: usize,
    stats: CacheStats,
    gc: GcStats,
    /// Optional cooperative-cancellation governor, consulted (amortized)
    /// on every node get-or-create and every probability-walk visit.
    governor: Option<Governor>,
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("n_vars", &self.n_vars)
            .field("live", &self.live)
            .field("total_allocated", &self.total_allocated)
            .field("node_limit", &self.node_limit)
            .field("roots", &self.roots.len())
            .field("gc", &self.gc)
            .finish_non_exhaustive()
    }
}

/// Default node limit: generous for the benchmark suite (the largest
/// circuits peak in the hundreds of thousands of live nodes) while
/// bounding memory to well under a gigabyte in the worst case. The limit
/// counts **live** nodes; garbage awaiting collection is free.
pub const DEFAULT_NODE_LIMIT: usize = 8_000_000;

impl Bdd {
    /// A manager over `n_vars` variables with the default node limit.
    pub fn new(n_vars: usize) -> Self {
        Bdd::with_node_limit(n_vars, DEFAULT_NODE_LIMIT)
    }

    /// A manager with an explicit node limit (construction returns
    /// [`BddError::NodeLimit`] once the *live* node count reaches it).
    pub fn with_node_limit(n_vars: usize, node_limit: usize) -> Self {
        Bdd {
            vars: vec![TERMINAL_VAR],
            lows: vec![Edge::ONE.key()],
            highs: vec![Edge::ONE.key()],
            free_head: NIL,
            table: vec![NIL; MIN_TABLE_CAPACITY],
            table_mask: MIN_TABLE_CAPACITY - 1,
            table_occupied: 0,
            ite_cache: vec![ITE4_EMPTY; ITE_CACHE_MIN],
            restrict_cache: vec![MEMO2_EMPTY; RESTRICT_CACHE_MIN],
            diff_cache: vec![MEMO2_EMPTY; DIFF_CACHE_MIN],
            roots: Vec::new(),
            mark: Vec::new(),
            n_vars,
            node_limit,
            live: 1,
            total_allocated: 1,
            caches_stale: false,
            gc_threshold: DEFAULT_GC_THRESHOLD,
            next_gc: DEFAULT_GC_THRESHOLD,
            stats: CacheStats::default(),
            gc: GcStats {
                runs: 0,
                freed: 0,
                peak_live: 1,
            },
            governor: None,
        }
    }

    /// Attaches (or detaches, with `None`) a cooperative [`Governor`]:
    /// subsequent node creation and probability walks check it every
    /// ~4k operations and return [`BddError::Interrupted`] once it
    /// trips. Interruption never corrupts the manager — see
    /// [`BddError::Interrupted`].
    pub fn set_governor(&mut self, governor: Option<Governor>) {
        self.governor = governor;
    }

    /// The attached governor, if any.
    pub fn governor(&self) -> Option<&Governor> {
        self.governor.as_ref()
    }

    /// Amortized governor check, tagged with the BDD phase.
    #[inline]
    fn govern_check(&self) -> Result<(), BddError> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.check("bdd").map_err(BddError::from),
        }
    }

    /// Amortized governor check for the density walk's hot recursion:
    /// the error is a zero-sized marker so `Result<f64, Tripped>` still
    /// returns in registers; [`Bdd::trip_error`] rebuilds the real
    /// [`Interrupted`] at the walk's entry point.
    #[inline]
    fn govern_poll(&self) -> Result<(), Tripped> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.check("bdd").map_err(|_| Tripped),
        }
    }

    /// Materializes the [`BddError::Interrupted`] a [`Tripped`] marker
    /// stands for. Every trip condition is monotone (a cancelled token
    /// stays cancelled, a passed deadline stays passed, the work counter
    /// only grows), so re-consulting the governor reproduces the trip.
    fn trip_error(&self) -> BddError {
        match self.governor.as_ref().map(|g| g.check_now("bdd")) {
            Some(Err(i)) => BddError::from(i),
            _ => unreachable!("density walk aborted without a tripped governor"),
        }
    }

    /// Number of variables in the ordering.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Live nodes currently in the store (allocated minus recycled,
    /// including the terminal).
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// All-time allocation count (recycled slots count once per reuse) —
    /// together with [`Bdd::node_count`] this tells the garbage story.
    pub fn allocated_total(&self) -> u64 {
        self.total_allocated
    }

    /// Cache hit/lookup counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Garbage-collection counters so far.
    pub fn gc_stats(&self) -> GcStats {
        self.gc
    }

    /// One coherent snapshot of caches, GC counters, peak and current
    /// live nodes — prefer this over separate [`Bdd::cache_stats`] /
    /// [`Bdd::gc_stats`] / [`Bdd::node_count`] calls, which can drift
    /// apart when operations run in between.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            caches: self.stats,
            gc: self.gc,
            live: self.live,
            allocated_total: self.total_allocated,
        }
    }

    /// Registers `e` as a root: it and everything reachable from it
    /// survive garbage collection. Roots accumulate for the manager's
    /// lifetime (the whole-circuit engine registers one per net).
    pub fn protect(&mut self, e: Edge) {
        self.roots.push(e);
    }

    /// Removes one occurrence of `e` from the root set (the reverse of
    /// [`Bdd::protect`]), so incremental rebuilds can release a replaced
    /// net's edge without leaking it across the manager's lifetime.
    /// Returns whether an occurrence was found; duplicate registrations
    /// (two nets sharing one hash-consed function) are removed one at a
    /// time, matching their one-`protect`-per-net registration.
    pub fn unprotect(&mut self, e: Edge) -> bool {
        if let Some(i) = self.roots.iter().position(|&r| r == e) {
            self.roots.swap_remove(i);
            true
        } else {
            debug_assert!(
                false,
                "unprotect without a matching protect: {e:?} is not a registered root \
                 (a protect/unprotect imbalance leaks roots or frees live nodes)"
            );
            false
        }
    }

    /// Number of registered roots (one per [`Bdd::protect`] not yet
    /// reversed by [`Bdd::unprotect`]) — lets incremental users assert
    /// their protect/unprotect bookkeeping stays balanced.
    pub fn protected_count(&self) -> usize {
        self.roots.len()
    }

    /// Sets the live-count floor below which [`Bdd::maybe_gc`] never
    /// collects, and re-arms the trigger against it: raising the floor
    /// postpones the next collection, lowering it to the current live
    /// count (or below) makes the next safe point collect. Tiny values
    /// force frequent collections (useful for stress-testing GC
    /// transparency); the default is [`DEFAULT_GC_THRESHOLD`].
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = threshold.max(1);
        self.next_gc = self.gc_threshold.max(self.live);
    }

    /// Replaces the live-node budget for subsequent construction.
    /// Lowering it below the current live count does not free anything;
    /// the next allocation that finds `live >= limit` fails.
    pub fn set_node_limit(&mut self, node_limit: usize) {
        self.node_limit = node_limit;
    }

    /// Returns the manager to its just-constructed state over `n_vars`
    /// variables **without deallocating**: the node pool, unique table,
    /// operation caches and mark bitmap all keep their grown capacity, so
    /// a pool worker can evaluate hundreds of regions through one engine
    /// with zero steady-state allocation (the same pattern as the
    /// optimizer's caller-owned `Scratch`).
    ///
    /// Every previously returned [`Edge`] is invalidated, all roots are
    /// dropped, and the GC epoch advances so caller-held [`ProbScratch`]/
    /// [`DensityScratch`] values self-invalidate on their next use.
    /// Cache/GC *counters* keep accumulating across resets (they tell the
    /// engine's whole-lifetime story); the governor stays attached.
    pub fn reset(&mut self, n_vars: usize) {
        self.vars.truncate(1);
        self.lows.truncate(1);
        self.highs.truncate(1);
        self.free_head = NIL;
        // Keep the grown table: re-filling in place beats reallocating,
        // and an over-sized table only lowers the load factor.
        self.table.fill(NIL);
        self.table_occupied = 0;
        self.ite_cache.fill(ITE4_EMPTY);
        self.restrict_cache.fill(MEMO2_EMPTY);
        self.diff_cache.fill(MEMO2_EMPTY);
        self.roots.clear();
        self.live = 1;
        self.caches_stale = false;
        self.next_gc = self.gc_threshold;
        self.n_vars = n_vars;
        // Advance the GC epoch: external scratches key their memoized
        // node values to it, and every node index they memoized is now
        // dangling.
        self.gc.runs += 1;
    }

    /// Collects garbage if the growth policy asks for it: the live
    /// count crossing the adaptive trigger (four times the live size
    /// after the previous collection, floored at the configured
    /// threshold). Returns whether a collection ran.
    ///
    /// Call only at safe points: **every** edge still needed must be
    /// reachable from a [`Bdd::protect`]-registered root.
    pub fn maybe_gc(&mut self) -> bool {
        if self.live >= self.next_gc {
            self.gc();
            return true;
        }
        false
    }

    /// Unconditional mark-and-sweep collection from the registered
    /// roots. Recycles every unreachable node onto the free list,
    /// rebuilds the unique table and clears the operation caches.
    /// Returns the number of nodes freed.
    ///
    /// **Every unprotected edge is invalidated** — only call when all
    /// live references are registered roots (or reachable from one).
    pub fn gc(&mut self) -> usize {
        let _g = tr_trace::span!("bdd.gc", live = self.live);
        let n = self.vars.len();
        self.mark.clear();
        self.mark.resize(n, false);
        self.mark[0] = true;
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..self.roots.len() {
            let idx = self.roots[i].index();
            if !self.mark[idx] {
                self.mark[idx] = true;
                stack.push(idx as u32);
            }
        }
        while let Some(idx) = stack.pop() {
            let idx = idx as usize;
            if self.vars[idx] == TERMINAL_VAR {
                continue;
            }
            let lo = Edge(self.lows[idx]).index();
            let hi = Edge(self.highs[idx]).index();
            if !self.mark[lo] {
                self.mark[lo] = true;
                stack.push(lo as u32);
            }
            if !self.mark[hi] {
                self.mark[hi] = true;
                stack.push(hi as u32);
            }
        }
        let mut freed = 0usize;
        for idx in 1..n {
            if !self.mark[idx] && self.vars[idx] != FREE_VAR {
                self.vars[idx] = FREE_VAR;
                self.lows[idx] = self.free_head;
                self.free_head = idx as u32;
                freed += 1;
            }
        }
        self.live -= freed;
        self.rebuild_table();
        self.clear_caches();
        self.next_gc = (self.live.saturating_mul(GC_GROWTH_FACTOR)).max(self.gc_threshold);
        self.gc.runs += 1;
        self.gc.freed += freed as u64;
        tr_trace::counter!("bdd.live", self.live);
        freed
    }

    /// Rebuilds the unique table from the pool (sized to twice the live
    /// count, shrinking by at most half per rebuild so capacity doesn't
    /// see-saw between collections, floored at the minimum capacity).
    /// Every live node's triple is unique by construction, so insertion
    /// never compares keys.
    fn rebuild_table(&mut self) {
        let want = (self.live * 2)
            .next_power_of_two()
            .max(self.table.len() / 2)
            .max(MIN_TABLE_CAPACITY);
        if self.table.len() == want {
            self.table.fill(NIL);
        } else {
            self.table = vec![NIL; want];
        }
        self.table_mask = want - 1;
        let mut occupied = 0usize;
        for idx in 1..self.vars.len() {
            let var = self.vars[idx];
            if var == FREE_VAR {
                continue;
            }
            let mut slot = hash3(var, self.lows[idx], self.highs[idx]) & self.table_mask;
            while self.table[slot] != NIL {
                slot = (slot + 1) & self.table_mask;
            }
            self.table[slot] = idx as u32;
            occupied += 1;
        }
        self.table_occupied = occupied;
    }

    /// Doubles the unique table. Growth itself never collects — garbage
    /// piling up is [`Bdd::maybe_gc`]'s business, and sweeping must wait
    /// for a safe point anyway (mid-operation intermediates are not
    /// rooted).
    fn grow_table(&mut self) {
        let want = self.table.len() * 2;
        let mut table = vec![NIL; want];
        let mask = want - 1;
        for &idx in &self.table {
            if idx == NIL {
                continue;
            }
            let i = idx as usize;
            let mut slot = hash3(self.vars[i], self.lows[i], self.highs[i]) & mask;
            while table[slot] != NIL {
                slot = (slot + 1) & mask;
            }
            table[slot] = idx;
        }
        self.table = table;
        self.table_mask = mask;
    }

    fn clear_caches(&mut self) {
        self.ite_cache.fill(ITE4_EMPTY);
        self.restrict_cache.fill(MEMO2_EMPTY);
        self.diff_cache.fill(MEMO2_EMPTY);
        self.caches_stale = false;
    }

    /// Clears level-swap-stale cache entries before they could be read.
    #[inline]
    fn ensure_caches_fresh(&mut self) {
        if self.caches_stale {
            self.clear_caches();
        }
    }

    /// Doubles the operation caches toward their caps as the pool
    /// grows, so small managers stay small and big builds get full-size
    /// memoization. Growing (re)clears the affected cache — lossy by
    /// contract — and is safe mid-operation: every entry is verified by
    /// its full key on lookup, so an in-flight store landing at an
    /// out-of-date slot is just a future miss.
    fn grow_caches(&mut self) {
        let ite = self
            .live
            .next_power_of_two()
            .clamp(ITE_CACHE_MIN, ITE_CACHE_MAX);
        if ite > self.ite_cache.len() {
            self.ite_cache = vec![ITE4_EMPTY; ite];
        }
        let restrict = (self.live / 2)
            .next_power_of_two()
            .clamp(RESTRICT_CACHE_MIN, RESTRICT_CACHE_MAX);
        if restrict > self.restrict_cache.len() {
            self.restrict_cache = vec![MEMO2_EMPTY; restrict];
        }
        let diff = (self.live / 8)
            .next_power_of_two()
            .clamp(DIFF_CACHE_MIN, DIFF_CACHE_MAX);
        if diff > self.diff_cache.len() {
            self.diff_cache = vec![MEMO2_EMPTY; diff];
        }
    }

    /// The single-variable function `xᵥ`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn var(&mut self, var: usize) -> Edge {
        assert!(var < self.n_vars, "variable {var} out of range");
        // Variable nodes bypass the budget: there are at most `n_vars`
        // of them, they may legitimately be re-acquired right after a
        // collection freed them, and a typed error here would force
        // every caller through a Result for a node that always fits.
        self.mk_unlimited(var as u32, Edge::ZERO, Edge::ONE)
    }

    /// Get-or-create the node `(var, low, high)`, enforcing canonicity.
    fn mk(&mut self, var: u32, low: Edge, high: Edge) -> Result<Edge, BddError> {
        if low == high {
            return Ok(low);
        }
        // Canonical form: the high edge is regular. If it is complemented,
        // store the complemented node and complement the returned edge.
        if high.is_complemented() {
            let inner = self.mk_raw(var, low.complement(), high.complement(), true)?;
            return Ok(inner.complement());
        }
        self.mk_raw(var, low, high, true)
    }

    fn mk_raw(
        &mut self,
        var: u32,
        low: Edge,
        high: Edge,
        enforce_limit: bool,
    ) -> Result<Edge, BddError> {
        debug_assert!(!high.is_complemented());
        // The unlimited path (variable nodes, level swaps) must stay
        // infallible: a half-done level swap would corrupt the order, so
        // sifting is interrupted only *between* swaps, never inside one.
        if enforce_limit {
            self.govern_check()?;
        }
        let mut slot = hash3(var, low.key(), high.key()) & self.table_mask;
        loop {
            let t = self.table[slot];
            if t == NIL {
                break;
            }
            let i = t as usize;
            if self.vars[i] == var && self.lows[i] == low.key() && self.highs[i] == high.key() {
                return Ok(Edge::new(t, false));
            }
            slot = (slot + 1) & self.table_mask;
        }
        // The budget bounds *live* nodes: garbage awaiting collection
        // has already been subtracted. (The terminal and variable nodes
        // are admitted outside this check — see `var`.)
        if enforce_limit && self.live >= self.node_limit {
            return Err(BddError::NodeLimit {
                limit: self.node_limit,
            });
        }
        let idx = self.alloc(var, low, high);
        self.table[slot] = idx;
        self.table_occupied += 1;
        // Grow at 2/3 load: linear probing stays short, and growth flags
        // a collection for the next safe point.
        if self.table_occupied * 3 >= self.table.len() * 2 {
            self.grow_table();
        }
        Ok(Edge::new(idx, false))
    }

    /// Takes a slot off the free list, or extends the pool.
    fn alloc(&mut self, var: u32, low: Edge, high: Edge) -> u32 {
        self.total_allocated += 1;
        self.live += 1;
        if self.live > self.gc.peak_live {
            self.gc.peak_live = self.live;
        }
        if self.live > self.ite_cache.len() && self.ite_cache.len() < ITE_CACHE_MAX {
            self.grow_caches();
        }
        if self.free_head != NIL {
            let idx = self.free_head;
            let i = idx as usize;
            debug_assert_eq!(self.vars[i], FREE_VAR);
            self.free_head = self.lows[i];
            self.vars[i] = var;
            self.lows[i] = low.key();
            self.highs[i] = high.key();
            return idx;
        }
        let idx = u32::try_from(self.vars.len()).expect("node count fits in u32");
        assert!(idx < u32::MAX >> 1, "node index fits in an edge");
        self.vars.push(var);
        self.lows.push(low.key());
        self.highs.push(high.key());
        idx
    }

    /// The level (variable) labelling the edge's root node.
    #[inline]
    fn level(&self, e: Edge) -> u32 {
        self.vars[e.index()]
    }

    /// Cofactors of `e` with respect to `var`, complement pushed through.
    /// `var` must be at or above `e`'s root level.
    #[inline]
    fn split(&self, e: Edge, var: u32) -> (Edge, Edge) {
        let idx = e.index();
        if self.vars[idx] != var {
            return (e, e);
        }
        let low = Edge(self.lows[idx]);
        let high = Edge(self.highs[idx]);
        if e.is_complemented() {
            (low.complement(), high.complement())
        } else {
            (low, high)
        }
    }

    /// If-then-else: the universal binary operator, memoized.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the result would exceed the
    /// node limit.
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Result<Edge, BddError> {
        // Terminal cases.
        if f == Edge::ONE {
            return Ok(g);
        }
        if f == Edge::ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == Edge::ONE && h == Edge::ZERO {
            return Ok(f);
        }
        if g == Edge::ZERO && h == Edge::ONE {
            return Ok(f.complement());
        }
        // Collapse g/h that repeat f.
        let (mut f, mut g, mut h) = (f, g, h);
        if g == f {
            g = Edge::ONE;
        } else if g == f.complement() {
            g = Edge::ZERO;
        }
        if h == f {
            h = Edge::ZERO;
        } else if h == f.complement() {
            h = Edge::ONE;
        }
        if g == Edge::ONE && h == Edge::ZERO {
            return Ok(f);
        }
        if g == h {
            return Ok(g);
        }
        // Canonicalize for the cache: first argument regular, then-branch
        // regular (complement pulled out of the result).
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        let negate = g.is_complemented();
        if negate {
            g = g.complement();
            h = h.complement();
        }
        self.ensure_caches_fresh();
        let slot = hash3(f.key(), g.key(), h.key()) & (self.ite_cache.len() - 1);
        self.stats.ite_lookups += 1;
        {
            let e = self.ite_cache[slot];
            if e.a == f.key() && e.b == g.key() && e.c == h.key() {
                self.stats.ite_hits += 1;
                let hit = Edge(e.r);
                return Ok(if negate { hit.complement() } else { hit });
            }
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.split(f, top);
        let (g0, g1) = self.split(g, top);
        let (h0, h1) = self.split(h, top);
        let t = self.ite(f1, g1, h1)?;
        let e = self.ite(f0, g0, h0)?;
        let result = self.mk(top, e, t)?;
        // The caches may have grown during the recursion; `slot` then
        // indexes the new, larger cache at an out-of-date position —
        // harmless for a full-key-verified lossy cache (a future miss),
        // and always in bounds (caches only grow).
        let slot = slot & (self.ite_cache.len() - 1);
        self.ite_cache[slot] = Ite4 {
            a: f.key(),
            b: g.key(),
            c: h.key(),
            r: result.key(),
        };
        Ok(if negate { result.complement() } else { result })
    }

    /// `f ∧ g`.
    ///
    /// # Errors
    ///
    /// As [`Bdd::ite`].
    pub fn and(&mut self, f: Edge, g: Edge) -> Result<Edge, BddError> {
        self.ite(f, g, Edge::ZERO)
    }

    /// `f ∨ g`.
    ///
    /// # Errors
    ///
    /// As [`Bdd::ite`].
    pub fn or(&mut self, f: Edge, g: Edge) -> Result<Edge, BddError> {
        self.ite(f, Edge::ONE, g)
    }

    /// `f ⊕ g`.
    ///
    /// # Errors
    ///
    /// As [`Bdd::ite`].
    pub fn xor(&mut self, f: Edge, g: Edge) -> Result<Edge, BddError> {
        self.ite(f, g.complement(), g)
    }

    /// The cofactor `f|ᵥₐᵣ₌ᵥₐₗ`, memoized.
    ///
    /// # Errors
    ///
    /// As [`Bdd::ite`].
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn restrict(&mut self, f: Edge, var: usize, val: bool) -> Result<Edge, BddError> {
        assert!(var < self.n_vars, "variable {var} out of range");
        self.restrict_rec(f, var as u32, val)
    }

    fn restrict_rec(&mut self, f: Edge, var: u32, val: bool) -> Result<Edge, BddError> {
        let node_var = self.level(f);
        // Ordering invariant: everything below `f`'s root is labelled with
        // a larger variable, so once we pass `var` it cannot occur.
        if node_var > var {
            return Ok(f);
        }
        if node_var == var {
            let (lo, hi) = self.split(f, var);
            return Ok(if val { hi } else { lo });
        }
        let k = var << 1 | u32::from(val);
        self.ensure_caches_fresh();
        let slot = hash3(f.key(), k, 0x5EED) & (self.restrict_cache.len() - 1);
        self.stats.restrict_lookups += 1;
        {
            let e = self.restrict_cache[slot];
            if e.f == f.key() && e.k == k {
                self.stats.restrict_hits += 1;
                return Ok(Edge(e.r));
            }
        }
        let (lo, hi) = self.split(f, node_var);
        let new_lo = self.restrict_rec(lo, var, val)?;
        let new_hi = self.restrict_rec(hi, var, val)?;
        let result = self.mk(node_var, new_lo, new_hi)?;
        let slot = slot & (self.restrict_cache.len() - 1);
        self.restrict_cache[slot] = Memo2 {
            f: f.key(),
            k,
            r: result.key(),
        };
        Ok(result)
    }

    /// The Boolean difference `∂f/∂xᵥ = f|ᵥ₌₁ ⊕ f|ᵥ₌₀`, memoized.
    ///
    /// A transition of `xᵥ` propagates to `f` exactly when the remaining
    /// inputs satisfy this function — the core of Najm's density
    /// propagation.
    ///
    /// # Errors
    ///
    /// As [`Bdd::ite`].
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn boolean_difference(&mut self, f: Edge, var: usize) -> Result<Edge, BddError> {
        assert!(var < self.n_vars, "variable {var} out of range");
        // The difference is complement-invariant: ∂(¬f) = ∂f. Cache on the
        // regular edge so both phases share the entry.
        let canonical = if f.is_complemented() {
            f.complement()
        } else {
            f
        };
        let k = var as u32;
        self.ensure_caches_fresh();
        let slot = hash3(canonical.key(), k, 0xD1FF) & (self.diff_cache.len() - 1);
        {
            let e = self.diff_cache[slot];
            if e.f == canonical.key() && e.k == k {
                return Ok(Edge(e.r));
            }
        }
        let hi = self.restrict_rec(canonical, k, true)?;
        let lo = self.restrict_rec(canonical, k, false)?;
        let result = self.xor(hi, lo)?;
        let slot = slot & (self.diff_cache.len() - 1);
        self.diff_cache[slot] = Memo2 {
            f: canonical.key(),
            k,
            r: result.key(),
        };
        Ok(result)
    }

    /// `P(∂f/∂xᵥ)` — the probability that a transition of `xᵥ`
    /// propagates to `f` — **without materializing the difference BDD**.
    ///
    /// [`Bdd::boolean_difference`] builds `f|ᵥ₌₁ ⊕ f|ᵥ₌₀` as nodes
    /// (restrict, restrict, XOR: unique-table inserts and garbage on
    /// every step) only for the caller to reduce it straight to one
    /// number. This walks the *pair graph* instead: descend `f` to the
    /// differenced level, then recurse over `(then, else)` cofactor
    /// pairs, combining child probabilities by the Shannon convex rule.
    /// Pure reads — no allocation, no node construction, cannot hit the
    /// node limit — with both recursions memoized in `scratch`.
    /// Complement edges fold in as `P(¬a ⊕ b) = 1 − P(a ⊕ b)`, so each
    /// unordered regular pair is computed once.
    ///
    /// This is the workhorse of the exact Najm density pass
    /// (`D(y) = Σᵥ P(∂y/∂xᵥ)·D(xᵥ)` in `CircuitBdds::exact_stats`).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::Interrupted`] if an attached governor trips
    /// mid-walk (the walk allocates nothing, so interruption leaves no
    /// garbage — only a cold memo).
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars` or `probs.len() != n_vars`.
    pub fn difference_probability(
        &self,
        f: Edge,
        var: usize,
        probs: &[f64],
        prob: &mut ProbScratch,
        scratch: &mut DensityScratch,
    ) -> Result<f64, BddError> {
        assert!(var < self.n_vars, "variable {var} out of range");
        assert_eq!(probs.len(), self.n_vars, "one probability per variable");
        prob.prepare(self);
        scratch.prepare(self);
        match self.diff_prob_rec(f, var as u32, probs, prob, scratch) {
            Ok(p) => Ok(p.clamp(0.0, 1.0)),
            Err(Tripped) => Err(self.trip_error()),
        }
    }

    fn diff_prob_rec(
        &self,
        f: Edge,
        var: u32,
        probs: &[f64],
        prob: &mut ProbScratch,
        scratch: &mut DensityScratch,
    ) -> Result<f64, Tripped> {
        let node_var = self.level(f);
        // Ordering invariant: below `f`'s root every label is larger, so
        // once we pass `var` the function no longer depends on it.
        if node_var > var {
            return Ok(0.0);
        }
        if node_var == var {
            let (lo, hi) = self.split(f, var);
            return self.xor_prob(lo, hi, probs, prob, scratch);
        }
        self.govern_poll()?;
        // ∂(¬f) = ∂f: memoize on the regular edge.
        let rf = if f.is_complemented() {
            f.complement()
        } else {
            f
        };
        let slot = hash3(rf.key(), var, 0xDE25) & (scratch.diff_memo.len() - 1);
        {
            let e = scratch.diff_memo[slot];
            if e.a == rf.key() && e.b == var {
                return Ok(e.p);
            }
        }
        let (lo, hi) = self.split(rf, node_var);
        let p_lo = self.diff_prob_rec(lo, var, probs, prob, scratch)?;
        let p_hi = self.diff_prob_rec(hi, var, probs, prob, scratch)?;
        let pv = probs[node_var as usize];
        let p = p_lo + pv * (p_hi - p_lo);
        scratch.diff_memo[slot] = PairP {
            a: rf.key(),
            b: var,
            p,
        };
        Ok(p)
    }

    /// `P(a ⊕ b)` over the pair graph, memoized per unordered regular
    /// pair (complements folded out front).
    fn xor_prob(
        &self,
        a: Edge,
        b: Edge,
        probs: &[f64],
        prob: &mut ProbScratch,
        scratch: &mut DensityScratch,
    ) -> Result<f64, Tripped> {
        if a == b {
            return Ok(0.0);
        }
        if a == b.complement() {
            return Ok(1.0);
        }
        self.govern_poll()?;
        let flip = a.is_complemented() ^ b.is_complemented();
        let ra = Edge(a.key() & !1);
        let rb = Edge(b.key() & !1);
        let (ra, rb) = if ra.key() <= rb.key() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let q = if ra == Edge::ONE {
            // 1 ⊕ g = ¬g.
            1.0 - self.probability_rec(rb.index(), probs, prob)
        } else {
            let slot = hash3(ra.key(), rb.key(), 0x0A0B) & (scratch.xor_memo.len() - 1);
            let e = scratch.xor_memo[slot];
            if e.a == ra.key() && e.b == rb.key() {
                e.p
            } else {
                let top = self.level(ra).min(self.level(rb));
                let (a0, a1) = self.split(ra, top);
                let (b0, b1) = self.split(rb, top);
                let q0 = self.xor_prob(a0, b0, probs, prob, scratch)?;
                let q1 = self.xor_prob(a1, b1, probs, prob, scratch)?;
                let pv = probs[top as usize];
                let q = q0 + pv * (q1 - q0);
                scratch.xor_memo[slot] = PairP {
                    a: ra.key(),
                    b: rb.key(),
                    p: q,
                };
                q
            }
        };
        Ok(if flip { 1.0 - q } else { q })
    }

    /// Evaluates `f` on a full variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != n_vars`.
    pub fn eval(&self, f: Edge, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars, "one value per variable");
        let mut e = f;
        let mut parity = false;
        loop {
            parity ^= e.is_complemented();
            let idx = e.index();
            let var = self.vars[idx];
            if var == TERMINAL_VAR {
                return !parity;
            }
            e = if assignment[var as usize] {
                Edge(self.highs[idx])
            } else {
                Edge(self.lows[idx])
            };
        }
    }

    /// The set of variables `f` depends on, as a sorted list.
    pub fn support(&self, f: Edge) -> Vec<usize> {
        let mut seen = vec![false; self.n_vars];
        let mut visited = VisitScratch::new();
        self.support_into(f, &mut seen, &mut visited);
        (0..self.n_vars).filter(|&v| seen[v]).collect()
    }

    /// Marks every variable `f` depends on in a caller-provided bitmap
    /// (the allocation-free form of [`Bdd::support`], used by the density
    /// loop). `visited` carries the epoch-stamped node marks across
    /// calls, so repeated supports cost `O(|f|)` — not `O(pool)`.
    pub fn support_into(&self, f: Edge, seen: &mut [bool], visited: &mut VisitScratch) {
        assert!(seen.len() >= self.n_vars, "support bitmap too short");
        seen[..self.n_vars].fill(false);
        visited.begin(self.vars.len());
        let mut stack = std::mem::take(&mut visited.stack);
        stack.push(f.index() as u32);
        while let Some(idx) = stack.pop() {
            let idx = idx as usize;
            if !visited.visit(idx) {
                continue;
            }
            let var = self.vars[idx];
            if var == TERMINAL_VAR {
                continue;
            }
            seen[var as usize] = true;
            stack.push(Edge(self.lows[idx]).index() as u32);
            stack.push(Edge(self.highs[idx]).index() as u32);
        }
        visited.stack = stack;
    }

    /// Number of distinct nodes reachable from `roots` (counting the
    /// terminal once if reached) — the "live size" of a set of functions.
    pub fn live_size(&self, roots: impl IntoIterator<Item = Edge>) -> usize {
        let mut visited: Vec<bool> = vec![false; self.vars.len()];
        let mut stack: Vec<usize> = roots.into_iter().map(Edge::index).collect();
        let mut count = 0usize;
        while let Some(idx) = stack.pop() {
            if visited[idx] {
                continue;
            }
            visited[idx] = true;
            count += 1;
            if self.vars[idx] != TERMINAL_VAR {
                stack.push(Edge(self.lows[idx]).index());
                stack.push(Edge(self.highs[idx]).index());
            }
        }
        count
    }

    /// Exact probability that `f = 1` given one `P(xᵥ = 1)` per variable,
    /// assuming the variables are independent.
    ///
    /// One `O(|f|)` pass: each plain node's probability is the convex
    /// combination of its children's; a complemented edge reads `1 − P`.
    /// `scratch` memoizes per regular node and may be reused across calls
    /// **only** with identical `probs` (the whole-circuit engine shares
    /// one scratch across every net); call [`ProbScratch::reset`] when
    /// the probabilities change.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != n_vars`.
    pub fn probability(&self, f: Edge, probs: &[f64], scratch: &mut ProbScratch) -> f64 {
        assert_eq!(probs.len(), self.n_vars, "one probability per variable");
        scratch.prepare(self);
        let p = self.probability_rec(f.index(), probs, scratch);
        let p = if f.is_complemented() { 1.0 - p } else { p };
        p.clamp(0.0, 1.0)
    }

    fn probability_rec(&self, idx: usize, probs: &[f64], scratch: &mut ProbScratch) -> f64 {
        let var = self.vars[idx];
        if var == TERMINAL_VAR {
            return 1.0;
        }
        if scratch.stamp[idx] == scratch.stamp_epoch {
            return scratch.values[idx];
        }
        let low = Edge(self.lows[idx]);
        let p_lo = {
            let raw = self.probability_rec(low.index(), probs, scratch);
            if low.is_complemented() {
                1.0 - raw
            } else {
                raw
            }
        };
        // The high edge is regular by canonical form.
        let p_hi = self.probability_rec(Edge(self.highs[idx]).index(), probs, scratch);
        let pv = probs[var as usize];
        let p = p_lo + pv * (p_hi - p_lo);
        scratch.stamp[idx] = scratch.stamp_epoch;
        scratch.values[idx] = p;
        p
    }

    /// Builds the BDD of a dense truth table over argument functions:
    /// Shannon expansion of `f` with `args[i]` substituted for variable
    /// `i`. This is how gate outputs compose their cell function over the
    /// fanin BDDs.
    ///
    /// # Errors
    ///
    /// As [`Bdd::ite`].
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != f.nvars()`.
    pub fn compose_fn(&mut self, f: &tr_boolean::BoolFn, args: &[Edge]) -> Result<Edge, BddError> {
        assert_eq!(
            args.len(),
            f.nvars(),
            "one argument edge per function input"
        );
        self.compose_rec(f, args, args.len())
    }

    fn compose_rec(
        &mut self,
        f: &tr_boolean::BoolFn,
        args: &[Edge],
        remaining: usize,
    ) -> Result<Edge, BddError> {
        if f.is_zero() {
            return Ok(Edge::ZERO);
        }
        if f.is_one() {
            return Ok(Edge::ONE);
        }
        debug_assert!(remaining > 0, "non-constant function with no variables");
        let k = remaining - 1;
        if !f.depends_on(k) {
            return self.compose_rec(f, args, k);
        }
        let hi = self.compose_rec(&f.cofactor(k, true), args, k)?;
        let lo = self.compose_rec(&f.cofactor(k, false), args, k)?;
        self.ite(args[k], hi, lo)
    }

    /// Swaps adjacent levels `level` and `level + 1` in place — the
    /// primitive of Rudell's sifting. Every node keeps its pool index,
    /// so rooted edges stay valid; the *meaning* of the two levels is
    /// exchanged (the caller swaps its level→variable map alongside).
    ///
    /// Three node populations are touched:
    ///
    /// * level-`l+1` nodes move up to level `l` unchanged (their
    ///   children sit strictly below `l+1` either way);
    /// * level-`l` nodes that do not reference level `l+1` move down to
    ///   level `l+1` unchanged;
    /// * level-`l` nodes that do reference level `l+1` are restructured
    ///   in place around the swapped split, creating (or sharing) their
    ///   new children at level `l+1`.
    ///
    /// The swap itself ignores the node limit (it may transiently
    /// allocate before sifting shrinks the pool); dead nodes it strands
    /// are reclaimed by the next collection. The unique table is
    /// rebuilt; operation caches are flagged stale (entries are
    /// ordering-dependent) and cleared lazily by the next operation.
    /// Caller-owned [`ProbScratch`]/[`DensityScratch`] memos are *not*
    /// tracked here — a sifting pass must end with [`Bdd::gc`] (whose
    /// run counter those scratches watch) before statistics resume,
    /// which [`crate::circuit::CircuitBdds::sift_in_place`] does.
    pub(crate) fn swap_adjacent(&mut self, level: u32) {
        let l1 = level + 1;
        debug_assert!((l1 as usize) < self.n_vars, "swap needs two real levels");
        // Pass 1: classify level-`level` nodes, recording the four
        // grandchild cofactors of the dependent ones. Cofactor edges
        // always point strictly below `l1`, so later relabeling and
        // rewriting cannot invalidate them.
        let mut dependent: Vec<(u32, [Edge; 4])> = Vec::new();
        let mut move_down: Vec<u32> = Vec::new();
        let mut move_up: Vec<u32> = Vec::new();
        for idx in 1..self.vars.len() {
            let var = self.vars[idx];
            if var == level {
                let low = Edge(self.lows[idx]);
                let high = Edge(self.highs[idx]);
                if self.vars[low.index()] == l1 || self.vars[high.index()] == l1 {
                    let (e0, e1) = self.split(low, l1);
                    let (t0, t1) = self.split(high, l1);
                    dependent.push((idx as u32, [e0, e1, t0, t1]));
                } else {
                    move_down.push(idx as u32);
                }
            } else if var == l1 {
                move_up.push(idx as u32);
            }
        }
        // Pass 2: relabel the independent movers.
        for idx in move_up {
            self.vars[idx as usize] = level;
        }
        for idx in move_down {
            self.vars[idx as usize] = l1;
        }
        // Pass 3: re-key the unique table so `mk` lookups during the
        // rewrite see the relabeled nodes (stale dependent entries keep
        // their old, still-unique triples and match nothing).
        self.rebuild_table();
        // Pass 4: restructure the dependent nodes in place. New children
        // live at level `l1`; the high child of each is a high cofactor
        // of a regular edge, hence regular, so no complement ever needs
        // to escape through the node's (fixed) identity.
        for (idx, [e0, e1, t0, t1]) in dependent {
            let low_new = self.mk_unlimited(l1, e0, t0);
            let high_new = self.mk_unlimited(l1, e1, t1);
            debug_assert!(!high_new.is_complemented());
            self.lows[idx as usize] = low_new.key();
            self.highs[idx as usize] = high_new.key();
        }
        // Pass 5: the rewritten nodes changed their triples; re-key and
        // flag the (ordering-dependent) operation caches stale — the
        // next ITE/restrict/difference clears them lazily, so a sifting
        // pass of hundreds of swaps pays one clear instead of hundreds
        // of multi-megabyte memsets.
        self.rebuild_table();
        self.caches_stale = true;
    }

    /// `mk` without the node limit: for variable nodes (bounded by
    /// `n_vars`, see [`Bdd::var`]) and for [`Bdd::swap_adjacent`] (a
    /// swap must complete atomically once started).
    fn mk_unlimited(&mut self, var: u32, low: Edge, high: Edge) -> Edge {
        if low == high {
            return low;
        }
        if high.is_complemented() {
            return self
                .mk_raw(var, low.complement(), high.complement(), false)
                .expect("unlimited mk cannot fail")
                .complement();
        }
        self.mk_raw(var, low, high, false)
            .expect("unlimited mk cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_boolean::BoolFn;

    #[test]
    fn constants_and_vars() {
        let mut bdd = Bdd::new(2);
        assert_eq!(Edge::ONE.complement(), Edge::ZERO);
        let a = bdd.var(0);
        assert!(bdd.eval(a, &[true, false]));
        assert!(!bdd.eval(a, &[false, true]));
        assert!(!bdd.eval(a.complement(), &[true, false]));
        // var() is canonical: same node both times.
        assert_eq!(a, bdd.var(0));
    }

    #[test]
    fn ite_matches_truth_tables() {
        // Exhaustively check every 3-input function pair against BoolFn.
        let mut bdd = Bdd::new(3);
        let vars: Vec<Edge> = (0..3).map(|v| bdd.var(v)).collect();
        let fns: Vec<BoolFn> = (0..256u32)
            .step_by(37)
            .map(|tt| {
                BoolFn::from_fn(3, |a| {
                    (tt >> (usize::from(a[0]) | usize::from(a[1]) << 1 | usize::from(a[2]) << 2))
                        & 1
                        == 1
                })
            })
            .collect();
        for f in &fns {
            let fe = bdd.compose_fn(f, &vars).unwrap();
            for m in 0..8usize {
                let a = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
                assert_eq!(bdd.eval(fe, &a), f.eval(&a), "{f:?} at {m:03b}");
            }
        }
    }

    #[test]
    fn canonicity_demorgan() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let nand = bdd.and(a, b).unwrap().complement();
        let or_of_nots = bdd.or(a.complement(), b.complement()).unwrap();
        assert_eq!(nand, or_of_nots);
        let before = bdd.node_count();
        // Rebuilding identical functions allocates nothing.
        let again = bdd.and(a, b).unwrap().complement();
        assert_eq!(again, nand);
        assert_eq!(bdd.node_count(), before);
    }

    #[test]
    fn xor_and_difference() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b).unwrap();
        let f = bdd.xor(ab, c).unwrap();
        // ∂f/∂c = 1, ∂f/∂a = b.
        assert_eq!(bdd.boolean_difference(f, 2).unwrap(), Edge::ONE);
        assert_eq!(bdd.boolean_difference(f, 0).unwrap(), b);
        // Complement-invariant, served from the cache.
        assert_eq!(bdd.boolean_difference(f.complement(), 0).unwrap(), b);
    }

    #[test]
    fn restrict_is_cofactor() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let bc = bdd.or(b, c).unwrap();
        let f = bdd.and(a, bc).unwrap();
        assert_eq!(bdd.restrict(f, 0, false).unwrap(), Edge::ZERO);
        assert_eq!(bdd.restrict(f, 0, true).unwrap(), bc);
        let f_b0 = bdd.restrict(f, 1, false).unwrap();
        assert_eq!(f_b0, bdd.and(a, c).unwrap());
    }

    #[test]
    fn probability_of_majority() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b).unwrap();
        let ac = bdd.and(a, c).unwrap();
        let bc = bdd.and(b, c).unwrap();
        let t = bdd.or(ab, ac).unwrap();
        let maj = bdd.or(t, bc).unwrap();
        let mut scratch = ProbScratch::new();
        let p = bdd.probability(maj, &[0.5, 0.5, 0.5], &mut scratch);
        assert!((p - 0.5).abs() < 1e-15);
        scratch.reset();
        let p2 = bdd.probability(maj, &[0.2, 0.3, 0.4], &mut scratch);
        // P(maj) = ab + ac + bc − 2abc.
        let want = 0.2 * 0.3 + 0.2 * 0.4 + 0.3 * 0.4 - 2.0 * 0.2 * 0.3 * 0.4;
        assert!((p2 - want).abs() < 1e-15, "{p2} vs {want}");
        // Complemented root reads 1 − P (served from the same scratch).
        let pc = bdd.probability(maj.complement(), &[0.2, 0.3, 0.4], &mut scratch);
        assert!((pc - (1.0 - want)).abs() < 1e-15);
    }

    #[test]
    fn support_tracks_dependencies() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let c = bdd.var(2);
        let f = bdd.xor(a, c).unwrap();
        assert_eq!(bdd.support(f), vec![0, 2]);
        assert_eq!(bdd.support(Edge::ONE), Vec::<usize>::new());
        let mut seen = vec![false; 4];
        let mut visited = VisitScratch::new();
        bdd.support_into(f, &mut seen, &mut visited);
        assert_eq!(seen, vec![true, false, true, false]);
        // Reuse across calls: the epoch bump invalidates old marks.
        let g = bdd.var(1);
        bdd.support_into(g, &mut seen, &mut visited);
        assert_eq!(seen, vec![false, true, false, false]);
    }

    #[test]
    fn node_limit_is_enforced() {
        // A parity chain over 8 vars needs ~2 nodes per level; a limit of
        // 10 nodes (vars are always admitted) cannot hold it.
        let mut bdd = Bdd::with_node_limit(8, 10);
        let vars: Vec<Edge> = (0..8).map(|v| bdd.var(v)).collect();
        let mut f = vars[0];
        let mut hit = false;
        for &x in &vars[1..] {
            match bdd.xor(f, x) {
                Ok(next) => f = next,
                Err(BddError::NodeLimit { limit }) => {
                    assert_eq!(limit, 10);
                    hit = true;
                    break;
                }
                Err(e @ BddError::Interrupted(_)) => panic!("no governor attached: {e}"),
            }
        }
        assert!(hit, "limit of 10 nodes should have been exceeded");
    }

    #[test]
    fn cache_statistics_accumulate() {
        let mut bdd = Bdd::new(6);
        let vars: Vec<Edge> = (0..6).map(|v| bdd.var(v)).collect();
        let mut f = vars[0];
        for &v in &vars[1..] {
            f = bdd.xor(f, v).unwrap();
        }
        // Rebuild: everything should now hit the ITE cache.
        let mut g = vars[0];
        for &v in &vars[1..] {
            g = bdd.xor(g, v).unwrap();
        }
        assert_eq!(f, g);
        let stats = bdd.cache_stats();
        assert!(stats.ite_lookups > 0);
        assert!(stats.ite_hits > 0);
    }

    #[test]
    fn live_size_counts_shared_nodes_once() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b).unwrap();
        // a, b, ab share structure; the union is smaller than the sum.
        let union = bdd.live_size([a, b, ab]);
        let solo: usize = [a, b, ab].iter().map(|&e| bdd.live_size([e])).sum();
        assert!(union < solo);
        assert_eq!(bdd.live_size([Edge::ONE]), 1);
    }

    #[test]
    fn gc_recycles_dead_nodes_and_preserves_roots() {
        let mut bdd = Bdd::new(8);
        let vars: Vec<Edge> = (0..8).map(|v| bdd.var(v)).collect();
        // A kept function and a pile of garbage.
        let mut keep = vars[0];
        for &v in &vars[1..] {
            keep = bdd.xor(keep, v).unwrap();
        }
        bdd.protect(keep);
        let mut junk = vars[0];
        for &v in &vars[1..] {
            junk = bdd.and(junk, v).unwrap();
            junk = bdd.or(junk, vars[2]).unwrap();
        }
        let before = bdd.node_count();
        let freed = bdd.gc();
        assert!(freed > 0, "the junk chain must be collected");
        assert_eq!(bdd.node_count(), before - freed);
        assert_eq!(bdd.node_count(), bdd.live_size([keep]));
        // The kept parity function still evaluates correctly...
        for m in [0usize, 0x55, 0xFF, 0x9A] {
            let a: Vec<bool> = (0..8).map(|i| (m >> i) & 1 == 1).collect();
            let want = a.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(bdd.eval(keep, &a), want, "{m:02x}");
        }
        // ...and rebuilding it is a pure lookup at the top (canonicity
        // survived the table rebuild). Variables are re-acquired: their
        // old edges may have been collected with the junk.
        let mut again = bdd.var(0);
        for v in 1..8 {
            let x = bdd.var(v);
            again = bdd.xor(again, x).unwrap();
        }
        assert_eq!(again, keep);
    }

    #[test]
    fn gc_recycled_slots_are_reused() {
        let mut bdd = Bdd::new(6);
        let vars: Vec<Edge> = (0..6).map(|v| bdd.var(v)).collect();
        let keep = bdd.and(vars[0], vars[1]).unwrap();
        bdd.protect(keep);
        let mut junk = vars[0];
        for &v in &vars[1..] {
            junk = bdd.xor(junk, v).unwrap();
        }
        let _ = junk;
        bdd.gc();
        let pool_after_gc = bdd.vars.len();
        // Rebuilding garbage of similar size fits in the recycled slots:
        // the pool does not grow. (Variables are re-acquired — their old
        // edges died with the junk.)
        let vs: Vec<Edge> = (0..6).map(|v| bdd.var(v)).collect();
        let mut again = vs[0];
        for &v in &vs[1..] {
            again = bdd.xor(again, v).unwrap();
        }
        assert_eq!(bdd.vars.len(), pool_after_gc, "free list must be reused");
        for m in [0usize, 0x2A, 0x3F] {
            let a: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let want = a.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(bdd.eval(again, &a), want, "{m:02x}");
        }
    }

    #[test]
    fn maybe_gc_honors_threshold() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b).unwrap();
        bdd.protect(f);
        // Default threshold: far from triggering.
        assert!(!bdd.maybe_gc());
        assert_eq!(bdd.gc_stats().runs, 0);
        // Tiny threshold: collects immediately.
        bdd.set_gc_threshold(1);
        assert!(bdd.maybe_gc());
        assert_eq!(bdd.gc_stats().runs, 1);
        // Raising the floor re-arms the trigger upward too: no further
        // collection below the new floor.
        bdd.set_gc_threshold(1 << 24);
        assert!(!bdd.maybe_gc());
        assert_eq!(bdd.gc_stats().runs, 1);
    }

    #[test]
    fn var_is_admitted_at_the_limit() {
        // The budget may be fully consumed by protected nodes; variable
        // nodes must still be acquirable without a panic or error.
        let mut bdd = Bdd::with_node_limit(4, 5);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2); // live: terminal + 3 vars = 4
        let ab = bdd.and(a, b).unwrap(); // live 5 == limit
        bdd.protect(ab);
        // Ordinary construction is out of budget...
        assert!(bdd.and(ab, c).is_err());
        // ...but a variable node is always admitted.
        let d = bdd.var(3);
        assert!(bdd.eval(d, &[false, false, false, true]));
    }

    #[test]
    fn node_limit_counts_live_not_allocated() {
        // Repeatedly build and discard garbage under a limit the live set
        // never crosses: with GC between rounds the historic allocation
        // total sails past the limit while construction keeps succeeding.
        let mut bdd = Bdd::with_node_limit(6, 40);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let keep = bdd.and(a, b).unwrap();
        bdd.protect(keep);
        for _round in 0..20 {
            // Re-acquire variables each round: unprotected edges do not
            // survive a collection.
            let vs: Vec<Edge> = (0..6).map(|v| bdd.var(v)).collect();
            let mut f = vs[0];
            for &v in &vs[1..] {
                f = bdd.xor(f, v).unwrap();
            }
            bdd.gc();
        }
        assert!(
            bdd.allocated_total() > 40,
            "allocation total passed the limit"
        );
        assert!(bdd.node_count() <= 40, "live count stayed within it");
    }

    #[test]
    fn swap_adjacent_preserves_functions() {
        // A function with nontrivial structure across the swapped levels:
        // f = (x0 ∧ x1) ⊕ (x2 ∨ ¬x1).
        let mut bdd = Bdd::new(3);
        let x0 = bdd.var(0);
        let x1 = bdd.var(1);
        let x2 = bdd.var(2);
        let a = bdd.and(x0, x1).unwrap();
        let b = bdd.or(x2, x1.complement()).unwrap();
        let f = bdd.xor(a, b).unwrap();
        bdd.protect(f);
        let reference: Vec<bool> = (0..8)
            .map(|m| {
                let v = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
                bdd.eval(f, &v)
            })
            .collect();
        // Swap levels 0 and 1: variable x0 now lives at level 1 and x1 at
        // level 0, so assignments must be permuted accordingly.
        bdd.swap_adjacent(0);
        for (m, &want) in reference.iter().enumerate() {
            let v = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let permuted = [v[1], v[0], v[2]];
            assert_eq!(bdd.eval(f, &permuted), want, "minterm {m:03b}");
        }
        // Swap back: the original evaluation returns.
        bdd.swap_adjacent(0);
        for (m, &want) in reference.iter().enumerate() {
            let v = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            assert_eq!(bdd.eval(f, &v), want, "minterm {m:03b}");
        }
    }

    #[test]
    fn reset_reuses_capacity_and_invalidates_scratches() {
        let mut bdd = Bdd::new(8);
        let mut prob = ProbScratch::new();
        // Build something sizable so the pool and table grow.
        let vs: Vec<Edge> = (0..8).map(|v| bdd.var(v)).collect();
        let mut f = vs[0];
        for &v in &vs[1..] {
            let t = bdd.and(f, v).unwrap();
            f = bdd.xor(t, v).unwrap();
        }
        bdd.protect(f);
        let grown_pool = bdd.vars.capacity();
        let p_before = bdd.probability(f, &[0.3; 8], &mut prob);
        assert!(p_before.is_finite());

        bdd.reset(3);
        assert_eq!(bdd.n_vars(), 3);
        assert_eq!(bdd.node_count(), 1, "only the terminal survives");
        assert_eq!(bdd.protected_count(), 0, "roots are dropped");
        assert!(
            bdd.vars.capacity() >= grown_pool,
            "pool capacity is retained across reset"
        );

        // The engine behaves exactly like a fresh manager, and the
        // caller-held scratch (whose memoized node values now point at
        // recycled slots) self-invalidates via the bumped GC epoch.
        let a = bdd.var(0);
        let b = bdd.var(1);
        let g = bdd.or(a, b).unwrap();
        let p = bdd.probability(g, &[0.5, 0.5, 0.5], &mut prob);
        assert!((p - 0.75).abs() < 1e-12);

        let mut fresh = Bdd::new(3);
        let fa = fresh.var(0);
        let fb = fresh.var(1);
        let fg = fresh.or(fa, fb).unwrap();
        let mut fresh_prob = ProbScratch::new();
        assert_eq!(p, fresh.probability(fg, &[0.5, 0.5, 0.5], &mut fresh_prob));
    }

    #[test]
    fn reset_rearms_gc_trigger_and_keeps_threshold() {
        let mut bdd = Bdd::new(4);
        bdd.set_gc_threshold(8);
        bdd.reset(4);
        // Build garbage past the small threshold: maybe_gc must fire,
        // proving reset re-armed the trigger from the configured
        // threshold rather than a stale adaptive value. Each iteration
        // composes a distinct function so hash-consing cannot cap the
        // pool below the trigger.
        let vs: Vec<Edge> = (0..4).map(|v| bdd.var(v)).collect();
        let mut f = vs[0];
        for round in 0..4 {
            for &v in &vs {
                let t = bdd.and(f, v).unwrap();
                f = if round % 2 == 0 {
                    bdd.xor(t, v).unwrap()
                } else {
                    bdd.or(t, v).unwrap()
                };
            }
        }
        assert!(bdd.node_count() >= 8);
        assert!(bdd.maybe_gc(), "threshold survives reset");
        assert_eq!(bdd.node_count(), 1);
    }

    #[test]
    fn apportioned_threshold_divides_and_floors() {
        assert_eq!(apportioned_gc_threshold(0), DEFAULT_GC_THRESHOLD);
        assert_eq!(apportioned_gc_threshold(1), DEFAULT_GC_THRESHOLD);
        assert_eq!(apportioned_gc_threshold(4), DEFAULT_GC_THRESHOLD / 4);
        // Hundreds of engines hit the floor instead of thrashing.
        assert_eq!(apportioned_gc_threshold(1 << 10), 1 << 14);
    }
}
