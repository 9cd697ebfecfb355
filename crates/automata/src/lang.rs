//! Interned language handles with cached canonical fingerprints.
//!
//! The worklist solver branches on every disjunctive group solution and
//! carries whole machines through each branch; with owned [`Nfa`] values
//! that means deep copies at every branch, leaf binding, and constant
//! lookup, plus a fresh determinize+minimize pass every time two solutions
//! are compared for language equality. [`Lang`] makes a language a
//! cheap-to-clone handle (`Arc` internally) with interior-cached, lazily
//! computed properties — the canonical minimal-DFA fingerprint
//! ([`canonical_key`](crate::minimize::canonical_key)), emptiness,
//! ε-freeness, and edge counts — so each of those is paid at most once per
//! underlying machine no matter how many branches share it. [`LangStore`]
//! layers hash-consing (one representative handle per distinct language)
//! and memoization of the binary operations the solver runs repeatedly
//! (intersection, inclusion) keyed by operand fingerprints, with counters
//! that the solver surfaces as cache observability stats.

use crate::dfa::DeterminizeCost;
use crate::inclusion::{self, InclusionAbort, InclusionCost, InclusionLimits};
use crate::metrics::{id, Metrics};
use crate::minimize::{canonical_key_counted, minimize_counted, CanonicalKey};
use crate::nfa::Nfa;
use crate::ops;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Approximate per-state heap footprint of an [`Nfa`] in bytes, used by the
/// store's memo byte accounting. Shape-derived (never allocator-derived) so
/// the accounting is identical across runs and thread counts.
const STATE_BYTES: u64 = 24;
/// Approximate per-transition heap footprint, same accounting.
const EDGE_BYTES: u64 = 40;
/// Flat charge for one inclusion-memo entry (a boolean plus two `Arc` key
/// references).
const INCLUSION_ENTRY_BYTES: u64 = 24;

/// A regular language: a shared, immutable [`Nfa`] with lazily cached
/// canonical properties.
///
/// Cloning is O(1) (an `Arc` bump); the wrapped machine is immutable, which
/// is what makes the interior caches sound. `Lang` dereferences to [`Nfa`],
/// so read-only machine APIs (`contains`, `num_states`, …) work unchanged
/// on handles.
#[derive(Clone)]
pub struct Lang {
    inner: Arc<LangInner>,
}

struct LangInner {
    nfa: Nfa,
    fingerprint: OnceLock<Arc<CanonicalKey>>,
    empty: OnceLock<bool>,
    eps_free: OnceLock<bool>,
    edge_count: OnceLock<usize>,
}

impl Lang {
    /// Wraps a machine in a shareable handle.
    pub fn new(nfa: Nfa) -> Self {
        Lang {
            inner: Arc::new(LangInner {
                nfa,
                fingerprint: OnceLock::new(),
                empty: OnceLock::new(),
                eps_free: OnceLock::new(),
                edge_count: OnceLock::new(),
            }),
        }
    }

    /// The wrapped machine.
    pub fn nfa(&self) -> &Nfa {
        &self.inner.nfa
    }

    /// Recovers an owned machine (clones only if the handle is shared).
    pub fn into_nfa(self) -> Nfa {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.nfa,
            Err(shared) => shared.nfa.clone(),
        }
    }

    /// Whether two handles share one underlying machine.
    pub fn ptr_eq(a: &Lang, b: &Lang) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// The canonical minimal-DFA fingerprint of the language. Computed on
    /// first use (one determinize+minimize), then cached: language equality
    /// and hashing are O(key length) afterwards. Equal fingerprints hold
    /// exactly for equal languages.
    pub fn fingerprint(&self) -> Arc<CanonicalKey> {
        self.fingerprint_tracked_costed().0
    }

    /// Whether [`Lang::fingerprint`] has already been computed (used by
    /// [`LangStore`] to count cache hits without forcing computation).
    pub fn fingerprint_is_cached(&self) -> bool {
        self.inner.fingerprint.get().is_some()
    }

    /// Like [`Lang::fingerprint`], additionally reporting whether *this
    /// call* ran the canonicalization. Under concurrency the underlying
    /// `OnceLock` runs its initializer exactly once, so exactly one caller
    /// ever observes `true` per handle — which makes hit/miss accounting
    /// race-free (checking [`Lang::fingerprint_is_cached`] first and then
    /// computing would let two racing threads both count a miss).
    pub fn fingerprint_tracked(&self) -> (Arc<CanonicalKey>, bool) {
        let (key, cost) = self.fingerprint_tracked_costed();
        (key, cost.is_some())
    }

    /// Like [`Lang::fingerprint_tracked`], but the "this call computed"
    /// signal carries the computation's cost: the subset-construction work
    /// and the serialized key footprint. Exactly one caller per handle ever
    /// observes `Some` (the `OnceLock` winner), which is what lets the
    /// metrics registry charge each canonicalization exactly once no matter
    /// how many threads race on the handle.
    pub fn fingerprint_tracked_costed(&self) -> (Arc<CanonicalKey>, Option<FingerprintCost>) {
        let cost = std::cell::Cell::new(None);
        let key = self
            .inner
            .fingerprint
            .get_or_init(|| {
                let (key, determinize) = canonical_key_counted(&self.inner.nfa);
                cost.set(Some(FingerprintCost {
                    determinize,
                    key_bytes: key.byte_len() as u64,
                }));
                Arc::new(key)
            })
            .clone();
        (key, cost.get())
    }

    /// Rough heap footprint of the wrapped machine in bytes, derived only
    /// from its shape (states and transitions), so identical machines are
    /// charged identically on every run. Used by the store's memo byte
    /// accounting.
    pub fn approx_bytes(&self) -> u64 {
        self.num_states() as u64 * STATE_BYTES + self.num_edges() as u64 * EDGE_BYTES
    }

    /// An address identifying this handle's shared allocation, stable for
    /// as long as any clone of the handle is alive. Used as the identity of
    /// per-handle cache slots (see [`MemoIdentity::Fingerprint`]); callers
    /// comparing addresses across time must hold a clone so the allocation
    /// cannot be reused.
    pub fn handle_addr(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Language-level equality: pointer equality fast path, then cached
    /// fingerprints.
    pub fn same_language(&self, other: &Lang) -> bool {
        Lang::ptr_eq(self, other) || self.fingerprint() == other.fingerprint()
    }

    /// Whether the language is empty (cached).
    pub fn is_empty_language(&self) -> bool {
        *self
            .inner
            .empty
            .get_or_init(|| self.inner.nfa.is_empty_language())
    }

    /// Whether the machine has no ε-transitions (cached).
    pub fn is_eps_free(&self) -> bool {
        *self
            .inner
            .eps_free
            .get_or_init(|| self.inner.nfa.eps_edges().next().is_none())
    }

    /// Number of states of the underlying machine.
    pub fn num_states(&self) -> usize {
        self.inner.nfa.num_states()
    }

    /// Number of byte-class transitions of the underlying machine (cached:
    /// the count walks every state).
    pub fn num_edges(&self) -> usize {
        *self
            .inner
            .edge_count
            .get_or_init(|| self.inner.nfa.num_transitions())
    }
}

/// Cost of one canonical-fingerprint computation, reported by
/// [`Lang::fingerprint_tracked_costed`] to the single caller that ran it.
#[derive(Clone, Copy, Debug)]
pub struct FingerprintCost {
    /// Subset-construction cost of the canonicalization.
    pub determinize: DeterminizeCost,
    /// Serialized key footprint in bytes.
    pub key_bytes: u64,
}

impl std::ops::Deref for Lang {
    type Target = Nfa;
    fn deref(&self) -> &Nfa {
        &self.inner.nfa
    }
}

impl From<Nfa> for Lang {
    fn from(nfa: Nfa) -> Self {
        Lang::new(nfa)
    }
}

impl From<&Nfa> for Lang {
    fn from(nfa: &Nfa) -> Self {
        Lang::new(nfa.clone())
    }
}

impl AsRef<Nfa> for Lang {
    fn as_ref(&self) -> &Nfa {
        &self.inner.nfa
    }
}

impl fmt::Debug for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lang")
            .field("states", &self.num_states())
            .field("fingerprinted", &self.fingerprint_is_cached())
            .finish()
    }
}

/// The memoized operations a [`LangStore`] performs, as reported to a
/// [`StoreObserver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Canonical-fingerprint lookup (`key_of`; a miss is one
    /// determinize+minimize pass).
    Fingerprint,
    /// Language intersection.
    Intersect,
    /// Language inclusion.
    Inclusion,
    /// Language-preserving minimization.
    Minimize,
}

impl StoreOp {
    /// Stable lower-case name (used by trace sinks and JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            StoreOp::Fingerprint => "fingerprint",
            StoreOp::Intersect => "intersect",
            StoreOp::Inclusion => "inclusion",
            StoreOp::Minimize => "minimize",
        }
    }
}

/// The identity of one memo-cache slot, as reported to
/// [`StoreObserver::memo_event_keyed`]. Two events with equal identities
/// landed on the same cache slot, which is what lets a deterministic
/// replay of a parallel run reassign hit/miss outcomes in a canonical
/// order: the first touch of a slot in replay order is the miss,
/// regardless of which thread actually won the race.
#[derive(Clone, Debug)]
pub enum MemoIdentity {
    /// A handle's per-allocation fingerprint slot. Holding the `Lang`
    /// clone pins the allocation, so the address-based identity cannot be
    /// reused while the identity is alive.
    Fingerprint(Lang),
    /// The minimization memo slot for a language.
    Minimize(Arc<CanonicalKey>),
    /// The intersection memo slot for an (unordered, pre-normalized)
    /// fingerprint pair.
    Intersect(Arc<CanonicalKey>, Arc<CanonicalKey>),
    /// The inclusion memo slot for an (ordered) fingerprint pair.
    Inclusion(Arc<CanonicalKey>, Arc<CanonicalKey>),
}

impl PartialEq for MemoIdentity {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MemoIdentity::Fingerprint(a), MemoIdentity::Fingerprint(b)) => Lang::ptr_eq(a, b),
            (MemoIdentity::Minimize(a), MemoIdentity::Minimize(b)) => a == b,
            (MemoIdentity::Intersect(a0, a1), MemoIdentity::Intersect(b0, b1)) => {
                a0 == b0 && a1 == b1
            }
            (MemoIdentity::Inclusion(a0, a1), MemoIdentity::Inclusion(b0, b1)) => {
                a0 == b0 && a1 == b1
            }
            _ => false,
        }
    }
}

impl Eq for MemoIdentity {}

impl std::hash::Hash for MemoIdentity {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            MemoIdentity::Fingerprint(l) => {
                0u8.hash(state);
                l.handle_addr().hash(state);
            }
            MemoIdentity::Minimize(k) => {
                1u8.hash(state);
                k.hash(state);
            }
            MemoIdentity::Intersect(a, b) => {
                2u8.hash(state);
                a.hash(state);
                b.hash(state);
            }
            MemoIdentity::Inclusion(a, b) => {
                3u8.hash(state);
                a.hash(state);
                b.hash(state);
            }
        }
    }
}

/// One answered inclusion query, reported to
/// [`StoreObserver::inclusion_query`] by [`LangStore::try_is_subset`].
/// Structural pre-checks (pointer equality, empty LHS, equal fingerprints)
/// answer before a query exists and are not reported.
pub struct InclusionQuery<'a> {
    /// Left-hand operand.
    pub lhs: &'a Nfa,
    /// Right-hand operand.
    pub rhs: &'a Nfa,
    /// Canonical fingerprint of the LHS, when the store computed one
    /// (`None` on the pass-through path, which never fingerprints).
    pub lhs_key: Option<&'a CanonicalKey>,
    /// Canonical fingerprint of the RHS, when the store computed one.
    pub rhs_key: Option<&'a CanonicalKey>,
    /// The memo slot this query touched, `None` for pass-through stores.
    pub identity: Option<MemoIdentity>,
    /// Whether the memo (or a lost insert race) answered the query.
    pub memo_hit: bool,
    /// Whether the search actually ran. `memo_hit && engine_ran` marks a
    /// lost insert race: the search ran but another thread's result won.
    pub engine_ran: bool,
    /// The verdict; `None` when the budget was exhausted mid-query.
    pub outcome: Option<bool>,
    /// Search work for this query (zero when the search did not run).
    pub cost: InclusionCost,
    /// Wall-clock microseconds spent answering the query.
    pub wall_us: u64,
}

/// A hook notified of every memoized-operation outcome, in addition to the
/// store's own [`StoreStats`] counters. Installed with
/// [`LangStore::set_observer`]; the solver's tracing layer uses this to
/// emit per-operation `MemoHit`/`MemoMiss` events without the automata
/// crate knowing about the trace format.
pub trait StoreObserver: Send + Sync {
    /// Called once per memoized operation with its hit/miss outcome.
    fn memo_event(&self, op: StoreOp, hit: bool);

    /// Like [`StoreObserver::memo_event`], additionally carrying the cache
    /// slot's identity when the store can name one (`None` for pass-through
    /// stores, which have no slots — every operation is a deterministic
    /// miss). The default forwards to `memo_event`, so observers that do
    /// not care about identities need not change.
    fn memo_event_keyed(&self, op: StoreOp, identity: Option<&MemoIdentity>, hit: bool) {
        let _ = identity;
        self.memo_event(op, hit);
    }

    /// Whether this observer wants per-query [`InclusionQuery`] reports.
    /// When `false` (the default) the store skips the wall-clock reads and
    /// report construction entirely, preserving the zero-cost-when-disabled
    /// contract of the query ledger.
    fn wants_queries(&self) -> bool {
        false
    }

    /// Called once per [`LangStore::try_is_subset`] query that reaches the
    /// memo table or the search, with operands, verdict, and cost. Only
    /// invoked when [`StoreObserver::wants_queries`] returns `true`.
    fn inclusion_query(&self, query: &InclusionQuery<'_>) {
        let _ = query;
    }
}

/// Counters for the interning layer, surfaced through `SolveStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Fingerprint requests answered from a handle's cache.
    pub fingerprint_hits: u64,
    /// Fingerprint requests that ran determinize+minimize.
    pub fingerprint_misses: u64,
    /// Binary operations (intersection, inclusion) answered from the memo
    /// tables.
    pub op_hits: u64,
    /// Binary operations computed directly (and, with interning enabled,
    /// recorded in the memo tables).
    pub op_misses: u64,
    /// Distinct languages hash-consed into the store.
    pub interned: u64,
    /// States of machines materialized by store-computed operations.
    pub states_materialized: u64,
    /// Approximate bytes currently retained by the memo tables and
    /// interner (shape-derived estimates; see [`Lang::approx_bytes`]).
    /// Charged only by the insert winner and released by eviction, so on
    /// an unbounded store the total is deterministic across thread counts;
    /// with a byte cap installed ([`LangStore::set_max_bytes`]) eviction
    /// order — and therefore this value — may vary with scheduling, but
    /// never answers. Fingerprint keys are not memo entries (they live on
    /// the handles) and are accounted separately under
    /// `automata.fingerprint.bytes`.
    pub memo_bytes: u64,
    /// Memo entries dropped by size-bounded LRU eviction. Zero unless a
    /// byte cap is installed.
    pub evictions: u64,
    /// Approximate bytes reclaimed by size-bounded LRU eviction.
    pub evicted_bytes: u64,
    /// Macrostates explored by store-computed inclusion queries (see
    /// [`crate::inclusion::InclusionCost`]). Incremented only by the memo
    /// insert winner, so the total is deterministic across thread counts.
    pub inclusion_macrostates: u64,
}

impl StoreStats {
    /// Total minimization passes the store triggered (each fingerprint miss
    /// is one determinize+minimize run).
    pub fn minimizations(&self) -> u64 {
        self.fingerprint_misses
    }
}

/// Request-scoped mirror of the store counters.
///
/// A shared [`LangStore`] accumulates work from every concurrent session,
/// so before/after diffs of [`LangStore::stats`] attribute neighbors' work
/// to whichever request happened to be diffing. Installing a scope with
/// [`install_stats_scope`] makes every counter bump on the *installing
/// thread* also land here, giving the request an accurate private view
/// without touching the global totals. Atomic so one scope can be shared
/// across the worker threads of a parallel solve (`--jobs N`): adds
/// commute, so scoped totals are as deterministic as the global ones.
///
/// Byte accounting is recorded as gross flows (`bytes_charged` /
/// `bytes_evicted`) rather than a net figure because eviction triggered by
/// this scope's inserts may reclaim entries charged by *other* requests;
/// [`ScopedStoreStats::net_bytes`] reproduces the store-level
/// `memo_bytes` delta exactly in a single-request window and stays
/// request-attributable under concurrency.
#[derive(Debug, Default)]
pub struct ScopedStoreStats {
    /// Fingerprint requests answered from a handle's cache.
    pub fingerprint_hits: AtomicU64,
    /// Fingerprint requests that ran determinize+minimize.
    pub fingerprint_misses: AtomicU64,
    /// Binary operations answered from the memo tables.
    pub op_hits: AtomicU64,
    /// Binary operations computed directly.
    pub op_misses: AtomicU64,
    /// States of machines materialized through the store.
    pub states_materialized: AtomicU64,
    /// Macrostates explored by inclusion queries in this scope.
    pub inclusion_macrostates: AtomicU64,
    /// Memo entries evicted while this scope was active.
    pub evictions: AtomicU64,
    /// Bytes charged for memo inserts won by this scope.
    pub bytes_charged: AtomicU64,
    /// Bytes reclaimed by evictions while this scope was active.
    pub bytes_evicted: AtomicU64,
}

impl ScopedStoreStats {
    /// Net memo-table growth observed by this scope: bytes charged minus
    /// bytes evicted, floored at zero. In a single-request window this is
    /// byte-identical to the `memo_bytes` before/after delta it replaces.
    pub fn net_bytes(&self) -> u64 {
        self.bytes_charged
            .load(Ordering::Relaxed)
            .saturating_sub(self.bytes_evicted.load(Ordering::Relaxed))
    }
}

thread_local! {
    /// The ambient stats scope of this thread, if any. An `Arc` (not a
    /// borrow) so parallel solve workers can install their spawner's scope.
    static STATS_SCOPE: RefCell<Option<Arc<ScopedStoreStats>>> = const { RefCell::new(None) };
}

/// RAII guard returned by [`install_stats_scope`]; restores the previous
/// scope (if any) on drop, so scopes nest — an unsat-core re-solve inside a
/// request keeps charging the request's scope.
pub struct StatsScopeGuard {
    prev: Option<Arc<ScopedStoreStats>>,
    /// Guards are thread-affine (thread-local state), not Send.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for StatsScopeGuard {
    fn drop(&mut self) {
        STATS_SCOPE.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// Installs `scope` as this thread's ambient stats scope until the returned
/// guard drops. Every store counter bump performed *by this thread* while
/// the guard lives is mirrored into `scope`.
pub fn install_stats_scope(scope: Arc<ScopedStoreStats>) -> StatsScopeGuard {
    let prev = STATS_SCOPE.with(|slot| slot.borrow_mut().replace(scope));
    StatsScopeGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// The calling thread's ambient stats scope, if one is installed. Parallel
/// drivers capture this before spawning workers and re-install it on each
/// worker so scoped accounting survives the thread hop.
pub fn current_stats_scope() -> Option<Arc<ScopedStoreStats>> {
    STATS_SCOPE.with(|slot| slot.borrow().clone())
}

/// Runs `bump` against the ambient scope, if any. Free when no scope is
/// installed (one TLS read); called at every `StoreStats` increment site.
fn scope_bump(bump: impl FnOnce(&ScopedStoreStats)) {
    STATS_SCOPE.with(|slot| {
        if let Some(scope) = slot.borrow().as_deref() {
            bump(scope);
        }
    });
}

/// The identity of one retained memo entry — the currency of the store's
/// LRU bookkeeping. Unlike [`MemoIdentity`] (which also names per-handle
/// fingerprint slots that the store does not retain), every variant here
/// maps to exactly one entry of one of the four memo tables, so evicting a
/// slot is an O(1) map removal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SlotKey {
    /// One hash-consed representative in the interner.
    Interned(Arc<CanonicalKey>),
    /// One intersection result, keyed by the unordered fingerprint pair.
    Intersect(Arc<CanonicalKey>, Arc<CanonicalKey>),
    /// One inclusion verdict, keyed by the ordered fingerprint pair.
    Inclusion(Arc<CanonicalKey>, Arc<CanonicalKey>),
    /// One minimized machine, keyed by the input fingerprint.
    Minimize(Arc<CanonicalKey>),
}

#[derive(Default)]
struct StoreInner {
    interned: HashMap<Arc<CanonicalKey>, Lang>,
    intersect_memo: HashMap<(Arc<CanonicalKey>, Arc<CanonicalKey>), Lang>,
    inclusion_memo: HashMap<(Arc<CanonicalKey>, Arc<CanonicalKey>), bool>,
    minimize_memo: HashMap<Arc<CanonicalKey>, Lang>,
    stats: StoreStats,
    /// Registry the store records operation costs into. Kept inside the
    /// existing mutex (no extra lock); the handle's atomic operations are
    /// no-ops when metrics are disabled, and every recording site below is
    /// winner-only (first memo writer / fingerprint computer), so totals
    /// are deterministic across thread counts.
    metrics: Metrics,
    /// Byte cap on the memo tables; `None` (the default) never evicts.
    max_bytes: Option<u64>,
    /// Monotonic access clock ordering the LRU queue.
    tick: u64,
    /// tick → slot, recency-ordered: the first entry is the next victim.
    by_recency: BTreeMap<u64, SlotKey>,
    /// slot → (last-touch tick, byte charge); mirrors the four memo maps.
    charges: HashMap<SlotKey, (u64, u64)>,
}

impl StoreInner {
    /// Publishes the current retained-bytes figure to the metrics gauge.
    /// Called after every mutation of `stats.memo_bytes` so the gauge (and
    /// its tracked peak) is continuously accurate, not a snapshot-time read.
    fn publish_memo_gauge(&mut self) {
        self.metrics
            .gauge_set(id::STORE_MEMO_BYTES, self.stats.memo_bytes);
    }

    /// Refreshes `slot`'s recency after a memo hit. No-op for slots the
    /// store does not retain (e.g. already evicted between lookup and
    /// re-check, which cannot happen under the single lock but keeps this
    /// total).
    fn touch(&mut self, slot: SlotKey) {
        self.tick += 1;
        let next = self.tick;
        let Some(entry) = self.charges.get_mut(&slot) else {
            return;
        };
        let prev = entry.0;
        entry.0 = next;
        self.by_recency.remove(&prev);
        self.by_recency.insert(next, slot);
    }

    /// Charges a freshly inserted memo entry (the caller has already put it
    /// into its table) and evicts least-recently-used entries until the
    /// store is back under its byte cap, if one is installed. The gauge is
    /// published only after eviction settles, so observers never see an
    /// over-cap figure.
    fn charge_insert(&mut self, slot: SlotKey, bytes: u64) {
        self.stats.memo_bytes += bytes;
        scope_bump(|s| {
            s.bytes_charged.fetch_add(bytes, Ordering::Relaxed);
        });
        self.tick += 1;
        let tick = self.tick;
        debug_assert!(!self.charges.contains_key(&slot), "double charge");
        self.charges.insert(slot.clone(), (tick, bytes));
        self.by_recency.insert(tick, slot);
        self.evict_over_cap();
        self.publish_memo_gauge();
    }

    /// Drops LRU entries while retained bytes exceed the cap. Each victim
    /// is removed from its owning table, its charge released, and the
    /// eviction counted in both [`StoreStats`] and the metrics registry.
    fn evict_over_cap(&mut self) {
        let Some(cap) = self.max_bytes else { return };
        while self.stats.memo_bytes > cap {
            let Some((_, slot)) = self.by_recency.pop_first() else {
                break;
            };
            let (_, bytes) = self.charges.remove(&slot).expect("charged slot");
            match &slot {
                SlotKey::Interned(k) => {
                    self.interned.remove(k);
                }
                SlotKey::Intersect(a, b) => {
                    self.intersect_memo.remove(&(a.clone(), b.clone()));
                }
                SlotKey::Inclusion(a, b) => {
                    self.inclusion_memo.remove(&(a.clone(), b.clone()));
                }
                SlotKey::Minimize(k) => {
                    self.minimize_memo.remove(k);
                }
            }
            self.stats.memo_bytes = self.stats.memo_bytes.saturating_sub(bytes);
            self.stats.evictions += 1;
            self.stats.evicted_bytes += bytes;
            scope_bump(|s| {
                s.evictions.fetch_add(1, Ordering::Relaxed);
                s.bytes_evicted.fetch_add(bytes, Ordering::Relaxed);
            });
            self.metrics.add(id::STORE_EVICTIONS, 1);
            self.metrics.add(id::STORE_EVICTED_BYTES, bytes);
        }
    }

    /// Mirrors one cache hit into the metrics registry and refreshes the
    /// slot's recency.
    fn note_hit(&mut self, slot: SlotKey) {
        self.metrics.add(id::STORE_MEMO_HITS, 1);
        self.touch(slot);
    }

    /// Mirrors one cache miss (a fresh computation) into the registry.
    fn note_miss(&mut self) {
        self.metrics.add(id::STORE_MEMO_MISSES, 1);
    }
}

/// Hash-consing interner and binary-operation memo table for [`Lang`].
///
/// All methods take `&self`; the store is internally synchronized, so one
/// store can be shared across incremental solver checks (and, later,
/// parallel branch exploration). With `interning(false)` the store becomes
/// a pass-through that computes every operation directly — the
/// `ablation_interning` benchmark compares the two modes.
pub struct LangStore {
    inner: Mutex<StoreInner>,
    /// Optional per-operation hook (hit/miss events for tracing). Kept
    /// outside `inner` so observers are notified after the store lock is
    /// released and may themselves use the store.
    observer: RwLock<Option<Arc<dyn StoreObserver>>>,
    enabled: bool,
}

impl Default for LangStore {
    fn default() -> Self {
        LangStore::new()
    }
}

impl LangStore {
    /// A store with interning and memoization enabled.
    pub fn new() -> Self {
        LangStore::interning(true)
    }

    /// A store with the caching layer toggled; `interning(false)` computes
    /// everything directly (ablation baseline).
    pub fn interning(enabled: bool) -> Self {
        LangStore {
            inner: Mutex::new(StoreInner::default()),
            observer: RwLock::new(None),
            enabled,
        }
    }

    /// A store with interning enabled and an LRU byte cap on its memo
    /// tables: whenever an insert pushes the retained estimate past
    /// `max_bytes`, least-recently-used entries are dropped until it fits.
    /// Eviction changes hit rates, never answers — an evicted entry is
    /// simply recomputed on next use.
    pub fn bounded(max_bytes: u64) -> Self {
        let store = LangStore::new();
        store.set_max_bytes(Some(max_bytes));
        store
    }

    /// Installs (or, with `None`, removes) the LRU byte cap, evicting
    /// immediately if the store is already over the new cap.
    pub fn set_max_bytes(&self, max_bytes: Option<u64>) {
        let mut inner = self.inner.lock().expect("store lock");
        inner.max_bytes = max_bytes;
        inner.evict_over_cap();
        inner.publish_memo_gauge();
    }

    /// The installed LRU byte cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.inner.lock().expect("store lock").max_bytes
    }

    /// Whether the caching layer is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Installs `observer`, replacing any previous one. Every subsequent
    /// memoized operation reports its hit/miss outcome to it (in addition
    /// to the [`StoreStats`] counters, which always accumulate).
    pub fn set_observer(&self, observer: Arc<dyn StoreObserver>) {
        *self.observer.write().expect("observer lock") = Some(observer);
    }

    /// Removes the installed observer, if any.
    pub fn clear_observer(&self) {
        *self.observer.write().expect("observer lock") = None;
    }

    /// Installs the metrics registry handle the store records operation
    /// costs into (replacing any previous one). A [`Metrics::disabled`]
    /// handle — the default — makes every recording a no-op.
    pub fn set_metrics(&self, metrics: Metrics) {
        let mut inner = self.inner.lock().expect("store lock");
        inner.metrics = metrics;
        // Seed the gauge so a registry installed after the store warmed up
        // still reports the current retained bytes.
        inner.publish_memo_gauge();
    }

    fn notify(&self, op: StoreOp, identity: Option<MemoIdentity>, hit: bool) {
        // Clone the Arc out of the read guard so the observer runs without
        // any store lock held.
        let observer = self.observer.read().expect("observer lock").clone();
        if let Some(observer) = observer {
            observer.memo_event_keyed(op, identity.as_ref(), hit);
        }
    }

    /// The installed observer when it opted into per-query reports, else
    /// `None` (the cheap common case: one lock-free-ish read, no clock).
    fn query_observer(&self) -> Option<Arc<dyn StoreObserver>> {
        let observer = self.observer.read().expect("observer lock").clone()?;
        observer.wants_queries().then_some(observer)
    }

    /// The language's fingerprint, with hit/miss accounting. The hit/miss
    /// split is race-free: [`Lang::fingerprint_tracked`] reports whether
    /// *this* call ran the canonicalization, so concurrent callers racing
    /// on one handle record exactly one miss between them — total misses
    /// equal the number of distinct handles canonicalized, independent of
    /// scheduling.
    pub fn key_of(&self, lang: &Lang) -> Arc<CanonicalKey> {
        let (key, cost) = lang.fingerprint_tracked_costed();
        let computed = cost.is_some();
        {
            let mut inner = self.inner.lock().expect("store lock");
            if let Some(cost) = cost {
                inner.stats.fingerprint_misses += 1;
                scope_bump(|s| {
                    s.fingerprint_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                // Key bytes live on the handle, not in the memo tables, so
                // they are charged to `automata.fingerprint.bytes` only —
                // the memo gauge tracks evictable entries exclusively.
                inner.metrics.add(id::FINGERPRINT_BYTES, cost.key_bytes);
                inner.metrics.add(
                    id::EPS_CLOSURE_VISITED,
                    cost.determinize.closure_visited as u64,
                );
                inner
                    .metrics
                    .observe(id::DETERMINIZE_IN, lang.num_states() as u64);
                inner
                    .metrics
                    .observe(id::DETERMINIZE_OUT, cost.determinize.dfa_states as u64);
            } else {
                inner.stats.fingerprint_hits += 1;
                scope_bump(|s| {
                    s.fingerprint_hits.fetch_add(1, Ordering::Relaxed);
                });
                inner.metrics.add(id::STORE_MEMO_HITS, 1);
            }
        }
        self.notify(
            StoreOp::Fingerprint,
            Some(MemoIdentity::Fingerprint(lang.clone())),
            !computed,
        );
        key
    }

    /// Hash-conses `lang`: returns the store's representative handle for
    /// the same language, inserting `lang` if it is new. Sharing the
    /// representative means later fingerprint and emptiness queries on any
    /// equal-language handle hit the same caches.
    pub fn intern(&self, lang: Lang) -> Lang {
        if !self.enabled {
            return lang;
        }
        let key = self.key_of(&lang);
        let mut inner = self.inner.lock().expect("store lock");
        if let Some(existing) = inner.interned.get(&key) {
            let existing = existing.clone();
            inner.touch(SlotKey::Interned(key));
            return existing;
        }
        inner.stats.interned += 1;
        inner.interned.insert(key.clone(), lang.clone());
        inner.charge_insert(SlotKey::Interned(key), lang.approx_bytes());
        lang
    }

    /// Memoized language intersection. The memo key is the unordered
    /// fingerprint pair (intersection is commutative on languages), so
    /// `intersect(a, b)` and `intersect(b, a)` share one entry.
    pub fn intersect(&self, a: &Lang, b: &Lang) -> Lang {
        if !self.enabled {
            let (nfa, cost) = ops::intersect_lang_counted(a.nfa(), b.nfa());
            let result = Lang::new(nfa);
            {
                let mut inner = self.inner.lock().expect("store lock");
                inner.stats.op_misses += 1;
                scope_bump(|s| {
                    s.op_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                inner.stats.states_materialized += result.num_states() as u64;
                scope_bump(|s| {
                    s.states_materialized
                        .fetch_add(result.num_states() as u64, Ordering::Relaxed);
                });
                record_intersect_cost(&inner.metrics, &cost, &result);
            }
            self.notify(StoreOp::Intersect, None, false);
            return result;
        }
        let (ka, kb) = (self.key_of(a), self.key_of(b));
        let key = if ka <= kb { (ka, kb) } else { (kb, ka) };
        let identity = || MemoIdentity::Intersect(key.0.clone(), key.1.clone());
        if let Some(hit) = self.lookup_intersect(&key) {
            self.notify(StoreOp::Intersect, Some(identity()), true);
            return hit;
        }
        let (nfa, cost) = ops::intersect_lang_counted(a.nfa(), b.nfa());
        let result = Lang::new(nfa);
        let (result, hit) = {
            let mut inner = self.inner.lock().expect("store lock");
            // Re-check under the insert lock: a concurrent caller may have
            // computed the same operation since our lookup missed. Keep the
            // first representative so every equal-language handle is shared,
            // and count the race as a hit, not a second miss. Cost metrics
            // follow the same rule: only the insert winner records, so the
            // recorded totals match the deterministic memo contents rather
            // than the scheduling-dependent set of racers.
            if let Some(existing) = inner.intersect_memo.get(&key).cloned() {
                inner.stats.op_hits += 1;
                scope_bump(|s| {
                    s.op_hits.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_hit(SlotKey::Intersect(key.0.clone(), key.1.clone()));
                (existing, true)
            } else {
                inner.stats.op_misses += 1;
                scope_bump(|s| {
                    s.op_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                inner.stats.states_materialized += result.num_states() as u64;
                scope_bump(|s| {
                    s.states_materialized
                        .fetch_add(result.num_states() as u64, Ordering::Relaxed);
                });
                record_intersect_cost(&inner.metrics, &cost, &result);
                inner.intersect_memo.insert(key.clone(), result.clone());
                inner.charge_insert(
                    SlotKey::Intersect(key.0.clone(), key.1.clone()),
                    result.approx_bytes(),
                );
                (result, false)
            }
        };
        self.notify(StoreOp::Intersect, Some(identity()), hit);
        result
    }

    fn lookup_intersect(&self, key: &(Arc<CanonicalKey>, Arc<CanonicalKey>)) -> Option<Lang> {
        let mut inner = self.inner.lock().expect("store lock");
        let hit = inner.intersect_memo.get(key).cloned();
        if hit.is_some() {
            inner.stats.op_hits += 1;
            scope_bump(|s| {
                s.op_hits.fetch_add(1, Ordering::Relaxed);
            });
            inner.note_hit(SlotKey::Intersect(key.0.clone(), key.1.clone()));
        }
        hit
    }

    /// Memoized language inclusion (`a ⊆ b`), keyed by the ordered
    /// fingerprint pair and decided by [`crate::inclusion::try_subset`].
    /// Unlimited: see [`LangStore::try_is_subset`] for the
    /// budget-enforcing variant.
    pub fn is_subset(&self, a: &Lang, b: &Lang) -> bool {
        self.try_is_subset(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited inclusion cannot abort")
    }

    /// Budgeted [`LangStore::is_subset`]: structural pre-checks and memo
    /// hits answer for free; an actual search observes `limits` inside
    /// its frontier loop. A breach memoizes nothing (a later unbudgeted
    /// retry recomputes), but the partial work is still recorded into the
    /// metrics registry so an exhaustion snapshot reflects it.
    pub fn try_is_subset(
        &self,
        a: &Lang,
        b: &Lang,
        limits: &InclusionLimits,
    ) -> Result<bool, InclusionAbort> {
        if Lang::ptr_eq(a, b) {
            return Ok(true);
        }
        // Structural pre-check: ∅ ⊆ L(b). The emptiness bit is cached on
        // the handle, so this is O(1) after first touch and deterministic
        // across thread counts.
        if a.is_empty_language() {
            return Ok(true);
        }
        // Per-query reporting (the cost ledger) is opt-in: a disabled
        // ledger costs one observer read here and no clock reads at all.
        let reporter = self.query_observer();
        let started = reporter.as_ref().map(|_| std::time::Instant::now());
        let report = |keys: Option<(&Arc<CanonicalKey>, &Arc<CanonicalKey>)>,
                      identity: Option<MemoIdentity>,
                      memo_hit: bool,
                      engine_ran: bool,
                      outcome: Option<bool>,
                      cost: InclusionCost| {
            if let Some(observer) = &reporter {
                observer.inclusion_query(&InclusionQuery {
                    lhs: a.nfa(),
                    rhs: b.nfa(),
                    lhs_key: keys.map(|(k, _)| &**k),
                    rhs_key: keys.map(|(_, k)| &**k),
                    identity,
                    memo_hit,
                    engine_ran,
                    outcome,
                    cost,
                    wall_us: started.map_or(0, |t| t.elapsed().as_micros() as u64),
                });
            }
        };
        if !self.enabled {
            let (result, cost) = match inclusion::try_subset(a.nfa(), b.nfa(), limits) {
                Ok(computed) => computed,
                Err(abort) => {
                    self.record_partial_inclusion(abort.cost());
                    report(None, None, false, true, None, abort.cost());
                    return Err(abort);
                }
            };
            {
                let mut inner = self.inner.lock().expect("store lock");
                inner.stats.op_misses += 1;
                scope_bump(|s| {
                    s.op_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                record_inclusion_cost(&mut inner, &cost);
            }
            report(None, None, false, true, Some(result), cost);
            self.notify(StoreOp::Inclusion, None, false);
            return Ok(result);
        }
        let key = (self.key_of(a), self.key_of(b));
        if key.0 == key.1 {
            // Second pre-check: equal fingerprints mean equal languages,
            // so the inclusion holds without a search.
            return Ok(true);
        }
        let identity = || MemoIdentity::Inclusion(key.0.clone(), key.1.clone());
        {
            let hit = {
                let mut inner = self.inner.lock().expect("store lock");
                let hit = inner.inclusion_memo.get(&key).copied();
                if hit.is_some() {
                    inner.stats.op_hits += 1;
                    scope_bump(|s| {
                        s.op_hits.fetch_add(1, Ordering::Relaxed);
                    });
                    inner.note_hit(SlotKey::Inclusion(key.0.clone(), key.1.clone()));
                }
                hit
            };
            if let Some(hit) = hit {
                report(
                    Some((&key.0, &key.1)),
                    Some(identity()),
                    true,
                    false,
                    Some(hit),
                    InclusionCost::default(),
                );
                self.notify(StoreOp::Inclusion, Some(identity()), true);
                return Ok(hit);
            }
        }
        let (result, cost) = match inclusion::try_subset(a.nfa(), b.nfa(), limits) {
            Ok(computed) => computed,
            Err(abort) => {
                self.record_partial_inclusion(abort.cost());
                report(
                    Some((&key.0, &key.1)),
                    Some(identity()),
                    false,
                    true,
                    None,
                    abort.cost(),
                );
                return Err(abort);
            }
        };
        let hit = {
            let mut inner = self.inner.lock().expect("store lock");
            // Same race re-check as `intersect`: first writer wins the
            // entry, and only the winner records the search cost, so the
            // totals stay deterministic across thread counts.
            if inner.inclusion_memo.contains_key(&key) {
                inner.stats.op_hits += 1;
                scope_bump(|s| {
                    s.op_hits.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_hit(SlotKey::Inclusion(key.0.clone(), key.1.clone()));
                true
            } else {
                inner.stats.op_misses += 1;
                scope_bump(|s| {
                    s.op_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                record_inclusion_cost(&mut inner, &cost);
                inner.inclusion_memo.insert(key.clone(), result);
                inner.charge_insert(
                    SlotKey::Inclusion(key.0.clone(), key.1.clone()),
                    INCLUSION_ENTRY_BYTES,
                );
                false
            }
        };
        report(
            Some((&key.0, &key.1)),
            Some(identity()),
            hit,
            true,
            Some(result),
            cost,
        );
        self.notify(StoreOp::Inclusion, Some(identity()), hit);
        Ok(result)
    }

    /// Folds an aborted inclusion run's partial cost into the metrics (but
    /// never into the memo): the exhaustion snapshot carries the wasted
    /// frontier work.
    fn record_partial_inclusion(&self, cost: InclusionCost) {
        let mut inner = self.inner.lock().expect("store lock");
        record_inclusion_cost(&mut inner, &cost);
    }

    /// Memoized language-preserving minimization, keyed by fingerprint.
    pub fn minimized(&self, a: &Lang) -> Lang {
        if !self.enabled {
            let (nfa, det) = minimize_counted(a.nfa());
            let result = Lang::new(nfa);
            {
                let mut inner = self.inner.lock().expect("store lock");
                inner.stats.op_misses += 1;
                scope_bump(|s| {
                    s.op_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                inner.stats.states_materialized += result.num_states() as u64;
                scope_bump(|s| {
                    s.states_materialized
                        .fetch_add(result.num_states() as u64, Ordering::Relaxed);
                });
                record_minimize_cost(&inner.metrics, a, &det, &result);
            }
            self.notify(StoreOp::Minimize, None, false);
            return result;
        }
        let key = self.key_of(a);
        {
            let hit = {
                let mut inner = self.inner.lock().expect("store lock");
                let hit = inner.minimize_memo.get(&key).cloned();
                if hit.is_some() {
                    inner.stats.op_hits += 1;
                    scope_bump(|s| {
                        s.op_hits.fetch_add(1, Ordering::Relaxed);
                    });
                    inner.note_hit(SlotKey::Minimize(key.clone()));
                }
                hit
            };
            if let Some(hit) = hit {
                self.notify(StoreOp::Minimize, Some(MemoIdentity::Minimize(key)), true);
                return hit;
            }
        }
        let (nfa, det) = minimize_counted(a.nfa());
        let result = Lang::new(nfa);
        let (result, hit) = {
            let mut inner = self.inner.lock().expect("store lock");
            // Same race re-check as `intersect`: first writer wins the entry.
            if let Some(existing) = inner.minimize_memo.get(&key).cloned() {
                inner.stats.op_hits += 1;
                scope_bump(|s| {
                    s.op_hits.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_hit(SlotKey::Minimize(key.clone()));
                (existing, true)
            } else {
                inner.stats.op_misses += 1;
                scope_bump(|s| {
                    s.op_misses.fetch_add(1, Ordering::Relaxed);
                });
                inner.note_miss();
                inner.stats.states_materialized += result.num_states() as u64;
                scope_bump(|s| {
                    s.states_materialized
                        .fetch_add(result.num_states() as u64, Ordering::Relaxed);
                });
                record_minimize_cost(&inner.metrics, a, &det, &result);
                inner.minimize_memo.insert(key.clone(), result.clone());
                inner.charge_insert(SlotKey::Minimize(key.clone()), result.approx_bytes());
                (result, false)
            }
        };
        self.notify(StoreOp::Minimize, Some(MemoIdentity::Minimize(key)), hit);
        result
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().expect("store lock").stats
    }

    /// Adds `states` to the materialization counter (for machines built by
    /// the solver outside the store's own operations).
    pub fn note_materialized(&self, states: usize) {
        let mut inner = self.inner.lock().expect("store lock");
        inner.stats.states_materialized += states as u64;
        scope_bump(|s| {
            s.states_materialized
                .fetch_add(states as u64, Ordering::Relaxed);
        });
        inner.metrics.add(id::STORE_MATERIALIZED, states as u64);
    }
}

/// Records one computed inclusion query's cost: macrostates explored, the
/// final antichain size, and subsumption prunes. Called winner-only on the
/// success path and once on the abort path.
fn record_inclusion_cost(inner: &mut StoreInner, cost: &InclusionCost) {
    inner.stats.inclusion_macrostates += cost.macrostates;
    scope_bump(|s| {
        s.inclusion_macrostates
            .fetch_add(cost.macrostates, Ordering::Relaxed);
    });
    inner
        .metrics
        .add(id::INCLUSION_MACROSTATES, cost.macrostates);
    inner
        .metrics
        .observe(id::INCLUSION_ANTICHAIN_SIZE, cost.antichain_size);
    inner.metrics.add(id::INCLUSION_PRUNES, cost.prunes);
}

/// Records one computed intersection's cost: product states explored vs.
/// reachable after trimming, plus the materialized result.
fn record_intersect_cost(metrics: &Metrics, cost: &ops::IntersectCost, result: &Lang) {
    metrics.add(id::INTERSECT_PRODUCTS, cost.explored as u64);
    metrics.observe(id::INTERSECT_EXPLORED, cost.explored as u64);
    metrics.observe(id::INTERSECT_REACHABLE, cost.reachable as u64);
    metrics.add(id::STORE_MATERIALIZED, result.num_states() as u64);
}

/// Records one computed minimization's cost: the determinization blowup
/// (input NFA states → subset-construction states), ε-closure work, and the
/// materialized result.
fn record_minimize_cost(metrics: &Metrics, input: &Lang, det: &DeterminizeCost, result: &Lang) {
    metrics.observe(id::DETERMINIZE_IN, input.num_states() as u64);
    metrics.observe(id::DETERMINIZE_OUT, det.dfa_states as u64);
    metrics.add(id::EPS_CLOSURE_VISITED, det.closure_visited as u64);
    metrics.add(id::STORE_MATERIALIZED, result.num_states() as u64);
}

impl fmt::Debug for LangStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LangStore")
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::equivalent;

    fn ab_star() -> Nfa {
        ops::star(&Nfa::from_words([b"ab".as_slice()]))
    }

    #[test]
    fn handles_share_the_fingerprint() {
        let l = Lang::new(ab_star());
        let l2 = l.clone();
        assert!(!l2.fingerprint_is_cached());
        let k = l.fingerprint();
        assert!(l2.fingerprint_is_cached(), "clones share the cache");
        assert_eq!(k, l2.fingerprint());
    }

    #[test]
    fn same_language_matches_equivalence() {
        let a = Lang::new(ab_star());
        let b = Lang::new(ab_star().normalize());
        let c = Lang::new(Nfa::literal(b"ab"));
        assert!(a.same_language(&b));
        assert!(!a.same_language(&c));
        assert!(equivalent(a.nfa(), b.nfa()));
    }

    #[test]
    fn interning_returns_one_representative() {
        let store = LangStore::new();
        let a = store.intern(Lang::new(ab_star()));
        let b = store.intern(Lang::new(ab_star().normalize()));
        assert!(Lang::ptr_eq(&a, &b));
        assert_eq!(store.stats().interned, 1);
    }

    #[test]
    fn intersect_is_memoized_and_correct() {
        let store = LangStore::new();
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        let first = store.intersect(&a, &b);
        let again = store.intersect(&b, &a);
        assert!(Lang::ptr_eq(&first, &again), "commutative memo hit");
        assert!(equivalent(
            first.nfa(),
            &ops::intersect_lang(a.nfa(), b.nfa())
        ));
        let stats = store.stats();
        assert_eq!((stats.op_hits, stats.op_misses), (1, 1));
    }

    #[test]
    fn inclusion_is_memoized() {
        let store = LangStore::new();
        let small = Lang::new(Nfa::literal(b"ab"));
        let big = Lang::new(ab_star());
        assert!(store.is_subset(&small, &big));
        assert!(store.is_subset(&small, &big));
        assert!(!store.is_subset(&big, &small));
        let stats = store.stats();
        assert_eq!(stats.op_hits, 1);
    }

    #[test]
    fn disabled_store_still_computes() {
        let store = LangStore::interning(false);
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        let first = store.intersect(&a, &b);
        let again = store.intersect(&a, &b);
        assert!(!Lang::ptr_eq(&first, &again), "no memo when disabled");
        assert!(equivalent(first.nfa(), again.nfa()));
        assert!(store.is_subset(&a, &a));
    }

    #[test]
    fn observer_sees_every_memoized_operation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counting {
            hits: AtomicUsize,
            misses: AtomicUsize,
        }
        impl StoreObserver for Counting {
            fn memo_event(&self, _op: StoreOp, hit: bool) {
                if hit {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let store = LangStore::new();
        let observer = Arc::new(Counting::default());
        store.set_observer(observer.clone());
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        store.intersect(&a, &b);
        store.intersect(&a, &b);
        let stats = store.stats();
        // Observer totals match the store's own counters exactly.
        assert_eq!(
            observer.hits.load(Ordering::Relaxed) as u64,
            stats.op_hits + stats.fingerprint_hits
        );
        assert_eq!(
            observer.misses.load(Ordering::Relaxed) as u64,
            stats.op_misses + stats.fingerprint_misses
        );
        // After clearing, operations stop reporting.
        store.clear_observer();
        let before =
            observer.hits.load(Ordering::Relaxed) + observer.misses.load(Ordering::Relaxed);
        store.minimized(&a);
        let after = observer.hits.load(Ordering::Relaxed) + observer.misses.load(Ordering::Relaxed);
        assert_eq!(before, after);
    }

    #[test]
    fn fingerprint_tracked_reports_one_computation_per_handle() {
        let l = Lang::new(ab_star());
        let (k1, computed1) = l.fingerprint_tracked();
        let (k2, computed2) = l.clone().fingerprint_tracked();
        assert!(computed1, "first call canonicalizes");
        assert!(!computed2, "clones share the cached key");
        assert_eq!(k1, k2);
        // Concurrent first touches: exactly one caller computes.
        let fresh = Lang::new(ab_star());
        let computed_count = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (_, computed) = fresh.fingerprint_tracked();
                    if computed {
                        computed_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(computed_count.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    // False positive: `MemoIdentity` hashes by handle address and
    // immutable `Arc<CanonicalKey>`s, not through `Lang`'s interior cache.
    #[allow(clippy::mutable_key_type)]
    fn memo_identity_distinguishes_slots() {
        use std::collections::HashSet;
        let a = Lang::new(ab_star());
        let b = a.clone();
        let c = Lang::new(ab_star());
        // Clones share a slot; a fresh structurally-equal handle does not.
        assert_eq!(
            MemoIdentity::Fingerprint(a.clone()),
            MemoIdentity::Fingerprint(b.clone())
        );
        assert_ne!(
            MemoIdentity::Fingerprint(a.clone()),
            MemoIdentity::Fingerprint(c.clone())
        );
        let ka = a.fingerprint();
        let kc = c.fingerprint();
        assert_eq!(
            MemoIdentity::Minimize(ka.clone()),
            MemoIdentity::Minimize(kc.clone()),
            "value-keyed slots compare by language"
        );
        assert_ne!(
            MemoIdentity::Minimize(ka.clone()),
            MemoIdentity::Intersect(ka.clone(), kc.clone())
        );
        let mut set = HashSet::new();
        set.insert(MemoIdentity::Fingerprint(a));
        set.insert(MemoIdentity::Fingerprint(b));
        set.insert(MemoIdentity::Fingerprint(c));
        set.insert(MemoIdentity::Minimize(ka));
        set.insert(MemoIdentity::Minimize(kc));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn keyed_observer_receives_slot_identities() {
        #[derive(Default)]
        struct Recording {
            identities: Mutex<Vec<(StoreOp, Option<MemoIdentity>, bool)>>,
        }
        impl StoreObserver for Recording {
            fn memo_event(&self, _op: StoreOp, _hit: bool) {}
            fn memo_event_keyed(&self, op: StoreOp, identity: Option<&MemoIdentity>, hit: bool) {
                self.identities
                    .lock()
                    .expect("recording")
                    .push((op, identity.cloned(), hit));
            }
        }
        let store = LangStore::new();
        let observer = Arc::new(Recording::default());
        store.set_observer(observer.clone());
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        store.intersect(&a, &b);
        store.intersect(&b, &a);
        let events = observer.identities.lock().expect("recording").clone();
        // Every enabled-store event carries an identity.
        assert!(events.iter().all(|(_, id, _)| id.is_some()));
        let intersects: Vec<_> = events
            .iter()
            .filter(|(op, _, _)| *op == StoreOp::Intersect)
            .collect();
        assert_eq!(intersects.len(), 2);
        assert_eq!(
            intersects[0].1, intersects[1].1,
            "commuted operands land on one slot"
        );
        assert!(!intersects[0].2, "first touch misses");
        assert!(intersects[1].2, "second touch hits");
        // A pass-through store reports no identities.
        let plain = LangStore::interning(false);
        plain.set_observer(observer.clone());
        plain.intersect(&a, &b);
        let last = observer
            .identities
            .lock()
            .expect("recording")
            .last()
            .cloned()
            .expect("event recorded");
        assert!(last.1.is_none());
    }

    #[test]
    fn inclusion_answers_and_counts_search_work() {
        let store = LangStore::new();
        let small = Lang::new(Nfa::literal(b"ab"));
        let big = Lang::new(ab_star());
        assert!(store.is_subset(&small, &big));
        assert!(!store.is_subset(&big, &small));
        assert!(
            store.stats().inclusion_macrostates > 0,
            "search work must be counted"
        );
    }

    #[test]
    fn structural_prechecks_skip_engine_work() {
        let store = LangStore::new();
        let empty = Lang::new(Nfa::empty_language());
        let big = Lang::new(ab_star());
        let same = Lang::new(ab_star().normalize());
        assert!(store.is_subset(&empty, &big), "∅ ⊆ L");
        assert!(store.is_subset(&big, &big), "ptr-equal handles");
        assert!(store.is_subset(&big, &same), "equal fingerprints");
        let stats = store.stats();
        assert_eq!(stats.inclusion_macrostates, 0, "no search ran");
        assert_eq!(stats.op_misses, 0, "no memo entry was needed");
    }

    #[test]
    fn budgeted_inclusion_aborts_without_memoizing() {
        let store = LangStore::new();
        let metrics = Metrics::enabled();
        store.set_metrics(metrics.clone());
        let a = Lang::new(Nfa::sigma_star());
        let b = Lang::new(ab_star());
        let limits = InclusionLimits {
            max_macrostates: Some(1),
            deadline: None,
        };
        let err = store
            .try_is_subset(&a, &b, &limits)
            .expect_err("cap of 1 must trip");
        assert!(matches!(
            err,
            InclusionAbort::MacrostateCap { limit: 1, .. }
        ));
        // Partial work landed in the metrics snapshot, not in the memo.
        let snap = metrics.snapshot().expect("enabled registry");
        match snap
            .get("automata.inclusion.macrostates")
            .expect("def")
            .value
        {
            crate::metrics::MetricValue::Counter { value } => assert!(value > 0),
            ref other => panic!("counter expected, got {other:?}"),
        }
        assert_eq!(store.stats().op_misses, 0, "aborts memoize nothing");
        // The same query completes once the budget is lifted.
        assert!(!store.is_subset(&a, &b));
    }

    #[test]
    fn memo_bytes_grow_only_on_insert_wins() {
        let store = LangStore::new();
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        store.intersect(&a, &b);
        let after_first = store.stats().memo_bytes;
        assert!(after_first > 0, "the memo entry was charged");
        store.intersect(&b, &a);
        assert_eq!(store.stats().memo_bytes, after_first, "hits charge nothing");
        store.is_subset(&a, &b);
        assert_eq!(
            store.stats().memo_bytes,
            after_first + INCLUSION_ENTRY_BYTES
        );
    }

    #[test]
    fn store_records_costs_into_an_installed_registry() {
        let store = LangStore::new();
        let metrics = Metrics::enabled();
        store.set_metrics(metrics.clone());
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        store.intersect(&a, &b);
        store.intersect(&a, &b); // memo hit: records nothing new
        let snap = metrics.snapshot().expect("enabled registry");
        let counter = |name: &str| match snap.get(name).expect(name).value {
            crate::metrics::MetricValue::Counter { value } => value,
            ref other => panic!("{name} is {other:?}"),
        };
        assert!(counter("automata.intersect.products") > 0);
        assert!(counter("automata.fingerprint.bytes") > 0);
        assert!(counter("automata.eps_closure.visited_states") > 0);
        let (value, peak) = match snap.get("core.store.memo_bytes").expect("gauge").value {
            crate::metrics::MetricValue::Gauge { value, peak } => (value, peak),
            ref other => panic!("core.store.memo_bytes is {other:?}"),
        };
        assert_eq!(
            value,
            store.stats().memo_bytes,
            "registry and StoreStats agree on the byte accounting"
        );
        assert_eq!(peak, value, "no eviction: the gauge only ever grew");
        // Hit/miss mirrors match the store's own counters.
        let stats = store.stats();
        assert_eq!(
            counter("core.store.memo_hits"),
            stats.fingerprint_hits + stats.op_hits
        );
        assert_eq!(
            counter("core.store.memo_misses"),
            stats.fingerprint_misses + stats.op_misses
        );
        assert_eq!(counter("core.store.evictions"), 0);
    }

    #[test]
    fn bounded_store_evicts_lru_and_stays_under_cap() {
        let store = LangStore::bounded(1); // every insert immediately over cap
        let metrics = Metrics::enabled();
        store.set_metrics(metrics.clone());
        assert_eq!(store.max_bytes(), Some(1));
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        store.intersect(&a, &b);
        store.is_subset(&a, &b);
        let stats = store.stats();
        assert!(stats.memo_bytes <= 1, "cap is enforced after every insert");
        assert!(stats.evictions > 0, "inserts were evicted");
        assert!(stats.evicted_bytes > 0);
        // Evicted entries recompute instead of hitting.
        let before = store.stats().op_misses;
        store.intersect(&a, &b);
        assert_eq!(
            store.stats().op_misses,
            before + 1,
            "the evicted entry is a miss again"
        );
        // Answers are unchanged by eviction.
        assert!(!store.is_subset(&Lang::new(ab_star()), &b));
        let snap = metrics.snapshot().expect("enabled registry");
        let counter = |name: &str| match snap.get(name).expect(name).value {
            crate::metrics::MetricValue::Counter { value } => value,
            ref other => panic!("{name} is {other:?}"),
        };
        assert_eq!(counter("core.store.evictions"), store.stats().evictions);
        assert_eq!(
            counter("core.store.evicted_bytes"),
            store.stats().evicted_bytes
        );
        match snap.get("core.store.memo_bytes").expect("gauge").value {
            crate::metrics::MetricValue::Gauge { value, peak } => {
                assert!(value <= 1, "published gauge respects the cap");
                assert!(peak <= 1, "gauge is published only after eviction settles");
            }
            ref other => panic!("gauge expected, got {other:?}"),
        }
    }

    #[test]
    fn lru_eviction_keeps_recently_touched_entries() {
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        let c = Lang::new(Nfa::length_between(0, 2));
        // Size the cap so both intersection results fit, but nothing else.
        let probe = LangStore::new();
        let ab = probe.intersect(&a, &b).approx_bytes();
        let ac = probe.intersect(&a, &c).approx_bytes();
        let store = LangStore::new();
        store.set_max_bytes(Some(ab + ac));
        store.intersect(&a, &b);
        store.intersect(&a, &c);
        // Touch (a, b) so (a, c) is now least recently used.
        store.intersect(&a, &b);
        let hits_before = store.stats().op_hits;
        // A third entry forces an eviction: (a, c) must be the victim.
        store.is_subset(&c, &a);
        assert!(store.stats().evictions > 0, "cap forced an eviction");
        store.intersect(&a, &b);
        assert_eq!(
            store.stats().op_hits,
            hits_before + 1,
            "recently-touched entry survived"
        );
        let misses_before = store.stats().op_misses;
        store.intersect(&a, &c);
        assert_eq!(
            store.stats().op_misses,
            misses_before + 1,
            "LRU entry was evicted"
        );
    }

    #[test]
    fn set_max_bytes_evicts_immediately_and_lifts() {
        let store = LangStore::new();
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        store.intersect(&a, &b);
        assert!(store.stats().memo_bytes > 0);
        store.set_max_bytes(Some(0));
        assert_eq!(store.stats().memo_bytes, 0, "everything evicted");
        assert!(store.stats().evictions > 0);
        store.set_max_bytes(None);
        assert_eq!(store.max_bytes(), None);
        let evictions = store.stats().evictions;
        store.intersect(&a, &b);
        store.is_subset(&a, &b);
        assert_eq!(
            store.stats().evictions,
            evictions,
            "unbounded again: no further eviction"
        );
    }

    #[test]
    fn cached_properties_match_direct_computation() {
        let l = Lang::new(ab_star());
        assert_eq!(l.is_empty_language(), l.nfa().is_empty_language());
        assert_eq!(l.num_edges(), l.nfa().num_transitions());
        assert!(!l.is_eps_free(), "star introduces ε-edges");
        assert!(Lang::new(Nfa::literal(b"x")).is_eps_free());
    }
}
