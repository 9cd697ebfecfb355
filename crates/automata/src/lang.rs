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
//! layers hash-consing (one representative handle per distinct language),
//! a structure table that lets a fresh handle of a machine the store has
//! canonicalized before take that key without canonicalizing, and
//! memoization of the binary operations the solver runs repeatedly
//! (intersection, inclusion) keyed by operand fingerprints, with counters
//! that the solver surfaces as cache observability stats.

use crate::dfa::DeterminizeCost;
use crate::inclusion::{self, InclusionAbort, InclusionCost, InclusionLimits};
use crate::metrics::{id, Metrics};
use crate::minimize::{
    canonical_key_counted, minimize_counted, try_canonical_key_counted, CanonicalKey,
};
use crate::nfa::Nfa;
use crate::ops;
use crate::subset;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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
        Lang::with_fingerprint(nfa, OnceLock::new())
    }

    /// Wraps a machine with its fingerprint slot, which holds the key
    /// already when the caller knows it.
    fn with_fingerprint(nfa: Nfa, fingerprint: OnceLock<Arc<CanonicalKey>>) -> Self {
        Lang {
            inner: Arc::new(LangInner {
                nfa,
                fingerprint,
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
        let mut computed = None;
        let key = self
            .inner
            .fingerprint
            .get_or_init(|| {
                let (key, determinize) = canonical_key_counted(&self.inner.nfa);
                computed = Some(FingerprintCost {
                    determinize,
                    key_bytes: key.byte_len() as u64,
                });
                Arc::new(key)
            })
            .clone();
        (key, computed)
    }

    /// [`Lang::fingerprint_tracked_costed`] under a cap: `None`, keying
    /// nothing, when the canonicalization would number more than
    /// `max_states` DFA states. A capped canonicalization runs outside the
    /// handle's `OnceLock`, so racing callers may both compute; the one
    /// whose key the handle keeps observes the cost.
    fn try_fingerprint_tracked_costed(
        &self,
        max_states: usize,
    ) -> Option<(Arc<CanonicalKey>, Option<FingerprintCost>)> {
        if max_states == usize::MAX {
            return Some(self.fingerprint_tracked_costed());
        }
        if let Some(key) = self.inner.fingerprint.get() {
            return Some((key.clone(), None));
        }
        let (key, determinize) = try_canonical_key_counted(&self.inner.nfa, max_states)?;
        let cost = FingerprintCost {
            determinize,
            key_bytes: key.byte_len() as u64,
        };
        let key = Arc::new(key);
        let kept = self.inner.fingerprint.get_or_init(|| key.clone()).clone();
        let won = Arc::ptr_eq(&kept, &key);
        Some((kept, won.then_some(cost)))
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
/// [`StoreObserver::memo_event`]. Two events with equal identities
/// landed on the same cache slot, which is what lets a deterministic
/// replay of a parallel run reassign hit/miss outcomes in a canonical
/// order: the first touch of a slot in replay order is the miss,
/// regardless of which thread actually won the race.
#[derive(Clone, Debug)]
pub enum MemoIdentity {
    /// A fingerprint lookup on `handle`. With a structure table (an
    /// interning store) the slot is the handle's machine: `structure` is
    /// its digest, and identities compare by digest, then by machine, so
    /// every handle of one machine names one slot, as the table does. A
    /// pass-through store has no table, `structure` is `None`, and the slot
    /// is the handle itself (holding the clone pins its address). `keyed`
    /// says whether the lookup found the handle without a key, as opposed
    /// to answering from the handle's own cache; it is not part of the
    /// slot.
    Fingerprint {
        /// The handle looked up.
        handle: Lang,
        /// The digest of the handle's machine, when the store has a
        /// structure table.
        structure: Option<u64>,
        /// Whether the handle had no key when the lookup began.
        keyed: bool,
    },
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
            (
                MemoIdentity::Fingerprint {
                    handle: a,
                    structure: da,
                    ..
                },
                MemoIdentity::Fingerprint {
                    handle: b,
                    structure: db,
                    ..
                },
            ) => match (da, db) {
                (Some(da), Some(db)) => da == db && (Lang::ptr_eq(a, b) || a.nfa() == b.nfa()),
                (None, None) => Lang::ptr_eq(a, b),
                _ => false,
            },
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

impl Hash for MemoIdentity {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            MemoIdentity::Fingerprint {
                handle, structure, ..
            } => {
                0u8.hash(state);
                state.write_u64(structure.unwrap_or(handle.handle_addr() as u64));
            }
            MemoIdentity::Minimize(k) => {
                1u8.hash(state);
                state.write_u64(k.digest());
            }
            MemoIdentity::Intersect(a, b) => {
                2u8.hash(state);
                state.write_u64(a.digest());
                state.write_u64(b.digest());
            }
            MemoIdentity::Inclusion(a, b) => {
                3u8.hash(state);
                state.write_u64(a.digest());
                state.write_u64(b.digest());
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

/// A hook notified of every memoized-operation outcome a [`StoreScope`]
/// counts. The scope carries it (see [`StoreScope::new`]), so each
/// request's observer hears exactly the request's own operations; the
/// solver's tracing layer uses this to emit per-operation
/// `MemoHit`/`MemoMiss` events and cost-ledger records without the
/// automata crate knowing about either format.
pub trait StoreObserver: Send + Sync {
    /// Called once per memoized operation with its hit/miss outcome and
    /// the cache slot's identity, when the store can name one (`None` for
    /// pass-through stores, which have no slots: every operation is a
    /// deterministic miss).
    fn memo_event(&self, op: StoreOp, identity: Option<&MemoIdentity>, hit: bool);

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

/// Counters for the interning layer. One set, two instances: a store's
/// running totals ([`LangStore::stats`]) and a request's share of them
/// ([`StoreScope::stats`]), which the solver surfaces as `SolveStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Fingerprint requests answered without canonicalizing: from the
    /// handle's cache, from the store's structure table (a handle of a
    /// machine the store canonicalized before), or by a racing lookup
    /// that canonicalized the same machine first.
    pub fingerprint_hits: u64,
    /// Fingerprint requests that ran determinize+minimize for a machine
    /// the store had not canonicalized.
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
    /// Approximate bytes charged by memo-table, interner and
    /// structure-table inserts (shape-derived estimates; see
    /// [`Lang::approx_bytes`]). Only the insert winner charges, so on an
    /// unbounded store the total is deterministic across thread counts.
    /// Fingerprint keys are not memo entries (they live on the handles)
    /// and are accounted separately under `automata.fingerprint.bytes`.
    pub charged_bytes: u64,
    /// `charged_bytes` minus `evicted_bytes`, floored at zero. On a store
    /// these are the bytes its memo tables retain; with a byte cap
    /// installed ([`LangStore::set_max_bytes`]) eviction order — and
    /// therefore this value — may vary with scheduling, but never answers.
    /// In a request scope it is the request's net memo growth: eviction
    /// there may reclaim entries other requests charged, which is why the
    /// floor applies to the totals, never step by step.
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

    /// Adds one outcome to the counters.
    fn count(&mut self, tally: Tally) {
        match tally {
            Tally::Memo {
                op: StoreOp::Fingerprint,
                hit: true,
            } => self.fingerprint_hits += 1,
            Tally::Memo {
                op: StoreOp::Fingerprint,
                hit: false,
            } => self.fingerprint_misses += 1,
            Tally::Memo { hit: true, .. } => self.op_hits += 1,
            Tally::Memo { hit: false, .. } => self.op_misses += 1,
            Tally::Materialized(states) => self.states_materialized += states,
            Tally::Inclusion(cost) => self.inclusion_macrostates += cost.macrostates,
            Tally::Interned => self.interned += 1,
            Tally::Charge(bytes) => self.charged_bytes += bytes,
            Tally::Evict(bytes) => {
                self.evictions += 1;
                self.evicted_bytes += bytes;
            }
        }
        self.memo_bytes = self.charged_bytes.saturating_sub(self.evicted_bytes);
    }
}

/// One outcome a store operation counts (see `StoreInner::count`).
#[derive(Clone, Copy)]
enum Tally {
    /// A memoized operation, fingerprint lookups included, answered from
    /// a cache (`hit`) or computed fresh.
    Memo { op: StoreOp, hit: bool },
    /// States of a machine the store materialized.
    Materialized(u64),
    /// The work of one inclusion search (complete or aborted).
    Inclusion(InclusionCost),
    /// A language was hash-consed into the interner.
    Interned,
    /// A memo entry of this many bytes was inserted.
    Charge(u64),
    /// A memo entry of this many bytes was evicted.
    Evict(u64),
}

/// The request a store operation runs for: its share of the store's
/// counters and, when the request is traced or ledgered, the observer its
/// memo outcomes go to.
///
/// A shared [`LangStore`] accumulates work from every concurrent session,
/// so neither a before/after diff of [`LangStore::stats`] nor an observer
/// installed on the store can tell one request's work from a neighbor's.
/// A scope is installed per thread instead ([`StoreScope::install`]):
/// every operation *that thread* runs while the guard lives is counted in
/// the scope as well as in the store, and reported to the scope's
/// observer. Parallel drivers capture [`StoreScope::current`] before
/// spawning workers and install it on each, so one scope follows a
/// request across threads; its counts are adds that commute, so they are
/// as deterministic as the store's own.
pub struct StoreScope {
    stats: Mutex<StoreStats>,
    observer: Option<Arc<dyn StoreObserver>>,
}

thread_local! {
    /// The scope installed on this thread, if any. An `Arc` (not a
    /// borrow) so parallel solve workers can install their spawner's.
    static SCOPE: RefCell<Option<Arc<StoreScope>>> = const { RefCell::new(None) };
}

impl StoreScope {
    /// A scope with zeroed counters whose memo outcomes go to `observer`.
    pub fn new(observer: Option<Arc<dyn StoreObserver>>) -> Arc<StoreScope> {
        Arc::new(StoreScope {
            stats: Mutex::new(StoreStats::default()),
            observer,
        })
    }

    /// The store work counted in this scope so far.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("scope stats")
    }

    /// Installs `scope` on the calling thread until the returned guard
    /// drops.
    pub fn install(scope: Arc<StoreScope>) -> StoreScopeGuard {
        let prev = SCOPE.with(|slot| slot.borrow_mut().replace(scope));
        StoreScopeGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The scope installed on the calling thread, if any.
    pub fn current() -> Option<Arc<StoreScope>> {
        SCOPE.with(|slot| slot.borrow().clone())
    }

    /// The current scope's observer, if it has one.
    fn current_observer() -> Option<Arc<dyn StoreObserver>> {
        SCOPE.with(|slot| slot.borrow().as_ref()?.observer.clone())
    }
}

/// RAII guard returned by [`StoreScope::install`]; restores the previous
/// scope (if any) on drop, so scopes nest.
pub struct StoreScopeGuard {
    prev: Option<Arc<StoreScope>>,
    /// Guards are thread-affine (thread-local state), not Send.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for StoreScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// A seeded 64-bit digest of a machine's structure: its state count,
/// start, finals, and each state's edges and ε-edges in order, hashed in
/// place. Structurally equal machines (`Nfa == Nfa`) digest equally.
fn structure_digest(nfa: &Nfa) -> u64 {
    let finals = nfa.finals();
    let header = [
        nfa.num_states() as u64,
        u64::from(nfa.start().0),
        finals.len() as u64,
    ];
    let states = nfa.state_ids().map(|q| nfa.state(q)).flat_map(|state| {
        let lens = (state.edges.len() as u64) << 32 | state.eps.len() as u64;
        let edges = state.edges.iter().flat_map(|&(class, t)| {
            let [w0, w1, w2, w3] = class.words();
            [w0, w1, w2, w3, u64::from(t.0)]
        });
        std::iter::once(lens)
            .chain(edges)
            .chain(state.eps.iter().map(|t| u64::from(t.0)))
    });
    subset::hash_words(
        header
            .into_iter()
            .chain(finals.iter().map(|q| u64::from(q.0)))
            .chain(states),
    )
}

/// A canonical key as a memo-table key: hashed by its digest alone
/// ([`CanonicalKey::digest`]), compared word by word.
#[derive(Clone, Debug, PartialEq, Eq)]
struct MemoKey(Arc<CanonicalKey>);

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.digest());
    }
}

/// The hasher of the store's tables. Their keys are digests under the
/// per-process seed already, so no input can be built to collide in them,
/// and the hasher only folds them together (a pair's two digests, an
/// enum's tag) without hashing them again.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by digests, hashed by [`DigestHasher`].
type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;

/// The identity of one retained entry — the currency of the store's LRU
/// bookkeeping. Unlike [`MemoIdentity`] (which also names per-handle
/// fingerprint slots that the store does not retain), every variant here
/// maps to exactly one entry of one of the store's five tables, so
/// evicting a slot is an O(1) map removal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SlotKey {
    /// One hash-consed representative in the interner.
    Interned(MemoKey),
    /// One intersection result, keyed by the unordered fingerprint pair.
    Intersect(MemoKey, MemoKey),
    /// One inclusion verdict, keyed by the ordered fingerprint pair.
    Inclusion(MemoKey, MemoKey),
    /// One minimized machine, keyed by the input fingerprint.
    Minimize(MemoKey),
    /// One structure-table entry, keyed by its machine's digest.
    Structure(u64),
}

#[derive(Default)]
struct StoreInner {
    interned: DigestMap<MemoKey, Lang>,
    intersect_memo: DigestMap<(MemoKey, MemoKey), Lang>,
    inclusion_memo: DigestMap<(MemoKey, MemoKey), bool>,
    minimize_memo: DigestMap<MemoKey, Lang>,
    /// The structure table: a machine's digest → the fingerprinted handle
    /// that first had that machine. One entry per digest; a different
    /// machine with the same digest canonicalizes and leaves the entry be.
    structures: DigestMap<u64, Lang>,
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
    /// slot → (last-touch tick, byte charge); mirrors the five tables.
    charges: DigestMap<SlotKey, (u64, u64)>,
}

impl StoreInner {
    /// Counts one outcome in the store totals, in the current scope's
    /// share (if a scope is installed on this thread), and in the metrics
    /// registry. Every store counter moves here and nowhere else.
    fn count(&mut self, tally: Tally) {
        self.stats.count(tally);
        SCOPE.with(|slot| {
            if let Some(scope) = slot.borrow().as_deref() {
                scope.stats.lock().expect("scope stats").count(tally);
            }
        });
        let metrics = &self.metrics;
        match tally {
            Tally::Memo { hit: true, .. } => metrics.add(id::STORE_MEMO_HITS, 1),
            Tally::Memo { hit: false, .. } => metrics.add(id::STORE_MEMO_MISSES, 1),
            Tally::Materialized(states) => metrics.add(id::STORE_MATERIALIZED, states),
            Tally::Inclusion(cost) => {
                metrics.add(id::INCLUSION_MACROSTATES, cost.macrostates);
                metrics.observe(id::INCLUSION_ANTICHAIN_SIZE, cost.antichain_size);
                metrics.add(id::INCLUSION_PRUNES, cost.prunes);
            }
            Tally::Interned | Tally::Charge(_) => {}
            Tally::Evict(bytes) => {
                metrics.add(id::STORE_EVICTIONS, 1);
                metrics.add(id::STORE_EVICTED_BYTES, bytes);
            }
        }
    }

    /// Publishes the current retained-bytes figure to the metrics gauge.
    /// Called after every change of `stats.memo_bytes` so the gauge (and
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
        self.count(Tally::Charge(bytes));
        self.tick += 1;
        let tick = self.tick;
        debug_assert!(!self.charges.contains_key(&slot), "double charge");
        self.charges.insert(slot.clone(), (tick, bytes));
        self.by_recency.insert(tick, slot);
        self.evict_over_cap();
        self.publish_memo_gauge();
    }

    /// Drops LRU entries while retained bytes exceed the cap. Each victim
    /// is removed from its owning table and its eviction counted.
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
                SlotKey::Structure(digest) => {
                    self.structures.remove(digest);
                }
            }
            self.count(Tally::Evict(bytes));
        }
    }

    /// The key of the table's entry for `lang`'s machine, if it has one.
    fn structure_key(&mut self, digest: u64, lang: &Lang) -> Option<Arc<CanonicalKey>> {
        let entry = self.structures.get(&digest)?;
        if !Lang::ptr_eq(entry, lang) && entry.nfa() != lang.nfa() {
            return None;
        }
        let key = entry.inner.fingerprint.get().cloned();
        self.touch(SlotKey::Structure(digest));
        Some(key.expect("table entries are keyed"))
    }

    /// Enters `lang`, just keyed, in the structure table unless another
    /// machine holds its digest. Returns `false` when an equal machine is
    /// there already: a racing lookup canonicalized it first.
    fn insert_structure(&mut self, digest: u64, lang: &Lang) -> bool {
        match self.structures.get(&digest) {
            Some(entry) if Lang::ptr_eq(entry, lang) || entry.nfa() == lang.nfa() => {
                self.touch(SlotKey::Structure(digest));
                false
            }
            Some(_) => true,
            None => {
                self.structures.insert(digest, lang.clone());
                self.charge_insert(SlotKey::Structure(digest), lang.approx_bytes());
                true
            }
        }
    }
}

/// Hash-consing interner and binary-operation memo table for [`Lang`].
///
/// All methods take `&self`; the store is internally synchronized, so one
/// store can be shared across solves, serve sessions and parallel branch
/// exploration. With `interning(false)` the store becomes a pass-through
/// that computes every operation directly — the `ablation_interning`
/// benchmark compares the two modes.
pub struct LangStore {
    inner: Mutex<StoreInner>,
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

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("store lock")
    }

    /// Installs (or, with `None`, removes) the LRU byte cap, evicting
    /// immediately if the store is already over the new cap.
    pub fn set_max_bytes(&self, max_bytes: Option<u64>) {
        let mut inner = self.lock();
        inner.max_bytes = max_bytes;
        inner.evict_over_cap();
        inner.publish_memo_gauge();
    }

    /// The installed LRU byte cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.lock().max_bytes
    }

    /// Whether the caching layer is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Installs the metrics registry handle the store records operation
    /// costs into (replacing any previous one). A [`Metrics::disabled`]
    /// handle — the default — makes every recording a no-op.
    pub fn set_metrics(&self, metrics: Metrics) {
        let mut inner = self.lock();
        inner.metrics = metrics;
        // Seed the gauge so a registry installed after the store warmed up
        // still reports the current retained bytes.
        inner.publish_memo_gauge();
    }

    /// Counts one memo outcome, then releases the store lock and reports
    /// the outcome, with its slot identity, to the current scope's
    /// observer. The observer runs without the lock held, so it may use
    /// the store itself.
    fn settle(
        &self,
        mut inner: MutexGuard<'_, StoreInner>,
        op: StoreOp,
        hit: bool,
        identity: impl FnOnce() -> Option<MemoIdentity>,
    ) {
        inner.count(Tally::Memo { op, hit });
        drop(inner);
        if let Some(observer) = StoreScope::current_observer() {
            observer.memo_event(op, identity().as_ref(), hit);
        }
    }

    /// The language's fingerprint, with hit/miss accounting. A handle
    /// without a key first looks its machine up in the store's structure
    /// table: a machine the store canonicalized before lends its key, and
    /// only a new machine is canonicalized (then entered in the table).
    ///
    /// The hit/miss split is race-free. [`Lang::fingerprint_tracked`]
    /// reports whether *this* call ran the canonicalization, so callers
    /// racing on one handle record one miss between them; and a call that
    /// canonicalized a machine another call entered in the table first
    /// counts a hit, as a lost memo insert does. So misses count the
    /// distinct machines canonicalized, independent of scheduling.
    pub fn key_of(&self, lang: &Lang) -> Arc<CanonicalKey> {
        self.try_key_of(lang, usize::MAX)
            .expect("an unlimited canonicalization completes")
    }

    /// [`LangStore::key_of`] with the canonicalization capped at
    /// `max_states` DFA states: a key the handle holds or the structure
    /// table lends comes back whatever its size, and a machine past the
    /// cap gets `None`. That abort counts no memo outcome and records no
    /// cost; the handle stays keyless, so a later call starts over.
    pub fn try_key_of(&self, lang: &Lang, max_states: usize) -> Option<Arc<CanonicalKey>> {
        let enabled = self.enabled;
        let identity = |structure: Option<u64>, keyed: bool| {
            Some(MemoIdentity::Fingerprint {
                handle: lang.clone(),
                structure: structure.or_else(|| enabled.then(|| structure_digest(lang.nfa()))),
                keyed,
            })
        };
        if let Some(key) = lang.inner.fingerprint.get() {
            self.settle(self.lock(), StoreOp::Fingerprint, true, || {
                identity(None, false)
            });
            return Some(key.clone());
        }
        let digest = enabled.then(|| structure_digest(lang.nfa()));
        if let Some(digest) = digest {
            let mut inner = self.lock();
            if let Some(key) = inner.structure_key(digest, lang) {
                self.settle(inner, StoreOp::Fingerprint, true, || {
                    identity(Some(digest), true)
                });
                // Set after the lock is released: a racing canonicalization
                // of this handle, if any, finishes first, with the same key.
                return Some(lang.inner.fingerprint.get_or_init(|| key).clone());
            }
        }
        let (key, computed) = lang.try_fingerprint_tracked_costed(max_states)?;
        let mut inner = self.lock();
        // A hit when a racing call keyed this handle, or entered an equal
        // machine in the table while this call canonicalized: the insert
        // winner alone counts the miss and records the cost.
        let hit = computed.is_none() || digest.is_some_and(|d| !inner.insert_structure(d, lang));
        if let Some(cost) = computed.as_ref().filter(|_| !hit) {
            record_fingerprint_cost(&inner.metrics, lang, cost);
        }
        self.settle(inner, StoreOp::Fingerprint, hit, || identity(digest, true));
        Some(key)
    }

    /// Hash-conses `lang`: returns the store's representative handle for
    /// the same language, inserting `lang` if it is new. Sharing the
    /// representative means later fingerprint and emptiness queries on any
    /// equal-language handle hit the same caches.
    pub fn intern(&self, lang: Lang) -> Lang {
        if !self.enabled {
            return lang;
        }
        let key = MemoKey(self.key_of(&lang));
        let mut inner = self.lock();
        if let Some(existing) = inner.interned.get(&key) {
            let existing = existing.clone();
            inner.touch(SlotKey::Interned(key));
            return existing;
        }
        inner.count(Tally::Interned);
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
            let mut inner = self.lock();
            record_intersect_cost(&inner.metrics, &cost);
            inner.count(Tally::Materialized(result.num_states() as u64));
            self.settle(inner, StoreOp::Intersect, false, || None);
            return result;
        }
        let (ka, kb) = (self.key_of(a), self.key_of(b));
        let (ka, kb) = if ka <= kb { (ka, kb) } else { (kb, ka) };
        let key = (MemoKey(ka.clone()), MemoKey(kb.clone()));
        let slot = || SlotKey::Intersect(key.0.clone(), key.1.clone());
        let identity = || Some(MemoIdentity::Intersect(ka.clone(), kb.clone()));
        {
            let mut inner = self.lock();
            if let Some(hit) = inner.intersect_memo.get(&key).cloned() {
                inner.touch(slot());
                self.settle(inner, StoreOp::Intersect, true, identity);
                return hit;
            }
        }
        let (nfa, cost) = ops::intersect_lang_counted(a.nfa(), b.nfa());
        let result = Lang::new(nfa);
        let mut inner = self.lock();
        // Re-check under the insert lock: a concurrent caller may have
        // computed the same operation since our lookup missed. Keep the
        // first representative so every equal-language handle is shared,
        // and count the race as a hit, not a second miss. Cost metrics
        // follow the same rule: only the insert winner records, so the
        // recorded totals match the deterministic memo contents rather
        // than the scheduling-dependent set of racers.
        if let Some(existing) = inner.intersect_memo.get(&key).cloned() {
            inner.touch(slot());
            self.settle(inner, StoreOp::Intersect, true, identity);
            return existing;
        }
        record_intersect_cost(&inner.metrics, &cost);
        inner.count(Tally::Materialized(result.num_states() as u64));
        inner.intersect_memo.insert(key.clone(), result.clone());
        inner.charge_insert(slot(), result.approx_bytes());
        self.settle(inner, StoreOp::Intersect, false, identity);
        result
    }

    /// Memoized language inclusion (`a ⊆ b`), keyed by the ordered
    /// fingerprint pair and decided against `b`'s key by
    /// [`crate::inclusion::try_subset_of_key`]. Unlimited: see
    /// [`LangStore::try_is_subset`] for the budget-enforcing variant.
    pub fn is_subset(&self, a: &Lang, b: &Lang) -> bool {
        self.try_is_subset(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited inclusion cannot abort")
    }

    /// Budgeted [`LangStore::is_subset`]: structural pre-checks and memo
    /// hits answer for free; an actual search observes `limits` inside
    /// its loop. A breach memoizes nothing (a later unbudgeted retry
    /// recomputes), but the partial work is still counted so an
    /// exhaustion snapshot reflects it.
    ///
    /// Both keys are in hand before any search, and `b`'s is its minimal
    /// DFA, so a memo miss walks `a` against that key's complement
    /// ([`crate::inclusion::try_subset_of_key`]) instead of running the
    /// antichain search. A pass-through store keys nothing and runs the
    /// antichain search ([`crate::inclusion::try_subset`]).
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
        // Per-query reporting (the cost ledger) is opt-in: without a
        // scope observer that wants queries, no clock is read at all.
        let reporter = StoreScope::current_observer().filter(|o| o.wants_queries());
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
                    self.lock().count(Tally::Inclusion(abort.cost()));
                    report(None, None, false, true, None, abort.cost());
                    return Err(abort);
                }
            };
            let mut inner = self.lock();
            inner.count(Tally::Inclusion(cost));
            self.settle(inner, StoreOp::Inclusion, false, || None);
            report(None, None, false, true, Some(result), cost);
            return Ok(result);
        }
        let (ka, kb) = (self.key_of(a), self.key_of(b));
        if ka == kb {
            // Second pre-check: equal fingerprints mean equal languages,
            // so the inclusion holds without a search.
            return Ok(true);
        }
        let key = (MemoKey(ka.clone()), MemoKey(kb.clone()));
        let keys = Some((&ka, &kb));
        let slot = || SlotKey::Inclusion(key.0.clone(), key.1.clone());
        let identity = || Some(MemoIdentity::Inclusion(ka.clone(), kb.clone()));
        {
            let mut inner = self.lock();
            if let Some(hit) = inner.inclusion_memo.get(&key).copied() {
                inner.touch(slot());
                self.settle(inner, StoreOp::Inclusion, true, identity);
                report(
                    keys,
                    identity(),
                    true,
                    false,
                    Some(hit),
                    InclusionCost::default(),
                );
                return Ok(hit);
            }
        }
        let (result, cost) = match inclusion::try_subset_of_key(a.nfa(), &kb, limits) {
            Ok(computed) => computed,
            Err(abort) => {
                self.lock().count(Tally::Inclusion(abort.cost()));
                report(keys, identity(), false, true, None, abort.cost());
                return Err(abort);
            }
        };
        let mut inner = self.lock();
        // Same race re-check as `intersect`: first writer wins the entry,
        // and only the winner counts the search work, so the totals stay
        // deterministic across thread counts.
        let hit = inner.inclusion_memo.contains_key(&key);
        if hit {
            inner.touch(slot());
        } else {
            inner.count(Tally::Inclusion(cost));
            inner.inclusion_memo.insert(key.clone(), result);
            inner.charge_insert(slot(), INCLUSION_ENTRY_BYTES);
        }
        self.settle(inner, StoreOp::Inclusion, hit, identity);
        report(keys, identity(), hit, true, Some(result), cost);
        Ok(result)
    }

    /// Memoized language-preserving minimization, keyed by fingerprint.
    ///
    /// The key is the minimal DFA serialized, so a memo miss decodes it
    /// ([`CanonicalKey::to_nfa`]) however the key was obtained: computed
    /// by this call, cached on the handle, or lent by the structure table.
    /// No subset construction runs beyond the one a key lookup may count.
    /// A pass-through store minimizes directly ([`minimize_counted`]).
    pub fn minimized(&self, a: &Lang) -> Lang {
        if !self.enabled {
            let (nfa, det) = minimize_counted(a.nfa());
            let result = Lang::new(nfa);
            let mut inner = self.lock();
            record_minimize_cost(&inner.metrics, a, &det);
            inner.count(Tally::Materialized(result.num_states() as u64));
            self.settle(inner, StoreOp::Minimize, false, || None);
            return result;
        }
        let fingerprint = self.key_of(a);
        let key = MemoKey(fingerprint.clone());
        let identity = || Some(MemoIdentity::Minimize(fingerprint.clone()));
        {
            let mut inner = self.lock();
            if let Some(hit) = inner.minimize_memo.get(&key).cloned() {
                inner.touch(SlotKey::Minimize(key.clone()));
                self.settle(inner, StoreOp::Minimize, true, identity);
                return hit;
            }
        }
        // The result has `a`'s language, hence `a`'s key: the handle is born
        // with it, so no minimal machine is ever canonicalized again.
        let result =
            Lang::with_fingerprint(fingerprint.to_nfa(), OnceLock::from(fingerprint.clone()));
        let mut inner = self.lock();
        // Same race re-check as `intersect`: first writer wins the entry.
        if let Some(existing) = inner.minimize_memo.get(&key).cloned() {
            inner.touch(SlotKey::Minimize(key.clone()));
            self.settle(inner, StoreOp::Minimize, true, identity);
            return existing;
        }
        inner.count(Tally::Materialized(result.num_states() as u64));
        inner.minimize_memo.insert(key.clone(), result.clone());
        inner.charge_insert(SlotKey::Minimize(key.clone()), result.approx_bytes());
        self.settle(inner, StoreOp::Minimize, false, identity);
        result
    }

    /// Snapshot of the store's running totals.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Adds `states` to the materialization counter (for machines built by
    /// the solver outside the store's own operations).
    pub fn note_materialized(&self, states: usize) {
        self.lock().count(Tally::Materialized(states as u64));
    }
}

/// Records one fingerprint computation's cost: the serialized key bytes,
/// ε-closure work, and the determinization blowup. Key bytes live on the
/// handle, not in the memo tables, so they are charged to
/// `automata.fingerprint.bytes` only — the memo gauge tracks evictable
/// entries exclusively.
fn record_fingerprint_cost(metrics: &Metrics, input: &Lang, cost: &FingerprintCost) {
    metrics.add(id::FINGERPRINT_BYTES, cost.key_bytes);
    metrics.add(
        id::EPS_CLOSURE_VISITED,
        cost.determinize.closure_visited as u64,
    );
    metrics.observe(id::DETERMINIZE_IN, input.num_states() as u64);
    metrics.observe(id::DETERMINIZE_OUT, cost.determinize.dfa_states as u64);
}

/// Records one computed intersection's cost: product states explored vs.
/// reachable after trimming.
fn record_intersect_cost(metrics: &Metrics, cost: &ops::IntersectCost) {
    metrics.add(id::INTERSECT_PRODUCTS, cost.explored as u64);
    metrics.observe(id::INTERSECT_EXPLORED, cost.explored as u64);
    metrics.observe(id::INTERSECT_REACHABLE, cost.reachable as u64);
}

/// Records one computed minimization's cost: the determinization blowup
/// (input NFA states → subset-construction states) and ε-closure work.
fn record_minimize_cost(metrics: &Metrics, input: &Lang, det: &DeterminizeCost) {
    metrics.observe(id::DETERMINIZE_IN, input.num_states() as u64);
    metrics.observe(id::DETERMINIZE_OUT, det.dfa_states as u64);
    metrics.add(id::EPS_CLOSURE_VISITED, det.closure_visited as u64);
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
    fn scope_observer_sees_every_memoized_operation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counting {
            hits: AtomicUsize,
            misses: AtomicUsize,
        }
        impl StoreObserver for Counting {
            fn memo_event(&self, _op: StoreOp, _identity: Option<&MemoIdentity>, hit: bool) {
                if hit {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let store = LangStore::new();
        let observer = Arc::new(Counting::default());
        let scope = StoreScope::new(Some(observer.clone()));
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        {
            let _guard = StoreScope::install(scope.clone());
            store.intersect(&a, &b);
            store.intersect(&a, &b);
        }
        let stats = store.stats();
        // Observer totals match the store's own counters exactly, and so
        // do the scope's: one window, one request.
        assert_eq!(
            observer.hits.load(Ordering::Relaxed) as u64,
            stats.op_hits + stats.fingerprint_hits
        );
        assert_eq!(
            observer.misses.load(Ordering::Relaxed) as u64,
            stats.op_misses + stats.fingerprint_misses
        );
        assert_eq!(
            scope.stats(),
            StoreStats {
                interned: 0,
                ..stats
            }
        );
        // Outside the scope, operations reach neither its counters nor
        // its observer.
        let before =
            observer.hits.load(Ordering::Relaxed) + observer.misses.load(Ordering::Relaxed);
        store.minimized(&a);
        let after = observer.hits.load(Ordering::Relaxed) + observer.misses.load(Ordering::Relaxed);
        assert_eq!(before, after);
        assert_eq!(
            scope.stats(),
            StoreStats {
                interned: 0,
                ..stats
            }
        );
        assert_ne!(store.stats(), stats);
    }

    #[test]
    fn scopes_on_other_threads_see_only_their_own_work() {
        let store = LangStore::new();
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        let c = Lang::new(Nfa::length_between(0, 2));
        let mine = StoreScope::new(None);
        let theirs = StoreScope::new(None);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = StoreScope::install(theirs.clone());
                store.intersect(&b, &c);
                store.is_subset(&c, &b);
            });
            let _guard = StoreScope::install(mine.clone());
            store.intersect(&a, &b);
        });
        let (mine, theirs) = (mine.stats(), theirs.stats());
        // `b`'s fingerprint is computed once, by whichever thread got
        // there first, and that thread's scope counts the miss.
        assert_eq!(
            mine.fingerprint_misses + theirs.fingerprint_misses,
            store.stats().fingerprint_misses
        );
        assert_eq!((mine.op_hits, mine.op_misses), (0, 1), "one intersection");
        assert_eq!(
            (theirs.op_hits, theirs.op_misses),
            (0, 2),
            "one intersection, one inclusion"
        );
        assert_eq!(mine.inclusion_macrostates, 0);
        assert_eq!(
            theirs.inclusion_macrostates,
            store.stats().inclusion_macrostates
        );
        assert_eq!(
            mine.charged_bytes + theirs.charged_bytes,
            store.stats().charged_bytes
        );
    }

    #[test]
    fn scope_memo_bytes_floor_the_totals_not_each_step() {
        let a = Lang::new(ab_star());
        let b = Lang::new(Nfa::length_between(0, 4));
        let c = Lang::new(Nfa::length_between(0, 2));
        let store = LangStore::new();
        let before = StoreScope::new(None);
        {
            let _guard = StoreScope::install(before.clone());
            store.intersect(&a, &b);
            store.intersect(&a, &c);
        }
        let retained = store.stats().memo_bytes;
        let scope = StoreScope::new(None);
        let _guard = StoreScope::install(scope.clone());
        // Evicting the other scope's entries drives this scope's net
        // growth below zero; the next insert must not start from a floor.
        store.set_max_bytes(Some(0));
        store.set_max_bytes(None);
        let stats = scope.stats();
        assert_eq!(stats.evicted_bytes, retained);
        assert_eq!(stats.memo_bytes, 0, "net growth floors at zero");
        store.is_subset(&c, &a);
        let stats = scope.stats();
        assert_eq!(stats.charged_bytes, INCLUSION_ENTRY_BYTES);
        assert_eq!(
            stats.memo_bytes,
            INCLUSION_ENTRY_BYTES.saturating_sub(retained),
            "charged minus evicted, floored once"
        );
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
    // False positive: `MemoIdentity` hashes by digests and compares by
    // handle address or immutable machine, not through `Lang`'s interior
    // cache.
    #[allow(clippy::mutable_key_type)]
    fn memo_identity_distinguishes_slots() {
        use std::collections::HashSet;
        let a = Lang::new(ab_star());
        let b = a.clone();
        let c = Lang::new(ab_star());
        // (ab)* ∪ {ε}: the same language, another machine.
        let d = Lang::new(ops::union(&ab_star(), &Nfa::epsilon()));
        let by_structure = |l: &Lang| MemoIdentity::Fingerprint {
            handle: l.clone(),
            structure: Some(structure_digest(l.nfa())),
            keyed: true,
        };
        let by_handle = |l: &Lang| MemoIdentity::Fingerprint {
            handle: l.clone(),
            structure: None,
            keyed: true,
        };
        // With a structure table, every handle of one machine shares a
        // slot and a different machine of the same language does not;
        // without one, only clones do.
        assert_eq!(by_structure(&a), by_structure(&c));
        assert_ne!(by_structure(&a), by_structure(&d));
        assert_eq!(by_handle(&a), by_handle(&b));
        assert_ne!(by_handle(&a), by_handle(&c));
        let ka = a.fingerprint();
        let kd = d.fingerprint();
        assert_eq!(
            MemoIdentity::Minimize(ka.clone()),
            MemoIdentity::Minimize(kd.clone()),
            "value-keyed slots compare by language"
        );
        assert_ne!(
            MemoIdentity::Minimize(ka.clone()),
            MemoIdentity::Intersect(ka.clone(), kd.clone())
        );
        let mut set = HashSet::new();
        set.insert(by_structure(&a));
        set.insert(by_structure(&b));
        set.insert(by_structure(&c));
        set.insert(by_structure(&d));
        set.insert(MemoIdentity::Minimize(ka));
        set.insert(MemoIdentity::Minimize(kd));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn a_known_machine_takes_its_key_from_the_table() {
        use crate::generate::{random_nonempty_nfa, RandomNfaConfig};
        let config = RandomNfaConfig {
            states: 6,
            alphabet: vec![b'a', b'b', b'c'],
            ..Default::default()
        };
        for seed in 0..64 {
            let machine = random_nonempty_nfa(seed, &config);
            let store = LangStore::new();
            let first = Lang::new(machine.clone());
            let key = store.key_of(&first);
            assert_eq!(*key, crate::minimize::canonical_key(&machine));
            let stats = store.stats();
            assert_eq!((stats.fingerprint_hits, stats.fingerprint_misses), (0, 1));
            // A fresh handle of the same machine canonicalizes nothing.
            let second = Lang::new(machine.clone());
            assert_eq!(store.key_of(&second), key, "seed {seed}");
            assert!(second.fingerprint_is_cached());
            let stats = store.stats();
            assert_eq!((stats.fingerprint_hits, stats.fingerprint_misses), (1, 1));
            // Its minimized machine is the cold one.
            let minimal = store.minimized(&Lang::new(machine.clone()));
            assert_eq!(*minimal.nfa(), crate::minimize::minimize(&machine));
            assert_eq!(store.stats().fingerprint_misses, 1);
        }
    }

    #[test]
    fn a_digest_collision_canonicalizes_instead_of_adopting() {
        let store = LangStore::new();
        let planted = Lang::new(Nfa::literal(b"planted"));
        planted.fingerprint();
        let machine = ab_star();
        let digest = structure_digest(&machine);
        {
            // Plant a different machine under this machine's digest.
            let mut inner = store.lock();
            assert!(inner.insert_structure(digest, &planted));
        }
        let lang = Lang::new(machine.clone());
        let key = store.key_of(&lang);
        assert_eq!(*key, crate::minimize::canonical_key(&machine));
        assert_ne!(key, planted.fingerprint());
        let stats = store.stats();
        assert_eq!((stats.fingerprint_hits, stats.fingerprint_misses), (0, 1));
        // The occupant stays; the newcomer is not entered.
        let inner = store.lock();
        assert!(Lang::ptr_eq(&inner.structures[&digest], &planted));
        assert_eq!(inner.structures.len(), 1);
    }

    #[test]
    fn racing_handles_of_one_machine_count_one_miss() {
        for _ in 0..8 {
            let store = LangStore::new();
            let handles: Vec<Lang> = (0..4).map(|_| Lang::new(ab_star())).collect();
            std::thread::scope(|s| {
                for handle in &handles {
                    let store = &store;
                    s.spawn(move || store.key_of(handle));
                }
            });
            let stats = store.stats();
            assert_eq!((stats.fingerprint_hits, stats.fingerprint_misses), (3, 1));
            assert_eq!(store.lock().structures.len(), 1);
        }
    }

    #[test]
    fn a_bounded_store_evicts_table_entries() {
        let machines: Vec<Nfa> = (1..=8).map(Nfa::exact_length).collect();
        let charge = Lang::new(machines[0].clone()).approx_bytes();
        let cap = 3 * charge;
        let store = LangStore::bounded(cap);
        for machine in &machines {
            store.key_of(&Lang::new(machine.clone()));
            assert!(
                store.stats().memo_bytes <= cap,
                "under the cap after every insert"
            );
        }
        assert!(store.stats().evictions > 0);
        assert!(store.lock().structures.len() < machines.len());
        // The oldest machine was evicted: it canonicalizes again, with the
        // same key.
        let misses = store.stats().fingerprint_misses;
        let again = store.key_of(&Lang::new(machines[0].clone()));
        assert_eq!(store.stats().fingerprint_misses, misses + 1);
        assert_eq!(*again, crate::minimize::canonical_key(&machines[0]));
        // A pass-through store keeps no table.
        let plain = LangStore::interning(false);
        plain.key_of(&Lang::new(machines[0].clone()));
        plain.key_of(&Lang::new(machines[0].clone()));
        assert_eq!(plain.stats().fingerprint_misses, 2);
        assert!(plain.lock().structures.is_empty());
    }

    #[test]
    fn observer_receives_slot_identities() {
        #[derive(Default)]
        struct Recording {
            identities: Mutex<Vec<(StoreOp, Option<MemoIdentity>, bool)>>,
        }
        impl StoreObserver for Recording {
            fn memo_event(&self, op: StoreOp, identity: Option<&MemoIdentity>, hit: bool) {
                self.identities
                    .lock()
                    .expect("recording")
                    .push((op, identity.cloned(), hit));
            }
        }
        let store = LangStore::new();
        let observer = Arc::new(Recording::default());
        let _guard = StoreScope::install(StoreScope::new(Some(observer.clone())));
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
    fn one_minimization_records_one_subset_construction() {
        let machine = ops::union(&ab_star(), &Nfa::literal(b"ba"));
        let (_, cost) = minimize_counted(&machine);
        for store in [LangStore::new(), LangStore::interning(false)] {
            let metrics = Metrics::enabled();
            store.set_metrics(metrics.clone());
            store.minimized(&Lang::new(machine.clone()));
            let snap = metrics.snapshot().expect("enabled registry");
            let histogram = |name: &str| match snap.get(name).expect(name).value {
                crate::metrics::MetricValue::Histogram { count, sum, .. } => (count, sum),
                ref other => panic!("{name} is {other:?}"),
            };
            assert_eq!(
                histogram("automata.determinize.states_out"),
                (1, cost.dfa_states as u64)
            );
            assert_eq!(
                histogram("automata.determinize.states_in"),
                (1, machine.num_states() as u64)
            );
            match snap
                .get("automata.eps_closure.visited_states")
                .expect("def")
                .value
            {
                crate::metrics::MetricValue::Counter { value } => {
                    assert_eq!(value, cost.closure_visited as u64)
                }
                ref other => panic!("counter expected, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_keyed_handle_minimizes_from_its_key() {
        let store = LangStore::new();
        let metrics = Metrics::enabled();
        store.set_metrics(metrics.clone());
        let machine = ops::union(&ab_star(), &Nfa::literal(b"ba"));
        let keyed = Lang::new(machine.clone());
        keyed.fingerprint();
        let minimal = store.minimized(&keyed);
        assert_eq!(*minimal.nfa(), crate::minimize::minimize(&machine));
        assert!(minimal.fingerprint_is_cached());
        assert_eq!(store.stats().fingerprint_misses, 0);
        // No subset construction ran.
        let snap = metrics.snapshot().expect("enabled registry");
        match snap
            .get("automata.determinize.states_out")
            .expect("def")
            .value
        {
            crate::metrics::MetricValue::Histogram { count, .. } => assert_eq!(count, 0),
            ref other => panic!("histogram expected, got {other:?}"),
        }
    }

    #[test]
    fn a_capped_key_lookup_gives_up_past_its_cap() {
        let machine = ops::union(&ab_star(), &Nfa::literal(b"ba"));
        let (key, cost) = canonical_key_counted(&machine);
        let counts = |store: &LangStore| {
            let stats = store.stats();
            (stats.fingerprint_hits, stats.fingerprint_misses)
        };
        for store in [LangStore::new(), LangStore::interning(false)] {
            let lang = Lang::new(machine.clone());
            // Past the cap: no key, no memo outcome, and a keyless handle.
            assert_eq!(store.try_key_of(&lang, cost.dfa_states - 1), None);
            assert!(!lang.fingerprint_is_cached());
            assert_eq!(counts(&store), (0, 0));
            // At the cap: one counted canonicalization, kept on the handle,
            // whose key then comes back under any cap.
            assert_eq!(
                store.try_key_of(&lang, cost.dfa_states).as_deref(),
                Some(&key)
            );
            assert!(lang.fingerprint_is_cached());
            assert_eq!(store.try_key_of(&lang, 0).as_deref(), Some(&key));
            assert_eq!(counts(&store), (1, 1));
        }
        // The structure table lends its key under any cap.
        let store = LangStore::new();
        store.key_of(&Lang::new(machine.clone()));
        let fresh = Lang::new(machine);
        assert_eq!(store.try_key_of(&fresh, 0).as_deref(), Some(&key));
        assert!(fresh.fingerprint_is_cached());
        assert_eq!(counts(&store), (1, 1));
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
