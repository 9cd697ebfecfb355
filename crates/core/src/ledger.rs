//! The per-query cost ledger: attribute solver time to individual
//! inclusion and product queries.
//!
//! PR 2's trace journal and PR 4's metrics registry made the solver
//! observable in aggregate; the ledger records *which* query cost what.
//! Every [`LangStore`](dprle_automata::LangStore) inclusion query (plus
//! the memo-bypassing const-check and verify sites in `solve`, and `gci`'s
//! constant-leaf checks) and every `gci::intersect_build` product emits
//! one [`LedgerRecord`]: query kind,
//! input features (state/transition counts, byte-class width, language
//! fingerprints), outcome, and cost (wall µs plus the search's own work
//! counters). Records serialize as schema-pinned JSONL
//! (`docs/ledger.schema.json`, embedded as [`LEDGER_SCHEMA`]).
//!
//! Like [`Tracer`](crate::trace::Tracer), a [`Ledger`] is
//! zero-cost-when-disabled: the handle is an `Option<Arc>`, every
//! recording site builds its record inside a closure that never runs when
//! the handle is disabled, and the store only reads the clock when an
//! observer opts in via `StoreObserver::wants_queries`.
//!
//! **Determinism.** `ts_us` (wall time) is the only nondeterministic
//! field. Everything else — including `seq` and the memo hit/miss split —
//! is byte-identical across `--jobs 1/4/8`: workers buffer drafts in a
//! thread-local slot (`LedgerSlotGuard`), and `core::parallel` replays
//! them in sequential order, rewriting each memo outcome exactly like the
//! trace replay does (first touch of a level-computed slot in replay
//! order is the miss, carrying the slot's search cost; later touches are
//! free hits). This leans on the same value-determinism contract as the
//! winner-only metrics recording: equal memo slots imply equal search
//! cost.
//!
//! The module also carries the aggregation behind `dprle profile`:
//! [`render_top`] (hottest queries, plus a flame-style span rollup from a
//! trace journal) and [`render_diff`] (per-query deltas between two
//! ledgers, matched by fingerprint pair, with an optional regression
//! gate).

// `HashMap<MemoIdentity, _>` trips clippy's `mutable_key_type`: a
// `MemoIdentity` holds a `Lang`, whose interior fingerprint cache is a
// `OnceLock`. The lint is a false positive here — `MemoIdentity`'s
// `Hash`/`Eq` go through the handle's address or immutable machine and
// immutable `Arc<CanonicalKey>`s only, never through the mutable cell (same
// reasoning as `core::parallel`).
#![allow(clippy::mutable_key_type)]

use crate::schema::{self, get_opt_str, get_str, get_u64, json_string, Json};
use crate::trace::{parse_jsonl, TraceEventKind};
use dprle_automata::{ByteClass, InclusionCost, InclusionQuery, MemoIdentity, Nfa};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The JSON Schema for ledger records, embedded from
/// `docs/ledger.schema.json` so the binary validates against exactly the
/// checked-in contract.
pub const LEDGER_SCHEMA: &str = include_str!("../../../docs/ledger.schema.json");

/// Ledger site label: queries answered through the memoizing store.
pub const SITE_STORE: &str = "store";
/// Ledger site label: the solver's constant-constraint pre-check.
pub const SITE_CONST_CHECK: &str = "const-check";
/// Ledger site label: the post-solve verification pass.
pub const SITE_VERIFY: &str = "verify";
/// Ledger site label: `gci::intersect_build` products and constant-leaf
/// inclusion checks.
pub const SITE_GCI: &str = "gci";

fn parse_site(s: &str) -> Option<&'static str> {
    [SITE_STORE, SITE_CONST_CHECK, SITE_VERIFY, SITE_GCI]
        .into_iter()
        .find(|site| *site == s)
}

/// Which query family a [`LedgerRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// A language-inclusion query (`L(a) ⊆ L(b)`).
    Inclusion,
    /// An eager product build in `gci::intersect_build`.
    Product,
}

impl QueryKind {
    /// The schema-facing name (the record's `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Inclusion => "Inclusion",
            QueryKind::Product => "Product",
        }
    }

    fn parse(s: &str) -> Option<QueryKind> {
        match s {
            "Inclusion" => Some(QueryKind::Inclusion),
            "Product" => Some(QueryKind::Product),
            _ => None,
        }
    }
}

/// How the memo layer participated in an inclusion query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoStatus {
    /// The memo (or a lost insert race) answered.
    Hit,
    /// The search ran and the result was memoized.
    Miss,
    /// The query never consulted a memo table (pass-through store, or a
    /// memo-bypassing site).
    Bypass,
}

impl MemoStatus {
    fn name(self) -> &'static str {
        match self {
            MemoStatus::Hit => "hit",
            MemoStatus::Miss => "miss",
            MemoStatus::Bypass => "none",
        }
    }

    fn parse(s: &str) -> Option<MemoStatus> {
        match s {
            "hit" => Some(MemoStatus::Hit),
            "miss" => Some(MemoStatus::Miss),
            "none" => Some(MemoStatus::Bypass),
            _ => None,
        }
    }
}

/// The verdict of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryOutcome {
    /// Inclusion holds.
    Subset,
    /// Inclusion fails (a counterexample exists).
    NotSubset,
    /// A nonempty product was built.
    Built,
    /// The product was empty after trimming.
    Empty,
    /// A resource budget was breached mid-query.
    Exhausted,
}

impl QueryOutcome {
    fn name(self) -> &'static str {
        match self {
            QueryOutcome::Subset => "subset",
            QueryOutcome::NotSubset => "not-subset",
            QueryOutcome::Built => "built",
            QueryOutcome::Empty => "empty",
            QueryOutcome::Exhausted => "exhausted",
        }
    }

    fn parse(s: &str) -> Option<QueryOutcome> {
        match s {
            "subset" => Some(QueryOutcome::Subset),
            "not-subset" => Some(QueryOutcome::NotSubset),
            "built" => Some(QueryOutcome::Built),
            "empty" => Some(QueryOutcome::Empty),
            "exhausted" => Some(QueryOutcome::Exhausted),
            _ => None,
        }
    }
}

/// One ledger line: a fully-attributed query.
///
/// The cost fields are kind-overloaded to keep one record type:
/// `cost_main` is `macrostates` (Inclusion) or `explored` product pairs
/// (Product); `cost_aux` is the final `antichain` size or the trimmed
/// product's `states`; `cost_prunes` is antichain subsumption `prunes`
/// (always zero for products). An inclusion decided by a walk against
/// the right-hand side's canonical key counts its pairs as macrostates
/// and keeps no antichain, so it reads zero in both. [`LedgerRecord::to_json`]
/// maps them onto the per-kind field names pinned by
/// `docs/ledger.schema.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRecord {
    /// Deterministic global sequence number (emission order).
    pub seq: u64,
    /// Wall-clock µs answering the query — the only nondeterministic
    /// field; comparisons zero it first.
    pub ts_us: u64,
    /// Query family.
    pub kind: QueryKind,
    /// Which call site issued the query (one of the `SITE_*` constants).
    pub site: &'static str,
    /// Memo participation (`None` for products — they are not memoized).
    pub memo: Option<MemoStatus>,
    /// The verdict.
    pub outcome: QueryOutcome,
    /// LHS operand: state count.
    pub lhs_states: u64,
    /// LHS operand: transition count (byte-class plus ε).
    pub lhs_transitions: u64,
    /// RHS operand: state count.
    pub rhs_states: u64,
    /// RHS operand: transition count.
    pub rhs_transitions: u64,
    /// Distinct byte-class edge labels across both operands (alphabet
    /// width as the search sees it).
    pub classes: u64,
    /// Stable 64-bit fingerprint of the LHS language (canonical-key
    /// digest when available, structural digest otherwise).
    pub lhs_fp: u64,
    /// Stable 64-bit fingerprint of the RHS language.
    pub rhs_fp: u64,
    /// Macrostates explored / product pairs explored.
    pub cost_main: u64,
    /// Final antichain size / trimmed product states.
    pub cost_aux: u64,
    /// Antichain subsumption prunes (zero for products).
    pub cost_prunes: u64,
    /// Serving request this query belongs to, stamped by a tagged ledger
    /// ([`Ledger::new_tagged`]) so a multi-tenant `dprle serve` ledger
    /// attributes cost per request. `None` — and absent from the JSONL
    /// line, keeping one-shot runs byte-identical — outside serve.
    pub request_id: Option<Arc<str>>,
}

impl LedgerRecord {
    /// Serializes the record as one schema-conforming JSONL line (no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"kind\":{},\"seq\":{},\"ts_us\":{}",
            json_string(self.kind.name()),
            self.seq,
            self.ts_us
        );
        let _ = write!(out, ",\"site\":{}", json_string(self.site));
        if let Some(memo) = self.memo {
            let _ = write!(out, ",\"memo\":{}", json_string(memo.name()));
        }
        let _ = write!(
            out,
            ",\"outcome\":{},\"lhs_states\":{},\"lhs_transitions\":{},\"rhs_states\":{},\"rhs_transitions\":{},\"classes\":{},\"lhs_fp\":\"{:016x}\",\"rhs_fp\":\"{:016x}\"",
            json_string(self.outcome.name()),
            self.lhs_states,
            self.lhs_transitions,
            self.rhs_states,
            self.rhs_transitions,
            self.classes,
            self.lhs_fp,
            self.rhs_fp
        );
        match self.kind {
            QueryKind::Inclusion => {
                let _ = write!(
                    out,
                    ",\"macrostates\":{},\"antichain\":{},\"prunes\":{}",
                    self.cost_main, self.cost_aux, self.cost_prunes
                );
            }
            QueryKind::Product => {
                let _ = write!(
                    out,
                    ",\"explored\":{},\"states\":{}",
                    self.cost_main, self.cost_aux
                );
            }
        }
        if let Some(request_id) = &self.request_id {
            let _ = write!(out, ",\"request_id\":{}", json_string(request_id));
        }
        out.push('}');
        out
    }

    fn from_obj(obj: &[(String, Json)]) -> Result<LedgerRecord, String> {
        let kind_name = get_str(obj, "kind")?;
        let kind = QueryKind::parse(kind_name)
            .ok_or_else(|| format!("unknown ledger record kind {kind_name:?}"))?;
        let site_name = get_str(obj, "site")?;
        let site =
            parse_site(site_name).ok_or_else(|| format!("unknown ledger site {site_name:?}"))?;
        let fp = |key: &str| -> Result<u64, String> {
            let hex = get_str(obj, key)?;
            u64::from_str_radix(hex, 16).map_err(|_| format!("field `{key}` is not a hex digest"))
        };
        let (memo, cost_main, cost_aux, cost_prunes, outcome) = match kind {
            QueryKind::Inclusion => {
                let memo_name = get_str(obj, "memo")?;
                let memo = MemoStatus::parse(memo_name)
                    .ok_or_else(|| format!("unknown memo status {memo_name:?}"))?;
                let outcome_name = get_str(obj, "outcome")?;
                let outcome = match QueryOutcome::parse(outcome_name) {
                    Some(
                        o @ (QueryOutcome::Subset
                        | QueryOutcome::NotSubset
                        | QueryOutcome::Exhausted),
                    ) => o,
                    _ => return Err(format!("bad inclusion outcome {outcome_name:?}")),
                };
                (
                    Some(memo),
                    get_u64(obj, "macrostates")?,
                    get_u64(obj, "antichain")?,
                    get_u64(obj, "prunes")?,
                    outcome,
                )
            }
            QueryKind::Product => {
                let outcome_name = get_str(obj, "outcome")?;
                let outcome = match QueryOutcome::parse(outcome_name) {
                    Some(
                        o @ (QueryOutcome::Built | QueryOutcome::Empty | QueryOutcome::Exhausted),
                    ) => o,
                    _ => return Err(format!("bad product outcome {outcome_name:?}")),
                };
                (
                    None,
                    get_u64(obj, "explored")?,
                    get_u64(obj, "states")?,
                    0,
                    outcome,
                )
            }
        };
        Ok(LedgerRecord {
            seq: get_u64(obj, "seq")?,
            ts_us: get_u64(obj, "ts_us")?,
            kind,
            site,
            memo,
            outcome,
            lhs_states: get_u64(obj, "lhs_states")?,
            lhs_transitions: get_u64(obj, "lhs_transitions")?,
            rhs_states: get_u64(obj, "rhs_states")?,
            rhs_transitions: get_u64(obj, "rhs_transitions")?,
            classes: get_u64(obj, "classes")?,
            lhs_fp: fp("lhs_fp")?,
            rhs_fp: fp("rhs_fp")?,
            cost_main,
            cost_aux,
            cost_prunes,
            request_id: get_opt_str(obj, "request_id")?.map(Arc::from),
        })
    }
}

/// Parses a ledger JSONL document back into records.
///
/// # Errors
///
/// Returns `line N: <problem>` for the first malformed line.
pub fn parse_ledger(jsonl: &str) -> Result<Vec<LedgerRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = Json::parse(line)
            .and_then(|v| {
                v.as_object()
                    .ok_or("not a JSON object".to_owned())
                    .and_then(LedgerRecord::from_obj)
            })
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(record);
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------

/// A sink receiving finalized [`LedgerRecord`]s in emission order.
pub trait LedgerSink: Send + Sync {
    /// Called once per finalized record, `seq` already assigned.
    fn record(&self, record: &LedgerRecord);
}

/// A [`LedgerSink`] that collects records in memory.
#[derive(Default)]
pub struct CollectLedger {
    records: Mutex<Vec<LedgerRecord>>,
}

impl CollectLedger {
    /// An empty collector.
    pub fn new() -> CollectLedger {
        CollectLedger::default()
    }

    /// Drains the collected records.
    pub fn take(&self) -> Vec<LedgerRecord> {
        std::mem::take(&mut self.records.lock().expect("ledger collect lock"))
    }

    /// Renders the collected records as JSONL (without draining).
    pub fn to_jsonl(&self) -> String {
        let records = self.records.lock().expect("ledger collect lock");
        let mut out = String::new();
        for r in records.iter() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

impl LedgerSink for CollectLedger {
    fn record(&self, record: &LedgerRecord) {
        self.records
            .lock()
            .expect("ledger collect lock")
            .push(record.clone());
    }
}

/// A draft record buffered on a worker thread: the serialized fields plus
/// the replay metadata (`identity` names the memo slot, `engine_cost` is
/// `Some` exactly when the search ran for this query).
pub(crate) struct LedgerDraft {
    pub(crate) record: LedgerRecord,
    pub(crate) identity: Option<MemoIdentity>,
    pub(crate) engine_cost: Option<InclusionCost>,
}

struct LedgerInner {
    seq: AtomicU64,
    sink: Arc<dyn LedgerSink>,
    /// Request id stamped on every emitted record
    /// ([`Ledger::new_tagged`]); `None` for one-shot ledgers, whose
    /// records omit the field entirely.
    tag: Option<Arc<str>>,
}

/// The zero-cost-when-disabled query recorder. Cheap to clone (an
/// `Option<Arc>`); a disabled handle makes every recording site a no-op
/// without constructing the record.
#[derive(Clone, Default)]
pub struct Ledger {
    inner: Option<Arc<LedgerInner>>,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Ledger {
    /// A no-op ledger (the default).
    pub fn disabled() -> Ledger {
        Ledger { inner: None }
    }

    /// A ledger emitting finalized records to `sink`.
    pub fn new(sink: Arc<dyn LedgerSink>) -> Ledger {
        Ledger::build(sink, None)
    }

    /// A ledger that stamps `request_id` on every emitted record. `dprle
    /// serve` gives each request its own tagged ledger, so a shared
    /// multi-tenant ledger attributes every query to its request.
    pub fn new_tagged(sink: Arc<dyn LedgerSink>, request_id: &str) -> Ledger {
        Ledger::build(sink, Some(Arc::from(request_id)))
    }

    fn build(sink: Arc<dyn LedgerSink>, tag: Option<Arc<str>>) -> Ledger {
        Ledger {
            inner: Some(Arc::new(LedgerInner {
                seq: AtomicU64::new(0),
                sink,
                tag,
            })),
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one query. The draft is built only when the ledger is
    /// enabled; it is routed to the thread's worker buffer when one is
    /// installed (parallel levels) and emitted directly otherwise.
    pub(crate) fn record(&self, make: impl FnOnce() -> LedgerDraft) {
        if self.inner.is_none() {
            return;
        }
        let draft = make();
        let unrouted = LEDGER_SLOT.with(|slot| match &mut *slot.borrow_mut() {
            Some(buffer) => {
                buffer.push(draft);
                None
            }
            None => Some(draft),
        });
        if let Some(draft) = unrouted {
            self.emit(draft.record);
        }
    }

    /// Assigns the next sequence number, stamps the ledger's request tag
    /// (if any), and hands the record to the sink.
    pub(crate) fn emit(&self, mut record: LedgerRecord) {
        let Some(inner) = &self.inner else { return };
        record.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        if inner.tag.is_some() {
            record.request_id = inner.tag.clone();
        }
        inner.sink.record(&record);
    }
}

// ---------------------------------------------------------------------
// Worker-slot routing and deterministic replay (used by core::parallel)
// ---------------------------------------------------------------------

thread_local! {
    /// While a worker thread processes one worklist entry, its ledger
    /// drafts are buffered here instead of reaching the sink, so the main
    /// thread can replay them in sequential order.
    static LEDGER_SLOT: RefCell<Option<Vec<LedgerDraft>>> = const { RefCell::new(None) };
}

/// Installs the thread's ledger buffer for the duration of one worklist
/// entry; clears it on drop (also on unwind).
pub(crate) struct LedgerSlotGuard;

impl LedgerSlotGuard {
    pub(crate) fn install() -> LedgerSlotGuard {
        LEDGER_SLOT.with(|slot| {
            *slot.borrow_mut() = Some(Vec::new());
        });
        LedgerSlotGuard
    }

    /// Takes the buffered drafts.
    pub(crate) fn finish(self) -> Vec<LedgerDraft> {
        LEDGER_SLOT
            .with(|slot| slot.borrow_mut().take())
            .unwrap_or_default()
    }
}

impl Drop for LedgerSlotGuard {
    fn drop(&mut self) {
        LEDGER_SLOT.with(|slot| {
            *slot.borrow_mut() = None;
        });
    }
}

/// Collects, from one level's buffered drafts, the engine cost of every
/// memo slot computed during the level. Mirrors the trace replay's
/// `collect_computed`: a slot absent from this map was answered by an
/// earlier level's memo entry in the sequential run too.
pub(crate) fn collect_computed_costs<'a>(
    entries: impl Iterator<Item = &'a [LedgerDraft]>,
    costs: &mut HashMap<MemoIdentity, InclusionCost>,
) {
    for drafts in entries {
        for draft in drafts {
            if let (Some(id), Some(cost)) = (&draft.identity, draft.engine_cost) {
                costs.entry(id.clone()).or_insert(cost);
            }
        }
    }
}

/// Replays one entry's buffered drafts in sequential order, rewriting
/// each slot-keyed record's memo outcome and engine cost to what the
/// sequential run would have recorded: the first touch (in replay order)
/// of a slot computed this level is the miss and carries the slot's
/// engine cost; every later touch is a free hit. Slot-less records
/// (products, bypass sites, pass-through stores) replay unchanged —
/// their contents are deterministic per entry.
pub(crate) fn replay_drafts(
    ledger: &Ledger,
    drafts: Vec<LedgerDraft>,
    costs: &HashMap<MemoIdentity, InclusionCost>,
    seen: &mut HashSet<MemoIdentity>,
) {
    for mut draft in drafts {
        if let Some(id) = &draft.identity {
            let hit = seen.contains(id) || !costs.contains_key(id);
            seen.insert(id.clone());
            if hit {
                draft.record.memo = Some(MemoStatus::Hit);
                draft.record.cost_main = 0;
                draft.record.cost_aux = 0;
                draft.record.cost_prunes = 0;
            } else {
                let cost = costs[id];
                draft.record.memo = Some(MemoStatus::Miss);
                draft.record.cost_main = cost.macrostates;
                draft.record.cost_aux = cost.antichain_size;
                draft.record.cost_prunes = cost.prunes;
            }
        }
        ledger.emit(draft.record);
    }
}

// ---------------------------------------------------------------------
// Record construction
// ---------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A stable structural digest of a machine, used to fingerprint operands
/// the store never canonicalized (product builds, pass-through paths).
/// Structurally identical machines digest identically on every platform;
/// unlike [`dprle_automata::CanonicalKey::hash64`] this is *not* a
/// language fingerprint — equal languages with different state graphs
/// digest differently.
pub(crate) fn nfa_hash64(nfa: &Nfa) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(nfa.num_states() as u64);
    h.write_u64(nfa.start().index() as u64);
    for state in nfa.finals() {
        h.write_u64(state.index() as u64);
    }
    for (from, class, to) in nfa.edges() {
        h.write_u64(from.index() as u64);
        for word in class.words() {
            h.write_u64(word);
        }
        h.write_u64(to.index() as u64);
    }
    for (from, to) in nfa.eps_edges() {
        h.write_u64(from.index() as u64);
        h.write_u64(to.index() as u64);
    }
    h.0
}

fn features(record: &mut LedgerRecord, lhs: &Nfa, rhs: &Nfa) {
    record.lhs_states = lhs.num_states() as u64;
    record.lhs_transitions = lhs.num_transitions() as u64;
    record.rhs_states = rhs.num_states() as u64;
    record.rhs_transitions = rhs.num_transitions() as u64;
    let classes: BTreeSet<ByteClass> = lhs.edges().chain(rhs.edges()).map(|(_, c, _)| c).collect();
    record.classes = classes.len() as u64;
}

/// Builds a draft from a store-reported inclusion query.
pub(crate) fn draft_from_inclusion(query: &InclusionQuery<'_>) -> LedgerDraft {
    let memo = if query.identity.is_some() {
        if query.memo_hit {
            MemoStatus::Hit
        } else {
            MemoStatus::Miss
        }
    } else {
        MemoStatus::Bypass
    };
    // A memo hit serializes zero search cost even when this thread lost
    // an insert race and ran the search anyway — the sequential run's hit
    // does no search work. The raw cost still rides along in the draft so
    // the parallel replay can charge it to the replay-order first touch.
    let serialized_cost = if query.memo_hit {
        InclusionCost::default()
    } else {
        query.cost
    };
    let mut record = LedgerRecord {
        seq: 0,
        ts_us: query.wall_us,
        kind: QueryKind::Inclusion,
        site: SITE_STORE,
        memo: Some(memo),
        outcome: match query.outcome {
            Some(true) => QueryOutcome::Subset,
            Some(false) => QueryOutcome::NotSubset,
            None => QueryOutcome::Exhausted,
        },
        lhs_states: 0,
        lhs_transitions: 0,
        rhs_states: 0,
        rhs_transitions: 0,
        classes: 0,
        lhs_fp: query
            .lhs_key
            .map_or_else(|| nfa_hash64(query.lhs), |k| k.hash64()),
        rhs_fp: query
            .rhs_key
            .map_or_else(|| nfa_hash64(query.rhs), |k| k.hash64()),
        cost_main: serialized_cost.macrostates,
        cost_aux: serialized_cost.antichain_size,
        cost_prunes: serialized_cost.prunes,
        request_id: None,
    };
    features(&mut record, query.lhs, query.rhs);
    LedgerDraft {
        record,
        identity: query.identity.clone(),
        engine_cost: query.engine_ran.then_some(query.cost),
    }
}

/// Builds a draft for a memo-bypassing inclusion site (`const-check`,
/// `verify`, `gci`): no memo, no slot identity, deterministic per entry.
pub(crate) fn bypass_inclusion_draft(
    site: &'static str,
    lhs: &Nfa,
    rhs: &Nfa,
    outcome: Option<bool>,
    cost: InclusionCost,
    wall_us: u64,
) -> LedgerDraft {
    let mut record = LedgerRecord {
        seq: 0,
        ts_us: wall_us,
        kind: QueryKind::Inclusion,
        site,
        memo: Some(MemoStatus::Bypass),
        outcome: match outcome {
            Some(true) => QueryOutcome::Subset,
            Some(false) => QueryOutcome::NotSubset,
            None => QueryOutcome::Exhausted,
        },
        lhs_states: 0,
        lhs_transitions: 0,
        rhs_states: 0,
        rhs_transitions: 0,
        classes: 0,
        lhs_fp: nfa_hash64(lhs),
        rhs_fp: nfa_hash64(rhs),
        cost_main: cost.macrostates,
        cost_aux: cost.antichain_size,
        cost_prunes: cost.prunes,
        request_id: None,
    };
    features(&mut record, lhs, rhs);
    LedgerDraft {
        record,
        identity: None,
        engine_cost: None,
    }
}

/// Builds a draft for one `gci::intersect_build` product.
pub(crate) fn product_draft(
    lhs: &Nfa,
    rhs: &Nfa,
    outcome: QueryOutcome,
    explored: u64,
    states: u64,
    wall_us: u64,
) -> LedgerDraft {
    let mut record = LedgerRecord {
        seq: 0,
        ts_us: wall_us,
        kind: QueryKind::Product,
        site: SITE_GCI,
        memo: None,
        outcome,
        lhs_states: 0,
        lhs_transitions: 0,
        rhs_states: 0,
        rhs_transitions: 0,
        classes: 0,
        lhs_fp: nfa_hash64(lhs),
        rhs_fp: nfa_hash64(rhs),
        cost_main: explored,
        cost_aux: states,
        cost_prunes: 0,
        request_id: None,
    };
    features(&mut record, lhs, rhs);
    LedgerDraft {
        record,
        identity: None,
        engine_cost: None,
    }
}

// ---------------------------------------------------------------------
// Aggregation: the three `dprle profile` views
// ---------------------------------------------------------------------

/// A query aggregation key: same-language queries from the same site
/// collapse into one row.
type QueryKey = (QueryKind, &'static str, u64, u64);

#[derive(Default, Clone, Copy)]
struct QueryAgg {
    count: u64,
    memo_hits: u64,
    wall_us: u64,
    work: u64,
}

fn aggregate(records: &[LedgerRecord]) -> BTreeMap<QueryKey, QueryAgg> {
    let mut map: BTreeMap<QueryKey, QueryAgg> = BTreeMap::new();
    for r in records {
        let agg = map.entry((r.kind, r.site, r.lhs_fp, r.rhs_fp)).or_default();
        agg.count += 1;
        if r.memo == Some(MemoStatus::Hit) {
            agg.memo_hits += 1;
        }
        agg.wall_us += r.ts_us;
        agg.work += r.cost_main;
    }
    map
}

fn key_label(key: &QueryKey) -> String {
    format!(
        "{:<9} {:<11} {:016x}⊆{:016x}",
        key.0.name(),
        key.1,
        key.2,
        key.3
    )
}

/// Renders the `top` view: the hottest query keys by total wall time,
/// plus (when a trace journal is supplied) a flame-style per-span-path
/// wall-time rollup for phase attribution.
///
/// # Errors
///
/// Returns a description of an unreadable trace journal.
pub fn render_top(
    records: &[LedgerRecord],
    trace_jsonl: Option<&str>,
    limit: usize,
) -> Result<String, String> {
    let mut out = String::new();
    let inclusions = records
        .iter()
        .filter(|r| r.kind == QueryKind::Inclusion)
        .count();
    let hits = records
        .iter()
        .filter(|r| r.memo == Some(MemoStatus::Hit))
        .count();
    let products = records.len() - inclusions;
    let total_wall: u64 = records.iter().map(|r| r.ts_us).sum();
    let _ = writeln!(
        out,
        "ledger: {} records ({inclusions} inclusion, {hits} memo hits; {products} product), total query wall {total_wall} µs",
        records.len()
    );
    let mut rows: Vec<(QueryKey, QueryAgg)> = aggregate(records).into_iter().collect();
    rows.sort_by(|a, b| {
        b.1.wall_us
            .cmp(&a.1.wall_us)
            .then(b.1.work.cmp(&a.1.work))
            .then(a.0.cmp(&b.0))
    });
    let _ = writeln!(
        out,
        "hottest queries (top {} of {}):",
        limit.min(rows.len()),
        rows.len()
    );
    let _ = writeln!(
        out,
        "  {:>8}  {:>6}  {:>6}  {:>10}  query",
        "wall_us", "n", "hits", "work"
    );
    for (key, agg) in rows.iter().take(limit) {
        let _ = writeln!(
            out,
            "  {:>8}  {:>6}  {:>6}  {:>10}  {}",
            agg.wall_us,
            agg.count,
            agg.memo_hits,
            agg.work,
            key_label(key)
        );
    }
    if let Some(jsonl) = trace_jsonl {
        out.push_str(&span_rollup(jsonl)?);
    }
    Ok(out)
}

/// Renders the `top --by-request` view: ledger records grouped by the
/// `request_id` that `dprle serve` stamps on them, ranked by total query
/// wall time — which requests a multi-tenant server spent its solver
/// budget on. Records without a request id (one-shot `--ledger-out`
/// runs, or pre-tagging ledgers) group under `(untagged)`.
pub fn render_top_by_request(records: &[LedgerRecord], limit: usize) -> String {
    #[derive(Default)]
    struct RequestAgg {
        wall_us: u64,
        queries: u64,
        memo_hits: u64,
        work: u64,
    }
    let mut map: BTreeMap<String, RequestAgg> = BTreeMap::new();
    for r in records {
        let key = r.request_id.as_deref().unwrap_or("(untagged)").to_owned();
        let agg = map.entry(key).or_default();
        agg.wall_us += r.ts_us;
        agg.queries += 1;
        if r.memo == Some(MemoStatus::Hit) {
            agg.memo_hits += 1;
        }
        agg.work += r.cost_main;
    }
    let mut rows: Vec<(String, RequestAgg)> = map.into_iter().collect();
    rows.sort_by(|a, b| {
        b.1.wall_us
            .cmp(&a.1.wall_us)
            .then(b.1.work.cmp(&a.1.work))
            .then(a.0.cmp(&b.0))
    });
    let mut out = String::new();
    let total_wall: u64 = records.iter().map(|r| r.ts_us).sum();
    let _ = writeln!(
        out,
        "ledger: {} records across {} request(s), total query wall {total_wall} µs",
        records.len(),
        rows.len()
    );
    let _ = writeln!(
        out,
        "hottest requests (top {} of {}):",
        limit.min(rows.len()),
        rows.len()
    );
    let _ = writeln!(
        out,
        "  {:>8}  {:>7}  {:>6}  {:>10}  request",
        "wall_us", "queries", "hits", "work"
    );
    for (request, agg) in rows.iter().take(limit) {
        let _ = writeln!(
            out,
            "  {:>8}  {:>7}  {:>6}  {:>10}  {request}",
            agg.wall_us, agg.queries, agg.memo_hits, agg.work
        );
    }
    out
}

/// Builds the flame-style span-path rollup from a trace journal: one row
/// per distinct `parent;child;…` phase path with total and self wall
/// time, sorted by total descending.
fn span_rollup(jsonl: &str) -> Result<String, String> {
    let events = parse_jsonl(jsonl)?;
    let mut paths: HashMap<u64, String> = HashMap::new();
    let mut starts: HashMap<u64, u64> = HashMap::new();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut child_time: HashMap<String, u64> = HashMap::new();
    for event in &events {
        match &event.kind {
            TraceEventKind::SpanStart {
                span,
                parent,
                phase,
                ..
            } => {
                let path = match paths.get(parent) {
                    Some(parent_path) => format!("{parent_path};{phase}"),
                    None => phase.clone(),
                };
                paths.insert(*span, path);
                starts.insert(*span, event.ts_us);
            }
            TraceEventKind::SpanEnd { span, .. } => {
                let (Some(path), Some(start)) = (paths.get(span), starts.remove(span)) else {
                    continue;
                };
                let wall = event.ts_us.saturating_sub(start);
                *totals.entry(path.clone()).or_default() += wall;
                if let Some((parent_path, _)) = path.rsplit_once(';') {
                    *child_time.entry(parent_path.to_owned()).or_default() += wall;
                }
            }
            _ => {}
        }
    }
    let mut rows: Vec<(String, u64)> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out = String::from("per-span wall time (flame paths):\n");
    for (path, total) in rows {
        let own = total.saturating_sub(child_time.get(&path).copied().unwrap_or(0));
        let _ = writeln!(out, "  {total:>8} µs  (self {own:>8} µs)  {path}");
    }
    Ok(out)
}

/// Options for [`render_diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// How many ranked rows to print.
    pub limit: usize,
    /// Fail (report `gate_breached`) when any matched query key's wall
    /// time regressed by more than this percentage.
    pub fail_above_pct: Option<f64>,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            limit: 20,
            fail_above_pct: None,
        }
    }
}

/// The outcome of a ledger diff.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// The rendered ranked report.
    pub text: String,
    /// The worst wall-time regression among matched keys, in percent
    /// (`None` when nothing matched with nonzero old cost).
    pub worst_pct: Option<f64>,
    /// Whether [`DiffOptions::fail_above_pct`] was exceeded.
    pub gate_breached: bool,
}

/// Diffs two ledgers: aggregates each by query key (kind, site,
/// fingerprint pair), ranks by absolute wall-time delta (regressions
/// first), and applies the optional gate.
pub fn render_diff(
    old: &[LedgerRecord],
    new: &[LedgerRecord],
    options: &DiffOptions,
) -> DiffReport {
    let old_agg = aggregate(old);
    let new_agg = aggregate(new);
    struct Row {
        key: QueryKey,
        old_us: u64,
        new_us: u64,
        old_work: u64,
        new_work: u64,
        pct: Option<f64>,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut only_old = 0usize;
    let mut only_new = 0usize;
    for (key, o) in &old_agg {
        match new_agg.get(key) {
            Some(n) => rows.push(Row {
                key: *key,
                old_us: o.wall_us,
                new_us: n.wall_us,
                old_work: o.work,
                new_work: n.work,
                pct: (o.wall_us > 0)
                    .then(|| (n.wall_us as f64 - o.wall_us as f64) * 100.0 / o.wall_us as f64),
            }),
            None => only_old += 1,
        }
    }
    for key in new_agg.keys() {
        if !old_agg.contains_key(key) {
            only_new += 1;
        }
    }
    rows.sort_by(|a, b| {
        let da = a.new_us as i128 - a.old_us as i128;
        let db = b.new_us as i128 - b.old_us as i128;
        db.cmp(&da).then(a.key.cmp(&b.key))
    });
    let worst_pct = rows.iter().filter_map(|r| r.pct).fold(None, |acc, p| {
        Some(match acc {
            None => p,
            Some(a) if p > a => p,
            Some(a) => a,
        })
    });
    let mut text = String::new();
    let _ = writeln!(
        text,
        "ledger diff: {} matched query keys ({only_old} only in old, {only_new} only in new)",
        rows.len()
    );
    let _ = writeln!(
        text,
        "  {:>9} {:>9} {:>8}  {:>9} {:>9}  query",
        "old_us", "new_us", "Δ%", "old_work", "new_work"
    );
    for row in rows.iter().take(options.limit) {
        let pct = row.pct.map_or("n/a".to_owned(), |p| format!("{p:+.1}%"));
        let _ = writeln!(
            text,
            "  {:>9} {:>9} {:>8}  {:>9} {:>9}  {}",
            row.old_us,
            row.new_us,
            pct,
            row.old_work,
            row.new_work,
            key_label(&row.key)
        );
    }
    let gate_breached = match (options.fail_above_pct, worst_pct) {
        (Some(gate), Some(worst)) => worst > gate,
        _ => false,
    };
    if let Some(gate) = options.fail_above_pct {
        let _ = writeln!(
            text,
            "gate: fail above {gate:+.1}% — worst regression {} → {}",
            worst_pct.map_or("n/a".to_owned(), |p| format!("{p:+.1}%")),
            if gate_breached { "BREACHED" } else { "ok" }
        );
    }
    DiffReport {
        text,
        worst_pct,
        gate_breached,
    }
}

/// Validates a ledger JSONL document against a schema source (defaults to
/// the embedded [`LEDGER_SCHEMA`] in the CLI). Thin alias over
/// [`schema::validate_jsonl`] so callers need not know which module owns
/// the validator.
///
/// # Errors
///
/// Returns `line N: <problem>` for the first invalid line.
pub fn validate_ledger_jsonl(schema_src: &str, jsonl: &str) -> Result<usize, String> {
    schema::validate_jsonl(schema_src, jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(kind: QueryKind) -> LedgerRecord {
        LedgerRecord {
            seq: 7,
            ts_us: 123,
            kind,
            site: if kind == QueryKind::Inclusion {
                SITE_STORE
            } else {
                SITE_GCI
            },
            memo: (kind == QueryKind::Inclusion).then_some(MemoStatus::Miss),
            outcome: if kind == QueryKind::Inclusion {
                QueryOutcome::Subset
            } else {
                QueryOutcome::Built
            },
            lhs_states: 4,
            lhs_transitions: 5,
            rhs_states: 3,
            rhs_transitions: 4,
            classes: 2,
            lhs_fp: 0x1234,
            rhs_fp: 0xabcd,
            cost_main: 17,
            cost_aux: 3,
            cost_prunes: if kind == QueryKind::Inclusion { 1 } else { 0 },
            request_id: None,
        }
    }

    #[test]
    fn records_roundtrip_through_json() {
        for kind in [QueryKind::Inclusion, QueryKind::Product] {
            let record = sample_record(kind);
            let line = record.to_json();
            let parsed = parse_ledger(&line).expect("parses");
            assert_eq!(parsed, vec![record.clone()], "{line}");
            assert_eq!(
                schema::validate_jsonl(LEDGER_SCHEMA, &line),
                Ok(1),
                "{line}"
            );
        }
    }

    #[test]
    fn schema_covers_exactly_the_record_kinds() {
        let kinds = schema::schema_kinds(LEDGER_SCHEMA).expect("schema parses");
        assert_eq!(kinds, vec!["Inclusion".to_owned(), "Product".to_owned()]);
    }

    #[test]
    fn parse_ledger_reports_line_numbers() {
        let good = sample_record(QueryKind::Inclusion).to_json();
        let err = parse_ledger(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_ledger("{\"kind\":\"Bogus\"}\n").unwrap_err();
        assert!(err.contains("unknown ledger record kind"), "{err}");
    }

    #[test]
    fn disabled_ledger_never_builds_records() {
        let ledger = Ledger::disabled();
        ledger.record(|| panic!("record closure must not run when disabled"));
        assert!(!ledger.is_enabled());
    }

    #[test]
    fn enabled_ledger_assigns_dense_sequence_numbers() {
        let sink = Arc::new(CollectLedger::new());
        let ledger = Ledger::new(sink.clone());
        for _ in 0..3 {
            let record = sample_record(QueryKind::Product);
            ledger.emit(record);
        }
        let records = sink.take();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn tagged_ledger_stamps_request_ids_on_every_record() {
        let sink = Arc::new(CollectLedger::new());
        let ledger = Ledger::new_tagged(sink.clone(), "r7");
        ledger.emit(sample_record(QueryKind::Inclusion));
        ledger.emit(sample_record(QueryKind::Product));
        let records = sink.take();
        assert!(records
            .iter()
            .all(|r| r.request_id.as_deref() == Some("r7")));
        // Stamped records still round-trip and validate.
        for record in &records {
            let line = record.to_json();
            assert!(line.contains("\"request_id\":\"r7\""), "{line}");
            assert_eq!(parse_ledger(&line).expect("parses"), vec![record.clone()]);
            assert_eq!(schema::validate_jsonl(LEDGER_SCHEMA, &line), Ok(1));
        }
    }

    #[test]
    fn by_request_rollup_groups_and_ranks_by_wall_time() {
        let tag = |id: Option<&str>, ts_us: u64| {
            let mut record = sample_record(QueryKind::Inclusion);
            record.request_id = id.map(Arc::from);
            record.ts_us = ts_us;
            record
        };
        let records = vec![
            tag(Some("r0"), 10),
            tag(Some("r1"), 500),
            tag(Some("r1"), 500),
            tag(None, 1),
        ];
        let out = render_top_by_request(&records, 10);
        assert!(
            out.contains("4 records across 3 request(s)"),
            "header: {out}"
        );
        let rows: Vec<&str> = out.lines().skip(3).collect();
        assert!(rows[0].ends_with("r1") && rows[0].contains("1000"), "{out}");
        assert!(rows[1].ends_with("r0"), "{out}");
        assert!(rows[2].ends_with("(untagged)"), "{out}");
    }

    #[test]
    fn structural_hash_distinguishes_machines_and_is_stable() {
        let a = Nfa::literal(b"ab");
        let b = Nfa::literal(b"ba");
        assert_ne!(nfa_hash64(&a), nfa_hash64(&b));
        assert_eq!(nfa_hash64(&a), nfa_hash64(&Nfa::literal(b"ab")));
    }

    #[test]
    fn diff_ranks_the_slowed_query_first_and_gates() {
        let mut old = vec![sample_record(QueryKind::Inclusion)];
        old[0].lhs_fp = 0xaaaa;
        let mut second = sample_record(QueryKind::Inclusion);
        second.lhs_fp = 0xbbbb;
        old.push(second);
        let mut new = old.clone();
        new[1].ts_us += 100_000; // the artificially slowed query
        let report = render_diff(
            &old,
            &new,
            &DiffOptions {
                limit: 10,
                fail_above_pct: Some(50.0),
            },
        );
        let first_row = report.text.lines().nth(2).expect("at least one ranked row");
        assert!(first_row.contains("000000000000bbbb"), "{}", report.text);
        assert!(report.gate_breached, "{}", report.text);
        let calm = render_diff(
            &old,
            &old.clone(),
            &DiffOptions {
                limit: 10,
                fail_above_pct: Some(50.0),
            },
        );
        assert!(!calm.gate_breached, "{}", calm.text);
    }

    #[test]
    fn top_view_names_the_hottest_key() {
        let mut records = vec![
            sample_record(QueryKind::Inclusion),
            sample_record(QueryKind::Product),
        ];
        records[1].ts_us = 99_999;
        let out = render_top(&records, None, 5).expect("renders");
        let first_row = out
            .lines()
            .find(|l| l.trim_start().starts_with(char::is_numeric))
            .expect("ranked row");
        assert!(first_row.contains("Product"), "{out}");
    }
}
