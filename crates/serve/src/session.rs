//! Per-host detection sessions behind a sharded lock.
//!
//! A fleet submits interleaved telemetry from many hosts; each host needs
//! its own [`HostWindow`] (sliding window + vote smoothing are per-host
//! state), while every host's ready windows are scored through the one
//! trained detector the engine holds. [`SessionEngine`] keeps the windows
//! in N independently locked shards keyed by a hash of the host id, so
//! worker threads serving different hosts almost never contend, and evicts
//! sessions that have gone idle so a churning fleet cannot grow memory
//! without bound.
//!
//! # Determinism
//!
//! The verdict sequence of a host depends only on the counter readings fed
//! to *its* window, in `seq` order. The engine enforces strictly
//! increasing per-host `seq` (rejecting replays/reorders with
//! [`SubmitError::OutOfOrder`]) and rejects wrong-arity and non-finite
//! readings before they touch the window, so shard layout, worker count,
//! and cross-host interleaving cannot change any host's verdicts.
//!
//! # Stores
//!
//! Each shard holds its sessions in one of two interchangeable stores
//! ([`StoreKind`]):
//!
//! - **Slab** (default): sessions live in a `Vec<Slot>` slab with a
//!   free-list, looked up through a deterministic open-addressed
//!   `host_id → slot` index (fixed constant-seed hash, never iterated for
//!   output), and evicted through a two-level timer wheel bucketed by
//!   expiry tick — an idle sweep costs O(expiring), not O(resident).
//!   Evicted slots keep their window buffers and are reset in place on
//!   reuse, so steady-state submit and evict allocate nothing;
//!   generational handles guarantee a reincarnated host id can never
//!   observe a stale predecessor's seq/window state.
//! - **BTree**: the original `BTreeMap<u64, HostSession>` per shard with a
//!   full retain sweep. Kept in-tree as the behavioural oracle — both
//!   stores must produce byte-identical verdict streams, eviction sets,
//!   and eviction *order* (ascending shard index, then ascending host id
//!   within the shard).

use crate::metrics::Metrics;
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use twosmart::detector::{CascadeMode, TwoSmartDetector, Verdict};
use twosmart::online::{HostWindow, OnlineError};

/// Which per-shard session store backs the engine.
///
/// Both stores implement identical observable behaviour (verdicts,
/// eviction sets, eviction order, gauges); the slab is the fast path and
/// the BTreeMap is the oracle it is regression-tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// `BTreeMap<u64, HostSession>` per shard, full-scan retain eviction.
    BTree,
    /// Slab + open-addressed index + timer-wheel eviction.
    #[default]
    Slab,
}

impl std::str::FromStr for StoreKind {
    type Err = String;

    fn from_str(s: &str) -> Result<StoreKind, String> {
        match s {
            "btree" => Ok(StoreKind::BTree),
            "slab" => Ok(StoreKind::Slab),
            other => Err(format!("unknown store `{other}` (expected btree|slab)")),
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::BTree => "btree",
            StoreKind::Slab => "slab",
        })
    }
}

/// How the engine's logical clock advances.
///
/// `last_seen` stamps and the idle-eviction threshold are measured on this
/// clock, so the time source decides what "idle" means — and whether the
/// stamps depend on cross-host submit interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeSource {
    /// One tick per submit (the TCP server's mode): `idle_after` counts
    /// engine-wide submits since a host was last seen.
    #[default]
    PerSubmit,
    /// Caller-driven: the clock moves only via [`SessionEngine::set_time`]
    /// (the virtual-time simulation's mode). Every submit within one
    /// caller tick gets the same `last_seen`, so eviction boundaries are
    /// independent of how workers interleave submits inside a tick.
    External,
}

/// Tuning for the session engine.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of independently locked shards (clamped to ≥ 1).
    pub shards: usize,
    /// Sliding-window length of each host's [`HostWindow`].
    pub window: usize,
    /// Vote-smoothing depth of each host's [`HostWindow`].
    pub votes: usize,
    /// A session is evictable once this many logical ticks (see
    /// [`TimeSource`]) have passed since it last saw a submit. `0`
    /// disables eviction.
    pub idle_after: u64,
    /// What a logical tick is (defaults to one tick per submit).
    pub time: TimeSource,
    /// How the cascade decides whether to run stage 2 (defaults to
    /// [`CascadeMode::Always`], whose verdicts are
    /// [`TwoSmartDetector::detect`]'s).
    pub cascade: CascadeMode,
    /// Which per-shard store holds the sessions (defaults to
    /// [`StoreKind::Slab`]; `BTree` is the oracle).
    pub store: StoreKind,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            shards: 16,
            window: 8,
            votes: 3,
            idle_after: 1 << 20,
            time: TimeSource::PerSubmit,
            cascade: CascadeMode::Always,
            store: StoreKind::Slab,
        }
    }
}

/// Why a `Submit` was rejected. The submission is dropped without touching
/// the host's window state, so a bad frame never perturbs verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The reading did not carry one counter per programmed event.
    BadLength {
        /// Expected arity (the deployment's programmed event count).
        expected: usize,
        /// Rejected arity.
        got: usize,
    },
    /// `seq` was not strictly greater than the host's last accepted seq.
    OutOfOrder {
        /// Last accepted sequence number for the host.
        last: u64,
        /// Rejected sequence number.
        got: u64,
    },
    /// The reading carried a NaN or infinite counter.
    BadValue {
        /// Position of the first non-finite counter.
        index: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BadLength { expected, got } => {
                write!(f, "expected {expected} counters, got {got}")
            }
            SubmitError::OutOfOrder { last, got } => {
                write!(f, "seq {got} not after last accepted seq {last}")
            }
            SubmitError::BadValue { index } => write!(f, "counter {index} is not finite"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct HostSession {
    window: HostWindow,
    last_seq: Option<u64>,
    last_seen: u64,
}

/// One shard's sessions, behind one of the two interchangeable stores.
///
/// Every observable output of a shard — verdicts, the evicted set, the
/// order evicted hosts are reported in (ascending host id within the
/// shard) — is identical across variants; the hmd-sim digest and the
/// oracle tests below hold the two to byte equality.
enum ShardStore {
    /// Ordered map: every iteration visits hosts in ascending id order.
    BTree(BTreeMap<u64, HostSession>),
    /// Slab + open-addressed index + timer wheel (see [`SlabShard`]).
    Slab(SlabShard),
}

impl ShardStore {
    fn new(kind: StoreKind, idle_after: u64) -> ShardStore {
        match kind {
            StoreKind::BTree => ShardStore::BTree(BTreeMap::new()),
            StoreKind::Slab => ShardStore::Slab(SlabShard::new(idle_after)),
        }
    }

    /// Looks up `host_id`, admitting a fresh session stamped `last_seen =
    /// now` if absent. Returns the session and whether it was created.
    // hmd-analyze: hot-path
    fn get_or_admit(
        &mut self,
        host_id: u64,
        now: u64,
        template: &HostWindow,
    ) -> (&mut HostSession, bool) {
        match self {
            ShardStore::BTree(map) => {
                let mut created = false;
                let session = map.entry(host_id).or_insert_with(|| {
                    created = true;
                    HostSession {
                        // hmd-analyze: allow(hot-path-alloc, "one-time per-host session construction, not per-reading")
                        window: template.clone(),
                        last_seq: None,
                        last_seen: now,
                    }
                });
                (session, created)
            }
            ShardStore::Slab(slab) => slab.admit(host_id, now, template),
        }
    }

    fn len(&self) -> usize {
        match self {
            ShardStore::BTree(map) => map.len(),
            ShardStore::Slab(slab) => slab.len(),
        }
    }

    /// Appends the shard's expired hosts (ascending host id) to `evicted`
    /// and removes their sessions. `idle_after` must be non-zero.
    // hmd-analyze: hot-path
    fn evict_expired(&mut self, now: u64, idle_after: u64, evicted: &mut Vec<u64>) {
        match self {
            ShardStore::BTree(map) => {
                // BTreeMap::retain visits keys in ascending order, so the
                // per-shard segment of `evicted` is sorted by host id.
                map.retain(|&host, s| {
                    let keep = now.saturating_sub(s.last_seen) <= idle_after;
                    if !keep {
                        evicted.push(host);
                    }
                    keep
                });
            }
            ShardStore::Slab(slab) => slab.evict_expired(now, idle_after, evicted),
        }
    }
}

/// A slab-backed session shard.
///
/// Sessions live in `slots`; a freed slot keeps its window buffers on the
/// `free` list and is **reset in place** when a new host reuses it, so
/// session churn allocates nothing in steady state. `host_id → slot`
/// lookups go through [`SlotIndex`]; idle expiry goes through [`Wheel`].
///
/// Each slot carries a generation counter, bumped on eviction. A wheel
/// entry snapshots the generation it was filed under, so an entry that
/// outlives its slot's occupant (impossible today — eviction is the only
/// consumer and every occupied slot has exactly one live entry — but
/// cheap to guard) is discarded instead of touching the successor.
struct SlabShard {
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    index: SlotIndex,
    wheel: Wheel,
    /// Engine idle threshold, denormalized for expiry stamps.
    idle_after: u64,
    /// `(host_id, slot)` scratch reused by [`SlabShard::evict_expired`].
    expired: Vec<(u64, u32)>,
}

struct Slot {
    host_id: u64,
    /// Bumped when the slot is evicted; wheel entries filed under an
    /// older generation are stale and ignored.
    generation: u32,
    occupied: bool,
    session: HostSession,
}

impl SlabShard {
    fn new(idle_after: u64) -> SlabShard {
        SlabShard {
            slots: Vec::new(),
            free: Vec::new(),
            index: SlotIndex::new(),
            wheel: Wheel::new(idle_after),
            idle_after,
            expired: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.len
    }

    /// [`ShardStore::get_or_admit`] for the slab: reuses a freed slot
    /// (resetting its window in place) before growing the slab.
    // hmd-analyze: hot-path
    fn admit(&mut self, host_id: u64, now: u64, template: &HostWindow) -> (&mut HostSession, bool) {
        if let Some(slot) = self.index.lookup(host_id) {
            return (&mut self.slots[slot as usize].session, false);
        }
        let slot = match self.free.pop() {
            Some(i) => {
                // Reset-in-place: the freed slot keeps its ring and vote
                // buffers; clearing them is O(k), not a fresh allocation.
                let s = &mut self.slots[i as usize];
                s.host_id = host_id;
                s.occupied = true;
                s.session.window.reset();
                s.session.last_seq = None;
                s.session.last_seen = now;
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot {
                    host_id,
                    generation: 0,
                    occupied: true,
                    session: HostSession {
                        // hmd-analyze: allow(hot-path-alloc, "one-time per-host session construction, not per-reading")
                        window: template.clone(),
                        last_seq: None,
                        last_seen: now,
                    },
                });
                i
            }
        };
        self.index.insert(host_id, slot);
        if self.idle_after > 0 {
            let generation = self.slots[slot as usize].generation;
            let expiry = expiry_of(now, self.idle_after);
            self.wheel
                .file_entry(WheelEntry { slot, generation }, expiry);
        }
        (&mut self.slots[slot as usize].session, true)
    }

    /// O(expiring) idle sweep: advances the wheel to `now`, exact-checks
    /// every candidate against its slot's *current* `last_seen` (a submit
    /// since filing only restamped the slot, it did not touch the wheel),
    /// refiles survivors at their refreshed expiry, and frees the rest in
    /// ascending host-id order so the observable eviction order matches
    /// the BTree store exactly.
    // hmd-analyze: hot-path
    fn evict_expired(&mut self, now: u64, idle_after: u64, evicted: &mut Vec<u64>) {
        self.wheel.advance_to(now);
        let mut candidates = std::mem::take(&mut self.wheel.candidates);
        self.expired.clear();
        for entry in candidates.drain(..) {
            let slot = &mut self.slots[entry.slot as usize];
            if !slot.occupied || slot.generation != entry.generation {
                continue; // stale handle: the occupant it was filed for is gone
            }
            if now.saturating_sub(slot.session.last_seen) > idle_after {
                self.expired.push((slot.host_id, entry.slot));
            } else {
                // Refreshed since filing: refile at the new expiry. The
                // slot keeps exactly one live wheel entry.
                let expiry = expiry_of(slot.session.last_seen, idle_after);
                self.wheel.file_entry(entry, expiry);
            }
        }
        self.wheel.candidates = candidates;
        // Wheel buckets pop in expiry order, not host order; sort so the
        // per-shard segment of `evicted` matches the BTree store's
        // ascending-host-id retain order byte for byte.
        self.expired.sort_unstable();
        for i in 0..self.expired.len() {
            let (host, slot) = self.expired[i];
            self.index.remove(host);
            let s = &mut self.slots[slot as usize];
            s.occupied = false;
            s.generation = s.generation.wrapping_add(1);
            self.free.push(slot);
            evicted.push(host);
        }
    }
}

/// When a session last seen at `last_seen` crosses the idle threshold:
/// the first tick `t` with `t - last_seen > idle_after`.
fn expiry_of(last_seen: u64, idle_after: u64) -> u64 {
    last_seen.saturating_add(idle_after).saturating_add(1)
}

/// Deterministic open-addressed `host_id → slot` index.
///
/// Linear probing over a power-of-two table with backward-shift deletion
/// (no tombstones, so probe chains never rot). The hash is a fixed
/// constant-seed SplitMix64 finalizer: layout depends only on the set of
/// resident host ids, never on insertion order randomness — and the table
/// is **never iterated for output**, so the layout cannot leak into any
/// observable ordering. Grows at 7/8 load; growth is the only allocation
/// and happens at most O(log resident) times per shard lifetime.
struct SlotIndex {
    entries: Vec<IndexEntry>,
    mask: u64,
    len: usize,
}

#[derive(Clone, Copy)]
struct IndexEntry {
    host: u64,
    slot: u32,
}

impl IndexEntry {
    const VACANT: IndexEntry = IndexEntry {
        host: 0,
        slot: u32::MAX,
    };

    fn is_vacant(self) -> bool {
        self.slot == u32::MAX
    }
}

/// SplitMix64 finalizer (same mixing family as `hmd_ml::par::derive_seed`)
/// with a fixed seed: full-avalanche spread of sequential host ids across
/// the table, identical on every run.
// hmd-analyze: det-index
fn mix(host: u64) -> u64 {
    let mut z = host.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SlotIndex {
    const INITIAL_CAPACITY: usize = 16;

    fn new() -> SlotIndex {
        SlotIndex {
            entries: vec![IndexEntry::VACANT; SlotIndex::INITIAL_CAPACITY],
            mask: SlotIndex::INITIAL_CAPACITY as u64 - 1,
            len: 0,
        }
    }

    // hmd-analyze: hot-path
    fn lookup(&self, host: u64) -> Option<u32> {
        let mut i = (mix(host) & self.mask) as usize;
        loop {
            let e = self.entries[i];
            if e.is_vacant() {
                return None;
            }
            if e.host == host {
                return Some(e.slot);
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Inserts a host known to be absent.
    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "reaches index growth, which is amortized doubling per session admission, never per-reading")
    fn insert(&mut self, host: u64, slot: u32) {
        if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
        }
        let mut i = (mix(host) & self.mask) as usize;
        while !self.entries[i].is_vacant() {
            i = (i + 1) & self.mask as usize;
        }
        self.entries[i] = IndexEntry { host, slot };
        self.len += 1;
    }

    /// Removes a host known to be present, backward-shifting the tail of
    /// its probe cluster so lookups never need tombstones.
    // hmd-analyze: hot-path
    fn remove(&mut self, host: u64) {
        let mask = self.mask as usize;
        let mut pos = (mix(host) & self.mask) as usize;
        while self.entries[pos].host != host || self.entries[pos].is_vacant() {
            pos = (pos + 1) & mask;
        }
        self.entries[pos] = IndexEntry::VACANT;
        self.len -= 1;
        let mut i = pos;
        loop {
            i = (i + 1) & mask;
            let e = self.entries[i];
            if e.is_vacant() {
                return;
            }
            // An entry probing from `ideal` may fill the hole at `pos`
            // only if the hole does not sit between its ideal position
            // and where it landed (circularly) — otherwise moving it
            // would break its own probe chain.
            let ideal = (mix(e.host) & self.mask) as usize;
            if (i.wrapping_sub(ideal) & mask) >= (i.wrapping_sub(pos) & mask) {
                self.entries[pos] = e;
                self.entries[i] = IndexEntry::VACANT;
                pos = i;
            }
        }
    }

    fn grow(&mut self) {
        let cap = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![IndexEntry::VACANT; cap]);
        self.mask = cap as u64 - 1;
        for e in old {
            if e.is_vacant() {
                continue;
            }
            let mut i = (mix(e.host) & self.mask) as usize;
            while !self.entries[i].is_vacant() {
                i = (i + 1) & self.mask as usize;
            }
            self.entries[i] = e;
        }
    }
}

/// A two-level hierarchical timer wheel over the engine's logical clock.
///
/// Level 0 has 256 buckets of `granule` ticks each; level 1 has 64
/// buckets of `256 × granule`. The granule is sized so `idle_after + 2`
/// ticks fit inside the full wheel span, so a freshly filed expiry needs
/// at most one hop (L1 → L0) before it pops at the right bucket.
///
/// Invariants (the equivalence proof against the BTree retain sweep):
///
/// - **Exact check on pop.** A popped entry is evicted only if the BTree
///   keep-rule `now − last_seen ≤ idle_after` fails against the slot's
///   current `last_seen`; otherwise it is refiled at the refreshed
///   expiry. Bucketing therefore only schedules *when* a session is
///   examined, never *whether* it expires.
/// - **No late pops.** An entry is filed at or before its true expiry
///   bucket (far-future expiries clamp to the furthest L1 bucket and hop
///   again on drain), so every expired session is examined by the sweep
///   that crosses its expiry tick.
/// - **Every due bucket drains.** An advance drains every L0 bucket from
///   the wheel's position through `now` inclusive (the current bucket is
///   re-drained — past-due filings clamp into it) and every L1 bucket
///   strictly entered, so no due entry is skipped; survivors refile
///   strictly ahead of `now`.
/// - **The wheel never rewinds.** A sweep at an earlier `now` than the
///   wheel has reached drains only the current position — matching the
///   BTree sweep, which under `saturating_sub` also evicts nothing new
///   when time steps backwards.
struct Wheel {
    /// Ticks per L0 bucket (≥ 1).
    granule: u64,
    l0: Vec<Vec<WheelEntry>>,
    l1: Vec<Vec<WheelEntry>>,
    /// The tick the wheel has advanced to (monotone).
    now: u64,
    /// Drained entries awaiting the exact check, reused across sweeps.
    candidates: Vec<WheelEntry>,
}

#[derive(Clone, Copy)]
struct WheelEntry {
    slot: u32,
    generation: u32,
}

const L0_BUCKETS: u64 = 256;
const L1_BUCKETS: u64 = 64;

impl Wheel {
    fn new(idle_after: u64) -> Wheel {
        let span = idle_after.saturating_add(2);
        let granule = span.div_ceil(L0_BUCKETS * L1_BUCKETS).max(1);
        Wheel {
            granule,
            l0: (0..L0_BUCKETS).map(|_| Vec::new()).collect(),
            l1: (0..L1_BUCKETS).map(|_| Vec::new()).collect(),
            now: 0,
            candidates: Vec::new(),
        }
    }

    /// Files `entry` to pop at (or before) `expiry`. Past-due expiries
    /// clamp to the current bucket; far-future expiries clamp to the
    /// furthest L1 bucket and hop closer when that bucket drains.
    // hmd-analyze: hot-path
    fn file_entry(&mut self, entry: WheelEntry, expiry: u64) {
        let e = expiry.max(self.now);
        let b0_now = self.now / self.granule;
        let b0 = e / self.granule;
        if b0 - b0_now < L0_BUCKETS {
            self.l0[(b0 % L0_BUCKETS) as usize].push(entry);
            return;
        }
        let l1_span = self.granule * L0_BUCKETS;
        let b1_now = self.now / l1_span;
        let b1 = (e / l1_span).min(b1_now + L1_BUCKETS - 1);
        self.l1[(b1 % L1_BUCKETS) as usize].push(entry);
    }

    /// Moves the wheel to `now` (never backwards), draining every due
    /// bucket into `candidates` for the caller's exact check.
    // hmd-analyze: hot-path
    fn advance_to(&mut self, now: u64) {
        let start = self.now;
        self.now = self.now.max(now);
        let b0_start = start / self.granule;
        let b0_end = self.now / self.granule;
        let n0 = (b0_end - b0_start).min(L0_BUCKETS - 1);
        for b in b0_start..=b0_start + n0 {
            self.candidates
                .append(&mut self.l0[(b % L0_BUCKETS) as usize]);
        }
        let l1_span = self.granule * L0_BUCKETS;
        let b1_start = start / l1_span;
        let b1_end = self.now / l1_span;
        if b1_end > b1_start {
            // No entry is ever filed into the L1 bucket the wheel sits
            // in (deltas ≥ one L1 span land strictly ahead), so only the
            // strictly-entered buckets can hold entries.
            let n1 = (b1_end - b1_start).min(L1_BUCKETS);
            for b in b1_start + 1..=b1_start + n1 {
                self.candidates
                    .append(&mut self.l1[(b % L1_BUCKETS) as usize]);
            }
        }
    }
}

/// A reusable queue of submissions for [`SessionEngine::submit_batch`].
///
/// A connection pump accumulates decoded `Submit` frames here, then one
/// `submit_batch` call drains them in submission order. Buffers are
/// reused across drains; steady state allocates nothing.
#[derive(Debug, Default)]
pub struct SubmitBatch {
    /// `(host_id, seq)` per queued item, in submission order.
    hosts: Vec<(u64, u64)>,
    /// Length of each item's counter slice within `counters`.
    lens: Vec<u32>,
    /// Flat concatenation of every item's counters.
    counters: Vec<f64>,
    /// Per-item outcome, filled by [`SessionEngine::submit_batch`].
    results: Vec<Result<Option<Verdict>, SubmitError>>,
}

impl SubmitBatch {
    /// An empty batch; buffers grow on first use.
    pub fn new() -> SubmitBatch {
        SubmitBatch::default()
    }

    /// Queues one submission.
    // hmd-analyze: hot-path
    pub fn push(&mut self, host_id: u64, seq: u64, counters: &[f64]) {
        self.hosts.push((host_id, seq));
        self.lens.push(counters.len() as u32);
        self.counters.extend_from_slice(counters);
    }

    /// Number of queued submissions.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Per-item outcomes of the last [`SessionEngine::submit_batch`], in
    /// submission order, paired with each item's `(host_id, seq)`.
    pub fn results(
        &self,
    ) -> impl Iterator<Item = ((u64, u64), &Result<Option<Verdict>, SubmitError>)> {
        self.hosts.iter().copied().zip(self.results.iter())
    }

    /// Clears the queue for the next drain (keeps capacity).
    // hmd-analyze: hot-path
    pub fn clear(&mut self) {
        self.hosts.clear();
        self.lens.clear();
        self.counters.clear();
        self.results.clear();
    }
}

/// Sharded host-id → [`HostWindow`] map, scored through one detector.
pub struct SessionEngine {
    shards: Vec<Mutex<ShardStore>>,
    /// The trained detector every host's ready windows are scored through.
    detector: TwoSmartDetector,
    /// Never-pushed window state cloned for each new host.
    template: HostWindow,
    idle_after: u64,
    /// Logical clock; advanced per submit or externally per [`TimeSource`].
    clock: AtomicU64,
    time: TimeSource,
    /// Stage-2 gating policy of every cascade the engine runs.
    cascade: CascadeMode,
    /// In-memory bytes of one session, computed once from the template;
    /// feeds the `session_bytes` gauge.
    per_session_bytes: u64,
    metrics: Arc<Metrics>,
}

impl SessionEngine {
    /// Builds an engine that scores every host through `detector`, with
    /// per-host windows sized by the config's window/votes.
    ///
    /// # Errors
    ///
    /// Propagates [`OnlineError`] if the detector is not 4-HPC deployable
    /// or the window/votes are zero.
    pub fn new(
        detector: TwoSmartDetector,
        config: &SessionConfig,
        metrics: Arc<Metrics>,
    ) -> Result<SessionEngine, OnlineError> {
        let template = HostWindow::new(&detector, config.window, config.votes)?;
        let per_session_bytes = (std::mem::size_of::<HostSession>() + template.heap_bytes()) as u64;
        let shards = (0..config.shards.max(1))
            .map(|_| Mutex::new(ShardStore::new(config.store, config.idle_after)))
            .collect();
        Ok(SessionEngine {
            shards,
            detector,
            template,
            idle_after: config.idle_after,
            clock: AtomicU64::new(0),
            time: config.time,
            cascade: config.cascade,
            per_session_bytes,
            metrics,
        })
    }

    /// The stage-2 gating policy every cascade runs under.
    pub fn cascade(&self) -> CascadeMode {
        self.cascade
    }

    /// Locks a shard, recovering from poisoning: a worker that panicked
    /// while holding the lock must not wedge every other worker mapped to
    /// this shard. Session state stays consistent under recovery because
    /// each submit rewrites the fields it touches.
    fn lock(shard: &Mutex<ShardStore>) -> MutexGuard<'_, ShardStore> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drains a queue of submissions in one pass, in submission order.
    ///
    /// Each item takes its host's shard lock once. Under it the pass ticks
    /// the clock, admits the host, checks the seq and advances the window;
    /// when the window is full it also runs
    /// [`TwoSmartDetector::cascade`] under the engine's [`CascadeMode`],
    /// folds the verdict into the host's vote smoothing, and counts the
    /// stage-2 work.
    ///
    /// Under [`CascadeMode::Always`] each host's accepted results are
    /// bit-identical to feeding its readings to its own
    /// [`OnlineDetector::push`](twosmart::online::OnlineDetector::push):
    /// the windowing, cascade and smoothing are the same code.
    ///
    /// Results land in `batch` (see [`SubmitBatch::results`]); per-class
    /// stage-2 invocation/skip counts land in the engine's metrics.
    // hmd-analyze: hot-path
    pub fn submit_batch(&self, batch: &mut SubmitBatch) {
        batch.results.clear();
        let mut stage2_invoked = [0u64; AppClass::MALWARE.len()];
        let mut stage2_skipped = [0u64; AppClass::MALWARE.len()];
        let mut offset = 0usize;
        for (&(host_id, seq), &len) in batch.hosts.iter().zip(batch.lens.iter()) {
            let counters = &batch.counters[offset..offset + len as usize];
            offset += len as usize;
            let now = match self.time {
                TimeSource::PerSubmit => self.clock.fetch_add(1, Ordering::Relaxed),
                TimeSource::External => self.clock.load(Ordering::Relaxed),
            };
            let mut shard = Self::lock(&self.shards[self.shard_of(host_id)]);
            let (session, created) = shard.get_or_admit(host_id, now, &self.template);
            if created {
                self.metrics.bump(&self.metrics.sessions);
                self.metrics
                    .add(&self.metrics.session_bytes, self.per_session_bytes);
            }
            if let Some(last) = session.last_seq {
                if seq <= last {
                    batch
                        .results
                        .push(Err(SubmitError::OutOfOrder { last, got: seq }));
                    continue;
                }
            }
            let mut features44 = [0.0; Event::COUNT];
            let ready = match session.window.advance_window(counters, &mut features44) {
                Ok(ready) => ready,
                Err(e) => {
                    batch.results.push(Err(match e {
                        OnlineError::BadLength { expected, got } => {
                            SubmitError::BadLength { expected, got }
                        }
                        OnlineError::BadValue { index } => SubmitError::BadValue { index },
                        // Construction-time failures `advance_window` cannot
                        // return; reject the frame rather than panicking.
                        _ => SubmitError::BadLength {
                            expected: self.template.arity(),
                            got: counters.len(),
                        },
                    }));
                    continue;
                }
            };
            session.last_seq = Some(seq);
            session.last_seen = now;
            if !ready {
                batch.results.push(Ok(None));
                continue;
            }
            let cv = self.detector.cascade(&features44, self.cascade);
            if cv.routed != AppClass::Benign {
                // MALWARE is ordered by label (backdoor, rootkit, virus,
                // trojan), so a malware class' counter slot is label − 1.
                let idx = cv.routed.label() - 1;
                if cv.stage2_ran {
                    stage2_invoked[idx] += 1;
                } else {
                    stage2_skipped[idx] += 1;
                }
            }
            batch
                .results
                .push(Ok(Some(session.window.apply_verdict(cv.verdict))));
        }
        self.metrics.add_stage2(&stage2_invoked, &stage2_skipped);
    }

    /// Removes sessions idle for more than `idle_after` ticks as of the
    /// engine's current clock. Returns the evicted host ids (also counted
    /// into the `evictions` metric) in a deterministic order: ascending
    /// shard index, then ascending host id within the shard — so eviction
    /// logs diff cleanly run to run.
    pub fn evict_idle(&self) -> Vec<u64> {
        self.evict_idle_at(self.clock.load(Ordering::Relaxed))
    }

    /// [`evict_idle`](Self::evict_idle) with a caller-supplied notion of
    /// "now" on the engine's logical clock — the virtual-time simulation
    /// sweeps sessions at tick boundaries through this.
    pub fn evict_idle_at(&self, now: u64) -> Vec<u64> {
        let mut evicted = Vec::new();
        self.evict_idle_at_into(now, &mut evicted);
        evicted
    }

    /// [`evict_idle_at`](Self::evict_idle_at) into a caller-supplied
    /// buffer (cleared first) — the allocation-free form the per-burst
    /// hot path uses with a per-connection scratch vector.
    ///
    /// On the slab store a sweep costs O(expiring), not O(resident): only
    /// wheel buckets whose expiry ticks have passed are examined.
    // hmd-analyze: hot-path
    pub fn evict_idle_at_into(&self, now: u64, evicted: &mut Vec<u64>) {
        evicted.clear();
        if self.idle_after == 0 {
            return;
        }
        for shard in &self.shards {
            let mut store = Self::lock(shard);
            store.evict_expired(now, self.idle_after, evicted);
        }
        let n = evicted.len() as u64;
        self.metrics.add(&self.metrics.evictions, n);
        self.metrics.sub(&self.metrics.sessions, n);
        self.metrics
            .sub(&self.metrics.session_bytes, n * self.per_session_bytes);
    }

    /// Live session count across all shards.
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// Submits processed so far (the engine's logical clock).
    pub fn ticks(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Sets the logical clock (meaningful with [`TimeSource::External`]):
    /// the simulation calls this once per virtual tick, so every submit in
    /// the tick shares one `last_seen` stamp regardless of worker
    /// interleaving.
    // hmd-analyze: det-sink
    pub fn set_time(&self, now: u64) {
        self.clock.store(now, Ordering::Relaxed);
    }

    /// In-memory bytes of one host session: the session struct plus its
    /// window and vote buffers. Computed once at construction; the
    /// `session_bytes` gauge tracks `sessions() * session_bytes_estimate()`.
    pub fn session_bytes_estimate(&self) -> u64 {
        self.per_session_bytes
    }

    fn shard_of(&self, host_id: u64) -> usize {
        // SplitMix-style finalizer (same family as `hmd_ml::par::derive_seed`)
        // so sequential host ids spread across shards.
        (hmd_ml::par::derive_seed(host_id, 0) % self.shards.len() as u64) as usize
    }
}

impl std::fmt::Debug for SessionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEngine")
            .field("shards", &self.shards.len())
            .field("sessions", &self.sessions())
            .field("ticks", &self.ticks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
    use hmd_hpc_sim::workload::AppClass;
    use hmd_ml::classifier::ClassifierKind;
    use twosmart::online::OnlineDetector;

    fn detector() -> TwoSmartDetector {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder().seed(4).hpc_budget(4),
                |b, &c| b.classifier_for(c, ClassifierKind::OneR),
            )
            .train(&corpus)
            .expect("detector trains")
    }

    fn engine(config: &SessionConfig) -> SessionEngine {
        SessionEngine::new(detector(), config, Arc::new(Metrics::new())).unwrap()
    }

    /// One reading drained through a one-item batch.
    fn submit(
        e: &SessionEngine,
        host_id: u64,
        seq: u64,
        counters: &[f64],
    ) -> Result<Option<Verdict>, SubmitError> {
        let mut batch = SubmitBatch::new();
        batch.push(host_id, seq, counters);
        e.submit_batch(&mut batch);
        batch.results.pop().expect("one item queued")
    }

    #[test]
    fn per_host_sessions_are_independent() {
        let e = engine(&SessionConfig {
            window: 2,
            ..SessionConfig::default()
        });
        let r = [1e5, 1e4, 1e3, 1e2];
        // Host 1 fills its 2-window; host 2's window is untouched by it.
        assert_eq!(submit(&e, 1, 0, &r), Ok(None));
        assert!(submit(&e, 1, 1, &r).unwrap().is_some());
        assert_eq!(submit(&e, 2, 0, &r), Ok(None), "fresh host starts warm-up");
        assert_eq!(e.sessions(), 2);
    }

    #[test]
    fn out_of_order_and_replayed_seqs_are_rejected() {
        let e = engine(&SessionConfig::default());
        let r = [1.0, 1.0, 1.0, 1.0];
        submit(&e, 9, 5, &r).unwrap();
        assert_eq!(
            submit(&e, 9, 5, &r),
            Err(SubmitError::OutOfOrder { last: 5, got: 5 })
        );
        assert_eq!(
            submit(&e, 9, 2, &r),
            Err(SubmitError::OutOfOrder { last: 5, got: 2 })
        );
        // Gaps are fine (lost datagrams happen); order is what matters.
        assert!(submit(&e, 9, 100, &r).is_ok());
    }

    #[test]
    fn wrong_arity_is_rejected_without_consuming_seq() {
        let e = engine(&SessionConfig::default());
        assert_eq!(
            submit(&e, 3, 0, &[1.0, 2.0]),
            Err(SubmitError::BadLength {
                expected: 4,
                got: 2
            })
        );
        // The rejected frame did not advance last_seq: seq 0 still works.
        assert!(submit(&e, 3, 0, &[1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn idle_sessions_are_evicted_and_active_ones_kept() {
        let metrics = Arc::new(Metrics::new());
        let e = SessionEngine::new(
            detector(),
            &SessionConfig {
                idle_after: 4,
                ..SessionConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let r = [1.0, 1.0, 1.0, 1.0];
        submit(&e, 1, 0, &r).unwrap();
        // Keep host 2 active while host 1 idles past the threshold.
        for seq in 0..8 {
            submit(&e, 2, seq, &r).unwrap();
        }
        assert_eq!(e.evict_idle(), vec![1]);
        assert_eq!(e.sessions(), 1);
        assert_eq!(metrics.snapshot().evictions, 1);
        // Returning host 1 restarts warm-up (fresh window).
        assert_eq!(submit(&e, 1, 99, &r), Ok(None));
    }

    #[test]
    fn eviction_disabled_with_zero_idle_after() {
        let e = engine(&SessionConfig {
            idle_after: 0,
            ..SessionConfig::default()
        });
        submit(&e, 1, 0, &[1.0; 4]).unwrap();
        for seq in 0..64 {
            submit(&e, 2, seq, &[1.0; 4]).unwrap();
        }
        assert_eq!(e.evict_idle(), Vec::<u64>::new());
        assert_eq!(e.sessions(), 2);
    }

    #[test]
    fn eviction_order_is_deterministic_across_runs_and_shard_counts() {
        let r = [1.0, 1.0, 1.0, 1.0];
        // Hosts chosen to scatter across shards; all go idle together.
        let hosts: Vec<u64> = (0..24).map(|i| i * 977 + 13).collect();
        let run = |shards: usize| {
            let e = engine(&SessionConfig {
                shards,
                idle_after: 4,
                ..SessionConfig::default()
            });
            for &h in &hosts {
                submit(&e, h, 0, &r).unwrap();
            }
            // One host stays hot while the rest idle past the threshold.
            for seq in 1..40 {
                submit(&e, hosts[0], seq, &r).unwrap();
            }
            e.evict_idle()
        };
        let a = run(8);
        let b = run(8);
        assert_eq!(a, b, "same config must evict in the same order");
        assert_eq!(a.len(), hosts.len() - 1);
        // The evicted *set* is shard-layout independent even though the
        // order legitimately depends on the shard count.
        let mut set_a = a.clone();
        set_a.sort_unstable();
        let mut set_c = run(3);
        set_c.sort_unstable();
        let mut expected: Vec<u64> = hosts[1..].to_vec();
        expected.sort_unstable();
        assert_eq!(set_a, expected);
        assert_eq!(set_c, expected);
        // Within each run the per-shard segments are host-id sorted, so a
        // single-shard engine must return a fully sorted list.
        assert_eq!(
            run(1),
            expected,
            "single shard evicts in ascending host-id order"
        );
    }

    #[test]
    fn session_gauges_track_creation_and_eviction() {
        let metrics = Arc::new(Metrics::new());
        let e = SessionEngine::new(
            detector(),
            &SessionConfig {
                idle_after: 2,
                ..SessionConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let per = e.session_bytes_estimate();
        // Window and vote buffers only: no model rides along per session.
        assert!((1..1024).contains(&per), "{per} B per session");
        let r = [1.0; 4];
        submit(&e, 1, 0, &r).unwrap();
        submit(&e, 2, 0, &r).unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.sessions, 2);
        assert_eq!(s.session_bytes, 2 * per);
        // Resubmits to a live session must not re-count it.
        submit(&e, 2, 1, &r).unwrap();
        assert_eq!(metrics.snapshot().sessions, 2);
        for seq in 2..8 {
            submit(&e, 2, seq, &r).unwrap();
        }
        assert_eq!(e.evict_idle(), vec![1]);
        let s = metrics.snapshot();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.session_bytes, per);
    }

    #[test]
    fn external_time_source_is_submit_order_independent() {
        // With an external clock, every submit in a tick shares one
        // last_seen stamp, so eviction outcomes cannot depend on how
        // submits interleave within the tick.
        let run = |hosts: &[u64]| {
            let e = engine(&SessionConfig {
                idle_after: 3,
                time: TimeSource::External,
                ..SessionConfig::default()
            });
            let r = [1.0; 4];
            e.set_time(0);
            for &h in hosts {
                submit(&e, h, 0, &r).unwrap();
            }
            for t in 1..=5 {
                e.set_time(t);
                submit(&e, 7, t, &r).unwrap(); // host 7 stays hot
            }
            let mut out = e.evict_idle_at(5);
            out.sort_unstable();
            out
        };
        let forward = run(&[3, 5, 7, 9]);
        let reverse = run(&[9, 7, 5, 3]);
        assert_eq!(forward, reverse);
        assert_eq!(forward, vec![3, 5, 9]);
    }

    #[test]
    fn per_submit_clock_still_advances_by_default() {
        let e = engine(&SessionConfig::default());
        let r = [1.0; 4];
        submit(&e, 1, 0, &r).unwrap();
        submit(&e, 1, 1, &r).unwrap();
        assert_eq!(e.ticks(), 2, "default mode ticks once per submit");
    }

    #[test]
    fn submit_racing_eviction_lands_or_restarts_deterministically() {
        // Regression: a submit arriving the same logical tick a host
        // crosses the idle threshold. Whichever side wins the shard lock,
        // the outcome must be one of exactly two defined states — the
        // submit lands in the old session, or it restarts a fresh one
        // (warm-up verdict) — never a panic or a silently dropped frame.
        let r = [1.0; 4];
        let mk = || {
            let e = engine(&SessionConfig {
                idle_after: 2,
                time: TimeSource::External,
                ..SessionConfig::default()
            });
            e.set_time(0);
            submit(&e, 42, 0, &r).unwrap();
            e.set_time(7); // idle threshold long passed
            e
        };
        // Order A: eviction first → the submit restarts the session with
        // fresh seq space, so even a replayed seq 0 is accepted (warm-up).
        let e = mk();
        assert_eq!(e.evict_idle_at(7), vec![42]);
        assert_eq!(submit(&e, 42, 0, &r), Ok(None));
        assert_eq!(e.sessions(), 1);
        // Order B: submit first → it refreshes last_seen, so the same-tick
        // sweep must keep the session and the seq guard still applies.
        let e = mk();
        assert_eq!(submit(&e, 42, 1, &r), Ok(None));
        assert_eq!(e.evict_idle_at(7), Vec::<u64>::new());
        assert_eq!(
            submit(&e, 42, 1, &r),
            Err(SubmitError::OutOfOrder { last: 1, got: 1 })
        );
    }

    #[test]
    fn concurrent_submits_and_evictions_never_panic_or_drop() {
        // Threaded stress of the same race: many hosts submitting while a
        // sweeper evicts with an ever-advancing external clock. Every
        // submit must return Ok — each thread owns its host's seq space,
        // and eviction between submits only restarts warm-up.
        use std::sync::atomic::AtomicBool;
        let e = Arc::new(
            SessionEngine::new(
                detector(),
                &SessionConfig {
                    shards: 4,
                    idle_after: 1,
                    time: TimeSource::External,
                    ..SessionConfig::default()
                },
                Arc::new(Metrics::new()),
            )
            .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let (e, stop) = (Arc::clone(&e), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut now = 0;
                while !stop.load(Ordering::Relaxed) {
                    now += 1;
                    e.set_time(now);
                    e.evict_idle_at(now);
                }
            })
        };
        let workers: Vec<_> = (0..4)
            .map(|host| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    let r = [1.0; 4];
                    for seq in 0..2000 {
                        submit(&e, host, seq, &r).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("no worker panicked");
        }
        stop.store(true, Ordering::Relaxed);
        sweeper.join().expect("sweeper never panicked");
    }

    #[test]
    fn submit_batch_matches_online_detector_push_item_for_item() {
        // An interleaved stream — warm-ups, full windows, a replayed seq, a
        // wrong arity and a NaN reading — drained at every chunk size, so
        // drain boundaries fall wherever a pump could flush. Under Always,
        // every accepted item must equal one `OnlineDetector::push` per
        // host, and every rejected item must leave its host's window as if
        // it had never been sent. Under Gated, the results and stage-2
        // counters must equal those of one-item drains.
        let config = SessionConfig {
            window: 2,
            votes: 1,
            ..SessionConfig::default()
        };
        let det = detector();
        // Corpus readings of the programmed events, so that stage 1 routes
        // some windows to malware classes.
        let events = det.runtime_events().expect("4-HPC detector").to_vec();
        let readings: Vec<Vec<f64>> = CorpusBuilder::new(CorpusSpec::tiny())
            .build()
            .records()
            .iter()
            .map(|r| events.iter().map(|e| r.features[e.index()]).collect())
            .collect();
        let mut stream: Vec<(u64, u64, Vec<f64>, Option<SubmitError>)> = Vec::new();
        for seq in 0..6 {
            for host in [1u64, 2, 3] {
                let reading = &readings[(seq * 3 + host) as usize * 5 % readings.len()];
                stream.push((host, seq, reading.clone(), None));
            }
        }
        let replay = SubmitError::OutOfOrder { last: 5, got: 2 };
        stream.push((1, 2, vec![1.0; 4], Some(replay)));
        let arity = SubmitError::BadLength {
            expected: 4,
            got: 2,
        };
        stream.push((2, 99, vec![1.0, 2.0], Some(arity)));
        let nan = SubmitError::BadValue { index: 1 };
        stream.push((3, 98, vec![2e5, f64::NAN, 4e3, 5e2], Some(nan)));
        for host in [1u64, 2, 3] {
            stream.push((host, 99, vec![2e5, 3e4, 4e3, 5e2 + host as f64], None));
        }

        // The per-host oracle, and each full window's routed-class stage-1
        // confidence, from which the gate is set between the median and
        // the rest so that it both skips and runs stage 2.
        let mut oracles: BTreeMap<u64, OnlineDetector> = BTreeMap::new();
        let mut confidences = Vec::new();
        let want: Vec<_> = stream
            .iter()
            .map(|(h, _, c, rejected)| match rejected {
                Some(e) => Err(e.clone()),
                None => {
                    let oracle = oracles.entry(*h).or_insert_with(|| {
                        OnlineDetector::new(det.clone(), config.window, config.votes).unwrap()
                    });
                    let mut shadow = oracle.clone();
                    let mut features44 = [0.0; Event::COUNT];
                    if shadow.advance_window(c, &mut features44).unwrap() {
                        let cv = det.cascade(&features44, CascadeMode::Gated(0.0));
                        if let Verdict::Malware { confidence, .. } = cv.verdict {
                            confidences.push(confidence);
                        }
                    }
                    Ok(oracle.push(c))
                }
            })
            .collect();
        confidences.sort_by(f64::total_cmp);
        let gate = confidences[confidences.len() / 2];

        let drain = |cascade: CascadeMode, chunk: usize| {
            let metrics = Arc::new(Metrics::new());
            let config = SessionConfig {
                cascade,
                ..config.clone()
            };
            let engine = SessionEngine::new(det.clone(), &config, Arc::clone(&metrics)).unwrap();
            let mut batch = SubmitBatch::new();
            let mut got = Vec::new();
            for items in stream.chunks(chunk) {
                batch.clear();
                for (h, s, c, _) in items {
                    batch.push(*h, *s, c);
                }
                assert_eq!(batch.len(), items.len());
                engine.submit_batch(&mut batch);
                assert_eq!(batch.results().count(), items.len());
                for (((bh, bs), r), (h, s, _, _)) in batch.results().zip(items) {
                    assert_eq!((bh, bs), (*h, *s));
                    got.push(r.clone());
                }
            }
            assert_eq!(engine.ticks(), stream.len() as u64, "one tick per item");
            let snap = metrics.snapshot();
            (got, snap.stage2_invoked, snap.stage2_skipped)
        };
        for chunk in 1..=stream.len() {
            assert_eq!(drain(CascadeMode::Always, chunk).0, want, "chunk {chunk}");
        }
        assert!(want.iter().any(|r| matches!(r, Ok(Some(_)))));

        let one_by_one = drain(CascadeMode::Gated(gate), 1);
        assert!(
            one_by_one.1.total() > 0,
            "the gate lets some windows through"
        );
        assert!(one_by_one.2.total() > 0, "the gate skips some windows");
        for chunk in 2..=stream.len() {
            assert_eq!(
                drain(CascadeMode::Gated(gate), chunk),
                one_by_one,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn batched_drain_accounts_stage2_work_per_class() {
        // A corpus reading that stage 1 routes to a malware class, so that
        // every one of the eight one-reading windows below reaches the
        // gate.
        let det = detector();
        let events = det.runtime_events().expect("4-HPC detector").to_vec();
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let (r, routed) = corpus
            .records()
            .iter()
            .find_map(|rec| {
                let mut features44 = [0.0; Event::COUNT];
                for e in &events {
                    features44[e.index()] = rec.features[e.index()];
                }
                let routed = det.stage1().predict_class(&features44);
                let reading: Vec<f64> = events.iter().map(|e| features44[e.index()]).collect();
                (routed != AppClass::Benign).then_some((reading, routed))
            })
            .expect("the corpus has a malware-routed reading");
        let run = |cascade: CascadeMode| {
            let metrics = Arc::new(Metrics::new());
            let e = SessionEngine::new(
                det.clone(),
                &SessionConfig {
                    window: 1,
                    votes: 1,
                    cascade,
                    ..SessionConfig::default()
                },
                Arc::clone(&metrics),
            )
            .unwrap();
            let mut batch = SubmitBatch::new();
            for seq in 0..8 {
                batch.push(7, seq, &r);
            }
            e.submit_batch(&mut batch);
            metrics.snapshot()
        };
        let always = run(CascadeMode::Always);
        // Under Always nothing is ever skipped, and every window is
        // counted against the class it was routed to.
        assert_eq!(always.stage2_skipped.total(), 0);
        assert_eq!(always.stage2_invoked.total(), 8);
        let slot = match routed {
            AppClass::Backdoor => always.stage2_invoked.backdoor,
            AppClass::Rootkit => always.stage2_invoked.rootkit,
            AppClass::Virus => always.stage2_invoked.virus,
            AppClass::Trojan => always.stage2_invoked.trojan,
            AppClass::Benign => unreachable!("routed to a malware class"),
        };
        assert_eq!(slot, 8, "counted against {routed}");
        // A gate of 1.1 can never be cleared... but `Gated(t)` skips when
        // conf >= t, so an impossible gate runs stage 2 everywhere and an
        // always-clearing gate (0.0) skips every malware-routed window.
        let all_skip = run(CascadeMode::Gated(0.0));
        assert_eq!(all_skip.stage2_invoked.total(), 0);
        assert_eq!(
            all_skip.stage2_skipped.total(),
            always.stage2_invoked.total(),
            "every window Always invoked for, Gated(0.0) skips"
        );
        let none_skip = run(CascadeMode::Gated(1.1));
        assert_eq!(none_skip.stage2_skipped.total(), 0);
        assert_eq!(
            none_skip.stage2_invoked.total(),
            always.stage2_invoked.total()
        );
    }

    /// Everything observable from one store run: per-item results, evicted
    /// lists per sweep, session count, and the two gauge values.
    type StoreTrace = (
        Vec<Result<Option<Verdict>, SubmitError>>,
        Vec<Vec<u64>>,
        usize,
        u64,
        u64,
    );

    /// Feeds the same host/seq/reading stream to both stores' engines and
    /// returns everything observable: per-item results, evicted lists per
    /// sweep, session counts, and gauge snapshots.
    fn drive_store(
        kind: StoreKind,
        idle_after: u64,
        stream: &[(u64, u64, [f64; 4])],
        sweep_at: &[u64],
    ) -> StoreTrace {
        let metrics = Arc::new(Metrics::new());
        let e = SessionEngine::new(
            detector(),
            &SessionConfig {
                shards: 4,
                window: 2,
                votes: 2,
                idle_after,
                time: TimeSource::External,
                store: kind,
                ..SessionConfig::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut results = Vec::new();
        let mut sweeps = Vec::new();
        let mut sweep_iter = sweep_at.iter().copied().peekable();
        for (t, &(h, s, r)) in stream.iter().enumerate() {
            e.set_time(t as u64);
            while sweep_iter.peek().is_some_and(|&w| w <= t as u64) {
                sweeps.push(e.evict_idle_at(sweep_iter.next().unwrap()));
            }
            results.push(submit(&e, h, s, &r));
        }
        for w in sweep_iter {
            sweeps.push(e.evict_idle_at(w));
        }
        let snap = metrics.snapshot();
        (
            results,
            sweeps,
            e.sessions(),
            snap.sessions,
            snap.session_bytes,
        )
    }

    #[test]
    fn slab_store_matches_btree_oracle_on_churning_stream() {
        // Hosts churn through admit → verdict → idle-evict → reincarnate;
        // every observable (verdicts, eviction order, gauges, live count)
        // must be identical across stores.
        let mut stream = Vec::new();
        for round in 0u64..6 {
            for host in 0u64..17 {
                let x = 1e5 + (round * 31 + host * 7) as f64 * 13.0;
                // Re-admitted hosts restart their seq space after eviction
                // rounds; a fixed per-round seq keeps both stores aligned.
                stream.push((host * 977 + 13, round, [x, x / 3.0, x / 7.0, x / 11.0]));
            }
        }
        let sweeps = [20, 40, 55, 90, 200];
        let btree = drive_store(StoreKind::BTree, 8, &stream, &sweeps);
        let slab = drive_store(StoreKind::Slab, 8, &stream, &sweeps);
        assert_eq!(btree.0, slab.0, "verdict stream must match the oracle");
        assert_eq!(btree.1, slab.1, "eviction sets and order must match");
        assert_eq!(btree.2, slab.2, "live session counts must match");
        assert_eq!((btree.3, btree.4), (slab.3, slab.4), "gauges must match");
        assert!(
            btree.1.iter().any(|s| !s.is_empty()),
            "the scenario must actually exercise eviction"
        );
    }

    #[test]
    fn slab_store_matches_btree_oracle_at_coarse_wheel_granularity() {
        // idle_after = 1 << 20 forces a wheel granule > 1 (65 ticks per L0
        // bucket): expiry bucketing is approximate, the pop-time exact
        // check must keep eviction bit-identical anyway.
        let mut stream = Vec::new();
        for host in 0u64..5 {
            stream.push((host, 0, [1e5, 1e4, 1e3, 1e2]));
        }
        let idle = 1u64 << 20;
        // Sweep just before and just after host expiry boundaries.
        let sweeps = [idle - 1, idle + 1, idle + 3, idle + 10];
        let btree = drive_store(StoreKind::BTree, idle, &stream, &sweeps);
        let slab = drive_store(StoreKind::Slab, idle, &stream, &sweeps);
        assert_eq!(btree.1, slab.1);
        assert_eq!(btree.2, slab.2);
    }

    #[test]
    fn slab_reuses_slots_without_growing_the_slab() {
        // Churn far more sessions than are ever resident: the slab must
        // recycle freed slots (reset-in-place) instead of growing.
        let e = engine(&SessionConfig {
            shards: 1,
            idle_after: 1,
            time: TimeSource::External,
            ..SessionConfig::default()
        });
        let r = [1.0; 4];
        for round in 0u64..50 {
            let t = round * 10;
            e.set_time(t);
            submit(&e, round, 0, &r).unwrap(); // a brand-new host id each round
            e.evict_idle_at(t + 5);
            assert_eq!(e.sessions(), 0, "round {round} must evict its host");
        }
        let shard = SessionEngine::lock(&e.shards[0]);
        match &*shard {
            ShardStore::Slab(s) => {
                assert_eq!(s.slots.len(), 1, "one resident session needs one slot ever");
                assert_eq!(s.free.len(), 1);
            }
            ShardStore::BTree(_) => panic!("default store must be slab"),
        }
    }

    #[test]
    fn reincarnated_host_restarts_warmup_and_seq_space() {
        // Evict H at high seq, re-admit H: the reused slot must behave
        // exactly like a fresh session (warm-up verdict, seq 0 accepted),
        // with no trace of the predecessor's window or votes.
        for kind in [StoreKind::BTree, StoreKind::Slab] {
            let e = engine(&SessionConfig {
                window: 2,
                idle_after: 2,
                time: TimeSource::External,
                store: kind,
                ..SessionConfig::default()
            });
            let r = [1e5, 1e4, 1e3, 1e2];
            e.set_time(0);
            submit(&e, 5, 100, &r).unwrap();
            assert!(submit(&e, 5, 101, &r).unwrap().is_some(), "window filled");
            assert_eq!(e.evict_idle_at(9), vec![5]);
            // Reincarnation: seq 0 (< 101) is accepted, warm-up restarts.
            e.set_time(9);
            assert_eq!(
                submit(&e, 5, 0, &r),
                Ok(None),
                "store {kind}: fresh warm-up"
            );
            assert!(submit(&e, 5, 1, &r).unwrap().is_some());
        }
    }

    #[test]
    fn slot_index_survives_collision_clusters_and_backward_shift() {
        let mut idx = SlotIndex::new();
        // Force heavy clustering: more keys than the initial capacity,
        // with interleaved removals to exercise backward-shift deletion.
        let keys: Vec<u64> = (0..200).map(|i| i * 7 + 3).collect();
        for (slot, &k) in keys.iter().enumerate() {
            idx.insert(k, slot as u32);
        }
        for (slot, &k) in keys.iter().enumerate() {
            assert_eq!(idx.lookup(k), Some(slot as u32));
        }
        // Remove every third key; the rest must stay reachable.
        for (slot, &k) in keys.iter().enumerate() {
            if slot % 3 == 0 {
                idx.remove(k);
            }
        }
        for (slot, &k) in keys.iter().enumerate() {
            let want = if slot % 3 == 0 {
                None
            } else {
                Some(slot as u32)
            };
            assert_eq!(idx.lookup(k), want, "key {k} after removals");
        }
        assert_eq!(idx.len, keys.len() - keys.len().div_ceil(3));
        // Reinsert the removed keys under new slots.
        for (slot, &k) in keys.iter().enumerate() {
            if slot % 3 == 0 {
                idx.insert(k, (slot + 1000) as u32);
            }
        }
        for (slot, &k) in keys.iter().enumerate() {
            let want = if slot % 3 == 0 { slot + 1000 } else { slot } as u32;
            assert_eq!(idx.lookup(k), Some(want));
        }
    }

    #[test]
    fn wheel_evicts_exactly_across_level_wraps() {
        // Sessions spread across a time span far wider than one L0 turn
        // (and wider than one full L1 turn) must still evict exactly when
        // the btree rule says so, even with sparse sweeps that cross many
        // buckets at once.
        let run = |kind: StoreKind| {
            let e = engine(&SessionConfig {
                shards: 1,
                idle_after: 10,
                time: TimeSource::External,
                store: kind,
                ..SessionConfig::default()
            });
            let r = [1.0; 4];
            let mut evictions = Vec::new();
            // Admit one host every 997 ticks. Wheel granule is 1, so the
            // gaps cross ≈ 4 L0 turns between admits and the run as a
            // whole wraps L1 (16384 ticks) twice over.
            for i in 0u64..40 {
                let t = i * 997;
                e.set_time(t);
                submit(&e, i, 0, &r).unwrap();
                if i % 5 == 4 {
                    evictions.push(e.evict_idle_at(t));
                }
            }
            evictions.push(e.evict_idle_at(40 * 997 + 11));
            evictions
        };
        let btree = run(StoreKind::BTree);
        let slab = run(StoreKind::Slab);
        assert_eq!(btree, slab, "sweep-by-sweep eviction lists must match");
        let total: usize = slab.iter().map(|v| v.len()).sum();
        assert_eq!(total, 40, "every host evicted exactly once");
    }

    #[test]
    fn verdict_sequence_is_identical_across_shard_counts() {
        let stream: Vec<[f64; 4]> = (0..12)
            .map(|i| {
                let x = 1e5 + (i as f64) * 13.0;
                [x, x / 3.0, x / 7.0, x / 11.0]
            })
            .collect();
        let mut sequences = Vec::new();
        for shards in [1, 4, 32] {
            let e = engine(&SessionConfig {
                shards,
                window: 3,
                votes: 2,
                ..SessionConfig::default()
            });
            let verdicts: Vec<_> = stream
                .iter()
                .enumerate()
                .map(|(i, r)| submit(&e, 77, i as u64, r).unwrap())
                .collect();
            sequences.push(verdicts);
        }
        assert_eq!(sequences[0], sequences[1]);
        assert_eq!(sequences[0], sequences[2]);
    }
}
