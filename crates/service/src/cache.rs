//! Sharded, optionally persistent, content-addressed ordering cache.
//!
//! Orderings are pure functions of the sparsity pattern, the algorithm and
//! the `compressed` flag, so the cache key is an FNV-1a hash of
//! `(n, xadj, adjncy, algorithm, compressed)`. The key space is split into
//! `N` contiguous key ranges, each guarded by its own mutex with its own
//! byte budget and LRU list — concurrent requests for different patterns
//! contend only when their keys land in the same range, instead of
//! serializing on one global lock.
//!
//! Entries store the permutation **pre-encoded in both wire forms**
//! ([`EncodedPerm`]: NDJSON array text + binary frame) behind an `Arc`, so
//! a hit hands the session shareable bytes and skips base-10 rendering,
//! frame building and permutation cloning entirely.
//!
//! With a cache directory configured, every insert is spilled to disk
//! ([`crate::persist`]) and evictions delete their spill file; a restarted
//! server reloads the directory and serves hits without recomputing.
//!
//! In front of the canonical key sits a **payload alias** map: a
//! [`PayloadAlias`] (128-bit digest of an inline request's raw bytes, its
//! format, algorithm and `compressed` flag, guarded by the payload length)
//! names the key of a present entry, so an exact resend of a payload the
//! cache has seen is answered without parsing it, building its pattern or
//! hashing that pattern. Each entry carries at most
//! [`MAX_ALIASES_PER_ENTRY`] aliases and they die with it; they are never
//! charged to the byte budget, spilled or sent to peers.

use crate::persist::{self, PersistedEntry};
use crate::proto::{EncodedPerm, MatrixFormat};
use se_faults::{lock_unpoisoned, FaultPlane};
use se_order::Algorithm;
use sparsemat::envelope::EnvelopeStats;
use sparsemat::pattern::SymmetricPattern;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs one word, byte by byte (little-endian).
    pub fn write_u64(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a raw byte slice (used by the mesh ring to hash node names).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes a pattern + algorithm + compression flag into a cache key.
/// The request's `threads` field deliberately never enters the key
/// (orderings are bit-identical across thread counts); `compressed` does,
/// because it changes the resulting permutation.
pub fn pattern_key(g: &SymmetricPattern, alg: Algorithm, compressed: bool) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(g.n() as u64);
    for &x in g.xadj() {
        h.write_u64(x as u64);
    }
    for &a in g.adjncy() {
        h.write_u64(a as u64);
    }
    h.write_u64(alg as u64);
    h.write_u64(compressed as u64);
    h.finish()
}

/// Most payload aliases one entry keeps; recording another drops the
/// oldest. Several spellings of one pattern (comments, whitespace, values)
/// each get an alias, so the bound keeps a stream of fresh spellings from
/// growing the alias map without limit.
pub const MAX_ALIASES_PER_ENTRY: usize = 4;

/// The identity of one inline request payload: a 128-bit digest of its
/// format, algorithm, `compressed` flag, length and bytes, plus the length
/// itself as a guard that every lookup compares — the alias counterpart of
/// an entry's `(n, adjacency_len)` shape guard. Two different payloads
/// alias each other only if both 64-bit lanes collide at equal length, so
/// an alias is trusted exactly as far as [`pattern_key`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PayloadAlias {
    digest: u128,
    len: usize,
}

impl PayloadAlias {
    /// Digests one request payload word-at-a-time: two multiply–rotate
    /// lanes absorb every 8-byte little-endian word (the tail zero-padded;
    /// the length, absorbed before the bytes, disambiguates the padding),
    /// then each lane is avalanched. Byte-wise FNV would cost ~1 ns/byte here.
    pub(crate) fn of(
        format: MatrixFormat,
        alg: Algorithm,
        compressed: bool,
        payload: &[u8],
    ) -> Self {
        let mut lanes = Lanes::new();
        lanes.absorb(format as u64);
        lanes.absorb(alg as u64);
        lanes.absorb(compressed as u64);
        lanes.absorb(payload.len() as u64);
        let words = payload.chunks_exact(8);
        let tail = words.remainder();
        for w in words {
            lanes.absorb(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            lanes.absorb(u64::from_le_bytes(w));
        }
        PayloadAlias {
            digest: lanes.finish(),
            len: payload.len(),
        }
    }
}

/// The two independent lanes of [`PayloadAlias::of`]: different seeds,
/// odd multipliers and rotations, so a collision in one is independent of
/// the other.
struct Lanes(u64, u64);

impl Lanes {
    fn new() -> Self {
        Lanes(0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f)
    }

    fn absorb(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(31);
        self.1 = (self.1 ^ w)
            .wrapping_mul(0xc4ce_b9fe_1a85_ec53)
            .rotate_left(27);
    }

    fn finish(self) -> u128 {
        /// The MurmurHash3 64-bit finalizer.
        fn avalanche(mut h: u64) -> u64 {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^ (h >> 33)
        }
        (u128::from(avalanche(self.0)) << 64) | u128::from(avalanche(self.1))
    }
}

/// What a cache hit hands back: everything the engine needs to build a
/// response without touching the ordering pipeline (the payload is shared,
/// not cloned).
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// Vertex count of the cached pattern (its collision guard).
    pub n: usize,
    /// Stored adjacency entries of the cached pattern, `2 × edges` (its
    /// collision guard).
    pub adjacency_len: usize,
    /// Envelope statistics of the cached ordering.
    pub stats: EnvelopeStats,
    /// The permutation, pre-encoded in both wire forms.
    pub payload: Arc<EncodedPerm>,
    /// Compression ratio when the entry was computed with `compressed`.
    pub compression_ratio: Option<f64>,
    /// Machine-readable degradation reason carried by entries computed on
    /// a fallback rung (only `not_converged` entries are ever cached — the
    /// other reasons are transient and recomputed instead).
    pub degraded: Option<Arc<str>>,
}

/// The result descriptors an [`insert`](ShardedOrderingCache::insert)
/// records alongside the permutation itself.
#[derive(Debug, Clone, Copy)]
pub struct OrderingMeta<'a> {
    /// Envelope statistics of the ordering.
    pub stats: EnvelopeStats,
    /// Compression ratio when the quotient path ran (`None` = plain).
    pub compression_ratio: Option<f64>,
    /// Degradation reason to cache with the entry, if any.
    pub degraded: Option<&'a str>,
}

struct Entry {
    stats: EnvelopeStats,
    payload: Arc<EncodedPerm>,
    compression_ratio: Option<f64>,
    degraded: Option<Arc<str>>,
    /// Collision guard: a hit must also match the pattern's coarse shape.
    n: usize,
    adjacency_len: usize,
    bytes: usize,
    tick: u64,
    /// Payload aliases naming this entry, oldest first (at most
    /// [`MAX_ALIASES_PER_ENTRY`]); each is also in the cache's alias index.
    aliases: Vec<PayloadAlias>,
}

impl Entry {
    fn hit(&self) -> CacheHit {
        CacheHit {
            n: self.n,
            adjacency_len: self.adjacency_len,
            stats: self.stats,
            payload: Arc::clone(&self.payload),
            compression_ratio: self.compression_ratio,
            degraded: self.degraded.clone(),
        }
    }
}

/// Payload alias → key of the entry listing it. One map for the whole
/// cache: it is touched once per lookup for a single hash probe. Lock
/// order: a shard's mutex may be held while taking this one, never the
/// reverse, so an entry's alias list and the index change together.
type AliasIndex = Mutex<HashMap<PayloadAlias, u64>>;

/// Drops `gone`'s aliases from the index (those still pointing at `key`).
/// Called with `key`'s shard locked.
fn unindex(index: &AliasIndex, key: u64, gone: &[PayloadAlias]) {
    if gone.is_empty() {
        return;
    }
    let mut index = lock_unpoisoned(index);
    for alias in gone {
        if index.get(alias) == Some(&key) {
            index.remove(alias);
        }
    }
}

/// Fixed per-entry bookkeeping overhead charged against the byte budget.
const ENTRY_OVERHEAD: usize = 160;

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    /// tick → key, oldest first; drives LRU eviction.
    lru: BTreeMap<u64, u64>,
    used_bytes: usize,
    next_tick: u64,
    hits: u64,
    misses: u64,
}

impl Shard {
    /// Inserts under `budget`, evicting LRU entries; returns evicted keys so
    /// the caller can delete their spill files outside any useful work. A
    /// replaced or evicted entry's aliases leave `index` with it.
    fn insert(&mut self, key: u64, entry: Entry, budget: usize, index: &AliasIndex) -> Vec<u64> {
        let mut evicted = Vec::new();
        if let Some(old) = self.entries.remove(&key) {
            self.lru.remove(&old.tick);
            self.used_bytes -= old.bytes;
            unindex(index, key, &old.aliases);
        }
        while self.used_bytes + entry.bytes > budget {
            let (&oldest_tick, &oldest_key) = self
                .lru
                .iter()
                .next()
                .expect("used_bytes > 0 implies entries");
            self.lru.remove(&oldest_tick);
            let gone = self
                .entries
                .remove(&oldest_key)
                .expect("lru and entries agree");
            self.used_bytes -= gone.bytes;
            unindex(index, oldest_key, &gone.aliases);
            evicted.push(oldest_key);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.lru.insert(tick, key);
        self.used_bytes += entry.bytes;
        self.entries.insert(key, Entry { tick, ..entry });
        evicted
    }

    /// Answers a hit from `key`'s entry, refreshing its recency. Does not
    /// count the lookup.
    fn touch(&mut self, key: u64) -> Option<CacheHit> {
        let tick = self.next_tick;
        let e = self.entries.get_mut(&key)?;
        let old_tick = e.tick;
        e.tick = tick;
        let hit = e.hit();
        self.lru.remove(&old_tick);
        self.lru.insert(tick, key);
        self.next_tick += 1;
        Some(hit)
    }
}

/// Live counters of one cache shard, as exposed through STATS.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Cached orderings in this shard.
    pub entries: usize,
    /// Bytes charged against this shard's budget.
    pub bytes: usize,
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups this shard could not answer.
    pub misses: u64,
}

/// A content-addressed ordering cache split into key-range shards with
/// per-shard mutexes, LRU lists and byte budgets, optionally spilled to a
/// directory so it survives restarts.
pub struct ShardedOrderingCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / shard count).
    shard_budget: usize,
    dir: Option<PathBuf>,
    /// On-disk byte budget for the spill directory; `None` disables the
    /// accounting entirely (the directory then only shrinks via memory-side
    /// LRU evictions).
    dir_budget: Option<u64>,
    dir_state: Mutex<DirState>,
    /// Fault plane threaded into every spill write ([`crate::persist`]);
    /// disabled by default.
    faults: FaultPlane,
    /// Payload aliases of present entries ([`PayloadAlias`]).
    aliases: AliasIndex,
}

/// Oldest-first byte accounting of the spill directory, used only when a
/// directory budget is configured. Seeded from file modification times at
/// open; thereafter insertion order is authoritative.
#[derive(Default)]
struct DirState {
    /// key → spill file size in bytes.
    sizes: HashMap<u64, u64>,
    /// Keys oldest-first. May contain stale keys (already deleted through
    /// a memory-side eviction); they are skipped when popped.
    order: VecDeque<u64>,
    /// Sum of `sizes` values.
    total: u64,
}

impl ShardedOrderingCache {
    /// An in-memory cache of `shards` key-range shards sharing
    /// `budget_bytes` (each shard gets an equal slice). A budget of 0
    /// disables caching entirely. `shards` is clamped to at least 1.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedOrderingCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / shards,
            dir: None,
            dir_budget: None,
            dir_state: Mutex::new(DirState::default()),
            faults: FaultPlane::disabled(),
            aliases: Mutex::default(),
        }
    }

    /// Installs the fault plane spill writes run under (chaos tests inject
    /// torn/corrupted writes through it). Call before sharing the cache.
    pub fn set_faults(&mut self, faults: FaultPlane) {
        self.faults = faults;
    }

    /// A persistent cache spilling to `dir`: the directory is created if
    /// missing and every valid spill file in it is loaded (under the byte
    /// budget — LRU applies during the load too, deleting files that no
    /// longer fit).
    pub fn open(
        budget_bytes: usize,
        shards: usize,
        dir: impl Into<PathBuf>,
    ) -> std::io::Result<Self> {
        Self::open_budgeted(budget_bytes, shards, dir, None)
    }

    /// Like [`ShardedOrderingCache::open`], additionally bounding the spill
    /// directory to `dir_budget` bytes: every insert that pushes the
    /// directory over the budget deletes the **oldest** spill files first
    /// (insertion order, seeded from file modification times at open) until
    /// it fits again. A deleted spill only costs a recomputation after the
    /// next restart; the in-memory entry stays live.
    pub fn open_budgeted(
        budget_bytes: usize,
        shards: usize,
        dir: impl Into<PathBuf>,
        dir_budget: Option<u64>,
    ) -> std::io::Result<Self> {
        let dir: PathBuf = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut cache = Self::new(budget_bytes, shards);
        cache.dir = Some(dir.clone());
        cache.dir_budget = dir_budget;
        for e in persist::load_all(&dir) {
            cache.insert_loaded(e);
        }
        cache.seed_dir_state();
        cache.trim_dir_to_budget();
        Ok(cache)
    }

    /// Rebuilds the directory accounting from what is actually on disk,
    /// oldest modification time first (ties broken by key for determinism).
    fn seed_dir_state(&self) {
        let (Some(dir), Some(_)) = (&self.dir, self.dir_budget) else {
            return;
        };
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, u64)> = rd
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let p = e.path();
                if p.extension().and_then(|x| x.to_str()) != Some(persist::SPILL_EXT) {
                    return None;
                }
                let key = u64::from_str_radix(p.file_stem()?.to_str()?, 16).ok()?;
                let md = e.metadata().ok()?;
                Some((md.modified().ok()?, key, md.len()))
            })
            .collect();
        files.sort();
        let mut st = lock_unpoisoned(&self.dir_state);
        *st = DirState::default();
        for (_, key, size) in files {
            st.sizes.insert(key, size);
            st.order.push_back(key);
            st.total += size;
        }
    }

    /// Deletes oldest-first until the directory fits its budget.
    fn trim_dir_to_budget(&self) {
        let (Some(dir), Some(budget)) = (&self.dir, self.dir_budget) else {
            return;
        };
        let mut st = lock_unpoisoned(&self.dir_state);
        while st.total > budget {
            let Some(oldest) = st.order.pop_front() else {
                break;
            };
            if let Some(size) = st.sizes.remove(&oldest) {
                st.total -= size;
                persist::remove(dir, oldest);
            }
        }
    }

    /// Records a freshly written spill file and enforces the directory
    /// budget (no-op without one).
    fn note_spill(&self, key: u64) {
        let (Some(dir), Some(_)) = (&self.dir, self.dir_budget) else {
            return;
        };
        let size = std::fs::metadata(persist::spill_path(dir, key)).map_or(0, |m| m.len());
        {
            let mut st = lock_unpoisoned(&self.dir_state);
            if let Some(old) = st.sizes.insert(key, size) {
                st.total -= old;
                st.order.retain(|&k| k != key);
            }
            st.order.push_back(key);
            st.total += size;
        }
        self.trim_dir_to_budget();
    }

    /// Deletes a spill file and drops it from the directory accounting.
    fn remove_spill(&self, key: u64) {
        if let Some(dir) = &self.dir {
            persist::remove(dir, key);
            if self.dir_budget.is_some() {
                let mut st = lock_unpoisoned(&self.dir_state);
                if let Some(size) = st.sizes.remove(&key) {
                    st.total -= size;
                }
            }
        }
    }

    /// Bytes the directory accounting currently charges (0 without a
    /// directory budget).
    pub fn dir_bytes(&self) -> u64 {
        lock_unpoisoned(&self.dir_state).total
    }

    /// The spill directory, when persistence is on.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Key-range partition: shard `⌊key · N / 2⁶⁴⌋` — contiguous ranges,
    /// works for any shard count (not just powers of two).
    fn shard_of(&self, key: u64) -> usize {
        ((key as u128 * self.shards.len() as u128) >> 64) as usize
    }

    fn entry_from(
        stats: EnvelopeStats,
        payload: Arc<EncodedPerm>,
        compression_ratio: Option<f64>,
        degraded: Option<Arc<str>>,
        n: usize,
        adjacency_len: usize,
    ) -> Entry {
        let bytes =
            payload.heap_bytes() + ENTRY_OVERHEAD + degraded.as_ref().map_or(0, |r| r.len());
        Entry {
            stats,
            payload,
            compression_ratio,
            degraded,
            n,
            adjacency_len,
            bytes,
            tick: 0,
            aliases: Vec::new(),
        }
    }

    /// Whether the cache can hold anything at all (its budget is not 0).
    pub(crate) fn is_enabled(&self) -> bool {
        self.shard_budget > 0
    }

    /// Looks up the ordering for `(g, alg, compressed)`, refreshing its
    /// recency and counting the shard's hit/miss.
    pub fn get(&self, g: &SymmetricPattern, alg: Algorithm, compressed: bool) -> Option<CacheHit> {
        self.get_keyed(pattern_key(g, alg, compressed), g)
    }

    /// [`get`](Self::get) for a caller that already holds `g`'s
    /// [`pattern_key`].
    pub(crate) fn get_keyed(&self, key: u64, g: &SymmetricPattern) -> Option<CacheHit> {
        let mut shard = lock_unpoisoned(&self.shards[self.shard_of(key)]);
        let hit = match shard.entries.get(&key) {
            Some(e) if e.n == g.n() && e.adjacency_len == g.adjacency_len() => shard.touch(key),
            // Absent, or a hash collision — treat as a miss either way.
            _ => None,
        };
        match hit.is_some() {
            true => shard.hits += 1,
            false => shard.misses += 1,
        }
        hit
    }

    /// Answers a request payload from its alias, exactly like a hit on the
    /// aliased key: recency refreshed, one shard hit counted. A missing or
    /// dangling alias (its entry evicted or replaced since) returns `None`
    /// and counts nothing — the caller falls through to
    /// [`get_keyed`](Self::get_keyed), which counts the lookup once.
    pub(crate) fn get_alias(&self, alias: &PayloadAlias) -> Option<CacheHit> {
        let key = *lock_unpoisoned(&self.aliases).get(alias)?;
        let mut shard = lock_unpoisoned(&self.shards[self.shard_of(key)]);
        if !shard
            .entries
            .get(&key)
            .is_some_and(|e| e.aliases.contains(alias))
        {
            return None;
        }
        let hit = shard.touch(key);
        shard.hits += 1;
        hit
    }

    /// Records `alias` as a name for the present entry under `key`,
    /// dropping the entry's oldest alias beyond [`MAX_ALIASES_PER_ENTRY`].
    /// A no-op when the entry is absent (never stored, or already evicted)
    /// or already lists the alias.
    pub(crate) fn add_alias(&self, alias: PayloadAlias, key: u64) {
        let mut shard = lock_unpoisoned(&self.shards[self.shard_of(key)]);
        let Some(e) = shard.entries.get_mut(&key) else {
            return;
        };
        if e.aliases.contains(&alias) {
            return;
        }
        if e.aliases.len() == MAX_ALIASES_PER_ENTRY {
            let oldest = e.aliases.remove(0);
            unindex(&self.aliases, key, &[oldest]);
        }
        e.aliases.push(alias);
        lock_unpoisoned(&self.aliases).insert(alias, key);
    }

    /// Number of live payload aliases across all entries.
    pub fn alias_count(&self) -> usize {
        lock_unpoisoned(&self.aliases).len()
    }

    /// Inserts an ordering, evicting LRU shard entries to respect the
    /// shard's byte budget; with persistence on, spills the entry and
    /// deletes evicted spill files. Orderings bigger than one shard's whole
    /// budget are not cached. Returns the shared payload so the caller can
    /// reuse the encoding for its own response.
    pub fn insert(
        &self,
        g: &SymmetricPattern,
        alg: Algorithm,
        compressed: bool,
        perm: &[usize],
        meta: OrderingMeta<'_>,
    ) -> Arc<EncodedPerm> {
        self.insert_keyed(pattern_key(g, alg, compressed), g, perm, meta)
    }

    /// [`insert`](Self::insert) for a caller that already holds `g`'s
    /// [`pattern_key`].
    pub(crate) fn insert_keyed(
        &self,
        key: u64,
        g: &SymmetricPattern,
        perm: &[usize],
        meta: OrderingMeta<'_>,
    ) -> Arc<EncodedPerm> {
        let OrderingMeta {
            stats,
            compression_ratio,
            degraded,
        } = meta;
        let payload = Arc::new(EncodedPerm::new(perm.to_vec()));
        let entry = Self::entry_from(
            stats,
            Arc::clone(&payload),
            compression_ratio,
            degraded.map(Arc::from),
            g.n(),
            g.adjacency_len(),
        );
        if entry.bytes > self.shard_budget {
            return payload;
        }
        if let Some(dir) = &self.dir {
            let _ = persist::save(
                dir,
                &PersistedEntry {
                    key,
                    n: g.n(),
                    adjacency_len: g.adjacency_len(),
                    stats,
                    compression_ratio,
                    degraded: degraded.map(str::to_string),
                    perm: perm.to_vec(),
                },
                &self.faults,
            );
            self.note_spill(key);
        }
        let evicted = {
            let mut shard = lock_unpoisoned(&self.shards[self.shard_of(key)]);
            shard.insert(key, entry, self.shard_budget, &self.aliases)
        };
        for key in evicted {
            self.remove_spill(key);
        }
        payload
    }

    /// Inserts an entry that arrived already in [`PersistedEntry`] form —
    /// a replica pushed over the wire by a mesh peer, a warm-up transfer,
    /// or a drain handoff. Unlike the startup reload path (`insert_loaded`)
    /// the entry is **not** yet on this node's disk, so with persistence on
    /// it is spilled first exactly like a locally computed ordering.
    /// Returns whether the entry was *newly* stored: a key already cached
    /// keeps the existing copy (orderings are deterministic, so the copies
    /// are identical) and returns `false` — the same entry can legitimately
    /// arrive more than once (a startup WARM pull racing a REPLICATE push,
    /// a replayed hint after an anti-entropy repair) and duplicates must
    /// not inflate `peer_entries_received` or churn the LRU. An entry
    /// bigger than one shard's budget is dropped, matching
    /// [`insert`](Self::insert).
    pub fn insert_persisted(&self, e: PersistedEntry) -> bool {
        let entry = Self::entry_from(
            e.stats,
            Arc::new(EncodedPerm::new(e.perm.clone())),
            e.compression_ratio,
            e.degraded.as_deref().map(Arc::from),
            e.n,
            e.adjacency_len,
        );
        if entry.bytes > self.shard_budget {
            return false;
        }
        let key = e.key;
        if lock_unpoisoned(&self.shards[self.shard_of(key)])
            .entries
            .contains_key(&key)
        {
            return false;
        }
        if let Some(dir) = &self.dir {
            let _ = persist::save(dir, &e, &self.faults);
            self.note_spill(key);
        }
        let evicted = {
            let mut shard = lock_unpoisoned(&self.shards[self.shard_of(key)]);
            // Re-checked under the insertion lock: a concurrent delivery of
            // the same key may have won the race since the check above.
            if shard.entries.contains_key(&key) {
                return false;
            }
            shard.insert(key, entry, self.shard_budget, &self.aliases)
        };
        for key in evicted {
            self.remove_spill(key);
        }
        true
    }

    /// Inserts an entry read back from disk (no re-spill; evictions during
    /// the load still delete their files so the directory stays bounded).
    fn insert_loaded(&self, e: PersistedEntry) {
        let entry = Self::entry_from(
            e.stats,
            Arc::new(EncodedPerm::new(e.perm)),
            e.compression_ratio,
            e.degraded.map(Arc::from),
            e.n,
            e.adjacency_len,
        );
        if entry.bytes > self.shard_budget {
            self.remove_spill(e.key);
            return;
        }
        let evicted = {
            let mut shard = lock_unpoisoned(&self.shards[self.shard_of(e.key)]);
            shard.insert(e.key, entry, self.shard_budget, &self.aliases)
        };
        for key in evicted {
            self.remove_spill(key);
        }
    }

    /// Number of cached orderings across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against all shard budgets.
    pub fn used_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(s).used_bytes)
            .sum()
    }

    /// The shard a key's range lands in — public so the mesh's
    /// anti-entropy exchange can bucket keys the same way the cache does.
    pub fn shard_index(&self, key: u64) -> usize {
        self.shard_of(key)
    }

    /// Every cached key, sorted ascending (deterministic across nodes for
    /// the same content — the basis of the anti-entropy digests).
    pub fn keys(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| {
                lock_unpoisoned(s)
                    .entries
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Re-materializes a cached entry in [`PersistedEntry`] form so it can
    /// travel to a peer (warm-up transfer, anti-entropy repair) without
    /// touching the spill directory. Does not refresh recency or count a
    /// hit — peers pulling state must not distort this node's LRU.
    pub fn export(&self, key: u64) -> Option<PersistedEntry> {
        let shard = lock_unpoisoned(&self.shards[self.shard_of(key)]);
        let e = shard.entries.get(&key)?;
        Some(PersistedEntry {
            key,
            n: e.n,
            adjacency_len: e.adjacency_len,
            stats: e.stats,
            compression_ratio: e.compression_ratio,
            degraded: e.degraded.as_deref().map(str::to_string),
            perm: e.payload.order().to_vec(),
        })
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let s = lock_unpoisoned(s);
                ShardStats {
                    entries: s.entries.len(),
                    bytes: s.used_bytes,
                    hits: s.hits,
                    misses: s.misses,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> SymmetricPattern {
        SymmetricPattern::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
            .unwrap()
    }

    fn insert_ordering(cache: &ShardedOrderingCache, g: &SymmetricPattern, alg: Algorithm) {
        let o = se_order::order(g, alg).unwrap();
        cache.insert(
            g,
            alg,
            false,
            o.perm.order(),
            OrderingMeta {
                stats: o.stats,
                compression_ratio: None,
                degraded: None,
            },
        );
    }

    fn entry_cost(n: usize) -> usize {
        let g = path(n);
        let o = se_order::order(&g, Algorithm::Rcm).unwrap();
        Arc::new(EncodedPerm::new(o.perm.order().to_vec())).heap_bytes() + ENTRY_OVERHEAD
    }

    #[test]
    fn fnv_reference_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv1a::new().finish(), 0xcbf29ce484222325);
        let mut h = Fnv1a::new();
        h.write_u64(0);
        assert_ne!(h.finish(), 0xcbf29ce484222325);
    }

    #[test]
    fn key_distinguishes_pattern_algorithm_and_compression() {
        let a = path(10);
        let b = path(11);
        assert_ne!(
            pattern_key(&a, Algorithm::Rcm, false),
            pattern_key(&b, Algorithm::Rcm, false)
        );
        assert_ne!(
            pattern_key(&a, Algorithm::Rcm, false),
            pattern_key(&a, Algorithm::Spectral, false)
        );
        assert_ne!(
            pattern_key(&a, Algorithm::Rcm, false),
            pattern_key(&a, Algorithm::Rcm, true)
        );
        assert_eq!(
            pattern_key(&a, Algorithm::Rcm, false),
            pattern_key(&path(10), Algorithm::Rcm, false)
        );
    }

    #[test]
    fn hit_returns_identical_ordering_with_both_encodings() {
        let g = path(40);
        let ordering = se_order::order(&g, Algorithm::Rcm).unwrap();
        for shards in [1, 2, 8] {
            let cache = ShardedOrderingCache::new(1 << 20, shards);
            assert!(cache.get(&g, Algorithm::Rcm, false).is_none());
            cache.insert(
                &g,
                Algorithm::Rcm,
                false,
                ordering.perm.order(),
                OrderingMeta {
                    stats: ordering.stats,
                    compression_ratio: None,
                    degraded: None,
                },
            );
            let hit = cache.get(&g, Algorithm::Rcm, false).expect("hit");
            assert!(hit.degraded.is_none());
            assert_eq!(hit.payload.order(), ordering.perm.order());
            assert_eq!(hit.stats, ordering.stats);
            assert_eq!(
                crate::frame::read_perm_frame(&mut hit.payload.frame()).unwrap(),
                ordering.perm.order()
            );
            assert_eq!(
                hit.payload.json().as_ref(),
                crate::frame::encode_perm_json(ordering.perm.order())
            );
            assert!(cache.get(&g, Algorithm::Spectral, false).is_none());
            assert!(
                cache.get(&g, Algorithm::Rcm, true).is_none(),
                "compressed is a different key"
            );
        }
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let per_entry = entry_cost(10);
        // Single shard so the budget math is exact.
        let cache = ShardedOrderingCache::new(3 * per_entry + per_entry / 2, 1);
        let graphs: Vec<_> = (20..30).map(path).collect();
        for g in &graphs {
            insert_ordering(&cache, g, Algorithm::Rcm);
        }
        assert!(cache.len() <= 3, "kept {}", cache.len());
        assert!(cache.used_bytes() <= 3 * per_entry + per_entry / 2);
        // The newest survive, the oldest are gone.
        assert!(cache.get(&graphs[9], Algorithm::Rcm, false).is_some());
        assert!(cache.get(&graphs[0], Algorithm::Rcm, false).is_none());
    }

    #[test]
    fn get_refreshes_recency() {
        let per_entry = entry_cost(13);
        let cache = ShardedOrderingCache::new(2 * per_entry + per_entry / 2, 1);
        let a = path(12);
        let b = path(13);
        let c = path(14);
        for g in [&a, &b] {
            insert_ordering(&cache, g, Algorithm::Rcm);
        }
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&a, Algorithm::Rcm, false).is_some());
        insert_ordering(&cache, &c, Algorithm::Rcm);
        assert!(cache.get(&a, Algorithm::Rcm, false).is_some());
        assert!(cache.get(&b, Algorithm::Rcm, false).is_none());
        assert!(cache.get(&c, Algorithm::Rcm, false).is_some());
    }

    #[test]
    fn zero_budget_disables_caching() {
        let g = path(10);
        let cache = ShardedOrderingCache::new(0, 4);
        insert_ordering(&cache, &g, Algorithm::Rcm);
        assert!(cache.is_empty());
        assert!(cache.get(&g, Algorithm::Rcm, false).is_none());
    }

    #[test]
    fn shard_stats_count_hits_and_misses() {
        let cache = ShardedOrderingCache::new(1 << 20, 4);
        let g = path(25);
        assert!(cache.get(&g, Algorithm::Rcm, false).is_none());
        insert_ordering(&cache, &g, Algorithm::Rcm);
        assert!(cache.get(&g, Algorithm::Rcm, false).is_some());
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), 1);
        assert_eq!(
            stats.iter().map(|s| s.bytes).sum::<usize>(),
            cache.used_bytes()
        );
    }

    #[test]
    fn sharding_distributes_and_preserves_every_entry() {
        let cache = ShardedOrderingCache::new(8 << 20, 8);
        let graphs: Vec<_> = (10..42).map(path).collect();
        for g in &graphs {
            insert_ordering(&cache, g, Algorithm::Rcm);
        }
        assert_eq!(cache.len(), graphs.len());
        for g in &graphs {
            assert!(cache.get(g, Algorithm::Rcm, false).is_some());
        }
        let populated = cache.shard_stats().iter().filter(|s| s.entries > 0).count();
        assert!(populated > 1, "FNV keys must spread across shards");
    }

    #[test]
    fn persistence_save_load_evict_roundtrip() {
        let dir = std::env::temp_dir().join(format!("se-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = path(30);
        let ordering = se_order::order(&g, Algorithm::Rcm).unwrap();
        {
            let cache = ShardedOrderingCache::open(1 << 20, 2, &dir).unwrap();
            cache.insert(
                &g,
                Algorithm::Rcm,
                false,
                ordering.perm.order(),
                OrderingMeta {
                    stats: ordering.stats,
                    compression_ratio: None,
                    degraded: None,
                },
            );
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        }
        // A fresh cache over the same directory serves the hit.
        let reopened = ShardedOrderingCache::open(1 << 20, 2, &dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let hit = reopened
            .get(&g, Algorithm::Rcm, false)
            .expect("persisted hit");
        assert_eq!(hit.payload.order(), ordering.perm.order());
        assert_eq!(hit.stats, ordering.stats);
        // Shard count may change between runs without losing entries.
        let resharded = ShardedOrderingCache::open(1 << 20, 8, &dir).unwrap();
        assert!(resharded.get(&g, Algorithm::Rcm, false).is_some());
        // Eviction deletes the spill file: with room for only one entry,
        // inserting a second same-sized pattern evicts the first.
        let per_entry = entry_cost(30);
        let tiny = ShardedOrderingCache::open(per_entry + per_entry / 2, 1, &dir).unwrap();
        assert_eq!(tiny.len(), 1);
        let other = path(31);
        insert_ordering(&tiny, &other, Algorithm::Rcm);
        assert!(tiny.get(&g, Algorithm::Rcm, false).is_none(), "evicted");
        let remaining = persist::load_all(&dir);
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].n, 31);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_reason_survives_hit_and_persistence_reopen() {
        let dir = std::env::temp_dir().join(format!("se-cache-deg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = path(24);
        let o = se_order::order(&g, Algorithm::Rcm).unwrap();
        {
            let cache = ShardedOrderingCache::open(1 << 20, 2, &dir).unwrap();
            cache.insert(
                &g,
                Algorithm::Rcm,
                false,
                o.perm.order(),
                OrderingMeta {
                    stats: o.stats,
                    compression_ratio: None,
                    degraded: Some("not_converged"),
                },
            );
            let hit = cache.get(&g, Algorithm::Rcm, false).expect("hit");
            assert_eq!(hit.degraded.as_deref(), Some("not_converged"));
        }
        let reopened = ShardedOrderingCache::open(1 << 20, 2, &dir).unwrap();
        let hit = reopened.get(&g, Algorithm::Rcm, false).expect("reloaded");
        assert_eq!(hit.degraded.as_deref(), Some("not_converged"));
        assert_eq!(hit.payload.order(), o.perm.order());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn alias(tag: &str) -> PayloadAlias {
        PayloadAlias::of(
            MatrixFormat::MatrixMarket,
            Algorithm::Rcm,
            false,
            tag.as_bytes(),
        )
    }

    fn rcm_key(g: &SymmetricPattern) -> u64 {
        pattern_key(g, Algorithm::Rcm, false)
    }

    #[test]
    fn payload_alias_covers_format_algorithm_compression_and_every_byte() {
        let bytes = b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let of = |f, a, c, b: &[u8]| PayloadAlias::of(f, a, c, b);
        let base = of(MatrixFormat::MatrixMarket, Algorithm::Rcm, false, bytes);
        assert_eq!(
            base,
            of(MatrixFormat::MatrixMarket, Algorithm::Rcm, false, bytes)
        );
        assert_ne!(base, of(MatrixFormat::Chaco, Algorithm::Rcm, false, bytes));
        assert_ne!(
            base,
            of(
                MatrixFormat::MatrixMarket,
                Algorithm::Spectral,
                false,
                bytes
            )
        );
        assert_ne!(
            base,
            of(MatrixFormat::MatrixMarket, Algorithm::Rcm, true, bytes)
        );
        // Flipping any single bit of any byte, and zero-padding the tail
        // word, both change the digest.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                let other = of(MatrixFormat::MatrixMarket, Algorithm::Rcm, false, &flipped);
                assert_ne!(base.digest, other.digest, "byte {i} bit {bit}");
            }
        }
        let mut padded = bytes.to_vec();
        padded.push(0);
        let other = of(MatrixFormat::MatrixMarket, Algorithm::Rcm, false, &padded);
        assert_ne!(base.digest, other.digest);
        assert_ne!(base.len, other.len);
    }

    #[test]
    fn alias_hit_equals_the_keyed_hit_and_counts_one_shard_hit() {
        let cache = ShardedOrderingCache::new(1 << 20, 4);
        let g = path(33);
        assert!(cache.get_alias(&alias("a")).is_none(), "unknown alias");
        insert_ordering(&cache, &g, Algorithm::Rcm);
        cache.add_alias(alias("a"), rcm_key(&g));
        let used = cache.used_bytes();
        let by_key = cache.get(&g, Algorithm::Rcm, false).expect("hit");
        let by_alias = cache.get_alias(&alias("a")).expect("alias hit");
        assert_eq!(
            (by_alias.n, by_alias.adjacency_len),
            (g.n(), g.adjacency_len())
        );
        assert_eq!(by_alias.stats, by_key.stats);
        assert!(Arc::ptr_eq(&by_alias.payload, &by_key.payload));
        assert!(cache.get_alias(&alias("b")).is_none(), "never recorded");
        let stats = cache.shard_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 2);
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 0);
        assert_eq!(cache.used_bytes(), used, "aliases are not charged");
        assert_eq!(cache.alias_count(), 1);
    }

    #[test]
    fn alias_dies_with_its_evicted_or_replaced_entry() {
        let per_entry = entry_cost(16);
        let cache = ShardedOrderingCache::new(per_entry + per_entry / 2, 1);
        let (a, b) = (path(16), path(17));
        insert_ordering(&cache, &a, Algorithm::Rcm);
        cache.add_alias(alias("a"), rcm_key(&a));
        insert_ordering(&cache, &b, Algorithm::Rcm);
        assert!(cache.get(&a, Algorithm::Rcm, false).is_none(), "evicted");
        assert!(cache.get_alias(&alias("a")).is_none(), "dangling alias");
        assert_eq!(cache.alias_count(), 0);
        // Re-inserting A (evicting B) does not revive the old alias.
        cache.add_alias(alias("b"), rcm_key(&b));
        insert_ordering(&cache, &a, Algorithm::Rcm);
        assert!(cache.get_alias(&alias("a")).is_none());
        assert!(cache.get_alias(&alias("b")).is_none());
        assert_eq!(cache.alias_count(), 0);
        // Replacing an entry under its own key drops its aliases too.
        cache.add_alias(alias("a"), rcm_key(&a));
        insert_ordering(&cache, &a, Algorithm::Rcm);
        assert!(cache.get_alias(&alias("a")).is_none());
        assert_eq!(cache.alias_count(), 0);
        // An absent key records nothing.
        cache.add_alias(alias("b"), rcm_key(&b));
        assert_eq!(cache.alias_count(), 0);
    }

    #[test]
    fn persisted_inserts_evict_aliases_with_their_entries() {
        let per_entry = entry_cost(18);
        let cache = ShardedOrderingCache::new(per_entry + per_entry / 2, 1);
        let (a, b) = (path(18), path(19));
        insert_ordering(&cache, &a, Algorithm::Rcm);
        cache.add_alias(alias("a"), rcm_key(&a));
        let o = se_order::order(&b, Algorithm::Rcm).unwrap();
        assert!(cache.insert_persisted(PersistedEntry {
            key: rcm_key(&b),
            n: b.n(),
            adjacency_len: b.adjacency_len(),
            stats: o.stats,
            compression_ratio: None,
            degraded: None,
            perm: o.perm.order().to_vec(),
        }));
        assert!(cache.get_alias(&alias("a")).is_none());
        assert_eq!(cache.alias_count(), 0);
    }

    #[test]
    fn an_entry_keeps_only_its_newest_aliases() {
        let cache = ShardedOrderingCache::new(1 << 20, 2);
        let g = path(21);
        insert_ordering(&cache, &g, Algorithm::Rcm);
        let spellings: Vec<String> = (0..10).map(|i| format!("spelling {i}")).collect();
        for s in &spellings {
            cache.add_alias(alias(s), rcm_key(&g));
            cache.add_alias(alias(s), rcm_key(&g));
        }
        assert_eq!(cache.alias_count(), MAX_ALIASES_PER_ENTRY);
        let (old, new) = spellings.split_at(10 - MAX_ALIASES_PER_ENTRY);
        assert!(old.iter().all(|s| cache.get_alias(&alias(s)).is_none()));
        assert!(new.iter().all(|s| cache.get_alias(&alias(s)).is_some()));
    }

    #[test]
    fn zero_budget_records_no_alias() {
        let cache = ShardedOrderingCache::new(0, 4);
        assert!(!cache.is_enabled());
        let g = path(10);
        insert_ordering(&cache, &g, Algorithm::Rcm);
        cache.add_alias(alias("a"), rcm_key(&g));
        assert_eq!(cache.alias_count(), 0);
        assert!(cache.get_alias(&alias("a")).is_none());
    }

    #[test]
    fn cache_survives_a_poisoned_shard_lock() {
        let cache = Arc::new(ShardedOrderingCache::new(1 << 20, 1));
        let g = path(22);
        insert_ordering(&cache, &g, Algorithm::Rcm);
        // Poison the only shard's mutex by panicking while holding it.
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("poison the shard");
        })
        .join();
        assert!(cache.shards[0].lock().is_err(), "lock must be poisoned");
        // The cache still serves hits and accepts inserts.
        assert!(cache.get(&g, Algorithm::Rcm, false).is_some());
        let other = path(23);
        insert_ordering(&cache, &other, Algorithm::Rcm);
        assert!(cache.get(&other, Algorithm::Rcm, false).is_some());
        assert_eq!(cache.len(), 2);
    }
}
