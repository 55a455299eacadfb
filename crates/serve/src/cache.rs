//! The content-addressed warm cache.
//!
//! An entry retains the staged artifacts of one cold run — the parsed
//! [`Circuit`] and a [`StatsSnapshot`] (resolved input statistics plus
//! a pristine clone of the statistics propagator, BDD engine and all,
//! with its settled variable order). A warm hit hands
//! `Flow::rehydrate` those artifacts, so the repeat request skips
//! parse, technology-map, compile and BDD build entirely and still
//! produces a bit-identical report (minus wall-clock timings).
//!
//! Keys are 128-bit content hashes of everything that shapes the
//! artifacts (see `OptimizeRequest::cache_key`). A snapshot whose
//! statistics degraded on node budgets alone is cached too, under a
//! second key that folds in the node budget (the server's
//! `degraded_key`), so it only ever answers requests under that budget.
//! Snapshots share their BDD engine with every rehydrated clone (copy
//! on write), so a warm hit copies no manager. Replacement is LRU
//! under two simultaneous budgets — live BDD nodes and approximate
//! heap bytes — because one `mult8`-class exact-backend entry costs
//! orders of magnitude more than a 10-gate one and a plain entry-count
//! bound would let memory grow unbounded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tr_flow::StatsSnapshot;
use tr_netlist::Circuit;
use tr_trace::metrics;

/// 128-bit content hash over length-prefixed parts: two independent
/// 64-bit FNV-1a streams (distinct offset bases; the second stream eats
/// each byte rotated) so a collision needs both halves to collide at
/// once. Not cryptographic — the daemon trusts its clients — but the
/// length prefixes rule out the structural `("ab","c")` = `("a","bc")`
/// aliasing class outright.
pub fn content_key(parts: &[&[u8]]) -> u128 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
    const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
    let mut a = OFFSET_A;
    let mut b = OFFSET_B;
    let mut eat = |byte: u8| {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
    };
    for part in parts {
        for byte in (part.len() as u64).to_le_bytes() {
            eat(byte);
        }
        for &byte in *part {
            eat(byte);
        }
    }
    (u128::from(a) << 64) | u128::from(b)
}

/// One cached cold run: the parsed circuit plus its staged statistics.
#[derive(Debug)]
pub struct CacheEntry {
    /// The parsed, mapped, validated circuit.
    pub circuit: Circuit,
    /// The staged statistics artifacts (`Flow::rehydrate` input).
    pub snapshot: StatsSnapshot,
    /// Live BDD nodes this entry pins (node-budget accounting).
    pub nodes: usize,
    /// Approximate heap bytes this entry pins (byte-budget accounting).
    pub bytes: usize,
    /// Finished responses memoized per result key (the knobs that shape
    /// the *result* on top of the staged artifacts: objective, bounds,
    /// budgets, …). A repeat of the exact same request skips even the
    /// optimizer and replays the rendered JSON.
    results: Mutex<HashMap<u128, Arc<String>>>,
}

/// Memoized responses kept per entry. Results are small (a few KiB of
/// JSON) next to the staged artifacts, so a fixed count-cap is enough;
/// the whole map dies with its entry on eviction.
const MAX_RESULTS_PER_ENTRY: usize = 32;

impl CacheEntry {
    /// The memoized response for this result key, if any.
    pub fn result(&self, key: u128) -> Option<Arc<String>> {
        self.results.lock().unwrap().get(&key).cloned()
    }

    /// Memoizes a finished response. Callers must only pass results
    /// that are a function of the request: undegraded, or degraded by
    /// nothing but the entry's own node-budget ladder (a degraded
    /// snapshot's later stages run ungoverned, so they cannot add to
    /// it). A deadline trip reflects one request's timing, not the
    /// content, and must not be replayed.
    pub fn memoize(&self, key: u128, json: &str) {
        let mut results = self.results.lock().unwrap();
        if results.len() < MAX_RESULTS_PER_ENTRY {
            results
                .entry(key)
                .or_insert_with(|| Arc::new(json.to_string()));
        }
    }
}

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u128, Slot>,
    nodes: usize,
    bytes: usize,
    tick: u64,
}

/// Thread-safe LRU over [`CacheEntry`]s, bounded by live-BDD-node and
/// byte budgets. Hit/miss/evict totals, and the inserts of degraded
/// snapshots and hits on them, are mirrored into the `tr_trace::metrics`
/// registry (`serve.cache.{hit,miss,evict,degraded_insert,
/// degraded_replay}`) for the `/metrics` endpoint and kept as local
/// atomics so tests don't race the process-global registry.
pub struct WarmCache {
    inner: Mutex<Inner>,
    node_budget: usize,
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    degraded_inserts: AtomicU64,
    degraded_replays: AtomicU64,
}

impl WarmCache {
    /// A cache bounded by `node_budget` live BDD nodes and
    /// `byte_budget` approximate heap bytes across all entries.
    pub fn new(node_budget: usize, byte_budget: usize) -> Self {
        WarmCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                nodes: 0,
                bytes: 0,
                tick: 0,
            }),
            node_budget,
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            degraded_inserts: AtomicU64::new(0),
            degraded_replays: AtomicU64::new(0),
        }
    }

    /// An effectively unbounded cache (both budgets at `usize::MAX`).
    pub fn unbounded() -> Self {
        WarmCache::new(usize::MAX, usize::MAX)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u128) -> Option<Arc<CacheEntry>> {
        self.get_any(&[key])
    }

    /// Looks up `keys` in order and returns the first resident entry,
    /// refreshing its recency: one hit or one miss, however many keys
    /// were tried.
    pub fn get_any(&self, keys: &[u128]) -> Option<Arc<CacheEntry>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(slot) = keys
            .iter()
            .find(|key| inner.map.contains_key(key))
            .and_then(|key| inner.map.get_mut(key))
        else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.cache.miss").inc();
            return None;
        };
        slot.last_used = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        metrics::counter("serve.cache.hit").inc();
        if slot.entry.snapshot.degraded() {
            self.degraded_replays.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.cache.degraded_replay").inc();
        }
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts (or replaces) the entry for `key`, then evicts
    /// least-recently-used *other* entries until both budgets hold
    /// again. The just-inserted entry is never its own victim: an
    /// entry larger than the whole budget is admitted alone rather
    /// than thrashing (the cache then holds exactly that entry).
    pub fn insert(&self, key: u128, circuit: Circuit, snapshot: StatsSnapshot) -> Arc<CacheEntry> {
        let nodes = snapshot.live_bdd_nodes();
        let bytes = snapshot.approx_heap_bytes();
        if snapshot.degraded() {
            self.degraded_inserts.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.cache.degraded_insert").inc();
        }
        let entry = Arc::new(CacheEntry {
            circuit,
            snapshot,
            nodes,
            bytes,
            results: Mutex::new(HashMap::new()),
        });
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            Slot {
                entry: Arc::clone(&entry),
                last_used: tick,
            },
        ) {
            inner.nodes -= old.entry.nodes;
            inner.bytes -= old.entry.bytes;
        }
        inner.nodes += nodes;
        inner.bytes += bytes;
        while (inner.nodes > self.node_budget || inner.bytes > self.byte_budget)
            && inner.map.len() > 1
        {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let slot = inner.map.remove(&victim).expect("victim chosen from map");
            inner.nodes -= slot.entry.nodes;
            inner.bytes -= slot.entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            metrics::counter("serve.cache.evict").inc();
        }
        metrics::gauge("serve.cache.entries").set(inner.map.len() as f64);
        metrics::gauge("serve.cache.live_nodes").set(inner.nodes as f64);
        entry
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses, evictions) of this cache instance.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Lifetime (inserts, hits) of degraded snapshots in this cache
    /// instance.
    pub fn degraded_stats(&self) -> (u64, u64) {
        (
            self.degraded_inserts.load(Ordering::Relaxed),
            self.degraded_replays.load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("WarmCache")
            .field("entries", &inner.map.len())
            .field("nodes", &inner.nodes)
            .field("bytes", &inner.bytes)
            .field("node_budget", &self.node_budget)
            .field("byte_budget", &self.byte_budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_boundary_sensitive() {
        // The length prefixes keep ("ab","c") and ("a","bc") apart.
        assert_ne!(
            content_key(&[b"ab", b"c"]),
            content_key(&[b"a", b"bc"]),
            "structural aliasing across part boundaries"
        );
        assert_ne!(content_key(&[b"a"]), content_key(&[b"a", b""]));
        assert_eq!(content_key(&[b"a", b"b"]), content_key(&[b"a", b"b"]));
    }

    #[test]
    fn one_byte_edit_changes_the_key() {
        let base = content_key(&[b"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n", b"bench"]);
        let edit = content_key(&[b"INPUT(a)\nOUTPUT(c)\nb = NOT(a)\n", b"bench"]);
        assert_ne!(base, edit);
    }
}
