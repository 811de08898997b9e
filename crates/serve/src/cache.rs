//! The content-addressed, single-flight arc-model cache.
//!
//! # Cache-key contract
//!
//! A cached value is addressed by a canonical 64-bit FNV-1a hash over the
//! *inputs that can change the result*, written in a fixed labeled order:
//!
//! - the cell name and arc index (and the arc's derived MC seed),
//! - the slew/load ladders of the grid,
//! - the Monte-Carlo sample budget,
//! - every field of the effective [`VariationSpace`](lvf2::mc::VariationSpace),
//! - every field of the [`FitConfig`](lvf2::fit::FitConfig),
//! - for tail-yield keys: the sampler mode, σ target, and draw budget.
//!
//! **Parallelism** (thread count, chunk size) is deliberately **excluded**:
//! the pipeline is bit-identical at any thread count (`lvf2-parallel`'s
//! contract, pinned by `tests/parallel_determinism.rs`), which is exactly
//! why a cache hit is sound.
//!
//! Floats are hashed via [`f64::to_bits`] — keys distinguish `-0.0` from
//! `0.0` and never round. Keys are computed from the *typed* request
//! structs, never from JSON text, so field order and map iteration order
//! cannot leak into the hash (pinned by `crates/serve/tests/cache_key.rs`).
//!
//! # Single flight
//!
//! When two overlapping jobs need the same key at once, the first computes
//! and the second blocks on a condvar, then receives the same `Arc` — one
//! computation, two bit-identical answers. The cache is capacity-bounded
//! with insertion-order eviction of completed entries.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use lvf2::cells::TimingArcSpec;
use lvf2::flow::FlowOptions;

/// 64-bit FNV-1a over labeled, fixed-order canonical encodings.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        KeyHasher {
            state: Self::OFFSET,
        }
    }

    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Hashes a field label — every value write below is preceded by one,
    /// so adjacent fields can never alias (e.g. `("ab", "c")` vs
    /// `("a", "bc")`).
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.bytes(name.as_bytes()).bytes(&[0xFF])
    }

    /// Hashes a `u64` (fixed-width little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Hashes an `f64` via its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Hashes a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Hashes a length-prefixed `f64` slice.
    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
        self
    }

    /// The final 64-bit key.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes the inputs shared by both job kinds: arc identity, grid,
/// variation space, and fit config.
fn hash_common(h: &mut KeyHasher, spec: &TimingArcSpec, opts: &FlowOptions) {
    h.label("cell").str(spec.id.cell.name());
    h.label("arc").u64(spec.id.index as u64);
    h.label("mc_seed").u64(spec.mc_seed());
    h.label("slews").f64s(opts.grid.slews());
    h.label("loads").f64s(opts.grid.loads());
    let v = &opts.variation;
    h.label("sigma_vth_n").f64(v.sigma_vth_n);
    h.label("sigma_vth_p").f64(v.sigma_vth_p);
    h.label("sigma_mu").f64(v.sigma_mu);
    h.label("sigma_l").f64(v.sigma_l);
    h.label("global_vth_shift").f64(v.global_vth_shift);
    let f = &opts.fit;
    h.label("fit.max_iterations").u64(f.max_iterations as u64);
    h.label("fit.tolerance").f64(f.tolerance);
    h.label("fit.inner_evals").u64(f.inner_evals as u64);
    h.label("fit.m_step").u64(match f.m_step {
        lvf2::fit::MStep::WeightedMle => 0,
        lvf2::fit::MStep::WeightedMoments => 1,
    });
    h.label("fit.init").u64(match f.init {
        lvf2::fit::InitStrategy::Best => 0,
        lvf2::fit::InitStrategy::KMeansMoments => 1,
        lvf2::fit::InitStrategy::ScaleSplit => 2,
    });
    h.label("fit.seed").u64(f.seed);
    // NOT hashed: opts.parallelism, opts.obs — neither may change a result
    // (see the module docs).
}

/// The cache key for one arc's [`lvf2::flow::characterize_arc_models`]
/// output under `opts`.
pub fn arc_cache_key(spec: &TimingArcSpec, opts: &FlowOptions) -> u64 {
    let mut h = KeyHasher::new();
    h.label("job").str("characterize");
    hash_common(&mut h, spec, opts);
    h.label("samples").u64(opts.samples as u64);
    h.finish()
}

/// The cache key for one arc's [`lvf2::flow::tail_yield_arc_models`] output
/// under `opts`.
pub fn tail_cache_key(spec: &TimingArcSpec, opts: &FlowOptions) -> u64 {
    let mut h = KeyHasher::new();
    h.label("job").str("tail_yield");
    hash_common(&mut h, spec, opts);
    h.label("tail_samples").u64(opts.tail_samples as u64);
    h.label("mc_mode").u64(match opts.mc_mode {
        lvf2::mc::McMode::Lhs => 0,
        lvf2::mc::McMode::ImportanceSampling => 1,
    });
    h.label("is_target_sigma").f64(opts.is_target_sigma);
    h.finish()
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a completed entry.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Hits that waited for an in-flight computation of the same key
    /// (single-flight coalescing; included in `hits`).
    pub waits: u64,
    /// Completed entries resident.
    pub len: usize,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
}

enum Slot<V> {
    /// A computation is in flight; waiters sleep on the condvar.
    Pending,
    Ready(Arc<V>),
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Completed keys in insertion order (eviction order).
    order: VecDeque<u64>,
    /// Cell-name tag per key, for selective invalidation.
    tags: HashMap<u64, &'static str>,
    hits: u64,
    misses: u64,
    waits: u64,
    evictions: u64,
}

/// A bounded single-flight cache; see the module docs.
pub struct SingleFlightCache<V> {
    inner: Mutex<Inner<V>>,
    ready: Condvar,
    capacity: usize,
}

/// Removes the pending slot (and wakes waiters) if a computation unwinds
/// instead of returning — without this, a panicking `compute` would leave
/// `Slot::Pending` behind forever and every later caller of the same key
/// would block on the condvar. Defused on the success and error paths.
struct PendingGuard<'a, V> {
    cache: &'a SingleFlightCache<V>,
    key: u64,
    armed: bool,
}

impl<V> Drop for PendingGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.lock();
            inner.map.remove(&self.key);
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

impl<V> SingleFlightCache<V> {
    /// An empty cache holding at most `capacity` completed entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        SingleFlightCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                tags: HashMap::new(),
                hits: 0,
                misses: 0,
                waits: 0,
                evictions: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Returns the cached value for `key`, computing it with `compute` on a
    /// miss. Concurrent callers with the same key coalesce onto one
    /// computation (single flight). The boolean is `true` for a hit
    /// (including coalesced waits).
    ///
    /// `tag` labels the entry for [`SingleFlightCache::invalidate_tag`]
    /// (the owning cell's name).
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; the pending slot is removed so a later
    /// request retries.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        tag: &'static str,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        {
            let mut inner = self.lock();
            loop {
                match inner.map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let v = Arc::clone(v);
                        inner.hits += 1;
                        return Ok((v, true));
                    }
                    Some(Slot::Pending) => {
                        inner.waits += 1;
                        inner = self
                            .ready
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                        // Loop: the computation may have failed (slot gone)
                        // — in that case fall through and compute ourselves.
                        if !inner.map.contains_key(&key) {
                            break;
                        }
                    }
                    None => break,
                }
            }
            inner.misses += 1;
            inner.map.insert(key, Slot::Pending);
        }

        let mut guard = PendingGuard {
            cache: self,
            key,
            armed: true,
        };
        match compute() {
            Ok(v) => {
                guard.armed = false;
                let v = Arc::new(v);
                let mut inner = self.lock();
                inner.map.insert(key, Slot::Ready(Arc::clone(&v)));
                inner.tags.insert(key, tag);
                self.push_completed(&mut inner, key);
                drop(inner);
                self.ready.notify_all();
                Ok((v, false))
            }
            Err(e) => {
                guard.armed = false;
                let mut inner = self.lock();
                inner.map.remove(&key);
                drop(inner);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Inserts an already-computed value for `key` (warm-restart replay
    /// from the persistent store). Does nothing when the key is present or
    /// in flight; counts as neither hit nor miss. Returns whether the
    /// entry was inserted.
    pub fn seed(&self, key: u64, tag: &'static str, value: V) -> bool {
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return false;
        }
        inner.map.insert(key, Slot::Ready(Arc::new(value)));
        inner.tags.insert(key, tag);
        self.push_completed(&mut inner, key);
        true
    }

    /// Appends a completed `key` to the eviction order and evicts the
    /// oldest completed entries beyond the capacity.
    fn push_completed(&self, inner: &mut Inner<V>, key: u64) {
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(victim) = inner.order.pop_front().filter(|&v| v != key) {
                inner.map.remove(&victim);
                inner.tags.remove(&victim);
                inner.evictions += 1;
            }
        }
    }

    /// Locks the cache, recovering from a poisoned mutex: every mutation
    /// below is a complete state transition while the lock is held, so a
    /// panicking *holder* cannot leave partial state behind and the poison
    /// flag carries no information here. (Compute closures run without the
    /// lock; their panics are handled by [`PendingGuard`].)
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops every completed entry. In-flight computations finish and
    /// re-insert (they hold no lock while computing), so this is advisory
    /// for pending keys.
    pub fn clear(&self) {
        let mut inner = self.lock();
        let keys: Vec<u64> = inner.order.drain(..).collect();
        for k in keys {
            inner.map.remove(&k);
            inner.tags.remove(&k);
        }
    }

    /// Drops completed entries whose tag equals `tag` (one cell's arcs).
    /// Returns how many entries were dropped.
    pub fn invalidate_tag(&self, tag: &str) -> usize {
        let mut inner = self.lock();
        let victims: HashSet<u64> = inner
            .tags
            .iter()
            .filter(|(_, t)| **t == tag)
            .map(|(k, _)| *k)
            .collect();
        for k in &victims {
            inner.map.remove(k);
            inner.tags.remove(k);
        }
        inner.order.retain(|k| !victims.contains(k));
        victims.len()
    }

    /// How many completed entries satisfy `pred`, at one point in time.
    pub fn count_ready(&self, pred: impl Fn(&V) -> bool) -> usize {
        let inner = self.lock();
        inner
            .map
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(v) if pred(v)))
            .count()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            waits: inner.waits,
            len: inner.order.len(),
            evictions: inner.evictions,
        }
    }
}

impl<V> std::fmt::Debug for SingleFlightCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlightCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn get(c: &SingleFlightCache<u64>, key: u64, v: u64) -> (u64, bool) {
        let (got, hit) = c
            .get_or_compute(key, "T", || Ok::<_, Infallible>(v))
            .unwrap();
        (*got, hit)
    }

    #[test]
    fn hit_returns_the_first_computation() {
        let c = SingleFlightCache::new(8);
        assert_eq!(get(&c, 1, 10), (10, false));
        assert_eq!(get(&c, 1, 99), (10, true), "second value never computed");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_in_insertion_order() {
        let c = SingleFlightCache::new(2);
        get(&c, 1, 1);
        get(&c, 2, 2);
        get(&c, 3, 3); // evicts key 1
        assert_eq!(get(&c, 1, 111), (111, false), "key 1 was evicted");
        assert_eq!(c.stats().evictions, 2, "inserting 1 again evicted 2");
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn errors_release_the_pending_slot() {
        let c: SingleFlightCache<u64> = SingleFlightCache::new(8);
        let r = c.get_or_compute(5, "T", || Err::<u64, _>("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(get(&c, 5, 7), (7, false), "retry recomputes after error");
    }

    #[test]
    fn overlapping_requests_single_flight() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = Arc::new(SingleFlightCache::new(8));
        let computes = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (v, _) = c
                    .get_or_compute(7, "T", || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, Infallible>(1234u64)
                    })
                    .unwrap();
                *v
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 1234);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn invalidate_tag_is_selective() {
        let c = SingleFlightCache::new(8);
        c.get_or_compute(1, "INV", || Ok::<_, Infallible>(1u64))
            .unwrap();
        c.get_or_compute(2, "NAND2", || Ok::<_, Infallible>(2u64))
            .unwrap();
        assert_eq!(c.invalidate_tag("INV"), 1);
        assert_eq!(get(&c, 1, 11), (11, false), "INV entry dropped");
        assert_eq!(get(&c, 2, 99), (2, true), "NAND2 entry survived");
        c.clear();
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn key_hasher_separates_fields_and_is_stable() {
        let k1 = KeyHasher::new().label("a").str("bc").finish();
        let k2 = KeyHasher::new().label("ab").str("c").finish();
        assert_ne!(k1, k2, "labels are terminated, fields cannot alias");
        assert_ne!(
            KeyHasher::new().f64(0.0).finish(),
            KeyHasher::new().f64(-0.0).finish(),
            "bit-exact float hashing"
        );
        // Pin the algorithm: FNV-1a of "lvf2" (offset basis + 4 bytes).
        let mut h = KeyHasher::new();
        h.bytes(b"lvf2");
        assert_eq!(h.finish(), {
            let mut s = 0xcbf2_9ce4_8422_2325u64;
            for b in b"lvf2" {
                s ^= *b as u64;
                s = s.wrapping_mul(0x0000_0100_0000_01b3);
            }
            s
        });
    }
}
