//! A sharded LRU cache for network plans.
//!
//! Planning a network is a pure function of the analytical model (array
//! geometry plus technology calibration), the network's layer table, the
//! depthwise mapping and the pipeline-selection policy. [`PlanCache`]
//! memoizes that function: [`PlanKey`] canonicalizes the full input tuple
//! into a deterministic byte string (via the JSON emission of every
//! component) and hashes it with fixed-key SipHash to pick a shard, and
//! the cache stores the resulting [`NetworkPlan`]s in independently locked
//! shards with least-recently-used eviction, bounded by entry count.
//! Because the key covers *all* inputs, a cache hit is guaranteed to be
//! byte-identical to recomputing the plan — the serving layer relies on
//! this to keep cached HTTP responses indistinguishable from direct
//! library calls (see `DESIGN.md` §6).

use crate::error::ArrayFlexError;
use crate::model::ArrayFlexModel;
use crate::plan::NetworkPlan;
use cnn::{DepthwiseMapping, Network};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which pipeline-selection policy a cached plan was produced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// The conventional fixed-pipeline baseline.
    Conventional,
    /// ArrayFlex with the per-layer optimal depth (the paper's scheme).
    ArrayFlex,
    /// ArrayFlex with one fixed collapsing depth for every layer.
    Fixed(u32),
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Conventional => write!(f, "conventional"),
            Self::ArrayFlex => write!(f, "arrayflex"),
            Self::Fixed(k) => write!(f, "fixed-k{k}"),
        }
    }
}

/// Canonical cache key: a deterministic serialization of every input the
/// plan depends on, plus its 64-bit hash for shard selection.
///
/// The hash is std's SipHash with fixed keys
/// (`DefaultHasher::new()`), so it is the same in every process of one
/// build; nothing persists it. The canonical form is kept alongside the
/// hash, so hash collisions can never alias two different planning
/// problems — lookups always compare the full canonical string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    hash: u64,
    canonical: String,
}

impl PlanKey {
    /// Builds the key for planning `network` on `model` (which carries the
    /// array geometry, clock plan and power model) under `mapping` with the
    /// `kind` selection policy.
    #[must_use]
    pub fn new(
        model: &ArrayFlexModel,
        network: &Network,
        mapping: DepthwiseMapping,
        kind: PlanKind,
    ) -> Self {
        let canonical = serde_json::to_string(&(kind.to_string(), mapping, model, network))
            .expect("plan inputs serialize to JSON");
        Self {
            hash: key_hash(&canonical),
            canonical,
        }
    }

    /// The 64-bit hash of the canonical form.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical serialized form of the planning inputs.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

/// The fixed-key SipHash of a canonical form.
fn key_hash(canonical: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(canonical.as_bytes());
    hasher.finish()
}

/// How one lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The plan was served from the cache (including the race where another
    /// thread inserted it while this one was computing).
    Hit,
    /// The plan was computed and inserted by this lookup.
    Miss,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Hit => write!(f, "hit"),
            Self::Miss => write!(f, "miss"),
        }
    }
}

/// A point-in-time statistics snapshot of one shard (or, summed, of the
/// whole cache — see [`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed (or failed to compute) a plan.
    pub misses: u64,
    /// Entries removed to enforce the capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheShardStats {
    fn add(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
    }
}

struct Entry {
    plan: Arc<NetworkPlan>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    /// Logical LRU clock: bumped on every probe/insert.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    /// Looks `canonical` up and refreshes its recency. Does **not** tally a
    /// hit or miss — callers classify the lookup.
    fn probe(&mut self, canonical: &str) -> Option<Arc<NetworkPlan>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(canonical)?;
        entry.last_used = clock;
        Some(Arc::clone(&entry.plan))
    }

    /// Inserts an entry and evicts least-recently-used entries while the
    /// shard is over `capacity`. Returns how many entries the insert and
    /// its evictions changed (the caller advances the generation by it).
    fn insert(&mut self, canonical: String, plan: Arc<NetworkPlan>, capacity: usize) -> u64 {
        self.clock += 1;
        self.entries.insert(
            canonical,
            Entry {
                plan,
                last_used: self.clock,
            },
        );
        let mut evicted = 0;
        // O(shard) per evicted entry: capacities are small (tens of plans),
        // and a plan computation dwarfs the scan by orders of magnitude.
        while self.entries.len() > capacity {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        self.evictions += evicted;
        1 + evicted
    }

    fn stats(&self) -> CacheShardStats {
        CacheShardStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

/// A thread-safe, sharded LRU cache of [`NetworkPlan`]s bounded by entry
/// count (see the [module docs](self)).
///
/// Lookups lock only the shard the key hashes to, so concurrent requests
/// for different networks or geometries never contend. A miss computes
/// *outside* the shard lock (two racing requests for the same key may both
/// compute — both results are identical by the determinism contract, and
/// the first inserted wins), then re-checks before inserting.
///
/// # Examples
///
/// ```
/// use arrayflex::{ArrayFlexModel, PlanCache, PlanKind};
/// use cnn::models::resnet34;
/// use cnn::DepthwiseMapping;
///
/// let cache = PlanCache::new(16);
/// let model = ArrayFlexModel::new(128, 128)?;
/// let net = resnet34();
/// let mapping = DepthwiseMapping::default();
/// let first = model.plan_cached(&cache, &net, mapping, PlanKind::ArrayFlex)?;
/// let second = model.plan_cached(&cache, &net, mapping, PlanKind::ArrayFlex)?;
/// assert_eq!(first, second);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok::<(), arrayflex::ArrayFlexError>(())
/// ```
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Monotone counter advanced on every insert and eviction.
    generation: AtomicU64,
}

impl PlanCache {
    /// Default shard count of [`PlanCache::new`].
    pub const DEFAULT_SHARDS: usize = 8;

    /// Creates a cache holding at most `capacity` plans (clamped to at
    /// least 1), spread over [`PlanCache::DEFAULT_SHARDS`] shards.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (both clamped to at
    /// least 1). Capacity is enforced per shard at
    /// `max(1, ceil(capacity / shards))` entries — eviction is local to the
    /// shard a key hashes to, so an unlucky key distribution can evict
    /// before the nominal total capacity is reached, like any sharded LRU.
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards).max(1),
            generation: AtomicU64::new(0),
        }
    }

    fn lock_shard(&self, hash: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[(hash % self.shards.len() as u64) as usize]
            .lock()
            .expect("plan cache shard poisoned")
    }

    /// Inserts `plan` into `shard` and advances the generation by the
    /// entries that changed, after the shard lock is released so readers of
    /// the generation never block on a shard.
    fn insert_into(
        &self,
        mut shard: std::sync::MutexGuard<'_, Shard>,
        key: &PlanKey,
        plan: Arc<NetworkPlan>,
    ) {
        let changed = shard.insert(key.canonical().to_owned(), plan, self.per_shard_capacity);
        drop(shard);
        self.generation.fetch_add(changed, Ordering::SeqCst);
    }

    /// Looks up a plan, updating its recency and the hit/miss counters.
    #[must_use]
    pub fn get(&self, key: &PlanKey) -> Option<Arc<NetworkPlan>> {
        let mut shard = self.lock_shard(key.hash());
        let found = shard.probe(key.canonical());
        match &found {
            Some(_) => shard.hits += 1,
            None => shard.misses += 1,
        }
        found
    }

    /// Inserts a plan, evicting least-recently-used entries of the key's
    /// shard while it is over its capacity.
    pub fn insert(&self, key: &PlanKey, plan: Arc<NetworkPlan>) {
        self.insert_into(self.lock_shard(key.hash()), key, plan);
    }

    /// Monotone counter advanced on insert and eviction (not on plain
    /// lookups): an unchanged generation means an unchanged entry set.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Tallies a hit that was served from a cache derived from this one
    /// (the serving layer's rendered-response memo). The serve was still
    /// a hit on the cached plan — its rendered form — so the hit/miss
    /// accounting must see it, even though no shard probe ran.
    pub fn note_derived_hit(&self, hash: u64) {
        self.lock_shard(hash).hits += 1;
    }

    /// Returns the cached plan for `key`, or computes it with `compute`
    /// and caches the result.
    ///
    /// `compute` runs without holding any shard lock; if another thread
    /// inserted the same key meanwhile, the earlier entry is returned so
    /// all callers share one `Arc`.
    ///
    /// # Errors
    ///
    /// Propagates the error of `compute` (nothing is cached on error).
    pub fn get_or_try_insert<E>(
        &self,
        key: &PlanKey,
        compute: impl FnOnce() -> Result<NetworkPlan, E>,
    ) -> Result<Arc<NetworkPlan>, E> {
        self.get_or_try_insert_traced(key, compute)
            .map(|(plan, _)| plan)
    }

    /// [`PlanCache::get_or_try_insert`], also reporting whether the plan
    /// was served from the cache.
    ///
    /// Exactly one hit or miss is tallied per call: a [`CacheOutcome::Hit`]
    /// when either the initial probe or the post-compute re-check found the
    /// entry (the latter is the insert race — the winner's plan is returned
    /// and **counted as a hit**, since it was served from the cache), a
    /// [`CacheOutcome::Miss`] only when this call inserted (or failed to
    /// compute) the plan.
    ///
    /// # Errors
    ///
    /// Propagates the error of `compute` (nothing is cached on error; the
    /// lookup is tallied as a miss).
    pub fn get_or_try_insert_traced<E>(
        &self,
        key: &PlanKey,
        compute: impl FnOnce() -> Result<NetworkPlan, E>,
    ) -> Result<(Arc<NetworkPlan>, CacheOutcome), E> {
        {
            let mut shard = self.lock_shard(key.hash());
            if let Some(plan) = shard.probe(key.canonical()) {
                shard.hits += 1;
                return Ok((plan, CacheOutcome::Hit));
            }
        }
        let plan = match compute() {
            Ok(plan) => Arc::new(plan),
            Err(e) => {
                self.lock_shard(key.hash()).misses += 1;
                return Err(e);
            }
        };
        let mut shard = self.lock_shard(key.hash());
        if let Some(existing) = shard.probe(key.canonical()) {
            // Insert race: another thread cached this key while we were
            // computing. Serve the winner's entry — as a hit.
            shard.hits += 1;
            return Ok((existing, CacheOutcome::Hit));
        }
        shard.misses += 1;
        self.insert_into(shard, key, Arc::clone(&plan));
        Ok((plan, CacheOutcome::Miss))
    }

    /// Number of plans currently cached (across all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Returns `true` if no plans are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of plans the cache can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Per-shard statistics snapshots, in shard order (the `/metrics`
    /// endpoint of `arrayflex-serve` exports these as labelled gauges).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache shard poisoned").stats())
            .collect()
    }

    /// Whole-cache statistics (every shard summed).
    #[must_use]
    pub fn stats(&self) -> CacheShardStats {
        let mut total = CacheShardStats::default();
        for shard in &self.shards {
            total.add(&shard.lock().expect("plan cache shard poisoned").stats());
        }
        total
    }

    /// Number of lookups that found a cached plan.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Number of lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Number of entries removed to enforce the capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.stats().evictions
    }

    /// Fraction of lookups served from the cache (0.0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let stats = self.stats();
        let hits = stats.hits as f64;
        let total = hits + stats.misses as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &stats.entries)
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl ArrayFlexModel {
    /// Plans `network` under `mapping` with the `kind` policy, serving the
    /// result from `cache` when the identical problem was planned before.
    ///
    /// The cached plan is byte-identical (not merely equal) to what
    /// [`ArrayFlexModel::plan_conventional`] /
    /// [`ArrayFlexModel::plan_arrayflex`] /
    /// [`ArrayFlexModel::plan_arrayflex_fixed`] return, because the cache
    /// key canonicalizes every planning input.
    ///
    /// # Errors
    ///
    /// Propagates planning errors; nothing is cached on error.
    pub fn plan_cached(
        &self,
        cache: &PlanCache,
        network: &Network,
        mapping: DepthwiseMapping,
        kind: PlanKind,
    ) -> Result<Arc<NetworkPlan>, ArrayFlexError> {
        self.plan_cached_traced(cache, network, mapping, kind)
            .map(|(plan, _, _)| plan)
    }

    /// [`ArrayFlexModel::plan_cached`], also reporting the cache outcome
    /// and the key hash (the serving layer logs both per request).
    ///
    /// # Errors
    ///
    /// Propagates planning errors; nothing is cached on error.
    pub fn plan_cached_traced(
        &self,
        cache: &PlanCache,
        network: &Network,
        mapping: DepthwiseMapping,
        kind: PlanKind,
    ) -> Result<(Arc<NetworkPlan>, CacheOutcome, u64), ArrayFlexError> {
        let key = PlanKey::new(self, network, mapping, kind);
        let hash = key.hash();
        cache
            .get_or_try_insert_traced(&key, || match kind {
                PlanKind::Conventional => self.plan_conventional(network, mapping),
                PlanKind::ArrayFlex => self.plan_arrayflex(network, mapping),
                PlanKind::Fixed(k) => self.plan_arrayflex_fixed(network, mapping, k),
            })
            .map(|(plan, outcome)| (plan, outcome, hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn::models::{resnet34, synthetic_cnn};
    use std::sync::Barrier;

    fn model() -> ArrayFlexModel {
        ArrayFlexModel::new(32, 32).unwrap()
    }

    #[test]
    fn keys_canonicalize_every_input() {
        let m = model();
        let net = resnet34();
        let mapping = DepthwiseMapping::default();
        let base = PlanKey::new(&m, &net, mapping, PlanKind::ArrayFlex);
        // Same inputs: same key.
        assert_eq!(PlanKey::new(&m, &net, mapping, PlanKind::ArrayFlex), base);
        // Any changed input: different key.
        let other_model = ArrayFlexModel::new(32, 64).unwrap();
        assert_ne!(
            PlanKey::new(&other_model, &net, mapping, PlanKind::ArrayFlex),
            base
        );
        assert_ne!(
            PlanKey::new(&m, &synthetic_cnn(3, 16, 16), mapping, PlanKind::ArrayFlex),
            base
        );
        assert_ne!(
            PlanKey::new(&m, &net, DepthwiseMapping::PerGroup, PlanKind::ArrayFlex),
            base
        );
        assert_ne!(
            PlanKey::new(&m, &net, mapping, PlanKind::Conventional),
            base
        );
        assert_ne!(PlanKey::new(&m, &net, mapping, PlanKind::Fixed(2)), base);
        assert_ne!(
            PlanKey::new(&m, &net, mapping, PlanKind::Fixed(2)),
            PlanKey::new(&m, &net, mapping, PlanKind::Fixed(4))
        );
        assert!(base.canonical().contains("resnet34"));
        assert_eq!(base.hash(), key_hash(base.canonical()));
    }

    #[test]
    fn repeated_plans_hit_the_cache_and_match_direct_calls() {
        let cache = PlanCache::new(64);
        let m = model();
        let net = resnet34();
        let mapping = DepthwiseMapping::default();
        let direct = m.plan_arrayflex(&net, mapping).unwrap();
        let first = m
            .plan_cached(&cache, &net, mapping, PlanKind::ArrayFlex)
            .unwrap();
        assert_eq!(*first, direct);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = m
            .plan_cached(&cache, &net, mapping, PlanKind::ArrayFlex)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The hit shares the first computation's allocation.
        assert!(Arc::ptr_eq(&first, &second));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn every_plan_kind_is_cached_independently() {
        let cache = PlanCache::new(64);
        let m = model();
        let net = synthetic_cnn(4, 8, 16);
        let mapping = DepthwiseMapping::default();
        for kind in [
            PlanKind::Conventional,
            PlanKind::ArrayFlex,
            PlanKind::Fixed(1),
            PlanKind::Fixed(2),
        ] {
            let cached = m.plan_cached(&cache, &net, mapping, kind).unwrap();
            let direct = match kind {
                PlanKind::Conventional => m.plan_conventional(&net, mapping).unwrap(),
                PlanKind::ArrayFlex => m.plan_arrayflex(&net, mapping).unwrap(),
                PlanKind::Fixed(k) => m.plan_arrayflex_fixed(&net, mapping, k).unwrap(),
            };
            assert_eq!(*cached, direct, "{kind}");
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn planning_errors_are_propagated_and_not_cached() {
        let cache = PlanCache::new(64);
        let m = model();
        let net = synthetic_cnn(2, 8, 8);
        let result = m.plan_cached(
            &cache,
            &net,
            DepthwiseMapping::default(),
            PlanKind::Fixed(99),
        );
        assert!(result.is_err());
        assert!(cache.is_empty());
        // The failed lookup still tallied a miss.
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn lru_eviction_keeps_recently_used_plans() {
        // One shard, capacity 2, so insertion order is fully observable.
        let cache = PlanCache::with_shards(2, 1);
        assert_eq!(cache.capacity(), 2);
        let m = model();
        let mapping = DepthwiseMapping::default();
        let nets: Vec<_> = (1..=3).map(|i| synthetic_cnn(i, 8, 8)).collect();
        let keys: Vec<_> = nets
            .iter()
            .map(|n| PlanKey::new(&m, n, mapping, PlanKind::ArrayFlex))
            .collect();
        m.plan_cached(&cache, &nets[0], mapping, PlanKind::ArrayFlex)
            .unwrap();
        m.plan_cached(&cache, &nets[1], mapping, PlanKind::ArrayFlex)
            .unwrap();
        // Touch net 0 so net 1 is the least recently used ...
        assert!(cache.get(&keys[0]).is_some());
        // ... then overflow: net 1 must be evicted, nets 0 and 2 kept.
        m.plan_cached(&cache, &nets[2], mapping, PlanKind::ArrayFlex)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[1]).is_none());
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn concurrent_identical_requests_share_one_plan() {
        let cache = PlanCache::new(64);
        let m = model();
        let net = resnet34();
        let mapping = DepthwiseMapping::default();
        let plans: Vec<Arc<NetworkPlan>> = std::thread::scope(|scope| {
            // The collect is load-bearing: all 8 racers must be spawned
            // before the first join, or the race never happens.
            #[allow(clippy::needless_collect)]
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        m.plan_cached(&cache, &net, mapping, PlanKind::ArrayFlex)
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one entry survives and every caller got an equal plan.
        assert_eq!(cache.len(), 1);
        let reference = m.plan_arrayflex(&net, mapping).unwrap();
        for plan in &plans {
            assert_eq!(**plan, reference);
        }
        // Each call tallies exactly one outcome, and only the single
        // inserting call is a miss — racing callers that are handed the
        // winner's entry count as hits, not misses.
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn insert_race_counts_the_served_entry_as_a_hit() {
        // All eight threads probe (finding nothing), then meet at the barrier
        // inside their compute closures, so every one of them reaches the
        // post-compute re-check: exactly one inserts (the miss), the other
        // seven are handed the winner's entry — which must count as hits.
        let cache = PlanCache::new(64);
        let m = model();
        let net = synthetic_cnn(2, 8, 16);
        let mapping = DepthwiseMapping::default();
        let key = PlanKey::new(&m, &net, mapping, PlanKind::ArrayFlex);
        let barrier = Barrier::new(8);
        let outcomes: Vec<CacheOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let (plan, outcome) = cache
                            .get_or_try_insert_traced(&key, || {
                                barrier.wait();
                                m.plan_arrayflex(&net, mapping)
                            })
                            .unwrap();
                        assert_eq!(*plan, m.plan_arrayflex(&net, mapping).unwrap());
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let hits = outcomes.iter().filter(|o| **o == CacheOutcome::Hit).count();
        let misses = outcomes
            .iter()
            .filter(|o| **o == CacheOutcome::Miss)
            .count();
        assert_eq!(
            (hits, misses),
            (7, 1),
            "exactly one racer inserts, seven are served"
        );
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_and_debug_is_informative() {
        let cache = PlanCache::with_shards(0, 0);
        assert_eq!(cache.capacity(), 1);
        let text = format!("{cache:?}");
        assert!(text.contains("PlanCache"));
        assert!(text.contains("capacity"));
    }

    #[test]
    fn cache_outcome_displays_for_log_lines() {
        assert_eq!(CacheOutcome::Hit.to_string(), "hit");
        assert_eq!(CacheOutcome::Miss.to_string(), "miss");
    }
}
