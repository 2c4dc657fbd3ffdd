//! A bounded memo of fully rendered `/v1/plan` response bodies, keyed by
//! the raw request body bytes.
//!
//! The plan cache already guarantees that a cached plan is byte-identical
//! to recomputing it, but *serving* a cached plan still pays two costs
//! that dwarf the actual lookup: canonicalizing the planning inputs into
//! a [`PlanKey`](arrayflex::PlanKey) (which serializes the whole network)
//! and serializing the plan back out as the response body. This memo
//! removes both from the steady-state path: the first serve of a given
//! request body stores the rendered 200 response, and every identical
//! request after that is answered by hashing the (typically tens of bytes)
//! body and cloning an `Arc`.
//!
//! * **Byte identity** holds because planning is a pure function of the
//!   request body and serialization is deterministic — the stored bytes
//!   *are* a previous response to the identical request. A rendered plan
//!   can therefore never go stale: an entry lives until LRU eviction,
//!   whatever happens to the plan cache meanwhile.
//! * **Accounting**: a memo hit is still a hit on the cached plan (its
//!   rendered form), and is tallied into the plan cache's hit counter via
//!   [`PlanCache::note_derived_hit`] — `/metrics` counts one plan-cache
//!   hit or miss per `/v1/plan` lookup either way.

use arrayflex::PlanCache;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Entries kept (LRU-evicted beyond this). Sized for serving workloads —
/// a handful of hot request bodies — not as a second plan cache.
const CAPACITY: usize = 64;

/// Largest request body + rendered response this memo will hold. Inline
/// networks can be arbitrarily large; such requests stay on the full
/// path rather than letting one giant plan pin the memo's memory.
const MAX_ENTRY_BYTES: usize = 256 * 1024;

/// One rendered 200 response.
#[derive(Debug)]
struct Entry {
    body: Arc<Vec<u8>>,
    /// Hash of the plan's canonical [`PlanKey`](arrayflex::PlanKey) — what
    /// request logs and the derived-hit tally identify the plan by.
    key_hash: u64,
    /// Logical LRU clock reading of the last lookup that returned this.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Vec<u8>, Entry>,
    clock: u64,
}

/// The memo. One per [`AppState`](crate::api::AppState); see the module
/// docs.
#[derive(Debug, Default)]
pub(crate) struct RenderedCache {
    inner: Mutex<Inner>,
}

impl RenderedCache {
    /// Returns the rendered response body and plan-key hash for
    /// `request_body` if an entry exists, and tallies the derived hit into
    /// `cache`'s hit counter.
    pub(crate) fn lookup(
        &self,
        cache: &PlanCache,
        request_body: &[u8],
    ) -> Option<(Arc<Vec<u8>>, u64)> {
        // Poison-tolerant: a caught handler panic elsewhere must not turn
        // every later memo lookup into a second panic (the map's
        // per-entry invariants hold regardless).
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(request_body)?;
        entry.last_used = clock;
        let found = (Arc::clone(&entry.body), entry.key_hash);
        drop(inner);
        cache.note_derived_hit(found.1);
        Some(found)
    }

    /// Stores the rendered 200 response for `request_body`. Oversized
    /// entries are skipped; beyond [`CAPACITY`] the least-recently-used
    /// entry is evicted.
    pub(crate) fn store(&self, request_body: &[u8], key_hash: u64, body: Arc<Vec<u8>>) {
        if request_body.len() + body.len() > MAX_ENTRY_BYTES {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(
            request_body.to_vec(),
            Entry {
                body,
                key_hash,
                last_used: clock,
            },
        );
        while inner.map.len() > CAPACITY {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.map.remove(&oldest);
        }
    }

    /// Number of rendered responses currently held (for tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("rendered cache poisoned")
            .map
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(n: u8) -> Vec<u8> {
        vec![n; 8]
    }

    #[test]
    fn lookup_misses_until_stored_then_shares_the_arc() {
        let cache = PlanCache::new(4);
        let rendered = RenderedCache::default();
        assert!(rendered.lookup(&cache, &body(1)).is_none());
        let stored = Arc::new(b"response".to_vec());
        rendered.store(&body(1), 7, Arc::clone(&stored));
        let (found, hash) = rendered.lookup(&cache, &body(1)).unwrap();
        assert!(Arc::ptr_eq(&found, &stored));
        assert_eq!(hash, 7);
        // The derived hit was tallied into the plan cache's counters.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn plan_cache_churn_leaves_entries_in_place() {
        use arrayflex::{ArrayFlexModel, PlanKind};
        use cnn::DepthwiseMapping;

        // A one-entry plan cache: the second plan below evicts the first,
        // so the cache sees inserts and an eviction.
        let cache = PlanCache::with_shards(1, 1);
        let rendered = RenderedCache::default();
        let stored = Arc::new(b"response".to_vec());
        rendered.store(&body(1), 7, Arc::clone(&stored));
        let model = ArrayFlexModel::new(8, 8).unwrap();
        for network in [cnn::models::resnet18(), cnn::models::resnet34()] {
            model
                .plan_cached(
                    &cache,
                    &network,
                    DepthwiseMapping::default(),
                    PlanKind::ArrayFlex,
                )
                .unwrap();
        }
        assert_eq!(cache.evictions(), 1);
        // Planning is pure, so the rendered bytes are still the answer:
        // the entry survives and keeps serving.
        let (found, _) = rendered
            .lookup(&cache, &body(1))
            .expect("entry survives churn");
        assert!(Arc::ptr_eq(&found, &stored));
        assert_eq!(rendered.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used_and_oversize_is_skipped() {
        let cache = PlanCache::new(4);
        let rendered = RenderedCache::default();
        for n in 0..=CAPACITY {
            rendered.store(&body(n as u8), n as u64, Arc::new(vec![0; 16]));
        }
        assert_eq!(rendered.len(), CAPACITY);
        // The first-stored (least recently used) entry is the one gone.
        assert!(rendered.lookup(&cache, &body(0)).is_none());
        rendered.store(&body(99), 99, Arc::new(vec![0; MAX_ENTRY_BYTES]));
        assert!(rendered.lookup(&cache, &body(99)).is_none());
    }
}
