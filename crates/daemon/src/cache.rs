//! The server-side `ExecPlan` cache.
//!
//! Lowering a scenario — routing tables, interned hot tables, the
//! reference run — is the expensive, shareable part of a run
//! (`BENCH_plan.json` measures the 5–8× reuse win). The daemon lowers
//! each distinct `(guest, host, assignment, config)` once and keeps the
//! owned plan (`ExecPlan<'static>`) plus the guest's unit-delay
//! [`ReferenceTrace`] behind the canonical scenario key from
//! [`ScenarioSpec::plan_key`]. A cached entry never changes: each run
//! sets its faults and compute costs on its own `ExecPlan::view` of the
//! entry's plan, which borrows the lowered tables and leaves the entry
//! as it was.
//!
//! Budget: the cache holds at most [`DEFAULT_CACHE_BYTES`] of entries,
//! counted by `heap_bytes` of the plan and the reference trace plus the
//! key's length. After a miss finishes lowering, the least recently
//! looked-up other entries are evicted until the total fits; an entry
//! larger than the whole budget stays, alone. An evicted key is simply
//! lowered again on its next arrival, bit-identically.
//!
//! Concurrency: the map lock is held for lookups, empty-slot insertion
//! and the eviction pass, never while lowering; a slot's lock is held
//! only while its first arrival lowers it, so concurrent first arrivals
//! lower exactly once and a slow lowering never blocks other keys. The
//! cache hands out `Arc<Entry>`, and no lock is held while a run
//! executes, so any number of runs — on the same key or not, paused or
//! not — proceed in parallel. Eviction only takes an entry out of the
//! map: a run that holds its `Arc<Entry>` finishes on it, and the entry
//! is freed when the last such run ends. The lookup that evicts returns
//! the evicted entries, so the caller frees them outside the map lock,
//! at a time of its choosing.

use overlap_core::{Error, ScenarioSpec};
use overlap_model::{ReferenceRun, ReferenceTrace};
use overlap_sim::{Assignment, ExecPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The plan cache's byte budget: 128 MiB. That holds about 150 plans of
/// the benchmark's cold scenario mix (2,300 cells × 5 steps, 0.5–1 MB
/// each with reference trace and key) or six of a 65,536-cell × 16-step
/// scenario (19 MB each), and keeps a daemon fed a stream of distinct
/// scenarios at a bounded footprint instead of growing ~1 MB per
/// scenario.
pub const DEFAULT_CACHE_BYTES: u64 = 128 << 20;

/// A populated cache slot: the base plan (no faults, no compute costs)
/// and the reference trace every run of this scenario validates against.
pub(crate) struct Entry {
    /// The lowered plan. Runs execute views of it, never the plan itself.
    pub(crate) plan: ExecPlan<'static>,
    /// The guest's unit-delay reference run.
    pub(crate) reference: ReferenceTrace,
}

/// What [`PlanCache::get`] found or lowered.
pub(crate) struct Lookup {
    /// The key's entry.
    pub(crate) entry: Arc<Entry>,
    /// Whether the entry was already lowered.
    pub(crate) hit: bool,
    /// The entries this lookup's lowering evicted.
    pub(crate) evicted: Evicted,
}

/// Entries taken out of the map. Dropping this frees each of them that no
/// run still holds: thousands of allocations for a typical plan, so the
/// daemon drops it only once the run's result is published.
pub(crate) struct Evicted(
    // Never read: held only so that dropping it frees the slots.
    #[allow(dead_code)] Vec<Arc<Slot>>,
);

/// One key's slot, inserted empty under the map lock and lowered by the
/// first arrival to take its lock. `stamp` and `bytes` order eviction
/// and sum the budget; they publish no data (the entry is published
/// through `state`), so they are read and written `Relaxed`.
struct Slot {
    state: Mutex<State>,
    /// Clock reading at the key's latest lookup; the eviction pass takes
    /// the smallest first.
    stamp: AtomicU64,
    /// Bytes charged for the entry, written under the map lock; 0 until
    /// the entry is lowered, and a slot still lowering is never evicted.
    bytes: AtomicU64,
}

enum State {
    /// Not lowered yet: the arrival holding the slot lock lowers it.
    Empty,
    Ready(Arc<Entry>),
    /// Lowering failed and the slot has left the map; arrivals that were
    /// waiting on it look the key up again.
    Failed,
}

/// The key → slot map and the total of the bytes charged to its slots.
#[derive(Default)]
struct Map {
    slots: HashMap<Arc<str>, Arc<Slot>>,
    bytes: u64,
}

/// Shared plan cache with an LRU byte budget and hit/miss/eviction
/// counters.
pub struct PlanCache {
    map: Mutex<Map>,
    budget: u64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Cache occupancy and traffic, as reported by `GET /v1/cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found the plan already lowered.
    pub hits: u64,
    /// Lookups that had to lower the scenario.
    pub misses: u64,
    /// Distinct plans currently cached (including ones being lowered).
    pub entries: u64,
    /// Entries evicted to keep the cache within its byte budget.
    #[serde(default)]
    pub evictions: u64,
    /// Bytes charged to the cached entries: plan, reference trace and key.
    #[serde(default)]
    pub bytes: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache with the [`DEFAULT_CACHE_BYTES`] budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_CACHE_BYTES)
    }

    /// An empty cache that keeps at most `budget` bytes of entries.
    pub(crate) fn with_budget(budget: u64) -> Self {
        Self {
            map: Mutex::new(Map::default()),
            budget,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn map(&self) -> std::sync::MutexGuard<'_, Map> {
        self.map
            .lock()
            .expect("plan cache map poisoned: a thread panicked holding it")
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let map = self.map();
            (map.slots.len() as u64, map.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            entries,
            evictions: self.evictions.load(Ordering::SeqCst),
            bytes,
        }
    }

    /// The cached entry for `key`, and whether the lookup was a hit. The
    /// key's first arrival lowers `spec` under `assignment` — the
    /// placement `spec` was keyed with — and every later arrival gets the
    /// same entry until it is evicted. A lowering that fails removes the
    /// slot, so the next arrival is a miss that lowers again.
    pub(crate) fn get(
        &self,
        key: &str,
        spec: &ScenarioSpec,
        assignment: Assignment,
    ) -> Result<Lookup, Error> {
        let slot = self.slot(key);
        let mut state = slot
            .state
            .lock()
            .expect("plan cache slot poisoned: a thread panicked lowering it");
        match &*state {
            State::Ready(entry) => {
                self.hits.fetch_add(1, Ordering::SeqCst);
                return Ok(Lookup {
                    entry: Arc::clone(entry),
                    hit: true,
                    evicted: Evicted(Vec::new()),
                });
            }
            State::Failed => {
                drop(state);
                return self.get(key, spec, assignment);
            }
            State::Empty => {}
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let plan = match ExecPlan::build_owned(
            spec.guest.clone(),
            spec.host.clone(),
            assignment,
            spec.config,
        ) {
            Ok(plan) => plan,
            Err(e) => {
                // Only an evicted (lowered) slot or a failed one leaves
                // the map, so `key` still maps to this slot.
                *state = State::Failed;
                self.map().slots.remove(key);
                return Err(e.into());
            }
        };
        let reference = ReferenceRun::execute(&spec.guest);
        let bytes = (plan.heap_bytes() + reference.heap_bytes() + key.len()) as u64;
        let entry = Arc::new(Entry { plan, reference });
        *state = State::Ready(Arc::clone(&entry));
        drop(state);
        Ok(Lookup {
            entry,
            hit: false,
            evicted: self.charge(&slot, bytes),
        })
    }

    /// `key`'s slot, inserted empty if the key is new, with its stamp
    /// refreshed.
    fn slot(&self, key: &str) -> Arc<Slot> {
        let mut map = self.map();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = map.slots.get(key) {
            slot.stamp.store(stamp, Ordering::Relaxed);
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(State::Empty),
            stamp: AtomicU64::new(stamp),
            bytes: AtomicU64::new(0),
        });
        map.slots.insert(Arc::from(key), Arc::clone(&slot));
        slot
    }

    /// Charge a freshly lowered `slot` its `bytes`, then evict the least
    /// recently looked-up other lowered slots until the total fits the
    /// budget. Returns the evicted slots, which are freed outside the map
    /// lock.
    fn charge(&self, slot: &Arc<Slot>, bytes: u64) -> Evicted {
        let mut map = self.map();
        slot.bytes.store(bytes, Ordering::Relaxed);
        map.bytes += bytes;
        let mut evicted: Vec<Arc<Slot>> = Vec::new();
        while map.bytes > self.budget {
            // A chosen slot's charge drops to 0, so the next pass skips it.
            let oldest = map
                .slots
                .values()
                .filter(|s| s.bytes.load(Ordering::Relaxed) > 0 && !Arc::ptr_eq(s, slot))
                .min_by_key(|s| s.stamp.load(Ordering::Relaxed))
                .cloned();
            let Some(oldest) = oldest else {
                break; // only this entry is left: it stays, over budget
            };
            map.bytes -= oldest.bytes.swap(0, Ordering::Relaxed);
            evicted.push(oldest);
        }
        if !evicted.is_empty() {
            // By identity, not by key: a key can be tens of kilobytes,
            // and removing by key would hash each one again.
            map.slots
                .retain(|_, s| !evicted.iter().any(|e| Arc::ptr_eq(e, s)));
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::SeqCst);
        }
        Evicted(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;
    use overlap_sim::validate::validate_run;
    use overlap_sim::RunError;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GuestSpec::array(12, ProgramKind::KvWorkload, 3, 8),
            linear_array(4, DelayModel::uniform(1, 5), 7),
        )
    }

    /// `spec()` with another guest seed: a distinct key of the same shape.
    fn variant(seed: u64) -> ScenarioSpec {
        let mut s = spec();
        s.guest.seed = seed;
        s
    }

    fn get(cache: &PlanCache, spec: &ScenarioSpec) -> (Arc<Entry>, bool) {
        let (key, assignment) = spec.admit().unwrap();
        let lookup = cache.get(&key, spec, assignment).unwrap();
        (lookup.entry, lookup.hit)
    }

    /// Bytes `spec`'s entry is charged.
    fn entry_bytes(spec: &ScenarioSpec) -> u64 {
        let cache = PlanCache::new();
        get(&cache, spec);
        cache.stats().bytes
    }

    #[test]
    fn second_lookup_is_a_hit_and_reuses_the_plan() {
        let cache = PlanCache::new();
        let spec = spec();
        let (first, hit1) = get(&cache, &spec);
        let (second, hit2) = get(&cache, &spec);
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 1, 1, 0));
        let key = spec.admit().unwrap().0;
        let want = first.plan.heap_bytes() + first.reference.heap_bytes() + key.len();
        assert_eq!(s.bytes, want as u64);
    }

    #[test]
    fn stats_from_before_eviction_still_parse() {
        let old: CacheStats = serde_json::from_str(r#"{"hits":1,"misses":2,"entries":3}"#).unwrap();
        assert_eq!((old.hits, old.misses, old.entries), (1, 2, 3));
        assert_eq!((old.evictions, old.bytes), (0, 0));
    }

    #[test]
    fn distinct_keys_get_distinct_slots() {
        let cache = PlanCache::new();
        let a = spec();
        let mut b = spec();
        b.guest.steps += 1;
        get(&cache, &a);
        get(&cache, &b);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().bytes, entry_bytes(&a) + entry_bytes(&b));
    }

    #[test]
    fn failed_lowering_leaves_no_slot_and_the_retry_is_a_miss() {
        let cache = PlanCache::new();
        let spec = spec();
        let (key, assignment) = spec.admit().unwrap();
        // Cells 2..12 have no holder.
        let incomplete = Assignment::from_cells_of(4, 12, vec![vec![0, 1], vec![], vec![], vec![]]);
        let err = cache
            .get(&key, &spec, incomplete)
            .err()
            .expect("lowering fails");
        assert!(
            matches!(err, Error::Run(RunError::IncompleteAssignment(_))),
            "{err}"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (0, 1, 0, 0));
        let retry = cache.get(&key, &spec, assignment).unwrap();
        assert!(!retry.hit, "the retry lowers, so it is a miss");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
    }

    #[test]
    fn a_hit_refreshes_recency_and_the_oldest_entry_goes_first() {
        let (a, b, c) = (variant(10), variant(11), variant(12));
        // Room for any two of the three entries, not for all three.
        let budget = entry_bytes(&a) + entry_bytes(&b) + entry_bytes(&c) - 1;
        let cache = PlanCache::with_budget(budget);
        get(&cache, &a);
        get(&cache, &b);
        assert!(get(&cache, &a).1, "A is now the most recent");
        get(&cache, &c);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        assert_eq!(s.bytes, entry_bytes(&a) + entry_bytes(&c));
        assert!(get(&cache, &a).1, "A survived: its hit made B the oldest");
        assert!(!get(&cache, &b).1, "B was evicted");
        // B's return evicts C, now the oldest.
        assert!(get(&cache, &a).1);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn an_entry_larger_than_the_budget_stays_alone() {
        let cache = PlanCache::with_budget(1);
        let (a, b) = (variant(10), variant(11));
        get(&cache, &a);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.bytes), (1, 0, entry_bytes(&a)));
        get(&cache, &b);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.bytes), (1, 1, entry_bytes(&b)));
        assert!(get(&cache, &b).1);
    }

    #[test]
    fn an_evicted_entry_still_runs_for_its_holder() {
        let cache = PlanCache::with_budget(1);
        let a = variant(10);
        let (held, _) = get(&cache, &a);
        get(&cache, &variant(11));
        assert_eq!(cache.stats().evictions, 1);
        let outcome = held.plan.view().run().unwrap();
        assert!(validate_run(&held.reference, &outcome).is_empty());
        let (relowered, hit) = get(&cache, &a);
        assert!(!hit && !Arc::ptr_eq(&held, &relowered));
        assert_eq!(relowered.plan.run().unwrap(), outcome);
    }
}
