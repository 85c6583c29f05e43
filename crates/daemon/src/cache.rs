//! The server-side `ExecPlan` cache.
//!
//! Lowering a scenario — routing tables, interned hot tables, the
//! reference run — is the expensive, shareable part of a run
//! (`BENCH_plan.json` measures the 5–8× reuse win). The daemon lowers
//! each distinct `(guest, host, assignment, config)` exactly once and
//! keeps the owned plan (`ExecPlan<'static>`) plus the guest's
//! unit-delay [`ReferenceTrace`] behind the canonical scenario key from
//! [`ScenarioSpec::plan_key`]. A cached entry never changes: each run
//! sets its faults and compute costs on its own `ExecPlan::view` of the
//! entry's plan, which borrows the lowered tables and leaves the entry
//! as it was.
//!
//! Concurrency: the map lock is only held for lookups and empty-slot
//! insertion; a slot's lock is held only while its first arrival lowers
//! it, so concurrent first arrivals lower exactly once and a slow
//! lowering never blocks other keys. The cache hands out `Arc<Entry>`,
//! and no lock is held while a run executes, so any number of runs —
//! on the same key or not, paused or not — proceed in parallel.

use overlap_core::{Error, ScenarioSpec};
use overlap_model::{ReferenceRun, ReferenceTrace};
use overlap_sim::{Assignment, ExecPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A populated cache slot: the base plan (no faults, no compute costs)
/// and the reference trace every run of this scenario validates against.
pub(crate) struct Entry {
    /// The lowered plan. Runs execute views of it, never the plan itself.
    pub(crate) plan: ExecPlan<'static>,
    /// The guest's unit-delay reference run.
    pub(crate) reference: ReferenceTrace,
}

/// One key's slot. Inserted empty under the map lock; populated (lowered)
/// by the first arrival under the slot lock.
type Slot = Arc<Mutex<Option<Arc<Entry>>>>;

/// Shared plan cache with hit/miss counters.
#[derive(Default)]
pub struct PlanCache {
    slots: Mutex<HashMap<String, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache occupancy and traffic, as reported by `GET /v1/cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found the key already present (lowering skipped).
    pub hits: u64,
    /// Lookups that had to lower the scenario.
    pub misses: u64,
    /// Distinct plans currently cached.
    pub entries: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            entries: self.slots.lock().unwrap().len() as u64,
        }
    }

    /// The cached entry for `key`, and whether the lookup was a hit. The
    /// key's first arrival lowers `spec` under `assignment` — the
    /// placement `spec` was keyed with — and every later arrival gets the
    /// same entry. A lowering that fails leaves the slot empty for the
    /// next arrival to retry.
    pub(crate) fn get(
        &self,
        key: &str,
        spec: &ScenarioSpec,
        assignment: Assignment,
    ) -> Result<(Arc<Entry>, bool), Error> {
        let (slot, hit) = {
            let mut map = self.slots.lock().unwrap();
            match map.get(key) {
                Some(slot) => (Arc::clone(slot), true),
                None => {
                    let slot: Slot = Arc::new(Mutex::new(None));
                    map.insert(key.to_string(), Arc::clone(&slot));
                    (slot, false)
                }
            }
        };
        if hit {
            self.hits.fetch_add(1, Ordering::SeqCst);
        } else {
            self.misses.fetch_add(1, Ordering::SeqCst);
        }
        let mut guard = slot.lock().unwrap();
        if guard.is_none() {
            let plan = ExecPlan::build_owned(
                spec.guest.clone(),
                spec.host.clone(),
                assignment,
                spec.config,
            )?;
            let reference = ReferenceRun::execute(&spec.guest);
            *guard = Some(Arc::new(Entry { plan, reference }));
        }
        let entry = guard.as_ref().expect("slot populated above");
        Ok((Arc::clone(entry), hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GuestSpec::array(12, ProgramKind::KvWorkload, 3, 8),
            linear_array(4, DelayModel::uniform(1, 5), 7),
        )
    }

    fn get(cache: &PlanCache, spec: &ScenarioSpec) -> (Arc<Entry>, bool) {
        let (key, assignment) = spec.admit().unwrap();
        cache.get(&key, spec, assignment).unwrap()
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
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
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
    }
}
