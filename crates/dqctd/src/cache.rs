//! The content-hash transform cache.
//!
//! Transforming and equivalence-checking a circuit dominates small jobs,
//! and a batch service sees the same BV/DJ/Grover templates over and over.
//! The cache keys on everything that determines the transform — the
//! circuit's canonical [`qcir::Circuit::content_hash`], the role
//! partition, and the scheme — and stores the verified pipeline output, so
//! a repeated template skips straight to simulation. Because the cached
//! transform was equivalence-checked when it was filled, cache hits return
//! results exactly as trustworthy as cold runs.
//!
//! Bounded FIFO eviction: the cache never exceeds its capacity, and under
//! template-heavy traffic (the intended workload) the hot entries are
//! re-filled at worst once per eviction cycle.
//!
//! Single flight: [`TransformCache::lookup`] checks for an entry and, on a
//! miss, claims the key in the same critical section. A concurrent lookup
//! of a claimed key waits for the claim's result instead of transforming
//! the same circuit again ([`Lookup::Coalesced`]). A claim dropped without
//! a result — the transform failed or panicked — wakes its waiters, which
//! then transform for themselves; errors are never cached.

use dqc::DynamicScheme;
use qcir::Circuit;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A verified transform, ready to re-simulate.
#[derive(Debug)]
pub struct CachedTransform {
    /// The hardened dynamic circuit.
    pub circuit: Circuit,
    /// Total variation distance recorded by the equivalence check.
    pub tvd: f64,
}

/// The cache key: circuit content + role partition + scheme, folded into
/// one 64-bit digest with the same FNV construction the circuit hash uses.
#[must_use]
pub fn cache_key(
    circuit: &Circuit,
    answer: &[usize],
    data: &[usize],
    ancilla: &[usize],
    scheme: DynamicScheme,
) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = circuit.content_hash();
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    };
    for (tag, list) in [(1u64, answer), (2, data), (3, ancilla)] {
        mix(tag);
        mix(list.len() as u64);
        for &i in list {
            mix(i as u64);
        }
    }
    mix(match scheme {
        DynamicScheme::Direct => 0x10,
        DynamicScheme::Dynamic1 => 0x11,
        DynamicScheme::Dynamic2 => 0x12,
    });
    h
}

/// A bounded, thread-safe transform cache with hit/miss accounting left to
/// the caller (the server owns the metrics registry).
#[derive(Debug)]
pub struct TransformCache {
    capacity: usize,
    inner: Mutex<CacheState>,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<u64, Arc<CachedTransform>>,
    order: VecDeque<u64>,
    /// Keys a claim is transforming right now.
    inflight: HashMap<u64, Arc<Flight>>,
}

/// One claimed key's transform, shared by the claim and its waiters.
#[derive(Debug, Default)]
struct Flight {
    outcome: Mutex<FlightOutcome>,
    settled: Condvar,
}

#[derive(Debug, Default)]
enum FlightOutcome {
    #[default]
    Pending,
    Ready(Arc<CachedTransform>),
    Abandoned,
}

/// What [`TransformCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The transform was cached.
    Hit(Arc<CachedTransform>),
    /// Another caller was transforming the same key; this lookup waited
    /// for its result and ran no transform.
    Coalesced(Arc<CachedTransform>),
    /// The caller must transform, then hand the result to the claim.
    Miss(Claim<'a>),
}

/// The obligation a [`Lookup::Miss`] carries: [`Claim::fill`] caches the
/// transform and wakes every lookup waiting on the key. Dropping the claim
/// unfilled (an error, or a panic unwinding past it) wakes the waiters
/// empty-handed, and each of them transforms for itself.
#[derive(Debug)]
#[must_use = "dropping a claim unfilled makes every waiter transform for itself"]
pub struct Claim<'a> {
    cache: &'a TransformCache,
    key: u64,
    /// The key's flight when this claim leads it; `None` for a miss that
    /// leads nothing (caching disabled, or a waiter whose leader gave up).
    flight: Option<Arc<Flight>>,
}

impl Claim<'_> {
    /// Caches `value` under the claimed key and hands it to every waiter.
    pub fn fill(mut self, value: Arc<CachedTransform>) {
        self.settle(Some(value));
    }

    fn settle(&mut self, value: Option<Arc<CachedTransform>>) {
        let flight = self.flight.take();
        if let Ok(mut state) = self.cache.inner.lock() {
            // Insert before retiring the flight, under one lock: a lookup
            // sees the flight or the entry, never neither, so no second
            // leader starts.
            if let Some(value) = &value {
                self.cache
                    .insert_locked(&mut state, self.key, Arc::clone(value));
            }
            if flight.is_some() {
                state.inflight.remove(&self.key);
            }
        }
        if let Some(flight) = flight {
            *flight
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = match value {
                Some(value) => FlightOutcome::Ready(value),
                None => FlightOutcome::Abandoned,
            };
            flight.settled.notify_all();
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

impl TransformCache {
    /// An empty cache holding at most `capacity` transforms (0 disables
    /// caching entirely — every lookup misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(CacheState::default()),
        }
    }

    /// Looks up `key`, claiming it on a miss. When another caller holds
    /// the claim, blocks until that caller fills or drops it.
    pub fn lookup(&self, key: u64) -> Lookup<'_> {
        let unclaimed = || {
            Lookup::Miss(Claim {
                cache: self,
                key,
                flight: None,
            })
        };
        if self.capacity == 0 {
            return unclaimed();
        }
        let flight = {
            let Ok(mut state) = self.inner.lock() else {
                return unclaimed(); // a poisoned cache serves misses
            };
            if let Some(hit) = state.entries.get(&key) {
                return Lookup::Hit(Arc::clone(hit));
            }
            if let Some(flight) = state.inflight.get(&key) {
                Arc::clone(flight)
            } else {
                let flight = Arc::new(Flight::default());
                state.inflight.insert(key, Arc::clone(&flight));
                return Lookup::Miss(Claim {
                    cache: self,
                    key,
                    flight: Some(flight),
                });
            }
        };
        let pending = flight
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let outcome = flight
            .settled
            .wait_while(pending, |o| matches!(o, FlightOutcome::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        match &*outcome {
            FlightOutcome::Ready(value) => Lookup::Coalesced(Arc::clone(value)),
            _ => unclaimed(),
        }
    }

    /// Looks up a transform by key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Arc<CachedTransform>> {
        match self.inner.lock() {
            Ok(state) => state.entries.get(&key).cloned(),
            Err(_) => None, // a poisoned cache serves misses, never panics
        }
    }

    /// Inserts a transform, evicting the oldest entry when full.
    pub fn insert(&self, key: u64, value: Arc<CachedTransform>) {
        if let Ok(mut state) = self.inner.lock() {
            self.insert_locked(&mut state, key, value);
        }
    }

    fn insert_locked(&self, state: &mut CacheState, key: u64, value: Arc<CachedTransform>) {
        if self.capacity == 0 {
            return;
        }
        if state.entries.insert(key, value).is_none() {
            state.order.push_back(key);
            while state.order.len() > self.capacity {
                if let Some(evicted) = state.order.pop_front() {
                    state.entries.remove(&evicted);
                }
            }
        }
    }

    /// How many transforms are currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().map_or(0, |s| s.entries.len())
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Qubit;

    fn probe(n: usize) -> Circuit {
        let mut c = Circuit::new(n.max(1), 0);
        for i in 0..n.max(1) {
            c.h(Qubit::new(i));
        }
        c
    }

    fn entry() -> Arc<CachedTransform> {
        Arc::new(CachedTransform {
            circuit: probe(1),
            tvd: 0.0,
        })
    }

    #[test]
    fn keys_separate_roles_and_schemes() {
        let c = probe(3);
        let base = cache_key(&c, &[2], &[0, 1], &[], DynamicScheme::Dynamic2);
        assert_eq!(
            base,
            cache_key(&c, &[2], &[0, 1], &[], DynamicScheme::Dynamic2)
        );
        assert_ne!(
            base,
            cache_key(&c, &[1], &[0, 2], &[], DynamicScheme::Dynamic2)
        );
        assert_ne!(
            base,
            cache_key(&c, &[2], &[0, 1], &[], DynamicScheme::Dynamic1)
        );
        assert_ne!(
            base,
            cache_key(&probe(4), &[2], &[0, 1], &[], DynamicScheme::Dynamic2)
        );
        // Role boundary ambiguity: answer=[1], data=[2] must differ from
        // answer=[1,2], data=[] (length prefixes in the fold).
        assert_ne!(
            cache_key(&c, &[1], &[2], &[], DynamicScheme::Direct),
            cache_key(&c, &[1, 2], &[], &[], DynamicScheme::Direct)
        );
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = TransformCache::new(2);
        cache.insert(1, entry());
        cache.insert(2, entry());
        cache.insert(1, entry()); // re-insert must not double-count
        assert_eq!(cache.len(), 2);
        cache.insert(3, entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none(), "oldest key evicted");
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = TransformCache::new(0);
        cache.insert(1, entry());
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        // No flights either: a second lookup of an unsettled key misses
        // instead of waiting.
        let first = cache.lookup(1);
        assert!(matches!(first, Lookup::Miss(_)));
        assert!(matches!(cache.lookup(1), Lookup::Miss(_)));
        drop(first);
    }

    #[test]
    fn lookups_of_a_claimed_key_wait_for_its_transform() {
        let cache = TransformCache::new(4);
        let Lookup::Miss(claim) = cache.lookup(7) else {
            panic!("an empty cache misses");
        };
        let value = entry();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.lookup(7));
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!waiter.is_finished(), "a claimed key never misses twice");
            claim.fill(Arc::clone(&value));
            match waiter.join().expect("waiter") {
                Lookup::Coalesced(got) | Lookup::Hit(got) => assert!(Arc::ptr_eq(&got, &value)),
                Lookup::Miss(_) => panic!("the waiter must reuse the claim's transform"),
            }
        });
        assert!(matches!(cache.lookup(7), Lookup::Hit(_)));
    }

    #[test]
    fn an_unfilled_claim_wakes_its_waiters_to_transform_for_themselves() {
        let cache = TransformCache::new(4);
        let Lookup::Miss(claim) = cache.lookup(7) else {
            panic!("an empty cache misses");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.lookup(7) {
                Lookup::Miss(own) => own.fill(entry()),
                _ => panic!("nothing was cached, so the waiter transforms"),
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(claim); // the leader's transform failed
            waiter.join().expect("waiter");
        });
        assert!(matches!(cache.lookup(7), Lookup::Hit(_)));
    }
}
