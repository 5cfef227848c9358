//! The answer cache: an LRU over fully-qualified answer computations.
//!
//! A cached entry is keyed by everything that determines the sampled
//! answer bit-for-bit: database name **and version**, query text,
//! generator name, ε/δ (as exact bit patterns) and the seed. Catalog
//! updates bump the version, so stale entries can never be served; they
//! are additionally purged eagerly ([`AnswerCache::invalidate_db`]) so a
//! hot database with frequent updates cannot fill the cache with dead
//! versions.
//!
//! Only an exact key serves. A hit therefore returns the tally a
//! recompute of the same request would draw, so an answer's bytes never
//! depend on what the cache happened to hold.

use crate::planner::PlanKind;
use ocqa_core::sample::SampleTally;
use std::collections::HashMap;
use std::sync::Arc;

/// Upper bound on retained invalidation floors (see
/// [`AnswerCache::invalidate_db`]); above it the lowest — oldest —
/// floors are pruned, so the map cannot grow without bound on servers
/// whose clients churn through uniquely named databases.
pub const MAX_FLOORS: usize = 4096;

/// Cache key: the full provenance of an answer computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Database name.
    pub db: String,
    /// Database version at computation time.
    pub version: u64,
    /// Query source text.
    pub query: String,
    /// Generator name.
    pub generator: String,
    /// The plan that computed the tally: different plans draw different
    /// RNG streams, so a forced-monolithic answer and a planner-served
    /// one are distinct computations even for identical seeds.
    pub plan: PlanKind,
    /// `ε` as IEEE-754 bits (hashable, no rounding surprises).
    pub eps_bits: u64,
    /// `δ` as IEEE-754 bits.
    pub delta_bits: u64,
    /// Sampling seed.
    pub seed: u64,
}

/// Counters exposed in responses and `stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidated: u64,
    /// Entries evicted by capacity pressure.
    pub evicted: u64,
    /// Inserts rejected because their version was below the database's
    /// invalidation floor (an in-flight answer finishing after an update).
    pub stale_drops: u64,
}

impl CacheStats {
    /// Adds another shard's counters into this one (the front door's
    /// `stats` fan-out sums per-shard caches exactly once).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidated += other.invalidated;
        self.evicted += other.evicted;
        self.stale_drops += other.stale_drops;
    }
}

struct Slot {
    // Arc so a hit is a pointer copy, not a deep clone of the tally's
    // tuple map under the cache lock.
    tally: Arc<SampleTally>,
    last_used: u64,
}

/// A least-recently-used cache of answer tallies.
pub struct AnswerCache {
    capacity: usize,
    slots: HashMap<CacheKey, Slot>,
    /// Per-database minimum acceptable version, set by
    /// [`invalidate_db`](Self::invalidate_db). An `answer` that sampled
    /// against a pre-update snapshot races its insert against the
    /// update's purge; without the floor, an insert landing *after* the
    /// purge would park an unservable old-version entry in an LRU slot
    /// until capacity pressure happens to evict it.
    floors: HashMap<String, u64>,
    tick: u64,
    stats: CacheStats,
}

impl AnswerCache {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            capacity: capacity.max(1),
            slots: HashMap::new(),
            floors: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks up a key, refreshing its recency on hit. Only an exact match
    /// serves: every key component, ε and δ included, must be equal.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<SampleTally>> {
        self.tick += 1;
        match self.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.stats.hits += 1;
                Some(slot.tally.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a computed tally, evicting the least-recently-used entry
    /// if the cache is full.
    ///
    /// Inserts whose version lies below the database's invalidation floor
    /// are dropped: the entry could never be served (lookups carry the
    /// current version) and would only waste a slot.
    pub fn insert(&mut self, key: CacheKey, tally: Arc<SampleTally>) {
        if self
            .floors
            .get(&key.db)
            .is_some_and(|floor| key.version < *floor)
        {
            self.stats.stale_drops += 1;
            return;
        }
        self.tick += 1;
        if self.slots.len() >= self.capacity && !self.slots.contains_key(&key) {
            if let Some(oldest) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                self.slots.remove(&oldest);
                self.stats.evicted += 1;
            }
        }
        self.slots.insert(
            key,
            Slot {
                tally,
                last_used: self.tick,
            },
        );
    }

    /// Purges every entry of `db` whose version lies below `min_version`
    /// and records the floor, so racing inserts from answers computed
    /// against older versions are dropped rather than re-inserted. Called
    /// on catalog updates (with the post-update version) and drops (with
    /// a floor above the dropped incarnation — the catalog-global version
    /// counter guarantees a recreated database starts higher).
    pub fn invalidate_db(&mut self, db: &str, min_version: u64) {
        let before = self.slots.len();
        self.slots
            .retain(|k, _| k.db != db || k.version >= min_version);
        self.stats.invalidated += (before - self.slots.len()) as u64;
        let floor = self.floors.entry(db.to_string()).or_insert(0);
        *floor = (*floor).max(min_version);
        if self.floors.len() > MAX_FLOORS {
            self.prune_floors();
        }
    }

    /// Bounds the floor map on a long-lived server whose clients churn
    /// through uniquely named databases: keep the `MAX_FLOORS / 2`
    /// *highest* floors (the most recent versions, whose in-flight
    /// answers may still land) and forget the rest. Forgetting a floor
    /// degrades gracefully to the pre-floor behavior — a stale insert
    /// for a long-dead database wastes one LRU slot until eviction, but
    /// is still never *served* (lookups carry the current version).
    fn prune_floors(&mut self) {
        let mut entries: Vec<(String, u64)> = self.floors.drain().collect();
        entries.sort_unstable_by_key(|(_, floor)| std::cmp::Reverse(*floor));
        entries.truncate(MAX_FLOORS / 2);
        self.floors = entries.into_iter().collect();
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of retained invalidation floors (test observability).
    #[cfg(test)]
    fn floors_len(&self) -> usize {
        self.floors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(db: &str, version: u64, seed: u64) -> CacheKey {
        CacheKey {
            db: db.into(),
            version,
            query: "(x) <- R(x)".into(),
            generator: "uniform".into(),
            plan: PlanKind::Monolithic,
            eps_bits: 0.1f64.to_bits(),
            delta_bits: 0.1f64.to_bits(),
            seed,
        }
    }

    fn tally(walks: u64) -> Arc<SampleTally> {
        Arc::new(SampleTally {
            walks,
            ..Default::default()
        })
    }

    #[test]
    fn hit_miss_and_version_separation() {
        let mut cache = AnswerCache::new(8);
        assert!(cache.get(&key("db", 1, 0)).is_none());
        cache.insert(key("db", 1, 0), tally(150));
        assert_eq!(cache.get(&key("db", 1, 0)).unwrap().walks, 150);
        assert!(cache.get(&key("db", 2, 0)).is_none(), "new version misses");
        assert!(cache.get(&key("db", 1, 7)).is_none(), "new seed misses");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = AnswerCache::new(2);
        cache.insert(key("a", 1, 0), tally(1));
        cache.insert(key("b", 1, 0), tally(2));
        cache.get(&key("a", 1, 0)); // refresh a
        cache.insert(key("c", 1, 0), tally(3)); // evicts b
        assert!(cache.get(&key("b", 1, 0)).is_none());
        assert!(cache.get(&key("a", 1, 0)).is_some());
        assert!(cache.get(&key("c", 1, 0)).is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn invalidate_db_purges_below_floor() {
        let mut cache = AnswerCache::new(8);
        cache.insert(key("a", 1, 0), tally(1));
        cache.insert(key("a", 2, 0), tally(2));
        cache.insert(key("b", 1, 0), tally(3));
        cache.invalidate_db("a", 3);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidated, 2);
        assert!(cache.get(&key("b", 1, 0)).is_some());
        // Entries at or above the floor survive.
        cache.insert(key("a", 3, 0), tally(4));
        cache.invalidate_db("a", 3);
        assert!(cache.get(&key("a", 3, 0)).is_some());
    }

    #[test]
    fn stale_insert_after_invalidation_is_dropped() {
        // The in-flight-answer race: a request snapshots version 1, an
        // update purges and floors the db at version 2 while it samples,
        // then the request's insert lands. The entry must be dropped —
        // it can never be served and would only occupy an LRU slot.
        let mut cache = AnswerCache::new(8);
        cache.invalidate_db("a", 2);
        cache.insert(key("a", 1, 0), tally(1));
        assert_eq!(cache.len(), 0, "stale insert must be dropped");
        assert_eq!(cache.stats().stale_drops, 1);
        // The current version is accepted, as are later ones.
        cache.insert(key("a", 2, 0), tally(2));
        cache.insert(key("a", 3, 0), tally(3));
        assert_eq!(cache.len(), 2);
        // Floors only ever rise: an older invalidation cannot lower one.
        cache.invalidate_db("a", 1);
        cache.insert(key("a", 1, 1), tally(4));
        assert_eq!(cache.stats().stale_drops, 2);
        // Other databases are unaffected by a's floor.
        cache.insert(key("b", 1, 0), tally(5));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            invalidated: 4,
            evicted: 5,
            stale_drops: 6,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            CacheStats {
                hits: 2,
                misses: 4,
                invalidated: 8,
                evicted: 10,
                stale_drops: 12,
            }
        );
    }

    #[test]
    fn floor_map_is_bounded_and_keeps_recent_floors() {
        let mut cache = AnswerCache::new(4);
        // Churn through far more uniquely named databases than the bound
        // (monotonically increasing versions, like the catalog counter).
        for v in 0..(2 * MAX_FLOORS as u64 + 10) {
            cache.invalidate_db(&format!("scratch-{v}"), v + 1);
        }
        assert!(
            cache.floors_len() <= MAX_FLOORS,
            "floors must stay bounded: {}",
            cache.floors_len()
        );
        // The most recent floor survives pruning; a stale insert for it
        // is still rejected.
        let last = 2 * MAX_FLOORS as u64 + 9;
        cache.insert(key(&format!("scratch-{last}"), last, 0), tally(1));
        assert_eq!(cache.stats().stale_drops, 1);
        // An ancient pruned floor degrades gracefully: the insert lands
        // (one LRU slot) but can never be served at the current version.
        cache.insert(key("scratch-0", 0, 0), tally(1));
        assert_eq!(cache.len(), 1);
    }
}
