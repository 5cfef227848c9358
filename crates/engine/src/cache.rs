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
//! # ε/δ dominance
//!
//! Lookups additionally reuse answers across accuracy levels. The
//! **dominance rule**: a cached tally computed at `(ε′, δ′)` may serve a
//! request for `(ε, δ)` whenever `ε′ ≤ ε` **and** `δ′ ≤ δ` and every
//! other key component (database, version, query, generator, plan, seed)
//! matches exactly. Soundness: the Hoeffding walk budget
//! `n(ε, δ) = ⌈ln(2/δ)/(2ε²)⌉` is monotonically non-increasing in both
//! parameters, so the dominating tally used *at least* as many walks as
//! the request requires — its estimates satisfy the looser additive
//! error bound with at least the requested confidence. When several
//! entries dominate, the tightest `(ε′, δ′)` (lexicographically smallest)
//! is served, deterministically. The seed still has to match: a response
//! must remain a pure function of its request against a given database
//! version *and the cache contents*, and walks drawn under a different
//! seed would silently change the reported estimates between "cached"
//! and "computed" serves.
//!
//! Note the deliberate carve-out in the engine's determinism story: a
//! dominated hit returns the tighter computation's estimates, which
//! differ numerically from what a cold compute at the requested `(ε, δ)`
//! would produce. This is observable, not silent — the response carries
//! `cached: true` and the tighter run's `walks` — and the substituted
//! estimates satisfy the request's accuracy contract with margin. The
//! bit-identity guarantees (across pool sizes, across restarts) are
//! therefore stated for **computed** answers: a cache-missing request
//! yields the same bytes on any engine at the same database version.
//!
//! # Time-to-live
//!
//! Version bumps bound staleness for *explicit* updates, but some
//! workloads bound it by **time** instead — the database is mutated out
//! of band (a restored snapshot swapped underneath, an upstream source
//! whose drift is tolerated for a while), or operators simply want
//! estimates re-drawn periodically. A cache built with
//! [`AnswerCache::with_ttl`] stamps every entry at insert and expires it
//! **lazily on lookup**: a hit older than the TTL is removed, counted in
//! [`CacheStats::expired`], and reported as a miss, so the caller
//! recomputes exactly as if the entry had never been stored. Dominance
//! scans skip expired entries for the same reason. No sweeper thread
//! exists — an entry that is never looked up again ages out through
//! ordinary LRU eviction.

use crate::planner::PlanKind;
use ocqa_core::sample::SampleTally;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The subset of `hits` served by ε/δ dominance (a tighter cached
    /// estimate answering a looser request; see the module docs).
    pub dominated_hits: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidated: u64,
    /// Entries evicted by capacity pressure.
    pub evicted: u64,
    /// Inserts rejected because their version was below the database's
    /// invalidation floor (an in-flight answer finishing after an update).
    pub stale_drops: u64,
    /// Entries dropped on lookup because they outlived the cache TTL.
    pub expired: u64,
}

impl CacheStats {
    /// Adds another shard's counters into this one (the front door's
    /// `stats` fan-out sums per-shard caches exactly once).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.dominated_hits += other.dominated_hits;
        self.invalidated += other.invalidated;
        self.evicted += other.evicted;
        self.stale_drops += other.stale_drops;
        self.expired += other.expired;
    }
}

struct Slot {
    // Arc so a hit is a pointer copy, not a deep clone of the tally's
    // tuple map under the cache lock.
    tally: Arc<SampleTally>,
    last_used: u64,
    inserted_at: Instant,
}

/// A least-recently-used cache of answer tallies.
pub struct AnswerCache {
    capacity: usize,
    /// Per-entry time-to-live; `None` means entries live until a version
    /// bump or LRU eviction (the historical behavior).
    ttl: Option<Duration>,
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
    /// A cache holding at most `capacity` entries (min 1), without TTL.
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache::with_ttl(capacity, None)
    }

    /// A cache whose entries additionally expire `ttl` after insertion
    /// (lazily, on lookup). `None` disables time-based expiry.
    pub fn with_ttl(capacity: usize, ttl: Option<Duration>) -> AnswerCache {
        AnswerCache {
            capacity: capacity.max(1),
            ttl,
            slots: HashMap::new(),
            floors: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether a slot inserted at `at` has outlived the TTL.
    fn expired(&self, at: Instant, now: Instant) -> bool {
        self.ttl
            .is_some_and(|ttl| now.saturating_duration_since(at) >= ttl)
    }

    /// Looks up a key, refreshing its recency on hit. An exact match wins;
    /// otherwise the tightest **dominating** entry — same database,
    /// version, query, generator, plan and seed, with `ε′ ≤ ε` and
    /// `δ′ ≤ δ` — serves the request (see the module docs for why that is
    /// sound). Entries older than the TTL are expired here: removed,
    /// counted, and reported as a miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<SampleTally>> {
        self.tick += 1;
        let now = Instant::now();
        if self
            .slots
            .get(key)
            .is_some_and(|slot| self.expired(slot.inserted_at, now))
        {
            // Remove the expired exact entry but *fall through* to the
            // dominance scan: a live tighter entry may still serve this
            // request, saving the recompute.
            self.slots.remove(key);
            self.stats.expired += 1;
        }
        if let Some(slot) = self.slots.get_mut(key) {
            slot.last_used = self.tick;
            self.stats.hits += 1;
            return Some(slot.tally.clone());
        }
        if let Some(dominating) = self.find_dominating(key, now) {
            let slot = self.slots.get_mut(&dominating).expect("key from scan");
            slot.last_used = self.tick;
            self.stats.hits += 1;
            self.stats.dominated_hits += 1;
            return Some(slot.tally.clone());
        }
        self.stats.misses += 1;
        None
    }

    /// Scans for the tightest entry dominating `key` (exact key already
    /// known absent). Linear in the live entry count — bounded by the
    /// capacity, and only paid on the miss path, where the alternative is
    /// a full sampling run many orders of magnitude dearer. Expired
    /// entries never dominate (they are skipped, not removed — removal
    /// stays on the exact-hit path).
    fn find_dominating(&self, key: &CacheKey, now: Instant) -> Option<CacheKey> {
        let eps = f64::from_bits(key.eps_bits);
        let delta = f64::from_bits(key.delta_bits);
        let mut best: Option<(f64, f64, &CacheKey)> = None;
        for (k, slot) in self.slots.iter() {
            if self.expired(slot.inserted_at, now) {
                continue;
            }
            if k.db != key.db
                || k.version != key.version
                || k.query != key.query
                || k.generator != key.generator
                || k.plan != key.plan
                || k.seed != key.seed
            {
                continue;
            }
            let (e, d) = (f64::from_bits(k.eps_bits), f64::from_bits(k.delta_bits));
            // NaN bit patterns never dominate (comparisons are false).
            if e <= eps && d <= delta && best.is_none_or(|(be, bd, _)| (e, d) < (be, bd)) {
                best = Some((e, d, k));
            }
        }
        best.map(|(_, _, k)| k.clone())
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
                inserted_at: Instant::now(),
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

    fn key_at(db: &str, version: u64, seed: u64, eps: f64, delta: f64) -> CacheKey {
        CacheKey {
            eps_bits: eps.to_bits(),
            delta_bits: delta.to_bits(),
            ..key(db, version, seed)
        }
    }

    #[test]
    fn tighter_entry_serves_looser_request() {
        let mut cache = AnswerCache::new(8);
        cache.insert(key_at("db", 1, 0, 0.05, 0.05), tally(600));
        // Looser ε and δ: dominated hit, returning the tighter tally.
        let got = cache.get(&key_at("db", 1, 0, 0.1, 0.1)).unwrap();
        assert_eq!(got.walks, 600);
        let s = cache.stats();
        assert_eq!((s.hits, s.dominated_hits, s.misses), (1, 1, 0));
        // Equal ε/δ is an exact hit, not a dominated one.
        assert!(cache.get(&key_at("db", 1, 0, 0.05, 0.05)).is_some());
        assert_eq!(cache.stats().dominated_hits, 1);
        // Tighter-than-cached requests miss: the cached walks are too few.
        assert!(cache.get(&key_at("db", 1, 0, 0.01, 0.05)).is_none());
        // Mixed dominance (tighter ε, looser δ) is not dominance.
        assert!(cache.get(&key_at("db", 1, 0, 0.2, 0.01)).is_none());
        // A different seed never reuses, however loose the request.
        assert!(cache.get(&key_at("db", 1, 9, 0.5, 0.5)).is_none());
        // Neither does a different version.
        assert!(cache.get(&key_at("db", 2, 0, 0.5, 0.5)).is_none());
    }

    #[test]
    fn tightest_dominating_entry_wins() {
        let mut cache = AnswerCache::new(8);
        cache.insert(key_at("db", 1, 0, 0.08, 0.08), tally(200));
        cache.insert(key_at("db", 1, 0, 0.05, 0.09), tally(400));
        cache.insert(key_at("db", 1, 0, 0.06, 0.02), tally(300));
        // All three dominate (0.1, 0.1); the lexicographically tightest
        // (ε first) is chosen deterministically.
        let got = cache.get(&key_at("db", 1, 0, 0.1, 0.1)).unwrap();
        assert_eq!(got.walks, 400);
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
    fn ttl_expires_entries_lazily_on_lookup() {
        let mut cache = AnswerCache::with_ttl(8, Some(Duration::from_millis(20)));
        cache.insert(key("db", 1, 0), tally(150));
        // Fresh entries hit normally.
        assert!(cache.get(&key("db", 1, 0)).is_some());
        std::thread::sleep(Duration::from_millis(60));
        // Past the TTL the entry is removed on lookup and reported as a
        // miss — the caller recomputes as if it had never been cached.
        assert!(cache.get(&key("db", 1, 0)).is_none());
        let s = cache.stats();
        assert_eq!((s.expired, s.misses, s.hits), (1, 1, 1));
        assert_eq!(cache.len(), 0, "expired entry must free its slot");
        // Re-inserting restarts the clock.
        cache.insert(key("db", 1, 0), tally(150));
        assert!(cache.get(&key("db", 1, 0)).is_some());
    }

    #[test]
    fn ttl_applies_to_dominance_too() {
        let mut cache = AnswerCache::with_ttl(8, Some(Duration::from_millis(20)));
        cache.insert(key_at("db", 1, 0, 0.05, 0.05), tally(600));
        assert!(cache.get(&key_at("db", 1, 0, 0.1, 0.1)).is_some());
        std::thread::sleep(Duration::from_millis(60));
        // An expired entry must not serve a looser request either.
        assert!(cache.get(&key_at("db", 1, 0, 0.1, 0.1)).is_none());
        // But an expired *exact* entry falls through to dominance: a
        // live tighter entry still saves the recompute.
        cache.insert(key_at("db", 1, 0, 0.1, 0.1), tally(150));
        std::thread::sleep(Duration::from_millis(30));
        cache.insert(key_at("db", 1, 0, 0.05, 0.05), tally(600));
        let got = cache.get(&key_at("db", 1, 0, 0.1, 0.1)).unwrap();
        assert_eq!(got.walks, 600, "fresh dominating entry serves");
        // Only the exact-hit removal counts an expiry; dominance scans
        // skip expired entries without removing them.
        assert_eq!(cache.stats().expired, 1);
        // A TTL-less cache never expires.
        let mut forever = AnswerCache::new(8);
        forever.insert(key("db", 1, 0), tally(1));
        std::thread::sleep(Duration::from_millis(30));
        assert!(forever.get(&key("db", 1, 0)).is_some());
        assert_eq!(forever.stats().expired, 0);
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            dominated_hits: 3,
            invalidated: 4,
            evicted: 5,
            stale_drops: 6,
            expired: 7,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            CacheStats {
                hits: 2,
                misses: 4,
                dominated_hits: 6,
                invalidated: 8,
                evicted: 10,
                stale_drops: 12,
                expired: 14,
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
