//! The catalog: named, versioned databases with incremental violation
//! maintenance.
//!
//! Each entry owns a [`DbImage`] — the database, its constraint text and
//! the current violation set `V(D, Σ)` at the entry's version — plus the
//! parsed constraint set. The violation set is maintained through
//! [`ocqa_logic::incremental::update_violations`] on every insert/delete
//! batch instead of recomputed from scratch (the catalog is long-lived;
//! recomputation would make every small update `O(|D|^{|body|})`).
//!
//! Every successful update bumps the entry's **version**. Snapshots for
//! sampling ([`Catalog::context`]) are memoized per version and built via
//! [`RepairContext::with_violations`], handing the maintained violation
//! set over to the repair machinery, so preparing a walk after an update
//! costs one base-domain rebuild — never a full violation recomputation.

use crate::error::EngineError;
use crate::image::DbImage;
use crate::planner::{classify, DbPlan, DbStats, PlanKind};
use crate::storage::UpdateDelta;
use ocqa_core::RepairContext;
use ocqa_data::{Database, Fact};
use ocqa_logic::{incremental, parser, ConstraintSet, ViolationSet};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One named database under management.
struct CatalogEntry {
    /// The served state: name, current version, plan classification (a
    /// function of `sigma` alone, fixed at install time), constraint
    /// source text, facts and maintained violation set. Journaling,
    /// export and recovery all hand this one value around.
    image: DbImage,
    /// `image.constraints`, parsed once.
    sigma: ConstraintSet,
    /// Conflict-structure statistics of the current version, maintained
    /// here on install/update/restore (derived from the incrementally
    /// maintained violation set, so keeping it current costs `O(|V|·α)`
    /// per effective update — never a per-request recomputation).
    stats: DbStats,
    /// Memoized sampling snapshot for `version`. Interior mutability so
    /// [`Catalog::context`] works under the catalog's *read* lock —
    /// concurrent answers must not serialize on the write lock.
    snapshot: Mutex<Option<Arc<RepairContext>>>,
    /// Memoized answer plan for `version` (conflict components, violating
    /// key groups). Invalidated together with the snapshot by every
    /// effective update, rebuilt lazily by [`Catalog::snapshot`].
    plan: Mutex<Option<Arc<DbPlan>>>,
}

/// Summary of an entry, for list/status responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseInfo {
    /// Entry name.
    pub name: String,
    /// Current version: drawn from a catalog-global monotonic counter,
    /// bumped by every *effective* update and never reused — so a
    /// drop + recreate cycle can never alias an old version in answer
    /// cache keys.
    pub version: u64,
    /// Number of facts.
    pub facts: usize,
    /// Number of current violations.
    pub violations: usize,
    /// The structural answer-plan classification of the constraint set.
    pub plan: PlanKind,
}

/// Result of an update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Facts actually inserted (absent before, present now).
    pub inserted: usize,
    /// Facts actually removed (present before, absent now).
    pub removed: usize,
    /// The entry's version after the update.
    pub version: u64,
    /// Violations after the update.
    pub violations: usize,
}

/// Named, versioned databases (wrap in a lock for concurrent use; the
/// engine holds it behind a `parking_lot::RwLock`).
#[derive(Default)]
pub struct Catalog {
    entries: HashMap<String, CatalogEntry>,
    /// Catalog-lifetime version counter; see [`DatabaseInfo::version`].
    next_version: u64,
}

/// A database parsed and validated *outside* any catalog lock: the
/// expensive work of `create_db` (parsing and the initial
/// `ViolationSet::compute`) happens here, so the engine only takes the
/// catalog write lock for the cheap [`Catalog::install`] step.
pub struct ParsedDatabase {
    db: Database,
    sigma: ConstraintSet,
    violations: ViolationSet,
    /// The original constraint source text, retained verbatim so storage
    /// backends can journal it re-parseably (the parsed `ConstraintSet`
    /// has no guaranteed round-trippable rendering).
    constraints_src: String,
}

impl ParsedDatabase {
    /// Parses fact and constraint source text and computes `V(D, Σ)`.
    /// The schema is inferred from both, exactly as the one-shot CLI does.
    pub fn parse(facts_src: &str, constraints_src: &str) -> Result<ParsedDatabase, EngineError> {
        let facts =
            parser::parse_facts(facts_src).map_err(|e| EngineError::Parse(e.to_string()))?;
        let sigma = parser::parse_constraints(constraints_src)
            .map_err(|e| EngineError::Parse(e.to_string()))?;
        let schema =
            parser::infer_schema(&facts, &sigma).map_err(|e| EngineError::Parse(e.to_string()))?;
        let db =
            Database::from_facts(schema, facts).map_err(|e| EngineError::Schema(e.to_string()))?;
        let violations = ViolationSet::compute(&sigma, &db);
        Ok(ParsedDatabase {
            db,
            sigma,
            violations,
            constraints_src: constraints_src.to_string(),
        })
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Creates a database from fact and constraint source text
    /// (convenience wrapper: [`ParsedDatabase::parse`] + [`install`]).
    ///
    /// [`install`]: Catalog::install
    pub fn create(
        &mut self,
        name: &str,
        facts_src: &str,
        constraints_src: &str,
    ) -> Result<DatabaseInfo, EngineError> {
        let parsed = ParsedDatabase::parse(facts_src, constraints_src)?;
        self.install(name, parsed)
    }

    /// Installs an already-parsed database under `name` (cheap; safe to
    /// call under the engine's write lock).
    pub fn install(
        &mut self,
        name: &str,
        parsed: ParsedDatabase,
    ) -> Result<DatabaseInfo, EngineError> {
        self.install_with(name, parsed, |_| Ok(()))
    }

    /// [`install`](Catalog::install) with a journaling hook: `journal` is
    /// called with the image about to be committed — at a fresh version —
    /// after validation but **before** the catalog mutates, so a failing
    /// journal vetoes the install and the durable log never lags the
    /// in-memory state.
    pub fn install_with(
        &mut self,
        name: &str,
        parsed: ParsedDatabase,
        journal: impl FnOnce(&DbImage) -> Result<(), EngineError>,
    ) -> Result<DatabaseInfo, EngineError> {
        let image = DbImage {
            name: name.to_string(),
            version: self.next_version + 1,
            plan: classify(&parsed.sigma),
            constraints: parsed.constraints_src,
            db: parsed.db,
            violations: parsed.violations,
        };
        self.commit(image, parsed.sigma, journal)
    }

    /// Installs an image **verbatim** — what a storage backend recovered,
    /// or what another shard shipped: the version, plan classification
    /// and violation set are taken as they are, nothing is recomputed
    /// beyond parsing the constraint text, and the global version counter
    /// is raised to cover the image's version. `journal` as in
    /// [`install_with`](Catalog::install_with) (recovery passes a no-op:
    /// the state is already durable).
    pub fn restore(
        &mut self,
        image: DbImage,
        journal: impl FnOnce(&DbImage) -> Result<(), EngineError>,
    ) -> Result<DatabaseInfo, EngineError> {
        let sigma = parser::parse_constraints(&image.constraints)
            .map_err(|e| EngineError::Storage(format!("image constraints: {e}")))?;
        debug_assert_eq!(
            classify(&sigma),
            image.plan,
            "recorded plan classification drifted from classify()"
        );
        // Every violation must name a constraint of Σ and bind its body:
        // the planner statistics and every walk resolve `h(body)` and
        // would panic on an image (a shipped one comes off the network)
        // that breaks this.
        let grounded = image.violations.iter().all(|v| {
            sigma
                .constraints()
                .get(v.constraint as usize)
                .is_some_and(|k| k.body().iter().all(|atom| atom.apply(&v.hom).is_some()))
        });
        if !grounded {
            return Err(EngineError::Storage(
                "image violations do not fit its constraints".into(),
            ));
        }
        self.commit(image, sigma, journal)
    }

    /// The one place an entry is born: refuse a taken name, journal, then
    /// mutate.
    fn commit(
        &mut self,
        image: DbImage,
        sigma: ConstraintSet,
        journal: impl FnOnce(&DbImage) -> Result<(), EngineError>,
    ) -> Result<DatabaseInfo, EngineError> {
        if self.entries.contains_key(&image.name) {
            return Err(EngineError::DatabaseExists(image.name));
        }
        journal(&image)?;
        self.next_version = self.next_version.max(image.version);
        let entry = CatalogEntry {
            stats: DbStats::compute(&image.db, &sigma, &image.violations),
            image,
            sigma,
            snapshot: Mutex::new(None),
            plan: Mutex::new(None),
        };
        let info = entry.info();
        self.entries.insert(info.name.clone(), entry);
        Ok(info)
    }

    /// Raises the global version counter to at least `floor`. Recovery
    /// calls this with the highest version the journal ever issued —
    /// including dropped databases, whose versions no live entry carries —
    /// so post-restart installs can never alias a pre-restart version.
    pub fn raise_version_floor(&mut self, floor: u64) {
        self.next_version = self.next_version.max(floor);
    }

    /// Drops a database; returns the dropped entry's version (`None` if
    /// it did not exist). Callers use the version to floor the answer
    /// cache: the global counter guarantees any recreated incarnation
    /// starts strictly higher.
    pub fn drop_db(&mut self, name: &str) -> Option<u64> {
        self.entries.remove(name).map(|e| e.image.version)
    }

    /// Applies an insert/delete batch of facts (given as fact-list source
    /// text), maintaining the violation index incrementally and bumping
    /// the version. No-op facts (inserting a present fact, deleting an
    /// absent one) are skipped and don't appear in the outcome counts.
    pub fn update(
        &mut self,
        name: &str,
        insert_src: &str,
        delete_src: &str,
    ) -> Result<UpdateOutcome, EngineError> {
        let inserts =
            parser::parse_facts(insert_src).map_err(|e| EngineError::Parse(e.to_string()))?;
        let deletes =
            parser::parse_facts(delete_src).map_err(|e| EngineError::Parse(e.to_string()))?;
        self.update_parsed(name, &inserts, &deletes)
    }

    /// [`update`](Catalog::update) with the fact lists already parsed
    /// (the engine parses outside the catalog lock). The remaining work
    /// under the lock is proportional to the update's neighbourhood
    /// (semi-naive incremental maintenance), not the database size.
    pub fn update_parsed(
        &mut self,
        name: &str,
        inserts: &[Fact],
        deletes: &[Fact],
    ) -> Result<UpdateOutcome, EngineError> {
        self.update_parsed_with(name, inserts, deletes, |_| Ok(()))
            .map(|(outcome, _)| outcome)
    }

    /// [`update_parsed`](Catalog::update_parsed) with a journaling hook:
    /// for **effective** updates, `journal` receives the netted delta and
    /// the version the update will commit at, after validation but before
    /// the entry mutates; a failing journal vetoes the update. No-op
    /// updates never journal (nothing changed, nothing to replay).
    ///
    /// Alongside the outcome this returns the **touched relations** of
    /// the delta ([`crate::subscribe::touched_relations`], diffed while
    /// both the pre- and post-violation sets are in hand): the dirty set
    /// the shard's push path fans subscriber re-estimates out against.
    /// Empty for clean-region-only (and no-op) updates.
    pub fn update_parsed_with(
        &mut self,
        name: &str,
        inserts: &[Fact],
        deletes: &[Fact],
        journal: impl FnOnce(&UpdateDelta<'_>) -> Result<(), EngineError>,
    ) -> Result<(UpdateOutcome, Vec<String>), EngineError> {
        let next_version = self.next_version + 1;
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))?;

        // Apply on a scratch copy first so a schema error midway leaves
        // the entry untouched.
        let mut db = entry.image.db.clone();
        let mut added: Vec<Fact> = Vec::new();
        let mut removed: Vec<Fact> = Vec::new();
        for f in inserts {
            if db
                .insert(f)
                .map_err(|e| EngineError::Schema(e.to_string()))?
            {
                added.push(f.clone());
            }
        }
        for f in deletes {
            if db.remove(f) {
                removed.push(f.clone());
            }
        }
        // `update_violations` requires `added ⊆ db`, `removed ∩ db = ∅`,
        // the two lists disjoint, and both expressed relative to the
        // pre-state. A fact appearing in both batches (inserted here,
        // then deleted again) would break that; keep only the *net*
        // effect between the pre-state (`entry.image.db`) and the
        // post-state.
        added.retain(|f| db.contains(f) && !entry.image.db.contains(f));
        removed.retain(|f| !db.contains(f) && entry.image.db.contains(f));
        if added.is_empty() && removed.is_empty() {
            // Nothing actually changed: keep the version (and with it the
            // memoized snapshot and every cached answer) — idempotent
            // retries must not flush the caches.
            return Ok((
                UpdateOutcome {
                    inserted: 0,
                    removed: 0,
                    version: entry.image.version,
                    violations: entry.image.violations.len(),
                },
                Vec::new(),
            ));
        }
        journal(&UpdateDelta {
            db: name,
            version: next_version,
            inserted: &added,
            removed: &removed,
        })?;
        let violations = incremental::update_violations(
            &entry.sigma,
            &db,
            &entry.image.violations,
            &added,
            &removed,
        );
        let touched = crate::subscribe::touched_relations(
            &entry.sigma,
            &entry.image.violations,
            &violations,
            &added,
            &removed,
        );
        self.next_version = next_version;
        entry.stats = DbStats::compute(&db, &entry.sigma, &violations);
        entry.image.db = db;
        entry.image.violations = violations;
        entry.image.version = next_version;
        *entry.snapshot.get_mut() = None;
        *entry.plan.get_mut() = None;
        Ok((
            UpdateOutcome {
                inserted: added.len(),
                removed: removed.len(),
                version: next_version,
                violations: entry.image.violations.len(),
            },
            touched,
        ))
    }

    /// The sampling snapshot for a database: an `Arc<RepairContext>` built
    /// from the maintained violation set, memoized until the next update.
    /// Also returns the entry's current version (the cache key component).
    ///
    /// Takes `&self`: the engine calls this under the catalog's shared
    /// read lock, so concurrent answers never serialize on each other; a
    /// cold rebuild after an update only briefly holds the per-entry
    /// snapshot mutex.
    pub fn context(&self, name: &str) -> Result<(Arc<RepairContext>, u64), EngineError> {
        let (ctx, version, _) = self.snapshot(name)?;
        Ok((ctx, version))
    }

    /// [`context`](Catalog::context) plus the memoized [`DbPlan`] for the
    /// same version — the planner's entry point. The plan's data-dependent
    /// artifacts (conflict components, violating key groups) are rebuilt
    /// here after an update, under the same per-entry mutex discipline as
    /// the snapshot.
    pub fn snapshot(
        &self,
        name: &str,
    ) -> Result<(Arc<RepairContext>, u64, Arc<DbPlan>), EngineError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))?;
        let mut snapshot = entry.snapshot.lock();
        if snapshot.is_none() {
            *snapshot = Some(RepairContext::with_violations(
                entry.image.db.clone(),
                entry.sigma.clone(),
                entry.image.violations.clone(),
            ));
        }
        let ctx = snapshot.as_ref().expect("just memoized").clone();
        drop(snapshot);
        let mut plan = entry.plan.lock();
        if plan.is_none() {
            *plan = Some(Arc::new(DbPlan::build_with_stats(&ctx, entry.stats)));
        }
        Ok((
            ctx,
            entry.image.version,
            plan.as_ref().expect("just memoized").clone(),
        ))
    }

    /// The structural plan classification of a database.
    pub fn plan_kind(&self, name: &str) -> Result<PlanKind, EngineError> {
        self.entries
            .get(name)
            .map(|e| e.image.plan)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))
    }

    /// The maintained conflict-structure statistics of a database (the
    /// cost model's stats feed; current as of the entry's version).
    pub fn stats(&self, name: &str) -> Result<DbStats, EngineError> {
        self.entries
            .get(name)
            .map(|e| e.stats)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))
    }

    /// Number of databases under management.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Info for one entry.
    pub fn info(&self, name: &str) -> Result<DatabaseInfo, EngineError> {
        self.entries
            .get(name)
            .map(CatalogEntry::info)
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))
    }

    /// A copy of one entry's [`DbImage`]: the database, constraint source
    /// text, plan classification, maintained violation set and —
    /// crucially — the exact catalog **version**, so the shard that
    /// installs the image reports the same `db_version`s and builds the
    /// same answer-cache keys as the exporting shard (byte-identical
    /// answers across a rebalance).
    pub fn export(&self, name: &str) -> Result<DbImage, EngineError> {
        self.entries
            .get(name)
            .map(|e| e.image.clone())
            .ok_or_else(|| EngineError::UnknownDatabase(name.to_string()))
    }

    /// Info for every entry, sorted by name.
    pub fn list(&self) -> Vec<DatabaseInfo> {
        let mut out: Vec<DatabaseInfo> = self.entries.values().map(CatalogEntry::info).collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

impl CatalogEntry {
    fn info(&self) -> DatabaseInfo {
        DatabaseInfo {
            name: self.image.name.clone(),
            version: self.image.version,
            facts: self.image.db.len(),
            violations: self.image.violations.len(),
            plan: self.image.plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::ViolationSet;

    #[test]
    fn create_update_drop_lifecycle() {
        let mut cat = Catalog::new();
        let info = cat
            .create("prefs", "R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        assert_eq!((info.version, info.facts, info.violations), (1, 2, 2));
        assert!(matches!(
            cat.create("prefs", "", ""),
            Err(EngineError::DatabaseExists(_))
        ));

        let out = cat.update("prefs", "R(b,b).", "R(a,c).").unwrap();
        assert_eq!((out.inserted, out.removed, out.version), (1, 1, 2));
        assert_eq!(out.violations, 0, "conflict resolved by the delete");

        assert!(cat.drop_db("prefs").is_some());
        assert!(cat.drop_db("prefs").is_none());
        assert!(matches!(
            cat.update("prefs", "", ""),
            Err(EngineError::UnknownDatabase(_))
        ));
    }

    #[test]
    fn incremental_violations_match_recompute() {
        let mut cat = Catalog::new();
        cat.create(
            "db",
            "T(a,b). R(a,b). R(a,c).",
            "T(x,y) -> R(x,y). R(x,y), R(x,z) -> y = z.",
        )
        .unwrap();
        cat.update("db", "T(q,r). R(b,b).", "R(a,b).").unwrap();
        cat.update("db", "", "T(a,b).").unwrap();
        let (ctx, version) = cat.context("db").unwrap();
        assert_eq!(version, 3);
        assert_eq!(
            ctx.initial_violations(),
            &ViolationSet::compute(ctx.sigma(), ctx.d0()),
            "maintained set must equal recomputation"
        );
    }

    #[test]
    fn snapshot_memoized_per_version() {
        let mut cat = Catalog::new();
        cat.create("db", "R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let (c1, v1) = cat.context("db").unwrap();
        let (c2, v2) = cat.context("db").unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "same version shares the snapshot");
        assert_eq!(v1, v2);
        cat.update("db", "S(z).", "").unwrap_err(); // unknown relation: schema error
        let (c3, v3) = cat.context("db").unwrap();
        assert!(Arc::ptr_eq(&c1, &c3), "failed update must not invalidate");
        assert_eq!(v3, v1);
        cat.update("db", "", "R(a,b).").unwrap();
        let (c4, v4) = cat.context("db").unwrap();
        assert!(!Arc::ptr_eq(&c1, &c4));
        assert_eq!(v4, v1 + 1);
    }

    #[test]
    fn plan_memoized_per_version_and_refreshed_by_updates() {
        let mut cat = Catalog::new();
        cat.create("db", "R(a,1). R(a,2). R(b,9).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        assert_eq!(cat.plan_kind("db").unwrap(), PlanKind::KeyRepair);
        let (_, v1, p1) = cat.snapshot("db").unwrap();
        let (_, _, p2) = cat.snapshot("db").unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "same version shares the plan");
        // A no-op update keeps the memoized plan.
        cat.update("db", "R(b,9).", "").unwrap();
        let (_, _, p3) = cat.snapshot("db").unwrap();
        assert!(Arc::ptr_eq(&p1, &p3), "no-op update must not rebuild");
        // An effective update rebuilds the plan artifacts for the new
        // version (classification itself is structural and unchanged).
        cat.update("db", "R(b,10).", "").unwrap();
        let (_, v2, p4) = cat.snapshot("db").unwrap();
        assert!(v2 > v1);
        assert!(!Arc::ptr_eq(&p1, &p4), "update must refresh the plan");
        assert_eq!(p4.kind(), PlanKind::KeyRepair);
    }

    #[test]
    fn same_fact_in_both_batches_keeps_index_exact() {
        // Insert-then-delete of the same fact within one batch must leave
        // the incrementally maintained violation set equal to a full
        // recomputation (the `update_violations` precondition fix).
        let mut cat = Catalog::new();
        cat.create("db", "Pref(b,a).", "Pref(x,y), Pref(y,x) -> false.")
            .unwrap();
        let out = cat.update("db", "Pref(a,b).", "Pref(a,b).").unwrap();
        assert_eq!((out.inserted, out.removed), (0, 0), "net no-op");
        assert_eq!(out.violations, 0);
        let (ctx, _) = cat.context("db").unwrap();
        assert_eq!(
            ctx.initial_violations(),
            &ViolationSet::compute(ctx.sigma(), ctx.d0())
        );
        // And when the fact *was* present, the delete wins.
        let out = cat.update("db", "Pref(b,a).", "Pref(b,a).").unwrap();
        assert_eq!((out.inserted, out.removed), (0, 1));
        let (ctx, _) = cat.context("db").unwrap();
        assert!(ctx.d0().is_empty());
    }

    #[test]
    fn recreated_database_never_reuses_versions() {
        // A drop + recreate cycle must not produce a version an earlier
        // incarnation already used: answer-cache keys embed (name,
        // version), and an aliased pair would serve answers computed
        // against the dropped database's facts.
        let mut cat = Catalog::new();
        let v1 = cat
            .create("a", "R(1,1).", "R(x,y), R(x,z) -> y = z.")
            .unwrap()
            .version;
        assert!(cat.drop_db("a").is_some());
        let v2 = cat
            .create("a", "R(2,2).", "R(x,y), R(x,z) -> y = z.")
            .unwrap()
            .version;
        assert!(v2 > v1, "recreate got stale version {v2} <= {v1}");
    }

    #[test]
    fn noop_update_keeps_version_and_snapshot() {
        let mut cat = Catalog::new();
        cat.create("db", "R(1,1).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let (snap1, v1) = cat.context("db").unwrap();
        // Inserting a present fact and deleting an absent one: no-op.
        let out = cat.update("db", "R(1,1).", "R(9,9).").unwrap();
        assert_eq!((out.inserted, out.removed, out.version), (0, 0, v1));
        let (snap2, v2) = cat.context("db").unwrap();
        assert_eq!(v2, v1);
        assert!(Arc::ptr_eq(&snap1, &snap2), "snapshot must survive no-ops");
    }

    #[test]
    fn update_reports_touched_relations() {
        let mut cat = Catalog::new();
        cat.create("db", "R(1,10). S(5).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        // Appending to the unconstrained relation S is clean-region-only.
        let inserts = parser::parse_facts("S(6).").unwrap();
        let (out, touched) = cat
            .update_parsed_with("db", &inserts, &[], |_| Ok(()))
            .unwrap();
        assert_eq!(out.inserted, 1);
        assert!(
            touched.is_empty(),
            "clean-region append touched {touched:?}"
        );
        // A key conflict on R dirties R's component.
        let inserts = parser::parse_facts("R(1,20).").unwrap();
        let (_, touched) = cat
            .update_parsed_with("db", &inserts, &[], |_| Ok(()))
            .unwrap();
        assert_eq!(touched, vec!["R".to_string()]);
    }

    #[test]
    fn export_then_restore_is_verbatim_and_checks_the_violations() {
        let mut cat = Catalog::new();
        cat.create("db", "R(1,10). R(1,20). S(5).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        cat.update("db", "R(2,30).", "").unwrap();
        let image = cat.export("db").unwrap();
        assert_eq!((image.version, image.violations.len()), (2, 2));

        // A fresh catalog takes the image as it is — version included —
        // and journals exactly what it installs.
        let mut other = Catalog::new();
        let mut journaled = None;
        let info = other
            .restore(image.clone(), |img| {
                journaled = Some(img.version);
                Ok(())
            })
            .unwrap();
        assert_eq!(info, cat.info("db").unwrap());
        assert_eq!(journaled, Some(2));
        let next = other.update("db", "S(6).", "").unwrap().version;
        assert_eq!(next, 3, "the counter was raised over the image's version");
        // The name is taken now, journal or not.
        assert!(matches!(
            other.restore(image.clone(), |_| panic!("journaled a refused install")),
            Err(EngineError::DatabaseExists(_))
        ));

        // A violation pointing past Σ is refused before anything resolves
        // it (and before the journal sees the image).
        let mut broken = image;
        broken.name = "broken".into();
        let hom = broken.violations.iter().next().unwrap().hom.clone();
        broken
            .violations
            .insert(ocqa_logic::Violation { constraint: 7, hom });
        assert!(matches!(
            other.restore(broken, |_| panic!("journaled a refused install")),
            Err(EngineError::Storage(_))
        ));
    }

    #[test]
    fn failed_update_leaves_entry_untouched() {
        let mut cat = Catalog::new();
        cat.create("db", "R(a,b).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        // Second fact has a bad arity: the whole batch must roll back.
        let err = cat.update("db", "R(b,c). R(d).", "").unwrap_err();
        assert!(matches!(err, EngineError::Schema(_)));
        let info = cat.info("db").unwrap();
        assert_eq!((info.version, info.facts), (1, 1));
    }
}
