//! Schema-validated databases with active-domain tracking.

use crate::{Constant, Fact, RelationStore, Schema, SchemaError, Symbol};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A database instance over a [`Schema`]: a finite set of facts (§2 of the
/// paper), stored per relation in indexed [`RelationStore`]s.
///
/// Beyond set semantics the database maintains:
/// * the **active domain** `dom(D)` — every constant occurring in some
///   fact, reference-counted so deletions shrink it correctly; the
///   operational framework needs `dom(D)` to build the base `B(D,Σ)`;
/// * a **version counter** bumped on every mutation, letting callers cheaply
///   detect staleness of derived structures.
///
/// `Database` is a value type: `clone` snapshots the full state. A
/// `Sample` walk clones it once at its start and then at most once per
/// insertion operation (the pre-state for the paper's global-justification
/// re-checks); exact exploration, which keeps every state it branches
/// from, clones it per step. Relation stores clone their indexes along
/// with the data.
#[derive(Clone)]
pub struct Database {
    schema: Arc<Schema>,
    relations: HashMap<Symbol, RelationStore>,
    domain: HashMap<Constant, usize>,
    version: u64,
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Database {
        let relations = schema
            .relations()
            .map(|(r, a)| (r, RelationStore::new(a)))
            .collect();
        Database {
            schema,
            relations,
            domain: HashMap::new(),
            version: 0,
        }
    }

    /// Creates a database from facts, validating each against the schema.
    pub fn from_facts<I>(schema: Arc<Schema>, facts: I) -> Result<Database, SchemaError>
    where
        I: IntoIterator<Item = Fact>,
    {
        let mut db = Database::new(schema);
        for f in facts {
            db.insert(&f)?;
        }
        Ok(db)
    }

    /// The schema of the database.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Whether the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|r| r.is_empty())
    }

    /// Mutation counter; bumped on every successful insert or remove.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(&fact.pred())
            .is_some_and(|r| r.contains(fact.args()))
    }

    /// Inserts a fact. Returns `Ok(true)` if it was newly added, `Ok(false)`
    /// if it was already present, and an error if it violates the schema.
    pub fn insert(&mut self, fact: &Fact) -> Result<bool, SchemaError> {
        self.schema.validate(fact)?;
        let rel = self
            .relations
            .get_mut(&fact.pred())
            .expect("schema-validated relation must exist");
        if !rel.insert(fact.args()) {
            return Ok(false);
        }
        for c in fact.args() {
            *self.domain.entry(*c).or_insert(0) += 1;
        }
        self.version += 1;
        Ok(true)
    }

    /// Removes a fact; returns whether it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(rel) = self.relations.get_mut(&fact.pred()) else {
            return false;
        };
        if !rel.remove(fact.args()) {
            return false;
        }
        for c in fact.args() {
            match self.domain.get_mut(c) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    self.domain.remove(c);
                }
                None => unreachable!("domain refcount out of sync"),
            }
        }
        self.version += 1;
        true
    }

    /// The store for one relation, if declared.
    pub fn relation(&self, rel: Symbol) -> Option<&RelationStore> {
        self.relations.get(&rel)
    }

    /// Iterates over all facts (relation order by name, then slot order).
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        let mut rels: Vec<_> = self.relations.iter().collect();
        rels.sort_by_key(|(r, _)| **r);
        rels.into_iter()
            .flat_map(|(r, store)| store.iter().map(move |row| Fact::new(*r, row.to_vec())))
    }

    /// The active domain `dom(D)`: all constants occurring in some fact.
    pub fn active_domain(&self) -> impl Iterator<Item = Constant> + '_ {
        self.domain.keys().copied()
    }

    /// Size of the active domain.
    pub fn domain_size(&self) -> usize {
        self.domain.len()
    }

    /// Whether a constant occurs in the database.
    pub fn domain_contains(&self, c: Constant) -> bool {
        self.domain.contains_key(&c)
    }

    /// The facts as a sorted set — the canonical form used to identify
    /// operational repairs by their instance.
    pub fn canonical_facts(&self) -> BTreeSet<Fact> {
        self.facts().collect()
    }

    /// Set-semantics equality with another database.
    pub fn same_facts(&self, other: &Database) -> bool {
        self.len() == other.len() && self.facts().all(|f| other.contains(&f))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Database{{")?;
        for (i, fact) in self.canonical_facts().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{fact}")?;
        }
        f.write_str("}")
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fact) in self.canonical_facts().iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{fact}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Schema::from_relations(&[("R", 2), ("S", 1)])
    }

    #[test]
    fn insert_validates_schema() {
        let mut db = Database::new(schema());
        assert_eq!(db.insert(&Fact::parts("R", &["a", "b"])), Ok(true));
        assert_eq!(db.insert(&Fact::parts("R", &["a", "b"])), Ok(false));
        assert!(matches!(
            db.insert(&Fact::parts("R", &["a"])),
            Err(SchemaError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert(&Fact::parts("T", &["a"])),
            Err(SchemaError::UnknownRelation(_))
        ));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn active_domain_refcounting() {
        let mut db = Database::new(schema());
        db.insert(&Fact::parts("R", &["a", "b"])).unwrap();
        db.insert(&Fact::parts("R", &["a", "c"])).unwrap();
        db.insert(&Fact::parts("S", &["a"])).unwrap();
        assert_eq!(db.domain_size(), 3);
        // Removing one fact with `a` keeps `a` (still referenced twice).
        db.remove(&Fact::parts("R", &["a", "b"]));
        assert!(db.domain_contains(Constant::named("a")));
        assert!(!db.domain_contains(Constant::named("b")));
        db.remove(&Fact::parts("R", &["a", "c"]));
        db.remove(&Fact::parts("S", &["a"]));
        assert_eq!(db.domain_size(), 0);
    }

    #[test]
    fn version_bumps_only_on_change() {
        let mut db = Database::new(schema());
        let v0 = db.version();
        db.insert(&Fact::parts("R", &["a", "b"])).unwrap();
        let v1 = db.version();
        assert!(v1 > v0);
        db.insert(&Fact::parts("R", &["a", "b"])).unwrap(); // no-op
        assert_eq!(db.version(), v1);
        db.remove(&Fact::parts("R", &["x", "y"])); // absent: no-op
        assert_eq!(db.version(), v1);
    }

    #[test]
    fn clone_is_snapshot() {
        let mut db = Database::new(schema());
        db.insert(&Fact::parts("R", &["a", "b"])).unwrap();
        let snap = db.clone();
        db.remove(&Fact::parts("R", &["a", "b"]));
        db.insert(&Fact::parts("S", &["z"])).unwrap();
        assert!(snap.contains(&Fact::parts("R", &["a", "b"])));
        assert!(!snap.contains(&Fact::parts("S", &["z"])));
        assert!(snap.domain_contains(Constant::named("a")));
    }

    #[test]
    fn canonical_facts_sorted_and_display() {
        let mut db = Database::new(schema());
        db.insert(&Fact::parts("S", &["z"])).unwrap();
        db.insert(&Fact::parts("R", &["b", "a"])).unwrap();
        db.insert(&Fact::parts("R", &["a", "b"])).unwrap();
        let listed: Vec<String> = db.canonical_facts().iter().map(|f| f.to_string()).collect();
        assert_eq!(listed, ["R(a,b)", "R(b,a)", "S(z)"]);
        assert_eq!(db.to_string(), "R(a,b). R(b,a). S(z).");
    }

    #[test]
    fn same_facts_ignores_history() {
        let mut a = Database::new(schema());
        let mut b = Database::new(schema());
        a.insert(&Fact::parts("R", &["a", "b"])).unwrap();
        a.insert(&Fact::parts("S", &["x"])).unwrap();
        b.insert(&Fact::parts("S", &["x"])).unwrap();
        b.insert(&Fact::parts("R", &["a", "b"])).unwrap();
        b.insert(&Fact::parts("S", &["y"])).unwrap();
        b.remove(&Fact::parts("S", &["y"]));
        assert!(a.same_facts(&b));
        b.remove(&Fact::parts("S", &["x"]));
        assert!(!a.same_facts(&b));
    }

    proptest! {
        /// Database behaves as a schema-checked fact set, and the active
        /// domain always equals the set of constants in live facts.
        #[test]
        fn prop_domain_matches_model(script in prop::collection::vec((any::<bool>(), 0i64..6, 0i64..6), 0..120)) {
            let mut db = Database::new(schema());
            let mut model: BTreeSet<Fact> = BTreeSet::new();
            for (insert, a, b) in script {
                let fact = Fact::new("R", vec![Constant::int(a), Constant::int(b)]);
                if insert {
                    prop_assert_eq!(db.insert(&fact).unwrap(), model.insert(fact));
                } else {
                    prop_assert_eq!(db.remove(&fact), model.remove(&fact));
                }
            }
            prop_assert_eq!(db.canonical_facts(), model.clone());
            let want_domain: BTreeSet<Constant> =
                model.iter().flat_map(|f| f.args().iter().copied()).collect();
            let got_domain: BTreeSet<Constant> = db.active_domain().collect();
            prop_assert_eq!(got_domain, want_domain);
        }
    }
}
