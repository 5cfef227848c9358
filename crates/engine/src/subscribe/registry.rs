//! The per-shard registry of live subscriptions.

use super::notify::PushSession;
use crate::planner::PlanKind;
use ocqa_logic::{Formula, Query};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The sorted relation names a query reads — the footprint matched
/// against an update's touched relations to decide whether a subscriber
/// is affected.
pub fn query_relations(query: &Query) -> Vec<String> {
    fn walk(f: &Formula, out: &mut BTreeSet<String>) {
        match f {
            Formula::Atom(a) => {
                out.insert(a.pred().as_str().to_string());
            }
            Formula::Eq(_, _) => {}
            Formula::Not(inner) => walk(inner, out),
            Formula::And(parts) | Formula::Or(parts) => {
                for part in parts {
                    walk(part, out);
                }
            }
            Formula::Exists(_, inner) | Formula::Forall(_, inner) => walk(inner, out),
        }
    }
    let mut out = BTreeSet::new();
    walk(query.formula(), &mut out);
    out.into_iter().collect()
}

/// One live continuous query.
pub struct Subscription {
    /// Shard-unique id, echoed in every pushed frame.
    pub id: u64,
    /// The catalog entry the query watches.
    pub db: String,
    /// Resolved query source text (prepared handles are resolved at
    /// subscribe time, so a later `prepare` churn can't retarget a live
    /// subscription).
    pub query_text: String,
    /// The query's relation footprint (sorted).
    pub relations: Vec<String>,
    /// Generator the re-estimates sample with.
    pub generator: String,
    /// Additive error bound ε.
    pub eps: f64,
    /// Confidence parameter δ.
    pub delta: f64,
    /// Sampling seed — fixed per subscription, so a re-estimate at the
    /// same version is bit-identical to the equivalent `answer`.
    pub seed: u64,
    /// Explicit plan override (`None` = planner routing).
    pub plan: Option<PlanKind>,
    /// The owning connection's push channel.
    pub session: PushSession,
}

impl Subscription {
    /// Whether an update touching `touched` (sorted relation names)
    /// intersects this query's footprint.
    pub fn reads_any(&self, touched: &[String]) -> bool {
        // Both sides are sorted and tiny; a merge scan beats hashing.
        let (mut i, mut j) = (0, 0);
        while i < self.relations.len() && j < touched.len() {
            match self.relations[i].cmp(&touched[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }
}

/// A shard's live subscriptions, keyed by id. Iteration is id-ordered,
/// so pushes for one update fan out deterministically.
#[derive(Default)]
pub struct SubscriptionRegistry {
    subs: Mutex<BTreeMap<u64, Arc<Subscription>>>,
    next: AtomicU64,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> SubscriptionRegistry {
        SubscriptionRegistry::default()
    }

    /// Allocates the next subscription id (starting at 1).
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Inserts a subscription under its id.
    pub fn insert(&self, sub: Arc<Subscription>) {
        self.subs.lock().unwrap().insert(sub.id, sub);
    }

    /// Removes by id, returning the subscription if it was live.
    pub fn remove(&self, id: u64) -> Option<Arc<Subscription>> {
        self.subs.lock().unwrap().remove(&id)
    }

    /// Removes by id only if `check` accepts the live subscription (the
    /// ownership guard of `unsubscribe`: the id must belong to the
    /// requesting session and database).
    pub fn remove_if(
        &self,
        id: u64,
        check: impl FnOnce(&Subscription) -> bool,
    ) -> Option<Arc<Subscription>> {
        let mut subs = self.subs.lock().unwrap();
        if check(subs.get(&id)?.as_ref()) {
            subs.remove(&id)
        } else {
            None
        }
    }

    /// Removes every subscription watching `db` (the drop-database
    /// path), id-ordered.
    pub fn remove_db(&self, db: &str) -> Vec<Arc<Subscription>> {
        let mut subs = self.subs.lock().unwrap();
        let ids: Vec<u64> = subs
            .iter()
            .filter(|(_, s)| s.db == db)
            .map(|(id, _)| *id)
            .collect();
        ids.iter().filter_map(|id| subs.remove(id)).collect()
    }

    /// Live subscriptions on `db` whose footprint intersects `touched`,
    /// id-ordered.
    pub fn affected(&self, db: &str, touched: &[String]) -> Vec<Arc<Subscription>> {
        self.subs
            .lock()
            .unwrap()
            .values()
            .filter(|s| s.db == db && s.reads_any(touched))
            .cloned()
            .collect()
    }

    /// Live subscription count (the `stats`/`metrics` gauge).
    pub fn len(&self) -> usize {
        self.subs.lock().unwrap().len()
    }

    /// Whether no subscription is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::parser;

    fn sub(id: u64, db: &str, relations: &[&str]) -> Arc<Subscription> {
        Arc::new(Subscription {
            id,
            db: db.into(),
            query_text: String::new(),
            relations: relations.iter().map(|r| r.to_string()).collect(),
            generator: "uniform".into(),
            eps: 0.1,
            delta: 0.1,
            seed: 0,
            plan: None,
            session: PushSession::new(),
        })
    }

    #[test]
    fn query_relations_walks_every_connective() {
        let q = parser::parse_query("(x) <- exists y: (R(x,y) & (S(y) | !T(x, y)))").unwrap();
        assert_eq!(query_relations(&q), vec!["R", "S", "T"]);
    }

    #[test]
    fn affected_filters_by_db_and_footprint() {
        let reg = SubscriptionRegistry::new();
        reg.insert(sub(1, "a", &["R"]));
        reg.insert(sub(2, "a", &["S"]));
        reg.insert(sub(3, "b", &["R"]));
        let hits = reg.affected("a", &["R".into()]);
        assert_eq!(hits.iter().map(|s| s.id).collect::<Vec<_>>(), vec![1]);
        assert!(reg.affected("a", &["T".into()]).is_empty());
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.remove_db("a").len(), 2);
        assert_eq!(reg.len(), 1);
        assert!(reg.remove(3).is_some());
        assert!(reg.remove(3).is_none());
        assert!(reg.is_empty());
    }
}
