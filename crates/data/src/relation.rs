//! Per-relation tuple storage with column indexes.

use crate::Constant;
use std::collections::HashMap;

/// Storage for the tuples of one relation, with per-column posting lists.
///
/// Layout:
/// * `rows` — append-only slots; deleted rows become tombstones (`None`);
/// * `lookup` — tuple → slot, for O(1) membership and deletion;
/// * `cols[i]` — posting lists mapping each constant appearing in column
///   `i` to the slots that contain it. Lists may hold stale slot ids of
///   tombstoned rows; readers re-validate against `rows`, and the store
///   compacts itself once tombstones outnumber live rows.
///
/// The posting lists are what make violation detection fast: the
/// homomorphism engine looks up bound columns instead of scanning. On
/// the key self-join `R(x,y), R(x,z)`, an ablation recorded in
/// CHANGES.md (release build, 2-core VM) took 1.0 ms indexed vs 2.7 ms
/// by naive nested scan at 1,000 tuples, and 12.5 ms vs 194 ms at 10,000.
#[derive(Clone, Debug)]
pub struct RelationStore {
    arity: usize,
    rows: Vec<Option<Box<[Constant]>>>,
    lookup: HashMap<Box<[Constant]>, u32>,
    cols: Vec<HashMap<Constant, Vec<u32>>>,
    live: usize,
}

impl RelationStore {
    /// Creates an empty store for tuples of the given arity.
    pub fn new(arity: usize) -> Self {
        RelationStore {
            arity,
            rows: Vec::new(),
            lookup: HashMap::new(),
            cols: (0..arity).map(|_| HashMap::new()).collect(),
            live: 0,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether the tuple is present.
    pub fn contains(&self, tuple: &[Constant]) -> bool {
        self.lookup.contains_key(tuple)
    }

    /// Inserts a tuple; returns `false` if it was already present.
    ///
    /// # Panics
    /// Panics if the tuple has the wrong arity.
    pub fn insert(&mut self, tuple: &[Constant]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if self.lookup.contains_key(tuple) {
            return false;
        }
        let slot = self.rows.len() as u32;
        let boxed: Box<[Constant]> = tuple.into();
        self.rows.push(Some(boxed.clone()));
        self.lookup.insert(boxed, slot);
        for (i, c) in tuple.iter().enumerate() {
            self.cols[i].entry(*c).or_default().push(slot);
        }
        self.live += 1;
        true
    }

    /// Removes a tuple; returns `false` if it was not present.
    pub fn remove(&mut self, tuple: &[Constant]) -> bool {
        match self.lookup.remove(tuple) {
            None => false,
            Some(slot) => {
                self.rows[slot as usize] = None;
                self.live -= 1;
                // Postings for `slot` become stale; compact when the
                // garbage outweighs the data.
                if self.rows.len() >= 16 && self.live * 2 < self.rows.len() {
                    self.compact();
                }
                true
            }
        }
    }

    /// Rebuilds storage without tombstones or stale postings.
    fn compact(&mut self) {
        let old_rows = std::mem::take(&mut self.rows);
        self.lookup.clear();
        for col in &mut self.cols {
            col.clear();
        }
        self.live = 0;
        for row in old_rows.into_iter().flatten() {
            let slot = self.rows.len() as u32;
            self.lookup.insert(row.clone(), slot);
            for (i, c) in row.iter().enumerate() {
                self.cols[i].entry(*c).or_default().push(slot);
            }
            self.rows.push(Some(row));
            self.live += 1;
        }
    }

    /// Iterates over live tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &[Constant]> + '_ {
        self.rows.iter().filter_map(|r| r.as_deref())
    }

    /// Iterates over live tuples matching a binding pattern:
    /// `pattern[i] = Some(c)` requires column `i` to equal `c`.
    ///
    /// Uses the shortest posting list among bound columns as the access
    /// path, re-validating candidates against the pattern; with no bound
    /// column this degenerates to a scan.
    ///
    /// # Panics
    /// Panics if the pattern has the wrong arity.
    pub fn select<'a>(
        &'a self,
        pattern: &'a [Option<Constant>],
    ) -> Box<dyn Iterator<Item = &'a [Constant]> + 'a> {
        assert_eq!(pattern.len(), self.arity, "pattern arity mismatch");
        // Choose the most selective bound column.
        let mut best: Option<&[u32]> = None;
        for (i, p) in pattern.iter().enumerate() {
            if let Some(c) = p {
                match self.cols[i].get(c) {
                    None => return Box::new(std::iter::empty()),
                    Some(list) => {
                        if best.is_none_or(|b| list.len() < b.len()) {
                            best = Some(list);
                        }
                    }
                }
            }
        }
        let matches = move |row: &[Constant]| {
            pattern
                .iter()
                .zip(row.iter())
                .all(|(p, c)| p.is_none_or(|p| p == *c))
        };
        match best {
            Some(list) => Box::new(
                list.iter()
                    .filter_map(move |&slot| self.rows[slot as usize].as_deref())
                    .filter(move |row| matches(row)),
            ),
            None => Box::new(self.iter().filter(move |row| matches(row))),
        }
    }

    /// Counts tuples matching a binding pattern.
    pub fn count(&self, pattern: &[Option<Constant>]) -> usize {
        self.select(pattern).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constant as C;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn t(vals: &[i64]) -> Vec<C> {
        vals.iter().map(|&v| C::int(v)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = RelationStore::new(2);
        assert!(r.insert(&t(&[1, 2])));
        assert!(!r.insert(&t(&[1, 2])), "duplicate insert rejected");
        assert!(r.contains(&t(&[1, 2])));
        assert_eq!(r.len(), 1);
        assert!(r.remove(&t(&[1, 2])));
        assert!(!r.remove(&t(&[1, 2])));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        RelationStore::new(2).insert(&t(&[1]));
    }

    #[test]
    fn select_by_column() {
        let mut r = RelationStore::new(2);
        for (a, b) in [(1, 2), (1, 3), (2, 3), (3, 1)] {
            r.insert(&t(&[a, b]));
        }
        let got: BTreeSet<Vec<C>> = r
            .select(&[Some(C::int(1)), None])
            .map(|row| row.to_vec())
            .collect();
        assert_eq!(got, BTreeSet::from([t(&[1, 2]), t(&[1, 3])]));
        // Fully bound pattern.
        assert_eq!(r.count(&[Some(C::int(2)), Some(C::int(3))]), 1);
        // Unbound pattern scans everything.
        assert_eq!(r.count(&[None, None]), 4);
        // Constant not present anywhere: short-circuits.
        assert_eq!(r.count(&[Some(C::int(99)), None]), 0);
    }

    #[test]
    fn select_after_removals_sees_no_ghosts() {
        let mut r = RelationStore::new(2);
        for b in 0..10 {
            r.insert(&t(&[1, b]));
        }
        for b in 0..5 {
            r.remove(&t(&[1, b]));
        }
        let got: Vec<i64> = r
            .select(&[Some(C::int(1)), None])
            .map(|row| match row[1] {
                C::Int(v) => v,
                _ => unreachable!(),
            })
            .collect();
        let got: BTreeSet<i64> = got.into_iter().collect();
        assert_eq!(got, BTreeSet::from([5, 6, 7, 8, 9]));
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut r = RelationStore::new(1);
        for v in 0..100 {
            r.insert(&t(&[v]));
        }
        // Remove most rows to trigger compaction repeatedly.
        for v in 0..90 {
            r.remove(&t(&[v]));
        }
        assert_eq!(r.len(), 10);
        let got: BTreeSet<Vec<C>> = r.iter().map(|row| row.to_vec()).collect();
        let want: BTreeSet<Vec<C>> = (90..100).map(|v| t(&[v])).collect();
        assert_eq!(got, want);
        // Reinsertion after compaction works.
        assert!(r.insert(&t(&[5])));
        assert!(r.contains(&t(&[5])));
    }

    proptest! {
        /// The store behaves like a set of tuples under arbitrary edit scripts.
        #[test]
        fn prop_matches_btreeset_model(script in prop::collection::vec((any::<bool>(), 0i64..8, 0i64..8), 0..200)) {
            let mut store = RelationStore::new(2);
            let mut model: BTreeSet<Vec<C>> = BTreeSet::new();
            for (insert, a, b) in script {
                let tuple = t(&[a, b]);
                if insert {
                    prop_assert_eq!(store.insert(&tuple), model.insert(tuple));
                } else {
                    prop_assert_eq!(store.remove(&tuple), model.remove(&tuple));
                }
                prop_assert_eq!(store.len(), model.len());
            }
            let got: BTreeSet<Vec<C>> = store.iter().map(|r| r.to_vec()).collect();
            prop_assert_eq!(&got, &model);
            // Every single-column selection agrees with the model.
            for v in 0..8 {
                let want: BTreeSet<Vec<C>> = model.iter().filter(|r| r[0] == C::int(v)).cloned().collect();
                let got: BTreeSet<Vec<C>> = store.select(&[Some(C::int(v)), None]).map(|r| r.to_vec()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
