//! The practical approximation scheme of §5 for key violations.
//!
//! For the common case — primary-key constraints repaired by deletions —
//! the paper sketches an implementation that bypasses the generic Markov
//! walk entirely: group the tuples of `R` violating a key, randomly keep at
//! most one tuple per group, collect the rest in `R_del`, and evaluate the
//! query with `R` replaced by `R − R_del` (no materialization), tallying
//! answers over `n = ⌈ln(2/δ)/(2ε²)⌉` rounds in a temporary table.
//!
//! This module implements that scheme directly on top of
//! [`DeletionOverlay`] (the in-engine analogue of the SQL rewriting), with
//! pluggable per-group survivor policies:
//!
//! * [`GroupPolicy::KeepOneUniform`] — one survivor, uniformly (the ABC
//!   subset-repair distribution per group);
//! * [`GroupPolicy::KeepAtMostOneUniform`] — uniform over survivors *and*
//!   the delete-all outcome (the paper's "at most one");
//! * [`GroupPolicy::Trust`] — the Example 5 trust model on conflict pairs.
//!
//! Because groups are repaired independently, the induced repair
//! distribution is the product of per-group outcome distributions —
//! exposed exactly by [`KeyRepairSampler::exact_distribution`] for
//! validation against the sampler and the generic engine.

use crate::generators::trust_pair_outcomes;
use crate::sample::SampleTally;
use ocqa_data::{Constant, Database, Fact, Symbol};
use ocqa_logic::{DeletionOverlay, Query};
use ocqa_num::Rat;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A key declaration: the columns `key_cols` of `relation` form a key.
/// The columns may sit anywhere in the tuple — grouping projects each row
/// onto them in order — so permuted and non-prefix keys work exactly like
/// leading ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyConfig {
    /// The relation carrying the key.
    pub relation: Symbol,
    /// The key column indices, ascending (non-empty, strictly fewer than
    /// the relation's arity).
    pub key_cols: Vec<usize>,
}

impl KeyConfig {
    /// The classic prefix key: the first `key_len` columns.
    pub fn prefix(relation: Symbol, key_len: usize) -> KeyConfig {
        KeyConfig {
            relation,
            key_cols: (0..key_len).collect(),
        }
    }
}

/// Per-group survivor policy.
#[derive(Clone, Debug, PartialEq)]
pub enum GroupPolicy {
    /// Keep exactly one tuple per violating group, uniformly at random.
    KeepOneUniform,
    /// Keep one tuple (uniformly) or none — each of the `g + 1` outcomes
    /// equally likely.
    KeepAtMostOneUniform,
    /// The per-group hitting distribution of the **uniform repairing
    /// chain** `M^u_Σ` (Proposition 4's generator): each of the `g` facts
    /// survives with probability `a_g / g` and the group is wholly deleted
    /// with probability `1 − a_g`, where `a_g` satisfies
    /// `a_g = (2·a_{g−1} + (g−1)·a_{g−2}) / (g+1)` with `a_0 = 0, a_1 = 1`
    /// (the chain at a fully-conflicting group of size `g` offers `g`
    /// single deletions and `g(g−1)/2` pair deletions, uniformly).
    ///
    /// Because `M^u_Σ` is component-local and key groups are exactly the
    /// conflict components of a key-only constraint set, sampling groups
    /// under this policy reproduces the *monolithic* uniform-chain repair
    /// distribution exactly — this is the policy behind `ocqa-engine`'s
    /// key-repair fast path. (For pairs it coincides with
    /// [`KeepAtMostOneUniform`]; for larger groups it does not: delete-all
    /// is likelier than 1/(g+1) under the chain.)
    ChainUniform,
    /// Example 5's trust model; requires all violating groups to be pairs.
    /// Facts default to the given trust when absent from the map.
    Trust {
        /// Per-fact trust levels in `(0, 1]`.
        trust: BTreeMap<Fact, Rat>,
        /// Default trust for unlisted facts.
        default_trust: Rat,
    },
}

/// Error raised when a policy cannot handle the group structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRepairError(pub String);

impl fmt::Display for KeyRepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key repair error: {}", self.0)
    }
}

impl std::error::Error for KeyRepairError {}

/// Groups the tuples of `cfg.relation` by key value and returns the groups
/// with at least two tuples (the violating ones), canonically ordered.
pub fn violating_groups(db: &Database, cfg: &KeyConfig) -> Vec<Vec<Fact>> {
    let Some(rel) = db.relation(cfg.relation) else {
        return Vec::new();
    };
    assert!(
        !cfg.key_cols.is_empty() && cfg.key_cols.len() < rel.arity(),
        "key must be non-empty and leave at least one dependent column"
    );
    assert!(
        cfg.key_cols.iter().all(|&i| i < rel.arity()),
        "key column out of range for arity {}",
        rel.arity()
    );
    let mut groups: BTreeMap<Vec<Constant>, Vec<Fact>> = BTreeMap::new();
    for row in rel.iter() {
        let key: Vec<Constant> = cfg.key_cols.iter().map(|&i| row[i]).collect();
        groups
            .entry(key)
            .or_default()
            .push(Fact::new(cfg.relation, row.to_vec()));
    }
    groups
        .into_values()
        .filter(|g| g.len() > 1)
        .map(|mut g| {
            g.sort();
            g
        })
        .collect()
}

/// The group-wise repair sampler implementing the §5 scheme.
///
/// Owns only the violating groups and their outcome distributions — the
/// database is passed to the evaluation methods, so a sampler built once
/// (e.g. per catalog version in `ocqa-engine`) can be shared across
/// threads and requests without borrowing the catalog.
pub struct KeyRepairSampler {
    groups: Vec<Vec<Fact>>,
    /// Per group: the list of outcomes, each a set of deletions with its
    /// probability. Outcome `i < g` keeps tuple `i`; the optional last
    /// outcome deletes the whole group.
    outcomes: Vec<Vec<(Vec<Fact>, Rat)>>,
}

impl fmt::Debug for KeyRepairSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyRepairSampler(groups={}, outcomes={})",
            self.groups.len(),
            self.outcomes.iter().map(|o| o.len()).sum::<usize>()
        )
    }
}

impl KeyRepairSampler {
    /// Builds the sampler for `db` under the given key and policy.
    pub fn new(
        db: &Database,
        cfg: &KeyConfig,
        policy: &GroupPolicy,
    ) -> Result<KeyRepairSampler, KeyRepairError> {
        Self::with_configs(db, std::slice::from_ref(cfg), policy)
    }

    /// Builds the sampler over *several* keyed relations at once. Groups
    /// of different relations never overlap, so their outcome
    /// distributions are independent and simply concatenate.
    pub fn with_configs(
        db: &Database,
        cfgs: &[KeyConfig],
        policy: &GroupPolicy,
    ) -> Result<KeyRepairSampler, KeyRepairError> {
        let mut groups = Vec::new();
        for cfg in cfgs {
            groups.extend(violating_groups(db, cfg));
        }
        let mut outcomes = Vec::with_capacity(groups.len());
        for group in &groups {
            outcomes.push(group_outcomes(group, policy)?);
        }
        Ok(KeyRepairSampler { groups, outcomes })
    }

    /// The violating groups.
    pub fn groups(&self) -> &[Vec<Fact>] {
        &self.groups
    }

    /// Draws one repair, returned as the deletion set `R_del`.
    pub fn sample_deletions(&self, rng: &mut StdRng) -> HashSet<Fact> {
        let mut deleted = HashSet::new();
        for group_outcomes in &self.outcomes {
            let r: f64 = rng.random();
            let mut acc = 0.0;
            let mut chosen = group_outcomes.len() - 1;
            for (i, (_, p)) in group_outcomes.iter().enumerate() {
                acc += p.to_f64();
                if r < acc {
                    chosen = i;
                    break;
                }
            }
            deleted.extend(group_outcomes[chosen].0.iter().cloned());
        }
        deleted
    }

    /// The exact induced repair distribution: the product of per-group
    /// outcome distributions. Exponential in the number of groups — for
    /// validation on small instances.
    pub fn exact_distribution(&self) -> Vec<(HashSet<Fact>, Rat)> {
        let mut acc: Vec<(HashSet<Fact>, Rat)> = vec![(HashSet::new(), Rat::one())];
        for group_outcomes in &self.outcomes {
            let mut next = Vec::with_capacity(acc.len() * group_outcomes.len());
            for (dels, p) in &acc {
                for (outcome_dels, q) in group_outcomes {
                    let mut d = dels.clone();
                    d.extend(outcome_dels.iter().cloned());
                    next.push((d, p.mul_ref(q)));
                }
            }
            acc = next;
        }
        acc
    }

    /// Runs exactly `walks` rounds of (sample `R_del`, evaluate
    /// `Q[R ↦ R − R_del]` through a [`DeletionOverlay`], tally every
    /// answer tuple) — the mergeable batch entry point mirroring
    /// [`crate::sample::sample_tally`], used by `ocqa-engine`'s key-repair
    /// fast path. Group sampling never fails, so `failed_walks` is 0.
    ///
    /// `db` must be the database the sampler was built from.
    pub fn sample_tally(
        &self,
        db: &Database,
        query: &Query,
        walks: u64,
        rng: &mut StdRng,
    ) -> SampleTally {
        let mut tally = SampleTally {
            walks,
            ..SampleTally::default()
        };
        for _ in 0..walks {
            let deleted = self.sample_deletions(rng);
            let view = DeletionOverlay::new(db, &deleted);
            for tuple in query.answers(&view) {
                *tally.counts.entry(tuple).or_insert(0) += 1;
            }
        }
        tally
    }

    /// The full §5 pipeline: `n = ⌈ln(2/δ)/(2ε²)⌉` rounds of (sample
    /// `R_del`, evaluate `Q[R ↦ R − R_del]` through a [`DeletionOverlay`],
    /// append to the tally), then per-tuple frequencies.
    ///
    /// `db` must be the database the sampler was built from.
    pub fn estimate_answers(
        &self,
        db: &Database,
        query: &Query,
        eps: f64,
        delta: f64,
        rng: &mut StdRng,
    ) -> (Vec<(Vec<Constant>, f64)>, u64) {
        let n = crate::sample::sample_size(eps, delta);
        (self.sample_tally(db, query, n, rng).frequencies(), n)
    }
}

/// Outcome distribution for one violating group under a policy.
fn group_outcomes(
    group: &[Fact],
    policy: &GroupPolicy,
) -> Result<Vec<(Vec<Fact>, Rat)>, KeyRepairError> {
    let g = group.len() as i64;
    match policy {
        GroupPolicy::KeepOneUniform => Ok((0..group.len())
            .map(|keep| (drop_all_but(group, Some(keep)), Rat::ratio(1, g)))
            .collect()),
        GroupPolicy::KeepAtMostOneUniform => {
            let share = Rat::ratio(1, g + 1);
            let mut out: Vec<(Vec<Fact>, Rat)> = (0..group.len())
                .map(|keep| (drop_all_but(group, Some(keep)), share.clone()))
                .collect();
            out.push((drop_all_but(group, None), share));
            Ok(out)
        }
        GroupPolicy::ChainUniform => {
            let survive = chain_uniform_survival(group.len());
            let per_fact = survive.div_ref(&Rat::integer(g));
            let mut out: Vec<(Vec<Fact>, Rat)> = (0..group.len())
                .map(|keep| (drop_all_but(group, Some(keep)), per_fact.clone()))
                .collect();
            out.push((drop_all_but(group, None), Rat::one() - &survive));
            Ok(out)
        }
        GroupPolicy::Trust {
            trust,
            default_trust,
        } => {
            if group.len() != 2 {
                return Err(KeyRepairError(format!(
                    "trust policy requires conflict pairs; group of {} found",
                    group.len()
                )));
            }
            let tr = |f: &Fact| {
                trust
                    .get(f)
                    .cloned()
                    .unwrap_or_else(|| default_trust.clone())
            };
            let (remove_a, remove_b, remove_both) =
                trust_pair_outcomes(&tr(&group[0]), &tr(&group[1]));
            Ok(vec![
                // Keep group[0] ⇔ remove β = group[1].
                (vec![group[1].clone()], remove_b),
                // Keep group[1] ⇔ remove α = group[0].
                (vec![group[0].clone()], remove_a),
                (group.to_vec(), remove_both),
            ])
        }
    }
}

/// `a_g`: the probability that the uniform repairing chain, started on a
/// fully-conflicting group of `g` facts, absorbs with one survivor (the
/// complement `1 − a_g` deletes the whole group). At a group of size `k`
/// the chain offers `k` single deletions and `k(k−1)/2` pair deletions,
/// all equally likely; a single deletion recurses on `k−1` facts, a pair
/// deletion on `k−2`, giving
/// `a_k = (2·a_{k−1} + (k−1)·a_{k−2}) / (k+1)`, `a_0 = 0`, `a_1 = 1`.
fn chain_uniform_survival(g: usize) -> Rat {
    let mut prev = Rat::zero(); // a_0
    let mut cur = Rat::one(); // a_1
    for k in 2..=g {
        let next = (Rat::integer(2).mul_ref(&cur) + Rat::integer(k as i64 - 1).mul_ref(&prev))
            .div_ref(&Rat::integer(k as i64 + 1));
        prev = cur;
        cur = next;
    }
    if g == 0 {
        Rat::zero()
    } else {
        cur
    }
}

fn drop_all_but(group: &[Fact], keep: Option<usize>) -> Vec<Fact> {
    group
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != keep)
        .map(|(_, f)| f.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::parser;
    use rand::SeedableRng;

    fn db(facts: &str) -> Database {
        let facts = parser::parse_facts(facts).unwrap();
        let schema = parser::infer_schema(&facts, &ocqa_logic::ConstraintSet::empty()).unwrap();
        Database::from_facts(schema, facts).unwrap()
    }

    fn cfg() -> KeyConfig {
        KeyConfig {
            relation: Symbol::intern("R"),
            key_cols: vec![0],
        }
    }

    #[test]
    fn groups_found_and_sorted() {
        let db = db("R(a,1). R(a,2). R(b,1). R(c,1). R(c,2). R(c,3).");
        let groups = violating_groups(&db, &cfg());
        assert_eq!(groups.len(), 2, "b's group is a singleton");
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 3);
    }

    #[test]
    fn exact_distribution_keep_one() {
        let db = db("R(a,1). R(a,2). R(b,7). R(b,8).");
        let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepOneUniform).unwrap();
        let dist = sampler.exact_distribution();
        // 2 × 2 = 4 repairs, each probability 1/4, each deleting 2 facts.
        assert_eq!(dist.len(), 4);
        let total: Rat = dist.iter().map(|(_, p)| p).sum();
        assert!(total.is_one());
        for (dels, p) in &dist {
            assert_eq!(*p, Rat::ratio(1, 4));
            assert_eq!(dels.len(), 2);
        }
    }

    #[test]
    fn exact_distribution_trust_pairs() {
        let db = db("R(a,1). R(a,2).");
        let sampler = KeyRepairSampler::new(
            &db,
            &cfg(),
            &GroupPolicy::Trust {
                trust: BTreeMap::new(),
                default_trust: Rat::ratio(1, 2),
            },
        )
        .unwrap();
        let dist = sampler.exact_distribution();
        assert_eq!(dist.len(), 3);
        let by_len: BTreeMap<usize, Rat> = dist.iter().map(|(d, p)| (d.len(), p.clone())).fold(
            BTreeMap::new(),
            |mut m, (k, p)| {
                *m.entry(k).or_insert_with(Rat::zero) += &p;
                m
            },
        );
        // Example 5: each single removal 3/8, both 1/4.
        assert_eq!(by_len[&1], Rat::ratio(3, 4));
        assert_eq!(by_len[&2], Rat::ratio(1, 4));
    }

    #[test]
    fn trust_policy_rejects_large_groups() {
        let db = db("R(a,1). R(a,2). R(a,3).");
        let err = KeyRepairSampler::new(
            &db,
            &cfg(),
            &GroupPolicy::Trust {
                trust: BTreeMap::new(),
                default_trust: Rat::ratio(1, 2),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("pairs"));
    }

    #[test]
    fn keep_at_most_one_includes_delete_all_outcome() {
        let db = db("R(a,1). R(a,2). R(a,3).");
        let sampler =
            KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepAtMostOneUniform).unwrap();
        let dist = sampler.exact_distribution();
        // g + 1 = 4 outcomes, each 1/4; one of them deletes all three.
        assert_eq!(dist.len(), 4);
        for (_, p) in &dist {
            assert_eq!(*p, Rat::ratio(1, 4));
        }
        assert!(dist.iter().any(|(d, _)| d.len() == 3), "delete-all outcome");
        let total: Rat = dist.iter().map(|(_, p)| p).sum();
        assert!(total.is_one());
    }

    #[test]
    fn chain_uniform_matches_monolithic_chain_exactly() {
        // The whole point of the policy: its induced repair distribution
        // must equal the hitting distribution of the uniform repairing
        // chain, group by group — validated against `explore` on groups
        // of size 2, 3 and 4 (where KeepAtMostOneUniform already differs).
        for size in [2usize, 3, 4] {
            let facts: String = (0..size).map(|i| format!("R(a,{i}). ")).collect();
            let facts = parser::parse_facts(&facts).unwrap();
            let sigma = parser::parse_constraints("R(x,y), R(x,z) -> y = z.").unwrap();
            let schema = parser::infer_schema(&facts, &sigma).unwrap();
            let db = Database::from_facts(schema, facts).unwrap();
            let ctx = crate::RepairContext::new(db.clone(), sigma);
            let exact = crate::explore::repair_distribution(
                &ctx,
                &crate::UniformGenerator::new(),
                &crate::explore::ExploreOptions::default(),
            )
            .unwrap();
            let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::ChainUniform).unwrap();
            let dist = sampler.exact_distribution();
            assert_eq!(dist.len(), size + 1, "g survivors + delete-all");
            let total: Rat = dist.iter().map(|(_, p)| p).sum();
            assert!(total.is_one());
            for (dels, p) in &dist {
                let mut repaired = db.clone();
                for f in dels {
                    assert!(repaired.remove(f));
                }
                assert_eq!(
                    exact.probability_of(&repaired),
                    *p,
                    "group size {size}, {} deletions",
                    dels.len()
                );
            }
            // The paper's "keep at most one" (1/3 per outcome on a pair)
            // agrees with the chain on a pair, and only there.
            let keep = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepAtMostOneUniform)
                .unwrap()
                .exact_distribution();
            let keep_agrees = keep.iter().all(|(dels, p)| {
                let mut repaired = db.clone();
                for f in dels {
                    repaired.remove(f);
                }
                exact.probability_of(&repaired) == *p
            });
            assert_eq!(
                keep_agrees,
                size == 2,
                "keep-at-most-one, group size {size}"
            );
        }
    }

    #[test]
    fn chain_uniform_matches_monolithic_chain_on_multi_column_keys() {
        // Multi-dependent-column key (K(k) → v1, v2 as two EGDs): pairs in
        // a group can violate one or both EGDs, but the justified
        // operations are deduplicated, so the per-group chain structure —
        // and with it the ChainUniform recursion — is unchanged. The
        // group mixes a both-columns-differ pair and single-column-differ
        // pairs on purpose.
        let facts = parser::parse_facts("K(a,1,1). K(a,1,2). K(a,2,2).").unwrap();
        let sigma = parser::parse_constraints(
            "K(k,u1,u2), K(k,v1,v2) -> u1 = v1. K(k,u1,u2), K(k,v1,v2) -> u2 = v2.",
        )
        .unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let ctx = crate::RepairContext::new(db.clone(), sigma);
        let exact = crate::explore::repair_distribution(
            &ctx,
            &crate::UniformGenerator::new(),
            &crate::explore::ExploreOptions::default(),
        )
        .unwrap();
        let sampler = KeyRepairSampler::new(
            &db,
            &KeyConfig {
                relation: Symbol::intern("K"),
                key_cols: vec![0],
            },
            &GroupPolicy::ChainUniform,
        )
        .unwrap();
        for (dels, p) in &sampler.exact_distribution() {
            let mut repaired = db.clone();
            for f in dels {
                assert!(repaired.remove(f));
            }
            assert_eq!(
                exact.probability_of(&repaired),
                *p,
                "{} deletions",
                dels.len()
            );
        }
    }

    #[test]
    fn with_configs_concatenates_relations() {
        let facts = parser::parse_facts("R(a,1). R(a,2). S(b,1). S(b,2). S(b,3).").unwrap();
        let sigma = ocqa_logic::ConstraintSet::empty();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let cfgs = [
            KeyConfig {
                relation: Symbol::intern("R"),
                key_cols: vec![0],
            },
            KeyConfig {
                relation: Symbol::intern("S"),
                key_cols: vec![0],
            },
        ];
        let sampler =
            KeyRepairSampler::with_configs(&db, &cfgs, &GroupPolicy::KeepOneUniform).unwrap();
        assert_eq!(sampler.groups().len(), 2);
        // 2 × 3 = 6 combined repairs, independent across relations.
        assert_eq!(sampler.exact_distribution().len(), 6);
    }

    #[test]
    fn sample_tally_deterministic_and_failure_free() {
        let db = db("R(a,1). R(a,2). R(b,7).");
        let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::ChainUniform).unwrap();
        let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = sampler.sample_tally(&db, &q, 200, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let b = sampler.sample_tally(&db, &q, 200, &mut rng);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.walks, 200);
        assert_eq!(a.failed_walks, 0, "group sampling never fails");
    }

    #[test]
    fn no_violations_no_outcomes() {
        let db = db("R(a,1). R(b,2).");
        let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepOneUniform).unwrap();
        assert!(sampler.groups().is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sampler.sample_deletions(&mut rng).is_empty());
        let dist = sampler.exact_distribution();
        assert_eq!(dist.len(), 1);
        assert!(dist[0].0.is_empty());
        assert!(dist[0].1.is_one());
    }

    #[test]
    fn sampled_deletions_leave_keys_consistent() {
        let db = db("R(a,1). R(a,2). R(b,1). R(c,1). R(c,2). R(c,3).");
        let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepOneUniform).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let sigma = parser::parse_constraints("R(x,y), R(x,z) -> y = z.").unwrap();
        for _ in 0..50 {
            let dels = sampler.sample_deletions(&mut rng);
            let mut repaired = db.clone();
            for f in &dels {
                assert!(repaired.remove(f));
            }
            assert!(sigma.satisfied_by(&repaired));
            // Exactly one survivor per violating group.
            assert_eq!(repaired.relation(Symbol::intern("R")).unwrap().len(), 3);
        }
    }

    #[test]
    fn estimate_answers_certain_tuple_has_frequency_one() {
        let db = db("R(a,1). R(a,2). R(b,7).");
        let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepOneUniform).unwrap();
        let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (answers, n) = sampler.estimate_answers(&db, &q, 0.1, 0.1, &mut rng);
        assert_eq!(n, 150);
        let freq: BTreeMap<String, f64> = answers
            .iter()
            .map(|(t, p)| (format!("{}", t[0]), *p))
            .collect();
        // Both keys survive in every repair under keep-one.
        assert_eq!(freq["a"], 1.0);
        assert_eq!(freq["b"], 1.0);
    }

    #[test]
    fn estimate_answers_split_tuple_near_half() {
        let db = db("R(a,1). R(a,2).");
        let sampler = KeyRepairSampler::new(&db, &cfg(), &GroupPolicy::KeepOneUniform).unwrap();
        let q = parser::parse_query("(y) <- R('a', y)").unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let (answers, _) = sampler.estimate_answers(&db, &q, 0.05, 0.02, &mut rng);
        for (_, p) in &answers {
            assert!((p - 0.5).abs() <= 0.05, "freq {p} should be ≈ 0.5");
        }
    }
}
