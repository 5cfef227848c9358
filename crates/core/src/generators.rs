//! Repairing Markov chain generators (Definition 5).
//!
//! A generator `M_Σ` assigns, at every non-complete repairing sequence `s`,
//! a probability to each legal extension `s · op`, with the probabilities
//! summing to 1. The engine (exact exploration and sampling) asks the
//! generator for weights over the extension list computed by
//! [`RepairState::extensions`]; a generator may assign weight 0 to
//! extensions it never takes (e.g. the preference generator of Example 4
//! only removes single atoms).
//!
//! All weights are exact rationals, keeping the generators *well-behaved*
//! in the paper's sense (§4): every probability is a ratio of small
//! integers derived from the current state.

use crate::keyrepair::GroupPolicy;
use crate::{Operation, RepairState};
use ocqa_data::Fact;
use ocqa_num::Rat;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Error raised when a generator cannot produce a valid distribution at a
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeneratorError {
    /// The weights over the extensions do not sum to 1.
    NotADistribution {
        /// Generator name.
        generator: String,
        /// The (stringified) offending sum.
        sum: String,
    },
    /// A weight was negative.
    NegativeWeight {
        /// Generator name.
        generator: String,
    },
    /// The generator does not support the state (e.g. trust-based repair of
    /// a violation whose body image is not a fact pair).
    Unsupported {
        /// Generator name.
        generator: String,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::NotADistribution { generator, sum } => {
                write!(f, "generator {generator}: weights sum to {sum}, not 1")
            }
            GeneratorError::NegativeWeight { generator } => {
                write!(f, "generator {generator}: negative weight")
            }
            GeneratorError::Unsupported { generator, reason } => {
                write!(f, "generator {generator}: unsupported state: {reason}")
            }
        }
    }
}

impl std::error::Error for GeneratorError {}

/// A repairing Markov chain generator `M_Σ` (Definition 5): a deterministic
/// assignment of transition probabilities to the legal extensions of every
/// repairing sequence.
pub trait ChainGenerator: Send + Sync {
    /// Human-readable name (used in errors and reports).
    fn name(&self) -> &str;

    /// Whether the generator is **component-local**: at any state, its
    /// weight for an operation inside a conflict component — conditioned
    /// on picking an operation of that component — depends only on that
    /// component's facts. Component-local generators may be served by
    /// `localize`-style per-component decomposition (and, on key-only
    /// constraint sets, by group-wise key repair) with exactly the
    /// monolithic repair distribution; see `crate::localize`.
    ///
    /// Defaults to `false` (the conservative answer): generators that
    /// read global state — like the Example 4 preference generator,
    /// whose support weights scan the whole database — must not be
    /// decomposed. Override to `true` only with a locality argument.
    fn component_local(&self) -> bool {
        false
    }

    /// The per-group outcome policy reproducing *this generator's* repair
    /// distribution on a primary-key-only constraint set, if one exists —
    /// the capability behind `ocqa-engine`'s key-repair fast path. The
    /// policy must induce, per violating key group, exactly the hitting
    /// distribution of this generator's chain restricted to that group.
    ///
    /// Defaults to `None`: group-wise sampling then isn't available and
    /// callers fall back to chain walks. Component locality alone is NOT
    /// sufficient — the policy must also match the generator's weights
    /// (e.g. the trust generator is component-local but needs its own
    /// trust policy, not the uniform one).
    fn key_repair_policy(&self) -> Option<GroupPolicy> {
        None
    }

    /// Probability weights for the extensions `ops` of `state`, in the same
    /// order. Must be non-negative and sum to exactly 1 (`ops` is non-empty
    /// whenever this is called).
    fn weights(&self, state: &RepairState, ops: &[Operation]) -> Result<Vec<Rat>, GeneratorError>;

    /// Validates a weight vector (helper shared by the engine). The sum is
    /// checked in machine words when the weights allow it and in `Rat`
    /// otherwise; both accept exactly the same vectors, and errors always
    /// come from the `Rat` path.
    fn validated(
        &self,
        state: &RepairState,
        ops: &[Operation],
    ) -> Result<Vec<Rat>, GeneratorError> {
        let w = self.weights(state, ops)?;
        debug_assert_eq!(w.len(), ops.len());
        if w.iter().any(|p| p.is_negative()) {
            return Err(GeneratorError::NegativeWeight {
                generator: self.name().to_string(),
            });
        }
        if crate::word::sum_is_one(&w) == Some(true) {
            return Ok(w);
        }
        let sum: Rat = w.iter().sum();
        if !sum.is_one() {
            return Err(GeneratorError::NotADistribution {
                generator: self.name().to_string(),
                sum: sum.to_string(),
            });
        }
        Ok(w)
    }
}

/// The uniform generator `M^u_Σ`: every legal extension is equally likely.
/// Proposition 4 shows every ABC repair is an operational repair w.r.t.
/// this generator.
///
/// With [`deletions_only`](UniformGenerator::deletions_only) the uniform
/// choice is restricted to deletion extensions, giving the chain class of
/// Proposition 8 (non-failing, supports only deletions).
#[derive(Debug, Clone, Default)]
pub struct UniformGenerator {
    deletions_only: bool,
}

impl UniformGenerator {
    /// Uniform over all legal extensions.
    pub fn new() -> UniformGenerator {
        UniformGenerator {
            deletions_only: false,
        }
    }

    /// Uniform over deletion extensions only.
    pub fn deletions_only() -> UniformGenerator {
        UniformGenerator {
            deletions_only: true,
        }
    }
}

impl ChainGenerator for UniformGenerator {
    fn name(&self) -> &str {
        if self.deletions_only {
            "uniform-deletions"
        } else {
            "uniform"
        }
    }

    /// Uniform weights over (a filter of) the legal extensions depend
    /// only on *how many* extensions a component contributes — local by
    /// construction (the `localize` tests verify the distribution).
    fn component_local(&self) -> bool {
        true
    }

    /// [`GroupPolicy::ChainUniform`] reproduces the uniform chain's
    /// per-group hitting distribution exactly (validated against exact
    /// exploration in the `keyrepair` tests). On the denial fragment all
    /// extensions are deletions, so both uniform modes coincide.
    fn key_repair_policy(&self) -> Option<GroupPolicy> {
        Some(GroupPolicy::ChainUniform)
    }

    fn weights(&self, _state: &RepairState, ops: &[Operation]) -> Result<Vec<Rat>, GeneratorError> {
        let eligible: Vec<bool> = ops
            .iter()
            .map(|op| !self.deletions_only || op.is_delete())
            .collect();
        let k = eligible.iter().filter(|e| **e).count();
        if k == 0 {
            return Err(GeneratorError::Unsupported {
                generator: self.name().to_string(),
                reason: "no deletion extension available".into(),
            });
        }
        let share = Rat::ratio(1, k as i64);
        Ok(eligible
            .into_iter()
            .map(|e| if e { share.clone() } else { Rat::zero() })
            .collect())
    }
}

/// The preference/support generator of Example 4.
///
/// Designed for a binary relation (e.g. `Pref`) under the asymmetry denial
/// constraint `Pref(x,y), Pref(y,x) → ⊥`. The probability of removing an
/// atom `α = Pref(a,b)` is the *importance* of its symmetric atom
/// `ᾱ = Pref(b,a)`:
///
/// ```text
/// I_Σ(ᾱ, D) = w(ᾱ, D) / Σ_{β ∈ V_Σ(D)} w(β, D)
/// ```
///
/// where `w(Pref(a,b), D)` counts the facts `Pref(a,·)` (how often `a` is
/// preferred) and `V_Σ(D)` collects the atoms involved in violations. Pair
/// deletions receive probability 0.
#[derive(Debug, Clone, Default)]
pub struct PreferenceGenerator;

impl PreferenceGenerator {
    /// Creates the generator.
    pub fn new() -> PreferenceGenerator {
        PreferenceGenerator
    }

    /// `w(α, D)`: support of the preferred element of `α` in the current
    /// instance.
    fn weight(state: &RepairState, alpha: &Fact) -> i64 {
        let rel = state
            .db()
            .relation(alpha.pred())
            .expect("fact relation exists");
        rel.count(&[Some(alpha.args()[0]), None]) as i64
    }

    /// The symmetric atom `ᾱ`.
    fn mirror(alpha: &Fact) -> Fact {
        Fact::new(alpha.pred(), vec![alpha.args()[1], alpha.args()[0]])
    }
}

impl ChainGenerator for PreferenceGenerator {
    fn name(&self) -> &str {
        "preference-support"
    }

    fn weights(&self, state: &RepairState, ops: &[Operation]) -> Result<Vec<Rat>, GeneratorError> {
        // Atoms involved in some violation of the current instance.
        let mut violating_atoms: BTreeSet<Fact> = BTreeSet::new();
        for v in state.violations().iter() {
            violating_atoms.extend(v.body_image(state.context().sigma()));
        }
        for f in &violating_atoms {
            if f.arity() != 2 {
                return Err(GeneratorError::Unsupported {
                    generator: self.name().to_string(),
                    reason: format!("non-binary violating atom {f}"),
                });
            }
        }
        let denom: i64 = violating_atoms
            .iter()
            .map(|beta| Self::weight(state, beta))
            .sum();
        if denom == 0 {
            return Err(GeneratorError::Unsupported {
                generator: self.name().to_string(),
                reason: "zero total support among violating atoms".into(),
            });
        }
        Ok(ops
            .iter()
            .map(|op| match op {
                Operation::Delete(fs) if fs.len() == 1 => {
                    let alpha = &fs.facts()[0];
                    if violating_atoms.contains(alpha) {
                        Rat::ratio(Self::weight(state, &Self::mirror(alpha)), denom)
                    } else {
                        Rat::zero()
                    }
                }
                _ => Rat::zero(),
            })
            .collect())
    }
}

/// The trust-based data-integration generator of Example 5.
///
/// Every fact carries a trust level `tr(α) ∈ (0, 1]`. For a violating pair
/// `{α, β}` (a key violation), with relative trust
/// `tr_{α|β} = tr(α) / (tr(α) + tr(β))`:
///
/// ```text
/// w(−α)      = tr_{β|α} · (1 − tr_{α|β} · tr_{β|α})     (trust β, not both)
/// w(−β)      = tr_{α|β} · (1 − tr_{α|β} · tr_{β|α})     (trust α, not both)
/// w(−{α,β})  = (1 − tr_{α|β}) · (1 − tr_{β|α})          (trust neither)
/// ```
///
/// and each pair's weights (which sum to 1) are averaged over the set of
/// violating pairs in the current state.
#[derive(Debug, Clone)]
pub struct TrustGenerator {
    trust: BTreeMap<Fact, Rat>,
    default_trust: Rat,
}

impl TrustGenerator {
    /// Builds the generator from per-fact trust levels; facts without an
    /// entry get `default_trust`.
    ///
    /// # Panics
    /// Panics if any trust value (or the default) lies outside `(0, 1]`.
    pub fn new(trust: impl IntoIterator<Item = (Fact, Rat)>, default_trust: Rat) -> TrustGenerator {
        let trust: BTreeMap<Fact, Rat> = trust.into_iter().collect();
        for t in trust.values().chain(std::iter::once(&default_trust)) {
            assert!(
                t.is_positive() && *t <= Rat::one(),
                "trust levels must lie in (0, 1]"
            );
        }
        TrustGenerator {
            trust,
            default_trust,
        }
    }

    fn tr(&self, f: &Fact) -> Rat {
        self.trust
            .get(f)
            .cloned()
            .unwrap_or_else(|| self.default_trust.clone())
    }
}

impl ChainGenerator for TrustGenerator {
    fn name(&self) -> &str {
        "trust-integration"
    }

    /// Per-pair trust weights read only the pair's two facts; averaging
    /// over pairs conditions away under localization (verified against
    /// monolithic exploration in the `localize` tests).
    fn component_local(&self) -> bool {
        true
    }

    /// On a single violating pair the chain absorbs in one step, so the
    /// Example 5 outcome weights ([`GroupPolicy::Trust`]) *are* the
    /// hitting distribution — both sides call the same
    /// `trust_pair_outcomes`. Group-wise construction fails (soundly)
    /// when some group is larger than a pair.
    fn key_repair_policy(&self) -> Option<GroupPolicy> {
        Some(GroupPolicy::Trust {
            trust: self.trust.clone(),
            default_trust: self.default_trust.clone(),
        })
    }

    fn weights(&self, state: &RepairState, ops: &[Operation]) -> Result<Vec<Rat>, GeneratorError> {
        // Violating pairs V_Σ(s(D)) = {{α, β} | {α, β} ⊭ Σ}, deduplicated
        // (symmetric homomorphisms witness the same pair).
        let mut pairs: BTreeSet<(Fact, Fact)> = BTreeSet::new();
        for v in state.violations().iter() {
            let image = v.body_image(state.context().sigma());
            if image.len() != 2 {
                return Err(GeneratorError::Unsupported {
                    generator: self.name().to_string(),
                    reason: format!(
                        "violation body image has {} facts; trust repair needs pairs",
                        image.len()
                    ),
                });
            }
            pairs.insert((image[0].clone(), image[1].clone()));
        }
        let npairs = Rat::integer(pairs.len() as i64);
        let mut weights = vec![Rat::zero(); ops.len()];
        for (alpha, beta) in &pairs {
            let (ta, tb) = (self.tr(alpha), self.tr(beta));
            let total = &ta + &tb;
            let tr_a = ta.div_ref(&total); // tr_{α|β}
            let tr_b = tb.div_ref(&total); // tr_{β|α}
            let keep_neither = (Rat::one() - &tr_a) * (Rat::one() - &tr_b);
            let not_both = Rat::one() - tr_a.mul_ref(&tr_b);
            let w_minus_alpha = tr_b.mul_ref(&not_both);
            let w_minus_beta = tr_a.mul_ref(&not_both);
            for (i, op) in ops.iter().enumerate() {
                let Operation::Delete(fs) = op else { continue };
                let facts = fs.facts();
                let w = if facts == [alpha.clone()] {
                    &w_minus_alpha
                } else if facts == [beta.clone()] {
                    &w_minus_beta
                } else if facts.len() == 2 && facts[0] == *alpha && facts[1] == *beta {
                    &keep_neither
                } else {
                    continue;
                };
                weights[i] += &w.div_ref(&npairs);
            }
        }
        Ok(weights)
    }
}

/// The weight-assignment callback wrapped by [`WeightFnGenerator`].
pub type WeightFn = Arc<dyn Fn(&RepairState, &[Operation]) -> Vec<Rat> + Send + Sync>;

/// A generator defined by an arbitrary weight function — the extension
/// point for applications with their own likelihood models.
#[derive(Clone)]
pub struct WeightFnGenerator {
    name: String,
    f: WeightFn,
}

impl WeightFnGenerator {
    /// Wraps `f` as a generator called `name`.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&RepairState, &[Operation]) -> Vec<Rat> + Send + Sync + 'static,
    ) -> WeightFnGenerator {
        WeightFnGenerator {
            name: name.into(),
            f: Arc::new(f),
        }
    }
}

impl ChainGenerator for WeightFnGenerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn weights(&self, state: &RepairState, ops: &[Operation]) -> Result<Vec<Rat>, GeneratorError> {
        Ok((self.f)(state, ops))
    }
}

impl fmt::Debug for WeightFnGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WeightFnGenerator({})", self.name)
    }
}

/// Helper for workloads: reads off pair `(α, β)` outcome probabilities of
/// the Example 5 trust model, used by the key-repair sampler as well.
pub(crate) fn trust_pair_outcomes(ta: &Rat, tb: &Rat) -> (Rat, Rat, Rat) {
    let total = ta + tb;
    let tr_a = ta.div_ref(&total);
    let tr_b = tb.div_ref(&total);
    let not_both = Rat::one() - tr_a.mul_ref(&tr_b);
    (
        tr_b.mul_ref(&not_both),                     // remove α
        tr_a.mul_ref(&not_both),                     // remove β
        (Rat::one() - &tr_a) * (Rat::one() - &tr_b), // remove both
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepairContext;
    use ocqa_data::Database;
    use ocqa_logic::parser;

    fn state(facts: &str, constraints: &str) -> RepairState {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairState::initial(RepairContext::new(db, sigma))
    }

    #[test]
    fn uniform_weights() {
        let s = state("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let ops = s.extensions();
        let g = UniformGenerator::new();
        let w = g.validated(&s, &ops).unwrap();
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|p| *p == Rat::ratio(1, 3)));
    }

    #[test]
    fn uniform_deletions_only_zeroes_insertions() {
        let s = state("T(a,b).", "T(x,y) -> R(x,y).");
        let ops = s.extensions();
        assert!(ops.iter().any(|o| o.is_insert()));
        let g = UniformGenerator::deletions_only();
        let w = g.validated(&s, &ops).unwrap();
        for (op, p) in ops.iter().zip(&w) {
            assert_eq!(op.is_delete(), p.is_positive());
        }
    }

    #[test]
    fn preference_generator_reproduces_paper_figure_root() {
        // §3's Markov chain: at the root, removal probabilities are
        // −(a,b): 2/9, −(b,a): 3/9, −(a,c): 1/9, −(c,a): 3/9.
        let s = state(
            "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let ops = s.extensions();
        let g = PreferenceGenerator::new();
        let w = g.validated(&s, &ops).unwrap();
        let prob_of = |a: &str, b: &str| -> Rat {
            let target = Operation::delete(vec![Fact::parts("Pref", &[a, b])]);
            ops.iter()
                .zip(&w)
                .find(|(op, _)| **op == target)
                .map(|(_, p)| p.clone())
                .unwrap()
        };
        assert_eq!(prob_of("a", "b"), Rat::ratio(2, 9));
        assert_eq!(prob_of("b", "a"), Rat::ratio(3, 9));
        assert_eq!(prob_of("a", "c"), Rat::ratio(1, 9));
        assert_eq!(prob_of("c", "a"), Rat::ratio(3, 9));
        // Pair deletions get zero.
        for (op, p) in ops.iter().zip(&w) {
            if op.fact_set().len() == 2 {
                assert!(p.is_zero());
            }
        }
    }

    #[test]
    fn trust_generator_example5_weights() {
        // Two facts with 50% trust each: remove-α 0.375, remove-β 0.375,
        // remove-both 0.25.
        let s = state("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let ops = s.extensions();
        let g = TrustGenerator::new([], Rat::ratio(1, 2));
        let w = g.validated(&s, &ops).unwrap();
        let by_op: BTreeMap<String, Rat> = ops
            .iter()
            .zip(w)
            .map(|(op, p)| (op.to_string(), p))
            .collect();
        assert_eq!(by_op["-{R(a,b)}"], Rat::ratio(3, 8));
        assert_eq!(by_op["-{R(a,c)}"], Rat::ratio(3, 8));
        assert_eq!(by_op["-{R(a,b), R(a,c)}"], Rat::ratio(1, 4));
    }

    #[test]
    fn trust_generator_prefers_trusted_fact() {
        let s = state("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let ops = s.extensions();
        let g = TrustGenerator::new(
            [
                (Fact::parts("R", &["a", "b"]), Rat::ratio(9, 10)),
                (Fact::parts("R", &["a", "c"]), Rat::ratio(1, 10)),
            ],
            Rat::ratio(1, 2),
        );
        let w = g.validated(&s, &ops).unwrap();
        let p = |target: Operation| -> Rat {
            ops.iter()
                .zip(&w)
                .find(|(op, _)| **op == target)
                .map(|(_, p)| p.clone())
                .unwrap()
        };
        let keep_b = p(Operation::delete(vec![Fact::parts("R", &["a", "c"])]));
        let keep_c = p(Operation::delete(vec![Fact::parts("R", &["a", "b"])]));
        assert!(
            keep_b > keep_c,
            "removing the untrusted fact must be likelier"
        );
    }

    #[test]
    fn weight_fn_generator() {
        let s = state("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let ops = s.extensions();
        // All mass on the first extension.
        let g = WeightFnGenerator::new("first-only", |_, ops| {
            let mut w = vec![Rat::zero(); ops.len()];
            w[0] = Rat::one();
            w
        });
        let w = g.validated(&s, &ops).unwrap();
        assert!(w[0].is_one());
    }

    #[test]
    fn validation_rejects_bad_sums() {
        let s = state("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let ops = s.extensions();
        let g = WeightFnGenerator::new("half", |_, ops| {
            vec![Rat::ratio(1, 2 * ops.len() as i64); ops.len()]
        });
        assert!(matches!(
            g.validated(&s, &ops),
            Err(GeneratorError::NotADistribution { .. })
        ));
    }

    #[test]
    fn validated_word_sum_matches_rat_sum() {
        // Differential: `validated` accepts and rejects exactly as the
        // `Rat` sum does, with the same error, on distributions (including
        // ones whose lcm leaves the word range) and on copies that miss 1,
        // lose a weight or carry a negative one.
        let s = state("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let mut checked = (0, 0);
        for (w, _) in crate::word::testing::distributions() {
            let mut over = w.clone();
            over[0] += &Rat::ratio(1, 997);
            let mut negated = w.clone();
            negated[0] = -negated[0].clone();
            let shorter = w[..w.len() - 1].to_vec();
            for w in [w, over, negated, shorter] {
                if w.is_empty() {
                    continue;
                }
                let ops: Vec<Operation> = (0..w.len())
                    .map(|i| Operation::delete(vec![Fact::parts("R", &["a", &i.to_string()])]))
                    .collect();
                let sum: Rat = w.iter().sum();
                let expected = if w.iter().any(Rat::is_negative) {
                    Err(GeneratorError::NegativeWeight {
                        generator: "fixed".into(),
                    })
                } else if sum.is_one() {
                    Ok(w.clone())
                } else {
                    Err(GeneratorError::NotADistribution {
                        generator: "fixed".into(),
                        sum: sum.to_string(),
                    })
                };
                if let Some(one) = crate::word::sum_is_one(&w) {
                    assert_eq!(one, expected.is_ok(), "{w:?}");
                }
                checked.0 += usize::from(expected.is_ok());
                checked.1 += usize::from(expected.is_err());
                let fixed = w.clone();
                let g = WeightFnGenerator::new("fixed", move |_, _| fixed.clone());
                assert_eq!(g.validated(&s, &ops), expected, "{w:?}");
            }
        }
        assert!(checked.0 >= 300 && checked.1 >= 600, "{checked:?}");
    }
}
