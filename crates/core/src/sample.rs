//! The `Sample` algorithm and additive-error approximation (§5, Thm. 9).
//!
//! `Sample` performs one random walk down the repairing Markov chain:
//! starting from `ε`, it repeatedly draws the next operation according to
//! the generator's transition probabilities until the sequence is complete,
//! then reports whether the query holds on the resulting instance
//! (Proposition 10: the walk hits each absorbing state with exactly its
//! hitting-distribution probability, because the chain is a tree).
//!
//! Averaging `n = ⌈ln(2/δ) / (2ε²)⌉` walks gives, by Hoeffding's
//! inequality, an estimate within additive error `ε` of `CP(t̄)` with
//! probability at least `1 − δ` — **when the generator is non-failing**
//! (e.g. any deletion-only generator, Proposition 8). For failing chains
//! the plain mean estimates the *numerator* of `CP` only; this module
//! tracks failed walks explicitly so callers can detect the situation (the
//! paper leaves the failing case open, §6 "Approximation for Insertions
//! and Deletions").

use crate::{ChainGenerator, GeneratorError, RepairContext, RepairState};
use ocqa_data::{Constant, Database};
use ocqa_logic::Query;
use ocqa_num::{IBig, Rat};
use rand::rngs::StdRng;
use rand::RngCore;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Number of walks needed for additive error `eps` at confidence
/// `1 − delta`: `⌈ln(2/δ) / (2ε²)⌉`. For `ε = δ = 0.1` this is 150, the
/// figure quoted in §5.
///
/// ```
/// assert_eq!(ocqa_core::sample::sample_size(0.1, 0.1), 150);
/// ```
pub fn sample_size(eps: f64, delta: f64) -> u64 {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0,1)");
    ((2.0f64 / delta).ln() / (2.0 * eps * eps)).ceil() as u64
}

/// Derives a decorrelated RNG seed for sub-stream `stream` of `seed`: one
/// SplitMix64 round over `seed ⊕ f(stream)`.
///
/// This function is part of the reproducibility contract shared by every
/// deterministic sampler in the workspace: `ocqa-engine`'s pool uses it to
/// seed per-chunk walk streams, and [`crate::localize::ComponentSampler`]
/// uses it to seed per-component walk streams. Sub-streams must be
/// decorrelated but *stable* — changing this function changes every
/// sampled answer for a fixed seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors during sampling.
#[derive(Debug)]
pub enum SampleError {
    /// The generator failed to produce a distribution at some state.
    Generator(GeneratorError),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Generator(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SampleError {}

impl From<GeneratorError> for SampleError {
    fn from(e: GeneratorError) -> Self {
        SampleError::Generator(e)
    }
}

/// The endpoint of one random walk.
#[derive(Debug)]
pub enum WalkOutcome {
    /// The walk reached a successful complete sequence; the instance is an
    /// operational repair.
    Repair(Database),
    /// The walk reached a failing complete sequence (possible only for
    /// failing generators).
    Failed(Database),
}

/// Runs one `Sample` walk: draws operations per the generator until the
/// sequence is complete.
pub fn sample_walk(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    rng: &mut StdRng,
) -> Result<WalkOutcome, SampleError> {
    let end = walk_to_end(ctx, gen, rng)?;
    Ok(if end.is_consistent() {
        WalkOutcome::Repair(end.db().clone())
    } else {
        WalkOutcome::Failed(end.db().clone())
    })
}

/// The walk behind [`sample_walk`], advancing one state in place and
/// returning the complete end state, so callers read the repair by
/// reference instead of taking an owned copy of it.
pub(crate) fn walk_to_end(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    rng: &mut StdRng,
) -> Result<RepairState, SampleError> {
    let mut state = RepairState::initial(ctx.clone());
    loop {
        let exts = state.extensions();
        if exts.is_empty() {
            return Ok(state);
        }
        let weights = gen.validated(&state, &exts)?;
        let idx = draw_index(&weights, rng);
        state.advance(&exts[idx]);
    }
}

/// Draws an index with probability proportional to the (exact) weights.
/// The random threshold is `r / 2⁶⁴` for a uniform `u64 r`, compared
/// against exact cumulative sums — no floating-point bias. The comparison
/// runs in machine words when the weights allow it (see `crate::word`)
/// and in `Rat` otherwise; both pick the same index.
fn draw_index(weights: &[Rat], rng: &mut StdRng) -> usize {
    let r = rng.next_u64();
    crate::word::draw(weights, r).unwrap_or_else(|| rat_draw_index(weights, r))
}

/// [`draw_index`]'s exact `Rat` path for the threshold `r / 2⁶⁴`.
fn rat_draw_index(weights: &[Rat], r: u64) -> usize {
    let threshold = Rat::new(
        IBig::from(r),
        IBig::from(ocqa_num::UBig::one().shl_bits(64)),
    );
    let mut acc = Rat::zero();
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if threshold < acc {
            return i;
        }
    }
    // Unreachable for weights that passed `ChainGenerator::validated`:
    // they sum to exactly 1 and the threshold is below 1. Kept so a
    // sub-1 total still draws the last positive weight.
    weights
        .iter()
        .rposition(|w| w.is_positive())
        .expect("at least one positive weight")
}

/// An additive-error estimate of `CP(t̄)`.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The estimated probability (hit ratio).
    pub value: f64,
    /// Number of walks performed.
    pub samples: u64,
    /// Walks whose repair satisfied the query.
    pub hits: u64,
    /// Walks that ended in a failing sequence (0 for non-failing
    /// generators; if positive, `value` estimates the numerator of `CP`
    /// rather than the conditional probability).
    pub failed_walks: u64,
    /// The additive error bound requested.
    pub epsilon: f64,
    /// The confidence parameter requested.
    pub delta: f64,
}

/// The `Sample` loop of §5, written once: runs `walks` walks, hands every
/// sampled repair to `leaf`, and returns the number of failed walks.
fn walk_repairs(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    walks: u64,
    rng: &mut StdRng,
    mut leaf: impl FnMut(&Database),
) -> Result<u64, SampleError> {
    let mut failed = 0u64;
    for _ in 0..walks {
        let end = walk_to_end(ctx, gen, rng)?;
        if end.is_consistent() {
            leaf(end.db());
        } else {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Estimates `CP(t̄)` for one tuple with additive error `eps` at confidence
/// `1 − delta` (Theorem 9).
pub fn estimate_tuple_probability(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    tuple: &[Constant],
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<Estimate, SampleError> {
    let n = sample_size(eps, delta);
    let mut hits = 0u64;
    let failed = walk_repairs(ctx, gen, n, rng, |db| {
        if query.holds(db, tuple) {
            hits += 1;
        }
    })?;
    Ok(Estimate {
        value: hits as f64 / n as f64,
        samples: n,
        hits,
        failed_walks: failed,
        epsilon: eps,
        delta,
    })
}

/// Estimated `CP` per answer tuple, as returned by [`estimate_answers`].
pub type AnswerFrequencies = Vec<(Vec<Constant>, f64)>;

/// The §5 "temporary table" scheme: runs `n` walks, evaluates the whole
/// query on every sampled repair, and returns the per-tuple frequencies —
/// estimates of `CP` for *all* tuples simultaneously.
pub fn estimate_answers(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<(AnswerFrequencies, u64), SampleError> {
    let n = sample_size(eps, delta);
    let tally = sample_tally(ctx, gen, query, n, rng)?;
    Ok((tally.frequencies(), n))
}

/// Estimates the *conditional* probability for possibly-failing chains by
/// the ratio estimator `hits / successes` (§6 "Approximation for
/// Insertions and Deletions" — the paper leaves guaranteed approximation
/// of this ratio open; this is the natural plug-in estimator, exposed with
/// its diagnostics so callers can judge the denominator's sample support).
///
/// For non-failing generators it coincides with
/// [`estimate_tuple_probability`]. Returns `None` when no walk succeeded
/// (the denominator cannot be estimated at all).
pub fn estimate_conditional(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    tuple: &[Constant],
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<Option<Estimate>, SampleError> {
    let plain = estimate_tuple_probability(ctx, gen, query, tuple, eps, delta, rng)?;
    let successes = plain.samples - plain.failed_walks;
    if successes == 0 {
        return Ok(None);
    }
    Ok(Some(Estimate {
        value: plain.hits as f64 / successes as f64,
        ..plain
    }))
}

/// Estimates the expected answer cardinality `E[|Q(D′)|]` by averaging the
/// answer-set size over sampled repairs (the Monte-Carlo counterpart of
/// [`crate::answer::expected_count`]).
pub fn estimate_expected_count(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    eps: f64,
    delta: f64,
    rng: &mut StdRng,
) -> Result<(f64, u64), SampleError> {
    let n = sample_size(eps, delta);
    let mut total = 0u64;
    walk_repairs(ctx, gen, n, rng, |db| {
        total += query.answers(db).len() as u64;
    })?;
    Ok((total as f64 / n as f64, n))
}

/// The outcome of a batch of `Sample` walks, in mergeable form: per-tuple
/// hit counts over the whole answer relation (the §5 "temporary table"
/// scheme), plus failure diagnostics.
///
/// Tallies are pure sums, so [`SampleTally::merge`] is commutative and
/// associative — partitioning a sample budget into chunks and merging the
/// per-chunk tallies yields the same result in any order. `ocqa-engine`'s
/// worker pool relies on this for answers that are bit-identical
/// regardless of pool size.
#[derive(Debug, Clone, Default)]
pub struct SampleTally {
    /// Hits per answer tuple across sampled repairs.
    pub counts: BTreeMap<Vec<Constant>, u64>,
    /// Walks performed.
    pub walks: u64,
    /// Walks that ended in a failing complete sequence.
    pub failed_walks: u64,
}

impl SampleTally {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: SampleTally) {
        for (tuple, k) in other.counts {
            *self.counts.entry(tuple).or_insert(0) += k;
        }
        self.walks += other.walks;
        self.failed_walks += other.failed_walks;
    }

    /// Per-tuple hit frequencies over **all** walks, failed ones included
    /// (`hits / walks`).
    ///
    /// For non-failing generators this is the Theorem 9 additive-error
    /// estimate of `CP`. For failing chains it estimates only the
    /// *numerator* of `CP` — the probability of reaching a repair that
    /// satisfies the query, not the probability conditioned on reaching a
    /// repair at all. Callers serving `CP` on possibly-failing chains
    /// should use [`conditional_frequencies`](Self::conditional_frequencies)
    /// instead (and may report both).
    pub fn frequencies(&self) -> AnswerFrequencies {
        self.counts
            .iter()
            .map(|(t, k)| (t.clone(), *k as f64 / self.walks as f64))
            .collect()
    }

    /// Per-tuple hit frequencies over the **successful** walks only
    /// (`hits / (walks − failed_walks)`) — the §6 ratio estimator of the
    /// conditional probability `CP`, the plug-in counterpart of
    /// [`estimate_conditional`].
    ///
    /// Coincides with [`frequencies`](Self::frequencies) when no walk
    /// failed. Returns `None` when *every* walk failed: the denominator
    /// cannot be estimated at all (and there are no hits to report).
    pub fn conditional_frequencies(&self) -> Option<AnswerFrequencies> {
        let successes = self.walks - self.failed_walks;
        if successes == 0 {
            return None;
        }
        Some(
            self.counts
                .iter()
                .map(|(t, k)| (t.clone(), *k as f64 / successes as f64))
                .collect(),
        )
    }
}

/// Runs exactly `walks` sample walks, evaluating `query` on each sampled
/// repair and tallying every answer tuple.
///
/// This is the thread-safe batch entry point behind both
/// [`estimate_answers`] and `ocqa-engine`'s sampler pool: `ctx` and `gen`
/// are shared (`RepairContext` and every [`ChainGenerator`] are
/// `Send + Sync`), and each batch owns its RNG, so batches run on any
/// thread and merge in any order.
pub fn sample_tally(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    walks: u64,
    rng: &mut StdRng,
) -> Result<SampleTally, SampleError> {
    let mut counts = BTreeMap::new();
    let failed_walks = walk_repairs(ctx, gen, walks, rng, |db| {
        for tuple in query.answers(db) {
            *counts.entry(tuple).or_insert(0) += 1;
        }
    })?;
    Ok(SampleTally {
        counts,
        walks,
        failed_walks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::conditional_probability;
    use crate::explore::{repair_distribution, ExploreOptions};
    use crate::{PreferenceGenerator, UniformGenerator};
    use ocqa_logic::parser;
    use rand::SeedableRng;

    fn make_ctx(facts: &str, constraints: &str) -> Arc<RepairContext> {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairContext::new(db, sigma)
    }

    #[test]
    fn sample_size_matches_paper() {
        // §5: "for ε = δ = 0.1, for example, it is 150".
        assert_eq!(sample_size(0.1, 0.1), 150);
        assert_eq!(sample_size(0.05, 0.1), 600);
        // Tighter δ only grows logarithmically.
        assert!(sample_size(0.1, 0.01) < 4 * sample_size(0.1, 0.5));
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn sample_size_validates_eps() {
        sample_size(0.0, 0.1);
    }

    #[test]
    fn draw_index_respects_point_mass() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = vec![Rat::zero(), Rat::one(), Rat::zero()];
        for _ in 0..50 {
            assert_eq!(draw_index(&w, &mut rng), 1);
        }
    }

    #[test]
    fn word_draw_matches_rat_draw() {
        // Differential: for every test distribution and for random
        // thresholds and thresholds on and beside each prefix sum, the
        // word path picks the `Rat` path's index, and it defers to `Rat`
        // exactly when the denominators' lcm leaves the word range.
        let mut rng = StdRng::seed_from_u64(9);
        for (w, fits) in crate::word::testing::distributions() {
            let mut thresholds = vec![0, 1, (1 << 63) - 1, 1 << 63, u64::MAX];
            thresholds.extend((0..32).map(|_| rng.next_u64()));
            let mut acc = Rat::zero();
            for x in &w {
                acc += x;
                let (q, _) = acc.numer().magnitude().shl_bits(64).div_rem(acc.denom());
                if let Some(q) = q.to_u64() {
                    thresholds.extend([q.wrapping_sub(1), q, q.wrapping_add(1)]);
                }
            }
            for r in thresholds {
                let word = crate::word::draw(&w, r);
                assert_eq!(word.is_some(), fits, "{w:?}");
                if let Some(i) = word {
                    assert_eq!(i, rat_draw_index(&w, r), "{w:?} at r = {r}");
                }
            }
        }
    }

    #[test]
    fn walks_always_terminate_in_repairs_for_keys() {
        let ctx = make_ctx(
            "R(a,b). R(a,c). R(b,b). R(b,c).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            match sample_walk(&ctx, &UniformGenerator::new(), &mut rng).unwrap() {
                WalkOutcome::Repair(db) => assert!(ctx.sigma().satisfied_by(&db)),
                WalkOutcome::Failed(_) => {
                    panic!("deletion-fixable key violations cannot fail (Prop. 8)")
                }
            }
        }
    }

    #[test]
    fn example7_estimate_close_to_exact() {
        let ctx = make_ctx(
            "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let gen = PreferenceGenerator::new();
        let q = parser::parse_query("(x) <- forall y: (Pref(x,y) | x = y)").unwrap();
        let exact = conditional_probability(
            &repair_distribution(&ctx, &gen, &ExploreOptions::default()).unwrap(),
            &q,
            &[Constant::named("a")],
        )
        .to_f64();
        let mut rng = StdRng::seed_from_u64(1);
        // ε = 0.05, δ = 0.02 ⇒ n = 922 walks; additive error ≤ 0.05 with
        // probability ≥ 0.98 (and this seed is deterministic).
        let est = estimate_tuple_probability(
            &ctx,
            &gen,
            &q,
            &[Constant::named("a")],
            0.05,
            0.02,
            &mut rng,
        )
        .unwrap();
        assert_eq!(est.failed_walks, 0);
        assert!(
            (est.value - exact).abs() <= 0.05,
            "estimate {} vs exact {exact}",
            est.value
        );
    }

    #[test]
    fn estimate_answers_tallies_all_tuples() {
        let ctx = make_ctx("R(a,b). R(a,c). S(q).", "R(x,y), R(x,z) -> y = z.");
        let q = parser::parse_query("(x) <- S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (answers, n) =
            estimate_answers(&ctx, &UniformGenerator::new(), &q, 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(n, 150);
        // S(q) survives every repair: frequency 1.
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0, vec![Constant::named("q")]);
        assert!((answers[0].1 - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn conditional_ratio_estimator_on_failing_chain() {
        // D = {R(a), S(a)}, Σ = {R(x) → T(x); T(x) → ⊥}: half the walks
        // fail; S(a) survives the single repair, so the conditional
        // probability is 1 — the ratio estimator recovers it while the
        // plain estimator reports ≈ 1/2 (the numerator).
        let ctx = make_ctx("R(a). S(a).", "R(x) -> T(x). T(x) -> false.");
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(x) <- S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let plain = estimate_tuple_probability(
            &ctx,
            &gen,
            &q,
            &[Constant::named("a")],
            0.1,
            0.05,
            &mut rng,
        )
        .unwrap();
        assert!((plain.value - 0.5).abs() < 0.15, "numerator ≈ 1/2");
        let mut rng = StdRng::seed_from_u64(22);
        let ratio =
            estimate_conditional(&ctx, &gen, &q, &[Constant::named("a")], 0.1, 0.05, &mut rng)
                .unwrap()
                .expect("some walk succeeds");
        assert_eq!(ratio.value, 1.0, "every successful repair satisfies S(a)");
        assert!(ratio.failed_walks > 0);
    }

    #[test]
    fn expected_count_estimator_close_to_exact() {
        let ctx = make_ctx("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(y) <- exists x: R(x,y)").unwrap();
        let exact = crate::answer::expected_count(
            &repair_distribution(&ctx, &gen, &ExploreOptions::default()).unwrap(),
            &q,
        )
        .to_f64();
        let mut rng = StdRng::seed_from_u64(23);
        let (est, _) = estimate_expected_count(&ctx, &gen, &q, 0.05, 0.02, &mut rng).unwrap();
        assert!(
            (est - exact).abs() <= 0.1,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn conditional_frequencies_use_successful_denominator() {
        // Half the walks fail (§3's failing example with a surviving S(a)):
        // raw frequencies estimate the numerator ≈ 1/2, conditional ones
        // the true CP = 1.
        let ctx = make_ctx("R(a). S(a).", "R(x) -> T(x). T(x) -> false.");
        let q = parser::parse_query("(x) <- S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let tally = sample_tally(&ctx, &UniformGenerator::new(), &q, 400, &mut rng).unwrap();
        assert!(tally.failed_walks > 0);
        let raw = tally.frequencies();
        assert!(
            (raw[0].1 - 0.5).abs() < 0.15,
            "numerator ≈ 1/2: {}",
            raw[0].1
        );
        let cond = tally.conditional_frequencies().unwrap();
        assert_eq!(cond[0].1, 1.0, "every successful repair satisfies S(a)");

        // All-failing tally: no denominator.
        let all_failed = SampleTally {
            walks: 10,
            failed_walks: 10,
            ..SampleTally::default()
        };
        assert!(all_failed.conditional_frequencies().is_none());

        // Non-failing tally: both estimators coincide.
        let mut rng = StdRng::seed_from_u64(32);
        let ctx = make_ctx("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let q = parser::parse_query("(y) <- exists x: R(x,y)").unwrap();
        let tally = sample_tally(&ctx, &UniformGenerator::new(), &q, 100, &mut rng).unwrap();
        assert_eq!(tally.failed_walks, 0);
        assert_eq!(
            tally.conditional_frequencies().unwrap(),
            tally.frequencies()
        );
    }

    #[test]
    fn estimators_match_values_recorded_before_the_shared_loop() {
        // Differential pin: every figure below was printed by the four
        // hand-written loops these estimators replaced (commit 83a2c07),
        // for the same seeds. `next` is the RNG's next output after the
        // call, so the walk loop's RNG consumption is pinned too.
        let keys = make_ctx(
            "R(a,b). R(a,c). R(b,b). R(b,c).",
            "R(x,y), R(x,z) -> y = z.",
        );
        // Half the walks of this chain fail.
        let failing = make_ctx("R(a). S(a).", "R(x) -> T(x). T(x) -> false.");
        let gen = UniformGenerator::new();
        let qy = parser::parse_query("(y) <- exists x: R(x,y)").unwrap();
        let qs = parser::parse_query("(x) <- S(x)").unwrap();
        let (a, b, c) = (
            Constant::named("a"),
            Constant::named("b"),
            Constant::named("c"),
        );

        let mut rng = StdRng::seed_from_u64(5);
        let e = estimate_tuple_probability(&keys, &gen, &qy, &[b], 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(
            (e.hits, e.failed_walks, e.value, e.samples),
            (84, 0, 0.56, 150)
        );
        assert_eq!(rng.next_u64(), 5281205027910861415);

        let mut rng = StdRng::seed_from_u64(6);
        let e = estimate_tuple_probability(&failing, &gen, &qs, &[a], 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(
            (e.hits, e.failed_walks, e.value, e.samples),
            (76, 74, 0.5066666666666667, 150)
        );
        assert_eq!(rng.next_u64(), 7357362664926606420);

        let mut rng = StdRng::seed_from_u64(6);
        let e = estimate_conditional(&failing, &gen, &qs, &[a], 0.1, 0.1, &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(
            (e.hits, e.failed_walks, e.value, e.samples),
            (76, 74, 1.0, 150)
        );
        assert_eq!(rng.next_u64(), 7357362664926606420);

        let mut rng = StdRng::seed_from_u64(7);
        let count = estimate_expected_count(&keys, &gen, &qy, 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(count, (1.1333333333333333, 150));
        assert_eq!(rng.next_u64(), 5254306250682446134);
        let mut rng = StdRng::seed_from_u64(7);
        let count = estimate_expected_count(&failing, &gen, &qs, 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(count, (0.47333333333333333, 150));
        assert_eq!(rng.next_u64(), 569657501544096239);

        let mut rng = StdRng::seed_from_u64(8);
        let t = sample_tally(&keys, &gen, &qy, 150, &mut rng).unwrap();
        assert_eq!(t.counts, BTreeMap::from([(vec![b], 82), (vec![c], 86)]));
        assert_eq!((t.walks, t.failed_walks), (150, 0));
        assert_eq!(rng.next_u64(), 15260170240304636636);
        let mut rng = StdRng::seed_from_u64(8);
        let t = sample_tally(&failing, &gen, &qs, 150, &mut rng).unwrap();
        assert_eq!(t.counts, BTreeMap::from([(vec![a], 75)]));
        assert_eq!((t.walks, t.failed_walks), (150, 75));
        assert_eq!(rng.next_u64(), 13190667099566277290);
    }

    #[test]
    fn walk_kernel_matches_values_recorded_before_the_in_place_step() {
        // Differential pin: every figure below was printed by the walk
        // kernel that cloned the state per step, drew through `Rat` sums
        // and re-checked every eliminated violation (commit 94b7b14), for
        // the same seeds. `next` is the RNG's next output after the call.
        let gen = UniformGenerator::new();

        // The `cold_walk` benchmark instance: 50 clean keys, each in all
        // 150 repairs, and 8 conflicting pairs with keys 50–57, whose
        // counts are pinned in key order.
        let w = ocqa_workload::KeyConflictWorkload::generate(&ocqa_workload::KeyConflictSpec {
            clean_tuples: 50,
            conflict_groups: 8,
            group_size: 2,
            value_domain: 1_000,
            seed: derive_seed(1, 100),
        });
        let cold = RepairContext::new(w.db, w.sigma);
        assert_eq!(cold.d0().len(), 66);
        let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let recorded: [(u64, [u64; 8], u64); 4] = [
            (
                1,
                [94, 109, 95, 104, 105, 97, 91, 100],
                10553710275064124258,
            ),
            (
                2,
                [105, 104, 96, 110, 102, 102, 96, 97],
                13277046204210322871,
            ),
            (3, [92, 116, 98, 97, 101, 99, 102, 89], 9637364185658597337),
            (
                4,
                [107, 101, 89, 103, 107, 102, 107, 112],
                5605371944297506328,
            ),
        ];
        for (seed, conflicts, next) in recorded {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = sample_tally(&cold, &gen, &q, 150, &mut rng).unwrap();
            assert_eq!((t.walks, t.failed_walks), (150, 0));
            let expected: BTreeMap<Vec<Constant>, u64> = (0..50)
                .map(|x| (x, 150))
                .chain((50..).zip(conflicts))
                .map(|(x, k)| (vec![Constant::int(x)], k))
                .collect();
            assert_eq!(t.counts, expected, "seed {seed}");
            assert_eq!(rng.next_u64(), next, "seed {seed}");
        }

        // Example 3's Σ, whose walks insert S-witnesses and may then fail
        // global justification: Example 3's own instance, and a larger one
        // with longer walks. Counts are pinned per S(_, y, z) witness in
        // (y, z) order.
        let sigma = "R(x,y) -> exists z: S(x,y,z). R(x,y), R(x,z) -> y = z.";
        let ex3 = make_ctx("R(a,b). R(a,c). T(a,b).", sigma);
        let ex3b = make_ctx("R(a,b). R(a,c). R(b,c). R(b,d). R(c,d). S(b,c,a).", sigma);
        let q = parser::parse_query("(y, z) <- exists x: S(x, y, z)").unwrap();
        let check =
            |ctx: &Arc<RepairContext>, ys: &str, zs: &str, seed, counts: &[u64], failed, next| {
                let mut rng = StdRng::seed_from_u64(seed);
                let t = sample_tally(ctx, &gen, &q, 150, &mut rng).unwrap();
                let name = |c: char| Constant::named(&c.to_string());
                let witnesses = ys
                    .chars()
                    .flat_map(|y| zs.chars().map(move |z| vec![name(y), name(z)]));
                let expected: BTreeMap<Vec<Constant>, u64> =
                    witnesses.zip(counts.iter().copied()).collect();
                assert_eq!(t.counts, expected, "seed {seed}");
                assert_eq!((t.walks, t.failed_walks), (150, failed), "seed {seed}");
                assert_eq!(rng.next_u64(), next, "seed {seed}");
            };
        check(
            &ex3,
            "bc",
            "abc",
            1,
            &[11, 8, 7, 11, 7, 11],
            82,
            18188257950246328127,
        );
        check(
            &ex3,
            "bc",
            "abc",
            2,
            &[8, 10, 8, 7, 5, 8],
            85,
            6089650416508853444,
        );
        let counts = [7, 7, 4, 7, 60, 4, 6, 4, 18, 21, 23, 16];
        check(&ex3b, "bcd", "abcd", 1, &counts, 90, 8544325042545428273);
        let counts = [5, 3, 4, 6, 65, 7, 4, 5, 24, 31, 23, 20];
        check(&ex3b, "bcd", "abcd", 2, &counts, 85, 11400257578721602215);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1), "stable");
    }

    #[test]
    fn failing_walks_are_reported() {
        let ctx = make_ctx("R(a).", "R(x) -> T(x). T(x) -> false.");
        let q = parser::parse_query("(x) <- R(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let est = estimate_tuple_probability(
            &ctx,
            &UniformGenerator::new(),
            &q,
            &[Constant::named("a")],
            0.1,
            0.1,
            &mut rng,
        )
        .unwrap();
        // Roughly half the walks take the failing +T(a) branch.
        assert!(est.failed_walks > 0);
        assert_eq!(est.hits, 0, "R(a) survives no repair");
    }
}
