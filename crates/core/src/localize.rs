//! Repair localization (§6 “Optimizations”, following Eiter et al.).
//!
//! For the denial fragment (EGDs and DCs — no TGDs), repairing only ever
//! deletes facts that participate in violations, and violations whose body
//! images share no facts never interact. The conflict graph therefore
//! splits the inconsistency into independent **components**, and for
//! *component-local* generators (uniform `M^u_Σ`, trust — whose weights at
//! a state, conditioned on picking an operation inside a component, depend
//! only on that component) the global repair distribution is the
//! **product** of the per-component distributions.
//!
//! The payoff is the difference between adding and multiplying chain
//! sizes: exploring the global chain interleaves component operations
//! (`Π` states, experiment E6's exponential), while localization explores
//! each component alone (`Σ` states) and composes the results — same exact
//! distribution, verified in the tests against the monolithic exploration.

use crate::explore::{self, ExploreError, ExploreOptions, RepairDistribution, RepairInfo};
use crate::sample::{self, SampleError, SampleTally};
use crate::{ChainGenerator, RepairContext};
use ocqa_data::{Database, Fact};
use ocqa_logic::{DeletionOverlay, Query};
use ocqa_num::Rat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// The conflict components of an inconsistent database.
#[derive(Debug)]
pub struct Components {
    /// Facts grouped by connected component of the conflict graph
    /// (components are canonically ordered).
    pub components: Vec<Vec<Fact>>,
    /// Facts participating in no violation (kept by every repair).
    pub clean: Vec<Fact>,
}

/// Errors from localized exploration and sampling.
#[derive(Debug)]
pub enum LocalizeError {
    /// Localization requires EGDs/DCs only.
    NotDenialFragment,
    /// A component exploration failed (budget or generator).
    Explore(ExploreError),
    /// The product of component supports exceeded the state budget.
    ProductTooLarge {
        /// Number of combined repairs that would be produced.
        combinations: usize,
    },
}

impl fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalizeError::NotDenialFragment => {
                write!(f, "repair localization requires EGDs/DCs only")
            }
            LocalizeError::Explore(e) => write!(f, "{e}"),
            LocalizeError::ProductTooLarge { combinations } => {
                write!(
                    f,
                    "component product has {combinations} repairs; over budget"
                )
            }
        }
    }
}

impl std::error::Error for LocalizeError {}

impl From<ExploreError> for LocalizeError {
    fn from(e: ExploreError) -> Self {
        LocalizeError::Explore(e)
    }
}

/// Index-based union-find with union-by-size and iterative path halving.
/// Strictly O(1) stack no matter how adversarial the merge order — the
/// conflict graph of a wide database can chain thousands of facts into one
/// component, which a recursive `find` would turn into a stack overflow.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            // Path halving: point x at its grandparent as we walk up.
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Computes the conflict components: vertices are the facts occurring in
/// some violation image, with an edge between facts sharing a violation;
/// union-find over the violation images. Components are canonically
/// ordered by their smallest member fact, members sorted within each.
pub fn conflict_components(ctx: &RepairContext) -> Components {
    let violations = ctx.initial_violations();
    // Intern the facts of the violation images.
    let mut ids: BTreeMap<Fact, usize> = BTreeMap::new();
    let mut facts: Vec<Fact> = Vec::new();
    let images: Vec<Vec<usize>> = violations
        .iter()
        .map(|v| {
            v.body_image(ctx.sigma())
                .into_iter()
                .map(|f| {
                    *ids.entry(f.clone()).or_insert_with(|| {
                        facts.push(f);
                        facts.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let mut uf = UnionFind::new(facts.len());
    for image in &images {
        let Some(first) = image.first() else { continue };
        for f in &image[1..] {
            uf.union(*first, *f);
        }
    }
    let mut groups: BTreeMap<usize, Vec<Fact>> = BTreeMap::new();
    for (f, id) in &ids {
        groups.entry(uf.find(*id)).or_default().push(f.clone());
    }
    // `ids` iterates facts in sorted order, so each group is sorted and
    // its first member is its minimum: canonical component order follows.
    let mut components: Vec<Vec<Fact>> = groups.into_values().collect();
    components.sort_by(|a, b| a[0].cmp(&b[0]));
    let clean: Vec<Fact> = ctx.d0().facts().filter(|f| !ids.contains_key(f)).collect();
    Components { components, clean }
}

/// Explores each conflict component independently and composes the exact
/// global repair distribution as the product of the per-component ones.
///
/// Only valid for denial-fragment constraint sets with component-local
/// generators (`M^u_Σ` and the trust generator qualify; the Example 4
/// preference generator does **not** — its support weights read the whole
/// database).
pub fn localized_distribution(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    options: &ExploreOptions,
) -> Result<RepairDistribution, LocalizeError> {
    if !ctx.sigma().is_denial_fragment() {
        return Err(LocalizeError::NotDenialFragment);
    }
    let parts = conflict_components(ctx);
    // Explore each component on the sub-database holding only its facts.
    let mut component_dists: Vec<RepairDistribution> = Vec::new();
    let mut states_total = 0usize;
    let mut depth_total = 0usize;
    for comp in &parts.components {
        let sub_db = Database::from_facts(ctx.d0().schema().clone(), comp.iter().cloned())
            .expect("component facts fit the schema");
        let sub_ctx = RepairContext::new(sub_db, ctx.sigma().clone());
        let dist = explore::repair_distribution(&sub_ctx, gen, options)?;
        debug_assert!(dist.failing_mass().is_zero(), "denial fragment cannot fail");
        states_total += dist.states_visited();
        depth_total += dist.max_depth();
        component_dists.push(dist);
    }
    // Compose: start from the clean core, fold in each component.
    let combinations: usize = component_dists
        .iter()
        .map(|d| d.repairs().len().max(1))
        .product();
    if combinations > options.max_states {
        return Err(LocalizeError::ProductTooLarge { combinations });
    }
    let clean_db = Database::from_facts(ctx.d0().schema().clone(), parts.clean.iter().cloned())
        .expect("clean facts fit the schema");
    let mut acc: Vec<(Database, Rat, usize)> = vec![(clean_db, Rat::one(), 1)];
    for dist in &component_dists {
        let mut next = Vec::with_capacity(acc.len() * dist.repairs().len());
        for (db, p, seqs) in &acc {
            for info in dist.repairs() {
                let mut combined = db.clone();
                for f in info.db.facts() {
                    combined.insert(&f).expect("component facts fit the schema");
                }
                next.push((
                    combined,
                    p.mul_ref(&info.probability),
                    seqs * info.sequences,
                ));
            }
        }
        acc = next;
    }
    let absorbing = acc.iter().map(|(_, _, s)| *s).sum();
    let repairs: Vec<RepairInfo> = acc
        .into_iter()
        .map(|(db, probability, sequences)| RepairInfo {
            db,
            probability,
            sequences,
        })
        .collect();
    Ok(RepairDistribution::from_parts(
        repairs,
        Rat::zero(),
        states_total,
        absorbing,
        depth_total,
    ))
}

/// The sampling counterpart of [`localized_distribution`]: walks each
/// conflict component's chain independently and composes per-walk repairs
/// as `D − (union of component deletions)`, evaluated through a
/// [`DeletionOverlay`] — never materializing the combined instance.
///
/// Sound under the same conditions as [`localized_distribution`]: a
/// denial-fragment constraint set (deletion-only repairs, so the global
/// repair *is* `D` minus the per-component deletions) and a
/// component-local generator (uniform, trust). Each walk then samples the
/// exact product distribution over component repairs, so the per-tuple
/// hit frequencies estimate the same `CP` as monolithic sampling — in
/// Σ-sized component state spaces instead of the Π-sized global one, and
/// without cloning the full database per walk.
///
/// **Determinism.** Component `c` draws its walks from an RNG seeded with
/// [`sample::derive_seed`]`(seed, c)`, so the sampled streams are a
/// function of `(seed, walks)` alone — callers that split a budget into
/// chunks (the engine's pool) keep bit-identical answers across pool
/// sizes, exactly as with monolithic [`sample::sample_tally`].
#[derive(Debug)]
pub struct ComponentSampler {
    parent: Arc<RepairContext>,
    subs: Vec<Arc<RepairContext>>,
    /// Each component's fact list, materialized once at build time: the
    /// walk loop diffs every sampled repair against its component, and
    /// re-collecting owned facts per walk dominated its allocation
    /// profile.
    sub_facts: Vec<Vec<Fact>>,
}

impl ComponentSampler {
    /// Builds the per-component sub-contexts for `ctx` (one walkable
    /// [`RepairContext`] per conflict component). Fails unless the
    /// constraint set is in the denial fragment.
    pub fn new(ctx: &Arc<RepairContext>) -> Result<ComponentSampler, LocalizeError> {
        if !ctx.sigma().is_denial_fragment() {
            return Err(LocalizeError::NotDenialFragment);
        }
        let parts = conflict_components(ctx);
        let subs: Vec<Arc<RepairContext>> = parts
            .components
            .iter()
            .map(|comp| {
                let sub_db = Database::from_facts(ctx.d0().schema().clone(), comp.iter().cloned())
                    .expect("component facts fit the schema");
                RepairContext::new(sub_db, ctx.sigma().clone())
            })
            .collect();
        let sub_facts = subs.iter().map(|sub| sub.d0().facts().collect()).collect();
        Ok(ComponentSampler {
            parent: ctx.clone(),
            subs,
            sub_facts,
        })
    }

    /// Number of conflict components (zero for a consistent database).
    pub fn components(&self) -> usize {
        self.subs.len()
    }

    /// The context this sampler was built from.
    pub fn context(&self) -> &Arc<RepairContext> {
        &self.parent
    }

    /// Runs `walks` localized sample walks, evaluating `query` on each
    /// composed repair and tallying every answer tuple. Deterministic in
    /// `(seed, walks)`.
    pub fn sample_tally(
        &self,
        gen: &dyn ChainGenerator,
        query: &Query,
        walks: u64,
        seed: u64,
    ) -> Result<SampleTally, SampleError> {
        let mut rngs: Vec<StdRng> = (0..self.subs.len())
            .map(|c| StdRng::seed_from_u64(sample::derive_seed(seed, c as u64)))
            .collect();
        let mut tally = SampleTally {
            walks,
            ..SampleTally::default()
        };
        // Reused across walks: the composed deletion set and the
        // prebuilt per-component fact lists — the walk loop allocates
        // only for facts a repair actually deleted.
        let mut deleted: HashSet<Fact> = HashSet::new();
        for _ in 0..walks {
            deleted.clear();
            let mut walk_failed = false;
            for ((sub, facts), rng) in self.subs.iter().zip(&self.sub_facts).zip(&mut rngs) {
                let end = sample::walk_to_end(sub, gen, rng)?;
                // A failing component is unreachable for denial-fragment
                // sets (deletion-only chains cannot fail), but kept sound:
                // it fails the composed walk.
                if !end.is_consistent() {
                    walk_failed = true;
                    continue;
                }
                for fact in facts {
                    if !end.db().contains(fact) {
                        deleted.insert(fact.clone());
                    }
                }
            }
            if walk_failed {
                tally.failed_walks += 1;
                continue;
            }
            let view = DeletionOverlay::new(self.parent.d0(), &deleted);
            for tuple in query.answers(&view) {
                *tally.counts.entry(tuple).or_insert(0) += 1;
            }
        }
        Ok(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrustGenerator, UniformGenerator};
    use ocqa_logic::parser;

    fn setup(facts: &str, constraints: &str) -> Arc<RepairContext> {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairContext::new(db, sigma)
    }

    #[test]
    fn components_found() {
        let ctx = setup(
            "R(a,1). R(a,2). R(b,1). R(b,2). R(c,9). S(q).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let parts = conflict_components(&ctx);
        assert_eq!(parts.components.len(), 2, "groups a and b");
        assert_eq!(parts.clean.len(), 2, "R(c,9) and S(q)");
        for comp in &parts.components {
            assert_eq!(comp.len(), 2);
        }
    }

    #[test]
    fn overlapping_violations_merge_components() {
        // R(a,1) conflicts with R(a,2) and R(a,3): one component of 3.
        let ctx = setup("R(a,1). R(a,2). R(a,3).", "R(x,y), R(x,z) -> y = z.");
        let parts = conflict_components(&ctx);
        assert_eq!(parts.components.len(), 1);
        assert_eq!(parts.components[0].len(), 3);
    }

    #[test]
    fn localized_equals_monolithic_uniform() {
        let ctx = setup(
            "R(a,1). R(a,2). R(b,1). R(b,2). R(c,9).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let gen = UniformGenerator::new();
        let opts = ExploreOptions::default();
        let global = explore::repair_distribution(&ctx, &gen, &opts).unwrap();
        let local = localized_distribution(&ctx, &gen, &opts).unwrap();
        assert_eq!(global.repairs().len(), local.repairs().len());
        for info in global.repairs() {
            assert_eq!(
                local.probability_of(&info.db),
                info.probability,
                "probability mismatch for {:?}",
                info.db
            );
        }
        assert!(local.success_mass().is_one());
        // Localization visits strictly fewer states (sum vs product).
        assert!(local.states_visited() < global.states_visited());
    }

    #[test]
    fn localized_equals_monolithic_trust() {
        let ctx = setup(
            "R(a,1). R(a,2). R(b,7). R(b,8).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let gen = TrustGenerator::new(
            [
                (
                    Fact::new("R", vec!["a".into(), ocqa_data::Constant::int(1)]),
                    Rat::ratio(3, 4),
                ),
                (
                    Fact::new("R", vec!["a".into(), ocqa_data::Constant::int(2)]),
                    Rat::ratio(1, 4),
                ),
            ],
            Rat::ratio(1, 2),
        );
        let opts = ExploreOptions::default();
        let global = explore::repair_distribution(&ctx, &gen, &opts).unwrap();
        let local = localized_distribution(&ctx, &gen, &opts).unwrap();
        assert_eq!(global.repairs().len(), local.repairs().len());
        for info in global.repairs() {
            assert_eq!(local.probability_of(&info.db), info.probability);
        }
    }

    #[test]
    fn huge_path_component_does_not_recurse() {
        // A single path-shaped component of n facts: S(0,1), S(1,2), …
        // linked by the DC S(x,y), S(y,z) → ⊥. The old recursive find
        // could chase a parent chain as deep as the component is wide;
        // the iterative union-by-size walk is O(1) stack regardless.
        let n = 2000usize;
        let facts: String = (0..n)
            .map(|i| format!("S({i},{}).", i + 1))
            .collect::<Vec<_>>()
            .join(" ");
        let ctx = setup(&facts, "S(x,y), S(y,z) -> false.");
        let parts = conflict_components(&ctx);
        assert_eq!(parts.components.len(), 1);
        assert_eq!(parts.components[0].len(), n);
        assert!(parts.clean.is_empty());
    }

    #[test]
    fn components_canonically_ordered() {
        let ctx = setup(
            "R(b,1). R(b,2). R(a,1). R(a,2). R(c,3).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let parts = conflict_components(&ctx);
        assert_eq!(parts.components.len(), 2);
        // Ordered by smallest member; members sorted within.
        assert!(parts.components[0][0] < parts.components[1][0]);
        for comp in &parts.components {
            assert!(comp.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sampler_estimates_match_exact_localized_distribution() {
        let ctx = setup(
            "R(a,1). R(a,2). R(b,1). R(b,2). R(c,9). S(q).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let exact = localized_distribution(&ctx, &gen, &ExploreOptions::default()).unwrap();
        let exact_cp = |name: &str| {
            crate::answer::conditional_probability(&exact, &q, &[ocqa_data::Constant::named(name)])
                .to_f64()
        };
        let sampler = ComponentSampler::new(&ctx).unwrap();
        assert_eq!(sampler.components(), 2);
        let tally = sampler.sample_tally(&gen, &q, 2000, 11).unwrap();
        assert_eq!(tally.walks, 2000);
        assert_eq!(tally.failed_walks, 0);
        for (tuple, p) in tally.frequencies() {
            let name = format!("{}", tuple[0]);
            let cp = exact_cp(&name);
            assert!(
                (p - cp).abs() <= 0.05,
                "tuple {name}: sampled {p} vs exact {cp}"
            );
        }
        // The clean key c survives every composed repair.
        let freqs = tally.frequencies();
        let c_row = freqs
            .iter()
            .find(|(t, _)| format!("{}", t[0]) == "c")
            .expect("clean fact present");
        assert_eq!(c_row.1, 1.0);
    }

    #[test]
    fn sampler_deterministic_in_seed() {
        let ctx = setup(
            "R(a,1). R(a,2). R(b,1). R(b,2).",
            "R(x,y), R(x,z) -> y = z.",
        );
        let gen = UniformGenerator::new();
        let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let sampler = ComponentSampler::new(&ctx).unwrap();
        let a = sampler.sample_tally(&gen, &q, 300, 7).unwrap();
        let b = sampler.sample_tally(&gen, &q, 300, 7).unwrap();
        assert_eq!(a.counts, b.counts, "same seed, same tally");
        let c = sampler.sample_tally(&gen, &q, 300, 8).unwrap();
        assert_ne!(a.counts, c.counts, "seed must matter");
    }

    #[test]
    fn sampler_on_consistent_database() {
        let ctx = setup("R(a,1). R(b,2).", "R(x,y), R(x,z) -> y = z.");
        let sampler = ComponentSampler::new(&ctx).unwrap();
        assert_eq!(sampler.components(), 0);
        let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
        let tally = sampler
            .sample_tally(&UniformGenerator::new(), &q, 10, 0)
            .unwrap();
        let freqs = tally.frequencies();
        assert_eq!(freqs.len(), 2);
        assert!(freqs.iter().all(|(_, p)| *p == 1.0));
    }

    #[test]
    fn sampler_rejects_tgds() {
        let ctx = setup("T(a,b).", "T(x,y) -> R(x,y).");
        assert!(matches!(
            ComponentSampler::new(&ctx),
            Err(LocalizeError::NotDenialFragment)
        ));
    }

    #[test]
    fn rejects_tgds() {
        let ctx = setup("T(a,b).", "T(x,y) -> R(x,y).");
        let gen = UniformGenerator::new();
        assert!(matches!(
            localized_distribution(&ctx, &gen, &ExploreOptions::default()),
            Err(LocalizeError::NotDenialFragment)
        ));
    }

    #[test]
    fn consistent_database_single_trivial_repair() {
        let ctx = setup("R(a,1). R(b,2).", "R(x,y), R(x,z) -> y = z.");
        let gen = UniformGenerator::new();
        let local = localized_distribution(&ctx, &gen, &ExploreOptions::default()).unwrap();
        assert_eq!(local.repairs().len(), 1);
        assert!(local.repairs()[0].db.same_facts(ctx.d0()));
        assert!(local.repairs()[0].probability.is_one());
    }

    #[test]
    fn state_budget_guards_product() {
        // 8 independent pairs ⇒ 3^8 = 6561 combined repairs under uniform.
        let facts: String = (0..8)
            .map(|i| format!("R(k{i},1). R(k{i},2)."))
            .collect::<Vec<_>>()
            .join(" ");
        let ctx = setup(&facts, "R(x,y), R(x,z) -> y = z.");
        let gen = UniformGenerator::new();
        let err = localized_distribution(
            &ctx,
            &gen,
            &ExploreOptions {
                max_states: 1000,
                record_chain: false,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LocalizeError::ProductTooLarge { combinations: 6561 }
        ));
    }
}
