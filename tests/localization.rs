//! Repair localization (§6): exactness of the component-wise product
//! against monolithic exploration, on fixed and random instances.

use ocqa::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn setup(facts: &str, constraints: &str) -> Arc<RepairContext> {
    let facts = parser::parse_facts(facts).unwrap();
    let sigma = parser::parse_constraints(constraints).unwrap();
    let schema = parser::infer_schema(&facts, &sigma).unwrap();
    let db = Database::from_facts(schema, facts).unwrap();
    RepairContext::new(db, sigma)
}

#[test]
fn preference_example_is_two_components() {
    let ctx = setup(
        "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).",
        "Pref(x,y), Pref(y,x) -> false.",
    );
    let parts = localize::conflict_components(&ctx);
    assert_eq!(parts.components.len(), 2, "a↔b and a↔c conflicts");
    assert_eq!(parts.clean.len(), 2, "Pref(a,d), Pref(b,d)");
}

#[test]
fn localized_oca_matches_monolithic() {
    // Localization must preserve not only repair probabilities but the
    // answers computed from them.
    let ctx = setup(
        "R(a,1). R(a,2). R(b,3). R(b,4). S(a). S(zz).",
        "R(x,y), R(x,z) -> y = z.",
    );
    let gen = UniformGenerator::new();
    let opts = explore::ExploreOptions::default();
    let global = explore::repair_distribution(&ctx, &gen, &opts).unwrap();
    let local = localize::localized_distribution(&ctx, &gen, &opts).unwrap();
    let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
    assert_eq!(
        answer::operational_answers(&global, &q),
        answer::operational_answers(&local, &q)
    );
    let qs = parser::parse_query("(x) <- S(x)").unwrap();
    assert_eq!(
        answer::certain_answers(&global, &qs),
        answer::certain_answers(&local, &qs)
    );
}

#[test]
fn chained_conflicts_stay_one_component() {
    // R(a,1)–R(a,2) conflict; R(a,2) is… actually chains need overlap via
    // a shared fact: key group of 4 values is a single 4-clique component.
    let ctx = setup(
        "R(a,1). R(a,2). R(a,3). R(a,4).",
        "R(x,y), R(x,z) -> y = z.",
    );
    let parts = localize::conflict_components(&ctx);
    assert_eq!(parts.components.len(), 1);
    assert_eq!(parts.components[0].len(), 4);
    let gen = UniformGenerator::new();
    let opts = explore::ExploreOptions::default();
    let global = explore::repair_distribution(&ctx, &gen, &opts).unwrap();
    let local = localize::localized_distribution(&ctx, &gen, &opts).unwrap();
    for info in global.repairs() {
        assert_eq!(local.probability_of(&info.db), info.probability);
    }
}

/// The §6 localization in numbers (E6/E13): on `g` key conflicts of
/// two tuples each beside 5 clean tuples, monolithic exploration under
/// `uniform` visits a state count that multiplies with every conflict,
/// while the localized product visits one that adds 4 per conflict —
/// and both give every repair the same probability.
#[test]
fn exact_state_counts_multiply_monolithic_and_add_localized() {
    use ocqa::workload::{KeyConflictSpec, KeyConflictWorkload};
    let key_ctx = |groups: usize| {
        let w = KeyConflictWorkload::generate(&KeyConflictSpec {
            clean_tuples: 5,
            conflict_groups: groups,
            group_size: 2,
            value_domain: 1_000,
            seed: 11,
        });
        RepairContext::new(w.db, w.sigma)
    };
    let gen = UniformGenerator::new();
    let opts = explore::ExploreOptions {
        max_states: 10_000_000,
        record_chain: false,
    };
    // Monolithic stops at 4 conflicts: 5 visit 40,696 states and 6 visit
    // 732,529, too slow for tier-1.
    let monolithic = [(1, 4), (2, 25), (3, 226), (4, 2_713)].map(|(groups, states)| {
        let global = explore::repair_distribution(&key_ctx(groups), &gen, &opts).unwrap();
        assert_eq!(
            global.states_visited(),
            states,
            "monolithic, {groups} conflicts"
        );
        global
    });
    for (groups, states) in [(2, 8), (3, 12), (4, 16), (5, 20), (6, 24)] {
        let local = localize::localized_distribution(&key_ctx(groups), &gen, &opts).unwrap();
        assert_eq!(
            local.states_visited(),
            states,
            "localized, {groups} conflicts"
        );
        if let Some(global) = monolithic.get(groups - 1) {
            for info in global.repairs() {
                assert_eq!(local.probability_of(&info.db), info.probability);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Localized and monolithic exploration agree on random instances
    /// mixing DC and EGD constraints. Component counts are kept small
    /// (≤ 4) because the *monolithic* reference side grows exponentially
    /// in them — exactly the effect E13 measures.
    #[test]
    fn prop_localized_matches_monolithic(
        pairs in prop::collection::vec((0i64..3, 0i64..3), 0..3),
        singles in prop::collection::vec(0i64..5, 0..3),
    ) {
        // Key-violating groups (EGD) plus an asymmetric edge relation (DC).
        let mut facts = String::new();
        for (i, (a, b)) in pairs.iter().enumerate() {
            facts.push_str(&format!("R(k{i}, v{a}). R(k{i}, w{b}). "));
        }
        for (i, s) in singles.iter().enumerate() {
            facts.push_str(&format!("E(n{i}, m{s}). E(m{s}, n{i}). "));
        }
        facts.push_str("R(clean, only). E(x0, y0).");
        let ctx = setup(
            &facts,
            "R(x,y), R(x,z) -> y = z. E(x,y), E(y,x) -> false.",
        );
        let gen = UniformGenerator::new();
        let opts = explore::ExploreOptions { max_states: 2_000_000, record_chain: false };
        let global = explore::repair_distribution(&ctx, &gen, &opts).unwrap();
        let local = localize::localized_distribution(&ctx, &gen, &opts).unwrap();
        prop_assert_eq!(global.repairs().len(), local.repairs().len());
        for info in global.repairs() {
            prop_assert_eq!(local.probability_of(&info.db), info.probability.clone());
        }
        prop_assert!(local.states_visited() <= global.states_visited());
    }
}
