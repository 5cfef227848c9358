//! Repairing sequences (Definition 4).

use crate::{justified, BaseDomain, FactSet, Operation, PatchSource};
use ocqa_data::{Database, Fact};
use ocqa_logic::{Constraint, ConstraintSet, Violation, ViolationSet};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The immutable inputs of a repairing process: the original database
/// `D`, the constraint set `Σ`, the base `B(D, Σ)`, and the initial
/// violation set `V(D, Σ)` (cached so every walk starting at `ε` does not
/// recompute it).
#[derive(Debug)]
pub struct RepairContext {
    d0: Database,
    sigma: ConstraintSet,
    base: BaseDomain,
    v0: ViolationSet,
}

impl RepairContext {
    /// Builds a context (computes the base domain and `V(D, Σ)` once).
    pub fn new(d0: Database, sigma: ConstraintSet) -> Arc<RepairContext> {
        // Constructed directly rather than via `with_violations`: its
        // debug assertion would recompute the set just derived here.
        let v0 = ViolationSet::compute(&sigma, &d0);
        let base = BaseDomain::new(&d0, &sigma);
        Arc::new(RepairContext {
            d0,
            sigma,
            base,
            v0,
        })
    }

    /// Builds a context from a *pre-computed* violation set — the hook for
    /// callers (e.g. `ocqa-engine`'s catalog) that maintain `V(D, Σ)`
    /// incrementally across updates and must not pay a full recomputation
    /// per snapshot. Debug builds verify the handed-over set.
    pub fn with_violations(
        d0: Database,
        sigma: ConstraintSet,
        v0: ViolationSet,
    ) -> Arc<RepairContext> {
        debug_assert_eq!(
            v0,
            ViolationSet::compute(&sigma, &d0),
            "incrementally maintained violation set out of sync with the database"
        );
        let base = BaseDomain::new(&d0, &sigma);
        Arc::new(RepairContext {
            d0,
            sigma,
            base,
            v0,
        })
    }

    /// The original database `D`.
    pub fn d0(&self) -> &Database {
        &self.d0
    }

    /// The constraint set `Σ`.
    pub fn sigma(&self) -> &ConstraintSet {
        &self.sigma
    }

    /// The base `B(D, Σ)`.
    pub fn base(&self) -> &BaseDomain {
        &self.base
    }

    /// The initial violation set `V(D, Σ)`.
    pub fn initial_violations(&self) -> &ViolationSet {
        &self.v0
    }
}

// The sampling pool in `ocqa-engine` shares one context across worker
// threads; keep that guarantee explicit.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RepairContext>();
    assert_send_sync::<RepairState>();
};

/// Bookkeeping for one applied insertion `+F`, needed for the *global
/// justification of additions* (Definition 4, condition 3): the pre-state
/// `D^s_{i−1}` and the union `H` of deletions applied since.
#[derive(Clone)]
struct AdditionRecord {
    fact_set: FactSet,
    pre_db: Database,
    deletions_since: BTreeSet<Fact>,
}

/// A state of the repairing process: the database reached by a prefix of a
/// repairing sequence, plus everything needed to decide which operations
/// may legally extend the sequence.
///
/// [`RepairState::extensions`] returns exactly the operations `op` such
/// that `s · op` is again a `(D, Σ)`-repairing sequence:
///
/// * **local justification** — `op` is `(D^s_i, Σ)`-justified (Def. 3);
/// * **req1** — implied by justification;
/// * **req2** — `op` must not reintroduce any previously eliminated
///   violation (checked pointwise against the accumulated eliminated set,
///   skipping the violations `op` cannot touch);
/// * **no cancellation** — `op` must not delete a previously added fact or
///   add a previously deleted one;
/// * **global justification of additions** — after a deletion, every
///   earlier insertion must remain justified w.r.t. its pre-state minus
///   the deletions applied since.
#[derive(Clone)]
pub struct RepairState {
    ctx: Arc<RepairContext>,
    db: Database,
    steps: Vec<Operation>,
    violations: ViolationSet,
    eliminated: BTreeSet<Violation>,
    added: BTreeSet<Fact>,
    removed: BTreeSet<Fact>,
    additions: Vec<AdditionRecord>,
}

impl RepairState {
    /// The initial state `ε` (empty sequence) on `ctx.d0()`.
    pub fn initial(ctx: Arc<RepairContext>) -> RepairState {
        let violations = ctx.initial_violations().clone();
        RepairState {
            db: ctx.d0().clone(),
            ctx,
            steps: Vec::new(),
            violations,
            eliminated: BTreeSet::new(),
            added: BTreeSet::new(),
            removed: BTreeSet::new(),
            additions: Vec::new(),
        }
    }

    /// The shared context.
    pub fn context(&self) -> &Arc<RepairContext> {
        &self.ctx
    }

    /// The current instance `D^s_i`.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The operations applied so far.
    pub fn steps(&self) -> &[Operation] {
        &self.steps
    }

    /// Sequence length.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// The current violation set `V(D^s_i, Σ)`.
    pub fn violations(&self) -> &ViolationSet {
        &self.violations
    }

    /// Whether the current instance satisfies `Σ` (a *successful* state if
    /// also complete — and consistency implies completeness, since
    /// justified operations require a violation to fix).
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The legal extensions of this sequence, in canonical order.
    ///
    /// Empty iff the sequence is *complete*; a complete sequence is
    /// *successful* when [`is_consistent`](Self::is_consistent) and
    /// *failing* otherwise.
    pub fn extensions(&self) -> Vec<Operation> {
        let candidates = justified::justified_operations(
            self.ctx.sigma(),
            self.ctx.base(),
            &self.db,
            &self.violations,
        );
        candidates
            .into_iter()
            .filter(|op| self.no_cancellation(op))
            .filter(|op| self.req2_holds(op))
            .filter(|op| self.global_justification_holds(op))
            .collect()
    }

    /// No-cancellation (Def. 4, cond. 2): deletions must not touch added
    /// facts; insertions must not touch removed facts.
    fn no_cancellation(&self, op: &Operation) -> bool {
        let fs = op.fact_set();
        match op {
            Operation::Insert(_) => fs.facts().iter().all(|f| !self.removed.contains(f)),
            Operation::Delete(_) => fs.facts().iter().all(|f| !self.added.contains(f)),
        }
    }

    /// req2: no previously eliminated violation may hold again in `op(D)`.
    ///
    /// Only violations the step can touch are re-checked. No eliminated
    /// violation `(κ, h)` holds in the current `D`: it left `V` at the
    /// step that eliminated it, and req2 kept it out at every step since.
    /// So either some fact of `h(body)` is missing from `D`,
    /// or the head holds in `D`. A TGD head is monotone in `D`, and EGD
    /// and DC heads do not read `D` at all (a DC head never holds). Hence
    /// `(κ, h)` can hold again in `op(D)` only when
    ///
    /// * `op` is a deletion and `κ` is a TGD (its head may lose its
    ///   witness), or
    /// * `op` is an insertion whose facts meet `h(body)` (a missing body
    ///   fact may come back).
    ///
    /// Every other eliminated violation is skipped without evaluating it.
    /// On key and denial constraint sets every extension is a deletion,
    /// so req2 then costs nothing.
    fn req2_holds(&self, op: &Operation) -> bool {
        let sigma = self.ctx.sigma();
        let mut patched = None;
        self.eliminated.iter().all(|v| {
            if !may_hold_again(sigma, v, op) {
                return true;
            }
            let patched = patched.get_or_insert_with(|| PatchSource::apply(&self.db, op));
            !v.holds_in(sigma, patched)
        })
    }

    /// Global justification of additions (Def. 4, cond. 3): if `op` deletes
    /// `G`, every earlier `+F` must still be justified w.r.t. its pre-state
    /// minus (deletions since ∪ G).
    fn global_justification_holds(&self, op: &Operation) -> bool {
        let Operation::Delete(g) = op else {
            return true;
        };
        self.additions.iter().all(|rec| {
            let mut h: BTreeSet<Fact> = rec.deletions_since.clone();
            h.extend(g.facts().iter().cloned());
            let source = PatchSource::with(&rec.pre_db, [], h);
            justified::insert_justified_in(self.ctx.sigma(), &rec.fact_set, &source)
        })
    }

    /// Applies an operation returned by [`extensions`](Self::extensions),
    /// yielding the successor state. The operation is *not* re-validated —
    /// callers must only pass legal extensions.
    pub fn apply(&self, op: &Operation) -> RepairState {
        let mut next = self.clone();
        next.advance(op);
        next
    }

    /// [`apply`](Self::apply) in place: moves this state to its successor
    /// under `op` without copying it. Only an insertion copies the
    /// database, as the pre-state its global justification is re-checked
    /// against. The same contract holds: `op` must be a legal extension.
    pub fn advance(&mut self, op: &Operation) {
        let mut added_now: Vec<Fact> = Vec::new();
        let mut removed_now: Vec<Fact> = Vec::new();
        match op {
            Operation::Insert(fs) => {
                let pre_db = self.db.clone();
                for f in fs.facts() {
                    if self.db.insert(f).expect("base facts fit the schema") {
                        added_now.push(f.clone());
                    }
                    self.added.insert(f.clone());
                }
                self.additions.push(AdditionRecord {
                    fact_set: fs.clone(),
                    pre_db,
                    deletions_since: BTreeSet::new(),
                });
            }
            Operation::Delete(fs) => {
                for f in fs.facts() {
                    if self.db.remove(f) {
                        removed_now.push(f.clone());
                    }
                    self.removed.insert(f.clone());
                }
                for rec in &mut self.additions {
                    rec.deletions_since.extend(fs.facts().iter().cloned());
                }
            }
        }
        self.steps.push(op.clone());
        // Semi-naive maintenance of V(D, Σ): exact, seeded at the changed
        // facts (validated against full recomputation by the property
        // tests in `ocqa_logic::incremental`).
        let new_violations = ocqa_logic::incremental::update_violations(
            self.ctx.sigma(),
            &self.db,
            &self.violations,
            &added_now,
            &removed_now,
        );
        self.eliminated
            .extend(self.violations.difference(&new_violations));
        self.violations = new_violations;
    }

    /// Debug validator: re-derives the whole sequence from `D` and checks
    /// req1, req2, no-cancellation and local justification at every step.
    /// Used by property tests; O(sequence² · violation checks).
    pub fn check_invariants(&self) -> Result<(), String> {
        let sigma = self.ctx.sigma();
        let mut db = self.ctx.d0().clone();
        let mut eliminated: BTreeSet<Violation> = BTreeSet::new();
        let mut added: BTreeSet<Fact> = BTreeSet::new();
        let mut removed: BTreeSet<Fact> = BTreeSet::new();
        for (i, op) in self.steps.iter().enumerate() {
            let before = ViolationSet::compute(sigma, &db);
            if !justified::is_justified(op, sigma, &db, &before) {
                return Err(format!("step {i}: {op} not locally justified"));
            }
            let fs = op.fact_set();
            match op {
                Operation::Insert(_) => {
                    if fs.facts().iter().any(|f| removed.contains(f)) {
                        return Err(format!("step {i}: {op} cancels a deletion"));
                    }
                    for f in fs.facts() {
                        if !self.ctx.base().contains(f) {
                            return Err(format!("step {i}: {f} outside B(D,Σ)"));
                        }
                        db.insert(f).map_err(|e| e.to_string())?;
                        added.insert(f.clone());
                    }
                }
                Operation::Delete(_) => {
                    if fs.facts().iter().any(|f| added.contains(f)) {
                        return Err(format!("step {i}: {op} cancels an insertion"));
                    }
                    for f in fs.facts() {
                        db.remove(f);
                        removed.insert(f.clone());
                    }
                }
            }
            let after = ViolationSet::compute(sigma, &db);
            if before.difference(&after).is_empty() {
                return Err(format!("step {i}: {op} violates req1"));
            }
            for v in eliminated.iter() {
                if after.contains(v) {
                    return Err(format!("step {i}: {op} reintroduces {v} (req2)"));
                }
            }
            for v in before.difference(&after) {
                eliminated.insert(v);
            }
        }
        if !db.same_facts(&self.db) {
            return Err("replayed database differs from state".into());
        }
        Ok(())
    }
}

/// Whether the eliminated violation `v` can hold again after `op` — the
/// pruning rule behind [`RepairState::req2_holds`], whose doc comment
/// gives the argument.
fn may_hold_again(sigma: &ConstraintSet, v: &Violation, op: &Operation) -> bool {
    let kappa = sigma.get(v.constraint as usize);
    match op {
        Operation::Delete(_) => matches!(kappa, Constraint::Tgd { .. }),
        Operation::Insert(fs) => kappa
            .body()
            .iter()
            .any(|atom| atom.apply(&v.hom).is_some_and(|f| fs.contains(&f))),
    }
}

impl fmt::Debug for RepairState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RepairState(depth={}, steps=[", self.depth())?;
        for (i, op) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "], consistent={})", self.is_consistent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::parser;
    use proptest::prelude::*;

    /// req2 as the literal definition: every eliminated violation is
    /// re-checked against `op(D)`.
    fn literal_req2(s: &RepairState, op: &Operation) -> bool {
        let patched = PatchSource::apply(&s.db, op);
        s.eliminated
            .iter()
            .all(|v| !v.holds_in(s.ctx.sigma(), &patched))
    }

    /// [`RepairState::extensions`] with [`literal_req2`].
    fn unpruned_extensions(s: &RepairState) -> Vec<Operation> {
        justified_candidates(s)
            .into_iter()
            .filter(|op| s.no_cancellation(op))
            .filter(|op| literal_req2(s, op))
            .filter(|op| s.global_justification_holds(op))
            .collect()
    }

    fn justified_candidates(s: &RepairState) -> Vec<Operation> {
        justified::justified_operations(s.ctx.sigma(), s.ctx.base(), &s.db, &s.violations)
    }

    fn ctx(facts: &str, constraints: &str) -> Arc<RepairContext> {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        RepairContext::new(db, sigma)
    }

    #[test]
    fn consistent_start_is_complete_and_successful() {
        let ctx = ctx("R(a,b).", "R(x,y), R(x,z) -> y = z.");
        let s = RepairState::initial(ctx);
        assert!(s.is_consistent());
        assert!(s.extensions().is_empty());
    }

    #[test]
    fn key_conflict_resolves_in_one_step() {
        let ctx = ctx("R(a,b). R(a,c).", "R(x,y), R(x,z) -> y = z.");
        let s = RepairState::initial(ctx);
        assert!(!s.is_consistent());
        let exts = s.extensions();
        // −R(a,b), −R(a,c), −{R(a,b), R(a,c)}.
        assert_eq!(exts.len(), 3);
        for op in &exts {
            let next = s.apply(op);
            assert!(next.is_consistent(), "one deletion repairs a lone conflict");
            assert!(next.extensions().is_empty());
            next.check_invariants().unwrap();
        }
    }

    #[test]
    fn no_cancellation_blocks_readding_deleted_fact() {
        // Example 2's spirit: Σ′ = {T(x,y) → R(x,y); key on R}.
        // After deleting both R facts, re-adding R(a,b) (to fix the
        // T(a,b) → R(a,b) TGD violation) is forbidden.
        let ctx = ctx(
            "R(a,b). R(a,c). T(a,b).",
            "T(x,y) -> R(x,y). R(x,y), R(x,z) -> y = z.",
        );
        let s = RepairState::initial(ctx);
        let del_both = Operation::delete(vec![
            Fact::parts("R", &["a", "b"]),
            Fact::parts("R", &["a", "c"]),
        ]);
        assert!(s.extensions().contains(&del_both));
        let s2 = s.apply(&del_both);
        // Now T(a,b) → R(a,b) is violated; the only justified fix adding
        // R(a,b) is cancelled out; deleting T(a,b) remains.
        let exts = s2.extensions();
        assert!(
            !exts.iter().any(|op| op.is_insert()),
            "re-adding R(a,b) must be blocked: {exts:?}"
        );
        assert!(exts.contains(&Operation::delete(vec![Fact::parts("T", &["a", "b"])])));
    }

    #[test]
    fn req2_blocks_reintroducing_violation() {
        // Fixing the TGD violation for T(a,b) by adding R(a,b) would
        // reintroduce the key violation after it was eliminated.
        let ctx = ctx(
            "R(a,b). R(a,c). T(a,b).",
            "T(x,y) -> R(x,y). R(x,y), R(x,z) -> y = z.",
        );
        let s = RepairState::initial(ctx);
        // First delete R(a,b): eliminates the key violations and the
        // T-TGD becomes violated (T(a,b) with no R(a,b)).
        let del = Operation::delete(vec![Fact::parts("R", &["a", "b"])]);
        assert!(s.extensions().contains(&del));
        let s2 = s.apply(&del);
        assert!(!s2.is_consistent());
        // Re-adding R(a,b) is blocked by no-cancellation AND would
        // reintroduce the eliminated key violation (req2).
        let add_back = Operation::insert(vec![Fact::parts("R", &["a", "b"])]);
        assert!(!s2.no_cancellation(&add_back));
        assert!(!s2.req2_holds(&add_back));
    }

    #[test]
    fn example3_global_justification() {
        // Example 3: apply +S(a,b,c) then −R(a,b); the deletion makes the
        // earlier addition unjustified, so −R(a,b) must not be offered.
        let ctx = ctx(
            "R(a,b). R(a,c). T(a,b).",
            "R(x,y) -> exists z: S(x,y,z). R(x,y), R(x,z) -> y = z.",
        );
        let s = RepairState::initial(ctx);
        let add_witness = Operation::insert(vec![Fact::parts("S", &["a", "b", "c"])]);
        assert!(s.extensions().contains(&add_witness));
        let s2 = s.apply(&add_witness);
        let del_rab = Operation::delete(vec![Fact::parts("R", &["a", "b"])]);
        let exts = s2.extensions();
        assert!(
            !exts.contains(&del_rab),
            "deleting R(a,b) would orphan S(a,b,c): {exts:?}"
        );
        // Deleting R(a,c) keeps the addition justified (R(a,b) remains).
        let del_rac = Operation::delete(vec![Fact::parts("R", &["a", "c"])]);
        assert!(exts.contains(&del_rac));
    }

    #[test]
    fn failing_sequence_example() {
        // §3's failing example: D = {R(a)}, Σ = {R(x) → T(x); T(x) → ⊥}.
        let ctx = ctx("R(a).", "R(x) -> T(x). T(x) -> false.");
        let s = RepairState::initial(ctx);
        let add_t = Operation::insert(vec![Fact::parts("T", &["a"])]);
        let exts = s.extensions();
        assert!(exts.contains(&add_t));
        let s2 = s.apply(&add_t);
        // s2 violates T(x) → ⊥ but no extension exists: deleting T(a)
        // cancels the insertion; deleting R(a) fixes nothing eliminated…
        // actually deleting R(a) fixes no *current* violation since
        // R(a) → T(a) is satisfied. s2 is complete and failing.
        assert!(!s2.is_consistent());
        assert!(s2.extensions().is_empty(), "failing complete sequence");
        // The deletion route repairs successfully instead.
        let del_r = Operation::delete(vec![Fact::parts("R", &["a"])]);
        assert!(exts.contains(&del_r));
        let s3 = s.apply(&del_r);
        assert!(s3.is_consistent());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Pruned req2 equals the literal req2 along random walks over
        /// random instances of a TGD + EGD + DC set, and every successor
        /// reached by `advance` equals `apply`'s and is a repairing
        /// sequence. The TGD's two-atom head can be half-witnessed by an
        /// original fact, so deleting that fact may reintroduce an
        /// eliminated violation; walks insert TGD witnesses. Pruned req2
        /// is compared on every justified candidate, not only on those
        /// no-cancellation lets through, since no-cancellation alone
        /// already rules out re-adding a deleted body fact.
        #[test]
        fn prop_pruned_req2_matches_literal(
            facts in prop::collection::vec((0usize..4, 0i64..3, 0i64..3), 3..14),
            choices in prop::collection::vec(any::<u64>(), 1..16))
        {
            let facts: Vec<Fact> = facts
                .into_iter()
                .map(|(rel, a, b)| Fact::new(["R", "S", "T", "U"][rel], vec![a.into(), b.into()]))
                .collect();
            let sigma = parser::parse_constraints(
                "T(x,y) -> exists z: R(y,z), U(z,y). \
                 R(x,y), R(x,z) -> y = z. \
                 R(x,y), S(x,y) -> false.",
            )
            .unwrap();
            let schema = parser::infer_schema(&facts, &sigma).unwrap();
            let db = Database::from_facts(schema, facts).unwrap();
            let mut s = RepairState::initial(RepairContext::new(db, sigma));
            for choice in choices {
                for op in justified_candidates(&s) {
                    prop_assert_eq!(s.req2_holds(&op), literal_req2(&s, &op), "{} at {:?}", op, s);
                }
                let exts = s.extensions();
                prop_assert_eq!(&exts, &unpruned_extensions(&s), "at {:?}", s);
                if exts.is_empty() {
                    break;
                }
                let op = &exts[(choice % exts.len() as u64) as usize];
                let applied = s.apply(op);
                s.advance(op);
                prop_assert!(s.db.same_facts(&applied.db) && s.steps == applied.steps);
                prop_assert_eq!(&s.violations, &applied.violations);
                prop_assert_eq!(&s.eliminated, &applied.eliminated);
                if let Err(e) = s.check_invariants() {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    #[test]
    fn sequences_terminate() {
        // Proposition 2: every repairing sequence is finite. Greedily take
        // the first extension until complete; must terminate.
        let ctx = ctx(
            "R(a,b). R(a,c). R(b,c). T(a,b). T(b,c).",
            "T(x,y) -> R(x,y). R(x,y), R(x,z) -> y = z.",
        );
        let mut s = RepairState::initial(ctx);
        let mut guard = 0;
        loop {
            let exts = s.extensions();
            let Some(op) = exts.first() else { break };
            s = s.apply(op);
            guard += 1;
            assert!(guard < 100, "runaway repairing sequence");
        }
        s.check_invariants().unwrap();
    }
}
