//! Planner/executor equivalence properties: the plan/execute pipeline in
//! `fdb-exec` must be observationally identical to the recursive
//! interpreter in `fdb::storage::chain` on complete runs, whatever
//! direction the cost model picks.
//!
//! * Truth: `exec::derived_truth` equals `chain::derived_truth` on
//!   random chain databases with random inverse steps, for hits, misses
//!   and ambiguous facts alike.
//! * Extension: the full pair lists are equal (both are sorted and
//!   deduplicated).
//! * Delete: negating the same derived fact through either path creates
//!   NCs with the same ids and leaves byte-identical stores.
//! * Governed and capped truth: a planner run stopped by its governor or
//!   by a small `max_chains` reports a sound *lower bound* in the
//!   `False < Ambiguous < True` order, and a `Complete` outcome equals
//!   the uncapped, ungoverned answer.
//!
//! The random databases carry NVC nulls from derived inserts, NCs from
//! derived deletes and, in some cases, a second derivation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fdb::core::Database;
use fdb::governor::Governor;
use fdb::storage::{chain, ChainLimits, Truth};
use fdb::types::{Derivation, Schema, Step, Value};
use fdb::workload::instance_gen::populate;

/// A random composition chain `top = s0 o … o s{k-1}` where each step is
/// independently an identity or an inverse (the function's declared
/// endpoints are flipped so the derivation still types out), populated
/// with random facts sharing per-type domains so joins actually meet.
/// In about a third of the cases `top` has a second derivation
/// `g0 (o g1)`, so truth must combine the evidence of both. Derived
/// inserts then thread NVC nulls through the first derivation, and
/// derived deletes add NCs.
fn random_chain_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..=4usize);
    let inverted: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
    let second = if rng.gen_bool(0.35) {
        rng.gen_range(1..=2usize)
    } else {
        0
    };
    let mut builder = Schema::builder();
    for (i, inv) in inverted.iter().enumerate() {
        let (d, r) = if *inv { (i + 1, i) } else { (i, i + 1) };
        builder = builder.function(
            &format!("f{i}"),
            &format!("v{d}"),
            &format!("v{r}"),
            "many-many",
        );
    }
    let vk = format!("v{k}");
    match second {
        1 => builder = builder.function("g0", "v0", &vk, "many-many"),
        2 => {
            builder = builder.function("g0", "v0", "w1", "many-many").function(
                "g1",
                "w1",
                &vk,
                "many-many",
            );
        }
        _ => {}
    }
    builder = builder.function("top", "v0", &vk, "many-many");
    let schema = builder.build().expect("generated schema is valid");
    let mut db = Database::new(schema);
    let steps: Vec<Step> = inverted
        .iter()
        .enumerate()
        .map(|(i, inv)| {
            let f = db.resolve(&format!("f{i}")).expect("declared");
            if *inv {
                Step::inverse(f)
            } else {
                Step::identity(f)
            }
        })
        .collect();
    let mut derivations = vec![Derivation::new(steps).expect("typed chain")];
    if second > 0 {
        let steps = (0..second)
            .map(|i| Step::identity(db.resolve(&format!("g{i}")).expect("declared")))
            .collect();
        derivations.push(Derivation::new(steps).expect("typed chain"));
    }
    let top = db.resolve("top").expect("declared");
    db.register_derived(top, derivations)
        .expect("top derivable");
    let facts = rng.gen_range(10..80usize);
    let domain = rng.gen_range(3..12usize);
    populate(&mut db, seed ^ 0x9e37_79b9, facts, domain);
    // Derived inserts: each new pair gets a chain of fresh nulls, which
    // match every value ambiguously — the planner must agree on the
    // ambiguous chains they open, not just on exact ones.
    for _ in 0..rng.gen_range(0..=3usize) {
        let x = Value::atom(format!("v0#{}", rng.gen_range(0..14)));
        let y = Value::atom(format!("{vk}#{}", rng.gen_range(0..14)));
        db.insert(top, x, y).expect("derived insert");
    }
    // Sprinkle partial information: derived deletes create NCs, which
    // downgrade some chains to Ambiguous — the planner must agree on
    // those too, not just on all-True instances.
    for _ in 0..2 {
        let ext = db.extension(top).expect("extension computes");
        if let Some(p) = ext.iter().find(|p| p.truth == Truth::True) {
            let (x, y) = (p.x.clone(), p.y.clone());
            db.delete(top, &x, &y).expect("derived delete");
        }
    }
    db
}

fn rank(t: Truth) -> u8 {
    match t {
        Truth::False => 0,
        Truth::Ambiguous => 1,
        Truth::True => 2,
    }
}

/// Sample query endpoints: the shared-domain naming (`t#k`) means these
/// cover present, absent and cross-wired values.
fn probes(db: &Database, rng: &mut StdRng) -> Vec<(Value, Value)> {
    let top = db.resolve("top").expect("declared");
    let k = db
        .derivations(top)
        .first()
        .expect("registered")
        .steps()
        .len();
    let mut out = Vec::new();
    for _ in 0..8 {
        out.push((
            Value::atom(format!("v0#{}", rng.gen_range(0..14))),
            Value::atom(format!("v{k}#{}", rng.gen_range(0..14))),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truth and extension through the planner equal the interpreter's.
    #[test]
    fn planner_matches_interpreter_on_truth_and_extension(seed in 0u64..10_000) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        for (x, y) in probes(&db, &mut rng) {
            prop_assert_eq!(
                fdb::exec::derived_truth(db.store(), &derivations, &x, &y, limits),
                chain::derived_truth(db.store(), &derivations, &x, &y, limits),
                "truth({x}, {y}) diverged on seed {seed}",
            );
        }
        prop_assert_eq!(
            fdb::exec::derived_extension(db.store(), &derivations, limits),
            chain::derived_extension(db.store(), &derivations, limits),
        );
    }

    /// Deleting the same derived fact through either path produces the
    /// same NC ids and byte-identical stores.
    #[test]
    fn planner_delete_matches_interpreter(seed in 0u64..10_000) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();
        let Some(target) = chain::derived_extension(db.store(), &derivations, limits)
            .into_iter()
            .next()
        else {
            return Ok(()); // empty extension: nothing to delete
        };

        for policy in [chain::DeletePolicy::Faithful, chain::DeletePolicy::Strict] {
            let mut s1 = db.store().clone();
            let mut s2 = db.store().clone();
            let ncs_interp = chain::derived_delete_with_policy(
                &mut s1, &derivations, &target.x, &target.y, policy, limits,
            );
            let ncs_exec = fdb::exec::derived_delete_with_policy(
                &mut s2, &derivations, &target.x, &target.y, policy, limits,
            );
            prop_assert_eq!(&ncs_interp, &ncs_exec, "NC ids diverged on seed {}", seed);
            prop_assert_eq!(
                serde_json::to_string(&s1).expect("store serializes"),
                serde_json::to_string(&s2).expect("store serializes"),
                "stores diverged on seed {}", seed,
            );
        }
    }

    /// A governed planner run never overstates truth, and a `Complete`
    /// outcome equals the ungoverned answer.
    #[test]
    fn governed_truth_is_a_sound_lower_bound(
        seed in 0u64..10_000,
        steps in 0u64..200,
    ) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let limits = ChainLimits::default();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xc2b2_ae35);
        for (x, y) in probes(&db, &mut rng) {
            let full = fdb::exec::derived_truth(db.store(), &derivations, &x, &y, limits);
            let governed = fdb::exec::derived_truth_governed(
                db.store(), &derivations, &x, &y, limits,
                &Governor::with_max_steps(steps),
            );
            let complete = governed.is_complete();
            let got = governed.value();
            prop_assert!(
                rank(got) <= rank(full),
                "governed {got:?} overstates {full:?} on seed {seed}",
            );
            if complete {
                prop_assert_eq!(got, full);
            }
        }
    }

    /// A small chain cap, alone or under a step budget, never overstates
    /// truth, and a `Complete` outcome equals the uncapped answer.
    #[test]
    fn capped_truth_is_a_sound_lower_bound(
        seed in 0u64..10_000,
        max_chains in 0usize..4,
        steps in 0u64..300,
    ) {
        let db = random_chain_db(seed);
        let top = db.resolve("top").expect("declared");
        let derivations = db.derivations(top).to_vec();
        let capped = ChainLimits { max_chains };

        let mut rng = StdRng::seed_from_u64(seed ^ 0x27d4_eb2f);
        for (x, y) in probes(&db, &mut rng) {
            let full = fdb::exec::derived_truth(
                db.store(), &derivations, &x, &y, ChainLimits::default(),
            );
            // Budgets of 200 steps and more stand for no step budget.
            let governor = if steps < 200 {
                Governor::with_max_steps(steps)
            } else {
                Governor::unbounded()
            };
            let outcome = fdb::exec::derived_truth_governed(
                db.store(), &derivations, &x, &y, capped, &governor,
            );
            let complete = outcome.is_complete();
            let got = outcome.value();
            prop_assert!(
                rank(got) <= rank(full),
                "capped {got:?} overstates {full:?} on seed {seed}",
            );
            if complete {
                prop_assert_eq!(got, full, "complete capped truth diverged on seed {}", seed);
            }
        }
    }
}
