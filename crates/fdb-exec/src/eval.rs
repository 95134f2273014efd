//! Planned evaluation entry points: truth, extension, image queries and
//! derived-delete chain collection, all routed through the
//! planner/executor pipeline.
//!
//! These mirror the reference implementations in `fdb_storage::chain`
//! result-for-result on complete runs:
//!
//! * truth is a sink on the streaming executor: it combines per-derivation
//!   chain evidence with three-valued OR, returns `Complete(True)` at the
//!   first proving chain (True is final on the lattice, so the walk stops
//!   there), and demotes exactly matching chains covered by an NC, found
//!   by row index through the chain's own NCLs;
//! * extension collects non-null endpoint pairs, sorts and dedups, then
//!   truth-evaluates each pair (a `Cap` during enumeration continues into
//!   truth evaluation; any other stop is hard and halts pair evaluation);
//! * image / inverse-image bind one endpoint *exactly* at the seed
//!   instead of enumerating the whole extension and filtering — same
//!   pairs, a fraction of the work;
//! * delete-chain collection is pinned to [`Direction::Forward`]: NC ids
//!   are user-visible in update traces, and the forward (interpreter)
//!   enumeration order is the canonical order for NC numbering.

use std::ops::ControlFlow;

use fdb_governor::{Governance, Governor, Outcome, StopReason, Ungoverned};
use fdb_storage::chain::DeletePolicy;
use fdb_storage::{ChainLimits, DerivedPair, Fact, NcId, Store, Truth};
use fdb_types::{Derivation, MatchKind, Op, Value};

use crate::exec::{chains_planned, chains_with_direction, execute_planned};
use crate::plan::{Bind, Direction, QuerySpec};

/// §3.2 truth of the derived fact `(x, y)`, evaluated through the
/// planner (see [`fdb_storage::chain::derived_truth`] for semantics).
pub fn derived_truth(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
) -> Truth {
    derived_truth_impl(store, derivations, x, y, limits, &Ungoverned).value()
}

/// [`derived_truth`] under a [`Governor`]: a stopped evaluation reports a
/// sound lower bound on the `False < Ambiguous < True` lattice; a `True`
/// proof is final and therefore always `Complete`.
pub fn derived_truth_governed(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Truth> {
    derived_truth_impl(store, derivations, x, y, limits, governor)
}

/// The truth sink: walks each derivation's chains and returns at the
/// first one that proves the fact true. Any other chain lifts the answer
/// from False to Ambiguous unless an NC on its own rows covers it; once
/// the answer is Ambiguous only a proof can change it, so coverage is no
/// longer checked.
fn derived_truth_impl<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Truth> {
    let mut best = Truth::False;
    let spec = QuerySpec::truth(x, y, true);
    for derivation in derivations {
        let mut proved = false;
        let (_, _, stop) = execute_planned(store, derivation, &spec, limits, governor, |chain| {
            if chain.matching == MatchKind::Exact && chain.flags == Truth::True {
                proved = true;
                return ControlFlow::Break(());
            }
            if best == Truth::False {
                if store.rows_cover_some_nc(chain.members) {
                    fdb_obs::registry().exec_nc_demotions.inc();
                } else {
                    best = Truth::Ambiguous;
                }
            }
            ControlFlow::Continue(())
        });
        if proved {
            // Top of the truth lattice: final, so the walk ended there.
            return Outcome::Complete(Truth::True);
        }
        if stop.is_some() {
            return Outcome::new(best, stop);
        }
    }
    Outcome::Complete(best)
}

/// The endpoint pair of a completed chain, oriented by the derivation's
/// first and last steps.
fn endpoints(derivation: &Derivation, facts: &[Fact]) -> (Value, Value) {
    let first_step = &derivation.steps()[0];
    let last_step = &derivation.steps()[derivation.len() - 1];
    let first = &facts[0];
    let last = &facts[facts.len() - 1];
    let x = if first_step.op == Op::Inverse {
        &first.y
    } else {
        &first.x
    };
    let y = if last_step.op == Op::Inverse {
        &last.x
    } else {
        &last.y
    };
    (x.clone(), y.clone())
}

/// Shared pair-enumeration core for extension / image / inverse-image:
/// optional *exact* binds on either endpoint, then §3.2 truth for every
/// distinct non-null pair.
fn pairs_impl<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    xsel: Option<&Value>,
    ysel: Option<&Value>,
    limits: ChainLimits,
    governor: &G,
) -> Outcome<Vec<DerivedPair>> {
    let spec = QuerySpec {
        left: xsel.map_or(Bind::Unbound, Bind::Exact),
        right: ysel.map_or(Bind::Unbound, Bind::Exact),
        allow_ambiguous: true,
    };
    let mut stop: Option<StopReason> = None;
    let mut pairs: Vec<(Value, Value)> = Vec::new();
    for derivation in derivations {
        let (_, outcome) = chains_planned(store, derivation, &spec, limits, governor);
        let reason = outcome.reason();
        for chain in outcome.value() {
            let (x, y) = endpoints(derivation, &chain.facts);
            if !x.is_null() && !y.is_null() {
                pairs.push((x, y));
            }
        }
        if let Some(r) = reason {
            stop = Some(r);
            break;
        }
    }
    pairs.sort();
    pairs.dedup();
    let mut out = Vec::new();
    for (x, y) in pairs {
        if stop.is_some() && !matches!(stop, Some(StopReason::Cap)) {
            // Hard stop: don't start further truth evaluations (each one
            // would just re-trip the same exhausted governor).
            break;
        }
        let truth_outcome = derived_truth_impl(store, derivations, &x, &y, limits, governor);
        stop = stop.or(truth_outcome.reason());
        let truth = truth_outcome.value();
        if truth != Truth::False {
            out.push(DerivedPair { x, y, truth });
        }
    }
    Outcome::new(out, stop)
}

/// The visible extension of a derived function, via the planner (see
/// [`fdb_storage::chain::derived_extension`] for semantics).
pub fn derived_extension(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    pairs_impl(store, derivations, None, None, limits, &Ungoverned).value()
}

/// [`derived_extension`] under a [`Governor`]: a stopped computation
/// reports a sound subset of the full extension.
pub fn derived_extension_governed(
    store: &Store,
    derivations: &[Derivation],
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    pairs_impl(store, derivations, None, None, limits, governor)
}

/// The image slice of the extension: pairs with `x` as the exact left
/// endpoint. Equivalent to filtering [`derived_extension`] on `x`, but
/// the planner seeds directly from the bound endpoint (typically via the
/// `by_x`/`by_y` index) instead of enumerating every chain.
pub fn derived_image(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    pairs_impl(store, derivations, Some(x), None, limits, &Ungoverned).value()
}

/// [`derived_image`] under a [`Governor`].
pub fn derived_image_governed(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    pairs_impl(store, derivations, Some(x), None, limits, governor)
}

/// The inverse-image slice of the extension: pairs with `y` as the exact
/// right endpoint.
pub fn derived_inverse_image(
    store: &Store,
    derivations: &[Derivation],
    y: &Value,
    limits: ChainLimits,
) -> Vec<DerivedPair> {
    pairs_impl(store, derivations, None, Some(y), limits, &Ungoverned).value()
}

/// [`derived_inverse_image`] under a [`Governor`].
pub fn derived_inverse_image_governed(
    store: &Store,
    derivations: &[Derivation],
    y: &Value,
    limits: ChainLimits,
    governor: &Governor,
) -> Outcome<Vec<DerivedPair>> {
    pairs_impl(store, derivations, None, Some(y), limits, governor)
}

/// Collects the chains a `derived-delete(f, x, y)` negates, deduplicated
/// across derivations. Execution is pinned [`Direction::Forward`] so NC
/// creation order — which is user-visible as NC ids in traces and
/// rendered NCLs — matches the interpreter exactly, even for capped
/// partial enumerations.
pub fn collect_delete_chains<G: Governance>(
    store: &Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
    governor: &G,
) -> (Vec<Vec<Fact>>, Option<StopReason>) {
    let allow_ambiguous = policy == DeletePolicy::Strict;
    let spec = QuerySpec::truth(x, y, allow_ambiguous);
    let mut chains: Vec<Vec<Fact>> = Vec::new();
    let mut stop = None;
    for derivation in derivations {
        let outcome = chains_with_direction(
            store,
            derivation,
            &spec,
            limits,
            governor,
            Direction::Forward,
        );
        stop = stop.or(outcome.reason());
        for chain in outcome.value() {
            if !chains.contains(&chain.facts) {
                chains.push(chain.facts);
            }
        }
    }
    (chains, stop)
}

/// §4.1 `derived-delete` through the pipeline: negates every matching
/// chain under `policy`. A capped enumeration negates the chains found
/// so far (historic ungoverned behaviour). Returns the NC ids created.
pub fn derived_delete_with_policy(
    store: &mut Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
) -> Vec<NcId> {
    let (chains, _) = collect_delete_chains(store, derivations, x, y, policy, limits, &Ungoverned);
    chains
        .into_iter()
        .map(|facts| store.create_nc(facts))
        .collect()
}

/// [`derived_delete_with_policy`] under a [`Governor`] —
/// **all-or-nothing**: if the governor (or the chain cap) stops
/// enumeration the store is left untouched and the stop reason returned.
pub fn derived_delete_governed(
    store: &mut Store,
    derivations: &[Derivation],
    x: &Value,
    y: &Value,
    policy: DeletePolicy,
    limits: ChainLimits,
    governor: &Governor,
) -> Result<Vec<NcId>, StopReason> {
    let (chains, stop) = collect_delete_chains(store, derivations, x, y, policy, limits, governor);
    if let Some(r) = stop {
        return Err(r);
    }
    Ok(chains
        .into_iter()
        .map(|facts| store.create_nc(facts))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_storage::chain as interp;
    use fdb_types::{FunctionId, Step};

    const TEACH: FunctionId = FunctionId(0);
    const CLASS_LIST: FunctionId = FunctionId(1);

    fn pupil() -> Derivation {
        Derivation::new(vec![Step::identity(TEACH), Step::identity(CLASS_LIST)]).unwrap()
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn paper_instance() -> Store {
        let mut s = Store::new(2);
        s.base_insert(TEACH, v("euclid"), v("math"));
        s.base_insert(TEACH, v("laplace"), v("math"));
        s.base_insert(TEACH, v("laplace"), v("physics"));
        s.base_insert(CLASS_LIST, v("math"), v("john"));
        s.base_insert(CLASS_LIST, v("math"), v("bill"));
        s
    }

    #[test]
    fn truth_matches_interpreter_on_paper_instance() {
        let mut s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        interp::derived_delete(&mut s, &d, &v("euclid"), &v("john"), limits);
        for (x, y) in [
            ("euclid", "john"),
            ("euclid", "bill"),
            ("laplace", "john"),
            ("laplace", "bill"),
            ("gauss", "john"),
        ] {
            assert_eq!(
                derived_truth(&s, &d, &v(x), &v(y), limits),
                interp::derived_truth(&s, &d, &v(x), &v(y), limits),
                "pair ({x}, {y})"
            );
        }
    }

    #[test]
    fn extension_matches_interpreter_after_delete() {
        let mut s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        interp::derived_delete(&mut s, &d, &v("euclid"), &v("john"), limits);
        assert_eq!(
            derived_extension(&s, &d, limits),
            interp::derived_extension(&s, &d, limits)
        );
    }

    #[test]
    fn image_equals_extension_filtered() {
        let s = paper_instance();
        let d = [pupil()];
        let limits = ChainLimits::default();
        let by_filter: Vec<DerivedPair> = derived_extension(&s, &d, limits)
            .into_iter()
            .filter(|p| p.x == v("euclid"))
            .collect();
        assert_eq!(derived_image(&s, &d, &v("euclid"), limits), by_filter);
        let by_filter: Vec<DerivedPair> = derived_extension(&s, &d, limits)
            .into_iter()
            .filter(|p| p.y == v("john"))
            .collect();
        assert_eq!(derived_inverse_image(&s, &d, &v("john"), limits), by_filter);
    }

    #[test]
    fn all_directions_agree_on_truth_chains() {
        let mut s = paper_instance();
        let n1 = s.fresh_null();
        s.base_insert(TEACH, v("gauss"), n1.clone());
        s.base_insert(CLASS_LIST, n1, v("ada"));
        let d = pupil();
        let limits = ChainLimits::default();
        for (x, y) in [("laplace", "john"), ("gauss", "ada"), ("gauss", "john")] {
            let (vx, vy) = (v(x), v(y));
            let spec = QuerySpec::truth(&vx, &vy, true);
            let mut sets: Vec<Vec<_>> = [
                Direction::Forward,
                Direction::Backward,
                Direction::MeetInMiddle { split: 1 },
            ]
            .into_iter()
            .map(|dir| {
                let mut chains =
                    chains_with_direction(&s, &d, &spec, limits, &Ungoverned, dir).value();
                chains.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                chains
            })
            .collect();
            let reference = sets.pop().unwrap();
            for set in sets {
                assert_eq!(set, reference, "pair ({x}, {y})");
            }
            let mut interp_chains = interp::chains_deriving(&s, &d, &v(x), &v(y), true, limits);
            interp_chains.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            assert_eq!(interp_chains, reference, "interp vs planned ({x}, {y})");
        }
    }

    #[test]
    fn forward_capped_prefix_matches_interpreter() {
        let mut s = Store::new(2);
        for i in 0..20 {
            s.base_insert(TEACH, v("x"), v(&format!("m{i}")));
            s.base_insert(CLASS_LIST, v(&format!("m{i}")), v("y"));
        }
        let d = pupil();
        let limits = ChainLimits { max_chains: 5 };
        let (vx, vy) = (v("x"), v("y"));
        let spec = QuerySpec::truth(&vx, &vy, true);
        let planned = chains_with_direction(&s, &d, &spec, limits, &Ungoverned, Direction::Forward);
        let reference = interp::chains_deriving(&s, &d, &v("x"), &v("y"), true, limits);
        assert_eq!(planned.reason(), Some(StopReason::Cap));
        assert_eq!(planned.value(), reference);
    }

    #[test]
    fn delete_through_pipeline_matches_interpreter_ncs() {
        let d = [pupil()];
        let limits = ChainLimits::default();
        let mut s1 = paper_instance();
        let mut s2 = paper_instance();
        let a = derived_delete_with_policy(
            &mut s1,
            &d,
            &v("euclid"),
            &v("john"),
            DeletePolicy::Faithful,
            limits,
        );
        let b = interp::derived_delete(&mut s2, &d, &v("euclid"), &v("john"), limits);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&s1).unwrap(),
            serde_json::to_string(&s2).unwrap()
        );
    }
}
