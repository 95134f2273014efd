//! The streaming chain executor.
//!
//! Replaces the one-row-at-a-time recursion of `fdb_storage::chain` with
//! frontier execution over *binding sets*: one level of nodes per
//! derivation step, each node recording the index of the row it
//! consumed, a reference to the value it carries to the next step, and
//! the accumulated match quality and truth flags. Nodes borrow from the
//! store, so a frontier clones no value, and a node's prefix is shared by
//! all of its extensions through a parent pointer.
//!
//! Each completed chain goes to a caller-supplied *sink* as its members —
//! `(FunctionId, row)` pairs in derivation-step order — plus its match
//! quality and flags, and the sink may stop the walk. Two sinks exist:
//! [`chains_with_direction`] collects [`Chain`]s, building [`Fact`]s only
//! at emission, and the truth evaluation in [`crate::eval`] stops at the
//! first chain that proves its fact true.
//!
//! Semantics are the interpreter's, preserved exactly:
//!
//! * every candidate row examined costs one `Governance::tick`, every
//!   emitted chain one `charge(1)`;
//! * the `ChainLimits` cap is *exact*: `StopReason::Cap` is reported only
//!   when one more chain provably exists beyond `max_chains`, and that
//!   chain never reaches the sink;
//! * a governed stop ends the walk after the chains emitted so far — a
//!   sound prefix, so truth answers derived from them remain lower
//!   bounds on the `False < Ambiguous < True` lattice;
//! * in [`Direction::Forward`] chains are emitted in the interpreter's
//!   lexicographic order, so even *capped* prefixes are identical.
//!
//! [`Direction::Backward`] and [`Direction::MeetInMiddle`] emit the same
//! chain *set* (links are symmetric — [`fdb_types::Value::matches`] is a
//! symmetric relation and `MatchKind::and` is commutative), in a
//! different order.

use std::cmp::Ordering;
use std::ops::{ControlFlow, Range};

use fdb_governor::{Governance, Outcome, StopReason};
use fdb_storage::{Chain, ChainLimits, Fact, Store, Table, Truth};
use fdb_types::{Derivation, FunctionId, MatchKind, Op, Step, Value};

use crate::plan::{Bind, ChainPlan, Direction, QuerySpec};

/// One member of a completed chain: the function of its step and the
/// index of the row it consumed in that function's table.
pub(crate) type Member = (FunctionId, usize);

/// A completed chain as the executor hands it to a sink. `members` is the
/// executor's scratch buffer, valid for the duration of the call.
#[derive(Clone, Copy)]
pub(crate) struct ChainRows<'c> {
    /// Members in derivation-step order.
    pub members: &'c [Member],
    /// Combined match quality of all links and both endpoints.
    pub matching: MatchKind,
    /// Three-valued conjunction of the members' truth flags.
    pub flags: Truth,
}

/// A run of derivation steps walked in one direction: the whole
/// derivation for a linear walk, one half of a meet-in-the-middle walk.
#[derive(Clone, Copy)]
struct Path<'d> {
    steps: &'d [Step],
    /// Derivation-step index of `steps[0]`.
    offset: usize,
    backward: bool,
}

impl Path<'_> {
    fn len(&self) -> usize {
        self.steps.len()
    }

    /// Derivation-step index of processing depth `d`.
    fn step_index(&self, d: usize) -> usize {
        self.offset
            + if self.backward {
                self.steps.len() - 1 - d
            } else {
                d
            }
    }

    fn step(&self, d: usize) -> &Step {
        &self.steps[self.step_index(d) - self.offset]
    }

    /// Whether the value matched against the incoming binding at depth
    /// `d` is the row's `x` (domain) value: an identity step is entered
    /// through `x` walking forward, an inverse step walking backward.
    fn match_on_x(&self, d: usize) -> bool {
        (self.step(d).op == Op::Inverse) == self.backward
    }
}

/// One frontier node: a row consumed at some depth plus the accumulated
/// state of the partial chain ending (forward) or starting (backward) at
/// it.
#[derive(Clone, Copy)]
struct Node<'s> {
    /// Arena index of the node at the previous depth (`usize::MAX` for
    /// seed nodes).
    parent: usize,
    /// Row index in the depth's table.
    row: usize,
    /// The boundary value carried to the next step: the row's right value
    /// walking forward, its left value walking backward.
    carried: &'s Value,
    matching: MatchKind,
    flags: Truth,
}

/// The partial chain an expansion extends — a node's arena index,
/// matching and flags — or, for a seed level, the empty prefix.
type Prefix = (usize, MatchKind, Truth);

const SEED: Prefix = (usize::MAX, MatchKind::Exact, Truth::True);

/// The link a candidate row makes with the probing bind: unbound seeds
/// and exact index probes constrain nothing beyond row identity, so they
/// contribute an exact "link".
fn link(probe: Bind<'_>, match_value: &Value) -> MatchKind {
    match probe {
        Bind::Unbound | Bind::Exact(_) => MatchKind::Exact,
        Bind::Matches(v) => v.matches(match_value),
    }
}

/// The rows of `table` a probe selects, matched on `x` or `y`, straight
/// off the table's indexes.
fn candidates<'t>(
    table: &'t Table,
    on_x: bool,
    probe: Bind<'t>,
    amb: bool,
) -> impl Iterator<Item = usize> + 't {
    fn opt<I: Iterator>(it: Option<I>) -> impl Iterator<Item = I::Item> {
        it.into_iter().flatten()
    }
    let (scan, key, nulls) = match probe {
        Bind::Unbound => (true, None, false),
        Bind::Exact(v) => (false, Some(v), false),
        // A null matches everything at least ambiguously.
        Bind::Matches(v) if amb && v.is_null() => (true, None, false),
        Bind::Matches(v) => (false, Some(v), amb),
    };
    opt(scan.then(|| table.live_indices()))
        .chain(opt(key.filter(|_| on_x).map(|v| table.rows_with_x(v))))
        .chain(opt(key.filter(|_| !on_x).map(|v| table.rows_with_y(v))))
        .chain(opt((nulls && on_x).then(|| table.rows_with_null_x())))
        .chain(opt((nulls && !on_x).then(|| table.rows_with_null_y())))
}

/// Why a walk ended before running out of candidates.
enum Halt {
    /// The governor or the chain cap stopped it.
    Stop(StopReason),
    /// The sink had what it needed.
    Sink,
}

impl From<StopReason> for Halt {
    fn from(r: StopReason) -> Self {
        Halt::Stop(r)
    }
}

/// Writes the members of the partial chain ending at `arena[index]`
/// (processing depth `depth` of `path`) into their derivation-step slots.
fn fill(members: &mut [Member], arena: &[Node<'_>], path: Path<'_>, index: usize, depth: usize) {
    let mut i = index;
    for d in (0..=depth).rev() {
        let n = &arena[i];
        members[path.step_index(d)] = (path.step(d).function, n.row);
        i = n.parent;
    }
}

/// Per-query state of one walk.
struct Walk<'s, 'g, G, S> {
    store: &'s Store,
    amb: bool,
    limits: ChainLimits,
    governor: &'g G,
    /// Candidate rows examined: counted locally and flushed to the
    /// registry once per query, so the inner loop stays within the
    /// observability overhead contract.
    rows: u64,
    /// Chains handed to the sink.
    emitted: usize,
    /// Steps of the derivation (the length of every chain).
    len: usize,
    members: Vec<Member>,
    sink: S,
}

impl<'s, G, S> Walk<'s, '_, G, S>
where
    G: Governance,
    S: FnMut(ChainRows<'_>) -> ControlFlow<()>,
{
    /// Visits every row at `depth` of `path` that `probe` links to, as an
    /// extension of the given prefix.
    fn expand<'p>(
        &mut self,
        path: Path<'_>,
        depth: usize,
        (parent, from_matching, from_flags): Prefix,
        probe: Bind<'p>,
        mut visit: impl FnMut(&mut Self, Node<'s>) -> Result<(), Halt>,
    ) -> Result<(), Halt>
    where
        's: 'p,
    {
        let table: &'s Table = self.store.table(path.step(depth).function);
        let on_x = path.match_on_x(depth);
        for i in candidates(table, on_x, probe, self.amb) {
            self.rows += 1;
            self.governor.tick()?;
            let Some(row) = table.row(i) else { continue };
            let link = link(probe, if on_x { row.x } else { row.y });
            if link == MatchKind::None {
                continue;
            }
            let matching = from_matching.and(link);
            if !self.amb && matching != MatchKind::Exact {
                continue;
            }
            let node = Node {
                parent,
                row: i,
                carried: if on_x { row.y } else { row.x },
                matching,
                flags: from_flags.and(row.truth),
            };
            visit(self, node)?;
        }
        Ok(())
    }

    /// Builds the first `depths` levels of `path` into `arena`, returning
    /// the arena range of the last one.
    fn build(
        &mut self,
        path: Path<'_>,
        depths: usize,
        seed: &Bind<'_>,
        arena: &mut Vec<Node<'s>>,
    ) -> Result<Range<usize>, Halt> {
        let mut level = 0..0;
        for depth in 0..depths {
            let start = arena.len();
            if depth == 0 {
                self.expand(path, 0, SEED, *seed, |_, n| {
                    arena.push(n);
                    Ok(())
                })?;
            } else {
                for p in level.clone() {
                    let parent = arena[p];
                    let probe = Bind::Matches(parent.carried);
                    self.expand(
                        path,
                        depth,
                        (p, parent.matching, parent.flags),
                        probe,
                        |_, n| {
                            arena.push(n);
                            Ok(())
                        },
                    )?;
                }
            }
            level = start..arena.len();
        }
        Ok(level)
    }

    /// Hands one completed chain to the sink, enforcing the exact cap and
    /// the governor's memory budget; `fill` writes its members.
    fn emit(
        &mut self,
        matching: MatchKind,
        flags: Truth,
        fill: impl FnOnce(&mut [Member]),
    ) -> Result<(), Halt> {
        if self.emitted >= self.limits.max_chains {
            return Err(Halt::Stop(StopReason::Cap));
        }
        self.governor.charge(1)?;
        self.emitted += 1;
        self.members.resize(self.len, (FunctionId(0), 0));
        fill(&mut self.members);
        match (self.sink)(ChainRows {
            members: &self.members,
            matching,
            flags,
        }) {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(()) => Err(Halt::Sink),
        }
    }

    /// Forward or backward linear execution: build every level but the
    /// last, then stream the last one through the far endpoint's gate.
    fn run_linear(&mut self, path: Path<'_>, seed: &Bind<'_>, last: &Bind<'_>) -> Result<(), Halt> {
        let k = path.len();
        let mut arena = Vec::new();
        let sources = self.build(path, k - 1, seed, &mut arena)?;
        fdb_obs::registry()
            .exec_frontier_nodes
            .record(arena.len() as u64);
        let arena = &arena;
        let close = |w: &mut Self, n: Node<'s>| {
            let (matching, ok) = match *last {
                Bind::Unbound => (n.matching, true),
                Bind::Exact(g) => (n.matching, n.carried == g),
                Bind::Matches(g) => {
                    let m = n.matching.and(n.carried.matches(g));
                    (m, m != MatchKind::None && (w.amb || m == MatchKind::Exact))
                }
            };
            if !ok {
                return Ok(());
            }
            w.emit(matching, n.flags, |members| {
                members[path.step_index(k - 1)] = (path.step(k - 1).function, n.row);
                if k > 1 {
                    fill(members, arena, path, n.parent, k - 2);
                }
            })
        };
        if k == 1 {
            return self.expand(path, 0, SEED, *seed, close);
        }
        for p in sources {
            let parent = arena[p];
            self.expand(
                path,
                k - 1,
                (p, parent.matching, parent.flags),
                Bind::Matches(parent.carried),
                close,
            )?;
        }
        Ok(())
    }

    /// Meet-in-the-middle execution for fully bound queries: forward half
    /// over `steps[..split]`, backward half over `steps[split..]`, joined
    /// on the boundary value.
    fn run_mitm(
        &mut self,
        steps: &[Step],
        split: usize,
        left: &Bind<'_>,
        right: &Bind<'_>,
    ) -> Result<(), Halt> {
        let fwd_path = Path {
            steps: &steps[..split],
            offset: 0,
            backward: false,
        };
        let bwd_path = Path {
            steps: &steps[split..],
            offset: split,
            backward: true,
        };
        let mut fwd = Vec::new();
        let fwd_last = self.build(fwd_path, fwd_path.len(), left, &mut fwd)?;
        let mut bwd = Vec::new();
        let bwd_last = self.build(bwd_path, bwd_path.len(), right, &mut bwd)?;
        fdb_obs::registry()
            .exec_frontier_nodes
            .record((fwd.len() + bwd.len()) as u64);

        // Backward partials ordered by boundary value for exact probes
        // (a stable sort keeps each value's partials in arena order), then
        // the null boundaries in arena order: a null matches anything
        // ambiguously.
        let mut order: Vec<usize> = bwd_last.clone().collect();
        order.sort_by(|&a, &b| match (bwd[a].carried, bwd[b].carried) {
            (Value::Null(_), Value::Null(_)) => Ordering::Equal,
            (Value::Null(_), _) => Ordering::Greater,
            (_, Value::Null(_)) => Ordering::Less,
            (va, vb) => va.cmp(vb),
        });
        let (valued, nulls) = order.split_at(order.partition_point(|&i| !bwd[i].carried.is_null()));

        let (fwd_depth, bwd_depth) = (fwd_path.len() - 1, bwd_path.len() - 1);
        for fi in fwd_last {
            let fp = fwd[fi];
            let null = fp.carried.is_null();
            let everything = (self.amb && null).then(|| bwd_last.clone());
            let bucket = if null {
                &[][..]
            } else {
                let lo = valued.partition_point(|&i| bwd[i].carried < fp.carried);
                let hi = valued.partition_point(|&i| bwd[i].carried <= fp.carried);
                &valued[lo..hi]
            };
            let same_null = (!self.amb && null).then(|| {
                nulls
                    .iter()
                    .copied()
                    .filter(|&i| bwd[i].carried == fp.carried)
            });
            let null_ext = if self.amb && !null { nulls } else { &[] };
            let candidates = everything
                .into_iter()
                .flatten()
                .chain(bucket.iter().copied())
                .chain(same_null.into_iter().flatten())
                .chain(null_ext.iter().copied());
            for bi in candidates {
                self.rows += 1;
                self.governor.tick()?;
                let bp = &bwd[bi];
                let link = fp.carried.matches(bp.carried);
                if link == MatchKind::None {
                    continue;
                }
                let m = fp.matching.and(link).and(bp.matching);
                if !self.amb && m != MatchKind::Exact {
                    continue;
                }
                self.emit(m, fp.flags.and(bp.flags), |members| {
                    fill(members, &fwd, fwd_path, fi, fwd_depth);
                    fill(members, &bwd, bwd_path, bi, bwd_depth);
                })?;
            }
        }
        Ok(())
    }
}

/// Walks the chains of `derivation` under `spec` in the given
/// [`Direction`], handing each to `sink`; returns the number of chains
/// emitted and the governor or cap stop, if any (a stop requested by the
/// sink is not one). A meet-in-the-middle direction with an invalid split
/// (0, or ≥ the step count) or an unbound endpoint falls back to forward
/// execution.
pub(crate) fn execute<G, S>(
    store: &Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
    direction: Direction,
    sink: S,
) -> (usize, Option<StopReason>)
where
    G: Governance,
    S: FnMut(ChainRows<'_>) -> ControlFlow<()>,
{
    let steps = derivation.steps();
    let mut walk = Walk {
        store,
        amb: spec.allow_ambiguous,
        limits,
        governor,
        rows: 0,
        emitted: 0,
        len: steps.len(),
        members: Vec::new(),
        sink,
    };
    let linear = |backward| Path {
        steps,
        offset: 0,
        backward,
    };
    let result = match direction {
        Direction::MeetInMiddle { split }
            if split >= 1
                && split < steps.len()
                && spec.left.is_bound()
                && spec.right.is_bound() =>
        {
            walk.run_mitm(steps, split, &spec.left, &spec.right)
        }
        Direction::Backward => walk.run_linear(linear(true), &spec.right, &spec.left),
        _ => walk.run_linear(linear(false), &spec.left, &spec.right),
    };
    let reg = fdb_obs::registry();
    reg.exec_rows_examined.add(walk.rows);
    reg.exec_chains_emitted.add(walk.emitted as u64);
    reg.exec_chains_per_query.record(walk.emitted as u64);
    let stop = match result {
        Err(Halt::Stop(r)) => Some(r),
        Ok(()) | Err(Halt::Sink) => None,
    };
    (walk.emitted, stop)
}

/// Plans and executes: compiles a [`ChainPlan`] for the query shape, runs
/// the chosen direction into `sink`, and records both stages as
/// `fdb.exec.plan` / `fdb.exec.execute` spans. Returns the plan, the
/// number of chains emitted and the stop, if any.
pub(crate) fn execute_planned<G, S>(
    store: &Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
    sink: S,
) -> (ChainPlan, usize, Option<StopReason>)
where
    G: Governance,
    S: FnMut(ChainRows<'_>) -> ControlFlow<()>,
{
    let plan = {
        let plan_span = fdb_obs::causal::child_span("fdb.exec.plan", String::new);
        let plan = crate::plan::plan(store, derivation, spec);
        if plan_span.is_recording() {
            plan_span.annotate("dir", format_args!("{:?}", plan.direction));
            plan_span.annotate("est_cost", format_args!("{:.0}", plan.est_cost));
            plan_span.annotate("est_chains", format_args!("{:.1}", plan.est_chains));
        }
        plan
    };
    let mut exec_span = fdb_obs::causal::child_span("fdb.exec.execute", String::new);
    let (emitted, stop) = execute(
        store,
        derivation,
        spec,
        limits,
        governor,
        plan.direction,
        sink,
    );
    if exec_span.is_recording() {
        exec_span.annotate("est_chains", format_args!("{:.1}", plan.est_chains));
        exec_span.annotate("actual_chains", emitted);
        if let Some(stop) = stop {
            exec_span.annotate("stop", format_args!("{stop:?}"));
            exec_span.set_error();
        }
    }
    (plan, emitted, stop)
}

/// The collecting sink: builds each emitted chain's [`Fact`]s from its
/// member rows and appends it to `out`.
fn collect_into<'a>(
    store: &'a Store,
    out: &'a mut Vec<Chain>,
) -> impl FnMut(ChainRows<'_>) -> ControlFlow<()> + 'a {
    move |chain| {
        let facts = chain
            .members
            .iter()
            .map(|&(function, i)| {
                let row = store
                    .table(function)
                    .row(i)
                    .expect("an emitted member row is live");
                Fact {
                    function,
                    x: row.x.clone(),
                    y: row.y.clone(),
                }
            })
            .collect();
        out.push(Chain {
            facts,
            matching: chain.matching,
            flags: chain.flags,
        });
        ControlFlow::Continue(())
    }
}

/// Enumerates the chains of `derivation` under `spec`, walking in the
/// given [`Direction`]. A meet-in-the-middle direction with an invalid
/// split (0, or ≥ the step count) or an unbound endpoint falls back to
/// forward execution.
pub fn chains_with_direction<G: Governance>(
    store: &Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
    direction: Direction,
) -> Outcome<Vec<Chain>> {
    let mut out = Vec::new();
    let (_, stop) = execute(
        store,
        derivation,
        spec,
        limits,
        governor,
        direction,
        collect_into(store, &mut out),
    );
    Outcome::new(out, stop)
}

/// Plans and executes: compiles a [`ChainPlan`] for the query shape and
/// collects the chains of the chosen direction.
pub fn chains_planned<G: Governance>(
    store: &Store,
    derivation: &Derivation,
    spec: &QuerySpec<'_>,
    limits: ChainLimits,
    governor: &G,
) -> (ChainPlan, Outcome<Vec<Chain>>) {
    let mut out = Vec::new();
    let (plan, _, stop) = execute_planned(
        store,
        derivation,
        spec,
        limits,
        governor,
        collect_into(store, &mut out),
    );
    (plan, Outcome::new(out, stop))
}
