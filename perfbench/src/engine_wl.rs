//! `read_hot` and `derived_update`: one client driving `Engine`.

use std::time::{Duration, Instant};

use fdb_core::Database;
use fdb_lang::{lower, parse_statement_spanned, Engine};
use fdb_obs::causal;
use fdb_types::{Result, Value};

use crate::gen::{self, DerivedUpdateGen, Facts, Op, ReadHotGen};
use crate::phase::{self, Phase};
use crate::replay::check_replay;
use crate::report::{counters, Deltas, Report};
use crate::spans;
use crate::stats::median;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    DerivedUpdate,
}

/// Measurement window: tens of thousands of ops.
const WINDOW: Duration = Duration::from_millis(500);
/// Traced ops between drains of the span ring (a transaction frame
/// leaves about 25 spans, so the 4,096-entry ring never wraps).
const DRAIN_EVERY: usize = 32;

impl Workload {
    fn shape(self) -> gen::Shape {
        match self {
            Workload::ReadHot => gen::LARGE,
            Workload::DerivedUpdate => gen::SMALL,
        }
    }

    /// Ops per epoch. After each, the engine is checked and replaced,
    /// untimed, by a fresh session over the seeded start state.
    fn epoch_ops(self) -> usize {
        match self {
            Workload::ReadHot => gen::read_hot::EPOCH_OPS,
            Workload::DerivedUpdate => gen::derived_update::EPOCH_OPS,
        }
    }

    /// Builds of the start state timed for `setup_s`, whose median is
    /// reported: the first builds of a process run slower, so there are
    /// enough for the median to fall among the later ones.
    fn setups(self) -> usize {
        match self {
            Workload::ReadHot => 9,
            Workload::DerivedUpdate => 101,
        }
    }
}

enum Generator {
    ReadHot(ReadHotGen),
    DerivedUpdate(DerivedUpdateGen),
}

impl Generator {
    fn new(w: Workload, seed: u64, facts: &Facts) -> Self {
        match w {
            Workload::ReadHot => Generator::ReadHot(ReadHotGen::new(seed, facts.clone())),
            Workload::DerivedUpdate => {
                Generator::DerivedUpdate(DerivedUpdateGen::new(seed, facts.clone()))
            }
        }
    }

    fn next_op(&mut self) -> Op {
        match self {
            Generator::ReadHot(g) => g.next_op(),
            Generator::DerivedUpdate(g) => g.next_op(),
        }
    }

    fn new_epoch(&mut self) {
        if let Generator::ReadHot(g) = self {
            g.new_epoch();
        }
    }
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report> {
    let mut r = Report::default();
    let mut setup_times = Vec::new();
    let mut start = None;
    for _ in 0..w.setups() {
        drop(start.take());
        let t0 = Instant::now();
        start = Some(gen::build_instance(seed, w.shape())?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let start = start.expect("at least one set-up");
    let facts = Facts::of(&start, w.shape())?;
    r.property("setup_reps", setup_times.len());
    r.property("start_base_facts", start.stats().base_facts);

    // A traced run splits its time between an untraced and a traced
    // phase over the same seed.
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let (plain, gen) = run_phase(w, &start, &facts, seed, phase_s, false, &mut r)?;
    r.attempted = plain.attempted;
    r.failed = plain.failed;
    let end_facts: Vec<f64> = plain
        .epoch_end
        .iter()
        .map(|s| s.base_facts as f64)
        .collect();
    r.property("end_base_facts_median", median(&end_facts));
    r.property("epochs", plain.epoch_end.len());
    r.property("epoch_ops", w.epoch_ops());
    match &gen {
        Generator::ReadHot(g) => {
            r.property(
                "repeated_key_share",
                g.repeated_reads as f64 / g.reads.max(1) as f64,
            );
            r.property(
                "support_write_share",
                g.support_writes as f64 / g.ops.max(1) as f64,
            );
            r.property("hot_pairs", gen::read_hot::HOT_PAIRS);
            r.property("hot_read_share", gen::read_hot::HOT_READ);
            r.property("image_share", gen::read_hot::IMAGE);
            r.property("office_write_share", gen::read_hot::OFFICE_WRITE);
        }
        Generator::DerivedUpdate(_) => {
            r.property(
                "nc_density_at_epoch_end",
                plain.density(|s| s.ncs).unwrap_or(0.0),
            );
            r.property(
                "null_fact_density_at_epoch_end",
                plain.density(|s| s.null_facts).unwrap_or(0.0),
            );
        }
    }

    if trace {
        let (traced, _) = run_phase(w, &start, &facts, seed, phase_s, true, &mut r)?;
        r.attempted += traced.attempted;
        r.failed += traced.failed;
        phase::per_layer(&mut r, &plain, &traced);
    } else {
        phase::end_to_end(&mut r, &plain, median(&setup_times));
    }
    Ok(r)
}

struct Runner<'a> {
    start: &'a Database,
    engine: Engine,
    pupil: fdb_types::FunctionId,
    traced: bool,
    line: u32,
    /// State-changing ops since the epoch's start state.
    log: Vec<Op>,
    phase: Phase,
}

/// Runs one phase from the start state, returning it with the
/// generator as the phase left it.
fn run_phase(
    w: Workload,
    start: &Database,
    facts: &Facts,
    seed: u64,
    seconds: f64,
    traced: bool,
    r: &mut Report,
) -> Result<(Phase, Generator)> {
    let mut gen = Generator::new(w, seed, facts);
    let mut run = Runner {
        start,
        engine: Engine::with_database(start.clone()),
        pupil: start.resolve(gen::PUPIL)?,
        traced,
        line: 0,
        log: Vec::new(),
        phase: Phase::new(WINDOW, Duration::from_secs_f64(seconds)),
    };
    let rec = causal::recorder();
    let dropped_before = rec.dropped();
    if traced {
        causal::set_sample_rate(1);
        causal::set_tracing(true);
        rec.clear();
    }
    let before = counters();
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs_f64(seconds);
    let mut in_epoch = 0;
    let mut since_drain = 0;
    while Instant::now() < deadline {
        let op = gen.next_op();
        let kind = op.kind();
        let statements = op.statements();
        let t0 = Instant::now();
        let out = {
            let _root = traced.then(|| causal::root_span(spans::OP, || kind.label().to_owned()));
            run.execute(&statements)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        run.phase.attempted += 1;
        let window = run.phase.window(t0 - t_start);
        match out {
            Ok(out) => {
                window.lat.entry(kind).or_default().push(ns);
                if traced {
                    if let Op::Truth { x, y } = &op {
                        run.check_truth(x, y, &out, r);
                    }
                }
            }
            Err(e) => {
                run.phase.failed += 1;
                if run.phase.failed <= 3 {
                    r.problem(format!("{statements:?} failed: {e}"));
                }
            }
        }
        run.note(op);
        if traced {
            since_drain += 1;
            if since_drain == DRAIN_EVERY {
                run.phase.layers.absorb(drain());
                since_drain = 0;
            }
        }
        in_epoch += 1;
        if in_epoch == w.epoch_ops() {
            run.end_epoch(r);
            gen.new_epoch();
            in_epoch = 0;
        }
    }
    let after = counters();
    if traced {
        run.phase.layers.absorb(drain());
        causal::set_tracing(false);
        let dropped = rec.dropped() - dropped_before;
        if dropped > 0 {
            r.problem(format!("the span ring dropped {dropped} spans"));
        }
    }
    if in_epoch > 0 {
        run.end_epoch(r);
    }
    run.phase.deltas = Deltas::between(&before, &after);
    Ok((run.phase, gen))
}

/// Takes every completed span out of the ring.
pub fn drain() -> Vec<causal::SpanRecord> {
    let rec = causal::recorder();
    let spans = rec.recent();
    rec.clear();
    spans
}

impl Runner<'_> {
    /// Runs an op's statements through the front door: `execute_line`
    /// untraced, or parse, lower and execute under their own spans.
    fn execute(&mut self, statements: &[String]) -> Result<String> {
        let mut out = String::new();
        for stmt in statements {
            let res = if self.traced {
                self.execute_traced(stmt)
            } else {
                self.engine.execute_line(stmt)
            };
            match res {
                Ok(o) => out = o,
                Err(e) => {
                    if self.engine.database().txn_active() {
                        self.engine.execute_line("ABORT")?;
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn execute_traced(&mut self, stmt: &str) -> Result<String> {
        self.line += 1;
        let spanned = {
            let _s = causal::child_span(spans::PARSE, String::new);
            parse_statement_spanned(stmt, self.line)?
        };
        {
            let _s = causal::child_span(spans::LOWER, String::new);
            std::hint::black_box(lower(&spanned));
        }
        let _s = causal::child_span(spans::EXECUTE, String::new);
        self.engine.execute(spanned.stmt)
    }

    fn note(&mut self, op: Op) {
        if op.mutates() {
            self.log.push(op);
        }
    }

    /// Checks a (possibly cached) `TRUTH` answer against an uncached
    /// `Database::truth` on the same state, timed as the query layer's
    /// own cost.
    fn check_truth(&mut self, x: &str, y: &str, answer: &str, r: &mut Report) {
        let (vx, vy) = (Value::atom(x), Value::atom(y));
        let direct = {
            let _s = causal::root_span(spans::TRUTH, String::new);
            self.engine.database().truth(self.pupil, &vx, &vy)
        };
        match direct {
            Ok(t) if answer == format!("{}\n", t.flag()) => {}
            Ok(t) => r.problem(format!(
                "TRUTH pupil({x}, {y}): engine answered {answer:?}, Database::truth {}",
                t.flag()
            )),
            Err(e) => r.problem(format!("Database::truth pupil({x}, {y}) failed: {e}")),
        }
    }

    /// Checks the epoch by direct replay, records its end state, and
    /// starts the next epoch on a fresh engine over the start state.
    fn end_epoch(&mut self, r: &mut Report) {
        if let Err(e) = check_replay(self.start, &self.log, self.engine.database()) {
            r.problem(e);
        }
        self.phase.epoch_end.push(self.engine.database().stats());
        self.engine = Engine::with_database(self.start.clone());
        self.log.clear();
    }
}
