//! `durable_write`: concurrent clients on `SharedLoggedDatabase` over
//! `FileStorage`, under `SyncPolicy::Always` and the default
//! `DurabilityConfig`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use fdb_core::{
    Database, DurabilityConfig, FileStorage, LoggedDatabase, SharedLoggedDatabase, SyncPolicy,
    Update,
};
use fdb_obs::causal;
use fdb_types::{FdbError, FunctionId, Result, Value};

use crate::engine_wl::drain;
use crate::gen::{self, DurableGen, Facts, Op};
use crate::phase::{self, Phase};
use crate::report::{counters, Deltas, Report};
use crate::spans::{self, Layers};
use crate::stats::median;

use gen::durable_write::CLIENTS;

/// Set-up repeats (each loads about 51k facts through the WAL), whose
/// median is `setup_s`: the first builds of a process run slower.
const SETUPS: usize = 5;
/// Measurement window: about 600 ops at the rates seen on 2 cores.
const WINDOW: Duration = Duration::from_millis(2500);
/// Traced ops per client between span-ring drains.
const ROUND: usize = 16;
/// Copy-on-write probes after the traced phase.
const DETACH_PROBES: usize = 25;

/// The run's log directory under the working directory, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> Result<Self> {
        let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| FdbError::Internal(e.to_string()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Function ids the clients' updates name.
#[derive(Clone, Copy)]
struct Ids {
    pupil: FunctionId,
    class_list: FunctionId,
}

impl Ids {
    fn update(&self, op: &Op) -> Option<Update> {
        let Op::Write {
            insert,
            function,
            x,
            y,
        } = op
        else {
            return None;
        };
        let function = if *function == gen::PUPIL {
            self.pupil
        } else {
            self.class_list
        };
        let (x, y) = (Value::atom(x), Value::atom(y));
        Some(if *insert {
            Update::Insert { function, x, y }
        } else {
            Update::Delete { function, x, y }
        })
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report> {
    let mut r = Report::default();
    let run_dir = RunDir::new()?;
    let mut times = Vec::new();
    let mut dir = PathBuf::new();
    let mut shared = None;
    for rep in 0..SETUPS {
        drop(shared.take());
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = run_dir.0.join(format!("db{rep}"));
        let t0 = Instant::now();
        shared = Some(set_up(seed, &dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let shared = shared.expect("at least one set-up");
    let start = shared.pin();
    let facts = Facts::of(&start, gen::LARGE)?;
    let ids = Ids {
        pupil: start.resolve(gen::PUPIL)?,
        class_list: start.resolve(gen::CLASS_LIST)?,
    };
    let start_stats = start.stats();
    let class_rows = start.store().table(ids.class_list).len();
    drop(start);
    let band = (start_stats.base_facts, start_stats.base_facts + CLIENTS);
    r.property("clients", CLIENTS);
    r.property("sync_policy", "\"Always\"");
    r.property(
        "checkpoint_every",
        DurabilityConfig::default().checkpoint_every.unwrap_or(0),
    );
    r.property("class_list_rows", class_rows);
    r.property("start_base_facts", start_stats.base_facts);
    r.property("base_fact_band", format!("[{}, {}]", band.0, band.1));

    // A traced run splits its time between an untraced and a traced
    // phase over the same seed.
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let plain = run_clients(&shared, &facts, ids, seed, phase_s, false, &mut r)?;
    check_band(&shared, band, &mut r);
    r.attempted = plain.attempted;
    r.failed = plain.failed;
    let traced = if trace {
        let mut traced = run_clients(&shared, &facts, ids, seed, phase_s, true, &mut r)?;
        check_band(&shared, band, &mut r);
        r.attempted += traced.attempted;
        r.failed += traced.failed;
        traced.layers.absorb(detach_probes(&shared, ids)?);
        Some(traced)
    } else {
        None
    };
    let end = shared.pin();
    let end_stats = end.stats();
    r.property("end_base_facts", end_stats.base_facts);
    r.property("end_ncs", end_stats.ncs);
    let expected = end.to_snapshot()?;
    drop(end);

    // Drop every handle, then recover the directory from disk.
    let ldb = shared
        .try_unwrap()
        .map_err(|_| FdbError::Internal("a client still holds the handle".to_owned()))?;
    drop(ldb);
    let t0 = Instant::now();
    let (reopened, _) = LoggedDatabase::open(&dir)?;
    let recovery_s = t0.elapsed().as_secs_f64();
    if reopened.database().to_snapshot()? != expected {
        r.problem("the reopened state differs from the last published snapshot");
    }

    match traced {
        Some(traced) => {
            let mut plain = plain;
            plain.epoch_end.push(end_stats);
            phase::per_layer(&mut r, &plain, &traced);
            r.set("recovery_s", Some(recovery_s));
        }
        None => phase::end_to_end(&mut r, &plain, median(&times)),
    }
    Ok(r)
}

/// Loads the `read_hot` instance into a fresh log directory, then
/// reopens it with the default `DurabilityConfig`.
fn set_up(seed: u64, dir: &Path) -> Result<SharedLoggedDatabase> {
    let db = gen::build_instance(seed, gen::LARGE)?;
    let bulk = DurabilityConfig {
        sync_policy: SyncPolicy::OnCheckpoint,
        checkpoint_every: None,
        ..DurabilityConfig::default()
    };
    let mut ldb = LoggedDatabase::create_with(Arc::new(FileStorage), dir, bulk)?;
    ldb.import_schema(&db)?;
    for f in db.base_functions() {
        let name = &db.schema().function(f).name;
        for row in db.store().table(f).rows() {
            ldb.insert(name, row.x.clone(), row.y.clone())?;
        }
    }
    ldb.checkpoint()?;
    drop(ldb);
    let (ldb, _) = LoggedDatabase::open(dir)?;
    Ok(SharedLoggedDatabase::new(ldb))
}

fn check_band(shared: &SharedLoggedDatabase, band: (usize, usize), r: &mut Report) {
    let base = shared.pin().stats().base_facts;
    if base < band.0 || base > band.1 {
        r.problem(format!(
            "base facts left their band: {base} not in [{}, {}]",
            band.0, band.1
        ));
    }
}

/// One client's closed loop.
struct Client<'a> {
    shared: &'a SharedLoggedDatabase,
    t_start: Instant,
    ids: Ids,
    traced: bool,
    phase: Phase,
    problems: Vec<String>,
}

impl Client<'_> {
    fn op(&mut self, op: &Op) {
        let kind = op.kind();
        let update = self.ids.update(op);
        let t0 = Instant::now();
        let res = {
            let _root = self
                .traced
                .then(|| causal::root_span(spans::OP, || kind.label().to_owned()));
            self.execute(op, update.as_ref())
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.phase.attempted += 1;
        let window = self.phase.window(t0 - self.t_start);
        match res {
            Ok(()) => window.lat.entry(kind).or_default().push(ns),
            Err(e) => {
                self.phase.failed += 1;
                if self.phase.failed <= 3 {
                    self.problems
                        .push(format!("{:?} failed: {e}", op.statements()));
                }
            }
        }
    }

    fn execute(&self, op: &Op, update: Option<&Update>) -> Result<()> {
        let span = |name| self.traced.then(|| causal::child_span(name, String::new));
        match (op, update) {
            (Op::Truth { x, y }, _) => {
                let snap = {
                    let _s = span(spans::PIN);
                    self.shared.pin()
                };
                let truth = {
                    let _s = span(spans::TRUTH);
                    snap.truth(self.ids.pupil, &Value::atom(x), &Value::atom(y))
                };
                // Dropping the last pin of a superseded snapshot frees
                // its tables: the reader pays the reclamation.
                let _s = span(spans::UNPIN);
                drop(snap);
                truth.map(drop)
            }
            (_, Some(u)) => {
                let _s = span(spans::APPLY);
                self.shared.apply_update(u)
            }
            _ => Err(FdbError::Internal(format!("unsupported op {op:?}"))),
        }
    }
}

fn run_clients(
    shared: &SharedLoggedDatabase,
    facts: &Facts,
    ids: Ids,
    seed: u64,
    seconds: f64,
    traced: bool,
    r: &mut Report,
) -> Result<Phase> {
    let rec = causal::recorder();
    let dropped_before = rec.dropped();
    if traced {
        causal::set_sample_rate(1);
        causal::set_tracing(true);
        rec.clear();
    }
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(CLIENTS);
    let layers = Mutex::new(Layers::default());
    let before = counters();
    let t0 = Instant::now();
    let length = Duration::from_secs_f64(seconds);
    let deadline = t0 + length;
    let results: Vec<(Phase, Vec<String>, Option<Op>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (stop, barrier, layers) = (&stop, &barrier, &layers);
                let mut gen = DurableGen::new(seed, c, facts.clone());
                s.spawn(move || {
                    let mut client = Client {
                        shared,
                        t_start: t0,
                        ids,
                        traced,
                        phase: Phase::new(WINDOW, length),
                        problems: Vec::new(),
                    };
                    if traced {
                        // Rounds end at a barrier where no span is open;
                        // one client drains the ring there.
                        loop {
                            for _ in 0..ROUND {
                                client.op(&gen.next_op());
                            }
                            if barrier.wait().is_leader() {
                                layers.lock().expect("no client panicked").absorb(drain());
                                if Instant::now() >= deadline {
                                    stop.store(true, Ordering::SeqCst);
                                }
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                    } else {
                        while Instant::now() < deadline {
                            client.op(&gen.next_op());
                        }
                    }
                    (client.phase, client.problems, gen.finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = counters();
    if traced {
        causal::set_tracing(false);
        let dropped = rec.dropped() - dropped_before;
        if dropped > 0 {
            r.problem(format!("the span ring dropped {dropped} spans"));
        }
    }

    let mut phase = Phase::new(WINDOW, length);
    phase.deltas = Deltas::between(&before, &after);
    phase.layers = layers.into_inner().expect("no client panicked");
    for (p, problems, finish) in results {
        phase.merge(p);
        for msg in problems {
            r.problem(msg);
        }
        // Take back the client's outstanding insert, untimed, so the
        // table ends the phase at its start size.
        if let Some(u) = finish.as_ref().and_then(|op| ids.update(op)) {
            shared.apply_update(&u)?;
        }
    }
    Ok(phase)
}

/// Times the table copy a write pays after publication: one
/// `Database::apply` on a private clone of a pinned snapshot while the
/// pin is held.
fn detach_probes(shared: &SharedLoggedDatabase, ids: Ids) -> Result<Vec<causal::SpanRecord>> {
    causal::set_tracing(true);
    let mut out = Vec::new();
    for i in 0..DETACH_PROBES {
        let pin = shared.pin();
        let mut private: Database = (*pin).clone();
        let update = Update::Insert {
            function: ids.class_list,
            x: Value::atom("course0"),
            y: Value::atom(format!("detach{i}")),
        };
        {
            let _s = causal::root_span(spans::DETACH, String::new);
            private.apply(update)?;
        }
        drop(pin);
        out.extend(drain());
    }
    causal::set_tracing(false);
    Ok(out)
}
