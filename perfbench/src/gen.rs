//! Seeded instances and statement generators.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! the same instance and the same op stream, whatever the program under
//! test answers. The program only ever sees the rendered statements.

use std::collections::{BTreeMap, HashSet};

use fdb_core::Database;
use fdb_types::{Functionality, Result, Value};

pub const PUPIL: &str = "pupil";
pub const TEACH: &str = "teach";
pub const CLASS_LIST: &str = "class_list";
pub const OFFICE: &str = "office";

/// SplitMix64: small, fast, and fixed here so op streams never change
/// with a dependency's version.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `university_at_scale` parameters of one instance.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub faculty: usize,
    pub courses: usize,
    pub students: usize,
    pub courses_per_faculty: usize,
    pub students_per_course: usize,
    /// Declare `office: faculty -> room`, a base function outside
    /// `pupil`'s support set, with one office per professor.
    pub office: bool,
}

/// About 51k base facts: `read_hot` and `durable_write`.
pub const LARGE: Shape = Shape {
    faculty: 500,
    courses: 400,
    students: 8000,
    courses_per_faculty: 3,
    students_per_course: 125,
    office: true,
};

/// About 2k base facts: `derived_update`.
pub const SMALL: Shape = Shape {
    faculty: 50,
    courses: 40,
    students: 400,
    courses_per_faculty: 3,
    students_per_course: 50,
    office: false,
};

/// Rooms an `office` toggle draws from; room 0 is every professor's
/// office at the start, so half of the pair space is present.
const ROOMS: usize = 2;

pub fn prof(i: usize) -> String {
    format!("prof{i}")
}

fn course(i: usize) -> String {
    format!("course{i}")
}

fn student(i: usize) -> String {
    format!("student{i}")
}

fn room(i: usize) -> String {
    format!("room{i}")
}

/// Builds the seeded start state of a workload.
pub fn build_instance(seed: u64, shape: Shape) -> Result<Database> {
    let mut db = fdb_workload::university_at_scale(
        seed,
        shape.faculty,
        shape.courses,
        shape.students,
        shape.courses_per_faculty,
        shape.students_per_course,
    )?;
    if shape.office {
        let office = db.declare_function(OFFICE, "faculty", "room", Functionality::ManyMany)?;
        for i in 0..shape.faculty {
            db.insert(office, Value::atom(prof(i)), Value::atom(room(0)))?;
        }
    }
    Ok(db)
}

/// The base facts a generator samples keys from, read once from the
/// start state.
#[derive(Clone, Debug)]
pub struct Facts {
    shape: Shape,
    teach: Vec<(String, String)>,
    class_list: Vec<(String, String)>,
    students_of: BTreeMap<String, Vec<String>>,
}

impl Facts {
    pub fn of(db: &Database, shape: Shape) -> Result<Facts> {
        let pairs = |name: &str| -> Result<Vec<(String, String)>> {
            let f = db.resolve(name)?;
            Ok(db
                .store()
                .table(f)
                .rows()
                .map(|r| (r.x.to_string(), r.y.to_string()))
                .collect())
        };
        let teach = pairs(TEACH)?;
        let class_list = pairs(CLASS_LIST)?;
        let mut students_of: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (c, s) in &class_list {
            students_of.entry(c.clone()).or_default().push(s.clone());
        }
        Ok(Facts {
            shape,
            teach,
            class_list,
            students_of,
        })
    }

    /// A `pupil` pair true in the start state: `teach(x, c)` and
    /// `class_list(c, y)` for some course `c`.
    fn true_pupil(&self, rng: &mut Rng) -> (String, String) {
        loop {
            let (x, c) = &self.teach[rng.below(self.teach.len())];
            if let Some(ss) = self.students_of.get(c) {
                return (x.clone(), ss[rng.below(ss.len())].clone());
            }
        }
    }

    /// A uniformly random `(professor, student)` pair, mostly false.
    fn random_pupil(&self, rng: &mut Rng) -> (String, String) {
        (
            prof(rng.below(self.shape.faculty)),
            student(rng.below(self.shape.students)),
        )
    }

    /// Half true pairs, half uniform ones.
    fn mixed_pupil(&self, rng: &mut Rng) -> (String, String) {
        if rng.below(2) == 0 {
            self.true_pupil(rng)
        } else {
            self.random_pupil(rng)
        }
    }
}

/// One client operation. A transaction frame is one op of several
/// statements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `TRUTH pupil(x, y)`.
    Truth { x: String, y: String },
    /// `QUERY pupil(x)`.
    Image { x: String },
    /// `INSERT`/`DELETE function(x, y)`; derived when `function` is
    /// `pupil`.
    Write {
        insert: bool,
        function: &'static str,
        x: String,
        y: String,
    },
    /// `BEGIN`, derived delete, `SAVEPOINT s`, base insert on `teach`,
    /// `ROLLBACK TO s`, then `COMMIT` or `ABORT`.
    Txn {
        delete: (String, String),
        insert: (String, String),
        commit: bool,
    },
}

/// Op kinds, each with its own latency samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Read,
    Image,
    Write,
    DerivedWrite,
    Txn,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Read,
        Kind::Image,
        Kind::Write,
        Kind::DerivedWrite,
        Kind::Txn,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Image => "image",
            Kind::Write => "write",
            Kind::DerivedWrite => "derived_write",
            Kind::Txn => "txn",
        }
    }

    pub fn from_label(label: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Truth { .. } => Kind::Read,
            Op::Image { .. } => Kind::Image,
            Op::Write { function, .. } if *function == PUPIL => Kind::DerivedWrite,
            Op::Write { .. } => Kind::Write,
            Op::Txn { .. } => Kind::Txn,
        }
    }

    /// Whether the op can change the database state.
    pub fn mutates(&self) -> bool {
        !matches!(self, Op::Truth { .. } | Op::Image { .. })
    }

    /// The statements the program receives for this op.
    pub fn statements(&self) -> Vec<String> {
        match self {
            Op::Truth { x, y } => vec![format!("TRUTH {PUPIL}({x}, {y})")],
            Op::Image { x } => vec![format!("QUERY {PUPIL}({x})")],
            Op::Write {
                insert,
                function,
                x,
                y,
            } => {
                let verb = if *insert { "INSERT" } else { "DELETE" };
                vec![format!("{verb} {function}({x}, {y})")]
            }
            Op::Txn {
                delete,
                insert,
                commit,
            } => vec![
                "BEGIN".to_owned(),
                format!("DELETE {PUPIL}({}, {})", delete.0, delete.1),
                "SAVEPOINT s".to_owned(),
                format!("INSERT {TEACH}({}, {})", insert.0, insert.1),
                "ROLLBACK TO s".to_owned(),
                (if *commit { "COMMIT" } else { "ABORT" }).to_owned(),
            ],
        }
    }
}

/// `read_hot` op shares.
pub mod read_hot {
    /// `QUERY pupil(x)` images: each costs about as much as 600 point
    /// reads, so they stay rare enough not to dominate wall time.
    pub const IMAGE: f64 = 0.0005;
    /// `INSERT class_list`: the support-set write that invalidates
    /// `pupil`'s cache entries.
    pub const SUPPORT_WRITE: f64 = 0.0005;
    /// `office` insert/delete toggles, outside `pupil`'s support set.
    pub const OFFICE_WRITE: f64 = 0.05;
    /// Share of `TRUTH` reads drawn from the hot set.
    pub const HOT_READ: f64 = 0.75;
    /// Hot-set size in `(professor, student)` pairs, half of them true.
    pub const HOT_PAIRS: usize = 256;
    /// Ops per epoch (one engine session); bounds the session's growth.
    pub const EPOCH_OPS: usize = 200_000;
}

/// The `read_hot` generator.
#[derive(Clone, Debug)]
pub struct ReadHotGen {
    rng: Rng,
    facts: Facts,
    hot: Vec<(String, String)>,
    /// `(professor, room)` office pairs present, as the stream left them.
    offices: HashSet<(usize, usize)>,
    /// Distinct `TRUTH` keys drawn so far, for the repeated-key share.
    seen: HashSet<(String, String)>,
    pub reads: u64,
    pub repeated_reads: u64,
    pub support_writes: u64,
    pub ops: u64,
}

impl ReadHotGen {
    pub fn new(seed: u64, facts: Facts) -> Self {
        let mut rng = Rng::new(seed ^ 0x0072_6561_6468_6f74);
        let hot = (0..read_hot::HOT_PAIRS)
            .map(|i| {
                if i % 2 == 0 {
                    facts.true_pupil(&mut rng)
                } else {
                    facts.random_pupil(&mut rng)
                }
            })
            .collect();
        let mut g = ReadHotGen {
            rng,
            facts,
            hot,
            offices: HashSet::new(),
            seen: HashSet::new(),
            reads: 0,
            repeated_reads: 0,
            support_writes: 0,
            ops: 0,
        };
        g.new_epoch();
        g
    }

    /// The engine was reset to the start state: every professor is back
    /// in room 0 alone.
    pub fn new_epoch(&mut self) {
        self.offices = (0..self.facts.shape.faculty).map(|i| (i, 0)).collect();
    }

    pub fn next_op(&mut self) -> Op {
        use read_hot::*;
        self.ops += 1;
        let r = self.rng.unit();
        let shape = self.facts.shape;
        if r < IMAGE {
            return Op::Image {
                x: prof(self.rng.below(shape.faculty)),
            };
        }
        if r < IMAGE + SUPPORT_WRITE {
            self.support_writes += 1;
            return Op::Write {
                insert: true,
                function: CLASS_LIST,
                x: course(self.rng.below(shape.courses)),
                y: student(self.rng.below(shape.students)),
            };
        }
        if r < IMAGE + SUPPORT_WRITE + OFFICE_WRITE {
            let key = (self.rng.below(shape.faculty), self.rng.below(ROOMS));
            let insert = self.offices.insert(key);
            if !insert {
                self.offices.remove(&key);
            }
            return Op::Write {
                insert,
                function: OFFICE,
                x: prof(key.0),
                y: room(key.1),
            };
        }
        let (x, y) = if self.rng.unit() < HOT_READ {
            self.hot[self.rng.below(self.hot.len())].clone()
        } else {
            self.facts.mixed_pupil(&mut self.rng)
        };
        self.reads += 1;
        if !self.seen.insert((x.clone(), y.clone())) {
            self.repeated_reads += 1;
        }
        Op::Truth { x, y }
    }
}

/// `derived_update` op shares; the rest are `TRUTH pupil` reads.
pub mod derived_update {
    /// Derived `DELETE pupil` (creates an NC).
    pub const DERIVED_DELETE: f64 = 0.15;
    /// Derived `INSERT pupil` (creates an NVC).
    pub const DERIVED_INSERT: f64 = 0.10;
    /// Base inserts on `teach` / `class_list`.
    pub const BASE_INSERT: f64 = 0.125;
    /// Base deletes on `teach` / `class_list` (dismantle NCs).
    pub const BASE_DELETE: f64 = 0.125;
    /// Transaction frames.
    pub const TXN: f64 = 0.10;
    /// Ops per epoch; the engine is reset to the seeded start state
    /// after each.
    pub const EPOCH_OPS: usize = 1000;
}

/// The `derived_update` generator.
#[derive(Clone, Debug)]
pub struct DerivedUpdateGen {
    rng: Rng,
    facts: Facts,
}

impl DerivedUpdateGen {
    pub fn new(seed: u64, facts: Facts) -> Self {
        DerivedUpdateGen {
            rng: Rng::new(seed ^ 0x0064_6572_6976_6564),
            facts,
        }
    }

    fn base_pair(&mut self, existing: bool) -> (&'static str, String, String) {
        let shape = self.facts.shape;
        let teach = self.rng.below(2) == 0;
        match (teach, existing) {
            (true, true) => {
                let (x, y) = self.facts.teach[self.rng.below(self.facts.teach.len())].clone();
                (TEACH, x, y)
            }
            (false, true) => {
                let n = self.facts.class_list.len();
                let (x, y) = self.facts.class_list[self.rng.below(n)].clone();
                (CLASS_LIST, x, y)
            }
            (true, false) => (
                TEACH,
                prof(self.rng.below(shape.faculty)),
                course(self.rng.below(shape.courses)),
            ),
            (false, false) => (
                CLASS_LIST,
                course(self.rng.below(shape.courses)),
                student(self.rng.below(shape.students)),
            ),
        }
    }

    pub fn next_op(&mut self) -> Op {
        use derived_update::*;
        let r = self.rng.unit();
        let shape = self.facts.shape;
        let mut edge = DERIVED_DELETE;
        if r < edge {
            let (x, y) = self.facts.true_pupil(&mut self.rng);
            return Op::Write {
                insert: false,
                function: PUPIL,
                x,
                y,
            };
        }
        edge += DERIVED_INSERT;
        if r < edge {
            let (x, y) = self.facts.random_pupil(&mut self.rng);
            return Op::Write {
                insert: true,
                function: PUPIL,
                x,
                y,
            };
        }
        edge += BASE_INSERT;
        if r < edge {
            let (function, x, y) = self.base_pair(false);
            return Op::Write {
                insert: true,
                function,
                x,
                y,
            };
        }
        edge += BASE_DELETE;
        if r < edge {
            let (function, x, y) = self.base_pair(true);
            return Op::Write {
                insert: false,
                function,
                x,
                y,
            };
        }
        edge += TXN;
        if r < edge {
            return Op::Txn {
                delete: self.facts.true_pupil(&mut self.rng),
                insert: (
                    prof(self.rng.below(shape.faculty)),
                    course(self.rng.below(shape.courses)),
                ),
                commit: self.rng.below(2) == 0,
            };
        }
        let (x, y) = self.facts.mixed_pupil(&mut self.rng);
        Op::Truth { x, y }
    }
}

/// `durable_write` op shares, per client; the rest are snapshot reads.
pub mod durable_write {
    /// Base `class_list` writes: an insert of a fresh pair, then its
    /// delete, so the table stays within `clients` rows of its start.
    pub const BASE_WRITE: f64 = 0.40;
    /// Derived `DELETE pupil` (creates an NC).
    pub const DERIVED_DELETE: f64 = 0.10;
    /// Concurrent clients.
    pub const CLIENTS: usize = 2;
}

/// One `durable_write` client's generator.
#[derive(Clone, Debug)]
pub struct DurableGen {
    rng: Rng,
    facts: Facts,
    client: usize,
    fresh: u64,
    /// The fresh `class_list` pair this client inserted and has not yet
    /// deleted.
    pending: Option<(String, String)>,
}

impl DurableGen {
    pub fn new(seed: u64, client: usize, facts: Facts) -> Self {
        DurableGen {
            rng: Rng::new(seed ^ 0x0064_7572_6162_6c65 ^ ((client as u64 + 1) << 48)),
            facts,
            client,
            fresh: 0,
            pending: None,
        }
    }

    pub fn next_op(&mut self) -> Op {
        use durable_write::*;
        let r = self.rng.unit();
        if r < BASE_WRITE {
            return match self.pending.take() {
                Some((x, y)) => Op::Write {
                    insert: false,
                    function: CLASS_LIST,
                    x,
                    y,
                },
                None => {
                    let x = course(self.rng.below(self.facts.shape.courses));
                    let y = format!("xstudent{}_{}", self.client, self.fresh);
                    self.fresh += 1;
                    self.pending = Some((x.clone(), y.clone()));
                    Op::Write {
                        insert: true,
                        function: CLASS_LIST,
                        x,
                        y,
                    }
                }
            };
        }
        if r < BASE_WRITE + DERIVED_DELETE {
            let (x, y) = self.facts.true_pupil(&mut self.rng);
            return Op::Write {
                insert: false,
                function: PUPIL,
                x,
                y,
            };
        }
        let (x, y) = self.facts.mixed_pupil(&mut self.rng);
        Op::Truth { x, y }
    }

    /// The delete that takes back this client's outstanding insert, so
    /// a phase ends with the table at its start size.
    pub fn finish(&mut self) -> Option<Op> {
        self.pending.take().map(|(x, y)| Op::Write {
            insert: false,
            function: CLASS_LIST,
            x,
            y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_facts(seed: u64) -> Facts {
        Facts::of(&build_instance(seed, SMALL).unwrap(), SMALL).unwrap()
    }

    fn stream(next: &mut dyn FnMut() -> Op, n: usize) -> Vec<Op> {
        (0..n).map(|_| next()).collect()
    }

    #[test]
    fn instances_are_deterministic_per_seed() {
        let a = build_instance(7, SMALL).unwrap().to_snapshot().unwrap();
        let b = build_instance(7, SMALL).unwrap().to_snapshot().unwrap();
        let c = build_instance(8, SMALL).unwrap().to_snapshot().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let facts = small_facts(3);
        let mut g1 = DerivedUpdateGen::new(3, facts.clone());
        let mut g2 = DerivedUpdateGen::new(3, facts.clone());
        let mut g3 = DerivedUpdateGen::new(4, facts.clone());
        let a = stream(&mut || g1.next_op(), 500);
        assert_eq!(a, stream(&mut || g2.next_op(), 500));
        assert_ne!(a, stream(&mut || g3.next_op(), 500));

        let mut h1 = ReadHotGen::new(3, facts.clone());
        let mut h2 = ReadHotGen::new(3, facts.clone());
        assert_eq!(
            stream(&mut || h1.next_op(), 2000),
            stream(&mut || h2.next_op(), 2000)
        );
        assert_eq!(h1.repeated_reads, h2.repeated_reads);

        let mut d1 = DurableGen::new(3, 0, facts.clone());
        let mut d2 = DurableGen::new(3, 0, facts.clone());
        let mut other_client = DurableGen::new(3, 1, facts);
        let a = stream(&mut || d1.next_op(), 500);
        assert_eq!(a, stream(&mut || d2.next_op(), 500));
        assert_ne!(a, stream(&mut || other_client.next_op(), 500));
    }

    #[test]
    fn durable_client_keeps_at_most_one_pair_outstanding() {
        let mut g = DurableGen::new(1, 0, small_facts(1));
        let mut outstanding = 0i64;
        for _ in 0..2000 {
            if let Op::Write {
                insert,
                function: CLASS_LIST,
                ..
            } = g.next_op()
            {
                outstanding += if insert { 1 } else { -1 };
                assert!((0..=1).contains(&outstanding));
            }
        }
        if g.finish().is_some() {
            outstanding -= 1;
        }
        assert_eq!(outstanding, 0);
    }

    #[test]
    fn txn_frame_renders_six_statements() {
        let op = Op::Txn {
            delete: ("prof1".into(), "student2".into()),
            insert: ("prof3".into(), "course4".into()),
            commit: false,
        };
        let s = op.statements();
        assert_eq!(s.len(), 6);
        assert_eq!(s[1], "DELETE pupil(prof1, student2)");
        assert_eq!(s[5], "ABORT");
        assert_eq!(op.kind(), Kind::Txn);
    }
}
