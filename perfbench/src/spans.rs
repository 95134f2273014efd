//! Per-layer attribution from the causal span ring.
//!
//! The harness opens a `bench.op` root span per op and a child span
//! around each public call it times; the program's own `fdb.*` spans
//! nest under those. A span's self time is its duration minus the part
//! of it that its direct children cover.

use std::collections::{BTreeMap, HashMap};

use fdb_obs::causal::SpanRecord;

use crate::gen::Kind;
use crate::stats::Samples;

/// Root span of one traced op; its detail is the op kind's label.
pub const OP: &str = "bench.op";
pub const PARSE: &str = "bench.lang.parse";
pub const LOWER: &str = "bench.lang.lower";
pub const EXECUTE: &str = "bench.lang.execute";
pub const TRUTH: &str = "bench.core.truth";
pub const PIN: &str = "bench.mvcc.pin";
pub const UNPIN: &str = "bench.mvcc.unpin";
pub const APPLY: &str = "bench.core.apply_update";
pub const DETACH: &str = "bench.mvcc.detach";

/// Self time of every span of one trace, by span id.
pub fn self_times(trace: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in trace {
        if s.parent_span != 0 {
            children
                .entry(s.parent_span)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    trace
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.span_id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.start_ns + s.dur_ns));
            (s.span_id, s.dur_ns - covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Span-derived measurements accumulated over a traced phase.
#[derive(Debug, Default)]
pub struct Layers {
    /// Self time of each span name inside `bench.op` traces.
    pub self_ns: BTreeMap<&'static str, Samples>,
    /// Inclusive duration of each span name, in any trace.
    pub dur_ns: BTreeMap<&'static str, Samples>,
    /// Per op: total `Engine::execute` time, by op kind.
    pub execute_ns: BTreeMap<Kind, Samples>,
    /// Per op kind: summed `bench.op` wall time and summed root self
    /// time (what no layer span accounts for).
    pub op_wall_ns: BTreeMap<Kind, u64>,
    pub op_unattributed_ns: BTreeMap<Kind, u64>,
    /// Summed self time of parse and lower spans.
    pub frontend_ns: u64,
}

impl Layers {
    /// Folds in a batch of completed spans drained from the ring. Every
    /// trace in the batch must be complete.
    pub fn absorb(&mut self, spans: Vec<SpanRecord>) {
        let mut traces: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for s in spans {
            traces.entry(s.trace_id).or_default().push(s);
        }
        for trace in traces.values() {
            for s in trace {
                self.dur_ns.entry(s.name).or_default().push(s.dur_ns);
            }
            let Some(root) = trace.iter().find(|s| s.parent_span == 0 && s.name == OP) else {
                continue;
            };
            let Some(kind) = Kind::from_label(&root.detail) else {
                continue;
            };
            let selfs = self_times(trace);
            let mut execute = 0;
            for s in trace {
                let own = selfs[&s.span_id];
                self.self_ns.entry(s.name).or_default().push(own);
                match s.name {
                    PARSE | LOWER => self.frontend_ns += own,
                    EXECUTE => execute += s.dur_ns,
                    _ => {}
                }
            }
            if execute > 0 {
                self.execute_ns.entry(kind).or_default().push(execute);
            }
            *self.op_wall_ns.entry(kind).or_default() += root.dur_ns;
            *self.op_unattributed_ns.entry(kind).or_default() += selfs[&root.span_id];
        }
    }

    /// Median self time of `name` spans inside ops, if enough were seen.
    pub fn median_self(&self, name: &str) -> Option<f64> {
        self.self_ns.get(name).and_then(|s| s.percentile(0.5))
    }

    /// Median inclusive duration of `name` spans, if enough were seen.
    pub fn median_dur(&self, name: &str) -> Option<f64> {
        self.dur_ns.get(name).and_then(|s| s.percentile(0.5))
    }

    /// Mean inclusive duration of `name` spans, if any were seen.
    pub fn mean_dur(&self, name: &str) -> Option<f64> {
        let s = self.dur_ns.get(name)?;
        (s.len() > 0).then(|| s.sum() as f64 / s.len() as f64)
    }

    /// Share of `kind`'s traced wall time that no layer span covers.
    pub fn unattributed_share(&self, kind: Kind) -> Option<f64> {
        let wall = *self.op_wall_ns.get(&kind)?;
        (wall > 0).then(|| self.op_unattributed_ns[&kind] as f64 / wall as f64)
    }

    /// Share of all traced op time spent parsing and lowering.
    pub fn frontend_share(&self) -> Option<f64> {
        let wall: u64 = self.op_wall_ns.values().sum();
        (wall > 0).then(|| self.frontend_ns as f64 / wall as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_obs::causal::SpanStatus;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            seq: id,
            start_seq: id,
            trace_id: 1,
            span_id: id,
            parent_span: parent,
            link_span: 0,
            lane: 1,
            name,
            detail: if parent == 0 {
                "read".into()
            } else {
                String::new()
            },
            start_ns: start,
            dur_ns: dur,
            status: SpanStatus::Ok,
        }
    }

    // root [0, 100): parse [5, 15), execute [20, 90) with plan [25, 35)
    // and exec [30, 60) overlapping, plus a zero-length point.
    fn tree() -> Vec<SpanRecord> {
        vec![
            span(1, 0, OP, 0, 100),
            span(2, 1, PARSE, 5, 10),
            span(3, 1, EXECUTE, 20, 70),
            span(4, 3, "fdb.exec.plan", 25, 10),
            span(5, 3, "fdb.exec.execute", 30, 30),
            span(6, 5, "fdb.wal.append", 40, 0),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let selfs = self_times(&tree());
        assert_eq!(selfs[&1], 100 - 10 - 70);
        assert_eq!(selfs[&2], 10);
        // Children cover [25, 60): 35 of 70.
        assert_eq!(selfs[&3], 35);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&5], 30);
        assert_eq!(selfs[&6], 0);
    }

    #[test]
    fn self_times_sum_to_the_root_wall_time() {
        let selfs = self_times(&[
            span(1, 0, OP, 0, 100),
            span(2, 1, PARSE, 5, 10),
            span(3, 1, EXECUTE, 20, 70),
            span(4, 3, "fdb.exec.plan", 25, 10),
            span(5, 3, "fdb.exec.execute", 40, 30),
        ]);
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let selfs = self_times(&[span(1, 0, OP, 0, 50), span(2, 1, PIN, 40, 30)]);
        assert_eq!(selfs[&1], 40);
    }

    #[test]
    fn layers_attribute_by_op_kind() {
        let mut layers = Layers::default();
        layers.absorb(tree());
        assert_eq!(layers.op_wall_ns[&Kind::Read], 100);
        assert_eq!(layers.unattributed_share(Kind::Read), Some(0.2));
        assert_eq!(layers.frontend_share(), Some(0.1));
        assert_eq!(layers.execute_ns[&Kind::Read].sum(), 70);
        assert_eq!(layers.unattributed_share(Kind::Write), None);
    }
}
