//! What one measured phase collects, and the metrics derived from it.
//!
//! A run with `--trace 0` has one untraced phase and reports the
//! end-to-end metrics. A run with `--trace 1` has an untraced phase,
//! which gives the counts and the op kinds' own latencies, and then a
//! traced phase over the same seed, which gives the layer self times.

use std::collections::BTreeMap;
use std::time::Duration;

use fdb_core::DatabaseStats;

use crate::gen::Kind;
use crate::report::{Deltas, Report};
use crate::spans::{self, Layers};
use crate::stats::{median, quartile, Samples};

/// Fewest windows a quantile is summarised over; with fewer windows
/// that can give it, the quantile of all samples pooled is reported.
const MIN_WINDOWS: usize = 5;

/// Ops completed in one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each completed op, by kind.
    pub lat: BTreeMap<Kind, Samples>,
}

/// One measured phase, cut into wall-clock windows. Latency quantiles
/// are taken per window and summarised over windows by
/// the quartile on the slow side: the shared hosts this runs on have
/// bursts in which everything runs faster, and a burst then moves a few
/// windows rather than the result. A window must hold enough ops (a few
/// hundred at the least) for its own figures to reflect the host rather
/// than which ops happened to fall in it.
#[derive(Debug, Default)]
pub struct Phase {
    window_len: Duration,
    /// Wall-clock length of the phase: ops start only within it.
    pub length: Duration,
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    /// Registry counter increments over the phase.
    pub deltas: Deltas,
    /// `DatabaseStats` at the end of each epoch (or of the phase).
    pub epoch_end: Vec<DatabaseStats>,
    /// Span attribution (traced phases only).
    pub layers: Layers,
}

impl Phase {
    pub fn new(window_len: Duration, length: Duration) -> Self {
        Phase {
            window_len,
            length,
            ..Phase::default()
        }
    }

    /// The window an op started `since_start` into the phase falls in.
    pub fn window(&mut self, since_start: Duration) -> &mut Window {
        let k = (since_start.as_nanos() / self.window_len.as_nanos()) as usize;
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, Window::default);
        }
        &mut self.windows[k]
    }

    /// Folds in another client's phase, window by window.
    pub fn merge(&mut self, other: Phase) {
        for (k, w) in other.windows.into_iter().enumerate() {
            let mine = self.window(self.window_len * k as u32);
            for (kind, s) in w.lat {
                mine.lat.entry(kind).or_default().extend(s);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn pooled(&self, kind: Kind) -> Samples {
        let mut all = Samples::default();
        for w in &self.windows {
            if let Some(s) = w.lat.get(&kind) {
                all.extend(s.clone());
            }
        }
        all
    }

    fn count(&self, kind: Kind) -> u64 {
        self.windows
            .iter()
            .filter_map(|w| w.lat.get(&kind))
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Acknowledged base and derived writes.
    fn writes(&self) -> u64 {
        self.count(Kind::Write) + self.count(Kind::DerivedWrite)
    }

    /// The `q`-quantile of `kind`'s latency in microseconds: the upper
    /// quartile over windows of the per-window quantile, or the pooled
    /// quantile when too few windows hold enough samples for it.
    pub fn quantile_us(&self, kind: Kind, q: f64) -> Option<f64> {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter_map(|w| w.lat.get(&kind)?.percentile(q))
            .collect();
        let ns = if per.len() >= MIN_WINDOWS {
            Some(quartile(&per, 3))
        } else {
            self.pooled(kind).percentile(q)
        };
        ns.map(|ns| ns / 1e3)
    }

    /// Ops completed per wall-clock second of the phase, over all
    /// clients. The phase's time includes the harness's own work in it,
    /// such as the epoch-end checks and resets.
    pub fn throughput(&self) -> Option<f64> {
        let secs = self.length.as_secs_f64();
        (secs > 0.0).then(|| (self.attempted - self.failed) as f64 / secs)
    }

    fn mean_op_ns(&self) -> Option<f64> {
        let (mut n, mut total) = (0, 0);
        for s in self.windows.iter().flat_map(|w| w.lat.values()) {
            n += s.len();
            total += s.sum();
        }
        (n > 0).then(|| total as f64 / n as f64)
    }

    fn median_stat(&self, f: impl Fn(&DatabaseStats) -> usize) -> Option<f64> {
        let v: Vec<f64> = self.epoch_end.iter().map(|s| f(s) as f64).collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Median over epochs of an NC or null-fact count per base fact.
    pub fn density(&self, f: impl Fn(&DatabaseStats) -> usize) -> Option<f64> {
        let v: Vec<f64> = self
            .epoch_end
            .iter()
            .filter(|s| s.base_facts > 0)
            .map(|s| f(s) as f64 / s.base_facts as f64)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(r: &mut Report, plain: &Phase, setup_s: f64) {
    r.set("setup_s", Some(setup_s));
    r.set("read_p50_us", plain.quantile_us(Kind::Read, 0.5));
}

/// The per-layer metrics: counts from the untraced phase, self times
/// from the traced one.
pub fn per_layer(r: &mut Report, plain: &Phase, traced: &Phase) {
    let d = &plain.deltas;
    let ops = plain.attempted;
    let writes = plain.writes();
    let l = &traced.layers;

    r.set("throughput_ops_s", plain.throughput());
    r.set("write_p50_us", plain.quantile_us(Kind::Write, 0.5));
    r.set("peak_rss_mb", crate::report::peak_rss_mb());
    r.set("read_p99_us", plain.quantile_us(Kind::Read, 0.99));
    r.set("write_p99_us", plain.quantile_us(Kind::Write, 0.99));
    r.set("image_p50_us", plain.quantile_us(Kind::Image, 0.5));
    r.set(
        "derived_write_p50_us",
        plain.quantile_us(Kind::DerivedWrite, 0.5),
    );
    r.set(
        "derived_write_p99_us",
        plain.quantile_us(Kind::DerivedWrite, 0.99),
    );
    r.set("txn_p50_us", plain.quantile_us(Kind::Txn, 0.5));
    r.set(
        "failed_op_share",
        (ops > 0).then(|| plain.failed as f64 / ops as f64),
    );
    r.set(
        "wal_bytes_per_write",
        d.rate("fdb.wal.append_bytes", writes, 1.0),
    );

    r.set("lang.parse_ns", l.median_self(spans::PARSE));
    r.set("lang.lower_ns", l.median_self(spans::LOWER));
    for (name, kind) in [
        ("lang.execute_ns.read", Kind::Read),
        ("lang.execute_ns.write", Kind::Write),
        ("lang.execute_ns.derived_write", Kind::DerivedWrite),
        ("lang.execute_ns.txn", Kind::Txn),
    ] {
        r.set(
            name,
            l.execute_ns.get(&kind).and_then(|s| s.percentile(0.5)),
        );
    }
    r.set("lang.frontend_share", l.frontend_share());

    let lookups = d.get("fdb.cache.hits") + d.get("fdb.cache.misses");
    r.set(
        "exec.cache_hit_ratio",
        d.rate("fdb.cache.hits", lookups, 1.0),
    );
    r.set(
        "exec.cache_invalidations_per_kop",
        d.rate("fdb.cache.invalidations", ops, 1e3),
    );
    r.set("exec.plan_ns", l.median_self("fdb.exec.plan"));
    r.set("exec.execute_ns", l.median_self("fdb.exec.execute"));
    r.set(
        "exec.rows_examined_per_chain",
        d.rate(
            "fdb.exec.rows_examined",
            d.get("fdb.exec.chains_emitted"),
            1.0,
        ),
    );
    r.set("core.truth_ns", l.median_dur(spans::TRUTH));

    r.set(
        "storage.index_probes_per_op",
        d.rate("fdb.storage.index_probes", ops, 1.0),
    );
    r.set(
        "storage.table_scans_per_op",
        d.rate("fdb.storage.table_scans", ops, 1.0),
    );
    r.set(
        "storage.ncs_created_per_kop",
        d.rate("fdb.storage.ncs_created", ops, 1e3),
    );
    r.set(
        "storage.null_substitutions_per_kop",
        d.rate("fdb.storage.null_substitutions", ops, 1e3),
    );
    r.set(
        "storage.undo_bytes_per_txn",
        d.rate("fdb.txn.undo_log_bytes", plain.count(Kind::Txn), 1.0),
    );
    r.set("storage.ncs_live", plain.median_stat(|s| s.ncs));
    r.set(
        "storage.null_facts_live",
        plain.median_stat(|s| s.null_facts),
    );

    r.set("mvcc.pin_ns", l.median_dur(spans::PIN));
    r.set(
        "mvcc.publishes_per_write",
        d.rate("fdb.mvcc.snapshots_published", writes, 1.0),
    );
    r.set(
        "mvcc.stale_read_share",
        d.rate(
            "fdb.mvcc.stale_snapshot_reads",
            d.get("fdb.mvcc.snapshot_pins"),
            1.0,
        ),
    );
    r.set("mvcc.unpin_ns", l.mean_dur(spans::UNPIN));
    r.set("mvcc.detach_ns", l.median_dur(spans::DETACH));

    r.set("wal.fsync_ns", l.median_self("fdb.wal.fsync"));
    r.set(
        "wal.fsyncs_per_write",
        d.rate("fdb.wal.fsyncs", writes, 1.0),
    );
    r.set(
        "wal.checkpoints_per_kwrite",
        d.rate("fdb.wal.checkpoints", writes, 1e3),
    );
    r.set(
        "commit.group_wait_ns",
        l.median_self("fdb.commit.group_sync"),
    );
    let group = d.get("fdb.commit.group_fsyncs") + d.get("fdb.commit.group_fsyncs_saved");
    r.set(
        "commit.fsyncs_saved_share",
        d.rate("fdb.commit.group_fsyncs_saved", group, 1.0),
    );

    for (name, kind) in [
        ("unattributed_share.read", Kind::Read),
        ("unattributed_share.image", Kind::Image),
        ("unattributed_share.write", Kind::Write),
        ("unattributed_share.derived_write", Kind::DerivedWrite),
        ("unattributed_share.txn", Kind::Txn),
    ] {
        r.set(name, l.unattributed_share(kind));
    }
    r.set(
        "trace_overhead_pct",
        traced
            .mean_op_ns()
            .zip(plain.mean_op_ns())
            .map(|(t, p)| (t / p - 1.0) * 100.0),
    );
}
