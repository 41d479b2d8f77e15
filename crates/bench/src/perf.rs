//! Structured perf records for figure runs.
//!
//! Every figure emits a `BENCH_<figure>.json` file into the output
//! directory next to its CSV, so a run's wall time and the full metrics /
//! trace snapshot of the cluster(s) it drove are captured machine-readably
//! (schema `bench-perf-v1`, documented in DESIGN.md). Two records of the
//! same figure can then be diffed counter-by-counter across commits — see
//! EXPERIMENTS.md for the comparison workflow.

use crate::Opts;
use dataframe::Context;
use sparklet::metrics::json_escape;
use std::fs;
use std::sync::Arc;
use std::time::Instant;

/// Collects wall time plus the cluster(s) a figure runs against, then
/// serializes everything on [`Perf::finish`].
///
/// ```ignore
/// let mut perf = Perf::start("fig7");
/// perf.attach("vanilla", &ctx_v);
/// perf.attach("indexed", &ctx_i);
/// // ... run the experiment ...
/// perf.finish(opts);   // → results/BENCH_fig7.json
/// ```
pub struct Perf {
    figure: String,
    start: Instant,
    clusters: Vec<(String, Arc<Context>)>,
    snapshots: Vec<(String, String)>,
    extras: Vec<(String, f64)>,
    /// Largest worker count among the clusters recorded so far.
    workers: usize,
}

impl Perf {
    /// Begin recording a figure run.
    pub fn start(figure: &str) -> Perf {
        Perf {
            figure: figure.to_string(),
            start: Instant::now(),
            clusters: Vec::new(),
            snapshots: Vec::new(),
            extras: Vec::new(),
            workers: 0,
        }
    }

    /// Register a cluster whose metrics snapshot belongs in the record.
    /// Call once per cluster the figure creates (e.g. "vanilla" and
    /// "indexed"); the snapshot is taken at [`Perf::finish`] time.
    pub fn attach(&mut self, label: &str, ctx: &Arc<Context>) {
        self.workers = self.workers.max(ctx.cluster().num_workers());
        self.clusters.push((label.to_string(), Arc::clone(ctx)));
    }

    /// [`Perf::attach`] that snapshots the metrics immediately instead of
    /// holding the context until [`Perf::finish`] — for figures that drive
    /// many large clusters sequentially and want each one (and its tables)
    /// freed before the next starts.
    pub fn snapshot(&mut self, label: &str, ctx: &Arc<Context>) {
        self.workers = self.workers.max(ctx.cluster().num_workers());
        self.snapshots
            .push((label.to_string(), ctx.cluster().metrics_json()));
    }

    /// Record a figure-specific scalar (a throughput, a speedup ratio, ...)
    /// into the record's `extras` map, so regression tooling can compare
    /// headline numbers without re-deriving them from raw counters.
    pub fn extra(&mut self, name: &str, value: f64) {
        self.extras.push((name.to_string(), value));
    }

    /// Write `BENCH_<figure>.json` into `opts.out_dir`. Its `workers` field
    /// is the worker count of the recorded cluster (the largest one when a
    /// figure sweeps geometries; 0 when it recorded none), not the raw
    /// `--workers` option, whose 0 means "figure default".
    pub fn finish(self, opts: &Opts) {
        let wall_ms = self.start.elapsed().as_secs_f64() * 1e3;
        let metrics: Vec<String> = self
            .clusters
            .iter()
            .map(|(label, ctx)| {
                format!(
                    "\"{}\":{}",
                    json_escape(label),
                    ctx.cluster().metrics_json()
                )
            })
            .chain(
                self.snapshots
                    .iter()
                    .map(|(label, json)| format!("\"{}\":{json}", json_escape(label))),
            )
            .collect();
        let extras: Vec<String> = self
            .extras
            .iter()
            .map(|(name, value)| format!("\"{}\":{value:.6}", json_escape(name)))
            .collect();
        let json = format!(
            "{{\"schema\":\"bench-perf-v1\",\"figure\":\"{}\",\"wall_ms\":{:.3},\
             \"scale\":{},\"reps\":{},\"workers\":{},\"extras\":{{{}}},\"metrics\":{{{}}}}}",
            json_escape(&self.figure),
            wall_ms,
            opts.scale,
            opts.reps,
            self.workers,
            extras.join(","),
            metrics.join(",")
        );
        let _ = fs::create_dir_all(&opts.out_dir);
        let path = opts.out_dir.join(format!("BENCH_{}.json", self.figure));
        if let Err(e) = fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("  → {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklet::{Cluster, ClusterConfig};

    #[test]
    fn record_shape_and_file() {
        let dir = std::env::temp_dir().join(format!("bench-perf-{}", std::process::id()));
        let opts = Opts {
            out_dir: dir.clone(),
            ..Opts::default()
        };
        let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
        ctx.cluster().registry().counter("x").add(3);
        let mut perf = Perf::start("unit");
        perf.attach("cluster", &ctx);
        perf.extra("speedup", 1.5);
        perf.finish(&opts);
        let content = std::fs::read_to_string(dir.join("BENCH_unit.json")).unwrap();
        assert!(content.starts_with("{\"schema\":\"bench-perf-v1\""));
        assert!(content.contains("\"figure\":\"unit\""));
        assert!(
            content.contains("\"workers\":2,"),
            "the attached cluster's worker count, not the 0 default option"
        );
        assert!(content.contains("\"cluster\":{\"schema\":\"sparklet-metrics-v2\""));
        assert!(content.contains("\"x\":3"));
        assert!(content.contains("\"extras\":{\"speedup\":1.500000}"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
