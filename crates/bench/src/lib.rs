//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of §IV of *In-Memory Indexed Caching
//! for Distributed Data Processing* (IPPS 2022). Each experiment is a
//! subcommand of the `figures` binary:
//!
//! ```text
//! cargo run -p bench --release --bin figures -- <experiment> [--scale N] [--reps N]
//! cargo run -p bench --release --bin figures -- all
//! ```
//!
//! Experiments print paper-style rows to stdout and write CSV files under
//! `results/`. Absolute numbers differ from the paper (its substrate was a
//! 32-node InfiniBand cluster; ours is an in-process simulation — see
//! DESIGN.md); the *shapes* (who wins, trends across sweeps) are the
//! reproduction target, recorded in EXPERIMENTS.md.

pub mod ablations;
pub mod figs_index;
pub mod figs_ivm;
pub mod figs_memory;
pub mod figs_micro;
pub mod figs_real;
pub mod figs_serve;
pub mod figs_vectorized;
pub mod figs_write;
pub mod perf;

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Multiplies default row counts.
    pub scale: u64,
    /// Repetitions per measured point.
    pub reps: usize,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Workers in the simulated cluster (0 = per-experiment default).
    pub workers: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1,
            reps: 5,
            out_dir: PathBuf::from("results"),
            workers: 0,
        }
    }
}

impl Opts {
    pub fn workers_or(&self, default: usize) -> usize {
        if self.workers == 0 {
            default
        } else {
            self.workers
        }
    }
}

/// Wall-clock one invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// Run `f` `reps` times (after one warmup) and collect per-run durations.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<Duration> {
    f(); // warmup
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect()
}

/// Summary statistics over durations (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub mean_ms: f64,
    pub std_ms: f64,
    pub min_ms: f64,
    pub max_ms: f64,
}

impl Stats {
    pub fn of(samples: &[Duration]) -> Stats {
        assert!(!samples.is_empty());
        let ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        let var = ms.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / ms.len() as f64;
        Stats {
            mean_ms: mean,
            std_ms: var.sqrt(),
            min_ms: ms.iter().cloned().fold(f64::INFINITY, f64::min),
            max_ms: ms.iter().cloned().fold(0.0, f64::max),
        }
    }
}

/// Write a CSV file into the output directory.
pub fn write_csv(opts: &Opts, name: &str, header: &str, rows: &[String]) {
    let _ = fs::create_dir_all(&opts.out_dir);
    let path = opts.out_dir.join(name);
    let mut content = String::from(header);
    content.push('\n');
    for r in rows {
        content.push_str(r);
        content.push('\n');
    }
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  → {}", path.display());
    }
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = Stats::of(&[
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ]);
        assert!((s.mean_ms - 20.0).abs() < 1e-6);
        assert!((s.min_ms - 10.0).abs() < 1e-6);
        assert!((s.max_ms - 30.0).abs() < 1e-6);
        assert!(s.std_ms > 0.0);
    }

    #[test]
    fn time_reps_counts() {
        let mut calls = 0;
        let d = time_reps(3, || calls += 1);
        assert_eq!(d.len(), 3);
        assert_eq!(calls, 4, "warmup plus reps");
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join(format!("bench-test-{}", std::process::id()));
        let opts = Opts {
            out_dir: dir.clone(),
            ..Opts::default()
        };
        write_csv(&opts, "t.csv", "a,b", &["1,2".to_string()]);
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
