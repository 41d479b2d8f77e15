//! # sparklet — a miniature Spark-like execution substrate
//!
//! The distributed-engine substrate for the Indexed DataFrame reproduction
//! (*In-Memory Indexed Caching for Distributed Data Processing*, IPPS 2022).
//! The paper embeds its index into Apache Spark; this crate provides the
//! parts of Spark the paper's design actually interacts with, simulated in
//! one process:
//!
//! * a [`Cluster`] of workers, each a set of executor thread pools
//!   (configurable geometry — Fig. 4 and Fig. 6 sweep it);
//! * locality-aware task scheduling with fallback when a worker is dead or
//!   busy (§III-D), and fallible stage execution ([`Cluster::run_stage`])
//!   that retries failed task attempts on surviving workers;
//! * one hash-partitioned, skew-aware [`shuffle::exchange_rows`] plus
//!   broadcast accounting (§III-C "Scheduling Physical Operators");
//! * a per-worker **versioned block cache** — the partition version numbers
//!   that keep appends consistent when stale copies exist (§III-D);
//! * failure injection ([`Cluster::kill_worker`]) for the Fig. 12
//!   fault-tolerance experiment;
//! * one named-metric [`metrics::Registry`] (counters / gauges / log₂
//!   histograms, per-worker sharded) whose `phase.*` and `shuffle.ns`
//!   wall-time counters replace the paper's flame graphs (Fig. 1), plus a
//!   [`metrics::Trace`] of operator → stage → task spans, serialized by
//!   [`Cluster::metrics_json`] and [`Cluster::trace_report`].
//!
//! ## Example
//!
//! ```
//! use sparklet::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::test_small());
//! let doubled = cluster.run_stage_partitions(8, |ctx| ctx.partition * 2).unwrap();
//! assert_eq!(doubled[3], 6);
//! ```

mod cluster;
mod config;
pub mod memory;
pub mod metrics;
pub mod scheduler;
pub mod shuffle;

pub use cluster::{
    Block, BlockId, Cluster, FailureReason, StageError, TaskContext, TaskFailure, TaskResult,
    TaskSpec,
};
pub use config::ClusterConfig;
pub use memory::{BlockCharge, MemoryGovernor, SpillFn};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot, SpanKind, SpanRecord,
    Trace,
};
pub use scheduler::{
    Admission, AdmissionGuard, AdmissionTicket, AdmitError, QueryId, QueryRef, Scheduler,
};
pub use shuffle::{
    account_broadcast, exchange_rows, partition_of, plan_reduce_tasks, row_bytes, ReduceTask,
    ShuffleCodec,
};
