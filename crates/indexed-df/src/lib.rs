//! # indexed-df — the Indexed DataFrame
//!
//! Reproduction of the primary contribution of *In-Memory Indexed Caching
//! for Distributed Data Processing* (Uta, Ghit, Dave, Rellermeyer, Boncz —
//! IPPS 2022): an in-memory cache supporting a dataframe abstraction with
//! indexing for fast lookups and joins, plus fine-grained appends under
//! multi-version concurrency control.
//!
//! Each partition of an [`IndexedDataFrame`] (the *Indexed Batch RDD*,
//! §III-C) combines:
//!
//! * a [`ctrie::Ctrie`] mapping index keys to packed 64-bit row pointers;
//! * binary row batches ([`rowstore`]) holding the data;
//! * backward-pointer chains linking rows that share a key.
//!
//! The frame is hash partitioned on the index column; appends shuffle rows
//! to their owning partitions and snapshot cTrie + batch directory in O(1),
//! giving cheap divergent versions (§III-E). Registering a frame installs
//! Catalyst-style planner rules ([`rule::IndexedRule`]) so SQL and
//! DataFrame queries automatically use [`rule::IndexedLookupExec`] and
//! [`rule::IndexedJoinExec`] whenever a query touches the index column —
//! and fall back to vanilla execution otherwise (Fig. 2).
//!
//! ## Quickstart
//!
//! ```
//! use dataframe::Context;
//! use indexed_df::IndexedDataFrame;
//! use rowstore::{DataType, Field, Schema, Value};
//! use sparklet::{Cluster, ClusterConfig};
//!
//! let ctx = Context::new(Cluster::new(ClusterConfig::test_small()));
//! let schema = Schema::new(vec![
//!     Field::new("src", DataType::Int64),
//!     Field::new("dst", DataType::Int64),
//! ]);
//! let edges = (0..1000i64).map(|i| vec![Value::Int64(i % 100), Value::Int64(i)]).collect();
//!
//! // createIndex + cacheIndex (Listing 1 of the paper).
//! let idf = IndexedDataFrame::from_rows(&ctx, schema, edges, "src").unwrap();
//! idf.cache_index().unwrap();
//!
//! // Point lookup: worst-case logarithmic, not a scan.
//! assert_eq!(idf.get_rows(&Value::Int64(7)).unwrap().len(), 10);
//!
//! // SQL on the indexed table triggers the indexed operators.
//! idf.register("edges").unwrap();
//! let n = ctx.sql("SELECT * FROM edges WHERE src = 7").unwrap().count().unwrap();
//! assert_eq!(n, 10);
//! ```

mod columnar;
mod frame;
mod partition;
mod provider;
pub mod rule;
mod source;
pub mod table;
mod view;

pub use columnar::{ColumnarIndexedPartition, ColumnarIndexedTable};
pub use frame::{IdfBuilder, IndexedDataFrame};
pub use partition::{BulkInsertStats, IndexedPartition};
pub use rule::{install, IndexedRule};
pub use source::{FileSource, InMemorySource, ReplayableSource};
pub use table::{IndexedTable, PartitionHandle};
pub use view::{ContextViewExt, ViewHandle, ViewManager};
