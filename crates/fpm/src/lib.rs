//! # `fpm-core` — frequent-pattern-mining substrate
//!
//! The shared foundation beneath the mining kernels: the transaction
//! model, frequency-rank remapping, the three in-memory database
//! representations of the paper's Figure 3 (horizontal sparse arrays,
//! vertical bit matrix, prefix tree — the tree lives with `fpm-fpgrowth`),
//! FIMI `.dat` I/O, pattern sinks, and a brute-force reference miner used
//! to validate everything else.
//!
//! ## The problem (paper §2.1)
//!
//! Let `I = {i1..im}` be items and `T = {t1..tn}` a database of
//! transactions, each a subset of `I`. The *support* of an itemset is the
//! number of transactions that subsume it; frequent pattern mining outputs
//! every itemset with support ≥ a threshold `s`. With weighted
//! (duplicate-merged) transactions the support is the sum of the weights
//! of the subsuming transactions — all miners in this workspace agree on
//! that weighted definition.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod alloc_guard;
pub mod bound;
pub mod control;
pub mod db;
pub mod exec;
pub mod faults;
pub mod hash;
pub mod hmine;
pub mod horizontal;
pub mod io;
pub mod metrics;
pub mod naive;
pub mod query;
pub mod remap;
pub mod sink;
pub mod stats;
pub mod types;
pub mod vertical;

pub use control::{MineControl, StopCause};
pub use db::TransactionDb;
pub use query::{PatternQuery, QueryKey, Rule, RuleSpec};
pub use remap::{remap, RankMap, RankedDb};
pub use sink::{
    replay_merged, replay_merged_prefix, CollectSink, ControlledSink, CountSink, LimitSink,
    PatternSink, RecordSink, StatsSink, TranslateSink,
};
pub use types::{Item, ItemsetCount, Kernel, MineKind, Tid};
