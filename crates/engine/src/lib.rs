#![warn(missing_docs)]

//! The query engine: expressions, in-memory tables, iterator-model
//! physical operators, logical plans, and the partitioned/distributed plan
//! representation evaluated by the simulator and the threaded executor.
//!
//! The engine follows the iterator (Volcano) pipelining model of the
//! OGSA-DQP evaluation services: every operator exposes
//! [`ops::Operator::next`], and data communication between plan fragments
//! is encapsulated in *exchange* boundaries described by
//! [`distributed::ExchangeSpec`]. Operators are *self-monitoring* — the
//! [`ops::Monitored`] wrapper records per-tuple processing cost and idle
//! time, which is the raw feed of the adaptivity architecture.

pub mod distributed;
pub mod evaluator;
pub mod expr;
pub mod join_table;
pub mod logical;
pub mod ops;
pub mod physical;
pub mod service;
pub mod table;

pub use distributed::{
    DistributedPlan, ExchangeSpec, ParallelStageSpec, RoutingPolicy, SourceSpec,
};
pub use evaluator::{EvaluatorFactory, PartitionEvaluator, StreamTag};
pub use expr::Expr;
pub use join_table::JoinTable;
pub use logical::LogicalPlan;
pub use physical::Catalog;
pub use service::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, FnService, Service,
    ServiceRegistry,
};
pub use table::Table;
