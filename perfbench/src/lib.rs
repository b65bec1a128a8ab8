//! Fleet benchmark for the news-on-demand negotiation broker.
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! the public functions the benchmark builds against.

pub mod pass;
pub mod replay;
pub mod stats;
pub mod workload;
