//! `llp_service` — an in-process concurrent batched solve service.
//!
//! The workspace's solvers all run one instance, once, on the caller's
//! thread. This crate is the *serving layer* on top: a bounded admission
//! queue, a pool of worker threads, request batching (requests sharing an
//! instance fingerprint are solved once), an LRU result cache, and
//! per-request metering (queue wait, solve time, cache hit/miss)
//! aggregated into latency percentiles — the machinery needed to measure
//! and control scheduling behavior under concurrent load, which the
//! per-instance solvers cannot see.
//!
//! Entry points:
//!
//! * [`Service`] — the pool; [`Service::submit`] for live traffic,
//!   [`Service::run_replay`] for deterministic stream replay.
//! * [`SolveRequest`]/[`SolveResponse`] — the job and its metered result;
//!   [`ResponseBody`] is the deterministic part (bit-identical at any
//!   worker count for a fixed request fingerprint).
//! * [`exec::solve_model`] — the shared one-shot model dispatch, also
//!   used by the `llp_bench` report grid.
//! * [`ServiceStats`]/[`LatencySummary`] — counters and percentiles for
//!   the load harness (`experiments serve`).
//! * [`ShardRouter`]/[`HashRing`] — N independent services behind one
//!   consistent-hash router over the request fingerprint; the in-process
//!   substrate of the `llp_serve` network server (DESIGN.md §9).
//!
//! See DESIGN.md §7 for the full queue/batching/shed policy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod exec;
pub mod request;
pub mod service;
pub mod shard;
pub mod stats;

pub use exec::{solve_model, ExecOutcome, ExecParams};
pub use request::{
    InvalidInput, Model, RequestInput, ResponseBody, ServedFrom, SolveRequest, SolveResponse,
};
pub use service::{Admission, Service, ServiceConfig, SubmitError, Ticket};
pub use shard::{HashRing, ShardRouter};
pub use stats::{LatencySummary, ServiceStats};
