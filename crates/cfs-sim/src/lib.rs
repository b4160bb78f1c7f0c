//! Discrete-event cluster simulator.
//!
//! The paper's evaluation ran on 10 physical machines (Table 1). This crate
//! is the substitution documented in `DESIGN.md`: a deterministic
//! discrete-event engine with virtual time, multi-server FIFO *stations*
//! (CPU cores, SSDs, NIC links) and a hardware model parameterized to
//! Table 1. The benchmark harness drives the real CFS/Ceph-baseline
//! protocol logic over this engine and reports IOPS in *virtual* time, so
//! architectural effects — message counts, disk IOs, queueing, cache
//! misses — decide the results rather than host noise.
//!
//! Design notes:
//! * Events are continuations (`FnOnce(&mut Sim)`); a closed-loop client is
//!   a chain of continuations that re-submits itself on completion.
//! * [`Station`]s model contended resources with `k` servers and FIFO
//!   queues; utilization is tracked for sanity checks.
//! * [`Join`] implements fork/join (e.g. "wait for a replication quorum").

mod engine;
mod join;
mod model;
pub mod plan;
pub mod schedule;
mod station;

pub use engine::{Sim, SimTime};
pub use join::Join;
pub use model::HardwareModel;
pub use plan::{run_plan, Step};
pub use station::StationId;
