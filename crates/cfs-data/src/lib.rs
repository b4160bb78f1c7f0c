//! The data subsystem (§2.2): extent-store partitions with
//! scenario-aware replication.
//!
//! CFS replicates file content with **two** strongly consistent protocols,
//! chosen by write pattern (§2.2.4):
//!
//! * **Sequential writes (appends)** use primary-backup chain replication:
//!   the client sends fixed-size packets to the replica at index 0 of the
//!   replica array, which applies locally and forwards down the chain. The
//!   leader's *committed watermark* for an extent advances only when the
//!   whole chain acked, and only committed bytes are ever served — stale
//!   tails on replicas are allowed and simply never read (§2.2.5). A
//!   partial failure makes the client resend the remaining `k − p` bytes to
//!   extents on different partitions.
//! * **Overwrites (random writes)** are proposed through the partition's
//!   MultiRaft group and applied in-place below the watermark. This avoids
//!   the fragmentation a primary-backup overwrite would cause, at the cost
//!   of Raft's write amplification — acceptable because overwrites are
//!   rare (§2.2.4).
//!
//! Recovery first aligns extents across replicas (truncating stale tails to
//! the committed watermark), then lets Raft replay (§2.2.5). Small-file
//! deletion punches holes asynchronously via the partition's delete queue
//! (§2.2.3, §2.7.3).

mod command;
mod metrics;
mod node;
mod replica;

pub use command::DataCommand;
pub use metrics::{DataLatency, DataMetrics};
pub use node::{DataNode, DataRequest, DataResponse, ExtentInfo};
pub use replica::{DataPartitionReplica, DeleteTask, PartitionStats};
