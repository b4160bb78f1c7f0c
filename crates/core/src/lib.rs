//! CFS: a distributed file system for large scale container platforms.
//!
//! This is the facade crate of the SIGMOD'19 CFS reproduction: it wires the
//! resource manager ([`cfs_master`]), metadata subsystem ([`cfs_meta`]),
//! data subsystem ([`cfs_data`]) and client ([`cfs_client`]) into a running
//! in-process cluster (Figure 1 of the paper).
//!
//! ```
//! use cfs::ClusterBuilder;
//!
//! let cluster = ClusterBuilder::new().meta_nodes(3).data_nodes(3).build().unwrap();
//! cluster.create_volume("demo", 1, 4).unwrap();
//! let client = cluster.mount("demo").unwrap();
//!
//! let root = client.root();
//! client.mkdir(root, "app").unwrap();
//! let dir = client.lookup(root, "app").unwrap().inode;
//! client.create(dir, "data.bin").unwrap();
//! let mut fh = client.open(dir, "data.bin").unwrap();
//! client.write(&mut fh, b"hello containers").unwrap();
//! fh.seek(0);
//! assert_eq!(client.read(&mut fh, 64).unwrap(), b"hello containers");
//! ```

mod cluster;

pub use cluster::{Cluster, ClusterBuilder, RecoverReport};

// Re-export the public surface of the subsystems so downstream users need
// only this crate.
pub use cfs_client::{
    Client, ClientOptions, DataPathSnapshot, Fabrics, FileHandle, FsckReport, OrphanIntent,
    UnderReplication,
};
pub use cfs_data::{DataNode, DataRequest, DataResponse, ExtentInfo};
pub use cfs_master::{MasterCommand, MasterNode, NodeKind, Task};
pub use cfs_meta::{
    CompensationRecord, IntentContext, MetaCommand, MetaNode, MetaPartition, MetaRead, MetaRequest,
    MetaResponse, MetaValue, PartitionInfo,
};
pub use cfs_net::{DeliveryHook, DeliveryVerdict, DropCauses, SimClock};
pub use cfs_obs::{MetricsSnapshot, Registry, RequestId, RpcRoute, Span, SpanRecord, Tracer};
pub use cfs_raft::{DeliverySchedule, RaftConfig, RaftHub};
pub use cfs_types::{
    CfsError, ClusterConfig, Dentry, ExtentId, ExtentKey, FaultState, FileType, Inode, InodeId,
    NodeId, PartitionId, Result, VolumeId, DEAD_AFTER_MISSED, ROOT_INODE,
};
