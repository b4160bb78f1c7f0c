//! Isolated probes: each times calls into one layer's public functions
//! with inputs shaped like the workloads', on its own, outside a cluster.
//!
//! They put a number on a layer that the traced run can only see from
//! outside (a span around a handler does not say how much of it was the
//! B-tree and how much the WAL). Every layer crate has a public entry
//! point, so none is dropped; the engine-backed probes (`kvwal.*`,
//! `store.*`, `data.*`) use the same on-disk engine as the cluster's nodes,
//! in a directory of their own under the run's data directory.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cfs::{
    DataNode, DataRequest, DataResponse, FileType, Inode, InodeId, MetaCommand, MetaNode, NodeId,
    PartitionId, RaftConfig, RaftHub, VolumeId,
};
use cfs_btree::BTree;
use cfs_kvwal::{LsmEngine, LsmOptions, WriteBatch};
use cfs_meta::{MetaPartition, MetaPartitionConfig};
use cfs_net::Network;
use cfs_store::{ExtentStore, StorePersist};
use cfs_types::codec::{Decode, Encode};
use cfs_types::crc::crc32;

pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    run: fn(&Path) -> f64,
}

const fn probe(name: &'static str, unit: &'static str, run: fn(&Path) -> f64) -> Probe {
    Probe { name, unit, run }
}

pub const PROBES: [Probe; 17] = [
    probe("btree.insert_ns", "ns", btree_insert),
    probe("btree.get_ns", "ns", btree_get),
    probe("btree.snapshot_ns", "ns", btree_snapshot),
    probe("types.inode_encode_ns", "ns", inode_encode),
    probe("types.inode_decode_ns", "ns", inode_decode),
    probe("types.crc_mib_s", "MiB/s", crc_rate),
    probe("kvwal.put_ns", "ns", kvwal_put),
    probe("kvwal.get_ns", "ns", kvwal_get),
    probe("kvwal.flush_us", "us", kvwal_flush),
    probe("store.append_128k_us", "us", store_append),
    probe("store.read_4k_ns", "ns", store_read),
    probe("store.small_write_4k_us", "us", store_small_write),
    probe("store.punch_us", "us", store_punch),
    probe("raft.commit_us", "us", raft_commit),
    probe("net.echo_ns", "ns", net_echo),
    probe("meta.apply_ns", "ns", meta_apply),
    probe("data.append_3rep_us", "us", data_append),
];

/// Run every probe, in `PROBES` order. `scratch` holds the engine files
/// and is emptied afterwards.
pub fn run_all(scratch: &Path) -> Vec<f64> {
    let dir = scratch.join("probes");
    let values = PROBES.iter().map(|p| (p.run)(&dir)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    values
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// A tree the size of a `meta_mdtest` round's dentry table.
fn warm_tree() -> BTree<u64, u64> {
    let mut t = BTree::new();
    for i in 0..1_000u64 {
        t.insert(i.wrapping_mul(0x9E37_79B9) % 100_000, i);
    }
    t
}

fn btree_insert(_: &Path) -> f64 {
    let mut t = warm_tree();
    ns_per_call(100_000, |i| {
        black_box(t.insert(100_000 + i, i));
    })
}

fn btree_get(_: &Path) -> f64 {
    let t = warm_tree();
    ns_per_call(500_000, |i| {
        black_box(t.get(&(i.wrapping_mul(7919) % 100_000)));
    })
}

fn btree_snapshot(_: &Path) -> f64 {
    let t = warm_tree();
    ns_per_call(500_000, |_| {
        black_box(t.snapshot());
    })
}

/// An inode like `large_seq`'s after its 16 one-MiB writes.
fn sample_inode() -> Inode {
    let mut ino = Inode::new(InodeId(42), FileType::File, 123_456_789);
    ino.size = 16 << 20;
    for i in 0..16 {
        ino.extents.push(cfs::ExtentKey {
            file_offset: i << 20,
            partition_id: PartitionId(i % 8),
            extent_id: cfs::ExtentId(i * 7),
            extent_offset: 0,
            size: 1 << 20,
        });
    }
    ino
}

fn inode_encode(_: &Path) -> f64 {
    let ino = sample_inode();
    ns_per_call(200_000, |_| {
        black_box(ino.to_bytes());
    })
}

fn inode_decode(_: &Path) -> f64 {
    let bytes = sample_inode().to_bytes();
    ns_per_call(200_000, |_| {
        black_box(Inode::from_bytes(&bytes).expect("decodes what encode wrote"));
    })
}

fn crc_rate(_: &Path) -> f64 {
    let packet = vec![0xA5u8; 128 * 1024];
    let ns = ns_per_call(400, |_| {
        black_box(crc32(black_box(&packet)));
    });
    packet.len() as f64 / (1 << 20) as f64 / (ns / 1e9)
}

fn engine(dir: &Path, name: &str) -> Arc<LsmEngine> {
    Arc::new(LsmEngine::open(&dir.join(name), LsmOptions::default()).expect("engine opens"))
}

fn put_one(e: &LsmEngine, i: u64, value: &[u8]) {
    let mut b = WriteBatch::new();
    b.put_raw(i.to_be_bytes().to_vec(), value.to_vec());
    e.write(b).expect("engine write");
}

/// A 100-byte value per key: the size of an encoded dentry or raft entry.
fn kvwal_put(dir: &Path) -> f64 {
    let e = engine(dir, "kv-put");
    ns_per_call(20_000, |i| put_one(&e, i, &[7u8; 100]))
}

fn kvwal_get(dir: &Path) -> f64 {
    let e = engine(dir, "kv-get");
    for i in 0..20_000 {
        put_one(&e, i, &[7u8; 100]);
    }
    ns_per_call(100_000, |i| {
        black_box(e.get_raw(&(i.wrapping_mul(7919) % 20_000).to_be_bytes()));
    })
}

/// Flushing a memtable that holds one 128 KiB packet.
fn kvwal_flush(dir: &Path) -> f64 {
    let e = engine(dir, "kv-flush");
    let packet = vec![3u8; 128 * 1024];
    let mut flush_ns = 0u128;
    let rounds = 40;
    for i in 0..rounds {
        put_one(&e, i, &packet);
        let t = Instant::now();
        e.flush().expect("engine flush");
        flush_ns += t.elapsed().as_nanos();
    }
    flush_ns as f64 / rounds as f64 / 1e3
}

fn store(dir: &Path, name: &str) -> ExtentStore {
    let persist = Arc::new(StorePersist::new(engine(dir, name), 1));
    ExtentStore::new_persistent(128 << 20, 0, persist).expect("store opens")
}

fn store_append(dir: &Path) -> f64 {
    let mut st = store(dir, "st-append");
    let e = st.create_extent().expect("extent");
    let packet = vec![7u8; 128 * 1024];
    ns_per_call(64, |i| {
        st.append(e, i * packet.len() as u64, &packet)
            .expect("append");
    }) / 1e3
}

fn store_read(dir: &Path) -> f64 {
    let mut st = store(dir, "st-read");
    let e = st.create_extent().expect("extent");
    st.append(e, 0, &vec![1u8; 1 << 20]).expect("append");
    ns_per_call(100_000, |i| {
        let off = i.wrapping_mul(7919) % 255 * 4096;
        black_box(st.read(e, off, 4096).expect("read"));
    })
}

fn store_small_write(dir: &Path) -> f64 {
    let mut st = store(dir, "st-small");
    let data = vec![3u8; 4096];
    ns_per_call(2_000, |_| {
        black_box(st.write_small_file(&data).expect("small write"));
    }) / 1e3
}

fn store_punch(dir: &Path) -> f64 {
    let mut st = store(dir, "st-punch");
    let data = vec![3u8; 4096];
    let locs: Vec<_> = (0..2_000)
        .map(|_| st.write_small_file(&data).expect("small write"))
        .collect();
    ns_per_call(locs.len() as u64, |i| {
        st.delete_small_file(locs[i as usize]).expect("punch");
    }) / 1e3
}

const MEMBERS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

fn meta_config() -> MetaPartitionConfig {
    MetaPartitionConfig {
        partition_id: PartitionId(1),
        volume_id: VolumeId(1),
        start: InodeId(1),
        end: InodeId::MAX,
    }
}

fn create_inode() -> MetaCommand {
    MetaCommand::CreateInode {
        file_type: FileType::File,
        link_target: vec![],
        now_ns: 1,
    }
}

/// A 3-replica propose → commit → apply on a `RaftHub`, through the meta
/// node that owns the group (the hub has no smaller public host).
fn raft_commit(dir: &Path) -> f64 {
    let hub = RaftHub::new();
    let nodes: Vec<Arc<MetaNode>> = MEMBERS
        .iter()
        .map(|&id| {
            let dir = dir.join(format!("raft-{}", id.raw()));
            MetaNode::open(id, hub.clone(), &dir, RaftConfig::default(), 9).expect("meta node")
        })
        .collect();
    for n in &nodes {
        n.create_partition(meta_config(), MEMBERS.to_vec())
            .expect("partition");
    }
    let p = PartitionId(1);
    assert!(hub.pump_until(|| nodes.iter().any(|n| n.is_leader_for(p)), 5_000));
    let leader = nodes
        .iter()
        .find(|n| n.is_leader_for(p))
        .expect("a leader was elected");
    let cmd = create_inode();
    ns_per_call(500, |_| {
        black_box(leader.write(p, &cmd).expect("commit"));
    }) / 1e3
}

fn net_echo(_: &Path) -> f64 {
    let net: Network<String, String> = Network::new();
    net.register(NodeId(2), Arc::new(|_from, req: String| req));
    ns_per_call(200_000, |_| {
        black_box(net.call(NodeId(1), NodeId(2), String::new()).expect("echo"));
    })
}

/// Applying a create (inode + dentry) to a bare partition: no raft, no
/// WAL.
fn meta_apply(_: &Path) -> f64 {
    let mut p = MetaPartition::new(meta_config());
    let parent = create_inode()
        .apply(&mut p)
        .and_then(|v| v.into_inode())
        .expect("root");
    ns_per_call(50_000, |i| {
        let inode = create_inode()
            .apply(&mut p)
            .and_then(|v| v.into_inode())
            .expect("inode");
        let dentry = MetaCommand::CreateDentry {
            parent: parent.id,
            name: format!("f{i:06}"),
            inode: inode.id,
            file_type: FileType::File,
        };
        black_box(dentry.apply(&mut p).expect("dentry"));
    }) / 2.0
}

/// One 128 KiB packet down a 3-replica chain of engine-backed data nodes.
fn data_append(dir: &Path) -> f64 {
    let hub = RaftHub::new();
    let net: Network<DataRequest, cfs::Result<DataResponse>> = Network::new();
    let nodes: Vec<Arc<DataNode>> = MEMBERS
        .iter()
        .map(|&id| {
            let dir = dir.join(format!("data-{}", id.raw()));
            DataNode::open(id, hub.clone(), net.clone(), &dir, RaftConfig::default(), 5)
                .expect("data node")
        })
        .collect();
    for n in &nodes {
        let n2 = n.clone();
        net.register(n.id(), Arc::new(move |_from, req| n2.handle(req)));
        n.create_partition(PartitionId(1), VolumeId(1), MEMBERS.to_vec(), 128 << 20, 0)
            .expect("partition");
    }
    let p = PartitionId(1);
    assert!(hub.pump_until(|| nodes.iter().any(|n| n.is_raft_leader_for(p)), 5_000));
    let client = NodeId(9);
    let extent = match net.call(
        client,
        MEMBERS[0],
        DataRequest::CreateExtent { partition: p },
    ) {
        Ok(Ok(DataResponse::Extent(e))) => e,
        other => panic!("CreateExtent: {other:?}"),
    };
    let packet = Bytes::from(vec![7u8; 128 * 1024]);
    let crc = crc32(&packet);
    ns_per_call(64, |i| {
        let req = DataRequest::Append {
            partition: p,
            extent,
            offset: i * packet.len() as u64,
            data: packet.clone(),
            crc,
            replicas: MEMBERS.to_vec(),
            request_id: 0,
        };
        black_box(net.call(client, MEMBERS[0], req).expect("delivered")).expect("appended");
    }) / 1e3
}
