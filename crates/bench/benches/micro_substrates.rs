//! Criterion microbenchmarks of the substrate data structures: the
//! copy-on-write B-tree, extent store, binary codec,
//! and a full Raft propose→commit cycle on the in-process hub.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use cfs_btree::BTree;
use cfs_store::ExtentStore;
use cfs_types::codec::{Decode, Encode};
use cfs_types::testutil::TempDir;
use cfs_types::{FileType, Inode, InodeId};

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.bench_function("insert_10k_sequential", |b| {
        b.iter_batched(
            BTree::<u64, u64>::new,
            |mut t| {
                for i in 0..10_000u64 {
                    t.insert(i, i);
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut warm = BTree::new();
    for i in 0..100_000u64 {
        warm.insert(i, i);
    }
    g.bench_function("get_hot", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 100_000;
            std::hint::black_box(warm.get(&k))
        })
    });
    g.bench_function("snapshot_clone", |b| {
        b.iter(|| std::hint::black_box(warm.snapshot()))
    });
    g.bench_function("range_scan_100", |b| {
        b.iter(|| warm.range(5_000..5_100).count())
    });
    g.finish();
}

fn bench_extent_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("extent_store");
    let payload = vec![7u8; 128 * 1024];
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("append_128k", |b| {
        b.iter_batched(
            || {
                let mut st = ExtentStore::with_defaults();
                let e = st.create_extent().unwrap();
                (st, e, 0u64)
            },
            |(mut st, e, mut off)| {
                st.append(e, off, &payload).unwrap();
                off += payload.len() as u64;
                (st, e, off)
            },
            BatchSize::SmallInput,
        )
    });
    let mut st = ExtentStore::with_defaults();
    let e = st.create_extent().unwrap();
    st.append(e, 0, &vec![1u8; 1 << 20]).unwrap();
    g.bench_function("read_4k", |b| {
        let mut off = 0u64;
        b.iter(|| {
            off = (off + 4096) % ((1 << 20) - 4096);
            std::hint::black_box(st.read(e, off, 4096).unwrap())
        })
    });
    g.bench_function("small_file_write_4k", |b| {
        let mut st = ExtentStore::with_defaults();
        let data = vec![3u8; 4096];
        b.iter(|| std::hint::black_box(st.write_small_file(&data).unwrap()))
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let mut ino = Inode::new(InodeId(42), FileType::File, 123456789);
    ino.size = 1 << 30;
    for i in 0..16 {
        ino.extents.push(cfs_types::ExtentKey {
            file_offset: i * (1 << 26),
            partition_id: cfs_types::PartitionId(i),
            extent_id: cfs_types::ExtentId(i * 7),
            extent_offset: 0,
            size: 1 << 26,
        });
    }
    g.bench_function("inode_encode", |b| {
        b.iter(|| std::hint::black_box(ino.to_bytes()))
    });
    let bytes = ino.to_bytes();
    g.bench_function("inode_decode", |b| {
        b.iter(|| std::hint::black_box(Inode::from_bytes(&bytes).unwrap()))
    });
    g.finish();
}

fn bench_raft_cycle(c: &mut Criterion) {
    use cfs_meta::{MetaCommand, MetaNode, MetaPartitionConfig};
    use cfs_raft::{RaftConfig, RaftHub};
    use cfs_types::{NodeId, PartitionId, VolumeId};

    let hub = RaftHub::new();
    let dirs: Vec<TempDir> = (0..3)
        .map(|_| TempDir::new("bench-raft").unwrap())
        .collect();
    let nodes: Vec<_> = (1..=3u64)
        .zip(&dirs)
        .map(|(i, dir)| {
            MetaNode::open(NodeId(i), hub.clone(), dir.path(), RaftConfig::default(), 9).unwrap()
        })
        .collect();
    let cfg = MetaPartitionConfig {
        partition_id: PartitionId(1),
        volume_id: VolumeId(1),
        start: InodeId(1),
        end: InodeId::MAX,
    };
    for n in &nodes {
        n.create_partition(cfg.clone(), vec![NodeId(1), NodeId(2), NodeId(3)])
            .unwrap();
    }
    let p = PartitionId(1);
    assert!(hub.pump_until(|| nodes.iter().any(|n| n.is_leader_for(p)), 5_000));
    let leader = nodes.iter().find(|n| n.is_leader_for(p)).unwrap().clone();

    let mut g = c.benchmark_group("raft");
    g.bench_function("propose_commit_apply_3replicas", |b| {
        b.iter(|| {
            leader
                .write(
                    p,
                    &MetaCommand::CreateInode {
                        file_type: FileType::File,
                        link_target: vec![],
                        now_ns: 1,
                    },
                )
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_btree,
    bench_extent_store,
    bench_codec,
    bench_raft_cycle
);
criterion_main!(benches);
