//! Integration tests: scenario-aware replication across a 3-node data
//! cluster — chain appends with committed watermarks, Raft overwrites,
//! partial-failure stale tails, and recovery alignment (§2.2.4–§2.2.5).

use std::sync::Arc;

use bytes::Bytes;

use cfs_data::{DataNode, DataRequest, DataResponse, DeleteTask};
use cfs_net::Network;
use cfs_obs::Registry;
use cfs_raft::{RaftConfig, RaftHost, RaftHub};
use cfs_types::crc::crc32;
use cfs_types::testutil::TempDir;
use cfs_types::{CfsError, ExtentId, FaultState, NodeId, PartitionId, VolumeId};

struct Cluster {
    hub: RaftHub,
    net: Network<DataRequest, cfs_types::Result<DataResponse>>,
    faults: FaultState,
    nodes: Vec<Arc<DataNode>>,
    /// The nodes' engine directories; dropped (and removed) last.
    _dirs: Vec<TempDir>,
}

fn cluster(n: u64) -> Cluster {
    cluster_with_registry(n, None)
}

/// A cluster whose nodes all bind their metrics to `registry`.
fn cluster_with_registry(n: u64, registry: Option<&Registry>) -> Cluster {
    let hub = RaftHub::new();
    let net: Network<DataRequest, cfs_types::Result<DataResponse>> = Network::new();
    let faults = FaultState::new();
    hub.set_faults(faults.clone());
    net.set_faults(faults.clone());
    let dirs: Vec<TempDir> = (0..n).map(|_| TempDir::new("data-repl").unwrap()).collect();
    let nodes: Vec<Arc<DataNode>> = (1..=n)
        .zip(&dirs)
        .map(|(i, dir)| {
            DataNode::open_with_registry(
                NodeId(i),
                hub.clone(),
                net.clone(),
                dir.path(),
                RaftConfig::default(),
                7,
                registry,
            )
            .unwrap()
        })
        .collect();
    for node in &nodes {
        let n = node.clone();
        net.register(node.id(), Arc::new(move |_from, req| n.handle(req)));
    }
    Cluster {
        hub,
        net,
        faults,
        nodes,
        _dirs: dirs,
    }
}

fn mk_partition(c: &Cluster, pid: u64) -> (PartitionId, Vec<NodeId>) {
    let members: Vec<NodeId> = c.nodes.iter().map(|n| n.id()).collect();
    for n in &c.nodes {
        n.create_partition(PartitionId(pid), VolumeId(1), members.clone(), 1 << 20, 0)
            .unwrap();
    }
    let p = PartitionId(pid);
    assert!(c
        .hub
        .pump_until(|| c.nodes.iter().any(|n| n.is_raft_leader_for(p)), 5_000));
    (p, members)
}

/// Make the chain head (`c.nodes[0]`) leader of `p`'s Raft group again
/// after a reboot by ticking it alone (at creation it campaigns first):
/// reads are answered only at the Raft leader, and only the head tracks
/// the all-replica commit that `enforce_committed` clamps to.
fn elect_head(c: &Cluster, p: PartitionId) {
    let head = &c.nodes[0];
    for _ in 0..2_000 {
        if head.is_raft_leader_for(p) {
            return;
        }
        head.raft_tick();
        c.hub.pump();
    }
    panic!("the chain head never won {p}'s election");
}

fn append(
    c: &Cluster,
    p: PartitionId,
    extent: ExtentId,
    offset: u64,
    data: &[u8],
    replicas: &[NodeId],
) -> cfs_types::Result<u64> {
    let req = DataRequest::Append {
        partition: p,
        extent,
        offset,
        data: Bytes::copy_from_slice(data),
        crc: crc32(data),
        replicas: replicas.to_vec(),
        request_id: 0,
    };
    match c.net.call(NodeId(99), replicas[0], req)? {
        Ok(DataResponse::Watermark(w)) => Ok(w),
        Ok(other) => panic!("unexpected response {other:?}"),
        Err(e) => Err(e),
    }
}

fn create_extent(c: &Cluster, p: PartitionId, leader: NodeId) -> ExtentId {
    match c
        .net
        .call(
            NodeId(99),
            leader,
            DataRequest::CreateExtent { partition: p },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Extent(e) => e,
        other => panic!("unexpected {other:?}"),
    }
}

fn extent_info(
    c: &Cluster,
    p: PartitionId,
    node: NodeId,
    extent: ExtentId,
) -> cfs_data::ExtentInfo {
    match c
        .net
        .call(
            NodeId(99),
            node,
            DataRequest::ExtentInfo {
                partition: p,
                extent,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Info(i) => i,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn chain_append_replicates_to_all_and_commits() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];
    let e = create_extent(&c, p, leader);

    let w = append(&c, p, e, 0, b"hello chain", &members).unwrap();
    assert_eq!(w, 11);
    let w = append(&c, p, e, 11, b"!", &members).unwrap();
    assert_eq!(w, 12);

    // Every replica holds identical bytes with identical CRC.
    let infos: Vec<_> = members.iter().map(|&m| extent_info(&c, p, m, e)).collect();
    assert!(infos.iter().all(|i| i.size == 12));
    assert!(infos.iter().all(|i| i.crc == infos[0].crc));
    // Only the PB leader tracks the all-replica commit.
    assert_eq!(infos[0].committed, 12);

    // Committed read at the leader.
    match c
        .net
        .call(
            NodeId(99),
            leader,
            DataRequest::Read {
                partition: p,
                extent: e,
                offset: 0,
                len: 64,
                enforce_committed: true,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Data(d) => assert_eq!(&d[..], b"hello chain!"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn append_at_wrong_watermark_is_rejected() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let e = create_extent(&c, p, members[0]);
    append(&c, p, e, 0, b"0123456789", &members).unwrap();
    let err = append(&c, p, e, 5, b"overlap", &members).unwrap_err();
    assert!(matches!(err, CfsError::InvalidArgument(_)));
    // A gap makes the chain head wait (bounded) for the predecessor
    // packet of a pipelined window; with no such packet it times out.
    let err = append(&c, p, e, 20, b"gap", &members).unwrap_err();
    assert!(matches!(err, CfsError::Timeout(_)));
}

/// The packet CRC check lives in the store, so pin that every hop still
/// makes it: a packet whose CRC does not match, sent to the chain head or
/// straight to a follower, is `Corrupt` there, and no replica's extent
/// grows and no engine write happens anywhere.
#[test]
fn corrupt_packet_is_rejected_at_every_hop() {
    let registry = Registry::new();
    let c = cluster_with_registry(3, Some(&registry));
    let (p, members) = mk_partition(&c, 1);
    let e = create_extent(&c, p, members[0]);
    append(&c, p, e, 0, b"0123456789", &members).unwrap();
    let sizes = || -> Vec<u64> {
        members
            .iter()
            .map(|&m| extent_info(&c, p, m, e).size)
            .collect()
    };
    let wal_appends = || registry.snapshot().counter("kvwal.wal_appends");
    let data = Bytes::from_static(b"flipped in flight");
    let corrupt = DataRequest::Append {
        partition: p,
        extent: e,
        offset: 10,
        data: data.clone(),
        crc: crc32(&data) ^ 0x8000_0000,
        replicas: members.clone(),
        request_id: 0,
    };
    for hop in [members[0], members[1]] {
        let before = wal_appends();
        let res = c.net.call(NodeId(99), hop, corrupt.clone()).unwrap();
        assert!(matches!(res, Err(CfsError::Corrupt(_))), "{hop}: {res:?}");
        assert_eq!(sizes(), vec![10; 3], "{hop}: no replica grew");
        assert_eq!(wal_appends(), before, "{hop}: no engine write");
    }
    // The chain is unharmed: the same bytes with their CRC land, and
    // landing is what the counter sees.
    let before = wal_appends();
    assert_eq!(append(&c, p, e, 10, &data, &members).unwrap(), 27);
    assert_eq!(sizes(), vec![27; 3]);
    assert!(wal_appends() > before);
}

#[test]
fn partial_chain_failure_leaves_uncommitted_stale_tail() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];
    let e = create_extent(&c, p, leader);
    append(&c, p, e, 0, b"committed!", &members).unwrap();

    // Cut the link to the last replica: the leader and middle replica
    // apply, the chain fails, nothing commits.
    c.faults.set_link_cut(members[1], members[2], true);
    let err = append(&c, p, e, 10, b"stale tail", &members).unwrap_err();
    assert!(err.is_retryable(), "client retries elsewhere: {err}");

    let li = extent_info(&c, p, leader, e);
    assert_eq!(li.size, 20, "leader applied the bytes");
    assert_eq!(li.committed, 10, "watermark did not advance");

    // Committed reads never see the stale tail (§2.2.5).
    match c
        .net
        .call(
            NodeId(99),
            leader,
            DataRequest::Read {
                partition: p,
                extent: e,
                offset: 0,
                len: 64,
                enforce_committed: true,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Data(d) => assert_eq!(&d[..], b"committed!"),
        other => panic!("unexpected {other:?}"),
    }

    // Recovery aligns every replica back to the committed watermark.
    c.faults.heal_all();
    c.net
        .call(
            NodeId(99),
            leader,
            DataRequest::Recover {
                partition: p,
                survivors: vec![],
            },
        )
        .unwrap()
        .unwrap();
    for &m in &members {
        let i = extent_info(&c, p, m, e);
        assert_eq!(i.size, 10, "{m} aligned");
    }
    // After alignment, appends continue at the committed watermark.
    let w = append(&c, p, e, 10, b" resumed", &members).unwrap();
    assert_eq!(w, 18);
}

#[test]
fn recovery_reships_missing_committed_bytes() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];
    let e = create_extent(&c, p, leader);
    append(&c, p, e, 0, &[7u8; 4096], &members).unwrap();

    // Simulate a replica that lost its tail (crash + partial disk loss).
    c.net
        .call(
            NodeId(99),
            members[2],
            DataRequest::TruncateExtent {
                partition: p,
                extent: e,
                size: 1000,
            },
        )
        .unwrap()
        .unwrap();
    assert_eq!(extent_info(&c, p, members[2], e).size, 1000);

    c.net
        .call(
            NodeId(99),
            leader,
            DataRequest::Recover {
                partition: p,
                survivors: vec![],
            },
        )
        .unwrap()
        .unwrap();
    let i = extent_info(&c, p, members[2], e);
    assert_eq!(i.size, 4096, "missing bytes re-shipped");
    assert_eq!(i.crc, extent_info(&c, p, leader, e).crc);
}

/// A replica that missed a queued punch (its own attempt failed past its
/// watermark, as on a lagging replica; a replacement never saw the queue)
/// ends byte-identical to the others once recovery re-ships: the leader
/// drains its delete queue first, so it ships the punched bytes.
#[test]
fn recovery_reships_punched_bytes_of_a_queued_punch() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];
    let e = create_extent(&c, p, leader);
    append(&c, p, e, 0, &[7u8; 4096], &members).unwrap();
    c.net
        .call(
            NodeId(99),
            leader,
            DataRequest::QueueDeletes {
                partition: p,
                tasks: vec![DeleteTask::Punch {
                    extent: e,
                    offset: 1000,
                    len: 2000,
                }],
                replicas: members.clone(),
            },
        )
        .unwrap()
        .unwrap();
    let lagging = members[2];
    c.net
        .call(
            NodeId(99),
            lagging,
            DataRequest::TruncateExtent {
                partition: p,
                extent: e,
                size: 500,
            },
        )
        .unwrap()
        .unwrap();
    c.net
        .call(
            NodeId(99),
            lagging,
            DataRequest::ProcessDeletes { partition: p },
        )
        .unwrap()
        .unwrap();

    c.net
        .call(
            NodeId(99),
            leader,
            DataRequest::Recover {
                partition: p,
                survivors: vec![],
            },
        )
        .unwrap()
        .unwrap();
    for &m in &members {
        c.net
            .call(NodeId(99), m, DataRequest::ProcessDeletes { partition: p })
            .unwrap()
            .unwrap();
    }
    let want = extent_info(&c, p, leader, e);
    assert_eq!(want.size, 4096);
    for &m in &members[1..] {
        let got = extent_info(&c, p, m, e);
        assert_eq!(
            (got.size, got.crc),
            (want.size, want.crc),
            "replica {m} differs from the leader after recovery"
        );
    }
}

#[test]
fn small_files_pack_and_replicate_identically() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];

    let mut locs = Vec::new();
    for i in 0..10u8 {
        let data = vec![i; 1000 + i as usize];
        match c
            .net
            .call(
                NodeId(99),
                leader,
                DataRequest::WriteSmallBatch {
                    partition: p,
                    records: vec![Bytes::from(data)],
                    replicas: members.clone(),
                },
            )
            .unwrap()
            .unwrap()
        {
            DataResponse::SmallBatch(l) => locs.extend(l),
            other => panic!("unexpected {other:?}"),
        }
    }
    // All ten share one extent, back to back.
    assert!(locs.iter().all(|l| l.extent_id == locs[0].extent_id));
    assert_eq!(locs[1].offset, 1000);
    // Replicas byte-identical.
    let infos: Vec<_> = members
        .iter()
        .map(|&m| extent_info(&c, p, m, locs[0].extent_id))
        .collect();
    assert!(infos
        .iter()
        .all(|i| i.crc == infos[0].crc && i.size == infos[0].size));

    // Punch-hole delete of one small file propagates to all replicas via
    // the async queue.
    c.net
        .call(
            NodeId(99),
            leader,
            DataRequest::QueueDeletes {
                partition: p,
                tasks: vec![DeleteTask::Punch {
                    extent: locs[3].extent_id,
                    offset: locs[3].offset,
                    len: locs[3].len,
                }],
                replicas: members.clone(),
            },
        )
        .unwrap()
        .unwrap();
    for &m in &members {
        c.net
            .call(NodeId(99), m, DataRequest::ProcessDeletes { partition: p })
            .unwrap()
            .unwrap();
    }
    let infos: Vec<_> = members
        .iter()
        .map(|&m| extent_info(&c, p, m, locs[0].extent_id))
        .collect();
    assert!(
        infos.iter().all(|i| i.crc == infos[0].crc),
        "replicas still identical"
    );
    // Neighbors intact at the leader.
    match c
        .net
        .call(
            NodeId(99),
            leader,
            DataRequest::Read {
                partition: p,
                extent: locs[4].extent_id,
                offset: locs[4].offset,
                len: locs[4].len,
                enforce_committed: true,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Data(d) => assert!(d.iter().all(|&b| b == 4)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn mid_batch_chain_failure_commits_only_the_leading_segment() {
    use std::sync::atomic::{AtomicU64, Ordering};

    use cfs_net::{DeliveryHook, DeliveryVerdict};

    let c = cluster(3);
    let members: Vec<NodeId> = c.nodes.iter().map(|n| n.id()).collect();
    let p = PartitionId(1);
    // Tiny rotation bound: four 1000-byte records pack as two two-record
    // segments in two extents (A at 0/1000, then B at 0/1000), so the
    // batch forwards two chain submissions.
    for n in &c.nodes {
        n.create_partition(p, VolumeId(1), members.clone(), 2048, 0)
            .unwrap();
    }
    assert!(c
        .hub
        .pump_until(|| c.nodes.iter().any(|n| n.is_raft_leader_for(p)), 5_000));
    let leader = members[0];
    let records: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![i; 1000])).collect();

    // Deliver the first head→middle forward (segment 1's chain), drop
    // every later one: segment 2 fails mid-batch.
    struct DropAfterFirst {
        from: NodeId,
        to: NodeId,
        seen: AtomicU64,
    }
    impl DeliveryHook for DropAfterFirst {
        fn verdict(&self, _seq: u64, from: NodeId, to: NodeId) -> DeliveryVerdict {
            if from == self.from && to == self.to && self.seen.fetch_add(1, Ordering::SeqCst) > 0 {
                return DeliveryVerdict::Drop;
            }
            DeliveryVerdict::Deliver
        }
    }
    c.net.set_delivery_hook(Some(Arc::new(DropAfterFirst {
        from: members[0],
        to: members[1],
        seen: AtomicU64::new(0),
    })));

    let locs = match c
        .net
        .call(
            NodeId(99),
            leader,
            DataRequest::WriteSmallBatch {
                partition: p,
                records: records.clone(),
                replicas: members.clone(),
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::SmallBatch(l) => l,
        other => panic!("unexpected {other:?}"),
    };
    c.net.set_delivery_hook(None);

    // Committed prefix: exactly the first segment's two records, packed
    // back to back in the first extent.
    assert_eq!(locs.len(), 2, "only the leading segment committed");
    assert_eq!(locs[0].offset, 0);
    assert_eq!(locs[1].offset, 1000);
    assert_eq!(locs[0].extent_id, locs[1].extent_id);

    // The prefix is durably committed: committed reads serve it, and all
    // replicas hold identical bytes.
    for (i, loc) in locs.iter().enumerate() {
        match c
            .net
            .call(
                NodeId(99),
                leader,
                DataRequest::Read {
                    partition: p,
                    extent: loc.extent_id,
                    offset: loc.offset,
                    len: loc.len,
                    enforce_committed: true,
                },
            )
            .unwrap()
            .unwrap()
        {
            DataResponse::Data(d) => assert_eq!(d, vec![i as u8; 1000]),
            other => panic!("unexpected {other:?}"),
        }
    }
    let infos: Vec<_> = members
        .iter()
        .map(|&m| extent_info(&c, p, m, locs[0].extent_id))
        .collect();
    assert!(infos.iter().all(|i| i.crc == infos[0].crc));

    // The failed segment is an uncommitted stale tail at the leader only
    // (§2.2.5): applied locally before the forward died, watermark at 0.
    let tail = ExtentId(locs[0].extent_id.0 + 1);
    let li = extent_info(&c, p, leader, tail);
    assert_eq!(li.size, 2000, "leader applied segment 2 locally");
    assert_eq!(li.committed, 0, "segment 2 never committed");

    // Recovery truncates the stale tail back to the committed watermark.
    c.net
        .call(
            NodeId(99),
            leader,
            DataRequest::Recover {
                partition: p,
                survivors: vec![],
            },
        )
        .unwrap()
        .unwrap();
    assert_eq!(extent_info(&c, p, leader, tail).size, 0, "tail truncated");

    // The client's retry re-sends the uncommitted suffix as a fresh
    // batch; it lands cleanly and the whole file set reads back.
    let locs2 = match c
        .net
        .call(
            NodeId(99),
            leader,
            DataRequest::WriteSmallBatch {
                partition: p,
                records: records[2..].to_vec(),
                replicas: members.clone(),
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::SmallBatch(l) => l,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(locs2.len(), 2, "retried suffix fully committed");
    for (i, loc) in locs.iter().chain(locs2.iter()).enumerate() {
        match c
            .net
            .call(
                NodeId(99),
                leader,
                DataRequest::Read {
                    partition: p,
                    extent: loc.extent_id,
                    offset: loc.offset,
                    len: loc.len,
                    enforce_committed: true,
                },
            )
            .unwrap()
            .unwrap()
        {
            DataResponse::Data(d) => assert_eq!(d, vec![i as u8; 1000]),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn raft_overwrite_applies_on_all_replicas() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];
    let e = create_extent(&c, p, leader);
    append(&c, p, e, 0, &[0u8; 1024], &members).unwrap();

    // Find the Raft leader (may differ from the PB leader, §2.7.4).
    let raft_leader = c
        .nodes
        .iter()
        .find(|n| n.is_raft_leader_for(p))
        .unwrap()
        .id();
    c.net
        .call(
            NodeId(99),
            raft_leader,
            DataRequest::Overwrite {
                partition: p,
                extent: e,
                offset: 100,
                data: Bytes::from_static(b"OVERWRITTEN"),
            },
        )
        .unwrap()
        .unwrap();

    // Propagate the commit to followers via heartbeats.
    for _ in 0..200 {
        c.hub.tick_and_pump();
    }
    let infos: Vec<_> = members.iter().map(|&m| extent_info(&c, p, m, e)).collect();
    assert!(
        infos.iter().all(|i| i.crc == infos[0].crc),
        "overwrite reached every replica: {infos:?}"
    );
    match c
        .net
        .call(
            NodeId(99),
            members[0],
            DataRequest::Read {
                partition: p,
                extent: e,
                offset: 100,
                len: 11,
                enforce_committed: true,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Data(d) => assert_eq!(&d[..], b"OVERWRITTEN"),
        other => panic!("unexpected {other:?}"),
    }
}

/// A chain-replicated delete whose forward is lost is queued on no
/// replica, so no replica later punches or deletes alone.
#[test]
fn lost_delete_forward_queues_on_no_replica() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let e = create_extent(&c, p, members[0]);
    append(&c, p, e, 0, b"committed!", &members).unwrap();

    c.faults.set_link_cut(members[1], members[2], true);
    let deletes = [
        DataRequest::QueueDeletes {
            partition: p,
            tasks: vec![DeleteTask::Punch {
                extent: e,
                offset: 0,
                len: 4,
            }],
            replicas: members.clone(),
        },
        DataRequest::QueueDeletes {
            partition: p,
            tasks: vec![DeleteTask::Extent(e)],
            replicas: members.clone(),
        },
    ];
    for req in deletes {
        let reply = c.net.call(NodeId(99), members[0], req).unwrap();
        assert!(reply.is_err(), "the chain forward was cut: {reply:?}");
    }
    for n in &c.nodes {
        assert_eq!(n.pending_deletes(p), Some(0), "{} queued a delete", n.id());
    }
}

/// A membership change keeps each replica's applied state: rotating the
/// member list re-applies no overwrite (3 overwrites on 3 replicas stay 9
/// applies), and the replicas stay byte-identical.
#[test]
fn member_rotation_reapplies_no_overwrite() {
    let registry = Registry::new();
    let c = cluster_with_registry(3, Some(&registry));
    let (p, members) = mk_partition(&c, 1);
    let e = create_extent(&c, p, members[0]);
    append(&c, p, e, 0, &[0u8; 1024], &members).unwrap();
    let raft_leader = c
        .nodes
        .iter()
        .find(|n| n.is_raft_leader_for(p))
        .unwrap()
        .id();
    for i in 0..3u64 {
        c.net
            .call(
                NodeId(99),
                raft_leader,
                DataRequest::Overwrite {
                    partition: p,
                    extent: e,
                    offset: 100 * i,
                    data: Bytes::from_static(b"OVERWRITTEN"),
                },
            )
            .unwrap()
            .unwrap();
    }
    for _ in 0..200 {
        c.hub.tick_and_pump();
    }
    let applied = || registry.snapshot().counter("data.overwrites_applied");
    assert_eq!(applied(), 9);

    let rotated = vec![members[1], members[2], members[0]];
    for n in &c.nodes {
        n.update_members(p, rotated.clone()).unwrap();
    }
    assert!(c
        .hub
        .pump_until(|| c.nodes.iter().any(|n| n.is_raft_leader_for(p)), 5_000));
    for _ in 0..200 {
        c.hub.tick_and_pump();
    }
    assert_eq!(applied(), 9, "a member rotation re-applied overwrites");
    let infos: Vec<_> = members.iter().map(|&m| extent_info(&c, p, m, e)).collect();
    assert!(infos.iter().all(|i| i.crc == infos[0].crc), "{infos:?}");
}

/// `CreatePartition` tasks and the hub pump that applies a committed
/// overwrite take the node's `raft` lock and its partition map in one
/// order (raft first), so the two never deadlock: one thread creates
/// partitions on fresh ids while another drives overwrites to commit on an
/// existing partition of the same node.
#[test]
fn create_partition_does_not_deadlock_against_overwrite_apply() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let c = Arc::new(cluster(3));
    let (p, members) = mk_partition(&c, 1);
    let e = create_extent(&c, p, members[0]);
    append(&c, p, e, 0, &[0u8; 1024], &members).unwrap();
    let node = c.nodes.iter().find(|n| n.is_raft_leader_for(p)).unwrap();
    let node = Arc::clone(node);

    let stop = Arc::new(AtomicBool::new(false));
    let creator = {
        let (node, stop) = (node.clone(), stop.clone());
        move || {
            let mut pid = 1_000;
            while !stop.load(Ordering::Relaxed) && pid < 3_000 {
                node.create_partition(PartitionId(pid), VolumeId(1), vec![node.id()], 1 << 20, 0)
                    .unwrap();
                pid += 1;
            }
        }
    };
    let writer = {
        let c = c.clone();
        move || {
            for i in 0..200u64 {
                let req = DataRequest::Overwrite {
                    partition: p,
                    extent: e,
                    offset: i % 1_000,
                    data: Bytes::from(vec![i as u8; 16]),
                };
                c.net.call(NodeId(99), node.id(), req).unwrap().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        }
    };
    let threads = [std::thread::spawn(creator), std::thread::spawn(writer)];
    let watchdog = Instant::now() + Duration::from_secs(10);
    while !threads.iter().all(|t| t.is_finished()) {
        assert!(
            Instant::now() < watchdog,
            "create_partition and the overwrite apply deadlocked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn overwrite_on_follower_redirects_to_raft_leader() {
    let c = cluster(3);
    let (p, _members) = mk_partition(&c, 1);
    let follower = c
        .nodes
        .iter()
        .find(|n| !n.is_raft_leader_for(p))
        .unwrap()
        .id();
    let err = c
        .net
        .call(
            NodeId(99),
            follower,
            DataRequest::Overwrite {
                partition: p,
                extent: ExtentId(1),
                offset: 0,
                data: Bytes::from_static(b"x"),
            },
        )
        .unwrap()
        .unwrap_err();
    match err {
        CfsError::NotLeader { hint, .. } => assert!(hint.is_some()),
        other => panic!("expected NotLeader, got {other}"),
    }
}

#[test]
fn engine_backed_cluster_survives_whole_cluster_power_loss() {
    let root = TempDir::new("data-powerloss").unwrap();
    let dir_for = |i: u64| root.path().join(format!("data-{i}"));

    let boot = |seed: u64| -> Cluster {
        let hub = RaftHub::new();
        let net: Network<DataRequest, cfs_types::Result<DataResponse>> = Network::new();
        let faults = FaultState::new();
        hub.set_faults(faults.clone());
        net.set_faults(faults.clone());
        let nodes: Vec<Arc<DataNode>> = (1..=3u64)
            .map(|i| {
                DataNode::open(
                    NodeId(i),
                    hub.clone(),
                    net.clone(),
                    &dir_for(i),
                    RaftConfig::default(),
                    seed,
                )
                .unwrap()
            })
            .collect();
        for node in &nodes {
            let n = node.clone();
            net.register(node.id(), Arc::new(move |_from, req| n.handle(req)));
        }
        Cluster {
            hub,
            net,
            faults,
            nodes,
            _dirs: Vec::new(), // `root` above owns the directories
        }
    };

    // Boot 1: write through every replication path, then "pull the plug"
    // on the whole cluster by dropping every node.
    let (p, members, e, loc, pre_manifests);
    {
        let c = boot(7);
        let (pid, m) = mk_partition(&c, 1);
        let leader = m[0];
        let ext = create_extent(&c, pid, leader);
        append(&c, pid, ext, 0, b"durable bytes", &m).unwrap();
        let small = match c
            .net
            .call(
                NodeId(99),
                leader,
                DataRequest::WriteSmallBatch {
                    partition: pid,
                    records: vec![Bytes::from(vec![8u8; 2048])],
                    replicas: m.clone(),
                },
            )
            .unwrap()
            .unwrap()
        {
            DataResponse::SmallBatch(l) => l[0],
            other => panic!("unexpected {other:?}"),
        };
        let raft_leader = c
            .nodes
            .iter()
            .find(|n| n.is_raft_leader_for(pid))
            .unwrap()
            .id();
        c.net
            .call(
                NodeId(99),
                raft_leader,
                DataRequest::Overwrite {
                    partition: pid,
                    extent: ext,
                    offset: 0,
                    data: Bytes::from_static(b"DUR"),
                },
            )
            .unwrap()
            .unwrap();
        for _ in 0..200 {
            c.hub.tick_and_pump();
        }
        pre_manifests = c
            .nodes
            .iter()
            .map(|n| n.extent_manifest(pid).unwrap())
            .collect::<Vec<_>>();
        p = pid;
        members = m;
        e = ext;
        loc = small;
    } // power loss: every node Arc dropped, hub registrations die

    // Boot 2: every node restores from its engine directory alone.
    let c = boot(8);
    for (i, node) in c.nodes.iter().enumerate() {
        assert_eq!(node.partition_count(), 1, "node {i} restored its replica");
        assert_eq!(node.hosted_partitions(), vec![(p, members.clone())]);
    }
    elect_head(&c, p);

    // Recovered state ≡ pre-crash acknowledged state, byte for byte.
    let post_manifests: Vec<_> = c
        .nodes
        .iter()
        .map(|n| n.extent_manifest(p).unwrap())
        .collect();
    assert_eq!(post_manifests, pre_manifests);

    // Committed reads still serve the overwritten-then-committed bytes.
    match c
        .net
        .call(
            NodeId(99),
            members[0],
            DataRequest::Read {
                partition: p,
                extent: e,
                offset: 0,
                len: 64,
                enforce_committed: true,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Data(d) => assert_eq!(&d[..], b"DURable bytes"),
        other => panic!("unexpected {other:?}"),
    }
    match c
        .net
        .call(
            NodeId(99),
            members[0],
            DataRequest::Read {
                partition: p,
                extent: loc.extent_id,
                offset: loc.offset,
                len: loc.len,
                enforce_committed: true,
            },
        )
        .unwrap()
        .unwrap()
    {
        DataResponse::Data(d) => assert_eq!(d, vec![8u8; 2048]),
        other => panic!("unexpected {other:?}"),
    }

    // The write path resumes exactly at the recovered watermark.
    let w = append(&c, p, e, 13, b"!", &members).unwrap();
    assert_eq!(w, 14);
}

#[test]
fn read_only_partition_rejects_new_appends() {
    let c = cluster(3);
    let (p, members) = mk_partition(&c, 1);
    let leader = members[0];
    let e = create_extent(&c, p, leader);
    append(&c, p, e, 0, b"before", &members).unwrap();

    for &m in &members {
        c.net
            .call(
                NodeId(99),
                m,
                DataRequest::SetReadOnly {
                    partition: p,
                    ro: true,
                },
            )
            .unwrap()
            .unwrap();
    }
    let err = append(&c, p, e, 6, b"after", &members).unwrap_err();
    assert!(matches!(err, CfsError::ReadOnly(_)));
    assert!(
        err.needs_new_partition(),
        "client must ask the RM for fresh partitions"
    );
}
