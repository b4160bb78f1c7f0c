//! Workspace-level integration tests: the whole system (resource manager,
//! meta/data subsystems, clients) under concurrency and fault injection.

use std::sync::Arc;

use cfs::{CfsError, ClusterBuilder, DeliverySchedule, NodeId};
use cfs_master::{MasterRequest, MasterResponse};

#[test]
fn concurrent_clients_from_real_threads() {
    let cluster = Arc::new(ClusterBuilder::new().data_nodes(4).build().unwrap());
    cluster.create_volume("mt", 1, 4).unwrap();

    // Four OS threads, each its own mounted client, disjoint directories.
    let mut handles = Vec::new();
    for t in 0..4 {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let client = cluster.mount("mt").unwrap();
            let root = client.root();
            let dir = client.mkdir(root, &format!("t{t}")).unwrap();
            for i in 0..12 {
                let name = format!("f{i}");
                client.create(dir.id, &name).unwrap();
                let mut fh = client.open(dir.id, &name).unwrap();
                let body = vec![(t * 16 + i) as u8; 10_000];
                client.write(&mut fh, &body).unwrap();
            }
            // Verify our own files.
            for i in 0..12 {
                let mut fh = client.open(dir.id, &format!("f{i}")).unwrap();
                let body = client.read(&mut fh, 20_000).unwrap();
                assert_eq!(body.len(), 10_000);
                assert!(body.iter().all(|&b| b == (t * 16 + i) as u8));
            }
            t
        }));
    }
    for h in handles {
        h.join().expect("thread panicked");
    }

    // Cross-check from a fifth client: every directory is complete.
    let observer = cluster.mount("mt").unwrap();
    let root = observer.root();
    assert_eq!(observer.readdir(root).unwrap().len(), 4);
    for t in 0..4 {
        let dir = observer.lookup(root, &format!("t{t}")).unwrap().inode;
        assert_eq!(observer.readdir(dir).unwrap().len(), 12);
    }
}

#[test]
fn many_mounts_share_one_volume() {
    // Containers of one service share a volume (§2.1): 512 live mounts on
    // the event-driven fabrics, every one able to serve a metadata op.
    const MOUNTS: usize = 512;
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("fleet", 1, 4).unwrap();
    let clients: Vec<_> = (0..MOUNTS)
        .map(|_| cluster.mount("fleet").unwrap())
        .collect();
    let failures = clients.iter().filter(|c| c.stat(c.root()).is_err()).count();
    assert_eq!(
        failures, 0,
        "root stat failed on {failures} of {MOUNTS} mounts"
    );
}

#[test]
fn dentries_always_reference_live_inodes_under_failures() {
    // The §2.6 invariant: whatever fails, a dentry must always point at an
    // existing inode (orphan inodes are allowed; dangling dentries are
    // not).
    let cluster = ClusterBuilder::new().meta_nodes(4).build().unwrap();
    cluster.create_volume("inv", 2, 3).unwrap();
    let client = cluster.mount("inv").unwrap();
    let root = client.root();

    // Interleave creates/links/unlinks with meta-node failures.
    let mut created: Vec<String> = Vec::new();
    for round in 0..6 {
        // Kill / revive a rotating meta node between rounds.
        let victim = cluster.meta_nodes()[round % 4].id();
        cluster.faults().set_down(victim, true);
        cluster.settle(1_200); // allow elections

        for i in 0..8 {
            let name = format!("r{round}-f{i}");
            match client.create(root, &name) {
                Ok(_) => created.push(name),
                Err(e) => assert!(
                    e.is_retryable()
                        || matches!(e, CfsError::RetriesExhausted { .. } | CfsError::Exists(_)),
                    "unexpected error class: {e}"
                ),
            }
        }
        if round % 2 == 0 {
            if let Some(name) = created.pop() {
                let _ = client.unlink(root, &name);
            }
        }
        cluster.faults().set_down(victim, false);
        cluster.settle(1_200);
    }
    cluster.faults().heal_all();
    cluster.settle(2_000);

    // The invariant check: stat every listed dentry.
    for d in client.readdir(root).unwrap() {
        let ino = client.stat(d.inode);
        assert!(
            ino.is_ok(),
            "dangling dentry {} -> {} ({:?})",
            d.name,
            d.inode,
            ino.err()
        );
    }
    // Orphans may exist; they are cleanable.
    client.process_deletions();
    assert_eq!(client.orphan_count(), 0);
}

#[test]
fn volume_refill_when_partitions_fill_up() {
    // Tiny extent limit so data partitions fill fast; the heartbeat's
    // maintenance sweep must refill the volume (§2.3.1).
    let config = cfs::ClusterConfig {
        data_partition_extent_limit: 4,
        partitions_per_allocation: 3,
        ..cfs::ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .data_nodes(4)
        .config(config)
        .build()
        .unwrap();
    cluster.create_volume("fill", 1, 2).unwrap();
    let client = cluster.mount("fill").unwrap();
    let root = client.root();

    // Write enough large files to exhaust BOTH partitions' extent caps
    // (refill triggers only when the writable fraction drops below the
    // watermark).
    for i in 0..16 {
        let name = format!("big{i}");
        client.create(root, &name).unwrap();
        let mut fh = client.open(root, &name).unwrap();
        // > small threshold so each write allocates a dedicated extent.
        if client.write(&mut fh, &vec![1u8; 200_000]).is_err() {
            break; // partitions exhausted; heartbeat will fix it
        }
    }
    let tasks = cluster.heartbeat().unwrap();
    assert!(tasks > 0, "maintenance allocated fresh partitions");

    client.refresh_partition_table().unwrap();
    client.create(root, "after-refill").unwrap();
    let mut fh = client.open(root, "after-refill").unwrap();
    client.write(&mut fh, &vec![2u8; 200_000]).unwrap();
    let mut check = client.open(root, "after-refill").unwrap();
    assert_eq!(client.read(&mut check, 300_000).unwrap().len(), 200_000);
}

#[test]
fn master_replica_failover_keeps_cluster_manageable() {
    let cluster = ClusterBuilder::new().master_replicas(3).build().unwrap();
    cluster.create_volume("m", 1, 2).unwrap();

    let leader = cluster.master_leader().unwrap();
    cluster.faults().set_down(leader.id(), true);
    cluster.settle(3_000);

    // A new master leader serves volume creation and mounts.
    cluster.create_volume("post-failover", 1, 2).unwrap();
    let client = cluster.mount("post-failover").unwrap();
    client.create(client.root(), "works").unwrap();
    cluster.faults().set_down(leader.id(), false);
}

/// Delays every raft message by one pump round, so an election and the
/// new leader's first commit land in different rounds and the state in
/// between is observable.
struct OneRoundLate;

impl DeliverySchedule for OneRoundLate {
    fn defer_rounds(&self, _seq: u64, _from: NodeId, _to: NodeId) -> u64 {
        1
    }
}

#[test]
fn master_never_serves_a_stale_volume_table_after_power_loss() {
    let mut cluster = ClusterBuilder::new().master_replicas(3).build().unwrap();
    cluster.create_volume("acked", 1, 2).unwrap();
    cluster
        .hub()
        .set_delivery_schedule(Some(Arc::new(OneRoundLate)));
    cluster.power_loss_restart().unwrap();

    // Every replica restarts at its raft snapshot base and re-applies the
    // log only as commits reach it. Until the new leader has applied an
    // entry of its own term, asking any replica for the acknowledged
    // volume yields a retryable error — never `NotFound`.
    let mut served = false;
    for _ in 0..2_000 {
        for m in cluster.masters() {
            match m.handle(MasterRequest::GetVolume {
                name: "acked".into(),
            }) {
                Ok(MasterResponse::Volume { volume, .. }) => {
                    assert_eq!(volume.name, "acked");
                    served = true;
                }
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => assert!(e.is_retryable(), "{}: {e}", m.id()),
            }
        }
        if served {
            break;
        }
        cluster.hub().tick_and_pump();
    }
    assert!(served, "no master leader served the volume");
    cluster.hub().set_delivery_schedule(None);
}

#[test]
fn sequential_consistency_for_nonoverlapping_writers() {
    // §2.7/§3.3: two clients writing NON-overlapping parts of one file
    // must both be visible; CFS promises nothing for overlapping writes.
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("c", 1, 3).unwrap();
    let a = cluster.mount("c").unwrap();
    let b = cluster.mount("c").unwrap();
    let root = a.root();
    a.create(root, "shared.bin").unwrap();

    // A writes the first half; then B (after re-open, seeing A's size)
    // appends the second half.
    let mut fa = a.open(root, "shared.bin").unwrap();
    a.write(&mut fa, &vec![0xA1u8; 150_000]).unwrap();
    let mut fb = b.open(root, "shared.bin").unwrap();
    assert_eq!(fb.size(), 150_000);
    fb.seek(150_000);
    b.write(&mut fb, &vec![0xB2u8; 150_000]).unwrap();

    let reader = cluster.mount("c").unwrap();
    let mut fr = reader.open(root, "shared.bin").unwrap();
    let body = reader.read(&mut fr, 400_000).unwrap();
    assert_eq!(body.len(), 300_000);
    assert!(body[..150_000].iter().all(|&x| x == 0xA1));
    assert!(body[150_000..].iter().all(|&x| x == 0xB2));
}

#[test]
fn hundred_partition_volume_spreads_load() {
    // A CFS-style many-partition volume: ops spread across partitions and
    // across nodes.
    let cluster = ClusterBuilder::new()
        .meta_nodes(5)
        .data_nodes(5)
        .build()
        .unwrap();
    cluster.create_volume("wide", 4, 12).unwrap();
    let client = cluster.mount("wide").unwrap();
    let root = client.root();
    for i in 0..60 {
        client.create(root, &format!("f{i:02}")).unwrap();
    }
    cluster.settle(300);
    // Every meta node ended up hosting something (replication counts).
    let loads: Vec<u64> = cluster
        .meta_nodes()
        .iter()
        .map(|n| n.total_items())
        .collect();
    assert!(loads.iter().filter(|&&l| l > 0).count() >= 3, "{loads:?}");
    // Listing returns everything exactly once, sorted.
    let names: Vec<String> = client
        .readdir(root)
        .unwrap()
        .into_iter()
        .map(|d| d.name)
        .collect();
    assert_eq!(names.len(), 60);
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

#[test]
fn fsck_reclaims_orphans_left_by_a_dead_client() {
    // §2.6: a client that crashes before flushing its orphan list leaves
    // orphan inodes behind; the administrator repairs with fsck.
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("repair", 1, 2).unwrap();
    let doomed = cluster.mount("repair").unwrap();
    let root = doomed.root();

    doomed.create(root, "kept").unwrap();
    // Manufacture orphans: failed creates put speculative inodes on the
    // client's LOCAL orphan list (Fig. 3a failure path)…
    for _ in 0..3 {
        assert!(doomed.create(root, "kept").is_err());
    }
    assert_eq!(doomed.orphan_count(), 3);
    // …and the client dies without evicting them.
    drop(doomed);

    // An admin client audits, then repairs.
    let admin = cluster.mount("repair").unwrap();
    let audit = admin.fsck(false).unwrap();
    assert_eq!(audit.orphans_found, 3, "{audit:?}");
    assert_eq!(audit.dangling_dentries, 0, "S2.6 invariant holds");
    assert_eq!(audit.orphans_reclaimed, 0, "dry run reclaims nothing");

    let repair = admin.fsck(true).unwrap();
    assert_eq!(repair.orphans_reclaimed, 3, "{repair:?}");

    // Clean after repair; the live file is untouched.
    let after = admin.fsck(false).unwrap();
    assert_eq!(after.orphans_found, 0, "{after:?}");
    assert!(admin.lookup(root, "kept").is_ok());
}

#[test]
fn pipelined_append_issues_fewer_waits_than_packets() {
    // §2.7.1 streaming: with a window of 4 packets in flight, a 64 MB
    // sequential append blocks once per window, not once per packet.
    let cluster = ClusterBuilder::new().data_nodes(4).build().unwrap();
    cluster.create_volume("pipe", 1, 4).unwrap();
    let depth4 = cluster
        .mount_with_options(
            "pipe",
            cfs::ClientOptions {
                pipeline_depth: 4,
                meta_sync_every: 8,
                ..cfs::ClientOptions::default()
            },
        )
        .unwrap();
    let root = depth4.root();

    let packet = 128 * 1024usize;
    let total = 64 * 1024 * 1024usize; // 512 packets
    let body: Vec<u8> = (0..total).map(|i| (i / packet) as u8).collect();

    depth4.create(root, "big.bin").unwrap();
    let mut fh = depth4.open(root, "big.bin").unwrap();
    depth4
        .write_bytes(&mut fh, bytes::Bytes::from(body.clone()))
        .unwrap();
    depth4.close(&mut fh).unwrap();

    let s = depth4.data_path_stats();
    assert_eq!(s.packets_sent, (total / packet) as u64);
    assert!(
        s.window_waits < s.packets_sent,
        "pipelining must wait fewer times ({}) than packets sent ({})",
        s.window_waits,
        s.packets_sent
    );
    assert_eq!(s.window_waits, (total / packet / 4) as u64);

    // Depth 1 is the synchronous baseline: one blocking wait per packet.
    let depth1 = cluster
        .mount_with_options(
            "pipe",
            cfs::ClientOptions {
                pipeline_depth: 1,
                ..cfs::ClientOptions::default()
            },
        )
        .unwrap();
    depth1.create(root, "sync.bin").unwrap();
    let mut fs1 = depth1.open(root, "sync.bin").unwrap();
    depth1
        .write_bytes(&mut fs1, bytes::Bytes::from(vec![7u8; 8 * packet]))
        .unwrap();
    let s1 = depth1.data_path_stats();
    assert_eq!(s1.window_waits, s1.packets_sent);

    // Batched meta sync: 16 one-packet write calls, keys synced every 8
    // packets instead of every call.
    depth4.create(root, "batched.bin").unwrap();
    let mut fb = depth4.open(root, "batched.bin").unwrap();
    let syncs_before = depth4.data_path_stats().meta_syncs;
    // First call is 2 packets (> small-file threshold), then singles.
    depth4
        .write_bytes(&mut fb, bytes::Bytes::from(vec![0u8; 2 * packet]))
        .unwrap();
    for i in 2..4 {
        depth4
            .write_bytes(&mut fb, bytes::Bytes::from(vec![i as u8; packet]))
            .unwrap();
    }
    // Cadence not reached: keys accumulate locally, no meta round trip.
    assert_eq!(depth4.data_path_stats().meta_syncs, syncs_before);
    assert!(!fb.pending_meta_keys().is_empty());
    for i in 4..16 {
        depth4
            .write_bytes(&mut fb, bytes::Bytes::from(vec![i as u8; packet]))
            .unwrap();
    }
    assert_eq!(depth4.data_path_stats().meta_syncs - syncs_before, 2);
    depth4.close(&mut fb).unwrap();

    // Read back through a fresh client: only meta-recorded state counts.
    let observer = cluster.mount("pipe").unwrap();
    let fr = observer.open(root, "big.bin").unwrap();
    assert_eq!(fr.size(), total as u64);
    let tail = observer
        .read_at(&fr, (total - 3 * packet) as u64, 3 * packet)
        .unwrap();
    assert_eq!(&tail[..], &body[total - 3 * packet..]);
    let fbr = observer.open(root, "batched.bin").unwrap();
    assert_eq!(fbr.size(), 16 * packet as u64);
}

#[test]
fn midstream_replica_failure_preserves_committed_prefix() {
    // §2.2.5: a replica dies while a pipelined window is in flight. The
    // committed prefix stays where it was written; only the suffix is
    // resent to a different partition; no acked byte is lost and no
    // unrecorded (stale) byte is ever served.
    let cluster = ClusterBuilder::new().data_nodes(9).build().unwrap();
    cluster.create_volume("fail", 1, 6).unwrap();
    let client = cluster
        .mount_with_options(
            "fail",
            cfs::ClientOptions {
                pipeline_depth: 4,
                meta_sync_every: 4,
                ..cfs::ClientOptions::default()
            },
        )
        .unwrap();
    let root = client.root();

    let packet = 128 * 1024usize;
    fn pat(i: usize) -> u8 {
        (i % 251) as u8
    }

    // Establish the file on its first partition (192 KB > the small-file
    // threshold, so this takes the extent path).
    client.create(root, "victim.bin").unwrap();
    let mut fh = client.open(root, "victim.bin").unwrap();
    let prefix_len = packet + packet / 2;
    let prefix: Vec<u8> = (0..prefix_len).map(pat).collect();
    client
        .write_bytes(&mut fh, bytes::Bytes::from(prefix))
        .unwrap();
    let first_partition = fh.extents()[0].partition_id;
    let members = client.data_partition_members(first_partition).unwrap();

    // Kill the chain tail, then stream 8 more packets: the in-flight
    // window fails, and the client moves the suffix to a new partition.
    cluster.faults().set_down(members[2], true);
    let suffix_len = 8 * packet;
    let suffix: Vec<u8> = (prefix_len..prefix_len + suffix_len).map(pat).collect();
    client
        .write_bytes(&mut fh, bytes::Bytes::from(suffix))
        .unwrap();
    client.close(&mut fh).unwrap();

    // The prefix stayed on the original partition; the suffix landed on a
    // different one (§2.2.5: "written to a new partition").
    assert_eq!(fh.extents()[0].partition_id, first_partition);
    let partitions: std::collections::BTreeSet<_> =
        fh.extents().iter().map(|k| k.partition_id).collect();
    assert!(partitions.len() >= 2, "suffix moved: {:?}", fh.extents());

    // Watermark invariant, checked from a fresh client after healing:
    // exactly the acked bytes are served, bit-for-bit.
    cluster.faults().heal_all();
    cluster.settle(2_000);
    let observer = cluster.mount("fail").unwrap();
    let fr = observer.open(root, "victim.bin").unwrap();
    assert_eq!(fr.size(), (prefix_len + suffix_len) as u64);
    let body = observer.read_at(&fr, 0, prefix_len + suffix_len).unwrap();
    assert_eq!(body.len(), prefix_len + suffix_len);
    for (i, &b) in body.iter().enumerate() {
        assert_eq!(b, pat(i), "byte {i} corrupt");
    }
}

#[test]
fn concurrent_readers_with_one_pipelined_writer() {
    // One writer streams appends with a deep window while readers
    // continuously re-open and verify; every observed prefix must be
    // pattern-exact (committed-prefix semantics: readers never see torn
    // or stale bytes). Small extents force multi-extent parallel reads.
    let config = cfs::ClusterConfig {
        packet_size: 64 * 1024,
        small_file_threshold: 64 * 1024,
        extent_size_limit: 256 * 1024,
        ..cfs::ClusterConfig::default()
    };
    let cluster = Arc::new(
        ClusterBuilder::new()
            .data_nodes(5)
            .config(config)
            .build()
            .unwrap(),
    );
    cluster.create_volume("rw", 1, 6).unwrap();
    let writer = cluster
        .mount_with_options(
            "rw",
            cfs::ClientOptions {
                pipeline_depth: 4,
                meta_sync_every: 2,
                ..cfs::ClientOptions::default()
            },
        )
        .unwrap();
    let root = writer.root();

    fn pat(i: usize) -> u8 {
        (i as u64).wrapping_mul(31).wrapping_add(7) as u8
    }

    writer.create(root, "log.bin").unwrap();
    let mut fh = writer.open(root, "log.bin").unwrap();
    let first: Vec<u8> = (0..128 * 1024).map(pat).collect();
    writer
        .write_bytes(&mut fh, bytes::Bytes::from(first))
        .unwrap();

    let mut readers = Vec::new();
    for _ in 0..3 {
        let cluster = Arc::clone(&cluster);
        readers.push(std::thread::spawn(move || {
            let client = cluster.mount("rw").unwrap();
            let root = client.root();
            for _ in 0..15 {
                let f = client.open(root, "log.bin").unwrap();
                let body = client.read_at(&f, 0, f.size() as usize).unwrap();
                assert_eq!(body.len() as u64, f.size());
                for (i, &b) in body.iter().enumerate() {
                    assert_eq!(b, pat(i), "reader saw a non-committed byte at {i}");
                }
            }
        }));
    }

    let chunk = 96 * 1024usize;
    for c in 0..16 {
        let base = 128 * 1024 + c * chunk;
        let data: Vec<u8> = (base..base + chunk).map(pat).collect();
        writer
            .write_bytes(&mut fh, bytes::Bytes::from(data))
            .unwrap();
    }
    writer.close(&mut fh).unwrap();
    for r in readers {
        r.join().expect("reader panicked");
    }

    // Final read spans many small extents and fans out in parallel.
    let observer = cluster.mount("rw").unwrap();
    let f = observer.open(root, "log.bin").unwrap();
    let total = 128 * 1024 + 16 * chunk;
    assert_eq!(f.size(), total as u64);
    assert!(f.extents().len() > 4, "{} extents", f.extents().len());
    let body = observer.read_at(&f, 0, total).unwrap();
    for (i, &b) in body.iter().enumerate() {
        assert_eq!(b, pat(i), "byte {i} corrupt");
    }
    assert!(observer.data_path_stats().parallel_read_fanouts > 0);
}

#[test]
fn mount_rejects_zero_window_and_serves_reads_with_the_cache_off() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("opts", 1, 4).unwrap();

    // The checks `ClusterConfig::validate` used to make now live at mount.
    let err = cluster
        .mount_with_options(
            "opts",
            cfs::ClientOptions {
                pipeline_depth: 0,
                ..cfs::ClientOptions::default()
            },
        )
        .err()
        .expect("a zero append window must not mount");
    assert!(matches!(err, cfs::CfsError::InvalidArgument(_)), "{err:?}");

    // `read_cache_capacity: 0` is the one zero that is a setting, not an
    // error: reads are served, and nothing is ever cached.
    let client = cluster
        .mount_with_options(
            "opts",
            cfs::ClientOptions {
                read_cache_capacity: 0,
                ..cfs::ClientOptions::default()
            },
        )
        .unwrap();
    let root = client.root();
    let body: Vec<u8> = (0..512 * 1024).map(|i| (i % 251) as u8).collect();
    client.create(root, "f").unwrap();
    let mut fh = client.open(root, "f").unwrap();
    client.write(&mut fh, &body).unwrap();
    client.close(&mut fh).unwrap();
    let fh = client.open(root, "f").unwrap();
    for _ in 0..2 {
        assert_eq!(client.read_at(&fh, 0, body.len()).unwrap(), body);
    }
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("client.readcache.inserted"), 0);
    assert_eq!(snap.counter("client.readcache.hit"), 0);
}

#[test]
fn failed_small_write_leaves_nothing_behind() {
    // A `write` that returns `Err` leaves nothing of its own record in
    // the client's small-write buffer, at any record bound; records that
    // earlier calls were told `Ok` about stay queued and land on the
    // next barrier.
    for bound in [1usize, 16] {
        let cluster = ClusterBuilder::new().build().unwrap();
        cluster.create_volume("sw", 1, 4).unwrap();
        let client = cluster
            .mount_with_options(
                "sw",
                cfs::ClientOptions {
                    small_batch_max_ops: bound as u32,
                    ..Default::default()
                },
            )
            .unwrap();
        let root = client.root();
        let body = |i: usize| vec![i as u8 + 1; 700 + i];
        let mut handles = Vec::new();
        for i in 0..bound {
            client.create(root, &format!("s{i}")).unwrap();
            handles.push(client.open(root, &format!("s{i}")).unwrap());
        }
        // All but the last write are acknowledged with the fabric whole;
        // none of them trips the record bound.
        let (last, acked) = handles.split_last_mut().unwrap();
        for (i, h) in acked.iter_mut().enumerate() {
            client.write(h, &body(i)).unwrap();
        }
        assert_eq!(client.small_writes_buffered(), bound - 1);

        // Cut the data fabric; the last write trips the bound and fails.
        for n in cluster.data_nodes() {
            cluster.faults().set_down(n.id(), true);
        }
        client.write(last, &body(bound - 1)).unwrap_err();
        assert_eq!(
            client.small_writes_buffered(),
            bound - 1,
            "bound {bound}: the failed write's record must be gone, the \
             acknowledged ones still queued"
        );
        assert_eq!(last.size(), 0);

        // Heal; the next barrier lands exactly the acknowledged records.
        cluster.faults().heal_all();
        client.fsync(last).unwrap();
        assert_eq!(client.small_writes_buffered(), 0);
        let cold = cluster.mount("sw").unwrap();
        for i in 0..bound {
            let h = cold.open(root, &format!("s{i}")).unwrap();
            let want = if i + 1 < bound { body(i) } else { Vec::new() };
            assert_eq!(h.size(), want.len() as u64, "bound {bound}, file s{i}");
            assert_eq!(cold.read_at(&h, 0, 4096).unwrap(), want);
        }
    }
}

/// An acknowledged overwrite is what a fresh mount reads next — with no
/// settle and no pump in between. The overwrite commits through the data
/// partition's Raft group and is acked once the leader applied it; the
/// followers learn of the commit only with the leader's next message, so
/// the read must be served at the leader (§2.7.4).
#[test]
fn fresh_mount_reads_an_acknowledged_overwrite_at_once() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("ow", 1, 1).unwrap();
    let (pid, members) = cluster.data_nodes()[0].hosted_partitions()[0].clone();
    // A cold mount tries the chain head first: make it a follower.
    let leads = |id: NodeId| {
        cluster
            .data_nodes()
            .iter()
            .any(|n| n.id() == id && n.is_raft_leader_for(pid))
    };
    if leads(members[0]) {
        cluster.faults().set_down(members[0], true);
        assert!(cluster
            .hub()
            .pump_until(|| members[1..].iter().any(|&m| leads(m)), 10_000));
        cluster.faults().set_down(members[0], false);
        cluster.settle(10);
    }
    assert!(!leads(members[0]));

    let writer = cluster.mount("ow").unwrap();
    let root = writer.root();
    writer.create(root, "big").unwrap();
    let mut fh = writer.open(root, "big").unwrap();
    writer.write(&mut fh, &vec![0x11u8; 1 << 20]).unwrap();
    writer.fsync(&mut fh).unwrap();
    let fresh = vec![0xEEu8; 4096];
    writer.write_at(&mut fh, 512 << 10, &fresh).unwrap();

    let reader = cluster.mount("ow").unwrap();
    let rh = reader.open(root, "big").unwrap();
    let got = reader.read_at(&rh, 512 << 10, fresh.len()).unwrap();
    assert!(
        got == fresh,
        "a fresh mount read stale bytes after an acked overwrite"
    );
}

/// A truncate whose cut falls inside an extent key reclaims the cut tail
/// of that key too: every byte past the new size is punched on every
/// replica by the next deletion pass, and the kept head reads back as
/// written.
#[test]
fn truncate_punches_the_cut_tail_of_the_key_it_falls_inside() {
    const LEN: u64 = 256 << 10;
    const CUT: u64 = 1_317;
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("trunc", 1, 1).unwrap();
    let client = cluster.mount("trunc").unwrap();
    let root = client.root();
    client.create(root, "f").unwrap();
    let mut fh = client.open(root, "f").unwrap();
    let body: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    client.write(&mut fh, &body).unwrap();
    client.fsync(&mut fh).unwrap();

    let before = cluster.metrics_snapshot();
    client.truncate_file(&mut fh, CUT).unwrap();
    client.process_deletions();
    let window = cluster.metrics_snapshot().diff(&before);
    assert_eq!(window.counter("store.bytes_punched"), 3 * (LEN - CUT));

    let rh = client.open(root, "f").unwrap();
    assert!(
        client.read_at(&rh, 0, LEN as usize).unwrap() == body[..CUT as usize],
        "the kept head changed"
    );
}

/// Close-to-open: a fresh `open` on a mount that cached a file's blocks
/// reads what another mount overwrote and `fsync`ed before it.
#[test]
fn reopen_reads_another_mounts_acknowledged_overwrite() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("cto", 1, 1).unwrap();
    let writer = cluster.mount("cto").unwrap();
    let root = writer.root();
    writer.create(root, "f").unwrap();
    let mut wh = writer.open(root, "f").unwrap();
    writer.write(&mut wh, &vec![1u8; 512 << 10]).unwrap();
    writer.fsync(&mut wh).unwrap();

    let reader = cluster.mount("cto").unwrap();
    let rh = reader.open(root, "f").unwrap();
    assert!(reader.read_at(&rh, 0, 4096).unwrap() == [1u8; 4096]);
    // A reopen of an unchanged file keeps its cached blocks.
    let hits = reader.data_path_stats().readcache_hits;
    let again = reader.open(root, "f").unwrap();
    assert!(reader.read_at(&again, 0, 4096).unwrap() == [1u8; 4096]);
    assert_eq!(
        reader.data_path_stats().readcache_hits,
        hits + 1,
        "a reopen of an unchanged file dropped its cached block"
    );

    writer.write_at(&mut wh, 0, &[2u8; 4096]).unwrap();
    writer.fsync(&mut wh).unwrap();
    cluster.settle(64);

    let reopened = reader.open(root, "f").unwrap();
    assert!(
        reader.read_at(&reopened, 0, 4096).unwrap() == [2u8; 4096],
        "a fresh open served this mount's stale cached block"
    );
}
