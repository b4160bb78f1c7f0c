//! End-to-end tests of the full CFS stack: resource manager + metadata
//! subsystem + data subsystem + client, wired per Figure 1.

use cfs::{CfsError, ClusterBuilder, FileType};

#[test]
fn mount_write_read_roundtrip() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 4).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    let dir = client.mkdir(root, "logs").unwrap();
    client.create(dir.id, "app.log").unwrap();
    let mut fh = client.open(dir.id, "app.log").unwrap();

    // Large enough to be a "large file" (> 128 KB threshold) and cross
    // packet boundaries.
    let blob: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(cluster.config().small_file_threshold, 128 * 1024);
    client.write(&mut fh, &blob).unwrap();
    assert_eq!(fh.size(), blob.len() as u64);

    // Read through a second handle (fresh metadata sync).
    let mut fh2 = client.open(dir.id, "app.log").unwrap();
    let back = client.read(&mut fh2, blob.len()).unwrap();
    assert_eq!(back, blob);

    // Positioned read mid-file.
    let mid = client.read_at(&fh2, 131_072, 1000).unwrap();
    assert_eq!(mid, &blob[131_072..132_072]);
}

#[test]
fn small_files_share_extents_across_files() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    let mut handles = Vec::new();
    for i in 0..8 {
        let name = format!("img{i}.jpg");
        client.create(root, &name).unwrap();
        let mut fh = client.open(root, &name).unwrap();
        client.write(&mut fh, &vec![i as u8; 4096]).unwrap();
        handles.push((name, fh));
    }
    // All small files have exactly one extent key with a nonzero offset
    // possibility (aggregated), and read back correctly.
    for (i, (name, _)) in handles.iter().enumerate() {
        let mut fh = client.open(root, name).unwrap();
        assert_eq!(fh.extents().len(), 1, "small file = single key");
        let back = client.read(&mut fh, 4096).unwrap();
        assert!(back.iter().all(|&b| b == i as u8), "{name} intact");
    }
    // At least two of the files landed in the same (partition, extent):
    // the aggregation path is actually shared.
    let keys: Vec<_> = handles
        .iter()
        .map(|(name, _)| {
            let fh = client.open(root, name).unwrap();
            (fh.extents()[0].partition_id, fh.extents()[0].extent_id)
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert!(
        sorted.len() < keys.len(),
        "some small files share an extent: {keys:?}"
    );
}

#[test]
fn random_write_is_in_place() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 3).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    client.create(root, "rand.bin").unwrap();
    let mut fh = client.open(root, "rand.bin").unwrap();
    let blob = vec![0xAAu8; 200_000];
    client.write(&mut fh, &blob).unwrap();
    let keys_before = fh.extents().to_vec();

    // Overwrite a middle range: metadata (extent keys) must not change
    // (§2.7.2 — the offset on the data partition does not change).
    client.write_at(&mut fh, 50_000, &[0xBBu8; 10_000]).unwrap();
    let mut fh2 = client.open(root, "rand.bin").unwrap();
    assert_eq!(fh2.extents(), keys_before.as_slice(), "no new extents");
    assert_eq!(fh2.size(), 200_000);

    let back = client.read(&mut fh2, 200_000).unwrap();
    assert!(back[..50_000].iter().all(|&b| b == 0xAA));
    assert!(back[50_000..60_000].iter().all(|&b| b == 0xBB));
    assert!(back[60_000..].iter().all(|&b| b == 0xAA));
}

#[test]
fn straddling_write_splits_overwrite_and_append() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 3).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();
    client.create(root, "f").unwrap();
    let mut fh = client.open(root, "f").unwrap();
    client.write(&mut fh, &vec![1u8; 150_000]).unwrap();

    // Write 100 KB starting 50 KB before EOF: 50 KB overwrite + 50 KB
    // append (§2.7.2).
    client
        .write_at(&mut fh, 100_000, &vec![2u8; 100_000])
        .unwrap();
    assert_eq!(fh.size(), 200_000);
    let mut fh2 = client.open(root, "f").unwrap();
    let back = client.read(&mut fh2, 200_000).unwrap();
    assert!(back[..100_000].iter().all(|&b| b == 1));
    assert!(back[100_000..].iter().all(|&b| b == 2));
}

#[test]
fn shared_volume_two_clients() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("shared", 1, 3).unwrap();
    let writer = cluster.mount("shared").unwrap();
    let reader = cluster.mount("shared").unwrap();

    let root = writer.root();
    writer.create(root, "note.txt").unwrap();
    let mut wf = writer.open(root, "note.txt").unwrap();
    writer.write(&mut wf, b"from container A").unwrap();

    // The second container sees the file and its contents.
    let mut rf = reader.open(root, "note.txt").unwrap();
    assert_eq!(reader.read(&mut rf, 64).unwrap(), b"from container A");

    // Sequential consistency for non-overlapping appenders: reader opens
    // again after more writes.
    writer.write(&mut wf, b" + more").unwrap();
    let mut rf2 = reader.open(root, "note.txt").unwrap();
    assert_eq!(
        reader.read(&mut rf2, 64).unwrap(),
        b"from container A + more"
    );
}

#[test]
fn metadata_operations_full_suite() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let _root = client.root();

    // mkdir_all + resolve.
    let leaf = client.mkdir_all("/a/b/c").unwrap();
    assert_eq!(client.resolve("/a/b/c").unwrap().id, leaf);
    assert!(client.resolve("/a/missing").is_err());

    // create + lookup + stat.
    client.create(leaf, "file").unwrap();
    let d = client.lookup(leaf, "file").unwrap();
    let ino = client.stat(d.inode).unwrap();
    assert_eq!(ino.file_type, FileType::File);
    assert_eq!(ino.nlink, 1);

    // link / unlink.
    client.link(leaf, "hardlink", d.inode).unwrap();
    assert_eq!(client.stat(d.inode).unwrap().nlink, 2);
    client.unlink(leaf, "hardlink").unwrap();
    assert_eq!(client.stat(d.inode).unwrap().nlink, 1);

    // readdir & readdir_plus.
    let names: Vec<String> = client
        .readdir(leaf)
        .unwrap()
        .into_iter()
        .map(|d| d.name)
        .collect();
    assert_eq!(names, vec!["file"]);
    let plus = client.readdir_plus(leaf).unwrap();
    assert_eq!(plus.len(), 1);
    assert_eq!(plus[0].1.nlink, 1);

    // symlink + readlink.
    client.symlink(leaf, "sym", b"/a/b/c/file").unwrap();
    let sd = client.lookup(leaf, "sym").unwrap();
    assert_eq!(client.readlink(sd.inode).unwrap(), b"/a/b/c/file");

    // rename within and across directories.
    client.rename(leaf, "file", leaf, "renamed").unwrap();
    assert!(client.lookup(leaf, "file").is_err());
    let b_dir = client.resolve("/a/b").unwrap().id;
    client.rename(leaf, "renamed", b_dir, "moved").unwrap();
    assert_eq!(client.lookup(b_dir, "moved").unwrap().inode, d.inode);

    // rmdir refuses non-empty, then succeeds.
    assert!(matches!(
        client.rmdir(b_dir, "c").unwrap_err(),
        CfsError::NotEmpty(_)
    ));
    client.unlink(leaf, "sym").unwrap();
    client.rmdir(b_dir, "c").unwrap();
    assert!(client.lookup(b_dir, "c").is_err());
}

#[test]
fn unlink_marks_and_async_delete_reclaims_space() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    client.create(root, "victim").unwrap();
    let mut fh = client.open(root, "victim").unwrap();
    client.write(&mut fh, &vec![9u8; 64 * 1024]).unwrap();

    let bytes_before: u64 = cluster
        .data_nodes()
        .iter()
        .map(|n| n.total_physical_bytes())
        .sum();
    assert!(bytes_before > 0);

    client.unlink(root, "victim").unwrap();
    assert!(client.lookup(root, "victim").is_err());
    // Delete is asynchronous (§2.7.3): space reclaimed by the background
    // pass, not the unlink itself.
    let (inodes, tasks) = client.process_deletions();
    assert!(inodes >= 1, "marked inode evicted");
    assert!(tasks >= 1, "data deletion executed");
    let bytes_after: u64 = cluster
        .data_nodes()
        .iter()
        .map(|n| n.total_physical_bytes())
        .sum();
    assert!(
        bytes_after < bytes_before,
        "physical space reclaimed: {bytes_before} -> {bytes_after}"
    );
}

#[test]
fn create_failure_produces_orphan_not_dangling_dentry() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    // Make the dentry step fail deterministically: the name exists.
    client.create(root, "taken").unwrap();
    let err = client.create(root, "taken").unwrap_err();
    assert!(matches!(err, CfsError::Exists(_)));

    // Fig. 3a failure path: the speculatively created inode went onto the
    // orphan list; the dentry still points at the original inode.
    assert_eq!(client.orphan_count(), 1);
    let d = client.lookup(root, "taken").unwrap();
    assert!(
        client.stat(d.inode).is_ok(),
        "dentry references a live inode"
    );

    // The one orphan drain evicts it — and hands an evicted inode's
    // extents to the data nodes: unlink a file that holds data so the
    // same pass has both kinds on its list.
    let mut fh = client.open(root, "taken").unwrap();
    client.write(&mut fh, &[7u8; 4096]).unwrap();
    client.close(&mut fh).unwrap();
    let physical = || -> u64 {
        let nodes = cluster.data_nodes().iter();
        nodes.map(|n| n.total_physical_bytes()).sum()
    };
    let bytes_before = physical();
    client.unlink(root, "taken").unwrap();
    assert_eq!(client.process_deletions().0, 2);
    assert_eq!(client.orphan_count(), 0);
    assert!(
        physical() < bytes_before,
        "the evicted inode's data went too"
    );
}

#[test]
fn truncate_cuts_extents_and_queues_cleanup() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 3).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();
    client.create(root, "t").unwrap();
    let mut fh = client.open(root, "t").unwrap();
    client.write(&mut fh, &vec![5u8; 400_000]).unwrap();

    client.truncate_file(&mut fh, 150_000).unwrap();
    assert_eq!(fh.size(), 150_000);
    let mut fh2 = client.open(root, "t").unwrap();
    assert_eq!(fh2.size(), 150_000);
    let back = client.read(&mut fh2, 200_000).unwrap();
    assert_eq!(back.len(), 150_000);
    assert!(back.iter().all(|&b| b == 5));

    // Appends continue at the truncated size.
    client.write_at(&mut fh, 150_000, b"tail").unwrap();
    let fh3 = client.open(root, "t").unwrap();
    assert_eq!(fh3.size(), 150_004);
}

#[test]
fn capacity_expansion_no_rebalancing() {
    let mut cluster = ClusterBuilder::new().meta_nodes(3).build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();
    for i in 0..30 {
        client.create(root, &format!("f{i}")).unwrap();
    }
    // Let follower replicas catch up fully before measuring.
    cluster.settle(500);
    let items_before: Vec<u64> = cluster
        .meta_nodes()
        .iter()
        .map(|n| n.total_items())
        .collect();

    // Add a meta node: placement-only expansion, nothing moves (§2.3.1).
    let new_node = cluster.add_meta_node().unwrap();
    cluster.settle(100);
    let items_after: Vec<u64> = cluster
        .meta_nodes()
        .iter()
        .take(items_before.len())
        .map(|n| n.total_items())
        .collect();
    assert_eq!(items_before, items_after, "no metadata moved on expansion");
    let newest = cluster
        .meta_nodes()
        .iter()
        .find(|n| n.id() == new_node)
        .unwrap();
    assert_eq!(newest.total_items(), 0);
}

#[test]
fn partition_timeout_marks_read_only_and_writes_move_on() {
    let cluster = ClusterBuilder::new().data_nodes(6).build().unwrap();
    cluster.create_volume("vol", 1, 4).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    // Report a timeout on the first data partition (§2.3.3).
    let vol_view = cluster
        .master_query(cfs_master::MasterRequest::GetVolume { name: "vol".into() })
        .unwrap();
    let first_dp = match vol_view {
        cfs_master::MasterResponse::Volume {
            data_partitions, ..
        } => data_partitions[0].partition,
        _ => panic!("bad volume reply"),
    };
    cluster.report_partition_timeout(first_dp).unwrap();

    // Clients must refresh their table to see the read-only flag; writes
    // keep working via the remaining partitions.
    client.refresh_partition_table().unwrap();
    for i in 0..8 {
        client.create(root, &format!("post-ro-{i}")).unwrap();
        let mut fh = client.open(root, &format!("post-ro-{i}")).unwrap();
        client.write(&mut fh, &vec![1u8; 200_000]).unwrap();
        assert!(
            fh.extents().iter().all(|k| k.partition_id != first_dp),
            "no new extents on the read-only partition"
        );
    }
}

#[test]
fn data_node_failure_write_retries_to_healthy_partitions() {
    let cluster = ClusterBuilder::new().data_nodes(6).build().unwrap();
    cluster.create_volume("vol", 1, 6).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    // Kill one data node: every partition with that node in its chain
    // fails appends; the client resends to different partitions (§2.2.5).
    let victim = cluster.data_nodes()[0].id();
    cluster.faults().set_down(victim, true);

    client.create(root, "resilient").unwrap();
    let mut fh = client.open(root, "resilient").unwrap();
    client.write(&mut fh, &vec![3u8; 300_000]).unwrap();

    let mut fh2 = client.open(root, "resilient").unwrap();
    let back = client.read(&mut fh2, 300_000).unwrap();
    assert_eq!(back.len(), 300_000);
    assert!(back.iter().all(|&b| b == 3));

    cluster.faults().set_down(victim, false);
}

#[test]
fn meta_leader_failover_transparent_to_client() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();
    client.create(root, "before").unwrap();

    // Kill the meta leader of the root's partition.
    let leader = cluster
        .meta_nodes()
        .iter()
        .find(|n| n.partition_count() > 0 && n.report().iter().any(|i| i.is_leader))
        .unwrap()
        .id();
    cluster.faults().set_down(leader, true);
    // Let a new election happen.
    cluster.settle(2_000);

    // The client's cached leader is now stale; retries + leader hints
    // re-route (§2.4).
    client.create(root, "after").unwrap();
    assert!(client.lookup(root, "after").is_ok());
    assert!(client.lookup(root, "before").is_ok());
}

#[test]
fn heartbeat_maintenance_splits_full_meta_partition() {
    let config = cfs::ClusterConfig {
        meta_partition_item_limit: 40, // tiny, to force a split
        ..cfs::ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .meta_nodes(4)
        .config(config)
        .build()
        .unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    let client = cluster.mount("vol").unwrap();
    let root = client.root();

    for i in 0..30 {
        client.create(root, &format!("f{i:02}")).unwrap();
    }
    // Heartbeat reports usage; maintenance splits per Algorithm 1.
    let tasks = cluster.heartbeat().unwrap();
    assert!(tasks >= 2, "split produces UpdateEnd + CreateMetaPartition");

    // The volume now has two meta partitions with adjacent ranges.
    let view = cluster
        .master_query(cfs_master::MasterRequest::GetVolume { name: "vol".into() })
        .unwrap();
    match view {
        cfs_master::MasterResponse::Volume {
            meta_partitions, ..
        } => {
            assert_eq!(meta_partitions.len(), 2);
            assert_eq!(
                meta_partitions[1].start,
                meta_partitions[0].end.next(),
                "ranges are adjacent: {meta_partitions:?}"
            );
            assert_eq!(meta_partitions[1].end, cfs::InodeId::MAX);
        }
        _ => panic!("bad volume reply"),
    }

    // New files keep working; ids from the new partition appear once the
    // client refreshes its table.
    client.refresh_partition_table().unwrap();
    for i in 30..50 {
        client.create(root, &format!("f{i:02}")).unwrap();
    }
    assert_eq!(client.readdir(root).unwrap().len(), 50);
}

#[test]
fn dropped_cluster_frees_its_nodes() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("vol", 1, 2).unwrap();
    // A mount that outlives the cluster keeps the fabrics alive; the
    // fabrics must not keep the nodes alive in turn.
    let client = cluster.mount("vol").unwrap();
    client.create(client.root(), "f").unwrap();
    let master = std::sync::Arc::downgrade(&cluster.masters()[0]);
    let meta = std::sync::Arc::downgrade(&cluster.meta_nodes()[0]);
    let data = std::sync::Arc::downgrade(&cluster.data_nodes()[0]);
    drop(cluster);
    assert!(master.upgrade().is_none(), "master node leaked");
    assert!(meta.upgrade().is_none(), "meta node leaked");
    assert!(data.upgrade().is_none(), "data node leaked");
}
