//! Failure recovery: kill nodes mid-workload and watch the paper's
//! machinery respond — client retries (§2.1.3), leader-change redirects
//! (§2.4), partition read-only marking (§2.3.3), and extent alignment
//! recovery with the committed-offset watermark (§2.2.5).
//!
//! ```sh
//! cargo run --example failure_recovery
//! ```

use cfs::{ClusterBuilder, DataRequest};
use cfs_data::DataResponse;

fn main() -> cfs::Result<()> {
    let cluster = ClusterBuilder::new().meta_nodes(3).data_nodes(6).build()?;
    cluster.create_volume("prod", 1, 6)?;
    let client = cluster.mount("prod")?;
    let root = client.root();

    // Baseline traffic.
    client.create(root, "journal.log")?;
    let mut fh = client.open(root, "journal.log")?;
    client.write(&mut fh, &vec![1u8; 200_000])?;
    println!("baseline write done ({} bytes)", fh.size());

    // ------------------------------------------------------------------
    // 1. Data node failure: appends fail over to healthy partitions.
    // ------------------------------------------------------------------
    let victim = cluster.data_nodes()[0].id();
    cluster.faults().set_down(victim, true);
    println!("\nkilled data node {victim}");

    client.create(root, "after-failure.log")?;
    let mut fh2 = client.open(root, "after-failure.log")?;
    client.write(&mut fh2, &vec![2u8; 300_000])?;
    println!(
        "write of 300000 bytes succeeded by resending failed packets to \
         different partitions (S2.2.5)"
    );
    let mut check = client.open(root, "after-failure.log")?;
    assert_eq!(client.read(&mut check, 400_000)?.len(), 300_000);

    // ------------------------------------------------------------------
    // 2. Meta leader failover: retries + leader hints re-route.
    // ------------------------------------------------------------------
    let meta_leader = cluster
        .meta_nodes()
        .iter()
        .find(|n| n.report().iter().any(|i| i.is_leader))
        .unwrap()
        .id();
    cluster.faults().set_down(meta_leader, true);
    println!("\nkilled meta leader {meta_leader}; waiting for re-election…");
    cluster.settle(2_000);
    client.create(root, "post-election.txt")?;
    println!("metadata writes flow again via the new leader (client leader cache updated)");
    cluster.faults().set_down(meta_leader, false);

    // ------------------------------------------------------------------
    // 3. Partition timeout → read-only (§2.3.3), then recovery alignment.
    // ------------------------------------------------------------------
    cluster.faults().set_down(victim, false);
    let view = cluster.master_query(cfs_master::MasterRequest::GetVolume {
        name: "prod".into(),
    })?;
    let (dp, members) = match view {
        cfs_master::MasterResponse::Volume {
            data_partitions, ..
        } => (
            data_partitions[0].partition,
            data_partitions[0].members.clone(),
        ),
        _ => unreachable!(),
    };
    cluster.report_partition_timeout(dp)?;
    println!("\nreported a timeout on {dp}: resource manager marked its replicas read-only");
    client.refresh_partition_table()?;
    client.create(root, "avoids-ro.txt")?;
    let mut fh3 = client.open(root, "avoids-ro.txt")?;
    client.write(&mut fh3, &vec![3u8; 150_000])?;
    assert!(fh3.extents().iter().all(|k| k.partition_id != dp));
    println!("new writes avoid the read-only partition");

    // Run the §2.2.5 recovery pass on the partition's PB leader: aligns
    // any stale tails across replicas to the committed watermark.
    // (The leader is members[0] by construction. No `survivors`: the head
    // was never replaced, so its own watermarks stand.)
    let recover = DataRequest::Recover {
        partition: dp,
        survivors: vec![],
    };
    match cluster.data_nodes().iter().find(|n| n.id() == members[0]) {
        Some(leader) => match leader.handle(recover)? {
            DataResponse::Processed(n) => {
                println!("recovery pass on {dp}: {n} extent alignment action(s)")
            }
            _ => unreachable!(),
        },
        None => println!("partition leader not found (unexpected)"),
    }

    println!("\nall client operations survived every injected failure");
    Ok(())
}
