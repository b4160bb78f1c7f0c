//! Client-level coalescing parity (DESIGN §13): for every tier-1 chaos
//! seed, one seeded small-file workload — creates, mixed-size writes,
//! appends, mid-stream fsyncs and read-backs, truncates, unlinks — is
//! driven twice, through a coalescing mount (record bound 16) and a
//! default mount (record bound 1: every record is its own submission),
//! and must end in byte-identical file system state.
//!
//! The script is generated once per seed and replayed verbatim against
//! both clusters, so any divergence is the fast path's fault: a record
//! lost in the buffer, a flush that adopted the wrong location, a
//! read-your-writes gap while a write sits unflushed, or a settle that
//! raced a truncate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cfs::{Client, ClientOptions, Cluster, ClusterBuilder, ClusterConfig};
use cfs_client::FileHandle;

const SEEDS: u64 = 52;
const FILES: usize = 8;
const THRESHOLD: u64 = 4096;

/// One step of the replayed workload script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// First write into file `file` (small or multi-packet).
    Write { file: usize, len: usize, fill: u8 },
    /// Append to an already-written file (forces the coalescer to settle
    /// the buffered record before routing the second write).
    Append { file: usize, len: usize, fill: u8 },
    /// Strong barrier on one file mid-stream.
    Fsync { file: usize },
    /// Read the whole file back mid-stream (read-your-writes while the
    /// coalesced record may still sit in the client buffer).
    ReadBack { file: usize },
    /// Post-close mutation: shrink to half the written size.
    Truncate { file: usize },
    /// Post-close mutation: drop the file.
    Unlink { file: usize },
}

/// Pure function of the seed: the op script and the expected final
/// bytes (`None` = unlinked).
fn generate(seed: u64) -> (Vec<Op>, Vec<Option<Vec<u8>>>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5F11_EC0A_1E5C_E001);
    let mut script = Vec::new();
    let mut model: Vec<Option<Vec<u8>>> = vec![Some(Vec::new()); FILES];
    for file in 0..FILES {
        // Mostly small first-writes (the fast path) with some spilling
        // past the threshold onto the packet path.
        let len = if rng.gen_bool(0.75) {
            rng.gen_range(1..THRESHOLD as usize + 1)
        } else {
            rng.gen_range(THRESHOLD as usize + 1..3 * THRESHOLD as usize)
        };
        let fill = rng.gen_range(1..255u8);
        script.push(Op::Write { file, len, fill });
        model[file] = Some(vec![fill; len]);
        if file > 0 && rng.gen_bool(0.4) {
            let victim = rng.gen_range(0..file);
            script.push(Op::ReadBack { file: victim });
        }
        if rng.gen_bool(0.3) {
            script.push(Op::Fsync {
                file: rng.gen_range(0..file + 1),
            });
        }
        if file > 0 && rng.gen_bool(0.35) {
            let victim = rng.gen_range(0..file);
            let len = rng.gen_range(1..2049usize);
            let fill = rng.gen_range(1..255u8);
            script.push(Op::Append {
                file: victim,
                len,
                fill,
            });
            model[victim]
                .as_mut()
                .expect("append target exists")
                .extend(std::iter::repeat_n(fill, len));
        }
    }
    // Post-close mutations over the settled files.
    for (file, slot) in model.iter_mut().enumerate() {
        if rng.gen_bool(0.25) {
            script.push(Op::Truncate { file });
            let bytes = slot.as_mut().expect("truncate target exists");
            bytes.truncate(bytes.len() / 2);
        } else if rng.gen_bool(0.2) {
            script.push(Op::Unlink { file });
            *slot = None;
        }
    }
    (script, model)
}

fn build_cluster(seed: u64, small_batch_max_ops: u32) -> (Cluster, Client) {
    let config = ClusterConfig {
        packet_size: THRESHOLD,
        small_file_threshold: THRESHOLD,
        ..ClusterConfig::default()
    };
    let cluster = ClusterBuilder::new()
        .config(config)
        .seed(seed)
        .build()
        .unwrap();
    cluster.create_volume("parity", 1, 4).unwrap();
    let client = cluster
        .mount_with_options(
            "parity",
            ClientOptions {
                small_batch_max_ops,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    (cluster, client)
}

/// Replay the script and return each file's final bytes (`None` =
/// unlinked) plus the most records ever left waiting in the client's
/// buffer when a write returned, checking read-your-writes at every
/// `ReadBack`.
fn run_script(
    seed: u64,
    client: &Client,
    script: &[Op],
    model: &[Option<Vec<u8>>],
) -> (Vec<Option<Vec<u8>>>, usize) {
    let root = client.root();
    let mut handles: Vec<Option<FileHandle>> = Vec::new();
    let mut written: Vec<Vec<u8>> = vec![Vec::new(); FILES];
    for i in 0..FILES {
        let name = format!("f{i}");
        client.create(root, &name).unwrap();
        handles.push(Some(client.open(root, &name).unwrap()));
    }
    let mut mutations = false;
    let mut max_buffered = 0;
    for op in script {
        match *op {
            Op::Write { file, len, fill } | Op::Append { file, len, fill } => {
                let h = handles[file].as_mut().expect("handle open");
                client.write(h, &vec![fill; len]).unwrap();
                max_buffered = max_buffered.max(client.small_writes_buffered());
                written[file].extend(std::iter::repeat_n(fill, len));
            }
            Op::Fsync { file } => {
                let h = handles[file].as_mut().expect("handle open");
                client.fsync(h).unwrap();
            }
            Op::ReadBack { file } => {
                let h = handles[file].as_ref().expect("handle open");
                let got = client.read_at(h, 0, written[file].len().max(1)).unwrap();
                assert_eq!(
                    got, written[file],
                    "read-your-writes divergence (seed {seed}, file {file})"
                );
            }
            Op::Truncate { .. } | Op::Unlink { .. } => {
                // First post-close mutation: settle everything.
                if !mutations {
                    for h in handles.iter_mut() {
                        client.close(h.as_mut().expect("handle open")).unwrap();
                        *h = None;
                    }
                    mutations = true;
                }
                match *op {
                    Op::Truncate { file } => {
                        let mut h = client.open(root, &format!("f{file}")).unwrap();
                        let to = written[file].len() as u64 / 2;
                        client.truncate_file(&mut h, to).unwrap();
                        client.close(&mut h).unwrap();
                    }
                    Op::Unlink { file } => {
                        client.unlink(root, &format!("f{file}")).unwrap();
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
    if !mutations {
        for h in handles.iter_mut() {
            client.close(h.as_mut().expect("handle open")).unwrap();
        }
    }

    // Harvest the final state.
    let mut out = Vec::with_capacity(FILES);
    for (i, expect) in model.iter().enumerate() {
        let name = format!("f{i}");
        match client.lookup(root, &name) {
            Err(_) => {
                assert!(
                    expect.is_none(),
                    "file {name} missing but expected present (seed {seed})"
                );
                out.push(None);
            }
            Ok(_) => {
                let h = client.open(root, &name).unwrap();
                let size = client.stat(h.ino()).unwrap().size;
                assert_eq!(
                    size,
                    h.size(),
                    "stat/handle size skew (seed {seed}, {name})"
                );
                let bytes = client.read_at(&h, 0, size.max(1) as usize).unwrap();
                out.push(Some(bytes));
            }
        }
    }
    (out, max_buffered)
}

#[test]
fn coalesced_workload_matches_sequential_across_all_seeds() {
    for seed in 0..SEEDS {
        let (script, model) = generate(seed);
        let (_c1, coalesced) = build_cluster(seed, 16);
        let (_c2, sequential) = build_cluster(seed, 1);
        let (got_c, waited_c) = run_script(seed, &coalesced, &script, &model);
        let (got_s, waited_s) = run_script(seed, &sequential, &script, &model);
        for file in 0..FILES {
            assert_eq!(
                got_c[file], model[file],
                "coalesced mount diverged from the model (seed {seed}, file {file})"
            );
            assert_eq!(
                got_c[file], got_s[file],
                "coalesced and sequential mounts diverged (seed {seed}, file {file})"
            );
        }
        // The fast path actually engaged: every run must have left at
        // least one record waiting for peers (the generator always emits
        // small writes), and the default mount never does.
        assert!(waited_c > 0, "no write took the fast path (seed {seed})");
        assert_eq!(waited_s, 0, "default mount must not coalesce (seed {seed})");
    }
}
