//! Property-based test of the whole stack: arbitrary op sequences against
//! an in-memory model filesystem. The real cluster must agree with the
//! model on every observable (lookup results, directory listings, file
//! contents).

use std::collections::BTreeMap;

use proptest::prelude::*;

use cfs::{CfsError, ClientOptions, ClusterBuilder, ClusterConfig, FileType};

#[derive(Debug, Clone)]
enum FsOp {
    Create(u8),
    Mkdir(u8),
    Unlink(u8),
    Rename(u8, u8),
    Write(u8, u16),
    Append(u8, u16),
    ReadCheck(u8),
    List,
}

fn op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        3 => any::<u8>().prop_map(FsOp::Create),
        1 => any::<u8>().prop_map(FsOp::Mkdir),
        2 => any::<u8>().prop_map(FsOp::Unlink),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| FsOp::Rename(a, b)),
        2 => (any::<u8>(), 1u16..2048).prop_map(|(f, n)| FsOp::Write(f, n)),
        2 => (any::<u8>(), 1u16..2048).prop_map(|(f, n)| FsOp::Append(f, n)),
        2 => any::<u8>().prop_map(FsOp::ReadCheck),
        1 => Just(FsOp::List),
    ]
}

#[derive(Debug, Default, Clone)]
enum ModelNode {
    #[default]
    Missing,
    File(Vec<u8>),
    Dir,
}

/// Ops for the punch-hole interleaving property: small files pack into
/// shared extents, so deleting one queues a punch over its range while its
/// neighbors stay live.
#[derive(Debug, Clone)]
enum PunchOp {
    Create(u8, u16),
    Append(u8, u16),
    Unlink(u8),
    /// Drain orphan eviction + queued punches/deletes, then audit every
    /// live file.
    Punch,
}

fn punch_op_strategy() -> impl Strategy<Value = PunchOp> {
    prop_oneof![
        // Lengths straddle the small-file threshold (1024): most bodies
        // pack into shared extents, some take the dedicated-extent path.
        3 => (any::<u8>(), 1u16..1400).prop_map(|(k, n)| PunchOp::Create(k, n)),
        2 => (any::<u8>(), 1u16..700).prop_map(|(k, n)| PunchOp::Append(k, n)),
        3 => any::<u8>().prop_map(PunchOp::Unlink),
        2 => Just(PunchOp::Punch),
    ]
}

/// Ops for the read-assembly property: appends of random sizes with an
/// fsync after each, so extent keys start mid-block and one read spans
/// several replies; in-place overwrites, so a cached block that is a slice
/// of a larger reply is invalidated; read windows anywhere around EOF,
/// which fetch only what they demand; and reads that continue the previous
/// one, usually mid-block, which read ahead in whole blocks.
#[derive(Debug, Clone)]
enum ReadOp {
    Append(u32),
    /// Overwrite at `size * frac / 2^16`, possibly straddling EOF.
    Overwrite(u16, u32),
    /// Read at `(size + 4 KiB) * frac / 2^16`, possibly past EOF.
    Read(u16, u32),
    /// Read `n` bytes from where the previous read ended.
    Continue(u32),
}

fn read_op_strategy() -> impl Strategy<Value = ReadOp> {
    prop_oneof![
        3 => (1u32..=300 * 1024).prop_map(ReadOp::Append),
        1 => (any::<u16>(), 1u32..=200 * 1024).prop_map(|(f, n)| ReadOp::Overwrite(f, n)),
        4 => (any::<u16>(), 1u32..=600 * 1024).prop_map(|(f, n)| ReadOp::Read(f, n)),
        3 => (1u32..=300 * 1024).prop_map(ReadOp::Continue),
    ]
}

/// Bytes of the `tag`-th write at file offset `at`: position- and
/// write-dependent, so a misplaced or stale byte cannot match.
fn tagged(tag: u32, at: usize, len: usize) -> Vec<u8> {
    (at..at + len)
        .map(|i| {
            (i as u32)
                .wrapping_mul(31)
                .wrapping_add(tag.wrapping_mul(97)) as u8
        })
        .collect()
}

proptest! {
    // The cluster bring-up dominates runtime; keep the case count modest
    // but the sequences long.
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn cluster_matches_model_filesystem(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let cluster = ClusterBuilder::new().build().unwrap();
        cluster.create_volume("prop", 1, 4).unwrap();
        let client = cluster.mount("prop").unwrap();
        let root = client.root();

        let mut model: BTreeMap<String, ModelNode> = BTreeMap::new();
        let name_of = |k: u8| format!("n{:02x}", k % 32); // collide on purpose

        for op in &ops {
            match op {
                FsOp::Create(k) => {
                    let name = name_of(*k);
                    let expect_exists = !matches!(
                        model.get(&name).unwrap_or(&ModelNode::Missing),
                        ModelNode::Missing
                    );
                    let got = client.create(root, &name);
                    if expect_exists {
                        prop_assert!(matches!(got, Err(CfsError::Exists(_))), "{name}: {got:?}");
                    } else {
                        prop_assert!(got.is_ok(), "{name}: {got:?}");
                        model.insert(name, ModelNode::File(Vec::new()));
                    }
                }
                FsOp::Mkdir(k) => {
                    let name = name_of(*k);
                    let expect_exists = !matches!(
                        model.get(&name).unwrap_or(&ModelNode::Missing),
                        ModelNode::Missing
                    );
                    let got = client.mkdir(root, &name);
                    if expect_exists {
                        prop_assert!(matches!(got, Err(CfsError::Exists(_))));
                    } else {
                        prop_assert!(got.is_ok());
                        model.insert(name, ModelNode::Dir);
                    }
                }
                FsOp::Unlink(k) => {
                    let name = name_of(*k);
                    match model.get(&name).unwrap_or(&ModelNode::Missing) {
                        ModelNode::File(_) => {
                            prop_assert!(client.unlink(root, &name).is_ok());
                            model.insert(name, ModelNode::Missing);
                        }
                        ModelNode::Dir => {
                            prop_assert!(client.rmdir(root, &name).is_ok());
                            model.insert(name, ModelNode::Missing);
                        }
                        ModelNode::Missing => {
                            prop_assert!(client.unlink(root, &name).is_err());
                        }
                    }
                }
                FsOp::Rename(a, b) => {
                    let from = name_of(*a);
                    let to = name_of(*b);
                    if from == to {
                        continue;
                    }
                    let src = model.get(&from).cloned().unwrap_or_default();
                    let dst_taken = !matches!(
                        model.get(&to).unwrap_or(&ModelNode::Missing),
                        ModelNode::Missing
                    );
                    let got = client.rename(root, &from, root, &to);
                    match (src, dst_taken) {
                        (ModelNode::Missing, _) => prop_assert!(got.is_err()),
                        (_, true) => prop_assert!(got.is_err(), "dest taken"),
                        (node, false) => {
                            prop_assert!(got.is_ok(), "{got:?}");
                            model.insert(to, node);
                            model.insert(from, ModelNode::Missing);
                        }
                    }
                }
                FsOp::Write(k, n) => {
                    let name = name_of(*k);
                    if let ModelNode::File(content) =
                        model.get(&name).cloned().unwrap_or_default()
                    {
                        let mut fh = client.open(root, &name).unwrap();
                        let data = vec![(*k ^ (*n as u8)) | 1; *n as usize];
                        // Positioned write at 0 (overwrite + extend).
                        client.write_at(&mut fh, 0, &data).unwrap();
                        let mut new = data.clone();
                        if content.len() > new.len() {
                            new.extend_from_slice(&content[new.len()..]);
                        }
                        model.insert(name, ModelNode::File(new));
                    }
                }
                FsOp::Append(k, n) => {
                    let name = name_of(*k);
                    if let ModelNode::File(mut content) =
                        model.get(&name).cloned().unwrap_or_default()
                    {
                        let mut fh = client.open(root, &name).unwrap();
                        fh.seek(fh.size());
                        let data = vec![(*k).wrapping_add(*n as u8) | 1; *n as usize];
                        client.write(&mut fh, &data).unwrap();
                        content.extend_from_slice(&data);
                        model.insert(name, ModelNode::File(content));
                    }
                }
                FsOp::ReadCheck(k) => {
                    let name = name_of(*k);
                    match model.get(&name).unwrap_or(&ModelNode::Missing) {
                        ModelNode::File(content) => {
                            let mut fh = client.open(root, &name).unwrap();
                            let got = client.read(&mut fh, content.len() + 64).unwrap();
                            prop_assert_eq!(&got, content, "{}", name);
                        }
                        ModelNode::Dir => {
                            prop_assert!(client.open(root, &name).is_err());
                        }
                        ModelNode::Missing => {
                            prop_assert!(client.lookup(root, &name).is_err());
                        }
                    }
                }
                FsOp::List => {
                    let listed: Vec<String> = client
                        .readdir(root)
                        .unwrap()
                        .into_iter()
                        .map(|d| d.name)
                        .collect();
                    let expect: Vec<String> = model
                        .iter()
                        .filter(|(_, v)| !matches!(v, ModelNode::Missing))
                        .map(|(k, _)| k.clone())
                        .collect();
                    prop_assert_eq!(listed, expect);
                }
            }
        }

        // Final full audit: listing + contents + types all match.
        for (name, node) in &model {
            match node {
                ModelNode::Missing => prop_assert!(client.lookup(root, name).is_err()),
                ModelNode::Dir => {
                    let d = client.lookup(root, name).unwrap();
                    prop_assert_eq!(d.file_type, FileType::Dir);
                }
                ModelNode::File(content) => {
                    let mut fh = client.open(root, name).unwrap();
                    let got = client.read(&mut fh, content.len() + 1).unwrap();
                    prop_assert_eq!(&got, content);
                }
            }
        }
    }

    /// Punch-hole cleanup vs. live neighbors: unlinking a packed small
    /// file frees its range inside a shared extent (§2.3.2). Interleaving
    /// those deletions with appends must never corrupt a surviving file —
    /// every read serves exactly the bytes written, and no freed (zeroed
    /// or reused) range ever leaks into live content.
    #[test]
    fn punch_hole_deletes_never_leak_into_live_files(
        ops in proptest::collection::vec(punch_op_strategy(), 1..50)
    ) {
        let config = ClusterConfig {
            small_file_threshold: 1024,
            packet_size: 1024,
            ..Default::default()
        };
        let cluster = ClusterBuilder::new().config(config).build().unwrap();
        cluster.create_volume("punch", 1, 2).unwrap();
        let client = cluster.mount("punch").unwrap();
        let root = client.root();

        // Live files only; unlinked ones leave queued punches behind.
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let name_of = |k: u8| format!("s{:02x}", k % 24); // collide on purpose

        for op in &ops {
            match op {
                PunchOp::Create(k, n) => {
                    let name = name_of(*k);
                    if model.contains_key(&name) {
                        continue;
                    }
                    client.create(root, &name).unwrap();
                    let mut fh = client.open(root, &name).unwrap();
                    let data: Vec<u8> =
                        (0..*n).map(|i| (*k).wrapping_add(i as u8) | 1).collect();
                    client.write(&mut fh, &data).unwrap();
                    client.fsync(&mut fh).unwrap();
                    model.insert(name, data);
                }
                PunchOp::Append(k, n) => {
                    let name = name_of(*k);
                    let Some(content) = model.get_mut(&name) else { continue };
                    let mut fh = client.open(root, &name).unwrap();
                    fh.seek(fh.size());
                    let data: Vec<u8> = (0..*n).map(|i| (*k ^ i as u8) | 1).collect();
                    client.write(&mut fh, &data).unwrap();
                    content.extend_from_slice(&data);
                }
                PunchOp::Unlink(k) => {
                    let name = name_of(*k);
                    if model.remove(&name).is_some() {
                        client.unlink(root, &name).unwrap();
                    }
                }
                PunchOp::Punch => {
                    client.process_deletions();
                    for (name, content) in &model {
                        let fh = client.open(root, name).unwrap();
                        let got = client.read_at(&fh, 0, content.len() + 64).unwrap();
                        prop_assert_eq!(&got, content, "{} corrupted by punch", name);
                    }
                }
            }
        }

        // Final audit after draining every queued punch/delete.
        client.process_deletions();
        for (name, content) in &model {
            let fh = client.open(root, name).unwrap();
            let got = client.read_at(&fh, 0, content.len() + 64).unwrap();
            prop_assert_eq!(&got, content, "{} corrupted after final drain", name);
        }
    }

    /// Reads are assembled from reply pieces and cached as slices of them:
    /// every window must equal the model through the writer's cached mount
    /// (cold and again warm) and through a mount with the cache off.
    #[test]
    fn read_windows_match_model_cached_and_uncached(
        ops in proptest::collection::vec(read_op_strategy(), 1..24)
    ) {
        let cluster = ClusterBuilder::new().build().unwrap();
        cluster.create_volume("reads", 1, 4).unwrap();
        let client = cluster.mount("reads").unwrap();
        let uncached = cluster
            .mount_with_options(
                "reads",
                ClientOptions { read_cache_capacity: 0, ..ClientOptions::default() },
            )
            .unwrap();
        let root = client.root();
        client.create(root, "f").unwrap();
        let mut fh = client.open(root, "f").unwrap();
        let mut model: Vec<u8> = Vec::new();
        // Where the cached mount's previous read of the file ended.
        let mut prev_end = 0usize;

        for (tag, op) in ops.iter().enumerate() {
            let tag = tag as u32;
            match *op {
                ReadOp::Append(n) => {
                    let data = tagged(tag, model.len(), n as usize);
                    client.write_at(&mut fh, model.len() as u64, &data).unwrap();
                    client.fsync(&mut fh).unwrap();
                    model.extend_from_slice(&data);
                }
                ReadOp::Overwrite(frac, n) => {
                    // Cache every full block first (slices of multi-block
                    // replies), so the overwrite must invalidate some.
                    let whole = client.read_at(&fh, 0, model.len()).unwrap();
                    prop_assert!(whole == model, "whole-file read before overwrite");
                    let at = ((model.len() as u64 * frac as u64) >> 16) as usize;
                    let data = tagged(tag, at, n as usize);
                    client.write_at(&mut fh, at as u64, &data).unwrap();
                    client.fsync(&mut fh).unwrap();
                    model.resize(model.len().max(at + data.len()), 0);
                    model[at..at + data.len()].copy_from_slice(&data);
                    let got = client.read_at(&fh, 0, model.len()).unwrap();
                    prop_assert!(got == model, "cached read after overwrite at {} len {}", at, n);
                    prev_end = model.len();
                }
                ReadOp::Read(_, n) | ReadOp::Continue(n) => {
                    let at = match *op {
                        ReadOp::Read(frac, _) => {
                            (((model.len() as u64 + 4096) * frac as u64) >> 16) as usize
                        }
                        _ => prev_end,
                    };
                    let want = &model[at.min(model.len())..(at + n as usize).min(model.len())];
                    for pass in ["first", "repeated"] {
                        let got = client.read_at(&fh, at as u64, n as usize).unwrap();
                        prop_assert!(got == want, "{} cached read at {} len {}", pass, at, n);
                    }
                    if at < model.len() {
                        prev_end = at + want.len();
                    }
                    let ufh = uncached.open(root, "f").unwrap();
                    let got = uncached.read_at(&ufh, at as u64, n as usize).unwrap();
                    prop_assert!(got == want, "uncached read at {} len {}", at, n);
                }
            }
        }
    }
}
