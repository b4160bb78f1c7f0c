//! In-memory spans recorded from outside the stack, and their folding
//! into per-layer self times.
//!
//! A traced round re-registers every node on its fabric behind a closure
//! that opens a span, calls the node's public `handle`, and closes the
//! span. The benchmark opens one root span around each client call. The
//! fabric delivers on the caller's stack (a chain forward dispatches
//! inline from inside the head's handler), so a thread-local stack gives
//! every span its parent: root op → handler → nested replica hop.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use cfs::{Cluster, RpcRoute};

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `route` is the handler's route label
/// (`meta.write`, `data.append`, …) or `op.<name>` for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub route: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, or `NO_PARENT` for a root.
    pub parent: u32,
    /// Identifier shared by every span of one client op.
    pub op: u32,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        })
    });
}

/// Stop recording and take the spans, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Open a span under the innermost open one. A no-op while not recording.
pub fn span(route: &'static str) -> SpanGuard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return SpanGuard(None);
        };
        let parent = rec.stack.last().copied();
        let op = match parent {
            Some(p) => rec.spans[p as usize].op,
            None => {
                rec.next_op += 1;
                rec.next_op
            }
        };
        let idx = rec.spans.len() as u32;
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            route,
            start_ns: now,
            end_ns: now,
            parent: parent.unwrap_or(NO_PARENT),
            op,
        });
        rec.stack.push(idx);
        SpanGuard(Some(idx))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.stack.pop();
            }
        });
    }
}

/// Put a span-recording closure in front of every node's handler, through
/// the public `Network::register`.
pub fn wrap_handlers(cluster: &Cluster) {
    let fabrics = cluster.fabrics();
    for node in cluster.masters() {
        let n = node.clone();
        fabrics.master.register(
            n.id(),
            Arc::new(move |_from, req: cfs_master::MasterRequest| {
                let _span = span(req.route());
                n.handle(req)
            }),
        );
    }
    for node in cluster.meta_nodes() {
        let n = node.clone();
        fabrics.meta.register(
            n.id(),
            Arc::new(move |_from, req: cfs::MetaRequest| {
                let _span = span(req.route());
                n.handle(req)
            }),
        );
    }
    for node in cluster.data_nodes() {
        let n = node.clone();
        fabrics.data.register(
            n.id(),
            Arc::new(move |_from, req: cfs::DataRequest| {
                let _span = span(req.route());
                n.handle(req)
            }),
        );
    }
}

/// Where a span's self time is booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client,
    Meta,
    Data,
    /// A data handler called from inside a data handler: a replica hop.
    DataForward,
    Master,
}

pub const LAYERS: usize = 5;

fn layer_of(spans: &[Span], s: &Span) -> Layer {
    let under_data = s.parent != NO_PARENT && spans[s.parent as usize].route.starts_with("data.");
    match s.route.split('.').next() {
        Some("meta") => Layer::Meta,
        Some("data") if under_data => Layer::DataForward,
        Some("data") => Layer::Data,
        Some("master") => Layer::Master,
        _ => Layer::Client,
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Children arrive in start order because spans are stored in start
    // order, so one running "covered up to" mark per parent is enough.
    let mut covered = vec![0u64; spans.len()];
    let mut mark: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(mark[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            mark[p] = hi;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Spans folded over the traced rounds of a run.
#[derive(Debug, Default)]
pub struct Fold {
    /// Self time per [`Layer`], over spans that belong to a client op.
    pub self_ns: [u64; LAYERS],
    /// Wall time of the root op spans.
    pub op_wall_ns: u64,
    /// Durations of the handler spans called directly by a client op, per
    /// route.
    pub handler_ns: BTreeMap<&'static str, Vec<u64>>,
    pub spans: u64,
}

impl Fold {
    /// Spans outside any client op (set-up RPCs, heartbeats) carry a
    /// handler route at their root and are left out, so the layer shares
    /// of the op wall time sum to one.
    pub fn add(&mut self, spans: &[Span]) {
        let selfs = self_times(spans);
        let root_is_op: Vec<bool> = {
            let mut v = vec![false; spans.len()];
            for (i, s) in spans.iter().enumerate() {
                v[i] = if s.parent == NO_PARENT {
                    s.route.starts_with("op.")
                } else {
                    v[s.parent as usize]
                };
            }
            v
        };
        for (i, s) in spans.iter().enumerate() {
            if !root_is_op[i] {
                continue;
            }
            self.spans += 1;
            self.self_ns[layer_of(spans, s) as usize] += selfs[i];
            if s.parent == NO_PARENT {
                self.op_wall_ns += s.end_ns - s.start_ns;
            } else if spans[s.parent as usize].parent == NO_PARENT {
                self.handler_ns
                    .entry(s.route)
                    .or_default()
                    .push(s.end_ns - s.start_ns);
            }
        }
    }

    /// Share of the op wall time that is `layer`'s self time.
    pub fn share(&self, layer: Layer) -> f64 {
        if self.op_wall_ns == 0 {
            return 0.0;
        }
        self.self_ns[layer as usize] as f64 / self.op_wall_ns as f64
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"route\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.route, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(route: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            route,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            sp("op.write", 0, 100, NO_PARENT),
            sp("meta.write", 10, 30, 0),  // sibling 1
            sp("data.append", 40, 90, 0), // sibling 2
            sp("data.append", 50, 70, 2), // nested under sibling 2
            sp("data.append", 70, 85, 2), // second hop, sibling of the first
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 15, 20, 15]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            sp("op.x", 0, 100, NO_PARENT),
            sp("meta.read", 10, 60, 0),
            sp("meta.read", 40, 120, 0), // overlaps its sibling and overruns the parent
        ];
        // Covered: [10,60) ∪ [40,100) = [10,100) → 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn shares_sum_to_one_and_forward_hops_are_split_out() {
        let spans = [
            sp("meta.create_partition", 0, 50, NO_PARENT), // set-up RPC: ignored
            sp("op.write", 100, 200, NO_PARENT),
            sp("master.get_volume", 105, 110, 1),
            sp("meta.write", 110, 130, 1),
            sp("data.append", 140, 190, 1),
            sp("data.append", 150, 170, 4),
        ];
        let mut fold = Fold::default();
        fold.add(&spans);
        assert_eq!(fold.op_wall_ns, 100);
        assert_eq!(fold.spans, 5);
        assert_eq!(fold.self_ns[Layer::Client as usize], 25);
        assert_eq!(fold.self_ns[Layer::Master as usize], 5);
        assert_eq!(fold.self_ns[Layer::Meta as usize], 20);
        assert_eq!(fold.self_ns[Layer::Data as usize], 30);
        assert_eq!(fold.self_ns[Layer::DataForward as usize], 20);
        let sum: f64 = [
            Layer::Client,
            Layer::Meta,
            Layer::Data,
            Layer::DataForward,
            Layer::Master,
        ]
        .into_iter()
        .map(|l| fold.share(l))
        .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Only the head's span counts as a handler sample, not the hop.
        assert_eq!(fold.handler_ns["data.append"], vec![50]);
        assert_eq!(fold.handler_ns["meta.write"], vec![20]);
    }

    #[test]
    fn recorder_nests_by_call_stack() {
        start();
        {
            let _op = span("op.a");
            {
                let _h = span("data.append");
                let _hop = span("data.append");
            }
            let _m = span("meta.write");
        }
        {
            let _op = span("op.b");
        }
        let spans = finish();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 0, NO_PARENT]);
        let ops: Vec<u32> = spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec![1, 1, 1, 1, 2]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Not recording: spans are no-ops.
        let _g = span("op.c");
        assert!(finish().is_empty());
    }
}
