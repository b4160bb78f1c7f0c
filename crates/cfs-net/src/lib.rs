//! In-memory RPC fabric with fault injection, driven by a virtual clock.
//!
//! The real (non-simulated) CFS stack runs as an in-process cluster: every
//! node registers a [`Service`] handler and peers call each other through a
//! [`Network`]. The network can kill nodes, cut links, and count traffic,
//! which is how the integration tests exercise the paper's failure paths —
//! request timeouts marking partitions read-only (§2.3.3), client retries
//! (§2.1.3), and leader-change redirects (§2.4) — without real sockets.
//!
//! The paper's clients use *non-persistent connections* to the resource
//! manager (§2.5.2); accordingly this fabric is connectionless: every
//! `call` is independent.
//!
//! # Submit/poll completion model
//!
//! The fabric is event-driven: callers [`Network::submit`] a request and
//! get back a completion token, the delivery is queued on the fabric's
//! [`SimClock`] at `now + latency`, and [`Network::wait`] (or
//! [`Network::try_take`]) drains completions by driving the earliest
//! pending delivery. Simulated latency is *virtual ticks* on the shared
//! clock — never `thread::sleep` — so a window of N submitted packets
//! costs one latency, not N, and no OS thread is ever spawned per RPC.
//!
//! Delivery order is deterministic: pending entries deliver in
//! `(deliver_at, submit seq)` order, so a window of packets submitted
//! back-to-back is handled in submit order. Fault hooks are consulted
//! exactly once per RPC, *at scheduled delivery time*: `Drop` completes
//! the token with a `Timeout`, `Delay(us)` reschedules the delivery
//! `us` virtual microseconds later (already-verdicted entries are not
//! re-verdicted), and the fault-state check runs after the verdict.
//!
//! Calls made from *inside* a handler (chain forwarding on the data
//! plane) dispatch inline on the caller's stack: they advance the clock
//! by the hop latency and run the same verdict/fault/handler sequence
//! synchronously. This keeps the chain head's ticket-ordered forwarding
//! semantics (a queued sibling delivery would self-deadlock the turn
//! wait) while still charging each hop on the virtual timeline.
//! [`Network::call`] is submit + wait, so synchronous callers are
//! unchanged.

use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use cfs_obs::{Counter, Gauge, Histogram, Registry, RequestId, RpcRoute};
use cfs_types::{CfsError, FaultState, NodeId, Result};

/// A node-side request handler.
pub trait Service<Req, Resp>: Send + Sync {
    /// Handle one request from `from`.
    fn handle(&self, from: NodeId, req: Req) -> Resp;
}

impl<Req, Resp, F> Service<Req, Resp> for F
where
    F: Fn(NodeId, Req) -> Resp + Send + Sync,
{
    fn handle(&self, from: NodeId, req: Req) -> Resp {
        self(from, req)
    }
}

/// Virtual time source shared by fabrics: a monotonically-advancing
/// nanosecond counter. Cloning shares the clock, so the cluster installs
/// one instance across the master/meta/data fabrics and every delivery,
/// delay, and backoff lands on a single timeline.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ns: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at t = 0.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    /// Advance by `delta_ns` and return the new now.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.ns.fetch_add(delta_ns, Ordering::SeqCst) + delta_ns
    }

    /// Advance to at least `t_ns` (never moves backwards).
    pub fn advance_to(&self, t_ns: u64) {
        self.ns.fetch_max(t_ns, Ordering::SeqCst);
    }
}

thread_local! {
    /// Nesting depth of fabric handlers on this thread. Non-zero means we
    /// are inside a handler, so further calls must dispatch inline (a
    /// queued delivery could never be driven: the driver is this stack).
    static HANDLER_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII depth bump around handler execution (panic-safe).
struct DepthGuard;

impl DepthGuard {
    fn enter() -> DepthGuard {
        HANDLER_DEPTH.with(|d| d.set(d.get() + 1));
        DepthGuard
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        HANDLER_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

fn in_handler() -> bool {
    HANDLER_DEPTH.with(|d| d.get()) > 0
}

/// Traffic counters. Fault-injected losses and real routing errors are
/// tracked separately so chaos assertions can tell "the schedule dropped
/// this" from "the cluster mis-routed this". Always on — no registry
/// needed to read them.
#[derive(Debug, Default)]
struct Counters {
    calls: AtomicU64,
    /// Calls lost to injected faults: the shared fault state (down node,
    /// cut link) or a delivery-hook drop. Surface as `Timeout`.
    drops: AtomicU64,
    /// Calls refused because no handler is registered for the destination.
    /// Surface as `Unavailable`.
    rejections: AtomicU64,
    /// Per-cause split of `drops`, so chaos reconciliation can match each
    /// loss to the fault kind that injected it.
    hook_drops: AtomicU64,
    fault_drops: AtomicU64,
    /// Completion-side twins of `calls`: every submitted RPC must complete
    /// exactly once (checked by chaos reconciliation).
    completions: AtomicU64,
    /// Currently submitted-but-not-completed RPCs, with a high-water mark
    /// (the budget tests pin it to the configured window).
    inflight: AtomicU64,
    inflight_hwm: AtomicU64,
}

/// `drops` split by the fault kind that caused each loss. The causes
/// partition the total: `hook + fault == drop_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropCauses {
    /// Scripted delivery-hook drop (chaos `DropRpcs` schedules).
    pub hook: u64,
    /// Shared cluster-wide fault state: a node marked down or a cut link
    /// on the fault switchboard.
    pub fault: u64,
}

impl DropCauses {
    pub fn total(&self) -> u64 {
        self.hook + self.fault
    }
}

/// Registry-backed handles for one route's traffic on one fabric.
#[derive(Clone)]
struct RouteHandles {
    calls: Counter,
    failures: Counter,
    latency: Histogram,
}

/// Registry binding installed by [`Network::bind_metrics`]. Route handles
/// are resolved once per route label and cached; the per-call fast path
/// is a read-lock and a few relaxed atomic bumps.
struct NetObs {
    registry: Registry,
    fabric: String,
    routes: RwLock<HashMap<&'static str, RouteHandles>>,
    hook_drops: Counter,
    fault_drops: Counter,
    rejections: Counter,
    /// Fabric-wide completion-model counters: `fabric.submits`,
    /// `fabric.completions`, and `fabric.inflight` (gauge with high
    /// water).
    fabric_submits: Counter,
    fabric_completions: Counter,
    fabric_inflight: Gauge,
}

impl NetObs {
    fn new(registry: Registry, fabric: &str) -> NetObs {
        let c =
            |cause: &str| registry.counter(&format!("net.drops{{fabric={fabric},cause={cause}}}"));
        NetObs {
            fabric: fabric.to_string(),
            routes: RwLock::new(HashMap::new()),
            hook_drops: c("hook"),
            fault_drops: c("fault"),
            rejections: registry.counter(&format!("net.rejections{{fabric={fabric}}}")),
            fabric_submits: registry.counter(&format!("fabric.submits{{fabric={fabric}}}")),
            fabric_completions: registry.counter(&format!("fabric.completions{{fabric={fabric}}}")),
            fabric_inflight: registry.gauge(&format!("fabric.inflight{{fabric={fabric}}}")),
            registry,
        }
    }

    fn route(&self, route: &'static str) -> RouteHandles {
        if let Some(h) = self.routes.read().get(route) {
            return h.clone();
        }
        let mut routes = self.routes.write();
        routes
            .entry(route)
            .or_insert_with(|| {
                let fabric = &self.fabric;
                RouteHandles {
                    calls: self
                        .registry
                        .counter(&format!("net.calls{{fabric={fabric},route={route}}}")),
                    failures: self
                        .registry
                        .counter(&format!("net.failures{{fabric={fabric},route={route}}}")),
                    latency: self
                        .registry
                        .histogram(&format!("net.latency_ns{{fabric={fabric},route={route}}}")),
                }
            })
            .clone()
    }
}

/// Per-call fate decided by a scripted chaos schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// Deliver normally.
    Deliver,
    /// Lose the request; the caller sees a `Timeout`.
    Drop,
    /// Deliver after this many *virtual* microseconds: the delivery is
    /// rescheduled on the sim clock, not slept on the caller's thread.
    Delay(u64),
}

/// Scriptable RPC scheduling: every call gets a fabric-wide sequence
/// number and the hook decides its fate. With single-threaded callers the
/// sequence — and thus the whole fault interleaving — is deterministic
/// and replays exactly from a seed. The verdict is consulted exactly once
/// per RPC, at its first scheduled delivery.
pub trait DeliveryHook: Send + Sync {
    fn verdict(&self, seq: u64, from: NodeId, to: NodeId) -> DeliveryVerdict;
}

/// A queued delivery, ordered by `(deliver_at, token)` — the heap is a
/// min-heap, so ties on the clock break by submission order.
struct Pending<Req> {
    deliver_at: u64,
    token: u64,
    submitted_at: u64,
    from: NodeId,
    to: NodeId,
    req: Req,
    /// True once the delivery hook has ruled (a `Delay` reschedule); the
    /// verdict is never consulted twice for one RPC.
    verdicted: bool,
}

impl<Req> PartialEq for Pending<Req> {
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token
    }
}

impl<Req> Eq for Pending<Req> {}

impl<Req> Ord for Pending<Req> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.deliver_at, other.token).cmp(&(self.deliver_at, self.token))
    }
}

impl<Req> PartialOrd for Pending<Req> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// A connectionless request/response fabric between nodes.
///
/// Cloning shares the underlying fabric (`Arc` semantics), so components
/// can hold their own handle.
pub struct Network<Req, Resp> {
    inner: Arc<Inner<Req, Resp>>,
}

struct Inner<Req, Resp> {
    services: RwLock<HashMap<NodeId, Arc<dyn Service<Req, Resp>>>>,
    /// Optional cluster-wide fault switches (down nodes, cut links) shared
    /// with the raft hub, so one "kill node" affects RPC and consensus
    /// traffic alike. Calls they block time out.
    faults: RwLock<Option<FaultState>>,
    /// Simulated per-call latency in nanoseconds (0 = instant), charged as
    /// virtual ticks: a submitted RPC delivers at `now + latency`, so a
    /// whole window of concurrent submissions shares one latency — which
    /// is what pipelined senders exploit.
    latency_ns: AtomicU64,
    /// Virtual time source for scheduled deliveries. Per-fabric by
    /// default; the cluster shares one clock across its fabrics.
    clock: RwLock<SimClock>,
    /// Deliveries queued on the sim clock, earliest first.
    pending: Mutex<BinaryHeap<Pending<Req>>>,
    /// Completions not yet taken by their submitter.
    completed: Mutex<HashMap<u64, Result<Resp>>>,
    completed_cv: Condvar,
    counters: Counters,
    /// Optional scripted per-call drop/delay schedule (chaos tests).
    hook: RwLock<Option<Arc<dyn DeliveryHook>>>,
    /// Optional registry binding (per-route metrics + trace spans).
    obs: RwLock<Option<Arc<NetObs>>>,
}

impl<Req, Resp> Clone for Network<Req, Resp> {
    fn clone(&self) -> Self {
        Network {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<Req, Resp> Default for Network<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> Network<Req, Resp> {
    /// Empty fabric.
    pub fn new() -> Self {
        Network {
            inner: Arc::new(Inner {
                services: RwLock::new(HashMap::new()),
                faults: RwLock::new(None),
                latency_ns: AtomicU64::new(0),
                clock: RwLock::new(SimClock::new()),
                pending: Mutex::new(BinaryHeap::new()),
                completed: Mutex::new(HashMap::new()),
                completed_cv: Condvar::new(),
                counters: Counters::default(),
                hook: RwLock::new(None),
                obs: RwLock::new(None),
            }),
        }
    }

    /// Bind this fabric to a metrics registry. Every subsequent call
    /// contributes per-route counters and latency histograms named
    /// `net.*{fabric=<fabric>}` plus the completion-model gauges
    /// `fabric.*{fabric=<fabric>}`, and traced requests get `net` spans
    /// in the registry's tracer.
    pub fn bind_metrics(&self, registry: &Registry, fabric: &str) {
        *self.inner.obs.write() = Some(Arc::new(NetObs::new(registry.clone(), fabric)));
    }

    /// Replace this fabric's virtual clock (usually to share one clock
    /// across several fabrics). Pending deliveries keep their absolute
    /// schedule, so install the clock before traffic starts.
    pub fn set_clock(&self, clock: SimClock) {
        *self.inner.clock.write() = clock;
    }

    /// Handle on this fabric's virtual clock.
    pub fn clock(&self) -> SimClock {
        self.inner.clock.read().clone()
    }

    /// Current virtual time in nanoseconds.
    pub fn virtual_now(&self) -> u64 {
        self.clock().now()
    }

    /// Register (or replace) the handler for `node`.
    pub fn register(&self, node: NodeId, service: Arc<dyn Service<Req, Resp>>) {
        self.inner.services.write().insert(node, service);
    }

    /// Deregister a node entirely.
    pub fn deregister(&self, node: NodeId) {
        self.inner.services.write().remove(&node);
    }

    /// Share cluster-wide fault state (also consulted by the raft hub).
    pub fn set_faults(&self, faults: FaultState) {
        *self.inner.faults.write() = Some(faults);
    }

    fn fault_blocked(&self, from: NodeId, to: NodeId) -> bool {
        match &*self.inner.faults.read() {
            Some(f) => !f.link_ok(from, to),
            None => false,
        }
    }

    /// Simulate a per-call round-trip latency (benches: model a real
    /// network so pipelining has something to hide). Zero disables it.
    /// Charged as virtual clock ticks at delivery, never as a sleep.
    pub fn set_latency(&self, latency: Duration) {
        self.inner
            .latency_ns
            .store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Install (or clear) a scripted per-call delivery schedule.
    pub fn set_delivery_hook(&self, hook: Option<Arc<dyn DeliveryHook>>) {
        *self.inner.hook.write() = hook;
    }

    /// Record an injected-fault loss in the always-on counters and (when
    /// bound) the per-cause registry counters + route failure counter.
    fn note_drop(
        &self,
        obs: Option<&(Arc<NetObs>, RouteHandles)>,
        cause_counter: &AtomicU64,
        pick: impl Fn(&NetObs) -> &Counter,
    ) {
        self.inner.counters.drops.fetch_add(1, Ordering::Relaxed);
        cause_counter.fetch_add(1, Ordering::Relaxed);
        if let Some((o, route)) = obs {
            pick(o).inc();
            route.failures.inc();
        }
    }

    fn route_obs(&self, route: &'static str) -> Option<(Arc<NetObs>, RouteHandles)> {
        self.inner
            .obs
            .read()
            .as_ref()
            .map(|o| (Arc::clone(o), o.route(route)))
    }

    /// Record one completion and wake any waiter.
    fn complete(&self, token: u64, result: Result<Resp>) {
        let c = &self.inner.counters;
        c.completions.fetch_add(1, Ordering::Relaxed);
        c.inflight.fetch_sub(1, Ordering::Relaxed);
        if let Some(o) = &*self.inner.obs.read() {
            o.fabric_completions.inc();
            o.fabric_inflight.sub(1);
        }
        let mut done = self.inner.completed.lock();
        done.insert(token, result);
        self.inner.completed_cv.notify_all();
    }

    /// The scripted verdict for one RPC (consulted exactly once).
    fn verdict_for(&self, seq: u64, from: NodeId, to: NodeId) -> DeliveryVerdict {
        match &*self.inner.hook.read() {
            Some(h) => h.verdict(seq, from, to),
            None => DeliveryVerdict::Deliver,
        }
    }

    /// Submit an RPC for delivery and return its completion token.
    ///
    /// The delivery is scheduled `latency` virtual nanoseconds from now;
    /// the token completes when a poll ([`wait`](Self::wait) /
    /// [`try_take`](Self::try_take)) drives it. Inside a handler the call
    /// dispatches inline instead (see the module docs).
    pub fn submit(&self, from: NodeId, to: NodeId, req: Req) -> u64
    where
        Req: RpcRoute,
    {
        let token = self.inner.counters.calls.fetch_add(1, Ordering::Relaxed);
        let obs = self.route_obs(req.route());
        if let Some((o, route)) = &obs {
            route.calls.inc();
            o.fabric_submits.inc();
            o.fabric_inflight.add(1);
        }
        let c = &self.inner.counters;
        let inflight = c.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        c.inflight_hwm.fetch_max(inflight, Ordering::Relaxed);
        let clock = self.clock();
        let submitted_at = clock.now();
        let deliver_at = submitted_at + self.inner.latency_ns.load(Ordering::Relaxed);
        if in_handler() {
            // Nested call (chain forwarding): charge the hop latency on
            // the virtual clock and run the delivery on this stack.
            clock.advance_to(deliver_at);
            match self.verdict_for(token, from, to) {
                DeliveryVerdict::Deliver => {}
                DeliveryVerdict::Drop => {
                    self.note_drop(obs.as_ref(), &c.hook_drops, |o| &o.hook_drops);
                    self.complete(
                        token,
                        Err(CfsError::Timeout(format!("{from} -> {to}: dropped"))),
                    );
                    return token;
                }
                DeliveryVerdict::Delay(us) => {
                    clock.advance(us * 1_000);
                }
            }
            let result = self.finish_delivery(submitted_at, from, to, req, obs);
            self.complete(token, result);
        } else {
            self.inner.pending.lock().push(Pending {
                deliver_at,
                token,
                submitted_at,
                from,
                to,
                req,
                verdicted: false,
            });
        }
        token
    }

    /// Take the completion for `token` if it has been delivered.
    pub fn try_take(&self, token: u64) -> Option<Result<Resp>> {
        self.inner.completed.lock().remove(&token)
    }

    /// Drive the earliest pending delivery: advance the clock to its due
    /// time, apply the hook verdict (`Delay` reschedules), run the fault
    /// checks and the handler, and record the completion. Returns false
    /// when nothing is pending.
    fn drive_one(&self) -> bool
    where
        Req: RpcRoute,
    {
        let mut entry = match self.inner.pending.lock().pop() {
            Some(e) => e,
            None => return false,
        };
        let clock = self.clock();
        clock.advance_to(entry.deliver_at);
        if !entry.verdicted {
            match self.verdict_for(entry.token, entry.from, entry.to) {
                DeliveryVerdict::Deliver => {}
                DeliveryVerdict::Drop => {
                    let obs = self.route_obs(entry.req.route());
                    self.note_drop(obs.as_ref(), &self.inner.counters.hook_drops, |o| {
                        &o.hook_drops
                    });
                    let (from, to) = (entry.from, entry.to);
                    self.complete(
                        entry.token,
                        Err(CfsError::Timeout(format!("{from} -> {to}: dropped"))),
                    );
                    return true;
                }
                DeliveryVerdict::Delay(us) => {
                    entry.verdicted = true;
                    entry.deliver_at = clock.now() + us * 1_000;
                    self.inner.pending.lock().push(entry);
                    return true;
                }
            }
        }
        let obs = self.route_obs(entry.req.route());
        let result = self.finish_delivery(entry.submitted_at, entry.from, entry.to, entry.req, obs);
        self.complete(entry.token, result);
        true
    }

    /// Post-verdict delivery: the shared fault-state check, then the
    /// handler. Runs at current virtual time; the route latency histogram
    /// records virtual elapsed.
    fn finish_delivery(
        &self,
        submitted_at: u64,
        from: NodeId,
        to: NodeId,
        req: Req,
        obs: Option<(Arc<NetObs>, RouteHandles)>,
    ) -> Result<Resp>
    where
        Req: RpcRoute,
    {
        let counters = &self.inner.counters;
        let _span = obs.as_ref().and_then(|(o, _)| {
            let rid = RequestId(req.request_id());
            rid.is_traced()
                .then(|| o.registry.tracer().span(rid, "net", req.route()))
        });
        if self.fault_blocked(from, to) {
            self.note_drop(obs.as_ref(), &counters.fault_drops, |o| &o.fault_drops);
            return Err(CfsError::Timeout(format!("{from} -> {to}")));
        }
        let service = {
            let services = self.inner.services.read();
            services.get(&to).cloned()
        };
        match service {
            Some(s) => {
                let resp = {
                    let _depth = DepthGuard::enter();
                    s.handle(from, req)
                };
                if let Some((_, route)) = &obs {
                    route
                        .latency
                        .record(self.virtual_now().saturating_sub(submitted_at));
                }
                Ok(resp)
            }
            None => {
                counters.rejections.fetch_add(1, Ordering::Relaxed);
                if let Some((o, route)) = &obs {
                    o.rejections.inc();
                    route.failures.inc();
                }
                Err(CfsError::Unavailable(format!("{to}: not registered")))
            }
        }
    }

    /// Poll until `token` completes, driving pending deliveries in
    /// scheduled order. The wakeup is completion-driven: when another
    /// thread is executing our delivery we block on the completion
    /// condvar instead of spinning.
    pub fn wait(&self, token: u64) -> Result<Resp>
    where
        Req: RpcRoute,
    {
        let mut idle_waits = 0u32;
        loop {
            if let Some(r) = self.try_take(token) {
                return r;
            }
            if self.drive_one() {
                idle_waits = 0;
                continue;
            }
            // Nothing pending on this fabric: another thread popped our
            // delivery (or completed it between our checks). Block until
            // a completion lands, then re-check.
            let mut done = self.inner.completed.lock();
            if let Some(r) = done.remove(&token) {
                return r;
            }
            if self
                .inner
                .completed_cv
                .wait_for(&mut done, Duration::from_millis(50))
                .timed_out()
            {
                idle_waits += 1;
                assert!(
                    idle_waits < 1_200,
                    "fabric wedged waiting for completion token {token}"
                );
            }
        }
    }

    /// Synchronous RPC: submit + wait. Fails with `Timeout` if the fault
    /// state has the destination down or the link cut, and `Unavailable`
    /// if nothing is registered there.
    pub fn call(&self, from: NodeId, to: NodeId, req: Req) -> Result<Resp>
    where
        Req: RpcRoute,
    {
        let token = self.submit(from, to, req);
        self.wait(token)
    }

    /// Total calls attempted (== RPCs submitted).
    pub fn call_count(&self) -> u64 {
        self.inner.counters.calls.load(Ordering::Relaxed)
    }

    /// RPCs that have completed (delivered, dropped, or rejected). At
    /// quiescence this equals [`call_count`](Self::call_count): no RPC is
    /// ever lost in the queue.
    pub fn completion_count(&self) -> u64 {
        self.inner.counters.completions.load(Ordering::Relaxed)
    }

    /// RPCs currently submitted but not completed.
    pub fn inflight(&self) -> u64 {
        self.inner.counters.inflight.load(Ordering::Relaxed)
    }

    /// Most RPCs ever in flight at once on this fabric.
    pub fn inflight_high_water(&self) -> u64 {
        self.inner.counters.inflight_hwm.load(Ordering::Relaxed)
    }

    /// Calls lost to injected faults: the shared fault state or a
    /// delivery-hook drop.
    pub fn drop_count(&self) -> u64 {
        self.inner.counters.drops.load(Ordering::Relaxed)
    }

    /// `drop_count` split by cause; the causes always sum to the total
    /// (checked by the chaos reconciliation invariant).
    pub fn drop_causes(&self) -> DropCauses {
        let c = &self.inner.counters;
        DropCauses {
            hook: c.hook_drops.load(Ordering::Relaxed),
            fault: c.fault_drops.load(Ordering::Relaxed),
        }
    }

    /// Calls refused because the destination had no registered handler —
    /// a routing bug (or a node the caller should not know about), never
    /// an injected fault.
    pub fn rejection_count(&self) -> u64 {
        self.inner.counters.rejections.load(Ordering::Relaxed)
    }

    /// All fabric-level failures (drops + rejections).
    pub fn failure_count(&self) -> u64 {
        self.drop_count() + self.rejection_count()
    }

    /// Registered node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.inner.services.read().keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_network() -> Network<String, String> {
        let net: Network<String, String> = Network::new();
        for id in 1..=3u64 {
            net.register(
                NodeId(id),
                Arc::new(move |from: NodeId, req: String| format!("{id} got {req} from {from}")),
            );
        }
        net
    }

    /// Drops every call.
    struct DropAll;

    impl DeliveryHook for DropAll {
        fn verdict(&self, _s: u64, _f: NodeId, _t: NodeId) -> DeliveryVerdict {
            DeliveryVerdict::Drop
        }
    }

    /// [`echo_network`] wired to a fresh fault switchboard.
    fn faulty_echo_network() -> (Network<String, String>, FaultState) {
        let net = echo_network();
        let faults = FaultState::new();
        net.set_faults(faults.clone());
        (net, faults)
    }

    #[test]
    fn basic_call_roundtrip() {
        let net = echo_network();
        let resp = net.call(NodeId(1), NodeId(2), "ping".into()).unwrap();
        assert_eq!(resp, "2 got ping from n1");
        assert_eq!(net.call_count(), 1);
        assert_eq!(net.failure_count(), 0);
    }

    #[test]
    fn down_node_times_out_and_recovers() {
        let (net, faults) = faulty_echo_network();
        faults.set_down(NodeId(2), true);
        let err = net.call(NodeId(1), NodeId(2), "x".into()).unwrap_err();
        assert!(matches!(err, CfsError::Timeout(_)));
        assert!(err.is_retryable());
        // Other nodes unaffected.
        net.call(NodeId(1), NodeId(3), "x".into()).unwrap();
        faults.set_down(NodeId(2), false);
        net.call(NodeId(1), NodeId(2), "x".into()).unwrap();
        assert_eq!(net.drop_count(), 1);
        assert_eq!(net.rejection_count(), 0);
        assert_eq!(net.failure_count(), 1);
    }

    #[test]
    fn cut_link_is_directional() {
        let (net, faults) = faulty_echo_network();
        faults.set_link_cut(NodeId(1), NodeId(2), true);
        assert!(net.call(NodeId(1), NodeId(2), "x".into()).is_err());
        assert!(net.call(NodeId(2), NodeId(1), "x".into()).is_ok());
        faults.set_link_cut(NodeId(1), NodeId(2), false);
        assert!(net.call(NodeId(1), NodeId(2), "x".into()).is_ok());
    }

    #[test]
    fn partition_cuts_both_directions() {
        let (net, faults) = faulty_echo_network();
        faults.set_partitioned(NodeId(1), NodeId(3), true);
        assert!(net.call(NodeId(1), NodeId(3), "x".into()).is_err());
        assert!(net.call(NodeId(3), NodeId(1), "x".into()).is_err());
        faults.set_partitioned(NodeId(1), NodeId(3), false);
        assert!(net.call(NodeId(1), NodeId(3), "x".into()).is_ok());
    }

    #[test]
    fn unregistered_node_is_unavailable() {
        let net = echo_network();
        let err = net.call(NodeId(1), NodeId(9), "x".into()).unwrap_err();
        assert!(matches!(err, CfsError::Unavailable(_)));
        net.deregister(NodeId(3));
        assert!(net.call(NodeId(1), NodeId(3), "x".into()).is_err());
        assert_eq!(net.nodes(), vec![NodeId(1), NodeId(2)]);
        // Routing errors are rejections, not injected-fault drops.
        assert_eq!(net.rejection_count(), 2);
        assert_eq!(net.drop_count(), 0);
        assert_eq!(net.failure_count(), 2);
    }

    #[test]
    fn drops_and_rejections_are_distinguished() {
        let (net, faults) = faulty_echo_network();
        faults.set_down(NodeId(2), true);
        let _ = net.call(NodeId(1), NodeId(2), "x".into()); // drop
        faults.set_link_cut(NodeId(1), NodeId(3), true);
        let _ = net.call(NodeId(1), NodeId(3), "x".into()); // drop
        let _ = net.call(NodeId(1), NodeId(9), "x".into()); // rejection
        assert_eq!(net.drop_count(), 2);
        assert_eq!(net.rejection_count(), 1);
        assert_eq!(net.failure_count(), 3);
    }

    #[test]
    fn delivery_hook_scripts_call_fates() {
        struct DropSecond;
        impl DeliveryHook for DropSecond {
            fn verdict(&self, seq: u64, _from: NodeId, _to: NodeId) -> DeliveryVerdict {
                match seq {
                    1 => DeliveryVerdict::Drop,
                    2 => DeliveryVerdict::Delay(10),
                    _ => DeliveryVerdict::Deliver,
                }
            }
        }
        let net = echo_network();
        net.set_delivery_hook(Some(Arc::new(DropSecond)));
        assert!(net.call(NodeId(1), NodeId(2), "a".into()).is_ok()); // seq 0
        let err = net.call(NodeId(1), NodeId(2), "b".into()).unwrap_err(); // seq 1
        assert!(matches!(err, CfsError::Timeout(_)));
        assert!(net.call(NodeId(1), NodeId(2), "c".into()).is_ok()); // seq 2, delayed
        assert_eq!(net.drop_count(), 1);
        net.set_delivery_hook(None);
        assert!(net.call(NodeId(1), NodeId(2), "d".into()).is_ok());
    }

    #[test]
    fn drop_causes_partition_the_total() {
        let (net, faults) = faulty_echo_network();
        faults.set_down(NodeId(2), true);
        let _ = net.call(NodeId(1), NodeId(2), "x".into()); // down
        faults.set_down(NodeId(2), false);
        faults.set_link_cut(NodeId(1), NodeId(3), true);
        let _ = net.call(NodeId(1), NodeId(3), "x".into()); // cut
        faults.heal_all();
        net.set_delivery_hook(Some(Arc::new(DropAll)));
        let _ = net.call(NodeId(1), NodeId(2), "x".into()); // hook
        net.set_delivery_hook(None);
        let causes = net.drop_causes();
        assert_eq!(causes.hook, 1);
        assert_eq!(causes.fault, 2);
        assert_eq!(causes.total(), net.drop_count());
    }

    #[test]
    fn bound_registry_sees_per_route_traffic() {
        let net = echo_network();
        let registry = cfs_obs::Registry::new();
        net.bind_metrics(&registry, "test");
        net.call(NodeId(1), NodeId(2), "a".into()).unwrap();
        net.call(NodeId(1), NodeId(3), "b".into()).unwrap();
        let _ = net.call(NodeId(1), NodeId(9), "c".into()); // rejection
        let s = registry.snapshot();
        assert_eq!(s.counter("net.calls{fabric=test,route=string}"), 3);
        assert_eq!(s.counter("net.failures{fabric=test,route=string}"), 1);
        assert_eq!(s.counter("net.rejections{fabric=test}"), 1);
        assert_eq!(
            s.histograms["net.latency_ns{fabric=test,route=string}"].count,
            2
        );
        // Per-route calls reconcile with the always-on total.
        assert_eq!(s.counter_sum("net.calls{fabric=test"), net.call_count());
        // The completion-model counters reconcile too: every submitted
        // RPC completed and nothing is left in flight.
        assert_eq!(s.counter("fabric.submits{fabric=test}"), 3);
        assert_eq!(s.counter("fabric.completions{fabric=test}"), 3);
        assert_eq!(s.gauge("fabric.inflight{fabric=test}").unwrap().value, 0);
    }

    #[test]
    fn bound_registry_splits_drops_by_cause() {
        let (net, faults) = faulty_echo_network();
        let registry = cfs_obs::Registry::new();
        net.bind_metrics(&registry, "test");
        faults.set_down(NodeId(2), true);
        let _ = net.call(NodeId(1), NodeId(2), "x".into());
        faults.set_link_cut(NodeId(1), NodeId(3), true);
        let _ = net.call(NodeId(1), NodeId(3), "x".into());
        net.set_delivery_hook(Some(Arc::new(DropAll)));
        let _ = net.call(NodeId(1), NodeId(3), "x".into());
        let s = registry.snapshot();
        assert_eq!(s.counter("net.drops{fabric=test,cause=fault}"), 2);
        assert_eq!(s.counter("net.drops{fabric=test,cause=hook}"), 1);
        assert_eq!(s.counter_sum("net.drops{fabric=test"), net.drop_count());
    }

    #[test]
    fn clone_shares_fabric() {
        let net = echo_network();
        let net2 = net.clone();
        let faults = FaultState::new();
        net2.set_faults(faults.clone());
        faults.set_down(NodeId(1), true);
        // The clone installed the switchboard; the original consults it.
        assert!(matches!(
            net.call(NodeId(3), NodeId(1), "x".into()),
            Err(CfsError::Timeout(_))
        ));
        net2.call(NodeId(3), NodeId(2), "via clone".into()).unwrap();
        assert_eq!(net.call_count(), 2);
        assert_eq!(net.drop_count(), 1);
    }

    #[test]
    fn submitted_window_completes_without_threads() {
        let net = echo_network();
        net.set_latency(Duration::from_millis(1));
        let tokens: Vec<u64> = (0..4)
            .map(|i| net.submit(NodeId(1), NodeId(2), format!("p{i}")))
            .collect();
        // The whole window is in flight before the first poll.
        assert_eq!(net.inflight(), 4);
        assert_eq!(net.inflight_high_water(), 4);
        for (i, t) in tokens.into_iter().enumerate() {
            let resp = net.wait(t).unwrap();
            assert_eq!(resp, format!("2 got p{i} from n1"));
        }
        assert_eq!(net.inflight(), 0);
        assert_eq!(net.completion_count(), net.call_count());
        // The window shares one scheduled latency instead of stacking
        // four: deliveries were all due at t = 1ms.
        assert_eq!(net.virtual_now(), 1_000_000);
    }

    #[test]
    fn latency_is_virtual_ticks_not_wall_sleep() {
        let net = echo_network();
        net.set_latency(Duration::from_millis(500));
        let wall = std::time::Instant::now();
        net.call(NodeId(1), NodeId(2), "x".into()).unwrap();
        net.call(NodeId(1), NodeId(2), "y".into()).unwrap();
        // Sequential calls stack on the virtual clock...
        assert_eq!(net.virtual_now(), 1_000_000_000);
        // ...but never block the host: half a virtual second costs
        // well under 100ms of wall time.
        assert!(wall.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn delay_verdict_reschedules_on_the_virtual_clock() {
        struct DelayAll;
        impl DeliveryHook for DelayAll {
            fn verdict(&self, _s: u64, _f: NodeId, _t: NodeId) -> DeliveryVerdict {
                DeliveryVerdict::Delay(250_000) // 250 virtual ms
            }
        }
        let net = echo_network();
        net.set_delivery_hook(Some(Arc::new(DelayAll)));
        let wall = std::time::Instant::now();
        net.call(NodeId(1), NodeId(2), "x".into()).unwrap();
        assert_eq!(net.virtual_now(), 250_000_000);
        assert!(wall.elapsed() < Duration::from_millis(100));
    }

    /// Chaos-semantics regression: the hook sees each RPC exactly once,
    /// in submission order, even when a Delay reschedules a delivery.
    #[test]
    fn hook_verdicts_consulted_once_in_submit_order() {
        struct Recorder {
            seen: Mutex<Vec<u64>>,
        }
        impl DeliveryHook for Recorder {
            fn verdict(&self, seq: u64, _f: NodeId, _t: NodeId) -> DeliveryVerdict {
                self.seen.lock().push(seq);
                if seq == 1 {
                    DeliveryVerdict::Delay(10)
                } else {
                    DeliveryVerdict::Deliver
                }
            }
        }
        let hook = Arc::new(Recorder {
            seen: Mutex::new(Vec::new()),
        });
        let net = echo_network();
        net.set_delivery_hook(Some(hook.clone()));
        let tokens: Vec<u64> = (0..3)
            .map(|i| net.submit(NodeId(1), NodeId(2), format!("p{i}")))
            .collect();
        for t in tokens {
            net.wait(t).unwrap();
        }
        // Seq 1 was rescheduled by its Delay verdict but not re-verdicted.
        assert_eq!(*hook.seen.lock(), vec![0, 1, 2]);
    }

    /// Chaos-semantics regression: the hook rules first, so a scripted
    /// drop on a down node is accounted to the hook, not the fault state.
    #[test]
    fn hook_verdict_precedes_down_and_cut_checks() {
        let (net, faults) = faulty_echo_network();
        faults.set_down(NodeId(2), true);
        faults.set_link_cut(NodeId(1), NodeId(3), true);
        net.set_delivery_hook(Some(Arc::new(DropAll)));
        let _ = net.call(NodeId(1), NodeId(2), "x".into());
        let _ = net.call(NodeId(1), NodeId(3), "x".into());
        net.set_delivery_hook(None);
        let causes = net.drop_causes();
        assert_eq!(causes.hook, 2);
        assert_eq!(causes.fault, 0);
        // With the hook cleared the node/link faults take effect.
        let _ = net.call(NodeId(1), NodeId(2), "x".into());
        let _ = net.call(NodeId(1), NodeId(3), "x".into());
        let causes = net.drop_causes();
        assert_eq!(causes.fault, 2);
    }

    /// Deliveries due at the same tick run in submission order, so a
    /// windowed sender observes its packets applied in order.
    #[test]
    fn same_tick_deliveries_run_in_submit_order() {
        let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let net: Network<String, String> = Network::new();
        let o = Arc::clone(&order);
        net.register(
            NodeId(2),
            Arc::new(move |_from: NodeId, req: String| {
                o.lock().push(req.clone());
                req
            }),
        );
        net.set_latency(Duration::from_millis(1));
        let tokens: Vec<u64> = (0..4)
            .map(|i| net.submit(NodeId(1), NodeId(2), format!("p{i}")))
            .collect();
        // Wait in reverse to prove ordering comes from the schedule, not
        // from the order the caller polls.
        for t in tokens.into_iter().rev() {
            net.wait(t).unwrap();
        }
        assert_eq!(*order.lock(), vec!["p0", "p1", "p2", "p3"]);
    }

    /// Calls made from inside a handler dispatch inline on the caller's
    /// stack (no queued delivery to deadlock on) and charge their hop on
    /// the same virtual clock.
    #[test]
    fn nested_calls_dispatch_inline() {
        let net: Network<String, String> = Network::new();
        let net2 = net.clone();
        net.register(
            NodeId(3),
            Arc::new(|_from: NodeId, req: String| format!("tail({req})")),
        );
        net.register(
            NodeId(2),
            Arc::new(move |_from: NodeId, req: String| {
                net2.call(NodeId(2), NodeId(3), req).unwrap()
            }),
        );
        net.set_latency(Duration::from_millis(1));
        let resp = net.call(NodeId(1), NodeId(2), "x".into()).unwrap();
        assert_eq!(resp, "tail(x)");
        assert_eq!(net.call_count(), 2);
        assert_eq!(net.completion_count(), 2);
        // Client hop + nested hop, each one virtual millisecond.
        assert_eq!(net.virtual_now(), 2_000_000);
    }
}
