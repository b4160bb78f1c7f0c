//! Multi-server FIFO service stations.

use std::collections::VecDeque;

use crate::engine::{Sim, SimTime};

/// A queued job: service demand plus its completion continuation.
type QueuedJob = (SimTime, Box<dyn FnOnce(&mut Sim)>);

/// Handle to a station created by [`Sim::add_station`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StationId(pub(crate) usize);

/// A contended resource: `servers` parallel units with one FIFO queue
/// (an M/G/k station whose service times the caller supplies).
pub(crate) struct Station {
    #[allow(dead_code)] // diagnostic label, read in Debug builds / future tracing
    name: String,
    servers: usize,
    busy: usize,
    queue: VecDeque<QueuedJob>,
    busy_ns: SimTime,
}

impl Station {
    pub(crate) fn new(name: String, servers: usize) -> Self {
        assert!(servers > 0, "station needs at least one server");
        Station {
            name,
            servers,
            busy: 0,
            queue: VecDeque::new(),
            busy_ns: 0,
        }
    }

    /// Try to claim a free server.
    pub(crate) fn try_acquire(&mut self) -> bool {
        if self.busy < self.servers {
            self.busy += 1;
            true
        } else {
            false
        }
    }

    /// Re-claim a server for a job popped off the queue (the releasing job
    /// hands its server over directly).
    pub(crate) fn reacquire(&mut self) {
        debug_assert!(self.busy < self.servers);
        self.busy += 1;
    }

    /// Queue a job for later.
    pub(crate) fn enqueue(&mut self, demand: SimTime, f: Box<dyn FnOnce(&mut Sim)>) {
        self.queue.push_back((demand, f));
    }

    /// Release a server; returns the next queued job if any.
    pub(crate) fn release(&mut self) -> Option<QueuedJob> {
        debug_assert!(self.busy > 0);
        self.busy -= 1;
        self.queue.pop_front()
    }

    pub(crate) fn note_service(&mut self, demand: SimTime) {
        self.busy_ns += demand;
    }

    pub(crate) fn busy_ns(&self) -> SimTime {
        self.busy_ns
    }

    pub(crate) fn servers(&self) -> usize {
        self.servers
    }
}
