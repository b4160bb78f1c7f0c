//! The event loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::station::{Station, StationId};

/// Virtual time in nanoseconds.
pub type SimTime = u64;

/// A scheduled continuation.
struct Event {
    time: SimTime,
    seq: u64,
    f: Box<dyn FnOnce(&mut Sim)>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq) through BinaryHeap's max-heap.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The simulator: virtual clock, event heap, stations and a seeded RNG.
pub struct Sim {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Event>,
    stations: Vec<Station>,
    rng: SmallRng,
    events_executed: u64,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("stations", &self.stations.len())
            .finish()
    }
}

impl Sim {
    /// Fresh simulator with deterministic randomness.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            stations: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            events_executed: 0,
        }
    }

    /// Current virtual time (ns).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Deterministic RNG for jitter.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Schedule `f` to run `delay` ns from now.
    pub fn schedule<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: SimTime, f: F) {
        let time = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq,
            f: Box::new(f),
        });
    }

    /// Create a station with `servers` parallel servers.
    pub fn add_station(&mut self, name: &str, servers: usize) -> StationId {
        let id = StationId(self.stations.len());
        self.stations.push(Station::new(name.to_string(), servers));
        id
    }

    /// Enqueue `demand` ns of work on `station`; run `f` when it finishes
    /// service (after any queueing).
    pub fn submit<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        station: StationId,
        demand: SimTime,
        f: F,
    ) {
        let st = &mut self.stations[station.0];
        if st.try_acquire() {
            self.start_service(station, demand, Box::new(f));
        } else {
            self.stations[station.0].enqueue(demand, Box::new(f));
        }
    }

    fn start_service(&mut self, station: StationId, demand: SimTime, f: Box<dyn FnOnce(&mut Sim)>) {
        self.stations[station.0].note_service(demand);
        self.schedule(demand, move |sim| {
            // Free the server and start the next queued job, if any.
            if let Some((next_demand, next_f)) = sim.stations[station.0].release() {
                sim.stations[station.0].reacquire();
                sim.start_service(station, next_demand, next_f);
            }
            f(sim);
        });
    }

    /// Run until the event heap empties or `limit` events execute.
    pub fn run(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit {
            let Some(ev) = self.heap.pop() else { break };
            debug_assert!(ev.time >= self.now, "time moves forward");
            self.now = ev.time;
            (ev.f)(self);
            self.events_executed += 1;
            n += 1;
        }
        n
    }

    /// Run until virtual time reaches `deadline` (events after it stay
    /// queued) or the heap empties.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(top_time) = self.heap.peek().map(|e| e.time) {
            if top_time > deadline {
                break;
            }
            let ev = self.heap.pop().unwrap();
            self.now = ev.time;
            (ev.f)(self);
            self.events_executed += 1;
        }
        self.now = self.now.max(deadline);
    }

    /// Busy-time (ns of service completed or started) for a station.
    pub fn station_busy_ns(&self, station: StationId) -> SimTime {
        self.stations[station.0].busy_ns()
    }

    /// Station utilization over `[0, now]` given its server count.
    pub fn station_utilization(&self, station: StationId) -> f64 {
        let st = &self.stations[station.0];
        if self.now == 0 {
            return 0.0;
        }
        st.busy_ns() as f64 / (self.now as f64 * st.servers() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let order = Rc::clone(&order);
            sim.schedule(delay, move |_| order.borrow_mut().push(tag));
        }
        sim.run(100);
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), 30);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..5u32 {
            let order = Rc::clone(&order);
            sim.schedule(100, move |_| order.borrow_mut().push(tag));
        }
        sim.run(100);
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_server_station_serializes() {
        let mut sim = Sim::new(1);
        let st = sim.add_station("disk", 1);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let times = Rc::clone(&times);
            sim.submit(st, 100, move |s| times.borrow_mut().push(s.now()));
        }
        sim.run(100);
        // FIFO, one at a time: completions at 100, 200, 300.
        assert_eq!(*times.borrow(), vec![100, 200, 300]);
        assert_eq!(sim.station_busy_ns(st), 300);
        assert!((sim.station_utilization(st) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_server_station_parallelizes() {
        let mut sim = Sim::new(1);
        let st = sim.add_station("cpu", 2);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let times = Rc::clone(&times);
            sim.submit(st, 100, move |s| times.borrow_mut().push(s.now()));
        }
        sim.run(100);
        // Two at a time: 100, 100, 200, 200.
        assert_eq!(*times.borrow(), vec![100, 100, 200, 200]);
        assert!((sim.station_utilization(st) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chained_continuations_model_closed_loop() {
        // A "client" that re-submits itself 10 times on one station.
        let mut sim = Sim::new(1);
        let st = sim.add_station("svc", 1);
        let count = Rc::new(RefCell::new(0u32));

        fn issue(sim: &mut Sim, st: StationId, count: Rc<RefCell<u32>>) {
            sim.submit(st, 50, move |s| {
                *count.borrow_mut() += 1;
                if *count.borrow() < 10 {
                    issue(s, st, count);
                }
            });
        }
        issue(&mut sim, st, Rc::clone(&count));
        sim.run(1000);
        assert_eq!(*count.borrow(), 10);
        assert_eq!(sim.now(), 500);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        for i in 1..=10u64 {
            let hits = Rc::clone(&hits);
            sim.schedule(i * 100, move |_| *hits.borrow_mut() += 1);
        }
        sim.run_until(450);
        assert_eq!(*hits.borrow(), 4);
        assert_eq!(sim.now(), 450);
        sim.run_until(2_000);
        assert_eq!(*hits.borrow(), 10);
    }
}
