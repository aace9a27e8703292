//! A small discrete-event engine (time-ordered event queue).
//!
//! Used by the staging simulator to overlap filesystem reads with
//! point-to-point redistribution, and available to any model that needs
//! explicit event interleaving rather than closed-form composition.
//!
//! [`Faulted`] interleaves a [`FaultPlan`]'s timed node crashes into an
//! application event stream: `Simulator::<Faulted<E>>::with_fault_plan`
//! pre-schedules every `CrashPoint::Time` strike, and the driving loop
//! pattern-matches crashes out of the same time-ordered queue as its own
//! events.

use exaclim_faults::{CrashPoint, FaultPlan, NodeCrash};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: f64,
    seq: u64,
    event: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap; ties broken by insertion order.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with a simulation clock.
pub struct Simulator<T> {
    heap: BinaryHeap<Entry<T>>,
    time: f64,
    seq: u64,
}

impl<T> Default for Simulator<T> {
    fn default() -> Self {
        Simulator {
            heap: BinaryHeap::new(),
            time: 0.0,
            seq: 0,
        }
    }
}

impl<T> Simulator<T> {
    /// Empty simulator at time 0.
    pub fn new() -> Simulator<T> {
        Simulator::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Schedules an event at absolute time `at` (must not be in the past).
    fn schedule_at(&mut self, at: f64, event: T) {
        assert!(at >= self.time, "cannot schedule into the past ({at} < {})", self.time);
        self.seq += 1;
        self.heap.push(Entry { time: at, seq: self.seq, event });
    }

    /// Schedules an event `delay` seconds from now.
    fn schedule_in(&mut self, delay: f64, event: T) {
        let at = self.time + delay;
        self.schedule_at(at, event);
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| {
            self.time = e.time;
            (e.time, e.event)
        })
    }

    /// Remaining event count.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }
}

/// An event stream interleaving application events with injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faulted<E> {
    /// An ordinary application event.
    App(E),
    /// A node crash injected from a [`FaultPlan`].
    Crash(NodeCrash),
}

impl<E> Simulator<Faulted<E>> {
    /// A simulator with every timed crash of `plan` pre-scheduled
    /// ([`CrashPoint::Time`] entries; step- and read-count crashes belong
    /// to other layers' time bases and are ignored here).
    pub fn with_fault_plan(plan: &FaultPlan) -> Simulator<Faulted<E>> {
        let mut sim = Simulator::new();
        for c in &plan.crashes {
            if let CrashPoint::Time(t) = c.at {
                sim.schedule_at(t, Faulted::Crash(*c));
            }
        }
        sim
    }

    /// Schedules an application event at absolute time `at`.
    pub fn schedule_app_at(&mut self, at: f64, event: E) {
        self.schedule_at(at, Faulted::App(event));
    }

    /// Schedules an application event `delay` seconds from now.
    pub fn schedule_app_in(&mut self, delay: f64, event: E) {
        self.schedule_in(delay, Faulted::App(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_at(3.0, "c");
        sim.schedule_at(1.0, "a");
        sim.schedule_at(2.0, "b");
        assert_eq!(sim.pop(), Some((1.0, "a")));
        assert_eq!(sim.now(), 1.0);
        sim.schedule_in(0.5, "a2"); // lands at 1.5, before b
        assert_eq!(sim.pop(), Some((1.5, "a2")));
        assert_eq!(sim.pop(), Some((2.0, "b")));
        assert_eq!(sim.pop(), Some((3.0, "c")));
        assert_eq!(sim.pop(), None);
    }

    #[test]
    fn ties_preserve_insertion_order() {
        let mut sim = Simulator::new();
        sim.schedule_at(1.0, 1);
        sim.schedule_at(1.0, 2);
        sim.schedule_at(1.0, 3);
        assert_eq!(sim.pop().map(|e| e.1), Some(1));
        assert_eq!(sim.pop().map(|e| e.1), Some(2));
        assert_eq!(sim.pop().map(|e| e.1), Some(3));
    }

    #[test]
    fn fault_plan_crashes_interleave_with_app_events() {
        let plan = FaultPlan::seeded(1)
            .with_crash_at_time(2, 1.5)
            .with_crash_at_step(0, 5); // step-based: not this layer's time base
        let mut sim = Simulator::with_fault_plan(&plan);
        sim.schedule_app_at(1.0, "read");
        sim.schedule_app_at(2.0, "send");
        assert_eq!(sim.pop(), Some((1.0, Faulted::App("read"))));
        match sim.pop() {
            Some((t, Faulted::Crash(c))) => {
                assert_eq!(t, 1.5);
                assert_eq!(c.node, 2);
            }
            other => panic!("expected crash at 1.5, got {other:?}"),
        }
        assert_eq!(sim.pop(), Some((2.0, Faulted::App("send"))));
        assert_eq!(sim.pop(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(2.0, ());
        sim.pop();
        sim.schedule_at(1.0, ());
    }
}
