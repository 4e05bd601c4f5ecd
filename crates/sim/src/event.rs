//! Virtual time and the deterministic event queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::ops::{Add, Sub};
use v6brick_net::Run;

/// Virtual time, in microseconds since the start of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// t = 0.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1000)
    }

    /// Microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

/// What an event does when it fires. A frame or packet may end in a
/// [`Run`], spelled out behind its bytes only where they are read; the
/// run fits in the padding beside the sender slot or the direction
/// flag, so it costs no queue space.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Deliver a frame onto the LAN from the given sender slot.
    LanFrame {
        /// Sender slot (host index, or the router sentinel).
        from: usize,
        /// Raw Ethernet bytes, up to the run.
        frame: Vec<u8>,
        /// The run ending the frame (empty for most frames).
        run: Run,
    },
    /// Fire a host timer.
    Timer {
        /// Target host slot.
        host: usize,
        /// Opaque token handed back to the host.
        token: u64,
    },
    /// Deliver an IPv4 packet on the WAN link; `to_internet` gives the
    /// direction.
    WanPacket {
        /// True when heading from the router to the Internet model.
        to_internet: bool,
        /// Raw IPv4 bytes, up to the run.
        packet: Vec<u8>,
        /// The run ending the packet (empty for most packets).
        run: Run,
    },
}

/// A scheduled event. Ordering is (time, sequence number), so simultaneous
/// events fire in scheduling order — the determinism guarantee.
#[derive(Debug, Clone)]
pub struct Event {
    /// At.
    pub at: SimTime,
    /// Sequence number.
    pub seq: u64,
    /// Kind.
    pub kind: EventKind,
}

/// The priority queue driving the simulation.
///
/// Timers go to a binary heap. LAN frames and WAN packets each go to one
/// FIFO per link instead: each is pushed a fixed link delay after a clock
/// that never runs backwards, so its link's FIFO stays in `(time,
/// sequence)` order and costs no sifting. A push earlier than its FIFO's
/// tail (an injected event, say) falls back to the heap. Popping takes
/// the least `(time, sequence)` of the three heads, so events leave in
/// the order one heap would give.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    lan: VecDeque<Event>,
    wan: VecDeque<Event>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct QueuedEvent(Event);

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

/// Where an event waits.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Heap,
    Lan,
    Wan,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event { at, seq, kind };
        let fifo = match event.kind {
            EventKind::LanFrame { .. } => Some(&mut self.lan),
            EventKind::WanPacket { .. } => Some(&mut self.wan),
            EventKind::Timer { .. } => None,
        };
        match fifo {
            Some(fifo) if fifo.back().is_none_or(|tail| tail.at <= at) => fifo.push_back(event),
            _ => self.heap.push(Reverse(QueuedEvent(event))),
        }
    }

    /// The lane holding the earliest event, and that event.
    fn least(&self) -> Option<(Lane, &Event)> {
        let heads = [
            (
                Lane::Heap,
                self.heap.peek().map(|Reverse(QueuedEvent(e))| e),
            ),
            (Lane::Lan, self.lan.front()),
            (Lane::Wan, self.wan.front()),
        ];
        heads
            .into_iter()
            .filter_map(|(lane, e)| Some((lane, e?)))
            .min_by_key(|(_, e)| (e.at, e.seq))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        match self.least()?.0 {
            Lane::Heap => self.heap.pop().map(|Reverse(QueuedEvent(e))| e),
            Lane::Lan => self.lan.pop_front(),
            Lane::Wan => self.wan.pop_front(),
        }
    }

    /// The timestamp of the earliest pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.least().map(|(_, e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lan.len() + self.wan.len()
    }

    /// Is the queue drained?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_and_display() {
        let t = SimTime::from_secs(2) + SimTime::from_millis(500);
        assert_eq!(t.as_micros(), 2_500_000);
        assert_eq!(t.as_secs(), 2);
        assert_eq!(t.to_string(), "2.500000s");
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(3), SimTime::ZERO);
    }

    #[test]
    fn queue_orders_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), EventKind::Timer { host: 0, token: 1 });
        q.push(SimTime(5), EventKind::Timer { host: 0, token: 2 });
        q.push(SimTime(10), EventKind::Timer { host: 0, token: 3 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn runs_ride_in_padding() {
        // A bigger event grows every queued frame, timer and packet (the
        // fleet workload's queue most of all).
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }

    #[test]
    fn queue_len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), EventKind::Timer { host: 0, token: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
