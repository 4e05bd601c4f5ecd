//! The event queue against a plain binary heap: whatever is pushed, in
//! whatever order, events leave in `(time, sequence)` order, a pop with
//! a deadline takes the earliest event only when it is due, and a copy
//! taken midway drains like the original.
//!
//! The queue keeps LAN frames and WAN packets in per-link FIFOs and only
//! timers (and out-of-order link events) in its heap, so the cases mix
//! link events pushed a fixed delay after a clock that only moves
//! forward, which keep their FIFO in order, with link events pushed at
//! arbitrary times, which must fall back to the heap.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use v6brick_net::Run;
use v6brick_sim::addrs;
use v6brick_sim::event::{Event, EventKind, EventQueue, SimTime};

/// Which kind of event a push schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Lan,
    Wan,
    Timer,
}

/// When a push schedules its event.
#[derive(Debug, Clone, Copy)]
enum When {
    /// The link's fixed delay after the clock (a timer: 1 s).
    Link,
    /// This many microseconds after the clock.
    After(u64),
    /// At this absolute time, possibly before the clock.
    At(u64),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(Kind, When),
    Pop,
    /// Pop with a deadline: the link's delay after the clock for
    /// `When::Link` (the LAN's), or as for a push.
    PopDue(When),
    /// Copy the queue and check the copy drains like the original.
    Fork,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, 0u8..3, 0u8..4, 0u64..40_000).prop_map(|(op, kind, when, t)| {
        let kind = [Kind::Lan, Kind::Wan, Kind::Timer][usize::from(kind)];
        let when = match when {
            0 | 1 => When::Link,
            2 => When::After(t),
            _ => When::At(t),
        };
        match op {
            0..=8 => Op::Push(kind, when),
            9..=11 => Op::Pop,
            12..=14 => Op::PopDue(when),
            _ => Op::Fork,
        }
    })
}

/// The absolute time `when` names for an event of `kind`, at `clock`.
fn time_of(when: When, kind: Kind, clock: SimTime) -> SimTime {
    match when {
        When::Link => {
            clock
                + SimTime(match kind {
                    Kind::Lan => addrs::LAN_DELAY_US,
                    Kind::Wan => addrs::WAN_DELAY_US,
                    Kind::Timer => 1_000_000,
                })
        }
        When::After(t) => clock + SimTime(t),
        When::At(t) => SimTime(t),
    }
}

fn event_kind(kind: Kind, tag: u64) -> EventKind {
    match kind {
        Kind::Lan => EventKind::LanFrame {
            from: tag as usize,
            frame: Vec::new(),
            run: Run::default(),
        },
        Kind::Wan => EventKind::WanPacket {
            to_internet: tag.is_multiple_of(2),
            packet: tag.to_le_bytes().to_vec(),
            run: Run::default(),
        },
        Kind::Timer => EventKind::Timer {
            host: 0,
            token: tag,
        },
    }
}

/// An event as the reference holds it: (time, sequence, kind).
fn key(e: &Event) -> (SimTime, u64, Kind) {
    let kind = match e.kind {
        EventKind::LanFrame { .. } => Kind::Lan,
        EventKind::WanPacket { .. } => Kind::Wan,
        EventKind::Timer { .. } => Kind::Timer,
    };
    (e.at, e.seq, kind)
}

/// Pop everything from both and compare.
fn drain(mut q: EventQueue, mut reference: BinaryHeap<Reverse<(SimTime, u64, Kind)>>) {
    while let Some(Reverse(want)) = reference.pop() {
        if let Some(before) = want.0.as_micros().checked_sub(1) {
            assert!(q.pop_due(SimTime(before)).is_none(), "not due yet");
        }
        let got = q
            .pop_due(want.0)
            .expect("the queue holds as many events as the reference");
        assert_eq!(key(&got), want);
    }
    assert!(q.is_empty());
    assert!(q.pop().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pops_in_the_order_one_heap_gives(ops in proptest::collection::vec(arb_op(), 0..400)) {
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut clock = SimTime::ZERO;
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Push(kind, when) => {
                    let at = time_of(when, kind, clock);
                    q.push(at, event_kind(kind, seq));
                    reference.push(Reverse((at, seq, kind)));
                    seq += 1;
                }
                Op::Pop | Op::PopDue(_) => {
                    let deadline = match op {
                        Op::PopDue(when) => time_of(when, Kind::Lan, clock),
                        _ => SimTime(u64::MAX),
                    };
                    let due = reference.peek().is_some_and(|Reverse(k)| k.0 <= deadline);
                    let want = if due { reference.pop().map(|Reverse(k)| k) } else { None };
                    let got = match op {
                        Op::PopDue(_) => q.pop_due(deadline),
                        _ => q.pop(),
                    };
                    prop_assert_eq!(got.as_ref().map(key), want);
                    if let Some(e) = got {
                        clock = e.at;
                    }
                }
                Op::Fork => drain(q.clone(), reference.clone()),
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        drain(q, reference);
    }
}
