//! The event queue against a plain binary heap: whatever is pushed, in
//! whatever order, events leave in `(time, sequence)` order, and a copy
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
            9..=14 => Op::Pop,
            _ => Op::Fork,
        }
    })
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
        assert_eq!(q.peek_time(), Some(want.0));
        let got = q
            .pop()
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
                    let at = match when {
                        When::Link => clock + SimTime(match kind {
                            Kind::Lan => addrs::LAN_DELAY_US,
                            Kind::Wan => addrs::WAN_DELAY_US,
                            Kind::Timer => 1_000_000,
                        }),
                        When::After(t) => clock + SimTime(t),
                        When::At(t) => SimTime(t),
                    };
                    q.push(at, event_kind(kind, seq));
                    reference.push(Reverse((at, seq, kind)));
                    seq += 1;
                }
                Op::Pop => {
                    let want = reference.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(q.peek_time(), want.map(|k| k.0));
                    let got = q.pop();
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
