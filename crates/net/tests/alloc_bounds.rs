//! Parsers must size their allocations by the bytes they were handed,
//! never by a count field those bytes claim. A short message that lies
//! about its record count must fail cheaply, not reserve megabytes first.
//!
//! A counting global allocator totals every byte requested on the calling
//! thread while a closure runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv6Addr;
use v6brick_net::checksum::Checksum;
use v6brick_net::dns::Message;
use v6brick_net::{icmpv6, Error};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        REQUESTED.with(|r| r.set(r.get() + bytes));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested on this thread while `f` runs, and its result.
fn requested<T>(f: impl FnOnce() -> T) -> (usize, T) {
    REQUESTED.with(|r| r.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (REQUESTED.with(Cell::get), out)
}

const LIMIT: usize = 4 * 1024;

#[test]
fn dns_header_claiming_65535_questions() {
    let mut b = [0u8; 12];
    b[4..6].copy_from_slice(&u16::MAX.to_be_bytes()); // qdcount
    let (bytes, parsed) = requested(|| Message::parse_bytes(&b));
    assert_eq!(parsed, Err(Error::Truncated));
    assert!(bytes <= LIMIT, "a 12-byte message requested {bytes} bytes");
}

#[test]
fn mldv2_report_claiming_65535_records() {
    let (src, dst): (Ipv6Addr, Ipv6Addr) =
        ("fe80::1".parse().unwrap(), "ff02::16".parse().unwrap());
    let mut b = [143, 0, 0, 0, 0, 0, 0xff, 0xff];
    let mut c = Checksum::new();
    c.add_ipv6_pseudo(src, dst, 58, b.len() as u32);
    c.add(&b);
    b[2..4].copy_from_slice(&c.finish().to_be_bytes());
    let (bytes, parsed) = requested(|| icmpv6::Repr::parse_bytes(src, dst, &b));
    assert_eq!(parsed, Err(Error::Truncated), "the checksum must verify");
    assert!(bytes <= LIMIT, "an 8-byte report requested {bytes} bytes");
}
