//! The borrowed reader and the compression writer against the owned
//! codec they replaced.
//!
//! [`oracle`] is that codec, moved here verbatim: a `Reader` that decodes
//! every name into a `String`, and a `Writer` that keys compression
//! targets by joined suffix text in a `HashMap<String, u16>`. The new
//! code must accept, reject and read exactly what the old reader did
//! (same error, same message) and write exactly the old writer's bytes.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::{Message, MessageView, Name, Rcode, Rdata, Record, RecordType};
use v6brick_net::Error;

mod oracle {
    use std::collections::HashMap;
    use std::net::{Ipv4Addr, Ipv6Addr};
    use v6brick_net::dns::{Message, Name, Question, Rcode, Rdata, Record, RecordType};
    use v6brick_net::{Error, Result};

    /// Maximum encoded name length (RFC 1035 §2.3.4).
    const MAX_NAME_LEN: usize = 255;

    /// Serialize to wire format with name compression.
    pub fn build(msg: &Message) -> Vec<u8> {
        let mut w = Writer::new();
        w.out.extend_from_slice(&msg.id.to_be_bytes());
        let mut flags = 0u16;
        if msg.is_response {
            flags |= 0x8000;
        }
        if msg.authoritative {
            flags |= 0x0400;
        }
        if msg.recursion_desired {
            flags |= 0x0100;
        }
        if msg.recursion_available {
            flags |= 0x0080;
        }
        flags |= u16::from(u8::from(msg.rcode));
        w.out.extend_from_slice(&flags.to_be_bytes());
        for count in [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ] {
            w.out.extend_from_slice(&(count as u16).to_be_bytes());
        }
        for q in &msg.questions {
            w.write_name(&q.name);
            w.out.extend_from_slice(&u16::from(q.rtype).to_be_bytes());
            w.out.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        for r in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            w.write_record(r);
        }
        w.out
    }

    /// Parse from wire format.
    pub fn parse_bytes(b: &[u8]) -> Result<Message> {
        let mut r = Reader { buf: b, pos: 0 };
        if b.len() < 12 {
            return Err(Error::Truncated);
        }
        let id = r.u16()?;
        let flags = r.u16()?;
        let qd = r.u16()?;
        let an = r.u16()?;
        let ns = r.u16()?;
        let ar = r.u16()?;
        let mut msg = Message {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from((flags & 0x000f) as u8),
            // A question takes at least 5 bytes (a root or pointer name
            // plus type and class): reserve what the bytes can hold,
            // never what the count claims.
            questions: Vec::with_capacity(usize::from(qd).min((b.len() - 12) / 5)),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        for _ in 0..qd {
            let name = r.read_name()?;
            let rtype = RecordType::from(r.u16()?);
            let _class = r.u16()?;
            msg.questions.push(Question { name, rtype });
        }
        for _ in 0..an {
            let rec = r.read_record()?;
            msg.answers.push(rec);
        }
        for _ in 0..ns {
            let rec = r.read_record()?;
            msg.authorities.push(rec);
        }
        for _ in 0..ar {
            let rec = r.read_record()?;
            msg.additionals.push(rec);
        }
        Ok(msg)
    }

    /// Serializer with RFC 1035 §4.1.4 name compression.
    struct Writer {
        out: Vec<u8>,
        /// suffix (textual) → offset of its encoding.
        seen: HashMap<String, u16>,
    }

    impl Writer {
        fn new() -> Writer {
            Writer {
                out: Vec::with_capacity(128),
                seen: HashMap::new(),
            }
        }

        fn write_name(&mut self, name: &Name) {
            let labels: Vec<&str> = name.labels().collect();
            for i in 0..labels.len() {
                let suffix = labels[i..].join(".");
                if let Some(&off) = self.seen.get(&suffix) {
                    self.out.extend_from_slice(&(0xc000u16 | off).to_be_bytes());
                    return;
                }
                if self.out.len() <= 0x3fff {
                    self.seen.insert(suffix, self.out.len() as u16);
                }
                self.out.push(labels[i].len() as u8);
                self.out.extend_from_slice(labels[i].as_bytes());
            }
            self.out.push(0);
        }

        fn write_record(&mut self, r: &Record) {
            self.write_name(&r.name);
            self.out
                .extend_from_slice(&u16::from(r.rtype).to_be_bytes());
            self.out.extend_from_slice(&1u16.to_be_bytes()); // IN
            self.out.extend_from_slice(&r.ttl.to_be_bytes());
            let len_pos = self.out.len();
            self.out.extend_from_slice(&[0, 0]);
            match &r.rdata {
                Rdata::A(a) => self.out.extend_from_slice(&a.octets()),
                Rdata::Aaaa(a) => self.out.extend_from_slice(&a.octets()),
                Rdata::Cname(n) | Rdata::Ptr(n) => self.write_name(n),
                Rdata::Txt(t) => {
                    // Single character-string; the study never needs more.
                    self.out.push(t.len().min(255) as u8);
                    self.out.extend_from_slice(&t[..t.len().min(255)]);
                }
                Rdata::Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                } => {
                    self.write_name(mname);
                    self.write_name(rname);
                    for v in [serial, refresh, retry, expire, minimum] {
                        self.out.extend_from_slice(&v.to_be_bytes());
                    }
                }
                Rdata::Svcb { priority, target } => {
                    self.out.extend_from_slice(&priority.to_be_bytes());
                    // RFC 9460: target is NOT compressed.
                    for label in target.labels() {
                        self.out.push(label.len() as u8);
                        self.out.extend_from_slice(label.as_bytes());
                    }
                    self.out.push(0);
                }
                Rdata::Unknown { data, .. } => self.out.extend_from_slice(data),
            }
            let rdlen = (self.out.len() - len_pos - 2) as u16;
            self.out[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
    }

    /// Cursor-based parser with compression-pointer loop protection.
    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn u8(&mut self) -> Result<u8> {
            let v = *self.buf.get(self.pos).ok_or(Error::Truncated)?;
            self.pos += 1;
            Ok(v)
        }

        fn u16(&mut self) -> Result<u16> {
            Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
        }

        fn u32(&mut self) -> Result<u32> {
            Ok(u32::from_be_bytes([
                self.u8()?,
                self.u8()?,
                self.u8()?,
                self.u8()?,
            ]))
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8]> {
            if self.buf.len() < self.pos + n {
                return Err(Error::Truncated);
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        fn read_name(&mut self) -> Result<Name> {
            let mut out = String::new();
            let mut pos = self.pos;
            let mut jumped = false;
            let mut jumps = 0usize;
            loop {
                let len = *self.buf.get(pos).ok_or(Error::Truncated)?;
                if len & 0xc0 == 0xc0 {
                    let lo = *self.buf.get(pos + 1).ok_or(Error::Truncated)?;
                    let target = usize::from(u16::from_be_bytes([len & 0x3f, lo]));
                    if !jumped {
                        self.pos = pos + 2;
                        jumped = true;
                    }
                    jumps += 1;
                    if jumps > 32 || target >= pos {
                        // Forward or excessive pointers => loop or garbage.
                        return Err(Error::BadName);
                    }
                    pos = target;
                    continue;
                }
                if len & 0xc0 != 0 {
                    return Err(Error::BadName);
                }
                if len == 0 {
                    if !jumped {
                        self.pos = pos + 1;
                    }
                    break;
                }
                let start = pos + 1;
                let end = start + usize::from(len);
                let label = self.buf.get(start..end).ok_or(Error::Truncated)?;
                if !out.is_empty() {
                    out.push('.');
                }
                out.push_str(std::str::from_utf8(label).map_err(|_| Error::BadName)?);
                if out.len() > MAX_NAME_LEN {
                    return Err(Error::BadName);
                }
                pos = end;
            }
            Name::new(&out)
        }

        fn read_record(&mut self) -> Result<Record> {
            let name = self.read_name()?;
            let rtype_raw = self.u16()?;
            let rtype = RecordType::from(rtype_raw);
            let _class = self.u16()?;
            let ttl = self.u32()?;
            let rdlen = usize::from(self.u16()?);
            let rdata_end = self.pos + rdlen;
            if self.buf.len() < rdata_end {
                return Err(Error::Truncated);
            }
            let rdata = match rtype {
                RecordType::A if rdlen == 4 => {
                    let b = self.take(4)?;
                    Rdata::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
                }
                RecordType::Aaaa if rdlen == 16 => {
                    let b = self.take(16)?;
                    let mut o = [0u8; 16];
                    o.copy_from_slice(b);
                    Rdata::Aaaa(Ipv6Addr::from(o))
                }
                RecordType::Cname => Rdata::Cname(self.read_name()?),
                RecordType::Ptr => Rdata::Ptr(self.read_name()?),
                RecordType::Txt => {
                    let b = self.take(rdlen)?;
                    if b.is_empty() {
                        Rdata::Txt(Vec::new())
                    } else {
                        let slen = usize::from(b[0]);
                        if b.len() < 1 + slen {
                            return Err(Error::Truncated);
                        }
                        Rdata::Txt(b[1..1 + slen].to_vec())
                    }
                }
                RecordType::Soa => {
                    let mname = self.read_name()?;
                    let rname = self.read_name()?;
                    Rdata::Soa {
                        mname,
                        rname,
                        serial: self.u32()?,
                        refresh: self.u32()?,
                        retry: self.u32()?,
                        expire: self.u32()?,
                        minimum: self.u32()?,
                    }
                }
                RecordType::Svcb | RecordType::Https => {
                    let priority = self.u16()?;
                    let target = self.read_name()?;
                    if self.pos > rdata_end {
                        return Err(Error::Malformed);
                    }
                    // Skip SvcParams, if any.
                    self.pos = rdata_end;
                    Rdata::Svcb { priority, target }
                }
                _ => Rdata::Unknown {
                    rtype: rtype_raw,
                    data: self.take(rdlen)?.to_vec(),
                },
            };
            if self.pos != rdata_end {
                return Err(Error::Malformed);
            }
            Ok(Record {
                name,
                rtype,
                ttl,
                rdata,
            })
        }
    }
}

/// A strategy from a closure over the test's random stream.
struct Gen<F>(F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Gen<F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Labels that share suffixes with each other and with `invalid`, the
/// internet model's SOA zone.
const LABELS: &[&str] = &[
    "a",
    "b",
    "www",
    "api",
    "cloud",
    "invalid",
    "ns1",
    "hostmaster",
    "example",
    "com",
    "x-y",
    "_tcp",
    "svc",
];

/// A valid, normalized name: the root, a long name of 240–253 bytes, a
/// name ending in (or being) `invalid`, or a few pooled labels.
fn name(rng: &mut TestRng) -> Name {
    let text = match rng.below(10) {
        0 => String::new(),
        1 => {
            let len = rng.in_range(240, 253);
            let mut s = ["p".repeat(63), "q".repeat(63), "r".repeat(63)].join(".");
            s.push('.');
            s.push_str(&"s".repeat(len - s.len()));
            s
        }
        2 | 3 => pick(
            rng,
            &[
                "invalid",
                "ns1.invalid",
                "hostmaster.invalid",
                "x.ns1.invalid",
                "invalid.com",
            ],
        )
        .to_string(),
        _ => {
            let n = rng.in_range(1, 4);
            (0..n)
                .map(|_| *pick(rng, LABELS))
                .collect::<Vec<_>>()
                .join(".")
        }
    };
    Name::new(&text).unwrap()
}

fn bytes(rng: &mut TestRng, max: usize) -> Vec<u8> {
    let n = rng.in_range(0, max);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn record(rng: &mut TestRng) -> Record {
    let owner = name(rng);
    let ttl = rng.next_u64() as u32;
    let (rtype, rdata) = match rng.below(10) {
        0 => (
            RecordType::A,
            Rdata::A(Ipv4Addr::from(rng.next_u64() as u32)),
        ),
        1 => (
            RecordType::Aaaa,
            Rdata::Aaaa(Ipv6Addr::from(u128::from(rng.next_u64()) << 64 | 1)),
        ),
        2 => (RecordType::Cname, Rdata::Cname(name(rng))),
        3 => (RecordType::Ptr, Rdata::Ptr(name(rng))),
        4 => (RecordType::Txt, Rdata::Txt(bytes(rng, 300))),
        5 => (
            RecordType::Soa,
            Rdata::Soa {
                mname: name(rng),
                rname: name(rng),
                serial: rng.next_u64() as u32,
                refresh: rng.next_u64() as u32,
                retry: rng.next_u64() as u32,
                expire: rng.next_u64() as u32,
                minimum: rng.next_u64() as u32,
            },
        ),
        6 | 7 => (
            *pick(rng, &[RecordType::Svcb, RecordType::Https]),
            Rdata::Svcb {
                priority: rng.next_u64() as u16,
                target: name(rng),
            },
        ),
        _ => {
            // Unknown types, and known types with odd-sized data.
            let raw = *pick(rng, &[1u16, 28, 99, 257, 0xff00]);
            (
                RecordType::from(raw),
                Rdata::Unknown {
                    rtype: raw,
                    data: bytes(rng, 20),
                },
            )
        }
    };
    Record {
        name: owner,
        rtype,
        ttl,
        rdata,
    }
}

/// Owned messages of every record shape; one in sixteen runs past
/// 0x3fff bytes, where compression targets stop being registered.
fn message(rng: &mut TestRng) -> Message {
    let mut m = Message {
        id: rng.next_u64() as u16,
        is_response: rng.below(2) == 0,
        recursion_desired: rng.below(2) == 0,
        recursion_available: rng.below(2) == 0,
        authoritative: rng.below(2) == 0,
        rcode: Rcode::from(rng.below(16) as u8),
        questions: Vec::new(),
        answers: Vec::new(),
        authorities: Vec::new(),
        additionals: Vec::new(),
    };
    for _ in 0..rng.in_range(0, 3) {
        m.questions.push(v6brick_net::dns::Question {
            name: name(rng),
            rtype: RecordType::from(*pick(rng, &[1u16, 28, 64, 65, 6, 12, 255])),
        });
    }
    let big = rng.below(16) == 0;
    for _ in 0..if big { 260 } else { rng.in_range(0, 4) } {
        let mut r = record(rng);
        if big {
            r.name = Name::new(&format!("r{}.{}", rng.below(400), name(rng).as_str()))
                .unwrap_or_else(|_| r.name.clone());
            r.rdata = Rdata::Txt(vec![b't'; 40]);
            r.rtype = RecordType::Txt;
        }
        m.answers.push(r);
    }
    for _ in 0..rng.in_range(0, 3) {
        m.authorities.push(record(rng));
    }
    for _ in 0..rng.in_range(0, 2) {
        m.additionals.push(record(rng));
    }
    m
}

/// Label bytes the reader must judge: letters of both cases, digits,
/// hyphens, underscores, dots, a space and non-UTF-8 bytes.
const LABEL_BYTES: &[u8] = b"abcXYZ09-_. \xff\xc3\xa9";

/// A raw encoded name: long names around the 253/255-byte limits (some
/// ending in a dotted label), labels of arbitrary bytes, or a lone dot.
fn raw_name(rng: &mut TestRng) -> Vec<u8> {
    let mut out = Vec::new();
    match rng.below(4) {
        0 => {
            let total = rng.in_range(250, 258);
            let mut text = 0;
            while text < total {
                let sep = usize::from(text > 0);
                let len = (total - text - sep).clamp(1, 63);
                out.push(len as u8);
                out.extend(std::iter::repeat_n(b'l', len));
                text += sep + len;
            }
            if rng.below(2) == 0 {
                *out.last_mut().unwrap() = b'.';
            }
        }
        1 => {
            for _ in 0..rng.in_range(1, 4) {
                let len = rng.in_range(1, 10);
                out.push(len as u8);
                for _ in 0..len {
                    out.push(*pick(rng, LABEL_BYTES));
                }
            }
        }
        2 => out.extend_from_slice(b"\x01."),
        _ => out.extend_from_slice(b"\x03Api\x07Example\x03com."),
    }
    out.push(0);
    out
}

/// A hand-laid message: raw question names, then an A answer whose
/// owner points at the first question.
fn raw_message(rng: &mut TestRng) -> Vec<u8> {
    let qd = rng.in_range(1, 2);
    let mut b = vec![0x12, 0x34, 0x81, 0x80, 0, qd as u8, 0, 1, 0, 0, 0, 0];
    for _ in 0..qd {
        b.extend(raw_name(rng));
        b.extend_from_slice(&[0, 1, 0, 1]);
    }
    b.extend_from_slice(&[0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1]);
    b
}

/// Up to three damaging edits: bit flips, truncation, lying counts,
/// compression pointers (self-loops, forward, backward), uppercase,
/// invalid bytes, tampered lengths, trailing garbage.
fn mutate(rng: &mut TestRng, b: &mut Vec<u8>) {
    for _ in 0..rng.in_range(0, 3) {
        if b.is_empty() {
            return;
        }
        let p = rng.below(b.len() as u64) as usize;
        match rng.below(8) {
            0 => b[p] ^= 1 << rng.below(8),
            1 => b.truncate(p),
            2 if b.len() >= 12 => {
                let at = 4 + 2 * rng.below(4) as usize;
                let n = if rng.below(2) == 0 {
                    rng.below(8)
                } else {
                    rng.next_u64()
                } as u16;
                b[at..at + 2].copy_from_slice(&n.to_be_bytes());
            }
            3 if p + 1 < b.len() => {
                let target = match rng.below(3) {
                    0 => p,
                    1 => p + rng.in_range(1, 40),
                    _ => rng.below(p as u64 + 1) as usize,
                } as u16;
                b[p..p + 2].copy_from_slice(&(0xc000 | (target & 0x3fff)).to_be_bytes());
            }
            4 => {
                for _ in 0..4 {
                    let q = rng.below(b.len() as u64) as usize;
                    b[q] = b[q].to_ascii_uppercase();
                }
            }
            5 => b[p] = *pick(rng, &[0xff, 0x80, b' ', b'.', 0xc3, 0x40]),
            6 if p + 1 < b.len() => {
                b[p..p + 2].copy_from_slice(&(rng.below(40) as u16).to_be_bytes());
            }
            _ => {
                let tail = bytes(rng, 20);
                b.extend(tail);
            }
        }
    }
}

/// Wire bytes for the reader: built messages and hand-laid raw ones,
/// mutated or not.
fn wire(rng: &mut TestRng) -> Vec<u8> {
    let mut b = if rng.below(3) == 0 {
        raw_message(rng)
    } else {
        oracle::build(&message(rng))
    };
    if rng.below(4) != 0 {
        mutate(rng, &mut b);
    }
    b
}

/// The view agrees with the oracle on `b`: same verdict and error, the
/// same message, and hot-path accessors that read the same values.
fn check_reader(b: &[u8]) {
    let want = oracle::parse_bytes(b);
    let view = MessageView::new(b);
    let got = view.map(|v| v.to_message());
    assert_eq!(got, want, "bytes {b:02x?}");
    assert_eq!(Message::parse_bytes(b), want);
    if let (Ok(v), Ok(m)) = (view, want) {
        assert_eq!(
            (v.id(), v.is_response(), v.rcode()),
            (m.id, m.is_response, m.rcode)
        );
        assert_eq!(
            v.question().map(|q| q.name.text().to_string()),
            m.question().map(|q| q.name.as_str().to_string())
        );
        assert!(v.a_answers().eq(m.a_answers()));
        assert!(v.aaaa_answers().eq(m.aaaa_answers()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn view_reads_exactly_what_the_owned_reader_did(b in Gen(wire)) {
        check_reader(&b);
    }

    #[test]
    fn writer_bytes_equal_the_hashmap_writer(m in Gen(message)) {
        prop_assert_eq!(m.build(), oracle::build(&m));
    }
}

/// Every shape the generators aim at is actually generated.
#[test]
fn generators_cover_the_edge_cases() {
    let mut rng = TestRng::from_name("prop_dns::coverage");
    let (mut big, mut errors, mut ok) = (0, std::collections::BTreeMap::new(), 0);
    for _ in 0..4000 {
        let m = message(&mut rng);
        if oracle::build(&m).len() > 0x3fff {
            big += 1;
        }
        match oracle::parse_bytes(&wire(&mut rng)) {
            Ok(_) => ok += 1,
            Err(e) => *errors.entry(format!("{e:?}")).or_insert(0) += 1,
        }
    }
    assert!(big > 0, "no message past 0x3fff bytes");
    assert!(ok > 1000, "too few valid messages: {ok}");
    for e in [Error::Truncated, Error::BadName, Error::Malformed] {
        assert!(
            errors.contains_key(&format!("{e:?}")),
            "no {e:?} in {errors:?}"
        );
    }
}

#[test]
fn reader_edge_cases() {
    let header = |qd: u8, an: u8| vec![0, 7, 0x81, 0x80, 0, qd, 0, an, 0, 0, 0, 0];
    let mut cases: Vec<Vec<u8>> = Vec::new();
    // A name of exactly 253, 254 and 255 bytes, with and without a
    // trailing dot label.
    for total in [253usize, 254, 255, 256] {
        for dotted in [false, true] {
            let mut b = header(1, 0);
            let mut text = 0;
            while text < total {
                let sep = usize::from(text > 0);
                let len = (total - text - sep).min(63);
                b.push(len as u8);
                b.extend(std::iter::repeat_n(b'n', len));
                text += sep + len;
            }
            if dotted {
                *b.last_mut().unwrap() = b'.';
            }
            b.extend_from_slice(&[0, 0, 1, 0, 1]);
            cases.push(b);
        }
    }
    // Compression loops, self and mutual; forward pointers.
    let mut b = header(1, 0);
    b.extend_from_slice(&[0xc0, 12, 0, 1, 0, 1]);
    cases.push(b);
    let mut b = header(2, 0);
    b.extend_from_slice(&[1, b'a', 0xc0, 20, 0, 1, 0, 1, 1, b'b', 0xc0, 12, 0, 1, 0, 1]);
    cases.push(b);
    // Pointer chains around the 32-jump limit: an opaque record holds
    // `a.` and a chain of pointers back to it; the next record's owner
    // points at the chain's end.
    for chain in 30..34u16 {
        let mut b = header(0, 2);
        b.extend_from_slice(&[0, 0, 99, 0, 1, 0, 0, 0, 1]);
        b.extend_from_slice(&(3 + 2 * chain).to_be_bytes());
        b.extend_from_slice(b"\x01a\x00");
        for link in 0..chain {
            let target = if link == 0 { 23 } else { 24 + 2 * link };
            b.extend_from_slice(&(0xc000 | target).to_be_bytes());
        }
        b.extend_from_slice(&(0xc000 | (24 + 2 * chain)).to_be_bytes());
        b.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 1, 0, 4, 192, 0, 2, 1]);
        cases.push(b);
    }
    // An RDATA overrun for every named type: each RDLENGTH is one short.
    for (rtype, rdata) in [
        (5u16, &b"\x01a\x00"[..]),
        (12, b"\x01a\x00"),
        (16, b"\x05ab"),
        (
            6,
            b"\x00\x00\0\0\0\x01\0\0\0\x02\0\0\0\x03\0\0\0\x04\0\0\0\x05",
        ),
        (64, b"\x00\x01\x01a\x00"),
        (65, b"\x00\x01\x01a\x00"),
    ] {
        for short in [0usize, 1] {
            let mut b = header(0, 1);
            b.extend_from_slice(&[0, 0, rtype as u8, 0, 1, 0, 0, 0, 1]);
            b.extend_from_slice(&((rdata.len() - short) as u16).to_be_bytes());
            b.extend_from_slice(rdata);
            cases.push(b);
        }
    }
    let mut verdicts = Vec::new();
    for b in &cases {
        check_reader(b);
        verdicts.push(MessageView::new(b).is_ok());
    }
    // The chains: 31 and 32 jumps resolve, 33 and 34 do not.
    assert_eq!(verdicts[10..14], [true, true, false, false]);
}
