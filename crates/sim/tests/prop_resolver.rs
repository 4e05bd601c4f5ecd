//! The internet model's resolver replies against the owned-message path
//! they replaced.
//!
//! The resolver answers straight from a borrowed view of the query.
//! [`oracle`] is the code it replaced, moved here verbatim: parse the
//! query into a `Message`, apply the fault windows, answer with
//! `ZoneDb::resolve` and build the reply. Every reply must be the same
//! bytes, and a query that is a response or does not parse gets no
//! reply at all.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::{Message, Name, Question, Rcode, Rdata, Record, RecordType};
use v6brick_net::{ethernet, ipv4, udp, Mac};
use v6brick_sim::event::SimTime;
use v6brick_sim::{addrs, wire, DnsFaultMode, DomainProfile, FaultPlan, Internet, ZoneDb};

mod oracle {
    use super::*;

    /// Answer a DNS question per RFC-standard semantics: A/AAAA answered
    /// from the profile; a registered name without the requested record
    /// type gets NOERROR + SOA (a negative answer); an unregistered name
    /// gets NXDOMAIN.
    pub fn resolve(zones: &ZoneDb, query: &Message) -> Message {
        let Some(q) = query.question() else {
            return query.response(Rcode::FormErr);
        };
        match zones.get(&q.name) {
            None => {
                let mut resp = query.response(Rcode::NxDomain);
                resp.authorities.push(soa_for(&q.name));
                resp
            }
            Some(profile) => {
                let mut resp = query.response(Rcode::NoError);
                match q.rtype {
                    RecordType::A => {
                        if let Some(a) = profile.a {
                            resp.answers
                                .push(Record::new(q.name.clone(), 300, Rdata::A(a)));
                        }
                    }
                    RecordType::Aaaa => {
                        if let Some(aaaa) = profile.aaaa {
                            resp.answers
                                .push(Record::new(q.name.clone(), 300, Rdata::Aaaa(aaaa)));
                        }
                    }
                    RecordType::Https | RecordType::Svcb
                        // Service binding: advertise the same endpoint.
                        if (profile.a.is_some() || profile.aaaa.is_some()) => {
                            resp.answers.push(Record {
                                name: q.name.clone(),
                                rtype: q.rtype,
                                ttl: 300,
                                rdata: Rdata::Svcb {
                                    priority: 1,
                                    target: Name::root(),
                                },
                            });
                        }
                    _ => {}
                }
                if resp.answers.is_empty() {
                    resp.authorities.push(soa_for(&q.name));
                }
                resp
            }
        }
    }

    fn soa_for(name: &Name) -> Record {
        Record::new(
            name.second_level(),
            900,
            Rdata::Soa {
                mname: Name::new("ns1.invalid").unwrap(),
                rname: Name::new("hostmaster.invalid").unwrap(),
                serial: 20240405,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 86_400,
            },
        )
    }

    /// The resolver's reply to `payload` at `now`, as `Internet::handle_udp`
    /// computed it.
    pub fn reply(
        zones: &ZoneDb,
        faults: &FaultPlan,
        now: SimTime,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        let query = Message::parse_bytes(payload).ok()?;
        if query.is_response {
            return None;
        }
        // Zone-level resolver faults: the query times out (no reply
        // packet at all) or comes back SERVFAIL.
        if let Some(q) = query.question() {
            match faults.dns_fault_for(now, q.name.as_str()) {
                Some(DnsFaultMode::Timeout) => return None,
                Some(DnsFaultMode::Servfail) => {
                    let answer = query.response(Rcode::ServFail).build();
                    return Some(answer);
                }
                None => {}
            }
        }
        let answer = resolve(zones, &query).build();
        Some(answer)
    }
}

fn name(s: &str) -> Name {
    Name::new(s).unwrap()
}

/// Dual-stack, v4-only, v6-only and address-less zones.
fn zones() -> ZoneDb {
    let mut z = ZoneDb::new();
    z.insert(DomainProfile::dual_stack(name("cloud.example.com")));
    z.insert(DomainProfile::v4_only(name("api.amazon.com")));
    z.insert(DomainProfile::dual_stack(name("a.b.slow.test")));
    let mut v6 = DomainProfile::dual_stack(name("v6.example.net"));
    v6.a = None;
    z.insert(v6);
    let mut bare = DomainProfile::v4_only(name("bare.invalid"));
    bare.a = None;
    z.insert(bare);
    z
}

/// SERVFAIL for `example.com` and a timeout for everything under
/// `slow.test`, both during 10–20 s.
fn faults() -> FaultPlan {
    let s = SimTime::from_secs;
    FaultPlan::new()
        .dns_fault(s(10), s(20), Some("example.com"), DnsFaultMode::Servfail)
        .dns_fault(s(10), s(20), Some("slow.test"), DnsFaultMode::Timeout)
}

const NAMES: &[&str] = &[
    "cloud.example.com",
    "Cloud.Example.COM",
    "api.amazon.com",
    "API.amazon.com",
    "x.api.amazon.com",
    "a.b.slow.test",
    "v6.example.net",
    "bare.invalid",
    "nope.invalid",
    "com",
    "",
];

const TYPES: &[u16] = &[1, 28, 64, 65, 16, 6, 99];

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

/// Apply `f` to every label of the question names of `b` (a valid
/// message); returns whether any name was compressed.
fn question_labels(b: &mut [u8], mut f: impl FnMut(&mut [u8])) -> bool {
    let mut pos = 12;
    let mut compressed = false;
    for _ in 0..u16::from_be_bytes([b[4], b[5]]) {
        loop {
            let len = b[pos];
            if len & 0xc0 == 0xc0 {
                compressed = true;
                pos += 2;
                break;
            }
            if len == 0 {
                pos += 1;
                break;
            }
            f(&mut b[pos + 1..pos + 1 + usize::from(len)]);
            pos += 1 + usize::from(len);
        }
        pos += 4;
    }
    compressed
}

/// A query: 0–3 questions that often share suffixes (so the writer
/// compresses them), occasionally stray records or the response bit,
/// uppercase names, or damaged bytes.
fn query(rng: &mut TestRng) -> Vec<u8> {
    let mut m = Message::query(rng.next_u64() as u16, Name::root(), RecordType::A);
    m.recursion_desired = rng.below(4) != 0;
    m.is_response = rng.below(8) == 0;
    m.questions.clear();
    for _ in 0..rng.in_range(0, 3) {
        m.questions.push(Question {
            name: name(pick::<&str>(rng, NAMES)),
            rtype: RecordType::from(*pick(rng, TYPES)),
        });
    }
    if rng.below(8) == 0 {
        m.answers.push(Record::new(
            name(pick::<&str>(rng, NAMES)),
            60,
            Rdata::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        m.additionals.push(Record::new(
            name("x.invalid"),
            60,
            Rdata::Aaaa(Ipv6Addr::LOCALHOST),
        ));
    }
    let mut b = m.build();
    if rng.below(3) == 0 {
        question_labels(&mut b, |label| label.make_ascii_uppercase());
    }
    if rng.below(6) == 0 {
        let p = rng.below(b.len() as u64) as usize;
        match rng.below(3) {
            0 => b.truncate(p),
            1 => b[p] ^= 1 << rng.below(8),
            _ => b[p] = 0xc0,
        }
    }
    b
}

/// The UDP payload of the model's reply to `payload` at `now`, sent to
/// the primary IPv4 resolver.
fn model_reply(net: &mut Internet, now: SimTime, payload: Vec<u8>) -> Option<Vec<u8>> {
    let m = Mac::BROADCAST;
    let frame = wire::udp4_frame(
        m,
        m,
        addrs::ROUTER_WAN_IPV4,
        addrs::DNS4_PRIMARY,
        40000,
        53,
        payload,
    );
    let (head, run) = net.handle_packet_at(now, &frame[ethernet::HEADER_LEN..])?;
    let reply = run.spell(&head, &mut Vec::new()).to_vec();
    let ip = ipv4::Packet::new_checked(&reply[..]).unwrap();
    let u = udp::Packet::new_checked(ip.payload()).unwrap();
    assert_eq!((u.src_port(), u.dst_port()), (53, 40000));
    Some(u.payload().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn replies_equal_resolve_then_build(q in Gen(query), at in 0u64..3) {
        let now = SimTime::from_secs([0, 15, 30][at as usize]);
        let (zones, faults) = (zones(), faults());
        let mut net = Internet::new(zones.clone());
        net.set_faults(faults.clone());
        let want = oracle::reply(&zones, &faults, now, &q);
        prop_assert_eq!(model_reply(&mut net, now, q.clone()), want, "query {:02x?}", q);
    }
}

/// Every branch the property must reach is reached.
#[test]
fn queries_cover_every_reply_shape() {
    let mut rng = TestRng::from_name("prop_resolver::coverage");
    let (zones, faults) = (zones(), faults());
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..3000 {
        let mut q = query(&mut rng);
        let now = SimTime::from_secs(15 * rng.below(3));
        let shape = match (
            Message::parse_bytes(&q),
            oracle::reply(&zones, &faults, now, &q),
        ) {
            (Err(_), _) => "unparseable".to_string(),
            (Ok(m), _) if m.is_response => "response".to_string(),
            (Ok(_), None) => "timeout".to_string(),
            (Ok(_), Some(r)) => {
                let mut upper = false;
                if question_labels(&mut q, |l| upper |= l.iter().any(u8::is_ascii_uppercase)) {
                    seen.insert("compressed".to_string());
                }
                if upper {
                    seen.insert("uppercase".to_string());
                }
                let r = Message::parse_bytes(&r).unwrap();
                let an = r.answers.len().min(1);
                format!("{:?}/{}q/{an}an", r.rcode, r.questions.len())
            }
        };
        seen.insert(shape);
    }
    for want in [
        "unparseable",
        "response",
        "timeout",
        "compressed",
        "uppercase",
        "ServFail/1q/0an",
        "NxDomain/1q/0an",
        "NoError/1q/1an",
        "NoError/1q/0an",
        "NoError/3q/1an",
        "FormErr/0q/0an",
    ] {
        assert!(seen.contains(want), "never produced {want}: {seen:?}");
    }
}
