//! DNS messages (RFC 1035, RFC 3596 for AAAA, RFC 9460 for SVCB/HTTPS).
//!
//! DNS is where the paper's IPv6-readiness story is decided: devices that
//! cannot send AAAA queries — or can only send them over IPv4 transport —
//! never learn the IPv6 addresses of their clouds, and brick in an
//! IPv6-only network even when their own stack is v6-capable (§5.1.3).
//! Negative answers arrive as NXDOMAIN or NOERROR with an SOA in the
//! authority section; both appear in the testbed captures.
//!
//! One reader and one writer serve every caller:
//!
//! * [`MessageView`] reads a message where it lies. Its constructor
//!   validates the whole message in one allocation-free walk; after that,
//!   names are label walks that decode into a stack [`NameText`] on
//!   demand, and every accessor is infallible.
//! * [`Writer`] writes every message, compressing names (RFC 1035
//!   §4.1.4) by comparing labels at the name offsets it registered in its
//!   own output.
//! * [`Message`] is the owned form, for callers that keep a message:
//!   [`Message::parse_bytes`] converts a view and [`Message::build`] runs
//!   the writer.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::Deref;
use std::str::FromStr;

/// Maximum encoded name length (RFC 1035 §2.3.4).
const MAX_NAME_LEN: usize = 255;
/// Maximum label length.
const MAX_LABEL_LEN: usize = 63;

/// A fully-qualified, case-normalized domain name (no trailing dot).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Name(String);

impl Name {
    /// The DNS root.
    pub fn root() -> Name {
        Name(String::new())
    }

    /// Validate and normalize (lowercase, strip one trailing dot).
    pub fn new(s: &str) -> Result<Name> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        if !valid_text(s.as_bytes()) {
            return Err(Error::BadName);
        }
        Ok(Name(s.to_ascii_lowercase()))
    }

    /// The textual form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Labels, most-specific first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.').filter(|l| !l.is_empty())
    }

    /// The registrable-ish second-level domain, e.g. `amazon.com` for
    /// `unagi-na.amazon.com`. (The paper counts "SLDs" this way for its
    /// tracking analysis; we use the last two labels, which matches all the
    /// domains in the study.)
    pub fn second_level(&self) -> Name {
        let labels: Vec<&str> = self.labels().collect();
        if labels.len() <= 2 {
            return self.clone();
        }
        Name(labels[labels.len() - 2..].join("."))
    }

    /// Is `self` equal to or a subdomain of `other`?
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.0.is_empty() {
            return true;
        }
        self.0 == other.0
            || (self.0.len() > other.0.len()
                && self.0.ends_with(&other.0)
                && self.0.as_bytes()[self.0.len() - other.0.len() - 1] == b'.')
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            f.write_str(".")
        } else {
            f.write_str(&self.0)
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

/// `Name`'s derived `Hash`, `Eq` and `Ord` are its `String`'s, so a
/// set or map keyed by `Name` can be probed with a decoded `&str`.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Does `s` (non-empty, trailing dot already stripped) pass
/// [`Name::new`]'s rules: at most 253 bytes, labels of 1–63 letters,
/// digits, hyphens or underscores?
fn valid_text(s: &[u8]) -> bool {
    s.len() + 2 <= MAX_NAME_LEN
        && s.split(|&b| b == b'.').all(|label| {
            !label.is_empty()
                && label.len() <= MAX_LABEL_LEN
                && label
                    .iter()
                    .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        })
}

impl FromStr for Name {
    type Err = Error;
    fn from_str(s: &str) -> Result<Name> {
        Name::new(s)
    }
}

/// Record / query type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordType {
    /// A.
    A,
    /// Ns.
    Ns,
    /// Cname.
    Cname,
    /// Soa.
    Soa,
    /// Ptr.
    Ptr,
    /// Txt.
    Txt,
    /// Aaaa.
    Aaaa,
    /// Svcb.
    Svcb,
    /// Https.
    Https,
    /// Other.
    Other(u16),
}

impl From<u16> for RecordType {
    fn from(v: u16) -> RecordType {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            64 => RecordType::Svcb,
            65 => RecordType::Https,
            other => RecordType::Other(other),
        }
    }
}

impl From<RecordType> for u16 {
    fn from(v: RecordType) -> u16 {
        match v {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Svcb => 64,
            RecordType::Https => 65,
            RecordType::Other(o) => o,
        }
    }
}

/// Response code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No Error.
    NoError,
    /// Form Err.
    FormErr,
    /// Serv Fail.
    ServFail,
    /// "no such name" in the paper's wording.
    NxDomain,
    /// Other.
    Other(u8),
}

impl From<u8> for Rcode {
    fn from(v: u8) -> Rcode {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            other => Rcode::Other(other & 0x0f),
        }
    }
}

impl From<Rcode> for u8 {
    fn from(v: Rcode) -> u8 {
        match v {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Other(o) => o,
        }
    }
}

/// A question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
}

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rdata {
    /// A.
    A(Ipv4Addr),
    /// Aaaa.
    Aaaa(Ipv6Addr),
    /// Cname.
    Cname(Name),
    /// Ptr.
    Ptr(Name),
    /// Txt.
    Txt(Vec<u8>),
    /// Soa.
    Soa {
        /// Mname.
        mname: Name,
        /// Rname.
        rname: Name,
        /// Serial.
        serial: u32,
        /// Refresh.
        refresh: u32,
        /// Retry.
        retry: u32,
        /// Expire.
        expire: u32,
        /// Minimum.
        minimum: u32,
    },
    /// SVCB/HTTPS, simplified to priority + target (no SvcParams); enough
    /// to observe the HTTP/3 probing the paper notes on Apple/Android
    /// devices (§5.2.2).
    Svcb {
        /// Priority.
        priority: u16,
        /// Target.
        target: Name,
    },
    /// Unknown.
    Unknown {
        /// Record type.
        rtype: u16,
        /// Data.
        data: Vec<u8>,
    },
}

impl Rdata {
    /// The record type this data belongs to. SVCB data is used for both
    /// SVCB and HTTPS; [`Record::rtype`] stores the actual type.
    fn natural_type(&self) -> RecordType {
        match self {
            Rdata::A(_) => RecordType::A,
            Rdata::Aaaa(_) => RecordType::Aaaa,
            Rdata::Cname(_) => RecordType::Cname,
            Rdata::Ptr(_) => RecordType::Ptr,
            Rdata::Txt(_) => RecordType::Txt,
            Rdata::Soa { .. } => RecordType::Soa,
            Rdata::Svcb { .. } => RecordType::Svcb,
            Rdata::Unknown { rtype, .. } => RecordType::Other(*rtype),
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
    /// TTL.
    pub ttl: u32,
    /// Record data.
    pub rdata: Rdata,
}

impl Record {
    /// Build a record whose type matches its data.
    pub fn new(name: Name, ttl: u32, rdata: Rdata) -> Record {
        Record {
            rtype: rdata.natural_type(),
            name,
            ttl,
            rdata,
        }
    }
}

/// A whole DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Identifier.
    pub id: u16,
    /// Is response.
    pub is_response: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Authoritative.
    pub authoritative: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Questions.
    pub questions: Vec<Question>,
    /// Answers.
    pub answers: Vec<Record>,
    /// Authorities.
    pub authorities: Vec<Record>,
    /// Additionals.
    pub additionals: Vec<Record>,
}

impl Message {
    /// A recursive query for `name`/`rtype`.
    pub fn query(id: u16, name: Name, rtype: RecordType) -> Message {
        Message {
            id,
            is_response: false,
            recursion_desired: true,
            recursion_available: false,
            authoritative: false,
            rcode: Rcode::NoError,
            questions: vec![Question { name, rtype }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The response skeleton for this query.
    pub fn response(&self, rcode: Rcode) -> Message {
        Message {
            id: self.id,
            is_response: true,
            recursion_desired: self.recursion_desired,
            recursion_available: true,
            authoritative: false,
            rcode,
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The first question, if any — the common case for stub resolvers.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Every AAAA address in the answer section.
    pub fn aaaa_answers(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.answers.iter().filter_map(|r| match r.rdata {
            Rdata::Aaaa(a) => Some(a),
            _ => None,
        })
    }

    /// Every A address in the answer section.
    pub fn a_answers(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.answers.iter().filter_map(|r| match r.rdata {
            Rdata::A(a) => Some(a),
            _ => None,
        })
    }

    /// A negative answer: NXDOMAIN, or NOERROR with zero answers (often
    /// with an SOA in the authority section). This is the condition the
    /// paper describes as "'no such name' error and/or SOA records".
    pub fn is_negative(&self) -> bool {
        self.is_response && (self.rcode == Rcode::NxDomain || self.answers.is_empty())
    }

    /// Serialize to wire format with name compression.
    pub fn build(&self) -> Vec<u8> {
        let mut flags = 0u16;
        if self.is_response {
            flags |= QR;
        }
        if self.authoritative {
            flags |= AA;
        }
        if self.recursion_desired {
            flags |= RD;
        }
        if self.recursion_available {
            flags |= RA;
        }
        flags |= u16::from(u8::from(self.rcode));
        let mut w = Writer::new(self.id, flags);
        for q in &self.questions {
            w.question(q.name.as_str(), q.rtype);
        }
        let sections = [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ];
        for (section, records) in sections {
            for r in records {
                w.record(section, r.name.as_str(), r.rtype, r.ttl, &r.rdata);
            }
        }
        w.finish()
    }

    /// Parse from wire format: a [`MessageView`] made owned.
    pub fn parse_bytes(b: &[u8]) -> Result<Message> {
        MessageView::new(b).map(|v| v.to_message())
    }
}

/// Header flag: the message is a response.
const QR: u16 = 0x8000;
/// Header flag: authoritative answer.
const AA: u16 = 0x0400;
/// Header flag: recursion desired.
const RD: u16 = 0x0100;
/// Header flag: recursion available.
const RA: u16 = 0x0080;
/// The header: id, flags and four section counts.
const HEADER_LEN: usize = 12;

fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// A name decoded into a stack buffer, in the form a [`Name`] holds it
/// (lowercase, no trailing dot; empty for the root). It derefs to `&str`
/// for comparisons and for lookups in `Name`-keyed sets and maps.
#[derive(Clone, Copy)]
pub struct NameText {
    len: u8,
    bytes: [u8; MAX_NAME_LEN],
}

impl NameText {
    const EMPTY: NameText = NameText {
        len: 0,
        bytes: [0; MAX_NAME_LEN],
    };

    /// Validate and normalize `s` as [`Name::new`] does, into a stack
    /// buffer.
    pub fn new(s: &str) -> Result<NameText> {
        let s = s.strip_suffix('.').unwrap_or(s);
        let mut out = NameText::EMPTY;
        if s.is_empty() {
            return Ok(out);
        }
        if !valid_text(s.as_bytes()) {
            return Err(Error::BadName);
        }
        let text = &mut out.bytes[..s.len()];
        text.copy_from_slice(s.as_bytes());
        text.make_ascii_lowercase();
        out.len = s.len() as u8;
        Ok(out)
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)])
            .expect("a decoded name is validated ASCII")
    }

    /// An owned copy.
    pub fn to_name(&self) -> Name {
        Name(self.as_str().to_owned())
    }
}

impl Deref for NameText {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for NameText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameText({:?})", self.as_str())
    }
}

/// Decode the name encoded at `start` into `out`, in [`Name`]'s form,
/// and return the offset just past its in-place encoding (its first
/// pointer, or its root label).
///
/// This is the rule every name must pass. Pointers must point
/// backwards, at most 32 of them; labels must be UTF-8 and the dotted
/// text at most 255 bytes; the text must then pass [`Name::new`], which
/// strips one trailing dot (a label may itself contain dots) and
/// lowercases it.
fn decode_name(buf: &[u8], start: usize, out: &mut NameText) -> Result<usize> {
    let mut pos = start;
    let mut end = None;
    let mut jumps = 0usize;
    let mut len = 0usize;
    let mut plain_only = true;
    loop {
        let b = *buf.get(pos).ok_or(Error::Truncated)?;
        if b & 0xc0 == 0xc0 {
            let lo = *buf.get(pos + 1).ok_or(Error::Truncated)?;
            let target = usize::from(u16::from_be_bytes([b & 0x3f, lo]));
            end.get_or_insert(pos + 2);
            jumps += 1;
            if jumps > 32 || target >= pos {
                // Forward or excessive pointers => loop or garbage.
                return Err(Error::BadName);
            }
            pos = target;
            continue;
        }
        if b & 0xc0 != 0 {
            return Err(Error::BadName);
        }
        if b == 0 {
            break;
        }
        let label = buf
            .get(pos + 1..pos + 1 + usize::from(b))
            .ok_or(Error::Truncated)?;
        // Letters, digits, '-' and '_' are ASCII and hold no dot: only a
        // label with another byte can fail UTF-8 or the text check.
        if !label
            .iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_')
        {
            if std::str::from_utf8(label).is_err() {
                return Err(Error::BadName);
            }
            plain_only = false;
        }
        let dot = usize::from(len > 0);
        if len + dot + label.len() > MAX_NAME_LEN {
            return Err(Error::BadName);
        }
        out.bytes[len] = b'.';
        out.bytes[len + dot..len + dot + label.len()].copy_from_slice(label);
        len += dot + label.len();
        pos += 1 + label.len();
    }
    if !plain_only && out.bytes[len - 1] == b'.' {
        len -= 1;
    }
    let text = &mut out.bytes[..len];
    let valid = if plain_only {
        len + 2 <= MAX_NAME_LEN
    } else {
        text.is_empty() || valid_text(text)
    };
    if !valid {
        return Err(Error::BadName);
    }
    text.make_ascii_lowercase();
    out.len = len as u8;
    Ok(end.unwrap_or(pos + 1))
}

/// The offset just past the in-place encoding of a validated name.
fn skip_name(buf: &[u8], mut pos: usize) -> usize {
    loop {
        let b = buf[pos];
        if b & 0xc0 == 0xc0 {
            return pos + 2;
        }
        if b == 0 {
            return pos + 1;
        }
        pos += 1 + usize::from(b);
    }
}

/// The validating walk [`MessageView::new`] runs over a whole message.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(Error::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16> {
        self.take(2).map(|b| be16(b, 0))
    }

    fn name(&mut self) -> Result<()> {
        let mut scratch = NameText::EMPTY;
        self.pos = decode_name(self.buf, self.pos, &mut scratch)?;
        Ok(())
    }

    fn question(&mut self) -> Result<()> {
        self.name()?;
        self.take(4).map(drop)
    }

    fn record(&mut self) -> Result<()> {
        self.name()?;
        let rtype = RecordType::from(self.u16()?);
        let _class_ttl = self.take(6)?;
        let rdlen = usize::from(self.u16()?);
        let end = self.pos + rdlen;
        if self.buf.len() < end {
            return Err(Error::Truncated);
        }
        match rtype {
            RecordType::Cname | RecordType::Ptr => self.name()?,
            RecordType::Txt => {
                let b = self.take(rdlen)?;
                if b.first().is_some_and(|&n| b.len() < 1 + usize::from(n)) {
                    return Err(Error::Truncated);
                }
            }
            RecordType::Soa => {
                self.name()?;
                self.name()?;
                self.take(20)?;
            }
            RecordType::Svcb | RecordType::Https => {
                self.u16()?;
                self.name()?;
                if self.pos > end {
                    return Err(Error::Malformed);
                }
                // Skip SvcParams, if any.
                self.pos = end;
            }
            // A, AAAA and every other type: opaque bytes.
            _ => self.pos = end,
        }
        if self.pos != end {
            return Err(Error::Malformed);
        }
        Ok(())
    }
}

/// A DNS message read in place: the wire bytes, validated once by
/// [`MessageView::new`]. Copying a view copies only the slice and the
/// section offsets.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    buf: &'a [u8],
    /// Where the answer, authority and additional sections start.
    sections: [usize; 3],
}

impl<'a> MessageView<'a> {
    /// Validate `b` as a DNS message: every name it holds, every count
    /// against the bytes present, and every typed RDATA against its
    /// RDLENGTH (an overrun is `Malformed`). Bytes after the last record
    /// are ignored.
    pub fn new(b: &'a [u8]) -> Result<MessageView<'a>> {
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let mut c = Cursor {
            buf: b,
            pos: HEADER_LEN,
        };
        for _ in 0..be16(b, 4) {
            c.question()?;
        }
        let mut sections = [0; 3];
        for (i, start) in sections.iter_mut().enumerate() {
            *start = c.pos;
            for _ in 0..be16(b, 6 + 2 * i) {
                c.record()?;
            }
        }
        Ok(MessageView { buf: b, sections })
    }

    fn flags(&self) -> u16 {
        be16(self.buf, 2)
    }

    /// Identifier.
    pub fn id(&self) -> u16 {
        be16(self.buf, 0)
    }

    /// Is this a response?
    pub fn is_response(&self) -> bool {
        self.flags() & QR != 0
    }

    /// Authoritative answer?
    pub fn authoritative(&self) -> bool {
        self.flags() & AA != 0
    }

    /// Recursion desired?
    pub fn recursion_desired(&self) -> bool {
        self.flags() & RD != 0
    }

    /// Recursion available?
    pub fn recursion_available(&self) -> bool {
        self.flags() & RA != 0
    }

    /// Response code.
    pub fn rcode(&self) -> Rcode {
        Rcode::from((self.flags() & 0x000f) as u8)
    }

    /// Every question, in order.
    pub fn questions(&self) -> impl Iterator<Item = QuestionView<'a>> {
        let buf = self.buf;
        let mut pos = HEADER_LEN;
        (0..be16(buf, 4)).map(move |_| {
            let name = NameView { buf, at: pos };
            let rtype = skip_name(buf, pos);
            pos = rtype + 4;
            QuestionView {
                name,
                rtype: RecordType::from(be16(buf, rtype)),
            }
        })
    }

    /// The first question, if any — the common case for stub resolvers.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.questions().next()
    }

    fn records(&self, section: Section) -> Records<'a> {
        let i = section as usize;
        Records {
            buf: self.buf,
            pos: self.sections[i],
            left: be16(self.buf, 6 + 2 * i),
        }
    }

    /// The answer section.
    pub fn answers(&self) -> Records<'a> {
        self.records(Section::Answer)
    }

    /// The authority section.
    pub fn authorities(&self) -> Records<'a> {
        self.records(Section::Authority)
    }

    /// The additional section.
    pub fn additionals(&self) -> Records<'a> {
        self.records(Section::Additional)
    }

    /// Every A address in the answer section.
    pub fn a_answers(&self) -> impl Iterator<Item = Ipv4Addr> + 'a {
        self.answers().filter_map(|r| match r.rdata {
            RdataView::A(a) => Some(a),
            _ => None,
        })
    }

    /// Every AAAA address in the answer section.
    pub fn aaaa_answers(&self) -> impl Iterator<Item = Ipv6Addr> + 'a {
        self.answers().filter_map(|r| match r.rdata {
            RdataView::Aaaa(a) => Some(a),
            _ => None,
        })
    }

    /// The owned message.
    pub fn to_message(&self) -> Message {
        Message {
            id: self.id(),
            is_response: self.is_response(),
            recursion_desired: self.recursion_desired(),
            recursion_available: self.recursion_available(),
            authoritative: self.authoritative(),
            rcode: self.rcode(),
            questions: self
                .questions()
                .map(|q| Question {
                    name: q.name.to_name(),
                    rtype: q.rtype,
                })
                .collect(),
            answers: self.answers().map(|r| r.to_record()).collect(),
            authorities: self.authorities().map(|r| r.to_record()).collect(),
            additionals: self.additionals().map(|r| r.to_record()).collect(),
        }
    }
}

/// A name inside a [`MessageView`]: where its encoding starts.
#[derive(Debug, Clone, Copy)]
pub struct NameView<'a> {
    buf: &'a [u8],
    at: usize,
}

impl NameView<'_> {
    /// The name's text, decoded into a stack buffer.
    pub fn text(&self) -> NameText {
        let mut out = NameText::EMPTY;
        decode_name(self.buf, self.at, &mut out).expect("the view validated every name");
        out
    }

    /// An owned copy.
    pub fn to_name(&self) -> Name {
        self.text().to_name()
    }
}

/// A question inside a [`MessageView`].
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Name.
    pub name: NameView<'a>,
    /// Record type.
    pub rtype: RecordType,
}

/// A resource record inside a [`MessageView`].
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Name.
    pub name: NameView<'a>,
    /// Record type.
    pub rtype: RecordType,
    /// TTL.
    pub ttl: u32,
    /// Record data.
    pub rdata: RdataView<'a>,
}

impl RecordView<'_> {
    /// The owned record.
    pub fn to_record(&self) -> Record {
        Record {
            name: self.name.to_name(),
            rtype: self.rtype,
            ttl: self.ttl,
            rdata: self.rdata.to_rdata(),
        }
    }
}

/// Record data inside a [`MessageView`]: [`Rdata`] with borrowed names
/// and bytes.
#[derive(Debug, Clone, Copy)]
pub enum RdataView<'a> {
    /// A.
    A(Ipv4Addr),
    /// Aaaa.
    Aaaa(Ipv6Addr),
    /// Cname.
    Cname(NameView<'a>),
    /// Ptr.
    Ptr(NameView<'a>),
    /// The first character-string.
    Txt(&'a [u8]),
    /// Soa.
    Soa {
        /// Mname.
        mname: NameView<'a>,
        /// Rname.
        rname: NameView<'a>,
        /// Serial.
        serial: u32,
        /// Refresh.
        refresh: u32,
        /// Retry.
        retry: u32,
        /// Expire.
        expire: u32,
        /// Minimum.
        minimum: u32,
    },
    /// SVCB/HTTPS priority and target (SvcParams skipped).
    Svcb {
        /// Priority.
        priority: u16,
        /// Target.
        target: NameView<'a>,
    },
    /// Unknown.
    Unknown {
        /// Record type.
        rtype: u16,
        /// Data.
        data: &'a [u8],
    },
}

impl<'a> RdataView<'a> {
    /// Read the validated RDATA of a record of type `rtype_raw` at
    /// `buf[at..at + len]`.
    fn read(buf: &'a [u8], rtype_raw: u16, at: usize, len: usize) -> RdataView<'a> {
        let name = |at| NameView { buf, at };
        match RecordType::from(rtype_raw) {
            RecordType::A if len == 4 => RdataView::A(Ipv4Addr::from(be32(buf, at))),
            RecordType::Aaaa if len == 16 => {
                let mut o = [0u8; 16];
                o.copy_from_slice(&buf[at..at + 16]);
                RdataView::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Cname => RdataView::Cname(name(at)),
            RecordType::Ptr => RdataView::Ptr(name(at)),
            RecordType::Txt => RdataView::Txt(match buf[at..at + len].first() {
                Some(&n) => &buf[at + 1..at + 1 + usize::from(n)],
                None => &[],
            }),
            RecordType::Soa => {
                let rname = skip_name(buf, at);
                let ints = skip_name(buf, rname);
                RdataView::Soa {
                    mname: name(at),
                    rname: name(rname),
                    serial: be32(buf, ints),
                    refresh: be32(buf, ints + 4),
                    retry: be32(buf, ints + 8),
                    expire: be32(buf, ints + 12),
                    minimum: be32(buf, ints + 16),
                }
            }
            RecordType::Svcb | RecordType::Https => RdataView::Svcb {
                priority: be16(buf, at),
                target: name(at + 2),
            },
            _ => RdataView::Unknown {
                rtype: rtype_raw,
                data: &buf[at..at + len],
            },
        }
    }

    /// The owned record data.
    pub fn to_rdata(&self) -> Rdata {
        match *self {
            RdataView::A(a) => Rdata::A(a),
            RdataView::Aaaa(a) => Rdata::Aaaa(a),
            RdataView::Cname(n) => Rdata::Cname(n.to_name()),
            RdataView::Ptr(n) => Rdata::Ptr(n.to_name()),
            RdataView::Txt(t) => Rdata::Txt(t.to_vec()),
            RdataView::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => Rdata::Soa {
                mname: mname.to_name(),
                rname: rname.to_name(),
                serial,
                refresh,
                retry,
                expire,
                minimum,
            },
            RdataView::Svcb { priority, target } => Rdata::Svcb {
                priority,
                target: target.to_name(),
            },
            RdataView::Unknown { rtype, data } => Rdata::Unknown {
                rtype,
                data: data.to_vec(),
            },
        }
    }
}

/// The records of one section of a [`MessageView`], in order.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    buf: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        self.left = self.left.checked_sub(1)?;
        let buf = self.buf;
        let name = NameView { buf, at: self.pos };
        let at = skip_name(buf, self.pos);
        let rtype_raw = be16(buf, at);
        let len = usize::from(be16(buf, at + 8));
        self.pos = at + 10 + len;
        Some(RecordView {
            name,
            rtype: RecordType::from(rtype_raw),
            ttl: be32(buf, at + 4),
            rdata: RdataView::read(buf, rtype_raw, at + 10, len),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::from(self.left), Some(usize::from(self.left)))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// The record sections, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Answers.
    Answer,
    /// Authorities.
    Authority,
    /// Additionals.
    Additional,
}

/// Writes one DNS message with RFC 1035 §4.1.4 name compression.
///
/// Every name suffix written out in full at an offset up to 0x3fff is
/// registered as a compression target. A later name ends in a pointer at
/// the first of its suffixes whose labels match those at a registered
/// offset; the labels are compared in the output itself, so no suffix is
/// ever joined into a key. SVCB/HTTPS targets are written uncompressed
/// and never registered (RFC 9460).
///
/// Names are taken in the text form a [`Name`] holds (labels of at most
/// 63 bytes, as [`Name::new`] guarantees): [`Name::as_str`], or a view's
/// [`NameText`]. Sections are written in wire order: questions, then
/// answers, authorities and additionals.
#[derive(Debug, Clone)]
pub struct Writer {
    out: Vec<u8>,
    /// Offsets of the name suffixes registered as compression targets.
    targets: Vec<u16>,
    /// Entries written per section: questions, answers, authorities,
    /// additionals.
    counts: [u16; 4],
}

impl Writer {
    fn new(id: u16, flags: u16) -> Writer {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&[0; 8]);
        Writer {
            out,
            targets: Vec::new(),
            counts: [0; 4],
        }
    }

    /// The bytes of a recursive query for `name`/`rtype`: what
    /// `Message::query(id, name, rtype).build()` returns.
    pub fn query(id: u16, name: &str, rtype: RecordType) -> Vec<u8> {
        let mut w = Writer::new(id, RD);
        w.question(name, rtype);
        w.finish()
    }

    /// Start the response to `query` with `rcode`: its id, its
    /// recursion-desired bit, recursion available, and every question
    /// of the query. What [`Message::response`] starts, as bytes.
    pub fn response_to(query: &MessageView<'_>, rcode: Rcode) -> Writer {
        let mut flags = QR | RA | u16::from(u8::from(rcode));
        if query.recursion_desired() {
            flags |= RD;
        }
        let mut w = Writer::new(query.id(), flags);
        for q in query.questions() {
            w.question(&q.name.text(), q.rtype);
        }
        w
    }

    fn question(&mut self, name: &str, rtype: RecordType) {
        debug_assert!(self.counts[1..].iter().all(|&n| n == 0));
        self.counts[0] = self.counts[0].wrapping_add(1);
        self.name(name);
        self.out.extend_from_slice(&u16::from(rtype).to_be_bytes());
        self.out.extend_from_slice(&1u16.to_be_bytes()); // IN
    }

    /// Append a record to `section`, which must not precede a section
    /// already written to.
    pub fn record(
        &mut self,
        section: Section,
        name: &str,
        rtype: RecordType,
        ttl: u32,
        rdata: &Rdata,
    ) {
        let i = 1 + section as usize;
        debug_assert!(self.counts[i + 1..].iter().all(|&n| n == 0));
        self.counts[i] = self.counts[i].wrapping_add(1);
        self.name(name);
        self.out.extend_from_slice(&u16::from(rtype).to_be_bytes());
        self.out.extend_from_slice(&1u16.to_be_bytes()); // IN
        self.out.extend_from_slice(&ttl.to_be_bytes());
        let len_pos = self.out.len();
        self.out.extend_from_slice(&[0, 0]);
        match rdata {
            Rdata::A(a) => self.out.extend_from_slice(&a.octets()),
            Rdata::Aaaa(a) => self.out.extend_from_slice(&a.octets()),
            Rdata::Cname(n) | Rdata::Ptr(n) => self.name(n.as_str()),
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
                self.name(mname.as_str());
                self.name(rname.as_str());
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

    /// The finished message.
    pub fn finish(mut self) -> Vec<u8> {
        for (i, n) in self.counts.iter().enumerate() {
            self.out[4 + 2 * i..6 + 2 * i].copy_from_slice(&n.to_be_bytes());
        }
        self.out
    }

    fn name(&mut self, name: &str) {
        let mut labels = name.split('.').filter(|l| !l.is_empty());
        loop {
            let suffix = labels.clone();
            let Some(label) = labels.next() else { break };
            if let Some(&off) = self
                .targets
                .iter()
                .find(|&&off| self.spells(off, suffix.clone()))
            {
                self.out.extend_from_slice(&(0xc000u16 | off).to_be_bytes());
                return;
            }
            if self.out.len() <= 0x3fff {
                self.targets.push(self.out.len() as u16);
            }
            self.out.push(label.len() as u8);
            self.out.extend_from_slice(label.as_bytes());
        }
        self.out.push(0);
    }

    /// Does the name encoded at `off` in the output spell exactly
    /// `labels`? A name still being written has no root label yet, so
    /// it never matches.
    fn spells<'n>(&self, off: u16, mut labels: impl Iterator<Item = &'n str>) -> bool {
        let mut at = usize::from(off);
        // Bounded, in case a caller's label was too long to encode.
        for _ in 0..MAX_NAME_LEN {
            let Some(&len) = self.out.get(at) else {
                return false;
            };
            if len & 0xc0 == 0xc0 {
                // Our own pointers only ever point backwards.
                let Some(&lo) = self.out.get(at + 1) else {
                    return false;
                };
                let target = usize::from(u16::from_be_bytes([len & 0x3f, lo]));
                if target >= at {
                    return false;
                }
                at = target;
                continue;
            }
            if len == 0 {
                return labels.next().is_none();
            }
            let label = self.out.get(at + 1..at + 1 + usize::from(len));
            if labels.next().map(str::as_bytes) != label {
                return false;
            }
            at += 1 + usize::from(len);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    #[test]
    fn name_validation() {
        assert!(Name::new("api.amazon.com").is_ok());
        assert!(Name::new("API.Amazon.COM.").is_ok());
        assert_eq!(name("API.Amazon.COM.").as_str(), "api.amazon.com");
        assert!(Name::new("has space.com").is_err());
        assert!(Name::new("a..b").is_err());
        assert!(Name::new(&"x".repeat(64)).is_err());
        assert!(Name::new(&format!("{}.com", "long-label.".repeat(30))).is_err());
        assert_eq!(Name::new("").unwrap(), Name::root());
    }

    #[test]
    fn second_level_extraction() {
        assert_eq!(
            name("unagi-na.amazon.com").second_level(),
            name("amazon.com")
        );
        assert_eq!(name("a2.tuyaus.com").second_level(), name("tuyaus.com"));
        assert_eq!(name("amazon.com").second_level(), name("amazon.com"));
        assert_eq!(name("com").second_level(), name("com"));
    }

    #[test]
    fn subdomain_check() {
        assert!(name("a2.tuyaus.com").is_subdomain_of(&name("tuyaus.com")));
        assert!(name("tuyaus.com").is_subdomain_of(&name("tuyaus.com")));
        assert!(!name("nottuyaus.com").is_subdomain_of(&name("tuyaus.com")));
        assert!(name("x.y").is_subdomain_of(&Name::root()));
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x7777, name("clients3.google.com"), RecordType::Aaaa);
        let parsed = Message::parse_bytes(&q.build()).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.is_response);
        assert_eq!(parsed.question().unwrap().rtype, RecordType::Aaaa);
    }

    #[test]
    fn positive_aaaa_response_roundtrip() {
        let q = Message::query(1, name("example.com"), RecordType::Aaaa);
        let mut resp = q.response(Rcode::NoError);
        resp.answers.push(Record::new(
            name("example.com"),
            300,
            Rdata::Aaaa("2606:2800:220:1::1".parse().unwrap()),
        ));
        resp.answers.push(Record::new(
            name("example.com"),
            300,
            Rdata::Aaaa("2606:2800:220:1::2".parse().unwrap()),
        ));
        let parsed = Message::parse_bytes(&resp.build()).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.aaaa_answers().count(), 2);
        assert!(!parsed.is_negative());
    }

    #[test]
    fn negative_response_with_soa() {
        let q = Message::query(2, name("api.amazon.com"), RecordType::Aaaa);
        let mut resp = q.response(Rcode::NoError);
        resp.authorities.push(Record::new(
            name("amazon.com"),
            900,
            Rdata::Soa {
                mname: name("dns-external-master.amazon.com"),
                rname: name("root.amazon.com"),
                serial: 2010122200,
                refresh: 180,
                retry: 60,
                expire: 3024000,
                minimum: 60,
            },
        ));
        let parsed = Message::parse_bytes(&resp.build()).unwrap();
        assert_eq!(parsed, resp);
        assert!(parsed.is_negative());

        let nx = q.response(Rcode::NxDomain);
        assert!(Message::parse_bytes(&nx.build()).unwrap().is_negative());
    }

    #[test]
    fn cname_chain_roundtrip() {
        let q = Message::query(3, name("www.vendor.com"), RecordType::A);
        let mut resp = q.response(Rcode::NoError);
        resp.answers.push(Record::new(
            name("www.vendor.com"),
            60,
            Rdata::Cname(name("edge.cdn.vendor.com")),
        ));
        resp.answers.push(Record::new(
            name("edge.cdn.vendor.com"),
            60,
            Rdata::A(Ipv4Addr::new(151, 101, 1, 6)),
        ));
        assert_eq!(Message::parse_bytes(&resp.build()).unwrap(), resp);
    }

    #[test]
    fn https_record_roundtrip() {
        let q = Message::query(4, name("gateway.icloud.com"), RecordType::Https);
        let mut resp = q.response(Rcode::NoError);
        resp.answers.push(Record {
            name: name("gateway.icloud.com"),
            rtype: RecordType::Https,
            ttl: 300,
            rdata: Rdata::Svcb {
                priority: 1,
                target: Name::root(),
            },
        });
        assert_eq!(Message::parse_bytes(&resp.build()).unwrap(), resp);
    }

    #[test]
    fn compression_shrinks_and_roundtrips() {
        let mut resp =
            Message::query(5, name("a.b.example.net"), RecordType::A).response(Rcode::NoError);
        for i in 0..4u8 {
            resp.answers.push(Record::new(
                name("a.b.example.net"),
                60,
                Rdata::A(Ipv4Addr::new(10, 0, 0, i)),
            ));
        }
        let compressed = resp.build();
        assert_eq!(Message::parse_bytes(&compressed).unwrap(), resp);
        // The repeated owner name must have been compressed to pointers:
        // 4 answers * full name (17 bytes) would dominate otherwise.
        assert!(compressed.len() < 12 + 21 + 4 * (2 + 10 + 4) + 10);
    }

    #[test]
    fn pointer_loop_rejected() {
        // Header + a name that points at itself.
        let mut b = vec![0u8; 12];
        b[4..6].copy_from_slice(&1u16.to_be_bytes()); // qdcount = 1
        b.extend_from_slice(&[0xc0, 12]); // pointer to itself
        b.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(Message::parse_bytes(&b).unwrap_err(), Error::BadName);
    }

    #[test]
    fn svcb_target_past_rdlength_rejected() {
        // An HTTPS answer whose 2-byte RDATA holds only the priority; the
        // target name would have to come from the bytes after the record.
        let q = Message::query(8, name("example"), RecordType::Https);
        let mut b = q.response(Rcode::NoError).build();
        b[6..8].copy_from_slice(&1u16.to_be_bytes()); // ancount = 1
        b.extend_from_slice(&[0xc0, 12, 0, 65, 0, 1, 0, 0, 1, 44, 0, 2, 0, 1]);
        b.extend_from_slice(b"\x04evil\x07example\x00");
        assert_eq!(Message::parse_bytes(&b).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_message_rejected() {
        let q = Message::query(6, name("x.com"), RecordType::A).build();
        for cut in [2, 11, q.len() - 1] {
            assert!(Message::parse_bytes(&q[..cut]).is_err());
        }
    }

    #[test]
    fn txt_roundtrip() {
        let mut resp =
            Message::query(7, name("t.example"), RecordType::Txt).response(Rcode::NoError);
        resp.answers.push(Record::new(
            name("t.example"),
            60,
            Rdata::Txt(b"v=spf1 -all".to_vec()),
        ));
        assert_eq!(Message::parse_bytes(&resp.build()).unwrap(), resp);
    }
}
