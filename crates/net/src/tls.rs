//! Minimal TLS 1.2/1.3 ClientHello construction and SNI extraction.
//!
//! The paper's pipeline extracts destination names from "DNS and TLS
//! handshake data" (§4.3). Our simulated devices open TLS-shaped
//! connections whose first segment is a structurally valid ClientHello
//! carrying the destination in a server_name extension, padded to the
//! upload's size with a [`Run`]; the analysis side recovers the name with
//! [`sni_text`].

use crate::dns::{Name, NameText};
use crate::error::{Error, Result};
use crate::run::Run;

/// The most data one padding record carries.
pub(crate) const MAX_PADDING_RECORD: usize = 4096;
/// The byte padding records carry.
pub(crate) const PADDING_BYTE: u8 = 0x5a;

/// The header of a padding record carrying `chunk` bytes: content type
/// application data, TLS 1.2, the length.
pub(crate) fn padding_header(chunk: usize) -> [u8; 5] {
    let [hi, lo] = (chunk as u16).to_be_bytes();
    [23, 0x03, 0x03, hi, lo]
}

/// A ClientHello TLS record for `sni`, and the padding that brings the
/// upload to the requested on-wire size (telemetry volume modelling): a
/// [`Run::tls_padding`] run of application-data records carrying the
/// bytes by which the handshake record falls short of `payload_len`.
/// Their record headers come on top, and the total is at least the
/// handshake record.
pub fn client_hello(sni: &Name, payload_len: usize) -> (Vec<u8>, Run) {
    let host = sni.as_str().as_bytes();
    let n = host.len();
    // server_name extension: type, length, then its body: list length,
    // name type 0 (host_name), name length, name.
    let ext_len = n + 9;
    // legacy_version, random, session id, ciphers, compression, the
    // extensions' length, the extensions.
    let hello_len = 2 + 32 + 1 + 4 + 2 + 2 + ext_len;
    let hs_len = 4 + hello_len;
    let mut rec = Vec::with_capacity(5 + hs_len);
    rec.push(22); // content type: handshake
    rec.extend_from_slice(&[0x03, 0x01]);
    rec.extend_from_slice(&(hs_len as u16).to_be_bytes());
    rec.push(1); // handshake type: client_hello
    rec.extend_from_slice(&(hello_len as u32).to_be_bytes()[1..]);
    rec.extend_from_slice(&[0x03, 0x03]); // legacy_version TLS1.2
    rec.extend_from_slice(&[0x11; 32]); // random (deterministic)
    rec.push(0); // session id length
    rec.extend_from_slice(&[0x00, 0x02, 0x13, 0x01]); // ciphers: TLS_AES_128_GCM_SHA256
    rec.extend_from_slice(&[0x01, 0x00]); // compression: null
    rec.extend_from_slice(&(ext_len as u16).to_be_bytes());
    rec.extend_from_slice(&0u16.to_be_bytes()); // extension type 0: server_name
    rec.extend_from_slice(&((n + 5) as u16).to_be_bytes());
    rec.extend_from_slice(&((n + 3) as u16).to_be_bytes());
    rec.push(0);
    rec.extend_from_slice(&(n as u16).to_be_bytes());
    rec.extend_from_slice(host);
    let padding = Run::tls_padding(payload_len.saturating_sub(rec.len()));
    (rec, padding)
}

/// Extract the SNI host from the first TLS record, if it is a ClientHello
/// with a server_name extension.
pub fn parse_sni(data: &[u8]) -> Result<Name> {
    Name::new(sni_host(data)?)
}

/// [`parse_sni`] without allocating: the host normalised into a stack
/// [`NameText`], as [`Name::new`] would hold it.
pub fn sni_text(data: &[u8]) -> Result<NameText> {
    NameText::new(sni_host(data)?)
}

/// The raw server_name host of the first TLS record, if it is a
/// ClientHello with a server_name extension.
fn sni_host(data: &[u8]) -> Result<&str> {
    let mut r = Cursor { b: data, p: 0 };
    if r.u8()? != 22 {
        return Err(Error::Unsupported); // not a handshake record
    }
    r.skip(2)?; // record version
    let rec_len = r.u16()? as usize;
    let rec_end = (r.p + rec_len).min(data.len());
    if r.u8()? != 1 {
        return Err(Error::Unsupported); // not a ClientHello
    }
    r.skip(3)?; // handshake length
    r.skip(2 + 32)?; // version + random
    let sid_len = r.u8()? as usize;
    r.skip(sid_len)?;
    let cipher_len = r.u16()? as usize;
    r.skip(cipher_len)?;
    let comp_len = r.u8()? as usize;
    r.skip(comp_len)?;
    if r.p >= rec_end {
        return Err(Error::Truncated);
    }
    let ext_total = r.u16()? as usize;
    let ext_end = (r.p + ext_total).min(rec_end);
    while r.p + 4 <= ext_end {
        let ext_type = r.u16()?;
        let ext_len = r.u16()? as usize;
        if ext_type == 0 {
            // server_name: list length (2), type (1), name length (2).
            r.skip(2)?;
            if r.u8()? != 0 {
                return Err(Error::Malformed);
            }
            let name_len = r.u16()? as usize;
            let bytes = r.take(name_len)?;
            return std::str::from_utf8(bytes).map_err(|_| Error::BadName);
        }
        r.skip(ext_len)?;
    }
    Err(Error::Unsupported)
}

struct Cursor<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8> {
        let v = *self.b.get(self.p).ok_or(Error::Truncated)?;
        self.p += 1;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }
    fn skip(&mut self, n: usize) -> Result<()> {
        if self.b.len() < self.p + n {
            return Err(Error::Truncated);
        }
        self.p += n;
        Ok(())
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.b.len() < self.p + n {
            return Err(Error::Truncated);
        }
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    #[test]
    fn sni_roundtrip() {
        let (hello, padding) = client_hello(&name("unagi-na.amazon.com"), 0);
        assert!(padding.is_empty());
        assert_eq!(parse_sni(&hello).unwrap(), name("unagi-na.amazon.com"));
        assert_eq!(sni_text(&hello).unwrap().as_str(), "unagi-na.amazon.com");
    }

    #[test]
    fn padding_reaches_requested_volume() {
        let (hello, padding) = client_hello(&name("a.example"), 2000);
        assert!(hello.len() + padding.len() >= 2000);
        assert_eq!(parse_sni(&hello).unwrap(), name("a.example"));
    }

    #[test]
    fn non_tls_rejected() {
        assert!(parse_sni(b"GET / HTTP/1.1\r\n").is_err());
        assert!(parse_sni(&[]).is_err());
        // Application-data record is not a handshake.
        assert!(parse_sni(&[23, 3, 3, 0, 1, 0]).is_err());
    }

    #[test]
    fn truncated_hello_rejected() {
        let (hello, _) = client_hello(&name("host.example"), 0);
        assert!(parse_sni(&hello[..20]).is_err());
    }
}
