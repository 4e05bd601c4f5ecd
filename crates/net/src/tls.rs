//! Minimal TLS 1.2/1.3 ClientHello construction and SNI extraction.
//!
//! The paper's pipeline extracts destination names from "DNS and TLS
//! handshake data" (§4.3). Our simulated devices open TLS-shaped
//! connections whose first segment is a structurally valid ClientHello
//! carrying the destination in a server_name extension; the analysis side
//! recovers it with [`parse_sni`].

use crate::dns::Name;
use crate::error::{Error, Result};

/// Build a ClientHello TLS record for `sni`, padded with `payload_len`
/// bytes of application-data records to reach the requested on-wire size
/// (telemetry volume modelling). The total is at least the handshake
/// record.
pub fn client_hello(sni: &Name, payload_len: usize) -> Vec<u8> {
    let host = sni.as_str().as_bytes();

    // server_name extension body: list length, type 0 (host_name), name.
    let mut ext_body = Vec::with_capacity(host.len() + 5);
    ext_body.extend_from_slice(&((host.len() + 3) as u16).to_be_bytes());
    ext_body.push(0);
    ext_body.extend_from_slice(&(host.len() as u16).to_be_bytes());
    ext_body.extend_from_slice(host);

    let mut extensions = Vec::with_capacity(ext_body.len() + 4);
    extensions.extend_from_slice(&0u16.to_be_bytes()); // extension type 0: server_name
    extensions.extend_from_slice(&(ext_body.len() as u16).to_be_bytes());
    extensions.extend_from_slice(&ext_body);

    // ClientHello body.
    let mut hello = Vec::with_capacity(extensions.len() + 48);
    hello.extend_from_slice(&[0x03, 0x03]); // legacy_version TLS1.2
    hello.extend_from_slice(&[0x11; 32]); // random (deterministic)
    hello.push(0); // session id length
    hello.extend_from_slice(&[0x00, 0x02, 0x13, 0x01]); // ciphers: TLS_AES_128_GCM_SHA256
    hello.extend_from_slice(&[0x01, 0x00]); // compression: null
    hello.extend_from_slice(&(extensions.len() as u16).to_be_bytes());
    hello.extend_from_slice(&extensions);

    // Handshake header.
    let mut hs = Vec::with_capacity(hello.len() + 4);
    hs.push(1); // handshake type: client_hello
    hs.extend_from_slice(&(hello.len() as u32).to_be_bytes()[1..]);
    hs.extend_from_slice(&hello);

    // TLS record.
    let mut rec = Vec::with_capacity(hs.len() + 5 + payload_len);
    rec.push(22); // content type: handshake
    rec.extend_from_slice(&[0x03, 0x01]);
    rec.extend_from_slice(&(hs.len() as u16).to_be_bytes());
    rec.extend_from_slice(&hs);

    // Pad to the requested volume with application-data records.
    let mut remaining = payload_len.saturating_sub(rec.len());
    while remaining > 0 {
        let chunk = remaining.min(4096);
        rec.push(23); // application data
        rec.extend_from_slice(&[0x03, 0x03]);
        rec.extend_from_slice(&(chunk as u16).to_be_bytes());
        rec.resize(rec.len() + chunk, 0x5a);
        remaining -= chunk;
    }
    rec
}

/// Extract the SNI host from the first TLS record, if it is a ClientHello
/// with a server_name extension.
pub fn parse_sni(data: &[u8]) -> Result<Name> {
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
            let s = std::str::from_utf8(bytes).map_err(|_| Error::BadName)?;
            return Name::new(s);
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
        let hello = client_hello(&name("unagi-na.amazon.com"), 0);
        assert_eq!(parse_sni(&hello).unwrap(), name("unagi-na.amazon.com"));
    }

    #[test]
    fn padding_reaches_requested_volume() {
        let hello = client_hello(&name("a.example"), 2000);
        assert!(hello.len() >= 2000);
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
        let hello = client_hello(&name("host.example"), 0);
        assert!(parse_sni(&hello[..20]).is_err());
    }
}
