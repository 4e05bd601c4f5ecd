//! Runs: the tail of a packet's payload that follows a known pattern,
//! stored in a few bytes and written out only where something reads it.
//!
//! Two patterns cover every bulk payload the simulation sends. A cloud
//! server's reply (TLS records, a scaled UDP echo) is `len` copies of
//! one byte. A device's telemetry upload is a ClientHello followed by
//! the application-data padding [`crate::tls::client_hello`] appends:
//! records of at most 4,096 bytes of 0x5a, each behind a 5-byte record
//! header. Senders emit only the headers, with the run's share of the
//! transport checksum computed arithmetically
//! ([`crate::checksum::Checksum::add_run`]); whoever reads the bytes
//! spells the run out behind the headers with [`Run::spell`].

use crate::tls;

/// A run's pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pattern {
    /// One repeated byte.
    Fill(u8),
    /// The TLS application-data padding that carries `data` bytes of
    /// 0x5a. Its last record header holds what is left of `data`, so a
    /// cut run keeps the whole padding's size.
    Padding { data: u16 },
}

/// The first `len` bytes of a pattern, ending a packet whose headers
/// lie before it.
///
/// A run never starts inside a header: it is the tail of a transport
/// payload, so every header a forwarder reads is in the packet's
/// buffer, and only length fields count the run. Its length is 16 bits,
/// like the IP length fields it lies within.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    pattern: Pattern,
    len: u16,
}

impl Default for Run {
    /// The empty run, which ends every packet that has no run.
    fn default() -> Run {
        Run::new(0, 0)
    }
}

impl Run {
    /// `len` copies of `byte`.
    ///
    /// # Panics
    /// A run longer than 65,535 bytes cannot lie within one IP packet.
    pub fn new(byte: u8, len: usize) -> Run {
        Run::with_len(Pattern::Fill(byte), len)
    }

    /// The application-data records that pad a TLS record stream with
    /// `data` bytes of 0x5a, at most 4,096 of them behind each 5-byte
    /// record header: the tail [`tls::client_hello`] appends.
    ///
    /// # Panics
    /// When the records, headers included, are longer than 65,535 bytes.
    pub fn tls_padding(data: usize) -> Run {
        let records = data.div_ceil(tls::MAX_PADDING_RECORD);
        let data16 = u16::try_from(data).expect("a run lies within one IP packet");
        Run::with_len(Pattern::Padding { data: data16 }, data + records * 5)
    }

    fn with_len(pattern: Pattern, len: usize) -> Run {
        let len = u16::try_from(len).expect("a run lies within one IP packet");
        Run { pattern, len }
    }

    /// How many bytes the run spells.
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// True for the empty run.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The part of this run that lies in the first `end` bytes of a
    /// packet whose buffer, `head` bytes long, the run follows: how a
    /// length field shorter than the packet cuts it. The cut run spells
    /// a prefix of what this one spells.
    pub fn cut(self, head: usize, end: usize) -> Run {
        let len = end.saturating_sub(head).min(self.len());
        Run::with_len(self.pattern, len)
    }

    /// The bytes of `head` followed by this run: `head` itself when the
    /// run is empty, else both written into `buf`, which is cleared
    /// first and keeps its capacity for the next packet.
    pub fn spell<'a>(self, head: &'a [u8], buf: &'a mut Vec<u8>) -> &'a [u8] {
        if self.is_empty() {
            return head;
        }
        buf.clear();
        buf.reserve(head.len() + self.len());
        buf.extend_from_slice(head);
        self.stretches(|byte, n| buf.resize(buf.len() + n, byte));
        buf
    }

    /// Hand `f` the run's bytes in order, as stretches of `n` copies of
    /// one byte: one stretch for a fill, and for padding each record
    /// header byte alone, then the record's data.
    pub(crate) fn stretches(self, mut f: impl FnMut(u8, usize)) {
        let mut left = self.len();
        match self.pattern {
            Pattern::Fill(byte) => f(byte, left),
            Pattern::Padding { data } => {
                let mut data = usize::from(data);
                while left > 0 {
                    let chunk = data.min(tls::MAX_PADDING_RECORD);
                    data -= chunk;
                    for byte in tls::padding_header(chunk).into_iter().take(left) {
                        f(byte, 1);
                        left -= 1;
                    }
                    let n = chunk.min(left);
                    f(tls::PADDING_BYTE, n);
                    left -= n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spell_appends_the_run() {
        let mut buf = vec![9; 100];
        assert_eq!(Run::new(7, 3).spell(b"ab", &mut buf), b"ab\x07\x07\x07");
        assert_eq!(Run::default().spell(b"ab", &mut buf), b"ab");
    }

    #[test]
    fn padding_spells_records_with_headers() {
        let run = Run::tls_padding(4098);
        assert_eq!(run.len(), 4098 + 10);
        let spelled = run.spell(b"", &mut Vec::new()).to_vec();
        assert_eq!(spelled[..5], [23, 3, 3, 0x10, 0]);
        assert!(spelled[5..4101].iter().all(|&b| b == 0x5a));
        assert_eq!(spelled[4101..], [23, 3, 3, 0, 2, 0x5a, 0x5a]);
        assert!(Run::tls_padding(0).is_empty());
    }

    #[test]
    fn cut_keeps_the_run_inside_a_length() {
        let r = Run::new(1, 10);
        assert_eq!(r.cut(20, 100), r);
        assert_eq!(r.cut(20, 25), Run::new(1, 5));
        assert!(r.cut(20, 12).is_empty());
    }
}
