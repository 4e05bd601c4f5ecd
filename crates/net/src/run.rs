//! Runs: a packet's payload of one repeated byte, stored as `(byte, len)`
//! and written out only where something reads it.
//!
//! A simulated bulk reply (a cloud server's TLS records, a scaled UDP
//! echo) is `len` copies of one byte. Its sender emits only the headers,
//! with the run's share of the transport checksum computed
//! arithmetically ([`crate::checksum::Checksum::add_fill`]); whoever
//! reads the bytes spells the run out behind the headers with
//! [`Run::spell`].

/// `len` copies of `byte`, ending a packet whose headers lie before it.
///
/// A run never starts inside a header: it is the tail of a transport
/// payload, so every header a forwarder reads is in the packet's
/// buffer, and only length fields count the run. Its length is 16 bits,
/// like the IP length fields it lies within.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Run {
    byte: u8,
    len: u16,
}

impl Run {
    /// `len` copies of `byte`.
    ///
    /// # Panics
    /// A run longer than 65,535 bytes cannot lie within one IP packet.
    pub fn new(byte: u8, len: usize) -> Run {
        let len = u16::try_from(len).expect("a run lies within one IP packet");
        Run { byte, len }
    }

    /// The repeated byte.
    pub fn byte(self) -> u8 {
        self.byte
    }

    /// How many times the byte repeats.
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// True for the empty run, which ends every packet that has no run.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The part of this run that lies in the first `end` bytes of a
    /// packet whose buffer, `head` bytes long, the run follows: how a
    /// length field shorter than the packet cuts it.
    pub fn cut(self, head: usize, end: usize) -> Run {
        let len = end.saturating_sub(head).min(self.len());
        Run::new(self.byte, len)
    }

    /// The bytes of `head` followed by this run: `head` itself when the
    /// run is empty, else both written into `buf`, which is cleared
    /// first and keeps its capacity for the next packet.
    pub fn spell<'a>(self, head: &'a [u8], buf: &'a mut Vec<u8>) -> &'a [u8] {
        if self.is_empty() {
            return head;
        }
        buf.clear();
        buf.extend_from_slice(head);
        buf.resize(head.len() + self.len(), self.byte);
        buf
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
    fn cut_keeps_the_run_inside_a_length() {
        let r = Run::new(1, 10);
        assert_eq!(r.cut(20, 100), r);
        assert_eq!(r.cut(20, 25), Run::new(1, 5));
        assert!(r.cut(20, 12).is_empty());
    }
}
