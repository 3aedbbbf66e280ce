//! Words on aelite links: data/header phits with explicit sideband.
//!
//! One [`LinkWord`] travels over each link per cycle. Following the paper's
//! router (Section IV), the `valid` and end-of-packet (`eop`) bits are
//! **explicit control signals** that need no decoding — this is what takes
//! the header-parsing unit off the critical path compared to Æthereal.
//!
//! A flit is 3 consecutive words. A packet starts with a header word
//! carrying the source route (3 bits per hop, consumed front-first by each
//! router's HPU) and the connection id; subsequent words are payload. The
//! [`codec`](crate::codec) module proves this logical structure packs into
//! the physical data word.

use aelite_spec::ids::{ConnId, Port};
use core::fmt;

/// The source route of a packet: up to 21 pending 3-bit output-port hops.
///
/// Each router pops the front (least-significant) 3 bits to select its
/// output port and forwards the shifted remainder — exactly the HPU
/// behaviour of the paper, which supports arities up to 8.
///
/// # Examples
///
/// ```
/// use aelite_noc::phit::RouteBits;
/// use aelite_spec::ids::Port;
///
/// let mut route = RouteBits::from_ports(&[Port(3), Port(0), Port(5)]);
/// assert_eq!(route.pop_port(), Port(3));
/// assert_eq!(route.pop_port(), Port(0));
/// assert_eq!(route.pop_port(), Port(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RouteBits {
    bits: u64,
    len: u8,
}

/// Maximum hops encodable in a route (bounded by the 63 usable bits).
pub const MAX_ROUTE_HOPS: usize = 21;

impl RouteBits {
    /// Encodes a port sequence, first hop in the low bits.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_ROUTE_HOPS`] ports are given or any port
    /// exceeds 7 (3-bit encoding, arity ≤ 8).
    #[must_use]
    pub fn from_ports(ports: &[Port]) -> Self {
        assert!(
            ports.len() <= MAX_ROUTE_HOPS,
            "route of {} hops exceeds the {MAX_ROUTE_HOPS}-hop encoding",
            ports.len()
        );
        let mut bits = 0u64;
        for (i, p) in ports.iter().enumerate() {
            assert!(p.0 < 8, "{p} does not fit the 3-bit port encoding");
            bits |= u64::from(p.0) << (3 * i);
        }
        RouteBits {
            bits,
            len: ports.len() as u8,
        }
    }

    /// Pops the next output port (front of the route) and shifts.
    ///
    /// # Panics
    ///
    /// Panics if the route is exhausted — a packet arriving at a router
    /// with no route left is a misrouting bug worth failing loudly on.
    pub fn pop_port(&mut self) -> Port {
        assert!(self.len > 0, "route exhausted");
        let p = Port((self.bits & 0b111) as u8);
        self.bits >>= 3;
        self.len -= 1;
        p
    }

    /// Remaining hops.
    #[must_use]
    pub fn remaining(&self) -> usize {
        usize::from(self.len)
    }

    /// The raw shifted bit pattern (for the codec).
    #[must_use]
    pub(crate) fn raw_bits(&self) -> u64 {
        self.bits
    }
}

impl fmt::Display for RouteBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut copy = *self;
        write!(f, "[")?;
        let mut first = true;
        while copy.remaining() > 0 {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", copy.pop_port())?;
            first = false;
        }
        write!(f, "]")
    }
}

/// The header word starting every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    /// Remaining source route (consumed hop by hop).
    pub route: RouteBits,
    /// The connection this packet belongs to (selects the destination
    /// NI queue).
    pub conn: ConnId,
}

/// What a link word carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Payload {
    /// No packet word this cycle (valid is low).
    #[default]
    Idle,
    /// A packet header.
    Head(Header),
    /// A payload word (the carried bytes are abstracted as a tag).
    Data(u64),
}

/// One word on a physical link, with its sideband signals.
///
/// `LinkWord::default()` is the idle word every wire holds at reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkWord {
    /// Explicit valid control signal.
    pub valid: bool,
    /// Explicit end-of-packet control signal (meaningful when valid).
    pub eop: bool,
    /// The data word.
    pub payload: Payload,
}

impl LinkWord {
    /// An idle (invalid) word.
    #[must_use]
    pub fn idle() -> Self {
        LinkWord::default()
    }

    /// A header word opening a packet on `conn` with the given route.
    #[must_use]
    pub fn head(route: RouteBits, conn: ConnId) -> Self {
        LinkWord {
            valid: true,
            eop: false,
            payload: Payload::Head(Header { route, conn }),
        }
    }

    /// A payload word; `eop` marks the packet's last word.
    #[must_use]
    pub fn data(tag: u64, eop: bool) -> Self {
        LinkWord {
            valid: true,
            eop,
            payload: Payload::Data(tag),
        }
    }

    /// Whether this word carries a packet header.
    #[must_use]
    pub fn is_head(&self) -> bool {
        self.valid && matches!(self.payload, Payload::Head(_))
    }
}

impl fmt::Display for LinkWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.valid {
            return write!(f, "idle");
        }
        match self.payload {
            Payload::Idle => write!(f, "valid-but-idle"),
            Payload::Head(h) => write!(f, "head({} route {})", h.conn, h.route),
            Payload::Data(d) => write!(f, "data({d}{})", if self.eop { ", eop" } else { "" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_roundtrips_ports() {
        let ports = [Port(1), Port(7), Port(0), Port(4)];
        let mut r = RouteBits::from_ports(&ports);
        assert_eq!(r.remaining(), 4);
        for p in ports {
            assert_eq!(r.pop_port(), p);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "route exhausted")]
    fn popping_empty_route_panics() {
        let mut r = RouteBits::from_ports(&[]);
        let _ = r.pop_port();
    }

    #[test]
    #[should_panic(expected = "3-bit port encoding")]
    fn oversized_port_rejected() {
        let _ = RouteBits::from_ports(&[Port(8)]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overlong_route_rejected() {
        let ports = vec![Port(0); MAX_ROUTE_HOPS + 1];
        let _ = RouteBits::from_ports(&ports);
    }

    #[test]
    fn max_length_route_is_accepted() {
        let ports = vec![Port(5); MAX_ROUTE_HOPS];
        let mut r = RouteBits::from_ports(&ports);
        for _ in 0..MAX_ROUTE_HOPS {
            assert_eq!(r.pop_port(), Port(5));
        }
    }

    #[test]
    fn default_word_is_idle() {
        let w = LinkWord::default();
        assert!(!w.valid);
        assert!(!w.is_head());
        assert_eq!(w, LinkWord::idle());
    }

    #[test]
    fn constructors_set_sideband() {
        let h = LinkWord::head(RouteBits::from_ports(&[Port(2)]), ConnId::new(5));
        assert!(h.valid && !h.eop && h.is_head());
        let d = LinkWord::data(42, true);
        assert!(d.valid && d.eop && !d.is_head());
    }

    #[test]
    fn display_formats() {
        assert_eq!(LinkWord::idle().to_string(), "idle");
        let h = LinkWord::head(RouteBits::from_ports(&[Port(2), Port(1)]), ConnId::new(3));
        assert_eq!(h.to_string(), "head(c3 route [p2 p1])");
        assert_eq!(LinkWord::data(7, true).to_string(), "data(7, eop)");
    }
}
