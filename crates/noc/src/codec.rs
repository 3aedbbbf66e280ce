//! Physical wire format: packing header words into raw data bits.
//!
//! The simulator operates on the logical [`crate::phit::Header`]
//! for clarity, but the paper's router is a real circuit whose header must
//! fit the data word. This module defines that layout and lets the
//! synthesis model reason about field widths.
//!
//! What the round-trip tests (property-based ones included) prove is
//! narrower than "every header is encodable": a header of at most
//! [`route_capacity_hops`] hops with a connection index below 256 packs
//! and unpacks losslessly, and any other header is refused with a
//! [`CodecError`]. Nothing checks that the headers the models build
//! fit. The NI puts the global connection id in the header, and the
//! allocator does not bound route length by the word. A probe of the
//! 8×8 mesh with 1 000 uniform connections (`MESH8_UNIFORM`, seed 1,
//! default 32-bit configuration) found paths through 14 routers, 85 of
//! 1 000 grants over the 8-hop capacity, and 744 connection ids above
//! 255. ROADMAP item 16 filters such routes and moves the connection
//! field to a per-NI queue index.
//!
//! ## Layout (for a `w`-bit data word)
//!
//! ```text
//!  w-1        w-8 w-9                        0
//! ┌──────────────┬───────────────────────────┐
//! │ conn id (8b) │ route, 3b per hop, hop 0  │
//! │              │ in the least-significant  │
//! └──────────────┴───────────────────────────┘
//! ```
//!
//! * The route field holds `(w - 8) / 3` hops: 8 hops for the paper's
//!   32-bit configuration, 82 for 256-bit. Unused route bits are zero and
//!   harmless because the HPU only pops as many hops as the path has.
//! * End-to-end flow-control credits are **not** in this header: like
//!   Æthereal, aelite piggybacks credits on reverse-direction headers; our
//!   behavioural models account for them out of band with a configurable
//!   return delay (see the [`ni`](crate::ni) module docs), so the wire
//!   format reserves no bits for them.

use crate::phit::{Header, RouteBits};
use aelite_spec::ids::ConnId;
use core::fmt;

/// Errors from packing a header into a data word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The route needs more hops than the word has route bits.
    RouteTooLong {
        /// Hops in the route.
        hops: usize,
        /// Hops the word can carry.
        capacity: usize,
    },
    /// The connection id exceeds the 8-bit field.
    ConnTooLarge {
        /// The offending connection index.
        conn: u32,
    },
    /// The data word is too narrow to hold any header.
    WordTooNarrow {
        /// The offending width in bits.
        width_bits: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::RouteTooLong { hops, capacity } => {
                write!(
                    f,
                    "route of {hops} hops exceeds word capacity of {capacity}"
                )
            }
            CodecError::ConnTooLarge { conn } => {
                write!(f, "connection id {conn} exceeds the 8-bit header field")
            }
            CodecError::WordTooNarrow { width_bits } => {
                write!(f, "{width_bits}-bit words cannot carry a header")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Route hops a `width_bits`-wide header word can carry.
///
/// The physical field is `width_bits - 8` bits (3 bits per hop); this
/// simulator models word contents in a `u64`, so the modelled capacity is
/// additionally capped at 18 hops, the whole hops that fit the 56 route
/// bits below the connection byte. That cap binds only for words of 65
/// bits and wider. The width-derived capacity does bind: it is 8 hops at
/// the default 32 bits, and allocated paths reach 14 routers on an 8×8
/// mesh (see the [module docs](self)).
#[must_use]
pub fn route_capacity_hops(width_bits: u32) -> usize {
    ((width_bits.saturating_sub(8) / 3) as usize).min(18)
}

/// Packs `header` into the raw bits of a `width_bits`-wide data word.
///
/// Only the low `width_bits` of the returned value are meaningful. Words
/// wider than 64 bits would need a wider return type in RTL; this model
/// keeps the connection byte at bit 56 and caps routes at 18 hops (see
/// [`route_capacity_hops`]). That is fewer than the
/// [`MAX_ROUTE_HOPS`] a [`RouteBits`] holds, so a long route can fail to
/// pack at any width, and at the default 32 bits any route over 8 hops
/// fails.
///
/// # Errors
///
/// Returns a [`CodecError`] when the header does not fit the word.
///
/// [`MAX_ROUTE_HOPS`]: crate::phit::MAX_ROUTE_HOPS
pub fn pack_header(header: &Header, width_bits: u32) -> Result<u64, CodecError> {
    if width_bits < 16 {
        return Err(CodecError::WordTooNarrow { width_bits });
    }
    let capacity = route_capacity_hops(width_bits);
    if header.route.remaining() > capacity {
        return Err(CodecError::RouteTooLong {
            hops: header.route.remaining(),
            capacity,
        });
    }
    let conn = header.conn.index() as u32;
    if conn > 0xFF {
        return Err(CodecError::ConnTooLarge { conn });
    }
    // Route bits occupy the low `width_bits - 8` bits, the connection id
    // the top byte. In the u64 model the conn byte sits at bit 56 for
    // words wider than 64 bits (see `route_capacity_hops`).
    let shift = (width_bits - 8).min(56);
    Ok(header.route.raw_bits() | (u64::from(conn) << shift))
}

/// Unpacks a header from raw bits, given the route length in hops.
///
/// The route length is not stored in the word (the HPU never needs it: it
/// pops exactly one hop per router, and the packet leaves the network when
/// it reaches an NI), so decoding for inspection requires it.
///
/// # Errors
///
/// Returns a [`CodecError`] when `hops` exceeds the word's route capacity.
pub fn unpack_header(bits: u64, width_bits: u32, hops: usize) -> Result<Header, CodecError> {
    if width_bits < 16 {
        return Err(CodecError::WordTooNarrow { width_bits });
    }
    if hops > route_capacity_hops(width_bits) {
        return Err(CodecError::RouteTooLong {
            hops,
            capacity: route_capacity_hops(width_bits),
        });
    }
    let conn_shift = (width_bits - 8).min(56);
    let conn = ((bits >> conn_shift) & 0xFF) as u32;
    let route_mask = (1u64 << conn_shift) - 1;
    let route_bits = bits & route_mask;
    let mut ports = Vec::with_capacity(hops);
    for i in 0..hops {
        ports.push(aelite_spec::ids::Port(
            ((route_bits >> (3 * i)) & 0b111) as u8,
        ));
    }
    Ok(Header {
        route: RouteBits::from_ports(&ports),
        conn: ConnId::new(conn),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::ids::Port;

    fn header(ports: &[Port], conn: u32) -> Header {
        Header {
            route: RouteBits::from_ports(ports),
            conn: ConnId::new(conn),
        }
    }

    #[test]
    fn capacity_matches_paper_widths() {
        assert_eq!(route_capacity_hops(32), 8);
        assert_eq!(route_capacity_hops(64), 18);
        // Wider words are capped by the u64 model (physically 40 and 82).
        assert_eq!(route_capacity_hops(128), 18);
        assert_eq!(route_capacity_hops(256), 18);
    }

    #[test]
    fn wide_word_roundtrip_with_large_conn_id() {
        // Regression: conn ids used to overflow the u64 model for words
        // wider than 64 bits.
        for width in [64u32, 128, 256] {
            let h = header(&[Port(5); 10], 255);
            let bits = pack_header(&h, width).expect("fits");
            let back = unpack_header(bits, width, 10).expect("unpacks");
            assert_eq!(back, h, "width {width}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip_32bit() {
        let h = header(&[Port(3), Port(0), Port(7), Port(1)], 42);
        let bits = pack_header(&h, 32).unwrap();
        let back = unpack_header(bits, 32, 4).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn packed_word_fits_width() {
        let h = header(&[Port(7); 8], 255);
        let bits = pack_header(&h, 32).unwrap();
        assert!(bits < (1u64 << 32), "{bits:#x} exceeds 32 bits");
    }

    #[test]
    fn route_too_long_for_narrow_word() {
        let h = header(&[Port(1); 9], 0);
        assert_eq!(
            pack_header(&h, 32),
            Err(CodecError::RouteTooLong {
                hops: 9,
                capacity: 8
            })
        );
        // The same route fits a 64-bit word.
        assert!(pack_header(&h, 64).is_ok());
    }

    #[test]
    fn conn_id_limited_to_8_bits() {
        let h = header(&[Port(1)], 256);
        assert_eq!(
            pack_header(&h, 32),
            Err(CodecError::ConnTooLarge { conn: 256 })
        );
    }

    #[test]
    fn word_too_narrow() {
        let h = header(&[Port(1)], 0);
        assert!(matches!(
            pack_header(&h, 8),
            Err(CodecError::WordTooNarrow { .. })
        ));
        assert!(matches!(
            unpack_header(0, 8, 0),
            Err(CodecError::WordTooNarrow { .. })
        ));
    }

    #[test]
    fn partially_consumed_route_still_packs() {
        // After a router pops a hop, the shifted header must re-encode.
        let mut h = header(&[Port(3), Port(5), Port(2)], 9);
        let _ = h.route.pop_port();
        let bits = pack_header(&h, 32).unwrap();
        let back = unpack_header(bits, 32, 2).unwrap();
        assert_eq!(back.route, h.route);
        assert_eq!(back.conn, h.conn);
    }

    #[test]
    fn error_display() {
        let e = CodecError::RouteTooLong {
            hops: 9,
            capacity: 8,
        };
        assert!(e.to_string().contains('9'));
        assert!(CodecError::WordTooNarrow { width_bits: 8 }
            .to_string()
            .contains('8'));
    }
}
