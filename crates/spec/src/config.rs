//! Global NoC configuration: data width, frequency, flit and slot geometry.

use crate::traffic::Bandwidth;
use core::fmt;

/// Parameters shared by every element of one aelite instance.
///
/// The paper fixes the flit size at **3 words** (one slot = one flit = 3
/// cycles) and evaluates data widths of 32–256 bits and frequencies up to
/// ~875 MHz. The slot-table size is a design-time choice made by the
/// allocation flow; all NIs in one NoC use the same table size
/// (Section III: "The TDM table has the same size (or period) throughout
/// the NoC").
///
/// # Examples
///
/// ```
/// use aelite_spec::config::NocConfig;
///
/// let cfg = NocConfig::paper_default();
/// assert_eq!(cfg.data_width_bits, 32);
/// assert_eq!(cfg.flit_words, 3);
/// assert_eq!(cfg.frequency_mhz, 500);
/// // Raw link capacity: 4 bytes * 500 MHz = 2 GB/s.
/// assert_eq!(cfg.raw_link_bandwidth().bytes_per_sec(), 2_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Link/data-path width in bits (one word/phit per cycle).
    pub data_width_bits: u32,
    /// Operating frequency of the (nominally equal) clocks, in MHz.
    pub frequency_mhz: u64,
    /// Words per flit; the paper assumes 3 throughout.
    pub flit_words: u32,
    /// TDM slot-table size (slots per revolution), identical NoC-wide.
    pub slot_table_size: u32,
    /// Per-connection NI receive buffer, in words, governing end-to-end
    /// flow-control credits.
    pub ni_buffer_words: u32,
    /// Mesochronous link pipeline stages per link (paper Section V). Each
    /// stage re-aligns flits to the reader's flit cycle and therefore
    /// costs one TDM slot, shifting downstream reservations accordingly.
    /// `0` models the directly-connected synchronous NoC of Section IV.
    pub link_pipeline_stages: u32,
}

impl NocConfig {
    /// The configuration of the paper's Section VII experiment:
    /// 32-bit data path, 500 MHz, 3-word flits.
    ///
    /// The slot-table size (64) and NI buffering are not stated in the
    /// paper; they are design-flow choices recorded here (a longer table
    /// gives finer bandwidth granularity at the same 3-cycle slot
    /// duration).
    #[must_use]
    pub const fn paper_default() -> Self {
        NocConfig {
            data_width_bits: 32,
            frequency_mhz: 500,
            flit_words: 3,
            slot_table_size: 64,
            ni_buffer_words: 24,
            link_pipeline_stages: 0,
        }
    }

    /// The paper configuration with one mesochronous pipeline stage on
    /// every link (the complete router-with-links of Section V).
    #[must_use]
    pub const fn paper_mesochronous() -> Self {
        let mut cfg = NocConfig::paper_default();
        cfg.link_pipeline_stages = 1;
        cfg
    }

    /// Slots of TDM shift contributed by each link along a path: the link
    /// itself plus its pipeline stages.
    #[must_use]
    pub const fn slots_per_hop(&self) -> u32 {
        1 + self.link_pipeline_stages
    }

    /// Data-path width in whole bytes.
    ///
    /// # Panics
    ///
    /// Panics if the width is not a multiple of 8 bits.
    #[must_use]
    pub fn data_width_bytes(&self) -> u32 {
        assert!(
            self.data_width_bits.is_multiple_of(8),
            "data width must be a whole number of bytes"
        );
        self.data_width_bits / 8
    }

    /// Raw link bandwidth: one word per cycle, headers included.
    #[must_use]
    pub fn raw_link_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            u64::from(self.data_width_bytes()) * self.frequency_mhz * 1_000_000,
        )
    }

    /// Payload words per flit under the conservative single-flit-packet
    /// assumption used for allocation: every flit carries one header word.
    ///
    /// Longer packets amortise the header over more flits; allocation uses
    /// this floor so that contracts hold for any packetisation.
    #[must_use]
    pub fn payload_words_per_flit(&self) -> u32 {
        self.flit_words - 1
    }

    /// Duration of one TDM slot, in clock cycles (= words per flit).
    #[must_use]
    pub fn slot_cycles(&self) -> u32 {
        self.flit_words
    }

    /// Guaranteed payload bandwidth of a single reserved slot.
    ///
    /// One slot delivers [`payload_words_per_flit`](Self::payload_words_per_flit)
    /// words every table revolution.
    #[must_use]
    pub fn slot_payload_bandwidth(&self) -> Bandwidth {
        let bytes_per_rev =
            u64::from(self.payload_words_per_flit()) * u64::from(self.data_width_bytes());
        let table_cycles = self.slot_table_size * self.slot_cycles();
        let revs_per_sec = self.frequency_mhz * 1_000_000 / u64::from(table_cycles);
        Bandwidth::from_bytes_per_sec(bytes_per_rev * revs_per_sec)
    }

    /// The minimum number of slots delivering at least `required`
    /// bandwidth.
    ///
    /// # Examples
    ///
    /// ```
    /// use aelite_spec::config::NocConfig;
    /// use aelite_spec::traffic::Bandwidth;
    ///
    /// let cfg = NocConfig::paper_default();
    /// // One slot carries ~20.8 MB/s at the paper's configuration.
    /// assert_eq!(cfg.slots_for(Bandwidth::from_mbytes_per_sec(10)), 1);
    /// assert_eq!(cfg.slots_for(Bandwidth::from_mbytes_per_sec(100)), 5);
    /// ```
    #[must_use]
    pub fn slots_for(&self, required: Bandwidth) -> u32 {
        let per_slot = self.slot_payload_bandwidth().bytes_per_sec();
        let needed = required.bytes_per_sec();
        u32::try_from(needed.div_ceil(per_slot)).expect("slot count overflows u32")
    }

    /// One clock cycle in nanoseconds (fractional).
    #[must_use]
    pub fn cycle_ns(&self) -> f64 {
        1_000.0 / self.frequency_mhz as f64
    }

    /// Returns a copy with a different operating frequency — used by the
    /// frequency sweeps of the evaluation.
    #[must_use]
    pub fn at_frequency(mut self, frequency_mhz: u64) -> Self {
        self.frequency_mhz = frequency_mhz;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint: zero
    /// sizes, non-byte width, or a flit too small to carry a header plus
    /// any payload.
    pub fn validate(&self) -> Result<(), String> {
        if self.data_width_bits == 0 || !self.data_width_bits.is_multiple_of(8) {
            return Err(format!(
                "data width {} must be a non-zero multiple of 8 bits",
                self.data_width_bits
            ));
        }
        if self.frequency_mhz == 0 {
            return Err("frequency must be non-zero".into());
        }
        if self.flit_words < 2 {
            return Err(format!(
                "flit of {} words cannot carry a header and payload",
                self.flit_words
            ));
        }
        if self.slot_table_size == 0 {
            return Err("slot table must have at least one slot".into());
        }
        if self.ni_buffer_words < self.flit_words {
            return Err(format!(
                "NI buffer of {} words cannot hold one {}-word flit",
                self.ni_buffer_words, self.flit_words
            ));
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper_default()
    }
}

impl fmt::Display for NocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit @ {} MHz, {}-word flits, {} slots",
            self.data_width_bits, self.frequency_mhz, self.flit_words, self.slot_table_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert_eq!(NocConfig::paper_default().validate(), Ok(()));
    }

    #[test]
    fn slot_bandwidth_matches_hand_calculation() {
        let cfg = NocConfig::paper_default();
        // 2 payload words * 4 bytes = 8 bytes per revolution of 192 cycles.
        // 500e6 / 192 = 2,604,166 revs/s * 8 B = 20,833,328 B/s.
        assert_eq!(cfg.slot_payload_bandwidth().bytes_per_sec(), 20_833_328);
    }

    #[test]
    fn slots_for_rounds_up() {
        let cfg = NocConfig::paper_default();
        let per_slot = cfg.slot_payload_bandwidth();
        assert_eq!(cfg.slots_for(per_slot), 1);
        assert_eq!(
            cfg.slots_for(Bandwidth::from_bytes_per_sec(per_slot.bytes_per_sec() + 1)),
            2
        );
        // 500 MB/s / 20,833,328 B/s-per-slot = 24.0000015 -> 25 slots.
        assert_eq!(cfg.slots_for(Bandwidth::from_mbytes_per_sec(500)), 25);
    }

    #[test]
    fn cycle_ns_at_500mhz() {
        assert!((NocConfig::paper_default().cycle_ns() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn at_frequency_changes_only_frequency() {
        let base = NocConfig::paper_default();
        let fast = base.at_frequency(900);
        assert_eq!(fast.frequency_mhz, 900);
        assert_eq!(fast.data_width_bits, base.data_width_bits);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = NocConfig::paper_default();
        c.data_width_bits = 12;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_default();
        c.flit_words = 1;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_default();
        c.slot_table_size = 0;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_default();
        c.ni_buffer_words = 2;
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_default();
        c.frequency_mhz = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_summarises_geometry() {
        let s = NocConfig::paper_default().to_string();
        assert!(s.contains("32-bit"), "{s}");
        assert!(s.contains("500 MHz"), "{s}");
    }
}
