//! Addresses and the physical-address mapping of the paper's Figure 2.
//!
//! Two mapping granularities coexist:
//!
//! - **cache-line granularity** over L2 banks: the bank index is taken from
//!   the bits just above the line offset (Figure 2a uses bits 6–10 for 32
//!   banks);
//! - **page granularity** over memory channels: the channel id is taken from
//!   the bits just above the page offset (Figure 2b uses bits 12–13 for 4
//!   channels).

use dmcp_mach::MachineConfig;
use std::fmt;

/// A virtual address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// A physical cache-line address (physical address with the line offset
/// stripped), the unit tracked by caches and moved over the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

macro_rules! addr_impl {
    ($t:ident, $tag:literal) => {
        impl $t {
            /// Wraps a raw address value.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw address value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $t {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

addr_impl!(VirtAddr, "va");
addr_impl!(PhysAddr, "pa");
addr_impl!(LineAddr, "line");

/// Bit-field layout of the physical address space for a given machine.
///
/// # Examples
///
/// ```
/// use dmcp_mach::MachineConfig;
/// use dmcp_mem::{AddressMap, PhysAddr};
///
/// let map = AddressMap::for_machine(&MachineConfig::knl_like());
/// // 64-byte lines -> the bank index starts at bit 6 (Figure 2a).
/// assert_eq!(map.line_bits(), 6);
/// let pa = PhysAddr::new(0b10_1100_0000); // bank bits = 0b1011
/// assert_eq!(map.bank_of(pa), 0b1011 % 36);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AddressMap {
    line_bits: u32,
    page_bits: u32,
    banks: u32,
    bank_bits: u32,
    channels: u32,
    channel_bits: u32,
}

impl AddressMap {
    /// Number of memory channels modelled (one per corner controller).
    pub const CHANNELS: u32 = 4;

    /// Builds the layout implied by a machine configuration: line offset from
    /// the cache-line size, page offset from the page size, one L2 bank per
    /// tile and four channels.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        Self::new(machine.cache_line, machine.page_size, machine.mesh.node_count())
    }

    /// Builds a layout from raw geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cache_line` or `page_size` are not powers of two, or if the
    /// page is not larger than the line.
    pub fn new(cache_line: u32, page_size: u32, banks: u32) -> Self {
        assert!(cache_line.is_power_of_two(), "cache line must be a power of two");
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        assert!(page_size > cache_line, "page must be larger than a cache line");
        assert!(banks > 0, "need at least one L2 bank");
        Self {
            line_bits: cache_line.trailing_zeros(),
            page_bits: page_size.trailing_zeros(),
            banks,
            bank_bits: banks.next_power_of_two().trailing_zeros().max(1),
            channels: Self::CHANNELS,
            channel_bits: Self::CHANNELS.trailing_zeros(),
        }
    }

    /// Position of the lowest bank-index bit (== log2 of the line size).
    pub const fn line_bits(self) -> u32 {
        self.line_bits
    }

    /// Position of the lowest channel bit (== log2 of the page size).
    pub const fn page_bits(self) -> u32 {
        self.page_bits
    }

    /// Number of L2 banks.
    pub const fn banks(self) -> u32 {
        self.banks
    }

    /// Number of memory channels.
    pub const fn channels(self) -> u32 {
        self.channels
    }

    /// Cache line containing a physical address.
    pub fn line_of(self, pa: PhysAddr) -> LineAddr {
        LineAddr(pa.0 >> self.line_bits)
    }

    /// First physical address of a line.
    pub fn line_base(self, line: LineAddr) -> PhysAddr {
        PhysAddr(line.0 << self.line_bits)
    }

    /// Virtual page number of a virtual address.
    pub fn virt_page(self, va: VirtAddr) -> u64 {
        va.0 >> self.page_bits
    }

    /// Physical page number of a physical address.
    pub fn phys_page(self, pa: PhysAddr) -> u64 {
        pa.0 >> self.page_bits
    }

    /// Byte offset within the page.
    pub fn page_offset(self, raw: u64) -> u64 {
        raw & ((1 << self.page_bits) - 1)
    }

    /// L2 bank index of a physical line: cache-line-granularity mapping
    /// taken from the bits just above the line offset (Figure 2a), with the
    /// next bit-group XOR-folded in (real NUCA designs hash the bank index
    /// so power-of-two strides — e.g. matrix columns exactly a page apart —
    /// do not camp on a single bank), folded modulo the bank count.
    pub fn bank_of(self, pa: PhysAddr) -> u32 {
        let line = pa.0 >> self.line_bits;
        let mask = (1u64 << self.bank_bits) - 1;
        let idx = (line & mask) ^ ((line >> self.bank_bits) & mask);
        (idx % u64::from(self.banks)) as u32
    }

    /// Memory channel of a physical address: page-granularity mapping from
    /// the bits just above the page offset (Figure 2b).
    pub fn channel_of_phys(self, pa: PhysAddr) -> u32 {
        ((pa.0 >> self.page_bits) & ((1 << self.channel_bits) - 1)) as u32
    }

    /// The channel the *virtual* address would map to if translation
    /// preserved the channel bits — what the compiler reads off the virtual
    /// address under the paper's OS support.
    pub fn channel_of_virt(self, va: VirtAddr) -> u32 {
        ((va.0 >> self.page_bits) & ((1 << self.channel_bits) - 1)) as u32
    }

    /// The page *colour*: every location-determining bit of the page number
    /// — the channel bits plus the bank-hash group — i.e. exactly what the
    /// paper's modified OS allocator must preserve so the compiler can read
    /// data locations off virtual addresses.
    pub fn color_of_page(self, page_number: u64) -> u64 {
        page_number & ((1 << self.color_bits()) - 1)
    }

    /// Number of low page-number bits that determine on-chip location.
    pub fn color_bits(self) -> u32 {
        self.channel_bits.max(self.bank_bits)
    }

    /// Rebuilds a physical address from a physical page number and an
    /// in-page offset.
    pub fn compose(self, phys_page: u64, offset: u64) -> PhysAddr {
        debug_assert!(offset < (1 << self.page_bits));
        PhysAddr((phys_page << self.page_bits) | offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(64, 4096, 36)
    }

    #[test]
    fn figure_2a_bank_bits_start_at_bit_6() {
        let m = map();
        assert_eq!(m.line_bits(), 6);
        // Address with bank-index bits 0b00101 just above the line offset
        // (upper hash group zero, so the raw field shows through).
        let pa = PhysAddr::new(0b101 << 6);
        assert_eq!(m.bank_of(pa), 0b101);
    }

    #[test]
    fn bank_hashing_breaks_page_strides() {
        // Elements exactly one page apart (stride 64 lines) must not all
        // land in the same bank.
        let m = map();
        let banks: std::collections::HashSet<_> =
            (0..32u64).map(|i| m.bank_of(PhysAddr::new(i * 4096))).collect();
        assert!(banks.len() > 8, "page-stride camping: {banks:?}");
    }

    #[test]
    fn figure_2b_channel_bits_start_at_bit_12() {
        let m = map();
        assert_eq!(m.page_bits(), 12);
        let pa = PhysAddr::new(0b10 << 12);
        assert_eq!(m.channel_of_phys(pa), 0b10);
    }

    #[test]
    fn bank_folds_modulo_bank_count() {
        let m = map(); // 36 banks -> 6 bank bits (0..63), folded mod 36
        for i in 0..1024u64 {
            assert!(m.bank_of(PhysAddr::new(i << 6)) < 36);
        }
    }

    #[test]
    fn line_roundtrip() {
        let m = map();
        let pa = PhysAddr::new(0xdead_beef);
        let line = m.line_of(pa);
        assert_eq!(m.line_base(line).raw(), 0xdead_beef & !63);
    }

    #[test]
    fn same_line_same_bank() {
        let m = map();
        let a = PhysAddr::new(0x1000);
        let b = PhysAddr::new(0x103f);
        assert_eq!(m.line_of(a), m.line_of(b));
        assert_eq!(m.bank_of(a), m.bank_of(b));
    }

    #[test]
    fn compose_inverts_page_split() {
        let m = map();
        let pa = PhysAddr::new(0x1234_5678);
        assert_eq!(m.compose(m.phys_page(pa), m.page_offset(pa.raw())), pa);
    }

    #[test]
    fn color_covers_channel_and_bank_hash_bits() {
        let m = map();
        // 36 banks -> 6 bank-hash bits; channel bits are a subset.
        assert_eq!(m.color_bits(), 6);
        assert_eq!(m.color_of_page(0b101_1011), 0b01_1011);
        assert_eq!(m.channels(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_line_panics() {
        let _ = AddressMap::new(48, 4096, 36);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(VirtAddr::new(0xff).to_string(), "0xff");
        assert_eq!(format!("{:x}", PhysAddr::new(0xab)), "ab");
        assert_eq!(format!("{:?}", LineAddr::new(2)), "line(0x2)");
    }
}
