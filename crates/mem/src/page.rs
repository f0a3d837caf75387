//! Virtual→physical page translation with colour-preserving allocation.
//!
//! The paper modifies the OS page-allocation API so that the cache-bank and
//! memory-channel bits of a virtual address survive translation; this is what
//! lets the compiler infer on-chip data location from virtual addresses
//! (Section 4.1). [`PagePolicy::ColorPreserving`] models that modified
//! allocator; [`PagePolicy::Scramble`] models a stock allocator and is used
//! as an ablation (location detection then fails for everything above the
//! page offset).

use crate::addr::{AddressMap, PhysAddr, VirtAddr};
use std::collections::HashMap;

/// Physical page allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// The paper's modified OS API: the allocated physical page has the
    /// same colour — every location-determining bit: memory-channel bits
    /// plus the bank-hash group — as the virtual page, so the compiler can
    /// read data locations off virtual addresses.
    #[default]
    ColorPreserving,
    /// A stock allocator: physical pages are handed out in a
    /// colour-oblivious (deterministically scrambled) order.
    Scramble,
}

/// The physical-frame allocator behind every page table: hands out one
/// physical page number per call, in a deterministic order, under a
/// [`PagePolicy`]. [`PageTable`] calls it on each first touch; a layout
/// that allocates every page eagerly calls it in the same order and keeps
/// the frames in a dense table instead.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    map: AddressMap,
    policy: PagePolicy,
    /// Next free physical page per colour (colour-preserving) — entry `c`
    /// hands out pages whose channel bits equal `c`.
    next_by_color: Vec<u64>,
    /// Next free physical page (scramble policy).
    next_any: u64,
}

impl FrameAllocator {
    /// An allocator with every frame free.
    pub fn new(map: AddressMap, policy: PagePolicy) -> Self {
        Self { map, policy, next_by_color: vec![0; 1 << map.color_bits()], next_any: 0 }
    }

    /// The allocation policy in effect.
    pub fn policy(&self) -> PagePolicy {
        self.policy
    }

    /// Allocates the physical page for virtual page `vpn`.
    pub fn allocate(&mut self, vpn: u64) -> u64 {
        let color_bits = u64::from(self.map.color_bits());
        match self.policy {
            PagePolicy::ColorPreserving => {
                let color = self.map.color_of_page(vpn);
                let seq = self.next_by_color[color as usize];
                self.next_by_color[color as usize] = seq + 1;
                // Physical page = sequence number in the high bits, colour
                // (channel + bank-hash bits) preserved from the VA.
                (seq << color_bits) | color
            }
            PagePolicy::Scramble => {
                let seq = self.next_any;
                self.next_any += 1;
                // A fixed odd multiplier scrambles the colour deterministically.
                seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
            }
        }
    }
}

/// A demand-paging page table.
///
/// Pages are allocated on first touch. The table is deterministic: the same
/// sequence of translations always yields the same mapping, so experiments
/// are reproducible.
///
/// # Examples
///
/// ```
/// use dmcp_mem::{AddressMap, VirtAddr};
/// use dmcp_mem::page::{PagePolicy, PageTable};
///
/// let map = AddressMap::new(64, 4096, 36);
/// let mut pt = PageTable::new(map, PagePolicy::ColorPreserving);
/// let pa = pt.translate(VirtAddr::new(0x7000));
/// assert_eq!(map.channel_of_phys(pa), 0x7 & 0b11);
/// ```
#[derive(Clone, Debug)]
pub struct PageTable {
    map: AddressMap,
    frames: FrameAllocator,
    entries: HashMap<u64, u64>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new(map: AddressMap, policy: PagePolicy) -> Self {
        Self { map, frames: FrameAllocator::new(map, policy), entries: HashMap::new() }
    }

    /// The allocation policy in effect.
    pub fn policy(&self) -> PagePolicy {
        self.frames.policy()
    }

    /// Translates a virtual address, allocating the page on first touch.
    pub fn translate(&mut self, va: VirtAddr) -> PhysAddr {
        let vpn = self.map.virt_page(va);
        let ppn = *self.entries.entry(vpn).or_insert_with(|| self.frames.allocate(vpn));
        self.map.compose(ppn, self.map.page_offset(va.raw()))
    }

    /// Translates without allocating; `None` if the page was never touched.
    pub fn lookup(&self, va: VirtAddr) -> Option<PhysAddr> {
        let vpn = self.map.virt_page(va);
        self.entries.get(&vpn).map(|&ppn| self.map.compose(ppn, self.map.page_offset(va.raw())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(64, 4096, 36)
    }

    #[test]
    fn color_preserving_keeps_channel_bits() {
        let m = map();
        let mut pt = PageTable::new(m, PagePolicy::ColorPreserving);
        for vpn in 0..64u64 {
            let va = VirtAddr::new(vpn << 12);
            let pa = pt.translate(va);
            assert_eq!(m.channel_of_phys(pa), m.channel_of_virt(va), "vpn {vpn}");
        }
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(map(), PagePolicy::ColorPreserving);
        let va = VirtAddr::new(0xABCDE);
        let first = pt.translate(va);
        let second = pt.translate(va);
        assert_eq!(first, second);
    }

    #[test]
    fn offsets_pass_through() {
        let mut pt = PageTable::new(map(), PagePolicy::Scramble);
        let pa = pt.translate(VirtAddr::new(0x3_0ABC));
        assert_eq!(pa.raw() & 0xFFF, 0xABC);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new(map(), PagePolicy::ColorPreserving);
        let m = map();
        let mut frames = std::collections::HashSet::new();
        for vpn in 0..256u64 {
            let pa = pt.translate(VirtAddr::new(vpn << 12));
            assert!(frames.insert(m.phys_page(pa)), "frame reused for vpn {vpn}");
        }
    }

    #[test]
    fn scramble_breaks_colors() {
        let m = map();
        let mut pt = PageTable::new(m, PagePolicy::Scramble);
        let mismatches = (0..64u64)
            .filter(|&vpn| {
                let va = VirtAddr::new(vpn << 12);
                let pa = pt.translate(va);
                m.channel_of_phys(pa) != m.channel_of_virt(va)
            })
            .count();
        assert!(mismatches > 16, "scramble policy preserved too many colours");
    }

    #[test]
    fn lookup_does_not_allocate() {
        let mut pt = PageTable::new(map(), PagePolicy::ColorPreserving);
        assert!(pt.lookup(VirtAddr::new(0x5000)).is_none());
        assert!(pt.lookup(VirtAddr::new(0x5abc)).is_none(), "the first lookup mapped the page");
        pt.translate(VirtAddr::new(0x5000));
        assert!(pt.lookup(VirtAddr::new(0x5abc)).is_some());
        assert!(pt.lookup(VirtAddr::new(0x6000)).is_none(), "translating mapped a second page");
    }
}
