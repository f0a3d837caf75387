//! Memory-system model: address mapping, SNUCA home lookup, page colouring,
//! cache models, memory modes and the compile-time miss predictor.
//!
//! This crate provides everything the partitioning compiler of the paper
//! needs to answer the question *"which node holds this datum?"* (Section 4.1,
//! "data location detection") and everything the simulator needs to model the
//! cache/memory behaviour of a schedule:
//!
//! - [`addr`] — physical/virtual addresses and the two mapping granularities
//!   of the paper's Figure 2: cache-line-granularity mapping onto L2 banks
//!   and page-granularity mapping onto memory channels;
//! - [`page`] — the frame allocator with the colour-preserving allocation
//!   policy the paper obtains from its modified OS API (bank/channel bits
//!   survive the VA→PA translation), plus a randomising policy for
//!   ablation, and a demand-paging page table over it;
//! - [`snuca`] — the static-NUCA home-bank and memory-controller lookup;
//! - [`cache`] — a set-associative LRU cache model used for both L1s and L2
//!   banks;
//! - [`memmode`] — KNL-style memory modes (flat / cache / hybrid MCDRAM);
//! - [`predictor`] — the reuse-distance-based L2 hit/miss predictor the
//!   compiler consults when locating data, over dense line ids (paper
//!   Table 2 measures its accuracy).
//!
//! # Examples
//!
//! ```
//! use dmcp_mach::MachineConfig;
//! use dmcp_mem::{AddressMap, Snuca, VirtAddr};
//! use dmcp_mem::page::{PagePolicy, PageTable};
//!
//! let machine = MachineConfig::knl_like();
//! let map = AddressMap::for_machine(&machine);
//! let mut pages = PageTable::new(map, PagePolicy::ColorPreserving);
//! let snuca = Snuca::new(machine.mesh, machine.cluster, map);
//!
//! let va = VirtAddr::new(0x4_2040);
//! let pa = pages.translate(va);
//! // Colour preservation keeps the channel bits intact.
//! assert_eq!(map.channel_of_phys(pa), map.channel_of_virt(va));
//! let _home = snuca.home_node(pa, dmcp_mach::NodeId::new(0, 0));
//! ```

pub mod addr;
pub mod cache;
pub mod memmode;
pub mod page;
pub mod predictor;
pub mod snuca;

pub use addr::{AddressMap, LineAddr, PhysAddr, VirtAddr};
pub use cache::{AccessOutcome, Cache};
pub use memmode::{MemTier, MemoryMode, MemorySystem};
pub use page::{FrameAllocator, PagePolicy, PageTable};
pub use predictor::MissPredictor;
pub use snuca::Snuca;
