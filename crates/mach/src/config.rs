//! Full machine description: geometry plus timing and energy constants.

use crate::cluster::ClusterMode;
use crate::mesh::Mesh;

/// Timing constants for the analytical performance model, in cycles.
///
/// The defaults are in the ranges published for KNL-class manycores; the
/// evaluation only depends on their *relative* magnitudes (a DRAM access is
/// an order of magnitude slower than an L2 hit, which is several times slower
/// than an L1 hit, and every network hop adds latency).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Latency of one network-link traversal (router + wire).
    pub hop: f64,
    /// L1 hit latency.
    pub l1_hit: f64,
    /// L2 bank access latency (on top of the network trip to the bank).
    pub l2_hit: f64,
    /// Fast (on-package, MCDRAM-like) memory access latency at the controller.
    pub fast_mem: f64,
    /// Slow (off-package, DDR-like) memory access latency at the controller.
    pub slow_mem: f64,
    /// Fixed cost of one point-to-point synchronization.
    pub sync: f64,
    /// Cost of one add/sub/mul/logic operation.
    pub op: f64,
    /// Cost multiplier for a division (the paper's load-balancing model
    /// charges division 10× an addition/multiplication).
    pub div_factor: f64,
    /// Extra queueing delay per unit of link utilisation, modelling
    /// contention: a link that carried `u` flits adds `contention * u`
    /// cycles to the next message crossing it.
    pub contention: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            hop: 2.0,
            l1_hit: 3.0,
            l2_hit: 14.0,
            fast_mem: 120.0,
            slow_mem: 200.0,
            sync: 24.0,
            op: 1.0,
            div_factor: 10.0,
            contention: 0.35,
        }
    }
}

/// Energy constants (arbitrary units ≈ picojoules per event), CACTI/McPAT
/// style. Figure 24 of the paper reports *relative* savings, which depend on
/// event counts, not on the absolute scale of these constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy of moving one cache line across one link.
    pub link: f64,
    /// Energy of one L1 access.
    pub l1: f64,
    /// Energy of one L2 bank access.
    pub l2: f64,
    /// Energy of one fast-memory (MCDRAM) access.
    pub fast_mem: f64,
    /// Energy of one slow-memory (DDR) access.
    pub slow_mem: f64,
    /// Energy of one ALU operation.
    pub op: f64,
    /// Static/leakage energy per node per cycle of execution time.
    pub static_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            link: 6.0,
            l1: 1.0,
            l2: 4.5,
            fast_mem: 60.0,
            slow_mem: 110.0,
            op: 0.5,
            static_per_cycle: 0.02,
        }
    }
}

/// Everything the compiler and simulator need to know about the machine.
///
/// # Examples
///
/// ```
/// use dmcp_mach::MachineConfig;
///
/// let m = MachineConfig::knl_like();
/// assert_eq!(m.mesh.node_count(), 36);
/// assert_eq!(m.cache_line, 64);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// The mesh topology.
    pub mesh: Mesh,
    /// Cluster mode in effect.
    pub cluster: ClusterMode,
    /// Cache-line size in bytes.
    pub cache_line: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// Private L1 data-cache capacity per tile, in bytes.
    pub l1_bytes: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Shared L2 bank capacity per tile, in bytes.
    pub l2_bank_bytes: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Timing constants.
    pub latency: LatencyModel,
    /// Energy constants.
    pub energy: EnergyModel,
}

impl MachineConfig {
    /// A KNL-like 6×6-tile machine: 36 nodes, 64 B lines, 4 KiB pages,
    /// 32 KiB 8-way L1s and 1 MiB 16-way L2 banks, quadrant cluster mode.
    ///
    /// The caches are scaled down together with the workloads (the repo runs
    /// data sets of a few MiB rather than the paper's 0.7–3.3 GiB), keeping
    /// the cache-pressure ratios comparable.
    pub fn knl_like() -> Self {
        Self {
            mesh: Mesh::new(6, 6),
            cluster: ClusterMode::Quadrant,
            cache_line: 64,
            page_size: 4096,
            l1_bytes: 2 * 1024,
            l1_ways: 8,
            l2_bank_bytes: 64 * 1024,
            l2_ways: 16,
            latency: LatencyModel::default(),
            energy: EnergyModel::default(),
        }
    }

    /// Same machine with a different cluster mode.
    pub fn with_cluster(mut self, cluster: ClusterMode) -> Self {
        self.cluster = cluster;
        self
    }

    /// Same machine with a different mesh.
    pub fn with_mesh(mut self, mesh: Mesh) -> Self {
        self.mesh = mesh;
        self
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> u32 {
        (self.l1_bytes / self.cache_line / self.l1_ways).max(1)
    }

    /// Number of L2 sets per bank.
    pub fn l2_sets(&self) -> u32 {
        (self.l2_bank_bytes / self.cache_line / self.l2_ways).max(1)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::knl_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_like_geometry() {
        let m = MachineConfig::knl_like();
        assert_eq!(m.mesh.cols(), 6);
        assert_eq!(m.l1_sets() * m.l1_ways * m.cache_line, m.l1_bytes);
        assert_eq!(m.l1_sets() * m.l1_ways, 32);
    }

    #[test]
    fn builders_update_fields() {
        let m =
            MachineConfig::knl_like().with_cluster(ClusterMode::Snc4).with_mesh(Mesh::new(8, 8));
        assert_eq!(m.cluster, ClusterMode::Snc4);
        assert_eq!(m.mesh.node_count(), 64);
    }

    #[test]
    fn default_latency_orderings() {
        let l = LatencyModel::default();
        assert!(l.l1_hit < l.l2_hit);
        assert!(l.l2_hit < l.fast_mem);
        assert!(l.fast_mem < l.slow_mem);
        assert!(l.div_factor > 1.0);
    }

    #[test]
    fn default_energy_orderings() {
        let e = EnergyModel::default();
        assert!(e.l1 < e.l2);
        assert!(e.l2 < e.fast_mem);
        assert!(e.fast_mem < e.slow_mem);
    }

    #[test]
    fn config_is_default_constructible() {
        assert_eq!(MachineConfig::default(), MachineConfig::knl_like());
    }
}
