//! Device configuration: the constants of the cost model.
//!
//! The defaults approximate the paper's NVIDIA Tesla K40 (Kepler GK110B). Absolute
//! milliseconds are not expected to match the authors' testbed — the constants are
//! chosen so that *relative* behaviour (who wins, where crossovers fall) is
//! preserved. Every constant is documented with the real K40 figure it models.

/// Simulated GPU device parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name for reports.
    pub name: &'static str,
    /// Streaming multiprocessors. K40: 15.
    pub sms: u32,
    /// Threads per warp. CUDA: 32.
    pub warp_size: u32,
    /// Core clock in GHz. K40 boost: 0.875, base 0.745.
    pub clock_ghz: f64,
    /// Shared memory per SM in bytes. K40: 48 KiB usable per block by default
    /// (the paper rounds the board figure to "64 KB"; 16 KiB is L1).
    pub smem_per_sm: u64,
    /// Hardware cap on resident blocks per SM. Kepler: 16.
    pub max_blocks_per_sm: u32,
    /// Hardware cap on resident warps per SM. Kepler: 64.
    pub max_warps_per_sm: u32,
    /// Cycles to issue one warp instruction. Kepler SMX retires roughly one
    /// instruction per warp scheduler per cycle; 1 keeps compute optimistic and
    /// makes memory the dominant term, as on the real device.
    pub issue_cycles: u64,
    /// Global-memory latency in cycles. Kepler: ~230.
    pub mem_latency: u64,
    /// Aggregate global-memory bandwidth in GB/s. K40: 288.
    pub mem_bandwidth_gbs: f64,
    /// Memory transaction granularity in bytes. CUDA: 128.
    pub transaction_bytes: u64,
}

impl DeviceConfig {
    /// The paper's evaluation device.
    pub fn k40() -> Self {
        Self {
            name: "sim-k40",
            sms: 15,
            warp_size: 32,
            clock_ghz: 0.745,
            smem_per_sm: 48 * 1024,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            issue_cycles: 1,
            mem_latency: 230,
            mem_bandwidth_gbs: 288.0,
            transaction_bytes: 128,
        }
    }

    /// A Tesla K80-like device (one GK210 die): more shared memory, slightly
    /// lower clock. Used by the cost-model sensitivity sweep.
    pub fn k80() -> Self {
        Self {
            name: "sim-k80",
            sms: 13,
            clock_ghz: 0.562,
            smem_per_sm: 112 * 1024,
            mem_bandwidth_gbs: 240.0,
            ..Self::k40()
        }
    }

    /// A Maxwell Titan X–like device: more SMs, smaller shared memory per SM,
    /// higher clock. Used by the cost-model sensitivity sweep.
    pub fn titan_x() -> Self {
        Self {
            name: "sim-titanx",
            sms: 24,
            clock_ghz: 1.0,
            smem_per_sm: 96 * 1024,
            max_blocks_per_sm: 32,
            mem_bandwidth_gbs: 336.0,
            mem_latency: 280,
            ..Self::k40()
        }
    }

    /// A deliberately pessimistic low-end device (few SMs, slow memory) for
    /// checking that relative results survive very different constants.
    pub fn low_end() -> Self {
        Self {
            name: "sim-lowend",
            sms: 4,
            clock_ghz: 0.6,
            smem_per_sm: 32 * 1024,
            mem_bandwidth_gbs: 80.0,
            mem_latency: 400,
            ..Self::k40()
        }
    }

    /// Per-SM bandwidth expressed in bytes per core cycle.
    pub(crate) fn bw_bytes_per_sm_cycle(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9 / (self.clock_ghz * 1e9) / self.sms as f64
    }

    /// Resident blocks per SM for a block needing `smem_block` bytes of shared
    /// memory and `warps_per_block` warps. Returns at least 1 if the block fits at
    /// all (a block larger than the SM's shared memory cannot launch: returns 0).
    pub(crate) fn occupancy_blocks(&self, smem_block: u64, warps_per_block: u32) -> u32 {
        if smem_block > self.smem_per_sm {
            return 0;
        }
        let by_smem =
            self.smem_per_sm.checked_div(smem_block).map_or(self.max_blocks_per_sm, |b| b as u32);
        let by_warps = if warps_per_block == 0 {
            self.max_blocks_per_sm
        } else {
            self.max_warps_per_sm / warps_per_block.min(self.max_warps_per_sm)
        };
        by_smem.min(by_warps).min(self.max_blocks_per_sm).max(1)
    }

    /// Convert cycles to milliseconds at the core clock.
    pub(crate) fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9) * 1e3
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::k40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_constants() {
        let c = DeviceConfig::k40();
        assert_eq!(c.sms, 15);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.smem_per_sm, 48 * 1024);
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let c = DeviceConfig::k40();
        // 12 KiB blocks -> 4 resident by shared memory.
        assert_eq!(c.occupancy_blocks(12 * 1024, 4), 4);
        // Tiny blocks -> capped by the hardware block limit.
        assert_eq!(c.occupancy_blocks(16, 1), 16);
        // Huge warp counts -> capped by the warp limit.
        assert_eq!(c.occupancy_blocks(16, 32), 2);
    }

    #[test]
    fn block_too_large_cannot_launch() {
        let c = DeviceConfig::k40();
        assert_eq!(c.occupancy_blocks(64 * 1024, 4), 0);
    }

    #[test]
    fn cycles_to_ms_at_clock() {
        let c = DeviceConfig::k40();
        let ms = c.cycles_to_ms(0.745e9);
        assert!((ms - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_per_sm_cycle() {
        let c = DeviceConfig::k40();
        // 288 GB/s over 15 SMs at 0.745 GHz ~= 25.8 B/cycle/SM.
        let bw = c.bw_bytes_per_sm_cycle();
        assert!(bw > 25.0 && bw < 26.5, "{bw}");
    }
}
