//! Execution statistics of the simulated device.

/// Counters accumulated by a [`crate::Device`] over its lifetime.
///
/// The benchmark harness reports these alongside wall-clock times so that
/// runs can be compared in hardware-independent terms (number of kernel
/// launches, number of data-parallel rows processed, hash-set insertions),
/// mirroring the `# REs` column of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Number of kernel launches issued.
    pub kernel_launches: u64,
    /// Total number of rows (candidates) executed across all launches.
    /// Rows, not warps: the padding rows of a launch's last warp are not
    /// counted.
    pub items_executed: u64,
    /// Number of insertions attempted on device hash sets.
    pub hash_insertions: u64,
}

impl DeviceStats {
    /// Returns a zeroed statistics record.
    pub fn new() -> Self {
        DeviceStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let s = DeviceStats::new();
        assert_eq!(s.kernel_launches, 0);
        assert_eq!(s.items_executed, 0);
        assert_eq!(s.hash_insertions, 0);
    }
}
