//! Pipeline-aware secure memory management ("extend and shrink", §4.2).
//!
//! The TEE OS exposes three calls to the LLM TA for scaling a TZASC-protected
//! region:
//!
//! * `extend_allocated(region, size)` — ask the REE TZ driver to allocate
//!   `size` bytes from the associated CMA pool, adjacent to what is already
//!   allocated.  The new memory is *not yet protected*: the REE file system
//!   can DMA encrypted parameters straight into it, avoiding bounce buffers.
//! * `extend_protected(region, size)` — extend the TZASC region over
//!   previously allocated-but-unprotected memory and map it into the TA.
//! * `shrink(region, size)` — scrub, unmap, un-protect and return memory to
//!   the CMA pool from the end of the region.
//!
//! The TEE OS validates everything the untrusted TZ driver reports:
//! returned blocks must be exactly adjacent to the previous allocation
//! (otherwise the CMA reply is rejected — the Iago defence of §6).

use std::sync::Arc;

use sim_core::SimDuration;
use tz_hal::{DeviceId, PhysRange, Platform, RegionId, World, PAGE_SIZE};

use ree_kernel::{CmaPool, TzDriver};

use crate::ta::{TaId, TaRegistry};

/// Errors from the secure-memory scaling interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalingError {
    /// The CMA reply was not adjacent to the previously allocated memory —
    /// either fragmentation the driver failed to hide or an Iago attack.
    NonContiguousReply {
        /// What the TEE expected the block to start at.
        expected_start: u64,
        /// What the driver returned.
        got_start: u64,
    },
    /// The CMA reply overlaps memory that is already allocated/protected.
    OverlappingReply,
    /// Requested more protection than has been allocated.
    ProtectBeyondAllocation,
    /// Requested a shrink larger than the protected size.
    ShrinkUnderflow,
    /// Sizes must be page-aligned.
    Misaligned,
    /// The underlying CMA allocation failed.
    CmaFailure(String),
    /// TZASC reconfiguration failed.
    TzascFailure(String),
    /// TA mapping failed.
    MappingFailure(String),
}

impl std::fmt::Display for ScalingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingError::NonContiguousReply { expected_start, got_start } => write!(
                f,
                "CMA returned non-contiguous block: expected {expected_start:#x}, got {got_start:#x}"
            ),
            ScalingError::OverlappingReply => write!(f, "CMA returned an overlapping block"),
            ScalingError::ProtectBeyondAllocation => write!(f, "cannot protect beyond allocated memory"),
            ScalingError::ShrinkUnderflow => write!(f, "cannot shrink below zero"),
            ScalingError::Misaligned => write!(f, "sizes must be page aligned"),
            ScalingError::CmaFailure(e) => write!(f, "CMA allocation failed: {e}"),
            ScalingError::TzascFailure(e) => write!(f, "TZASC reconfiguration failed: {e}"),
            ScalingError::MappingFailure(e) => write!(f, "TA mapping failed: {e}"),
        }
    }
}

impl std::error::Error for ScalingError {}

/// Timing breakdown of one scaling operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalingCost {
    /// Cross-world SMC time.
    pub smc: SimDuration,
    /// CMA migration time (runs on REE CPUs).
    pub migration: SimDuration,
    /// Page bookkeeping (allocation / free lists).
    pub bookkeeping: SimDuration,
    /// TZASC / mapping reconfiguration time.
    pub reconfig: SimDuration,
    /// Scrubbing time when releasing memory.
    pub clearing: SimDuration,
}

impl ScalingCost {
    /// Total latency of the operation.
    pub fn total(&self) -> SimDuration {
        self.smc + self.migration + self.bookkeeping + self.reconfig + self.clearing
    }
}

/// One elastically scaled secure region (the paper uses two: parameters, and
/// KV-cache/activations/other).
#[derive(Debug)]
pub struct ScalableRegion {
    /// Which CMA pool in the REE backs this region.
    pub pool: CmaPool,
    /// The TZASC region protecting the protected prefix, once it exists.
    tzasc_region: Option<RegionId>,
    /// Everything allocated from the CMA pool so far (contiguous).
    allocated: PhysRange,
    /// The protected prefix of `allocated`.
    protected: u64,
    /// The TA this region's memory is mapped into.
    owner: TaId,
    /// Devices allowed to DMA into the protected region (the NPU for the
    /// regions holding job execution contexts).
    dma_devices: Vec<DeviceId>,
}

impl ScalableRegion {
    /// Bytes currently allocated from the CMA pool.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.size
    }

    /// Bytes currently protected by the TZASC.
    pub fn protected_bytes(&self) -> u64 {
        self.protected
    }

    /// The protected range.
    pub fn protected_range(&self) -> PhysRange {
        PhysRange::new(self.allocated.start, self.protected)
    }

    /// The allocated-but-not-yet-protected window (where the REE file system
    /// may place encrypted parameters without a bounce buffer).
    pub fn staging_range(&self) -> PhysRange {
        PhysRange::new(
            self.allocated.start.add(self.protected),
            self.allocated.size - self.protected,
        )
    }

    /// The TZASC region id, once the first `extend_protected` created it.
    pub fn tzasc_region(&self) -> Option<RegionId> {
        self.tzasc_region
    }
}

/// The TEE OS component implementing the scaling interface.
#[derive(Debug)]
pub struct SecureMemoryManager {
    platform: Arc<Platform>,
    regions: Vec<ScalableRegion>,
}

impl SecureMemoryManager {
    /// Creates a manager with no regions.
    pub fn new(platform: Arc<Platform>) -> Self {
        SecureMemoryManager {
            platform,
            regions: Vec::new(),
        }
    }

    /// Declares a scalable region backed by `pool`, owned by `owner`.
    /// `dma_devices` lists the devices that may DMA into it when protected.
    pub fn create_region(
        &mut self,
        pool: CmaPool,
        owner: TaId,
        dma_devices: Vec<DeviceId>,
    ) -> usize {
        self.regions.push(ScalableRegion {
            pool,
            tzasc_region: None,
            allocated: PhysRange::EMPTY,
            protected: 0,
            owner,
            dma_devices,
        });
        self.regions.len() - 1
    }

    /// Access to a region's state.
    pub fn region(&self, index: usize) -> &ScalableRegion {
        &self.regions[index]
    }

    /// `extend_allocated`: allocate `bytes` more from the REE CMA pool.
    ///
    /// The reply from the untrusted TZ driver is validated for adjacency and
    /// non-overlap before the TEE accepts it.
    pub fn extend_allocated(
        &mut self,
        index: usize,
        bytes: u64,
        tz_driver: &mut TzDriver,
    ) -> Result<ScalingCost, ScalingError> {
        if !bytes.is_multiple_of(PAGE_SIZE) {
            return Err(ScalingError::Misaligned);
        }
        let region = &self.regions[index];
        let expected_start = if region.allocated.is_empty() {
            None
        } else {
            Some(region.allocated.end())
        };

        let (reply, smc_cost) = tz_driver
            .cma_alloc(region.pool, bytes)
            .map_err(|e| ScalingError::CmaFailure(e.to_string()))?;

        // Iago defence: the returned block must be exactly adjacent to what we
        // already hold (or be the first block), and must not overlap it.
        if reply.block.overlaps(&region.allocated) {
            return Err(ScalingError::OverlappingReply);
        }
        if let Some(expected) = expected_start {
            if reply.block.start != expected {
                return Err(ScalingError::NonContiguousReply {
                    expected_start: expected.as_u64(),
                    got_start: reply.block.start.as_u64(),
                });
            }
        }

        let region = &mut self.regions[index];
        if region.allocated.is_empty() {
            region.allocated = reply.block;
        } else {
            region.allocated = region.allocated.extended(reply.block.size);
        }

        Ok(ScalingCost {
            smc: smc_cost,
            migration: reply.cost.migration,
            bookkeeping: reply.cost.bookkeeping,
            ..ScalingCost::default()
        })
    }

    /// `extend_protected`: extend the TZASC region over `bytes` of previously
    /// allocated memory and map it into the owning TA.
    pub fn extend_protected(
        &mut self,
        index: usize,
        bytes: u64,
        tas: &mut TaRegistry,
    ) -> Result<ScalingCost, ScalingError> {
        if !bytes.is_multiple_of(PAGE_SIZE) {
            return Err(ScalingError::Misaligned);
        }
        let platform = self.platform.clone();
        let region = &mut self.regions[index];
        if region.protected + bytes > region.allocated.size {
            return Err(ScalingError::ProtectBeyondAllocation);
        }
        let new_protected = PhysRange::new(region.allocated.start.add(region.protected), bytes);

        match region.tzasc_region {
            None => {
                let id = platform
                    .with_tzasc(|t| {
                        t.configure_region(
                            World::Secure,
                            PhysRange::new(region.allocated.start, region.protected + bytes),
                            region.dma_devices.iter().copied(),
                        )
                    })
                    .map_err(|e| ScalingError::TzascFailure(e.to_string()))?;
                region.tzasc_region = Some(id);
            }
            Some(id) => {
                platform
                    .with_tzasc(|t| t.extend_region(World::Secure, id, bytes))
                    .map_err(|e| ScalingError::TzascFailure(e.to_string()))?;
            }
        }
        region.protected += bytes;
        tas.map(region.owner, new_protected)
            .map_err(|e| ScalingError::MappingFailure(e.to_string()))?;

        Ok(ScalingCost {
            reconfig: platform.profile.tzasc_config,
            ..ScalingCost::default()
        })
    }

    /// `shrink`: scrub, unmap, unprotect and return `bytes` from the end of
    /// the region to the REE.
    pub fn shrink(
        &mut self,
        index: usize,
        bytes: u64,
        tas: &mut TaRegistry,
        tz_driver: &mut TzDriver,
    ) -> Result<ScalingCost, ScalingError> {
        if !bytes.is_multiple_of(PAGE_SIZE) {
            return Err(ScalingError::Misaligned);
        }
        let platform = self.platform.clone();
        let region = &mut self.regions[index];
        if bytes > region.protected {
            return Err(ScalingError::ShrinkUnderflow);
        }
        let released = PhysRange::new(region.allocated.start.add(region.protected - bytes), bytes);

        // 1. The TEE OS clears all sensitive data before releasing the memory.
        let clearing =
            SimDuration::from_nanos((bytes / PAGE_SIZE) * platform.profile.page_clear_ns);

        // 2. Unmap from the TA.
        tas.unmap(region.owner, released)
            .map_err(|e| ScalingError::MappingFailure(e.to_string()))?;

        // 3. Shrink the TZASC region.
        let id = region
            .tzasc_region
            .expect("shrink requires a protected region");
        platform
            .with_tzasc(|t| t.shrink_region(World::Secure, id, bytes))
            .map_err(|e| ScalingError::TzascFailure(e.to_string()))?;
        region.protected -= bytes;

        // 4. Return the memory to the CMA pool.
        let release_cost = tz_driver
            .cma_release(region.pool, bytes)
            .map_err(|e| ScalingError::CmaFailure(e.to_string()))?;
        region.allocated = region.allocated.shrunk(bytes);

        Ok(ScalingCost {
            smc: platform.profile.smc_switch * 2,
            bookkeeping: release_cost,
            reconfig: platform.profile.tzasc_config,
            clearing,
            ..ScalingCost::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_kernel::{CmaRegion, Misbehaviour};
    use sim_core::GIB;
    use tz_hal::PhysAddr;

    fn setup() -> (
        Arc<Platform>,
        SecureMemoryManager,
        TzDriver,
        TaRegistry,
        TaId,
        usize,
    ) {
        let platform = Platform::rk3588();
        let params = CmaRegion::new(
            PhysRange::new(PhysAddr::new(0x1_0000_0000), 9 * GIB),
            platform.profile.cma_bandwidth(),
            platform.profile.page_alloc_ns,
        );
        let working = CmaRegion::new(
            PhysRange::new(PhysAddr::new(0x3_8000_0000), GIB),
            platform.profile.cma_bandwidth(),
            platform.profile.page_alloc_ns,
        );
        let tz_driver = TzDriver::new(platform.clone(), params, working);
        let mut tas = TaRegistry::new();
        let llm = tas.register("llm-ta", true);
        let mut mgr = SecureMemoryManager::new(platform.clone());
        let region = mgr.create_region(CmaPool::Parameters, llm, vec![DeviceId::Npu]);
        (platform, mgr, tz_driver, tas, llm, region)
    }

    #[test]
    fn extend_then_protect_then_shrink_lifecycle() {
        let (platform, mut mgr, mut tz, mut tas, llm, region) = setup();
        // Allocate 1 GiB, protect 512 MiB of it.
        mgr.extend_allocated(region, GIB, &mut tz).unwrap();
        assert_eq!(mgr.region(region).allocated_bytes(), GIB);
        assert_eq!(mgr.region(region).protected_bytes(), 0);
        assert_eq!(mgr.region(region).staging_range().size, GIB);

        mgr.extend_protected(region, GIB / 2, &mut tas).unwrap();
        assert_eq!(mgr.region(region).protected_bytes(), GIB / 2);
        assert_eq!(mgr.region(region).staging_range().size, GIB / 2);

        // The protected range is mapped into the LLM TA and secured by TZASC.
        let protected = mgr.region(region).protected_range();
        assert!(tas.check_access(llm, protected).is_ok());
        assert!(platform
            .with_tzasc(|t| t.check_cpu_access(World::NonSecure, protected))
            .is_err());
        // The staging range is still REE-accessible (no bounce buffer needed).
        let staging = mgr.region(region).staging_range();
        assert!(platform
            .with_tzasc(|t| t.check_cpu_access(World::NonSecure, staging))
            .is_ok());

        // Protect the rest, then shrink everything away.
        mgr.extend_protected(region, GIB / 2, &mut tas).unwrap();
        let cost = mgr.shrink(region, GIB, &mut tas, &mut tz).unwrap();
        assert!(cost.clearing > SimDuration::ZERO);
        assert_eq!(mgr.region(region).protected_bytes(), 0);
        assert_eq!(mgr.region(region).allocated_bytes(), 0);
        assert!(tas.check_access(llm, protected).is_err());
    }

    #[test]
    fn incremental_extends_stay_contiguous() {
        let (_platform, mut mgr, mut tz, mut tas, _llm, region) = setup();
        for _ in 0..8 {
            mgr.extend_allocated(region, 256 * 1024 * 1024, &mut tz)
                .unwrap();
            mgr.extend_protected(region, 256 * 1024 * 1024, &mut tas)
                .unwrap();
        }
        assert_eq!(mgr.region(region).protected_bytes(), 2 * GIB);
        // A single TZASC region covers everything (not 8 fragments).
        assert_eq!(mgr.region(region).protected_range().size, 2 * GIB);
    }

    #[test]
    fn iago_non_adjacent_reply_is_rejected() {
        let (_platform, mut mgr, mut tz, _tas, _llm, region) = setup();
        mgr.extend_allocated(region, GIB, &mut tz).unwrap();
        tz.set_misbehaviour(Misbehaviour::NonAdjacentBlock);
        let err = mgr.extend_allocated(region, GIB, &mut tz).unwrap_err();
        assert!(matches!(err, ScalingError::NonContiguousReply { .. }));
    }

    #[test]
    fn iago_overlapping_reply_is_rejected() {
        let (_platform, mut mgr, mut tz, _tas, _llm, region) = setup();
        mgr.extend_allocated(region, GIB, &mut tz).unwrap();
        tz.set_misbehaviour(Misbehaviour::OverlappingBlock);
        let err = mgr.extend_allocated(region, GIB, &mut tz).unwrap_err();
        assert!(matches!(err, ScalingError::OverlappingReply));
    }

    #[test]
    fn cannot_protect_more_than_allocated() {
        let (_platform, mut mgr, mut tz, mut tas, _llm, region) = setup();
        mgr.extend_allocated(region, GIB, &mut tz).unwrap();
        let err = mgr.extend_protected(region, 2 * GIB, &mut tas).unwrap_err();
        assert_eq!(err, ScalingError::ProtectBeyondAllocation);
    }

    #[test]
    fn misaligned_sizes_rejected() {
        let (_platform, mut mgr, mut tz, mut tas, _llm, region) = setup();
        assert_eq!(
            mgr.extend_allocated(region, 1234, &mut tz).unwrap_err(),
            ScalingError::Misaligned
        );
        assert_eq!(
            mgr.extend_protected(region, 1234, &mut tas).unwrap_err(),
            ScalingError::Misaligned
        );
    }

    #[test]
    fn npu_dma_allowed_only_on_regions_that_list_it() {
        let (platform, mut mgr, mut tz, mut tas, llm, region) = setup();
        mgr.extend_allocated(region, GIB, &mut tz).unwrap();
        mgr.extend_protected(region, GIB, &mut tas).unwrap();
        let protected = mgr.region(region).protected_range();
        assert!(platform
            .with_tzasc(|t| t.check_dma_access(DeviceId::Npu, protected))
            .is_ok());
        assert!(platform
            .with_tzasc(|t| t.check_dma_access(DeviceId::UsbController, protected))
            .is_err());

        // A second region without the NPU on its allow-list blocks NPU DMA.
        let no_npu = mgr.create_region(CmaPool::Working, llm, vec![]);
        mgr.extend_allocated(no_npu, 256 * 1024 * 1024, &mut tz)
            .unwrap();
        mgr.extend_protected(no_npu, 256 * 1024 * 1024, &mut tas)
            .unwrap();
        let r2 = mgr.region(no_npu).protected_range();
        assert!(platform
            .with_tzasc(|t| t.check_dma_access(DeviceId::Npu, r2))
            .is_err());
    }
}
