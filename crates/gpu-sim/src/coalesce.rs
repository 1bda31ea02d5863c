//! Warp-level global-memory coalescing.
//!
//! On Kepler/Maxwell a warp's global access is decomposed into 32-byte
//! *sectors*: the memory system fetches every distinct sector any lane
//! touches. A warp of 32 lanes reading consecutive `f32`s touches 4 sectors
//! (128 B moved for 128 B requested — perfectly coalesced); lanes striding
//! through memory touch up to 32 sectors (1024 B moved for 128 B requested —
//! the over-fetch that ruins NCHW pooling in §IV.B).

use crate::device::DeviceConfig;

/// Sector index of a byte address.
#[inline]
pub fn sector_of(addr: u64) -> u64 {
    addr / DeviceConfig::SECTOR_BYTES
}

/// Coalesce one warp access: the distinct sectors touched by lanes reading
/// `bytes_per_lane` bytes starting at each address.
///
/// Returns sector indices in first-touch order, deduplicated. The number of
/// sectors is the transaction count for this warp instruction.
///
/// While lane addresses are non-decreasing, a lane can only repeat sectors
/// at or below the last one pushed (lane intervals have equal width, so
/// their ends are non-decreasing too), and every sector between its first
/// and the last pushed is already out: deduplicating against the last
/// pushed sector alone is exact. The first decreasing lane falls back to
/// searching the output.
pub fn coalesce(addrs: &[u64], bytes_per_lane: u64, out: &mut Vec<u64>) {
    out.clear();
    // Lowest sector the monotone prefix has not pushed yet.
    let mut next = 0;
    let mut prev = 0;
    for (i, &a) in addrs.iter().enumerate() {
        if a < prev {
            coalesce_unordered(&addrs[i..], bytes_per_lane, out);
            return;
        }
        prev = a;
        let last = sector_of(a + bytes_per_lane - 1);
        out.extend(sector_of(a).max(next)..=last);
        next = last + 1;
    }
}

/// Append the sectors of `addrs` not yet in `out`, in first-touch order.
fn coalesce_unordered(addrs: &[u64], bytes_per_lane: u64, out: &mut Vec<u64>) {
    for &a in addrs {
        for s in sector_of(a)..=sector_of(a + bytes_per_lane - 1) {
            // Warp accesses touch a handful of sectors; linear dedup against
            // the small output buffer beats a hash set here.
            if !out.contains(&s) {
                out.push(s);
            }
        }
    }
}

/// Transaction count for a warp access without materializing sectors.
pub fn transaction_count(addrs: &[u64], bytes_per_lane: u64) -> usize {
    let mut sectors = Vec::with_capacity(addrs.len());
    coalesce(addrs, bytes_per_lane, &mut sectors);
    sectors.len()
}

/// Coalescing efficiency of a warp access: requested bytes / moved bytes.
/// 1.0 means perfectly coalesced; 0.125 is the worst case for 4-byte lanes.
pub fn efficiency(addrs: &[u64], bytes_per_lane: u64) -> f64 {
    if addrs.is_empty() {
        return 1.0;
    }
    let requested = addrs.len() as u64 * bytes_per_lane;
    let moved = transaction_count(addrs, bytes_per_lane) as u64 * DeviceConfig::SECTOR_BYTES;
    requested as f64 / moved as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_addrs(base: u64, stride: u64, lanes: usize) -> Vec<u64> {
        (0..lanes as u64).map(|i| base + i * stride).collect()
    }

    #[test]
    fn unit_stride_f32_warp_is_four_sectors() {
        let addrs = seq_addrs(0, 4, 32);
        assert_eq!(transaction_count(&addrs, 4), 4);
        assert_eq!(efficiency(&addrs, 4), 1.0);
    }

    #[test]
    fn unaligned_unit_stride_costs_one_extra_sector() {
        let addrs = seq_addrs(16, 4, 32);
        assert_eq!(transaction_count(&addrs, 4), 5);
    }

    #[test]
    fn large_stride_is_fully_uncoalesced() {
        // Stride of 128 B: every lane in its own sector — the §IV.B pooling
        // pathology.
        let addrs = seq_addrs(0, 128, 32);
        assert_eq!(transaction_count(&addrs, 4), 32);
        assert_eq!(efficiency(&addrs, 4), 4.0 / 32.0);
    }

    #[test]
    fn stride_two_floats_doubles_sectors() {
        let addrs = seq_addrs(0, 8, 32);
        assert_eq!(transaction_count(&addrs, 4), 8);
        assert_eq!(efficiency(&addrs, 4), 0.5);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let addrs = vec![64; 32];
        assert_eq!(transaction_count(&addrs, 4), 1);
    }

    #[test]
    fn float2_lanes_span_eight_sectors() {
        let addrs = seq_addrs(0, 8, 32);
        assert_eq!(transaction_count(&addrs, 8), 8);
        assert_eq!(efficiency(&addrs, 8), 1.0);
    }

    #[test]
    fn lane_access_straddling_sector_boundary_counts_both() {
        let addrs = vec![30];
        assert_eq!(transaction_count(&addrs, 4), 2);
    }

    #[test]
    fn partial_warp_counts_only_active_lanes() {
        let addrs = seq_addrs(0, 4, 8);
        assert_eq!(transaction_count(&addrs, 4), 1);
    }

    #[test]
    fn sectors_reported_in_first_touch_order() {
        let mut out = Vec::new();
        coalesce(&[100, 0, 100, 64], 4, &mut out);
        assert_eq!(out, vec![3, 0, 2]);
    }

    #[test]
    fn empty_access_is_free() {
        assert_eq!(transaction_count(&[], 4), 0);
        assert_eq!(efficiency(&[], 4), 1.0);
    }
}
