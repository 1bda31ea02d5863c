//! Shared-memory bank-conflict model.
//!
//! Shared memory is divided into 32 banks. A warp access completes in one
//! pass when every lane hits a different bank (or lanes share the exact
//! same word — broadcast); otherwise the access replays once per extra
//! distinct word mapped to the most-contended bank. Kepler's 8-byte bank
//! mode widens banks so `float2` accesses stop conflicting — the enabler
//! of the paper's vectorized transformation kernel (§IV.C, Fig 7b line
//! 16-24 and the Fig 11 `Transform-Opt2` bars).

use crate::device::BankMode;

/// Number of passes (1 = conflict-free) a warp shared-memory access takes.
///
/// `byte_addrs` are per-lane byte addresses into shared memory;
/// `bytes_per_lane` is the access width (4 for `float`, 8 for `float2`).
pub fn passes(byte_addrs: &[u64], bytes_per_lane: u64, mode: BankMode, banks: u32) -> u32 {
    if byte_addrs.is_empty() {
        return 0;
    }
    let bank_bytes = mode.bytes();
    let banks = banks as u64;
    // An access wider than a bank is split by the hardware into groups of
    // lanes whose combined width matches one bank sweep: float2 in 4-byte
    // mode is served half-warp at a time (two transactions), in 8-byte mode
    // whole-warp at once. Each group resolves bank conflicts independently
    // over every word its lanes touch.
    let group_lanes = ((banks * bank_bytes) / bytes_per_lane.max(1)).max(1) as usize;
    let words_per_lane = bytes_per_lane.div_ceil(bank_bytes);
    let mut total = 0u32;
    for group in byte_addrs.chunks(group_lanes) {
        total += group_passes(group, words_per_lane, bank_bytes, banks).max(1);
    }
    total
}

/// Words a group may touch for [`group_passes`] to count them in fixed
/// arrays (a 32-lane warp touches at most 32 per bank sweep).
const MAX_WORDS: usize = 64;

/// Passes of one lane group: the most distinct words any bank serves.
/// Lanes touching the same word broadcast, and a word lives in exactly one
/// bank, so that is the per-bank count of the group's distinct words.
fn group_passes(group: &[u64], words_per_lane: u64, bank_bytes: u64, banks: u64) -> u32 {
    let n_words = group.len() * words_per_lane as usize;
    if n_words > MAX_WORDS || banks > MAX_WORDS as u64 {
        return group_passes_wide(group, words_per_lane, bank_bytes, banks);
    }
    let mut words = [0u64; MAX_WORDS];
    let mut n = 0;
    for &a in group {
        for k in 0..words_per_lane {
            words[n] = a / bank_bytes + k;
            n += 1;
        }
    }
    let words = &mut words[..n];
    words.sort_unstable();
    let mut per_bank = [0u32; MAX_WORDS];
    let mut prev = None;
    for &word in words.iter() {
        if prev != Some(word) {
            per_bank[(word % banks) as usize] += 1;
            prev = Some(word);
        }
    }
    per_bank.into_iter().max().unwrap_or(0)
}

/// [`group_passes`] for groups touching more than [`MAX_WORDS`] words (or
/// more banks than that): one word list per bank.
fn group_passes_wide(group: &[u64], words_per_lane: u64, bank_bytes: u64, banks: u64) -> u32 {
    let mut per_bank_words: Vec<Vec<u64>> = vec![Vec::new(); banks as usize];
    for &a in group {
        for k in 0..words_per_lane {
            let word = a / bank_bytes + k;
            let bank = (word % banks) as usize;
            if !per_bank_words[bank].contains(&word) {
                per_bank_words[bank].push(word);
            }
        }
    }
    per_bank_words.iter().map(|w| w.len()).max().unwrap_or(0) as u32
}

/// Bytes of shared-memory traffic a warp access generates (for throughput
/// accounting): requested bytes, independent of conflicts (conflicts cost
/// time via extra passes, not extra bytes).
pub fn bytes(byte_addrs: &[u64], bytes_per_lane: u64) -> u64 {
    byte_addrs.len() as u64 * bytes_per_lane
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(stride: u64, lanes: usize) -> Vec<u64> {
        (0..lanes as u64).map(|i| i * stride).collect()
    }

    #[test]
    fn unit_stride_floats_are_conflict_free() {
        assert_eq!(passes(&addrs(4, 32), 4, BankMode::FourByte, 32), 1);
    }

    #[test]
    fn stride_32_floats_serialize_fully() {
        // Classic column access of a 32-wide float tile: all lanes in bank 0.
        assert_eq!(passes(&addrs(128, 32), 4, BankMode::FourByte, 32), 32);
    }

    #[test]
    fn padded_tile_column_access_is_conflict_free() {
        // 33-wide padding (Fig 7b line 7: `sh[C][33]`) shifts each row by
        // one bank.
        assert_eq!(passes(&addrs(132, 32), 4, BankMode::FourByte, 32), 1);
    }

    #[test]
    fn broadcast_is_free() {
        assert_eq!(passes(&vec![0u64; 32], 4, BankMode::FourByte, 32), 1);
    }

    #[test]
    fn float2_in_4byte_mode_takes_two_passes() {
        assert_eq!(passes(&addrs(8, 32), 8, BankMode::FourByte, 32), 2);
    }

    #[test]
    fn float2_in_8byte_mode_takes_one_pass() {
        assert_eq!(passes(&addrs(8, 32), 8, BankMode::EightByte, 32), 1);
    }

    #[test]
    fn two_way_conflict_doubles_passes() {
        // Stride of 2 floats: lanes 0 and 16 share bank 0, etc.
        assert_eq!(passes(&addrs(8, 32), 4, BankMode::FourByte, 32), 2);
    }

    #[test]
    fn empty_access_is_zero_passes() {
        assert_eq!(passes(&[], 4, BankMode::FourByte, 32), 0);
    }

    #[test]
    fn bytes_counts_requested_traffic() {
        assert_eq!(bytes(&addrs(4, 32), 4), 128);
        assert_eq!(bytes(&addrs(8, 16), 8), 128);
    }
}
