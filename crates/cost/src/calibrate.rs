//! On-host measurement of the primitive cost parameters.
//!
//! The paper's models take `read_seq`, `read_cond` and `ht_*` as machine
//! constants (refs \[6\], \[7\] measure them per machine). This module measures
//! them with small timing loops so the chooser's decisions reflect the host
//! actually executing the queries. Units are nanoseconds per operation —
//! the models only compare strategies, so any consistent unit works.

use crate::CostParams;
use std::hint::black_box;
use std::time::Instant;

/// Sizing knobs for calibration (defaults ≈ a second of wall time; tests
/// shrink them).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Elements in the scan arrays (should exceed L3 to measure DRAM-bound
    /// sequential reads).
    pub scan_elems: usize,
    /// Lookup structures to probe, bytes each — one per cache level plus
    /// DRAM.
    pub table_bytes: [usize; 4],
    /// Probes per measurement.
    pub probes: usize,
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig {
            scan_elems: 32 << 20, // 128 MB of i32
            table_bytes: [16 << 10, 256 << 10, 4 << 20, 256 << 20],
            probes: 4 << 20,
        }
    }
}

/// A cheap deterministic PRNG (xorshift*), so calibration needs no external
/// dependencies and is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Measure ns/element of a pure sequential sum.
fn measure_read_seq(cfg: &CalibrationConfig) -> f64 {
    let data: Vec<i32> = (0..cfg.scan_elems as i32).collect();
    let start = Instant::now();
    let mut sum = 0i64;
    for &v in &data {
        sum += v as i64;
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / cfg.scan_elems as f64
}

/// Measure ns/element of a gather through a shuffled ~50% selection vector
/// (the conditional-read pattern).
fn measure_read_cond(cfg: &CalibrationConfig) -> f64 {
    let data: Vec<i32> = (0..cfg.scan_elems as i32).collect();
    let mut rng = Rng(0x5EED);
    let mut idx: Vec<u32> = (0..cfg.scan_elems as u32).step_by(2).collect();
    // Fisher–Yates shuffle to defeat the prefetcher.
    for i in (1..idx.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    let start = Instant::now();
    let mut sum = 0i64;
    for &j in &idx {
        sum += data[j as usize] as i64;
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / idx.len() as f64
}

/// Measure ns/probe of dependent random lookups into a structure of
/// `bytes` (simulating an open-addressing probe: hash, load, compare).
fn measure_lookup(bytes: usize, probes: usize) -> f64 {
    let elems = (bytes / 8).max(16);
    // Random cyclic permutation -> dependent loads, defeating ILP the same
    // way a real probe's data dependence does.
    let mut rng = Rng(0xBEEF);
    let mut perm: Vec<u32> = (0..elems as u32).collect();
    for i in (1..elems).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let mut table = vec![0u64; elems];
    for i in 0..elems {
        table[i] = perm[i] as u64;
    }
    let start = Instant::now();
    let mut cursor = 0u64;
    for _ in 0..probes {
        cursor = table[cursor as usize];
    }
    black_box(cursor);
    start.elapsed().as_nanos() as f64 / probes as f64
}

/// Run the full calibration and return measured [`CostParams`].
///
/// The cache-capacity fields keep their defaults (they gate which lookup
/// cost applies; the measured lookup costs themselves come from the probe
/// loops).
pub fn calibrate(cfg: &CalibrationConfig) -> CostParams {
    let defaults = CostParams::default();
    let read_seq = measure_read_seq(cfg);
    let read_cond = measure_read_cond(cfg).max(read_seq);
    let mut lookups = [0.0f64; 4];
    for (i, &bytes) in cfg.table_bytes.iter().enumerate() {
        lookups[i] = measure_lookup(bytes, cfg.probes).max(read_seq);
    }
    // Enforce monotonicity across levels (timing noise can invert adjacent
    // levels on shared machines).
    for i in 1..4 {
        lookups[i] = lookups[i].max(lookups[i - 1]);
    }
    CostParams {
        read_seq,
        read_cond,
        ht_null: lookups[0],
        ht_lookup_by_level: lookups,
        ..defaults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CalibrationConfig {
        CalibrationConfig {
            scan_elems: 1 << 16,
            table_bytes: [1 << 10, 1 << 12, 1 << 14, 1 << 16],
            probes: 1 << 14,
        }
    }

    #[test]
    fn calibration_produces_positive_monotone_params() {
        let p = calibrate(&tiny());
        assert!(p.read_seq > 0.0);
        assert!(p.read_cond >= p.read_seq);
        for i in 1..4 {
            assert!(p.ht_lookup_by_level[i] >= p.ht_lookup_by_level[i - 1]);
        }
    }

    #[test]
    fn rng_is_deterministic_and_nonzero() {
        let mut a = Rng(1);
        let mut b = Rng(1);
        for _ in 0..100 {
            let x = a.next();
            assert_eq!(x, b.next());
            assert_ne!(x, 0);
        }
    }
}
