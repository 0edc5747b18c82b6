//! The dense register-array HyperLogLog sketch.

use crate::estimator;
use crate::hash;

/// Shared configuration for every sketch of one index: register count
/// (as a power of two) and the element-hash seed.
///
/// Sketches are only mergeable when their configs are identical — the
/// register-wise `max` of two sketches equals the sketch of the union
/// *only* if both hashed elements with the same function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HllConfig {
    precision: u8,
    seed: u64,
}

impl HllConfig {
    /// Creates a config with `m = 2^precision` registers.
    ///
    /// The paper uses `precision = 7` (`m = 128`, ≤ 10% error) for the
    /// main experiments and notes `m = 32` suffices for MNIST.
    ///
    /// # Panics
    /// Panics unless `4 ≤ precision ≤ 16`.
    pub fn new(precision: u8, seed: u64) -> Self {
        assert!((4..=16).contains(&precision), "precision must be in 4..=16, got {precision}");
        Self { precision, seed }
    }

    /// Number of registers `m = 2^precision`.
    #[inline]
    pub fn registers(&self) -> usize {
        1 << self.precision
    }

    /// Precision (log2 of register count).
    #[inline]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// The element-hash seed shared by all sketches of an index.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Theoretical relative standard error `1.04/√m`.
    pub fn relative_error(&self) -> f64 {
        estimator::relative_error(self.registers())
    }

    /// Hashes an element id into the 64-bit space used by sketches of
    /// this config.
    #[inline]
    pub fn hash_element(&self, id: u64) -> u64 {
        hash::hash_id(self.seed, id)
    }
}

/// A HyperLogLog sketch: `m` one-byte registers.
///
/// Registers store `max` of geometric draws; with 64-bit hashes the
/// value is at most `64 − precision + 1 ≤ 61`, so `u8` never saturates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperLogLog {
    config: HllConfig,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an empty sketch.
    pub fn new(config: HllConfig) -> Self {
        Self { config, registers: vec![0; config.registers()] }
    }

    /// Rebuilds a sketch from a raw register array (e.g. the merged
    /// registers a shard ships to the coordinator).
    ///
    /// # Panics
    /// Panics if `registers.len() != config.registers()`.
    pub fn from_registers(config: HllConfig, registers: Vec<u8>) -> Self {
        assert_eq!(registers.len(), config.registers(), "register array length mismatch");
        Self { config, registers }
    }

    /// A borrowed, zero-allocation view of this sketch.
    #[inline]
    pub fn view(&self) -> SketchRef<'_> {
        SketchRef { config: self.config, registers: &self.registers }
    }

    /// The sketch's configuration.
    #[inline]
    pub fn config(&self) -> HllConfig {
        self.config
    }

    /// Read-only view of the register array.
    #[inline]
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Register-wise `max` with a raw register array of the same length
    /// (the slab-merge primitive: callers guarantee the registers were
    /// produced under an identical [`HllConfig`]).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn merge_registers(&mut self, registers: &[u8]) {
        assert_eq!(
            self.registers.len(),
            registers.len(),
            "cannot merge register arrays of different sizes"
        );
        for (a, &b) in self.registers.iter_mut().zip(registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Inserts an element by id (hashed internally with the config seed).
    #[inline]
    pub fn insert(&mut self, id: u64) {
        self.insert_hash(self.config.hash_element(id));
    }

    /// Inserts a pre-hashed element. The hash must come from
    /// [`HllConfig::hash_element`] of an identical config.
    #[inline]
    pub fn insert_hash(&mut self, h: u64) {
        let b = self.config.precision;
        let idx = (h >> (64 - b)) as usize;
        // Remaining 64−b bits; rho = leading zeros + 1, and an all-zero
        // remainder maps to the maximum value 64−b+1.
        let rest = h << b;
        let rho = if rest == 0 { 64 - b as u32 + 1 } else { rest.leading_zeros() + 1 };
        let rho = rho as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Merges another sketch into this one (register-wise `max`), so that
    /// `self` becomes the sketch of the union of both element streams.
    ///
    /// # Panics
    /// Panics if the configs differ.
    pub fn merge_from(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.config, other.config,
            "cannot merge HyperLogLog sketches with different configs"
        );
        self.merge_registers(&other.registers);
    }

    /// Estimated cardinality (with small-range correction).
    pub fn estimate(&self) -> f64 {
        estimator::estimate(&self.registers)
    }

    /// Whether no element was ever inserted.
    ///
    /// (An inserted element always raises some register to ≥ 1.)
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Resets the sketch to empty.
    pub fn clear(&mut self) {
        self.registers.iter_mut().for_each(|r| *r = 0);
    }

    /// Heap memory used by the register array, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }
}

/// A borrowed HyperLogLog: a config tag plus a register slice.
///
/// This is the currency of zero-pointer sketch storage — a frozen
/// store keeps all registers in one contiguous slab and hands out
/// `SketchRef`s pointing into it, while owned [`HyperLogLog`]s lend
/// views via [`HyperLogLog::view`]. Estimation and merging behave
/// exactly like the owned sketch over the same registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SketchRef<'a> {
    config: HllConfig,
    registers: &'a [u8],
}

impl<'a> SketchRef<'a> {
    /// Wraps a raw register slice (storage backends only).
    ///
    /// # Panics
    /// Panics if `registers.len() != config.registers()`.
    #[inline]
    pub fn new(config: HllConfig, registers: &'a [u8]) -> Self {
        assert_eq!(registers.len(), config.registers(), "register slice length mismatch");
        Self { config, registers }
    }

    /// The configuration the registers were produced under.
    #[inline]
    pub fn config(&self) -> HllConfig {
        self.config
    }

    /// The borrowed register array.
    #[inline]
    pub fn registers(&self) -> &'a [u8] {
        self.registers
    }

    /// Estimated cardinality (with small-range correction) — identical
    /// to [`HyperLogLog::estimate`] over the same registers.
    pub fn estimate(&self) -> f64 {
        estimator::estimate(self.registers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HllConfig {
        HllConfig::new(7, 0xDEAD_BEEF)
    }

    #[test]
    fn config_accessors() {
        let c = HllConfig::new(7, 9);
        assert_eq!(c.registers(), 128);
        assert_eq!(c.precision(), 7);
        assert_eq!(c.seed(), 9);
        assert!(c.relative_error() < 0.1);
    }

    #[test]
    #[should_panic(expected = "precision must be in 4..=16")]
    fn config_rejects_bad_precision() {
        let _ = HllConfig::new(3, 0);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let h = HyperLogLog::new(cfg());
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
        assert_eq!(h.memory_bytes(), 128);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut h = HyperLogLog::new(cfg());
        h.insert(42);
        let snapshot = h.registers().to_vec();
        for _ in 0..100 {
            h.insert(42);
        }
        assert_eq!(h.registers(), &snapshot[..]);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        // Linear counting makes tiny counts very accurate.
        for n in [1u64, 5, 20, 60] {
            let mut h = HyperLogLog::new(cfg());
            for i in 0..n {
                h.insert(i);
            }
            let e = h.estimate();
            assert!((e - n as f64).abs() <= (n as f64 * 0.15).max(1.5), "n={n} estimate={e}");
        }
    }

    #[test]
    fn large_cardinality_within_theory_error() {
        let n = 100_000u64;
        let mut h = HyperLogLog::new(cfg());
        for i in 0..n {
            h.insert(i);
        }
        let e = h.estimate();
        let rel = (e - n as f64).abs() / n as f64;
        // 1.04/sqrt(128) ≈ 9.2%; allow 3 sigma.
        assert!(rel < 3.0 * 0.092, "relative error {rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(cfg());
        let mut b = HyperLogLog::new(cfg());
        let mut u = HyperLogLog::new(cfg());
        for i in 0..1000u64 {
            a.insert(i);
            u.insert(i);
        }
        for i in 500..1500u64 {
            b.insert(i);
            u.insert(i);
        }
        a.merge_from(&b);
        assert_eq!(a.registers(), u.registers());
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = HyperLogLog::new(cfg());
        let mut b = HyperLogLog::new(cfg());
        for i in 0..300u64 {
            a.insert(i * 3);
            b.insert(i * 7);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.registers(), ba.registers());
        let snapshot = ab.registers().to_vec();
        ab.merge_from(&b);
        assert_eq!(ab.registers(), &snapshot[..]);
    }

    #[test]
    #[should_panic(expected = "different configs")]
    fn merge_rejects_mismatched_configs() {
        let mut a = HyperLogLog::new(HllConfig::new(7, 1));
        let b = HyperLogLog::new(HllConfig::new(7, 2));
        a.merge_from(&b);
    }

    #[test]
    fn clear_resets() {
        let mut h = HyperLogLog::new(cfg());
        h.insert(1);
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn insert_hash_all_zero_rest_uses_max_rho() {
        let mut h = HyperLogLog::new(HllConfig::new(4, 0));
        // Hash with top 4 bits = 3 and the rest zero.
        h.insert_hash(3u64 << 60);
        assert_eq!(h.registers()[3], 61); // 64 - 4 + 1
    }
}
