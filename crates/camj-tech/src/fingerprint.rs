//! Content-addressed fingerprints for the incremental estimation engine.
//!
//! A [`Fingerprint`] is a 128-bit stable hash of *everything a
//! computation reads*: component parameters, inferred access counts,
//! delay budgets, technology-derived energies. Two computations with
//! equal fingerprints are guaranteed (by construction of the feeding
//! code) to produce bit-identical results, which is what lets the
//! cross-point `EstimateCache` in `camj-core` replay a cached artifact
//! instead of recomputing it — the heart of delta sweeps in
//! `camj-explore`.
//!
//! The hash is intentionally *not* `std::hash::Hasher`:
//!
//! * it is **stable** across runs and platforms (no per-process seed),
//!   so cache hit/miss traces are reproducible,
//! * it is 128 bits wide — at the scale of a design-space sweep
//!   (millions of points, a handful of kernels each) the collision
//!   probability is negligible, so fingerprints can be used as cache
//!   keys without storing the full inputs,
//! * every write is length- or tag-delimited, so adjacent fields can
//!   never alias (`"ab" + "c"` ≠ `"a" + "bc"`).
//!
//! Types opt in by implementing [`Fingerprintable`] and feeding each
//! field that influences their observable behaviour. Implementations
//! across the workspace live next to this trait's consumers:
//! `camj-analog` fingerprints cells/components/arrays, `camj-digital`
//! fingerprints compute units and memory structures, `camj-core`
//! fingerprints hardware/software descriptors and the energy kernels.

use std::fmt;

use crate::adc_fom::AdcSurvey;
use crate::interface::Interface;
use crate::node::ProcessNode;
use crate::scaling::ScalingTable;
use crate::units::{Energy, Power, Time};

/// Schema version folded into every hasher. Bump when the meaning of a
/// fed field changes so stale fingerprints can never alias new ones.
pub const FINGERPRINT_SCHEMA_VERSION: u32 = 1;

/// A 128-bit content hash identifying a computation's full input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// The two 64-bit halves, high first.
    #[must_use]
    pub fn parts(self) -> (u64, u64) {
        (self.hi, self.lo)
    }

    /// A shard selector in `0..shards` derived from the low half.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shard(self, shards: usize) -> usize {
        assert!(shards > 0, "shard count must be non-zero");
        (self.lo as usize) % shards
    }

    /// Derives a new fingerprint by mixing a domain tag into this one —
    /// used to key different artifacts of the same underlying input
    /// (e.g. the elastic simulation vs its stall verdict).
    #[must_use]
    pub fn derive(self, tag: &str) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u64(self.hi);
        h.write_u64(self.lo);
        h.write_str(tag);
        h.finish()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const MIX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const MIX_MULT: u64 = 0xff51_afd7_ed55_8ccd;

/// A two-lane streaming hasher producing [`Fingerprint`]s.
///
/// Lane A is FNV-1a; lane B is a rotate-multiply mix with a different
/// seed. The lanes are independent enough that a 64-bit collision in
/// one is vanishingly unlikely to coincide with a collision in the
/// other.
#[derive(Debug, Clone)]
pub struct FpHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FpHasher {
    /// A fresh hasher, pre-seeded with the schema version.
    #[must_use]
    pub fn new() -> Self {
        let mut h = Self {
            a: FNV_OFFSET,
            b: MIX_SEED,
            len: 0,
        };
        h.write_u32(FINGERPRINT_SCHEMA_VERSION);
        h
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte))
                .wrapping_mul(MIX_MULT)
                .rotate_left(23);
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    /// Feeds one byte as a structural tag (enum discriminants, kernel
    /// kinds) — identical to `write_u8` but named for intent.
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Feeds a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to 64 bits.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by bit pattern. `-0.0` and `0.0` hash differently;
    /// feeding code normalises when that distinction must not matter.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Feeds an `f64` slice word-at-a-time: one mix step per value
    /// instead of one per byte, ~6x faster on megapixel buffers. The
    /// stream is **not** compatible with repeated [`Self::write_f64`]
    /// calls — callers must pick one granularity per domain tag and
    /// stay with it (bulk digests use their own `…-mc/…` domain).
    pub fn write_f64_slice_bulk(&mut self, values: &[f64]) {
        for v in values {
            self.write_f64_bulk(*v);
        }
    }

    /// Feeds one value of a word-at-a-time stream: a run of these calls
    /// hashes exactly as one [`Self::write_f64_slice_bulk`] over the
    /// same values does, so a loop can fold other statistics over a
    /// buffer in the same pass that hashes it.
    #[inline]
    pub fn write_f64_bulk(&mut self, value: f64) {
        let w = value.to_bits();
        self.a = (self.a ^ w).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ w).wrapping_mul(MIX_MULT).rotate_left(23);
        self.len = self.len.wrapping_add(8);
    }

    /// Feeds a string, length-prefixed so adjacent strings cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Finishes the stream into a fingerprint.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        // Final avalanche: fold the length and cross the lanes so short
        // inputs still diffuse into both halves.
        let mut hi = self.a ^ self.len.wrapping_mul(MIX_MULT);
        let mut lo = self.b ^ self.len.wrapping_mul(FNV_PRIME);
        hi ^= lo.rotate_left(31);
        hi = hi.wrapping_mul(MIX_MULT);
        lo ^= hi.rotate_left(29);
        lo = lo.wrapping_mul(FNV_PRIME);
        Fingerprint { hi, lo }
    }
}

/// Types whose observable behaviour can be captured as a fingerprint.
pub trait Fingerprintable {
    /// Feeds every behaviour-relevant field into `h`.
    fn feed(&self, h: &mut FpHasher);

    /// This value's standalone fingerprint.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.feed(&mut h);
        h.finish()
    }
}

// ---------------------------------------------------------------------
// Blanket / primitive impls
// ---------------------------------------------------------------------

impl Fingerprintable for u8 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u8(*self);
    }
}

impl Fingerprintable for u32 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u32(*self);
    }
}

impl Fingerprintable for u64 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u64(*self);
    }
}

impl Fingerprintable for usize {
    fn feed(&self, h: &mut FpHasher) {
        h.write_usize(*self);
    }
}

impl Fingerprintable for f64 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(*self);
    }
}

impl Fingerprintable for bool {
    fn feed(&self, h: &mut FpHasher) {
        h.write_bool(*self);
    }
}

impl Fingerprintable for str {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self);
    }
}

impl Fingerprintable for String {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self);
    }
}

impl<T: Fingerprintable + ?Sized> Fingerprintable for &T {
    fn feed(&self, h: &mut FpHasher) {
        (**self).feed(h);
    }
}

impl<T: Fingerprintable> Fingerprintable for Option<T> {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            None => h.write_tag(0),
            Some(v) => {
                h.write_tag(1);
                v.feed(h);
            }
        }
    }
}

impl<T: Fingerprintable> Fingerprintable for [T] {
    fn feed(&self, h: &mut FpHasher) {
        h.write_usize(self.len());
        for item in self {
            item.feed(h);
        }
    }
}

impl<T: Fingerprintable> Fingerprintable for Vec<T> {
    fn feed(&self, h: &mut FpHasher) {
        self.as_slice().feed(h);
    }
}

impl<A: Fingerprintable, B: Fingerprintable> Fingerprintable for (A, B) {
    fn feed(&self, h: &mut FpHasher) {
        self.0.feed(h);
        self.1.feed(h);
    }
}

impl<A: Fingerprintable, B: Fingerprintable, C: Fingerprintable> Fingerprintable for (A, B, C) {
    fn feed(&self, h: &mut FpHasher) {
        self.0.feed(h);
        self.1.feed(h);
        self.2.feed(h);
    }
}

// ---------------------------------------------------------------------
// camj-tech type impls
// ---------------------------------------------------------------------

impl Fingerprintable for Energy {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(self.joules());
    }
}

impl Fingerprintable for Time {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(self.secs());
    }
}

impl Fingerprintable for Power {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(self.watts());
    }
}

impl Fingerprintable for ProcessNode {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(self.nanometers());
    }
}

impl Fingerprintable for AdcSurvey {
    fn feed(&self, h: &mut FpHasher) {
        // The survey curve itself is compile-time constant (covered by
        // the schema version); only the expert override varies.
        self.fom_override().feed(h);
    }
}

impl Fingerprintable for Interface {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            Interface::MipiCsi2 => h.write_tag(0),
            Interface::MicroTsv => h.write_tag(1),
            Interface::Custom { joules_per_byte } => {
                h.write_tag(2);
                h.write_f64(*joules_per_byte);
            }
        }
    }
}

impl Fingerprintable for ScalingTable {
    fn feed(&self, h: &mut FpHasher) {
        // The nominal rows are compile-time constants covered by the
        // schema version; the table carries no runtime state. A tag
        // keeps the feed non-empty so `Option<ScalingTable>` branches
        // stay distinguishable.
        h.write_tag(0x5c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_within_and_across_hashers() {
        let fp1 = ("edgaze", 42u64, 30.0f64).fingerprint();
        let fp2 = ("edgaze", 42u64, 30.0f64).fingerprint();
        assert_eq!(fp1, fp2);
        assert_eq!(fp1.to_string().len(), 32);
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        assert_ne!(("ab", "c").fingerprint(), ("a", "bc").fingerprint());
        assert_ne!(vec![1u32, 2, 3].fingerprint(), vec![1u32, 2].fingerprint());
        assert_ne!(Some(0u32).fingerprint(), None::<u32>.fingerprint());
    }

    #[test]
    fn distinct_values_diverge() {
        assert_ne!(30.0f64.fingerprint(), 30.000001f64.fingerprint());
        assert_ne!(
            ProcessNode::N65.fingerprint(),
            ProcessNode::N22.fingerprint()
        );
        assert_ne!(
            Interface::MipiCsi2.fingerprint(),
            Interface::MicroTsv.fingerprint()
        );
    }

    #[test]
    fn derive_separates_artifact_domains() {
        let base = ("model", 1u32).fingerprint();
        assert_ne!(base.derive("elastic"), base.derive("stall"));
        assert_ne!(base.derive("elastic"), base);
    }

    #[test]
    fn shard_is_in_range() {
        for i in 0..100u32 {
            let fp = i.fingerprint();
            assert!(fp.shard(64) < 64);
        }
    }

    #[test]
    fn survey_override_changes_fingerprint() {
        assert_ne!(
            AdcSurvey::default().fingerprint(),
            AdcSurvey::with_fom(15e-15).fingerprint()
        );
    }
}
