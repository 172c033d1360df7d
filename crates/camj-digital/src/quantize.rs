//! ADC quantization: the digital side of the noise model.
//!
//! Every analog-to-digital conversion rounds the continuous signal to
//! one of `2^bits` levels. The rounding error is the one noise source
//! that is *intrinsic* to the architecture rather than to a circuit,
//! so the functional simulation derives it from a component's declared
//! converter resolution instead of asking for a descriptor:
//!
//! ```text
//! LSB = 1 / 2^bits (of full scale),   σ_q = LSB / sqrt(12)
//! ```
//!
//! (the classic uniform-quantization result: the error of an unclipped
//! mid-tread quantizer is uniform over `±LSB/2`).
//!
//! All values here are normalised to full scale: signals live in
//! `[0, 1]` and noise amplitudes are fractions of full scale, matching
//! `camj_analog::noise::NoiseSource::rms_fraction`.

/// The widest converter resolution the quantization model accepts,
/// matching `camj_analog::noise::MAX_RESOLUTION_BITS`.
pub const MAX_QUANTIZE_BITS: u32 = 32;

fn assert_bits(bits: u32) {
    assert!(bits > 0, "conversion needs at least 1 bit");
    assert!(
        bits <= MAX_QUANTIZE_BITS,
        "conversion resolution must be at most {MAX_QUANTIZE_BITS} bits, got {bits}"
    );
}

/// One least-significant bit as a fraction of full scale, `2^-bits`.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`].
#[must_use]
pub fn lsb_fraction(bits: u32) -> f64 {
    assert_bits(bits);
    (0.5f64).powi(bits as i32)
}

/// RMS quantization noise as a fraction of full scale,
/// `LSB / sqrt(12)`.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`].
#[must_use]
pub fn quantization_noise_rms(bits: u32) -> f64 {
    lsb_fraction(bits) / 12f64.sqrt()
}

/// Quantizes a full-scale-normalised `value` onto the uniform
/// mid-tread grid of step [`lsb_fraction`]`(bits)` (values round to
/// the nearest level; out-of-range inputs clip to the rails first, as
/// a saturating converter does). The rounding error is therefore
/// bounded by half an LSB, consistent with [`quantization_noise_rms`].
///
/// Deterministic and branch-free in the data, so a simulated frame
/// quantizes byte-identically on every run and thread count.
///
/// # Panics
///
/// Panics if `bits` is zero or exceeds [`MAX_QUANTIZE_BITS`], or
/// `value` is NaN.
#[must_use]
pub fn quantize(value: f64, bits: u32) -> f64 {
    assert_bits(bits);
    assert!(!value.is_nan(), "cannot quantize NaN");
    let step = lsb_fraction(bits);
    ((value.clamp(0.0, 1.0) / step).round() * step).min(1.0)
}

/// `2^52`: adding and subtracting it rounds a double in `[0, 2^52)`
/// to an integer, ties to even, under the default rounding mode.
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// Rounds a non-negative (or `-0.0`) grid coordinate half away from
/// zero, bit-identical to [`f64::round`] on that domain, without a
/// libm call. `scaled` is at most `2^MAX_QUANTIZE_BITS`, far below
/// `2^52`, so `(scaled + 2^52) - 2^52` is `scaled` rounded to the
/// nearest integer with ties to even; the remainder `scaled - r` is
/// exact, and it is `+0.5` only on a tie that went down to an even
/// integer, which half-away-from-zero rounds up instead. `copysign`
/// keeps a `-0.0` input `-0.0`, as `round` does. Every step is plain
/// `f64` arithmetic with a data-independent select, so the loops
/// below compile branch-free and vectorize; a NaN `scaled` yields
/// NaN, and callers reject NaN separately.
#[inline]
fn round_grid(scaled: f64) -> f64 {
    let nearest_even = (scaled + ROUND_MAGIC) - ROUND_MAGIC;
    let tie_up = if scaled - nearest_even == 0.5 {
        1.0
    } else {
        0.0
    };
    (nearest_even + tie_up).copysign(scaled)
}

/// Quantizes `values` in place with a resolved `step` and its exact
/// reciprocal; `true` when some input was NaN.
#[inline]
fn quantize_span(values: &mut [f64], step: f64, inv_step: f64) -> bool {
    let mut nan = false;
    for value in values {
        nan |= value.is_nan();
        *value = (round_grid(value.clamp(0.0, 1.0) * inv_step) * step).min(1.0);
    }
    nan
}

/// Elements quantized per span of [`quantize_slice_sq_err`] before
/// their squared error is summed: small enough to stay L1-resident.
const QUANTIZE_SPAN: usize = 512;

/// Quantizes a whole buffer in place, bit-identical to applying
/// [`quantize`] per element. The step (and its reciprocal) resolve
/// once per call instead of once per pixel — `step` is an exact power
/// of two, so `value / step` and `value * (1/step)` round identically
/// and the per-pixel `powi` disappears from frame-simulation hot
/// loops. Rounding is exact `f64` arithmetic instead of libm `round`,
/// and NaN is checked with one flag per slice, so the loop carries no
/// call and no per-element branch to a panic.
///
/// # Panics
///
/// Same conditions as [`quantize`], for any element.
pub fn quantize_slice(values: &mut [f64], bits: u32) {
    assert_bits(bits);
    let step = lsb_fraction(bits);
    let nan = quantize_span(values, step, 1.0 / step);
    assert!(!nan, "cannot quantize NaN");
}

/// [`quantize_slice`], fused with a squared-error accumulation against
/// a reference buffer (element order, plain left-to-right sum): one
/// memory pass instead of two for simulation hot loops that measure
/// post-quantization RMS. The quantized values are bit-identical to
/// [`quantize_slice`]'s. Each L1-resident span is quantized first and
/// then summed, so the quantizer loop stays free of the serial sum.
///
/// # Panics
///
/// Same conditions as [`quantize`] for any element, or when the buffer
/// lengths differ.
#[must_use]
pub fn quantize_slice_sq_err(values: &mut [f64], reference: &[f64], bits: u32) -> f64 {
    assert_bits(bits);
    assert_eq!(values.len(), reference.len(), "buffer length mismatch");
    let step = lsb_fraction(bits);
    let inv_step = 1.0 / step;
    let mut nan = false;
    let mut sq = 0.0;
    for (span, reference) in values
        .chunks_mut(QUANTIZE_SPAN)
        .zip(reference.chunks(QUANTIZE_SPAN))
    {
        nan |= quantize_span(span, step, inv_step);
        for (value, r) in span.iter().zip(reference) {
            let d = value - r;
            sq += d * d;
        }
    }
    assert!(!nan, "cannot quantize NaN");
    sq
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs that stress the slice paths' rounding: a dense ramp over
    /// and past the rails, every exact half-LSB point near the ends and
    /// the middle of the grid with its neighbours one ulp either side,
    /// signed zeros, values one ulp from 0 and from 1, and
    /// out-of-range values up to the infinities.
    fn edge_values(bits: u32) -> Vec<f64> {
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let down = |v: f64| f64::from_bits(v.to_bits() - 1);
        let step = lsb_fraction(bits);
        let levels = 1u64 << bits;
        let mut values: Vec<f64> = (0..4096)
            .map(|i| -0.1 + 1.3 * (i as f64) / 4095.0)
            .collect();
        let mut ks: Vec<u64> = (0..levels.min(64)).collect();
        ks.extend(levels.saturating_sub(64)..levels);
        ks.extend([levels / 2 - 1, levels / 2, levels / 3]);
        for k in ks {
            let half = (k as f64 + 0.5) * step;
            values.extend([half, down(half), up(half), k as f64 * step]);
        }
        values.extend([
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            down(1.0),
            up(1.0),
            0.5,
            -5.0,
            7.0,
            -1e300,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        values
    }

    /// The slice paths are an optimization, not a new definition: every
    /// element must come out bit-for-bit as the scalar `quantize`
    /// (signed zeros included), at every supported resolution, and
    /// the fused squared error must equal a plain left-to-right sum
    /// over the scalar results.
    #[test]
    fn slice_quantize_matches_scalar_bitwise() {
        for bits in 1..=MAX_QUANTIZE_BITS {
            let values = edge_values(bits);
            let scalar: Vec<f64> = values.iter().map(|v| quantize(*v, bits)).collect();
            let mut slice = values.clone();
            quantize_slice(&mut slice, bits);
            let reference: Vec<f64> = values.iter().map(|v| v.clamp(0.0, 1.0) * 0.75).collect();
            let mut fused = values.clone();
            let sq = quantize_slice_sq_err(&mut fused, &reference, bits);
            for ((got, fused), (want, v)) in
                slice.iter().zip(&fused).zip(scalar.iter().zip(&values))
            {
                assert_eq!(got.to_bits(), want.to_bits(), "bits {bits}, value {v:e}");
                assert_eq!(fused.to_bits(), want.to_bits(), "bits {bits}, value {v:e}");
            }
            let mut want_sq = 0.0;
            for (q, r) in scalar.iter().zip(&reference) {
                want_sq += (q - r) * (q - r);
            }
            assert_eq!(sq.to_bits(), want_sq.to_bits(), "bits {bits}");
        }
    }

    #[test]
    fn negative_zero_stays_negative_zero() {
        for bits in [1, 8, MAX_QUANTIZE_BITS] {
            let mut v = [-0.0];
            quantize_slice(&mut v, bits);
            assert!(v[0] == 0.0 && v[0].is_sign_negative());
            let sq = quantize_slice_sq_err(&mut v, &[0.0], bits);
            assert!(v[0].is_sign_negative());
            assert_eq!(sq, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "cannot quantize NaN")]
    fn slice_quantize_panics_on_nan() {
        let mut values = [0.25, f64::NAN, 0.75];
        quantize_slice(&mut values, 8);
    }

    #[test]
    #[should_panic(expected = "cannot quantize NaN")]
    fn fused_slice_quantize_panics_on_nan() {
        let mut values = [0.25, 0.5, f64::NAN];
        let _ = quantize_slice_sq_err(&mut values, &[0.0; 3], 8);
    }

    #[test]
    fn lsb_halves_per_bit() {
        assert_eq!(lsb_fraction(1), 0.5);
        assert_eq!(lsb_fraction(8), 1.0 / 256.0);
        assert!((lsb_fraction(10) / lsb_fraction(11) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rms_matches_uniform_error_statistics() {
        // 10-bit: LSB ≈ 977 ppm, σ_q ≈ 282 ppm.
        let rms = quantization_noise_rms(10);
        assert!((rms - (1.0 / 1024.0) / 12f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn quantize_is_idempotent_and_clipping() {
        for bits in [1, 4, 8, 12] {
            for v in [0.0, 0.123, 0.5, 0.9999, 1.0] {
                let q = quantize(v, bits);
                assert_eq!(quantize(q, bits), q, "bits={bits} v={v}");
                assert!((q - v).abs() <= lsb_fraction(bits) / 2.0 + 1e-12);
            }
        }
        assert_eq!(quantize(-0.3, 8), 0.0);
        assert_eq!(quantize(1.7, 8), 1.0);
    }

    #[test]
    fn one_bit_is_a_comparator() {
        assert_eq!(quantize(0.2, 1), 0.0);
        assert_eq!(quantize(0.8, 1), 1.0);
    }

    #[test]
    fn measured_error_matches_predicted_rms() {
        // Sweep a dense ramp and compare the empirical RMS error to
        // LSB/sqrt(12); they agree within a few percent.
        let bits = 8;
        let n = 100_000;
        let mse: f64 = (0..n)
            .map(|i| {
                let v = (i as f64 + 0.5) / n as f64;
                let e = quantize(v, bits) - v;
                e * e
            })
            .sum::<f64>()
            / n as f64;
        let measured = mse.sqrt();
        let predicted = quantization_noise_rms(bits);
        assert!(
            (measured / predicted - 1.0).abs() < 0.05,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    #[should_panic(expected = "at most 32 bits")]
    fn out_of_range_bits_rejected() {
        let _ = quantization_noise_rms(33);
    }
}
