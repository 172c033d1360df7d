//! Functional execution of digital algorithm stages: the tensor
//! transforms behind the end-to-end frame pipeline.
//!
//! The energy/latency side of this crate treats stages declaratively
//! (shapes, op counts); this module gives the same declarations an
//! *executable* meaning so a simulated frame can flow through the
//! mapped DAG and be judged at the task level. The semantics are
//! deliberately the simplest faithful choice per stage kind:
//!
//! * stencils compute the **window mean** (binning, pooling, and
//!   normalized convolution all reduce to this under the declarative
//!   description, which carries no kernel weights),
//! * element-wise stages average their aligned operands,
//! * DNN/custom stages act as shape adapters (nearest-neighbour
//!   resample) — their arithmetic is not described declaratively, so
//!   the pipeline preserves the signal content and lets the task
//!   metric judge the noise that reached them.
//!
//! Every function here is a pure, allocation-deterministic slice
//! transform: no RNG, no floats ordered by thread, so functional
//! frames stay byte-identical across thread counts.
//!
//! Tensors are row-major with channels interleaved:
//! `index = (y * width + x) * channels + c`.

/// The mean over the (clamped) stencil window anchored at each output
/// pixel: one deterministic execution of a declared
/// stencil/binning/pooling stage.
///
/// The window for output `(x, y, c)` starts at
/// `(x·stride, y·stride, c·stride)` in the input and spans the kernel
/// shape, clamped to the input bounds (windows never wrap).
///
/// Window bounds resolve once per output row and column, and each
/// window row is read as one contiguous slice. Every window is still
/// summed tap by tap in `wy → wx → wc` order: a running or separable
/// sum would reorder the `f64` additions, and the result would then
/// match only on inputs that sum exactly.
///
/// # Panics
///
/// Panics if `input` does not match `iw * ih * ic`, or a kernel or
/// stride component is zero.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn box_stencil(
    input: &[f64],
    (iw, ih, ic): (u32, u32, u32),
    kernel: [u32; 3],
    stride: [u32; 3],
    (ow, oh, oc): (u32, u32, u32),
) -> Vec<f64> {
    assert_eq!(input.len(), iw as usize * ih as usize * ic as usize);
    assert!(kernel.iter().all(|&k| k > 0) && stride.iter().all(|&s| s > 0));
    let (row_len, channels) = (iw as usize * ic as usize, ic as usize);
    let mut out = Vec::with_capacity(ow as usize * oh as usize * oc as usize);
    for y in 0..oh {
        let y0 = (y * stride[1]).min(ih - 1);
        let y1 = (y0 + kernel[1]).min(ih);
        for x in 0..ow {
            let x0 = (x * stride[0]).min(iw - 1);
            let x1 = (x0 + kernel[0]).min(iw);
            let (span0, span1) = (x0 as usize * channels, x1 as usize * channels);
            let area = u64::from(x1 - x0) * u64::from(y1 - y0);
            for c in 0..oc {
                let c0 = (c * stride[2]).min(ic - 1);
                let c1 = (c0 + kernel[2]).min(ic);
                let mut sum = 0.0;
                for wy in y0 as usize..y1 as usize {
                    let row = &input[wy * row_len + span0..wy * row_len + span1];
                    if c1 - c0 == ic {
                        // Whole pixels: the window row is one run.
                        for v in row {
                            sum += *v;
                        }
                    } else {
                        for pixel in row.chunks_exact(channels) {
                            for v in &pixel[c0 as usize..c1 as usize] {
                                sum += *v;
                            }
                        }
                    }
                }
                out.push(sum / (area * u64::from(c1 - c0)) as f64);
            }
        }
    }
    out
}

/// The per-index mean of aligned operand tensors: one deterministic
/// execution of a declared element-wise stage. With a single operand
/// this is the identity; with several (e.g. frame subtraction's
/// current + previous frame at steady state) it is the unbiased
/// combination that keeps the signal in `[0, 1]`.
///
/// # Panics
///
/// Panics if `operands` is empty or the slices disagree in length.
#[must_use]
pub fn elementwise_mean(operands: &[&[f64]]) -> Vec<f64> {
    assert!(
        !operands.is_empty(),
        "element-wise needs at least 1 operand"
    );
    let len = operands[0].len();
    assert!(
        operands.iter().all(|o| o.len() == len),
        "element-wise operands must be aligned"
    );
    let scale = 1.0 / operands.len() as f64;
    (0..len)
        .map(|i| operands.iter().map(|o| o[i]).sum::<f64>() * scale)
        .collect()
}

/// Nearest-neighbour resample between tensor shapes — the shape
/// adapter for DNN/custom stages (and size-mismatched edges), chosen
/// because integer index arithmetic is exact and thread-independent.
///
/// Source `(x, c)` offsets are computed once per call and the source
/// row once per output row, with the same integer formulas a
/// per-element evaluation would use.
///
/// # Panics
///
/// Panics if `input` does not match `iw * ih * ic` or any dimension is
/// zero.
#[must_use]
pub fn resample_nearest(
    input: &[f64],
    (iw, ih, ic): (u32, u32, u32),
    (ow, oh, oc): (u32, u32, u32),
) -> Vec<f64> {
    assert_eq!(input.len(), iw as usize * ih as usize * ic as usize);
    assert!(ow > 0 && oh > 0 && oc > 0 && iw > 0 && ih > 0 && ic > 0);
    if (iw, ih, ic) == (ow, oh, oc) {
        return input.to_vec();
    }
    let nearest =
        |i: u32, from: u32, to: u32| (u64::from(i) * u64::from(from) / u64::from(to)) as usize;
    let columns: Vec<usize> = (0..ow)
        .flat_map(|x| {
            let sx = nearest(x, iw, ow);
            (0..oc).map(move |c| sx * ic as usize + nearest(c, ic, oc))
        })
        .collect();
    let row_len = iw as usize * ic as usize;
    let mut out = Vec::with_capacity(ow as usize * oh as usize * oc as usize);
    for y in 0..oh {
        let sy = nearest(y, ih, oh);
        let row = &input[sy * row_len..(sy + 1) * row_len];
        out.extend(columns.iter().map(|&i| row[i]));
    }
    out
}

#[cfg(test)]
mod oracle {
    //! The per-tap kernels the fast paths replaced, kept as bit-exact
    //! references: every window index and every source index is
    //! recomputed from `(x, y, c)` on each tap.

    /// [`super::box_stencil`] with 3-D index math on every tap.
    pub(super) fn box_stencil(
        input: &[f64],
        (iw, ih, ic): (u32, u32, u32),
        kernel: [u32; 3],
        stride: [u32; 3],
        (ow, oh, oc): (u32, u32, u32),
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(ow as usize * oh as usize * oc as usize);
        for y in 0..oh {
            for x in 0..ow {
                for c in 0..oc {
                    let x0 = (x * stride[0]).min(iw - 1);
                    let y0 = (y * stride[1]).min(ih - 1);
                    let c0 = (c * stride[2]).min(ic - 1);
                    let x1 = (x0 + kernel[0]).min(iw);
                    let y1 = (y0 + kernel[1]).min(ih);
                    let c1 = (c0 + kernel[2]).min(ic);
                    let mut sum = 0.0;
                    for wy in y0..y1 {
                        for wx in x0..x1 {
                            for wc in c0..c1 {
                                sum += input[((wy * iw + wx) * ic + wc) as usize];
                            }
                        }
                    }
                    let count = u64::from(x1 - x0) * u64::from(y1 - y0) * u64::from(c1 - c0);
                    out.push(sum / count as f64);
                }
            }
        }
        out
    }

    /// [`super::resample_nearest`] with three `u64` divisions per
    /// output element.
    pub(super) fn resample_nearest(
        input: &[f64],
        (iw, ih, ic): (u32, u32, u32),
        (ow, oh, oc): (u32, u32, u32),
    ) -> Vec<f64> {
        if (iw, ih, ic) == (ow, oh, oc) {
            return input.to_vec();
        }
        let mut out = Vec::with_capacity(ow as usize * oh as usize * oc as usize);
        for y in 0..oh {
            let sy = ((u64::from(y) * u64::from(ih)) / u64::from(oh)) as u32;
            for x in 0..ow {
                let sx = ((u64::from(x) * u64::from(iw)) / u64::from(ow)) as u32;
                for c in 0..oc {
                    let sc = ((u64::from(c) * u64::from(ic)) / u64::from(oc)) as u32;
                    out.push(input[((sy * iw + sx) * ic + sc) as usize]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// A deterministic tensor of `len` values in `[0, 1)`; with `grid`
    /// set, snapped to the 8-bit grid a requantized stage input sits
    /// on, otherwise arbitrary doubles whose window sums round.
    fn tensor(seed: u64, len: usize, grid: bool) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state >> 11) as f64 / (1u64 << 53) as f64;
                if grid {
                    (v * 256.0).floor() / 256.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// The stencil is bit-equal to the per-tap oracle for random
        /// shapes up to 64x64x4, kernels larger than the input, strides
        /// larger than the kernel, and partial-channel windows.
        #[test]
        fn box_stencil_matches_oracle(
            seed in 0u64..u64::MAX,
            iw in 1u32..65,
            ih in 1u32..65,
            ic in 1u32..5,
            kw in 1u32..9,
            kh in 1u32..9,
            kc in 1u32..6,
            sw in 1u32..12,
            sh in 1u32..12,
            sc in 1u32..6,
            ow in 1u32..65,
            oh in 1u32..65,
            oc in 1u32..5,
            grid in 0u32..2,
        ) {
            let input = tensor(seed, (iw * ih * ic) as usize, grid == 1);
            let shapes = ((iw, ih, ic), [kw, kh, kc], [sw, sh, sc], (ow, oh, oc));
            let fast = box_stencil(&input, shapes.0, shapes.1, shapes.2, shapes.3);
            let slow = oracle::box_stencil(&input, shapes.0, shapes.1, shapes.2, shapes.3);
            prop_assert_eq!(bits(&fast), bits(&slow), "{shapes:?}");
        }

        /// The resample is bit-equal to the per-element oracle for
        /// random up/down-sampling in every axis, identity included.
        #[test]
        fn resample_nearest_matches_oracle(
            seed in 0u64..u64::MAX,
            iw in 1u32..65,
            ih in 1u32..65,
            ic in 1u32..5,
            ow in 1u32..65,
            oh in 1u32..65,
            oc in 1u32..5,
            same in 0u32..4,
        ) {
            let to = if same == 0 { (iw, ih, ic) } else { (ow, oh, oc) };
            let input = tensor(seed, (iw * ih * ic) as usize, false);
            let fast = resample_nearest(&input, (iw, ih, ic), to);
            let slow = oracle::resample_nearest(&input, (iw, ih, ic), to);
            prop_assert_eq!(bits(&fast), bits(&slow), "{:?} -> {to:?}", (iw, ih, ic));
        }
    }

    /// The committed stencil shapes (Ed-Gaze's and isscc17's 2x2/2
    /// downsample, quickstart's 3x3/1 edge detector) at full size.
    #[test]
    fn committed_stencil_shapes_match_oracle() {
        for (input, kernel, stride, output) in [
            ((640, 400, 1), [2, 2, 1], [2, 2, 1], (320, 200, 1)),
            ((320, 240, 1), [2, 2, 1], [2, 2, 1], (160, 120, 1)),
            ((16, 16, 1), [3, 3, 1], [1, 1, 1], (16, 16, 1)),
        ] {
            let data = tensor(7, (input.0 * input.1 * input.2) as usize, true);
            assert_eq!(
                bits(&box_stencil(&data, input, kernel, stride, output)),
                bits(&oracle::box_stencil(&data, input, kernel, stride, output)),
                "{input:?} {kernel:?}"
            );
        }
    }

    #[test]
    fn binning_averages_disjoint_windows() {
        // 4x2 input, 2x2 binning -> 2x1.
        let input = [0.0, 1.0, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5];
        let out = box_stencil(&input, (4, 2, 1), [2, 2, 1], [2, 2, 1], (2, 1, 1));
        assert_eq!(out, vec![0.5, 0.5]);
    }

    #[test]
    fn stencil_windows_clamp_at_edges() {
        // 3x1, 3-wide kernel, stride 1: last window clamps to 1 pixel.
        let input = [0.0, 0.3, 0.9];
        let out = box_stencil(&input, (3, 1, 1), [3, 1, 1], [1, 1, 1], (3, 1, 1));
        assert!((out[0] - 0.4).abs() < 1e-12);
        assert!((out[1] - 0.6).abs() < 1e-12);
        assert!((out[2] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn identity_stencil_is_identity() {
        let input = [0.1, 0.2, 0.3, 0.4];
        let out = box_stencil(&input, (2, 2, 1), [1, 1, 1], [1, 1, 1], (2, 2, 1));
        assert_eq!(out, input.to_vec());
    }

    #[test]
    fn elementwise_single_operand_is_identity() {
        let a = [0.25, 0.75];
        assert_eq!(elementwise_mean(&[&a]), a.to_vec());
        let b = [0.75, 0.25];
        assert_eq!(elementwise_mean(&[&a, &b]), vec![0.5, 0.5]);
    }

    #[test]
    fn resample_identity_and_upsample() {
        let input = [0.1, 0.9];
        assert_eq!(
            resample_nearest(&input, (2, 1, 1), (2, 1, 1)),
            input.to_vec()
        );
        assert_eq!(
            resample_nearest(&input, (2, 1, 1), (4, 1, 1)),
            vec![0.1, 0.1, 0.9, 0.9]
        );
        // Downsample picks the nearest source sample.
        let wide = [0.0, 0.25, 0.5, 0.75];
        assert_eq!(
            resample_nearest(&wide, (4, 1, 1), (2, 1, 1)),
            vec![0.0, 0.5]
        );
    }
}
