//! Algorithm stages (paper Sec. 3.3, "Algorithm Description").
//!
//! CamJ observes that in-sensor image processing is stencil-based:
//! "users express only the input/output image dimensions along with the
//! stencil window (kernel) and stride size". A [`Stage`] carries exactly
//! those dimensions — no arithmetic details — plus the data resolution in
//! bits that drives analog precision sizing and communication volume.

use serde::{Deserialize, Serialize};

/// A 3-D image size `[width, height, channels]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ImageSize {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Channel count.
    pub channels: u32,
}

impl ImageSize {
    /// Creates a size.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32, channels: u32) -> Self {
        assert!(
            width > 0 && height > 0 && channels > 0,
            "image dimensions must be non-zero: [{width}, {height}, {channels}]"
        );
        Self {
            width,
            height,
            channels,
        }
    }

    /// Total pixel count.
    #[must_use]
    pub fn count(self) -> u64 {
        u64::from(self.width)
            .saturating_mul(u64::from(self.height))
            .saturating_mul(u64::from(self.channels))
    }
}

impl From<[u32; 3]> for ImageSize {
    fn from([w, h, c]: [u32; 3]) -> Self {
        Self::new(w, h, c)
    }
}

/// What kind of computation a stage performs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StageKind {
    /// Raw pixel production by the pixel array (`PixelInput`).
    Input,
    /// A stencil operation with the given kernel and stride (convolution,
    /// binning, pooling, filtering — the dominant in-sensor pattern).
    Stencil {
        /// Stencil window `[w, h, c]`.
        kernel: [u32; 3],
        /// Stride `[w, h, c]`.
        stride: [u32; 3],
    },
    /// A per-pixel operation over `operands` aligned inputs (e.g. frame
    /// subtraction has two operands: current and previous frame).
    ElementWise {
        /// Input operands consumed per output pixel.
        operands: u32,
    },
    /// A DNN inference stage characterised by its total MAC count (the
    /// paper characterises Ed-Gaze's DNN as "about 5.76 × 10⁷ MAC
    /// operations per frame").
    Dnn {
        /// Multiply-accumulates per frame.
        macs: u64,
        /// Weight parameter count (drives weight-buffer traffic).
        weights: u64,
    },
    /// A stage characterised directly by its per-frame operation count
    /// and per-output read traffic — for published workloads that quote
    /// totals instead of stencil shapes (e.g. Rhythmic Pixel Regions'
    /// "roughly 7.4 × 10⁶ arithmetic operations per frame").
    Custom {
        /// Operations per frame.
        ops: u64,
        /// Input pixels read per output pixel.
        reads_per_output: f64,
    },
}

/// One node of the algorithm DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    name: String,
    kind: StageKind,
    input_size: ImageSize,
    output_size: ImageSize,
    bits: u32,
}

impl Stage {
    /// Creates a pixel-input stage producing `size` raw pixels per frame.
    #[must_use]
    pub fn input(name: impl Into<String>, size: impl Into<ImageSize>) -> Self {
        let size = size.into();
        Self {
            name: name.into(),
            kind: StageKind::Input,
            input_size: size,
            output_size: size,
            bits: 8,
        }
    }

    /// Creates a stencil stage.
    #[must_use]
    pub fn stencil(
        name: impl Into<String>,
        input_size: impl Into<ImageSize>,
        output_size: impl Into<ImageSize>,
        kernel: [u32; 3],
        stride: [u32; 3],
    ) -> Self {
        assert!(
            kernel.iter().all(|&k| k > 0) && stride.iter().all(|&s| s > 0),
            "kernel and stride dimensions must be non-zero"
        );
        Self {
            name: name.into(),
            kind: StageKind::Stencil { kernel, stride },
            input_size: input_size.into(),
            output_size: output_size.into(),
            bits: 8,
        }
    }

    /// Creates an element-wise stage over `operands` aligned inputs.
    #[must_use]
    pub fn element_wise(
        name: impl Into<String>,
        size: impl Into<ImageSize>,
        operands: u32,
    ) -> Self {
        assert!(operands > 0, "element-wise stages need at least 1 operand");
        let size = size.into();
        Self {
            name: name.into(),
            kind: StageKind::ElementWise { operands },
            input_size: size,
            output_size: size,
            bits: 8,
        }
    }

    /// Creates a DNN stage with the given per-frame MAC count and weight
    /// parameter count.
    #[must_use]
    pub fn dnn(
        name: impl Into<String>,
        input_size: impl Into<ImageSize>,
        output_size: impl Into<ImageSize>,
        macs: u64,
        weights: u64,
    ) -> Self {
        assert!(macs > 0, "a DNN stage must perform at least one MAC");
        Self {
            name: name.into(),
            kind: StageKind::Dnn { macs, weights },
            input_size: input_size.into(),
            output_size: output_size.into(),
            bits: 8,
        }
    }

    /// Creates a stage from a published operation total and per-output
    /// read traffic.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero or `reads_per_output` is negative or
    /// non-finite.
    #[must_use]
    pub fn custom(
        name: impl Into<String>,
        input_size: impl Into<ImageSize>,
        output_size: impl Into<ImageSize>,
        ops: u64,
        reads_per_output: f64,
    ) -> Self {
        assert!(ops > 0, "a custom stage must perform at least one op");
        assert!(
            reads_per_output.is_finite() && reads_per_output >= 0.0,
            "reads per output must be non-negative and finite, got {reads_per_output}"
        );
        Self {
            name: name.into(),
            kind: StageKind::Custom {
                ops,
                reads_per_output,
            },
            input_size: input_size.into(),
            output_size: output_size.into(),
            bits: 8,
        }
    }

    /// Overrides the data resolution in bits (default 8) — builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn with_bits(mut self, bits: u32) -> Self {
        assert!(bits > 0, "data resolution must be at least 1 bit");
        self.bits = bits;
        self
    }

    /// The stage's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stage's kind.
    #[must_use]
    pub fn kind(&self) -> StageKind {
        self.kind
    }

    /// Input image size.
    #[must_use]
    pub fn input_size(&self) -> ImageSize {
        self.input_size
    }

    /// Output image size.
    #[must_use]
    pub fn output_size(&self) -> ImageSize {
        self.output_size
    }

    /// Data resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Bytes per output pixel (resolution rounded up to whole bytes).
    #[must_use]
    pub fn bytes_per_pixel(&self) -> u64 {
        u64::from(self.bits.div_ceil(8))
    }

    /// Output data volume per frame in bytes (drives Eq. 17).
    #[must_use]
    pub fn output_bytes(&self) -> u64 {
        self.output_size.count() * self.bytes_per_pixel()
    }

    /// Arithmetic operations per frame, derived from the declarative
    /// description (the numerator of Eq. 3):
    ///
    /// * input: one readout per produced pixel,
    /// * stencil: one op per kernel element per output pixel,
    /// * element-wise: one op per operand per output pixel,
    /// * DNN: the declared MAC count.
    #[must_use]
    pub fn ops_per_frame(&self) -> u64 {
        match self.kind {
            StageKind::Input => self.output_size.count(),
            StageKind::Stencil { kernel, .. } => {
                let k = u64::from(kernel[0]) * u64::from(kernel[1]) * u64::from(kernel[2]);
                self.output_size.count() * k
            }
            StageKind::ElementWise { operands } => self.output_size.count() * u64::from(operands),
            StageKind::Dnn { macs, .. } => macs,
            StageKind::Custom { ops, .. } => ops,
        }
    }

    /// Input pixels read per output pixel (stencil window, operands, or
    /// DNN activation traffic).
    #[must_use]
    pub fn reads_per_output(&self) -> f64 {
        match self.kind {
            StageKind::Input => 0.0,
            StageKind::Stencil { kernel, .. } => {
                (u64::from(kernel[0]) * u64::from(kernel[1]) * u64::from(kernel[2])) as f64
            }
            StageKind::ElementWise { operands } => f64::from(operands),
            StageKind::Dnn { macs, .. } => macs as f64 / self.output_size.count() as f64,
            StageKind::Custom {
                reads_per_output, ..
            } => reads_per_output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_stage_ops_equal_pixels() {
        let s = Stage::input("Input", [32, 32, 1]);
        assert_eq!(s.ops_per_frame(), 1024);
        assert_eq!(s.input_size(), s.output_size());
    }

    #[test]
    fn pixel_count_saturates_instead_of_wrapping() {
        // 2^32 x 2^32 x 2^32 overflows u64; a wrapped count could pass
        // a size limit.
        assert_eq!(ImageSize::from([u32::MAX; 3]).count(), u64::MAX);
        assert_eq!(ImageSize::from([640, 400, 3]).count(), 768_000);
    }

    #[test]
    fn stencil_ops_scale_with_kernel() {
        let s = Stage::stencil("Edge", [16, 16, 1], [16, 16, 1], [3, 3, 1], [1, 1, 1]);
        assert_eq!(s.ops_per_frame(), 256 * 9);
        assert!((s.reads_per_output() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn binning_is_a_stencil() {
        let s = Stage::stencil("Binning", [32, 32, 1], [16, 16, 1], [2, 2, 1], [2, 2, 1]);
        assert_eq!(s.ops_per_frame(), 256 * 4);
    }

    #[test]
    fn element_wise_counts_operands() {
        let s = Stage::element_wise("FrameSub", [320, 200, 1], 2);
        assert_eq!(s.ops_per_frame(), 2 * 320 * 200);
    }

    #[test]
    fn dnn_uses_declared_macs() {
        let s = Stage::dnn("ROI-DNN", [320, 200, 1], [16, 16, 1], 57_600_000, 500_000);
        assert_eq!(s.ops_per_frame(), 57_600_000);
    }

    #[test]
    fn bytes_round_up() {
        let s = Stage::input("x", [10, 10, 1]).with_bits(10);
        assert_eq!(s.bytes_per_pixel(), 2);
        assert_eq!(s.output_bytes(), 200);
    }

    #[test]
    fn output_bytes_default_8bit() {
        let s = Stage::input("x", [1920, 1080, 1]);
        assert_eq!(s.output_bytes(), 1920 * 1080);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_kernel_rejected() {
        let _ = Stage::stencil("bad", [8, 8, 1], [8, 8, 1], [0, 3, 1], [1, 1, 1]);
    }
}
