//! Lowering convolutions to matrix multiplication (im2col).
//!
//! CNN layers are executed on systolic arrays by first lowering each
//! convolution to a GEMM: every output pixel contributes one row of the
//! streamed matrix `A` (its receptive field unrolled to `k*k*C_in` values)
//! and every output channel contributes one column of the stationary matrix
//! `B`. The resulting dimensions are
//!
//! ```text
//! M = C_out,   N = k * k * C_in / groups,   T = H_out * W_out
//! ```
//!
//! which is exactly the `(M, N, T)` notation the paper uses (e.g. ResNet-34
//! layer 20 becomes `(256, 2304, 196)`). Besides the shape mapping this
//! module also implements the actual data transformation and a direct
//! convolution reference, so the functional correctness of the systolic
//! array simulator can be verified end-to-end on real convolutions.

use crate::error::GemmError;
use crate::matrix::{multiply, Matrix};
use crate::problem::GemmDims;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// A single-image activation tensor in channel-major (CHW) layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor3 {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<i32>,
}

impl Tensor3 {
    /// Creates a zero-filled tensor.
    #[must_use]
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
            data: vec![0; channels * height * width],
        }
    }

    /// Creates a tensor filled with values drawn from `rng` in `[low, high]`.
    #[must_use]
    pub fn random(
        channels: usize,
        height: usize,
        width: usize,
        rng: &mut SplitMix64,
        low: i32,
        high: i32,
    ) -> Self {
        let data = (0..channels * height * width)
            .map(|_| rng.next_i32_in(low, high))
            .collect();
        Self {
            channels,
            height,
            width,
            data,
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Value at (`channel`, `row`, `col`), or zero if the spatial position is
    /// outside the tensor (implicit zero padding).
    #[must_use]
    pub fn at_padded(&self, channel: usize, row: isize, col: isize) -> i32 {
        if channel >= self.channels
            || row < 0
            || col < 0
            || row as usize >= self.height
            || col as usize >= self.width
        {
            return 0;
        }
        self.data[(channel * self.height + row as usize) * self.width + col as usize]
    }

    /// Sets the value at (`channel`, `row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, channel: usize, row: usize, col: usize, value: i32) {
        assert!(channel < self.channels && row < self.height && col < self.width);
        self.data[(channel * self.height + row) * self.width + col] = value;
    }
}

/// Shape of a (possibly strided, padded, grouped) 2-D convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShape {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
    /// Input spatial height.
    pub input_height: usize,
    /// Input spatial width.
    pub input_width: usize,
    /// Number of groups (1 for dense convolutions, `in_channels` for
    /// depthwise convolutions).
    pub groups: usize,
}

impl ConvShape {
    /// Creates a dense (ungrouped) square convolution shape.
    #[must_use]
    pub fn dense(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        input_size: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            input_height: input_size,
            input_width: input_size,
            groups: 1,
        }
    }

    /// Creates a depthwise convolution shape (`groups == in_channels`).
    #[must_use]
    pub fn depthwise(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        input_size: usize,
    ) -> Self {
        Self {
            in_channels: channels,
            out_channels: channels,
            kernel,
            stride,
            padding,
            input_height: input_size,
            input_width: input_size,
            groups: channels,
        }
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::InvalidConvolution`] for zero dimensions,
    /// channel counts not divisible by the group count, or kernels larger
    /// than the padded input.
    pub fn validate(&self) -> Result<(), GemmError> {
        let reason = if self.in_channels == 0
            || self.out_channels == 0
            || self.kernel == 0
            || self.stride == 0
            || self.input_height == 0
            || self.input_width == 0
            || self.groups == 0
        {
            Some("all dimensions must be non-zero".to_owned())
        } else if self.in_channels % self.groups != 0 || self.out_channels % self.groups != 0 {
            Some(format!(
                "channel counts ({}, {}) must be divisible by groups ({})",
                self.in_channels, self.out_channels, self.groups
            ))
        } else if self.kernel > self.input_height + 2 * self.padding
            || self.kernel > self.input_width + 2 * self.padding
        {
            Some("kernel larger than padded input".to_owned())
        } else {
            None
        };
        match reason {
            Some(reason) => Err(GemmError::InvalidConvolution { reason }),
            None => Ok(()),
        }
    }

    /// Output spatial height.
    #[must_use]
    pub fn output_height(&self) -> usize {
        (self.input_height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    #[must_use]
    pub fn output_width(&self) -> usize {
        (self.input_width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Input channels per group.
    #[must_use]
    pub fn channels_per_group(&self) -> usize {
        self.in_channels / self.groups
    }

    /// The GEMM dimensions this convolution lowers to (per group):
    /// `M = C_out/groups`... for dense layers (`groups == 1`) this is the
    /// familiar `M = C_out`, `N = k*k*C_in`, `T = H_out * W_out`.
    #[must_use]
    pub fn gemm_dims(&self) -> GemmDims {
        GemmDims::new(
            (self.out_channels / self.groups) as u64,
            (self.kernel * self.kernel * self.channels_per_group()) as u64,
            (self.output_height() * self.output_width()) as u64,
        )
    }

    /// Number of independent GEMMs (one per group).
    #[must_use]
    pub fn gemm_count(&self) -> u64 {
        self.groups as u64
    }

    /// Total multiply-accumulate count of the convolution.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.gemm_dims().macs() * self.gemm_count()
    }
}

/// Convolution weights: `out_channels x (in_channels/groups) x kernel x kernel`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvWeights {
    shape: ConvShape,
    data: Vec<i32>,
}

impl ConvWeights {
    /// Creates random weights for the given shape.
    #[must_use]
    pub fn random(shape: ConvShape, rng: &mut SplitMix64, low: i32, high: i32) -> Self {
        let len = shape.out_channels * shape.channels_per_group() * shape.kernel * shape.kernel;
        Self {
            shape,
            data: (0..len).map(|_| rng.next_i32_in(low, high)).collect(),
        }
    }

    /// The convolution shape these weights belong to.
    #[must_use]
    pub fn shape(&self) -> ConvShape {
        self.shape
    }

    /// Weight value for (`out_channel`, `in_channel_within_group`, `ky`, `kx`).
    #[must_use]
    pub fn at(&self, out_channel: usize, in_channel: usize, ky: usize, kx: usize) -> i32 {
        let k = self.shape.kernel;
        let cpg = self.shape.channels_per_group();
        self.data[((out_channel * cpg + in_channel) * k + ky) * k + kx]
    }
}

/// Lowers the input tensor of one group to the streamed matrix `A`
/// (`T x N` = `H_out*W_out x k*k*C_in/groups`).
///
/// # Errors
///
/// Returns [`GemmError::InvalidConvolution`] if the shape is inconsistent
/// with the input tensor.
pub fn im2col(input: &Tensor3, shape: ConvShape, group: usize) -> Result<Matrix<i32>, GemmError> {
    let mut a = Matrix::<i32>::zeros(0, 0);
    im2col_into(input, shape, group, &mut a)?;
    Ok(a)
}

/// [`im2col`] with a caller-provided (preallocated) output buffer: `a` is
/// reshaped to `T x N` in place, reusing its allocation when large enough,
/// so lowering every group (or every layer of a network) can recycle one
/// staging matrix instead of allocating per call.
///
/// Each output row is unrolled through a mutable row slice in row-major
/// order — one receptive field written left to right — with no intermediate
/// per-row vectors.
///
/// # Errors
///
/// Same as [`im2col`].
pub fn im2col_into(
    input: &Tensor3,
    shape: ConvShape,
    group: usize,
    a: &mut Matrix<i32>,
) -> Result<(), GemmError> {
    shape.validate()?;
    if input.channels() != shape.in_channels
        || input.height() != shape.input_height
        || input.width() != shape.input_width
    {
        return Err(GemmError::InvalidConvolution {
            reason: format!(
                "input tensor {}x{}x{} does not match shape {}x{}x{}",
                input.channels(),
                input.height(),
                input.width(),
                shape.in_channels,
                shape.input_height,
                shape.input_width
            ),
        });
    }
    if group >= shape.groups {
        return Err(GemmError::OutOfBounds { what: "group" });
    }
    let dims = shape.gemm_dims();
    let cpg = shape.channels_per_group();
    let first_channel = group * cpg;
    a.reset_to(dims.t as usize, dims.n as usize);
    let out_w = shape.output_width();
    for t in 0..dims.t as usize {
        let oy = t / out_w;
        let ox = t % out_w;
        let row = a.row_mut(t);
        let mut n = 0;
        for c in 0..cpg {
            for ky in 0..shape.kernel {
                let iy = (oy * shape.stride + ky) as isize - shape.padding as isize;
                for kx in 0..shape.kernel {
                    let ix = (ox * shape.stride + kx) as isize - shape.padding as isize;
                    row[n] = input.at_padded(first_channel + c, iy, ix);
                    n += 1;
                }
            }
        }
    }
    Ok(())
}

/// Lowers the weights of one group to the stationary matrix `B`
/// (`N x M` = `k*k*C_in/groups x C_out/groups`).
///
/// # Errors
///
/// Returns [`GemmError::OutOfBounds`] if `group` is not a valid group index.
pub fn weights_to_matrix(weights: &ConvWeights, group: usize) -> Result<Matrix<i32>, GemmError> {
    let shape = weights.shape();
    shape.validate()?;
    if group >= shape.groups {
        return Err(GemmError::OutOfBounds { what: "group" });
    }
    let dims = shape.gemm_dims();
    let cpg = shape.channels_per_group();
    let out_per_group = shape.out_channels / shape.groups;
    let first_out = group * out_per_group;
    let mut b = Matrix::<i32>::zeros(dims.n as usize, dims.m as usize);
    // Row-major over B: row n of B is the (c, ky, kx) weight of every
    // output channel of the group, so the inner loop walks one output row
    // left to right instead of striding down a column per channel.
    let mut n = 0;
    for c in 0..cpg {
        for ky in 0..shape.kernel {
            for kx in 0..shape.kernel {
                let row = b.row_mut(n);
                for (m, slot) in row.iter_mut().enumerate() {
                    *slot = weights.at(first_out + m, c, ky, kx);
                }
                n += 1;
            }
        }
    }
    Ok(b)
}

/// Direct (nested-loop) convolution reference with 64-bit accumulation.
///
/// # Errors
///
/// Returns shape-mismatch errors consistent with [`im2col`].
pub fn direct_convolution(
    input: &Tensor3,
    weights: &ConvWeights,
) -> Result<Vec<Matrix<i64>>, GemmError> {
    let shape = weights.shape();
    shape.validate()?;
    let out_h = shape.output_height();
    let out_w = shape.output_width();
    let cpg = shape.channels_per_group();
    let out_per_group = shape.out_channels / shape.groups;
    let mut outputs = Vec::with_capacity(shape.groups);
    for group in 0..shape.groups {
        // One (H_out*W_out) x (C_out/groups) matrix per group, matching the
        // layout of the im2col GEMM output.
        let mut out = Matrix::<i64>::zeros(out_h * out_w, out_per_group);
        for m in 0..out_per_group {
            let oc = group * out_per_group + m;
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = 0i64;
                    for c in 0..cpg {
                        let ic = group * cpg + c;
                        for ky in 0..shape.kernel {
                            for kx in 0..shape.kernel {
                                let iy = (oy * shape.stride + ky) as isize - shape.padding as isize;
                                let ix = (ox * shape.stride + kx) as isize - shape.padding as isize;
                                acc += i64::from(input.at_padded(ic, iy, ix))
                                    * i64::from(weights.at(oc, c, ky, kx));
                            }
                        }
                    }
                    out[(oy * out_w + ox, m)] = acc;
                }
            }
        }
        outputs.push(out);
    }
    Ok(outputs)
}

/// Convenience helper: lowers one group of a convolution and multiplies with
/// the reference GEMM, producing the same matrix as [`direct_convolution`].
///
/// # Errors
///
/// Propagates lowering and multiplication errors.
pub fn convolution_as_gemm(
    input: &Tensor3,
    weights: &ConvWeights,
    group: usize,
) -> Result<Matrix<i64>, GemmError> {
    let a = im2col(input, weights.shape(), group)?;
    let b = weights_to_matrix(weights, group)?;
    multiply(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> ConvShape {
        ConvShape::dense(3, 4, 3, 1, 1, 6)
    }

    #[test]
    fn output_sizes_follow_convolution_arithmetic() {
        let s = ConvShape::dense(3, 64, 7, 2, 3, 224);
        assert_eq!(s.output_height(), 112);
        assert_eq!(s.output_width(), 112);
        let s = ConvShape::dense(64, 64, 3, 1, 1, 56);
        assert_eq!(s.output_height(), 56);
        let s = ConvShape::dense(64, 128, 1, 2, 0, 56);
        assert_eq!(s.output_height(), 28);
    }

    #[test]
    fn gemm_dims_match_paper_examples() {
        // ResNet-34 layer 20: 3x3 conv, 256 -> 256 channels, 14x14 output.
        let s = ConvShape::dense(256, 256, 3, 1, 1, 14);
        assert_eq!(s.gemm_dims(), GemmDims::new(256, 2304, 196));
        // ResNet-34 layer 28 (first conv of stage 5): 256 -> 512, stride 2,
        // 7x7 output.
        let s = ConvShape::dense(256, 512, 3, 2, 1, 14);
        assert_eq!(s.gemm_dims(), GemmDims::new(512, 2304, 49));
    }

    #[test]
    fn depthwise_layers_produce_one_gemm_per_channel() {
        let s = ConvShape::depthwise(32, 3, 1, 1, 28);
        assert_eq!(s.gemm_count(), 32);
        assert_eq!(s.gemm_dims(), GemmDims::new(1, 9, 784));
        assert_eq!(s.macs(), 32 * 9 * 784);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let mut s = small_shape();
        s.kernel = 0;
        assert!(s.validate().is_err());
        let mut s = small_shape();
        s.groups = 2; // 3 channels not divisible by 2 groups
        assert!(s.validate().is_err());
        let mut s = small_shape();
        s.kernel = 20;
        assert!(s.validate().is_err());
        assert!(small_shape().validate().is_ok());
    }

    #[test]
    fn im2col_gemm_matches_direct_convolution_dense() {
        let mut rng = SplitMix64::new(77);
        let shape = small_shape();
        let input = Tensor3::random(3, 6, 6, &mut rng, -8, 8);
        let weights = ConvWeights::random(shape, &mut rng, -8, 8);
        let direct = direct_convolution(&input, &weights).unwrap();
        let gemm = convolution_as_gemm(&input, &weights, 0).unwrap();
        assert_eq!(gemm, direct[0]);
    }

    #[test]
    fn im2col_gemm_matches_direct_convolution_strided() {
        let mut rng = SplitMix64::new(78);
        let shape = ConvShape::dense(2, 5, 3, 2, 1, 9);
        let input = Tensor3::random(2, 9, 9, &mut rng, -4, 4);
        let weights = ConvWeights::random(shape, &mut rng, -4, 4);
        let direct = direct_convolution(&input, &weights).unwrap();
        let gemm = convolution_as_gemm(&input, &weights, 0).unwrap();
        assert_eq!(gemm, direct[0]);
    }

    #[test]
    fn im2col_gemm_matches_direct_convolution_depthwise() {
        let mut rng = SplitMix64::new(79);
        let shape = ConvShape::depthwise(4, 3, 1, 1, 5);
        let input = Tensor3::random(4, 5, 5, &mut rng, -4, 4);
        let weights = ConvWeights::random(shape, &mut rng, -4, 4);
        let direct = direct_convolution(&input, &weights).unwrap();
        assert_eq!(direct.len(), 4, "one output matrix per depthwise group");
        for (group, expected) in direct.iter().enumerate() {
            let gemm = convolution_as_gemm(&input, &weights, group).unwrap();
            assert_eq!(&gemm, expected, "group {group} mismatch");
        }
    }

    #[test]
    fn im2col_into_reuses_one_buffer_across_groups() {
        let mut rng = SplitMix64::new(80);
        let shape = ConvShape::depthwise(4, 3, 1, 1, 5);
        let input = Tensor3::random(4, 5, 5, &mut rng, -4, 4);
        let mut staging = Matrix::<i32>::zeros(9, 9); // wrong shape on purpose
        for group in 0..4 {
            im2col_into(&input, shape, group, &mut staging).unwrap();
            assert_eq!(
                staging,
                im2col(&input, shape, group).unwrap(),
                "group {group}"
            );
        }
        // Errors leave the call rejected, not partially applied.
        assert!(im2col_into(&input, shape, 9, &mut staging).is_err());
    }

    #[test]
    fn im2col_rejects_mismatched_input() {
        let input = Tensor3::zeros(2, 6, 6);
        assert!(im2col(&input, small_shape(), 0).is_err());
        let input = Tensor3::zeros(3, 6, 6);
        assert!(im2col(&input, small_shape(), 5).is_err());
        let weights = ConvWeights::random(small_shape(), &mut SplitMix64::new(1), -1, 1);
        assert!(weights_to_matrix(&weights, 9).is_err());
    }

    #[test]
    fn padded_access_returns_zero_outside() {
        let mut t = Tensor3::zeros(1, 2, 2);
        t.set(0, 1, 1, 5);
        assert_eq!(t.at_padded(0, 1, 1), 5);
        assert_eq!(t.at_padded(0, -1, 0), 0);
        assert_eq!(t.at_padded(0, 0, 2), 0);
        assert_eq!(t.at_padded(3, 0, 0), 0);
    }
}
