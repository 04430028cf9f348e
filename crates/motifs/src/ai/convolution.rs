//! Convolution motif: direct 2-D convolution over `ImageTensor`s.
//!
//! The implementation honours the knobs the paper lists for its AI motif
//! implementations: input geometry (height, width, channels), filter
//! geometry and stride, with TensorFlow's `SAME` padding; the data storage
//! format is whatever layout the input tensor carries.

use dmpb_datagen::image::{ImageTensor, TensorShape};

/// Convolution filter bank: `[out_channels, in_channels, k, k]` row-major.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FilterBank {
    /// Number of output channels.
    pub out_channels: usize,
    /// Number of input channels.
    pub in_channels: usize,
    /// Spatial size of the (square) kernel.
    pub kernel: usize,
    /// Flattened weights.
    pub weights: Vec<f32>,
}

impl FilterBank {
    /// Creates a filter bank from flattened weights.
    ///
    /// # Panics
    ///
    /// Panics if the weight count does not match the declared shape.
    pub(crate) fn new(
        out_channels: usize,
        in_channels: usize,
        kernel: usize,
        weights: Vec<f32>,
    ) -> Self {
        assert_eq!(
            weights.len(),
            out_channels * in_channels * kernel * kernel,
            "weight count does not match filter shape"
        );
        Self {
            out_channels,
            in_channels,
            kernel,
            weights,
        }
    }

    /// A bank with every weight equal to `value` (useful in tests).
    pub(crate) fn constant(
        out_channels: usize,
        in_channels: usize,
        kernel: usize,
        value: f32,
    ) -> Self {
        Self::new(
            out_channels,
            in_channels,
            kernel,
            vec![value; out_channels * in_channels * kernel * kernel],
        )
    }

    fn weight(&self, oc: usize, ic: usize, kh: usize, kw: usize) -> f32 {
        self.weights[((oc * self.in_channels + ic) * self.kernel + kh) * self.kernel + kw]
    }
}

/// Direct 2-D convolution with `SAME` padding: zero padding so that (with
/// stride 1 and an odd kernel) the output keeps the input size.
///
/// # Panics
///
/// Panics if the filter's input channel count does not match the tensor, or
/// if the stride is zero.
pub(crate) fn conv2d(input: &ImageTensor, filters: &FilterBank, stride: usize) -> ImageTensor {
    assert!(stride > 0, "stride must be non-zero");
    let shape = input.shape();
    assert_eq!(
        filters.in_channels, shape.channels,
        "input channel mismatch"
    );

    let pad = (filters.kernel - 1) / 2;
    let out_h = (shape.height + 2 * pad - filters.kernel) / stride + 1;
    let out_w = (shape.width + 2 * pad - filters.kernel) / stride + 1;
    let out_shape = TensorShape::new(shape.batch, filters.out_channels, out_h, out_w);
    let mut output = ImageTensor::zeros(out_shape, input.layout());

    for n in 0..shape.batch {
        for oc in 0..filters.out_channels {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = 0.0f32;
                    for ic in 0..shape.channels {
                        for kh in 0..filters.kernel {
                            for kw in 0..filters.kernel {
                                let ih = (oh * stride + kh) as isize - pad as isize;
                                let iw = (ow * stride + kw) as isize - pad as isize;
                                if ih < 0
                                    || iw < 0
                                    || ih >= shape.height as isize
                                    || iw >= shape.width as isize
                                {
                                    continue;
                                }
                                acc += input.get(n, ic, ih as usize, iw as usize)
                                    * filters.weight(oc, ic, kh, kw);
                            }
                        }
                    }
                    output.set(n, oc, oh, ow, acc);
                }
            }
        }
    }
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::image::TensorLayout;

    fn ones_input(h: usize, w: usize) -> ImageTensor {
        let shape = TensorShape::new(1, 1, h, w);
        let mut t = ImageTensor::zeros(shape, TensorLayout::Nchw);
        for y in 0..h {
            for x in 0..w {
                t.set(0, 0, y, x, 1.0);
            }
        }
        t
    }

    #[test]
    fn same_padding_keeps_spatial_size_with_stride_one() {
        let out = conv2d(&ones_input(6, 6), &FilterBank::constant(1, 1, 3, 1.0), 1);
        assert_eq!(out.shape().height, 6);
        assert_eq!(out.shape().width, 6);
    }

    #[test]
    fn constant_filter_on_ones_sums_window() {
        let out = conv2d(&ones_input(5, 5), &FilterBank::constant(1, 1, 3, 1.0), 1);
        // Interior windows see 9 ones.
        assert_eq!(out.get(0, 0, 1, 1), 9.0);
    }

    #[test]
    fn same_padding_border_sums_partial_window() {
        let out = conv2d(&ones_input(5, 5), &FilterBank::constant(1, 1, 3, 1.0), 1);
        assert_eq!(
            out.get(0, 0, 0, 0),
            4.0,
            "corner window covers 2x2 real pixels"
        );
        assert_eq!(out.get(0, 0, 2, 2), 9.0);
    }

    #[test]
    fn stride_two_halves_the_output() {
        let out = conv2d(&ones_input(8, 8), &FilterBank::constant(1, 1, 2, 1.0), 2);
        assert_eq!(out.shape().height, 4);
        assert_eq!(out.shape().width, 4);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let shape = TensorShape::new(1, 1, 3, 3);
        let mut input = ImageTensor::zeros(shape, TensorLayout::Nchw);
        for y in 0..3 {
            for x in 0..3 {
                input.set(0, 0, y, x, (y * 3 + x) as f32);
            }
        }
        let filters = FilterBank::new(1, 1, 1, vec![1.0]);
        let out = conv2d(&input, &filters, 1);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn mismatched_channels_are_rejected() {
        let _ = conv2d(&ones_input(4, 4), &FilterBank::constant(1, 3, 3, 1.0), 1);
    }
}
