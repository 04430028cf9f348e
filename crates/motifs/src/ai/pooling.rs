//! Pooling motifs: max pooling and average pooling over `ImageTensor`s.

use dmpb_datagen::image::{ImageTensor, TensorShape};

/// Pooling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PoolMode {
    /// Take the maximum of each window.
    Max,
    /// Take the mean of each window.
    Average,
}

/// 2-D pooling with a square window and stride, valid padding.
///
/// # Panics
///
/// Panics if the window is zero-sized or larger than the input.
pub(crate) fn pool2d(
    input: &ImageTensor,
    window: usize,
    stride: usize,
    mode: PoolMode,
) -> ImageTensor {
    let shape = input.shape();
    assert!(
        window > 0 && stride > 0,
        "window and stride must be non-zero"
    );
    assert!(
        window <= shape.height && window <= shape.width,
        "window larger than the input"
    );
    let out_h = (shape.height - window) / stride + 1;
    let out_w = (shape.width - window) / stride + 1;
    let out_shape = TensorShape::new(shape.batch, shape.channels, out_h, out_w);
    let mut output = ImageTensor::zeros(out_shape, input.layout());
    for n in 0..shape.batch {
        for c in 0..shape.channels {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = match mode {
                        PoolMode::Max => f32::NEG_INFINITY,
                        PoolMode::Average => 0.0,
                    };
                    for kh in 0..window {
                        for kw in 0..window {
                            let v = input.get(n, c, oh * stride + kh, ow * stride + kw);
                            match mode {
                                PoolMode::Max => acc = acc.max(v),
                                PoolMode::Average => acc += v,
                            }
                        }
                    }
                    if mode == PoolMode::Average {
                        acc /= (window * window) as f32;
                    }
                    output.set(n, c, oh, ow, acc);
                }
            }
        }
    }
    output
}

/// Max pooling (convenience wrapper).
pub(crate) fn max_pool2d(input: &ImageTensor, window: usize, stride: usize) -> ImageTensor {
    pool2d(input, window, stride, PoolMode::Max)
}

/// Average pooling (convenience wrapper).
pub(crate) fn average_pool2d(input: &ImageTensor, window: usize, stride: usize) -> ImageTensor {
    pool2d(input, window, stride, PoolMode::Average)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::image::TensorLayout;

    fn ramp_tensor() -> ImageTensor {
        let shape = TensorShape::new(1, 1, 4, 4);
        let mut t = ImageTensor::zeros(shape, TensorLayout::Nchw);
        for h in 0..4 {
            for w in 0..4 {
                t.set(0, 0, h, w, (h * 4 + w) as f32);
            }
        }
        t
    }

    #[test]
    fn max_pool_takes_window_maxima() {
        let out = max_pool2d(&ramp_tensor(), 2, 2);
        assert_eq!(out.shape().height, 2);
        assert_eq!(out.shape().width, 2);
        assert_eq!(out.get(0, 0, 0, 0), 5.0);
        assert_eq!(out.get(0, 0, 0, 1), 7.0);
        assert_eq!(out.get(0, 0, 1, 0), 13.0);
        assert_eq!(out.get(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn average_pool_takes_window_means() {
        let out = average_pool2d(&ramp_tensor(), 2, 2);
        assert_eq!(out.get(0, 0, 0, 0), (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        assert_eq!(out.get(0, 0, 1, 1), (10.0 + 11.0 + 14.0 + 15.0) / 4.0);
    }

    #[test]
    fn stride_one_overlapping_windows() {
        let out = max_pool2d(&ramp_tensor(), 2, 1);
        assert_eq!(out.shape().height, 3);
        assert_eq!(out.shape().width, 3);
        assert_eq!(out.get(0, 0, 0, 0), 5.0);
        assert_eq!(out.get(0, 0, 2, 2), 15.0);
    }

    #[test]
    fn pooling_preserves_batch_and_channels() {
        let shape = TensorShape::new(2, 3, 8, 8);
        let t = ImageTensor::zeros(shape, TensorLayout::Nhwc);
        let out = max_pool2d(&t, 2, 2);
        assert_eq!(out.shape().batch, 2);
        assert_eq!(out.shape().channels, 3);
        assert_eq!(out.shape().height, 4);
    }

    #[test]
    #[should_panic(expected = "window larger")]
    fn oversized_window_is_rejected() {
        let _ = max_pool2d(&ramp_tensor(), 5, 1);
    }
}
