//! Synthetic image tensor generation (AlexNet / Inception-V3 input).
//!
//! The paper drives TensorFlow AlexNet with CIFAR-10 (32x32x3 images,
//! batch size 128) and Inception-V3 with ILSVRC2012 (resized to 299x299x3,
//! batch size 32).  Those data sets are not redistributable here, so this
//! module generates tensors with the same shapes, layouts ("NCHW"/"NHWC",
//! the TensorFlow storage formats the paper calls out) and value range,
//! which is what determines the compute and memory behaviour of the
//! convolutional motifs.

use rand::Rng;

use crate::descriptor::{DataClass, DataDescriptor, Distribution};
use crate::rng::{derive_seed, seeded_rng};

/// Tensor memory layout, matching TensorFlow's data-format strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorLayout {
    /// Batch, channels, height, width.
    Nchw,
    /// Batch, height, width, channels.
    Nhwc,
}

/// Shape of a 4-D image batch tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Batch size (N).
    pub batch: usize,
    /// Number of channels (C).
    pub channels: usize,
    /// Height (H).
    pub height: usize,
    /// Width (W).
    pub width: usize,
}

impl TensorShape {
    /// Creates a shape.
    pub fn new(batch: usize, channels: usize, height: usize, width: usize) -> Self {
        Self {
            batch,
            channels,
            height,
            width,
        }
    }

    /// CIFAR-10 batch shape used by the AlexNet workload (batch 128).
    pub fn cifar10(batch: usize) -> Self {
        Self::new(batch, 3, 32, 32)
    }

    /// ILSVRC2012 batch shape as consumed by Inception-V3 (299x299).
    pub fn ilsvrc2012(batch: usize) -> Self {
        Self::new(batch, 3, 299, 299)
    }

    /// Total number of elements.
    pub(crate) fn num_elements(&self) -> usize {
        self.batch * self.channels * self.height * self.width
    }

    /// Elements per single image (C*H*W).
    pub(crate) fn elements_per_image(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// A 4-D `f32` tensor with an explicit layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageTensor {
    shape: TensorShape,
    layout: TensorLayout,
    data: Vec<f32>,
}

impl ImageTensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: TensorShape, layout: TensorLayout) -> Self {
        Self {
            shape,
            layout,
            data: vec![0.0; shape.num_elements()],
        }
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Memory layout of the tensor.
    pub fn layout(&self) -> TensorLayout {
        self.layout
    }

    /// Flat backing data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Linear index of element `(n, c, h, w)` under the tensor's layout.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub(crate) fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        let s = self.shape;
        assert!(
            n < s.batch && c < s.channels && h < s.height && w < s.width,
            "index out of range"
        );
        match self.layout {
            TensorLayout::Nchw => ((n * s.channels + c) * s.height + h) * s.width + w,
            TensorLayout::Nhwc => ((n * s.height + h) * s.width + w) * s.channels + c,
        }
    }

    /// Element `(n, c, h, w)`.
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.index(n, c, h, w)]
    }

    /// Sets element `(n, c, h, w)`.
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.index(n, c, h, w);
        self.data[i] = v;
    }
}

/// Seeded generator of normalised image batches.
#[derive(Debug, Clone)]
pub struct ImageGenerator {
    seed: u64,
}

impl ImageGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates one batch with values in `[0, 1)` (normalised pixels).
    pub fn generate(&self, shape: TensorShape, layout: TensorLayout) -> ImageTensor {
        self.generate_image_range(shape, layout, 0, shape.batch)
    }

    /// Generates images `[start, end)` of the logical batch as a tensor of
    /// batch size `end - start` (image `n` of the output is image
    /// `start + n` of the logical data set).
    ///
    /// Every image's RNG stream is derived from its global index alone, so
    /// any chunking of `[0, batch)` concatenates (along N) to exactly the
    /// tensor of [`generate`](Self::generate).
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub(crate) fn generate_image_range(
        &self,
        shape: TensorShape,
        layout: TensorLayout,
        start: usize,
        end: usize,
    ) -> ImageTensor {
        assert!(start <= end, "invalid image range {start}..{end}");
        let chunk_shape = TensorShape::new(end - start, shape.channels, shape.height, shape.width);
        let mut tensor = ImageTensor::zeros(chunk_shape, layout);
        for n in 0..chunk_shape.batch {
            let mut rng = seeded_rng(derive_seed(self.seed, (start + n) as u64));
            for c in 0..shape.channels {
                for h in 0..shape.height {
                    for w in 0..shape.width {
                        tensor.set(n, c, h, w, rng.gen::<f32>());
                    }
                }
            }
        }
        tensor
    }

    /// Descriptor for a data set of `num_images` images of the given shape
    /// (4 bytes per element once decoded to `f32`).
    pub fn descriptor(shape: TensorShape, num_images: u64) -> DataDescriptor {
        let per_image = (shape.elements_per_image() * std::mem::size_of::<f32>()) as u64;
        DataDescriptor::new(
            DataClass::Image,
            per_image * num_images,
            per_image,
            0.0,
            Distribution::Uniform,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper_datasets() {
        let c = TensorShape::cifar10(128);
        assert_eq!((c.channels, c.height, c.width), (3, 32, 32));
        let i = TensorShape::ilsvrc2012(32);
        assert_eq!((i.channels, i.height, i.width), (3, 299, 299));
    }

    #[test]
    fn nchw_and_nhwc_indexing_agree_on_values() {
        let gen = ImageGenerator::new(8);
        let t = gen.generate(TensorShape::new(2, 3, 4, 5), TensorLayout::Nchw);
        let u = gen.generate(TensorShape::new(2, 3, 4, 5), TensorLayout::Nhwc);
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        assert_eq!(t.get(n, c, h, w), u.get(n, c, h, w));
                    }
                }
            }
        }
        assert_ne!(
            t.as_slice(),
            u.as_slice(),
            "layouts should differ in memory order"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = ImageGenerator::new(9);
        let shape = TensorShape::cifar10(2);
        assert_eq!(
            gen.generate(shape, TensorLayout::Nchw),
            gen.generate(shape, TensorLayout::Nchw)
        );
    }

    #[test]
    fn chunked_batches_concatenate_to_monolithic_tensor() {
        let gen = ImageGenerator::new(11);
        let shape = TensorShape::new(6, 2, 4, 4);
        let whole = gen.generate(shape, TensorLayout::Nchw);
        for chunk in [1, 2, 4, 6] {
            let mut data = Vec::new();
            let mut start = 0;
            while start < shape.batch {
                let end = (start + chunk).min(shape.batch);
                let part = gen.generate_image_range(shape, TensorLayout::Nchw, start, end);
                data.extend_from_slice(part.as_slice());
                start = end;
            }
            assert_eq!(data, whole.as_slice(), "chunk={chunk}");
        }
    }

    #[test]
    fn values_are_normalised() {
        let gen = ImageGenerator::new(10);
        let t = gen.generate(TensorShape::cifar10(1), TensorLayout::Nhwc);
        assert!(t.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn index_is_bijective() {
        let t = ImageTensor::zeros(TensorShape::new(2, 2, 3, 3), TensorLayout::Nchw);
        let mut seen = std::collections::HashSet::new();
        for n in 0..2 {
            for c in 0..2 {
                for h in 0..3 {
                    for w in 0..3 {
                        assert!(seen.insert(t.index(n, c, h, w)));
                    }
                }
            }
        }
        assert_eq!(seen.len(), t.shape().num_elements());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_rejects_out_of_range() {
        let t = ImageTensor::zeros(TensorShape::new(1, 1, 2, 2), TensorLayout::Nchw);
        let _ = t.index(0, 0, 2, 0);
    }

    #[test]
    fn descriptor_counts_images() {
        let d = ImageGenerator::descriptor(TensorShape::cifar10(1), 50_000);
        assert_eq!(d.class, DataClass::Image);
        assert_eq!(d.element_count(), 50_000);
    }
}
