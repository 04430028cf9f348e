//! # dmpb-datagen — data generation substrate
//!
//! The paper's central observation is that big data and AI workload
//! behaviour is driven not only by the algorithm but by the **input data**:
//! its type (text / vectors / graph / matrix / image), its size, its
//! distribution and its sparsity.  The original evaluation uses `gensort`
//! for TeraSort text records, BDGS for vectors and graphs, and the
//! CIFAR-10 / ILSVRC2012 image data sets for the AI workloads.  None of
//! those external tools or data sets are available in this reproduction,
//! so this crate provides seeded, deterministic generators that expose the
//! same knobs:
//!
//! * [`text`] — gensort-style 100-byte records (10-byte key + payload);
//! * [`vectors`] — dense and sparse numeric vectors with configurable
//!   sparsity (the Fig. 7 / Fig. 8 sparse-vs-dense experiment);
//! * [`graph`] — power-law and uniform random graphs in CSR form
//!   (PageRank input, BDGS substitute);
//! * [`matrix`] — dense and sparse matrices;
//! * [`image`] — synthetic image tensors with CIFAR-10 / ILSVRC2012 shapes
//!   in `NCHW` or `NHWC` layout (AlexNet / Inception-V3 input);
//! * [`distributions`] — uniform / gaussian / zipf samplers used by all of
//!   the above;
//! * [`chunks`] — the granule grid every generator addresses its data set
//!   on, so generating any granule-aligned range is byte-identical to
//!   the matching slice of the whole data set;
//! * [`descriptor`] — a compact [`descriptor::DataDescriptor`] summarising
//!   the generated data, consumed by the motif cost models so that the
//!   performance model sees exactly the data the kernels operate on.
//!
//! Every generator takes an explicit seed; the same seed always produces
//! the same bytes, which keeps the whole experiment pipeline reproducible.
//!
//! ```
//! use dmpb_datagen::text::{TextGenerator, RECORD_LEN};
//!
//! let records = TextGenerator::new(42).generate(1_000);
//! assert_eq!(records.len(), 1_000);
//! assert_eq!(records.as_bytes().len(), 1_000 * RECORD_LEN);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chunks;
pub mod descriptor;
pub mod distributions;
pub mod graph;
pub mod image;
pub mod matrix;
pub mod rng;
pub mod text;
pub mod vectors;

pub use chunks::{granule_seed, CHUNK_GRANULE};
pub use descriptor::{DataClass, DataDescriptor, Distribution};
pub use rng::seeded_rng;
