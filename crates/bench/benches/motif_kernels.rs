//! Criterion wall-clock benches over the real motif kernels (one group per
//! motif class).
use criterion::{criterion_group, criterion_main, Criterion};
use dmpb_datagen::graph::{GraphGenerator, GraphSpec};
use dmpb_datagen::image::{ImageGenerator, TensorLayout, TensorShape};
use dmpb_datagen::matrix::MatrixSpec;
use dmpb_datagen::text::TextGenerator;
use dmpb_motifs::ai::convolution::{conv2d, FilterBank, Padding};
use dmpb_motifs::ai::pooling::max_pool2d;
use dmpb_motifs::bigdata::{graph_ops, logic, sort, statistics, transform};
use std::hint::black_box;

fn bench_motifs(c: &mut Criterion) {
    let mut group = c.benchmark_group("motif_kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let keys = TextGenerator::new(1).generate(20_000).keys();
    group.bench_function("sort/quick_sort_20k", |b| {
        b.iter(|| {
            let mut k = keys.clone();
            sort::quick_sort(&mut k);
            black_box(k.len())
        })
    });
    group.bench_function("sort/merge_sort_20k", |b| {
        b.iter(|| black_box(sort::merge_sort(&keys).len()))
    });

    let graph = GraphGenerator::new(GraphSpec::power_law(10_000, 8, 2)).generate();
    group.bench_function("graph/bfs_10k_vertices", |b| {
        b.iter(|| black_box(graph_ops::traversal_reach(&graph, 0)))
    });
    let ranks = vec![1.0 / 10_000.0; 10_000];
    group.bench_function("graph/pagerank_iteration", |b| {
        b.iter(|| black_box(graph_ops::pagerank_iteration(&graph, &ranks, 0.85).len()))
    });

    let signal: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.01).sin()).collect();
    group.bench_function("transform/fft_8192", |b| {
        b.iter(|| black_box(transform::fft_real(&signal).len()))
    });

    let payload = TextGenerator::new(3).generate(5_000);
    group.bench_function("logic/md5_500kb", |b| {
        b.iter(|| black_box(logic::md5(payload.as_bytes())))
    });

    let values: Vec<f64> = (0..100_000).map(|i| (i as f64 * 0.37).sin()).collect();
    group.bench_function("statistics/count_average_100k", |b| {
        b.iter(|| black_box(statistics::count_average(&values)))
    });

    let m = MatrixSpec::dense(96, 96, 5).generate_dense();
    group.bench_function("matrix/matmul_96", |b| {
        b.iter(|| black_box(m.multiply(&m).frobenius_norm()))
    });

    let image = ImageGenerator::new(7).generate(TensorShape::new(4, 3, 32, 32), TensorLayout::Nchw);
    let filters = FilterBank::constant(16, 3, 3, 0.05);
    group.bench_function("ai/conv2d_32x32", |b| {
        b.iter(|| black_box(conv2d(&image, &filters, 1, Padding::Same).as_slice().len()))
    });
    group.bench_function("ai/max_pool_32x32", |b| {
        b.iter(|| black_box(max_pool2d(&image, 2, 2).as_slice().len()))
    });

    group.finish();
}

criterion_group!(benches, bench_motifs);
criterion_main!(benches);
