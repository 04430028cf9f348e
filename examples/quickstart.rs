//! Quickstart: generate data, run a data motif for real, model it under the
//! performance-model instrument, and print the resulting metric vector.
//!
//! Run with: `cargo run --example quickstart`

use data_motif_proxy::datagen::text::TextGenerator;
use data_motif_proxy::motifs::bigdata::sort;
use data_motif_proxy::motifs::{MotifConfig, MotifKind};
use data_motif_proxy::perfmodel::{ArchProfile, ExecutionEngine};

fn main() {
    // 1. Generate gensort-style records and really sort them.
    let records = TextGenerator::new(42).generate(100_000);
    let mut sorted = records.keys();
    sort::quick_sort(&mut sorted);
    println!(
        "sorted {} records; first key = {:?}",
        sorted.len(),
        &sorted[0]
    );

    // 2. Model the same motif at TeraSort scale (100 GB) under the shared
    //    performance-model instrument.
    let data = TextGenerator::descriptor(100 << 30);
    let profile = MotifKind::QuickSort.cost_profile(&data, &MotifConfig::big_data_default());
    let engine = ExecutionEngine::new(ArchProfile::westmere_e5645());
    let metrics = engine.run(&profile, 12);

    println!("\nQuickSort motif over 100 GB on a modelled Xeon E5645 node:");
    for (id, value) in metrics.iter() {
        println!("  {id:<12} = {value:.3}");
    }
}
