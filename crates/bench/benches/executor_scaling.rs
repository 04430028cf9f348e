//! Worker-count scaling of the DAG executor: the work-stealing scheduler
//! swept at 1/2/4/8 workers over the two widest DAGs of the suite
//! (TensorFlow Inception v3's parallel towers and Spark TeraSort's
//! wide-dependency fork/join).

use criterion::{criterion_group, criterion_main, Criterion};
use dmpb_core::decompose::decompose;
use dmpb_core::executor::DagExecutor;
use dmpb_core::features::initial_parameters;
use dmpb_core::ProxyBenchmark;
use dmpb_workloads::{workload_by_kind, ClusterConfig, WorkloadKind};
use std::hint::black_box;

const ELEMENTS: usize = 20_000;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn proxy_for(kind: WorkloadKind) -> ProxyBenchmark {
    let cluster = ClusterConfig::five_node_westmere();
    let workload = workload_by_kind(kind);
    ProxyBenchmark::from_decomposition(
        &decompose(workload.as_ref()),
        initial_parameters(workload.as_ref(), &cluster),
    )
}

fn bench_executor_scaling(c: &mut Criterion) {
    for kind in [WorkloadKind::InceptionV3, WorkloadKind::SparkTeraSort] {
        let proxy = proxy_for(kind);
        let dag = proxy.dag();
        assert!(dag.is_branching(), "{kind} must expose a branching DAG");

        let mut group = c.benchmark_group(format!("executor_scaling/{kind}"));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));

        let reference = DagExecutor::new().execute(&dag, ELEMENTS, 1).checksum;
        for workers in WORKER_SWEEP {
            let executor = DagExecutor::new().with_max_parallel(workers);
            // The digest must not depend on the worker count; only
            // wall-clock may.
            assert_eq!(executor.execute(&dag, ELEMENTS, 1).checksum, reference);

            group.bench_function(format!("work_stealing/{workers}w"), |b| {
                b.iter(|| black_box(executor.execute(&dag, ELEMENTS, 1).checksum))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_executor_scaling);
criterion_main!(benches);
