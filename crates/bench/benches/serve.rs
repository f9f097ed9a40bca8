//! Serving-path throughput: the batched inference entry point that
//! `ncl-serve`'s micro-batcher feeds, versus per-request forward calls,
//! plus the scheduler's end-to-end overhead and the JSON codec's cost on
//! one paper-shape (700 ch x T=100) predict line.

use criterion::{criterion_group, criterion_main, Criterion};
use ncl_data::generator::{self, ClassPrototype, ShdLikeConfig};
use ncl_serve::batcher::{BatchConfig, Batcher};
use ncl_serve::metrics::Metrics;
use ncl_serve::protocol;
use ncl_serve::registry::ModelRegistry;
use ncl_snn::{Network, NetworkConfig};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

fn serving_net() -> Network {
    let mut config = NetworkConfig::tiny(48, 4);
    config.hidden_sizes = vec![24, 16];
    Network::new(config).expect("serving net")
}

fn inputs(n: usize, steps: usize) -> Vec<SpikeRaster> {
    let mut rng = Rng::seed_from_u64(7);
    (0..n)
        .map(|_| SpikeRaster::from_fn(48, steps, |_, _| rng.bernoulli(0.15)))
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let net = serving_net();
    let batch = inputs(16, 20);

    let mut group = c.benchmark_group("serve");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    // One batched pass over 16 requests (shared scratch buffers) ...
    group.bench_function("forward_batch_16", |b| {
        b.iter(|| net.forward_batch(std::hint::black_box(&batch)).unwrap())
    });
    // ... versus 16 independent forward calls (per-call allocation).
    group.bench_function("forward_sequential_16", |b| {
        b.iter(|| {
            for input in &batch {
                let _ = net.forward(std::hint::black_box(input)).unwrap();
            }
        })
    });

    // End-to-end scheduler overhead: submit 16 requests, await replies.
    let registry = Arc::new(ModelRegistry::new(serving_net(), "bench"));
    let batcher = Batcher::start(
        registry,
        Arc::new(Metrics::default()),
        BatchConfig {
            batch_size: 16,
            max_wait: Duration::from_micros(200),
            workers: 2,
        },
    )
    .unwrap();
    // The codec on one paper-shape predict line (~2k spike indices): the
    // client renders it, the router and the replica each parse it.
    let config = ShdLikeConfig::paper();
    let proto = ClassPrototype::derive(&config, 0);
    let paper_raster = generator::draw_sample(&config, &proto, &mut Rng::seed_from_u64(1));
    let paper_line = protocol::predict_request_line(1, &paper_raster);
    group.bench_function("predict_request_line_paper", |b| {
        b.iter(|| protocol::predict_request_line(1, std::hint::black_box(&paper_raster)))
    });
    group.bench_function("parse_request_paper", |b| {
        b.iter(|| {
            protocol::parse_request(std::hint::black_box(&paper_line), config.channels).unwrap()
        })
    });

    group.bench_function("batcher_submit_await_16", |b| {
        b.iter(|| {
            let receivers: Vec<_> = batch
                .iter()
                .map(|r| batcher.submit(r.clone()).unwrap())
                .collect();
            for rx in receivers {
                rx.recv().unwrap().unwrap();
            }
        })
    });
    group.finish();
    batcher.shutdown();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
