//! Throughput benchmark of the happens-before schedule checker: events
//! certified per second, on a real engine trace and on a synthetic
//! many-GPU trace that stresses the vector-clock join.

use criterion::{criterion_group, criterion_main, Criterion};
use hongtu_core::{HongTuConfig, Session};
use hongtu_datasets::{load, DatasetKey};
use hongtu_nn::ModelKind;
use hongtu_sim::{
    Access, BarrierScope, Device, Event, EventKind, MachineConfig, Region, ResourceId, Trace,
};
use hongtu_tensor::SeededRng;
use hongtu_verify::verify_trace;
use std::hint::black_box;

/// One recorded training epoch on the reddit proxy.
fn engine_trace() -> Trace {
    let ds = load(DatasetKey::Rdt, &mut SeededRng::new(1));
    let machine = MachineConfig::scaled(4, 512 << 20);
    let mut session =
        Session::new(&ds, ModelKind::Gcn, 32, 2, 4, HongTuConfig::full(machine)).unwrap();
    session.machine_mut().enable_unbounded_trace();
    session.trainer().epoch().unwrap();
    session.machine().trace().clone()
}

/// A synthetic barrier-heavy schedule: `gpus` entities, `batches` batch
/// segments, each with a load, a cross-GPU pull, and a compute per GPU.
fn synthetic_trace(gpus: u32, batches: u32) -> Trace {
    let mut t = Trace::unbounded();
    for b in 0..batches {
        for g in 0..gpus {
            let rep = ResourceId::DevRep { gpu: g };
            t.record(
                Event::new(EventKind::H2D, Device::Gpu(g), 1 << 20, 1e-4, 0.0)
                    .with_accesses(vec![Access::write(rep, Region::Owned).with_gen(b)]),
            );
        }
        t.record(Event::new(
            EventKind::Barrier(BarrierScope::Phase),
            Device::Host,
            0,
            0.0,
            0.0,
        ));
        for g in 0..gpus {
            let src = ResourceId::DevRep {
                gpu: (g + 1) % gpus,
            };
            let dst = ResourceId::DevRep { gpu: g };
            t.record(
                Event::new(EventKind::D2D, Device::Gpu(g), 1 << 18, 1e-5, 0.0).with_accesses(vec![
                    Access::read(src, Region::Owned).with_gen(b),
                    Access::write(dst, Region::Fetched).with_gen(b),
                ]),
            );
            t.record(
                Event::new(EventKind::GpuCompute, Device::Gpu(g), 0, 1e-4, 0.0)
                    .with_accesses(vec![Access::read(dst, Region::All)]),
            );
        }
        t.record(Event::new(
            EventKind::Barrier(BarrierScope::Batch),
            Device::Host,
            0,
            0.0,
            0.0,
        ));
    }
    t
}

/// The vendored criterion reports time per iteration only; print the
/// headline events/sec figure alongside it.
fn events_per_sec(name: &str, trace: &Trace) {
    let iters = 50;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        black_box(verify_trace(trace).is_ok());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    eprintln!(
        "{name}: {} events, {:.1}M events/sec",
        trace.len(),
        trace.len() as f64 / per_iter / 1e6
    );
}

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_trace");

    let engine = engine_trace();
    assert!(verify_trace(&engine).is_ok());
    events_per_sec("engine-epoch/rdt-gcn2", &engine);
    group.bench_function("engine-epoch/rdt-gcn2", |b| {
        b.iter(|| black_box(verify_trace(&engine).is_ok()))
    });

    for gpus in [4u32, 16] {
        let t = synthetic_trace(gpus, 64);
        assert!(verify_trace(&t).is_ok());
        let name = format!("synthetic/{gpus}gpu-64batch");
        events_per_sec(&name, &t);
        group.bench_function(name, |b| b.iter(|| black_box(verify_trace(&t).is_ok())));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_checker
}
criterion_main!(benches);
