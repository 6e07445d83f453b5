//! Partially-offloading comparators — the systems of the paper's §2.4
//! whose limitations motivate HongTu (Table 2's NeuGraph/NeutronStar and
//! ROC rows).
//!
//! - **NeuGraph/NeutronStar style**: 2-D partitioning streams *vertex*
//!   data chunk-by-chunk, but all **intermediate** data stays resident in
//!   GPU memory, and the 2-D split separates a vertex's neighbors across
//!   chunks — full-neighbor softmax models (GAT) cannot be trained
//!   chunk-at-a-time (Limitation 1, first half).
//! - **ROC style**: all **vertex** data stays resident in GPU memory,
//!   while intermediate tensors are swapped to the CPU at whole-graph
//!   granularity under a cost model — inefficient for edge-heavy models
//!   and impossible when a single intermediate tensor exceeds device
//!   memory (Limitation 1, second half).

use super::Workload;
use hongtu_nn::ModelKind;
use hongtu_sim::{
    Access, BarrierScope, Device, Event, EventKind, MachineConfig, Region, ResourceId, SimError,
    Trace,
};

const F32: usize = std::mem::size_of::<f32>();

/// Why a partially-offloading system cannot run a workload.
#[derive(Debug)]
pub enum Limitation {
    /// Required resident data exceeds device memory.
    OutOfMemory(SimError),
    /// The system's partitioning cannot express the model's aggregation.
    Unsupported(String),
}

impl std::fmt::Display for Limitation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Limitation::OutOfMemory(e) => write!(f, "{e}"),
            Limitation::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

/// NeuGraph/NeutronStar-style partial offloading: streamed vertex data,
/// resident intermediates, 2-D partitioning.
pub struct NeutronStyle {
    /// Platform (all GPUs used).
    pub machine: MachineConfig,
}

impl NeutronStyle {
    /// A system on the given platform.
    pub fn new(machine: MachineConfig) -> Self {
        NeutronStyle { machine }
    }

    /// Per-epoch seconds, or the limitation that stops the run.
    pub fn epoch_time(&self, w: &Workload<'_>) -> Result<f64, Limitation> {
        if w.kind == ModelKind::Gat {
            return Err(Limitation::Unsupported(
                "2-D partitioning splits a vertex's neighbor set across chunks; \
                 GAT's per-neighbor-set softmax needs all of them at once"
                    .into(),
            ));
        }
        let ds = w.dataset;
        let m = self.machine.num_gpus;
        let (v, e) = (ds.num_vertices(), ds.num_edges());
        // All intermediates resident, per GPU.
        let resident = w.total_intermediate_bytes(v, e, v) / m
            + ds.graph.topology_bytes() / m
            + 3 * w.param_bytes();
        if resident > self.machine.gpu_memory {
            return Err(Limitation::OutOfMemory(SimError::OutOfMemory {
                device: "GPU (NeuGraph/NeutronStar-style)".into(),
                label: "resident intermediate data".into(),
                requested: resident,
                in_use: 0,
                capacity: self.machine.gpu_memory,
            }));
        }
        // Vertex data streamed per 2-D chunk with full neighbor-replica
        // amplification (no deduplication; paper Limitation 2). The 2-D
        // grid uses m × m chunks.
        let dims = w.dims();
        let alpha = 1.0 + (m as f64).ln(); // coarse 2-D replication growth
        let streamed: f64 = dims
            .iter()
            .map(|&d| 2.0 * alpha * v as f64 * (d * F32) as f64)
            .sum();
        let flops = w.epoch_flops(v as f64, e as f64, v as f64, false);
        let compute =
            flops.dense / self.machine.gpu_dense_flops + flops.edge / self.machine.gpu_edge_flops;
        Ok(compute / m as f64 + streamed / (self.machine.pcie_bw * m as f64))
    }

    /// The annotated execution schedule of one epoch, for the
    /// happens-before checker. Vertex data streams host→GPU per layer
    /// chunk (no deduplication — every GPU loads its full 2-D neighbor
    /// slice), intermediates stay resident, and layer results go back to
    /// the host store per-partition.
    pub fn epoch_schedule(&self, w: &Workload<'_>) -> Result<Trace, Limitation> {
        self.epoch_time(w)?;
        let m = self.machine.num_gpus;
        let dims = w.dims();
        let v = w.dataset.num_vertices();
        let mut t = Trace::unbounded();
        let rep = |l: usize| ResourceId::Rep { layer: l as u32 };
        let grad = |l: usize| ResourceId::Grad { layer: l as u32 };
        let dev = |g: usize| ResourceId::DevRep { gpu: g as u32 };
        let barrier = |t: &mut Trace, scope| {
            t.record(Event::new(
                EventKind::Barrier(scope),
                Device::Host,
                0,
                0.0,
                0.0,
            ));
        };
        for l in 0..w.layers {
            for g in 0..m {
                let bytes = (v / m) * dims[l] * F32;
                t.record(
                    Event::new(EventKind::H2D, Device::Gpu(g as u32), bytes, 0.0, 0.0)
                        .with_accesses(vec![
                            Access::read(rep(l), Region::All),
                            Access::write(dev(g), Region::All).with_gen(l as u32),
                        ]),
                );
                t.record(
                    Event::new(EventKind::GpuCompute, Device::Gpu(g as u32), 0, 0.0, 0.0)
                        .with_accesses(vec![Access::read(dev(g), Region::All).with_gen(l as u32)]),
                );
                t.record(
                    Event::new(EventKind::D2H, Device::Gpu(g as u32), bytes, 0.0, 0.0)
                        .with_accesses(vec![Access::write(rep(l + 1), Region::Part(g as u32))]),
                );
            }
            barrier(&mut t, BarrierScope::Batch);
        }
        t.record(
            Event::new(EventKind::GpuCompute, Device::Gpu(0), 0, 0.0, 0.0).with_accesses(vec![
                Access::read(rep(w.layers), Region::All),
                Access::write(grad(w.layers), Region::All),
            ]),
        );
        barrier(&mut t, BarrierScope::Batch);
        for l in (0..w.layers).rev() {
            for g in 0..m {
                let bytes = (v / m) * dims[l + 1] * F32;
                t.record(
                    Event::new(EventKind::H2D, Device::Gpu(g as u32), bytes, 0.0, 0.0)
                        .with_accesses(vec![
                            Access::read(grad(l + 1), Region::All),
                            Access::read(rep(l), Region::All),
                        ]),
                );
                t.record(Event::new(
                    EventKind::GpuCompute,
                    Device::Gpu(g as u32),
                    0,
                    0.0,
                    0.0,
                ));
                t.record(
                    Event::new(EventKind::D2H, Device::Gpu(g as u32), bytes, 0.0, 0.0)
                        .with_accesses(vec![Access::accum(grad(l), Region::All)]),
                );
            }
            barrier(&mut t, BarrierScope::Batch);
        }
        barrier(&mut t, BarrierScope::Epoch);
        Ok(t)
    }
}

/// ROC-style partial offloading: resident vertex data, swapped
/// intermediates at whole-graph granularity.
pub struct RocStyle {
    /// Platform (all GPUs used).
    pub machine: MachineConfig,
}

impl RocStyle {
    /// A system on the given platform.
    pub fn new(machine: MachineConfig) -> Self {
        RocStyle { machine }
    }

    /// Per-epoch seconds, or the limitation that stops the run.
    pub fn epoch_time(&self, w: &Workload<'_>) -> Result<f64, Limitation> {
        let ds = w.dataset;
        let m = self.machine.num_gpus;
        let (v, e) = (ds.num_vertices(), ds.num_edges());
        // Vertex data must be fully resident (partitioned across GPUs).
        let vertex_share =
            w.vertex_data_bytes(v) / m + ds.graph.topology_bytes() / m + 3 * w.param_bytes();
        if vertex_share > self.machine.gpu_memory {
            return Err(Limitation::OutOfMemory(SimError::OutOfMemory {
                device: "GPU (ROC-style)".into(),
                label: "resident vertex data".into(),
                requested: vertex_share,
                in_use: 0,
                capacity: self.machine.gpu_memory,
            }));
        }
        // Intermediates are swapped at whole-tensor granularity: the
        // largest single layer tensor must fit next to the vertex data.
        let largest_tensor = (0..w.layers)
            .map(|l| w.layer_intermediate_bytes(l, v, e, v) / m)
            .max()
            .unwrap_or(0);
        if vertex_share + largest_tensor > self.machine.gpu_memory {
            return Err(Limitation::OutOfMemory(SimError::OutOfMemory {
                device: "GPU (ROC-style)".into(),
                label: "single whole-graph intermediate tensor".into(),
                requested: vertex_share + largest_tensor,
                in_use: 0,
                capacity: self.machine.gpu_memory,
            }));
        }
        // Tensors beyond the residual budget are swapped out and back.
        let budget = self.machine.gpu_memory - vertex_share;
        let total_inter = w.total_intermediate_bytes(v, e, v) / m;
        let swapped = total_inter.saturating_sub(budget);
        let flops = w.epoch_flops(v as f64, e as f64, v as f64, false);
        let compute =
            flops.dense / self.machine.gpu_dense_flops + flops.edge / self.machine.gpu_edge_flops;
        Ok(compute / m as f64 + (2.0 * swapped as f64) / self.machine.pcie_bw)
    }

    /// The annotated execution schedule of one epoch, for the
    /// happens-before checker. Vertex data is loaded once and stays
    /// resident; per-layer intermediate tensors are checkpointed to the
    /// host at whole-graph granularity on the way forward and reloaded on
    /// the way back — the same store/reload pattern HongTu's hybrid
    /// strategy applies per chunk.
    pub fn epoch_schedule(&self, w: &Workload<'_>) -> Result<Trace, Limitation> {
        self.epoch_time(w)?;
        let m = self.machine.num_gpus;
        let dims = w.dims();
        let v = w.dataset.num_vertices();
        let (ve, ee) = (v, w.dataset.num_edges());
        let mut t = Trace::unbounded();
        let dev = |g: usize| ResourceId::DevRep { gpu: g as u32 };
        let dgrad = |g: usize| ResourceId::DevGrad { gpu: g as u32 };
        let swap = |l: usize, g: usize| ResourceId::AggCache {
            layer: l as u32,
            gpu: g as u32,
            chunk: 0,
        };
        let barrier = |t: &mut Trace, scope| {
            t.record(Event::new(
                EventKind::Barrier(scope),
                Device::Host,
                0,
                0.0,
                0.0,
            ));
        };
        // One-time resident vertex-data load.
        for g in 0..m {
            t.record(
                Event::new(
                    EventKind::H2D,
                    Device::Gpu(g as u32),
                    (v / m) * dims[0] * F32,
                    0.0,
                    0.0,
                )
                .with_accesses(vec![
                    Access::read(ResourceId::Rep { layer: 0 }, Region::All),
                    Access::write(dev(g), Region::All).with_gen(0),
                ]),
            );
        }
        barrier(&mut t, BarrierScope::Batch);
        for l in 0..w.layers {
            for g in 0..m {
                t.record(
                    Event::new(EventKind::GpuCompute, Device::Gpu(g as u32), 0, 0.0, 0.0)
                        .with_accesses(vec![
                            Access::read(dev(g), Region::All),
                            Access::write(dev(g), Region::All).with_gen(l as u32 + 1),
                        ]),
                );
                // Whole-tensor intermediate swap-out under the cost model.
                let bytes = w.layer_intermediate_bytes(l, ve, ee, ve) / m;
                t.record(
                    Event::new(EventKind::D2H, Device::Gpu(g as u32), bytes, 0.0, 0.0)
                        .with_accesses(vec![Access::write(swap(l, g), Region::All)]),
                );
            }
            barrier(&mut t, BarrierScope::Batch);
        }
        for g in 0..m {
            t.record(
                Event::new(EventKind::GpuCompute, Device::Gpu(g as u32), 0, 0.0, 0.0)
                    .with_accesses(vec![
                        Access::read(dev(g), Region::All),
                        Access::write(dgrad(g), Region::All),
                    ]),
            );
        }
        barrier(&mut t, BarrierScope::Batch);
        for l in (0..w.layers).rev() {
            for g in 0..m {
                // Reload the layer's swapped intermediates, then run the
                // layer backward against the resident gradient state.
                let bytes = w.layer_intermediate_bytes(l, ve, ee, ve) / m;
                t.record(
                    Event::new(EventKind::H2D, Device::Gpu(g as u32), bytes, 0.0, 0.0)
                        .with_accesses(vec![Access::read(swap(l, g), Region::All)]),
                );
                t.record(
                    Event::new(EventKind::GpuCompute, Device::Gpu(g as u32), 0, 0.0, 0.0)
                        .with_accesses(vec![
                            Access::read(dev(g), Region::All),
                            Access::accum(dgrad(g), Region::All),
                        ]),
                );
            }
            barrier(&mut t, BarrierScope::Batch);
        }
        barrier(&mut t, BarrierScope::Epoch);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_datasets::{load, DatasetKey};
    use hongtu_tensor::SeededRng;

    fn ds(key: DatasetKey) -> hongtu_datasets::Dataset {
        load(key, &mut SeededRng::new(1))
    }

    #[test]
    fn neutron_style_rejects_gat() {
        let d = ds(DatasetKey::Rdt);
        let sys = NeutronStyle::new(MachineConfig::scaled(4, 1 << 30));
        let err = sys
            .epoch_time(&Workload::new(&d, ModelKind::Gat, 32, 2))
            .unwrap_err();
        assert!(matches!(err, Limitation::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("softmax"));
    }

    #[test]
    fn neutron_style_runs_gcn_on_small_graphs() {
        let d = ds(DatasetKey::Rdt);
        let sys = NeutronStyle::new(MachineConfig::scaled(4, 34 << 20));
        let t = sys
            .epoch_time(&Workload::new(&d, ModelKind::Gcn, 32, 2))
            .unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn neutron_style_ooms_on_resident_intermediates() {
        // Large graph: streamed vertex data would be fine, but the
        // resident intermediates blow the budget.
        let d = ds(DatasetKey::Opr);
        let sys = NeutronStyle::new(MachineConfig::scaled(4, 34 << 20));
        let err = sys
            .epoch_time(&Workload::new(&d, ModelKind::Gcn, 32, 4))
            .unwrap_err();
        assert!(matches!(err, Limitation::OutOfMemory(_)), "{err}");
    }

    #[test]
    fn roc_style_ooms_on_resident_vertex_data() {
        let d = ds(DatasetKey::Opr);
        let sys = RocStyle::new(MachineConfig::scaled(4, 34 << 20));
        let err = sys
            .epoch_time(&Workload::new(&d, ModelKind::Gcn, 32, 3))
            .unwrap_err();
        match err {
            Limitation::OutOfMemory(SimError::OutOfMemory { label, .. }) => {
                assert!(label.contains("vertex data"), "{label}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roc_style_swaps_gat_intermediates_expensively() {
        // On the small graph with a small budget, ROC runs GAT but pays
        // heavy swap traffic relative to GCN.
        let d = ds(DatasetKey::Rdt);
        let sys = RocStyle::new(MachineConfig::scaled(4, 8 << 20));
        let gcn = sys
            .epoch_time(&Workload::new(&d, ModelKind::Gcn, 32, 4))
            .unwrap();
        let gat = sys
            .epoch_time(&Workload::new(&d, ModelKind::Gat, 32, 4))
            .unwrap();
        assert!(gat > 2.0 * gcn, "GAT {gat} vs GCN {gcn}");
    }

    #[test]
    fn epoch_schedules_certify_clean() {
        let d = ds(DatasetKey::Rdt);
        let machine = MachineConfig::scaled(4, 1 << 30);
        let w = Workload::new(&d, ModelKind::Gcn, 16, 2);
        let nt = NeutronStyle::new(machine.clone())
            .epoch_schedule(&w)
            .unwrap();
        assert!(!nt.is_empty());
        let report = hongtu_verify::verify_trace(&nt);
        assert!(report.is_ok(), "neutron: {}", report.render());
        let roc = RocStyle::new(machine).epoch_schedule(&w).unwrap();
        assert!(!roc.is_empty());
        let report = hongtu_verify::verify_trace(&roc);
        assert!(report.is_ok(), "roc: {}", report.render());
    }

    #[test]
    fn epoch_schedule_inherits_limitations() {
        let d = ds(DatasetKey::Rdt);
        let sys = NeutronStyle::new(MachineConfig::scaled(4, 1 << 30));
        let err = sys
            .epoch_schedule(&Workload::new(&d, ModelKind::Gat, 32, 2))
            .unwrap_err();
        assert!(matches!(err, Limitation::Unsupported(_)));
    }

    #[test]
    fn hongtu_outlives_both_partial_systems() {
        // The motivating comparison: on the largest proxy both partial
        // systems fail while HongTu trains (at the calibrated 34 MB/GPU
        // budget). OPR's vertex count sinks NeuGraph-style resident
        // intermediates and ROC-style resident vertex data alike.
        let d = ds(DatasetKey::Opr);
        let machine = MachineConfig::scaled(4, 34 << 20);
        let w = Workload::new(&d, ModelKind::Gcn, 32, 3);
        assert!(NeutronStyle::new(machine.clone()).epoch_time(&w).is_err());
        assert!(RocStyle::new(machine.clone()).epoch_time(&w).is_err());
        let mut session = crate::Session::new(
            &d,
            ModelKind::Gcn,
            32,
            3,
            32,
            crate::HongTuConfig::full(machine),
        )
        .expect("HongTu session");
        assert!(session.trainer().epoch().is_ok());
    }
}
