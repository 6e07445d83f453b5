//! Comparator systems for the paper's evaluation (§7).
//!
//! These model the systems HongTu is compared against. Runtime numbers come
//! from the same analytic cost structure as the simulator (FLOPs over
//! device throughputs, bytes over link bandwidths), and out-of-memory
//! conditions come from exact footprint accounting against the configured
//! capacities — reproducing the OOM cells of Tables 5–7. The mini-batch
//! comparator ([`minibatch`]) additionally supports *real* sampled
//! training for the accuracy curves of Figure 8.

pub mod cpu;
pub mod minibatch;
pub mod multi_gpu_im;
pub mod partial;
pub mod single_gpu;

pub use cpu::{CpuSystem, CpuSystemKind};
pub use minibatch::MiniBatchSystem;
pub use multi_gpu_im::{InMemoryKind, MultiGpuInMemory};
pub use partial::{Limitation, NeutronStyle, RocStyle};
pub use single_gpu::SingleGpuFullGraph;

use hongtu_datasets::Dataset;
use hongtu_nn::{LayerFlops, ModelKind};

const F32: usize = std::mem::size_of::<f32>();

/// A (dataset, model) workload shared by all comparator systems.
#[derive(Clone, Copy)]
pub struct Workload<'a> {
    /// Input dataset.
    pub dataset: &'a Dataset,
    /// GNN architecture.
    pub kind: ModelKind,
    /// Hidden dimension.
    pub hidden: usize,
    /// Layer count.
    pub layers: usize,
}

impl<'a> Workload<'a> {
    /// Convenience constructor.
    pub fn new(dataset: &'a Dataset, kind: ModelKind, hidden: usize, layers: usize) -> Self {
        Workload {
            dataset,
            kind,
            hidden,
            layers,
        }
    }

    /// Layer dimension boundaries.
    pub fn dims(&self) -> Vec<usize> {
        self.dataset.model_dims(self.hidden, self.layers)
    }

    /// Whole-graph forward FLOPs of layer `l` with `v` destination
    /// vertices, `e` in-edges and `nbr` input rows (mirrors each layer's
    /// `forward_flops`).
    pub fn layer_flops(&self, l: usize, v: f64, e: f64, nbr: f64) -> LayerFlops {
        let dims = self.dims();
        let (d_in, d_out) = (dims[l] as f64, dims[l + 1] as f64);
        match self.kind {
            ModelKind::Gcn => LayerFlops {
                dense: 2.0 * v * d_in * d_out,
                edge: 2.0 * e * d_in,
            },
            ModelKind::Gat => LayerFlops {
                dense: 2.0 * nbr * d_in * d_out,
                edge: 6.0 * e * (2.0 * d_out + 8.0) + 2.0 * nbr * d_out,
            },
            ModelKind::Sage | ModelKind::CommNet => LayerFlops {
                dense: 4.0 * v * d_in * d_out,
                edge: 2.0 * e * d_in,
            },
            ModelKind::Gin => LayerFlops {
                dense: 2.0 * v * d_in * d_out,
                edge: e * d_in,
            },
            ModelKind::Ggnn => LayerFlops {
                dense: 2.0 * v * d_in * d_out * 2.0
                    + 2.0 * v * d_out * d_out * 6.0
                    + 10.0 * v * d_out,
                edge: e * d_in,
            },
        }
    }

    /// Whole-graph forward+backward FLOPs per epoch (backward ≈ 2×
    /// forward, plus the full re-forward when `recompute` is true).
    pub fn epoch_flops(&self, v: f64, e: f64, nbr: f64, recompute: bool) -> LayerFlops {
        let mut total = LayerFlops::default();
        for l in 0..self.layers {
            let f = self.layer_flops(l, v, e, nbr);
            let factor = if recompute { 4.0 } else { 3.0 };
            total = total.add(f.scale(factor));
        }
        total
    }

    /// Intermediate-data bytes of layer `l` for `v` destinations / `e`
    /// edges / `nbr` input rows (mirrors each layer's
    /// `intermediate_bytes`).
    pub fn layer_intermediate_bytes(&self, l: usize, v: usize, e: usize, nbr: usize) -> usize {
        let dims = self.dims();
        let (d_in, d_out) = (dims[l], dims[l + 1]);
        match self.kind {
            ModelKind::Gcn | ModelKind::Gin => v * (d_in + d_out) * F32,
            ModelKind::Gat => (nbr * d_out + 2 * e + v * d_out) * F32,
            ModelKind::Sage | ModelKind::CommNet => v * (2 * d_in + d_out) * F32,
            ModelKind::Ggnn => v * (2 * d_in + 6 * d_out) * F32,
        }
    }

    /// Total intermediate bytes across all layers (what an in-memory
    /// system must keep resident between forward and backward).
    pub fn total_intermediate_bytes(&self, v: usize, e: usize, nbr: usize) -> usize {
        (0..self.layers)
            .map(|l| self.layer_intermediate_bytes(l, v, e, nbr))
            .sum()
    }

    /// Vertex-data bytes: representations and gradients of every layer.
    pub fn vertex_data_bytes(&self, v: usize) -> usize {
        2 * v * self.dims().iter().sum::<usize>() * F32
    }

    /// Model parameter bytes.
    pub fn param_bytes(&self) -> usize {
        let dims = self.dims();
        match self.kind {
            ModelKind::Ggnn => {
                // 2 input projections + 6 square gate matrices per layer.
                dims.windows(2)
                    .map(|w| 2 * w[0] * w[1] + 6 * w[1] * w[1])
                    .sum::<usize>()
                    * F32
            }
            ModelKind::Sage | ModelKind::CommNet => {
                dims.windows(2).map(|w| 2 * w[0] * w[1]).sum::<usize>() * F32
            }
            _ => dims.windows(2).map(|w| w[0] * w[1]).sum::<usize>() * F32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_datasets::{load, DatasetKey};
    use hongtu_tensor::SeededRng;

    fn ds() -> Dataset {
        load(DatasetKey::Rdt, &mut SeededRng::new(1))
    }

    #[test]
    fn flops_match_real_layers_on_whole_graph() {
        let ds = ds();
        let w = Workload::new(&ds, ModelKind::Gcn, 16, 2);
        let chunk = hongtu_nn::model::whole_graph_chunk(&ds.graph);
        let mut rng = SeededRng::new(2);
        let model = hongtu_nn::GnnModel::new(ModelKind::Gcn, &w.dims(), &mut rng);
        let (v, e, nbr) = (
            chunk.num_dests() as f64,
            chunk.num_edges() as f64,
            chunk.num_neighbors() as f64,
        );
        for l in 0..2 {
            let analytic = w.layer_flops(l, v, e, nbr);
            let real = model.layer(l).forward_flops(&chunk);
            assert_eq!(analytic, real, "layer {l}");
        }
    }

    #[test]
    fn intermediate_bytes_match_real_layers() {
        let ds = ds();
        let chunk = hongtu_nn::model::whole_graph_chunk(&ds.graph);
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gat,
            ModelKind::Sage,
            ModelKind::Gin,
        ] {
            let w = Workload::new(&ds, kind, 16, 2);
            let mut rng = SeededRng::new(3);
            let model = hongtu_nn::GnnModel::new(kind, &w.dims(), &mut rng);
            for l in 0..2 {
                let analytic = w.layer_intermediate_bytes(
                    l,
                    chunk.num_dests(),
                    chunk.num_edges(),
                    chunk.num_neighbors(),
                );
                let real = model.layer(l).intermediate_bytes(chunk.shape());
                assert_eq!(analytic, real, "{} layer {l}", kind.name());
            }
        }
    }

    #[test]
    fn gat_epoch_flops_exceed_gcn() {
        let ds = ds();
        let v = ds.num_vertices() as f64;
        let e = ds.num_edges() as f64;
        let gcn = Workload::new(&ds, ModelKind::Gcn, 16, 2).epoch_flops(v, e, v, true);
        let gat = Workload::new(&ds, ModelKind::Gat, 16, 2).epoch_flops(v, e, v, true);
        assert!(gat.edge > gcn.edge);
    }

    #[test]
    fn param_bytes_counts_sage_double() {
        let ds = ds();
        let gcn = Workload::new(&ds, ModelKind::Gcn, 16, 2).param_bytes();
        let sage = Workload::new(&ds, ModelKind::Sage, 16, 2).param_bytes();
        assert_eq!(sage, 2 * gcn);
    }
}
