//! Graph partitioning for HongTu (paper §4.1).
//!
//! HongTu splits the input graph with **edge-cut 2-level partitioning**:
//! first into `m` (= #GPUs) locality-preserving partitions via METIS, then
//! each partition into `n` computation-balanced *chunks* by range splitting.
//! Every chunk owns a disjoint set of destination vertices together with
//! **all** their in-edges, so full-neighbor aggregation (including GAT's
//! per-neighbor-set softmax) runs on a chunk in isolation.
//!
//! This crate provides:
//! - [`multilevel::MultilevelPartitioner`] — a METIS-style multilevel
//!   partitioner (heavy-edge-matching coarsening → greedy growing →
//!   boundary refinement), the paper's METIS substitute;
//! - [`simple`] — hash and contiguous-range baselines;
//! - [`two_level::TwoLevelPartition`] — the full 2-level plan with per-chunk
//!   subgraphs ([`subgraph::ChunkSubgraph`]);
//! - [`replication`] — the neighbor replication factor α (paper Table 3);
//! - [`metrics`] — edge-cut and balance quality measures;
//! - [`dedup`] — transition-set construction and the per-batch
//!   communication plan (Algorithms 2 & 3, §5.1–5.2);
//! - [`buffers`] — in-place transition/neighbor buffer index planning
//!   (§6: stable slots for reused vertices, freed-slot insertion,
//!   merged-buffer deduplication);
//! - [`cone`] — the exact query and delta cone recurrences over the
//!   chunk grid: which destination rows of which chunks a pruned sweep
//!   computes at each layer, for [`two_level::TwoLevelPartition::packed`]
//!   to pack into one chunk per GPU per run of batches.
//!
//! `dedup`, `buffers` and `cone` live here (rather than in `hongtu-core`) so that
//! the static plan verifier (`hongtu-verify`) can see every plan type
//! without depending on the engine.

#![forbid(unsafe_code)]
// Indexed loops are deliberate: indices double as vertex/partition ids.
#![allow(clippy::needless_range_loop)]

pub mod buffers;
pub mod chunking;
pub mod cone;
pub mod dedup;
pub mod metrics;
pub mod multilevel;
pub mod replication;
pub mod simple;
pub mod subgraph;
pub mod two_level;

pub use buffers::{BatchIndices, GpuBufferPlan};
pub use chunking::balanced_ranges;
pub use dedup::{BatchCounts, BatchPlan, DedupCounts, DedupPlan};
pub use metrics::PartitionQuality;
pub use multilevel::MultilevelPartitioner;
pub use replication::replication_factor;
pub use simple::{hash_partition, range_partition};
pub use subgraph::{ChunkShape, ChunkSubgraph, Packing};
pub use two_level::{Refresh, SliceRows, TwoLevelPartition};

use hongtu_graph::Graph;

/// A vertex → partition assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `partition_of[v]` is the partition id of vertex `v`.
    pub partition_of: Vec<u32>,
    /// Number of partitions.
    pub num_parts: usize,
}

impl Assignment {
    /// Validates that all labels are within range and every partition is
    /// represented (non-empty partitions are required downstream).
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.num_parts];
        for (v, &p) in self.partition_of.iter().enumerate() {
            if p as usize >= self.num_parts {
                return Err(format!("vertex {v} assigned to out-of-range partition {p}"));
            }
            seen[p as usize] = true;
        }
        if let Some(p) = seen.iter().position(|&s| !s) {
            return Err(format!("partition {p} is empty"));
        }
        Ok(())
    }

    /// Vertices of each partition, in ascending vertex order.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_parts];
        for (v, &p) in self.partition_of.iter().enumerate() {
            out[p as usize].push(v as u32);
        }
        out
    }

    /// Sizes of each partition.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_parts];
        for &p in &self.partition_of {
            out[p as usize] += 1;
        }
        out
    }
}

/// A pluggable graph partitioner.
pub trait Partitioner {
    /// Splits `g` into `parts` partitions.
    fn partition(&self, g: &Graph, parts: usize) -> Assignment;
}
