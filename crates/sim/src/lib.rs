//! Discrete-cost multi-GPU hardware simulator.
//!
//! The paper evaluates HongTu on a 4×A100 server (NVLink 3.0 between GPUs,
//! PCIe 4.0 to the hosts, two NUMA sockets). This crate replaces that
//! hardware with an analytical cost model so the system can be reproduced
//! on a CPU-only machine:
//!
//! - **Memory** is tracked exactly: every device allocation is charged
//!   against the configured capacity and failing allocations surface as
//!   [`SimError::OutOfMemory`] — this is what produces the OOM cells of the
//!   paper's Tables 5–7.
//! - **Time** is charged per operation from bandwidth/latency/throughput
//!   parameters: host↔GPU transfers (PCIe, with a NUMA penalty when fewer
//!   GPUs than sockets force remote-socket traffic), GPU↔GPU transfers
//!   (NVLink), intra-GPU data reuse (HBM), GPU compute (separate dense and
//!   irregular-edge throughputs), and CPU compute.
//! - Each simulated GPU is a [`GpuLane`]: its own stream clocks, memory
//!   tracker, time buckets and (while tracing) event buffer. A charge is
//!   priced and applied in exactly one place — the lane — so the m GPUs
//!   of an operation can be driven by one thread or by m without sharing
//!   state. [`Machine::join`] appends the lanes' events to the trace in
//!   GPU index order; [`Machine::barrier`] joins and synchronizes the
//!   clocks at batch boundaries, so the epoch time is the critical-path
//!   maximum, exactly like a real bulk-synchronous schedule.
//! - All charged time is also attributed to one of the paper's breakdown
//!   buckets `{GPU, H2D, D2D, CPU, REUSE}` (Figure 9).
//!
//! The numerics of training do **not** run here — they run for real in
//! `hongtu-nn`; this crate only prices the data movement and compute.

#![forbid(unsafe_code)]

pub mod config;
pub mod lane;
pub mod machine;
pub mod memory;
pub mod trace;

pub use config::{CpuClusterConfig, MachineConfig};
pub use lane::GpuLane;
pub use machine::{Machine, TimeBuckets, NUM_STREAMS};
pub use memory::{MemoryTracker, SimError};
pub use trace::{
    Access, BarrierScope, ContribKind, Device, Event, EventKind, Intent, Provenance, Region,
    ResourceId, Trace, PROV_MIXED, PROV_NONE,
};
