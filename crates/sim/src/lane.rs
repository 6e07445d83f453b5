//! One GPU's timeline: the only place a simulated charge is priced.
//!
//! A [`GpuLane`] owns everything about one simulated GPU that a step of
//! the sweep touches — its stream clocks and stream cursor, its memory
//! tracker, its time buckets, the access annotations staged for its next
//! event — so the m GPUs of an operation can be charged by m worker
//! threads (or by one thread in index order) without sharing state. The
//! [`Machine`](crate::machine::Machine) owns the lanes plus what is
//! genuinely machine-wide (host memory, the trace, barriers).
//!
//! While tracing, a lane buffers its events locally;
//! [`Machine::join`](crate::machine::Machine::join) appends the buffers to
//! the trace **in GPU index order**. Events of one lane keep their program
//! order and lanes are independent between barriers, so the joined trace
//! does not depend on how the lanes were interleaved in host time.
//!
//! One charge does not belong to the lane that issues it: the *naive*
//! inter-GPU schedule's source-side serving stall (GPU `k` is busy while
//! GPU `i` fetches from it). [`GpuLane::source_stall`] defers it and the
//! join applies deferred stalls after every lane's own events. Clock
//! *sums* are unaffected (no barrier intervenes inside an operation).

use crate::config::MachineConfig;
use crate::machine::{TimeBuckets, NUM_STREAMS};
use crate::memory::{MemoryTracker, SimError};
use crate::trace::{Access, Device, Event, EventKind};
use std::sync::Arc;

/// One simulated GPU's clocks, memory, buckets and pending trace output.
#[derive(Debug, Clone)]
pub struct GpuLane {
    gpu: usize,
    config: Arc<MachineConfig>,
    pub(crate) clock: [f64; NUM_STREAMS],
    pub(crate) stream: u8,
    pub(crate) buckets: TimeBuckets,
    pub(crate) memory: MemoryTracker,
    pub(crate) tracing: bool,
    /// Events recorded since the last join (tracing only).
    pub(crate) events: Vec<Event>,
    pub(crate) pending: Vec<Access>,
    /// `(src, bytes)` serving stalls to apply at the join.
    pub(crate) stalls: Vec<(usize, usize)>,
}

impl GpuLane {
    pub(crate) fn new(gpu: usize, config: Arc<MachineConfig>) -> Self {
        let memory = MemoryTracker::new(format!("GPU{gpu}"), config.gpu_memory);
        GpuLane {
            gpu,
            config,
            clock: [0.0; NUM_STREAMS],
            stream: 0,
            buckets: TimeBuckets::default(),
            memory,
            tracing: false,
            events: Vec::new(),
            pending: Vec::new(),
            stalls: Vec::new(),
        }
    }

    /// The GPU index of this lane.
    pub fn gpu(&self) -> usize {
        self.gpu
    }

    /// The machine configuration (cost model parameters).
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The lane's current clock (seconds): the furthest-ahead of its
    /// streams.
    pub fn clock(&self) -> f64 {
        self.clock.iter().copied().fold(0.0, f64::max)
    }

    /// The lane's clock on one specific stream.
    pub fn stream_clock(&self, stream: u8) -> f64 {
        self.clock[stream as usize]
    }

    /// The lane's memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// Stages access annotations for the lane's *next* charged operation.
    /// The annotations are attached to the next recorded event and
    /// cleared. No-op while tracing is disabled, so annotation is free on
    /// the benchmark path.
    pub fn tag<I: IntoIterator<Item = Access>>(&mut self, accesses: I) {
        if self.tracing {
            self.pending.extend(accesses);
        }
    }

    /// Selects the stream subsequent charges are issued on (and their
    /// events tagged with). Stream 0 is the compute/default stream; see
    /// [`NUM_STREAMS`]. The cursor returns to the default stream at every
    /// barrier.
    ///
    /// # Panics
    /// Panics if `stream >= NUM_STREAMS`.
    pub fn set_stream(&mut self, stream: u8) {
        assert!(
            (stream as usize) < NUM_STREAMS,
            "stream {stream} out of range (NUM_STREAMS = {NUM_STREAMS})"
        );
        self.stream = stream;
    }

    /// Makes the *current* stream wait for everything issued so far on
    /// the `upstream` stream (the `cudaStreamWaitEvent` analogue): the
    /// current stream's clock joins up to the upstream clock, and a
    /// [`EventKind::StreamWait`] event is recorded so the happens-before
    /// checker orders subsequent work after the upstream's.
    pub fn stream_wait(&mut self, upstream: u8) {
        let cur = self.stream as usize;
        self.clock[cur] = self.clock[cur].max(self.clock[upstream as usize]);
        self.record(EventKind::StreamWait { upstream }, 0, 0.0);
    }

    /// Allocates `bytes` of device memory.
    pub fn alloc(&mut self, bytes: usize, label: &str) -> Result<(), SimError> {
        self.memory.alloc(bytes, label)
    }

    /// Frees `bytes` of device memory.
    pub fn free(&mut self, bytes: usize) {
        self.memory.free(bytes);
    }

    /// Charges a host→GPU transfer of `bytes` (none of them remote: the
    /// mixed formula adds an exact `0.0`). Returns the seconds charged,
    /// as every charge does.
    pub fn h2d(&mut self, bytes: usize) -> f64 {
        self.h2d_mixed(bytes, 0)
    }

    /// Charges a host→GPU transfer where `remote_bytes` of the payload
    /// live on the other NUMA socket and pay the QPI penalty. Used by the
    /// vanilla offloading baseline, whose per-chunk transfers pull
    /// neighbors from whichever socket owns them (§7.3: deduplication
    /// "eliminates the remote neighbor access across CPUs").
    pub fn h2d_mixed(&mut self, bytes: usize, remote_bytes: usize) -> f64 {
        let t = self.config.mixed_pcie_transfer_seconds(bytes, remote_bytes);
        self.buckets.h2d += t;
        self.buckets.bytes_h2d += bytes as u64;
        self.charge(EventKind::H2D, bytes, t)
    }

    /// Charges a GPU→host transfer of `bytes`.
    pub fn d2h(&mut self, bytes: usize) -> f64 {
        self.d2h_mixed(bytes, 0)
    }

    /// GPU→host counterpart of [`GpuLane::h2d_mixed`].
    pub fn d2h_mixed(&mut self, bytes: usize, remote_bytes: usize) -> f64 {
        let t = self.config.mixed_pcie_transfer_seconds(bytes, remote_bytes);
        self.buckets.h2d += t;
        self.buckets.bytes_d2h += bytes as u64;
        self.charge(EventKind::D2H, bytes, t)
    }

    /// Charges a GPU↔GPU transfer of `bytes` to this, the *initiating*,
    /// GPU (pull semantics, matching the paper's forward-pass
    /// fetch_from_gpu; gradient pushes are charged to the pusher).
    pub fn d2d(&mut self, bytes: usize) -> f64 {
        let t = self.config.nvlink_transfer_seconds(bytes);
        self.buckets.d2d += t;
        self.buckets.bytes_d2d += bytes as u64;
        self.charge(EventKind::D2D, bytes, t)
    }

    /// Charges a source-side serving stall: GPU `src` is busy for the
    /// duration of a `bytes` transfer it serves to this GPU (the naive
    /// schedule's contention cost). Another lane's clock is not this
    /// lane's to touch, so the charge lands at the join.
    pub fn source_stall(&mut self, src: usize, bytes: usize) {
        self.stalls.push((src, bytes));
    }

    /// Charges an intra-GPU reuse of `bytes` (buffer-local copy at HBM
    /// speed).
    pub fn reuse(&mut self, bytes: usize) -> f64 {
        let t = self.config.reuse_seconds(bytes);
        self.buckets.reuse += t;
        self.buckets.bytes_reuse += bytes as u64;
        self.charge(EventKind::Reuse, bytes, t)
    }

    /// Charges `flops` of dense (matmul-like) GPU work.
    pub fn gpu_dense(&mut self, flops: f64) -> f64 {
        let t = self.config.gpu_dense_seconds(flops);
        self.buckets.gpu += t;
        self.charge(EventKind::GpuCompute, 0, t)
    }

    /// Charges `flops` of irregular edge-parallel GPU work.
    pub fn gpu_edge(&mut self, flops: f64) -> f64 {
        let t = self.config.gpu_edge_seconds(flops);
        self.buckets.gpu += t;
        self.charge(EventKind::GpuCompute, 0, t)
    }

    /// Charges `flops` of CPU work; the time is serialized onto this
    /// GPU's timeline (the paper's CPU-side gradient accumulation happens
    /// between batches, blocking the owner GPU's next step). All GPUs'
    /// host-side work contends for the same CPUs, so the effective
    /// throughput is divided by the GPU count.
    pub fn cpu_compute(&mut self, flops: f64) -> f64 {
        let t = self.config.cpu_compute_seconds(flops);
        self.buckets.cpu += t;
        self.charge(EventKind::CpuCompute, 0, t)
    }

    /// Charges a host-side gradient accumulation of `bytes` (read old,
    /// add, write back — three memory touches per byte) to this GPU's
    /// timeline. Host memory bandwidth is shared by all GPUs'
    /// accumulation streams, which is why the paper measures the CPU
    /// component at 8–30% of the epoch.
    pub fn cpu_accumulate(&mut self, bytes: usize) -> f64 {
        let t = self.config.cpu_accumulate_seconds(bytes);
        self.buckets.cpu += t;
        self.charge(EventKind::CpuCompute, bytes, t)
    }

    /// Advances the current stream by `seconds` and records the event.
    fn charge(&mut self, kind: EventKind, bytes: usize, seconds: f64) -> f64 {
        self.clock[self.stream as usize] += seconds;
        self.record(kind, bytes, seconds);
        seconds
    }

    fn record(&mut self, kind: EventKind, bytes: usize, seconds: f64) {
        if !self.tracing {
            return;
        }
        let at = self.clock[self.stream as usize];
        let accesses = std::mem::take(&mut self.pending);
        self.events.push(
            Event::new(kind, Device::Gpu(self.gpu as u32), bytes, seconds, at)
                .on_stream(self.stream)
                .with_accesses(accesses),
        );
    }
}
