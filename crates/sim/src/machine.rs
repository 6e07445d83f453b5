//! The simulated machine: one [`GpuLane`] per GPU plus what is genuinely
//! machine-wide — host memory, the event trace, and the barriers that
//! join the lanes' clocks. Every simulated charge is priced on a lane;
//! the machine aggregates.

use crate::config::MachineConfig;
use crate::lane::GpuLane;
use crate::memory::{MemoryTracker, SimError};
use crate::trace::{BarrierScope, Device, Event, EventKind, Trace};
use std::sync::Arc;

/// Number of hardware streams modeled per GPU. Stream 0 is the compute /
/// default stream; the overlap executor issues H2D prefetches on stream 1
/// (copy-in) and D2H drains on stream 2 (copy-out). Streams advance
/// independent clocks that only join at cross-stream waits
/// ([`EventKind::StreamWait`]) and barriers, so a GPU's time at a barrier
/// is the *maximum* over its streams — `max(transfer, compute)` instead of
/// their sum, the overlap discipline of the paper's §6 implementation.
pub const NUM_STREAMS: usize = 3;

/// Time attributed to each of the paper's breakdown components (Figure 9),
/// in seconds, plus the transferred byte volumes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBuckets {
    /// Host↔GPU communication time (H2D + D2H; the paper's "H2D" bar).
    pub h2d: f64,
    /// Inter-GPU communication time (the paper's "D2D" bar).
    pub d2d: f64,
    /// GPU compute time.
    pub gpu: f64,
    /// CPU compute time (host-side gradient accumulation).
    pub cpu: f64,
    /// Intra-GPU reuse time (tiny; folded into "GPU" in the paper's plots).
    pub reuse: f64,
    /// Host→GPU bytes.
    pub bytes_h2d: u64,
    /// GPU→host bytes.
    pub bytes_d2h: u64,
    /// GPU↔GPU bytes.
    pub bytes_d2d: u64,
    /// Bytes served by intra-GPU reuse instead of a transfer.
    pub bytes_reuse: u64,
}

impl TimeBuckets {
    /// Total attributed time (sum over devices, not the critical path).
    pub fn total_time(&self) -> f64 {
        self.h2d + self.d2d + self.gpu + self.cpu + self.reuse
    }

    /// Total communication time (H2D + D2D), the quantity §7.3 reports.
    pub fn comm_time(&self) -> f64 {
        self.h2d + self.d2d
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &TimeBuckets) {
        self.h2d += other.h2d;
        self.d2d += other.d2d;
        self.gpu += other.gpu;
        self.cpu += other.cpu;
        self.reuse += other.reuse;
        self.bytes_h2d += other.bytes_h2d;
        self.bytes_d2h += other.bytes_d2h;
        self.bytes_d2d += other.bytes_d2d;
        self.bytes_reuse += other.bytes_reuse;
    }
}

/// The simulated multi-GPU machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: Arc<MachineConfig>,
    lanes: Vec<GpuLane>,
    host: MemoryTracker,
    trace: Trace,
}

impl Machine {
    /// Builds a machine from a validated config.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid MachineConfig: {e}"));
        let config = Arc::new(config);
        let lanes = (0..config.num_gpus)
            .map(|i| GpuLane::new(i, Arc::clone(&config)))
            .collect();
        let host = MemoryTracker::new("host", config.host_memory);
        Machine {
            config,
            lanes,
            host,
            trace: Trace::disabled(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.lanes.len()
    }

    /// Enables event tracing with the given capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.replace_trace(Trace::with_capacity(capacity));
    }

    /// Enables unbounded event tracing (required for trace certification —
    /// see [`Trace::unbounded`]).
    pub fn enable_unbounded_trace(&mut self) {
        self.replace_trace(Trace::unbounded());
    }

    /// The event trace, as of the last [`Machine::join`].
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Swaps in a different trace, returning the previous one (joined
    /// first, so it holds everything charged so far). Lets a verification
    /// run temporarily install an unbounded trace without discarding the
    /// user's.
    pub fn replace_trace(&mut self, trace: Trace) -> Trace {
        self.join();
        for lane in &mut self.lanes {
            lane.tracing = trace.is_enabled();
            lane.pending.clear();
        }
        std::mem::replace(&mut self.trace, trace)
    }

    // ---- lanes ----

    /// GPU `gpu`'s lane, to charge it. Follow a group of lane charges
    /// with [`Machine::join`] before reading the trace.
    pub fn lane(&mut self, gpu: usize) -> &mut GpuLane {
        &mut self.lanes[gpu]
    }

    /// Every lane, in GPU index order — one per worker of a parallel
    /// operation.
    pub fn lanes_mut(&mut self) -> &mut [GpuLane] {
        &mut self.lanes
    }

    /// Appends each lane's buffered events to the trace **in GPU index
    /// order**, then applies the deferred [`GpuLane::source_stall`]
    /// charges in the order they were issued. A lane's events keep their
    /// program order and lanes only interact at barriers, so the joined
    /// trace is the one a single thread charging GPU 0, 1, … in turn
    /// records — however the lanes were actually driven.
    pub fn join(&mut self) {
        let mut stalls = Vec::new();
        for lane in &mut self.lanes {
            lane.events.drain(..).for_each(|e| self.trace.record(e));
            stalls.append(&mut lane.stalls);
        }
        for (src, bytes) in stalls {
            let lane = &mut self.lanes[src];
            lane.d2d(bytes);
            lane.events.drain(..).for_each(|e| self.trace.record(e));
        }
    }

    // ---- memory ----

    /// Allocates `bytes` on GPU `gpu`.
    pub fn alloc(&mut self, gpu: usize, bytes: usize, label: &str) -> Result<(), SimError> {
        let available = self.lanes.len();
        let lane = self.lanes.get_mut(gpu);
        lane.ok_or(SimError::NoSuchDevice {
            index: gpu,
            available,
        })?
        .alloc(bytes, label)
    }

    /// Frees `bytes` on GPU `gpu`.
    pub fn free(&mut self, gpu: usize, bytes: usize) {
        self.lanes[gpu].free(bytes);
    }

    /// Allocates `bytes` of host memory.
    pub fn host_alloc(&mut self, bytes: usize, label: &str) -> Result<(), SimError> {
        self.host.alloc(bytes, label)
    }

    /// Memory tracker of GPU `gpu`.
    pub fn gpu_memory(&self, gpu: usize) -> &MemoryTracker {
        self.lanes[gpu].memory()
    }

    /// Host memory tracker.
    pub fn host_memory(&self) -> &MemoryTracker {
        &self.host
    }

    /// Largest per-GPU peak allocation across all GPUs.
    pub fn max_gpu_peak(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.memory().peak())
            .max()
            .unwrap_or(0)
    }

    /// Bytes in use on every GPU, in index order — the mark
    /// [`Machine::release_to`] rolls back to.
    pub fn gpu_in_use(&self) -> Vec<usize> {
        self.lanes.iter().map(|l| l.memory().in_use()).collect()
    }

    /// Frees whatever each GPU allocated beyond `mark` (a
    /// [`Machine::gpu_in_use`] snapshot): how a failed sweep returns the
    /// per-batch buffers its unwound steps never got to free. Peaks are
    /// kept.
    pub fn release_to(&mut self, mark: &[usize]) {
        for (lane, &held) in self.lanes.iter_mut().zip(mark) {
            lane.free(lane.memory().in_use() - held);
        }
    }

    // ---- time ----

    /// Synchronizes all GPU clocks to the maximum (batch barrier).
    /// Shorthand for [`Machine::sync`] with [`BarrierScope::Batch`].
    pub fn barrier(&mut self) {
        self.sync(BarrierScope::Batch);
    }

    /// Joins the lanes, synchronizes all GPU clocks to the maximum and
    /// records a barrier event of the given scope. The scope does not
    /// change the timing model — every barrier joins all clocks, *across
    /// every stream* — but tells the schedule checker what protocol role
    /// the barrier plays. Every lane's stream cursor returns to the
    /// default stream.
    pub fn sync(&mut self, scope: BarrierScope) {
        self.join();
        let max = self.elapsed();
        for lane in &mut self.lanes {
            lane.clock = [max; NUM_STREAMS];
            lane.stream = 0;
            // Barriers synchronize devices; they carry no accesses of
            // their own.
            lane.pending.clear();
        }
        self.trace.record(Event::new(
            EventKind::Barrier(scope),
            Device::Host,
            0,
            0.0,
            0.0,
        ));
    }

    /// Current simulated time: the furthest-ahead GPU stream clock.
    pub fn elapsed(&self) -> f64 {
        self.lanes.iter().map(GpuLane::clock).fold(0.0, f64::max)
    }

    /// GPU `gpu`'s own clock: the furthest-ahead of its streams.
    pub fn clock(&self, gpu: usize) -> f64 {
        self.lanes[gpu].clock()
    }

    /// GPU `gpu`'s clock on one specific stream.
    pub fn stream_clock(&self, gpu: usize, stream: u8) -> f64 {
        self.lanes[gpu].stream_clock(stream)
    }

    /// Accumulated per-component times and volumes: the lanes' buckets
    /// summed in GPU index order, so the f64 totals do not depend on how
    /// the lanes were driven.
    pub fn buckets(&self) -> TimeBuckets {
        let mut total = TimeBuckets::default();
        for lane in &self.lanes {
            total.add(&lane.buckets);
        }
        total
    }

    /// Zeroes clocks and buckets; memory state and peaks are kept.
    pub fn reset_time(&mut self) {
        self.join();
        for lane in &mut self.lanes {
            lane.clock = [0.0; NUM_STREAMS];
            lane.stream = 0;
            lane.buckets = TimeBuckets::default();
        }
        self.trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Access;

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled(4, 1 << 20))
    }

    #[test]
    fn transfer_times_match_bandwidth_model() {
        let mut m = machine();
        let cfg = m.config().clone();
        let t = m.lane(0).h2d(1_000_000);
        assert!((t - (cfg.pcie_latency + 1_000_000.0 / cfg.pcie_bw)).abs() < 1e-12);
        let t2 = m.lane(1).d2d(1_000_000);
        assert!(t2 < t, "NVLink must be faster than PCIe");
        let t3 = m.lane(1).reuse(1_000_000);
        assert!(t3 < t2, "reuse must be faster than NVLink");
    }

    #[test]
    fn clocks_are_per_gpu_until_barrier() {
        let mut m = machine();
        m.lane(0).h2d(1_000_000);
        assert!(m.clock(0) > 0.0);
        assert_eq!(m.clock(1), 0.0);
        m.barrier();
        assert_eq!(m.clock(1), m.clock(0));
        assert_eq!(m.elapsed(), m.clock(0));
    }

    #[test]
    fn buckets_accumulate_by_kind() {
        let mut m = machine();
        m.lane(0).h2d(100);
        m.lane(1).d2h(50);
        m.lane(2).d2d(200);
        m.lane(3).reuse(400);
        m.lane(0).gpu_dense(1e9);
        m.lane(0).cpu_compute(1e9);
        let b = m.buckets();
        assert!(b.h2d > 0.0 && b.d2d > 0.0 && b.gpu > 0.0 && b.cpu > 0.0 && b.reuse > 0.0);
        assert_eq!(b.bytes_h2d, 100);
        assert_eq!(b.bytes_d2h, 50);
        assert_eq!(b.bytes_d2d, 200);
        assert_eq!(b.bytes_reuse, 400);
        assert!(b.total_time() > b.comm_time());
    }

    #[test]
    fn edge_compute_slower_than_dense() {
        let mut m = machine();
        let td = m.lane(0).gpu_dense(1e9);
        let te = m.lane(0).gpu_edge(1e9);
        assert!(te > td);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut m = Machine::new(MachineConfig::scaled(2, 1000));
        assert!(m.alloc(0, 600, "a").is_ok());
        let err = m.alloc(0, 600, "b").unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        // Other GPU unaffected.
        assert!(m.alloc(1, 600, "c").is_ok());
        m.free(0, 600);
        assert!(m.alloc(0, 600, "b").is_ok());
        assert_eq!(m.max_gpu_peak(), 600);
    }

    #[test]
    fn invalid_gpu_index_is_an_error() {
        let mut m = machine();
        assert!(matches!(
            m.alloc(9, 1, "x"),
            Err(SimError::NoSuchDevice {
                index: 9,
                available: 4
            })
        ));
    }

    #[test]
    fn reset_time_keeps_memory() {
        let mut m = machine();
        m.alloc(0, 512, "x").unwrap();
        m.lane(0).h2d(100);
        m.reset_time();
        assert_eq!(m.elapsed(), 0.0);
        assert_eq!(m.buckets(), TimeBuckets::default());
        assert_eq!(m.gpu_memory(0).in_use(), 512);
    }

    #[test]
    fn single_gpu_machine_pays_numa_penalty() {
        let mut m4 = Machine::new(MachineConfig::scaled(4, 1 << 20));
        let mut m1 = Machine::new(MachineConfig::scaled(1, 1 << 20));
        let t4 = m4.lane(0).h2d(10_000_000);
        let t1 = m1.lane(0).h2d(10_000_000);
        assert!(t1 > t4, "1-GPU config must pay remote-socket penalty");
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut m = machine();
        m.enable_trace(16);
        m.lane(0).h2d(10);
        m.barrier();
        let kinds: Vec<_> = m.trace().events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::H2D, EventKind::Barrier(BarrierScope::Batch)]
        );
        let devices: Vec<_> = m.trace().events().map(|e| e.device).collect();
        assert_eq!(devices, vec![Device::Gpu(0), Device::Host]);
    }

    #[test]
    fn tag_annotates_exactly_the_lanes_next_event() {
        use crate::trace::{Region, ResourceId};
        let mut m = machine();
        m.enable_unbounded_trace();
        let a = Access::read(ResourceId::Rep { layer: 0 }, Region::All);
        m.lane(0).tag([a]);
        // Another lane's charge in between does not consume the tag.
        m.lane(1).h2d(10);
        m.lane(0).h2d(10);
        m.lane(0).h2d(10);
        m.join();
        let evs: Vec<_> = m.trace().events().collect();
        assert_eq!(evs[0].accesses, vec![a]);
        assert!(evs[1].accesses.is_empty());
        assert_eq!(evs[2].device, Device::Gpu(1));
        assert!(evs[2].accesses.is_empty());
    }

    #[test]
    fn sync_scopes_are_recorded() {
        let mut m = machine();
        m.enable_unbounded_trace();
        m.sync(BarrierScope::Phase);
        m.sync(BarrierScope::Epoch);
        let kinds: Vec<_> = m.trace().events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Barrier(BarrierScope::Phase),
                EventKind::Barrier(BarrierScope::Epoch)
            ]
        );
    }

    #[test]
    fn tag_is_dropped_without_tracing_and_by_barriers() {
        use crate::trace::{Region, ResourceId};
        let mut m = machine();
        // Disabled trace: tag is a no-op (nothing staged, nothing leaks
        // once tracing is enabled later).
        m.lane(0)
            .tag([Access::write(ResourceId::DevRep { gpu: 0 }, Region::All)]);
        m.enable_unbounded_trace();
        // Barriers clear staged annotations rather than carrying them.
        m.lane(0)
            .tag([Access::write(ResourceId::DevRep { gpu: 0 }, Region::All)]);
        m.barrier();
        m.lane(0).h2d(4);
        m.join();
        let evs: Vec<_> = m.trace().events().collect();
        assert!(evs.iter().all(|e| e.accesses.is_empty()));
    }

    #[test]
    fn replace_trace_swaps_and_restores() {
        let mut m = machine();
        m.enable_trace(4);
        m.lane(0).h2d(1);
        // The outgoing trace is joined first: nothing charged is lost.
        let user = m.replace_trace(Trace::unbounded());
        assert_eq!(user.len(), 1);
        m.lane(0).h2d(2);
        m.join();
        assert_eq!(m.trace().len(), 1);
        assert!(m.trace().is_unbounded());
        let verification = m.replace_trace(user);
        assert_eq!(verification.len(), 1);
        assert_eq!(m.trace().len(), 1);
    }

    #[test]
    fn lanes_join_in_index_order_however_they_were_driven() {
        // Charge the same per-GPU schedule in GPU order and in reverse
        // (an arbitrary thread schedule); clocks, buckets and the joined
        // trace must match bitwise.
        let charge = |lane: &mut GpuLane| {
            let g = lane.gpu();
            lane.h2d(1000 * (g + 1));
            lane.gpu_dense(1e9 * (g + 1) as f64);
            lane.d2h(500);
        };
        let mut seq = machine();
        seq.enable_unbounded_trace();
        seq.lanes_mut().iter_mut().for_each(charge);
        seq.join();

        let mut par = machine();
        par.enable_unbounded_trace();
        par.lanes_mut().iter_mut().rev().for_each(charge);
        par.join();

        for g in 0..4 {
            assert_eq!(seq.clock(g), par.clock(g), "clock of GPU {g}");
        }
        assert_eq!(seq.buckets(), par.buckets());
        let seq_ev: Vec<_> = seq.trace().events().collect();
        let par_ev: Vec<_> = par.trace().events().collect();
        assert_eq!(seq_ev.len(), 12);
        assert_eq!(seq_ev, par_ev);
        let devices: Vec<_> = seq_ev.iter().map(|e| e.device).collect();
        assert!(devices.windows(2).all(|w| w[0] <= w[1]), "{devices:?}");
    }

    #[test]
    fn lane_and_machine_share_one_memory_tracker() {
        let mut m = machine();
        m.alloc(0, 100, "pre").unwrap();
        m.lane(0).alloc(50, "lane-side").unwrap();
        assert!(m.lane(1).alloc(usize::MAX / 2, "oom").is_err());
        assert_eq!(m.gpu_memory(0).in_use(), 150);
        assert_eq!(m.gpu_memory(1).in_use(), 0);
    }

    #[test]
    fn release_to_rolls_back_in_use_and_keeps_peaks() {
        let mut m = machine();
        m.alloc(0, 100, "static").unwrap();
        let mark = m.gpu_in_use();
        m.lane(0).alloc(400, "batch").unwrap();
        m.lane(2).alloc(300, "batch").unwrap();
        m.release_to(&mark);
        assert_eq!(m.gpu_in_use(), mark);
        assert_eq!(m.gpu_memory(0).peak(), 500);
        assert_eq!(m.gpu_memory(2).peak(), 300);
    }

    #[test]
    fn deferred_source_stalls_apply_at_join() {
        // GPU 1 fetching from GPU 0 in naive mode stalls GPU 0; lane 1
        // cannot charge lane 0, so the stall lands at the join — after
        // every lane's own events.
        let mut direct = machine();
        direct.lane(0).d2d(4096);
        let mut m = machine();
        m.enable_unbounded_trace();
        m.lane(1).source_stall(0, 4096);
        m.lane(1).h2d(8);
        assert_eq!(m.clock(0), 0.0, "the stall waits for the join");
        m.join();
        assert_eq!(m.clock(0), direct.clock(0));
        assert_eq!(m.buckets().d2d, direct.buckets().d2d);
        let evs: Vec<_> = m.trace().events().map(|e| (e.kind, e.device)).collect();
        assert_eq!(
            evs,
            vec![
                (EventKind::H2D, Device::Gpu(1)),
                (EventKind::D2D, Device::Gpu(0))
            ]
        );
    }

    #[test]
    fn streams_overlap_until_barrier() {
        // The same charges issued on one stream cost their sum; split
        // across streams they cost the max — the overlap model.
        let mut serial = machine();
        serial.lane(0).h2d(1_000_000);
        serial.lane(0).gpu_dense(1e9);
        let sum = serial.clock(0);

        let mut overlapped = machine();
        overlapped.lane(0).set_stream(1);
        let t_load = overlapped.lane(0).h2d(1_000_000);
        overlapped.lane(0).set_stream(0);
        let t_compute = overlapped.lane(0).gpu_dense(1e9);
        assert_eq!(overlapped.clock(0), t_load.max(t_compute));
        assert!(overlapped.clock(0) < sum);
        assert_eq!(overlapped.stream_clock(0, 1), t_load);
        assert_eq!(overlapped.stream_clock(0, 2), 0.0);

        overlapped.barrier();
        for s in 0..NUM_STREAMS as u8 {
            assert_eq!(overlapped.stream_clock(0, s), t_load.max(t_compute));
            assert_eq!(overlapped.stream_clock(3, s), t_load.max(t_compute));
        }
    }

    #[test]
    fn stream_wait_joins_upstream_clock_only() {
        let mut m = machine();
        m.enable_unbounded_trace();
        m.lane(0).set_stream(1);
        let t = m.lane(0).h2d(1_000_000);
        m.lane(0).set_stream(0);
        assert_eq!(m.stream_clock(0, 0), 0.0);
        m.lane(0).stream_wait(1);
        assert_eq!(m.stream_clock(0, 0), t);
        // Other GPUs and streams untouched: no barrier happened.
        assert_eq!(m.stream_clock(0, 2), 0.0);
        assert_eq!(m.clock(1), 0.0);
        m.join();
        let evs: Vec<_> = m.trace().events().collect();
        assert_eq!(evs[1].kind, EventKind::StreamWait { upstream: 1 });
        assert_eq!(evs[1].stream, 0);
        assert_eq!(evs[1].seconds, 0.0);
    }

    #[test]
    fn events_carry_the_issuing_stream() {
        let mut m = machine();
        m.enable_unbounded_trace();
        m.lane(0).h2d(10);
        m.lane(0).set_stream(2);
        m.lane(0).d2h(10);
        m.barrier();
        m.lane(0).h2d(10);
        m.join();
        let streams: Vec<_> = m.trace().events().map(|e| e.stream).collect();
        // The barrier resets the cursor to the default stream.
        assert_eq!(streams, vec![0, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_stream_rejects_out_of_range() {
        machine().lane(0).set_stream(NUM_STREAMS as u8);
    }

    #[test]
    fn buckets_add_combines() {
        let mut a = TimeBuckets::default();
        let b = TimeBuckets {
            h2d: 1.0,
            bytes_h2d: 5,
            ..Default::default()
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.h2d, 2.0);
        assert_eq!(a.bytes_h2d, 10);
    }
}
