//! Stream scheduler: the copy/compute overlap model.
//!
//! HongTu hides its large host↔GPU traffic by issuing transfers on
//! dedicated copy streams and overlapping them with computation, so the
//! per-batch cost is `max(transfer, compute)` rather than their sum (§6's
//! implementation discipline). This crate models that scheduler for the
//! simulated machine:
//!
//! - [`StreamId`] names the three per-GPU streams — compute, copy-in
//!   (H2D), copy-out (D2H) — that map onto `hongtu_sim`'s per-stream
//!   clocks ([`hongtu_sim::NUM_STREAMS`]). Streams are independent event
//!   timelines: their clocks only relate through explicit cross-stream
//!   waits ([`hongtu_sim::EventKind::StreamWait`]) and barriers.
//! - [`layer_schedule`] is one layer's sweep as data: a sequence of
//!   [`Segment`]s, each naming which batch runs which [`Role`] and the
//!   barrier that closes it. Under [`OverlapMode::DoubleBuffer`] it is
//!   [`pipeline`] — while batch `j` computes, batch `j+1`'s dedup H2D
//!   load and checkpoint reloads are prefetched on copy-in, and batch
//!   `j-1`'s gradient/checkpoint D2H drains on copy-out, with one
//!   prologue segment to fill the pipe and one epilogue to drain it.
//!   Under [`OverlapMode::Off`] it is the depth-1 case: each batch loads,
//!   computes and drains on its own, split by phase barriers wherever
//!   GPUs exchange rows.
//! - [`slot_of`] / [`rep_slot`] / [`grad_slot`] give the double-buffer
//!   slot discipline: batch `j` lives in staging slot `j % 2`, so a
//!   prefetch always writes the slot the current compute batch is *not*
//!   using. Slots are distinct resources to the happens-before checker —
//!   the one genuinely cross-stream hazard left is the in-place `ℕ^gpu`
//!   reuse refill, which must wait for the copy-in stream's H2D into the
//!   same slot (and is exactly the R402 class of race the checker
//!   rejects when the wait is missing).
//! - [`StagingPlan`] sizes and installs the per-GPU staging buffers: two
//!   input slots and two output slots, allocated *statically* at engine
//!   construction. A staging pair that does not fit device memory fails
//!   construction with [`SimError::OutOfMemory`] naming the slot label
//!   and GPU.

#![forbid(unsafe_code)]

use hongtu_sim::{BarrierScope, Machine, ResourceId, SimError};

/// The per-GPU streams of the overlap executor. The numeric ids index
/// `hongtu_sim`'s per-stream clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// Kernel launches (and the default stream everything uses when
    /// overlap is off).
    Compute,
    /// Host→GPU copies: dedup loads, checkpoint/aggregate reloads.
    CopyIn,
    /// GPU→host copies: checkpoint stores, gradient evictions.
    CopyOut,
}

impl StreamId {
    /// The stream index used by the simulator's per-stream clocks and
    /// event tags.
    pub fn id(self) -> u8 {
        match self {
            StreamId::Compute => 0,
            StreamId::CopyIn => 1,
            StreamId::CopyOut => 2,
        }
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamId::Compute => f.write_str("compute"),
            StreamId::CopyIn => f.write_str("copy-in"),
            StreamId::CopyOut => f.write_str("copy-out"),
        }
    }
}

/// Whether the engine overlaps transfers with compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapMode {
    /// Everything on the default stream; load, compute, and evict phases
    /// are charged additively (the pre-overlap model).
    #[default]
    Off,
    /// Software-pipelined batches over double-buffered staging: batch
    /// `j+1` loads and batch `j-1` drains behind batch `j`'s compute.
    /// Changes time and memory, never results.
    DoubleBuffer,
}

/// The staging slot batch `j` occupies under double buffering.
pub fn slot_of(batch: usize) -> u8 {
    (batch % 2) as u8
}

/// The resource identity of GPU `gpu`'s representation staging slot for
/// batch `batch`.
pub fn rep_slot(gpu: usize, batch: usize) -> ResourceId {
    ResourceId::DevRepSlot {
        gpu: gpu as u32,
        slot: slot_of(batch),
    }
}

/// The resource identity of GPU `gpu`'s gradient staging slot for batch
/// `batch`.
pub fn grad_slot(gpu: usize, batch: usize) -> ResourceId {
    ResourceId::DevGradSlot {
        gpu: gpu as u32,
        slot: slot_of(batch),
    }
}

/// What a batch does inside a [`Segment`]. Within a segment the roles
/// run in this order on every GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Host-side loads of the batch's inputs (Algorithm 2 phase A,
    /// checkpoint reloads, `∇h^{l+1}`).
    Load,
    /// Inter-GPU fetches, the layer numerics, gradient pushes.
    Compute,
    /// Write-back / eviction of what the compute left on the device.
    Drain,
}

/// One segment of a layer's schedule: the per-batch work co-scheduled
/// between two barriers. Under double buffering the three roles belong
/// to three different batches and run on their three streams, so the
/// segment's simulated cost is the *maximum* of the three, not the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Batch in the [`Role::Load`] role.
    pub load: Option<usize>,
    /// Batch in the [`Role::Compute`] role.
    pub compute: Option<usize>,
    /// Batch in the [`Role::Drain`] role.
    pub drain: Option<usize>,
    /// The barrier that closes the segment.
    pub barrier: BarrierScope,
}

impl Segment {
    /// The segment's `(role, batch)` operations in execution order.
    pub fn ops(&self) -> impl Iterator<Item = (Role, usize)> {
        [
            (Role::Load, self.load),
            (Role::Compute, self.compute),
            (Role::Drain, self.drain),
        ]
        .into_iter()
        .filter_map(|(role, batch)| batch.map(|j| (role, j)))
    }
}

/// The pipelined schedule for `n` batches: a prologue that loads batch
/// 0, `n` steady segments (compute `j`, load `j+1`, drain `j-1`), and an
/// epilogue that drains batch `n-1`. Every batch appears exactly once in
/// each role, and a segment never loads into the slot its compute batch
/// occupies (`(j+1) % 2 != j % 2`). Segments that compute close with a
/// batch barrier; the prologue and epilogue only move data, so a phase
/// barrier publishes it without advancing the batch count.
pub fn pipeline(n: usize) -> impl Iterator<Item = Segment> {
    let segments = if n == 0 { 0 } else { n + 2 };
    (0..segments).map(move |s| {
        let compute = (1..=n).contains(&s).then(|| s - 1);
        Segment {
            load: (s < n).then_some(s),
            compute,
            drain: (s >= 2).then(|| s - 2),
            barrier: if compute.is_some() {
                BarrierScope::Batch
            } else {
                BarrierScope::Phase
            },
        }
    })
}

/// One layer's schedule over `n` batches. `phased` says GPUs exchange
/// rows inside a batch (every comm mode but vanilla), so the roles of a
/// depth-1 batch must be separated by phase barriers: fetches read what
/// owners loaded, evictions read what remote GPUs pushed. `drains` says
/// the depth-1 batch has a separate [`Role::Drain`] step (the backward
/// pass evicts gradients; the forward compute writes back on its own).
/// The pipelined schedule always drains a segment late and needs no
/// phase barriers — a segment boundary already separates the roles.
pub fn layer_schedule(n: usize, overlap: OverlapMode, phased: bool, drains: bool) -> Vec<Segment> {
    if overlap == OverlapMode::DoubleBuffer {
        return pipeline(n).collect();
    }
    use BarrierScope::{Batch, Phase};
    let seg = |load, compute, drain, barrier| Segment {
        load,
        compute,
        drain,
        barrier,
    };
    let mut segments = Vec::new();
    for j in 0..n {
        if !phased {
            segments.push(seg(Some(j), Some(j), drains.then_some(j), Batch));
            continue;
        }
        segments.push(seg(Some(j), None, None, Phase));
        segments.push(seg(None, Some(j), None, if drains { Phase } else { Batch }));
        if drains {
            segments.push(seg(None, None, Some(j), Batch));
        }
    }
    segments
}

/// Static sizing of one GPU's double-buffered staging memory. Installed
/// once at engine construction; the overlap executor then runs with no
/// per-batch allocation churn (slots are reused in `j % 2` rotation), so
/// peak memory is flat at `2·(in + out)` staging bytes above the
/// resident model state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingPlan {
    /// GPU this plan sizes.
    pub gpu: usize,
    /// Bytes of one *input* staging slot: the worst-case (layer, batch)
    /// footprint of chunk topology, neighbor/transition buffer, and
    /// reloaded checkpoints.
    pub in_slot_bytes: usize,
    /// Bytes of one *output* staging slot: the worst-case (layer, batch)
    /// footprint of layer output, intermediates, and gradient staging
    /// awaiting its D2H drain.
    pub out_slot_bytes: usize,
}

impl StagingPlan {
    /// Total staging bytes the plan pins: two slots of each kind.
    pub fn total_bytes(&self) -> usize {
        2 * (self.in_slot_bytes + self.out_slot_bytes)
    }

    /// Byte budget one in-flight batch may occupy: one input plus one
    /// output slot. The serving layer's admission control holds a
    /// request cone's worst per-batch footprint to this bound, so an
    /// admitted pruned sweep fits the staging the full sweep was sized
    /// for.
    pub fn slot_budget(&self) -> usize {
        self.in_slot_bytes + self.out_slot_bytes
    }

    /// Whether a batch with the given input/output footprint fits the
    /// staging slots component-wise.
    pub fn fits(&self, in_bytes: usize, out_bytes: usize) -> bool {
        in_bytes <= self.in_slot_bytes && out_bytes <= self.out_slot_bytes
    }

    /// Allocates the four staging slots on the machine. Fails with
    /// [`SimError::OutOfMemory`] — naming the slot label and the GPU —
    /// when the double-buffer does not fit, which is how an oversized
    /// overlap configuration is rejected *at construction* instead of
    /// corrupting a running epoch.
    pub fn install(&self, machine: &mut Machine) -> Result<(), SimError> {
        for slot in 0..2u8 {
            machine.alloc(
                self.gpu,
                self.in_slot_bytes,
                &format!("input staging buffer (slot {slot})"),
            )?;
            machine.alloc(
                self.gpu,
                self.out_slot_bytes,
                &format!("output staging buffer (slot {slot})"),
            )?;
        }
        Ok(())
    }

    /// Frees the four staging slots.
    pub fn uninstall(&self, machine: &mut Machine) {
        machine.free(self.gpu, self.total_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hongtu_sim::MachineConfig;

    #[test]
    fn stream_ids_are_stable_and_distinct() {
        assert_eq!(StreamId::Compute.id(), 0);
        assert_eq!(StreamId::CopyIn.id(), 1);
        assert_eq!(StreamId::CopyOut.id(), 2);
        assert!((StreamId::CopyOut.id() as usize) < hongtu_sim::NUM_STREAMS);
        assert_eq!(StreamId::CopyIn.to_string(), "copy-in");
    }

    #[test]
    fn pipeline_covers_every_batch_once_per_role() {
        for n in 0..7 {
            let segs: Vec<_> = pipeline(n).collect();
            if n == 0 {
                assert!(segs.is_empty());
                continue;
            }
            assert_eq!(segs.len(), n + 2);
            assert_eq!(segs[0].ops().collect::<Vec<_>>(), [(Role::Load, 0)]);
            assert_eq!(
                segs[n + 1].ops().collect::<Vec<_>>(),
                [(Role::Drain, n - 1)]
            );
            for role in [Role::Load, Role::Compute, Role::Drain] {
                let batches: Vec<_> = segs
                    .iter()
                    .flat_map(Segment::ops)
                    .filter(|&(r, _)| r == role)
                    .map(|(_, j)| j)
                    .collect();
                assert_eq!(batches, (0..n).collect::<Vec<_>>());
            }
            for seg in &segs {
                let want = if seg.compute.is_some() {
                    BarrierScope::Batch
                } else {
                    BarrierScope::Phase
                };
                assert_eq!(seg.barrier, want);
            }
        }
    }

    #[test]
    fn pipeline_shifts_roles_by_one_batch() {
        for seg in pipeline(5) {
            if let (Some(p), Some(c)) = (seg.load, seg.compute) {
                assert_eq!(p, c + 1);
                // The load never lands in the computing batch's slot.
                assert_ne!(slot_of(p), slot_of(c));
            }
            if let (Some(c), Some(d)) = (seg.compute, seg.drain) {
                assert_eq!(d, c - 1);
                assert_ne!(slot_of(d), slot_of(c));
            }
        }
    }

    /// The barriers the depth-1 schedule places: none inside a vanilla
    /// batch, a phase barrier after every role but the last otherwise.
    #[test]
    fn depth_one_schedule_places_phase_barriers_between_roles() {
        use BarrierScope::{Batch, Phase};
        use Role::{Compute, Drain, Load};
        let flat = |phased, drains| -> Vec<(Vec<(Role, usize)>, BarrierScope)> {
            layer_schedule(2, OverlapMode::Off, phased, drains)
                .iter()
                .map(|s| (s.ops().collect(), s.barrier))
                .collect()
        };
        assert_eq!(
            flat(false, false),
            [
                (vec![(Load, 0), (Compute, 0)], Batch),
                (vec![(Load, 1), (Compute, 1)], Batch),
            ]
        );
        assert_eq!(
            flat(false, true)[0],
            (vec![(Load, 0), (Compute, 0), (Drain, 0)], Batch)
        );
        assert_eq!(
            flat(true, false),
            [
                (vec![(Load, 0)], Phase),
                (vec![(Compute, 0)], Batch),
                (vec![(Load, 1)], Phase),
                (vec![(Compute, 1)], Batch),
            ]
        );
        assert_eq!(
            flat(true, true)[..3],
            [
                (vec![(Load, 0)], Phase),
                (vec![(Compute, 0)], Phase),
                (vec![(Drain, 0)], Batch),
            ]
        );
        assert_eq!(
            layer_schedule(3, OverlapMode::DoubleBuffer, true, true),
            pipeline(3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn slot_resources_alternate_per_gpu() {
        assert_eq!(slot_of(0), 0);
        assert_eq!(slot_of(3), 1);
        assert_ne!(rep_slot(1, 2), rep_slot(1, 3));
        assert_eq!(rep_slot(1, 2), rep_slot(1, 4));
        assert_ne!(rep_slot(0, 0), rep_slot(1, 0));
        assert_ne!(rep_slot(0, 0), grad_slot(0, 0));
    }

    #[test]
    fn staging_plan_installs_and_reports_oom() {
        let mut m = Machine::new(MachineConfig::scaled(2, 10_000));
        let plan = StagingPlan {
            gpu: 0,
            in_slot_bytes: 3_000,
            out_slot_bytes: 1_000,
        };
        assert_eq!(plan.total_bytes(), 8_000);
        plan.install(&mut m).unwrap();
        assert_eq!(m.gpu_memory(0).in_use(), 8_000);
        plan.uninstall(&mut m);
        assert_eq!(m.gpu_memory(0).in_use(), 0);

        let too_big = StagingPlan {
            gpu: 1,
            in_slot_bytes: 4_000,
            out_slot_bytes: 2_000,
        };
        match too_big.install(&mut m).unwrap_err() {
            SimError::OutOfMemory { device, label, .. } => {
                assert_eq!(device, "GPU1");
                assert!(label.contains("staging buffer"), "label: {label}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overlap_mode_defaults_off() {
        assert_eq!(OverlapMode::default(), OverlapMode::Off);
    }

    #[test]
    fn slot_budget_is_one_batch_of_staging() {
        let plan = StagingPlan {
            gpu: 0,
            in_slot_bytes: 3_000,
            out_slot_bytes: 1_000,
        };
        assert_eq!(plan.slot_budget(), 4_000);
        assert_eq!(plan.total_bytes(), 2 * plan.slot_budget());
        assert!(plan.fits(3_000, 1_000));
        assert!(!plan.fits(3_001, 0));
        assert!(!plan.fits(0, 1_001));
    }
}
