//! Diagnostic types shared by all verifier passes.
//!
//! Every invariant the verifier checks has a stable code (`P…`/`D…`/`B…`/
//! `V…` for the partition, dedup, buffer, and volume passes) and a paper
//! reference, so a failure points straight at the part of HongTu whose
//! contract was broken.

use std::fmt;

/// Cap on diagnostics accumulated per pass: a thoroughly corrupt plan on a
/// large graph would otherwise produce one diagnostic per vertex.
pub(crate) const MAX_DIAGS_PER_PASS: usize = 256;

/// Which invariant a diagnostic reports. See `DESIGN.md` ("Checked
/// invariants") for the full catalogue with paper citations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    // ---- partition pass (P0xx) ----
    /// A vertex is owned (as destination) by more than one chunk.
    ChunkOverlap,
    /// A vertex is owned by no chunk.
    CoverageGap,
    /// A chunk's edge list disagrees with the graph's in-edges of an
    /// owned destination (missing, extra, or wrong-source edge).
    MissingInEdge,
    /// A chunk's local structure is corrupt: unsorted/duplicated neighbor
    /// list, out-of-range edge index, or malformed CSC offsets.
    ChunkStructure,
    /// The chunk grid does not have the declared `m × n` shape, or a
    /// chunk's ids / partition ownership disagree with the assignment.
    GridShape,

    // ---- dedup pass (D1xx) ----
    /// A transition set `ℕ_ij` (or CPU-load set `ℕ^cpu_ij`) is not sorted
    /// strictly ascending.
    TransitionUnsorted,
    /// A transition-set vertex is routed to a GPU that does not own it.
    TransitionWrongOwner,
    /// A vertex appears in more than one transition set of the same batch.
    TransitionOverlap,
    /// `∪_i ℕ_ij` differs from the batch's neighbor union `∪_i N_ij`.
    TransitionUnionMismatch,
    /// `ℕ^cpu_ij` is not exactly `ℕ_ij \ ℕ_i,j−1` (stale, duplicated, or
    /// missing host→GPU loads).
    CpuLoadMismatch,
    /// `reused[i]` differs from `|ℕ_ij ∩ ℕ_i,j−1|`.
    ReuseCountWrong,
    /// `Σ_k fetch[i][k]` differs from `|N_ij|` (some neighbor access is
    /// unserved or double-served).
    FetchRowSumMismatch,
    /// `fetch[i][k]` differs from `|N_ij ∩ ℕ_kj|`.
    FetchCellMismatch,
    /// The dedup plan's `m`/`n`/per-batch vector shapes disagree with the
    /// partition plan.
    PlanShapeMismatch,

    // ---- buffer pass (B2xx) ----
    /// Two live vertices occupy the same buffer slot in one batch.
    SlotAliased,
    /// A slot is read (via `nbr_slot` or a claimed in-place reuse) that no
    /// write ever populated with the expected vertex.
    ReadUnwritten,
    /// A retained vertex changed slots between batches without being
    /// rewritten, or reuses a slot freed in an intervening batch
    /// (use-after-free).
    SlotMoved,
    /// A planned slot lies at or beyond the declared buffer capacity.
    CapacityExceeded,
    /// `M_ij` (or its index vectors) disagrees with `ℕ_ij ∪ N_ij`.
    MergedSetWrong,

    // ---- volume pass (V3xx) ----
    /// Reported `V_ori` differs from the independently recomputed value.
    VOriMismatch,
    /// Reported `V_+p2p` differs from the independently recomputed value.
    VP2pMismatch,
    /// Reported `V_+ru` differs from the independently recomputed value.
    VRuMismatch,

    // ---- trace race pass (R4xx) ----
    /// The trace cannot be certified: tracing was disabled or the bounded
    /// trace evicted events (`dropped() > 0`), so absence of hazards in
    /// what remains proves nothing.
    TraceIncomplete,
    /// Two unordered writes touch overlapping regions of one resource.
    RaceWriteWrite,
    /// A write and a read of overlapping regions are unordered — e.g. a
    /// checkpoint reloaded before its store, or the in-place `ℕ^gpu`
    /// window overwritten while a remote P2P read is outstanding.
    RaceWriteRead,
    /// A read of a resource no happens-before write ever populated.
    ReadUnpopulated,
    /// A generation-tagged read has no happens-before write of that
    /// generation: the slot holds another batch's (stale) data.
    StaleGeneration,
    /// An atomic accumulate is unordered with a plain read or write of an
    /// overlapping region (accumulates commute only with each other).
    RaceAccum,

    // ---- trace schedule pass (S5xx) ----
    /// A resource was rewritten for a new batch generation with no
    /// batch-scope barrier since the previous generation's writes.
    BatchNotBarriered,

    // ---- resource lifetime pass (L6xx) ----
    /// A staging slot (or checkpoint slot) generation is accessed after
    /// the slot was recycled to a newer generation — the data has been
    /// evicted/overwritten by the pipeline's slot rotation.
    UseAfterEvict,
    /// A slot generation is (re)installed after its contents were already
    /// consumed — a second install clobbering a generation readers have
    /// started draining.
    DoubleInstall,
    /// A staging slot generation was installed but never consumed before
    /// the slot moved on — the installed data (and the transfer that
    /// staged it) leaked.
    StagingSlotLeak,
    /// A hybrid aggregate checkpoint is reloaded before any store wrote
    /// it (backward reading a checkpoint the forward never produced).
    ReloadBeforeStore,

    // ---- dataflow conservation pass (F8xx) ----
    /// An aggregation ran with fewer supplied contribution rows than the
    /// plans promise — some in-neighbor contribution was dropped.
    DroppedContribution,
    /// An aggregation ran with more supplied contribution rows than the
    /// plans promise — some contribution was delivered twice.
    DoubleCountedContribution,
    /// An activation write overlaps a previous write that no read ever
    /// consumed — the earlier generation's values were lost.
    ActivationOverwritten,
    /// A gradient buffer was flushed to the host before every expected
    /// accumulation (local or pushed) had arrived.
    GradFlushEarly,
    /// A gradient accumulation has no forward counterpart: a push from a
    /// GPU that fetched nothing, or more rows than the forward flow.
    OrphanGradient,
    /// The deduplicated transfer decomposition does not carry the same
    /// per-owner contribution multiset as the vanilla comparator.
    DedupMultisetMismatch,

    // ---- cone-mask pass (C9xx) ----
    /// A pruned-sweep activity grid violates its declared closure
    /// direction: a downward-closed query cone with a batch active at
    /// layer `l+1` but not `l`, or an upward-closed delta cone with a
    /// batch active at `l` but not `l+1` — the sweep would read rows
    /// never (re)computed.
    ConeNotClosed,
    /// A pruned-sweep activity grid is malformed: empty, ragged, or
    /// with no active step at all.
    ConeShapeInvalid,

    // ---- hot-vertex cache pass (H10xx) ----
    /// The admitted cache plan (or a replayed resident set) does not fit
    /// the GPU's post-staging HBM headroom, or its byte accounting
    /// disagrees with `rows × slot_bytes`.
    CacheOverflow,
    /// A sweep charged cache hits that the replayed resident set cannot
    /// serve: the count disagrees with `|S_ij ∩ resident|`, or a batch
    /// that never executed claims hits (hit-before-install).
    CachePhantomHit,
    /// A delta commit left a patched row resident (or journaled a removal
    /// of a row that was never resident): a later sweep would serve stale
    /// features.
    CacheStaleRow,
    /// A sweep installed a row the plan never admitted, that no executed
    /// batch loaded, or that was already resident.
    CacheUnplannedInstall,
}

impl DiagCode {
    /// Stable short code (`"P001"`, `"D106"`, …).
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::ChunkOverlap => "P001",
            DiagCode::CoverageGap => "P002",
            DiagCode::MissingInEdge => "P003",
            DiagCode::ChunkStructure => "P004",
            DiagCode::GridShape => "P005",
            DiagCode::TransitionUnsorted => "D101",
            DiagCode::TransitionWrongOwner => "D102",
            DiagCode::TransitionOverlap => "D103",
            DiagCode::TransitionUnionMismatch => "D104",
            DiagCode::CpuLoadMismatch => "D105",
            DiagCode::ReuseCountWrong => "D106",
            DiagCode::FetchRowSumMismatch => "D107",
            DiagCode::FetchCellMismatch => "D108",
            DiagCode::PlanShapeMismatch => "D109",
            DiagCode::SlotAliased => "B201",
            DiagCode::ReadUnwritten => "B202",
            DiagCode::SlotMoved => "B203",
            DiagCode::CapacityExceeded => "B204",
            DiagCode::MergedSetWrong => "B205",
            DiagCode::VOriMismatch => "V301",
            DiagCode::VP2pMismatch => "V302",
            DiagCode::VRuMismatch => "V303",
            DiagCode::TraceIncomplete => "R400",
            DiagCode::RaceWriteWrite => "R401",
            DiagCode::RaceWriteRead => "R402",
            DiagCode::ReadUnpopulated => "R403",
            DiagCode::StaleGeneration => "R404",
            DiagCode::RaceAccum => "R405",
            DiagCode::BatchNotBarriered => "S501",
            DiagCode::UseAfterEvict => "L601",
            DiagCode::DoubleInstall => "L602",
            DiagCode::StagingSlotLeak => "L603",
            DiagCode::ReloadBeforeStore => "L604",
            DiagCode::DroppedContribution => "F801",
            DiagCode::DoubleCountedContribution => "F802",
            DiagCode::ActivationOverwritten => "F803",
            DiagCode::GradFlushEarly => "F804",
            DiagCode::OrphanGradient => "F805",
            DiagCode::DedupMultisetMismatch => "F806",
            DiagCode::ConeNotClosed => "C901",
            DiagCode::ConeShapeInvalid => "C902",
            DiagCode::CacheOverflow => "H1001",
            DiagCode::CachePhantomHit => "H1002",
            DiagCode::CacheStaleRow => "H1003",
            DiagCode::CacheUnplannedInstall => "H1004",
        }
    }

    /// The section of the HongTu paper whose contract the code checks.
    pub fn paper_ref(self) -> &'static str {
        match self {
            DiagCode::ChunkOverlap
            | DiagCode::CoverageGap
            | DiagCode::MissingInEdge
            | DiagCode::ChunkStructure
            | DiagCode::GridShape => "§4.1",
            DiagCode::TransitionUnsorted
            | DiagCode::TransitionWrongOwner
            | DiagCode::TransitionOverlap
            | DiagCode::TransitionUnionMismatch
            | DiagCode::FetchRowSumMismatch
            | DiagCode::FetchCellMismatch
            | DiagCode::PlanShapeMismatch => "§5.1",
            DiagCode::CpuLoadMismatch | DiagCode::ReuseCountWrong => "§5.2",
            DiagCode::SlotAliased
            | DiagCode::ReadUnwritten
            | DiagCode::SlotMoved
            | DiagCode::CapacityExceeded
            | DiagCode::MergedSetWrong => "§6",
            DiagCode::VOriMismatch | DiagCode::VP2pMismatch | DiagCode::VRuMismatch => "§5.3",
            DiagCode::TraceIncomplete | DiagCode::BatchNotBarriered => "§4.1",
            DiagCode::RaceWriteWrite | DiagCode::RaceWriteRead | DiagCode::ReadUnpopulated => {
                "§4.2"
            }
            DiagCode::StaleGeneration => "§5.2",
            DiagCode::RaceAccum => "§5.1",
            DiagCode::UseAfterEvict | DiagCode::DoubleInstall | DiagCode::StagingSlotLeak => "§6",
            DiagCode::ReloadBeforeStore => "§4.2",
            DiagCode::DroppedContribution
            | DiagCode::DoubleCountedContribution
            | DiagCode::DedupMultisetMismatch => "§5.1",
            DiagCode::ActivationOverwritten => "§4.2",
            DiagCode::GradFlushEarly | DiagCode::OrphanGradient => "§5.2",
            DiagCode::ConeNotClosed | DiagCode::ConeShapeInvalid => "§4.1",
            DiagCode::CacheOverflow
            | DiagCode::CachePhantomHit
            | DiagCode::CacheStaleRow
            | DiagCode::CacheUnplannedInstall => "§5.2",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Where in the plan a diagnostic points. All parts are optional: a
/// grid-shape error has no vertex, a coverage gap has no GPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Location {
    /// GPU / partition index.
    pub gpu: Option<usize>,
    /// Batch (chunk) index.
    pub batch: Option<usize>,
    /// Global vertex id.
    pub vertex: Option<u32>,
}

impl Location {
    /// Location naming only a GPU.
    pub fn gpu(gpu: usize) -> Self {
        Location {
            gpu: Some(gpu),
            ..Default::default()
        }
    }

    /// Location naming a GPU and a batch.
    pub fn gpu_batch(gpu: usize, batch: usize) -> Self {
        Location {
            gpu: Some(gpu),
            batch: Some(batch),
            vertex: None,
        }
    }

    /// Location naming a batch only.
    pub fn batch(batch: usize) -> Self {
        Location {
            batch: Some(batch),
            ..Default::default()
        }
    }

    /// Location naming a vertex only.
    pub fn vertex(vertex: u32) -> Self {
        Location {
            vertex: Some(vertex),
            ..Default::default()
        }
    }

    /// Attaches a vertex to this location.
    pub fn with_vertex(mut self, vertex: u32) -> Self {
        self.vertex = Some(vertex);
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(g) = self.gpu {
            parts.push(format!("gpu {g}"));
        }
        if let Some(b) = self.batch {
            parts.push(format!("batch {b}"));
        }
        if let Some(v) = self.vertex {
            parts.push(format!("vertex {v}"));
        }
        if parts.is_empty() {
            f.write_str("plan")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// One finding from a verifier pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which invariant was violated.
    pub code: DiagCode,
    /// Where.
    pub location: Location,
    /// Human-readable explanation with the observed vs expected values.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(code: DiagCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            location,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {}] {}: {}",
            self.code,
            self.code.paper_ref(),
            self.location,
            self.message
        )
    }
}

/// All findings from a verification run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Diagnostics in pass order (partition, dedup, buffers, volumes).
    pub diagnostics: Vec<Diagnostic>,
    /// How many passes hit their diagnostic cap (their counts are lower
    /// bounds).
    pub truncated_passes: usize,
}

impl Report {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The first (most upstream) diagnostic, if any. Upstream passes run
    /// first, so this is the root-cause candidate.
    pub fn first(&self) -> Option<&Diagnostic> {
        self.diagnostics.first()
    }

    /// True when some diagnostic carries `code`.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        if self.is_ok() {
            return "plan OK: all checked invariants hold".to_string();
        }
        let mut out = format!("plan INVALID: {} diagnostic(s)\n", self.diagnostics.len());
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        if self.truncated_passes > 0 {
            out.push_str(&format!(
                "  … {} pass(es) hit the {}-diagnostic cap; counts are lower bounds\n",
                self.truncated_passes, MAX_DIAGS_PER_PASS
            ));
        }
        out
    }

    /// Absorbs a pass's diagnostics, tracking truncation.
    pub(crate) fn extend_pass(&mut self, pass: Vec<Diagnostic>) {
        if pass.len() >= MAX_DIAGS_PER_PASS {
            self.truncated_passes += 1;
        }
        self.diagnostics.extend(pass);
    }

    /// Absorbs another report's findings (for callers combining pass
    /// families run by separate drivers, e.g. schedule certification
    /// plus dataflow conservation).
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
        self.truncated_passes += other.truncated_passes;
    }
}

/// How much checking the engine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationLevel {
    /// No verification (trusted plans, e.g. benchmarks).
    Off,
    /// Verify all plans once at engine construction.
    #[default]
    Plan,
    /// Also re-verify the dedup/buffer/volume passes at every epoch in
    /// debug builds (catches accidental in-training plan mutation).
    Paranoid,
}

/// Appends `diag` unless the pass already hit its cap.
pub(crate) fn push(diags: &mut Vec<Diagnostic>, diag: Diagnostic) {
    if diags.len() < MAX_DIAGS_PER_PASS {
        diags.push(diag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let all = [
            DiagCode::ChunkOverlap,
            DiagCode::CoverageGap,
            DiagCode::MissingInEdge,
            DiagCode::ChunkStructure,
            DiagCode::GridShape,
            DiagCode::TransitionUnsorted,
            DiagCode::TransitionWrongOwner,
            DiagCode::TransitionOverlap,
            DiagCode::TransitionUnionMismatch,
            DiagCode::CpuLoadMismatch,
            DiagCode::ReuseCountWrong,
            DiagCode::FetchRowSumMismatch,
            DiagCode::FetchCellMismatch,
            DiagCode::PlanShapeMismatch,
            DiagCode::SlotAliased,
            DiagCode::ReadUnwritten,
            DiagCode::SlotMoved,
            DiagCode::CapacityExceeded,
            DiagCode::MergedSetWrong,
            DiagCode::VOriMismatch,
            DiagCode::VP2pMismatch,
            DiagCode::VRuMismatch,
            DiagCode::TraceIncomplete,
            DiagCode::RaceWriteWrite,
            DiagCode::RaceWriteRead,
            DiagCode::ReadUnpopulated,
            DiagCode::StaleGeneration,
            DiagCode::RaceAccum,
            DiagCode::BatchNotBarriered,
            DiagCode::UseAfterEvict,
            DiagCode::DoubleInstall,
            DiagCode::StagingSlotLeak,
            DiagCode::ReloadBeforeStore,
            DiagCode::DroppedContribution,
            DiagCode::DoubleCountedContribution,
            DiagCode::ActivationOverwritten,
            DiagCode::GradFlushEarly,
            DiagCode::OrphanGradient,
            DiagCode::DedupMultisetMismatch,
            DiagCode::ConeNotClosed,
            DiagCode::ConeShapeInvalid,
            DiagCode::CacheOverflow,
            DiagCode::CachePhantomHit,
            DiagCode::CacheStaleRow,
            DiagCode::CacheUnplannedInstall,
        ];
        let mut seen = std::collections::HashSet::new();
        for c in all {
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            // Pass families use 4-char codes; the two-digit cache family
            // (pass 11) uses 5.
            assert!(c.code().len() == 4 || c.code().starts_with("H10"));
            assert!(c.paper_ref().starts_with('§'));
        }
    }

    #[test]
    fn report_render_mentions_codes() {
        let mut r = Report::default();
        r.extend_pass(vec![Diagnostic::new(
            DiagCode::SlotAliased,
            Location::gpu_batch(1, 2).with_vertex(7),
            "slot 3 double-booked",
        )]);
        assert!(!r.is_ok());
        assert!(r.has(DiagCode::SlotAliased));
        assert!(!r.has(DiagCode::CoverageGap));
        let s = r.render();
        assert!(s.contains("B201"));
        assert!(s.contains("§6"));
        assert!(s.contains("gpu 1, batch 2, vertex 7"));
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = Report::default();
        a.extend_pass(vec![Diagnostic::new(
            DiagCode::DroppedContribution,
            Location::gpu_batch(0, 1),
            "short 3 rows",
        )]);
        let mut b = Report::default();
        b.extend_pass(vec![Diagnostic::new(
            DiagCode::OrphanGradient,
            Location::gpu(2),
            "push with no fetch",
        )]);
        b.truncated_passes = 1;
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert_eq!(a.truncated_passes, 1);
        assert!(a.has(DiagCode::DroppedContribution));
        assert!(a.has(DiagCode::OrphanGradient));
        assert!(a.render().contains("F805"));
    }

    #[test]
    fn location_display_forms() {
        assert_eq!(Location::default().to_string(), "plan");
        assert_eq!(Location::gpu(3).to_string(), "gpu 3");
        assert_eq!(
            Location::batch(1).with_vertex(9).to_string(),
            "batch 1, vertex 9"
        );
    }

    #[test]
    fn push_caps_at_limit() {
        let mut v = Vec::new();
        for _ in 0..(MAX_DIAGS_PER_PASS + 50) {
            push(
                &mut v,
                Diagnostic::new(DiagCode::CoverageGap, Location::default(), "x"),
            );
        }
        assert_eq!(v.len(), MAX_DIAGS_PER_PASS);
    }
}
