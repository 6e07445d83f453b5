//! Plan certificates: passes 1–4 re-reading only what a plan replaced.
//!
//! A [`PlanCertificate`] holds `Arc` clones of every chunk, dedup batch
//! and buffer batch a clean check read, the level-1 assignment, the
//! topology the chunks were checked against, and the per-batch volume
//! terms and slot bounds that check computed. Checking a later plan
//! against it re-reads a piece only when its allocation is not the
//! certified one at the same position ([`Arc::ptr_eq`]), plus the
//! piece's boundary with its neighbor. Because the certificate holds a
//! clone of every piece, no certified piece can change in place
//! (`Arc::get_mut` returns `None`, `Arc::make_mut` copies, and `unsafe`
//! is forbidden): a shared piece is the value that was checked. What is
//! not a piece — the graph rows, the buffer a batch inherits, a
//! replaced chunk's neighbor list — the check compares by value itself;
//! it takes nothing on trust from whatever derived the plan.
//!
//! The verdict stays whole: on any finding the check re-runs against an
//! empty certificate, which is [`crate::verify_all`], so a refusal
//! carries exactly `verify_all`'s report. DESIGN.md ("Plans are
//! patched, verification stays whole") has the argument.

use crate::buffers::{verify_all_buffers_since, CertifiedChain};
use crate::dedup::{verify_dedup_since, Recheck};
use crate::diag::Report;
use crate::partition::{verify_partition_since, CertifiedGrid};
use crate::volumes::{batch_terms, batch_terms_since, check_volumes, volumes_of};
use hongtu_graph::Graph;
use hongtu_partition::{
    Assignment, BatchIndices, BatchPlan, ChunkSubgraph, DedupPlan, GpuBufferPlan, TwoLevelPartition,
};
use std::sync::Arc;

/// What the last clean check of a plan read, held by `Arc` clone. The
/// default certificate is empty: checking against it checks everything.
#[derive(Debug, Clone, Default)]
pub struct PlanCertificate {
    /// The graph the chunks were checked against, when the check was
    /// handed it shared ([`PlanCertificate::check_commit`]).
    topology: Option<Arc<Graph>>,
    /// `None` on the empty certificate.
    assignment: Option<Arc<Assignment>>,
    chunks: Vec<Vec<Arc<ChunkSubgraph>>>,
    dedup: Vec<Arc<BatchPlan>>,
    /// Per GPU, its buffer batches and each one's slot bound.
    buffers: Vec<(Vec<Arc<BatchIndices>>, Vec<usize>)>,
    /// Per batch, its `(V_+p2p, V_+ru)` terms.
    volume_terms: Vec<(usize, usize)>,
}

/// Plan pieces a check read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Visited {
    /// Chunks checked against the graph (pass 1), whole or at the
    /// destinations whose in-lists moved.
    pub chunks: usize,
    /// Dedup batches checked (pass 2).
    pub dedup_batches: usize,
    /// Buffer batches replayed, summed over GPUs (pass 3).
    pub buffer_batches: usize,
}

impl Visited {
    fn add(&mut self, other: Visited) {
        self.chunks += other.chunks;
        self.dedup_batches += other.dedup_batches;
        self.buffer_batches += other.buffer_batches;
    }
}

/// What a check found, what it read, and — when clean — the certificate
/// of the plan it checked.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Findings of passes 1–4: exactly [`crate::verify_all`]'s report.
    pub report: Report,
    /// The pieces read, a re-run against an empty certificate included.
    pub visited: Visited,
    /// The checked plan's certificate; `None` when the report is not ok.
    pub certificate: Option<PlanCertificate>,
}

impl PlanCertificate {
    /// Whether the certificate certifies nothing.
    fn is_empty(&self) -> bool {
        self.assignment.is_none()
    }

    /// Checks a plan over `g` (passes 1–4), re-reading only what this
    /// certificate did not certify. Equal in verdict and report to
    /// [`crate::verify_all`]; the certificate it returns records no
    /// topology, so its next check reads every chunk against the graph.
    pub fn check(
        &self,
        g: &Graph,
        plan: &TwoLevelPartition,
        dedup: &DedupPlan,
        bufplans: &[GpuBufferPlan],
    ) -> Checked {
        let (mut report, mut visited, certified) = self.narrowed(g, plan, dedup, bufplans);
        if !report.is_ok() && !self.is_empty() {
            let whole;
            (report, whole, _) = PlanCertificate::default().narrowed(g, plan, dedup, bufplans);
            visited.add(whole);
        }
        Checked {
            certificate: report.is_ok().then_some(certified),
            report,
            visited,
        }
    }

    /// [`PlanCertificate::check`] of a plan a graph update derived from
    /// the certified one: `base` is the graph the update was staged
    /// against and `staged` the topology it produced. A `base` that is
    /// not the topology this certificate recorded is checked against an
    /// empty certificate. The returned certificate records `staged`.
    pub fn check_commit(
        &self,
        base: &Graph,
        staged: &Arc<Graph>,
        plan: &TwoLevelPartition,
        dedup: &DedupPlan,
        bufplans: &[GpuBufferPlan],
    ) -> Checked {
        let covers = self
            .topology
            .as_ref()
            .is_some_and(|t| std::ptr::eq(Arc::as_ptr(t), base));
        let empty = PlanCertificate::default();
        let since = if covers { self } else { &empty };
        let mut checked = since.check(staged, plan, dedup, bufplans);
        if let Some(certificate) = &mut checked.certificate {
            certificate.topology = Some(Arc::clone(staged));
        }
        checked
    }

    /// Passes 1–4 against this certificate, and the certificate of the
    /// checked plan (meaningful only when the report is clean).
    fn narrowed(
        &self,
        g: &Graph,
        plan: &TwoLevelPartition,
        dedup: &DedupPlan,
        bufplans: &[GpuBufferPlan],
    ) -> (Report, Visited, PlanCertificate) {
        let since = self.fits(g, plan, dedup, bufplans).then_some(self);
        let mut visited = Visited::default();
        let mut report = Report::default();

        // ---- which inputs moved, by pointer and by value ----
        // `same_nbrs[i][j]`: chunk (i, j) reads the certified neighbor list.
        let same_nbrs: Vec<Vec<bool>> = match since {
            Some(since) => plan
                .chunks
                .iter()
                .zip(&since.chunks)
                .map(|(row, certified)| {
                    row.iter()
                        .zip(certified)
                        .map(|(c, cc)| Arc::ptr_eq(c, cc) || c.neighbors == cc.neighbors)
                        .collect()
                })
                .collect(),
            None => Vec::new(),
        };
        let nbrs_moved: Vec<bool> = (0..plan.n)
            .map(|j| since.is_none() || same_nbrs.iter().any(|row| !row[j]))
            .collect();

        // ---- pass 1 ----
        let changed = since
            .and_then(|s| s.topology.as_deref())
            .map(|t| changed_rows(t, g));
        let grid = match (since, &changed) {
            (Some(since), Some(changed)) => Some(CertifiedGrid {
                chunks: &since.chunks,
                changed,
            }),
            _ => None,
        };
        report.extend_pass(verify_partition_since(g, plan, grid, &mut visited.chunks));

        // ---- pass 2: a batch, its chunks, or the transition sets of the
        // batch before it ----
        let recheck = since.map(|since| {
            let moved = |j: usize, sets: bool| {
                let (b, t) = (&dedup.batches[j], &since.dedup[j]);
                !Arc::ptr_eq(b, t)
                    && (b.transition != t.transition
                        || if sets {
                            b.fetch != t.fetch
                        } else {
                            b.new_from_cpu != t.new_from_cpu || b.reused != t.reused
                        })
            };
            (0..plan.n)
                .map(|j| Recheck {
                    sets: nbrs_moved[j] || moved(j, true),
                    split: moved(j, false)
                        || (j > 0 && {
                            let (b, t) = (&dedup.batches[j - 1], &since.dedup[j - 1]);
                            !Arc::ptr_eq(b, t) && b.transition != t.transition
                        }),
                })
                .collect::<Vec<_>>()
        });
        report.extend_pass(verify_dedup_since(
            plan,
            dedup,
            recheck.as_deref(),
            &mut visited.dedup_batches,
        ));

        // ---- pass 3: each GPU's chain from its first replaced batch ----
        let chain = |i: usize| {
            let since = since?;
            let (batches, slots) = &since.buffers[i];
            let shared = (0..plan.n)
                .map(|j| {
                    let (b, t) = (&dedup.batches[j], &since.dedup[j]);
                    Arc::ptr_eq(&bufplans[i].batches[j], &batches[j])
                        && same_nbrs[i][j]
                        && (Arc::ptr_eq(b, t) || b.transition[i] == t.transition[i])
                })
                .collect();
            Some(CertifiedChain {
                shared,
                batches,
                slots,
            })
        };
        let (pass, slots) =
            verify_all_buffers_since(plan, dedup, bufplans, chain, &mut visited.buffer_batches);
        report.extend_pass(pass);

        // ---- pass 4: per-batch terms over a batch and the one before ----
        let volume_terms = match since {
            Some(since) => {
                let moved: Vec<bool> = (0..plan.n)
                    .map(|j| nbrs_moved[j] || (j > 0 && nbrs_moved[j - 1]))
                    .collect();
                batch_terms_since(plan, &since.volume_terms, &moved)
            }
            None => batch_terms(plan),
        };
        report.extend_pass(check_volumes(dedup, volumes_of(plan, &volume_terms)));

        let certified = PlanCertificate {
            topology: None,
            assignment: Some(Arc::clone(&plan.assignment)),
            chunks: plan.chunks.clone(),
            dedup: dedup.batches.clone(),
            buffers: bufplans
                .iter()
                .zip(slots)
                .map(|(bp, slots)| (bp.batches.clone(), slots))
                .collect(),
            volume_terms,
        };
        (report, visited, certified)
    }

    /// Whether the plan has the shape this certificate certified, over
    /// the same assignment and vertex count — what narrowing assumes.
    /// A plan that does not fit is checked against nothing.
    fn fits(
        &self,
        g: &Graph,
        plan: &TwoLevelPartition,
        dedup: &DedupPlan,
        bufplans: &[GpuBufferPlan],
    ) -> bool {
        let (m, n) = (plan.m, plan.n);
        self.assignment
            .as_ref()
            .is_some_and(|a| Arc::ptr_eq(a, &plan.assignment))
            && plan.assignment.num_parts == m
            && plan.assignment.partition_of.len() == g.num_vertices()
            && plan.chunks.len() == m
            && plan.chunks.iter().all(|row| row.len() == n)
            && self.chunks.len() == m
            && self.chunks.iter().all(|row| row.len() == n)
            && dedup.m == m
            && dedup.n == n
            && dedup.batches.len() == n
            && self.dedup.len() == n
            && bufplans.len() == m
            && self.buffers.len() == m
            && bufplans.iter().all(|bp| bp.batches.len() == n)
            && self
                .buffers
                .iter()
                .all(|(b, s)| b.len() == n && s.len() == n)
            && self.volume_terms.len() == n
            && self
                .topology
                .as_ref()
                .is_none_or(|t| t.num_vertices() == g.num_vertices())
    }
}

/// Per vertex, whether its in-list in `g` differs from `certified`'s.
/// A stretch of rows whose degrees agree in both graphs is compared as
/// one slice, row by row only when it differs.
fn changed_rows(certified: &Graph, g: &Graph) -> Vec<bool> {
    let (a, b) = (&certified.csc, &g.csc);
    let nv = g.num_vertices();
    let mut changed = vec![false; nv];
    let mut start = 0;
    while start < nv {
        let mut end = start;
        while end < nv && a.degree(end as u32) == b.degree(end as u32) {
            end += 1;
        }
        let (ra, rb) = (
            a.offsets[start]..a.offsets[end],
            b.offsets[start]..b.offsets[end],
        );
        if a.targets[ra] != b.targets[rb] {
            for (v, changed) in changed.iter_mut().enumerate().take(end).skip(start) {
                *changed = a.neighbors(v as u32) != b.neighbors(v as u32);
            }
        }
        if end < nv {
            changed[end] = true; // another degree, another in-list
        }
        start = end + 1;
    }
    changed
}
