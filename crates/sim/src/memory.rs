//! Device memory accounting.

use std::fmt;

/// Simulator errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An allocation exceeded device capacity — the condition reported as
    /// "OOM" in the paper's comparison tables.
    OutOfMemory {
        /// Device name (e.g. `GPU2`, `host`).
        device: String,
        /// What the failing allocation was for.
        label: String,
        /// Bytes requested.
        requested: usize,
        /// Bytes already in use.
        in_use: usize,
        /// Device capacity in bytes.
        capacity: usize,
    },
    /// Reference to a device that does not exist.
    NoSuchDevice {
        /// Requested device index.
        index: usize,
        /// Number of devices configured.
        available: usize,
    },
    /// A precomputed execution plan failed static verification (the
    /// engine refuses to run a plan that would corrupt training data).
    InvalidPlan {
        /// The first diagnostic's stable code (e.g. `B201`).
        code: String,
        /// Rendered diagnostic report.
        message: String,
    },
    /// An executed schedule failed the happens-before trace checker (a
    /// race or ordering hazard in the recorded multi-GPU event trace).
    InvalidSchedule {
        /// The first diagnostic's stable code (e.g. `R402`).
        code: String,
        /// Rendered diagnostic report.
        message: String,
    },
    /// A staged graph update was validated against an earlier epoch of
    /// the graph than the one it is being committed onto (another commit
    /// landed in between). Nothing was applied; stage it again.
    StaleCommit {
        /// The graph epoch the update was staged against.
        staged_epoch: u64,
        /// The graph's epoch now.
        graph_epoch: u64,
    },
    /// A graph update's replay cone costs more device memory than the
    /// budget it was held to allows on some GPU. Nothing was applied.
    OverBudget {
        /// Per-GPU cost of the replay cone, in bytes.
        cone_bytes: Vec<usize>,
        /// Per-GPU budget it was held against, in bytes.
        budget_bytes: Vec<usize>,
    },
    /// A cone was derived from other plans than the session's: plans a
    /// structural graph commit has since rebuilt, or another session's,
    /// so its sweep would read topology the session does not have.
    /// Nothing ran; derive the cone again on this session.
    StaleCone {
        /// The identity of the plans the cone was derived from.
        cone_generation: u64,
        /// The identity of the session's plans now.
        plan_generation: u64,
    },
    /// A graph, or a graph update staged on one, has another vertex
    /// count than the session it was handed to, so it is not the graph
    /// the session's plans partition. Nothing was applied.
    GraphMismatch {
        /// Vertices of the graph.
        graph_vertices: usize,
        /// Vertices of the session.
        session_vertices: usize,
    },
    /// A serving query has no cone to sweep: it names no vertex, or a
    /// vertex the graph does not have. Nothing ran.
    InvalidQuery {
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                device,
                label,
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "{device}: out of memory allocating {requested} B for {label} \
                 ({in_use} B in use of {capacity} B)"
            ),
            SimError::NoSuchDevice { index, available } => {
                write!(f, "device {index} does not exist ({available} configured)")
            }
            SimError::InvalidPlan { code, message } => {
                write!(f, "invalid execution plan [{code}]: {message}")
            }
            SimError::InvalidSchedule { code, message } => {
                write!(f, "invalid execution schedule [{code}]: {message}")
            }
            SimError::StaleCommit {
                staged_epoch,
                graph_epoch,
            } => write!(
                f,
                "stale graph update: staged at epoch {staged_epoch}, graph is at {graph_epoch}"
            ),
            SimError::OverBudget {
                cone_bytes,
                budget_bytes,
            } => write!(
                f,
                "graph update over budget: its replay cone costs {cone_bytes:?} B per GPU, \
                 the budget is {budget_bytes:?} B"
            ),
            SimError::StaleCone {
                cone_generation,
                plan_generation,
            } => write!(
                f,
                "stale cone: derived from plans {cone_generation}, the session's plans \
                 are {plan_generation}"
            ),
            SimError::GraphMismatch {
                graph_vertices,
                session_vertices,
            } => write!(
                f,
                "graph mismatch: the graph has {graph_vertices} vertices, the session \
                 {session_vertices}"
            ),
            SimError::InvalidQuery { message } => write!(f, "invalid query: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Tracks allocations against a fixed capacity, recording the peak.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    name: String,
    capacity: usize,
    in_use: usize,
    peak: usize,
}

impl MemoryTracker {
    /// A tracker for device `name` with `capacity` bytes.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        MemoryTracker {
            name: name.into(),
            capacity,
            in_use: 0,
            peak: 0,
        }
    }

    /// Charges `bytes`; fails with [`SimError::OutOfMemory`] if it exceeds
    /// capacity.
    pub fn alloc(&mut self, bytes: usize, label: &str) -> Result<(), SimError> {
        if self.in_use + bytes > self.capacity {
            return Err(SimError::OutOfMemory {
                device: self.name.clone(),
                label: label.to_string(),
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Releases `bytes`.
    ///
    /// # Panics
    /// Panics if more is freed than allocated — a double-free in the engine.
    pub fn free(&mut self, bytes: usize) {
        assert!(
            bytes <= self.in_use,
            "{}: freeing {bytes} B but only {} B allocated",
            self.name,
            self.in_use
        );
        self.in_use -= bytes;
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// High-water mark.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining bytes.
    pub fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resets the peak to the current usage (e.g. after warm-up).
    pub fn reset_peak(&mut self) {
        self.peak = self.in_use;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut t = MemoryTracker::new("GPU0", 100);
        t.alloc(60, "a").unwrap();
        t.alloc(40, "b").unwrap();
        assert_eq!(t.in_use(), 100);
        assert_eq!(t.available(), 0);
        t.free(60);
        assert_eq!(t.in_use(), 40);
        assert_eq!(t.peak(), 100);
    }

    #[test]
    fn oom_carries_context() {
        let mut t = MemoryTracker::new("GPU1", 100);
        t.alloc(80, "base").unwrap();
        let err = t.alloc(30, "intermediate").unwrap_err();
        match &err {
            SimError::OutOfMemory {
                device,
                label,
                requested,
                in_use,
                capacity,
            } => {
                assert_eq!(device, "GPU1");
                assert_eq!(label, "intermediate");
                assert_eq!((*requested, *in_use, *capacity), (30, 80, 100));
            }
            other => panic!("unexpected {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("GPU1") && msg.contains("intermediate"));
        // Failed allocation must not change accounting.
        assert_eq!(t.in_use(), 80);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut t = MemoryTracker::new("d", 10);
        assert!(t.alloc(10, "x").is_ok());
        assert!(t.alloc(1, "y").is_err());
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn double_free_panics() {
        let mut t = MemoryTracker::new("d", 10);
        t.alloc(5, "x").unwrap();
        t.free(6);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut t = MemoryTracker::new("d", 100);
        t.alloc(70, "x").unwrap();
        t.free(70);
        t.alloc(20, "y").unwrap();
        assert_eq!(t.peak(), 70);
        t.reset_peak();
        assert_eq!(t.peak(), 20);
    }
}
