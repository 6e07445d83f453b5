//! Golden trace table: the one gate that compares this commit against a
//! *previous* one. Every other equivalence suite (parallel = sequential,
//! overlap = off, serve = infer, incremental = rebuild, synthesized =
//! executed) compares two paths of the same commit, so a refactor that
//! bends both sides alike passes all of them. Here every recorded
//! simulator event — kind, device, stream, bytes, duration and timestamp
//! bits, every access annotation with its region, intent, generation and
//! provenance — plus the loss and logit bits of a fixed small workload
//! are folded into one FNV-1a digest per configuration and held against
//! the committed literals in [`GOLDEN`].
//!
//! The table was generated at the commit *before* the executor was
//! collapsed into `exec.rs` and must not be edited by a refactor: a
//! mismatch means a simulated timestamp, an event, an annotation or a
//! result bit moved. An intended behaviour change regenerates it — the
//! failing test prints the full table in source form. (Three have: when
//! the two timelines became one, the two `naive-p2p` Sequential rows took
//! their Parallel twins' values; when cones became row-granular, the 20
//! pruned `serve` / `apply_staged` rows — and no train or infer row —
//! took the smaller sweeps' values; when cones were packed into runs of
//! batches, the same 20 rows, and only they, moved again.)

use hongtu::cache::FrequencyRanked;
use hongtu::core::{
    CommMode, ExecutionMode, HongTuConfig, MemoryStrategy, Mode, OverlapMode, ServeMask, Session,
};
use hongtu::datasets::dataset::{with_self_loops, Dataset, DatasetKey, Splits};
use hongtu::delta::{Delta, DynamicGraph};
use hongtu::graph::generators;
use hongtu::nn::ModelKind;
use hongtu::sim::MachineConfig;
use hongtu::tensor::{Adam, Matrix, SeededRng};
use std::fmt::Write as _;
use std::sync::Arc;

const VERTICES: usize = 240;
const CHUNKS: usize = 3;

fn dataset() -> Dataset {
    let rng = SeededRng::new(0x601d);
    let graph = with_self_loops(&generators::erdos_renyi(VERTICES, 5.0, &mut rng.fork(1)));
    let mut frng = rng.fork(2);
    let mut lrng = rng.fork(3);
    Dataset {
        key: DatasetKey::Rdt,
        graph,
        features: Matrix::from_fn(VERTICES, 6, |_, _| frng.normal() * 0.5),
        labels: (0..VERTICES).map(|_| lrng.index(3) as u32).collect(),
        splits: Splits::random(VERTICES, 0.4, 0.2, &mut rng.fork(4)),
        num_classes: 3,
        seed: 0x601d,
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn sizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for r in 0..m.rows() {
            for &x in m.row(r) {
                self.bytes(&x.to_bits().to_le_bytes());
            }
        }
    }

    /// Every event the session's machine recorded, in order.
    fn trace(&mut self, s: &Session) {
        let trace = s.machine().trace();
        self.u64(trace.len() as u64);
        let mut line = String::new();
        for e in trace.events() {
            line.clear();
            write!(
                line,
                "{:?}|{:?}|{}|{}|{:016x}|{:016x}|{:?}",
                e.kind,
                e.device,
                e.stream,
                e.bytes,
                e.seconds.to_bits(),
                e.at.to_bits(),
                e.accesses
            )
            .expect("write to String");
            self.bytes(line.as_bytes());
        }
    }
}

#[derive(Clone, Copy)]
struct Point {
    kind: ModelKind,
    comm: CommMode,
    gpus: usize,
    overlap: OverlapMode,
    exec: ExecutionMode,
}

impl Point {
    fn name(&self) -> String {
        format!(
            "{:?}/{:?}/{}gpu/{:?}/{:?}",
            self.kind, self.comm, self.gpus, self.overlap, self.exec
        )
    }

    fn builder(&self, gpu_memory: usize) -> hongtu::core::HongTuConfigBuilder {
        HongTuConfig::builder()
            .machine(MachineConfig::scaled(self.gpus, gpu_memory))
            .comm(self.comm)
            .reorganize(self.comm != CommMode::Vanilla)
            .overlap(self.overlap)
            .exec(self.exec)
    }
}

fn traced(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> Session {
    let mut s = Session::new(ds, kind, 8, 2, CHUNKS, cfg).expect("session");
    s.machine_mut().enable_unbounded_trace();
    s
}

/// Two training epochs under one optimizer: trace, both losses, logits.
fn train_digest(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> u64 {
    let mut opt = Adam::new(cfg.lr);
    let mut s = traced(ds, kind, cfg);
    let mut fnv = Fnv::new();
    for _ in 0..2 {
        let r = s.train_epoch(&mut opt).expect("train epoch");
        fnv.u64(u64::from(r.loss.loss.to_bits()));
        fnv.u64(u64::from(r.loss.accuracy.to_bits()));
        fnv.u64(r.time.to_bits());
    }
    fnv.matrix(s.logits());
    fnv.trace(&s);
    fnv.0
}

/// One inference epoch: trace and logits.
fn infer_digest(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> u64 {
    let mut s = traced(ds, kind, cfg);
    let mut fnv = Fnv::new();
    let r = s.infer_epoch().expect("infer epoch");
    fnv.u64(r.time.to_bits());
    fnv.matrix(&r.logits);
    fnv.trace(&s);
    fnv.0
}

/// A full sweep to make the stores current, then one pruned serve.
fn serve_digest(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> u64 {
    let mut s = traced(ds, kind, cfg);
    let mut fnv = Fnv::new();
    s.infer_epoch().expect("prime");
    let r = s.serve(&[3, 50, 51]).expect("serve");
    fnv.u64(r.time.to_bits());
    fnv.u64(r.active_steps as u64);
    fnv.matrix(&r.logits);
    fnv.trace(&s);
    fnv.0
}

/// A full sweep, then a structural + feature batch through
/// `apply_staged` (chunk rebuild, re-pin, cone replay).
fn delta_digest(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> u64 {
    let mut s = traced(ds, kind, cfg);
    let mut dg = DynamicGraph::from_dataset(ds);
    let mut fnv = Fnv::new();
    s.infer_epoch().expect("prime");
    let n = VERTICES as u32;
    let (src, dst) = (0..n)
        .map(|u| (u, (u + 7) % n))
        .find(|&(u, v)| !dg.graph().out_neighbors(u).contains(&v))
        .expect("an absent edge");
    let batch = [
        Delta::AddEdge { src, dst },
        Delta::UpdateFeatures {
            vertex: 11,
            features: vec![0.25; 6],
        },
    ];
    let staged = dg.stage(&batch).expect("stage");
    let r = s.apply_staged(&mut dg, staged).expect("apply");
    fnv.u64(r.time.to_bits());
    fnv.u64(r.active_steps as u64);
    fnv.u64(r.rebuilt_chunks as u64);
    fnv.matrix(s.logits());
    fnv.trace(&s);
    fnv.0
}

/// The smallest device on which `p`'s session fits without a cache, plus
/// `slack` bytes: with room for ~40 feature rows the cache admits a
/// strict subset of the hot rows, so sweeps mix hits, installs and misses.
fn tight_memory(ds: &Dataset, p: Point, mode: Mode, slack: usize) -> usize {
    let cfg = p.builder(MEM).mode(mode).build().expect("config");
    let s = Session::new(ds, p.kind, 8, 2, CHUNKS, cfg).expect("session");
    let bound = s.static_memory_bound();
    bound.gpu.iter().copied().max().expect("gpus") + slack
}

const MEM: usize = 64 << 20;

const CORNERS: [(OverlapMode, ExecutionMode); 4] = [
    (OverlapMode::Off, ExecutionMode::Sequential),
    (OverlapMode::Off, ExecutionMode::Parallel),
    (OverlapMode::DoubleBuffer, ExecutionMode::Sequential),
    (OverlapMode::DoubleBuffer, ExecutionMode::Parallel),
];

/// The full {model × comm × GPUs × overlap × exec} matrix.
fn matrix() -> Vec<Point> {
    let mut points = Vec::new();
    for kind in [ModelKind::Gcn, ModelKind::Gat, ModelKind::Sage] {
        for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
            for gpus in [1, 2, 4] {
                for overlap in [OverlapMode::Off, OverlapMode::DoubleBuffer] {
                    for exec in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
                        points.push(Point {
                            kind,
                            comm,
                            gpus,
                            overlap,
                            exec,
                        });
                    }
                }
            }
        }
    }
    points
}

/// Each point's three session flavours: both memory strategies of a
/// training session, and an inference session.
fn flavours(p: Point, gpu_memory: usize) -> [(&'static str, HongTuConfig); 3] {
    let build = |b: hongtu::core::HongTuConfigBuilder| b.build().expect("config");
    [
        (
            "train-hybrid",
            build(p.builder(gpu_memory).memory(MemoryStrategy::Hybrid)),
        ),
        (
            "train-recompute",
            build(p.builder(gpu_memory).memory(MemoryStrategy::Recompute)),
        ),
        ("infer", build(p.builder(gpu_memory).infer())),
    ]
}

/// The cache corner: every comm mode at 2 GPUs, additive-sequential and
/// overlapped-parallel.
fn cache_points() -> Vec<Point> {
    let mut points = Vec::new();
    for comm in [CommMode::Vanilla, CommMode::P2p, CommMode::P2pRu] {
        for (overlap, exec) in [CORNERS[0], CORNERS[3]] {
            points.push(Point {
                kind: ModelKind::Gcn,
                comm,
                gpus: 2,
                overlap,
                exec,
            });
        }
    }
    points
}

/// A cache-enabled config on the tightest device `p` fits, plus `slack`.
fn cached(ds: &Dataset, p: Point, mode: Mode, slack: usize) -> HongTuConfig {
    p.builder(tight_memory(ds, p, mode, slack))
        .cache(Arc::new(FrequencyRanked))
        .mode(mode)
        .build()
        .expect("config")
}

/// Room for ~40 feature rows.
const ROWS40: usize = 40 * 6 * 4;

fn compute() -> Vec<(String, u64)> {
    let ds = dataset();
    let mut rows = Vec::new();
    for p in matrix() {
        for (tag, cfg) in flavours(p, MEM) {
            let digest = if cfg.mode == Mode::Train {
                train_digest(&ds, p.kind, cfg)
            } else {
                infer_digest(&ds, p.kind, cfg)
            };
            rows.push((format!("{}/{tag}", p.name()), digest));
        }
    }

    for (overlap, exec) in CORNERS {
        let p = Point {
            kind: ModelKind::Gcn,
            comm: CommMode::P2pRu,
            gpus: 2,
            overlap,
            exec,
        };
        let cfg = p.builder(MEM).infer().build().expect("config");
        rows.push((
            format!("{}/serve", p.name()),
            serve_digest(&ds, p.kind, cfg.clone()),
        ));
        rows.push((
            format!("{}/apply_staged", p.name()),
            delta_digest(&ds, p.kind, cfg),
        ));
        // The naive P2P schedule: the serving GPU's stall is not the
        // fetching lane's to charge, so it lands at the join — after
        // every lane's own events — under either execution mode.
        let p4 = Point { gpus: 4, ..p };
        let cfg = p4.builder(MEM).interleaved(false).build().expect("config");
        rows.push((
            format!("{}/naive-p2p/train-hybrid", p4.name()),
            train_digest(&ds, p4.kind, cfg),
        ));
    }

    for p in cache_points() {
        rows.push((
            format!("{}/cache/train-hybrid", p.name()),
            train_digest(&ds, p.kind, cached(&ds, p, Mode::Train, ROWS40)),
        ));
        rows.push((
            format!("{}/cache/serve", p.name()),
            serve_digest(&ds, p.kind, cached(&ds, p, Mode::Infer, ROWS40)),
        ));
        // A structural commit re-pins staging and re-admits the cache;
        // leave it room to grow.
        rows.push((
            format!("{}/cache/apply_staged", p.name()),
            delta_digest(&ds, p.kind, cached(&ds, p, Mode::Infer, 8 << 10)),
        ));
    }
    rows
}

/// The planner-side arithmetic cache admission and serving admission are
/// computed from — the static memory bound per tier, the staging budget,
/// the cost of one query cone and one dirty cone — plus the peaks one
/// epoch then measures, which the bound must dominate. Returns the
/// footprint digest over all of it, and the bound digest over everything
/// but the two cone costs: what no change to how cones are derived may
/// move.
fn footprint_digests(ds: &Dataset, kind: ModelKind, cfg: HongTuConfig) -> (u64, u64) {
    let train = cfg.mode == Mode::Train;
    let mut s = Session::new(ds, kind, 8, 2, CHUNKS, cfg).expect("session");
    let bound = s.static_memory_bound();
    let partition = s.plans().partition;
    let query = ServeMask::from_queries(partition, 2, &[3, 50, 51]);
    let dirty = ServeMask::from_dirty(partition, &ds.graph, 2, &[11]);
    let (mut fnv, mut sans_cones) = (Fnv::new(), Fnv::new());
    for f in [&mut fnv, &mut sans_cones] {
        f.sizes(&bound.gpu);
        f.sizes(&[bound.host]);
        f.sizes(&s.staging_budget());
    }
    fnv.sizes(&s.serve_cone_cost(&query));
    fnv.sizes(&s.serve_cone_cost(&dirty));
    if train {
        s.trainer().epoch().expect("train epoch");
    } else {
        s.infer_epoch().expect("infer epoch");
    }
    let machine = s.machine();
    for (i, &b) in bound.gpu.iter().enumerate() {
        let peak = machine.gpu_memory(i).peak();
        assert!(peak <= b, "GPU {i} peaked at {peak} B over its bound {b} B");
    }
    let host = machine.host_memory().peak();
    assert!(
        host <= bound.host,
        "host peaked at {host} B over its bound {} B",
        bound.host
    );
    for f in [&mut fnv, &mut sans_cones] {
        f.sizes(&[machine.max_gpu_peak(), host]);
    }
    (fnv.0, sans_cones.0)
}

type Table = Vec<(String, u64)>;

/// Both planner-side tables over the same rows: `(footprint, bound)`.
fn compute_footprints() -> (Table, Table) {
    let ds = dataset();
    let mut sessions = Vec::new();
    for p in matrix() {
        for (tag, cfg) in flavours(p, MEM) {
            sessions.push((format!("{}/{tag}", p.name()), p.kind, cfg));
        }
    }
    for p in cache_points() {
        for (tag, mode) in [("train-hybrid", Mode::Train), ("infer", Mode::Infer)] {
            let cfg = cached(&ds, p, mode, ROWS40);
            sessions.push((format!("{}/cache/{tag}", p.name()), p.kind, cfg));
        }
    }
    sessions
        .into_iter()
        .map(|(name, kind, cfg)| {
            let (footprint, bound) = footprint_digests(&ds, kind, cfg);
            ((name.clone(), footprint), (name, bound))
        })
        .unzip()
}

/// Holds `got` against a committed table; on any difference panics with
/// the full computed table in source form.
fn assert_table(what: &str, got: &[(String, u64)], golden: &[(&str, u64)]) {
    let same = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|((name, digest), (gname, gdigest))| name == gname && digest == gdigest);
    if same {
        return;
    }
    let mut table = String::new();
    for (name, digest) in got {
        writeln!(table, "    (\"{name}\", 0x{digest:016x}),").expect("write to String");
    }
    let moved: Vec<&str> = got
        .iter()
        .zip(golden)
        .filter(|((name, digest), (gname, gdigest))| name != gname || digest != gdigest)
        .map(|((name, _), _)| name.as_str())
        .collect();
    panic!(
        "golden {what} table mismatch: {} computed rows vs {} golden, {} differ \
         (first: {:?}).\nComputed table:\n{table}",
        got.len(),
        golden.len(),
        moved.len(),
        moved.first()
    );
}

#[test]
fn every_trace_event_and_result_bit_matches_the_golden_table() {
    assert_table("trace", &compute(), GOLDEN);
}

/// The host execution mode decides how many threads drive the lanes and
/// nothing else: every `/Sequential/` row equals its `/Parallel/` twin.
#[test]
fn sequential_rows_equal_their_parallel_twins() {
    for table in [GOLDEN, GOLDEN_FOOTPRINT, GOLDEN_BOUND] {
        for (name, digest) in table {
            if !name.contains("/Sequential/") {
                continue;
            }
            let twin = name.replace("/Sequential/", "/Parallel/");
            match table.iter().find(|(n, _)| *n == twin) {
                Some((_, d)) => assert_eq!(digest, d, "{name} differs from {twin}"),
                // The cache corner runs one execution mode per overlap mode.
                None => assert!(name.contains("/cache/"), "{name} has no twin"),
            }
        }
    }
}

#[test]
fn every_footprint_number_matches_the_golden_table() {
    let (footprint, bound) = compute_footprints();
    assert_table("footprint", &footprint, GOLDEN_FOOTPRINT);
    assert_table("bound", &bound, GOLDEN_BOUND);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("Gcn/Vanilla/1gpu/Off/Sequential/train-hybrid", 0x040f63547f40d815),
    ("Gcn/Vanilla/1gpu/Off/Sequential/train-recompute", 0xed04c47e3e598087),
    ("Gcn/Vanilla/1gpu/Off/Sequential/infer", 0x40f9ee6630c2dc8e),
    ("Gcn/Vanilla/1gpu/Off/Parallel/train-hybrid", 0x040f63547f40d815),
    ("Gcn/Vanilla/1gpu/Off/Parallel/train-recompute", 0xed04c47e3e598087),
    ("Gcn/Vanilla/1gpu/Off/Parallel/infer", 0x40f9ee6630c2dc8e),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x784ddc75ade7878d),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0xbce07a6b0f39bfb0),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x412f835da9276a5c),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x784ddc75ade7878d),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0xbce07a6b0f39bfb0),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x412f835da9276a5c),
    ("Gcn/Vanilla/2gpu/Off/Sequential/train-hybrid", 0x6b971e9e8fb33718),
    ("Gcn/Vanilla/2gpu/Off/Sequential/train-recompute", 0xf9527be0b3248d97),
    ("Gcn/Vanilla/2gpu/Off/Sequential/infer", 0x4f43f5cec25f1976),
    ("Gcn/Vanilla/2gpu/Off/Parallel/train-hybrid", 0x6b971e9e8fb33718),
    ("Gcn/Vanilla/2gpu/Off/Parallel/train-recompute", 0xf9527be0b3248d97),
    ("Gcn/Vanilla/2gpu/Off/Parallel/infer", 0x4f43f5cec25f1976),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x87cb553619ed1c34),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0x5ca138f791bb744c),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0xb4d09cd362055c09),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x87cb553619ed1c34),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0x5ca138f791bb744c),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0xb4d09cd362055c09),
    ("Gcn/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x5443cb560c46fc0e),
    ("Gcn/Vanilla/4gpu/Off/Sequential/train-recompute", 0xce6d388578db308f),
    ("Gcn/Vanilla/4gpu/Off/Sequential/infer", 0x45467b6101d91019),
    ("Gcn/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x5443cb560c46fc0e),
    ("Gcn/Vanilla/4gpu/Off/Parallel/train-recompute", 0xce6d388578db308f),
    ("Gcn/Vanilla/4gpu/Off/Parallel/infer", 0x45467b6101d91019),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x2fc144a016b040c4),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0xb8455870709fa15f),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0xedacad38f0cc8f93),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x2fc144a016b040c4),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0xb8455870709fa15f),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0xedacad38f0cc8f93),
    ("Gcn/P2p/1gpu/Off/Sequential/train-hybrid", 0x7dd5fa4ab8a1e0de),
    ("Gcn/P2p/1gpu/Off/Sequential/train-recompute", 0xc5a549773858176d),
    ("Gcn/P2p/1gpu/Off/Sequential/infer", 0x710e01b7ad782d8d),
    ("Gcn/P2p/1gpu/Off/Parallel/train-hybrid", 0x7dd5fa4ab8a1e0de),
    ("Gcn/P2p/1gpu/Off/Parallel/train-recompute", 0xc5a549773858176d),
    ("Gcn/P2p/1gpu/Off/Parallel/infer", 0x710e01b7ad782d8d),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xc6634a4fa0dd52a1),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x4362c2153be14d33),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/infer", 0x637d510e0858377c),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xc6634a4fa0dd52a1),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x4362c2153be14d33),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/infer", 0x637d510e0858377c),
    ("Gcn/P2p/2gpu/Off/Sequential/train-hybrid", 0xf26b6e422b5ec204),
    ("Gcn/P2p/2gpu/Off/Sequential/train-recompute", 0x93d0d8e2f42254fa),
    ("Gcn/P2p/2gpu/Off/Sequential/infer", 0x7da52a2ee8dcdd40),
    ("Gcn/P2p/2gpu/Off/Parallel/train-hybrid", 0xf26b6e422b5ec204),
    ("Gcn/P2p/2gpu/Off/Parallel/train-recompute", 0x93d0d8e2f42254fa),
    ("Gcn/P2p/2gpu/Off/Parallel/infer", 0x7da52a2ee8dcdd40),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x5e7ca2869e42b003),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0xb041ac6e0c8cf7e8),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x7f10e86886c7d4ef),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x5e7ca2869e42b003),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0xb041ac6e0c8cf7e8),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x7f10e86886c7d4ef),
    ("Gcn/P2p/4gpu/Off/Sequential/train-hybrid", 0x92060e197c5920ce),
    ("Gcn/P2p/4gpu/Off/Sequential/train-recompute", 0x63964d7486f214cc),
    ("Gcn/P2p/4gpu/Off/Sequential/infer", 0x0713eabe4ab487b7),
    ("Gcn/P2p/4gpu/Off/Parallel/train-hybrid", 0x92060e197c5920ce),
    ("Gcn/P2p/4gpu/Off/Parallel/train-recompute", 0x63964d7486f214cc),
    ("Gcn/P2p/4gpu/Off/Parallel/infer", 0x0713eabe4ab487b7),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x1f892f89367730e7),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0x96614e81887cd790),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/infer", 0x7a59170ab1d49858),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x1f892f89367730e7),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0x96614e81887cd790),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/infer", 0x7a59170ab1d49858),
    ("Gcn/P2pRu/1gpu/Off/Sequential/train-hybrid", 0xd9a6c2695ae588b4),
    ("Gcn/P2pRu/1gpu/Off/Sequential/train-recompute", 0x8b6b49fbd79e2b89),
    ("Gcn/P2pRu/1gpu/Off/Sequential/infer", 0x147e13d220218e89),
    ("Gcn/P2pRu/1gpu/Off/Parallel/train-hybrid", 0xd9a6c2695ae588b4),
    ("Gcn/P2pRu/1gpu/Off/Parallel/train-recompute", 0x8b6b49fbd79e2b89),
    ("Gcn/P2pRu/1gpu/Off/Parallel/infer", 0x147e13d220218e89),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xa96da4ca5227e3eb),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x20e861f82f31b3a9),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0x9593096259629b66),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xa96da4ca5227e3eb),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x20e861f82f31b3a9),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0x9593096259629b66),
    ("Gcn/P2pRu/2gpu/Off/Sequential/train-hybrid", 0x0dad88f6a40b9b36),
    ("Gcn/P2pRu/2gpu/Off/Sequential/train-recompute", 0xd6b0d649cf4214c1),
    ("Gcn/P2pRu/2gpu/Off/Sequential/infer", 0xf2e061cd2861a09d),
    ("Gcn/P2pRu/2gpu/Off/Parallel/train-hybrid", 0x0dad88f6a40b9b36),
    ("Gcn/P2pRu/2gpu/Off/Parallel/train-recompute", 0xd6b0d649cf4214c1),
    ("Gcn/P2pRu/2gpu/Off/Parallel/infer", 0xf2e061cd2861a09d),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xf5376897bc509353),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0x2ec20b6f05a8b63c),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0x0310ed9118ef6cf4),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xf5376897bc509353),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0x2ec20b6f05a8b63c),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0x0310ed9118ef6cf4),
    ("Gcn/P2pRu/4gpu/Off/Sequential/train-hybrid", 0xbb605d8f85ce0883),
    ("Gcn/P2pRu/4gpu/Off/Sequential/train-recompute", 0x155a9bbbd9cb43e2),
    ("Gcn/P2pRu/4gpu/Off/Sequential/infer", 0x0618e76bb997f668),
    ("Gcn/P2pRu/4gpu/Off/Parallel/train-hybrid", 0xbb605d8f85ce0883),
    ("Gcn/P2pRu/4gpu/Off/Parallel/train-recompute", 0x155a9bbbd9cb43e2),
    ("Gcn/P2pRu/4gpu/Off/Parallel/infer", 0x0618e76bb997f668),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x3a1c58e301188b6a),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0x6eba6e14fc9c1dda),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0xf1c06cfcc8353c9f),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x3a1c58e301188b6a),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0x6eba6e14fc9c1dda),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0xf1c06cfcc8353c9f),
    ("Gat/Vanilla/1gpu/Off/Sequential/train-hybrid", 0x8adf2c2991934d0f),
    ("Gat/Vanilla/1gpu/Off/Sequential/train-recompute", 0x8adf2c2991934d0f),
    ("Gat/Vanilla/1gpu/Off/Sequential/infer", 0x32a9caba485ae9c1),
    ("Gat/Vanilla/1gpu/Off/Parallel/train-hybrid", 0x8adf2c2991934d0f),
    ("Gat/Vanilla/1gpu/Off/Parallel/train-recompute", 0x8adf2c2991934d0f),
    ("Gat/Vanilla/1gpu/Off/Parallel/infer", 0x32a9caba485ae9c1),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x56f7199eb5ba9577),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0x56f7199eb5ba9577),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x2c4f194740668f3e),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x56f7199eb5ba9577),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0x56f7199eb5ba9577),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x2c4f194740668f3e),
    ("Gat/Vanilla/2gpu/Off/Sequential/train-hybrid", 0x1cbf055f2f9f6560),
    ("Gat/Vanilla/2gpu/Off/Sequential/train-recompute", 0x1cbf055f2f9f6560),
    ("Gat/Vanilla/2gpu/Off/Sequential/infer", 0x06c26e9fd5f6b59c),
    ("Gat/Vanilla/2gpu/Off/Parallel/train-hybrid", 0x1cbf055f2f9f6560),
    ("Gat/Vanilla/2gpu/Off/Parallel/train-recompute", 0x1cbf055f2f9f6560),
    ("Gat/Vanilla/2gpu/Off/Parallel/infer", 0x06c26e9fd5f6b59c),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x80e79e98f31e40cc),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0x80e79e98f31e40cc),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0xa09eb154f2ff6025),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x80e79e98f31e40cc),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0x80e79e98f31e40cc),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0xa09eb154f2ff6025),
    ("Gat/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x03545eaaf927d2b8),
    ("Gat/Vanilla/4gpu/Off/Sequential/train-recompute", 0x03545eaaf927d2b8),
    ("Gat/Vanilla/4gpu/Off/Sequential/infer", 0xc255709dce246208),
    ("Gat/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x03545eaaf927d2b8),
    ("Gat/Vanilla/4gpu/Off/Parallel/train-recompute", 0x03545eaaf927d2b8),
    ("Gat/Vanilla/4gpu/Off/Parallel/infer", 0xc255709dce246208),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x70fa5f6cea047784),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0x70fa5f6cea047784),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0x3a102dab5aa55f4a),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x70fa5f6cea047784),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0x70fa5f6cea047784),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0x3a102dab5aa55f4a),
    ("Gat/P2p/1gpu/Off/Sequential/train-hybrid", 0x3f73c20d88e4e0ce),
    ("Gat/P2p/1gpu/Off/Sequential/train-recompute", 0x3f73c20d88e4e0ce),
    ("Gat/P2p/1gpu/Off/Sequential/infer", 0x5148c492570249a4),
    ("Gat/P2p/1gpu/Off/Parallel/train-hybrid", 0x3f73c20d88e4e0ce),
    ("Gat/P2p/1gpu/Off/Parallel/train-recompute", 0x3f73c20d88e4e0ce),
    ("Gat/P2p/1gpu/Off/Parallel/infer", 0x5148c492570249a4),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x478b0f7adeede7c6),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x478b0f7adeede7c6),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/infer", 0x9e531ff815783497),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x478b0f7adeede7c6),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x478b0f7adeede7c6),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/infer", 0x9e531ff815783497),
    ("Gat/P2p/2gpu/Off/Sequential/train-hybrid", 0x8f79abda17830e70),
    ("Gat/P2p/2gpu/Off/Sequential/train-recompute", 0x8f79abda17830e70),
    ("Gat/P2p/2gpu/Off/Sequential/infer", 0xd4e56a84ff9b8669),
    ("Gat/P2p/2gpu/Off/Parallel/train-hybrid", 0x8f79abda17830e70),
    ("Gat/P2p/2gpu/Off/Parallel/train-recompute", 0x8f79abda17830e70),
    ("Gat/P2p/2gpu/Off/Parallel/infer", 0xd4e56a84ff9b8669),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xdf69af5714ba7d55),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0xdf69af5714ba7d55),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/infer", 0xfb3edb4b97c5082f),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xdf69af5714ba7d55),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0xdf69af5714ba7d55),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/infer", 0xfb3edb4b97c5082f),
    ("Gat/P2p/4gpu/Off/Sequential/train-hybrid", 0x3e1c4fbf07505a03),
    ("Gat/P2p/4gpu/Off/Sequential/train-recompute", 0x3e1c4fbf07505a03),
    ("Gat/P2p/4gpu/Off/Sequential/infer", 0x8056ba70276a4edb),
    ("Gat/P2p/4gpu/Off/Parallel/train-hybrid", 0x3e1c4fbf07505a03),
    ("Gat/P2p/4gpu/Off/Parallel/train-recompute", 0x3e1c4fbf07505a03),
    ("Gat/P2p/4gpu/Off/Parallel/infer", 0x8056ba70276a4edb),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x0ab902e0d09a79f5),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0x0ab902e0d09a79f5),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/infer", 0x2e050944e74c161e),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x0ab902e0d09a79f5),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0x0ab902e0d09a79f5),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/infer", 0x2e050944e74c161e),
    ("Gat/P2pRu/1gpu/Off/Sequential/train-hybrid", 0x9e28ca931b0fe24c),
    ("Gat/P2pRu/1gpu/Off/Sequential/train-recompute", 0x9e28ca931b0fe24c),
    ("Gat/P2pRu/1gpu/Off/Sequential/infer", 0x781cd2089e4c33d3),
    ("Gat/P2pRu/1gpu/Off/Parallel/train-hybrid", 0x9e28ca931b0fe24c),
    ("Gat/P2pRu/1gpu/Off/Parallel/train-recompute", 0x9e28ca931b0fe24c),
    ("Gat/P2pRu/1gpu/Off/Parallel/infer", 0x781cd2089e4c33d3),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xb7d784ab1b25b011),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0xb7d784ab1b25b011),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0xa5e2ae7f7fd7a18b),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xb7d784ab1b25b011),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0xb7d784ab1b25b011),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0xa5e2ae7f7fd7a18b),
    ("Gat/P2pRu/2gpu/Off/Sequential/train-hybrid", 0xfe6668f47c701fdf),
    ("Gat/P2pRu/2gpu/Off/Sequential/train-recompute", 0xfe6668f47c701fdf),
    ("Gat/P2pRu/2gpu/Off/Sequential/infer", 0x673ffd2a737920b9),
    ("Gat/P2pRu/2gpu/Off/Parallel/train-hybrid", 0xfe6668f47c701fdf),
    ("Gat/P2pRu/2gpu/Off/Parallel/train-recompute", 0xfe6668f47c701fdf),
    ("Gat/P2pRu/2gpu/Off/Parallel/infer", 0x673ffd2a737920b9),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xe5efb884b647f265),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0xe5efb884b647f265),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0x2e3f2c07f4cbaba7),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xe5efb884b647f265),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0xe5efb884b647f265),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0x2e3f2c07f4cbaba7),
    ("Gat/P2pRu/4gpu/Off/Sequential/train-hybrid", 0xa7d5682c2554a019),
    ("Gat/P2pRu/4gpu/Off/Sequential/train-recompute", 0xa7d5682c2554a019),
    ("Gat/P2pRu/4gpu/Off/Sequential/infer", 0xf56c41b417fe263a),
    ("Gat/P2pRu/4gpu/Off/Parallel/train-hybrid", 0xa7d5682c2554a019),
    ("Gat/P2pRu/4gpu/Off/Parallel/train-recompute", 0xa7d5682c2554a019),
    ("Gat/P2pRu/4gpu/Off/Parallel/infer", 0xf56c41b417fe263a),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x7b69de97e6d55b11),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0x7b69de97e6d55b11),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0x23e7e5feeded37f8),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x7b69de97e6d55b11),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0x7b69de97e6d55b11),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0x23e7e5feeded37f8),
    ("Sage/Vanilla/1gpu/Off/Sequential/train-hybrid", 0x632c9a54ffd7aa03),
    ("Sage/Vanilla/1gpu/Off/Sequential/train-recompute", 0x1f3260b6a866fa29),
    ("Sage/Vanilla/1gpu/Off/Sequential/infer", 0xae9fa19dd0ee0e10),
    ("Sage/Vanilla/1gpu/Off/Parallel/train-hybrid", 0x632c9a54ffd7aa03),
    ("Sage/Vanilla/1gpu/Off/Parallel/train-recompute", 0x1f3260b6a866fa29),
    ("Sage/Vanilla/1gpu/Off/Parallel/infer", 0xae9fa19dd0ee0e10),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xc4c27475b7cc86ab),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0xa1fd3ff6f63abc57),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x2d5773df64df6152),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xc4c27475b7cc86ab),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0xa1fd3ff6f63abc57),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x2d5773df64df6152),
    ("Sage/Vanilla/2gpu/Off/Sequential/train-hybrid", 0xcb82a1f4d3ea526c),
    ("Sage/Vanilla/2gpu/Off/Sequential/train-recompute", 0xa704c7aa3a5ff2f4),
    ("Sage/Vanilla/2gpu/Off/Sequential/infer", 0xf2e40098a66c23ac),
    ("Sage/Vanilla/2gpu/Off/Parallel/train-hybrid", 0xcb82a1f4d3ea526c),
    ("Sage/Vanilla/2gpu/Off/Parallel/train-recompute", 0xa704c7aa3a5ff2f4),
    ("Sage/Vanilla/2gpu/Off/Parallel/infer", 0xf2e40098a66c23ac),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xbb4667afdadddd04),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0x0bc140c8649313b1),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0xd42822130803b519),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xbb4667afdadddd04),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0x0bc140c8649313b1),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0xd42822130803b519),
    ("Sage/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x6209ff9b52bbf941),
    ("Sage/Vanilla/4gpu/Off/Sequential/train-recompute", 0x6f39bae615ff21bc),
    ("Sage/Vanilla/4gpu/Off/Sequential/infer", 0x12e7ad04a29e1d04),
    ("Sage/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x6209ff9b52bbf941),
    ("Sage/Vanilla/4gpu/Off/Parallel/train-recompute", 0x6f39bae615ff21bc),
    ("Sage/Vanilla/4gpu/Off/Parallel/infer", 0x12e7ad04a29e1d04),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x6502f514a5bfb276),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0xcee51e9470769bd9),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0x9493056324c2d329),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x6502f514a5bfb276),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0xcee51e9470769bd9),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0x9493056324c2d329),
    ("Sage/P2p/1gpu/Off/Sequential/train-hybrid", 0x3d28abca4a9bd9f2),
    ("Sage/P2p/1gpu/Off/Sequential/train-recompute", 0xe8744c0fc373392f),
    ("Sage/P2p/1gpu/Off/Sequential/infer", 0x4483fcba394c00ce),
    ("Sage/P2p/1gpu/Off/Parallel/train-hybrid", 0x3d28abca4a9bd9f2),
    ("Sage/P2p/1gpu/Off/Parallel/train-recompute", 0xe8744c0fc373392f),
    ("Sage/P2p/1gpu/Off/Parallel/infer", 0x4483fcba394c00ce),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x0138654655d4c940),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x408d590de6ced8cc),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/infer", 0xf56fba6abfdaa51c),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x0138654655d4c940),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x408d590de6ced8cc),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/infer", 0xf56fba6abfdaa51c),
    ("Sage/P2p/2gpu/Off/Sequential/train-hybrid", 0x587d9c138a59343b),
    ("Sage/P2p/2gpu/Off/Sequential/train-recompute", 0x626be8b38c63aad7),
    ("Sage/P2p/2gpu/Off/Sequential/infer", 0xd9e2bb7d256e8e69),
    ("Sage/P2p/2gpu/Off/Parallel/train-hybrid", 0x587d9c138a59343b),
    ("Sage/P2p/2gpu/Off/Parallel/train-recompute", 0x626be8b38c63aad7),
    ("Sage/P2p/2gpu/Off/Parallel/infer", 0xd9e2bb7d256e8e69),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x2be05df7eac58bf7),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0x6c264ed30470fab3),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x52fb8534535f3964),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x2be05df7eac58bf7),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0x6c264ed30470fab3),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x52fb8534535f3964),
    ("Sage/P2p/4gpu/Off/Sequential/train-hybrid", 0x6dae4987e3685cf3),
    ("Sage/P2p/4gpu/Off/Sequential/train-recompute", 0xee1be32afea8b460),
    ("Sage/P2p/4gpu/Off/Sequential/infer", 0x325b12b3fc9dd62a),
    ("Sage/P2p/4gpu/Off/Parallel/train-hybrid", 0x6dae4987e3685cf3),
    ("Sage/P2p/4gpu/Off/Parallel/train-recompute", 0xee1be32afea8b460),
    ("Sage/P2p/4gpu/Off/Parallel/infer", 0x325b12b3fc9dd62a),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xcd0df0e7ee107d71),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0xed4272da70e88217),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/infer", 0x23e05472658862a9),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xcd0df0e7ee107d71),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0xed4272da70e88217),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/infer", 0x23e05472658862a9),
    ("Sage/P2pRu/1gpu/Off/Sequential/train-hybrid", 0x61e010245e87011c),
    ("Sage/P2pRu/1gpu/Off/Sequential/train-recompute", 0x829a2f22915d0569),
    ("Sage/P2pRu/1gpu/Off/Sequential/infer", 0xa798c52b6df7400b),
    ("Sage/P2pRu/1gpu/Off/Parallel/train-hybrid", 0x61e010245e87011c),
    ("Sage/P2pRu/1gpu/Off/Parallel/train-recompute", 0x829a2f22915d0569),
    ("Sage/P2pRu/1gpu/Off/Parallel/infer", 0xa798c52b6df7400b),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x499c08cc6b5f57e5),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x148163ad5819553b),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0xeb78a7c242a2541f),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x499c08cc6b5f57e5),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x148163ad5819553b),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0xeb78a7c242a2541f),
    ("Sage/P2pRu/2gpu/Off/Sequential/train-hybrid", 0xb0ecde2f29314263),
    ("Sage/P2pRu/2gpu/Off/Sequential/train-recompute", 0x40f733296dbd5215),
    ("Sage/P2pRu/2gpu/Off/Sequential/infer", 0x58b76b1ac8a6e14d),
    ("Sage/P2pRu/2gpu/Off/Parallel/train-hybrid", 0xb0ecde2f29314263),
    ("Sage/P2pRu/2gpu/Off/Parallel/train-recompute", 0x40f733296dbd5215),
    ("Sage/P2pRu/2gpu/Off/Parallel/infer", 0x58b76b1ac8a6e14d),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xfa34c5ae245deaa2),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0xeddfae05dd65f99a),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0xd8422f287a359fd6),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xfa34c5ae245deaa2),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0xeddfae05dd65f99a),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0xd8422f287a359fd6),
    ("Sage/P2pRu/4gpu/Off/Sequential/train-hybrid", 0x65160ff0fb0bb48b),
    ("Sage/P2pRu/4gpu/Off/Sequential/train-recompute", 0x5dffdb5b0423ec28),
    ("Sage/P2pRu/4gpu/Off/Sequential/infer", 0xaa6320d73f458029),
    ("Sage/P2pRu/4gpu/Off/Parallel/train-hybrid", 0x65160ff0fb0bb48b),
    ("Sage/P2pRu/4gpu/Off/Parallel/train-recompute", 0x5dffdb5b0423ec28),
    ("Sage/P2pRu/4gpu/Off/Parallel/infer", 0xaa6320d73f458029),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xf5f6a0d4873fb49a),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0x385ddb995f77b4a4),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0x86866b9e88f230d1),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xf5f6a0d4873fb49a),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0x385ddb995f77b4a4),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0x86866b9e88f230d1),
    ("Gcn/P2pRu/2gpu/Off/Sequential/serve", 0x0b6a64fa5c347756),
    ("Gcn/P2pRu/2gpu/Off/Sequential/apply_staged", 0xd9ec820862cd530f),
    ("Gcn/P2pRu/4gpu/Off/Sequential/naive-p2p/train-hybrid", 0x675b28ce221f7492),
    ("Gcn/P2pRu/2gpu/Off/Parallel/serve", 0x0b6a64fa5c347756),
    ("Gcn/P2pRu/2gpu/Off/Parallel/apply_staged", 0xd9ec820862cd530f),
    ("Gcn/P2pRu/4gpu/Off/Parallel/naive-p2p/train-hybrid", 0x675b28ce221f7492),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/serve", 0x821c2f7fe2f0cc33),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/apply_staged", 0xfb73eda5f1d68b10),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/naive-p2p/train-hybrid", 0x2ec22ac429a2548a),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/serve", 0x821c2f7fe2f0cc33),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/apply_staged", 0xfb73eda5f1d68b10),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/naive-p2p/train-hybrid", 0x2ec22ac429a2548a),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/train-hybrid", 0x489a3a5410ca7657),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/serve", 0x6b59fbb42ff19ded),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/apply_staged", 0x11d73f415c0ae0a8),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0xa91cbe696bbcd549),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/serve", 0xc8787d3982b8191b),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/apply_staged", 0xb92f8b110d6315a5),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/train-hybrid", 0xe276bdd6a2e6b40c),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/serve", 0x53fb3afdde85965f),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/apply_staged", 0x03ed0a7017d28d98),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x15fd5cf29a4ec75b),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/serve", 0x3187bc80a5a49879),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/apply_staged", 0xe78614cbbfee3aca),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/train-hybrid", 0x9de3eef791d0b60f),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/serve", 0x32bafb60eec13b0c),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/apply_staged", 0x66727e44fecbda4d),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x0e74b48e66026ef0),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/serve", 0x1ea31438c7aa9863),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/apply_staged", 0x307d4b922812f03f),
];

/// Same contract as [`GOLDEN`]. Generated at the commit before the
/// footprint arithmetic was folded into one per-step value, and
/// regenerated twice since, each time for the two cone costs every row
/// folds in: when cones became row-granular (a cone step is priced by its
/// slice, not its chunk), and when cones were packed into runs (a step is
/// priced by its run's packed chunk). Every other number of every row is
/// pinned, unedited, by [`GOLDEN_BOUND`].
#[rustfmt::skip]
const GOLDEN_FOOTPRINT: &[(&str, u64)] = &[
    ("Gcn/Vanilla/1gpu/Off/Sequential/train-hybrid", 0x086f91001358b44c),
    ("Gcn/Vanilla/1gpu/Off/Sequential/train-recompute", 0xb3b1e18df668c190),
    ("Gcn/Vanilla/1gpu/Off/Sequential/infer", 0x91a7411493809320),
    ("Gcn/Vanilla/1gpu/Off/Parallel/train-hybrid", 0x086f91001358b44c),
    ("Gcn/Vanilla/1gpu/Off/Parallel/train-recompute", 0xb3b1e18df668c190),
    ("Gcn/Vanilla/1gpu/Off/Parallel/infer", 0x91a7411493809320),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x7fdb60f7bf801a0f),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0xb88e69745df377ab),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x03bb1726c362e773),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x7fdb60f7bf801a0f),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0xb88e69745df377ab),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x03bb1726c362e773),
    ("Gcn/Vanilla/2gpu/Off/Sequential/train-hybrid", 0xbc3ddedddce4abb7),
    ("Gcn/Vanilla/2gpu/Off/Sequential/train-recompute", 0xdaa44c7e9d5758c7),
    ("Gcn/Vanilla/2gpu/Off/Sequential/infer", 0x7bd39cec772af1dd),
    ("Gcn/Vanilla/2gpu/Off/Parallel/train-hybrid", 0xbc3ddedddce4abb7),
    ("Gcn/Vanilla/2gpu/Off/Parallel/train-recompute", 0xdaa44c7e9d5758c7),
    ("Gcn/Vanilla/2gpu/Off/Parallel/infer", 0x7bd39cec772af1dd),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x192092e9bed5049e),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0x61a7410a8f04d57e),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0xa88beddcb7683ea0),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x192092e9bed5049e),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0x61a7410a8f04d57e),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0xa88beddcb7683ea0),
    ("Gcn/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x486123b837275306),
    ("Gcn/Vanilla/4gpu/Off/Sequential/train-recompute", 0x72da0465f2e90f6a),
    ("Gcn/Vanilla/4gpu/Off/Sequential/infer", 0x8b35eef7a7d92a21),
    ("Gcn/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x486123b837275306),
    ("Gcn/Vanilla/4gpu/Off/Parallel/train-recompute", 0x72da0465f2e90f6a),
    ("Gcn/Vanilla/4gpu/Off/Parallel/infer", 0x8b35eef7a7d92a21),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xc417a2e9091662d4),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0x22fd0c3559f811a8),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0xeb2eae425df3c70f),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xc417a2e9091662d4),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0x22fd0c3559f811a8),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0xeb2eae425df3c70f),
    ("Gcn/P2p/1gpu/Off/Sequential/train-hybrid", 0x086f91001358b44c),
    ("Gcn/P2p/1gpu/Off/Sequential/train-recompute", 0xb3b1e18df668c190),
    ("Gcn/P2p/1gpu/Off/Sequential/infer", 0x91a7411493809320),
    ("Gcn/P2p/1gpu/Off/Parallel/train-hybrid", 0x086f91001358b44c),
    ("Gcn/P2p/1gpu/Off/Parallel/train-recompute", 0xb3b1e18df668c190),
    ("Gcn/P2p/1gpu/Off/Parallel/infer", 0x91a7411493809320),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x4564527d6acf1495),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x1a1d8f2b079245b9),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/infer", 0x4fb7d32ee6fea3c9),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x4564527d6acf1495),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x1a1d8f2b079245b9),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/infer", 0x4fb7d32ee6fea3c9),
    ("Gcn/P2p/2gpu/Off/Sequential/train-hybrid", 0x296d911606f58e09),
    ("Gcn/P2p/2gpu/Off/Sequential/train-recompute", 0xfcdbf8c0bcc188e9),
    ("Gcn/P2p/2gpu/Off/Sequential/infer", 0x4e83b844d84ff623),
    ("Gcn/P2p/2gpu/Off/Parallel/train-hybrid", 0x296d911606f58e09),
    ("Gcn/P2p/2gpu/Off/Parallel/train-recompute", 0xfcdbf8c0bcc188e9),
    ("Gcn/P2p/2gpu/Off/Parallel/infer", 0x4e83b844d84ff623),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x298a1ab6d3e22b9a),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0x00e3a380286c9d1a),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x0db0d471c9c32964),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x298a1ab6d3e22b9a),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0x00e3a380286c9d1a),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x0db0d471c9c32964),
    ("Gcn/P2p/4gpu/Off/Sequential/train-hybrid", 0x3565fd231655f3c6),
    ("Gcn/P2p/4gpu/Off/Sequential/train-recompute", 0x9380c5f30d7a4fd2),
    ("Gcn/P2p/4gpu/Off/Sequential/infer", 0x3d469ca19eb7d1f8),
    ("Gcn/P2p/4gpu/Off/Parallel/train-hybrid", 0x3565fd231655f3c6),
    ("Gcn/P2p/4gpu/Off/Parallel/train-recompute", 0x9380c5f30d7a4fd2),
    ("Gcn/P2p/4gpu/Off/Parallel/infer", 0x3d469ca19eb7d1f8),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xb8311498a2aa1a16),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0xf044e1c7b2f3900a),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/infer", 0xa037f098c2f2d63b),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xb8311498a2aa1a16),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0xf044e1c7b2f3900a),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/infer", 0xa037f098c2f2d63b),
    ("Gcn/P2pRu/1gpu/Off/Sequential/train-hybrid", 0xae8ba0d38299f6ec),
    ("Gcn/P2pRu/1gpu/Off/Sequential/train-recompute", 0x4419a9120d113ed0),
    ("Gcn/P2pRu/1gpu/Off/Sequential/infer", 0x6e39156807e56c20),
    ("Gcn/P2pRu/1gpu/Off/Parallel/train-hybrid", 0xae8ba0d38299f6ec),
    ("Gcn/P2pRu/1gpu/Off/Parallel/train-recompute", 0x4419a9120d113ed0),
    ("Gcn/P2pRu/1gpu/Off/Parallel/infer", 0x6e39156807e56c20),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x4564527d6acf1495),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x1a1d8f2b079245b9),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0x4fb7d32ee6fea3c9),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x4564527d6acf1495),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x1a1d8f2b079245b9),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0x4fb7d32ee6fea3c9),
    ("Gcn/P2pRu/2gpu/Off/Sequential/train-hybrid", 0xce8530a9aa4a1ae9),
    ("Gcn/P2pRu/2gpu/Off/Sequential/train-recompute", 0x90d4624be66476a1),
    ("Gcn/P2pRu/2gpu/Off/Sequential/infer", 0xd7ebaabcacd0ebdf),
    ("Gcn/P2pRu/2gpu/Off/Parallel/train-hybrid", 0xce8530a9aa4a1ae9),
    ("Gcn/P2pRu/2gpu/Off/Parallel/train-recompute", 0x90d4624be66476a1),
    ("Gcn/P2pRu/2gpu/Off/Parallel/infer", 0xd7ebaabcacd0ebdf),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xd758ae26c6e38180),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0x9538e5abdab8ee58),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0x8fd78036b545a532),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xd758ae26c6e38180),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0x9538e5abdab8ee58),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0x8fd78036b545a532),
    ("Gcn/P2pRu/4gpu/Off/Sequential/train-hybrid", 0xadb6ea5a180ddec6),
    ("Gcn/P2pRu/4gpu/Off/Sequential/train-recompute", 0x7b617f4f1ecd91fa),
    ("Gcn/P2pRu/4gpu/Off/Sequential/infer", 0x14334cdb0b00b36a),
    ("Gcn/P2pRu/4gpu/Off/Parallel/train-hybrid", 0xadb6ea5a180ddec6),
    ("Gcn/P2pRu/4gpu/Off/Parallel/train-recompute", 0x7b617f4f1ecd91fa),
    ("Gcn/P2pRu/4gpu/Off/Parallel/infer", 0x14334cdb0b00b36a),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x39b68e6d981f8a13),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0x1341d88e8cfc2467),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0xd32a4d5dd099f2e6),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x39b68e6d981f8a13),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0x1341d88e8cfc2467),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0xd32a4d5dd099f2e6),
    ("Gat/Vanilla/1gpu/Off/Sequential/train-hybrid", 0x494725cfddd1dc82),
    ("Gat/Vanilla/1gpu/Off/Sequential/train-recompute", 0x494725cfddd1dc82),
    ("Gat/Vanilla/1gpu/Off/Sequential/infer", 0x0b26f1de8c4176b6),
    ("Gat/Vanilla/1gpu/Off/Parallel/train-hybrid", 0x494725cfddd1dc82),
    ("Gat/Vanilla/1gpu/Off/Parallel/train-recompute", 0x494725cfddd1dc82),
    ("Gat/Vanilla/1gpu/Off/Parallel/infer", 0x0b26f1de8c4176b6),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x6c3ac00e19320fc3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0x6c3ac00e19320fc3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x65a4978004a619df),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x6c3ac00e19320fc3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0x6c3ac00e19320fc3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x65a4978004a619df),
    ("Gat/Vanilla/2gpu/Off/Sequential/train-hybrid", 0xffdaaaef42396af3),
    ("Gat/Vanilla/2gpu/Off/Sequential/train-recompute", 0xffdaaaef42396af3),
    ("Gat/Vanilla/2gpu/Off/Sequential/infer", 0xe2736e02ee33fb0e),
    ("Gat/Vanilla/2gpu/Off/Parallel/train-hybrid", 0xffdaaaef42396af3),
    ("Gat/Vanilla/2gpu/Off/Parallel/train-recompute", 0xffdaaaef42396af3),
    ("Gat/Vanilla/2gpu/Off/Parallel/infer", 0xe2736e02ee33fb0e),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x274c7b83b40c3cc8),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0x274c7b83b40c3cc8),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0x5d027db470ffc377),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x274c7b83b40c3cc8),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0x274c7b83b40c3cc8),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0x5d027db470ffc377),
    ("Gat/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x97596d695e529840),
    ("Gat/Vanilla/4gpu/Off/Sequential/train-recompute", 0x97596d695e529840),
    ("Gat/Vanilla/4gpu/Off/Sequential/infer", 0x42994c32ce4c848f),
    ("Gat/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x97596d695e529840),
    ("Gat/Vanilla/4gpu/Off/Parallel/train-recompute", 0x97596d695e529840),
    ("Gat/Vanilla/4gpu/Off/Parallel/infer", 0x42994c32ce4c848f),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x86f76e51982d9fb7),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0x86f76e51982d9fb7),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0xdcbff2a07e8fc9e0),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x86f76e51982d9fb7),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0x86f76e51982d9fb7),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0xdcbff2a07e8fc9e0),
    ("Gat/P2p/1gpu/Off/Sequential/train-hybrid", 0x494725cfddd1dc82),
    ("Gat/P2p/1gpu/Off/Sequential/train-recompute", 0x494725cfddd1dc82),
    ("Gat/P2p/1gpu/Off/Sequential/infer", 0x0b26f1de8c4176b6),
    ("Gat/P2p/1gpu/Off/Parallel/train-hybrid", 0x494725cfddd1dc82),
    ("Gat/P2p/1gpu/Off/Parallel/train-recompute", 0x494725cfddd1dc82),
    ("Gat/P2p/1gpu/Off/Parallel/infer", 0x0b26f1de8c4176b6),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x99326c8335b96970),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x99326c8335b96970),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/infer", 0x58b178d3b7818c9c),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x99326c8335b96970),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x99326c8335b96970),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/infer", 0x58b178d3b7818c9c),
    ("Gat/P2p/2gpu/Off/Sequential/train-hybrid", 0x2856ddc2e8b33aa9),
    ("Gat/P2p/2gpu/Off/Sequential/train-recompute", 0x2856ddc2e8b33aa9),
    ("Gat/P2p/2gpu/Off/Sequential/infer", 0x1938312e5afa20ea),
    ("Gat/P2p/2gpu/Off/Parallel/train-hybrid", 0x2856ddc2e8b33aa9),
    ("Gat/P2p/2gpu/Off/Parallel/train-recompute", 0x2856ddc2e8b33aa9),
    ("Gat/P2p/2gpu/Off/Parallel/infer", 0x1938312e5afa20ea),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x5a89a581ae73e451),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0x5a89a581ae73e451),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x19a53feeffefbf08),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x5a89a581ae73e451),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0x5a89a581ae73e451),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x19a53feeffefbf08),
    ("Gat/P2p/4gpu/Off/Sequential/train-hybrid", 0x5343c87ac25112fb),
    ("Gat/P2p/4gpu/Off/Sequential/train-recompute", 0x5343c87ac25112fb),
    ("Gat/P2p/4gpu/Off/Sequential/infer", 0x5955f5c5c10c979e),
    ("Gat/P2p/4gpu/Off/Parallel/train-hybrid", 0x5343c87ac25112fb),
    ("Gat/P2p/4gpu/Off/Parallel/train-recompute", 0x5343c87ac25112fb),
    ("Gat/P2p/4gpu/Off/Parallel/infer", 0x5955f5c5c10c979e),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x44993d63e7740f67),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0x44993d63e7740f67),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/infer", 0xf4a9e70111cbbd70),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x44993d63e7740f67),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0x44993d63e7740f67),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/infer", 0xf4a9e70111cbbd70),
    ("Gat/P2pRu/1gpu/Off/Sequential/train-hybrid", 0x5cff7f4dbc340d42),
    ("Gat/P2pRu/1gpu/Off/Sequential/train-recompute", 0x5cff7f4dbc340d42),
    ("Gat/P2pRu/1gpu/Off/Sequential/infer", 0x2aa46d3fb6d3e736),
    ("Gat/P2pRu/1gpu/Off/Parallel/train-hybrid", 0x5cff7f4dbc340d42),
    ("Gat/P2pRu/1gpu/Off/Parallel/train-recompute", 0x5cff7f4dbc340d42),
    ("Gat/P2pRu/1gpu/Off/Parallel/infer", 0x2aa46d3fb6d3e736),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x99326c8335b96970),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x99326c8335b96970),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0x58b178d3b7818c9c),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x99326c8335b96970),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x99326c8335b96970),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0x58b178d3b7818c9c),
    ("Gat/P2pRu/2gpu/Off/Sequential/train-hybrid", 0x0ed25ac6d7454421),
    ("Gat/P2pRu/2gpu/Off/Sequential/train-recompute", 0x0ed25ac6d7454421),
    ("Gat/P2pRu/2gpu/Off/Sequential/infer", 0xaa6d4ed3c222bd82),
    ("Gat/P2pRu/2gpu/Off/Parallel/train-hybrid", 0x0ed25ac6d7454421),
    ("Gat/P2pRu/2gpu/Off/Parallel/train-recompute", 0x0ed25ac6d7454421),
    ("Gat/P2pRu/2gpu/Off/Parallel/infer", 0xaa6d4ed3c222bd82),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xfb2bd86eb46939b4),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0xfb2bd86eb46939b4),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0x3a94280fb79d5857),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xfb2bd86eb46939b4),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0xfb2bd86eb46939b4),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0x3a94280fb79d5857),
    ("Gat/P2pRu/4gpu/Off/Sequential/train-hybrid", 0x54860c2f7c102123),
    ("Gat/P2pRu/4gpu/Off/Sequential/train-recompute", 0x54860c2f7c102123),
    ("Gat/P2pRu/4gpu/Off/Sequential/infer", 0xac2099f927cd975e),
    ("Gat/P2pRu/4gpu/Off/Parallel/train-hybrid", 0x54860c2f7c102123),
    ("Gat/P2pRu/4gpu/Off/Parallel/train-recompute", 0x54860c2f7c102123),
    ("Gat/P2pRu/4gpu/Off/Parallel/infer", 0xac2099f927cd975e),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xcf72c51b239de654),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0xcf72c51b239de654),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0x29169a2203f38132),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xcf72c51b239de654),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0xcf72c51b239de654),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0x29169a2203f38132),
    ("Sage/Vanilla/1gpu/Off/Sequential/train-hybrid", 0x410a82e87002f8de),
    ("Sage/Vanilla/1gpu/Off/Sequential/train-recompute", 0x58552de8769cc23a),
    ("Sage/Vanilla/1gpu/Off/Sequential/infer", 0x3e389fdac532440a),
    ("Sage/Vanilla/1gpu/Off/Parallel/train-hybrid", 0x410a82e87002f8de),
    ("Sage/Vanilla/1gpu/Off/Parallel/train-recompute", 0x58552de8769cc23a),
    ("Sage/Vanilla/1gpu/Off/Parallel/infer", 0x3e389fdac532440a),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x730e48356bd4ccbe),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0x0939c3600d5f0a4a),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0xd882db263ab1a2ba),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x730e48356bd4ccbe),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0x0939c3600d5f0a4a),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0xd882db263ab1a2ba),
    ("Sage/Vanilla/2gpu/Off/Sequential/train-hybrid", 0xa2fbc4f52894585f),
    ("Sage/Vanilla/2gpu/Off/Sequential/train-recompute", 0x4ee3989c5cb981bf),
    ("Sage/Vanilla/2gpu/Off/Sequential/infer", 0x0fb0af63b1123447),
    ("Sage/Vanilla/2gpu/Off/Parallel/train-hybrid", 0xa2fbc4f52894585f),
    ("Sage/Vanilla/2gpu/Off/Parallel/train-recompute", 0x4ee3989c5cb981bf),
    ("Sage/Vanilla/2gpu/Off/Parallel/infer", 0x0fb0af63b1123447),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x061383434023a6de),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0xcd5bbe573d137a66),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0x3385687bd1859f72),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x061383434023a6de),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0xcd5bbe573d137a66),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0x3385687bd1859f72),
    ("Sage/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x09b9e8ec9c6e7e80),
    ("Sage/Vanilla/4gpu/Off/Sequential/train-recompute", 0x25a158dfe2c7276c),
    ("Sage/Vanilla/4gpu/Off/Sequential/infer", 0x0f911458b37ce204),
    ("Sage/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x09b9e8ec9c6e7e80),
    ("Sage/Vanilla/4gpu/Off/Parallel/train-recompute", 0x25a158dfe2c7276c),
    ("Sage/Vanilla/4gpu/Off/Parallel/infer", 0x0f911458b37ce204),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xfa9296a96fea2aef),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0x8032f474e0e3658b),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0x7f7c0036cfd2227b),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xfa9296a96fea2aef),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0x8032f474e0e3658b),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0x7f7c0036cfd2227b),
    ("Sage/P2p/1gpu/Off/Sequential/train-hybrid", 0x410a82e87002f8de),
    ("Sage/P2p/1gpu/Off/Sequential/train-recompute", 0x58552de8769cc23a),
    ("Sage/P2p/1gpu/Off/Sequential/infer", 0x3e389fdac532440a),
    ("Sage/P2p/1gpu/Off/Parallel/train-hybrid", 0x410a82e87002f8de),
    ("Sage/P2p/1gpu/Off/Parallel/train-recompute", 0x58552de8769cc23a),
    ("Sage/P2p/1gpu/Off/Parallel/infer", 0x3e389fdac532440a),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x3c1d8688e0cc3935),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x724db216800a9f59),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/infer", 0xce80b53ba87b4e11),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x3c1d8688e0cc3935),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x724db216800a9f59),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/infer", 0xce80b53ba87b4e11),
    ("Sage/P2p/2gpu/Off/Sequential/train-hybrid", 0x1344413206b471da),
    ("Sage/P2p/2gpu/Off/Sequential/train-recompute", 0xf56598260643ab12),
    ("Sage/P2p/2gpu/Off/Sequential/infer", 0x05d2c71acf428f1e),
    ("Sage/P2p/2gpu/Off/Parallel/train-hybrid", 0x1344413206b471da),
    ("Sage/P2p/2gpu/Off/Parallel/train-recompute", 0xf56598260643ab12),
    ("Sage/P2p/2gpu/Off/Parallel/infer", 0x05d2c71acf428f1e),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x2ea4a12822dd59ef),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0xf02c905c5b066a2f),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x5d52812c0355b79b),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x2ea4a12822dd59ef),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0xf02c905c5b066a2f),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x5d52812c0355b79b),
    ("Sage/P2p/4gpu/Off/Sequential/train-hybrid", 0x55de1518f30b3c3e),
    ("Sage/P2p/4gpu/Off/Sequential/train-recompute", 0x2c852479856d8532),
    ("Sage/P2p/4gpu/Off/Sequential/infer", 0x9ba44b67396b143e),
    ("Sage/P2p/4gpu/Off/Parallel/train-hybrid", 0x55de1518f30b3c3e),
    ("Sage/P2p/4gpu/Off/Parallel/train-recompute", 0x2c852479856d8532),
    ("Sage/P2p/4gpu/Off/Parallel/infer", 0x9ba44b67396b143e),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xf0fb0a86cdb4791a),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0x12f4546d69bd441e),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/infer", 0xc9f0845d1106c92b),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xf0fb0a86cdb4791a),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0x12f4546d69bd441e),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/infer", 0xc9f0845d1106c92b),
    ("Sage/P2pRu/1gpu/Off/Sequential/train-hybrid", 0x18101f8fa219cebe),
    ("Sage/P2pRu/1gpu/Off/Sequential/train-recompute", 0xba0f376def0abd1a),
    ("Sage/P2pRu/1gpu/Off/Sequential/infer", 0xc42800e85875960a),
    ("Sage/P2pRu/1gpu/Off/Parallel/train-hybrid", 0x18101f8fa219cebe),
    ("Sage/P2pRu/1gpu/Off/Parallel/train-recompute", 0xba0f376def0abd1a),
    ("Sage/P2pRu/1gpu/Off/Parallel/infer", 0xc42800e85875960a),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x3c1d8688e0cc3935),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x724db216800a9f59),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0xce80b53ba87b4e11),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x3c1d8688e0cc3935),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x724db216800a9f59),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0xce80b53ba87b4e11),
    ("Sage/P2pRu/2gpu/Off/Sequential/train-hybrid", 0xfd137a1203607bea),
    ("Sage/P2pRu/2gpu/Off/Sequential/train-recompute", 0x1129ef093f40f132),
    ("Sage/P2pRu/2gpu/Off/Sequential/infer", 0x099c95860ae47e76),
    ("Sage/P2pRu/2gpu/Off/Parallel/train-hybrid", 0xfd137a1203607bea),
    ("Sage/P2pRu/2gpu/Off/Parallel/train-recompute", 0x1129ef093f40f132),
    ("Sage/P2pRu/2gpu/Off/Parallel/infer", 0x099c95860ae47e76),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x39007545a5cf1dd0),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0x7ac9e9742d4444f0),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0xc4b5426b1e02b4a1),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x39007545a5cf1dd0),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0x7ac9e9742d4444f0),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0xc4b5426b1e02b4a1),
    ("Sage/P2pRu/4gpu/Off/Sequential/train-hybrid", 0xeefcd45356087d98),
    ("Sage/P2pRu/4gpu/Off/Sequential/train-recompute", 0xf1a5147c1d9facdc),
    ("Sage/P2pRu/4gpu/Off/Sequential/infer", 0xe31cc09de9542925),
    ("Sage/P2pRu/4gpu/Off/Parallel/train-hybrid", 0xeefcd45356087d98),
    ("Sage/P2pRu/4gpu/Off/Parallel/train-recompute", 0xf1a5147c1d9facdc),
    ("Sage/P2pRu/4gpu/Off/Parallel/infer", 0xe31cc09de9542925),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x1826d99f1ac099b8),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0xd5d45f53e929fe54),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0xca7853f5f5688e38),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x1826d99f1ac099b8),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0xd5d45f53e929fe54),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0xca7853f5f5688e38),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/train-hybrid", 0xc958f0c89e0113a3),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/infer", 0x14c81cc83a27c5e9),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x005f87c9fb0319c9),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/infer", 0x8a3a5a0edf3327f3),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/train-hybrid", 0xb6efb30729f35db6),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/infer", 0x4c06e8f115f14ca5),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x9b613a14acf8b82c),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/infer", 0x8d311c1329735f5e),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/train-hybrid", 0xdabda38390b7dfef),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/infer", 0xcfe70cebefb3e54d),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x134d2c6021aeb8b2),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/infer", 0x9138e57682c244a0),
];

/// [`GOLDEN_FOOTPRINT`] without the two cone costs every one of its rows
/// folds in — memory bound, staging budget, measured peaks. Generated at
/// the commit before cones became row-granular: that change regenerates
/// the footprint table (cone costs shrink in every row) and leaves this
/// one alone.
#[rustfmt::skip]
const GOLDEN_BOUND: &[(&str, u64)] = &[
    ("Gcn/Vanilla/1gpu/Off/Sequential/train-hybrid", 0xc96f6240590ac39d),
    ("Gcn/Vanilla/1gpu/Off/Sequential/train-recompute", 0xb3af267221366349),
    ("Gcn/Vanilla/1gpu/Off/Sequential/infer", 0x1b3a23c171aa5811),
    ("Gcn/Vanilla/1gpu/Off/Parallel/train-hybrid", 0xc96f6240590ac39d),
    ("Gcn/Vanilla/1gpu/Off/Parallel/train-recompute", 0xb3af267221366349),
    ("Gcn/Vanilla/1gpu/Off/Parallel/infer", 0x1b3a23c171aa5811),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x1437b10ed4a56469),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0x7755afc403f9b8cd),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x6dc48a39eace2df5),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x1437b10ed4a56469),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0x7755afc403f9b8cd),
    ("Gcn/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x6dc48a39eace2df5),
    ("Gcn/Vanilla/2gpu/Off/Sequential/train-hybrid", 0x4df39ece30fc0ea4),
    ("Gcn/Vanilla/2gpu/Off/Sequential/train-recompute", 0xf4d93f986244b9dc),
    ("Gcn/Vanilla/2gpu/Off/Sequential/infer", 0xbb13b1d8844ba332),
    ("Gcn/Vanilla/2gpu/Off/Parallel/train-hybrid", 0x4df39ece30fc0ea4),
    ("Gcn/Vanilla/2gpu/Off/Parallel/train-recompute", 0xf4d93f986244b9dc),
    ("Gcn/Vanilla/2gpu/Off/Parallel/infer", 0xbb13b1d8844ba332),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x23c90bcd2965f027),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0xfc37b92392adb14f),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0x8e418ec0a2545a0d),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x23c90bcd2965f027),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0xfc37b92392adb14f),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0x8e418ec0a2545a0d),
    ("Gcn/Vanilla/4gpu/Off/Sequential/train-hybrid", 0x33bbb6aeb8099f11),
    ("Gcn/Vanilla/4gpu/Off/Sequential/train-recompute", 0x69827c0f51a9d37d),
    ("Gcn/Vanilla/4gpu/Off/Sequential/infer", 0xf4698fdfe13c5ace),
    ("Gcn/Vanilla/4gpu/Off/Parallel/train-hybrid", 0x33bbb6aeb8099f11),
    ("Gcn/Vanilla/4gpu/Off/Parallel/train-recompute", 0x69827c0f51a9d37d),
    ("Gcn/Vanilla/4gpu/Off/Parallel/infer", 0xf4698fdfe13c5ace),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x01b7526bab7b403c),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0x7b756fab775b2f48),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0xe9f37a88a76967d7),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x01b7526bab7b403c),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0x7b756fab775b2f48),
    ("Gcn/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0xe9f37a88a76967d7),
    ("Gcn/P2p/1gpu/Off/Sequential/train-hybrid", 0xc96f6240590ac39d),
    ("Gcn/P2p/1gpu/Off/Sequential/train-recompute", 0xb3af267221366349),
    ("Gcn/P2p/1gpu/Off/Sequential/infer", 0x1b3a23c171aa5811),
    ("Gcn/P2p/1gpu/Off/Parallel/train-hybrid", 0xc96f6240590ac39d),
    ("Gcn/P2p/1gpu/Off/Parallel/train-recompute", 0xb3af267221366349),
    ("Gcn/P2p/1gpu/Off/Parallel/infer", 0x1b3a23c171aa5811),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x1437b10ed4a56469),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x7755afc403f9b8cd),
    ("Gcn/P2p/1gpu/DoubleBuffer/Sequential/infer", 0x6dc48a39eace2df5),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x1437b10ed4a56469),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x7755afc403f9b8cd),
    ("Gcn/P2p/1gpu/DoubleBuffer/Parallel/infer", 0x6dc48a39eace2df5),
    ("Gcn/P2p/2gpu/Off/Sequential/train-hybrid", 0xa7ae6d6be67e459f),
    ("Gcn/P2p/2gpu/Off/Sequential/train-recompute", 0x0872f429eaebbe07),
    ("Gcn/P2p/2gpu/Off/Sequential/infer", 0x1a0ba7d04e76228d),
    ("Gcn/P2p/2gpu/Off/Parallel/train-hybrid", 0xa7ae6d6be67e459f),
    ("Gcn/P2p/2gpu/Off/Parallel/train-recompute", 0x0872f429eaebbe07),
    ("Gcn/P2p/2gpu/Off/Parallel/infer", 0x1a0ba7d04e76228d),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x0a38f2c6aa4a50f8),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0x4caf88d9df3b1e10),
    ("Gcn/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x94e432d6563329c6),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x0a38f2c6aa4a50f8),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0x4caf88d9df3b1e10),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x94e432d6563329c6),
    ("Gcn/P2p/4gpu/Off/Sequential/train-hybrid", 0x6bdad172b2b1186b),
    ("Gcn/P2p/4gpu/Off/Sequential/train-recompute", 0xfa3a03ff3ea3e327),
    ("Gcn/P2p/4gpu/Off/Sequential/infer", 0xa34e73da48f49311),
    ("Gcn/P2p/4gpu/Off/Parallel/train-hybrid", 0x6bdad172b2b1186b),
    ("Gcn/P2p/4gpu/Off/Parallel/train-recompute", 0xfa3a03ff3ea3e327),
    ("Gcn/P2p/4gpu/Off/Parallel/infer", 0xa34e73da48f49311),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x5992d08137774286),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0x88da9a5d9d7c1ea2),
    ("Gcn/P2p/4gpu/DoubleBuffer/Sequential/infer", 0x8ca741829c65669b),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x5992d08137774286),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0x88da9a5d9d7c1ea2),
    ("Gcn/P2p/4gpu/DoubleBuffer/Parallel/infer", 0x8ca741829c65669b),
    ("Gcn/P2pRu/1gpu/Off/Sequential/train-hybrid", 0x95ef57fe62e9971d),
    ("Gcn/P2pRu/1gpu/Off/Sequential/train-recompute", 0x894c701f0b00cfc9),
    ("Gcn/P2pRu/1gpu/Off/Sequential/infer", 0xb4ae63f36865e071),
    ("Gcn/P2pRu/1gpu/Off/Parallel/train-hybrid", 0x95ef57fe62e9971d),
    ("Gcn/P2pRu/1gpu/Off/Parallel/train-recompute", 0x894c701f0b00cfc9),
    ("Gcn/P2pRu/1gpu/Off/Parallel/infer", 0xb4ae63f36865e071),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0x1437b10ed4a56469),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x7755afc403f9b8cd),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0x6dc48a39eace2df5),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0x1437b10ed4a56469),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x7755afc403f9b8cd),
    ("Gcn/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0x6dc48a39eace2df5),
    ("Gcn/P2pRu/2gpu/Off/Sequential/train-hybrid", 0xf1a955c9246aec1f),
    ("Gcn/P2pRu/2gpu/Off/Sequential/train-recompute", 0x6f3e849fd75189af),
    ("Gcn/P2pRu/2gpu/Off/Sequential/infer", 0xb389c296ef8d2111),
    ("Gcn/P2pRu/2gpu/Off/Parallel/train-hybrid", 0xf1a955c9246aec1f),
    ("Gcn/P2pRu/2gpu/Off/Parallel/train-recompute", 0x6f3e849fd75189af),
    ("Gcn/P2pRu/2gpu/Off/Parallel/infer", 0xb389c296ef8d2111),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x69e354e7d9576f3a),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0x26618b0ec2d54bea),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0x854bf1efd6057bc0),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x69e354e7d9576f3a),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0x26618b0ec2d54bea),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0x854bf1efd6057bc0),
    ("Gcn/P2pRu/4gpu/Off/Sequential/train-hybrid", 0x21cd53cf2ced3ca3),
    ("Gcn/P2pRu/4gpu/Off/Sequential/train-recompute", 0x8121bda105ba0617),
    ("Gcn/P2pRu/4gpu/Off/Sequential/infer", 0xbc1848df81c97717),
    ("Gcn/P2pRu/4gpu/Off/Parallel/train-hybrid", 0x21cd53cf2ced3ca3),
    ("Gcn/P2pRu/4gpu/Off/Parallel/train-recompute", 0x8121bda105ba0617),
    ("Gcn/P2pRu/4gpu/Off/Parallel/infer", 0xbc1848df81c97717),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xa56e180e93030ca3),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0xe36a1bbff7a47937),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0x351f46d959883656),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xa56e180e93030ca3),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0xe36a1bbff7a47937),
    ("Gcn/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0x351f46d959883656),
    ("Gat/Vanilla/1gpu/Off/Sequential/train-hybrid", 0xeb0e0527578a2c23),
    ("Gat/Vanilla/1gpu/Off/Sequential/train-recompute", 0xeb0e0527578a2c23),
    ("Gat/Vanilla/1gpu/Off/Sequential/infer", 0x0627850bd3f3ce27),
    ("Gat/Vanilla/1gpu/Off/Parallel/train-hybrid", 0xeb0e0527578a2c23),
    ("Gat/Vanilla/1gpu/Off/Parallel/train-recompute", 0xeb0e0527578a2c23),
    ("Gat/Vanilla/1gpu/Off/Parallel/infer", 0x0627850bd3f3ce27),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xe09267c62f9344c3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0xe09267c62f9344c3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0x1eaf03283468f9af),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xe09267c62f9344c3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0xe09267c62f9344c3),
    ("Gat/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0x1eaf03283468f9af),
    ("Gat/Vanilla/2gpu/Off/Sequential/train-hybrid", 0xd8a92ab09f8cc211),
    ("Gat/Vanilla/2gpu/Off/Sequential/train-recompute", 0xd8a92ab09f8cc211),
    ("Gat/Vanilla/2gpu/Off/Sequential/infer", 0xc37df0e6d465d8e0),
    ("Gat/Vanilla/2gpu/Off/Parallel/train-hybrid", 0xd8a92ab09f8cc211),
    ("Gat/Vanilla/2gpu/Off/Parallel/train-recompute", 0xd8a92ab09f8cc211),
    ("Gat/Vanilla/2gpu/Off/Parallel/infer", 0xc37df0e6d465d8e0),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x41c8a06acdf3384e),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0x41c8a06acdf3384e),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0xf75407f00ac57705),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x41c8a06acdf3384e),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0x41c8a06acdf3384e),
    ("Gat/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0xf75407f00ac57705),
    ("Gat/Vanilla/4gpu/Off/Sequential/train-hybrid", 0xc46ed2ec04f2de19),
    ("Gat/Vanilla/4gpu/Off/Sequential/train-recompute", 0xc46ed2ec04f2de19),
    ("Gat/Vanilla/4gpu/Off/Sequential/infer", 0xd5c1c508a70f3552),
    ("Gat/Vanilla/4gpu/Off/Parallel/train-hybrid", 0xc46ed2ec04f2de19),
    ("Gat/Vanilla/4gpu/Off/Parallel/train-recompute", 0xc46ed2ec04f2de19),
    ("Gat/Vanilla/4gpu/Off/Parallel/infer", 0xd5c1c508a70f3552),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x4ad0371af506f68b),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0x4ad0371af506f68b),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0xe548b3f37b39ecac),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x4ad0371af506f68b),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0x4ad0371af506f68b),
    ("Gat/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0xe548b3f37b39ecac),
    ("Gat/P2p/1gpu/Off/Sequential/train-hybrid", 0xeb0e0527578a2c23),
    ("Gat/P2p/1gpu/Off/Sequential/train-recompute", 0xeb0e0527578a2c23),
    ("Gat/P2p/1gpu/Off/Sequential/infer", 0x0627850bd3f3ce27),
    ("Gat/P2p/1gpu/Off/Parallel/train-hybrid", 0xeb0e0527578a2c23),
    ("Gat/P2p/1gpu/Off/Parallel/train-recompute", 0xeb0e0527578a2c23),
    ("Gat/P2p/1gpu/Off/Parallel/infer", 0x0627850bd3f3ce27),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xe09267c62f9344c3),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0xe09267c62f9344c3),
    ("Gat/P2p/1gpu/DoubleBuffer/Sequential/infer", 0x1eaf03283468f9af),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xe09267c62f9344c3),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0xe09267c62f9344c3),
    ("Gat/P2p/1gpu/DoubleBuffer/Parallel/infer", 0x1eaf03283468f9af),
    ("Gat/P2p/2gpu/Off/Sequential/train-hybrid", 0xe5ef343483f2f3b5),
    ("Gat/P2p/2gpu/Off/Sequential/train-recompute", 0xe5ef343483f2f3b5),
    ("Gat/P2p/2gpu/Off/Sequential/infer", 0x4d95074e803fdf9e),
    ("Gat/P2p/2gpu/Off/Parallel/train-hybrid", 0xe5ef343483f2f3b5),
    ("Gat/P2p/2gpu/Off/Parallel/train-recompute", 0xe5ef343483f2f3b5),
    ("Gat/P2p/2gpu/Off/Parallel/infer", 0x4d95074e803fdf9e),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x00cc5334e759e85e),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0x00cc5334e759e85e),
    ("Gat/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x2da5cc73c3cfdc33),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x00cc5334e759e85e),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0x00cc5334e759e85e),
    ("Gat/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x2da5cc73c3cfdc33),
    ("Gat/P2p/4gpu/Off/Sequential/train-hybrid", 0x2763faf03054db36),
    ("Gat/P2p/4gpu/Off/Sequential/train-recompute", 0x2763faf03054db36),
    ("Gat/P2p/4gpu/Off/Sequential/infer", 0x9ce7261e0241c56b),
    ("Gat/P2p/4gpu/Off/Parallel/train-hybrid", 0x2763faf03054db36),
    ("Gat/P2p/4gpu/Off/Parallel/train-recompute", 0x2763faf03054db36),
    ("Gat/P2p/4gpu/Off/Parallel/infer", 0x9ce7261e0241c56b),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xc4875abb7c3b1d23),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0xc4875abb7c3b1d23),
    ("Gat/P2p/4gpu/DoubleBuffer/Sequential/infer", 0x93eb38b94e115244),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xc4875abb7c3b1d23),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0xc4875abb7c3b1d23),
    ("Gat/P2p/4gpu/DoubleBuffer/Parallel/infer", 0x93eb38b94e115244),
    ("Gat/P2pRu/1gpu/Off/Sequential/train-hybrid", 0x9461a5bc1e32b303),
    ("Gat/P2pRu/1gpu/Off/Sequential/train-recompute", 0x9461a5bc1e32b303),
    ("Gat/P2pRu/1gpu/Off/Sequential/infer", 0xbec9d7549dbe2fc7),
    ("Gat/P2pRu/1gpu/Off/Parallel/train-hybrid", 0x9461a5bc1e32b303),
    ("Gat/P2pRu/1gpu/Off/Parallel/train-recompute", 0x9461a5bc1e32b303),
    ("Gat/P2pRu/1gpu/Off/Parallel/infer", 0xbec9d7549dbe2fc7),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xe09267c62f9344c3),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0xe09267c62f9344c3),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0x1eaf03283468f9af),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xe09267c62f9344c3),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0xe09267c62f9344c3),
    ("Gat/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0x1eaf03283468f9af),
    ("Gat/P2pRu/2gpu/Off/Sequential/train-hybrid", 0x3fdb624247ec0cad),
    ("Gat/P2pRu/2gpu/Off/Sequential/train-recompute", 0x3fdb624247ec0cad),
    ("Gat/P2pRu/2gpu/Off/Sequential/infer", 0x8cd60f14e33199b6),
    ("Gat/P2pRu/2gpu/Off/Parallel/train-hybrid", 0x3fdb624247ec0cad),
    ("Gat/P2pRu/2gpu/Off/Parallel/train-recompute", 0x3fdb624247ec0cad),
    ("Gat/P2pRu/2gpu/Off/Parallel/infer", 0x8cd60f14e33199b6),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x7369aeb0e2d6df6f),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0x7369aeb0e2d6df6f),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0x708c7290330c20b4),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x7369aeb0e2d6df6f),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0x7369aeb0e2d6df6f),
    ("Gat/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0x708c7290330c20b4),
    ("Gat/P2pRu/4gpu/Off/Sequential/train-hybrid", 0x8e6b09979ebf73ce),
    ("Gat/P2pRu/4gpu/Off/Sequential/train-recompute", 0x8e6b09979ebf73ce),
    ("Gat/P2pRu/4gpu/Off/Sequential/infer", 0x05be0839649f46ab),
    ("Gat/P2pRu/4gpu/Off/Parallel/train-hybrid", 0x8e6b09979ebf73ce),
    ("Gat/P2pRu/4gpu/Off/Parallel/train-recompute", 0x8e6b09979ebf73ce),
    ("Gat/P2pRu/4gpu/Off/Parallel/infer", 0x05be0839649f46ab),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x394680c261f1cec8),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0x394680c261f1cec8),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0xac7a929f6bb91706),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x394680c261f1cec8),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0x394680c261f1cec8),
    ("Gat/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0xac7a929f6bb91706),
    ("Sage/Vanilla/1gpu/Off/Sequential/train-hybrid", 0xe63cb92b5d3629d9),
    ("Sage/Vanilla/1gpu/Off/Sequential/train-recompute", 0x7223d152d841ecf5),
    ("Sage/Vanilla/1gpu/Off/Sequential/infer", 0xd5be31aa2d043fa5),
    ("Sage/Vanilla/1gpu/Off/Parallel/train-hybrid", 0xe63cb92b5d3629d9),
    ("Sage/Vanilla/1gpu/Off/Parallel/train-recompute", 0x7223d152d841ecf5),
    ("Sage/Vanilla/1gpu/Off/Parallel/infer", 0xd5be31aa2d043fa5),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xbd0aedce418c3765),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/train-recompute", 0x1536b09befb735a9),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Sequential/infer", 0xc186d38fe8152181),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xbd0aedce418c3765),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/train-recompute", 0x1536b09befb735a9),
    ("Sage/Vanilla/1gpu/DoubleBuffer/Parallel/infer", 0xc186d38fe8152181),
    ("Sage/Vanilla/2gpu/Off/Sequential/train-hybrid", 0xdcbcb1bc646fac58),
    ("Sage/Vanilla/2gpu/Off/Sequential/train-recompute", 0x423a4b8d0eba2300),
    ("Sage/Vanilla/2gpu/Off/Sequential/infer", 0x83f5b91f591ae268),
    ("Sage/Vanilla/2gpu/Off/Parallel/train-hybrid", 0xdcbcb1bc646fac58),
    ("Sage/Vanilla/2gpu/Off/Parallel/train-recompute", 0x423a4b8d0eba2300),
    ("Sage/Vanilla/2gpu/Off/Parallel/infer", 0x83f5b91f591ae268),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/train-hybrid", 0x0f6e633b633772f4),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/train-recompute", 0xc31606662d4846fc),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Sequential/infer", 0xe683e34bee8736f0),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/train-hybrid", 0x0f6e633b633772f4),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/train-recompute", 0xc31606662d4846fc),
    ("Sage/Vanilla/2gpu/DoubleBuffer/Parallel/infer", 0xe683e34bee8736f0),
    ("Sage/Vanilla/4gpu/Off/Sequential/train-hybrid", 0xff9cbdc674dbc9bc),
    ("Sage/Vanilla/4gpu/Off/Sequential/train-recompute", 0xd4d070f7e8fcea40),
    ("Sage/Vanilla/4gpu/Off/Sequential/infer", 0x8146dfd8089aa530),
    ("Sage/Vanilla/4gpu/Off/Parallel/train-hybrid", 0xff9cbdc674dbc9bc),
    ("Sage/Vanilla/4gpu/Off/Parallel/train-recompute", 0xd4d070f7e8fcea40),
    ("Sage/Vanilla/4gpu/Off/Parallel/infer", 0x8146dfd8089aa530),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/train-hybrid", 0x98a0636464978ac2),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/train-recompute", 0xea3d0cbb20ad8d0e),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Sequential/infer", 0xe5f8ad9370d4e8be),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/train-hybrid", 0x98a0636464978ac2),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/train-recompute", 0xea3d0cbb20ad8d0e),
    ("Sage/Vanilla/4gpu/DoubleBuffer/Parallel/infer", 0xe5f8ad9370d4e8be),
    ("Sage/P2p/1gpu/Off/Sequential/train-hybrid", 0xe63cb92b5d3629d9),
    ("Sage/P2p/1gpu/Off/Sequential/train-recompute", 0x7223d152d841ecf5),
    ("Sage/P2p/1gpu/Off/Sequential/infer", 0xd5be31aa2d043fa5),
    ("Sage/P2p/1gpu/Off/Parallel/train-hybrid", 0xe63cb92b5d3629d9),
    ("Sage/P2p/1gpu/Off/Parallel/train-recompute", 0x7223d152d841ecf5),
    ("Sage/P2p/1gpu/Off/Parallel/infer", 0xd5be31aa2d043fa5),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xbd0aedce418c3765),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/train-recompute", 0x1536b09befb735a9),
    ("Sage/P2p/1gpu/DoubleBuffer/Sequential/infer", 0xc186d38fe8152181),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xbd0aedce418c3765),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/train-recompute", 0x1536b09befb735a9),
    ("Sage/P2p/1gpu/DoubleBuffer/Parallel/infer", 0xc186d38fe8152181),
    ("Sage/P2p/2gpu/Off/Sequential/train-hybrid", 0x288d27be854effa7),
    ("Sage/P2p/2gpu/Off/Sequential/train-recompute", 0xcb7b5620710732ff),
    ("Sage/P2p/2gpu/Off/Sequential/infer", 0x5684e5e2951a282b),
    ("Sage/P2p/2gpu/Off/Parallel/train-hybrid", 0x288d27be854effa7),
    ("Sage/P2p/2gpu/Off/Parallel/train-recompute", 0xcb7b5620710732ff),
    ("Sage/P2p/2gpu/Off/Parallel/infer", 0x5684e5e2951a282b),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xb594dda8aa17e956),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/train-recompute", 0x9f36a1837c5bdb46),
    ("Sage/P2p/2gpu/DoubleBuffer/Sequential/infer", 0x9d3e658ff87948ba),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xb594dda8aa17e956),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/train-recompute", 0x9f36a1837c5bdb46),
    ("Sage/P2p/2gpu/DoubleBuffer/Parallel/infer", 0x9d3e658ff87948ba),
    ("Sage/P2p/4gpu/Off/Sequential/train-hybrid", 0xc33d232cc44517bd),
    ("Sage/P2p/4gpu/Off/Sequential/train-recompute", 0x12ca06c8a490c811),
    ("Sage/P2p/4gpu/Off/Sequential/infer", 0x4ad3835b90d15545),
    ("Sage/P2p/4gpu/Off/Parallel/train-hybrid", 0xc33d232cc44517bd),
    ("Sage/P2p/4gpu/Off/Parallel/train-recompute", 0x12ca06c8a490c811),
    ("Sage/P2p/4gpu/Off/Parallel/infer", 0x4ad3835b90d15545),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xb34e07d61ecbd022),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/train-recompute", 0xb02103b5d3adcede),
    ("Sage/P2p/4gpu/DoubleBuffer/Sequential/infer", 0x4f3a626a1c5279f3),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xb34e07d61ecbd022),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/train-recompute", 0xb02103b5d3adcede),
    ("Sage/P2p/4gpu/DoubleBuffer/Parallel/infer", 0x4f3a626a1c5279f3),
    ("Sage/P2pRu/1gpu/Off/Sequential/train-hybrid", 0xb03401a25f2826d9),
    ("Sage/P2pRu/1gpu/Off/Sequential/train-recompute", 0x61889228b089dd55),
    ("Sage/P2pRu/1gpu/Off/Sequential/infer", 0x19d2e542cc1093c5),
    ("Sage/P2pRu/1gpu/Off/Parallel/train-hybrid", 0xb03401a25f2826d9),
    ("Sage/P2pRu/1gpu/Off/Parallel/train-recompute", 0x61889228b089dd55),
    ("Sage/P2pRu/1gpu/Off/Parallel/infer", 0x19d2e542cc1093c5),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/train-hybrid", 0xbd0aedce418c3765),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/train-recompute", 0x1536b09befb735a9),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Sequential/infer", 0xc186d38fe8152181),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/train-hybrid", 0xbd0aedce418c3765),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/train-recompute", 0x1536b09befb735a9),
    ("Sage/P2pRu/1gpu/DoubleBuffer/Parallel/infer", 0xc186d38fe8152181),
    ("Sage/P2pRu/2gpu/Off/Sequential/train-hybrid", 0xe517526d2c6c8c57),
    ("Sage/P2pRu/2gpu/Off/Sequential/train-recompute", 0x5e35ef5f97dc052f),
    ("Sage/P2pRu/2gpu/Off/Sequential/infer", 0xfe19d234729144d3),
    ("Sage/P2pRu/2gpu/Off/Parallel/train-hybrid", 0xe517526d2c6c8c57),
    ("Sage/P2pRu/2gpu/Off/Parallel/train-recompute", 0x5e35ef5f97dc052f),
    ("Sage/P2pRu/2gpu/Off/Parallel/infer", 0xfe19d234729144d3),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/train-hybrid", 0xee7d7d8c8ccbeb2d),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/train-recompute", 0x8cafe6a9c269004d),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Sequential/infer", 0xb1fbf3c7070f0754),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/train-hybrid", 0xee7d7d8c8ccbeb2d),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/train-recompute", 0x8cafe6a9c269004d),
    ("Sage/P2pRu/2gpu/DoubleBuffer/Parallel/infer", 0xb1fbf3c7070f0754),
    ("Sage/P2pRu/4gpu/Off/Sequential/train-hybrid", 0xcdf0c9c59173f747),
    ("Sage/P2pRu/4gpu/Off/Sequential/train-recompute", 0x70f88c2473007d03),
    ("Sage/P2pRu/4gpu/Off/Sequential/infer", 0x8147356a1d91e0fe),
    ("Sage/P2pRu/4gpu/Off/Parallel/train-hybrid", 0xcdf0c9c59173f747),
    ("Sage/P2pRu/4gpu/Off/Parallel/train-recompute", 0x70f88c2473007d03),
    ("Sage/P2pRu/4gpu/Off/Parallel/infer", 0x8147356a1d91e0fe),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/train-hybrid", 0xe7143807911df068),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/train-recompute", 0x28cad746aed9b3ac),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Sequential/infer", 0x863774adb66d5470),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/train-hybrid", 0xe7143807911df068),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/train-recompute", 0x28cad746aed9b3ac),
    ("Sage/P2pRu/4gpu/DoubleBuffer/Parallel/infer", 0x863774adb66d5470),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/train-hybrid", 0x9011f4fef492d7c0),
    ("Gcn/Vanilla/2gpu/Off/Sequential/cache/infer", 0x18cf952ef42108de),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x6bba53df074e2ef4),
    ("Gcn/Vanilla/2gpu/DoubleBuffer/Parallel/cache/infer", 0x0999e5941665b0ba),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/train-hybrid", 0x1efbe2e19f9eb184),
    ("Gcn/P2p/2gpu/Off/Sequential/cache/infer", 0x8bc46c82bbe7069b),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0x6fc679439d31d406),
    ("Gcn/P2p/2gpu/DoubleBuffer/Parallel/cache/infer", 0x6432245763c5f744),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/train-hybrid", 0x5d72ef9c0826b0d1),
    ("Gcn/P2pRu/2gpu/Off/Sequential/cache/infer", 0xeabd0dd13ef8b173),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/train-hybrid", 0xf62b1685d4c999c0),
    ("Gcn/P2pRu/2gpu/DoubleBuffer/Parallel/cache/infer", 0x5c6c527fe3b6ca8a),
];
