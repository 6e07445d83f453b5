//! Golden plan table: pins the *bytes* of everything between
//! `hongtu_datasets::load` and the end of `TwoLevelPartition::build` on
//! the registry datasets, where `tests/trace_golden.rs` only reaches a
//! 240-vertex graph. Hubs, the stalled 8-level coarsening of FDS, the
//! 11-level one of IT and `best_of` choosing the *range* partition (IT)
//! all live here and nowhere smaller.
//!
//! Per dataset and seed: both adjacency orientations, feature bits,
//! labels and split masks; per `(m, n)` grid: the level-1 assignment
//! `best_of` keeps, the multilevel one it was weighed against (and
//! whether that won), and every chunk's `dests` / `neighbors` /
//! `offsets` / `nbr_index` / `gcn_weights` bits in grid order, before and
//! after `reorganize`. Then the multilevel partitioner alone on the
//! generator graphs that stress it (a star, a ring of cliques, uniform,
//! R-MAT with both parameter sets, id-local, planted communities).
//!
//! The table was generated on the sources *before* set-up was made
//! linear (sort-free contraction, merge-built symmetrisation, counting-sort
//! graph build, dense-indexed chunk build) and must not be edited by a
//! change that only claims speed: a mismatch means a partition label, an
//! edge, a neighbour slot or a weight bit moved. An intended behaviour
//! change regenerates it — the failing test prints the full table in
//! source form. Same hasher and helper as the trace table.

use hongtu::core::reorganize;
use hongtu::datasets::{all_keys, load, DatasetKey};
use hongtu::graph::generators::{self, RmatParams};
use hongtu::graph::{Csr, Graph, GraphBuilder};
use hongtu::partition::multilevel::metis_like;
use hongtu::partition::TwoLevelPartition;
use hongtu::tensor::SeededRng;
use std::fmt::Write as _;

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

    fn u32s(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn bools(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.bytes(&[u8::from(x)]);
        }
    }

    fn adjacency(&mut self, a: &Csr) {
        self.sizes(&a.offsets);
        self.u32s(&a.targets);
    }

    /// Every chunk of the grid, partition-major.
    fn grid(&mut self, plan: &TwoLevelPartition) {
        self.sizes(&[plan.m, plan.n]);
        for c in plan.all_chunks() {
            self.sizes(&[c.part, c.chunk]);
            self.u32s(&c.dests);
            self.u32s(&c.neighbors);
            self.sizes(&c.offsets);
            self.u32s(&c.nbr_index);
            self.f32s(&c.gcn_weights);
        }
    }
}

fn digest(fold: impl FnOnce(&mut Fnv)) -> u64 {
    let mut fnv = Fnv::new();
    fold(&mut fnv);
    fnv.0
}

/// Dataset bytes, then the plan `Session::new` would build at each grid.
fn dataset_rows(
    key: DatasetKey,
    seed: u64,
    grids: &[(usize, usize)],
    rows: &mut Vec<(String, u64)>,
) {
    let ds = load(key, &mut SeededRng::new(seed));
    let name = format!("{}/seed{seed}", key.abbrev());
    let mut row = |what: &str, d: u64| rows.push((format!("{name}/{what}"), d));
    row("csr", digest(|f| f.adjacency(&ds.graph.csr)));
    row("csc", digest(|f| f.adjacency(&ds.graph.csc)));
    row(
        "features",
        digest(|f| {
            f.sizes(&[ds.features.rows(), ds.features.cols()]);
            f.f32s(ds.features.as_slice());
        }),
    );
    row("labels", digest(|f| f.u32s(&ds.labels)));
    row("splits/train", digest(|f| f.bools(&ds.splits.train)));
    row("splits/val", digest(|f| f.bools(&ds.splits.val)));
    row("splits/test", digest(|f| f.bools(&ds.splits.test)));
    for &(m, n) in grids {
        let plan = TwoLevelPartition::build(&ds.graph, m, n, ds.seed);
        let multilevel = metis_like(&ds.graph, m, ds.seed);
        row(
            &format!("{m}x{n}/partition_of"),
            digest(|f| f.u32s(&plan.assignment.partition_of)),
        );
        // `best_of` may discard the multilevel result (IT, OPR): pin it too.
        row(
            &format!("{m}x{n}/metis_like"),
            digest(|f| f.u32s(&multilevel.partition_of)),
        );
        row(
            &format!("{m}x{n}/best_of_is_multilevel"),
            u64::from(*plan.assignment == multilevel),
        );
        row(&format!("{m}x{n}/chunks"), digest(|f| f.grid(&plan)));
        let reorganized = reorganize(plan);
        row(
            &format!("{m}x{n}/chunks_reorganized"),
            digest(|f| f.grid(&reorganized)),
        );
    }
}

fn star(leaves: u32) -> Graph {
    let mut b = GraphBuilder::new(leaves as usize + 1);
    for v in 1..=leaves {
        b.add_undirected(0, v);
    }
    b.build()
}

/// `k` cliques of `size` vertices joined in a ring by single edges.
fn ring_of_cliques(k: u32, size: u32) -> Graph {
    let mut b = GraphBuilder::new((k * size) as usize);
    for c in 0..k {
        let base = c * size;
        for i in 0..size {
            for j in 0..size {
                b.add_edge(base + i, base + j);
            }
        }
        b.add_undirected(base, ((c + 1) % k) * size);
    }
    b.build()
}

/// The multilevel partitioner alone, on graphs that stress each phase.
fn partitioner_rows(rows: &mut Vec<(String, u64)>) {
    let rng = SeededRng::new(0x9a27);
    let graphs: [(&str, Graph); 8] = [
        ("star500", star(500)),
        ("ring16x16", ring_of_cliques(16, 16)),
        (
            "erdos_renyi4000",
            generators::erdos_renyi(4000, 4.0, &mut rng.fork(1)),
        ),
        (
            "rmat10-social",
            generators::rmat(10, 8192, RmatParams::social(), &mut rng.fork(2)),
        ),
        (
            "rmat10-web",
            generators::rmat(10, 8192, RmatParams::web(), &mut rng.fork(3)),
        ),
        (
            "local_window3000",
            generators::local_window(3000, 6.0, 30.0, &mut rng.fork(4)),
        ),
        (
            "web_hybrid2000",
            generators::web_hybrid(2000, 6.0, 0.9, 25.0, &mut rng.fork(5)),
        ),
        (
            "planted600",
            generators::planted_partition(600, 3, 8.0, 0.9, &mut rng.fork(6)).0,
        ),
    ];
    for (name, g) in &graphs {
        rows.push((
            format!("{name}/graph"),
            digest(|f| {
                f.adjacency(&g.csr);
                f.adjacency(&g.csc);
            }),
        ));
        for parts in [2usize, 4, 128] {
            let a = metis_like(g, parts, 11);
            rows.push((
                format!("{name}/metis_like{parts}"),
                digest(|f| f.u32s(&a.partition_of)),
            ));
        }
    }
}

fn compute() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for key in all_keys() {
        if key.is_small() {
            for seed in [42, 7] {
                dataset_rows(key, seed, &[(4, 8), (2, 3)], &mut rows);
            }
        } else {
            dataset_rows(key, 42, &[(4, 8)], &mut rows);
        }
    }
    partitioner_rows(&mut rows);
    rows
}

/// Holds `got` against the committed table; on any difference panics with
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
fn every_dataset_partition_and_chunk_byte_matches_the_golden_table() {
    assert_table("plan", &compute(), GOLDEN);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("RDT/seed42/csr", 0x1bcac6985de902c1),
    ("RDT/seed42/csc", 0x1bcac6985de902c1),
    ("RDT/seed42/features", 0xd3e9ce05af239bb1),
    ("RDT/seed42/labels", 0x1f4c2ae83f030802),
    ("RDT/seed42/splits/train", 0xbefd356ab4d25234),
    ("RDT/seed42/splits/val", 0xec0eb5fa011576fa),
    ("RDT/seed42/splits/test", 0x96862b7113e169d6),
    ("RDT/seed42/4x8/partition_of", 0x0d9a99a9e5b5a2c4),
    ("RDT/seed42/4x8/metis_like", 0x0d9a99a9e5b5a2c4),
    ("RDT/seed42/4x8/best_of_is_multilevel", 0x0000000000000001),
    ("RDT/seed42/4x8/chunks", 0x74009edc2addae0f),
    ("RDT/seed42/4x8/chunks_reorganized", 0x6abcfe6623c9d913),
    ("RDT/seed42/2x3/partition_of", 0xc7d6aaecc810fa44),
    ("RDT/seed42/2x3/metis_like", 0xc7d6aaecc810fa44),
    ("RDT/seed42/2x3/best_of_is_multilevel", 0x0000000000000001),
    ("RDT/seed42/2x3/chunks", 0x0e9e2e8fa892aa99),
    ("RDT/seed42/2x3/chunks_reorganized", 0x992bdf17b6d32151),
    ("RDT/seed7/csr", 0x49dea74d00e74dce),
    ("RDT/seed7/csc", 0x49dea74d00e74dce),
    ("RDT/seed7/features", 0x580f70fe6ab25078),
    ("RDT/seed7/labels", 0xea85b6d1570b6f63),
    ("RDT/seed7/splits/train", 0x63ba72ecffd9d890),
    ("RDT/seed7/splits/val", 0xcfc795f691010ede),
    ("RDT/seed7/splits/test", 0x4c38c0a2d496f1b2),
    ("RDT/seed7/4x8/partition_of", 0x07e6523773bdf0c4),
    ("RDT/seed7/4x8/metis_like", 0x07e6523773bdf0c4),
    ("RDT/seed7/4x8/best_of_is_multilevel", 0x0000000000000001),
    ("RDT/seed7/4x8/chunks", 0xc9989ad62a7b6d10),
    ("RDT/seed7/4x8/chunks_reorganized", 0x2c21c220f4869b34),
    ("RDT/seed7/2x3/partition_of", 0x4e3e6311c8058134),
    ("RDT/seed7/2x3/metis_like", 0x4e3e6311c8058134),
    ("RDT/seed7/2x3/best_of_is_multilevel", 0x0000000000000001),
    ("RDT/seed7/2x3/chunks", 0x71ad475049c6e3cd),
    ("RDT/seed7/2x3/chunks_reorganized", 0xdddf21e8dd77e559),
    ("OPT/seed42/csr", 0x2f84ad4e7149ba5f),
    ("OPT/seed42/csc", 0x2f84ad4e7149ba5f),
    ("OPT/seed42/features", 0x01c30f5d38199921),
    ("OPT/seed42/labels", 0x5553b9b3e3c68ba8),
    ("OPT/seed42/splits/train", 0x86463b7e828bee24),
    ("OPT/seed42/splits/val", 0x666eb93658ab7ee8),
    ("OPT/seed42/splits/test", 0xc098b99df42690e4),
    ("OPT/seed42/4x8/partition_of", 0x55841cd63c5eafa8),
    ("OPT/seed42/4x8/metis_like", 0x55841cd63c5eafa8),
    ("OPT/seed42/4x8/best_of_is_multilevel", 0x0000000000000001),
    ("OPT/seed42/4x8/chunks", 0xd3436918bdbb3609),
    ("OPT/seed42/4x8/chunks_reorganized", 0x8ac019bbc80592b9),
    ("OPT/seed42/2x3/partition_of", 0x70f4c750058cd7a9),
    ("OPT/seed42/2x3/metis_like", 0x70f4c750058cd7a9),
    ("OPT/seed42/2x3/best_of_is_multilevel", 0x0000000000000001),
    ("OPT/seed42/2x3/chunks", 0x7e61aa7de070b4e2),
    ("OPT/seed42/2x3/chunks_reorganized", 0x319c109c301a59da),
    ("OPT/seed7/csr", 0xd381af38282f53d5),
    ("OPT/seed7/csc", 0xd381af38282f53d5),
    ("OPT/seed7/features", 0x4d96859c13af0582),
    ("OPT/seed7/labels", 0x5553b9b3e3c68ba8),
    ("OPT/seed7/splits/train", 0x4ed999a501e9b3fa),
    ("OPT/seed7/splits/val", 0xfadeae3108a45886),
    ("OPT/seed7/splits/test", 0x3e623121df976d5c),
    ("OPT/seed7/4x8/partition_of", 0xce5fae6503321268),
    ("OPT/seed7/4x8/metis_like", 0xce5fae6503321268),
    ("OPT/seed7/4x8/best_of_is_multilevel", 0x0000000000000001),
    ("OPT/seed7/4x8/chunks", 0xfc68bb98d0045b76),
    ("OPT/seed7/4x8/chunks_reorganized", 0x2189923d98fab306),
    ("OPT/seed7/2x3/partition_of", 0xc329b142aba02869),
    ("OPT/seed7/2x3/metis_like", 0xc329b142aba02869),
    ("OPT/seed7/2x3/best_of_is_multilevel", 0x0000000000000001),
    ("OPT/seed7/2x3/chunks", 0x454abb65c38b2795),
    ("OPT/seed7/2x3/chunks_reorganized", 0x9b0470cd8c53bc95),
    ("IT/seed42/csr", 0x894e366a9ce1ea26),
    ("IT/seed42/csc", 0xbf2b07e2b22db4a2),
    ("IT/seed42/features", 0xe47e170e3388e718),
    ("IT/seed42/labels", 0x08b9f8c7df4f8b54),
    ("IT/seed42/splits/train", 0x56a0f9d3d32cd21a),
    ("IT/seed42/splits/val", 0xfd8aef8f4a09e0e6),
    ("IT/seed42/splits/test", 0xbb06503384055848),
    ("IT/seed42/4x8/partition_of", 0x65edde419e207870),
    ("IT/seed42/4x8/metis_like", 0x21cb20a875e40222),
    ("IT/seed42/4x8/best_of_is_multilevel", 0x0000000000000000),
    ("IT/seed42/4x8/chunks", 0xf7065639f360a219),
    ("IT/seed42/4x8/chunks_reorganized", 0x532b0caca81af75d),
    ("OPR/seed42/csr", 0x0b50040c878f03cb),
    ("OPR/seed42/csc", 0x6aafe0391cb25e32),
    ("OPR/seed42/features", 0x9adc509207f81e11),
    ("OPR/seed42/labels", 0x10fac3ba165d5a09),
    ("OPR/seed42/splits/train", 0x2cfc1506e67fd7df),
    ("OPR/seed42/splits/val", 0x58c693604917be81),
    ("OPR/seed42/splits/test", 0x65fc720cf9445beb),
    ("OPR/seed42/4x8/partition_of", 0x0e2a9acb99b41139),
    ("OPR/seed42/4x8/metis_like", 0x214e7b6255f790b9),
    ("OPR/seed42/4x8/best_of_is_multilevel", 0x0000000000000000),
    ("OPR/seed42/4x8/chunks", 0x64770514446be3e4),
    ("OPR/seed42/4x8/chunks_reorganized", 0x169f8724f2c035a8),
    ("FDS/seed42/csr", 0xe95347e9c1e29730),
    ("FDS/seed42/csc", 0x6b3f1a9306d23d52),
    ("FDS/seed42/features", 0x42d7f9ededb23784),
    ("FDS/seed42/labels", 0x2a1d743e36e751df),
    ("FDS/seed42/splits/train", 0x529e5bb1629669d1),
    ("FDS/seed42/splits/val", 0x8a5f7606dcc21a35),
    ("FDS/seed42/splits/test", 0x4e8a3585f5aa37db),
    ("FDS/seed42/4x8/partition_of", 0xea47f64dbdde2077),
    ("FDS/seed42/4x8/metis_like", 0xea47f64dbdde2077),
    ("FDS/seed42/4x8/best_of_is_multilevel", 0x0000000000000001),
    ("FDS/seed42/4x8/chunks", 0x6ea601f9488e32ff),
    ("FDS/seed42/4x8/chunks_reorganized", 0xccc81ea4dfc5aa43),
    ("star500/graph", 0x7c2ab5bb31065e7d),
    ("star500/metis_like2", 0xf3721380f6f33c6b),
    ("star500/metis_like4", 0xe4ec1ecc7011d948),
    ("star500/metis_like128", 0xc11808777ee2f67b),
    ("ring16x16/graph", 0x0a63eb45cdafb639),
    ("ring16x16/metis_like2", 0xb21639a0af422aea),
    ("ring16x16/metis_like4", 0x81a9d76e07468f58),
    ("ring16x16/metis_like128", 0x25f099f5132eaaea),
    ("erdos_renyi4000/graph", 0x66cbb49806e326fb),
    ("erdos_renyi4000/metis_like2", 0x6086c5365ade2ec0),
    ("erdos_renyi4000/metis_like4", 0x76365c0976944fe0),
    ("erdos_renyi4000/metis_like128", 0xd1056fefe2904d21),
    ("rmat10-social/graph", 0xc9b48efb4b898951),
    ("rmat10-social/metis_like2", 0xdad560298e7065a9),
    ("rmat10-social/metis_like4", 0xcc38f96a937a0949),
    ("rmat10-social/metis_like128", 0xa6f0082f774104a9),
    ("rmat10-web/graph", 0x79a5d369c19b6d21),
    ("rmat10-web/metis_like2", 0x3f76a922a6e406e9),
    ("rmat10-web/metis_like4", 0x331abe324306c4a9),
    ("rmat10-web/metis_like128", 0xd5056b1a38b44863),
    ("local_window3000/graph", 0x7c55797cad016245),
    ("local_window3000/metis_like2", 0xd992a46895f56af5),
    ("local_window3000/metis_like4", 0x28bbab73e1a34035),
    ("local_window3000/metis_like128", 0xbbeef7304a272128),
    ("web_hybrid2000/graph", 0xb2723bb91239bdef),
    ("web_hybrid2000/metis_like2", 0xdaf4df6a275d1498),
    ("web_hybrid2000/metis_like4", 0x0651de3bdc2da568),
    ("web_hybrid2000/metis_like128", 0xfc962f28666f6c7f),
    ("planted600/graph", 0xefe2c24e2fd185d9),
    ("planted600/metis_like2", 0x2fb6279e1dbd67e7),
    ("planted600/metis_like4", 0xa4e931778d695a97),
    ("planted600/metis_like128", 0x0cd544c925d33c2e),
];
