//! Hardware configuration presets.
//!
//! Configs round-trip through a hand-rolled `key = value` text format
//! ([`MachineConfig::emit`] / [`MachineConfig::parse`]) so no serialization
//! crate is needed and the workspace builds offline.

/// Parameters of the simulated single-node multi-GPU machine.
///
/// Bandwidths are bytes/second, latencies seconds/operation, and compute
/// throughputs FLOP/second. Defaults mirror the paper's testbed (§7.1):
/// 4×A100-80GB, NVLink 3.0 (200 GB/s), PCIe 4.0 (32 GB/s), two NUMA
/// sockets.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Device memory per GPU in bytes.
    pub gpu_memory: usize,
    /// Host memory in bytes (across all sockets).
    pub host_memory: usize,
    /// Number of NUMA sockets holding host memory.
    pub num_sockets: usize,
    /// Host↔GPU bandwidth (PCIe), bytes/s. The paper's `T_hd`.
    pub pcie_bw: f64,
    /// GPU↔GPU bandwidth (NVLink), bytes/s. The paper's `T_dd`.
    pub nvlink_bw: f64,
    /// Intra-GPU memory bandwidth (HBM), bytes/s. The paper's `T_ru`.
    pub hbm_bw: f64,
    /// Host memory bandwidth, bytes/s (CPU-side gradient accumulation).
    pub host_mem_bw: f64,
    /// Multiplier on host↔GPU time when crossing the inter-socket (QPI)
    /// link. > 1.
    pub numa_remote_factor: f64,
    /// Fixed cost per host↔GPU transfer, seconds.
    pub pcie_latency: f64,
    /// Fixed cost per GPU↔GPU transfer, seconds.
    pub nvlink_latency: f64,
    /// GPU throughput for dense (matmul-like) work, FLOP/s.
    pub gpu_dense_flops: f64,
    /// GPU throughput for irregular edge-parallel work, FLOP/s (memory
    /// bound, so much lower than dense).
    pub gpu_edge_flops: f64,
    /// CPU throughput, FLOP/s (all cores of one node).
    pub cpu_flops: f64,
}

impl MachineConfig {
    /// The paper's testbed: 4×A100 80 GB, NVLink 3.0, PCIe 4.0, 512 GB host
    /// memory spread over 4 CPU sockets (one EPYC per GPU).
    pub fn a100_4x() -> Self {
        MachineConfig {
            num_gpus: 4,
            gpu_memory: 80 << 30,
            host_memory: 512 << 30,
            num_sockets: 4,
            pcie_bw: 32.0e9,
            nvlink_bw: 200.0e9,
            hbm_bw: 2.0e12,
            host_mem_bw: 150.0e9,
            numa_remote_factor: 1.5,
            pcie_latency: 10.0e-6,
            nvlink_latency: 5.0e-6,
            gpu_dense_flops: 19.5e12,
            gpu_edge_flops: 0.8e12,
            cpu_flops: 1.5e11,
        }
    }

    /// The testbed scaled down to mini datasets: identical bandwidth/compute
    /// *ratios* (which is what determines every relative result in the
    /// paper), but `mem_bytes` of device memory so the scaled-down graphs
    /// exercise the same out-of-memory regime as the billion-edge originals
    /// did against 80 GB.
    pub fn scaled(num_gpus: usize, mem_bytes: usize) -> Self {
        MachineConfig {
            num_gpus,
            gpu_memory: mem_bytes,
            host_memory: mem_bytes * 64,
            // Proxies are ~1000× smaller than the originals; shrink the
            // fixed per-transfer latencies by the same factor so the
            // latency/bandwidth balance of a full-scale transfer is kept.
            pcie_latency: 10.0e-9,
            nvlink_latency: 5.0e-9,
            ..Self::a100_4x()
        }
    }

    /// A PCIe-only variant (no NVLink): inter-GPU traffic moves at PCIe
    /// speed. Used by the "effectiveness with various interconnects"
    /// discussion in §5.3.
    pub fn pcie_only(mut self) -> Self {
        self.nvlink_bw = self.pcie_bw;
        self.nvlink_latency = self.pcie_latency;
        self
    }

    /// Effective host↔GPU seconds/byte, accounting for the NUMA layout:
    /// with one GPU per socket the vertex data is allocated NUMA-aware and
    /// all PCIe traffic stays socket-local; with fewer GPUs than sockets
    /// the data must still span every socket (for capacity), so a
    /// `1 − num_gpus/num_sockets` fraction of traffic pays the remote
    /// factor (paper §7.6: "When using two or fewer GPUs, we must use the
    /// memory from all sockets, resulting in remote memory access
    /// overhead").
    pub fn pcie_seconds_per_byte(&self) -> f64 {
        let base = 1.0 / self.pcie_bw;
        let local = (self.num_gpus as f64 / self.num_sockets as f64).min(1.0);
        base * (local + (1.0 - local) * self.numa_remote_factor)
    }

    // ---- cost formulas ----
    //
    // The analytic cost model lives here; `GpuLane` — the one place a
    // charge is priced — and the comparator systems, which price whole
    // epochs without a machine, evaluate the same float expressions.

    /// Seconds for a host↔GPU transfer of `bytes` over PCIe.
    pub fn pcie_transfer_seconds(&self, bytes: usize) -> f64 {
        self.pcie_latency + bytes as f64 * self.pcie_seconds_per_byte()
    }

    /// Seconds for a host↔GPU transfer where `remote_bytes` of the payload
    /// cross the inter-socket link and pay [`MachineConfig::numa_remote_factor`].
    pub fn mixed_pcie_transfer_seconds(&self, bytes: usize, remote_bytes: usize) -> f64 {
        debug_assert!(remote_bytes <= bytes);
        let spb = self.pcie_seconds_per_byte();
        self.pcie_latency
            + (bytes - remote_bytes) as f64 * spb
            + remote_bytes as f64 * spb * self.numa_remote_factor
    }

    /// Seconds for a GPU↔GPU transfer of `bytes` over NVLink.
    pub fn nvlink_transfer_seconds(&self, bytes: usize) -> f64 {
        self.nvlink_latency + bytes as f64 / self.nvlink_bw
    }

    /// Seconds for an intra-GPU buffer copy of `bytes` at HBM speed.
    pub fn reuse_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / self.hbm_bw
    }

    /// Seconds for `flops` of dense (matmul-like) GPU work.
    pub fn gpu_dense_seconds(&self, flops: f64) -> f64 {
        flops / self.gpu_dense_flops
    }

    /// Seconds for `flops` of irregular edge-parallel GPU work.
    pub fn gpu_edge_seconds(&self, flops: f64) -> f64 {
        flops / self.gpu_edge_flops
    }

    /// Seconds for `flops` of host CPU work; throughput is divided by the
    /// GPU count because every GPU's host-side work contends for the CPUs.
    pub fn cpu_compute_seconds(&self, flops: f64) -> f64 {
        flops / (self.cpu_flops / self.num_gpus as f64)
    }

    /// Seconds for a host-side gradient accumulation of `bytes` (read old,
    /// add, write back — three memory touches per byte) at the per-GPU
    /// share of host memory bandwidth.
    pub fn cpu_accumulate_seconds(&self, bytes: usize) -> f64 {
        let bw = self.host_mem_bw / self.num_gpus as f64;
        3.0 * bytes as f64 / bw
    }

    /// Emits the config as `key = value` lines (one field per line), the
    /// inverse of [`MachineConfig::parse`].
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.fields() {
            out.push_str(&format!("{key} = {value}\n"));
        }
        out
    }

    /// Parses the `key = value` format produced by [`MachineConfig::emit`].
    /// Unknown keys are rejected; missing keys keep the `a100_4x` default,
    /// so partial configs are valid overrides. Lines that are empty or
    /// start with `#` are skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = Self::a100_4x();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_usize = || -> Result<usize, String> {
                value
                    .parse()
                    .map_err(|e| format!("line {}: {key}: {e}", lineno + 1))
            };
            let parse_f64 = || -> Result<f64, String> {
                value
                    .parse()
                    .map_err(|e| format!("line {}: {key}: {e}", lineno + 1))
            };
            match key {
                "num_gpus" => cfg.num_gpus = parse_usize()?,
                "gpu_memory" => cfg.gpu_memory = parse_usize()?,
                "host_memory" => cfg.host_memory = parse_usize()?,
                "num_sockets" => cfg.num_sockets = parse_usize()?,
                "pcie_bw" => cfg.pcie_bw = parse_f64()?,
                "nvlink_bw" => cfg.nvlink_bw = parse_f64()?,
                "hbm_bw" => cfg.hbm_bw = parse_f64()?,
                "host_mem_bw" => cfg.host_mem_bw = parse_f64()?,
                "numa_remote_factor" => cfg.numa_remote_factor = parse_f64()?,
                "pcie_latency" => cfg.pcie_latency = parse_f64()?,
                "nvlink_latency" => cfg.nvlink_latency = parse_f64()?,
                "gpu_dense_flops" => cfg.gpu_dense_flops = parse_f64()?,
                "gpu_edge_flops" => cfg.gpu_edge_flops = parse_f64()?,
                "cpu_flops" => cfg.cpu_flops = parse_f64()?,
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// `(key, rendered value)` pairs, in emit order.
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("num_gpus", self.num_gpus.to_string()),
            ("gpu_memory", self.gpu_memory.to_string()),
            ("host_memory", self.host_memory.to_string()),
            ("num_sockets", self.num_sockets.to_string()),
            ("pcie_bw", format!("{:?}", self.pcie_bw)),
            ("nvlink_bw", format!("{:?}", self.nvlink_bw)),
            ("hbm_bw", format!("{:?}", self.hbm_bw)),
            ("host_mem_bw", format!("{:?}", self.host_mem_bw)),
            (
                "numa_remote_factor",
                format!("{:?}", self.numa_remote_factor),
            ),
            ("pcie_latency", format!("{:?}", self.pcie_latency)),
            ("nvlink_latency", format!("{:?}", self.nvlink_latency)),
            ("gpu_dense_flops", format!("{:?}", self.gpu_dense_flops)),
            ("gpu_edge_flops", format!("{:?}", self.gpu_edge_flops)),
            ("cpu_flops", format!("{:?}", self.cpu_flops)),
        ]
    }

    /// Basic sanity checks; call after hand-editing a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_gpus == 0 {
            return Err("num_gpus must be >= 1".into());
        }
        if self.num_sockets == 0 {
            return Err("num_sockets must be >= 1".into());
        }
        for (name, v) in [
            ("pcie_bw", self.pcie_bw),
            ("nvlink_bw", self.nvlink_bw),
            ("hbm_bw", self.hbm_bw),
            ("host_mem_bw", self.host_mem_bw),
            ("gpu_dense_flops", self.gpu_dense_flops),
            ("gpu_edge_flops", self.gpu_edge_flops),
            ("cpu_flops", self.cpu_flops),
        ] {
            if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("{name} must be positive (got {v})"));
            }
        }
        if self.numa_remote_factor < 1.0 {
            return Err("numa_remote_factor must be >= 1".into());
        }
        Ok(())
    }
}

/// A shared-nothing CPU cluster (the DistGNN comparator, §7.1: 16 ECS
/// nodes, 20 Gbps network).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuClusterConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Host memory per node, bytes.
    pub node_memory: usize,
    /// Per-node compute throughput, FLOP/s.
    pub node_flops: f64,
    /// Per-node memory bandwidth, bytes/s.
    pub node_mem_bw: f64,
    /// Inter-node network bandwidth, bytes/s per node.
    pub network_bw: f64,
}

impl CpuClusterConfig {
    /// The paper's 16-node Aliyun ECS cluster (ecs.r5.16xlarge: 56 vCPU,
    /// 512 GB, 20 Gbps).
    pub fn ecs_16() -> Self {
        CpuClusterConfig {
            num_nodes: 16,
            node_memory: 512 << 30,
            node_flops: 2.5e11,
            node_mem_bw: 120.0e9,
            network_bw: 2.5e9, // 20 Gbps
        }
    }

    /// The paper's single CPU server (2× Xeon 6246R, 32 cores, 768 GB).
    pub fn single_node() -> Self {
        CpuClusterConfig {
            num_nodes: 1,
            node_memory: 768 << 30,
            node_flops: 2.0e11,
            node_mem_bw: 140.0e9,
            network_bw: f64::INFINITY,
        }
    }

    /// Scaled-down variant holding `mem_bytes` per node.
    pub fn scaled(num_nodes: usize, mem_bytes: usize) -> Self {
        let base = if num_nodes == 1 {
            Self::single_node()
        } else {
            Self::ecs_16()
        };
        CpuClusterConfig {
            num_nodes,
            node_memory: mem_bytes,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_preset_is_valid() {
        let c = MachineConfig::a100_4x();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_gpus, 4);
        assert_eq!(c.gpu_memory, 80 << 30);
        // NVLink must be much faster than PCIe for dedup to pay off.
        assert!(c.nvlink_bw > 4.0 * c.pcie_bw);
        assert!(c.hbm_bw > c.nvlink_bw);
    }

    #[test]
    fn scaled_keeps_ratios() {
        let a = MachineConfig::a100_4x();
        let s = MachineConfig::scaled(4, 64 << 20);
        assert_eq!(s.gpu_memory, 64 << 20);
        assert_eq!(s.pcie_bw, a.pcie_bw);
        assert_eq!(s.nvlink_bw, a.nvlink_bw);
    }

    #[test]
    fn numa_penalty_applies_below_socket_count() {
        let full = MachineConfig::scaled(4, 1 << 20);
        let two = MachineConfig::scaled(2, 1 << 20);
        let one = MachineConfig::scaled(1, 1 << 20);
        // One GPU per socket: all traffic local.
        assert_eq!(full.pcie_seconds_per_byte(), 1.0 / full.pcie_bw);
        // Fewer GPUs than sockets: progressively more remote traffic.
        assert!(two.pcie_seconds_per_byte() > 1.0 / two.pcie_bw);
        assert!(one.pcie_seconds_per_byte() > two.pcie_seconds_per_byte());
    }

    #[test]
    fn pcie_only_removes_nvlink_advantage() {
        let c = MachineConfig::a100_4x().pcie_only();
        assert_eq!(c.nvlink_bw, c.pcie_bw);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut c = MachineConfig::a100_4x();
        c.num_gpus = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::a100_4x();
        c.pcie_bw = 0.0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::a100_4x();
        c.numa_remote_factor = 0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn emit_parse_roundtrip() {
        for cfg in [
            MachineConfig::a100_4x(),
            MachineConfig::scaled(2, 64 << 20),
            MachineConfig::a100_4x().pcie_only(),
        ] {
            let text = cfg.emit();
            let back = MachineConfig::parse(&text).expect("parse emitted config");
            assert_eq!(back, cfg, "roundtrip failed for:\n{text}");
        }
    }

    #[test]
    fn parse_accepts_partial_overrides_and_comments() {
        let cfg = MachineConfig::parse("# testbed override\nnum_gpus = 2\n\npcie_bw = 16e9\n")
            .expect("partial config");
        assert_eq!(cfg.num_gpus, 2);
        assert_eq!(cfg.pcie_bw, 16e9);
        // Unset keys keep the a100_4x defaults.
        assert_eq!(cfg.nvlink_bw, MachineConfig::a100_4x().nvlink_bw);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MachineConfig::parse("not a key-value line").is_err());
        assert!(MachineConfig::parse("mystery_knob = 4").is_err());
        assert!(MachineConfig::parse("num_gpus = many").is_err());
        // Parsed configs are validated: zero GPUs must be rejected.
        assert!(MachineConfig::parse("num_gpus = 0").is_err());
    }

    #[test]
    fn cluster_presets() {
        let ecs = CpuClusterConfig::ecs_16();
        assert_eq!(ecs.num_nodes, 16);
        let single = CpuClusterConfig::single_node();
        assert_eq!(single.num_nodes, 1);
        assert!(single.network_bw.is_infinite());
    }
}
