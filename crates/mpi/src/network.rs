//! Interconnect cost model (Tofu-D parameterization).
//!
//! The substrate moves bytes through memory, so measured wall time says
//! nothing about interconnect cost. Instead, each rank's recorded traffic
//! is priced with the standard α–β (latency–bandwidth) model:
//!
//! ```text
//! t(message) = α + bytes / β
//! ```
//!
//! parameterized to the Fugaku Tofu-D interconnect: ~0.5 µs put latency
//! and 6.8 GB/s per link, with `links_per_node` injection links usable in
//! parallel (Tofu-D has 6 RDMA engines; 4 usable concurrently by one
//! process is the practical figure in public measurements).

use crate::stats::CommStats;

/// α–β parameters of one node's injection path.
#[derive(Debug, Clone, Copy)]
pub struct TofuParams {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Per-link bandwidth in bytes/s.
    pub link_bw: f64,
    /// Links a single rank can drive concurrently.
    pub links_per_node: u32,
}

impl TofuParams {
    /// Fugaku Tofu-D figures.
    pub fn tofu_d() -> TofuParams {
        TofuParams { latency_s: 0.5e-6, link_bw: 6.8e9, links_per_node: 4 }
    }

    /// Injection bandwidth a rank can reach with message parallelism.
    pub fn injection_bw(&self) -> f64 {
        self.link_bw * self.links_per_node as f64
    }
}

impl Default for TofuParams {
    fn default() -> Self {
        TofuParams::tofu_d()
    }
}

/// Prediction of interconnect time for one rank's recorded traffic.
#[derive(Debug, Clone, Copy)]
pub struct CommTimePrediction {
    /// Seconds attributable to per-message latency.
    pub latency_seconds: f64,
    /// Seconds attributable to bandwidth.
    pub bandwidth_seconds: f64,
    /// Total predicted seconds.
    pub seconds: f64,
}

/// The network model: prices recorded traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkModel {
    pub params: TofuParams,
}

impl NetworkModel {
    pub fn new(params: TofuParams) -> NetworkModel {
        NetworkModel { params }
    }

    /// Price one message of `bytes` bytes.
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.params.latency_s + bytes as f64 / self.params.link_bw
    }

    /// Price a rank's whole recorded send traffic, assuming its messages
    /// overlap across `links_per_node` injection links (bandwidth term)
    /// while latency is paid per message on the critical path of a
    /// pipelined sequence (one α per message, overlapped across links).
    pub fn rank_time(&self, stats: &CommStats) -> CommTimePrediction {
        let links = self.params.links_per_node as f64;
        let latency_seconds = stats.messages_sent as f64 * self.params.latency_s / links;
        let bandwidth_seconds = stats.bytes_sent as f64 / self.params.injection_bw();
        CommTimePrediction {
            latency_seconds,
            bandwidth_seconds,
            seconds: latency_seconds + bandwidth_seconds,
        }
    }

    /// The predicted communication time of the whole world: the slowest
    /// rank (bulk-synchronous approximation).
    pub fn world_time(&self, per_rank: &[CommStats]) -> CommTimePrediction {
        per_rank
            .iter()
            .map(|s| self.rank_time(s))
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .unwrap_or(CommTimePrediction {
                latency_seconds: 0.0,
                bandwidth_seconds: 0.0,
                seconds: 0.0,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(msgs: u64, bytes: u64) -> CommStats {
        CommStats {
            messages_sent: msgs,
            bytes_sent: bytes,
            messages_received: msgs,
            bytes_received: bytes,
            sends_by_dest: vec![],
            ..CommStats::default()
        }
    }

    #[test]
    fn small_message_is_latency_dominated() {
        let m = NetworkModel::default();
        let t = m.message_time(8);
        assert!(t > 0.99 * m.params.latency_s);
        assert!(t < 1.1 * m.params.latency_s);
    }

    #[test]
    fn large_message_is_bandwidth_dominated() {
        let m = NetworkModel::default();
        let bytes = 1u64 << 30;
        let t = m.message_time(bytes);
        let bw_only = bytes as f64 / m.params.link_bw;
        assert!((t - bw_only) / bw_only < 0.01);
    }

    #[test]
    fn rank_time_decomposition_adds_up() {
        let m = NetworkModel::default();
        let p = m.rank_time(&stats(100, 1 << 20));
        assert!((p.seconds - (p.latency_seconds + p.bandwidth_seconds)).abs() < 1e-15);
        assert!(p.latency_seconds > 0.0 && p.bandwidth_seconds > 0.0);
    }

    #[test]
    fn world_time_takes_slowest_rank() {
        let m = NetworkModel::default();
        let ranks = vec![stats(1, 10), stats(10, 1 << 26), stats(2, 100)];
        let world = m.world_time(&ranks);
        let heavy = m.rank_time(&ranks[1]);
        assert_eq!(world.seconds, heavy.seconds);
    }

    #[test]
    fn empty_world_is_zero() {
        let m = NetworkModel::default();
        assert_eq!(m.world_time(&[]).seconds, 0.0);
    }

    #[test]
    fn injection_bw_is_links_times_link() {
        let p = TofuParams::tofu_d();
        assert!((p.injection_bw() - 27.2e9).abs() < 1e3);
    }
}
