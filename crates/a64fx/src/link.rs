//! Tofu-D-style interconnect cost model.
//!
//! The A64FX nodes the paper targets are joined by the Tofu
//! interconnect D: a 6D mesh/torus where every node terminates four
//! 6.8 GB/s links through the Tofu Network Interface, giving an
//! injection bandwidth of 27.2 GB/s per node. The distributed planner
//! prices candidate qubit layouts with this model: each exchange phase
//! pays a per-message latency charge (amortized across the links) plus
//! its byte volume over the node injection bandwidth.
//!
//! It is the one α–β model: the planner (which lives below the transport
//! crates) prices candidate exchanges with it, and the experiments price
//! the traffic `mpi-sim` recorded per rank (`exchange_time(messages_sent,
//! bytes_sent)`) with it after a run.

/// α–β parameters of one node's attachment to the interconnect.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way small-message latency in seconds (α).
    pub latency_s: f64,
    /// Per-link bandwidth in bytes/second (1/β per link).
    pub link_bw: f64,
    /// Simultaneously usable links per node (Tofu-D TNIs).
    pub links_per_node: u32,
}

impl LinkParams {
    /// Tofu interconnect D figures: 0.5 µs latency, four 6.8 GB/s
    /// links per node.
    pub fn tofu_d() -> LinkParams {
        LinkParams { latency_s: 0.5e-6, link_bw: 6.8e9, links_per_node: 4 }
    }

    /// Aggregate injection bandwidth of one node (all links busy).
    pub fn injection_bw(&self) -> f64 {
        self.link_bw * f64::from(self.links_per_node)
    }
}

impl Default for LinkParams {
    fn default() -> LinkParams {
        LinkParams::tofu_d()
    }
}

/// Prices exchange phases for the distributed planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkModel {
    pub params: LinkParams,
}

impl LinkModel {
    pub fn new(params: LinkParams) -> LinkModel {
        LinkModel { params }
    }

    /// Time for one point-to-point message of `bytes` over a single
    /// link: α + bytes·β.
    pub fn message_time(&self, bytes: u64) -> f64 {
        self.params.latency_s + bytes as f64 / self.params.link_bw
    }

    /// Time for a rank to push `messages` messages totalling `bytes`
    /// through its node interface. Latency charges overlap across the
    /// node's links; the byte volume is bounded by injection bandwidth.
    pub fn exchange_time(&self, messages: u64, bytes: u64) -> f64 {
        let lat = messages as f64 * self.params.latency_s / f64::from(self.params.links_per_node);
        lat + bytes as f64 / self.params.injection_bw()
    }

    /// Model time in nanoseconds for one recorded exchange span
    /// (a single logical message of `bytes`): the quantity telemetry
    /// stores in `Span::model_ns` so drift reports can compare wire
    /// time against the α–β prediction.
    pub fn span_ns(&self, bytes: u64) -> f64 {
        self.exchange_time(1, bytes) * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofu_d_figures() {
        let p = LinkParams::tofu_d();
        assert_eq!(p.latency_s, 0.5e-6);
        assert_eq!(p.link_bw, 6.8e9);
        assert_eq!(p.links_per_node, 4);
        assert!((p.injection_bw() - 27.2e9).abs() < 1e-3);
    }

    #[test]
    fn message_time_is_alpha_beta() {
        let m = LinkModel::default();
        // Zero bytes costs exactly the latency.
        assert_eq!(m.message_time(0), 0.5e-6);
        // 6.8 GB costs latency + one second of a single link.
        let t = m.message_time(6_800_000_000);
        assert!((t - 1.0 - 0.5e-6).abs() < 1e-12);
    }

    #[test]
    fn exchange_time_uses_injection_bandwidth() {
        let m = LinkModel::default();
        // 27.2 GB across the node takes ~1 s of bandwidth time.
        let t = m.exchange_time(4, 27_200_000_000);
        let lat = 4.0 * 0.5e-6 / 4.0;
        assert!((t - 1.0 - lat).abs() < 1e-9);
    }

    #[test]
    fn more_messages_cost_more_latency() {
        let m = LinkModel::default();
        let few = m.exchange_time(1, 1 << 20);
        let many = m.exchange_time(64, 1 << 20);
        assert!(many > few);
        // Same bytes: the difference is pure latency.
        let d = many - few;
        assert!((d - 63.0 * 0.5e-6 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn span_pricing_matches_exchange_time() {
        let m = LinkModel::default();
        let bytes = 1u64 << 20;
        assert_eq!(m.span_ns(bytes), m.exchange_time(1, bytes) * 1e9);
    }
}
