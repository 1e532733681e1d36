//! Communication accounting.
//!
//! Every byte a rank sends or receives is recorded here;
//! `a64fx_model::LinkModel` converts these totals into predicted Tofu-D
//! time. This is the bridge
//! between "what the algorithm communicated" (exact, measured in-process)
//! and "what it would cost on the real interconnect" (modelled).

use parking_lot::Mutex;

/// Per-rank communication counters.
///
/// `messages_*` and `bytes_*` count *logical* traffic — one unit per
/// `send`/`recv` pair regardless of how many physical transmissions the
/// reliable transport needed — so volume accounting is identical between
/// fault-free and fault-injected runs. The resilience counters below
/// record what the transport did to survive injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    pub messages_sent: u64,
    pub messages_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Histogram of destination ranks (index = dest).
    pub sends_by_dest: Vec<u64>,
    /// Retransmissions after a missed acknowledgement.
    pub retries: u64,
    /// Acknowledgement deadlines that expired (each triggers a retry or,
    /// on the final attempt, a transport failure).
    pub ack_timeouts: u64,
    /// Received envelopes discarded for a payload checksum mismatch.
    pub corrupt_dropped: u64,
    /// Received envelopes discarded as duplicates (already-seen seq).
    pub duplicates_dropped: u64,
    /// Faults the plan injected on this rank's outgoing transmissions.
    pub faults_injected: u64,
}

impl CommStats {
    pub(crate) fn record_send(&mut self, dest: usize, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        if self.sends_by_dest.len() <= dest {
            self.sends_by_dest.resize(dest + 1, 0);
        }
        self.sends_by_dest[dest] += 1;
    }

    pub(crate) fn record_recv(&mut self, _src: usize, bytes: usize) {
        self.messages_received += 1;
        self.bytes_received += bytes as u64;
    }

    /// Counters accumulated since `baseline` was snapshotted
    /// (saturating, so a stale baseline cannot underflow).
    ///
    /// The distributed engine uses this for per-phase accounting: snapshot
    /// [`crate::comm::Comm::stats`] before an exchange phase, subtract
    /// after, and the difference is exactly what that phase moved.
    pub fn delta(&self, baseline: &CommStats) -> CommStats {
        let mut sends_by_dest: Vec<u64> = self.sends_by_dest.clone();
        for (d, &n) in baseline.sends_by_dest.iter().enumerate() {
            if d < sends_by_dest.len() {
                sends_by_dest[d] = sends_by_dest[d].saturating_sub(n);
            }
        }
        CommStats {
            messages_sent: self.messages_sent.saturating_sub(baseline.messages_sent),
            messages_received: self.messages_received.saturating_sub(baseline.messages_received),
            bytes_sent: self.bytes_sent.saturating_sub(baseline.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(baseline.bytes_received),
            sends_by_dest,
            retries: self.retries.saturating_sub(baseline.retries),
            ack_timeouts: self.ack_timeouts.saturating_sub(baseline.ack_timeouts),
            corrupt_dropped: self.corrupt_dropped.saturating_sub(baseline.corrupt_dropped),
            duplicates_dropped: self.duplicates_dropped.saturating_sub(baseline.duplicates_dropped),
            faults_injected: self.faults_injected.saturating_sub(baseline.faults_injected),
        }
    }

    /// Merge another rank's counters (for world-level aggregation).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.retries += other.retries;
        self.ack_timeouts += other.ack_timeouts;
        self.corrupt_dropped += other.corrupt_dropped;
        self.duplicates_dropped += other.duplicates_dropped;
        self.faults_injected += other.faults_injected;
        if self.sends_by_dest.len() < other.sends_by_dest.len() {
            self.sends_by_dest.resize(other.sends_by_dest.len(), 0);
        }
        for (d, &n) in other.sends_by_dest.iter().enumerate() {
            self.sends_by_dest[d] += n;
        }
    }
}

/// Shared collector for a whole world's per-rank statistics.
#[derive(Debug)]
pub struct WorldStats {
    per_rank: Mutex<Vec<CommStats>>,
}

impl WorldStats {
    pub fn new(n_ranks: usize) -> WorldStats {
        WorldStats { per_rank: Mutex::new(vec![CommStats::default(); n_ranks]) }
    }

    /// Record rank `rank`'s final counters.
    pub fn absorb(&self, rank: usize, stats: &CommStats) {
        let mut g = self.per_rank.lock();
        g[rank] = stats.clone();
    }

    /// Snapshot all ranks' counters.
    pub fn snapshot(&self) -> Vec<CommStats> {
        self.per_rank.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = CommStats::default();
        a.record_send(3, 100);
        a.record_send(3, 50);
        a.record_recv(1, 10);
        assert_eq!(a.messages_sent, 2);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.sends_by_dest[3], 2);

        let mut b = CommStats::default();
        b.record_send(5, 7);
        b.merge(&a);
        assert_eq!(b.messages_sent, 3);
        assert_eq!(b.bytes_sent, 157);
        assert_eq!(b.sends_by_dest[3], 2);
        assert_eq!(b.sends_by_dest[5], 1);
    }

    #[test]
    fn delta_subtracts_baseline() {
        let mut s = CommStats::default();
        s.record_send(1, 100);
        let base = s.clone();
        s.record_send(1, 50);
        s.record_send(2, 8);
        s.record_recv(1, 30);
        let d = s.delta(&base);
        assert_eq!(d.messages_sent, 2);
        assert_eq!(d.bytes_sent, 58);
        assert_eq!(d.messages_received, 1);
        assert_eq!(d.bytes_received, 30);
        assert_eq!(d.sends_by_dest[1], 1);
        assert_eq!(d.sends_by_dest[2], 1);
        // A stale (larger) baseline saturates instead of underflowing.
        let z = base.delta(&s);
        assert_eq!(z.messages_sent, 0);
        assert_eq!(z.bytes_sent, 0);
    }

    #[test]
    fn world_stats_snapshot() {
        let ws = WorldStats::new(2);
        let mut s = CommStats::default();
        s.record_send(0, 42);
        ws.absorb(1, &s);
        let snap = ws.snapshot();
        assert_eq!(snap[0], CommStats::default());
        assert_eq!(snap[1].bytes_sent, 42);
    }
}
