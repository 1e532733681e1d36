//! Ranks, the world, and point-to-point messaging.
//!
//! Two transport modes share one API:
//!
//! * **Fast path** (no [`FaultPlan`]): sends are buffered channel pushes
//!   and receives are tag-matched channel pops — zero per-message
//!   overhead beyond the channel itself. A slice is copied into the
//!   message; a [`Buffer`] is the message: the sender gives it up and
//!   the receiver gets the same allocation back.
//! * **Reliable path** (a plan attached via [`World::run_faulted`]):
//!   every data message carries a sequence number and an FNV-1a payload
//!   checksum,
//!   and the sender runs stop-and-wait ARQ — transmit, await an
//!   acknowledgement (pumping its own inbox meanwhile so peers are never
//!   starved), and retransmit with exponential backoff when the ACK
//!   deadline passes. Receivers discard corrupt envelopes (no ACK ⇒ the
//!   sender retries) and duplicate envelopes (re-ACK ⇒ a sender stuck on
//!   that sequence advances), so injected drops, delays, duplications,
//!   and bit-flips are all survived and the delivered byte stream is
//!   identical to a fault-free run.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::datatype::{from_bytes, to_bytes, Buffer, Pod};
use crate::fault::{fnv1a, FaultPlan};
use crate::stats::{CommStats, WorldStats};

/// Wildcard source for [`Comm::recv_any`] matching (MPI_ANY_SOURCE).
pub const ANY_SOURCE: usize = usize::MAX;

/// How long a receive waits before declaring the world wedged. Generous
/// enough for any legitimate in-process transfer; finite so a panicked
/// peer cannot hang `World::run`'s join forever.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Transport failures surfaced by the `try_*` operations (the panicking
/// wrappers render these as messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The reliable transport exhausted its retry budget without an
    /// acknowledgement — the peer is gone or never posted a receive.
    RetriesExhausted { dest: usize, tag: u32, attempts: u32 },
    /// A receive waited [`RECV_TIMEOUT`] without a matching message.
    Timeout { src: usize, tag: u32 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RetriesExhausted { dest, tag, attempts } => write!(
                f,
                "no acknowledgement from rank {dest} (tag {tag:#x}) after {attempts} attempts"
            ),
            CommError::Timeout { src, tag } => {
                write!(f, "timed out waiting for a message from rank {src} (tag {tag:#x})")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Whether an envelope carries application data or an acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Data,
    Ack,
}

/// What a message carries.
pub(crate) enum Payload {
    /// A copy of the sent elements' bytes.
    Bytes(Vec<u8>),
    /// A [`Buffer`] the sender gave up (fast path only), with the size
    /// of its wire form.
    Moved(Box<dyn Any + Send>, usize),
}

impl Payload {
    /// Bytes on the wire.
    fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Moved(_, len) => *len,
        }
    }
}

/// One in-flight message.
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u32,
    pub payload: Payload,
    /// Per-(src, dest) sequence number (reliable path; 0 on fast path).
    pub seq: u64,
    pub kind: Kind,
    /// FNV-1a 64 of `payload` (reliable path; 0 on fast path).
    pub checksum: u64,
    /// Injected delivery delay: the receiver parks the envelope until
    /// this instant (fault injection only).
    pub deliver_after: Option<Instant>,
}

/// What one pump step produced.
enum Pumped {
    /// A verified data envelope was moved to the stash.
    Delivered,
    /// An acknowledgement for `(src, seq)` arrived.
    Ack { src: usize, seq: u64 },
}

/// The world: a fixed set of ranks connected all-to-all.
pub struct World;

impl World {
    /// Run `f(comm)` on `n_ranks` rank threads and collect the per-rank
    /// return values in rank order, on the zero-overhead fast path (no
    /// [`FaultPlan`]).
    ///
    /// Panics in any rank propagate after all ranks have been joined, so a
    /// failing test reports the original panic message.
    pub fn run<T, F>(n_ranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        World::run_faulted(n_ranks, None, f)
    }

    /// Like [`World::run`] with an optional fault plan (`None` is the
    /// fast path).
    pub fn run_faulted<T, F>(n_ranks: usize, plan: Option<FaultPlan>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(n_ranks >= 1, "a world needs at least one rank");
        let mut txs = Vec::with_capacity(n_ranks);
        let mut rxs = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let (tx, rx) = unbounded::<Envelope>();
            txs.push(tx);
            rxs.push(Some(rx));
        }
        let world_stats = Arc::new(WorldStats::new(n_ranks));
        let plan = plan.map(Arc::new);
        let f_ref = &f;
        let txs_ref = &txs;
        let stats_ref = &world_stats;
        let plan_ref = &plan;

        let mut results: Vec<Option<T>> = (0..n_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_ranks);
            for (rank, rx) in rxs.iter_mut().enumerate() {
                let rx = rx.take().expect("each rank consumes its receiver once");
                handles.push(scope.spawn(move || {
                    let mut comm = Comm {
                        rank,
                        size: n_ranks,
                        senders: txs_ref.clone(),
                        inbox: rx,
                        stash: VecDeque::new(),
                        stats: CommStats::default(),
                        world_stats: stats_ref.clone(),
                        plan: plan_ref.clone(),
                        next_seq: vec![0; n_ranks],
                        expected_seq: vec![0; n_ranks],
                        delayed: Vec::new(),
                    };
                    let out = f_ref(&mut comm);
                    comm.world_stats.absorb(comm.rank, &comm.stats);
                    out
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => results[rank] = Some(v),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        results.into_iter().map(|r| r.expect("joined rank has a result")).collect()
    }

    /// Like [`World::run`], but also returns the aggregated communication
    /// statistics of the whole run.
    pub fn run_with_stats<T, F>(n_ranks: usize, f: F) -> (Vec<T>, Vec<CommStats>)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        World::run_faulted_with_stats(n_ranks, None, f)
    }

    /// [`World::run_faulted`] + per-rank statistics.
    pub fn run_faulted_with_stats<T, F>(
        n_ranks: usize,
        plan: Option<FaultPlan>,
        f: F,
    ) -> (Vec<T>, Vec<CommStats>)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let stats_out = Arc::new(WorldStats::new(n_ranks));
        let stats_for_closure = stats_out.clone();
        let results = World::run_faulted(n_ranks, plan, move |comm| {
            let out = f(comm);
            // Snapshot this rank's stats into the shared collector before
            // the rank finishes (World::run's own collector is private).
            stats_for_closure.absorb(comm.rank, &comm.stats);
            out
        });
        let per_rank = stats_out.snapshot();
        (results, per_rank)
    }
}

/// A rank's communicator: its identity plus channels to every peer.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Received-but-unmatched messages (MPI's unexpected-message queue).
    stash: VecDeque<Envelope>,
    pub(crate) stats: CommStats,
    world_stats: Arc<WorldStats>,
    /// Reliable-transport mode: checksums, ACKs, retries, fault draws.
    plan: Option<Arc<FaultPlan>>,
    /// Reliable path: next sequence number per destination.
    next_seq: Vec<u64>,
    /// Reliable path: next expected sequence number per source.
    expected_seq: Vec<u64>,
    /// Envelopes with an injected delay, parked until they mature.
    delayed: Vec<Envelope>,
}

impl Comm {
    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Communication statistics of this rank so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The fault plan this world runs under, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_deref()
    }

    /// Send `data` to `dest` with `tag`. On the fast path this is
    /// buffered and never blocks (an eager-protocol MPI send below the
    /// rendezvous threshold); under a fault plan it blocks until the
    /// receiver acknowledges the (possibly retransmitted) message.
    /// Panics when the transport gives up; see [`Comm::try_send`].
    pub fn send<T: Pod>(&mut self, dest: usize, tag: u32, data: &[T]) {
        self.try_send(dest, tag, data).unwrap_or_else(|e| {
            panic!("rank {} send failed: {e}", self.rank);
        });
    }

    /// Fallible send: returns [`CommError::RetriesExhausted`] instead of
    /// panicking when the reliable transport runs out of attempts.
    pub fn try_send<T: Pod>(&mut self, dest: usize, tag: u32, data: &[T]) -> Result<(), CommError> {
        assert!(dest < self.size, "send to rank {dest} outside world of {}", self.size);
        let payload = to_bytes(data);
        self.stats.record_send(dest, payload.len());
        if self.plan.is_some() {
            return self.send_reliable(dest, tag, payload);
        }
        self.push(dest, tag, Payload::Bytes(payload));
        Ok(())
    }

    /// Send `buf` itself to `dest`: on the fast path the receiver of a
    /// [`Comm::try_recv_owned`] gets this very allocation and nothing is
    /// copied; under a fault plan its elements are copied and sent as by
    /// [`Comm::try_send`]. Bytes and messages count as for the slice.
    pub fn try_send_owned<B: Buffer>(
        &mut self,
        dest: usize,
        tag: u32,
        buf: B,
    ) -> Result<(), CommError> {
        if self.plan.is_some() {
            return self.try_send(dest, tag, buf.elems());
        }
        assert!(dest < self.size, "send to rank {dest} outside world of {}", self.size);
        let len = std::mem::size_of_val(buf.elems());
        self.stats.record_send(dest, len);
        self.push(dest, tag, Payload::Moved(Box::new(buf), len));
        Ok(())
    }

    /// Fast-path delivery: one channel push.
    fn push(&self, dest: usize, tag: u32, payload: Payload) {
        let env = Envelope {
            src: self.rank,
            tag,
            payload,
            seq: 0,
            kind: Kind::Data,
            checksum: 0,
            deliver_after: None,
        };
        self.senders[dest]
            .send(env)
            .expect("receiving rank has exited with messages still in flight");
    }

    /// Stop-and-wait ARQ: transmit with injected faults, await the ACK
    /// (pumping the inbox so peers progress), retransmit on timeout.
    fn send_reliable(&mut self, dest: usize, tag: u32, payload: Vec<u8>) -> Result<(), CommError> {
        let plan = self.plan.clone().expect("reliable path requires a plan");
        let seq = self.next_seq[dest];
        self.next_seq[dest] = seq + 1;
        let checksum = fnv1a(&payload);
        let src = self.rank;
        let data = |payload, deliver_after| Envelope {
            src,
            tag,
            payload: Payload::Bytes(payload),
            seq,
            kind: Kind::Data,
            checksum,
            deliver_after,
        };
        let attempts = plan.max_retries + 1;
        for attempt in 0..attempts {
            let final_attempt = attempt + 1 == attempts;
            let draw = plan.draw(self.rank, dest, seq, attempt, final_attempt);
            if let Some(stall) = draw.stall {
                self.stats.faults_injected += 1;
                std::thread::sleep(stall);
            }
            if draw.drop {
                self.stats.faults_injected += 1;
            } else {
                let mut delivered = payload.clone();
                if let Some(bit) = draw.flip_bit {
                    if !delivered.is_empty() {
                        let b = (bit % (delivered.len() as u64 * 8)) as usize;
                        delivered[b / 8] ^= 1 << (b % 8);
                        self.stats.faults_injected += 1;
                    }
                }
                let deliver_after = draw.delay.map(|d| {
                    self.stats.faults_injected += 1;
                    Instant::now() + d
                });
                let dup = draw.duplicate.then(|| delivered.clone());
                // Best-effort pushes: reliability comes from the ACK, so
                // a peer that already exited just means no ACK arrives.
                let _ = self.senders[dest].send(data(delivered, deliver_after));
                if let Some(d) = dup {
                    self.stats.faults_injected += 1;
                    let _ = self.senders[dest].send(data(d, deliver_after));
                }
            }
            if self.await_ack(dest, seq, plan.timeout_for_attempt(attempt)) {
                return Ok(());
            }
            self.stats.ack_timeouts += 1;
            if !final_attempt {
                self.stats.retries += 1;
            }
        }
        Err(CommError::RetriesExhausted { dest, tag, attempts })
    }

    /// Pump the inbox until the ACK for `(dest, seq)` arrives or the
    /// deadline passes. Data delivered meanwhile lands in the stash;
    /// stale ACKs (earlier sequences, already satisfied) are dropped.
    fn await_ack(&mut self, dest: usize, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.pump_until(deadline) {
                Some(Pumped::Ack { src, seq: s }) if src == dest && s == seq => return true,
                Some(_) => continue,
                None => return false,
            }
        }
    }

    /// Take one step of envelope intake: deliver a matured delayed
    /// envelope or block on the inbox until `deadline`. Returns `None`
    /// at the deadline with nothing admitted.
    fn pump_until(&mut self, deadline: Instant) -> Option<Pumped> {
        loop {
            let now = Instant::now();
            if let Some(pos) =
                self.delayed.iter().position(|e| e.deliver_after.is_none_or(|t| t <= now))
            {
                let env = self.delayed.swap_remove(pos);
                if let Some(p) = self.admit(env) {
                    return Some(p);
                }
                continue;
            }
            if now >= deadline {
                return None;
            }
            // Wake early if a parked envelope matures before the deadline.
            let wake = self
                .delayed
                .iter()
                .filter_map(|e| e.deliver_after)
                .min()
                .map_or(deadline, |t| t.min(deadline));
            match self.inbox.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(env) => {
                    if env.deliver_after.is_some_and(|t| t > Instant::now()) {
                        self.delayed.push(env);
                        continue;
                    }
                    if let Some(p) = self.admit(env) {
                        return Some(p);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("world torn down while rank {} still waiting in recv", self.rank)
                }
            }
        }
    }

    /// Verify, deduplicate, acknowledge, and stash one incoming
    /// envelope. `None` when the envelope was discarded.
    fn admit(&mut self, env: Envelope) -> Option<Pumped> {
        match env.kind {
            Kind::Ack => Some(Pumped::Ack { src: env.src, seq: env.seq }),
            Kind::Data => {
                let Payload::Bytes(bytes) = &env.payload else {
                    unreachable!("moved buffers never take the reliable path")
                };
                if fnv1a(bytes) != env.checksum {
                    // Corrupt in flight: drop without ACK so the sender's
                    // deadline passes and it retransmits.
                    self.stats.corrupt_dropped += 1;
                    return None;
                }
                let src = env.src;
                if env.seq < self.expected_seq[src] {
                    // Duplicate (injected, or a retransmission racing its
                    // own ACK): re-acknowledge so a sender still waiting
                    // on this sequence advances, then discard.
                    self.stats.duplicates_dropped += 1;
                    self.send_ack(src, env.tag, env.seq);
                    return None;
                }
                debug_assert_eq!(
                    env.seq, self.expected_seq[src],
                    "stop-and-wait sender cannot run ahead of the receiver"
                );
                self.expected_seq[src] = env.seq + 1;
                self.send_ack(src, env.tag, env.seq);
                self.stash.push_back(env);
                Some(Pumped::Delivered)
            }
        }
    }

    /// Acknowledgements ride the same channels but are never faulted —
    /// they model the (tiny, hardware-checksummed) protocol traffic, not
    /// application payloads.
    fn send_ack(&mut self, to: usize, tag: u32, seq: u64) {
        let _ = self.senders[to].send(Envelope {
            src: self.rank,
            tag,
            payload: Payload::Bytes(Vec::new()),
            seq,
            kind: Kind::Ack,
            checksum: 0,
            deliver_after: None,
        });
    }

    /// Pop the first stashed envelope matching `(src, tag)`.
    fn take_stashed(&mut self, src: usize, tag: u32) -> Option<Envelope> {
        let pos =
            self.stash.iter().position(|e| (src == ANY_SOURCE || e.src == src) && e.tag == tag)?;
        Some(self.stash.remove(pos).expect("position is valid"))
    }

    /// Blocking receive of a message from `src` (or [`ANY_SOURCE`]) with
    /// matching `tag`. Returns `(actual_source, data)`. Panics when the
    /// world is wedged; see [`Comm::try_recv_any`].
    pub fn recv_any<T: Pod>(&mut self, src: usize, tag: u32) -> (usize, Vec<T>) {
        self.try_recv_any(src, tag).unwrap_or_else(|e| {
            panic!(
                "rank {} waited {RECV_TIMEOUT:?} for a message from rank {src} (tag {tag}): \
                 deadlock, or a peer rank exited/panicked ({e})",
                self.rank
            )
        })
    }

    /// Fallible blocking receive: [`CommError::Timeout`] after
    /// [`RECV_TIMEOUT`] instead of a panic.
    pub fn try_recv_any<T: Pod>(
        &mut self,
        src: usize,
        tag: u32,
    ) -> Result<(usize, Vec<T>), CommError> {
        match self.try_recv_payload(src, tag)? {
            (src, Payload::Bytes(bytes)) => Ok((src, from_bytes(&bytes))),
            (_, Payload::Moved(..)) => {
                panic!("rank {} received a moved buffer as a slice", self.rank)
            }
        }
    }

    /// Receive a [`Buffer`] sent with [`Comm::try_send_owned`]: on the
    /// fast path the sender's own allocation, read in place; otherwise
    /// one rebuilt from the copied elements. Returns `(source, buffer)`.
    ///
    /// Panics if the matched message moved a buffer of another type —
    /// a sender/receiver type mismatch, as a length mismatch is for
    /// [`Comm::recv`].
    pub fn try_recv_owned<B: Buffer>(
        &mut self,
        src: usize,
        tag: u32,
    ) -> Result<(usize, B), CommError> {
        let (src, payload) = self.try_recv_payload(src, tag)?;
        let buf = match payload {
            Payload::Moved(buf, _) => *buf.downcast::<B>().unwrap_or_else(|_| {
                panic!("rank {} received a moved buffer of another type", self.rank)
            }),
            Payload::Bytes(bytes) => B::from_elems(&from_bytes(&bytes)),
        };
        Ok((src, buf))
    }

    /// The one matching receive: the payload of the first message from
    /// `src` (or [`ANY_SOURCE`]) with `tag`, and its actual source.
    fn try_recv_payload(&mut self, src: usize, tag: u32) -> Result<(usize, Payload), CommError> {
        // First scan the stash for an already-arrived match (FIFO per
        // (src, tag) pair preserves MPI ordering).
        if let Some(env) = self.take_stashed(src, tag) {
            self.stats.record_recv(env.src, env.payload.len());
            return Ok((env.src, env.payload));
        }
        if self.plan.is_some() {
            // Reliable path: all intake funnels through the pump (which
            // verifies, deduplicates, and ACKs), then the stash is
            // re-scanned after every delivery.
            let deadline = Instant::now() + RECV_TIMEOUT;
            loop {
                match self.pump_until(deadline) {
                    Some(Pumped::Delivered) => {
                        if let Some(env) = self.take_stashed(src, tag) {
                            self.stats.record_recv(env.src, env.payload.len());
                            return Ok((env.src, env.payload));
                        }
                    }
                    // A stale ACK from an already-completed send.
                    Some(Pumped::Ack { .. }) => continue,
                    None => return Err(CommError::Timeout { src, tag }),
                }
            }
        }
        loop {
            // A bounded wait instead of a blocking recv: if a peer rank
            // panicked (or the program deadlocked), an unbounded recv
            // would hang the whole world forever, because thread::scope
            // cannot join the blocked rank. Timing out converts that
            // into a diagnosable error on this rank.
            let env = match self.inbox.recv_timeout(RECV_TIMEOUT) {
                Ok(env) => env,
                Err(RecvTimeoutError::Timeout) => return Err(CommError::Timeout { src, tag }),
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("world torn down while rank {} still waiting in recv", self.rank)
                }
            };
            if (src == ANY_SOURCE || env.src == src) && env.tag == tag {
                self.stats.record_recv(env.src, env.payload.len());
                return Ok((env.src, env.payload));
            }
            self.stash.push_back(env);
        }
    }

    /// Blocking receive from a specific source.
    pub fn recv<T: Pod>(&mut self, src: usize, tag: u32) -> Vec<T> {
        self.recv_any(src, tag).1
    }

    /// Combined send+receive with the same peer (MPI_Sendrecv) — the
    /// primitive of the distributed state-vector pair exchange. Deadlock
    /// free because sends are buffered (fast path) or pump the inbox
    /// while awaiting acknowledgement (reliable path).
    pub fn sendrecv<T: Pod>(&mut self, peer: usize, tag: u32, data: &[T]) -> Vec<T> {
        self.send(peer, tag, data);
        self.recv(peer, tag)
    }

    /// Fallible [`Comm::sendrecv`]: transport failures come back as
    /// [`CommError`] so callers (the distributed engine) can attempt
    /// recovery instead of tearing the world down.
    pub fn try_sendrecv<T: Pod>(
        &mut self,
        peer: usize,
        tag: u32,
        data: &[T],
    ) -> Result<Vec<T>, CommError> {
        self.try_send(peer, tag, data)?;
        Ok(self.try_recv_any(peer, tag)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_every_rank() {
        let ranks = World::run(8, |c| c.rank());
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn size_visible_to_ranks() {
        let sizes = World::run(5, |c| c.size());
        assert!(sizes.iter().all(|&s| s == 5));
    }

    #[test]
    fn ring_pass() {
        // Each rank sends its rank to the next; sum arrives back at 0.
        let results = World::run(6, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, &[c.rank() as u64]);
            let got = c.recv::<u64>(prev, 7);
            got[0]
        });
        let mut sorted = results.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).map(|r| r as u64).collect::<Vec<_>>());
    }

    #[test]
    fn tag_matching_reorders() {
        // Rank 0 sends tag 1 then tag 2; rank 1 receives tag 2 first.
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[11u32]);
                c.send(1, 2, &[22u32]);
            } else {
                let two = c.recv::<u32>(0, 2);
                let one = c.recv::<u32>(0, 1);
                assert_eq!(two, vec![22]);
                assert_eq!(one, vec![11]);
            }
        });
    }

    #[test]
    fn fifo_order_within_tag() {
        World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u32 {
                    c.send(1, 0, &[i]);
                }
            } else {
                for i in 0..100u32 {
                    assert_eq!(c.recv::<u32>(0, 0), vec![i]);
                }
            }
        });
    }

    #[test]
    fn any_source_receives_from_all() {
        World::run(4, |c| {
            if c.rank() == 0 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..3 {
                    let (src, data) = c.recv_any::<u64>(ANY_SOURCE, 9);
                    assert_eq!(data[0] as usize, src);
                    seen.insert(src);
                }
                assert_eq!(seen.len(), 3);
            } else {
                c.send(0, 9, &[c.rank() as u64]);
            }
        });
    }

    #[test]
    fn sendrecv_pairwise_exchange() {
        let results = World::run(4, |c| {
            let peer = c.rank() ^ 1;
            let got = c.sendrecv(peer, 3, &[c.rank() as u64 * 10]);
            got[0]
        });
        assert_eq!(results, vec![10, 0, 30, 20]);
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let (_, stats) = World::run_with_stats(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, &[0u8; 1000]);
            } else {
                let _ = c.recv::<u8>(0, 0);
            }
        });
        assert_eq!(stats[0].bytes_sent, 1000);
        assert_eq!(stats[0].messages_sent, 1);
        assert_eq!(stats[1].bytes_received, 1000);
    }

    #[test]
    fn single_rank_world() {
        let r = World::run(1, |c| {
            assert_eq!(c.size(), 1);
            42
        });
        assert_eq!(r, vec![42]);
    }

    #[test]
    fn self_send() {
        World::run(1, |c| {
            c.send(0, 5, &[1.25f64, 2.5]);
            assert_eq!(c.recv::<f64>(0, 5), vec![1.25, 2.5]);
        });
    }

    impl<T: Pod> Buffer for Vec<T> {
        type Elem = T;
        fn elems(&self) -> &[T] {
            self
        }
        fn from_elems(elems: &[T]) -> Vec<T> {
            elems.to_vec()
        }
    }

    #[test]
    fn owned_buffers_arrive_as_the_senders_allocation() {
        // Each rank moves a buffer to its partner and gets the partner's
        // allocation back, the address it had on the sending rank.
        let got = World::run(4, |c| {
            let peer = c.rank() ^ 1;
            let buf: Vec<u64> = (0..1000).map(|i| i * 10 + c.rank() as u64).collect();
            let sent_at = buf.as_ptr() as usize;
            c.try_send_owned(peer, 4, buf).unwrap();
            let (src, back) = c.try_recv_owned::<Vec<u64>>(peer, 4).unwrap();
            assert_eq!(src, peer);
            (sent_at, back.as_ptr() as usize, back)
        });
        for (rank, (_, at, back)) in got.iter().enumerate() {
            let peer = rank ^ 1;
            assert_eq!(*at, got[peer].0, "rank {rank} got a copy, not rank {peer}'s buffer");
            assert_eq!(*back, (0..1000).map(|i| i * 10 + peer as u64).collect::<Vec<_>>());
        }
    }

    /// Rank 0 sends three 300-`f64` buffers to rank 1, moved or as
    /// slices, and rank 1 receives them as buffers: what arrived, and
    /// the per-rank statistics.
    fn three_buffers(plan: Option<FaultPlan>, moved: bool) -> (Vec<Vec<f64>>, Vec<CommStats>) {
        World::run_faulted_with_stats(2, plan, move |c| {
            let data: Vec<f64> = (0..300).map(|i| i as f64 * 0.5 - 7.0).collect();
            if c.rank() == 0 {
                for _ in 0..3 {
                    if moved {
                        c.try_send_owned(1, 8, data.clone()).unwrap();
                    } else {
                        c.send(1, 8, &data);
                    }
                }
                Vec::new()
            } else {
                (0..3).flat_map(|_| c.try_recv_owned::<Vec<f64>>(0, 8).unwrap().1).collect()
            }
        })
    }

    /// Same values, same logical traffic.
    fn assert_same_delivery(
        got: &(Vec<Vec<f64>>, Vec<CommStats>),
        want: &(Vec<Vec<f64>>, Vec<CommStats>),
    ) {
        assert_eq!(got.0, want.0);
        assert_eq!(want.0[1].len(), 900);
        for (g, w) in got.1.iter().zip(&want.1) {
            assert_eq!((g.bytes_sent, g.messages_sent), (w.bytes_sent, w.messages_sent));
            assert_eq!(
                (g.bytes_received, g.messages_received),
                (w.bytes_received, w.messages_received)
            );
        }
    }

    #[test]
    fn owned_sends_count_and_deliver_as_slices_do() {
        // A buffer received from a slice send is rebuilt from its
        // elements; a moved one counts the bytes the slice would.
        assert_same_delivery(&three_buffers(None, true), &three_buffers(None, false));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn faulted_owned_sends_are_copied_and_delivered_exactly() {
        // Under a fault plan a moved buffer takes the reliable path as a
        // copy, and arrives as the fault-free run's does.
        let clean = three_buffers(None, false);
        for (plan, moved) in [(aggressive_plan(5), true), (aggressive_plan(6), false)] {
            assert_same_delivery(&three_buffers(Some(plan), moved), &clean);
        }
    }

    #[test]
    #[should_panic(expected = "moved buffer of another type")]
    fn owned_buffer_of_the_wrong_type_is_refused() {
        World::run(2, |c| {
            if c.rank() == 0 {
                c.try_send_owned(1, 2, vec![1u32, 2]).unwrap();
            } else {
                let _ = c.try_recv_owned::<Vec<u64>>(0, 2);
            }
        });
    }

    /// An aggressive plan with every fault class active but short
    /// delays, so faulted tests stay fast.
    fn aggressive_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            drop_p: 0.25,
            dup_p: 0.25,
            flip_p: 0.25,
            delay_p: 0.25,
            delay: Duration::from_micros(300),
            stall_p: 0.05,
            stall: Duration::from_micros(200),
            ack_timeout: Duration::from_millis(5),
            ..FaultPlan::default_intensity(seed)
        }
    }

    #[test]
    fn faulted_transfer_delivers_exact_payload() {
        let payload: Vec<u64> = (0..512).map(|i| i * 0x9E37_79B9).collect();
        let expect = payload.clone();
        let results = World::run_faulted(2, Some(aggressive_plan(42)), move |c| {
            if c.rank() == 0 {
                for chunk in payload.chunks(64) {
                    c.send(1, 4, chunk);
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..8 {
                    got.extend(c.recv::<u64>(0, 4));
                }
                got
            }
        });
        assert_eq!(results[1], expect, "ARQ must deliver the exact byte stream");
    }

    #[test]
    fn faulted_ring_matches_fault_free() {
        let run = |plan: Option<FaultPlan>| {
            World::run_faulted(4, plan, |c| {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                let mut token = vec![c.rank() as u64];
                for _ in 0..5 {
                    c.send(next, 1, &token);
                    token = c.recv::<u64>(prev, 1);
                    token[0] += 1;
                }
                token[0]
            })
        };
        assert_eq!(run(Some(aggressive_plan(7))), run(None));
    }

    #[test]
    fn faulted_run_records_recovery_work() {
        // With 25% drops and bit-flips over many messages, the transport
        // must have retried at least once — and the logical counters must
        // still match the fault-free run exactly.
        let exercise = |plan: Option<FaultPlan>| {
            World::run_faulted_with_stats(2, plan, |c| {
                if c.rank() == 0 {
                    for i in 0..40u32 {
                        c.send(1, 2, &[i; 16]);
                    }
                } else {
                    for _ in 0..40 {
                        let _ = c.recv::<u32>(0, 2);
                    }
                }
            })
        };
        let (_, faulted) = exercise(Some(aggressive_plan(11)));
        let (_, clean) = exercise(None);
        assert!(faulted[0].retries > 0, "a 25% drop rate must force retries");
        assert!(faulted[0].faults_injected > 0);
        assert_eq!(faulted[0].bytes_sent, clean[0].bytes_sent, "logical bytes are fault-invariant");
        assert_eq!(faulted[0].messages_sent, clean[0].messages_sent);
        assert_eq!(faulted[1].bytes_received, clean[1].bytes_received);
        assert_eq!(faulted[1].messages_received, clean[1].messages_received);
    }

    #[test]
    fn duplicates_are_discarded_once() {
        let plan = FaultPlan {
            dup_p: 1.0,
            ack_timeout: Duration::from_millis(10),
            ..FaultPlan::default()
        };
        let (results, stats) = World::run_faulted_with_stats(2, Some(plan), |c| {
            if c.rank() == 0 {
                for i in 0..10u32 {
                    c.send(1, 3, &[i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv::<u32>(0, 3)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<u32>>());
        // The duplicate of the final message may still sit unread in the
        // inbox when the receiver finishes, so 9 is the guaranteed floor.
        assert!(stats[1].duplicates_dropped >= 9, "every message was duplicated");
    }

    #[test]
    fn corruption_is_detected_and_retransmitted() {
        let plan = FaultPlan {
            flip_p: 1.0,
            ack_timeout: Duration::from_millis(5),
            max_retries: 2,
            ..FaultPlan::default()
        };
        let (results, stats) = World::run_faulted_with_stats(2, Some(plan), |c| {
            if c.rank() == 0 {
                c.send(1, 6, &[0xDEAD_BEEFu64; 32]);
                0
            } else {
                c.recv::<u64>(0, 6)[0]
            }
        });
        // Every non-final attempt is corrupted; the healed final attempt
        // delivers the exact payload.
        assert_eq!(results[1], 0xDEAD_BEEF);
        assert!(stats[1].corrupt_dropped >= 1);
        assert!(stats[0].retries >= 1);
    }

    #[test]
    fn faulted_self_send() {
        World::run_faulted(1, Some(aggressive_plan(3)), |c| {
            c.send(0, 5, &[9.75f64]);
            assert_eq!(c.recv::<f64>(0, 5), vec![9.75]);
        });
    }

    #[test]
    fn unreceived_send_exhausts_retries() {
        let plan = FaultPlan {
            ack_timeout: Duration::from_millis(2),
            max_retries: 2,
            ..FaultPlan::default()
        };
        let errs = World::run_faulted(2, Some(plan), |c| {
            if c.rank() == 0 {
                // Rank 1 never posts a receive: the ACK never comes.
                c.try_send(1, 9, &[1u8]).err()
            } else {
                None
            }
        });
        assert_eq!(errs[0], Some(CommError::RetriesExhausted { dest: 1, tag: 9, attempts: 3 }));
    }

    #[test]
    fn zero_fault_plan_matches_fast_path_results() {
        let run = |plan: Option<FaultPlan>| {
            World::run_faulted_with_stats(4, plan, |c| {
                let peer = c.rank() ^ 1;
                c.sendrecv(peer, 3, &[c.rank() as u64; 8])
            })
        };
        let (reliable, rstats) = run(Some(FaultPlan::default()));
        let (fast, fstats) = run(None);
        assert_eq!(reliable, fast);
        for (r, f) in rstats.iter().zip(&fstats) {
            assert_eq!(r.bytes_sent, f.bytes_sent);
            assert_eq!(r.messages_sent, f.messages_sent);
            assert_eq!(r.retries, 0);
            assert_eq!(r.faults_injected, 0);
        }
    }
}
