//! Non-blocking point-to-point operations.
//!
//! MPI codes overlap communication with computation via
//! `MPI_Isend`/`MPI_Irecv` + `MPI_Wait`. In this substrate sends are
//! already asynchronous (buffered channels), so `isend` completes
//! immediately; `irecv` returns a [`RecvRequest`] that the caller
//! completes with [`Comm::wait`] — matching arrives in the same
//! stash-aware order as blocking receives, so mixing blocking and
//! non-blocking traffic is safe.

use crate::comm::Comm;
use crate::datatype::Pod;

/// A pending receive.
///
/// Completed by [`Comm::wait`]; dropping an unwaited request is allowed
/// (the message, when it arrives, stays in the unexpected queue for a
/// later matching receive — MPI would call this a cancelled request).
#[derive(Debug)]
#[must_use = "a receive request does nothing until waited on"]
pub struct RecvRequest {
    pub(crate) src: usize,
    pub(crate) tag: u32,
}

impl Comm {
    /// Non-blocking send. The substrate's sends are buffered, so the
    /// operation completes immediately; provided for API parity with
    /// MPI codes being ported.
    pub fn isend<T: Pod>(&mut self, dest: usize, tag: u32, data: &[T]) {
        self.send(dest, tag, data);
    }

    /// Post a receive for `(src, tag)`; completion is deferred to
    /// [`Comm::wait`]. Use [`crate::comm::ANY_SOURCE`] to match any sender.
    pub fn irecv(&mut self, src: usize, tag: u32) -> RecvRequest {
        RecvRequest { src, tag }
    }

    /// Complete a pending receive, blocking until the message arrives.
    /// Returns `(actual_source, data)`.
    pub fn wait<T: Pod>(&mut self, req: RecvRequest) -> (usize, Vec<T>) {
        self.recv_any(req.src, req.tag)
    }

    /// Fallible [`Comm::wait`]: transport failures surface as
    /// [`crate::comm::CommError`] instead of panicking, for callers with
    /// a rollback path (the resilient distributed engine).
    pub fn try_wait<T: Pod>(
        &mut self,
        req: RecvRequest,
    ) -> Result<(usize, Vec<T>), crate::comm::CommError> {
        self.try_recv_any(req.src, req.tag)
    }

    /// Fallible [`Comm::waitall`]; same request-order contract.
    pub fn try_waitall<T: Pod>(
        &mut self,
        reqs: Vec<RecvRequest>,
    ) -> Result<Vec<(usize, Vec<T>)>, crate::comm::CommError> {
        reqs.into_iter().map(|r| self.try_wait(r)).collect()
    }

    /// Complete a batch of pending receives.
    ///
    /// **Ordering contract:** the result vector is in *request order* —
    /// `result[i]` completes `reqs[i]` — regardless of the order in which
    /// the matching messages actually arrived (late chunks are stashed by
    /// tag and matched when their request comes up). The distributed
    /// overlap engine relies on this to reassemble a chunked exchange by
    /// plain concatenation; do not reorder completions.
    pub fn waitall<T: Pod>(&mut self, reqs: Vec<RecvRequest>) -> Vec<(usize, Vec<T>)> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Split `data` into [`chunk_count`]`(data.len(), want)` nearly even
    /// chunks and send chunk `i` tagged `base_tag + i`. Pair with
    /// [`Comm::irecv_chunked`] on the receiver; concatenating the
    /// [`Comm::waitall`] payloads in request order reassembles `data`.
    pub fn isend_chunked<T: Pod>(&mut self, dest: usize, base_tag: u32, data: &[T], want: usize) {
        let k = chunk_count(data.len(), want);
        let mut offset = 0;
        for i in 0..k {
            let len = data.len() / k + usize::from(i < data.len() % k);
            self.isend(dest, base_tag + i as u32, &data[offset..offset + len]);
            offset += len;
        }
        debug_assert_eq!(offset, data.len());
    }

    /// Post the receives matching an [`Comm::isend_chunked`] of `len`
    /// elements in `want` requested chunks. Complete with
    /// [`Comm::waitall`] and concatenate in request order.
    pub fn irecv_chunked(
        &mut self,
        src: usize,
        base_tag: u32,
        len: usize,
        want: usize,
    ) -> Vec<RecvRequest> {
        (0..chunk_count(len, want)).map(|i| self.irecv(src, base_tag + i as u32)).collect()
    }
}

/// Number of chunks a chunked exchange of `len` elements uses when asked
/// for `want`: at least one message even for an empty buffer, and never
/// more messages than elements.
pub fn chunk_count(len: usize, want: usize) -> usize {
    want.max(1).min(len.max(1))
}

#[cfg(test)]
mod tests {
    use crate::comm::ANY_SOURCE;
    use crate::run_clean_and_faulted;

    #[test]
    fn isend_irecv_roundtrip() {
        run_clean_and_faulted(2, |c| {
            if c.rank() == 0 {
                c.isend(1, 5, &[1.5f64, 2.5]);
            } else {
                let req = c.irecv(0, 5);
                let (src, data) = c.wait::<f64>(req);
                assert_eq!(src, 0);
                assert_eq!(data, vec![1.5, 2.5]);
            }
        });
    }

    #[test]
    fn overlap_computation_with_pending_receive() {
        // The classic pattern: post irecv, compute, then wait.
        let results = run_clean_and_faulted(2, |c| {
            if c.rank() == 0 {
                c.isend(1, 1, &[42u64]);
                0
            } else {
                let req = c.irecv(0, 1);
                // "Computation" happens while the message is in flight.
                let local: u64 = (0..1000).sum();
                let (_, data) = c.wait::<u64>(req);
                local + data[0]
            }
        });
        assert_eq!(results[1], 499500 + 42);
    }

    #[test]
    fn waitall_preserves_request_order() {
        run_clean_and_faulted(3, |c| {
            if c.rank() == 0 {
                let reqs = vec![c.irecv(1, 7), c.irecv(2, 7)];
                let got = c.waitall::<u64>(reqs);
                assert_eq!(got[0], (1, vec![10]));
                assert_eq!(got[1], (2, vec![20]));
            } else {
                let payload = [c.rank() as u64 * 10];
                c.isend(0, 7, &payload);
            }
        });
    }

    #[test]
    fn waitall_returns_request_order_even_for_reversed_arrival() {
        // The sender pushes the chunks backwards; the receiver's waitall
        // must still hand them back in request order (the contract the
        // overlap engine's chunk reassembly depends on).
        run_clean_and_faulted(2, |c| {
            if c.rank() == 0 {
                for tag in (10u32..14).rev() {
                    c.isend(1, tag, &[tag as u64 * 100]);
                }
            } else {
                let reqs: Vec<_> = (10u32..14).map(|t| c.irecv(0, t)).collect();
                let got = c.waitall::<u64>(reqs);
                let vals: Vec<u64> = got.iter().map(|(_, d)| d[0]).collect();
                assert_eq!(vals, vec![1000, 1100, 1200, 1300]);
            }
        });
    }

    #[test]
    fn chunked_exchange_reassembles_by_concatenation() {
        use super::chunk_count;
        assert_eq!(chunk_count(100, 4), 4);
        assert_eq!(chunk_count(3, 8), 3);
        assert_eq!(chunk_count(0, 8), 1);
        assert_eq!(chunk_count(100, 0), 1);
        run_clean_and_faulted(2, |c| {
            let data: Vec<u64> = (0..37).map(|i| i + 1000 * c.rank() as u64).collect();
            let peer = 1 - c.rank();
            c.isend_chunked(peer, 0x100, &data, 5);
            let reqs = c.irecv_chunked(peer, 0x100, data.len(), 5);
            let parts = c.waitall::<u64>(reqs);
            let joined: Vec<u64> = parts.into_iter().flat_map(|(_, d)| d).collect();
            let want: Vec<u64> = (0..37).map(|i| i + 1000 * peer as u64).collect();
            assert_eq!(joined, want);
        });
    }

    #[test]
    fn any_source_request() {
        run_clean_and_faulted(4, |c| {
            if c.rank() == 0 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..3 {
                    let req = c.irecv(ANY_SOURCE, 2);
                    let (src, _) = c.wait::<u8>(req);
                    seen.insert(src);
                }
                assert_eq!(seen.len(), 3);
            } else {
                c.isend(0, 2, &[1u8]);
            }
        });
    }

    #[test]
    fn dropped_request_message_stays_matchable() {
        run_clean_and_faulted(2, |c| {
            if c.rank() == 0 {
                c.isend(1, 9, &[7u32]);
            } else {
                {
                    let _dropped = c.irecv(0, 9);
                } // request cancelled without waiting
                  // A later blocking receive still gets the message.
                assert_eq!(c.recv::<u32>(0, 9), vec![7]);
            }
        });
    }

    #[test]
    fn mixing_blocking_and_nonblocking_traffic() {
        run_clean_and_faulted(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[1u64]);
                c.isend(1, 2, &[2u64]);
                c.send(1, 3, &[3u64]);
            } else {
                // Receive out of order via requests + blocking calls.
                let r3 = c.irecv(0, 3);
                let two = c.recv::<u64>(0, 2);
                let (_, three) = c.wait::<u64>(r3);
                let one = c.recv::<u64>(0, 1);
                assert_eq!((one[0], two[0], three[0]), (1, 2, 3));
            }
        });
    }
}
