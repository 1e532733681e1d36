//! An executable set-associative, write-back, write-allocate cache
//! hierarchy simulator.
//!
//! Used to *validate* the closed-form traffic model in [`crate::traffic`]:
//! the experiment harness replays the exact address stream of a gate
//! kernel at reduced problem sizes through this simulator and compares the
//! line traffic against the analytical formulas (experiment E6).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (A64FX: 256).
    pub line_bytes: usize,
}

impl CacheParams {
    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Per-level access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    pub hits: u64,
    pub misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
}

impl LevelStats {
    /// Total accesses that reached this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio; 0 if the level was never accessed.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// One set-associative cache level with true-LRU replacement and dirty
/// bits.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    /// `sets[s]` holds (tag, dirty) in LRU order: front = most recent.
    sets: Vec<Vec<(u64, bool)>>,
    stats: LevelStats,
}

/// Result of accessing one line in a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    Hit,
    /// Miss; `victim` is the evicted line's address and dirtiness, if a
    /// line was evicted to make room.
    Miss {
        victim: Option<(u64, bool)>,
    },
}

impl Lookup {
    /// Did this access evict a dirty line?
    pub fn evicted_dirty(&self) -> bool {
        matches!(self, Lookup::Miss { victim: Some((_, true)) })
    }
}

impl Cache {
    pub fn new(params: CacheParams) -> Cache {
        assert!(params.line_bytes.is_power_of_two(), "line size must be a power of two");
        let n_sets = params.n_sets();
        assert!(n_sets >= 1, "cache must have at least one set");
        Cache { params, sets: vec![Vec::new(); n_sets], stats: LevelStats::default() }
    }

    pub fn params(&self) -> CacheParams {
        self.params
    }

    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Reset statistics but keep cache contents (for phase-separated
    /// measurement after a warm-up pass).
    pub fn reset_stats(&mut self) {
        self.stats = LevelStats::default();
    }

    /// Drop all contents and statistics.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = LevelStats::default();
    }

    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let n_sets = self.sets.len() as u64;
        ((line_addr % n_sets) as usize, line_addr / n_sets)
    }

    /// Collect every dirty line's address, clearing the dirty bits and
    /// counting the writebacks (an explicit flush, e.g. at stream end).
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let n_sets = self.sets.len() as u64;
        let mut out = Vec::new();
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for (tag, dirty) in set.iter_mut() {
                if *dirty {
                    *dirty = false;
                    self.stats.writebacks += 1;
                    out.push(*tag * n_sets + set_idx as u64);
                }
            }
        }
        out
    }

    /// Access the line containing `line_addr` (already divided by line
    /// size). `write` marks the line dirty on hit or fill.
    pub fn access_line(&mut self, line_addr: u64, write: bool) -> Lookup {
        let n_sets = self.sets.len() as u64;
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (t, dirty) = set.remove(pos);
            set.insert(0, (t, dirty || write));
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        self.stats.misses += 1;
        let mut victim = None;
        if set.len() == self.params.assoc {
            let (vtag, dirty) = set.pop().expect("full set has a victim");
            victim = Some((vtag * n_sets + set_idx as u64, dirty));
            if dirty {
                self.stats.writebacks += 1;
            }
        }
        set.insert(0, (tag, write));
        Lookup::Miss { victim }
    }
}

/// A two-level (L1 → L2 → memory) inclusive-enough hierarchy with byte
/// traffic accounting at each boundary.
///
/// Models one core's L1 in front of its CMG's L2 — the configuration a
/// single-threaded kernel sees. (Multi-core sharing effects are handled
/// analytically in [`crate::timing`], not by replaying interleaved
/// streams.)
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    pub l1: Cache,
    pub l2: Cache,
    line_bytes: usize,
    /// Bytes transferred L2→L1 and L1→L2 (fills + writebacks).
    l1_l2_bytes: u64,
    /// Bytes transferred memory→L2 and L2→memory.
    l2_mem_bytes: u64,
}

/// Summary of a hierarchy replay.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyStats {
    pub l1: LevelStats,
    pub l2: LevelStats,
    /// Total bytes crossing the L1/L2 boundary.
    pub l1_l2_bytes: u64,
    /// Total bytes crossing the L2/memory boundary (the HBM2 traffic the
    /// analytical model predicts).
    pub l2_mem_bytes: u64,
}

impl MemoryHierarchy {
    /// Build from chip-style parameters. The L1 and L2 must share a line
    /// size (they do on the A64FX: 256 B).
    pub fn new(l1: CacheParams, l2: CacheParams) -> MemoryHierarchy {
        assert_eq!(l1.line_bytes, l2.line_bytes, "mixed line sizes are not modelled");
        MemoryHierarchy {
            line_bytes: l1.line_bytes,
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l1_l2_bytes: 0,
            l2_mem_bytes: 0,
        }
    }

    /// The A64FX single-core view: 64 KiB L1D + 8 MiB CMG L2.
    pub fn a64fx_core() -> MemoryHierarchy {
        let chip = crate::chip::ChipParams::a64fx();
        MemoryHierarchy::new(chip.l1d, chip.l2)
    }

    /// Access `bytes` bytes at byte address `addr` (`write` = store).
    /// Spans every touched line.
    pub fn access(&mut self, addr: u64, bytes: usize, write: bool) {
        if bytes == 0 {
            return;
        }
        let lb = self.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + bytes as u64 - 1) / lb;
        for line in first..=last {
            self.access_one_line(line, write);
        }
    }

    fn access_one_line(&mut self, line: u64, write: bool) {
        match self.l1.access_line(line, write) {
            Lookup::Hit => {}
            Lookup::Miss { victim } => {
                // Fill the missing line from L2 (one line L2→L1).
                self.l1_l2_bytes += self.line_bytes as u64;
                self.l2_fill(line);
                // Write back a dirty L1 victim to its exact L2 line
                // (one line L1→L2, dirtying it in L2).
                if let Some((vline, true)) = victim {
                    self.l1_l2_bytes += self.line_bytes as u64;
                    self.l2_writeback(vline);
                }
            }
        }
    }

    /// An L2 fill access (read allocation on behalf of an L1 miss).
    fn l2_fill(&mut self, line: u64) {
        if let Lookup::Miss { victim } = self.l2.access_line(line, false) {
            self.l2_mem_bytes += self.line_bytes as u64; // memory→L2 fill
            if matches!(victim, Some((_, true))) {
                self.l2_mem_bytes += self.line_bytes as u64; // dirty eviction
            }
        }
    }

    /// An L1 dirty-victim writeback arriving at L2. Under the A64FX's
    /// mostly-inclusive policy this is normally a hit; if L2 has already
    /// dropped the line, the writeback allocates it (write-allocate),
    /// which costs a fill.
    fn l2_writeback(&mut self, line: u64) {
        if let Lookup::Miss { victim } = self.l2.access_line(line, true) {
            self.l2_mem_bytes += self.line_bytes as u64;
            if matches!(victim, Some((_, true))) {
                self.l2_mem_bytes += self.line_bytes as u64;
            }
        }
    }

    /// Flush all remaining dirty lines down the hierarchy, charging the
    /// writeback traffic — call at the end of a replay so the counted
    /// traffic reflects a completed stream rather than a warm cache.
    pub fn drain(&mut self) {
        let lb = self.line_bytes as u64;
        for line in self.l1.drain_dirty() {
            self.l1_l2_bytes += lb;
            self.l2_writeback(line);
        }
        for _ in self.l2.drain_dirty() {
            self.l2_mem_bytes += lb;
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            l1_l2_bytes: self.l1_l2_bytes,
            l2_mem_bytes: self.l2_mem_bytes,
        }
    }

    /// Reset statistics, keep contents.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l1_l2_bytes = 0;
        self.l2_mem_bytes = 0;
    }

    /// Drop contents and statistics.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l1_l2_bytes = 0;
        self.l2_mem_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheParams {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        CacheParams { size_bytes: 512, assoc: 2, line_bytes: 64 }
    }

    #[test]
    fn n_sets_geometry() {
        assert_eq!(tiny().n_sets(), 4);
        let chip = crate::chip::ChipParams::a64fx();
        assert_eq!(chip.l1d.n_sets(), 64);
        assert_eq!(chip.l2.n_sets(), 2048);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = Cache::new(tiny());
        assert!(matches!(c.access_line(0, false), Lookup::Miss { .. }));
        assert_eq!(c.access_line(0, false), Lookup::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(tiny());
        // Three lines mapping to set 0: line addresses 0, 4, 8 (4 sets).
        c.access_line(0, false);
        c.access_line(4, false);
        // Touch 0 again: now 4 is LRU.
        c.access_line(0, false);
        // Fill 8: evicts 4.
        c.access_line(8, false);
        assert_eq!(c.access_line(0, false), Lookup::Hit);
        assert!(matches!(c.access_line(4, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(tiny());
        c.access_line(0, true); // dirty fill
        c.access_line(4, false);
        // Evict line 0 (LRU, dirty).
        let r = c.access_line(8, false);
        assert!(r.evicted_dirty());
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(tiny());
        c.access_line(0, false);
        c.access_line(0, true); // dirtied by hit
        c.access_line(4, false);
        let r = c.access_line(8, false);
        assert!(r.evicted_dirty());
    }

    #[test]
    fn streaming_traffic_equals_footprint() {
        // Cold sequential read of N bytes moves exactly N bytes (in lines)
        // across both boundaries.
        let mut h = MemoryHierarchy::new(
            tiny(),
            CacheParams { size_bytes: 4096, assoc: 4, line_bytes: 64 },
        );
        let n = 64 * 128; // 128 lines, way beyond both capacities
        for a in (0..n).step_by(8) {
            h.access(a as u64, 8, false);
        }
        let s = h.stats();
        assert_eq!(s.l1_l2_bytes, n as u64);
        assert_eq!(s.l2_mem_bytes, n as u64);
        // 8 accesses per 64 B line → miss ratio 1/8.
        assert!((s.l1.miss_ratio() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn l2_resident_working_set_stops_mem_traffic() {
        let l2 = CacheParams { size_bytes: 4096, assoc: 4, line_bytes: 64 };
        let mut h = MemoryHierarchy::new(tiny(), l2);
        let n = 2048usize; // fits in L2 (4096), not in L1 (512)
                           // Warm-up pass.
        for a in (0..n).step_by(8) {
            h.access(a as u64, 8, false);
        }
        h.reset_stats();
        // Measured pass: L1 misses persist (working set > L1) but memory
        // traffic must be zero.
        for a in (0..n).step_by(8) {
            h.access(a as u64, 8, false);
        }
        let s = h.stats();
        assert!(s.l1.misses > 0);
        assert_eq!(s.l2_mem_bytes, 0, "L2-resident set must not touch memory");
    }

    #[test]
    fn l1_resident_working_set_stops_l2_traffic() {
        let mut h = MemoryHierarchy::new(
            tiny(),
            CacheParams { size_bytes: 4096, assoc: 4, line_bytes: 64 },
        );
        let n = 256usize; // fits in L1 (512 B)
        for a in (0..n).step_by(8) {
            h.access(a as u64, 8, false);
        }
        h.reset_stats();
        for _ in 0..4 {
            for a in (0..n).step_by(8) {
                h.access(a as u64, 8, false);
            }
        }
        let s = h.stats();
        assert_eq!(s.l1.misses, 0);
        assert_eq!(s.l1_l2_bytes, 0);
    }

    #[test]
    fn read_modify_write_stream_doubles_mem_traffic() {
        // Streaming read+write of a big buffer: fills + dirty writebacks ⇒
        // ~2× footprint at the memory boundary.
        let mut h = MemoryHierarchy::new(
            tiny(),
            CacheParams { size_bytes: 4096, assoc: 4, line_bytes: 64 },
        );
        let n = 64 * 256;
        for a in (0..n).step_by(16) {
            h.access(a as u64, 16, false);
            h.access(a as u64, 16, true);
        }
        // Force eviction of remaining dirty lines with a second cold pass
        // over a disjoint region.
        for a in (n..2 * n).step_by(64) {
            h.access(a as u64, 8, false);
        }
        let s = h.stats();
        let footprint = n as u64;
        assert!(
            s.l2_mem_bytes >= 2 * footprint,
            "read+writeback {} < {}",
            s.l2_mem_bytes,
            2 * footprint
        );
        // And not wildly more than fills(2n)+writebacks(n).
        assert!(s.l2_mem_bytes <= 3 * footprint + 4096);
    }

    #[test]
    fn access_spanning_lines_touches_both() {
        let mut h = MemoryHierarchy::new(
            tiny(),
            CacheParams { size_bytes: 4096, assoc: 4, line_bytes: 64 },
        );
        h.access(60, 8, false); // straddles lines 0 and 1
        assert_eq!(h.stats().l1.misses, 2);
    }

    #[test]
    fn zero_byte_access_is_noop() {
        let mut h = MemoryHierarchy::new(
            tiny(),
            CacheParams { size_bytes: 4096, assoc: 4, line_bytes: 64 },
        );
        h.access(0, 0, true);
        assert_eq!(h.stats().l1.accesses(), 0);
    }

    #[test]
    fn flush_resets_contents() {
        let mut c = Cache::new(tiny());
        c.access_line(0, false);
        c.flush();
        assert!(matches!(c.access_line(0, false), Lookup::Miss { .. }));
    }
}
