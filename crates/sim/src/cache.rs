//! Set-associative cache hierarchy with a DRAM bandwidth limiter.
//!
//! Two levels (L1D, unified L2) over a DRAM model with both latency and a
//! bytes-per-cycle bandwidth ceiling. The ceiling is what produces the
//! memory roof of the roofline model: the X60 configuration is calibrated
//! to ~3.16 bytes/cycle, matching the memset benchmark the paper cites
//! (§5.2: 3.16 B/cyc × 1.6 GHz ≈ 4.7 GB/s).

use crate::machine_op::MemRef;

/// Cache line size in bytes (all levels).
pub const LINE_BYTES: u64 = 64;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    pub size_bytes: u64,
    pub ways: u32,
    /// Access latency in cycles (added on hit at this level).
    pub latency: u32,
}

/// Whole-hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    pub l1d: LevelConfig,
    pub l2: LevelConfig,
    /// DRAM access latency in cycles.
    pub dram_latency: u32,
    /// DRAM bandwidth in bytes per cycle (fractional allowed).
    pub dram_bytes_per_cycle: f64,
}

impl CacheConfig {
    /// A small default config for tests.
    pub fn test_tiny() -> CacheConfig {
        CacheConfig {
            l1d: LevelConfig {
                size_bytes: 1024,
                ways: 2,
                latency: 2,
            },
            l2: LevelConfig {
                size_bytes: 8192,
                ways: 4,
                latency: 10,
            },
            dram_latency: 50,
            dram_bytes_per_cycle: 4.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Level {
    /// Flat `(tag, last_use)` array, `ways` entries per set (one cache
    /// block, no per-set pointer chase on the retire path); tag 0 means
    /// empty (tags are stored +1 so tag 0 never collides with a real
    /// line).
    sets: Vec<(u64, u64)>,
    /// Per-set index of the most-recently-hit (or most-recently-filled)
    /// way: the MRU fast-hit probe checks this way before the full set
    /// scan. Pure memoization — hit/miss decisions, LRU timestamps, and
    /// victim selection are bit-identical with or without it.
    mru: Vec<u32>,
    num_sets: u64,
    ways: usize,
    latency: u32,
    accesses: u64,
    misses: u64,
    /// Hits satisfied by the MRU probe alone (no set scan).
    mru_hits: u64,
}

impl Level {
    fn new(cfg: LevelConfig) -> Level {
        let num_sets = (cfg.size_bytes / LINE_BYTES / cfg.ways as u64).max(1);
        Level {
            sets: vec![(0, 0); num_sets as usize * cfg.ways as usize],
            mru: vec![0; num_sets as usize],
            num_sets,
            ways: cfg.ways as usize,
            latency: cfg.latency,
            accesses: 0,
            misses: 0,
            mru_hits: 0,
        }
    }

    /// Access `line` (line address, i.e. byte address / 64). Returns
    /// `(hit, hit_via_mru_probe)`.
    #[inline]
    fn access(&mut self, line: u64, now: u64) -> (bool, bool) {
        self.accesses += 1;
        let set = (line % self.num_sets) as usize;
        let tag = line + 1;
        let base = set * self.ways;
        // MRU fast hit: streaming kernels touch the same line many times
        // in a row, so probe the most-recently-hit way before paying the
        // full scan. The accounting (timestamp update, hit count) is
        // exactly what the scan would have done for the same way.
        let m = self.mru[set] as usize;
        if self.sets[base + m].0 == tag {
            self.sets[base + m].1 = now;
            self.mru_hits += 1;
            return (true, true);
        }
        let ways = &mut self.sets[base..base + self.ways];
        if let Some((w, slot)) = ways.iter_mut().enumerate().find(|(_, (t, _))| *t == tag) {
            slot.1 = now;
            self.mru[set] = w as u32;
            return (true, false);
        }
        self.misses += 1;
        // Evict LRU (first minimum in way order, as before the MRU
        // probe existed — ties must resolve identically).
        let (victim_way, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, (t, lu))| if *t == 0 { (0, 0) } else { (1, *lu) })
            .expect("cache has at least one way");
        *victim = (tag, now);
        self.mru[set] = victim_way as u32;
        (false, false)
    }

    fn invalidate_all(&mut self) {
        for way in &mut self.sets {
            *way = (0, 0);
        }
        for m in &mut self.mru {
            *m = 0;
        }
    }
}

/// Per-access event counts returned by [`MemorySystem::access`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemEvents {
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub dram_bytes: u64,
    /// Miss-related stall cycles (L2/DRAM latency, bandwidth queueing).
    pub stall_cycles: u64,
    /// L1-hit latency cycles. In-order cores expose these (load-use);
    /// out-of-order schedulers hide them completely.
    pub hit_cycles: u64,
    /// L1 hits satisfied by the MRU fast probe (simulator-internal
    /// telemetry, not a PMU event; cumulative rates feed the `mru`
    /// section of `BENCH_interp.json`).
    pub l1_mru_hits: u64,
    /// L2 hits satisfied by the MRU fast probe.
    pub l2_mru_hits: u64,
}

/// The memory hierarchy attached to one core.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1d: Level,
    l2: Level,
    cfg: CacheConfig,
    /// Cycle at which DRAM can accept the next line transfer
    /// (bandwidth-limiter state), in centi-cycles.
    dram_free_at_centi: u64,
    total_dram_bytes: u64,
}

impl MemorySystem {
    /// Build the hierarchy from a config.
    pub fn new(cfg: CacheConfig) -> MemorySystem {
        MemorySystem {
            l1d: Level::new(cfg.l1d),
            l2: Level::new(cfg.l2),
            cfg,
            dram_free_at_centi: 0,
            total_dram_bytes: 0,
        }
    }

    /// Simulate a memory access at time `now_centi` (centi-cycles).
    /// Returns events including the stall penalty in whole cycles.
    ///
    /// Loads expose the full miss latency; stores retire through a store
    /// buffer and pay only bandwidth occupancy (queue delay), the way
    /// streaming stores behave on real cores — without this, a memset
    /// benchmark would measure DRAM *latency* instead of bandwidth.
    pub fn access(&mut self, mem: &MemRef, now_centi: u64) -> MemEvents {
        let mut ev = MemEvents::default();
        // Single-line fast path: the common case for scalar accesses in
        // triad/memset-style kernels is a reference that fits entirely in
        // one cache line. Skip the `for_each_line` walk (closure setup,
        // lane dedup machinery) and touch that one line directly — the
        // arithmetic is identical to the general path below.
        if mem.lanes <= 1 && mem.addr / LINE_BYTES == (mem.addr + mem.bytes as u64 - 1) / LINE_BYTES
        {
            self.access_line(mem.addr / LINE_BYTES, mem.is_store, now_centi, &mut ev);
            return ev;
        }
        mem.for_each_line(|line| {
            self.access_line(line, mem.is_store, now_centi, &mut ev);
        });
        ev
    }

    /// Walk one line address through the hierarchy, accumulating events.
    #[inline]
    fn access_line(&mut self, line: u64, is_store: bool, now_centi: u64, ev: &mut MemEvents) {
        let now = now_centi / 100;
        ev.l1_accesses += 1;
        let (l1_hit, l1_mru) = self.l1d.access(line, now);
        if l1_hit {
            ev.l1_mru_hits += l1_mru as u64;
            if !is_store {
                ev.hit_cycles += self.l1d.latency.saturating_sub(1) as u64;
            }
            return;
        }
        ev.l1_misses += 1;
        let (l2_hit, l2_mru) = self.l2.access(line, now);
        if l2_hit {
            ev.l2_mru_hits += l2_mru as u64;
            if !is_store {
                ev.stall_cycles += self.l2.latency as u64;
            }
            return;
        }
        ev.l2_misses += 1;
        ev.dram_bytes += LINE_BYTES;
        self.total_dram_bytes += LINE_BYTES;
        // Bandwidth limiter: each line occupies the DRAM channel for
        // LINE_BYTES / bytes_per_cycle cycles. The core stalls only on
        // queue backpressure (and, for loads, the access latency);
        // channel occupancy itself is pipelined.
        let occupancy_centi = (LINE_BYTES as f64 / self.cfg.dram_bytes_per_cycle * 100.0) as u64;
        let start = self.dram_free_at_centi.max(now_centi);
        self.dram_free_at_centi = start + occupancy_centi;
        let queue_delay = (start - now_centi) / 100;
        ev.stall_cycles += queue_delay;
        if !is_store {
            ev.stall_cycles += self.cfg.dram_latency as u64;
        }
    }

    /// Whole cycles until the DRAM channel drains its current backlog,
    /// as seen from `now_centi` (0 when the channel is free). Feeds the
    /// conservative event bound of [`crate::Core::block_ready`]: queue
    /// delay is the one stall component unbounded by the platform spec.
    #[inline]
    pub fn backlog_cycles(&self, now_centi: u64) -> u64 {
        self.dram_free_at_centi.saturating_sub(now_centi) / 100 + 1
    }

    /// Drop all cached lines (used between benchmark phases).
    pub fn flush(&mut self) {
        self.l1d.invalidate_all();
        self.l2.invalidate_all();
    }

    /// Total bytes transferred from DRAM so far.
    pub fn dram_bytes_total(&self) -> u64 {
        self.total_dram_bytes
    }

    /// (accesses, misses) for L1D.
    pub fn l1d_stats(&self) -> (u64, u64) {
        (self.l1d.accesses, self.l1d.misses)
    }

    /// (accesses, misses) for L2.
    pub fn l2_stats(&self) -> (u64, u64) {
        (self.l2.accesses, self.l2.misses)
    }

    /// Cumulative L1D hits satisfied by the MRU fast probe.
    pub fn l1d_mru_hits(&self) -> u64 {
        self.l1d.mru_hits
    }

    /// Cumulative L2 hits satisfied by the MRU fast probe.
    pub fn l2_mru_hits(&self) -> u64 {
        self.l2.mru_hits
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(addr: u64) -> MemRef {
        MemRef::scalar(addr, 8, false)
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        let first = m.access(&mem(0x100), 0);
        assert_eq!(first.l1_misses, 1);
        assert_eq!(first.l2_misses, 1);
        let second = m.access(&mem(0x100), 1000);
        assert_eq!(second.l1_misses, 0);
        assert!(second.stall_cycles < first.stall_cycles);
    }

    #[test]
    fn capacity_eviction() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        // Tiny L1: 1 KiB / 64 B / 2 ways = 8 sets. Touch 64 distinct lines
        // mapping over all sets, then re-touch the first: must miss L1.
        for i in 0..64u64 {
            m.access(&mem(i * 64), i * 100);
        }
        let again = m.access(&mem(0), 100_000);
        assert_eq!(again.l1_misses, 1, "line 0 must have been evicted");
    }

    #[test]
    fn dram_bandwidth_throttles_streaming() {
        let cfg = CacheConfig {
            dram_bytes_per_cycle: 2.0,
            ..CacheConfig::test_tiny()
        };
        let mut m = MemorySystem::new(cfg);
        // Stream 100 distinct lines back-to-back at time 0: the limiter
        // must queue them: total stall >> 100 * dram_latency.
        let mut total_stall = 0;
        for i in 0..100u64 {
            let ev = m.access(&MemRef::scalar((i * 64 + 1) << 20, 8, false), 0);
            total_stall += ev.stall_cycles;
        }
        // 100 lines * 64B / 2 B/cyc = 3200 cycles of pure occupancy.
        assert!(
            total_stall >= 3200,
            "bandwidth limiter too weak: {total_stall}"
        );
    }

    #[test]
    fn flush_forgets_lines() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        m.access(&mem(0x40), 0);
        m.flush();
        let ev = m.access(&mem(0x40), 100);
        assert_eq!(ev.l1_misses, 1);
    }

    #[test]
    fn vector_access_touches_lines_once() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        let v = MemRef {
            addr: 0,
            bytes: 4,
            lanes: 8,
            stride: 4,
            is_store: false,
        };
        let ev = m.access(&v, 0);
        // 32 contiguous bytes at offset 0: one line.
        assert_eq!(ev.l1_accesses, 1);
    }

    /// The single-line fast path must agree with the general walk at the
    /// line-crossing boundary: an 8-byte scalar at offset 56 fits line 0
    /// (fast path), the same scalar at offset 60 straddles lines 0 and 1
    /// (general path) — and a fresh hierarchy driven through either
    /// sequence reports identical events to one driven line by line.
    #[test]
    fn single_line_fast_path_boundary() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        let within = m.access(&MemRef::scalar(56, 8, false), 0);
        assert_eq!(within.l1_accesses, 1, "56..64 is one line");

        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        let crossing = m.access(&MemRef::scalar(60, 8, false), 0);
        assert_eq!(crossing.l1_accesses, 2, "60..68 straddles the boundary");
        assert_eq!(crossing.l1_misses, 2);

        // Equivalence: the crossing access behaves exactly like touching
        // the two lines as separate scalar accesses at the same time.
        let mut split = MemorySystem::new(CacheConfig::test_tiny());
        let a = split.access(&MemRef::scalar(60, 4, false), 0);
        let b = split.access(&MemRef::scalar(64, 4, false), 0);
        assert_eq!(
            crossing.stall_cycles,
            a.stall_cycles + b.stall_cycles,
            "line walk arithmetic must not change at the boundary"
        );
        assert_eq!(crossing.dram_bytes, a.dram_bytes + b.dram_bytes);

        // Exactly at the last in-line offset for a 4-byte scalar.
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        assert_eq!(m.access(&MemRef::scalar(60, 4, false), 0).l1_accesses, 1);
    }

    #[test]
    fn backlog_reports_queue_drain() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        assert_eq!(m.backlog_cycles(0), 1, "free channel: rounding slack only");
        // Queue a DRAM transfer; the backlog must cover its occupancy.
        m.access(&MemRef::scalar(1 << 20, 8, false), 0);
        assert!(m.backlog_cycles(0) >= 64 / 4, "line occupancy visible");
    }

    /// The MRU fast-hit probe is pure memoization: repeated hits to one
    /// line are counted as MRU hits, and the hit/miss/eviction stream is
    /// identical to a scan-only level (pinned here by re-deriving the
    /// expected stream from the same access pattern).
    #[test]
    fn mru_probe_counts_and_stays_bit_identical() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        // Same line 3 times: 1 miss (fill sets MRU), then 2 MRU hits.
        for t in 0..3u64 {
            let ev = m.access(&mem(0x100), t * 100);
            if t > 0 {
                assert_eq!(ev.l1_mru_hits, 1, "repeat hit rides the MRU probe");
            }
        }
        assert_eq!(m.l1d_mru_hits(), 2);
        let (acc, miss) = m.l1d_stats();
        assert_eq!((acc, miss), (3, 1));

        // A conflicting line in the same set (8 sets in the tiny L1)
        // lands in the other way: hitting it is a scan hit first, an MRU
        // hit after, and flipping between the two lines never produces a
        // false MRU hit.
        let conflict = 0x100 + 8 * 64;
        m.access(&mem(conflict), 400); // miss, fills way 1, MRU -> way 1
        let back = m.access(&mem(0x100), 500); // hit via scan (MRU points at way 1)
        assert_eq!(back.l1_mru_hits, 0);
        assert_eq!(back.l1_misses, 0);
        let again = m.access(&mem(0x100), 600); // now the MRU probe hits
        assert_eq!(again.l1_mru_hits, 1);

        // Eviction order is unchanged: the LRU victim is still chosen by
        // timestamp, so after touching two fresh conflicting lines the
        // oldest line is gone.
        let third = 0x100 + 16 * 64;
        m.access(&mem(third), 700); // evicts LRU = conflict (last used 400)
        assert_eq!(m.access(&mem(0x100), 800).l1_misses, 0, "0x100 survives");
        assert_eq!(
            m.access(&mem(conflict), 900).l1_misses,
            1,
            "LRU line was evicted, as without the MRU probe"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut m = MemorySystem::new(CacheConfig::test_tiny());
        m.access(&mem(0), 0);
        m.access(&mem(0), 100);
        let (acc, miss) = m.l1d_stats();
        assert_eq!(acc, 2);
        assert_eq!(miss, 1);
        assert!(m.dram_bytes_total() >= 64);
    }
}
