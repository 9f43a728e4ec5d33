//! Set-associative cache hierarchy with a DRAM bandwidth limiter.
//!
//! Two levels (L1D, unified L2) over a DRAM model with both latency and a
//! bytes-per-cycle bandwidth ceiling. The ceiling is what produces the
//! memory roof of the roofline model: the X60 configuration is calibrated
//! to ~3.16 bytes/cycle, matching the memset benchmark the paper cites
//! (§5.2: 3.16 B/cyc × 1.6 GHz ≈ 4.7 GB/s).
//!
//! Every memory reference the core retires passes through
//! [`MemorySystem::access`], so the lookup is built to finish in one
//! pass:
//!
//! - **Valid-prefix sets.** A miss fills the first empty way of its set,
//!   and lines are never invalidated one at a time ([`MemorySystem::flush`]
//!   clears whole levels). So each set's valid ways always form a prefix
//!   of the set.
//! - **One walk per set.** A lookup walks the set once, finding the tag
//!   and the LRU victim together: the victim is the first empty way, or
//!   else the first way with the oldest timestamp. The walk stops at the
//!   first empty way, since no valid line can follow it.
//! - **Contiguous line ranges.** Scalar and unit-stride references cover
//!   one byte range, so their lines are walked as `first..=last`; only
//!   strided references go through the per-lane dedup of
//!   [`MemRef::for_each_line`].

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
    /// line). The valid ways of every set form a prefix of it (see the
    /// module docs).
    sets: Vec<(u64, u64)>,
    /// Per-set index of the most-recently-hit (or most-recently-filled)
    /// way: the MRU fast-hit probe checks this way before the set walk.
    /// Pure memoization — hit/miss decisions, LRU timestamps, and
    /// victim selection are bit-identical with or without it.
    mru: Vec<u32>,
    num_sets: u64,
    ways: usize,
    latency: u32,
    accesses: u64,
    misses: u64,
    /// Hits satisfied by the MRU probe alone (no set walk).
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
    /// whether it hit.
    #[inline]
    fn access(&mut self, line: u64, now: u64) -> bool {
        self.accesses += 1;
        let set = (line % self.num_sets) as usize;
        let tag = line + 1;
        let base = set * self.ways;
        let ways = &mut self.sets[base..base + self.ways];
        // MRU fast hit: streaming kernels touch the same line many times
        // in a row, so probe the most-recently-hit way before walking
        // the set. The accounting (timestamp update, hit count) is
        // exactly what the walk would have done for the same way.
        let m = self.mru[set] as usize;
        if ways[m].0 == tag {
            ways[m].1 = now;
            self.mru_hits += 1;
            return true;
        }
        // One walk finds the tag and the LRU victim together. The victim
        // is the first empty way, else the first way with the minimum
        // timestamp. Valid ways form a prefix of the set, so the walk
        // stops at the first empty way: no tag can follow it.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, slot) in ways.iter_mut().enumerate() {
            if slot.0 == tag {
                slot.1 = now;
                self.mru[set] = w as u32;
                return true;
            }
            if slot.0 == 0 {
                victim = w;
                break;
            }
            if slot.1 < oldest {
                oldest = slot.1;
                victim = w;
            }
        }
        debug_assert!(
            ways.iter()
                .skip_while(|(t, _)| *t != 0)
                .all(|(t, _)| *t == 0),
            "valid ways form a prefix of the set"
        );
        self.misses += 1;
        ways[victim] = (tag, now);
        self.mru[set] = victim as u32;
        false
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
    /// Centi-cycles one line occupies the DRAM channel
    /// (`LINE_BYTES / dram_bytes_per_cycle`), fixed per configuration.
    occupancy_centi: u64,
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
            occupancy_centi: (LINE_BYTES as f64 / cfg.dram_bytes_per_cycle * 100.0) as u64,
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
    #[inline]
    pub fn access(&mut self, mem: &MemRef, now_centi: u64) -> MemEvents {
        let mut ev = MemEvents::default();
        if mem.lanes <= 1 || mem.is_unit_stride() {
            // Scalar and unit-stride references cover one contiguous
            // byte range; its lines in ascending order are exactly the
            // first-touch order `for_each_line` would produce.
            let span = mem.bytes as u64 * mem.lanes.max(1) as u64;
            let first = mem.addr / LINE_BYTES;
            let last = (mem.addr + span - 1) / LINE_BYTES;
            for line in first..=last {
                self.access_line(line, mem.is_store, now_centi, &mut ev);
            }
        } else {
            mem.for_each_line(|line| {
                self.access_line(line, mem.is_store, now_centi, &mut ev);
            });
        }
        ev
    }

    /// Walk one line address through the hierarchy, accumulating events.
    #[inline]
    fn access_line(&mut self, line: u64, is_store: bool, now_centi: u64, ev: &mut MemEvents) {
        let now = now_centi / 100;
        ev.l1_accesses += 1;
        if self.l1d.access(line, now) {
            if !is_store {
                ev.hit_cycles += self.l1d.latency.saturating_sub(1) as u64;
            }
            return;
        }
        ev.l1_misses += 1;
        if self.l2.access(line, now) {
            if !is_store {
                ev.stall_cycles += self.l2.latency as u64;
            }
            return;
        }
        ev.l2_misses += 1;
        ev.dram_bytes += LINE_BYTES;
        self.total_dram_bytes += LINE_BYTES;
        // Bandwidth limiter: each line occupies the DRAM channel for
        // `occupancy_centi`. The core stalls only on queue backpressure
        // (and, for loads, the access latency); channel occupancy itself
        // is pipelined.
        let start = self.dram_free_at_centi.max(now_centi);
        self.dram_free_at_centi = start + self.occupancy_centi;
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

    /// A reference's contiguous line range must match the line-by-line
    /// walk at the line-crossing boundary: an 8-byte scalar at offset 56
    /// fits line 0, the same scalar at offset 60 straddles lines 0 and 1
    /// — and a fresh hierarchy driven through either sequence reports
    /// identical events to one driven line by line.
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
            let before = m.l1d_mru_hits();
            m.access(&mem(0x100), t * 100);
            if t > 0 {
                assert_eq!(
                    m.l1d_mru_hits() - before,
                    1,
                    "repeat hit rides the MRU probe"
                );
            }
        }
        assert_eq!(m.l1d_mru_hits(), 2);
        let (acc, miss) = m.l1d_stats();
        assert_eq!((acc, miss), (3, 1));

        // A conflicting line in the same set (8 sets in the tiny L1)
        // lands in the other way: hitting it is a walk hit first, an MRU
        // hit after, and flipping between the two lines never produces a
        // false MRU hit.
        let conflict = 0x100 + 8 * 64;
        m.access(&mem(conflict), 400); // miss, fills way 1, MRU -> way 1
        let before = m.l1d_mru_hits();
        let back = m.access(&mem(0x100), 500); // hit via the walk (MRU points at way 1)
        assert_eq!(m.l1d_mru_hits(), before);
        assert_eq!(back.l1_misses, 0);
        m.access(&mem(0x100), 600); // now the MRU probe hits
        assert_eq!(m.l1d_mru_hits(), before + 1);

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

    /// The two-scan lookup the one-walk [`Level::access`] replaced, kept
    /// as the oracle: an MRU probe, a tag scan, then a second scan that
    /// picks the victim with `min_by_key` (the first empty way, else the
    /// first oldest). Returns `(hit, hit_via_mru_probe)`.
    fn two_scan_access(l: &mut Level, line: u64, now: u64) -> (bool, bool) {
        l.accesses += 1;
        let set = (line % l.num_sets) as usize;
        let tag = line + 1;
        let base = set * l.ways;
        let m = l.mru[set] as usize;
        if l.sets[base + m].0 == tag {
            l.sets[base + m].1 = now;
            l.mru_hits += 1;
            return (true, true);
        }
        let ways = &mut l.sets[base..base + l.ways];
        if let Some((w, slot)) = ways.iter_mut().enumerate().find(|(_, (t, _))| *t == tag) {
            slot.1 = now;
            l.mru[set] = w as u32;
            return (true, false);
        }
        l.misses += 1;
        let (victim_way, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, (t, lu))| if *t == 0 { (0, 0) } else { (1, *lu) })
            .expect("cache has at least one way");
        *victim = (tag, now);
        l.mru[set] = victim_way as u32;
        (false, false)
    }

    /// The oracle hierarchy access: every reference walked through
    /// [`MemRef::for_each_line`], the DRAM occupancy recomputed per line,
    /// and the per-access MRU hit counts returned beside the events.
    fn oracle_access(m: &mut MemorySystem, mem: &MemRef, now_centi: u64) -> (MemEvents, u64, u64) {
        let mut ev = MemEvents::default();
        let (mut l1_mru, mut l2_mru) = (0, 0);
        mem.for_each_line(|line| {
            let now = now_centi / 100;
            ev.l1_accesses += 1;
            let (hit, mru) = two_scan_access(&mut m.l1d, line, now);
            if hit {
                l1_mru += mru as u64;
                if !mem.is_store {
                    ev.hit_cycles += m.l1d.latency.saturating_sub(1) as u64;
                }
                return;
            }
            ev.l1_misses += 1;
            let (hit, mru) = two_scan_access(&mut m.l2, line, now);
            if hit {
                l2_mru += mru as u64;
                if !mem.is_store {
                    ev.stall_cycles += m.l2.latency as u64;
                }
                return;
            }
            ev.l2_misses += 1;
            ev.dram_bytes += LINE_BYTES;
            m.total_dram_bytes += LINE_BYTES;
            let occupancy_centi = (LINE_BYTES as f64 / m.cfg.dram_bytes_per_cycle * 100.0) as u64;
            let start = m.dram_free_at_centi.max(now_centi);
            m.dram_free_at_centi = start + occupancy_centi;
            ev.stall_cycles += (start - now_centi) / 100;
            if !mem.is_store {
                ev.stall_cycles += m.cfg.dram_latency as u64;
            }
        });
        (ev, l1_mru, l2_mru)
    }

    /// Every observable of the two hierarchies: tag/timestamp arrays
    /// (so any victim choice that differs shows), MRU ways, counters,
    /// and the DRAM channel state.
    fn assert_same_state(a: &MemorySystem, b: &MemorySystem, what: &str) {
        for (x, y, level) in [(&a.l1d, &b.l1d, "L1"), (&a.l2, &b.l2, "L2")] {
            assert!(x.sets == y.sets, "{what}: {level} tags/victims diverged");
            assert!(x.mru == y.mru, "{what}: {level} MRU ways diverged");
            assert_eq!(
                (x.accesses, x.misses, x.mru_hits),
                (y.accesses, y.misses, y.mru_hits),
                "{what}: {level} counters"
            );
        }
        assert_eq!(a.dram_free_at_centi, b.dram_free_at_centi, "{what}");
        assert_eq!(a.total_dram_bytes, b.total_dram_bytes, "{what}");
    }

    /// One walk per set and contiguous line ranges are bit-identical to
    /// the two-scan lookup over `for_each_line`: seeded random streams
    /// of scalar, unit-stride vector (16, 32 and 64 bytes, aligned and
    /// line-straddling) and strided vector references, on every
    /// platform's L1/L2 geometry and on `test_tiny`, with flushes in
    /// between, produce identical events, hits, misses, victims and MRU
    /// counts.
    #[test]
    fn one_walk_matches_two_scan_oracle() {
        use crate::platform::PlatformSpec;
        let configs = [
            CacheConfig::test_tiny(),
            PlatformSpec::x60().caches,
            PlatformSpec::c910().caches,
            PlatformSpec::u74().caches,
            PlatformSpec::i5_1135g7().caches,
        ];
        // (bytes per lane, lanes): unit-stride shapes of 16, 32, 64 bytes.
        const VECTORS: [(u32, u32); 5] = [(4, 4), (8, 2), (4, 8), (8, 4), (8, 8)];
        for (ci, cfg) in configs.into_iter().enumerate() {
            let mut fast = MemorySystem::new(cfg);
            let mut oracle = MemorySystem::new(cfg);
            let l2_sets = fast.l2.num_sets;
            let l2_ways = fast.l2.ways as u64;
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ ci as u64;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (mut now, mut prev_line, mut seq_line) = (0u64, 0u64, 1u64 << 20);
            for phase in 0..3 {
                for step in 0..3_000u64 {
                    let r = rng();
                    // Line choice: conflict pools that overflow L1 and L2
                    // sets (evictions), a wide random window (cold
                    // misses), the previous line (MRU hits), or a
                    // sequential stream.
                    let line = match r % 8 {
                        0..=2 => (rng() % 4) + (rng() % (2 * l2_ways + 4)) * l2_sets,
                        3 => rng() % (1 << 18),
                        4 | 5 => prev_line,
                        _ => {
                            seq_line += 1;
                            seq_line
                        }
                    };
                    prev_line = line;
                    let is_store = rng() % 3 == 0;
                    let mref = match rng() % 4 {
                        0 => {
                            let bytes = [1u32, 2, 4, 8][(rng() % 4) as usize];
                            MemRef::scalar(line * 64 + rng() % 64, bytes, is_store)
                        }
                        1 | 2 => {
                            let (bytes, lanes) = VECTORS[(rng() % 5) as usize];
                            // Half line-aligned, half at any lane-aligned
                            // offset (straddling when it crosses 64).
                            let offset = if rng() % 2 == 0 {
                                0
                            } else {
                                (rng() % 64) / bytes as u64 * bytes as u64
                            };
                            MemRef {
                                addr: line * 64 + offset,
                                bytes,
                                lanes,
                                stride: bytes as i64,
                                is_store,
                            }
                        }
                        _ => MemRef {
                            addr: line * 64 + rng() % 64,
                            bytes: 8,
                            lanes: 2 + (rng() % 7) as u32,
                            stride: [16i64, 24, 64, 200][(rng() % 4) as usize],
                            is_store,
                        },
                    };
                    now += rng() % 400;
                    let mru_before = (fast.l1d_mru_hits(), fast.l2_mru_hits());
                    let got = fast.access(&mref, now);
                    let (want, want_l1_mru, want_l2_mru) = oracle_access(&mut oracle, &mref, now);
                    let what = format!("config {ci} phase {phase} step {step} {mref:?}");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(
                        (
                            fast.l1d_mru_hits() - mru_before.0,
                            fast.l2_mru_hits() - mru_before.1
                        ),
                        (want_l1_mru, want_l2_mru),
                        "{what}: MRU hits of this access"
                    );
                    if step % 64 == 0 {
                        assert_same_state(&fast, &oracle, &what);
                    }
                }
                assert_same_state(&fast, &oracle, &format!("config {ci} end of phase {phase}"));
                fast.flush();
                oracle.flush();
            }
        }
    }
}
