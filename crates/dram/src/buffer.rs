//! The DRAM buffer front end used by the SSD data path.

use crate::bank::{Bank, BankState, RowOutcome};
use crate::timing::DdrTimings;
use ssdx_sim::codec::{DecodeError, Decoder, Encoder};
use ssdx_sim::SimTime;

/// Direction of a buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data written into the buffer (e.g. host data landing in the cache).
    Write,
    /// Data read out of the buffer (e.g. data leaving toward the NAND).
    Read,
}

/// Timing outcome of one buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// When the access started being serviced.
    pub start: SimTime,
    /// When the last burst of data completed.
    pub end: SimTime,
    /// Number of DRAM bursts the transfer required.
    pub bursts: u32,
    /// Row-buffer hits among those bursts.
    pub row_hits: u32,
}

/// Aggregate statistics for one DRAM buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total accesses serviced.
    pub accesses: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total busy time on the data bus.
    pub bus_busy: SimTime,
    /// Number of refresh operations performed.
    pub refreshes: u64,
}

/// One DDR2 data buffer (one DRAM device/rank behind its own controller).
///
/// The paper upper-bounds the number of buffers by the number of channels
/// served by the disk controller; the SSD model instantiates as many
/// `DramBuffer`s as the configuration requests and stripes traffic across
/// them.
///
/// The derived timing quantities (CAS/activate/precharge/burst times, the
/// refresh window and interval) are computed once at construction and cached
/// — every one of them costs a 128-bit division through
/// [`Frequency::cycles_to_time`](ssdx_sim::Frequency::cycles_to_time), and
/// the burst loop used to recompute them per 64-byte burst.
#[derive(Debug, Clone)]
pub struct DramBuffer {
    id: u32,
    timings: DdrTimings,
    banks: Vec<Bank>,
    data_bus_free: SimTime,
    next_refresh: SimTime,
    stats: DramStats,
    // Cached derived timings (pure functions of `timings`, which is only
    // exposed immutably).
    cas: SimTime,
    activate: SimTime,
    precharge: SimTime,
    burst: SimTime,
    refresh_window: SimTime,
    refresh_interval: SimTime,
    layout: Layout,
}

/// How buffer addresses map onto the banks: consecutive bursts rotate
/// across the banks one step at a time (interleaved mapping), and rows
/// advance every `row_bytes`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    banks: u64,
    burst_bytes: u64,
    row_bytes: u64,
}

/// Where a burst train of one access stands: the bank, row and in-row byte
/// offset of its next burst, when its previous burst left the data bus, and
/// the row hits so far.
#[derive(Clone, Copy)]
struct Train {
    bank: usize,
    row: u64,
    row_offset: u64,
    cursor: SimTime,
    row_hits: u32,
}

impl Layout {
    /// The train of an access to `addr` starting at `at`.
    #[inline]
    fn train(&self, at: SimTime, addr: u64) -> Train {
        Train {
            bank: ((addr / self.burst_bytes) % self.banks) as usize,
            row: addr / self.row_bytes,
            row_offset: addr % self.row_bytes,
            cursor: at,
            row_hits: 0,
        }
    }

    /// `train` moved `bursts` bursts further on (cursor and hits unchanged).
    #[inline]
    fn skip(&self, train: &Train, bursts: u64) -> Train {
        let offset = train.row_offset + bursts * self.burst_bytes;
        Train {
            bank: ((train.bank as u64 + bursts) % self.banks) as usize,
            row: train.row + offset / self.row_bytes,
            row_offset: offset % self.row_bytes,
            ..*train
        }
    }

    /// Moves `train` on to its next burst: the next bank in rotation, and
    /// the next row whenever the running address crosses a row boundary.
    #[inline]
    fn advance(&self, train: &mut Train) {
        train.bank += 1;
        if train.bank as u64 == self.banks {
            train.bank = 0;
        }
        train.row_offset += self.burst_bytes;
        while train.row_offset >= self.row_bytes {
            train.row_offset -= self.row_bytes;
            train.row += 1;
        }
    }
}

impl DramBuffer {
    /// Creates an idle buffer with the given identifier and timing set.
    pub fn new(id: u32, timings: DdrTimings) -> Self {
        let banks = (0..timings.banks).map(|_| Bank::new()).collect();
        DramBuffer {
            id,
            banks,
            data_bus_free: SimTime::ZERO,
            next_refresh: timings.refresh_interval(),
            stats: DramStats::default(),
            cas: timings.cas_time(),
            activate: timings.activate_time(),
            precharge: timings.precharge_time(),
            burst: timings.burst_time(),
            refresh_window: timings.refresh_time(),
            refresh_interval: timings.refresh_interval(),
            layout: Layout {
                banks: timings.banks as u64,
                burst_bytes: timings.burst_bytes() as u64,
                row_bytes: timings.row_bytes as u64,
            },
            timings,
        }
    }

    /// Buffer identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Timing set in use.
    pub fn timings(&self) -> &DdrTimings {
        &self.timings
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Earliest instant the data bus is free.
    pub fn bus_free_at(&self) -> SimTime {
        self.data_bus_free
    }

    fn refresh_if_due(&mut self, now: SimTime) {
        while now >= self.next_refresh {
            let at = self.next_refresh;
            // Catch-up collapse: when every bank is idle by `at` and one
            // refresh window fully fits inside the refresh interval, each
            // refresh leaves the device in a state (`Idle`,
            // `ready = at + tRFC`) that the next one completely supersedes —
            // so only the last due refresh's effect survives. Apply it
            // directly and account the skipped ones, instead of walking one
            // 7.8 µs interval at a time across what can be seconds of
            // simulated idle time (the former dominant cost of long runs).
            let windows_fit = self.refresh_window.max(self.precharge) <= self.refresh_interval;
            if windows_fit && self.banks.iter().all(|b| b.ready_at() <= at) {
                let skipped = (now - at).as_ps() / self.refresh_interval.as_ps();
                let last_at = at + self.refresh_interval * skipped;
                for bank in &mut self.banks {
                    bank.precharge_with(last_at, self.precharge);
                    bank.occupy_until(last_at + self.refresh_window);
                }
                self.data_bus_free = self.data_bus_free.max(last_at + self.refresh_window);
                self.next_refresh = last_at + self.refresh_interval;
                self.stats.refreshes += skipped + 1;
                return;
            }
            // Slow path: a bank is still busy past `at` (or the timing set
            // is degenerate), so refreshes interact and must be replayed one
            // by one until the device drains.
            for bank in &mut self.banks {
                bank.precharge_with(at, self.precharge);
                bank.occupy_until(at + self.refresh_window);
            }
            self.data_bus_free = self.data_bus_free.max(at + self.refresh_window);
            self.next_refresh += self.refresh_interval;
            self.stats.refreshes += 1;
        }
    }

    /// Performs an access of `bytes` bytes starting at buffer address `addr`,
    /// beginning no earlier than `at`.
    ///
    /// The transfer is split into DRAM bursts; each burst pays the row
    /// activation cost its bank requires (hit/miss/conflict) plus CAS latency
    /// and bus occupancy. Refresh windows that became due before `at` stall
    /// the whole device. Consecutive bursts rotate across the banks one step
    /// at a time (interleaved mapping); rows advance every `row_bytes`.
    ///
    /// Only the first bank rotation is walked burst by burst through the
    /// row state machines. It leaves the device *quiescent* at its end: the
    /// data bus free and every bank ready. A burst that starts quiescent
    /// starts when its predecessor ends, waits only for its own row, and
    /// leaves the device quiescent at its end, so the rest of the train is
    /// timed in closed form. A per-burst reference in the tests pins the
    /// result, counters and state bytes.
    pub fn access(
        &mut self,
        at: SimTime,
        addr: u64,
        bytes: u32,
        _kind: AccessKind,
    ) -> AccessOutcome {
        self.refresh_if_due(at);
        let bursts = (bytes as u64).div_ceil(self.layout.burst_bytes).max(1);
        let origin = self.layout.train(at, addr);
        let mut train = origin;
        let first_visits = bursts.min(self.layout.banks);
        let start = self.walk(&mut train, first_visits);
        if bursts > first_visits {
            self.time_later_visits(&origin, &mut train, bursts);
        }
        self.stats.bus_busy += self.burst * bursts;
        self.stats.accesses += 1;
        self.stats.bytes += bytes as u64;
        AccessOutcome {
            start,
            end: train.cursor,
            bursts: bursts as u32,
            row_hits: train.row_hits,
        }
    }

    /// Walks the next `count` bursts of `train` one by one through their
    /// banks' row state machines and returns when the first of them started
    /// on the data bus.
    fn walk(&mut self, train: &mut Train, count: u64) -> SimTime {
        let mut first_start = None;
        for _ in 0..count {
            let bank = &mut self.banks[train.bank];
            let (cas_ready, outcome) =
                bank.open_row_with(train.cursor, train.row, self.activate, self.precharge);
            if outcome == RowOutcome::Hit {
                train.row_hits += 1;
            }
            let data_start = (cas_ready + self.cas).max(self.data_bus_free);
            let data_end = data_start + self.burst;
            bank.occupy_until(data_end);
            self.data_bus_free = data_end;
            first_start.get_or_insert(data_start);
            train.cursor = data_end;
            self.layout.advance(train);
        }
        first_start.unwrap_or(train.cursor)
    }

    /// Times and books bursts `banks..count` of the train that started at
    /// `origin`, whose first rotation has been timed and left `train`, at
    /// its end, with the device quiescent and each bank holding the row of
    /// its first visit.
    ///
    /// Each of these bursts meets the bank that served the burst one
    /// rotation earlier: ready by the time the previous burst ends, with
    /// that burst's row open. So it ends exactly CAS + burst after the
    /// previous burst, plus tRP + tRCD when a row boundary lies between the
    /// two. That happens iff it starts less than one rotation's bytes into
    /// its row, always when one rotation spans a whole row; it is never a
    /// miss. The conflicts thus come in runs of up to `banks` bursts from
    /// each row boundary, and a bank's later visits conflict once per row
    /// they cross. Only the last rotation is visited: one pass books each
    /// bank's later visits and leaves it as its last burst does, after a
    /// walk over the row boundaries before it.
    fn time_later_visits(&mut self, origin: &Train, train: &mut Train, count: u64) {
        let layout = self.layout;
        let Layout {
            banks,
            burst_bytes,
            row_bytes,
        } = layout;
        let step = self.cas + self.burst;
        let conflict = self.precharge + self.activate;
        let rotation_bytes = banks * burst_bytes;
        let every_later_visit_conflicts = rotation_bytes >= row_bytes;
        // From burst `last` on, each burst is its bank's last visit.
        let last = (count - banks).max(banks);
        let mut conflicts = if every_later_visit_conflicts {
            last - banks
        } else {
            let mut before_last = 0;
            let mut boundary = row_bytes - origin.row_offset;
            while boundary <= (last - 1) * burst_bytes {
                let opener = boundary.div_ceil(burst_bytes);
                before_last += (opener + banks).min(last) - opener.max(banks);
                boundary += row_bytes;
            }
            before_last
        };
        let mut cursor = train.cursor + step * (last - banks) + conflict * conflicts;
        let mut tail = layout.skip(origin, last);
        // The burst at `lap` of rotation `visited` follows `visited` earlier
        // visits to its bank.
        let (mut visited, mut lap) = (last / banks, last % banks);
        for _ in last..count {
            cursor += step;
            if tail.row_offset < rotation_bytes {
                cursor += conflict;
                conflicts += 1;
            }
            let bank = &mut self.banks[tail.bank];
            let crossed = match bank.state() {
                BankState::ActiveRow(first_row) if !every_later_visit_conflicts => {
                    tail.row - first_row
                }
                _ => visited,
            };
            bank.book_train(visited - crossed, crossed, tail.row, cursor);
            layout.advance(&mut tail);
            lap += 1;
            if lap == banks {
                lap = 0;
                visited += 1;
            }
        }
        train.row_hits += (count - banks - conflicts) as u32;
        train.cursor = cursor;
        self.data_bus_free = cursor;
    }

    /// The per-burst definition of [`access`](Self::access): every burst is
    /// mapped by division and walked through its bank's row state machine.
    #[cfg(test)]
    fn access_reference(&mut self, at: SimTime, addr: u64, bytes: u32) -> AccessOutcome {
        self.refresh_if_due(at);
        let burst_bytes = self.timings.burst_bytes() as u64;
        let bursts = bytes.div_ceil(burst_bytes as u32).max(1);
        let mut cursor = at;
        let mut first_start = None;
        let mut row_hits = 0;
        for i in 0..bursts {
            let burst_addr = addr + i as u64 * burst_bytes;
            let bank = ((burst_addr / burst_bytes) % self.banks.len() as u64) as usize;
            let row = burst_addr / self.timings.row_bytes as u64;
            let (cas_ready, outcome) =
                self.banks[bank].open_row_with(cursor, row, self.activate, self.precharge);
            if outcome == RowOutcome::Hit {
                row_hits += 1;
            }
            let data_start = (cas_ready + self.cas).max(self.data_bus_free);
            let data_end = data_start + self.burst;
            self.banks[bank].occupy_until(data_end);
            self.data_bus_free = data_end;
            first_start.get_or_insert(data_start);
            cursor = data_end;
        }
        self.stats.bus_busy += self.burst * bursts as u64;
        self.stats.accesses += 1;
        self.stats.bytes += bytes as u64;
        AccessOutcome {
            start: first_start.unwrap_or(at),
            end: cursor,
            bursts,
            row_hits,
        }
    }

    /// Effective bandwidth observed so far over `elapsed` simulated time, in
    /// bytes per second.
    pub fn effective_bandwidth(&self, elapsed: SimTime) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.stats.bytes as f64 / elapsed.as_secs_f64()
    }

    /// Encodes the buffer's mutable state, in stable field order: each bank
    /// (construction-fixed count, no length prefix), data-bus free instant,
    /// next refresh deadline, then the statistics (accesses, bytes, bus busy
    /// time, refreshes). The identifier, timing set, and the cached derived
    /// latencies are construction parameters, not snapshot state.
    pub fn encode_state(&self, enc: &mut Encoder) {
        for bank in &self.banks {
            bank.encode_state(enc);
        }
        enc.put_time(self.data_bus_free);
        enc.put_time(self.next_refresh);
        enc.put_u64(self.stats.accesses);
        enc.put_u64(self.stats.bytes);
        enc.put_time(self.stats.bus_busy);
        enc.put_u64(self.stats.refreshes);
    }

    /// Restores state captured by [`encode_state`](Self::encode_state) onto
    /// a buffer constructed with the same timing set.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        for bank in &mut self.banks {
            bank.decode_state(dec)?;
        }
        self.data_bus_free = dec.get_time()?;
        self.next_refresh = dec.get_time()?;
        self.stats.accesses = dec.get_u64()?;
        self.stats.bytes = dec.get_u64()?;
        self.stats.bus_busy = dec.get_time()?;
        self.stats.refreshes = dec.get_u64()?;
        Ok(())
    }

    /// Resets dynamic state (row buffers, bus, statistics).
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = Bank::new();
        }
        self.data_bus_free = SimTime::ZERO;
        self.next_refresh = self.timings.refresh_interval();
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssdx_sim::Frequency;

    fn buf() -> DramBuffer {
        DramBuffer::new(0, DdrTimings::ddr2_800())
    }

    fn state_bytes(buffer: &DramBuffer) -> Vec<u8> {
        let mut enc = Encoder::new();
        buffer.encode_state(&mut enc);
        enc.finish()
    }

    /// Timing sets with 1 to 16 banks, rows shorter than one bank rotation
    /// and rows that are no multiple of the burst size, and refresh windows
    /// that may not fit their interval (the slow refresh path).
    fn timings() -> impl Strategy<Value = DdrTimings> {
        (
            (
                1u32..=16,
                prop::sample::select(vec![4u32, 8]),
                prop::sample::select(vec![4u32, 8, 16]),
                prop::sample::select(vec![64u32, 192, 512, 8192]),
            ),
            (
                prop::sample::select(vec![100u64, 266, 400]),
                1u32..=8,
                1u32..=8,
                1u32..=8,
                1u32..=200,
                prop::sample::select(vec![60u64, 700, 7_800]),
            ),
        )
            .prop_map(
                |(
                    (banks, burst_length, bus_width_bytes, row_bytes),
                    (mhz, cl, t_rcd, t_rp, t_rfc, t_refi_ns),
                )| DdrTimings {
                    clock: Frequency::from_mhz(mhz),
                    cl,
                    t_rcd,
                    t_rp,
                    t_ras: t_rcd + t_rp,
                    t_rfc,
                    t_refi_ns,
                    burst_length,
                    bus_width_bytes,
                    banks,
                    row_bytes,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each access of a random run (1 to 40 accesses of history, then
        /// one more) matches the per-burst reference exactly: outcome and
        /// every byte of buffer state. Short gaps leave banks busy past the
        /// next access's start; long ones cross refresh deadlines.
        #[test]
        fn closed_form_trains_match_the_per_burst_reference(
            timings in timings(),
            accesses in prop::collection::vec(
                (
                    prop_oneof![0u64..200, 0u64..50_000],
                    0u64..(1 << 34),
                    prop_oneof![1u32..=4096, 1u32..=(128 << 10)],
                ),
                2..=41,
            ),
        ) {
            let mut fast = DramBuffer::new(0, timings);
            let mut reference = fast.clone();
            let mut at = SimTime::ZERO;
            for (gap_ns, addr, bytes) in accesses {
                at += SimTime::from_ns(gap_ns);
                let got = fast.access(at, addr, bytes, AccessKind::Write);
                let want = reference.access_reference(at, addr, bytes);
                prop_assert_eq!(got, want);
                prop_assert_eq!(state_bytes(&fast), state_bytes(&reference));
            }
        }

        /// Each access of a back-to-back run starts at or after the previous
        /// one's end, so it finds the bus free and, unless a refresh is
        /// still in flight, every bank ready. Some gaps cross one or two
        /// refresh deadlines, and
        /// sizes span one burst to many rows. Outcome and state bytes match
        /// the per-burst reference. Refresh runs at the DDR2 interval: a
        /// window that outlasts its interval makes every refresh push the
        /// device further behind, so an access that waits for the previous
        /// one's end would wait geometrically longer each time.
        #[test]
        fn back_to_back_trains_match_the_per_burst_reference(
            timings in timings().prop_map(|t| DdrTimings { t_refi_ns: 7_800, ..t }),
            accesses in prop::collection::vec(
                (
                    prop_oneof![Just(0u64), 0u64..100, 5_000u64..20_000],
                    0u64..(1 << 34),
                    prop_oneof![1u32..=4096, 4096u32..=(64 << 10)],
                ),
                1..=40,
            ),
        ) {
            let mut fast = DramBuffer::new(0, timings);
            let mut reference = fast.clone();
            let mut at = SimTime::ZERO;
            for (gap_ns, addr, bytes) in accesses {
                at += SimTime::from_ns(gap_ns);
                let got = fast.access(at, addr, bytes, AccessKind::Write);
                let want = reference.access_reference(at, addr, bytes);
                prop_assert_eq!(got, want);
                prop_assert_eq!(state_bytes(&fast), state_bytes(&reference));
                at = got.end;
            }
        }
    }

    #[test]
    fn access_takes_longer_than_pure_burst_time() {
        let mut b = buf();
        let o = b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        // 4096 / 64 = 64 bursts, each 10 ns on the bus -> at least 640 ns.
        assert_eq!(o.bursts, 64);
        assert!(o.end >= SimTime::from_ns(640));
        // But well under 10 µs: the DRAM is not the bottleneck of the SSD.
        assert!(o.end < SimTime::from_us(10));
    }

    #[test]
    fn sequential_accesses_mostly_hit_the_row_buffer() {
        let mut b = buf();
        b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        let o2 = b.access(SimTime::from_us(10), 0, 4096, AccessKind::Read);
        assert!(
            o2.row_hits > o2.bursts / 2,
            "row hits = {}/{}",
            o2.row_hits,
            o2.bursts
        );
    }

    #[test]
    fn small_access_still_one_burst() {
        let mut b = buf();
        let o = b.access(SimTime::ZERO, 128, 16, AccessKind::Read);
        assert_eq!(o.bursts, 1);
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut b = buf();
        b.access(SimTime::from_ms(1), 0, 64, AccessKind::Write);
        // 1 ms / 7.8 µs ≈ 128 refreshes due before the access.
        assert!(
            b.stats().refreshes >= 120,
            "refreshes = {}",
            b.stats().refreshes
        );
    }

    #[test]
    fn bus_is_shared_across_accesses() {
        let mut b = buf();
        let o1 = b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        let o2 = b.access(SimTime::ZERO, 1 << 20, 4096, AccessKind::Write);
        assert!(o2.start >= o1.end - SimTime::from_ns(10));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut b = buf();
        b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        assert_eq!(b.stats().accesses, 1);
        assert_eq!(b.stats().bytes, 4096);
        assert!(b.effective_bandwidth(SimTime::from_us(10)) > 0.0);
        b.reset();
        assert_eq!(b.stats().accesses, 0);
        assert_eq!(b.bus_free_at(), SimTime::ZERO);
    }

    #[test]
    fn long_access_across_rows_is_pinned() {
        // An unaligned 128 KiB access on DDR2-800 touches 17 rows of 8 KiB.
        // The 4 KB warm-up leaves row 0 open in every bank, so the long
        // access starts with hits, then pays one conflict per bank at each
        // row boundary (only 5 before the access ends at the last one).
        // Every figure below is pinned by value.
        let mut b = buf();
        b.access(SimTime::ZERO, 0, 4096, AccessKind::Write);
        let o = b.access(
            SimTime::from_ns(100),
            5 * 64 + 24,
            128 << 10,
            AccessKind::Read,
        );
        assert_eq!(o.bursts, 2048);
        assert_eq!(o.end, SimTime::from_ps(50_732_500));
        assert_eq!(o.row_hits, 1923);
        let counts: Vec<_> = b.banks.iter().map(Bank::outcome_counts).collect();
        let mut expected = vec![(247, 1, 16); 5];
        expected.extend([(248, 1, 15); 3]);
        assert_eq!(counts, expected);
    }

    #[test]
    fn post_refresh_page_access_is_pinned() {
        // At 10 µs the refresh due at 7.8 µs has closed every row and ended
        // (tRFC = 127.5 ns), so a 4 KB access finds the device quiescent:
        // 8 misses (tRCD = 12.5 ns each), then 56 hits, each burst CAS +
        // burst = 22.5 ns after its predecessor.
        let mut b = buf();
        let o = b.access(SimTime::from_us(10), 0, 4096, AccessKind::Write);
        assert_eq!(b.stats().refreshes, 1);
        assert_eq!(o.start, SimTime::from_ps(10_025_000));
        assert_eq!(o.end, SimTime::from_ps(11_540_000));
        assert_eq!((o.bursts, o.row_hits), (64, 56));
        assert_eq!(b.bus_free_at(), o.end);
        let counts: Vec<_> = b.banks.iter().map(Bank::outcome_counts).collect();
        assert_eq!(counts, vec![(7, 1, 0); 8]);
        let ready: Vec<_> = b.banks.iter().map(|bank| bank.ready_at().as_ps()).collect();
        assert_eq!(
            ready,
            [
                11_382_500, 11_405_000, 11_427_500, 11_450_000, 11_472_500, 11_495_000, 11_517_500,
                11_540_000
            ]
        );
    }

    #[test]
    fn effective_bandwidth_zero_horizon() {
        let b = buf();
        assert_eq!(b.effective_bandwidth(SimTime::ZERO), 0.0);
    }
}
