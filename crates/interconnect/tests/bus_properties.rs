//! Property-based tests of the AMBA AHB model: cycle accounting, bandwidth
//! bounds and master-independent timing.

use proptest::prelude::*;
use ssdx_interconnect::{AhbBus, AhbConfig, BurstKind};
use ssdx_sim::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transfer_cycles_scale_linearly_with_burst_count(kilobytes in 1u32..64) {
        let bus = AhbBus::new(AhbConfig::paper_default());
        let bytes = kilobytes * 1024;
        let cycles = bus.transfer_cycles(bytes);
        // 16-beat bursts of 4-byte beats: 64 bytes per burst, 18 cycles each.
        let bursts = bytes.div_ceil(64) as u64;
        prop_assert_eq!(cycles, bursts * 18);
    }

    #[test]
    fn bus_throughput_never_exceeds_peak(transfers in prop::collection::vec(64u32..8_192, 1..60)) {
        let mut bus = AhbBus::new(AhbConfig::paper_default());
        let mut last_end = SimTime::ZERO;
        let mut bytes = 0u64;
        for (i, size) in transfers.iter().enumerate() {
            let t = bus.transfer(SimTime::ZERO, (i % 16) as u32, 0, *size);
            last_end = last_end.max(t.end);
            bytes += *size as u64;
        }
        let implied = bytes as f64 / last_end.as_secs_f64();
        prop_assert!(implied <= bus.peak_bandwidth() as f64);
    }

    #[test]
    fn burst_selection_never_exceeds_remaining_beats(beats in 1u32..1_000) {
        let kind = BurstKind::largest_fitting(beats);
        prop_assert!(kind.beats() <= beats.max(1));
    }

    #[test]
    fn wait_states_add_exactly_one_cycle_per_beat(bytes in 4u32..4_096, wait in 0u32..4) {
        let baseline = AhbBus::new(AhbConfig::paper_default()).transfer_cycles(bytes);
        let slowed = AhbBus::new(AhbConfig {
            default_wait_states: wait,
            ..AhbConfig::paper_default()
        })
        .transfer_cycles(bytes);
        let beats = bytes.div_ceil(4).max(1) as u64;
        prop_assert_eq!(slowed - baseline, beats * wait as u64);
    }

    #[test]
    fn timing_does_not_depend_on_the_master_port(
        transfers in prop::collection::vec((0u64..20_000, 1u32..8_192, 0u32..16, 0u32..16), 1..60)
    ) {
        // The same (at, bytes) sequence issued by two arbitrary master
        // assignments: ownership is first come, first served, so every
        // transfer is granted and timed identically.
        let mut a = AhbBus::new(AhbConfig::paper_default());
        let mut b = AhbBus::new(AhbConfig::paper_default());
        for (at_ns, bytes, master_a, master_b) in transfers {
            let at = SimTime::from_ns(at_ns);
            prop_assert_eq!(a.transfer(at, master_a, 0, bytes), b.transfer(at, master_b, 0, bytes));
        }
        prop_assert_eq!(a.free_at(), b.free_at());
    }
}

#[test]
fn descriptor_sized_transfers_are_cheap_relative_to_data() {
    // The control path the SSD firmware exercises (a handful of 32-bit
    // register and descriptor accesses) must cost microseconds at most,
    // orders of magnitude below a NAND page program.
    let mut bus = AhbBus::new(AhbConfig::paper_default());
    let descriptor = bus.transfer(SimTime::ZERO, 0, 0, 128);
    assert!(descriptor.end - descriptor.start < SimTime::from_us(1));
    let page = bus.transfer(descriptor.end, 1, 1, 4096);
    assert!(page.end - page.start > (descriptor.end - descriptor.start) * 10);
}
