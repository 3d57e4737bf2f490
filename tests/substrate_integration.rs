//! Integration tests that wire substrate crates together *below* the full
//! SSD model: channel controller + NAND + ECC, DRAM + interconnect, firmware
//! CPU + AHB. These catch interface drift between crates that the top-level
//! pipeline might mask.

use ssdexplorer::channel::{ChannelConfig, ChannelController, GangMode};
use ssdexplorer::cpu::{CpuModel, FirmwareProfile};
use ssdexplorer::dram::{AccessKind, DdrTimings, DramBuffer};
use ssdexplorer::ecc::EccScheme;
use ssdexplorer::ftl::{PageMappedFtl, WafModel, WorkloadMix};
use ssdexplorer::interconnect::{AhbBus, AhbConfig};
use ssdexplorer::nand::{NandConfig, NandOp, OnfiBus, OnfiSpeed, PageAddr};
use ssdexplorer::sim::{Resource, SimTime};

#[test]
fn channel_plus_ecc_read_pipeline_orders_stages_correctly() {
    let mut channel = ChannelController::new(
        0,
        ChannelConfig::new(2, 2).with_onfi(OnfiBus::new(OnfiSpeed::Sdr20)),
        NandConfig::default(),
        99,
    );
    let ecc = EccScheme::fixed_bch(40);
    let mut decoder = Resource::new("decoder");
    let addr = PageAddr {
        plane: 0,
        block: 1,
        page: 3,
    };

    let read = channel.execute(SimTime::ZERO, 0, 1, NandOp::Read, addr, 4096 + 224);
    let pe = channel.die(0, 1).unwrap().block_pe_cycles(addr);
    let decode = decoder.reserve(
        read.complete_at,
        ecc.decode_latency_for(4096, pe, read.expected_raw_errors),
    );

    assert!(
        read.complete_at > SimTime::from_us(60),
        "array read plus bus transfer"
    );
    assert!(decode.start >= read.complete_at);
    assert!(
        decode.end > decode.start + SimTime::from_us(50),
        "a 40-bit decode is expensive"
    );
}

#[test]
fn channel_aging_increases_required_correction_and_latency() {
    let mut channel = ChannelController::new(0, ChannelConfig::new(1, 1), NandConfig::default(), 7);
    let ecc = EccScheme::adaptive_bch(40);
    let addr = PageAddr {
        plane: 0,
        block: 0,
        page: 0,
    };

    let fresh_pe = channel.die(0, 0).unwrap().block_pe_cycles(addr);
    let fresh_latency = ecc.decode_latency_for(2048, fresh_pe, 0.5);

    channel.age_all(3_000);
    let worn_pe = channel.die(0, 0).unwrap().block_pe_cycles(addr);
    let worn_errors = channel.die(0, 0).unwrap().expected_raw_errors(addr);
    let worn_latency = ecc.decode_latency_for(2048, worn_pe, worn_errors);

    assert_eq!(worn_pe, 3_000);
    assert!(ecc.t_for(worn_pe) > ecc.t_for(fresh_pe));
    assert!(worn_latency > fresh_latency * 2);
}

#[test]
fn waf_abstraction_and_real_ftl_agree_on_traffic_direction() {
    // The analytic model and the actual page-mapped FTL must agree that
    // random traffic amplifies and sequential traffic does not.
    let analytic = WafModel::new(0.25);
    let mut real = PageMappedFtl::new(64, 32, 0.25);
    for lpn in 0..real.logical_pages() {
        real.write(lpn).expect("priming write fits");
    }
    let mut rng = ssdexplorer::sim::rng::SimRng::new(3);
    for _ in 0..20_000 {
        let lpn = rng.uniform_u64(0, real.logical_pages() - 1);
        real.write(lpn).expect("random write fits");
    }
    let measured = real.stats().waf();
    let predicted = analytic.waf(WorkloadMix::random());
    assert!(measured > 1.2, "measured WAF {measured}");
    assert!(predicted > 1.2, "predicted WAF {predicted}");
    // The greedy analytic bound and the measured greedy collector should sit
    // in the same ballpark (well within 2x of each other).
    let ratio = measured / predicted;
    assert!(
        (0.4..2.5).contains(&ratio),
        "measured {measured} vs predicted {predicted}"
    );

    // Sequential overwrites: both say (close to) no amplification.
    let mut seq = PageMappedFtl::new(64, 32, 0.25);
    for _ in 0..3 {
        for lpn in 0..seq.logical_pages() {
            seq.write(lpn).expect("sequential write fits");
        }
    }
    assert!(seq.stats().waf() < 1.2);
    assert!((analytic.waf(WorkloadMix::sequential()) - 1.0).abs() < 1e-12);
}

#[test]
fn firmware_descriptor_traffic_fits_between_dram_accesses() {
    // One command's control flow: firmware runs on the CPU, descriptors move
    // over the AHB, data lands in the DRAM buffer — all with consistent
    // timestamps.
    let mut cpu = CpuModel::new(FirmwareProfile::waf_abstracted());
    let mut ahb = AhbBus::new(AhbConfig::paper_default());
    let mut dram = DramBuffer::new(0, DdrTimings::ddr2_800());

    let firmware = cpu.execute_command_overhead(SimTime::ZERO);
    let descriptors = ahb.transfer(firmware.start, 0, 0, 128);
    let data = dram.access(
        firmware.end.max(descriptors.end),
        0,
        4096,
        AccessKind::Write,
    );

    assert!(firmware.end > firmware.start);
    assert!(descriptors.end > firmware.start);
    assert!(data.start >= firmware.end);
    assert!(data.end > data.start);
    assert!(cpu.stats().cycles > 0);
    assert_eq!(dram.stats().accesses, 1);
}

#[test]
fn shared_control_gang_finishes_a_multi_way_burst_sooner() {
    let run = |gang: GangMode| {
        let mut channel = ChannelController::new(
            0,
            ChannelConfig::new(4, 1)
                .with_gang(gang)
                .with_onfi(OnfiBus::new(OnfiSpeed::Sdr20)),
            NandConfig::default(),
            11,
        );
        let addr = PageAddr {
            plane: 0,
            block: 0,
            page: 0,
        };
        let mut last_bus = SimTime::ZERO;
        for way in 0..4 {
            let out = channel.execute(SimTime::ZERO, way, 0, NandOp::Program, addr, 2048 + 64);
            last_bus = last_bus.max(out.bus_done);
        }
        last_bus
    };
    let shared_bus = run(GangMode::SharedBus);
    let shared_control = run(GangMode::SharedControl);
    assert!(
        shared_control < shared_bus,
        "shared-control {shared_control} should beat shared-bus {shared_bus}"
    );
}

#[test]
fn dram_refresh_and_bus_contention_are_visible_at_scale() {
    let mut buffer = DramBuffer::new(0, DdrTimings::ddr2_800());
    // Hammer the buffer for a simulated millisecond.
    let mut at = SimTime::ZERO;
    for i in 0..1_000u64 {
        let outcome = buffer.access(at, i * 4096, 4096, AccessKind::Write);
        at = outcome.end + SimTime::from_ns(500);
    }
    let stats = buffer.stats();
    assert_eq!(stats.accesses, 1_000);
    assert!(
        stats.refreshes > 50,
        "refresh must fire during a ~ms-long burst"
    );
    assert!(stats.bus_busy > SimTime::from_us(500));
}
