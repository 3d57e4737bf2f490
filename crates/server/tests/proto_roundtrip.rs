//! Wire-protocol codec contracts: every message round-trips, and no
//! byte stream — truncated, corrupted, or arbitrary — can make a
//! decoder panic.

use proptest::prelude::*;
use ssdx_hostif::AccessPattern;
use ssdx_server::proto::{ErrorCode, Request, Response, ServerMessage, Telemetry, WorkloadSpec};
use ssdx_server::PROTOCOL_VERSION;
use ssdx_sim::SimTime;

/// One of every request variant, with non-trivial field values.
fn all_requests() -> Vec<Request> {
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
        },
        Request::CreateSession {
            config: "channels = 4\n".to_owned(),
            workload: WorkloadSpec::Basic {
                pattern: AccessPattern::RandomRead,
                block_size: 8192,
                command_count: 1000,
                footprint_bytes: 1 << 28,
                seed: 7,
            },
        },
        Request::CreateSession {
            config: String::new(),
            workload: WorkloadSpec::Zipfian {
                theta: 0.85,
                seed: 11,
                command_count: 64,
                block_size: 4096,
                footprint_bytes: 1 << 24,
                read_fraction: 0.25,
            },
        },
        Request::CreateSession {
            config: "x".to_owned(),
            workload: WorkloadSpec::Bursty {
                seed: 3,
                command_count: 256,
                block_size: 512,
                footprint_bytes: 1 << 20,
                read_fraction: 1.0,
                burst_len: 16,
                inter_arrival: SimTime::from_us(5),
                idle_gap: SimTime::from_ms(2),
            },
        },
        Request::CreateSession {
            config: "y".to_owned(),
            workload: WorkloadSpec::MixedSize {
                sizes: vec![(4096, 4), (65536, 1)],
                seed: 9,
                command_count: 128,
                footprint_bytes: 1 << 22,
                read_fraction: 0.0,
            },
        },
        Request::CreateSession {
            config: "z".to_owned(),
            workload: WorkloadSpec::Rmw {
                seed: 13,
                updates: 32,
                block_size: 4096,
                footprint_bytes: 1 << 21,
            },
        },
        Request::Step {
            session: 42,
            commands: u64::MAX,
        },
        Request::RunUntil {
            session: 1,
            deadline: SimTime::from_ms(100),
        },
        Request::Subscribe {
            session: 2,
            sample_every: 128,
        },
        Request::Unsubscribe { session: 2 },
        Request::CaptureSnapshot { session: 3 },
        Request::Fork { session: 4 },
        Request::FetchReport { session: 5 },
        Request::FetchTails { session: 6 },
        Request::CloseSession { session: u32::MAX },
        Request::Shutdown,
    ]
}

/// A real report from a tiny run, so the report codec sees live
/// histograms rather than zeroed ones.
fn tiny_report() -> ssdx_core::PerfReport {
    let config = ssdx_core::SsdConfig::builder("proto-roundtrip")
        .topology(1, 1, 1)
        .seed(5)
        .build()
        .expect("valid test config");
    let workload = ssdx_hostif::Workload::builder(AccessPattern::RandomWrite)
        .command_count(64)
        .footprint_bytes(1 << 22)
        .seed(5)
        .build();
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    ssd.simulate(&workload)
}

/// One of every response variant.
fn all_responses() -> Vec<Response> {
    let report = tiny_report();
    vec![
        Response::HelloAck {
            version: PROTOCOL_VERSION,
        },
        Response::SessionCreated { session: 17 },
        Response::Progress {
            session: 17,
            executed: 64,
            now: SimTime::from_us(321),
            completed: 64,
            remaining: 0,
        },
        Response::Subscribed { session: 17 },
        Response::Unsubscribed { session: 17 },
        Response::SnapshotImage {
            session: 17,
            image: vec![0xDE, 0xAD, 0xBE, 0xEF],
        },
        Response::Forked {
            parent: 17,
            session: 18,
        },
        Response::Tails {
            session: 17,
            tails: report.tails().to_vec(),
        },
        Response::Report {
            session: 17,
            report: Box::new(report),
        },
        Response::Closed { session: 17 },
        Response::ShuttingDown,
        Response::Error {
            code: ErrorCode::BadWorkload,
            message: "theta out of range".to_owned(),
        },
    ]
}

/// One of every telemetry variant.
fn all_telemetry() -> Vec<Telemetry> {
    let config = ssdx_core::SsdConfig::builder("proto-telemetry")
        .topology(1, 1, 1)
        .build()
        .expect("valid test config");
    let workload = ssdx_hostif::Workload::builder(AccessPattern::SequentialWrite)
        .command_count(4)
        .seed(1)
        .build();
    let mut ssd = ssdx_core::Ssd::try_new(config).expect("valid test device");
    let mut session = ssd.session(&workload);
    let record = session.step().expect("the tiny run has completions");
    let snapshot = session.snapshot();
    vec![
        Telemetry::Completion { session: 9, record },
        Telemetry::Utilization {
            session: 9,
            snapshot,
        },
        Telemetry::Dropped {
            session: 9,
            dropped: 1234,
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for request in all_requests() {
        let bytes = request.encode();
        let back = Request::decode(&bytes).expect("round trip decodes");
        assert_eq!(back, request, "request round trip");
    }
}

#[test]
fn every_response_round_trips() {
    for response in all_responses() {
        let bytes = response.encode();
        let back = Response::decode(&bytes).expect("round trip decodes");
        // `PerfReport` has no `PartialEq`; its debug format is the
        // golden byte-identity surface, so compare through it.
        assert_eq!(format!("{back:?}"), format!("{response:?}"));
        // The channel dispatcher must agree on the tag.
        match ServerMessage::decode(&bytes).expect("dispatch decodes") {
            ServerMessage::Response(r) => {
                assert_eq!(format!("{r:?}"), format!("{response:?}"));
            }
            ServerMessage::Telemetry(t) => panic!("response decoded as telemetry: {t:?}"),
        }
    }
}

#[test]
fn every_telemetry_round_trips() {
    for telemetry in all_telemetry() {
        let bytes = telemetry.encode();
        let back = Telemetry::decode(&bytes).expect("round trip decodes");
        assert_eq!(back, telemetry, "telemetry round trip");
        match ServerMessage::decode(&bytes).expect("dispatch decodes") {
            ServerMessage::Telemetry(t) => assert_eq!(t, telemetry),
            ServerMessage::Response(r) => panic!("telemetry decoded as response: {r:?}"),
        }
    }
}

#[test]
fn every_strict_prefix_of_a_valid_encoding_errors() {
    let mut encodings: Vec<Vec<u8>> = Vec::new();
    encodings.extend(all_requests().iter().map(Request::encode));
    encodings.extend(all_responses().iter().map(Response::encode));
    encodings.extend(all_telemetry().iter().map(Telemetry::encode));
    for bytes in &encodings {
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert!(
                Request::decode(prefix).is_err() || Response::decode(prefix).is_err(),
                "a strict prefix decoded under both decoders"
            );
            // The dispatcher must reject every strict prefix of its own
            // valid encodings (trailing bytes are caught by expect_end).
            assert!(
                ServerMessage::decode(prefix).is_err(),
                "a strict prefix of len {cut} (of {}) decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for request in all_requests() {
        let mut bytes = request.encode();
        bytes.push(0x00);
        assert!(
            Request::decode(&bytes).is_err(),
            "trailing byte accepted for {request:?}"
        );
    }
}

/// Appends `v` as an LEB128 varint, the wire form of every integer.
fn varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a `str`: its byte length as a varint, then the UTF-8 bytes.
fn string(out: &mut Vec<u8>, s: &str) {
    varint(out, s.len() as u128);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `LatencyHistogram` holding 100 us and 300 us, in the sparse
/// form docs/PROTOCOL.md specifies.
fn two_sample_histogram(out: &mut Vec<u8>) {
    varint(out, 2); // count
    varint(out, 400_000); // sum_ns
    varint(out, 100_000); // min_ns
    varint(out, 300_000); // max_ns
    varint(out, 2); // non-zero buckets
                    // 100 000 ns: e = 16, index (16 - 4) * 32 + ((100 000 >> 11) & 31) = 400.
    varint(out, 400);
    varint(out, 1);
    // 300 000 ns: e = 18, index (18 - 4) * 32 + ((300 000 >> 13) & 31) = 452.
    varint(out, 452);
    varint(out, 1);
}

/// Appends an empty `LatencyHistogram`.
fn empty_histogram(out: &mut Vec<u8>) {
    varint(out, 0); // count
    varint(out, 0); // sum_ns
    varint(out, u64::MAX.into()); // min_ns of an empty histogram
    varint(out, 0); // max_ns
    varint(out, 0); // non-zero buckets
}

/// Conformance with docs/PROTOCOL.md: a `Report` body built byte by byte
/// from the specified field list decodes, and re-encodes to the same
/// bytes. Every histogram, the whole-run one included, is sparse.
#[test]
fn a_report_built_from_the_spec_decodes_and_re_encodes_identically() {
    let mut bytes = vec![0x48]; // Report
    varint(&mut bytes, 3); // session
    string(&mut bytes, "C1"); // config_name
    string(&mut bytes, "1-DDR-buf;1-CHN;1-WAY;1-DIE"); // architecture
    string(&mut bytes, "SW"); // workload
    string(&mut bytes, "cache"); // policy
    varint(&mut bytes, 2); // commands
    varint(&mut bytes, 8192); // bytes
    varint(&mut bytes, 400_000_000); // elapsed, picoseconds
    for f in [20.48f64, 5000.0, 1.0] {
        // throughput_mbps, iops, waf
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    varint(&mut bytes, 4); // nand_page_programs
    varint(&mut bytes, 0); // nand_page_reads
    two_sample_histogram(&mut bytes); // latency
    for f in [0.5f64, 0.1, 0.2, 0.05, 0.3, 0.6] {
        // host_link, dram, cpu, ahb, channel_bus, die
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    empty_histogram(&mut bytes); // read
    two_sample_histogram(&mut bytes); // write
    empty_histogram(&mut bytes); // trim

    let response = Response::decode(&bytes).expect("a spec-built report decodes");
    let Response::Report { session, report } = &response else {
        panic!("decoded as {response:?}");
    };
    assert_eq!(*session, 3);
    assert_eq!(report.commands, 2);
    assert_eq!(report.latency.count(), 2);
    assert_eq!(report.mean_latency(), SimTime::from_us(200));
    assert_eq!(report.latency.min(), SimTime::from_us(100));
    assert_eq!(report.p99_latency(), SimTime::from_us(300));
    assert_eq!(report.utilization.die, 0.6);
    assert_eq!(report.tail(ssdx_core::CommandClass::Write).count, 2);
    assert_eq!(report.tail(ssdx_core::CommandClass::Read).count, 0);
    assert_eq!(response.encode(), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic any decoder — they decode or they
    /// return an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = Telemetry::decode(&bytes);
        let _ = ServerMessage::decode(&bytes);
    }

    /// Single-bit corruption of a valid frame never panics a decoder.
    #[test]
    fn bit_flips_never_panic(
        which in 0usize..16,
        byte_pos in 0usize..4096,
        bit in 0u8..8,
    ) {
        let requests = all_requests();
        let mut bytes = requests[which % requests.len()].encode();
        let idx = byte_pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = Request::decode(&bytes);
        let _ = ServerMessage::decode(&bytes);
    }
}
