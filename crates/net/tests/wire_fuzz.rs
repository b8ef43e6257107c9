//! Property tests of the wire protocol: round trips for the churn frames
//! (`WriteBack`, the hot-transition epoch admin frames, versioned installs)
//! and the coalescing frames (`Batch`, `Credit`), and decode robustness
//! against arbitrary, truncated, corrupted and maliciously nested bytes —
//! a peer can send anything, the decoder must answer with an error, never
//! a panic.
//!
//! The datagram block at the bottom pushes the same hostility one layer
//! down: raw UDP garbage against a live listener, forged cumulative acks
//! and short headers against an established connection, and
//! duplicate/reorder fault plans — frames must come out exactly once, in
//! order, or not at all.

use cckvs_net::envelope::{DG_ACK, DG_CTRL_LEN, DG_DATA, DG_DATA_HDR};
use cckvs_net::transport::{Connection, FaultPlan, TransportConfig, DG_SYN};
use cckvs_net::wire::{
    encode_frame_into, opcode_table, read_frame, write_frame, BatchBuilder, Frame, WireError,
    MAX_DATAGRAM_BYTES,
};
use consistency::lamport::{NodeId, Timestamp};
use consistency::messages::ProtocolMsg;
use proptest::prelude::*;
use std::io::{BufReader, BufWriter, Read, Write};
use std::time::{Duration, Instant};

mod common;

fn ts_of(clock: u32, writer: u8) -> Timestamp {
    Timestamp::new(clock, NodeId(writer))
}

fn assert_roundtrip(frame: Frame) {
    let encoded = frame.encode();
    assert_eq!(Frame::decode(&encoded), Ok(frame));
}

/// Every strict prefix of a well-formed frame must fail to decode: inner
/// length prefixes and the trailing-bytes check make truncation at *any*
/// offset detectable.
fn assert_prefixes_rejected(frame: &Frame) {
    let encoded = frame.encode();
    for cut in 0..encoded.len() {
        assert!(
            Frame::decode(&encoded[..cut]).is_err(),
            "truncation of {frame:?} to {cut}/{} bytes decoded cleanly",
            encoded.len()
        );
    }
}

#[test]
fn all_frames_roundtrip() {
    for frame in common::all_frames() {
        assert_prefixes_rejected(&frame);
        let mut padded = frame.encode();
        padded.push(0);
        assert!(
            Frame::decode(&padded).is_err(),
            "{frame:?} decoded cleanly with a trailing byte"
        );
        assert_roundtrip(frame);
    }
}

/// The payload of every entry of `common::all_frames()`, in its order, as
/// the hand-written codec produced it before `wire.rs` stated its frames
/// as a table: round trips pass a reorder made to the encoder and the
/// decoder alike, these do not.
const GOLDEN: &[&str] = &[
    "01", // ClientHello
    "02024200ed5eedfe00004d000000000000000700ed5eedfe0000", // PeerHello
    "0440e2010000000000ffffffffffffffff4e00000000000000", // PeerHelloAck
    "054e00000000000000", // PeerResume
    "102a00000000000000", // Get
    "112a000000000000000500000068656c6c6f", // Put
    "12014d0000000305000000776f726c64", // GetResp
    "1200000000000000000000", // GetResp
    "13014d00000003", // PutResp
    "200009000000000000004d000000030100", // Protocol
    "200109000000000000004d000000030200", // Protocol
    "200209000000000000004d0000000301efbeadde0000000001070000007061796c6f6164", // Protocol
    "300100000000000000", // MissGet
    "3104000000636f6c64", // MissGetResp
    "32010000000000000009000000020100000076", // MissPut
    "334d00000003", // MissPutResp
    "330000000000", // MissPutResp
    "3a", // MissRetry
    "340b000000000000004d00000003050000006469727479", // WriteBack
    "3501", // WriteBackResp
    "3500", // WriteBackResp
    "360c00000000000000", // HotMark
    "374d000000030700000066657463686564", // HotMarkResp
    "37000000000000000000", // HotMarkResp
    "380c00000000000000", // HotUnmark
    "39", // HotUnmarkResp
    "4003000000000000004d000000030003000000686f74", // InstallHot
    "40040000000000000000000000000100000000", // InstallHot
    "4101", // InstallHotResp
    "460400000000000000", // ActivateHot
    "4700", // ActivateHotResp
    "420300000000000000", // Evict
    "4300", // EvictResp
    "44", // FlipEpoch
    "45ffffffffffffffff1100000003000000", // FlipEpochResp
    "7e1c00000076616c75652065786365656473207368617264206361706163697479", // Error
    "6000000000", // Batch
    "600300000009000000100100000000000000140000001102000000000000000700000062617463686564110000006103000000000000000900000000000000", // Batch
    "6100000000000000000000000000000000", // Credit
    "61ffffffffffffffffffffffffffffffff", // Credit
    "54", // VersionFloor
    "55ffffffff", // VersionFloorResp
    "56", // CacheKeys
    "5700000000", // CacheKeysResp
    "570300000000000000000000000700000000000000ffffffffffffffff", // CacheKeysResp
    "7ffecaefbeadde0000112a000000000000000700000073616d706c6564", // Traced
    "620700000000000000300300000000000000", // RpcReq
    "62ffffffffffffffff7fab000000000000003203000000000000000b0000000204000000636f6c64", // RpcReq
    "630700000000000000310100000076", // RpcResp
    "6309000000000000003a", // RpcResp
    "6002000000120000006201000000000000003003000000000000000e0000006302000000000000003100000000", // Batch
    "7f0100000000000000200109000000000000004d000000030200", // Traced
    "6002000000120000007f070000000000000010010000000000000009000000100200000000000000", // Batch
    "58", // TraceDump
    "59000000000000000000000000", // TraceDumpResp
    "59030000000000000002000000ffffffffffffffff00002a36fe9c97172a00000000000000020003ff05000000000000000000000000000000000000000000000000ff0601", // TraceDumpResp
    "50", // Ping
    "51", // Pong
    "52", // Shutdown
];

#[test]
fn every_frame_encodes_to_its_golden_bytes() {
    let frames = common::all_frames();
    assert_eq!(frames.len(), GOLDEN.len(), "one golden literal per frame");
    for (frame, hex) in frames.iter().zip(GOLDEN) {
        let golden: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).expect("hex literal"))
            .collect();
        assert_eq!(frame.encode(), golden, "{frame:?}");
        assert_eq!(Frame::decode(&golden).as_ref(), Ok(frame));
    }
    // The corpus is kept by hand; the table is not. A frame added to the
    // table without an entry (and a golden) above fails here.
    for row in opcode_table() {
        assert!(
            GOLDEN
                .iter()
                .any(|hex| hex[..2] == format!("{:02x}", row.1)),
            "no entry of common::all_frames() has opcode {:#04x} ({})",
            row.1,
            row.0
        );
    }
}

fn pick(picks: &mut impl Iterator<Item = u64>) -> u64 {
    picks.next().unwrap_or(0)
}

fn bytes_of(picks: &mut impl Iterator<Item = u64>) -> Vec<u8> {
    let r = pick(picks);
    (0..r % 50).map(|i| (r >> (i % 8)) as u8).collect()
}

/// A frame that carries no other frame, fields drawn from `picks`.
fn leaf_of(picks: &mut impl Iterator<Item = u64>) -> Frame {
    let r = pick(picks);
    let key = pick(picks);
    let ts = ts_of(r as u32, (r >> 32) as u8);
    let from = NodeId((r >> 40) as u8);
    match (r >> 48) % 18 {
        0 => Frame::Get { key },
        1 => Frame::Put {
            key,
            value: bytes_of(picks),
        },
        2 => Frame::GetResp {
            cached: r & 1 == 1,
            ts,
            value: bytes_of(picks),
        },
        3 => Frame::PutResp {
            cached: r & 1 == 1,
            ts,
        },
        4 => Frame::Protocol {
            msg: ProtocolMsg::Invalidation { key, ts, from },
            bytes: None,
        },
        5 => Frame::Protocol {
            msg: ProtocolMsg::Ack { key, ts, from },
            bytes: None,
        },
        6 => Frame::Protocol {
            msg: ProtocolMsg::Update {
                key,
                value: pick(picks),
                ts,
                from,
            },
            bytes: (r & 1 == 1).then(|| bytes_of(picks)),
        },
        7 => Frame::MissGet { key },
        8 => Frame::MissGetResp {
            value: bytes_of(picks),
        },
        9 => Frame::MissPut {
            key,
            tag: r as u32,
            writer: from.0,
            value: bytes_of(picks),
        },
        10 => Frame::MissPutResp { ts },
        11 => Frame::MissRetry,
        12 => Frame::WriteBack {
            key,
            value: bytes_of(picks),
            ts,
        },
        13 => Frame::HotMarkResp {
            value: bytes_of(picks),
            ts,
        },
        14 => Frame::InstallHot {
            key,
            value: bytes_of(picks),
            ts,
            warm: r & 1 == 1,
        },
        15 => Frame::Credit { cum: key, gen: r },
        16 => Frame::CacheKeysResp {
            keys: (0..r % 5).map(|i| key ^ i).collect(),
        },
        _ => Frame::Error {
            message: format!("failed {key}"),
        },
    }
}

/// The wire-fuzz frame generator: any leaf, inside whichever envelopes
/// `level` still allows — 3 a batch, 2 a correlated RPC, 1 a trace
/// envelope — which is every nesting the decoder accepts.
fn frame_of(picks: &mut impl Iterator<Item = u64>, level: u8) -> Frame {
    let r = pick(picks);
    match r % 4 {
        0 if level >= 3 => Frame::Batch {
            frames: (0..(r >> 2) % 5).map(|_| frame_of(picks, 2)).collect(),
        },
        1 if level >= 2 => {
            let inner = Box::new(frame_of(picks, 1));
            match r & 4 {
                0 => Frame::RpcReq { corr: r, inner },
                _ => Frame::RpcResp { corr: r, inner },
            }
        }
        2 if level >= 1 => Frame::Traced {
            id: r,
            inner: Box::new(leaf_of(picks)),
        },
        _ => leaf_of(picks),
    }
}

/// The encoder as it was before frames encoded in place, kept as the
/// reference: every nested frame and batch sub-frame is encoded into a
/// buffer of its own and copied behind its header.
fn reference_encode(frame: &Frame) -> Vec<u8> {
    let envelope = |opcode: u8, id: u64, inner: &Frame| {
        let mut buf = vec![opcode];
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&reference_encode(inner));
        buf
    };
    match frame {
        Frame::Batch { frames } => {
            let mut buf = vec![0x60];
            buf.extend_from_slice(&(frames.len() as u32).to_le_bytes());
            for sub in frames {
                buf.extend_from_slice(&reference_framed(sub));
            }
            buf
        }
        Frame::RpcReq { corr, inner } => envelope(0x62, *corr, inner),
        Frame::RpcResp { corr, inner } => envelope(0x63, *corr, inner),
        Frame::Traced { id, inner } => envelope(0x7F, *id, inner),
        leaf => leaf.encode(),
    }
}

/// [`reference_encode`] behind its stream length prefix.
fn reference_framed(frame: &Frame) -> Vec<u8> {
    let payload = reference_encode(frame);
    let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(&payload);
    buf
}

proptest! {
    /// Encoding appends and nothing else: whatever the buffer already
    /// holds stays, and what lands behind it is byte for byte what the
    /// copying encoder produced — for `encode_into`, for the stream
    /// framing, and for a `BatchBuilder` fed the same frames (none, one
    /// bare, several as a batch; protocol messages through the
    /// value-borrowing entry point).
    #[test]
    fn encoding_appends_the_reference_bytes_behind_any_prefix(
        picks in prop::collection::vec(any::<u64>(), 1..64),
        prefix in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let frame = frame_of(&mut picks.into_iter(), 3);
        let behind_prefix = |tail: &[u8]| [&prefix[..], tail].concat();

        let mut buf = prefix.clone();
        frame.encode_into(&mut buf);
        prop_assert_eq!(&buf, &behind_prefix(&frame.encode()));
        prop_assert_eq!(frame.encode(), reference_encode(&frame));
        prop_assert_eq!(Frame::decode(&frame.encode()), Ok(frame.clone()));

        let mut buf = prefix.clone();
        encode_frame_into(&mut buf, &frame);
        prop_assert_eq!(&buf, &behind_prefix(&reference_framed(&frame)));

        let subs = match frame {
            Frame::Batch { frames } => frames,
            single => vec![single],
        };
        let mut builder = BatchBuilder::new();
        for sub in &subs {
            match sub {
                Frame::Protocol { msg, bytes } => {
                    builder.push_protocol_traced(None, msg, bytes.as_deref());
                }
                Frame::Traced { id, inner } if matches!(**inner, Frame::Protocol { .. }) => {
                    let Frame::Protocol { msg, bytes } = &**inner else { unreachable!() };
                    builder.push_protocol_traced(Some(*id), msg, bytes.as_deref());
                }
                other => builder.push(other),
            }
        }
        prop_assert_eq!(builder.count() as usize, subs.len());
        let mut buf = prefix.clone();
        builder.append_to(&mut buf);
        let expected = match subs.len() {
            0 => Vec::new(),
            1 => reference_framed(&subs[0]),
            _ => reference_framed(&Frame::Batch { frames: subs }),
        };
        prop_assert_eq!(&buf, &behind_prefix(&expected));
        prop_assert_eq!((builder.count(), builder.bytes()), (0, 0));
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..192)) {
        // Any result is fine; reaching it without a panic is the property.
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn write_back_roundtrips_and_rejects_truncation(
        key in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..64),
        clock in any::<u32>(),
        writer in any::<u8>(),
        applied in any::<bool>(),
    ) {
        let frame = Frame::WriteBack { key, value, ts: ts_of(clock, writer) };
        assert_prefixes_rejected(&frame);
        assert_roundtrip(frame);
        assert_roundtrip(Frame::WriteBackResp { applied });
    }

    #[test]
    fn hot_transition_frames_roundtrip(
        key in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..64),
        clock in any::<u32>(),
        writer in any::<u8>(),
    ) {
        let ts = ts_of(clock, writer);
        assert_roundtrip(Frame::HotMark { key });
        let resp = Frame::HotMarkResp { value, ts };
        assert_prefixes_rejected(&resp);
        assert_roundtrip(resp);
        assert_roundtrip(Frame::HotUnmark { key });
        assert_roundtrip(Frame::HotUnmarkResp);
        assert_roundtrip(Frame::MissRetry);
        assert_roundtrip(Frame::MissPutResp { ts });
    }

    #[test]
    fn versioned_install_and_flip_frames_roundtrip(
        key in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..64),
        clock in any::<u32>(),
        writer in any::<u8>(),
        epoch in any::<u64>(),
        installed in any::<u32>(),
        evicted in any::<u32>(),
        warm in any::<bool>(),
    ) {
        let install = Frame::InstallHot { key, value, ts: ts_of(clock, writer), warm };
        assert_prefixes_rejected(&install);
        assert_roundtrip(install);
        assert_roundtrip(Frame::ActivateHot { key });
        assert_roundtrip(Frame::ActivateHotResp { ok: warm });
        assert_roundtrip(Frame::FlipEpoch);
        let resp = Frame::FlipEpochResp { epoch, installed, evicted };
        assert_prefixes_rejected(&resp);
        assert_roundtrip(resp);
    }

    #[test]
    fn batch_frames_roundtrip_and_reject_truncation(
        keys in prop::collection::vec(any::<u64>(), 0..8),
        value in prop::collection::vec(any::<u8>(), 0..48),
        credits in any::<u32>(),
    ) {
        let mut frames: Vec<Frame> = keys.iter().map(|&key| Frame::Get { key }).collect();
        frames.push(Frame::Put { key: 1, value });
        frames.push(Frame::Credit { cum: u64::from(credits), gen: 7 });
        let batch = Frame::Batch { frames };
        assert_prefixes_rejected(&batch);
        assert_roundtrip(batch);
        assert_roundtrip(Frame::Credit { cum: u64::from(credits), gen: 7 });
    }

    #[test]
    fn corrupting_any_byte_of_a_batch_never_panics(
        keys in prop::collection::vec(any::<u64>(), 1..6),
        corrupt_at in any::<usize>(),
        corrupt_to in any::<u8>(),
    ) {
        let frames: Vec<Frame> = keys.iter().map(|&key| Frame::Get { key }).collect();
        let mut encoded = Frame::Batch { frames }.encode();
        let at = corrupt_at % encoded.len();
        encoded[at] = corrupt_to;
        // Any verdict is fine (the corruption may even be a no-op or yield
        // a different valid frame); reaching it without a panic is the
        // property.
        let _ = Frame::decode(&encoded);
    }

    #[test]
    fn nested_batches_are_rejected_not_recursed(depth in 2usize..20) {
        // Hand-build `depth` levels of batch nesting (encode() refuses to;
        // a hostile peer would not). The decoder must reject at the first
        // nested level rather than recurse to the bottom.
        let mut payload = Frame::Ping.encode();
        for _ in 0..depth {
            let mut outer = vec![0x60]; // opcode::BATCH
            outer.extend_from_slice(&1u32.to_le_bytes());
            outer.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            outer.extend_from_slice(&payload);
            payload = outer;
        }
        prop_assert_eq!(Frame::decode(&payload), Err(WireError::NestedBatch));
    }

    #[test]
    fn oversized_inner_length_prefixes_are_rejected(key in any::<u64>()) {
        // Hand-craft a WriteBack whose value-length field claims more bytes
        // than the payload carries.
        let mut bytes = Frame::WriteBack { key, value: vec![1, 2, 3], ts: ts_of(1, 0) }.encode();
        let len_at = bytes.len() - 3 - 4;
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert_eq!(Frame::decode(&bytes), Err(WireError::Oversized(u32::MAX as usize)));
    }
}

/// Dials and accepts one connection over `cfg`'s fabric.
fn connected_pair(cfg: TransportConfig) -> (Box<dyn Connection>, Box<dyn Connection>) {
    let transport = cfg.build();
    let mut listener = transport
        .listen("127.0.0.1:0".parse().expect("static addr"))
        .expect("listen");
    let addr = listener.local_addr().expect("local addr");
    let dialer = std::thread::spawn(move || transport.dial(addr, Duration::from_secs(5)));
    let deadline = Instant::now() + Duration::from_secs(5);
    let accepted = loop {
        if let Some(conn) = listener.accept().expect("accept") {
            break conn;
        }
        assert!(Instant::now() < deadline, "accept timed out");
        std::thread::sleep(Duration::from_millis(1));
    };
    (dialer.join().expect("dial thread").expect("dial"), accepted)
}

proptest! {
    // Each case binds real sockets; a handful of cases is plenty.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Garbage datagrams against a live UDP listener — empty, truncated
    /// headers, and arbitrary bytes — must be ignored, not crash or wedge
    /// it: a real handshake afterwards still completes and serves frames.
    #[test]
    fn hostile_datagrams_never_wedge_the_udp_listener(
        garbage in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 1..12),
    ) {
        let transport = TransportConfig::udp().build();
        let mut listener = transport
            .listen("127.0.0.1:0".parse().expect("static addr"))
            .expect("listen");
        let addr = listener.local_addr().expect("local addr");

        let gun = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind gun");
        // Truncated versions of every header shape the protocol knows,
        // then the arbitrary payloads.
        for ty in 1u8..=5 {
            gun.send_to(&[ty], addr).expect("send truncated");
            gun.send_to(&[ty, 0xEE, 0xEE], addr).expect("send truncated");
        }
        gun.send_to(&[], addr).expect("send empty");
        for dg in &garbage {
            gun.send_to(dg, addr).expect("send garbage");
        }

        let dialer = std::thread::spawn(move || transport.dial(addr, Duration::from_secs(5)));
        let deadline = Instant::now() + Duration::from_secs(5);
        let server = loop {
            if let Some(conn) = listener.accept().expect("accept") {
                break conn;
            }
            prop_assert!(Instant::now() < deadline, "accept wedged by garbage");
            std::thread::sleep(Duration::from_millis(1));
        };
        let client = dialer.join().expect("dial thread").expect("dial");
        server.set_nonblocking(false).expect("blocking");
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut writer = BufWriter::new(client);
        write_frame(&mut writer, &Frame::Ping).expect("write");
        writer.flush().expect("flush");
        let mut reader = BufReader::new(server);
        prop_assert_eq!(read_frame(&mut reader).expect("read"), Some(Frame::Ping));
    }

    /// A cumulative ack claiming more datagrams than were ever sent —
    /// piggybacked on `DATA` or stand-alone — is corrupt or addressed to
    /// another incarnation of the connection, and must leave the send half
    /// as it was (`SendHalf::confirm`'s `BeyondSent` contract): the one
    /// datagram it pretends to cover stays retained, so it is
    /// retransmitted. `DATA` too short for its header is dropped, not
    /// mis-parsed as a 9-byte-header datagram.
    #[test]
    fn forged_cumulative_acks_release_nothing(
        beyond in 2u64..u64::MAX,
        piggybacked in any::<bool>(),
    ) {
        let mut listener = TransportConfig::udp()
            .build()
            .listen("127.0.0.1:0".parse().expect("static addr"))
            .expect("listen");
        // A hand-driven peer: raw datagrams, no recovery of its own.
        let peer = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut syn = [0u8; DG_CTRL_LEN];
        syn[0] = DG_SYN;
        peer.send_to(&syn, listener.local_addr().expect("local addr")).expect("syn");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut server = loop {
            if let Some(conn) = listener.accept().expect("accept") {
                break conn;
            }
            prop_assert!(Instant::now() < deadline, "accept timed out");
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut buf = [0u8; 64];
        let (_, conn_addr) = peer.recv_from(&mut buf).expect("syn-ack");
        peer.connect(conn_addr).expect("connect");

        // The server's one and only datagram: seq 0, so only cum 0 and 1
        // are honest.
        server.write_all(b"x").expect("write");
        let n = peer.recv(&mut buf).expect("data");
        let sent = buf[..n].to_vec();
        prop_assert_eq!((n, sent[0], &sent[1..9]), (DG_DATA_HDR + 1, DG_DATA, &[0u8; 8][..]));

        let mut forged = vec![if piggybacked { DG_DATA } else { DG_ACK }];
        if piggybacked {
            forged.extend_from_slice(&0u64.to_le_bytes());
        }
        forged.extend_from_slice(&beyond.to_le_bytes());
        peer.send(&forged).expect("send forged ack");
        // Old-header-sized DATA: seq 1, no room for the ack field.
        let mut short = vec![DG_DATA];
        short.extend_from_slice(&1u64.to_le_bytes());
        peer.send(&short).expect("send short data");
        // One nonblocking read takes in everything queued; neither datagram
        // carried payload, so it ends starved.
        let starved = server
            .read(&mut [0u8; 8])
            .expect_err("no payload to read");
        prop_assert_eq!(starved.kind(), std::io::ErrorKind::WouldBlock);

        // Still retained, so its RTO resends it. Only the forged DATA's
        // own seq 0 earns an ack on the way; the short one was never
        // accepted, or its gap would have been acked at once.
        loop {
            let n = peer.recv(&mut buf).expect("retransmission");
            if buf[0] == DG_DATA {
                prop_assert_eq!(&buf[..n], &sent[..], "seq 0 again, byte for byte");
                break;
            }
            prop_assert!(piggybacked && buf[0] == DG_ACK, "short DATA was parsed");
            prop_assert_eq!(&buf[1..n], &1u64.to_le_bytes()[..]);
        }
    }

    /// Duplicated, reordered, and dropped datagrams: every frame written
    /// is read exactly once, in order, and the FIN still surfaces as a
    /// clean EOF — the replay layer dedups by sequence number, so a
    /// duplicate can never double-deliver.
    #[test]
    fn dup_reorder_fault_plans_deliver_frames_exactly_once(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..16),
        drop_pct in 0u8..10,
        dup_pct in 0u8..30,
        reorder_pct in 0u8..30,
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan { drop_pct, dup_pct, reorder_pct, seed };
        let (client, server) = connected_pair(TransportConfig::udp_with_faults(plan));
        server.set_nonblocking(false).expect("blocking");
        server
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");

        let frames: Vec<Frame> = payloads
            .iter()
            .enumerate()
            .map(|(i, value)| Frame::Put { key: i as u64, value: value.clone() })
            .collect();
        let writer_frames = frames.clone();
        let writer = std::thread::spawn(move || {
            let mut writer = BufWriter::new(client);
            for frame in &writer_frames {
                write_frame(&mut writer, frame).expect("write");
            }
            writer.flush().expect("flush");
            // Dropping the connection sends FIN; the transport lingers to
            // retransmit the tail until it is acked.
        });
        let mut reader = BufReader::new(server);
        for expected in &frames {
            let got = read_frame(&mut reader).expect("read");
            prop_assert_eq!(got.as_ref(), Some(expected), "frame lost or reordered");
        }
        prop_assert_eq!(read_frame(&mut reader).expect("read eof"), None, "extra frame after FIN");
        writer.join().expect("writer thread");
    }
}

/// A frame bigger than one datagram spans several; 10% uniform faults on
/// every one of them must not tear, truncate, or duplicate it.
#[test]
fn multi_datagram_frames_survive_uniform_faults() {
    let plan = FaultPlan::uniform(10, 0xFA_B71C);
    let (client, server) = connected_pair(TransportConfig::udp_with_faults(plan));
    server.set_nonblocking(false).expect("blocking");
    server
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let value: Vec<u8> = (0..2 * MAX_DATAGRAM_BYTES + 123)
        .map(|i| (i % 251) as u8)
        .collect();
    let frame = Frame::Put { key: 7, value };
    let mut writer = BufWriter::new(client);
    write_frame(&mut writer, &frame).expect("write");
    writer.flush().expect("flush");
    drop(writer);
    let mut reader = BufReader::new(server);
    assert_eq!(read_frame(&mut reader).expect("read"), Some(frame));
    assert_eq!(read_frame(&mut reader).expect("read eof"), None);
}
