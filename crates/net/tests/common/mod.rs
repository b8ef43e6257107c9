//! What more than one integration suite of this crate needs.
#![allow(dead_code)]

use cckvs_net::wire::Frame;
use cckvs_trace::{Event, EventKind};
use consistency::lamport::{NodeId, Timestamp};
use consistency::messages::ProtocolMsg;

/// One of every frame the protocol knows, nested shapes included: the
/// round-trip corpus, and what the allocation budget encodes.
pub fn all_frames() -> Vec<Frame> {
    let ts = Timestamp::new(77, NodeId(3));
    vec![
        Frame::ClientHello,
        Frame::PeerHello {
            from: 2,
            gen: 0xFEED_5EED_0042,
            processed: 77,
            peer_gen: 0xFEED_5EED_0007,
        },
        Frame::PeerHelloAck {
            processed: 123_456,
            gen: u64::MAX,
            start_seq: 78,
        },
        Frame::PeerResume { start_seq: 78 },
        Frame::Get { key: 42 },
        Frame::Put {
            key: 42,
            value: b"hello".to_vec(),
        },
        Frame::GetResp {
            cached: true,
            ts,
            value: b"world".to_vec(),
        },
        Frame::GetResp {
            cached: false,
            ts: Timestamp::ZERO,
            value: Vec::new(),
        },
        Frame::PutResp { cached: true, ts },
        Frame::Protocol {
            msg: ProtocolMsg::Invalidation {
                key: 9,
                ts,
                from: NodeId(1),
            },
            bytes: None,
        },
        Frame::Protocol {
            msg: ProtocolMsg::Ack {
                key: 9,
                ts,
                from: NodeId(2),
            },
            bytes: None,
        },
        Frame::Protocol {
            msg: ProtocolMsg::Update {
                key: 9,
                value: 0xDEAD_BEEF,
                ts,
                from: NodeId(1),
            },
            bytes: Some(b"payload".to_vec()),
        },
        Frame::MissGet { key: 1 },
        Frame::MissGetResp {
            value: b"cold".to_vec(),
        },
        Frame::MissPut {
            key: 1,
            tag: 9,
            writer: 2,
            value: b"v".to_vec(),
        },
        Frame::MissPutResp { ts },
        Frame::MissPutResp {
            ts: Timestamp::ZERO,
        },
        Frame::MissRetry,
        Frame::WriteBack {
            key: 11,
            value: b"dirty".to_vec(),
            ts,
        },
        Frame::WriteBackResp { applied: true },
        Frame::WriteBackResp { applied: false },
        Frame::HotMark { key: 12 },
        Frame::HotMarkResp {
            value: b"fetched".to_vec(),
            ts,
        },
        Frame::HotMarkResp {
            value: Vec::new(),
            ts: Timestamp::ZERO,
        },
        Frame::HotUnmark { key: 12 },
        Frame::HotUnmarkResp,
        Frame::InstallHot {
            key: 3,
            value: b"hot".to_vec(),
            ts,
            warm: false,
        },
        Frame::InstallHot {
            key: 4,
            value: Vec::new(),
            ts: Timestamp::ZERO,
            warm: true,
        },
        Frame::InstallHotResp { ok: true },
        Frame::ActivateHot { key: 4 },
        Frame::ActivateHotResp { ok: false },
        Frame::Evict { key: 3 },
        Frame::EvictResp { existed: false },
        Frame::FlipEpoch,
        Frame::FlipEpochResp {
            epoch: u64::MAX,
            installed: 17,
            evicted: 3,
        },
        Frame::Error {
            message: "value exceeds shard capacity".to_string(),
        },
        Frame::Batch { frames: Vec::new() },
        Frame::Batch {
            frames: vec![
                Frame::Get { key: 1 },
                Frame::Put {
                    key: 2,
                    value: b"batched".to_vec(),
                },
                Frame::Credit { cum: 3, gen: 9 },
            ],
        },
        Frame::Credit { cum: 0, gen: 0 },
        Frame::Credit {
            cum: u64::MAX,
            gen: u64::MAX,
        },
        Frame::VersionFloor,
        Frame::VersionFloorResp { clock: u32::MAX },
        Frame::CacheKeys,
        Frame::CacheKeysResp { keys: Vec::new() },
        Frame::CacheKeysResp {
            keys: vec![0, 7, u64::MAX],
        },
        Frame::Traced {
            id: 0xDEAD_BEEF_CAFE,
            inner: Box::new(Frame::Put {
                key: 42,
                value: b"sampled".to_vec(),
            }),
        },
        Frame::RpcReq {
            corr: 7,
            inner: Box::new(Frame::MissGet { key: 3 }),
        },
        Frame::RpcReq {
            corr: u64::MAX,
            inner: Box::new(Frame::Traced {
                id: 0xAB,
                inner: Box::new(Frame::MissPut {
                    key: 3,
                    tag: 11,
                    writer: 2,
                    value: b"cold".to_vec(),
                }),
            }),
        },
        Frame::RpcResp {
            corr: 7,
            inner: Box::new(Frame::MissGetResp {
                value: b"v".to_vec(),
            }),
        },
        Frame::RpcResp {
            corr: 9,
            inner: Box::new(Frame::MissRetry),
        },
        Frame::Batch {
            frames: vec![
                Frame::RpcReq {
                    corr: 1,
                    inner: Box::new(Frame::MissGet { key: 3 }),
                },
                Frame::RpcResp {
                    corr: 2,
                    inner: Box::new(Frame::MissGetResp { value: Vec::new() }),
                },
            ],
        },
        Frame::Traced {
            id: 1,
            inner: Box::new(Frame::Protocol {
                msg: ProtocolMsg::Ack {
                    key: 9,
                    ts,
                    from: NodeId(2),
                },
                bytes: None,
            }),
        },
        Frame::Batch {
            frames: vec![
                Frame::Traced {
                    id: 7,
                    inner: Box::new(Frame::Get { key: 1 }),
                },
                Frame::Get { key: 2 },
            ],
        },
        Frame::TraceDump,
        Frame::TraceDumpResp {
            dropped: 0,
            events: Vec::new(),
        },
        Frame::TraceDumpResp {
            dropped: 3,
            events: vec![
                Event {
                    trace_id: u64::MAX,
                    t_ns: 1_700_000_000_000_000_000,
                    key: 42,
                    node: 2,
                    shard: 0,
                    kind: EventKind::LinInitiate,
                    peer: cckvs_trace::NO_PEER,
                },
                Event {
                    trace_id: 5,
                    t_ns: 0,
                    key: 0,
                    node: 0,
                    shard: cckvs_trace::SHARED_LANE,
                    kind: EventKind::AckRecv,
                    peer: 1,
                },
            ],
        },
        Frame::Ping,
        Frame::Pong,
        Frame::Shutdown,
    ]
}
