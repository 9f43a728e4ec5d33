//! Property tests over the serve subset of the framed IPC protocol:
//! arbitrary `Submit`/`Sample`/`Progress`/`CellDone`/`Cancel`/`JobStatus`
//! messages round-trip byte-identically, and *every* truncation or
//! byte flip of a valid frame surfaces as [`ProtoError::Corrupt`] (the
//! error class the shard supervisor burns a transient attempt on —
//! `shard_props.rs` exercises that recovery end to end) — never as a
//! silently different message.

use mperf_sweep::proto::{encode_frame, read_msg, Msg, ProtoError};
use mperf_sweep::serve::ClientSession;
use proptest::prelude::*;

/// Build one serve-subset message from generated raw parts. `kind`
/// picks the variant; unused parts are simply ignored, so every part
/// of the generated tuple space is meaningful for some variant.
fn serve_msg(kind: usize, job: u64, index: u64, code: u32, payload: Vec<u8>, text: String) -> Msg {
    match kind {
        0 => Msg::Submit { job, payload },
        1 => Msg::Sample { job, payload },
        2 => Msg::Progress {
            job,
            done: index,
            total: u64::from(code),
        },
        3 => Msg::CellDone {
            job,
            index,
            payload,
        },
        4 => Msg::Cancel { job },
        _ => Msg::JobStatus {
            job,
            code,
            message: text,
            payload,
        },
    }
}

/// Latin-1 bytes to a definitely-valid UTF-8 string (multi-byte chars
/// included once past 0x7f, so the length prefix is exercised against
/// non-ASCII content).
fn text_from(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| b as char).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serve_messages_roundtrip_byte_identically(
        kind in 0usize..6,
        job in 0u64..=u64::MAX,
        index in 0u64..=u64::MAX,
        code in 0u64..200,
        payload in collection::vec(0u8..255, 0..64),
        text in collection::vec(0u8..255, 0..32),
    ) {
        let msg = serve_msg(kind, job, index, code as u32, payload, text_from(&text));
        let frame = encode_frame(&msg);
        let mut cursor = &frame[..];
        let back = read_msg(&mut cursor).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert!(cursor.is_empty(), "frame is self-delimiting");
        prop_assert_eq!(encode_frame(&back), frame, "re-encode is byte-identical");
    }

    #[test]
    fn truncated_frames_are_torn_never_misread(
        kind in 0usize..6,
        job in 0u64..=u64::MAX,
        payload in collection::vec(0u8..255, 0..64),
        cut_seed in 0u64..=u64::MAX,
    ) {
        let msg = serve_msg(kind, job, 3, 0, payload, "t".into());
        let frame = encode_frame(&msg);
        // Cut anywhere: 0 is a clean Eof (peer gone at a frame
        // boundary); any other prefix is a torn frame → Corrupt, the
        // class the supervisor retries as transient.
        let cut = (cut_seed % frame.len() as u64) as usize;
        let mut cursor = &frame[..cut];
        match read_msg(&mut cursor) {
            Err(ProtoError::Eof) => prop_assert_eq!(cut, 0, "Eof only at the boundary"),
            Err(ProtoError::Corrupt(_)) => prop_assert!(cut > 0),
            other => prop_assert!(false, "truncated frame decoded: {other:?}"),
        }
    }

    #[test]
    fn flipped_bytes_are_corrupt_never_misread(
        kind in 0usize..6,
        job in 0u64..=u64::MAX,
        payload in collection::vec(0u8..255, 1..64),
        pos_seed in 0u64..=u64::MAX,
        flip in 1u64..256,
    ) {
        let msg = serve_msg(kind, job, 9, 130, payload, "status text".into());
        let mut frame = encode_frame(&msg);
        // Flip any CRC or body byte (positions ≥ 4; the length word is
        // covered by the truncation property). The CRC must catch it.
        let pos = 4 + (pos_seed % (frame.len() as u64 - 4)) as usize;
        frame[pos] ^= flip as u8;
        let mut cursor = &frame[..];
        match read_msg(&mut cursor) {
            Err(ProtoError::Corrupt(_)) => {}
            other => prop_assert!(false, "corrupt frame decoded: {other:?}"),
        }
    }

    #[test]
    fn session_drain_stops_at_the_first_corrupt_frame(
        n_good in 0usize..4,
        payload in collection::vec(0u8..255, 1..32),
    ) {
        // A daemon stream: Hello, n good events, then a corrupt frame.
        // The client must deliver exactly the good events and then
        // error Corrupt — no event after the tear is trusted.
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&Msg::hello()));
        for _ in 0..n_good {
            stream.extend_from_slice(&encode_frame(&Msg::Sample {
                job: 1,
                payload: payload.clone(),
            }));
        }
        let mut bad = encode_frame(&Msg::CellDone {
            job: 1,
            index: 0,
            payload: payload.clone(),
        });
        let mid = 8 + (bad.len() - 8) / 2;
        bad[mid] ^= 0xff;
        stream.extend_from_slice(&bad);

        let mut session = ClientSession::connect(&stream[..], Vec::new()).unwrap();
        session.submit(vec![0]).unwrap();
        let mut seen = 0usize;
        let err = session.drain_job(1, |_| seen += 1).unwrap_err();
        prop_assert!(matches!(err, ProtoError::Corrupt(_)), "{err}");
        prop_assert_eq!(seen, n_good, "every pre-tear event delivered");
    }
}
