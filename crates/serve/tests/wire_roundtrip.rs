//! Property tests for the `preflightd` wire protocol: every message that
//! encodes must decode to itself, and corrupted envelopes must be rejected
//! with the right error — never accepted, never panicked on.

use preflight_core::ImageStack;
use preflight_serve::telemetry::RequestStats;
use preflight_serve::wire::{
    decode_message, encode_message, BusyReply, Dtype, ErrorCode, ErrorReply, FramePayload, Message,
    SubmitRequest, SubmitResponse, WireError, MAGIC, VERSION,
};
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1);
    *state
}

/// Frame geometries larger than 64 bytes and not a multiple of 16, so each
/// frame CRC runs the carry-less fold (where the CPU has it) and then the
/// table walk over a short tail: 7×9 u16 frames are 126 bytes, 17×5 u32
/// frames 340.
const FOLDED_FRAMES: [(Dtype, usize, usize); 2] = [(Dtype::U16, 7, 9), (Dtype::U32, 17, 5)];

fn payload_for(
    dtype: Dtype,
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
) -> FramePayload {
    let mut state = seed;
    let n = width * height * frames;
    match dtype {
        Dtype::U16 => {
            let data: Vec<u16> = (0..n).map(|_| lcg(&mut state) as u16).collect();
            FramePayload::U16(ImageStack::from_vec(width, height, frames, data).unwrap())
        }
        Dtype::U32 => {
            let data: Vec<u32> = (0..n).map(|_| lcg(&mut state) as u32).collect();
            FramePayload::U32(ImageStack::from_vec(width, height, frames, data).unwrap())
        }
    }
}

/// A `Submit` and a `Response` carrying the same frames.
fn pixel_messages(payload: FramePayload, eos: bool) -> [Message; 2] {
    [
        Message::Submit(SubmitRequest {
            request_id: 1,
            stream_id: 2,
            lambda: 80,
            upsilon: 4,
            eos,
            payload: payload.clone(),
        }),
        Message::Response(SubmitResponse {
            request_id: 1,
            stats: RequestStats {
                samples_changed: 3,
                service_us: 250,
                ..RequestStats::default()
            },
            payload,
        }),
    ]
}

fn roundtrip(msg: &Message) -> Message {
    let bytes = encode_message(msg);
    let (decoded, consumed) = decode_message(&bytes).expect("well-formed message must decode");
    assert_eq!(
        consumed,
        bytes.len(),
        "decode must consume the whole envelope"
    );
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn submit_roundtrips_for_every_dtype(
        request_id in any::<u64>(),
        stream_id in any::<u64>(),
        lambda in 0u8..=100,
        upsilon_half in 1u8..=8,
        eos in any::<bool>(),
        dtype_is_u32 in any::<bool>(),
        width in 1usize..=9,
        height in 1usize..=9,
        frames in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let dtype = if dtype_is_u32 { Dtype::U32 } else { Dtype::U16 };
        let msg = Message::Submit(SubmitRequest {
            request_id,
            stream_id,
            lambda,
            upsilon: upsilon_half * 2,
            eos,
            payload: payload_for(dtype, width, height, frames, seed),
        });
        prop_assert_eq!(roundtrip(&msg), msg);
        for (dtype, width, height) in FOLDED_FRAMES {
            let msg = Message::Submit(SubmitRequest {
                request_id,
                stream_id,
                lambda,
                upsilon: upsilon_half * 2,
                eos,
                payload: payload_for(dtype, width, height, frames, seed),
            });
            prop_assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn response_roundtrips_for_every_dtype(
        request_id in any::<u64>(),
        dtype_is_u32 in any::<bool>(),
        width in 1usize..=9,
        height in 1usize..=9,
        frames in 1usize..=6,
        seed in any::<u64>(),
        samples_changed in any::<u64>(),
        bits_flipped in any::<u64>(),
        agreement in 0u32..=1000,
        queue_wait_us in any::<u64>(),
        service_us in any::<u64>(),
    ) {
        let dtype = if dtype_is_u32 { Dtype::U32 } else { Dtype::U16 };
        let stats = RequestStats {
            samples_changed,
            bits_flipped,
            voter_agreement_permille: agreement,
            queue_wait_us,
            service_us,
            ..RequestStats::default()
        };
        let msg = Message::Response(SubmitResponse {
            request_id,
            stats,
            payload: payload_for(dtype, width, height, frames, seed),
        });
        prop_assert_eq!(roundtrip(&msg), msg);
        for (dtype, width, height) in FOLDED_FRAMES {
            let msg = Message::Response(SubmitResponse {
                request_id,
                stats,
                payload: payload_for(dtype, width, height, frames, seed),
            });
            prop_assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn control_messages_roundtrip(token in any::<u64>(), capacity in 1u32..1000, in_flight in 0u32..1000) {
        for msg in [
            Message::Ping(token),
            Message::Pong(token),
            Message::Drain,
            Message::Busy(BusyReply { request_id: token, capacity, in_flight }),
            Message::Error(ErrorReply {
                request_id: token,
                code: ErrorCode::Malformed,
                message: "a reason".to_owned(),
            }),
        ] {
            prop_assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn bad_magic_is_rejected(corrupt_byte in 0usize..4, xor in 1u8..=255) {
        let mut bytes = encode_message(&Message::Ping(7));
        bytes[corrupt_byte] ^= xor;
        match decode_message(&bytes) {
            Err(WireError::BadMagic(m)) => prop_assert_ne!(m, MAGIC),
            other => return Err(TestCaseError::fail(format!(
                "corrupt magic must fail as BadMagic, got {other:?}"
            ))),
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length(
        frames in 1usize..=4,
        seed in any::<u64>(),
        cut_num in 0u64..=1_000_000,
    ) {
        let [folded_a, folded_b] = FOLDED_FRAMES;
        for (dtype, width, height) in [(Dtype::U16, 4, 4), folded_a, folded_b] {
            for msg in pixel_messages(payload_for(dtype, width, height, frames, seed), true) {
                let bytes = encode_message(&msg);
                // Any strict prefix must be rejected, and as Truncated/Io —
                // not misparsed into some other message.
                let cut = (cut_num as usize) % bytes.len();
                match decode_message(&bytes[..cut]) {
                    Ok(_) => return Err(TestCaseError::fail(format!(
                        "prefix of {cut}/{} bytes decoded successfully",
                        bytes.len()
                    ))),
                    Err(WireError::Truncated(_)) | Err(WireError::Io(_)) => {}
                    Err(e) => return Err(TestCaseError::fail(format!(
                        "prefix of {cut} bytes failed with unexpected error: {e:?}"
                    ))),
                }
            }
        }
    }

    #[test]
    fn payload_corruption_is_rejected(frames in 1usize..=4, seed in any::<u64>(), pick in any::<u64>(), xor in 1u8..=255) {
        let [folded_a, folded_b] = FOLDED_FRAMES;
        for (dtype, width, height) in [(Dtype::U32, 3, 3), folded_a, folded_b] {
            for msg in pixel_messages(payload_for(dtype, width, height, frames, seed), false) {
                let mut bytes = encode_message(&msg);
                // Flip one byte anywhere past the header. Whatever field it
                // lands in, decode must fail: the envelope CRC covers the
                // whole payload.
                let lo = 10;
                let hi = bytes.len();
                let idx = lo + (pick as usize) % (hi - lo);
                bytes[idx] ^= xor;
                prop_assert!(decode_message(&bytes).is_err());
            }
        }
    }
}

#[test]
fn huge_declared_geometry_is_rejected_before_allocating() {
    // A tiny crafted Submit declaring a multi-terabyte stack must fail
    // geometry validation before anything is allocated from the untrusted
    // width/height/frames fields — a capacity-overflow panic or an OOM
    // abort here would be a remote DoS that bypasses the payload cap.
    for (w, h, f) in [
        (u32::MAX, u32::MAX, u32::MAX),
        (65_535u32, 65_535, u32::MAX),
        (4_096, 4_096, 1_000_000),
        (1, 1, u32::MAX),
    ] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // request id
        payload.extend_from_slice(&2u64.to_le_bytes()); // stream id
        payload.push(80); // lambda
        payload.push(4); // upsilon
        payload.push(1); // eos
        payload.push(0); // dtype = U16
        payload.extend_from_slice(&w.to_le_bytes());
        payload.extend_from_slice(&h.to_le_bytes());
        payload.extend_from_slice(&f.to_le_bytes());
        // Seal a well-formed envelope around it so only the geometry check
        // can reject it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(1); // Submit
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&preflight_serve::crc::crc32(&payload).to_le_bytes());
        match decode_message(&bytes) {
            Err(WireError::Truncated(_)) | Err(WireError::Malformed(_)) => {}
            other => panic!("{w}x{h}x{f} must be rejected cheaply, got {other:?}"),
        }
    }
}

#[test]
fn payload_shorter_than_its_prefix_is_truncated() {
    // Cut each pixel message's payload inside its fixed prefix and seal a
    // well-formed envelope around the stub: decoding must stop at the
    // field the payload ran out in. A Submit cut after 20 bytes ends
    // before the width; a Response cut after 50 inside its stats trailer.
    let [submit, response] = pixel_messages(payload_for(Dtype::U16, 4, 4, 2, 7), true);
    for (msg, keep, field) in [(submit, 20, "width"), (response, 50, "batch requests")] {
        let full = encode_message(&msg);
        let payload = &full[10..10 + keep];
        let mut bytes = full[..6].to_vec();
        bytes.extend_from_slice(&(keep as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&preflight_serve::crc::crc32(payload).to_le_bytes());
        match decode_message(&bytes) {
            Err(WireError::Truncated(what)) => assert_eq!(what, field),
            other => panic!("{keep}-byte payload must be Truncated({field}), got {other:?}"),
        }
    }
}

#[test]
fn frame_crc_mismatch_is_reported_as_such() {
    // Corrupt one pixel inside a frame and re-seal the *envelope* CRC, so
    // only the per-frame CRC can catch it.
    let msg = Message::Submit(SubmitRequest {
        request_id: 9,
        stream_id: 1,
        lambda: 80,
        upsilon: 4,
        eos: true,
        payload: payload_for(Dtype::U16, 4, 4, 2, 0xDECAF),
    });
    let mut bytes = encode_message(&msg);
    let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    // Offset of the first pixel word inside the payload: request_id(8) +
    // stream_id(8) + lambda(1) + upsilon(1) + eos(1) + dtype(1) + dims(12).
    let pixel0 = 10 + 8 + 8 + 1 + 1 + 1 + 1 + 12;
    bytes[pixel0] ^= 0x40;
    let body_crc = preflight_serve::crc::crc32(&bytes[10..10 + len]);
    let crc_at = 10 + len;
    bytes[crc_at..crc_at + 4].copy_from_slice(&body_crc.to_le_bytes());
    match decode_message(&bytes) {
        Err(WireError::CrcMismatch { scope, .. }) => assert_eq!(scope, "frame"),
        other => panic!("expected frame CrcMismatch, got {other:?}"),
    }
}

#[test]
fn bad_version_and_unknown_type_are_rejected() {
    let mut bytes = encode_message(&Message::Ping(1));
    bytes[4] = 99; // version byte
    assert!(matches!(
        decode_message(&bytes),
        Err(WireError::BadVersion(99))
    ));

    let mut bytes = encode_message(&Message::Ping(1));
    bytes[5] = 0xEE; // type byte
    assert!(matches!(
        decode_message(&bytes),
        Err(WireError::UnknownType(0xEE))
    ));
}

#[test]
fn submit_pixels_and_crcs_have_pinned_wire_bytes() {
    // A golden envelope: the pixel words go out little-endian, each frame
    // followed by its CRC-32 and the payload by its own. The expected CRCs
    // are literals (IEEE CRC-32 of the listed bytes), so neither the byte
    // order nor the checksum can drift without this test noticing.
    // Layout: head (10) + request/stream ids (16) + Λ, Υ, eos, dtype (4) +
    // width/height/frames (12), so the first pixel sits at byte 42.
    let submit = |payload| {
        encode_message(&Message::Submit(SubmitRequest {
            request_id: 7,
            stream_id: 3,
            lambda: 80,
            upsilon: 4,
            eos: true,
            payload,
        }))
    };
    let u16s = submit(FramePayload::U16(
        ImageStack::from_vec(1, 1, 2, vec![0x0102u16, 0x0304]).unwrap(),
    ));
    assert_eq!(&u16s[..10], b"PFLT\x01\x01\x2c\x00\x00\x00");
    assert_eq!(u16s[29], 0, "dtype u16");
    assert_eq!(&u16s[42..44], &[0x02, 0x01]);
    assert_eq!(&u16s[44..48], &0x04E8_40EBu32.to_le_bytes());
    assert_eq!(&u16s[48..50], &[0x04, 0x03]);
    assert_eq!(&u16s[50..54], &0xBCBC_8641u32.to_le_bytes());
    assert_eq!(&u16s[54..], &0xAA5B_442Au32.to_le_bytes());

    let u32s = submit(FramePayload::U32(
        ImageStack::from_vec(1, 1, 2, vec![0x0102_0304u32, 0x0506_0708]).unwrap(),
    ));
    assert_eq!(&u32s[..10], b"PFLT\x01\x01\x30\x00\x00\x00");
    assert_eq!(u32s[29], 1, "dtype u32");
    assert_eq!(&u32s[42..46], &[0x04, 0x03, 0x02, 0x01]);
    assert_eq!(&u32s[46..50], &0xE951_A406u32.to_le_bytes());
    assert_eq!(&u32s[50..54], &[0x08, 0x07, 0x06, 0x05]);
    assert_eq!(&u32s[54..58], &0xC78F_B27Fu32.to_le_bytes());
    assert_eq!(&u32s[58..], &0xFDB3_AAD5u32.to_le_bytes());

    // And the decoder reads the same bytes back as the same words.
    for bytes in [u16s, u32s] {
        let Ok((Message::Submit(req), used)) = decode_message(&bytes) else {
            panic!("golden envelope must decode");
        };
        assert_eq!(used, bytes.len());
        match req.payload {
            FramePayload::U16(s) => assert_eq!(s.as_slice(), &[0x0102, 0x0304]),
            FramePayload::U32(s) => assert_eq!(s.as_slice(), &[0x0102_0304, 0x0506_0708]),
        }
    }
}
