//! Streaming, zero-copy decode of inbound envelopes.
//!
//! The PR 9 event loop buffered every payload into a `Vec<u8>`, then
//! [`crate::wire::parse_body`] re-walked it: one CRC pass, one per-sample
//! decode pass, one `ImageStack` allocation — three touches of every
//! payload byte plus an allocation per request. [`Ingest`] replaces that
//! for the hot message type: `Submit` pixel bytes are read off the socket
//! *directly into* a pooled, engine-ready stack buffer (the exactly-one
//! payload copy), with both CRC layers folded incrementally as bytes land.
//!
//! Everything else — control messages, `Submit`s too short to carry the
//! fixed 32-byte prefix, and big-endian hosts where memory order differs
//! from wire order — takes the `Buffered` phase, which reproduces the
//! legacy path byte for byte.
//!
//! **Error precedence is part of the wire contract.** The legacy decoder
//! verifies the envelope payload CRC before looking at any field, so a
//! corrupted transfer reports `CrcMismatch{payload}` even when the
//! corruption also mangled, say, the dtype byte. A streaming decoder meets
//! that ordering by *deferring*: the first validation failure is
//! remembered, the remaining payload is consumed through the running CRC
//! only (`Discard`), and the verdict at end-of-envelope is (1) payload CRC
//! mismatch if any, else (2) the remembered error, else (3) the message.

use crate::crc::Crc32;
use crate::pool::BufferPool;
use crate::wire::{self, Dtype, FramePayload, Message, SubmitRequest, WireError};
use preflight_core::ImageStack;
use std::sync::Arc;

/// Growth step for byte buffers, matching the event loop's read chunk: a
/// connection's memory tracks the bytes it has actually sent, so a peer
/// declaring a huge payload and stalling pins one chunk, not the
/// declaration.
const CHUNK: usize = 256 * 1024;

/// Fixed byte length of a `Submit` payload before the first pixel:
/// request id (8) + stream id (8) + lambda/upsilon/flags (3) + dtype (1) +
/// width/height/frames (12).
const SUBMIT_PREFIX: usize = 32;

/// Scratch size for the `Discard` phase (error path only).
const DISCARD_CHUNK: usize = 4096;

/// A pooled pixel buffer being filled straight off the socket.
enum StackBuf {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

#[cfg(target_endian = "little")]
impl StackBuf {
    /// Takes from the pool (full-length, zeroed) or starts empty for
    /// incremental growth on a miss.
    fn take(pool: &BufferPool, dtype: Dtype, samples: usize) -> StackBuf {
        match dtype {
            Dtype::U16 => StackBuf::U16(pool.try_take_u16(samples).unwrap_or_default()),
            Dtype::U32 => StackBuf::U32(pool.try_take_u32(samples).unwrap_or_default()),
        }
    }

    fn len_bytes(&self) -> usize {
        match self {
            StackBuf::U16(v) => v.len() * 2,
            StackBuf::U32(v) => v.len() * 4,
        }
    }

    /// Grows (zero-filling) so at least `need` bytes of the buffer exist,
    /// never past `samples` total elements.
    fn ensure_bytes(&mut self, need: usize, samples: usize) {
        fn grow<T: Copy + Default>(v: &mut Vec<T>, need: usize, samples: usize, word: usize) {
            let want = need.div_ceil(word).min(samples);
            if v.len() < want {
                v.resize(want, T::default());
            }
        }
        match self {
            StackBuf::U16(v) => grow(v, need, samples, 2),
            StackBuf::U32(v) => grow(v, need, samples, 4),
        }
    }

    /// A mutable wire-byte window over `[byte_off, byte_off + len)`.
    fn window(&mut self, byte_off: usize, len: usize) -> &mut [u8] {
        match self {
            StackBuf::U16(v) => crate::bytes::le_window(v, byte_off, len),
            StackBuf::U32(v) => crate::bytes::le_window(v, byte_off, len),
        }
    }

    fn into_payload(
        self,
        width: usize,
        height: usize,
        frames: usize,
    ) -> Result<FramePayload, WireError> {
        match self {
            StackBuf::U16(v) => ImageStack::from_vec(width, height, frames, v)
                .map(FramePayload::U16)
                .map_err(|e| WireError::Malformed(e.to_string())),
            StackBuf::U32(v) => ImageStack::from_vec(width, height, frames, v)
                .map(FramePayload::U32)
                .map_err(|e| WireError::Malformed(e.to_string())),
        }
    }

    /// Returns the buffer to the pool (the error path's recycle: the data
    /// is garbage but the allocation is good, and takes scrub on handout).
    fn recycle(self, pool: &BufferPool) {
        match self {
            StackBuf::U16(v) => pool.put_u16(v),
            StackBuf::U32(v) => pool.put_u32(v),
        }
    }
}

/// Fields of a `Submit` prefix once parsed and validated.
#[cfg(target_endian = "little")]
struct SubmitMeta {
    request_id: u64,
    stream_id: u64,
    lambda: u8,
    upsilon: u8,
    eos: bool,
    width: usize,
    height: usize,
    frames: usize,
    frame_bytes: usize,
    samples: usize,
}

enum Phase {
    /// Legacy path: the whole payload + trailing CRC accumulate in one
    /// grow-as-received byte buffer, finished by [`wire::parse_body`].
    Buffered { buf: Vec<u8>, filled: usize },
    /// Streaming `Submit`: accumulating the fixed 32-byte prefix.
    #[cfg(target_endian = "little")]
    Prefix {
        buf: [u8; SUBMIT_PREFIX],
        filled: usize,
    },
    /// Streaming `Submit`: pixel bytes of frame `frame` land directly in
    /// the pooled stack buffer.
    #[cfg(target_endian = "little")]
    Pixels {
        frame: usize,
        off: usize,
        frame_crc: Crc32,
    },
    /// Streaming `Submit`: the 4-byte CRC trailing frame `frame`;
    /// `actual` is the CRC of the pixel bytes just received.
    #[cfg(target_endian = "little")]
    FrameCrc {
        frame: usize,
        got: [u8; 4],
        filled: usize,
        actual: u32,
    },
    /// A validation error was recorded: consume the rest of the payload
    /// through the payload CRC only.
    #[cfg(target_endian = "little")]
    Discard { buf: Vec<u8> },
    /// The 4-byte envelope payload CRC.
    #[cfg(target_endian = "little")]
    TrailCrc { got: [u8; 4], filled: usize },
    /// Everything received; [`Ingest::finish`] may be called.
    #[cfg(target_endian = "little")]
    Done { trail: u32 },
}

/// Incremental decoder for one envelope body (everything after the
/// 10-byte head). Drive it with [`Ingest::window`] / [`Ingest::consume`]
/// until the window comes back empty, then call [`Ingest::finish`].
pub(crate) struct Ingest {
    type_code: u8,
    payload_len: usize,
    /// Payload bytes consumed so far (excludes the trailing CRC).
    consumed: usize,
    payload_crc: Crc32,
    phase: Phase,
    #[cfg(target_endian = "little")]
    pool: Arc<BufferPool>,
    #[cfg(target_endian = "little")]
    meta: Option<SubmitMeta>,
    #[cfg(target_endian = "little")]
    stack: Option<StackBuf>,
    #[cfg(target_endian = "little")]
    first_err: Option<WireError>,
}

impl Ingest {
    /// Starts decoding a body of `payload_len` bytes (+ 4 CRC bytes) for
    /// an envelope whose head declared `type_code`.
    pub(crate) fn new(type_code: u8, payload_len: usize, pool: &Arc<BufferPool>) -> Ingest {
        #[cfg(not(target_endian = "little"))]
        let _ = pool;
        let phase = {
            #[cfg(target_endian = "little")]
            {
                if type_code == 1 && payload_len >= SUBMIT_PREFIX {
                    Phase::Prefix {
                        buf: [0u8; SUBMIT_PREFIX],
                        filled: 0,
                    }
                } else {
                    Phase::Buffered {
                        buf: Vec::new(),
                        filled: 0,
                    }
                }
            }
            #[cfg(not(target_endian = "little"))]
            {
                Phase::Buffered {
                    buf: Vec::new(),
                    filled: 0,
                }
            }
        };
        Ingest {
            type_code,
            payload_len,
            consumed: 0,
            payload_crc: Crc32::new(),
            phase,
            #[cfg(target_endian = "little")]
            pool: Arc::clone(pool),
            #[cfg(target_endian = "little")]
            meta: None,
            #[cfg(target_endian = "little")]
            stack: None,
            #[cfg(target_endian = "little")]
            first_err: None,
        }
    }

    /// The next destination for socket bytes. An empty window means the
    /// envelope is complete — call [`Ingest::finish`].
    pub(crate) fn window(&mut self) -> &mut [u8] {
        let payload_len = self.payload_len;
        match &mut self.phase {
            Phase::Buffered { buf, filled } => {
                let total = payload_len + 4;
                if *filled == buf.len() && buf.len() < total {
                    let grown = total.min(buf.len() + CHUNK);
                    buf.resize(grown, 0);
                }
                &mut buf[*filled..]
            }
            #[cfg(target_endian = "little")]
            Phase::Prefix { buf, filled } => &mut buf[*filled..],
            #[cfg(target_endian = "little")]
            Phase::Pixels { frame, off, .. } => {
                let meta = self.meta.as_ref().expect("pixels phase without meta");
                let start = *frame * meta.frame_bytes + *off;
                let len = (meta.frame_bytes - *off).min(CHUNK);
                let stack = self.stack.as_mut().expect("pixels phase without stack");
                stack.ensure_bytes(start + len, meta.samples);
                // A pool hit is already full-length; a miss grew above.
                debug_assert!(stack.len_bytes() >= start + len);
                stack.window(start, len)
            }
            #[cfg(target_endian = "little")]
            Phase::FrameCrc { got, filled, .. } => &mut got[*filled..],
            #[cfg(target_endian = "little")]
            Phase::Discard { buf } => {
                let len = (payload_len - self.consumed).min(DISCARD_CHUNK);
                &mut buf[..len]
            }
            #[cfg(target_endian = "little")]
            Phase::TrailCrc { got, filled } => &mut got[*filled..],
            #[cfg(target_endian = "little")]
            Phase::Done { .. } => &mut [],
        }
    }

    /// Accounts `n` bytes just read into the front of the last
    /// [`Ingest::window`], folding CRCs and advancing phases.
    pub(crate) fn consume(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        match &mut self.phase {
            Phase::Buffered { filled, .. } => {
                *filled += n;
            }
            #[cfg(target_endian = "little")]
            Phase::Prefix { buf, filled } => {
                *filled += n;
                self.consumed += n;
                if *filled == SUBMIT_PREFIX {
                    let prefix = *buf;
                    self.payload_crc.update(&prefix);
                    self.on_prefix(&prefix);
                }
            }
            #[cfg(target_endian = "little")]
            Phase::Pixels {
                frame,
                off,
                frame_crc,
            } => {
                let meta = self.meta.as_ref().expect("pixels phase without meta");
                let start = *frame * meta.frame_bytes + *off;
                let frame_done = {
                    let stack = self.stack.as_mut().expect("pixels phase without stack");
                    let bytes = &stack.window(start, n)[..];
                    self.payload_crc.update(bytes);
                    frame_crc.update(bytes);
                    *off += n;
                    *off == meta.frame_bytes
                };
                self.consumed += n;
                if frame_done {
                    self.phase = Phase::FrameCrc {
                        frame: *frame,
                        got: [0u8; 4],
                        filled: 0,
                        actual: frame_crc.finish(),
                    };
                }
            }
            #[cfg(target_endian = "little")]
            Phase::FrameCrc {
                frame,
                got,
                filled,
                actual,
            } => {
                self.payload_crc.update(&got[*filled..*filled + n]);
                *filled += n;
                self.consumed += n;
                if *filled == 4 {
                    let expected = u32::from_le_bytes(*got);
                    let (frame, actual) = (*frame, *actual);
                    if expected != actual {
                        self.fail(WireError::CrcMismatch {
                            scope: "frame",
                            expected,
                            actual,
                        });
                    } else {
                        let frames = self.meta.as_ref().map(|m| m.frames).unwrap_or(0);
                        if frame + 1 == frames {
                            let trailing = self.payload_len - self.consumed;
                            if trailing > 0 {
                                self.fail(WireError::Malformed(format!(
                                    "{trailing} trailing byte(s) after message body"
                                )));
                            } else {
                                self.phase = Phase::TrailCrc {
                                    got: [0u8; 4],
                                    filled: 0,
                                };
                            }
                        } else {
                            self.phase = Phase::Pixels {
                                frame: frame + 1,
                                off: 0,
                                frame_crc: Crc32::new(),
                            };
                        }
                    }
                }
            }
            #[cfg(target_endian = "little")]
            Phase::Discard { buf } => {
                self.payload_crc.update(&buf[..n]);
                self.consumed += n;
                if self.consumed == self.payload_len {
                    self.phase = Phase::TrailCrc {
                        got: [0u8; 4],
                        filled: 0,
                    };
                }
            }
            #[cfg(target_endian = "little")]
            Phase::TrailCrc { got, filled } => {
                *filled += n;
                if *filled == 4 {
                    self.phase = Phase::Done {
                        trail: u32::from_le_bytes(*got),
                    };
                }
            }
            #[cfg(target_endian = "little")]
            Phase::Done { .. } => unreachable!("consume after completion"),
        }
    }

    /// Parses and validates the 32-byte `Submit` prefix, in exactly the
    /// order the legacy decoder checks fields, then opens the pixel phase
    /// (or starts discarding behind a remembered error).
    #[cfg(target_endian = "little")]
    fn on_prefix(&mut self, p: &[u8; SUBMIT_PREFIX]) {
        let u64at = |i: usize| u64::from_le_bytes(p[i..i + 8].try_into().unwrap());
        let u32at = |i: usize| u32::from_le_bytes(p[i..i + 4].try_into().unwrap());
        let (request_id, stream_id) = (u64at(0), u64at(8));
        let (lambda, upsilon, flags, dtype_code) = (p[16], p[17], p[18], p[19]);
        let (width, height, frames) = (u32at(20) as usize, u32at(24) as usize, u32at(28) as usize);
        if lambda > 100 {
            return self.fail(WireError::Malformed(format!(
                "lambda {lambda} out of 0..=100"
            )));
        }
        if upsilon < 2 || upsilon % 2 != 0 || upsilon > 16 {
            return self.fail(WireError::Malformed(format!(
                "upsilon {upsilon} must be even and in 2..=16"
            )));
        }
        let dtype = match Dtype::from_code(dtype_code) {
            Ok(d) => d,
            Err(e) => return self.fail(e),
        };
        if width == 0 || height == 0 || frames == 0 {
            return self.fail(WireError::Malformed(format!(
                "zero dimension in {width}x{height}x{frames} stack"
            )));
        }
        let Some(frame_len) = width.checked_mul(height) else {
            return self.fail(WireError::Malformed("frame area overflows".to_owned()));
        };
        let Some(frame_bytes) = frame_len.checked_mul(dtype.bytes()) else {
            return self.fail(WireError::Malformed("frame size overflows".to_owned()));
        };
        let Some(declared) = frame_bytes
            .checked_add(4)
            .and_then(|per_frame| per_frame.checked_mul(frames))
        else {
            return self.fail(WireError::Malformed("stack size overflows".to_owned()));
        };
        if declared > self.payload_len - SUBMIT_PREFIX {
            return self.fail(WireError::Truncated("frame data"));
        }
        let Some(samples) = frame_len.checked_mul(frames) else {
            return self.fail(WireError::Malformed("stack size overflows".to_owned()));
        };
        self.stack = Some(StackBuf::take(&self.pool, dtype, samples));
        self.meta = Some(SubmitMeta {
            request_id,
            stream_id,
            lambda,
            upsilon,
            eos: flags & 1 != 0,
            width,
            height,
            frames,
            frame_bytes,
            samples,
        });
        self.phase = Phase::Pixels {
            frame: 0,
            off: 0,
            frame_crc: Crc32::new(),
        };
    }

    /// Records the first validation failure and switches to discarding
    /// the rest of the payload (payload-CRC-only).
    #[cfg(target_endian = "little")]
    fn fail(&mut self, err: WireError) {
        if self.first_err.is_none() {
            self.first_err = Some(err);
        }
        if let Some(stack) = self.stack.take() {
            stack.recycle(&self.pool);
        }
        self.phase = if self.consumed == self.payload_len {
            Phase::TrailCrc {
                got: [0u8; 4],
                filled: 0,
            }
        } else {
            Phase::Discard {
                buf: vec![0u8; DISCARD_CHUNK],
            }
        };
    }

    /// Finishes a fully received envelope into its message (or the error
    /// the legacy decoder would have reported).
    pub(crate) fn finish(self) -> Result<Message, WireError> {
        match self.phase {
            Phase::Buffered { buf, filled } => {
                debug_assert_eq!(filled, self.payload_len + 4);
                let (payload, crc_bytes) = buf.split_at(self.payload_len);
                let wire_crc =
                    u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
                wire::parse_body(self.type_code, payload, wire_crc)
            }
            #[cfg(target_endian = "little")]
            Phase::Done { trail } => {
                let actual = self.payload_crc.finish();
                if trail != actual {
                    if let Some(stack) = self.stack {
                        stack.recycle(&self.pool);
                    }
                    return Err(WireError::CrcMismatch {
                        scope: "payload",
                        expected: trail,
                        actual,
                    });
                }
                if let Some(err) = self.first_err {
                    return Err(err);
                }
                let meta = self.meta.expect("clean finish without meta");
                let stack = self.stack.expect("clean finish without stack");
                let payload = stack.into_payload(meta.width, meta.height, meta.frames)?;
                Ok(Message::Submit(SubmitRequest {
                    request_id: meta.request_id,
                    stream_id: meta.stream_id,
                    lambda: meta.lambda,
                    upsilon: meta.upsilon,
                    eos: meta.eos,
                    payload,
                }))
            }
            #[cfg(target_endian = "little")]
            _ => unreachable!("finish before completion"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_message, encode_message, HEAD_LEN};

    fn submit(frames: usize) -> Message {
        submit_shaped(Dtype::U16, 4, 3, frames)
    }

    /// Frame geometries larger than 64 bytes and not a multiple of 16, so
    /// each streamed frame CRC mixes the carry-less fold with the table
    /// walk: 7×9 u16 frames are 126 bytes, 17×5 u32 frames 340.
    const FOLDED_FRAMES: [(Dtype, usize, usize); 2] = [(Dtype::U16, 7, 9), (Dtype::U32, 17, 5)];

    /// Chunk steps on either side of the 16- and 64-byte fold edges.
    const FOLD_EDGE_STEPS: [usize; 6] = [15, 16, 17, 63, 64, 65];

    fn submit_shaped(dtype: Dtype, width: usize, height: usize, frames: usize) -> Message {
        let n = (width * height * frames) as u64;
        let payload = match dtype {
            Dtype::U16 => FramePayload::U16(
                ImageStack::from_vec(
                    width,
                    height,
                    frames,
                    (0..n).map(|v| (v * 257 % 65_536) as u16).collect(),
                )
                .unwrap(),
            ),
            Dtype::U32 => FramePayload::U32(
                ImageStack::from_vec(
                    width,
                    height,
                    frames,
                    (0..n).map(|v| (v * 0x0101_0107) as u32).collect(),
                )
                .unwrap(),
            ),
        };
        Message::Submit(SubmitRequest {
            request_id: 42,
            stream_id: 7,
            lambda: 80,
            upsilon: 4,
            eos: true,
            payload,
        })
    }

    /// Feeds an encoded envelope's body through an `Ingest` in chunks of
    /// `step` bytes and returns its verdict.
    fn drive(encoded: &[u8], step: usize) -> Result<Message, WireError> {
        let type_code = encoded[5];
        let payload_len =
            u32::from_le_bytes([encoded[6], encoded[7], encoded[8], encoded[9]]) as usize;
        let pool = Arc::new(BufferPool::detached());
        let mut ingest = Ingest::new(type_code, payload_len, &pool);
        let mut body = &encoded[HEAD_LEN..];
        loop {
            let win = ingest.window();
            if win.is_empty() {
                assert!(body.is_empty(), "ingest finished early");
                break;
            }
            assert!(!body.is_empty(), "ingest wants bytes past the envelope");
            let n = win.len().min(step).min(body.len());
            win[..n].copy_from_slice(&body[..n]);
            body = &body[n..];
            ingest.consume(n);
        }
        ingest.finish()
    }

    #[test]
    fn streams_a_submit_identically_to_the_legacy_decoder() {
        let msg = submit(5);
        let encoded = encode_message(&msg);
        for step in [1, 3, 7, 32, 33, 4096, encoded.len()] {
            let got = drive(&encoded, step).expect("clean submit");
            assert_eq!(got, msg, "chunk step {step}");
        }
        for (dtype, width, height) in FOLDED_FRAMES {
            let msg = submit_shaped(dtype, width, height, 5);
            let encoded = encode_message(&msg);
            for step in FOLD_EDGE_STEPS.into_iter().chain([1, 4096, encoded.len()]) {
                let got = drive(&encoded, step).expect("clean submit");
                assert_eq!(got, msg, "{width}x{height} {dtype:?}, chunk step {step}");
            }
        }
    }

    #[test]
    fn verdicts_match_parse_body_on_corrupt_envelopes() {
        let [folded_a, folded_b] = FOLDED_FRAMES;
        for (dtype, width, height) in [(Dtype::U16, 4, 3), folded_a, folded_b] {
            let clean = encode_message(&submit_shaped(dtype, width, height, 3));
            // Corrupt single bytes at interesting offsets: prefix fields,
            // pixel data, a frame CRC, the payload CRC.
            let offsets = [
                HEAD_LEN + 16,   // lambda
                HEAD_LEN + 19,   // dtype
                HEAD_LEN + 20,   // width
                HEAD_LEN + 40,   // pixel byte
                clean.len() - 6, // inside last frame CRC
                clean.len() - 2, // inside payload CRC
            ];
            for &off in &offsets {
                let mut bad = clean.clone();
                bad[off] ^= 0x5A;
                let legacy = decode_message(&bad).map(|(m, _)| m);
                for step in [13].into_iter().chain(FOLD_EDGE_STEPS) {
                    let streamed = drive(&bad, step);
                    match (&legacy, &streamed) {
                        (Err(a), Err(b)) => assert_eq!(
                            a.to_string(),
                            b.to_string(),
                            "{width}x{height} {dtype:?}, offset {off}, step {step}"
                        ),
                        (a, b) => panic!(
                            "verdict diverged at {off} ({width}x{height} {dtype:?}, step \
                             {step}): legacy {a:?}, streamed {b:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_reported_like_legacy() {
        // Rebuild the envelope with 3 junk bytes appended to the payload
        // (length + CRC adjusted so only the trailing check can fire).
        let clean = encode_message(&submit(2));
        let payload_len = u32::from_le_bytes(clean[6..10].try_into().unwrap()) as usize;
        let mut payload = clean[HEAD_LEN..HEAD_LEN + payload_len].to_vec();
        payload.extend_from_slice(&[9, 9, 9]);
        let mut tampered = clean[..6].to_vec();
        tampered.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        tampered.extend_from_slice(&payload);
        tampered.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
        let legacy = decode_message(&tampered).map(|(m, _)| m);
        let streamed = drive(&tampered, 8);
        match (&legacy, &streamed) {
            (Err(a), Err(b)) => {
                assert!(a.to_string().contains("trailing byte"), "{a}");
                assert_eq!(a.to_string(), b.to_string());
            }
            (a, b) => panic!("verdict diverged: legacy {a:?}, streamed {b:?}"),
        }
    }

    #[test]
    fn control_messages_take_the_buffered_path() {
        let msg = Message::Ping(99);
        let encoded = encode_message(&msg);
        for step in [1, 4, encoded.len()] {
            assert_eq!(drive(&encoded, step).unwrap(), msg);
        }
    }
}
