//! Streaming decode of envelope bodies: the one decoder of the wire
//! protocol.
//!
//! [`Ingest`] takes a body (everything after the 10-byte head) in whatever
//! pieces the transport delivers. For the two pixel-carrying messages,
//! `Submit` and `Response`, the fixed prefix before the first pixel is
//! collected in a small array and parsed by [`wire::parse_frame_prefix`];
//! pixel bytes then land directly in a pooled, engine-ready stack buffer
//! (the one payload copy), with both CRC layers folded as they arrive;
//! wire order is host order, so the landed bytes are the samples. Control
//! messages collect in a buffer that grows with the bytes received and are
//! decoded by [`wire::decode_payload`].
//!
//! The daemon's event loop drives an `Ingest` from non-blocking sockets;
//! [`read_body`] drives one from a blocking reader, and through it
//! [`wire::read_message`], [`wire::parse_body`] and
//! [`wire::decode_message`] decode.
//!
//! **Error precedence is part of the wire contract.** A body's verdict is
//! (1) `CrcMismatch{payload}` if the envelope CRC does not match, else (2)
//! the first field error in payload order (`Truncated`, `Malformed` or
//! `CrcMismatch{frame}`), else (3) the message. The first field error is
//! remembered and the rest of the payload is consumed through the payload
//! CRC only (`Discard`), so a corrupted transfer reports the CRC mismatch
//! even when the corruption also mangled, say, the dtype byte.

use crate::crc::Crc32;
use crate::pool::BufferPool;
use crate::server::BODY_CHUNK;
use crate::wire::{self, Dtype, FrameHeader, FramePayload, Geometry, Message, WireError};
use preflight_core::ImageStack;
use std::io::Read;
use std::sync::Arc;

/// Size of the prefix array: the longer of the two pixel-message prefixes.
const PREFIX_CAP: usize = wire::RESPONSE_PREFIX;
const _: () = assert!(wire::SUBMIT_PREFIX <= PREFIX_CAP);

/// Scratch size for the `Discard` phase (error path only).
const DISCARD_CHUNK: usize = 4096;

/// A pooled pixel buffer being filled straight off the transport.
enum StackBuf {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl StackBuf {
    /// Takes from the pool (full-length, zeroed) or starts empty for
    /// incremental growth on a miss.
    fn take(pool: &BufferPool, dtype: Dtype, samples: usize) -> StackBuf {
        match dtype {
            Dtype::U16 => StackBuf::U16(pool.try_take_u16(samples).unwrap_or_default()),
            Dtype::U32 => StackBuf::U32(pool.try_take_u32(samples).unwrap_or_default()),
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

    /// A mutable byte window over `[byte_off, byte_off + len)`.
    fn window(&mut self, byte_off: usize, len: usize) -> &mut [u8] {
        match self {
            StackBuf::U16(v) => crate::bytes::le_window(v, byte_off, len),
            StackBuf::U32(v) => crate::bytes::le_window(v, byte_off, len),
        }
    }

    fn into_payload(self, g: &Geometry) -> Result<FramePayload, WireError> {
        match self {
            StackBuf::U16(v) => ImageStack::from_vec(g.width, g.height, g.frames, v)
                .map(FramePayload::U16)
                .map_err(|e| WireError::Malformed(e.to_string())),
            StackBuf::U32(v) => ImageStack::from_vec(g.width, g.height, g.frames, v)
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

/// The payload as decoded so far.
enum Body {
    /// A control message's payload bytes, grown as they arrive.
    Control(Vec<u8>),
    /// A pixel-carrying message's first `len` payload bytes (its prefix,
    /// or the whole payload when that is shorter), still arriving.
    Prefix { buf: [u8; PREFIX_CAP], len: usize },
    /// A pixel-carrying message: its validated prefix and the stack its
    /// pixels land in.
    Frames {
        header: FrameHeader,
        geometry: Geometry,
        stack: StackBuf,
    },
    /// The first field error; the rest of the payload only feeds the
    /// payload CRC.
    Failed(WireError),
}

/// Where in the body the next bytes belong.
enum Phase {
    /// Payload bytes go to the buffer of [`Body::Control`] or
    /// [`Body::Prefix`].
    Buffer,
    /// Pixel bytes of frame `frame` land directly in the stack buffer.
    Pixels {
        frame: usize,
        off: usize,
        frame_crc: Crc32,
    },
    /// The 4-byte CRC trailing frame `frame`; `actual` is the CRC of the
    /// pixel bytes just received.
    FrameCrc {
        frame: usize,
        got: [u8; 4],
        filled: usize,
        actual: u32,
    },
    /// After a field error: the rest of the payload passes through here.
    Discard { buf: Vec<u8> },
    /// The 4-byte envelope payload CRC.
    TrailCrc { got: [u8; 4], filled: usize },
    /// Everything received; [`Ingest::finish`] may be called.
    Done { trail: u32 },
}

impl Phase {
    fn trail_crc() -> Phase {
        Phase::TrailCrc {
            got: [0u8; 4],
            filled: 0,
        }
    }
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
    body: Body,
    pool: Arc<BufferPool>,
}

impl Ingest {
    /// Starts decoding a body of `payload_len` bytes (+ 4 CRC bytes) for
    /// an envelope whose head declared `type_code`.
    pub(crate) fn new(type_code: u8, payload_len: usize, pool: &Arc<BufferPool>) -> Ingest {
        let body = match wire::frame_prefix_len(type_code) {
            Some(len) => Body::Prefix {
                buf: [0u8; PREFIX_CAP],
                len: len.min(payload_len),
            },
            None => Body::Control(Vec::new()),
        };
        let mut ingest = Ingest {
            type_code,
            payload_len,
            consumed: 0,
            payload_crc: Crc32::new(),
            phase: Phase::Buffer,
            body,
            pool: Arc::clone(pool),
        };
        // An empty payload has no bytes to complete its buffer.
        if payload_len == 0 {
            ingest.buffer_filled();
        }
        ingest
    }

    /// The next destination for body bytes. An empty window means the
    /// envelope is complete — call [`Ingest::finish`].
    pub(crate) fn window(&mut self) -> &mut [u8] {
        match &mut self.phase {
            Phase::Buffer => match &mut self.body {
                Body::Control(buf) => {
                    if self.consumed == buf.len() {
                        buf.resize(self.payload_len.min(buf.len() + BODY_CHUNK), 0);
                    }
                    &mut buf[self.consumed..]
                }
                Body::Prefix { buf, len } => &mut buf[self.consumed..*len],
                _ => unreachable!("buffer phase without a buffer"),
            },
            Phase::Pixels { frame, off, .. } => {
                let Body::Frames {
                    geometry, stack, ..
                } = &mut self.body
                else {
                    unreachable!("pixels phase without a stack");
                };
                let start = *frame * geometry.frame_bytes + *off;
                let len = (geometry.frame_bytes - *off).min(BODY_CHUNK);
                // A pool hit is already full-length; a miss grows here.
                stack.ensure_bytes(start + len, geometry.samples);
                stack.window(start, len)
            }
            Phase::FrameCrc { got, filled, .. } => &mut got[*filled..],
            Phase::Discard { buf } => {
                let len = (self.payload_len - self.consumed).min(DISCARD_CHUNK);
                &mut buf[..len]
            }
            Phase::TrailCrc { got, filled } => &mut got[*filled..],
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
            Phase::Buffer => {
                let buf = match &self.body {
                    Body::Control(buf) => &buf[..],
                    Body::Prefix { buf, .. } => &buf[..],
                    _ => unreachable!("buffer phase without a buffer"),
                };
                self.payload_crc
                    .update(&buf[self.consumed..self.consumed + n]);
                self.consumed += n;
                self.buffer_filled();
            }
            Phase::Pixels {
                frame,
                off,
                frame_crc,
            } => {
                let Body::Frames {
                    geometry, stack, ..
                } = &mut self.body
                else {
                    unreachable!("pixels phase without a stack");
                };
                let start = *frame * geometry.frame_bytes + *off;
                let bytes = &stack.window(start, n)[..];
                self.payload_crc.update(bytes);
                frame_crc.update(bytes);
                *off += n;
                self.consumed += n;
                if *off == geometry.frame_bytes {
                    self.phase = Phase::FrameCrc {
                        frame: *frame,
                        got: [0u8; 4],
                        filled: 0,
                        actual: frame_crc.finish(),
                    };
                }
            }
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
                    let Body::Frames { geometry, .. } = &self.body else {
                        unreachable!("frame CRC phase without a stack");
                    };
                    let frames = geometry.frames;
                    let trailing = self.payload_len - self.consumed;
                    if expected != actual {
                        self.fail(WireError::CrcMismatch {
                            scope: "frame",
                            expected,
                            actual,
                        });
                    } else if frame + 1 < frames {
                        self.phase = Phase::Pixels {
                            frame: frame + 1,
                            off: 0,
                            frame_crc: Crc32::new(),
                        };
                    } else if trailing > 0 {
                        self.fail(WireError::Malformed(format!(
                            "{trailing} trailing byte(s) after message body"
                        )));
                    } else {
                        self.phase = Phase::trail_crc();
                    }
                }
            }
            Phase::Discard { buf } => {
                self.payload_crc.update(&buf[..n]);
                self.consumed += n;
                if self.consumed == self.payload_len {
                    self.phase = Phase::trail_crc();
                }
            }
            Phase::TrailCrc { got, filled } => {
                *filled += n;
                if *filled == 4 {
                    self.phase = Phase::Done {
                        trail: u32::from_le_bytes(*got),
                    };
                }
            }
            Phase::Done { .. } => unreachable!("consume after completion"),
        }
    }

    /// Leaves the buffer phase once the buffer is complete: a control
    /// payload goes on to its trailing CRC, a prefix to its parse.
    fn buffer_filled(&mut self) {
        match &self.body {
            Body::Control(_) if self.consumed == self.payload_len => {
                self.phase = Phase::trail_crc();
            }
            Body::Prefix { buf, len } if self.consumed == *len => {
                let (prefix, len) = (*buf, *len);
                self.on_prefix(&prefix[..len]);
            }
            _ => {}
        }
    }

    /// Parses and validates a pixel-carrying message's prefix, then opens
    /// the pixel phase (or starts discarding behind a recorded error).
    fn on_prefix(&mut self, prefix: &[u8]) {
        match wire::parse_frame_prefix(self.type_code, prefix, self.payload_len) {
            Ok((header, geometry)) => {
                let stack = StackBuf::take(&self.pool, geometry.dtype, geometry.samples);
                self.body = Body::Frames {
                    header,
                    geometry,
                    stack,
                };
                self.phase = Phase::Pixels {
                    frame: 0,
                    off: 0,
                    frame_crc: Crc32::new(),
                };
            }
            Err(e) => self.fail(e),
        }
    }

    /// Records the first field error and switches to discarding the rest
    /// of the payload (payload-CRC-only).
    fn fail(&mut self, err: WireError) {
        if let Body::Frames { stack, .. } = std::mem::replace(&mut self.body, Body::Failed(err)) {
            stack.recycle(&self.pool);
        }
        self.phase = if self.consumed == self.payload_len {
            Phase::trail_crc()
        } else {
            Phase::Discard {
                buf: vec![0u8; DISCARD_CHUNK],
            }
        };
    }

    /// Finishes a fully received envelope into its message, or the error
    /// the precedence rule above picks.
    pub(crate) fn finish(self) -> Result<Message, WireError> {
        let Phase::Done { trail } = self.phase else {
            unreachable!("finish before completion");
        };
        let actual = self.payload_crc.finish();
        if trail != actual {
            if let Body::Frames { stack, .. } = self.body {
                stack.recycle(&self.pool);
            }
            return Err(WireError::CrcMismatch {
                scope: "payload",
                expected: trail,
                actual,
            });
        }
        match self.body {
            Body::Control(buf) => wire::decode_payload(self.type_code, &buf),
            Body::Frames {
                header,
                geometry,
                stack,
            } => Ok(header.into_message(stack.into_payload(&geometry)?)),
            Body::Failed(err) => Err(err),
            Body::Prefix { .. } => unreachable!("finish with the prefix unparsed"),
        }
    }
}

/// Decodes one body of `payload_len` bytes (+ its 4-byte CRC) from a
/// blocking reader. Each read fills one [`Ingest::window`], so memory
/// tracks the bytes received rather than the declared length. The pool is
/// private: nothing decoded here is ever handed back.
pub(crate) fn read_body(
    type_code: u8,
    payload_len: usize,
    r: &mut impl Read,
) -> Result<Message, WireError> {
    let mut ingest = Ingest::new(type_code, payload_len, &Arc::new(BufferPool::detached()));
    loop {
        let window = ingest.window();
        let n = window.len();
        if n == 0 {
            return ingest.finish();
        }
        r.read_exact(window)?;
        ingest.consume(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::telemetry::RequestStats;
    use crate::wire::{
        decode_message, encode_message, parse_body, SubmitRequest, SubmitResponse, HEAD_LEN,
    };

    /// 4×3 u16 frames, then geometries larger than 64 bytes and not a
    /// multiple of 16, so each streamed frame CRC mixes the carry-less fold
    /// with the table walk: 7×9 u16 frames are 126 bytes, 17×5 u32 frames
    /// 340.
    const GEOMETRIES: [(Dtype, usize, usize); 3] =
        [(Dtype::U16, 4, 3), (Dtype::U16, 7, 9), (Dtype::U32, 17, 5)];

    /// Chunk steps: single bytes, an odd step, either side of the 16- and
    /// 64-byte fold edges, and whole windows.
    const STEPS: [usize; 9] = [1, 13, 15, 16, 17, 63, 64, 65, usize::MAX];

    fn stack(dtype: Dtype, width: usize, height: usize, frames: usize) -> FramePayload {
        let n = (width * height * frames) as u64;
        match dtype {
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
        }
    }

    /// A `Submit` and a `Response` in every test geometry, with the
    /// envelope offset of their first pixel.
    fn messages(frames: usize) -> Vec<(Message, usize)> {
        let mut out = Vec::new();
        for (dtype, width, height) in GEOMETRIES {
            let submit = Message::Submit(SubmitRequest {
                request_id: 42,
                stream_id: 7,
                lambda: 80,
                upsilon: 4,
                eos: true,
                payload: stack(dtype, width, height, frames),
            });
            let response = Message::Response(SubmitResponse {
                request_id: 42,
                stats: RequestStats {
                    samples_changed: 17,
                    bits_flipped: 23,
                    service_us: 1234,
                    ..RequestStats::default()
                },
                payload: stack(dtype, width, height, frames),
            });
            out.push((submit, HEAD_LEN + wire::SUBMIT_PREFIX));
            out.push((response, HEAD_LEN + wire::RESPONSE_PREFIX));
        }
        out
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

    fn verdict(result: Result<Message, WireError>) -> String {
        match result {
            Ok(msg) => format!("accepted {msg:?}"),
            Err(e) => e.to_string(),
        }
    }

    /// The verdict an envelope whose payload CRC does not match must get.
    fn payload_mismatch(envelope: &[u8]) -> String {
        let (payload, trail) = envelope[HEAD_LEN..].split_at(envelope.len() - HEAD_LEN - 4);
        WireError::CrcMismatch {
            scope: "payload",
            expected: u32::from_le_bytes(trail.try_into().unwrap()),
            actual: crc32(payload),
        }
        .to_string()
    }

    /// The verdict for frame bytes at `at` whose CRC does not match.
    fn frame_mismatch(envelope: &[u8], at: usize, frame_bytes: usize) -> String {
        let crc_at = at + frame_bytes;
        WireError::CrcMismatch {
            scope: "frame",
            expected: u32::from_le_bytes(envelope[crc_at..crc_at + 4].try_into().unwrap()),
            actual: crc32(&envelope[at..crc_at]),
        }
        .to_string()
    }

    /// Patches the length field to the envelope's actual payload length.
    fn fix_len(envelope: &mut [u8]) {
        let len = (envelope.len() - HEAD_LEN - 4) as u32;
        envelope[6..HEAD_LEN].copy_from_slice(&len.to_le_bytes());
    }

    /// Recomputes the payload CRC, so only the checks inside the payload
    /// can see an edit.
    fn reseal(envelope: &[u8]) -> Vec<u8> {
        let mut out = envelope.to_vec();
        let crc_at = out.len() - 4;
        let crc = crc32(&out[HEAD_LEN..crc_at]);
        out[crc_at..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn streams_submits_and_responses_at_every_chunk_step() {
        for (msg, _) in messages(5) {
            let encoded = encode_message(&msg);
            for step in STEPS {
                let got = drive(&encoded, step).expect("clean message");
                assert_eq!(got, msg, "chunk step {step}");
            }
        }
    }

    #[test]
    fn corruptions_get_their_exact_verdicts() {
        const FRAMES: usize = 3;
        for (msg, first_pixel) in messages(FRAMES) {
            let clean = encode_message(&msg);
            let (kind, payload) = match &msg {
                Message::Submit(s) => ("Submit", &s.payload),
                Message::Response(r) => ("Response", &r.payload),
                _ => unreachable!("messages() builds pixel messages only"),
            };
            let frame_bytes = payload.width() * payload.height() * payload.dtype().bytes();
            let set = |at: usize, v: u8| {
                let mut bad = clean.clone();
                bad[at] = v;
                bad
            };
            let flip = |at: usize| {
                let mut bad = clean.clone();
                bad[at] ^= 0x5A;
                bad
            };
            // (corruption, envelope, verdict once resealed; `None` when
            // resealing restores the clean message).
            let mut cases: Vec<(&str, Vec<u8>, Option<String>)> = Vec::new();
            match msg {
                Message::Submit(_) => cases.push((
                    "lambda",
                    set(HEAD_LEN + 16, 0xFF),
                    Some("malformed message: lambda 255 out of 0..=100".to_owned()),
                )),
                // A `Response` has no lambda; its validated header field
                // is the ladder rung, 44 bytes into the stats trailer.
                _ => cases.push((
                    "ladder rung",
                    set(HEAD_LEN + 8 + 44, 0xEE),
                    Some("malformed message: unknown ladder rung 238".to_owned()),
                )),
            }
            cases.push((
                "dtype",
                set(first_pixel - 13, 7),
                Some("malformed message: unknown dtype code 7".to_owned()),
            ));
            cases.push((
                "width",
                set(first_pixel - 12, payload.width() as u8 + 1),
                Some("payload truncated while reading frame data".to_owned()),
            ));
            let pixel = flip(first_pixel);
            let pixel_verdict = frame_mismatch(&pixel, first_pixel, frame_bytes);
            cases.push(("pixel byte", pixel, Some(pixel_verdict)));
            let last_frame = first_pixel + (FRAMES - 1) * (frame_bytes + 4);
            let frame_crc = flip(last_frame + frame_bytes);
            let frame_crc_verdict = frame_mismatch(&frame_crc, last_frame, frame_bytes);
            cases.push(("frame CRC", frame_crc, Some(frame_crc_verdict)));
            cases.push(("payload CRC", flip(clean.len() - 2), None));
            let mut trailing = clean.clone();
            let crc_at = trailing.len() - 4;
            trailing.splice(crc_at..crc_at, [9, 9, 9]);
            fix_len(&mut trailing);
            cases.push((
                "trailing bytes",
                trailing,
                Some("malformed message: 3 trailing byte(s) after message body".to_owned()),
            ));

            for (what, bad, resealed_verdict) in cases {
                let sealed = reseal(&bad);
                let label = format!(
                    "{kind} {}x{} {:?}, {what}",
                    payload.width(),
                    payload.height(),
                    payload.dtype()
                );
                for step in STEPS {
                    assert_eq!(
                        verdict(drive(&bad, step)),
                        payload_mismatch(&bad),
                        "{label}, unsealed, step {step}"
                    );
                    match &resealed_verdict {
                        Some(want) => assert_eq!(
                            &verdict(drive(&sealed, step)),
                            want,
                            "{label}, resealed, step {step}"
                        ),
                        None => assert_eq!(drive(&sealed, step).unwrap(), msg, "{label}"),
                    }
                }
            }
        }
    }

    /// Decodes an envelope through the public buffered entry point,
    /// [`wire::parse_body`], which reads each window whole.
    fn parse_envelope(envelope: &[u8]) -> Result<Message, WireError> {
        let (type_code, len) = wire::parse_head(envelope[..HEAD_LEN].try_into().unwrap())?;
        let (payload, trail) = envelope[HEAD_LEN..].split_at(len as usize);
        parse_body(
            type_code,
            payload,
            u32::from_le_bytes(trail.try_into().unwrap()),
        )
    }

    #[test]
    fn verdicts_match_parse_body_on_corrupt_envelopes() {
        for (msg, first_pixel) in messages(3) {
            let clean = encode_message(&msg);
            // Corrupt single bytes at interesting offsets: prefix fields,
            // pixel data, a frame CRC, the payload CRC.
            let offsets = [
                HEAD_LEN + 16,    // lambda (Submit), stats (Response)
                first_pixel - 13, // dtype
                first_pixel - 12, // width
                first_pixel,      // pixel byte
                clean.len() - 6,  // inside last frame CRC
                clean.len() - 2,  // inside payload CRC
            ];
            for &off in &offsets {
                let mut bad = clean.clone();
                bad[off] ^= 0x5A;
                for envelope in [reseal(&bad), bad] {
                    let buffered = verdict(parse_envelope(&envelope));
                    for step in STEPS {
                        assert_eq!(
                            verdict(drive(&envelope, step)),
                            buffered,
                            "{msg:?}, offset {off}, step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_reported_like_legacy() {
        // Rebuild each envelope with 3 junk bytes appended to the payload
        // (length + CRC adjusted so only the trailing check can fire).
        for (msg, _) in messages(2) {
            let clean = encode_message(&msg);
            let mut tampered = clean.clone();
            let crc_at = tampered.len() - 4;
            tampered.splice(crc_at..crc_at, [9, 9, 9]);
            fix_len(&mut tampered);
            let tampered = reseal(&tampered);
            let legacy = verdict(decode_message(&tampered).map(|(m, _)| m));
            assert!(legacy.contains("trailing byte"), "{legacy}");
            for step in STEPS {
                assert_eq!(verdict(drive(&tampered, step)), legacy, "step {step}");
            }
        }
    }

    #[test]
    fn control_messages_take_the_buffered_path() {
        for msg in [Message::Ping(99), Message::Drain, Message::StatsRequest] {
            let encoded = encode_message(&msg);
            for step in [1, 4, encoded.len()] {
                assert_eq!(drive(&encoded, step).unwrap(), msg);
            }
        }
    }
}
