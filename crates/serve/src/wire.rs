//! The length-prefixed binary wire protocol spoken by `preflightd`.
//!
//! Every message travels in one envelope:
//!
//! ```text
//! +-------+---------+------+----------------+-----------+--------------+
//! | magic | version | type | payload length | payload   | payload CRC  |
//! | PFLT  |   u8    |  u8  |     u32 LE     | ...       |    u32 LE    |
//! +-------+---------+------+----------------+-----------+--------------+
//! ```
//!
//! Submissions and responses additionally protect each image frame with its
//! own CRC-32, so a flipped bit is localised to the frame it hit. All
//! integers are little-endian; pixel data is raw LE words, frame-major (the
//! same layout [`ImageStack`] uses in memory).
//!
//! The decoder is strict: a bad magic, unknown version or message type,
//! oversized length, truncated payload or CRC mismatch all fail with a
//! typed [`WireError`] and never panic, whatever bytes arrive.
//!
//! There is one decoder: the streaming state machine in `ingest`, which
//! the daemon drives from its sockets and [`read_message`],
//! [`parse_body`] and [`decode_message`] drive from a reader or a slice.
//! This module owns the field layout it reads: the prefix of `Submit` and
//! `Response` (parameters, stats trailer and checked geometry, validated
//! once in `parse_frame_prefix`) and the control-message bodies.

use crate::crc::crc32;
use crate::telemetry::{ft_level_code, ft_level_from_code, RequestStats};
use preflight_core::ImageStack;
use preflight_obs::{CounterSnap, GaugeSnap, HistSnap, Snapshot};
use std::fmt;
use std::io::{Read, Write};

/// The four magic bytes opening every envelope.
pub const MAGIC: [u8; 4] = *b"PFLT";

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Hard ceiling on a payload, so a corrupted length field cannot make the
/// decoder allocate unbounded memory (256 MiB ≈ a 4096×4096×8 u32 stack).
pub const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Pixel type of a submitted stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 16-bit unsigned pixels (the NGST detector word).
    U16,
    /// 32-bit unsigned pixels.
    U32,
}

impl Dtype {
    /// Wire code for the dtype.
    pub fn code(self) -> u8 {
        match self {
            Dtype::U16 => 0,
            Dtype::U32 => 1,
        }
    }

    /// Bytes per pixel.
    pub fn bytes(self) -> usize {
        match self {
            Dtype::U16 => 2,
            Dtype::U32 => 4,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(Dtype::U16),
            1 => Ok(Dtype::U32),
            other => Err(WireError::Malformed(format!("unknown dtype code {other}"))),
        }
    }
}

/// Decoding/transport failures.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The envelope did not start with `PFLT`.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u8),
    /// Unknown message-type byte.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload ended before a field was complete.
    Truncated(&'static str),
    /// A CRC did not match the received bytes.
    CrcMismatch {
        /// What the CRC protected (`"payload"` or `"frame"`).
        scope: &'static str,
        /// CRC carried on the wire.
        expected: u32,
        /// CRC of the bytes actually received.
        actual: u32,
    },
    /// A structurally invalid field (bad dtype, zero dimension, ...).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "I/O: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02X?} (expected \"PFLT\")"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Oversized(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD} byte cap")
            }
            WireError::Truncated(what) => write!(f, "payload truncated while reading {what}"),
            WireError::CrcMismatch {
                scope,
                expected,
                actual,
            } => write!(
                f,
                "{scope} CRC mismatch: wire says {expected:#010X}, data hashes to {actual:#010X}"
            ),
            WireError::Malformed(why) => write!(f, "malformed message: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A stack of image frames plus its pixel type — the payload of both
/// submissions and responses.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// 16-bit pixels.
    U16(ImageStack<u16>),
    /// 32-bit pixels.
    U32(ImageStack<u32>),
}

impl FramePayload {
    /// The pixel type tag.
    pub fn dtype(&self) -> Dtype {
        match self {
            FramePayload::U16(_) => Dtype::U16,
            FramePayload::U32(_) => Dtype::U32,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        match self {
            FramePayload::U16(s) => s.width(),
            FramePayload::U32(s) => s.width(),
        }
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        match self {
            FramePayload::U16(s) => s.height(),
            FramePayload::U32(s) => s.height(),
        }
    }

    /// Temporal depth in frames.
    pub fn frames(&self) -> usize {
        match self {
            FramePayload::U16(s) => s.frames(),
            FramePayload::U32(s) => s.frames(),
        }
    }

    /// Total samples in the stack.
    pub fn samples(&self) -> usize {
        self.width() * self.height() * self.frames()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        fn frames_into<T: crate::bytes::WireWord>(s: &ImageStack<T>, out: &mut Vec<u8>) {
            // Frame pixels go out as one bulk copy of a zero-copy
            // little-endian view per frame instead of a per-sample loop.
            for i in 0..s.frames() {
                let bytes = crate::bytes::le_view(s.frame(i));
                let crc = crc32(bytes);
                out.extend_from_slice(bytes);
                put_u32(out, crc);
            }
        }
        out.push(self.dtype().code());
        put_u32(out, self.width() as u32);
        put_u32(out, self.height() as u32);
        put_u32(out, self.frames() as u32);
        match self {
            FramePayload::U16(s) => frames_into(s, out),
            FramePayload::U32(s) => frames_into(s, out),
        }
    }
}

/// A preprocessing request: frames for one logical stream plus the
/// algorithm parameters to repair them with.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen id echoed on the response.
    pub request_id: u64,
    /// Logical stream the frames belong to; the batcher only coalesces
    /// frames of the same stream (and identical geometry/parameters).
    pub stream_id: u64,
    /// Sensitivity Λ percentage (0..=100).
    pub lambda: u8,
    /// Voter count Υ (even, 2..=16).
    pub upsilon: u8,
    /// End-of-stream: flush the batch immediately after this submission,
    /// whatever its depth.
    pub eos: bool,
    /// The frames themselves.
    pub payload: FramePayload,
}

/// A served response: the repaired frames plus the per-request telemetry
/// trailer.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitResponse {
    /// Echo of the request id.
    pub request_id: u64,
    /// Telemetry for this request's trip through the daemon.
    pub stats: RequestStats,
    /// The repaired frames (same geometry and dtype as submitted).
    pub payload: FramePayload,
}

/// Explicit backpressure: the bounded queue is full, try again later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyReply {
    /// Echo of the request id (0 when the request could not be parsed far
    /// enough to know).
    pub request_id: u64,
    /// The configured admission capacity.
    pub capacity: u32,
    /// Requests in flight when this one was rejected.
    pub in_flight: u32,
}

/// A request-level failure (malformed submission, draining server, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Echo of the request id (0 if unknown).
    pub request_id: u64,
    /// Machine-readable reason.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Machine-readable error classes carried by [`ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The submission failed wire-level validation.
    Malformed,
    /// The server is draining and admits no new work.
    Draining,
    /// The engine failed internally (should not happen; the degradation
    /// ladder ends in passthrough).
    Internal,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Draining => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Draining),
            3 => Ok(ErrorCode::Internal),
            other => Err(WireError::Malformed(format!("unknown error code {other}"))),
        }
    }
}

/// What a graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainSummary {
    /// Requests fully served over the server's lifetime.
    pub completed: u64,
    /// Requests rejected with `Busy` over the server's lifetime.
    pub rejected: u64,
}

/// Every message the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: frames to preprocess.
    Submit(SubmitRequest),
    /// Server → client: repaired frames + telemetry.
    Response(SubmitResponse),
    /// Server → client: bounded queue full.
    Busy(BusyReply),
    /// Server → client: request-level failure.
    Error(ErrorReply),
    /// Client → server: stop accepting, flush everything, then ack.
    Drain,
    /// Server → client: drain complete.
    DrainAck(DrainSummary),
    /// Client → server: liveness probe with an opaque token.
    Ping(u64),
    /// Server → client: echo of the token.
    Pong(u64),
    /// Client → server: ask for the daemon's metrics registry.
    StatsRequest,
    /// Server → client: a point-in-time copy of every registered metric
    /// series — the same snapshot `/metrics` renders.
    StatsReply(Snapshot),
}

impl Message {
    fn type_code(&self) -> u8 {
        match self {
            Message::Submit(_) => 1,
            Message::Response(_) => 2,
            Message::Busy(_) => 3,
            Message::Error(_) => 4,
            Message::Drain => 5,
            Message::DrainAck(_) => 6,
            Message::Ping(_) => 7,
            Message::Pong(_) => 8,
            Message::StatsRequest => 9,
            Message::StatsReply(_) => 10,
        }
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked reader over a received payload.
struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

fn put_label(out: &mut Vec<u8>, label: &Option<(String, String)>) {
    match label {
        None => out.push(0),
        Some((k, v)) => {
            out.push(1);
            put_str(out, k);
            put_str(out, v);
        }
    }
}

fn read_str(r: &mut SliceReader<'_>, what: &'static str) -> Result<String, WireError> {
    let len = {
        let b = r.bytes(2, what)?;
        u16::from_le_bytes([b[0], b[1]]) as usize
    };
    let raw = r.bytes(len, what)?;
    Ok(String::from_utf8_lossy(raw).into_owned())
}

fn read_label(r: &mut SliceReader<'_>) -> Result<Option<(String, String)>, WireError> {
    match r.u8("label flag")? {
        0 => Ok(None),
        1 => Ok(Some((
            read_str(r, "label key")?,
            read_str(r, "label value")?,
        ))),
        other => Err(WireError::Malformed(format!("unknown label flag {other}"))),
    }
}

fn encode_snapshot(snap: &Snapshot, out: &mut Vec<u8>) {
    put_u32(out, snap.counters.len() as u32);
    for c in &snap.counters {
        put_str(out, &c.name);
        put_label(out, &c.label);
        put_u64(out, c.value);
    }
    put_u32(out, snap.gauges.len() as u32);
    for g in &snap.gauges {
        put_str(out, &g.name);
        put_label(out, &g.label);
        put_u64(out, g.value as u64);
    }
    put_u32(out, snap.histograms.len() as u32);
    for h in &snap.histograms {
        put_str(out, &h.name);
        put_label(out, &h.label);
        put_u64(out, h.count);
        put_u64(out, h.sum_us);
        put_u32(out, h.buckets.len() as u32);
        for &(le, c) in &h.buckets {
            put_u64(out, le);
            put_u64(out, c);
        }
    }
}

fn decode_snapshot(r: &mut SliceReader<'_>) -> Result<Snapshot, WireError> {
    // Counts are untrusted: never pre-allocate from them, let the reader's
    // bounds checks fail fast on a lying length.
    let mut snap = Snapshot::default();
    for _ in 0..r.u32("counter count")? {
        snap.counters.push(CounterSnap {
            name: read_str(r, "counter name")?,
            label: read_label(r)?,
            value: r.u64("counter value")?,
        });
    }
    for _ in 0..r.u32("gauge count")? {
        snap.gauges.push(GaugeSnap {
            name: read_str(r, "gauge name")?,
            label: read_label(r)?,
            value: r.u64("gauge value")? as i64,
        });
    }
    for _ in 0..r.u32("histogram count")? {
        let name = read_str(r, "histogram name")?;
        let label = read_label(r)?;
        let count = r.u64("histogram count")?;
        let sum_us = r.u64("histogram sum")?;
        let mut buckets = Vec::new();
        for _ in 0..r.u32("bucket count")? {
            buckets.push((r.u64("bucket bound")?, r.u64("bucket value")?));
        }
        snap.histograms.push(HistSnap {
            name,
            label,
            count,
            sum_us,
            buckets,
        });
    }
    Ok(snap)
}

/// Byte length of the per-request stats trailer [`encode_stats`] writes.
pub(crate) const STATS_LEN: usize = 65;

pub(crate) fn encode_stats(stats: &RequestStats, out: &mut Vec<u8>) {
    put_u64(out, stats.samples_changed);
    put_u64(out, stats.bits_flipped);
    put_u32(out, stats.voter_agreement_permille);
    put_u64(out, stats.queue_wait_us);
    put_u64(out, stats.service_us);
    put_u32(out, stats.batch_frames);
    put_u32(out, stats.batch_requests);
    out.push(ft_level_code(stats.rung));
    put_u32(out, stats.attempts);
    put_u32(out, stats.net_retries);
    put_u32(out, stats.served_by);
    out.push(stats.tuned_lambda);
    out.push(stats.tuned_upsilon);
    out.push(stats.tuned_window_a);
    out.push(stats.tuned_window_c);
    put_u32(out, stats.tuner_recalibrations);
}

fn decode_stats(r: &mut SliceReader<'_>) -> Result<RequestStats, WireError> {
    Ok(RequestStats {
        samples_changed: r.u64("samples changed")?,
        bits_flipped: r.u64("bits flipped")?,
        voter_agreement_permille: r.u32("voter agreement")?,
        queue_wait_us: r.u64("queue wait")?,
        service_us: r.u64("service time")?,
        batch_frames: r.u32("batch frames")?,
        batch_requests: r.u32("batch requests")?,
        rung: {
            let code = r.u8("ladder rung")?;
            ft_level_from_code(code)
                .ok_or_else(|| WireError::Malformed(format!("unknown ladder rung {code}")))?
        },
        attempts: r.u32("attempts")?,
        net_retries: r.u32("net retries")?,
        served_by: r.u32("served by")?,
        tuned_lambda: r.u8("tuned lambda")?,
        tuned_upsilon: r.u8("tuned upsilon")?,
        tuned_window_a: r.u8("tuned window a")?,
        tuned_window_c: r.u8("tuned window c")?,
        tuner_recalibrations: r.u32("tuner recalibrations")?,
    })
}

fn encode_payload_into(msg: &Message, p: &mut Vec<u8>) {
    match msg {
        Message::Submit(s) => {
            put_u64(p, s.request_id);
            put_u64(p, s.stream_id);
            p.push(s.lambda);
            p.push(s.upsilon);
            p.push(u8::from(s.eos));
            s.payload.encode_into(p);
        }
        Message::Response(r) => {
            put_u64(p, r.request_id);
            encode_stats(&r.stats, p);
            r.payload.encode_into(p);
        }
        Message::Busy(b) => {
            put_u64(p, b.request_id);
            put_u32(p, b.capacity);
            put_u32(p, b.in_flight);
        }
        Message::Error(e) => {
            put_u64(p, e.request_id);
            p.push(e.code.code());
            put_str(p, &e.message);
        }
        Message::Drain => {}
        Message::DrainAck(d) => {
            put_u64(p, d.completed);
            put_u64(p, d.rejected);
        }
        Message::Ping(token) | Message::Pong(token) => put_u64(p, *token),
        Message::StatsRequest => {}
        Message::StatsReply(snap) => encode_snapshot(snap, p),
    }
}

/// Byte length of a stack's geometry on the wire: dtype (1) + width,
/// height and frames (4 each).
const GEOMETRY_LEN: usize = 13;

/// Payload bytes of a `Submit` before its first pixel: request id (8) +
/// stream id (8) + lambda, upsilon and flags (1 each) + geometry.
pub(crate) const SUBMIT_PREFIX: usize = 19 + GEOMETRY_LEN;

/// Payload bytes of a `Response` before its first pixel: request id (8) +
/// stats trailer + geometry.
pub(crate) const RESPONSE_PREFIX: usize = 8 + STATS_LEN + GEOMETRY_LEN;

/// A frame stack's declared geometry, checked against the payload that
/// carries it.
pub(crate) struct Geometry {
    pub(crate) dtype: Dtype,
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) frames: usize,
    /// Pixel bytes per frame (its CRC follows them).
    pub(crate) frame_bytes: usize,
    /// Samples in the whole stack.
    pub(crate) samples: usize,
}

/// The fields a pixel-carrying message holds before its frames.
pub(crate) enum FrameHeader {
    Submit {
        request_id: u64,
        stream_id: u64,
        lambda: u8,
        upsilon: u8,
        eos: bool,
    },
    Response {
        request_id: u64,
        /// Boxed so the decoder, which every daemon connection holds
        /// inline, stays small; only clients decode responses.
        stats: Box<RequestStats>,
    },
}

impl FrameHeader {
    /// The complete message once its frames are decoded.
    pub(crate) fn into_message(self, payload: FramePayload) -> Message {
        match self {
            FrameHeader::Submit {
                request_id,
                stream_id,
                lambda,
                upsilon,
                eos,
            } => Message::Submit(SubmitRequest {
                request_id,
                stream_id,
                lambda,
                upsilon,
                eos,
                payload,
            }),
            FrameHeader::Response { request_id, stats } => Message::Response(SubmitResponse {
                request_id,
                stats: *stats,
                payload,
            }),
        }
    }
}

/// The prefix length of a pixel-carrying message type (`Submit`,
/// `Response`); `None` for control messages.
pub(crate) fn frame_prefix_len(type_code: u8) -> Option<usize> {
    match type_code {
        1 => Some(SUBMIT_PREFIX),
        2 => Some(RESPONSE_PREFIX),
        _ => None,
    }
}

/// Parses and validates the prefix of a pixel-carrying message of a
/// `payload_len`-byte payload. `prefix` holds the payload's first
/// `min(frame_prefix_len(type_code), payload_len)` bytes, so a payload
/// shorter than its prefix fails with the field it ran out in. The
/// declared geometry is untrusted: it must fit in the rest of the payload
/// (pixels + a 4-byte CRC per frame) before anything is sized by it.
pub(crate) fn parse_frame_prefix(
    type_code: u8,
    prefix: &[u8],
    payload_len: usize,
) -> Result<(FrameHeader, Geometry), WireError> {
    let mut r = SliceReader::new(prefix);
    let header = match type_code {
        1 => {
            let request_id = r.u64("request id")?;
            let stream_id = r.u64("stream id")?;
            let lambda = r.u8("lambda")?;
            let upsilon = r.u8("upsilon")?;
            let flags = r.u8("flags")?;
            if lambda > 100 {
                return Err(WireError::Malformed(format!(
                    "lambda {lambda} out of 0..=100"
                )));
            }
            if upsilon < 2 || upsilon % 2 != 0 || upsilon > 16 {
                return Err(WireError::Malformed(format!(
                    "upsilon {upsilon} must be even and in 2..=16"
                )));
            }
            FrameHeader::Submit {
                request_id,
                stream_id,
                lambda,
                upsilon,
                eos: flags & 1 != 0,
            }
        }
        2 => FrameHeader::Response {
            request_id: r.u64("request id")?,
            stats: Box::new(decode_stats(&mut r)?),
        },
        other => return Err(WireError::UnknownType(other)),
    };
    let dtype = Dtype::from_code(r.u8("dtype")?)?;
    let width = r.u32("width")? as usize;
    let height = r.u32("height")? as usize;
    let frames = r.u32("frames")? as usize;
    if width == 0 || height == 0 || frames == 0 {
        return Err(WireError::Malformed(format!(
            "zero dimension in {width}x{height}x{frames} stack"
        )));
    }
    let frame_len = width
        .checked_mul(height)
        .ok_or_else(|| WireError::Malformed("frame area overflows".to_owned()))?;
    let frame_bytes = frame_len
        .checked_mul(dtype.bytes())
        .ok_or_else(|| WireError::Malformed("frame size overflows".to_owned()))?;
    let declared = frame_bytes
        .checked_add(4)
        .and_then(|per_frame| per_frame.checked_mul(frames))
        .ok_or_else(|| WireError::Malformed("stack size overflows".to_owned()))?;
    if declared > payload_len - r.pos {
        return Err(WireError::Truncated("frame data"));
    }
    let samples = frame_len
        .checked_mul(frames)
        .ok_or_else(|| WireError::Malformed("stack size overflows".to_owned()))?;
    Ok((
        header,
        Geometry {
            dtype,
            width,
            height,
            frames,
            frame_bytes,
            samples,
        },
    ))
}

/// Decodes a control message (types 3–10) from its CRC-checked payload.
pub(crate) fn decode_payload(type_code: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = SliceReader::new(payload);
    let msg = match type_code {
        3 => Message::Busy(BusyReply {
            request_id: r.u64("request id")?,
            capacity: r.u32("capacity")?,
            in_flight: r.u32("in-flight count")?,
        }),
        4 => {
            let request_id = r.u64("request id")?;
            let code = ErrorCode::from_code(r.u8("error code")?)?;
            let message = read_str(&mut r, "error message")?;
            Message::Error(ErrorReply {
                request_id,
                code,
                message,
            })
        }
        5 => Message::Drain,
        6 => Message::DrainAck(DrainSummary {
            completed: r.u64("completed count")?,
            rejected: r.u64("rejected count")?,
        }),
        7 => Message::Ping(r.u64("token")?),
        8 => Message::Pong(r.u64("token")?),
        9 => Message::StatsRequest,
        10 => Message::StatsReply(decode_snapshot(&mut r)?),
        other => return Err(WireError::UnknownType(other)),
    };
    if !r.finished() {
        return Err(WireError::Malformed(format!(
            "{} trailing byte(s) after message body",
            payload.len() - r.pos
        )));
    }
    Ok(msg)
}

/// Serialises `msg` into one complete envelope.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_message_into(msg, &mut out);
    out
}

/// Serialises `msg` into one complete envelope appended to `out`, reusing
/// the buffer's capacity: the payload is encoded in place after the head
/// (no intermediate payload `Vec`), then the length field is patched and
/// the payload CRC appended. The event loop's reply path leans on this to
/// keep control replies allocation-free in steady state.
pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
    let head_at = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(msg.type_code());
    put_u32(out, 0); // length, patched below
    let payload_at = out.len();
    encode_payload_into(msg, out);
    let payload_len = out.len() - payload_at;
    out[head_at + 6..head_at + HEAD_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&out[payload_at..]);
    put_u32(out, crc);
}

/// Writes one envelope to `w` and flushes it.
pub fn write_message(w: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    w.write_all(&encode_message(msg))?;
    w.flush()
}

/// The fixed envelope head: magic + version + type + payload length.
pub const HEAD_LEN: usize = 10;

/// Validates an envelope head, returning the message type code and the
/// declared payload length.
pub fn parse_head(head: &[u8; HEAD_LEN]) -> Result<(u8, u32), WireError> {
    let magic = [head[0], head[1], head[2], head[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if head[4] != VERSION {
        return Err(WireError::BadVersion(head[4]));
    }
    let len = u32::from_le_bytes([head[6], head[7], head[8], head[9]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((head[5], len))
}

/// Validates a received payload against its wire CRC and decodes the body.
pub fn parse_body(type_code: u8, payload: &[u8], wire_crc: u32) -> Result<Message, WireError> {
    let crc = wire_crc.to_le_bytes();
    crate::ingest::read_body(type_code, payload.len(), &mut payload.chain(&crc[..]))
}

/// Reads exactly one envelope from `r`, validating magic, version, length
/// bound and both CRC layers. Memory grows with the bytes actually
/// received, not with the declared payload length.
pub fn read_message(r: &mut impl Read) -> Result<Message, WireError> {
    let mut head = [0u8; HEAD_LEN];
    r.read_exact(&mut head)?;
    let (type_code, len) = parse_head(&head)?;
    crate::ingest::read_body(type_code, len as usize, r)
}

/// Decodes one envelope from a byte slice (test helper mirroring
/// [`read_message`]), returning the message and the bytes consumed.
pub fn decode_message(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let mut cursor = buf;
    let before = cursor.len();
    let msg = read_message(&mut cursor)?;
    Ok((msg, before - cursor.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_trailer_is_stats_len_bytes() {
        let mut out = Vec::new();
        encode_stats(&RequestStats::default(), &mut out);
        assert_eq!(out.len(), STATS_LEN);
    }
}
