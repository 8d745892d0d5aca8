//! The non-blocking connection engine: one thread per shard, every socket.
//!
//! PR 9 ran a single loop thread that multiplexed the listeners, every
//! connection, and a self-pipe waker over [`crate::poll`] (epoll).
//! This revision keeps that shape but runs N independent copies of it —
//! *shards* — each owning its own poller, timer wheel, connections, and
//! reply channel, so accepts, envelope decoding, and response writes scale
//! across cores instead of serialising on one thread:
//!
//! - **TCP**: every shard owns its own `SO_REUSEPORT` listener bound to
//!   the same address; the kernel spreads incoming connections.
//! - **Unix sockets** (no reuseport equivalent): the shard that owns the
//!   listener accepts, acquires the connection permit, and round-robins
//!   the accepted fd to its peers over a handoff channel + waker.
//!
//! Admitted jobs go to the shared [`crate::batcher::Batcher`] inline; no
//! batcher thread sits between a shard and the engine queue. Every loop
//! iteration fires the batch deadlines that are due (`max_delay`, far finer
//! than the [`TimerWheel`]'s one-second slots) and sleeps no later than the
//! next one.
//!
//! The per-connection data path is zero-copy:
//!
//! - **Ingest**: `Submit` payload bytes are read off the socket *directly
//!   into* a pooled, engine-ready pixel buffer ([`crate::ingest::Ingest`]),
//!   with both CRC layers folded as bytes land — no intermediate body
//!   `Vec`, no re-parse, exactly one payload copy (socket → pool).
//! - **Egress**: responses are never re-encoded into a contiguous buffer.
//!   The loop keeps the engine's pooled stack, encodes head + stats +
//!   frame CRCs into a small reused scratch, and `writev`s the segments
//!   straight from the stack ([`crate::poll::writev_fd`]). Once the last
//!   byte hits the wire the stack returns to the [`BufferPool`].
//!
//! Every PR 3/PR 9 hardening invariant is preserved bit for bit:
//!
//! - **CRC framing + checked geometry**: `parse_head` unchanged; the
//!   streaming decoder is the same one `parse_body` and `read_message`
//!   drive, so every transport gets the same verdicts in the same order
//!   of precedence.
//! - **`Busy` admission**: the request gate at submit, the connection gate
//!   at accept — an over-cap accept still gets a best-effort `Busy` reply,
//!   never a silent close.
//! - **30 s no-progress stall deadline**: enforced by the per-shard
//!   [`TimerWheel`]; a connection mid-envelope or with unflushed replies
//!   that makes no byte progress for [`MID_ENVELOPE_STALL`] is closed.
//! - **SIGTERM drain latch**: `draining` stops accepts and new admissions;
//!   wire `Drain` acks are deferred until the (shared) gate is idle or
//!   [`DRAIN_TIMEOUT`] passes — whichever shard observes it first sets
//!   `drain_acked`, and every shard answers its own waiters.

use crate::batcher::SubmitJob;
use crate::ingest::Ingest;
use crate::poll::{Interest, Poller, WakeReader, Waker, IOV_BATCH};
use crate::pool::BufferPool;
use crate::queue::AdmissionPermit;
use crate::reply::ReplySink;
use crate::server::{Shared, BODY_CHUNK, DRAIN_TIMEOUT, MID_ENVELOPE_STALL};
use crate::wheel::TimerWheel;
use crate::wire::{
    encode_message, encode_message_into, parse_head, BusyReply, ErrorCode, ErrorReply,
    FramePayload, Message, HEAD_LEN,
};
use crossbeam::channel;
use preflight_obs::Counter;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_WAKER: u64 = 0;
const TOKEN_TCP: u64 = 1;
const TOKEN_UNIX: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 16;

/// How long the loop keeps flushing pending out-buffers after `stopped`
/// before it hard-closes (covers the final `DrainAck` racing shutdown).
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Retired [`OutMsg`]s (scratch + segment vecs) kept per connection for
/// reuse, so steady-state replies allocate nothing.
const FREE_MSGS: usize = 4;

/// Wire type code of [`Message::Response`] — the vectored reply encoder
/// writes the envelope head itself and never materialises the `Message`.
/// Pinned against the real encoder by `segments_match_encode_message`.
const RESPONSE_TYPE_CODE: u8 = 2;

/// An accepted Unix connection in flight from the listener-owning shard to
/// the shard that will serve it (its connection permit travels along).
pub(crate) struct Handoff {
    pub(crate) sock: UnixStream,
    pub(crate) permit: AdmissionPermit,
}

/// Everything one shard's loop thread needs at start.
pub(crate) struct LoopConfig {
    /// This shard's index (labels its metrics; offsets the handoff
    /// round-robin).
    pub shard: usize,
    /// This shard's TCP listener (its own `SO_REUSEPORT` socket when
    /// sharded, the sole listener otherwise).
    pub tcp: Option<TcpListener>,
    /// The Unix listener — only the shard that owns it (shard 0) gets one.
    pub unix: Option<UnixListener>,
    pub shared: Arc<Shared>,
    /// The pixel-buffer pool shared with the engine workers.
    pub pool: Arc<BufferPool>,
    /// This shard's own waker (embedded in [`ReplySink`]s it hands out).
    pub wake: Waker,
    pub reply_tx: channel::Sender<(u64, Message)>,
    pub reply_rx: channel::Receiver<(u64, Message)>,
    pub wake_reader: WakeReader,
    pub poller: Poller,
    /// Accepted Unix connections routed to this shard.
    pub handoff_rx: channel::Receiver<Handoff>,
    /// Every shard's handoff lane (sender + waker), indexed by shard; used
    /// by the Unix-listener owner to round-robin accepts.
    pub handoff: Vec<(channel::Sender<Handoff>, Waker)>,
}

/// Where the envelope decoder stands.
enum ReadState {
    /// Collecting the fixed-size head.
    Head { filled: usize },
    /// Streaming the body through the zero-copy decoder.
    Body { ingest: Ingest },
}

enum Sock {
    Tcp(std::net::TcpStream),
    Unix(UnixStream),
}

impl Sock {
    fn raw_fd(&self) -> i32 {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }
}

/// One wire segment of a queued reply: a range of the message's scratch
/// bytes, or a whole frame of its pooled pixel stack (viewed in place).
#[derive(Clone, Copy)]
enum Seg {
    /// `scratch[start..end]`.
    Scratch { start: usize, end: usize },
    /// The wire bytes of frame `frame` of the attached stack.
    Frame { frame: usize, len: usize },
}

/// One encoded reply awaiting the socket, as a list of segments gathered
/// by `writev` — responses carry their pixel payload by reference to the
/// pooled stack instead of a flattened copy.
#[derive(Default)]
struct OutMsg {
    /// Head + stats/meta prefix + frame CRCs + payload CRC.
    scratch: Vec<u8>,
    /// Wire-order segments over `scratch` and `stack`.
    segs: Vec<Seg>,
    /// Pixel source for [`Seg::Frame`] segments; recycled to the pool
    /// after the final flush.
    stack: Option<FramePayload>,
}

impl OutMsg {
    fn seg_len(&self, idx: usize) -> usize {
        match self.segs[idx] {
            Seg::Scratch { start, end } => end - start,
            Seg::Frame { len, .. } => len,
        }
    }

    /// Segment `idx`'s unwritten tail, starting `off` bytes in.
    fn seg_slice(&self, idx: usize, off: usize) -> &[u8] {
        match self.segs[idx] {
            Seg::Scratch { start, end } => &self.scratch[start + off..end],
            Seg::Frame { frame, len } => {
                let stack = self.stack.as_ref().expect("frame segment without stack");
                &frame_le_bytes(stack, frame)[off..len]
            }
        }
    }
}

/// The wire bytes of one frame of a stack.
fn frame_le_bytes(payload: &FramePayload, frame: usize) -> &[u8] {
    match payload {
        FramePayload::U16(s) => crate::bytes::le_view(s.frame(frame)),
        FramePayload::U32(s) => crate::bytes::le_view(s.frame(frame)),
    }
}

/// Returns a response stack's buffer to the pool.
fn recycle_payload(pool: &BufferPool, payload: FramePayload) {
    match payload {
        FramePayload::U16(s) => pool.put_u16(s.into_vec()),
        FramePayload::U32(s) => pool.put_u32(s.into_vec()),
    }
}

/// One connection's state machine and buffers, owned by its shard.
struct Conn {
    sock: Sock,
    token: u64,
    /// Holds this connection's slot in the connection gate until drop.
    _permit: AdmissionPermit,
    state: ReadState,
    head: [u8; HEAD_LEN],
    /// Replies awaiting the socket, oldest first.
    out: VecDeque<OutMsg>,
    /// Flush cursor into the front message: next segment, bytes already
    /// written of it.
    out_seg: usize,
    out_off: usize,
    /// Retired out-messages kept for reuse (scratch + segment capacity).
    free: Vec<OutMsg>,
    /// Whether the poller currently watches this socket for writability.
    want_write: bool,
    /// Last moment a byte moved in either direction.
    last_progress: Instant,
    /// Whether the timer wheel holds a live entry for this token.
    timer_armed: bool,
    /// Close once the out-queue drains (protocol violations, wire errors).
    close_after_flush: bool,
    /// This connection sent `Drain` and is owed a `DrainAck`.
    drain_waiter: bool,
}

impl Conn {
    /// Mid-envelope or holding unflushed replies: subject to the stall
    /// deadline. Idle between envelopes: not.
    fn engaged(&self) -> bool {
        let mid_read = match self.state {
            ReadState::Head { filled } => filled > 0,
            ReadState::Body { .. } => true,
        };
        mid_read || !self.out.is_empty()
    }
}

/// The outcome of servicing one connection event.
enum Verdict {
    Keep,
    Close,
}

struct DrainState {
    started: Instant,
}

/// Runs one shard's loop until `stopped`. Owns every connection routed to
/// this shard.
pub(crate) fn run_event_loop(cfg: LoopConfig) {
    let LoopConfig {
        shard,
        tcp,
        unix,
        shared,
        pool,
        wake,
        reply_tx,
        reply_rx,
        wake_reader,
        poller,
        handoff_rx,
        handoff,
    } = cfg;
    let stats = Arc::clone(&shared.stats);
    let (accepts, wakeups) = stats.shard_counters(shard);

    // Registration failures here are fatal to the loop but not the
    // process: the daemon keeps running (engine workers alive) and
    // `drain()` still joins cleanly.
    if poller
        .add(wake_reader.raw_fd(), TOKEN_WAKER, Interest::Read)
        .is_err()
    {
        return;
    }
    let mut tcp = tcp;
    let mut unix = unix;
    if let Some(l) = &tcp {
        if poller
            .add(l.as_raw_fd(), TOKEN_TCP, Interest::Read)
            .is_err()
        {
            return;
        }
    }
    if let Some(l) = &unix {
        if poller
            .add(l.as_raw_fd(), TOKEN_UNIX, Interest::Read)
            .is_err()
        {
            return;
        }
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut wheel = TimerWheel::new(Instant::now());
    let mut events = Vec::new();
    let mut fired = Vec::new();
    let mut drain: Option<DrainState> = None;
    let mut listeners_down = false;
    // Handoff round-robin cursor, offset by shard so several listener
    // owners (future-proofing) would not all start at shard 0.
    let mut rr = shard;

    loop {
        let now = Instant::now();
        let mut timeout = [wheel.next_deadline(now), shared.batcher.flush_due(now)]
            .into_iter()
            .flatten()
            .min();
        if drain.is_some() {
            // Poll the gate for idleness (or another shard's ack) while a
            // wire drain is pending on this shard.
            timeout = Some(timeout.map_or(Duration::from_millis(50), |t| {
                t.min(Duration::from_millis(50))
            }));
        }
        let _ = poller.wait(&mut events, timeout);
        stats.poll_wakeups.inc();
        wakeups.inc();

        if shared.stopped.load(Ordering::SeqCst) {
            shutdown_flush(&poller, &mut conns, &stats, &pool);
            return;
        }

        // Stop accepting the moment a drain begins.
        if !listeners_down && shared.draining.load(Ordering::SeqCst) {
            if let Some(l) = tcp.take() {
                let _ = poller.remove(l.as_raw_fd());
            }
            if let Some(l) = unix.take() {
                let _ = poller.remove(l.as_raw_fd());
            }
            listeners_down = true;
        }

        for ev in events.iter().copied() {
            match ev.token {
                TOKEN_WAKER => wake_reader.drain(),
                TOKEN_TCP => {
                    if let Some(listener) = &tcp {
                        accept_burst(
                            listener,
                            &poller,
                            &shared,
                            &mut conns,
                            &mut next_token,
                            &accepts,
                        );
                    }
                }
                TOKEN_UNIX => {
                    if let Some(listener) = &unix {
                        accept_unix_burst(
                            listener,
                            &poller,
                            &shared,
                            &mut conns,
                            &mut next_token,
                            &accepts,
                            &handoff,
                            &mut rr,
                            shard,
                        );
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut verdict = Verdict::Keep;
                    if ev.readable {
                        let timer = stats.stage_readable.timer();
                        verdict =
                            handle_readable(conn, &shared, &pool, &reply_tx, &wake, &mut drain);
                        drop(timer);
                    }
                    // Flush whatever dispatch queued (and, on writable
                    // events, whatever was already pending).
                    if matches!(verdict, Verdict::Keep) {
                        let timer = ev.writable.then(|| stats.stage_writable.timer());
                        verdict = flush_out(conn, &poller, &pool);
                        drop(timer);
                    }
                    // A pure hangup (no pending bytes to read) closes; a
                    // readable hangup was already consumed to EOF above.
                    if matches!(verdict, Verdict::Keep) && ev.closed && !ev.readable {
                        verdict = Verdict::Close;
                    }
                    match verdict {
                        Verdict::Close => close_conn(&poller, &mut conns, token, &shared, &pool),
                        Verdict::Keep => arm_deadline(&mut conns, token, &mut wheel),
                    }
                }
            }
        }

        // Adopt Unix connections the listener-owning shard handed over.
        while let Ok(h) = handoff_rx.try_recv() {
            register_conn(
                Sock::Unix(h.sock),
                h.permit,
                &poller,
                &shared,
                &mut conns,
                &mut next_token,
                &accepts,
            );
        }

        // Route replies queued by engine workers (and deferred acks).
        while let Ok((token, msg)) = reply_rx.try_recv() {
            let Some(conn) = conns.get_mut(&token) else {
                // Connection gone (the permit already dropped); salvage the
                // response's pooled buffer before dropping the message.
                recycle_dropped(&pool, msg);
                continue;
            };
            let timer = stats.stage_write.timer();
            route_reply(conn, msg);
            drop(timer);
            match flush_out(conn, &poller, &pool) {
                Verdict::Close => close_conn(&poller, &mut conns, token, &shared, &pool),
                Verdict::Keep => arm_deadline(&mut conns, token, &mut wheel),
            }
        }

        // Fire stall deadlines (lazy cancellation: re-check real progress).
        let now = Instant::now();
        wheel.expired(now, &mut fired);
        for &token in &fired {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.timer_armed = false;
            if !conn.engaged() {
                continue;
            }
            if now.saturating_duration_since(conn.last_progress) >= MID_ENVELOPE_STALL {
                close_conn(&poller, &mut conns, token, &shared, &pool);
            } else {
                arm_deadline(&mut conns, token, &mut wheel);
            }
        }

        // Resolve a pending wire drain without ever blocking the loop. Any
        // shard may observe idleness first and set the global flag; every
        // shard answers its own waiters (on the flag alone if another
        // shard won the race).
        if let Some(d) = &drain {
            let already = shared.drain_acked.load(Ordering::SeqCst);
            let idle = shared.gate.in_flight() == 0;
            let timed_out = d.started.elapsed() >= DRAIN_TIMEOUT;
            if already || idle || timed_out {
                if !already {
                    if timed_out && !idle {
                        eprintln!(
                            "preflightd: drain timed out after {DRAIN_TIMEOUT:?} with {} \
                             request(s) still in flight; acking anyway",
                            shared.gate.in_flight()
                        );
                    }
                    // Raise the flag before the ack can reach the wire:
                    // once a client observes DrainAck, `drain_acked()`
                    // must be true.
                    shared.drain_acked.store(true, Ordering::SeqCst);
                }
                let summary = shared.summary();
                let waiters: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.drain_waiter)
                    .map(|(t, _)| *t)
                    .collect();
                for token in waiters {
                    if let Some(conn) = conns.get_mut(&token) {
                        queue_reply(conn, &Message::DrainAck(summary));
                        if let Verdict::Close = flush_out(conn, &poller, &pool) {
                            close_conn(&poller, &mut conns, token, &shared, &pool);
                        }
                    }
                }
                drain = None;
            }
        }

        // The waker drain above may have consumed a wake byte posted
        // *after* this iteration's `stopped` check — re-check before
        // blocking again, or that stop request would wait on the next
        // unrelated event (possibly forever on an idle daemon).
        if shared.stopped.load(Ordering::SeqCst) {
            shutdown_flush(&poller, &mut conns, &stats, &pool);
            return;
        }
    }
}

/// Accepts from a TCP listener until `WouldBlock`, registering each
/// connection locally (or rejecting it with a best-effort `Busy` at the
/// cap). With `SO_REUSEPORT` sharding, each shard only sees the accepts
/// the kernel routed to its own listener.
fn accept_burst(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    accepts: &Counter,
) {
    loop {
        let timer = shared.stats.stage_accept.timer();
        let sock = match listener.accept() {
            Ok((s, _)) => {
                let _ = s.set_nonblocking(true);
                let _ = s.set_nodelay(true);
                Sock::Tcp(s)
            }
            Err(e) => {
                drop(timer);
                if e.kind() != ErrorKind::WouldBlock {
                    // EMFILE and friends: back off briefly instead of
                    // spinning on a level-triggered listener.
                    std::thread::sleep(Duration::from_millis(10));
                }
                return;
            }
        };
        let Some(permit) = shared.conn_gate.try_acquire() else {
            reject_connection(sock, shared);
            continue;
        };
        register_conn(sock, permit, poller, shared, conns, next_token, accepts);
    }
}

/// Accepts from the Unix listener, acquiring the connection permit, then
/// round-robins each accepted stream across the shards (itself included)
/// — the Unix-socket stand-in for `SO_REUSEPORT` spreading.
#[allow(clippy::too_many_arguments)]
fn accept_unix_burst(
    listener: &UnixListener,
    poller: &Poller,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    accepts: &Counter,
    handoff: &[(channel::Sender<Handoff>, Waker)],
    rr: &mut usize,
    own_shard: usize,
) {
    loop {
        let timer = shared.stats.stage_accept.timer();
        let sock = match listener.accept() {
            Ok((s, _)) => {
                let _ = s.set_nonblocking(true);
                s
            }
            Err(e) => {
                drop(timer);
                if e.kind() != ErrorKind::WouldBlock {
                    std::thread::sleep(Duration::from_millis(10));
                }
                return;
            }
        };
        let Some(permit) = shared.conn_gate.try_acquire() else {
            reject_connection(Sock::Unix(sock), shared);
            continue;
        };
        let target = if handoff.len() > 1 {
            let t = *rr % handoff.len();
            *rr = rr.wrapping_add(1);
            t
        } else {
            own_shard
        };
        if target == own_shard {
            register_conn(
                Sock::Unix(sock),
                permit,
                poller,
                shared,
                conns,
                next_token,
                accepts,
            );
        } else {
            let (tx, wake_peer) = &handoff[target];
            // On send failure the peer shard is gone; the permit and the
            // socket drop here, freeing the slot.
            if tx.send(Handoff { sock, permit }).is_ok() {
                wake_peer.wake();
            }
        }
    }
}

/// Registers an accepted (or handed-off) connection with this shard.
fn register_conn(
    sock: Sock,
    permit: AdmissionPermit,
    poller: &Poller,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    accepts: &Counter,
) {
    let token = *next_token;
    *next_token += 1;
    if poller.add(sock.raw_fd(), token, Interest::Read).is_err() {
        // Registration failed (fd pressure): the permit drops here,
        // freeing the slot, and the socket closes.
        return;
    }
    shared.stats.connections.inc();
    shared.stats.open_connections.add(1);
    accepts.inc();
    conns.insert(
        token,
        Conn {
            sock,
            token,
            _permit: permit,
            state: ReadState::Head { filled: 0 },
            head: [0u8; HEAD_LEN],
            out: VecDeque::new(),
            out_seg: 0,
            out_off: 0,
            free: Vec::new(),
            want_write: false,
            last_progress: Instant::now(),
            timer_armed: false,
            close_after_flush: false,
            drain_waiter: false,
        },
    );
}

/// Answers an over-cap connection with `Busy` (best effort: a fresh socket
/// has an empty send buffer, so the small frame fits without blocking) and
/// closes it.
fn reject_connection(mut sock: Sock, shared: &Arc<Shared>) {
    shared.stats.rejected_connections.inc();
    let bytes = encode_message(&Message::Busy(BusyReply {
        request_id: 0,
        capacity: shared.conn_gate.capacity() as u32,
        in_flight: shared.conn_gate.in_flight() as u32,
    }));
    let _ = sock.write(&bytes);
}

fn close_conn(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    shared: &Arc<Shared>,
    pool: &BufferPool,
) {
    if let Some(mut conn) = conns.remove(&token) {
        let _ = poller.remove(conn.sock.raw_fd());
        shared.stats.open_connections.add(-1);
        // Salvage pooled response buffers still queued behind the socket.
        for mut msg in conn.out.drain(..) {
            if let Some(stack) = msg.stack.take() {
                recycle_payload(pool, stack);
            }
        }
        // Socket and connection permit drop here.
    }
}

/// Arms (at most) one stall-deadline entry for an engaged connection.
fn arm_deadline(conns: &mut HashMap<u64, Conn>, token: u64, wheel: &mut TimerWheel) {
    if let Some(conn) = conns.get_mut(&token) {
        if conn.engaged() && !conn.timer_armed {
            wheel.arm(token, conn.last_progress + MID_ENVELOPE_STALL);
            conn.timer_armed = true;
        }
    }
}

/// Reads as much as the kernel has, advancing the streaming decoder and
/// dispatching every complete message. Payload bytes land directly in the
/// decoder's pooled buffer — no intermediate body copy.
fn handle_readable(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    pool: &Arc<BufferPool>,
    reply_tx: &channel::Sender<(u64, Message)>,
    wake: &Waker,
    drain: &mut Option<DrainState>,
) -> Verdict {
    // After a wire error or protocol violation the reply is queued and the
    // connection is closing: stop decoding, just let the flush finish.
    if conn.close_after_flush {
        return Verdict::Keep;
    }
    loop {
        if let ReadState::Head { filled } = conn.state {
            match conn.sock.read(&mut conn.head[filled..]) {
                Ok(0) => {
                    // EOF: clean between envelopes, an error inside one;
                    // either way the connection is over.
                    return Verdict::Close;
                }
                Ok(n) => {
                    conn.last_progress = Instant::now();
                    let filled = filled + n;
                    if filled < HEAD_LEN {
                        conn.state = ReadState::Head { filled };
                        continue;
                    }
                    match parse_head(&conn.head) {
                        Ok((type_code, len)) => {
                            conn.state = ReadState::Body {
                                ingest: Ingest::new(type_code, len as usize, pool),
                            };
                        }
                        Err(e) => {
                            // Desynchronised stream: report, hang up.
                            shared.stats.wire_errors.inc();
                            queue_reply(conn, &wire_error_reply(&e));
                            conn.close_after_flush = true;
                            conn.state = ReadState::Head { filled: 0 };
                            return Verdict::Keep;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Verdict::Close,
            }
            continue;
        }
        // Body: the decoder exposes the next raw destination window (a
        // pooled pixel buffer mid-frame, small scratch otherwise) and the
        // socket reads straight into it.
        let complete = {
            let ReadState::Body { ingest } = &mut conn.state else {
                unreachable!("head state handled above");
            };
            let win = ingest.window();
            if win.is_empty() {
                true
            } else {
                match conn.sock.read(win) {
                    Ok(0) => return Verdict::Close,
                    Ok(n) => {
                        conn.last_progress = Instant::now();
                        ingest.consume(n);
                        false
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Verdict::Keep,
                    Err(e) if e.kind() == ErrorKind::Interrupted => false,
                    Err(_) => return Verdict::Close,
                }
            }
        };
        if complete {
            let ReadState::Body { ingest } =
                std::mem::replace(&mut conn.state, ReadState::Head { filled: 0 })
            else {
                unreachable!("completion observed in body state");
            };
            match ingest.finish() {
                Ok(message) => {
                    if let Verdict::Close = dispatch(conn, message, shared, reply_tx, wake, drain) {
                        return Verdict::Close;
                    }
                    if conn.close_after_flush {
                        return Verdict::Keep;
                    }
                }
                Err(e) => {
                    shared.stats.wire_errors.inc();
                    queue_reply(conn, &wire_error_reply(&e));
                    conn.close_after_flush = true;
                    return Verdict::Keep;
                }
            }
        }
    }
}

/// Handles one decoded message — the same protocol the threaded server
/// spoke, minus anything that blocks.
fn dispatch(
    conn: &mut Conn,
    message: Message,
    shared: &Arc<Shared>,
    reply_tx: &channel::Sender<(u64, Message)>,
    wake: &Waker,
    drain: &mut Option<DrainState>,
) -> Verdict {
    match message {
        Message::Submit(request) => {
            // The admission stage spans decode-to-verdict: drain check,
            // gate acquire, and the inline batcher submit — including any
            // flush it triggers and the engine send — or the rejection.
            let _admission = shared.stats.stage_admission.timer();
            let request_id = request.request_id;
            if shared.draining.load(Ordering::SeqCst) {
                queue_reply(
                    conn,
                    &Message::Error(ErrorReply {
                        request_id,
                        code: ErrorCode::Draining,
                        message: "server is draining; no new work admitted".to_owned(),
                    }),
                );
                return Verdict::Keep;
            }
            match shared.gate.try_acquire() {
                Some(permit) => {
                    shared.stats.admitted.inc();
                    let job = SubmitJob {
                        request,
                        permit,
                        admitted_at: Instant::now(),
                        reply: ReplySink::new(conn.token, reply_tx.clone(), Some(wake.clone())),
                    };
                    if shared.batcher.submit(job).is_err() {
                        queue_reply(
                            conn,
                            &Message::Error(ErrorReply {
                                request_id,
                                code: ErrorCode::Draining,
                                message: "server is shutting down".to_owned(),
                            }),
                        );
                    }
                }
                None => {
                    shared.stats.rejected_busy.inc();
                    queue_reply(
                        conn,
                        &Message::Busy(BusyReply {
                            request_id,
                            capacity: shared.gate.capacity() as u32,
                            in_flight: shared.gate.in_flight() as u32,
                        }),
                    );
                }
            }
            Verdict::Keep
        }
        Message::StatsRequest => {
            queue_reply(conn, &Message::StatsReply(shared.stats.snapshot()));
            Verdict::Keep
        }
        Message::Ping(token) => {
            queue_reply(conn, &Message::Pong(token));
            Verdict::Keep
        }
        Message::Drain => {
            shared.begin_drain();
            if shared.drain_acked.load(Ordering::SeqCst) {
                // A previous drain already completed: ack right away.
                queue_reply(conn, &Message::DrainAck(shared.summary()));
            } else {
                conn.drain_waiter = true;
                if drain.is_none() {
                    *drain = Some(DrainState {
                        started: Instant::now(),
                    });
                }
                // The ack is deferred: the loop checks gate idleness every
                // iteration and answers every drain waiter then.
            }
            Verdict::Keep
        }
        // Server-to-client messages arriving at the server are a protocol
        // violation; answer and hang up.
        Message::Response(_)
        | Message::Busy(_)
        | Message::Error(_)
        | Message::DrainAck(_)
        | Message::Pong(_)
        | Message::StatsReply(_) => {
            queue_reply(
                conn,
                &Message::Error(ErrorReply {
                    request_id: 0,
                    code: ErrorCode::Malformed,
                    message: "unexpected server-side message from client".to_owned(),
                }),
            );
            conn.close_after_flush = true;
            Verdict::Keep
        }
    }
}

/// A recycled (or fresh) out-message with cleared scratch and segments.
fn take_msg(free: &mut Vec<OutMsg>) -> OutMsg {
    free.pop()
        .map(|mut m| {
            m.scratch.clear();
            m.segs.clear();
            m
        })
        .unwrap_or_default()
}

/// Retires a fully-flushed message: the pooled stack goes back to the
/// pool, the scratch/segment allocations back to the connection.
fn retire_msg(conn: &mut Conn, mut msg: OutMsg, pool: &BufferPool) {
    if let Some(stack) = msg.stack.take() {
        recycle_payload(pool, stack);
    }
    if conn.free.len() < FREE_MSGS && msg.scratch.capacity() <= BODY_CHUNK {
        conn.free.push(msg);
    }
}

/// Routes one engine reply into the connection's out-queue: responses take
/// the segmented zero-copy path, everything else the compact encoder.
fn route_reply(conn: &mut Conn, msg: Message) {
    match msg {
        Message::Response(resp) => queue_response(conn, resp),
        other => queue_reply(conn, &other),
    }
}

/// Salvages the pooled buffer of a reply whose connection is gone.
fn recycle_dropped(pool: &BufferPool, msg: Message) {
    if let Message::Response(resp) = msg {
        recycle_payload(pool, resp.payload);
    }
}

/// Appends one encoded control reply to the connection's out-queue,
/// reusing a retired scratch buffer when one is available.
fn queue_reply(conn: &mut Conn, msg: &Message) {
    let mut out = take_msg(&mut conn.free);
    encode_message_into(msg, &mut out.scratch);
    out.segs.push(Seg::Scratch {
        start: 0,
        end: out.scratch.len(),
    });
    conn.out.push_back(out);
}

/// Queues a `Response` without flattening it: head, stats trailer, and
/// geometry go into scratch; each frame is a segment pointing into the
/// engine's pooled stack; frame CRCs and the payload CRC are computed over
/// the in-place views and land in scratch. Byte-identical to
/// [`encode_message`] (pinned by a test below) at zero allocations and
/// zero pixel copies.
fn queue_response(conn: &mut Conn, resp: crate::wire::SubmitResponse) {
    let msg = response_out_msg(take_msg(&mut conn.free), resp);
    conn.out.push_back(msg);
}

fn response_out_msg(mut msg: OutMsg, resp: crate::wire::SubmitResponse) -> OutMsg {
    use crate::wire::{encode_stats, put_u32, put_u64, MAGIC, VERSION};
    msg.scratch.extend_from_slice(&MAGIC);
    msg.scratch.push(VERSION);
    msg.scratch.push(RESPONSE_TYPE_CODE);
    put_u32(&mut msg.scratch, 0); // payload length, patched below
    put_u64(&mut msg.scratch, resp.request_id);
    encode_stats(&resp.stats, &mut msg.scratch);
    let payload = resp.payload;
    msg.scratch.push(payload.dtype().code());
    put_u32(&mut msg.scratch, payload.width() as u32);
    put_u32(&mut msg.scratch, payload.height() as u32);
    put_u32(&mut msg.scratch, payload.frames() as u32);
    let prefix_end = msg.scratch.len();
    msg.segs.push(Seg::Scratch {
        start: 0,
        end: prefix_end,
    });
    let mut payload_len = prefix_end - HEAD_LEN;
    let mut payload_crc = crate::crc::Crc32::new();
    payload_crc.update(&msg.scratch[HEAD_LEN..prefix_end]);
    for frame in 0..payload.frames() {
        let bytes = frame_le_bytes(&payload, frame);
        let crc = crate::crc::crc32(bytes);
        payload_crc.update(bytes);
        payload_len += bytes.len() + 4;
        msg.segs.push(Seg::Frame {
            frame,
            len: bytes.len(),
        });
        let at = msg.scratch.len();
        msg.scratch.extend_from_slice(&crc.to_le_bytes());
        payload_crc.update(&crc.to_le_bytes());
        msg.segs.push(Seg::Scratch {
            start: at,
            end: at + 4,
        });
    }
    msg.scratch[6..HEAD_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let at = msg.scratch.len();
    msg.scratch
        .extend_from_slice(&payload_crc.finish().to_le_bytes());
    msg.segs.push(Seg::Scratch {
        start: at,
        end: at + 4,
    });
    msg.stack = Some(payload);
    msg
}

/// Writes as much of the out-queue as the socket accepts, gathering up to
/// [`IOV_BATCH`] segments per `writev` so a whole response (head, frames,
/// CRCs) usually leaves in one syscall. Maintains write interest so the
/// poller reports this connection again only while messages remain.
fn flush_out(conn: &mut Conn, poller: &Poller, pool: &BufferPool) -> Verdict {
    let fd = conn.sock.raw_fd();
    while !conn.out.is_empty() {
        let wrote = {
            let mut slices: [&[u8]; IOV_BATCH] = [&[]; IOV_BATCH];
            let mut n = 0usize;
            let (mut seg, mut off) = (conn.out_seg, conn.out_off);
            'gather: for msg in conn.out.iter() {
                while seg < msg.segs.len() {
                    if n == IOV_BATCH {
                        break 'gather;
                    }
                    let slice = msg.seg_slice(seg, off);
                    if !slice.is_empty() {
                        slices[n] = slice;
                        n += 1;
                    }
                    seg += 1;
                    off = 0;
                }
                seg = 0;
            }
            if n == 0 {
                break;
            }
            match crate::poll::writev_fd(fd, &slices[..n]) {
                Ok(0) => return Verdict::Close,
                Ok(w) => w,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        };
        conn.last_progress = Instant::now();
        advance_out(conn, wrote, pool);
    }
    let pending = !conn.out.is_empty();
    if !pending && conn.close_after_flush {
        return Verdict::Close;
    }
    if pending != conn.want_write {
        let interest = if pending {
            Interest::ReadWrite
        } else {
            Interest::Read
        };
        if poller
            .modify(conn.sock.raw_fd(), conn.token, interest)
            .is_err()
        {
            return Verdict::Close;
        }
        conn.want_write = pending;
    }
    Verdict::Keep
}

/// Advances the flush cursor by `wrote` bytes, retiring every message the
/// socket fully consumed.
fn advance_out(conn: &mut Conn, mut wrote: usize, pool: &BufferPool) {
    while wrote > 0 {
        let front = conn.out.front().expect("bytes written past the out-queue");
        let remaining = front.seg_len(conn.out_seg) - conn.out_off;
        if wrote < remaining {
            conn.out_off += wrote;
            return;
        }
        wrote -= remaining;
        conn.out_seg += 1;
        conn.out_off = 0;
        if conn.out_seg == front.segs.len() {
            let msg = conn.out.pop_front().expect("front message vanished");
            conn.out_seg = 0;
            retire_msg(conn, msg, pool);
        }
    }
}

/// Final best-effort flush after `stopped`: give pending out-queues (the
/// last `DrainAck`s, in-flight responses) a bounded chance to reach their
/// sockets, then close everything.
fn shutdown_flush(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    stats: &crate::telemetry::ServerStats,
    pool: &BufferPool,
) {
    let deadline = Instant::now() + SHUTDOWN_FLUSH_GRACE;
    while Instant::now() < deadline {
        let mut pending = false;
        let tokens: Vec<u64> = conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if conn.out.is_empty() {
                continue;
            }
            match flush_out(conn, poller, pool) {
                Verdict::Close => {
                    if let Some(c) = conns.remove(&token) {
                        let _ = poller.remove(c.sock.raw_fd());
                        stats.open_connections.add(-1);
                    }
                }
                Verdict::Keep => {
                    if conns.get(&token).is_some_and(|c| !c.out.is_empty()) {
                        pending = true;
                    }
                }
            }
        }
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for (_, conn) in conns.drain() {
        let _ = poller.remove(conn.sock.raw_fd());
        stats.open_connections.add(-1);
    }
}

fn wire_error_reply(e: &crate::wire::WireError) -> Message {
    Message::Error(ErrorReply {
        request_id: 0,
        code: ErrorCode::Malformed,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RequestStats;
    use crate::wire::SubmitResponse;
    use preflight_core::ImageStack;

    fn response(frames: usize) -> SubmitResponse {
        let stack = ImageStack::from_vec(
            5,
            4,
            frames,
            (0..5 * 4 * frames as u64)
                .map(|v| (v.wrapping_mul(0x9E37) % 65_536) as u16)
                .collect(),
        )
        .unwrap();
        SubmitResponse {
            request_id: 0xDEAD_BEEF_CAFE,
            stats: RequestStats {
                samples_changed: 17,
                bits_flipped: 23,
                service_us: 1234,
                ..RequestStats::default()
            },
            payload: FramePayload::U16(stack),
        }
    }

    #[test]
    fn segments_match_encode_message() {
        for frames in [1, 3, 8] {
            let resp = response(frames);
            let reference = encode_message(&Message::Response(resp.clone()));
            let msg = response_out_msg(OutMsg::default(), resp);
            let mut gathered = Vec::new();
            for i in 0..msg.segs.len() {
                gathered.extend_from_slice(msg.seg_slice(i, 0));
            }
            assert_eq!(gathered, reference, "{frames} frame(s)");
        }
    }

    #[test]
    fn advance_retires_messages_and_recycles_stacks() {
        let pool = BufferPool::detached();
        // A connection stub needs a socket; a Unix socketpair is cheapest.
        let (a, _b) = UnixStream::pair().unwrap();
        let gate = crate::queue::AdmissionGate::new(1);
        let mut conn = Conn {
            sock: Sock::Unix(a),
            token: 99,
            _permit: gate.try_acquire().unwrap(),
            state: ReadState::Head { filled: 0 },
            head: [0u8; HEAD_LEN],
            out: VecDeque::new(),
            out_seg: 0,
            out_off: 0,
            free: Vec::new(),
            want_write: false,
            last_progress: Instant::now(),
            timer_armed: false,
            close_after_flush: false,
            drain_waiter: false,
        };
        let resp = response(2);
        let total: usize = {
            let msg = response_out_msg(OutMsg::default(), resp);
            let t = (0..msg.segs.len()).map(|i| msg.seg_len(i)).sum();
            conn.out.push_back(msg);
            t
        };
        // Consume in awkward chunk sizes spanning segment boundaries.
        let mut left = total;
        for chunk in [1usize, 7, 40, usize::MAX] {
            let step = chunk.min(left);
            advance_out(&mut conn, step, &pool);
            left -= step;
            if left == 0 {
                break;
            }
        }
        assert!(conn.out.is_empty(), "message not fully retired");
        assert_eq!(conn.out_seg, 0);
        assert_eq!(conn.out_off, 0);
        assert_eq!(conn.free.len(), 1, "scratch not recycled");
        // The stack buffer made it back to the pool: the next take of the
        // same geometry is a hit.
        assert!(pool.try_take_u16(5 * 4 * 2).is_some(), "stack not pooled");
    }
}
