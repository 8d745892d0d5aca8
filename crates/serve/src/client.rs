//! Blocking client for the `preflightd` wire protocol.
//!
//! One [`Client`] owns one connection (TCP or Unix) and speaks the
//! length-prefixed envelope format from [`crate::wire`]. The common path is
//! [`Client::submit`]: send a frame stack, block for the repaired stack and
//! its telemetry trailer. [`Client::send_submit`]/[`Client::recv_response`]
//! split that round trip for callers that want several requests in flight
//! on one connection.

use crate::wire::{
    read_message, write_message, BusyReply, DrainSummary, ErrorReply, FramePayload, Message,
    SubmitRequest, SubmitResponse, WireError,
};
use preflight_obs::Snapshot;
use preflight_supervisor::RetryPolicy;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// Malformed or unexpected bytes on the wire.
    Wire(WireError),
    /// The server's bounded queue was full; retry later.
    Busy(BusyReply),
    /// The server refused or failed the request.
    Server(ErrorReply),
    /// A reply arrived that does not answer what was asked.
    Unexpected {
        /// What the call was waiting for (e.g. `"Response/Busy/Error"`).
        wanted: &'static str,
        /// What actually arrived, so protocol drift is diagnosable from
        /// the error alone.
        got: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Busy(b) => write!(
                f,
                "server busy: {}/{} requests in flight",
                b.in_flight, b.capacity
            ),
            ClientError::Server(e) => write!(f, "server error ({:?}): {}", e.code, e.message),
            ClientError::Unexpected { wanted, got } => {
                write!(f, "unexpected reply: wanted {wanted}, got {got}")
            }
        }
    }
}

/// Short description of a message for [`ClientError::Unexpected`]: the
/// variant name plus the identifying field that pins down *which* exchange
/// the stray reply belonged to.
fn describe(msg: &Message) -> String {
    match msg {
        Message::Submit(s) => format!("Submit(request {})", s.request_id),
        Message::Response(r) => format!("Response(request {})", r.request_id),
        Message::Busy(b) => format!("Busy(request {})", b.request_id),
        Message::Error(e) => format!("Error(request {}, {:?})", e.request_id, e.code),
        Message::Drain => "Drain".to_owned(),
        Message::DrainAck(_) => "DrainAck".to_owned(),
        Message::Ping(t) => format!("Ping({t})"),
        Message::Pong(t) => format!("Pong({t})"),
        Message::StatsRequest => "StatsRequest".to_owned(),
        Message::StatsReply(_) => "StatsReply".to_owned(),
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Per-request knobs with paper-faithful defaults (Λ=80, Υ=4).
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Telemetry-stream identity; frames batch only within a stream.
    pub stream_id: u64,
    /// Sensitivity Λ in percent (0..=100).
    pub lambda: u8,
    /// Temporal window depth Υ (even, 2..=16).
    pub upsilon: u8,
    /// End-of-stream: forces the batch containing this request to flush
    /// immediately, so the reply covers exactly the submitted frames.
    pub eos: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            stream_id: 0,
            lambda: 80,
            upsilon: 4,
            eos: true,
        }
    }
}

enum Transport {
    Tcp(TcpStream),
    Unix(std::os::unix::net::UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// A blocking connection to a `preflightd` daemon.
///
/// Build one with [`crate::builder::ClientBuilder`], which also carries
/// connect/IO timeouts, a default retry policy, and a default stream id.
pub struct Client {
    transport: Transport,
    next_request_id: u64,
    /// Builder-configured policy [`Client::submit`] applies to `Busy`
    /// rejections. `None` (the default) fails fast.
    pub(crate) retry: Option<RetryPolicy>,
    /// Builder-configured stream id for [`Client::default_options`].
    pub(crate) default_stream: u64,
}

impl Client {
    pub(crate) fn from_tcp(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true)?;
        Ok(Client {
            transport: Transport::Tcp(stream),
            next_request_id: 1,
            retry: None,
            default_stream: 0,
        })
    }

    pub(crate) fn from_unix(stream: std::os::unix::net::UnixStream) -> Result<Self, ClientError> {
        Ok(Client {
            transport: Transport::Unix(stream),
            next_request_id: 1,
            retry: None,
            default_stream: 0,
        })
    }

    /// [`SubmitOptions`] preloaded with this client's builder-configured
    /// stream id (paper-faithful Λ/Υ defaults otherwise).
    pub fn default_options(&self) -> SubmitOptions {
        SubmitOptions {
            stream_id: self.default_stream,
            ..SubmitOptions::default()
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Round-trips a ping token.
    ///
    /// # Errors
    /// Fails on transport problems or a non-`Pong` reply.
    pub fn ping(&mut self, token: u64) -> Result<u64, ClientError> {
        write_message(&mut self.transport, &Message::Ping(token))?;
        match read_message(&mut self.transport)? {
            Message::Pong(t) => Ok(t),
            other => Err(ClientError::Unexpected {
                wanted: "Pong",
                got: describe(&other),
            }),
        }
    }

    /// Sends a submit without waiting for its reply. Returns the request id
    /// to match against [`Client::recv_response`].
    ///
    /// # Errors
    /// Fails on transport problems.
    pub fn send_submit(
        &mut self,
        payload: FramePayload,
        opts: &SubmitOptions,
    ) -> Result<u64, ClientError> {
        let request_id = self.fresh_id();
        let request = SubmitRequest {
            request_id,
            stream_id: opts.stream_id,
            lambda: opts.lambda,
            upsilon: opts.upsilon,
            eos: opts.eos,
            payload,
        };
        write_message(&mut self.transport, &Message::Submit(request))?;
        Ok(request_id)
    }

    /// Blocks for the next reply to an outstanding submit. `Busy` and
    /// server-error replies surface as [`ClientError`] variants carrying
    /// the rejected request's id.
    ///
    /// # Errors
    /// Fails on transport problems, rejection replies, or protocol
    /// violations.
    pub fn recv_response(&mut self) -> Result<SubmitResponse, ClientError> {
        match read_message(&mut self.transport)? {
            Message::Response(r) => Ok(r),
            Message::Busy(b) => Err(ClientError::Busy(b)),
            Message::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected {
                wanted: "Response/Busy/Error",
                got: describe(&other),
            }),
        }
    }

    /// Submits a frame stack and blocks for the repaired stack plus its
    /// telemetry trailer.
    ///
    /// A builder-configured retry policy
    /// ([`crate::builder::ClientBuilder::retry`]) is applied to `Busy`
    /// rejections here; without one (the default) `Busy` fails fast.
    ///
    /// # Errors
    /// Fails on transport problems, `Busy` rejection, or server errors.
    pub fn submit(
        &mut self,
        payload: FramePayload,
        opts: &SubmitOptions,
    ) -> Result<SubmitResponse, ClientError> {
        match self.retry {
            Some(policy) => self.submit_retrying(payload, opts, &policy),
            None => self.submit_once(payload, opts),
        }
    }

    fn submit_once(
        &mut self,
        payload: FramePayload,
        opts: &SubmitOptions,
    ) -> Result<SubmitResponse, ClientError> {
        let request_id = self.send_submit(payload, opts)?;
        let response = self.recv_response()?;
        if response.request_id != request_id {
            return Err(ClientError::Unexpected {
                wanted: "Response for the submitted request",
                got: format!("Response(request {})", response.request_id),
            });
        }
        Ok(response)
    }

    /// [`Client::submit`] with bounded, jittered retry on `Busy`
    /// rejections: attempt `k` sleeps `policy.backoff(stream_id, k)`
    /// before resubmitting, up to `policy.max_retries` retries. Every
    /// other error — transport, wire, server — still fails fast; only
    /// explicit backpressure is worth waiting out. The retries consumed
    /// are surfaced in the response's [`crate::telemetry::RequestStats::net_retries`]
    /// trailer field.
    ///
    /// # Errors
    /// Fails on transport problems, server errors, or `Busy` rejection on
    /// the final permitted attempt.
    pub fn submit_with_retry(
        &mut self,
        payload: FramePayload,
        opts: &SubmitOptions,
        policy: &RetryPolicy,
    ) -> Result<SubmitResponse, ClientError> {
        self.submit_retrying(payload, opts, policy)
    }

    fn submit_retrying(
        &mut self,
        payload: FramePayload,
        opts: &SubmitOptions,
        policy: &RetryPolicy,
    ) -> Result<SubmitResponse, ClientError> {
        let mut retries = 0u32;
        loop {
            match self.submit_once(payload.clone(), opts) {
                Ok(mut response) => {
                    response.stats.net_retries = response.stats.net_retries.saturating_add(retries);
                    return Ok(response);
                }
                Err(ClientError::Busy(b)) => {
                    if retries >= policy.max_retries {
                        return Err(ClientError::Busy(b));
                    }
                    retries += 1;
                    std::thread::sleep(policy.backoff(opts.stream_id, retries));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the daemon's metrics registry: the same point-in-time
    /// snapshot the `/metrics` scrape endpoint renders.
    ///
    /// # Errors
    /// Fails on transport problems or a non-`StatsReply` reply.
    pub fn stats(&mut self) -> Result<Snapshot, ClientError> {
        write_message(&mut self.transport, &Message::StatsRequest)?;
        match read_message(&mut self.transport)? {
            Message::StatsReply(snap) => Ok(snap),
            other => Err(ClientError::Unexpected {
                wanted: "StatsReply",
                got: describe(&other),
            }),
        }
    }

    /// Asks the daemon to drain: finish in-flight work, refuse new work,
    /// and acknowledge with completion counters.
    ///
    /// # Errors
    /// Fails on transport problems or a non-`DrainAck` reply.
    pub fn drain(&mut self) -> Result<DrainSummary, ClientError> {
        write_message(&mut self.transport, &Message::Drain)?;
        match read_message(&mut self.transport)? {
            Message::DrainAck(s) => Ok(s),
            other => Err(ClientError::Unexpected {
                wanted: "DrainAck",
                got: describe(&other),
            }),
        }
    }
}
