//! Fluent builders for the daemon and its client — the serve-side mirror
//! of the `core::Preprocessor` idiom.
//!
//! PR 3 grew the server a positional [`ServerConfig`] and the client a
//! pair of ad-hoc constructors; every new knob (auto-tuning, kernels,
//! metrics listeners, retry policies) made call sites heavier. These
//! builders are now the front door:
//!
//! ```no_run
//! use preflight_serve::{ClientBuilder, ServerBuilder};
//!
//! let server = ServerBuilder::new()
//!     .bind("127.0.0.1:0")
//!     .max_conns(10_240)
//!     .queue_depth(64)
//!     .auto_tune(true)
//!     .serve()?;
//!
//! let mut client = ClientBuilder::new()
//!     .tcp(server.tcp_addr().unwrap())
//!     .io_timeout(std::time::Duration::from_secs(30))
//!     .stream(7)
//!     .connect()?;
//! let token = client.ping(1)?;
//! # assert_eq!(token, 1);
//! # server.drain();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batcher::BatchConfig;
use crate::client::{Client, ClientError};
use crate::engine::EngineConfig;
use crate::server::{ServerConfig, ServerHandle};
use preflight_core::Kernel;
use preflight_obs::Obs;
use preflight_supervisor::RetryPolicy;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

/// Configures and starts a `preflightd` daemon.
///
/// Defaults mirror [`ServerConfig::default`]: queue depth 64, connection
/// cap 10 240, adaptive batching, two engine workers, live observability.
#[derive(Debug, Clone, Default)]
#[must_use = "a ServerBuilder does nothing until .serve() is called"]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl ServerBuilder {
    /// A builder with the default configuration and no sockets yet; add at
    /// least one of [`bind`](Self::bind) / [`unix`](Self::unix).
    pub fn new() -> Self {
        ServerBuilder::default()
    }

    /// Listens on a TCP address (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port).
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.config.tcp = Some(addr.into());
        self
    }

    /// Listens on a Unix socket path.
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.unix = Some(path.into());
        self
    }

    /// Bounded-queue capacity: in-flight requests beyond this get `Busy`.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.capacity = depth;
        self
    }

    /// Ceiling on concurrent connections: accepts beyond this are answered
    /// with `Busy` and closed.
    pub fn max_conns(mut self, cap: usize) -> Self {
        self.config.max_connections = cap;
        self
    }

    /// Replaces the batching knobs wholesale.
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.config.batch = batch;
        self
    }

    /// Replaces the engine knobs wholesale (threads, kernel, supervision,
    /// tuners).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// The voter kernel every batch runs with.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.config.engine.kernel = kernel;
        self
    }

    /// Upper bound on engine threads per batch; the process core budget
    /// grants fewer while other runs hold cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.engine.threads = threads;
        self
    }

    /// Parallel engine workers (batches in flight at once).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.engine_workers = workers;
        self
    }

    /// Event-loop shards (poll threads, each with its own listener and
    /// connections). `0` means auto: `min(4, available cores)`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Enables the per-stream Λ/Υ auto-tuner.
    pub fn auto_tune(mut self, on: bool) -> Self {
        self.config.auto_tune = on;
        self
    }

    /// Serves Prometheus `/metrics` on a second TCP listener.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.metrics_addr = Some(addr.into());
        self
    }

    /// The observability registry every daemon thread records into.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.config.obs = obs;
        self
    }

    /// The [`ServerConfig`] this builder has accumulated, for callers that
    /// want to inspect or store it.
    pub fn into_config(self) -> ServerConfig {
        self.config
    }

    /// Binds the sockets and starts the daemon threads.
    ///
    /// # Errors
    /// Fails if no socket was configured or a bind fails.
    pub fn serve(self) -> std::io::Result<ServerHandle> {
        crate::server::start_config(self.config)
    }
}

impl From<ServerConfig> for ServerBuilder {
    fn from(config: ServerConfig) -> Self {
        ServerBuilder { config }
    }
}

/// Where a [`ClientBuilder`] connects.
#[derive(Debug, Clone)]
enum Target {
    Tcp(String),
    Unix(PathBuf),
}

/// Configures and opens a blocking [`Client`] connection.
#[derive(Debug, Clone, Default)]
#[must_use = "a ClientBuilder does nothing until .connect() is called"]
pub struct ClientBuilder {
    target: Option<Target>,
    connect_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
    stream: u64,
}

impl ClientBuilder {
    /// A builder with no target yet; add [`tcp`](Self::tcp) or
    /// [`unix`](Self::unix).
    pub fn new() -> Self {
        ClientBuilder::default()
    }

    /// Connects over TCP. Any `Display`-able address works (a
    /// `SocketAddr`, `"host:port"`, …); resolution happens at
    /// [`connect`](Self::connect).
    pub fn tcp(mut self, addr: impl ToString) -> Self {
        self.target = Some(Target::Tcp(addr.to_string()));
        self
    }

    /// Connects over a Unix socket.
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.target = Some(Target::Unix(path.into()));
        self
    }

    /// Bounds the TCP connection establishment (ignored for Unix sockets,
    /// where connect cannot block meaningfully).
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Bounds every read and write on the open connection, so a hung
    /// daemon surfaces as [`ClientError::Io`] instead of blocking forever.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Retry policy [`Client::submit`] applies to `Busy` rejections
    /// (jittered exponential backoff). Without one, `Busy` fails fast.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Default stream id for [`Client::default_options`]; frames batch
    /// only within a stream.
    pub fn stream(mut self, stream_id: u64) -> Self {
        self.stream = stream_id;
        self
    }

    /// Opens the connection.
    ///
    /// # Errors
    /// Fails if no target was configured, resolution fails, the connection
    /// is refused, or a timeout could not be applied.
    pub fn connect(self) -> Result<Client, ClientError> {
        let no_target = || {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "client needs a target: call .tcp(addr) or .unix(path) first",
            ))
        };
        let mut client = match self.target.as_ref().ok_or_else(no_target)? {
            Target::Tcp(addr) => {
                let stream = match self.connect_timeout {
                    Some(timeout) => {
                        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                            ClientError::Io(std::io::Error::new(
                                std::io::ErrorKind::AddrNotAvailable,
                                format!("address resolved to nothing: {addr}"),
                            ))
                        })?;
                        TcpStream::connect_timeout(&resolved, timeout)?
                    }
                    None => TcpStream::connect(addr.as_str())?,
                };
                if let Some(t) = self.io_timeout {
                    stream.set_read_timeout(Some(t))?;
                    stream.set_write_timeout(Some(t))?;
                }
                Client::from_tcp(stream)?
            }
            Target::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path)?;
                if let Some(t) = self.io_timeout {
                    stream.set_read_timeout(Some(t))?;
                    stream.set_write_timeout(Some(t))?;
                }
                Client::from_unix(stream)?
            }
        };
        client.retry = self.retry;
        client.default_stream = self.stream;
        Ok(client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_builder_accumulates_config() {
        let config = ServerBuilder::new()
            .bind("127.0.0.1:0")
            .unix("/tmp/x.sock")
            .queue_depth(7)
            .max_conns(99)
            .workers(3)
            .shards(2)
            .threads(2)
            .auto_tune(true)
            .metrics_addr("127.0.0.1:0")
            .into_config();
        assert_eq!(config.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            config.unix.as_deref(),
            Some(std::path::Path::new("/tmp/x.sock"))
        );
        assert_eq!(config.capacity, 7);
        assert_eq!(config.max_connections, 99);
        assert_eq!(config.engine_workers, 3);
        assert_eq!(config.shards, 2);
        assert_eq!(config.effective_shards(), 2);
        assert_eq!(config.engine.threads, 2);
        assert!(config.auto_tune);
        assert!(config.metrics_addr.is_some());
    }

    #[test]
    fn defaults_are_ten_k_scale() {
        let config = ServerBuilder::new().into_config();
        assert_eq!(config.max_connections, 10_240, "the 10k-scale default");
        assert_eq!(config.capacity, 64);
    }

    #[test]
    fn client_builder_without_target_fails_cleanly() {
        match ClientBuilder::new().connect() {
            Err(ClientError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
            }
            Err(other) => panic!("wanted Io(InvalidInput), got {other}"),
            Ok(_) => panic!("connect without a target must fail"),
        }
    }

    #[test]
    fn client_builder_io_timeout_bounds_a_silent_peer() {
        // A listener that accepts but never answers: a ping against it
        // must fail within the IO timeout instead of blocking forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let silent = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

        let started = std::time::Instant::now();
        let mut client = ClientBuilder::new()
            .tcp(addr)
            .connect_timeout(Duration::from_secs(5))
            .io_timeout(Duration::from_millis(100))
            .connect()
            .expect("local connect");
        let result = client.ping(1);
        assert!(result.is_err(), "a silent peer cannot answer a ping");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the IO timeout must bound the read"
        );
        drop(client);
        let _ = silent.join();
    }
}
