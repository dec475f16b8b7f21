//! The single-service protocol server: the one-shard configuration of
//! the engine in [`crate::shard`].
//!
//! [`Server::spawn`] starts exactly one shard thread. It owns the
//! listener, every connection (a [`crate::conn::Conn`] core around a
//! non-blocking socket) and the [`SpeQuloS`] itself, and dispatches each
//! complete request *inline* — decode → (durable stage) →
//! `service.handle` → encode — with no cross-thread handoff anywhere on
//! the request path; no router thread is started and nothing is routed.
//! Codec negotiation, ordering and backpressure are the engine's and are
//! described there; [`Server::spawn_durable`] puts the write-ahead log
//! between dispatch and the socket, so "acknowledged ⇒ durable" holds
//! per request (a connection's replies are *flushed* only after the
//! group commit that covers them returned).
//!
//! Shutdown recovers the service: [`ServerHandle::into_service`] wakes
//! the shard, which drops the listener and every connection and returns
//! the `SpeQuloS` with all the state the request stream built — how the
//! harness pins remote runs bit-identical to in-process ones.

use crate::frame::MAX_FRAME_BYTES;
use crate::shard::{self, ShardConfig, ShardedHandle, Store};
use spequlos::wal::{FsyncPolicy, RecoveryReport, WalError};
use spequlos::SpeQuloS;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;

/// Per-connection bounds; [`ServerConfig::default`] suits tests and
/// loopback experiment runs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum accepted frame payload, in bytes.
    pub max_frame_bytes: usize,
    /// Per-connection write-buffer high-water mark, in bytes
    /// (PROTOCOL.md §9). When a connection's buffered-but-unsent replies
    /// exceed this, its shard stops reading that socket until the buffer
    /// drains, letting TCP flow control push back on that one client.
    pub write_highwater: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            write_highwater: 256 * 1024,
        }
    }
}

/// Durability knobs for [`Server::spawn_durable`].
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the write-ahead log and snapshots (created if
    /// missing; reuse the same directory across restarts to recover).
    pub dir: PathBuf,
    /// When appends reach stable storage. [`FsyncPolicy::Always`] is the
    /// only setting under which an acknowledged request survives a crash.
    pub fsync: FsyncPolicy,
    /// Take a full-state snapshot at least every this many requests
    /// apart (0 disables snapshots; recovery then replays the whole
    /// log) — and no sooner than the log has grown by the last
    /// snapshot's size, so a large state is not rewritten for every few
    /// kilobytes of log.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durable defaults for `dir`: fsync in every commit, snapshots at
    /// least every 4096 requests apart.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 4096,
        }
    }
}

/// Why a durable server failed to start.
#[derive(Debug)]
pub enum DurableError {
    /// The write-ahead log could not be opened or recovery failed
    /// (corruption mid-log, snapshot/template configuration mismatch).
    Wal(WalError),
    /// Binding the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "durable server: {e}"),
            DurableError::Io(e) => write!(f, "durable server: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// Factory for protocol servers; see the [module docs](self).
pub struct Server;

impl Server {
    /// Binds `addr` and serves `service` until the returned handle shuts
    /// down. `addr` may be anything `ToSocketAddrs` accepts —
    /// `"127.0.0.1:0"` picks a free loopback port (see
    /// [`ServerHandle::addr`]).
    pub fn spawn(
        service: SpeQuloS,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::spawn_store(Store::new(service), addr, config)
    }

    /// Binds `addr` and serves a *durable* service: every request is
    /// written to the write-ahead log in `durability.dir` — and, under
    /// [`FsyncPolicy::Always`], fsynced — *before* its reply is
    /// released, so an acknowledged request survives a crash of the
    /// whole process. Records are committed in groups: everything one
    /// connection turn executed shares one `write` and one `fsync`, and
    /// no reply byte reaches a socket before the record of its request,
    /// and of every request executed before it, is on disk.
    ///
    /// If the directory already holds state from a previous run, it is
    /// recovered first — newest usable snapshot plus log-tail replay
    /// through the ordinary request path — and `template` must be a
    /// service assembled with the same builder configuration as the one
    /// that wrote it. The returned [`RecoveryReport`] says where the
    /// state came from.
    ///
    /// The log is fail-stop. When a commit fails (disk full, i/o
    /// error) the connection whose turn it was is closed with its
    /// replies unsent, the log is never written again — a write behind a
    /// partial record would turn a torn tail, which recovery truncates,
    /// into mid-file corruption, which it refuses — and every later
    /// request on any connection is answered with a typed
    /// [`spequlos::RequestError::Transport`] error and *not* dispatched:
    /// the client knows durability was not achieved. Restarting recovers
    /// exactly the committed requests. Snapshot failures are non-fatal
    /// (the log alone recovers exactly); they only cost recovery time.
    pub fn spawn_durable(
        template: SpeQuloS,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> Result<(ServerHandle, RecoveryReport), DurableError> {
        let (store, report) = Store::recover(template, &durability.dir, &durability)?;
        Ok((Self::spawn_store(store, addr, config)?, report))
    }

    /// [`Server::spawn`] on `127.0.0.1:0` with the default configuration —
    /// the loopback deployment the harness's `Transport::Loopback` mode
    /// and the integration tests use.
    pub fn spawn_loopback(service: SpeQuloS) -> io::Result<ServerHandle> {
        Server::spawn(service, "127.0.0.1:0", ServerConfig::default())
    }

    /// The engine with one shard. The service is taken as it is — a
    /// recovered or pre-loaded one included — not split from a template.
    fn spawn_store(
        store: Store,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        shard::spawn_parts(vec![store], addr, config, ShardConfig::new(1)).map(ServerHandle)
    }
}

/// A running server. Dropping the handle shuts the server down (and
/// discards the service); call [`ServerHandle::into_service`] to shut
/// down *and* recover the service state.
pub struct ServerHandle(ShardedHandle);

impl ServerHandle {
    /// The bound address — with `"127.0.0.1:0"` this carries the actual
    /// port clients must connect to.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Stops the server and returns the service with every state change
    /// the request stream produced. In-flight requests finish first;
    /// connections still open are dropped.
    pub fn into_service(self) -> SpeQuloS {
        // spq-lint: allow(panic-unwrap) — `Server` only ever starts this handle with exactly one shard
        self.0.into_services().pop().expect("one shard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientCore, RemoteService};
    use crate::frame::{self, Codec};
    use crate::shard::ShardedServer;
    use crate::wire::RequestEnvelope;
    use simcore::SimTime;
    use spequlos::protocol::{Request, RequestError, Response, SpqService};
    use spequlos::UserId;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;
    use std::thread;

    /// Writes one JSON frame to a socket the way a raw client does.
    fn send_json(w: &mut impl Write, payload: &str) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, Codec::Json, payload.as_bytes());
        w.write_all(&buf).expect("send frame");
    }

    #[test]
    fn serves_one_client_and_returns_the_state() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        let user = UserId(3);
        let r = remote.handle(
            Request::Deposit {
                user,
                credits: 250.0,
            },
            SimTime::ZERO,
        );
        assert_eq!(
            r,
            Response::Deposited {
                user,
                balance: 250.0
            }
        );
        let Response::Registered { bot } = remote.handle(
            Request::RegisterQos {
                user,
                env: "env".into(),
                size: 10,
            },
            SimTime::ZERO,
        ) else {
            panic!("registration over the wire");
        };
        drop(remote);
        let service = handle.into_service();
        assert_eq!(service.credits.balance(user), 250.0);
        assert_eq!(service.user_of(bot), Some(user));
        assert_eq!(service.log().len(), 1, "one RegisterQos logged");
    }

    #[test]
    fn serves_concurrent_clients_without_losing_requests() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
        let addr = handle.addr();
        let clients: Vec<_> = (0..8u64)
            .map(|i| {
                thread::spawn(move || {
                    let mut remote = RemoteService::connect(addr).expect("connect");
                    for k in 0..25 {
                        let r = remote.handle(
                            Request::Deposit {
                                user: UserId(i),
                                credits: 1.0,
                            },
                            SimTime::from_secs(k),
                        );
                        assert!(matches!(r, Response::Deposited { .. }), "{r:?}");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client");
        }
        let service = handle.into_service();
        for i in 0..8u64 {
            assert_eq!(service.credits.balance(UserId(i)), 25.0, "user {i}");
        }
    }

    #[test]
    fn both_codecs_drive_the_same_service() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
        let mut json = RemoteService::connect_with(handle.addr(), Codec::Json).expect("json");
        let mut bin = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("bin");
        assert_eq!(json.codec(), Codec::Json);
        assert_eq!(bin.codec(), Codec::Binary);
        let r = json.handle(
            Request::Deposit {
                user: UserId(1),
                credits: 10.0,
            },
            SimTime::ZERO,
        );
        assert!(matches!(r, Response::Deposited { balance, .. } if balance == 10.0));
        let r = bin.handle(
            Request::Deposit {
                user: UserId(1),
                credits: 5.0,
            },
            SimTime::ZERO,
        );
        assert!(
            matches!(r, Response::Deposited { balance, .. } if balance == 15.0),
            "binary connection sees state built over the JSON one: {r:?}"
        );
        drop(json);
        drop(bin);
        let service = handle.into_service();
        assert_eq!(service.credits.balance(UserId(1)), 15.0);
    }

    #[test]
    fn a_garbage_hello_is_refused_with_an_err_line() {
        // The refusal is flushed before the close on the single shard and
        // behind the router alike: both run the hello through the core.
        let single = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
        let sharded =
            ShardedServer::spawn_loopback(SpeQuloS::new(), ShardConfig::deterministic(4, 1_000))
                .expect("bind loopback");
        for addr in [single.addr(), sharded.addr()] {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            writer.write_all(b"SPQ/1 gzip\n").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).expect("refusal line");
            assert!(
                line.starts_with("SPQ/1 err"),
                "unknown codec gets a refusal, got {line:?}"
            );
            // …after which the connection closes.
            assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
        }
    }

    #[test]
    fn a_tiny_write_highwater_still_serves_a_pipelined_flood() {
        // Force the byte-denominated backpressure path (PROTOCOL.md §9):
        // with a 64-byte high-water mark, a client that pipelines 200
        // requests before reading anything must still get every reply.
        let config = ServerConfig {
            write_highwater: 64,
            ..ServerConfig::default()
        };
        let handle = Server::spawn(SpeQuloS::new(), "127.0.0.1:0", config).expect("bind loopback");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        // No hello queued: the legacy digit-first JSON start (§2.3).
        let mut core = ClientCore::new(Codec::Json);
        const N: u64 = 200;
        let mut wire = Vec::new();
        for _ in 0..N {
            let deposit = Request::Deposit {
                user: UserId(1),
                credits: 1.0,
            };
            core.queue_request(&mut wire, deposit, SimTime::ZERO);
        }
        stream.write_all(&wire).unwrap();
        for id in 0..N {
            let reply = core.read_reply(&mut stream).expect("read").expect("reply");
            assert_eq!(reply.id, id, "replies arrive in order");
        }
        drop(stream);
        let service = handle.into_service();
        assert_eq!(service.credits.balance(UserId(1)), N as f64);
    }

    #[test]
    fn malformed_payloads_get_error_replies_and_the_session_survives() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut core = ClientCore::new(Codec::Json);

        // A well-framed but non-envelope payload: the server answers with
        // a typed error (echoing the id it could recover) and keeps the
        // connection open.
        send_json(&mut stream, r#"{"id":7.0,"wat":true}"#);
        let envelope = core.read_reply(&mut stream).expect("read").expect("reply");
        assert_eq!(envelope.id, 7);
        assert!(matches!(
            envelope.response,
            Response::Error(RequestError::Invalid(_))
        ));

        // …and a valid request on the same connection still works.
        let env = RequestEnvelope {
            id: 8,
            at: SimTime::ZERO,
            request: Request::Deposit {
                user: UserId(1),
                credits: 5.0,
            },
        };
        send_json(&mut stream, &env.to_json());
        let envelope = core.read_reply(&mut stream).expect("read").expect("reply");
        assert_eq!(envelope.id, 8);
        assert!(matches!(envelope.response, Response::Deposited { .. }));
    }

    #[test]
    fn a_broken_frame_drops_only_that_connection() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");

        // Feed bytes that violate the framing itself.
        let mut vandal = TcpStream::connect(handle.addr()).expect("connect");
        vandal.write_all(b"not a frame at all\n").unwrap();
        vandal.flush().unwrap();

        // The server stays up for everyone else.
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        let r = remote.handle(
            Request::Deposit {
                user: UserId(1),
                credits: 1.0,
            },
            SimTime::ZERO,
        );
        assert!(matches!(r, Response::Deposited { .. }));
    }

    #[test]
    fn dropping_the_handle_shuts_the_server_down() {
        let handle = Server::spawn_loopback(SpeQuloS::new()).expect("bind loopback");
        let addr = handle.addr();
        drop(handle);
        // The listener is gone: new connections are refused (or, at
        // worst, accepted by nothing and immediately closed).
        let outcome = TcpStream::connect(addr);
        if let Ok(mut stream) = outcome {
            assert!(matches!(
                ClientCore::new(Codec::Json).read_reply(&mut stream),
                Ok(None) | Err(_)
            ));
        }
    }

    /// A binary frame carries a float's exact bits, NaN and infinities
    /// included. The service refuses such a deposit, but its record is
    /// written first — and a record that cannot be read back would keep
    /// the server from ever starting on its directory again.
    #[test]
    fn a_non_finite_binary_request_does_not_stop_a_durable_restart() {
        let dir = std::env::temp_dir().join(format!("spq-server-nonfinite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spawn = || {
            let durability = DurabilityConfig::new(&dir);
            Server::spawn_durable(
                SpeQuloS::new(),
                "127.0.0.1:0",
                ServerConfig::default(),
                durability,
            )
        };
        let user = UserId(3);
        let deposit = |credits: f64| Request::Deposit { user, credits };
        let (handle, _) = spawn().expect("first start");
        let mut bin = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("bin");
        for credits in [5.0, f64::NAN, f64::INFINITY] {
            let r = bin.handle(deposit(credits), SimTime::ZERO);
            assert_eq!(
                matches!(r, Response::Error(_)),
                !credits.is_finite(),
                "{r:?}"
            );
        }
        drop(bin);
        drop(handle);

        let (handle, report) = spawn().expect("the log is readable: the server starts again");
        assert_eq!(report.replayed, 3);
        let mut bin = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("bin");
        let r = bin.handle(deposit(2.0), SimTime::ZERO);
        assert_eq!(r, Response::Deposited { user, balance: 7.0 });
        drop(bin);
        drop(handle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
