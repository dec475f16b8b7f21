//! # spq-server — the SpeQuloS wire protocol over TCP
//!
//! The paper deploys SpeQuloS as a set of web services that BOINC /
//! XtremWeb-HEP middleware call over the network (§3, Fig. 3). This crate
//! is that deployment seam for the reproduction: it serves the existing
//! typed protocol ([`spequlos::protocol`]) over loopback or LAN TCP using
//! nothing but `std::net`, a readiness loop (the vendored [`polling`]
//! shim: epoll on Linux, `poll(2)` elsewhere), and one I/O thread — and provides the client half,
//! [`RemoteService`], which implements [`spequlos::protocol::SpqService`]
//! so every caller written against the trait (the harness hooks, the
//! `Experiment` builder, `protocol::replay`) can swap the in-process
//! service for a remote one without code changes.
//!
//! The wire protocol is specified normatively in `PROTOCOL.md` at the
//! repository root; section references (§N) throughout this crate point
//! there. One module per layer:
//!
//! * [`frame`] — length-prefixed newline-JSON framing: `<len>\n<payload>\n`.
//!   Truncated or oversized frames are typed [`frame::FrameError`]s, never
//!   panics. A first-line hello (§2) negotiates the frame format per
//!   connection: newline-JSON (§3) or length-prefixed binary (§4). One
//!   incremental decoder per format, shared by both cores below.
//! * [`binary`] — the compact binary envelope encoding (§5), hand-rolled
//!   and dependency-free, pinned value-identical to the JSON path.
//! * [`wire`] — correlation envelopes (§6): each request frame carries an
//!   `id` and the service time `t`; the response frame echoes the `id`. A
//!   `Request::Batch` lets a client pipeline a whole monitoring tick in a
//!   single frame.
//! * [`conn`] — the sans-I/O connection core: one connection's buffers,
//!   hello phase, frame decode, reply encode, half-close drain and
//!   byte-denominated backpressure (§9), bytes in → requests → bytes out
//!   with no socket in it. The only serving-side reader, decoder and
//!   flusher in the crate.
//! * [`shard`] — the one serving engine: poll-based shard reactors, each
//!   a thread owning its connections (cores around non-blocking sockets)
//!   and its service, dispatching requests inline; with more than one
//!   shard ([`ShardedServer`]), an accept-and-route thread in front and
//!   tenant-partitioned state behind.
//! * [`server`] — [`Server`], the one-shard configuration of that engine
//!   (the shard owns the listener; no router thread).
//! * [`client`] — the other end of the wire, shaped like the serving
//!   half: [`ClientCore`], a sans-I/O core that queues the hello and
//!   request frames and reads replies through the same decoders, and
//!   [`RemoteService`], a socket around one — `handle` for
//!   request/response, `send`/`flush`/`recv` for pipelining.
//!
//! Durability composes with the request path rather than adding a
//! layer: [`Server::spawn_durable`] commits every request to a
//! write-ahead log ([`spequlos::wal`]) — written and fsynced in groups,
//! one per connection turn — *before* releasing its reply, snapshots
//! the full service state as the log outgrows the last snapshot, and on
//! startup recovers snapshot + log tail through the ordinary
//! `SpqService::handle` path — an acknowledged request survives a
//! `SIGKILL` of the whole process (see `tests/crash_recovery.rs`).
//!
//! ```no_run
//! use simcore::SimTime;
//! use spequlos::protocol::{Request, Response, SpqService};
//! use spequlos::{SpeQuloS, UserId};
//! use spq_server::{RemoteService, Server};
//!
//! let handle = Server::spawn_loopback(SpeQuloS::new())?;
//! let mut remote = RemoteService::connect(handle.addr())?;
//! let r = remote.handle(
//!     Request::Deposit { user: UserId(1), credits: 100.0 },
//!     SimTime::ZERO,
//! );
//! assert!(matches!(r, Response::Deposited { .. }));
//! drop(remote);
//! let service = handle.into_service(); // recover the state, bit-identical
//! assert_eq!(service.credits.balance(UserId(1)), 100.0);
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod client;
pub mod conn;
pub mod frame;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{ClientCore, RemoteService};
pub use frame::{write_frame, Codec, FrameError, MAX_FRAME_BYTES};
pub use server::{DurabilityConfig, DurableError, Server, ServerConfig, ServerHandle};
pub use shard::{ShardConfig, ShardedHandle, ShardedServer};
pub use wire::{RequestEnvelope, ResponseEnvelope};
