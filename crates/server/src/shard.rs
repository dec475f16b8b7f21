//! The serving engine: shard reactors around one connection core, with
//! an accept-and-route thread in front when there is more than one.
//!
//! A *shard* is one thread that owns one [`SpeQuloS`] (plus its
//! write-ahead log, when durable) and a set of connections. It parks in
//! the vendored [`polling`] shim (epoll on Linux) until a socket is ready,
//! lets the connection's [`Conn`] core move bytes and decode frames, and
//! executes each request *inline* — decode → (durable stage) →
//! `service.handle` → encode, then one group commit before the turn's
//! replies are flushed — with no cross-thread hop on the steady-state
//! request path. Everything a connection does with bytes
//! lives in [`crate::conn`]; this module is event loops and execution.
//!
//! **One shard** is [`crate::Server`]: the shard owns the listener and
//! accepts straight into the core's hello phase. There is no router
//! thread, no routing, and none of the cross-shard machinery below is
//! ever constructed.
//!
//! **N > 1 shards** ([`ShardedServer`]) partition the service by tenant
//! so tenant count can scale past one core. Tenant keys map to shards
//! with no routing table (see [`spequlos::tenancy`]):
//!
//! * user-keyed requests (`Deposit`, `RegisterQos`) hash the user id
//!   ([`spequlos::tenancy::shard_of_user`], a fixed SplitMix64 finalizer);
//! * bot-keyed requests route by residue ([`spequlos::tenancy::shard_of_bot`], exact
//!   because shard `i` allocates BoT ids `i, i+N, i+2N, …` — the
//!   [`SpeQuloSBuilder::shard`](spequlos::SpeQuloSBuilder::shard)
//!   stride), and the shard that owns a user registers its bots, so a
//!   tenant's whole session lands on one shard.
//!
//! The router accepts each connection into the *same* core, drives it
//! through the hello exchange and its first complete request, and hands
//! the core — socket, negotiated codec, buffered bytes — plus that
//! decoded request to the owning shard over a bounded mailbox. From
//! then on that shard owns the socket and serves it inline.
//!
//! A *mixed-tenant* connection (the harness's admin connection, a
//! multiplexing proxy) may carry requests for other shards. Those are
//! forwarded to the owning shard over its inbox and the reply returns
//! through the origin shard's inbox; a per-connection reply ledger
//! releases replies strictly in request order, so the protocol's
//! per-connection FIFO guarantee survives interleaved local and
//! forwarded requests.
//!
//! # Ordering and backpressure
//!
//! FIFO per connection (frames are decoded and served in arrival order
//! from the connection's read buffer); per shard, global order = the
//! order the shard drains readiness events; a `Request::Batch` is served
//! atomically because `service.handle` sees it as one request (one that
//! spans shards is refused, [`spequlos::tenancy::route_atomic`]).
//! Backpressure is per-connection and byte-denominated (PROTOCOL.md §9):
//! past [`ServerConfig::write_highwater`] unsent reply bytes the core
//! stops reading *that* socket — kernel buffers fill, TCP flow control
//! pushes back on that client — while every other connection proceeds.
//!
//! # The pool under sharding
//!
//! The shared `CloudPool` becomes per-shard quotas behind
//! [`spequlos::tenancy::PoolLedger`]: each shard's pool capacity *is* its lease quota,
//! synced before every admission decision
//! ([`spequlos::tenancy::ShardQuota`]). A rebalancer — a wall-clock
//! background thread ([`ShardConfig::rebalance_interval`]) or a
//! deterministic every-K-requests trigger
//! ([`ShardConfig::rebalance_every`]) — moves slack quota toward the
//! shards holding the most outstanding QoS credits, never below the
//! floor and never below what a shard already leased, so PR 2's
//! credit-conservation and no-starvation invariants hold globally.
//!
//! # Determinism caveat
//!
//! Results are pinned **per shard count**: admission and fair-share
//! arbitration see per-shard quotas, so an `N`-shard run is
//! deterministic (same seed ⇒ same bytes) but is *not* the single-shard
//! run — changing `N` changes which orders are admitted when.

use crate::conn::{Conn, Dead, Decoded};
use crate::server::{DurabilityConfig, DurableError, ServerConfig};
use crate::wire::{RequestEnvelope, ResponseEnvelope};
use polling::{Event, Poller};
use spequlos::protocol::{RequestError, Response, SpqService};
use spequlos::tenancy::{route_atomic, route_request, ShardQuota};
use spequlos::wal::{RecoveryReport, WalError, WalStore};
use spequlos::SpeQuloS;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Sharding knobs for [`ShardedServer`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (≥ 1). One shard is a valid degenerate
    /// deployment: no router, the same engine configuration as
    /// `Server::spawn`.
    pub shards: u32,
    /// Depth of the bounded connection-handoff mailbox from the router
    /// to each shard. The router blocks when a shard's mailbox is full
    /// — accept backpressure, not drop.
    pub mailbox_depth: usize,
    /// Minimum pool quota every shard keeps through rebalancing (the
    /// global no-starvation floor). Clamped to `capacity / shards`.
    pub quota_floor: u32,
    /// Wall-clock rebalancing cadence for the background thread, or
    /// `None` for no background rebalancer.
    pub rebalance_interval: Option<Duration>,
    /// Deterministic rebalancing: run a ledger pass after every this
    /// many handled requests (counted across all shards). This is the
    /// trigger tests and experiments use — with a serial driver it
    /// fires at exactly the same points every run.
    pub rebalance_every: Option<u64>,
}

impl ShardConfig {
    /// `shards`-way sharding with production defaults: 256-deep handoff
    /// mailboxes, quota floor 1, background rebalance every 100 ms.
    pub fn new(shards: u32) -> Self {
        ShardConfig {
            shards: shards.max(1),
            mailbox_depth: 256,
            quota_floor: 1,
            rebalance_interval: Some(Duration::from_millis(100)),
            rebalance_every: None,
        }
    }

    /// Deterministic variant: no wall-clock rebalancer; a ledger pass
    /// after every `every` handled requests instead.
    pub fn deterministic(shards: u32, every: u64) -> Self {
        ShardConfig {
            rebalance_interval: None,
            rebalance_every: Some(every.max(1)),
            ..Self::new(shards)
        }
    }

    fn split(&self, template: SpeQuloS) -> Vec<(SpeQuloS, Option<ShardQuota>)> {
        ShardQuota::split(
            template,
            self.shards,
            self.quota_floor,
            self.rebalance_every,
        )
    }
}

// ---------------------------------------------------------------------------
// The execute step: what one shard runs requests against
// ---------------------------------------------------------------------------

/// A shard's write-ahead log and snapshot bookkeeping.
struct Durable {
    wal: WalStore,
    snapshot_every: u64,
    since_snapshot: u64,
}

/// Everything behind one shard's request path: the service, its pool
/// quota (sharded pooled deployments) and its write-ahead log (durable
/// deployments).
pub(crate) struct Store {
    service: SpeQuloS,
    quota: Option<ShardQuota>,
    durable: Option<Durable>,
}

impl Store {
    pub(crate) fn new(service: SpeQuloS) -> Store {
        Store {
            service,
            quota: None,
            durable: None,
        }
    }

    /// Opens the write-ahead log in `dir` and recovers whatever state a
    /// previous run left there into `template`.
    pub(crate) fn recover(
        template: SpeQuloS,
        dir: &Path,
        durability: &DurabilityConfig,
    ) -> Result<(Store, RecoveryReport), DurableError> {
        let (wal, recovery) = WalStore::open(dir, durability.fsync)?;
        let (service, report) = recovery.recover(template)?;
        let mut store = Store::new(service);
        store.durable = Some(Durable {
            wal,
            snapshot_every: durability.snapshot_every,
            since_snapshot: 0,
        });
        Ok((store, report))
    }

    /// The request path: stage the record, handle (through the pool
    /// quota when there is one). The reply must not leave this shard
    /// before [`Store::commit`].
    fn execute(&mut self, envelope: RequestEnvelope) -> ResponseEnvelope {
        let RequestEnvelope { id, at, request } = envelope;
        // Write-ahead: the record is staged before the state changes,
        // so the log's order is the dispatch order. A batch is one
        // record — atomic in the log exactly as it is atomic in dispatch.
        if let Some(d) = self.durable.as_mut() {
            if let Err(e) = d.wal.stage(at, &request) {
                return wal_refusal(id, &e); // not logged ⇒ not dispatched
            }
            d.since_snapshot += 1;
        }
        let response = match self.quota.as_ref() {
            None => self.service.handle(request, at),
            Some(quota) => quota.handle(&mut self.service, request, at),
        };
        ResponseEnvelope { id, response }
    }

    /// Group commit: one write — one fsync, under `FsyncPolicy::Always`
    /// — for every record staged since the last one. Until it returns
    /// `Ok`, no reply to any of those requests may reach a socket or
    /// another shard. A failure is final: the log is closed and every
    /// later request is refused (fail-stop, see `WalStore::commit`).
    fn commit(&mut self) -> Result<(), WalError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        d.wal.commit()?;
        // The service now reflects exactly the committed records, so a
        // snapshot's `applied` count is truthful. At least
        // `snapshot_every` requests apart, and only once the log's tail
        // outweighs the last snapshot: total snapshot work stays linear
        // in the log. Failure is non-fatal — the log alone recovers
        // exactly — and retried a period later, not on every commit.
        if d.snapshot_every > 0
            && d.since_snapshot >= d.snapshot_every
            && d.wal.tail_outweighs_snapshot()
        {
            let _ = d.wal.snapshot(&self.service);
            d.since_snapshot = 0;
        }
        Ok(())
    }
}

/// The typed answer to a request the write-ahead log could not take.
fn wal_refusal(id: u64, e: &WalError) -> ResponseEnvelope {
    let response = Response::Error(RequestError::Transport(format!(
        "write-ahead log append failed: {e}"
    )));
    ResponseEnvelope { id, response }
}

// ---------------------------------------------------------------------------
// Spawning and the handle
// ---------------------------------------------------------------------------

/// Factory for sharded protocol servers; see the [module docs](self).
pub struct ShardedServer;

impl ShardedServer {
    /// Binds `addr` and serves `template` split into
    /// [`ShardConfig::shards`] shard services (see
    /// [`SpeQuloS::into_shards`]): shard `i` owns BoT ids `≡ i (mod N)`
    /// and, when the template has a pool, a lease on the shared
    /// capacity.
    pub fn spawn_sharded(
        template: SpeQuloS,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        shard_cfg: ShardConfig,
    ) -> io::Result<ShardedHandle> {
        let stores = shard_cfg
            .split(template)
            .into_iter()
            .map(|(service, quota)| Store {
                quota,
                ..Store::new(service)
            })
            .collect();
        spawn_parts(stores, addr, config, shard_cfg)
    }

    /// [`ShardedServer::spawn_sharded`] with per-shard durability:
    /// shard `i` owns the write-ahead log in `durability.dir/shard-<i>`
    /// and commits each request it executes *before* releasing its
    /// reply — stage→dispatch→commit→release, shard-locally, forwarded
    /// requests included. Existing state is
    /// recovered first, all shards in parallel; the reports come back
    /// in shard order.
    pub fn spawn_durable_sharded(
        template: SpeQuloS,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        shard_cfg: ShardConfig,
        durability: DurabilityConfig,
    ) -> Result<(ShardedHandle, Vec<RecoveryReport>), DurableError> {
        // Parallel per-shard recovery: each shard's log replays into its
        // own template concurrently, so restart cost is the *slowest*
        // shard, not the sum.
        let recovered = thread::scope(|scope| {
            let handles: Vec<_> = shard_cfg
                .split(template)
                .into_iter()
                .enumerate()
                .map(|(i, (service, quota))| {
                    let dir = durability.dir.join(format!("shard-{i}"));
                    let durability = &durability;
                    scope.spawn(move || {
                        let (mut store, report) = Store::recover(service, &dir, durability)?;
                        // Publish the recovered load before any traffic,
                        // so the first rebalance pass pins quotas at what
                        // the shards actually lease.
                        if let Some(quota) = quota.as_ref() {
                            quota.publish(&store.service);
                        }
                        store.quota = quota;
                        Ok((store, report))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<Vec<_>, DurableError>>()
        })?;
        let (stores, reports) = recovered.into_iter().unzip();
        Ok((spawn_parts(stores, addr, config, shard_cfg)?, reports))
    }

    /// [`ShardedServer::spawn_sharded`] on `127.0.0.1:0` with default
    /// server tuning — the loopback deployment tests use.
    pub fn spawn_loopback(template: SpeQuloS, shard_cfg: ShardConfig) -> io::Result<ShardedHandle> {
        Self::spawn_sharded(template, "127.0.0.1:0", ServerConfig::default(), shard_cfg)
    }
}

/// Binds `addr` and starts one shard thread per store — plus, with more
/// than one, the router thread and the cross-shard links, and (pooled,
/// [`ShardConfig::rebalance_interval`] set) the wall-clock rebalancer.
/// Every entry point of the crate ends here.
pub(crate) fn spawn_parts(
    stores: Vec<Store>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    shard_cfg: ShardConfig,
) -> io::Result<ShardedHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Everything fallible happens before the first thread starts, so an
    // error here leaves nothing running.
    let sharded = stores.len() > 1;
    let mut pollers = Vec::with_capacity(stores.len() + 1);
    for _ in 0..stores.len() + usize::from(sharded) {
        pollers.push(Arc::new(Poller::new()?));
    }
    // The last poller is the router's, or the only shard's own.
    let accept_poller = Arc::clone(&pollers[pollers.len() - 1]);
    accept_poller.add(&listener, Event::readable(LISTENER_KEY))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut helpers = Vec::new();
    let ledger = stores[0].quota.as_ref().map(|q| q.ledger().clone());
    if let (Some(ledger), Some(interval), true) = (ledger, shard_cfg.rebalance_interval, sharded) {
        let flag = Arc::clone(&shutdown);
        helpers.push(thread::spawn(move || {
            let step = interval.clamp(Duration::from_millis(1), Duration::from_millis(50));
            let mut last = Instant::now();
            while !flag.load(Ordering::Acquire) {
                thread::sleep(step);
                if last.elapsed() >= interval {
                    ledger.rebalance();
                    last = Instant::now();
                }
            }
        }));
    }
    let (mut shard_listener, mut meshes) = (None, Vec::new());
    if !sharded {
        shard_listener = Some(listener);
    } else {
        let (links, adopts): (Vec<_>, Vec<_>) = pollers[..stores.len()]
            .iter()
            .map(|poller| {
                let (adopt, rx) = mpsc::sync_channel::<Handoff>(shard_cfg.mailbox_depth.max(1));
                let inbox = Arc::new(Mutex::new(VecDeque::new()));
                let poller = Arc::clone(poller);
                (
                    ShardLink {
                        adopt,
                        inbox,
                        poller,
                    },
                    rx,
                )
            })
            .unzip();
        let links = Arc::new(links);
        meshes.extend(adopts.into_iter().enumerate().map(|(i, adopt)| Mesh {
            id: i as u32,
            adopt,
            links: Arc::clone(&links),
        }));
        let router = Router {
            poller: accept_poller,
            acceptor: Acceptor::new(listener),
            links,
            pending: Slots::default(),
            config,
        };
        let flag = Arc::clone(&shutdown);
        helpers.push(thread::spawn(move || router.run(&flag)));
    }
    let mut meshes = meshes.into_iter();
    let shards = stores
        .into_iter()
        .zip(&pollers)
        .map(|(store, poller)| {
            let shard = Shard {
                poller: Arc::clone(poller),
                acceptor: shard_listener.take().map(Acceptor::new),
                mesh: meshes.next(),
                conns: Slots::default(),
                next_gen: 0,
                store,
                config,
            };
            let flag = Arc::clone(&shutdown);
            thread::spawn(move || shard.run(&flag))
        })
        .collect();
    Ok(ShardedHandle {
        addr,
        shutdown,
        pollers,
        helpers,
        shards,
    })
}

/// A running sharded server. Dropping the handle shuts everything down
/// (discarding the shard services); [`ShardedHandle::into_services`]
/// shuts down *and* recovers every shard's service state.
pub struct ShardedHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Every event loop's poller: its wakeup.
    pollers: Vec<Arc<Poller>>,
    /// The router and the wall-clock rebalancer, when there are any.
    helpers: Vec<JoinHandle<()>>,
    shards: Vec<JoinHandle<SpeQuloS>>,
}

impl ShardedHandle {
    /// The bound address — with `"127.0.0.1:0"` this carries the actual
    /// port clients must connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of shards serving behind the listener.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Stops the server and returns every shard's service, in shard
    /// order, with every state change the request stream produced.
    /// Replied requests are applied (a reply cannot exist before its
    /// request executed, even across a forward); connections still open
    /// are dropped.
    pub fn into_services(mut self) -> Vec<SpeQuloS> {
        self.stop()
    }

    /// Idempotent teardown: the first call joins every thread and
    /// returns the services; the drop that follows `into_services` finds
    /// nothing left to join.
    fn stop(&mut self) -> Vec<SpeQuloS> {
        self.shutdown.store(true, Ordering::Release);
        for poller in &self.pollers {
            let _ = poller.notify();
        }
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
        // A join fails only if the shard panicked; re-raise that panic
        // on this thread instead of minting a new one.
        self.shards
            .drain(..)
            .map(|t| t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    }
}

impl Drop for ShardedHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

// ---------------------------------------------------------------------------
// What the router and the shards share: sockets, slots, accepting
// ---------------------------------------------------------------------------

/// Poller key of the listening socket; connections get `slot + 1`.
const LISTENER_KEY: usize = 0;

/// A socket and its connection core.
struct Sock {
    stream: TcpStream,
    core: Conn,
}

impl Sock {
    fn fill(&mut self) -> Result<(), Dead> {
        self.core.fill(&mut self.stream)
    }

    fn flush(&mut self) -> Result<(), Dead> {
        self.core.flush(&mut self.stream)
    }

    /// Re-arms the (oneshot) poller for whatever the core waits on next.
    fn rearm(&self, poller: &Poller, slot: usize) -> io::Result<()> {
        let interest = Event {
            key: slot + 1,
            readable: self.core.wants_read(),
            writable: self.core.wants_write(),
        };
        poller.modify(&self.stream, interest)
    }
}

/// An event loop's connections, indexed by poller key − 1.
struct Slots<T> {
    items: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    fn reserve(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.items.push(None);
            self.items.len() - 1
        })
    }

    /// Takes the connection out of its slot, so serving it can borrow
    /// the rest of the event loop mutably alongside it.
    fn take(&mut self, slot: usize) -> Option<T> {
        self.items.get_mut(slot).and_then(Option::take)
    }

    fn put(&mut self, slot: usize, item: T) {
        if let Some(place) = self.items.get_mut(slot) {
            *place = Some(item);
        }
    }

    fn release(&mut self, slot: usize) {
        self.free.push(slot);
    }
}

/// The listening socket of an event loop, and whether accepting is
/// paused.
struct Acceptor {
    listener: TcpListener,
    /// Set when an accept burst stopped on an error other than
    /// `WouldBlock` — `EMFILE` at the descriptor limit, say. The pending
    /// connection keeps the listener readable, so re-arming it at once
    /// would spin the loop; it stays disarmed until a connection closes
    /// or a [`LOOP_TICK`] has passed.
    parked: Option<Instant>,
}

impl Acceptor {
    fn new(listener: TcpListener) -> Acceptor {
        Acceptor {
            listener,
            parked: None,
        }
    }

    /// Accepts until the listener runs dry — each socket non-blocking,
    /// Nagle off (replies are single small frames; it only adds latency),
    /// wrapped by `adopt` and registered under a fresh slot — then
    /// re-arms the listener, or parks it when accepting failed.
    fn burst<T>(
        &mut self,
        poller: &Poller,
        config: &ServerConfig,
        slots: &mut Slots<T>,
        mut adopt: impl FnMut(Sock, usize) -> T,
    ) {
        let stopped = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // That client is gone; the next one may be waiting.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => break e,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = slots.reserve();
            if poller.add(&stream, Event::readable(slot + 1)).is_err() {
                // Out of poller budget: refuse by dropping the socket.
                slots.release(slot);
                continue;
            }
            let core = Conn::new(config);
            slots.put(slot, adopt(Sock { stream, core }, slot));
        };
        if stopped.kind() == io::ErrorKind::WouldBlock {
            let _ = poller.modify(&self.listener, Event::readable(LISTENER_KEY));
        } else {
            self.parked = Some(Instant::now());
        }
    }

    /// Re-arms a parked listener once a connection has `closed` or a
    /// loop tick has passed since it parked.
    fn resume(&mut self, poller: &Poller, closed: bool) {
        if self
            .parked
            .is_some_and(|at| closed || at.elapsed() >= LOOP_TICK)
        {
            self.parked = None;
            let _ = poller.modify(&self.listener, Event::readable(LISTENER_KEY));
        }
    }
}

/// The event loops' wait timeout.
const LOOP_TICK: Duration = Duration::from_millis(500);

/// Parks in `poller` until `shutdown`, handing each wakeup's events to
/// `turn`. The timeout is a belt-and-braces re-check of the flag (and
/// the tick a parked listener waits out); `Poller::notify` is the real
/// wakeup.
fn event_loop(poller: &Poller, shutdown: &AtomicBool, mut turn: impl FnMut(&mut Vec<Event>)) {
    let mut events: Vec<Event> = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        events.clear();
        if poller.wait(&mut events, Some(LOOP_TICK)).is_err() {
            break;
        }
        turn(&mut events);
    }
}

// ---------------------------------------------------------------------------
// The accept-and-route thread (N > 1 only)
// ---------------------------------------------------------------------------

/// A connection the router classified, on its way to its shard.
struct Handoff {
    sock: Sock,
    /// The first complete frame, already decoded — what the router
    /// routed by. The shard serves it before anything still buffered.
    first: Decoded,
}

struct Router {
    poller: Arc<Poller>,
    acceptor: Acceptor,
    links: Arc<Vec<ShardLink>>,
    /// Connections still being classified: hello, then the first
    /// complete request frame decides the owning shard.
    pending: Slots<Sock>,
    config: ServerConfig,
}

impl Router {
    fn run(mut self, shutdown: &AtomicBool) {
        let poller = Arc::clone(&self.poller);
        event_loop(&poller, shutdown, |events| {
            self.acceptor.resume(&self.poller, false);
            for event in events.drain(..) {
                if event.key == LISTENER_KEY {
                    let pending = &mut self.pending;
                    self.acceptor
                        .burst(&self.poller, &self.config, pending, |sock, _| sock);
                } else {
                    self.drive(event.key - 1);
                }
            }
        });
    }

    /// The core runs the hello exchange (acking it — clients block on
    /// the ack before sending the request this routes by) and decodes
    /// the first frame; an ack still unflushed travels with the core.
    fn classify(sock: &mut Sock) -> Result<Option<Decoded>, Dead> {
        sock.fill()?;
        if let Some(first) = sock.core.decode_next()? {
            return Ok(Some(first));
        }
        sock.flush()?;
        // The flush may have lifted backpressure off a buffered frame.
        sock.core.decode_next()
    }

    /// One pending connection's turn.
    fn drive(&mut self, slot: usize) {
        let Some(mut sock) = self.pending.take(slot) else {
            return;
        };
        match Self::classify(&mut sock) {
            // Not enough bytes yet (or a refusal still flushing).
            Ok(None) if !sock.core.drained() && sock.rearm(&self.poller, slot).is_ok() => {
                self.pending.put(slot, sock);
                return;
            }
            Ok(Some(first)) => {
                let _ = self.poller.delete(&sock.stream);
                // An undecodable or keyless first envelope still gets a
                // shard (which answers it with the typed error).
                let target = match &first {
                    Decoded::Request(envelope) => {
                        route_request(&envelope.request, self.links.len() as u32)
                    }
                    Decoded::BadEnvelope(_) => None,
                };
                let link = &self.links[target.unwrap_or(0) as usize];
                // Blocking send: accept backpressure when a shard's
                // mailbox is full. Only the router ever blocks here, so
                // no deadlock cycle is possible. A disconnected shard
                // (shutdown) just drops the connection.
                if link.adopt.send(Handoff { sock, first }).is_ok() {
                    let _ = link.poller.notify();
                }
            }
            // Dead peer, broken framing, refused hello flushed, or EOF
            // before the first frame: nothing owed.
            _ => {
                let _ = self.poller.delete(&sock.stream);
                self.acceptor.resume(&self.poller, true);
            }
        }
        self.pending.release(slot);
    }
}

// ---------------------------------------------------------------------------
// One shard: an event loop, a store, and (N > 1) cross-shard forwarding
// ---------------------------------------------------------------------------

/// Where a forwarded request's reply must land: the origin shard's
/// connection slot, the slot's generation (proof it was not reused
/// since) and the request's place in that connection's reply ledger.
#[derive(Clone, Copy)]
struct Ticket {
    slot: usize,
    gen: u64,
    seq: u64,
}

/// Cross-shard traffic into one shard.
enum Inbound {
    /// A request shard `origin` forwards to this one, its tenant's owner.
    Forward {
        origin: u32,
        ticket: Ticket,
        envelope: RequestEnvelope,
    },
    /// The reply to a request this shard forwarded.
    Completion(Ticket, ResponseEnvelope),
}

/// One shard's addresses, shared by the router and every peer shard.
struct ShardLink {
    adopt: SyncSender<Handoff>,
    inbox: Arc<Mutex<VecDeque<Inbound>>>,
    poller: Arc<Poller>,
}

impl ShardLink {
    fn push(&self, msg: Inbound) {
        // Poison means a peer panicked mid-push; the deque itself is
        // still structurally sound, so keep delivering.
        self.inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(msg);
        let _ = self.poller.notify();
    }
}

/// A shard's place among its peers; absent when it is the only one.
struct Mesh {
    id: u32,
    adopt: Receiver<Handoff>,
    links: Arc<Vec<ShardLink>>,
}

/// A slot in a connection's in-order reply ledger.
enum Pending {
    /// Executed here while a forward was still in flight ahead of it.
    Ready(ResponseEnvelope),
    /// Forwarded under this sequence number; its reply has not returned.
    Forwarded(u64),
}

struct ShardConn {
    sock: Sock,
    /// The `conns` slot this connection lives in and its generation.
    slot: usize,
    gen: u64,
    next_seq: u64,
    /// Replies not yet released to the core, in request order. Empty —
    /// and never allocated — unless a forward is in flight: a reply with
    /// nothing queued ahead of it is encoded straight into the core.
    ledger: VecDeque<Pending>,
}

impl ShardConn {
    fn new(sock: Sock, slot: usize, gen: u64) -> Box<ShardConn> {
        Box::new(ShardConn {
            sock,
            slot,
            gen,
            next_seq: 0,
            ledger: VecDeque::new(),
        })
    }

    /// Queues `reply` behind whatever the ledger still waits for.
    fn reply(&mut self, reply: ResponseEnvelope) {
        if self.ledger.is_empty() {
            self.sock.core.push_reply(&reply);
        } else {
            self.ledger.push_back(Pending::Ready(reply));
        }
    }
}

struct Shard {
    poller: Arc<Poller>,
    /// The single shard accepts for itself; behind a router, `None`.
    acceptor: Option<Acceptor>,
    mesh: Option<Mesh>,
    /// Boxed, so taking a connection out of its slot and putting it back
    /// moves a pointer, and an idle slot costs one.
    conns: Slots<Box<ShardConn>>,
    next_gen: u64,
    store: Store,
    config: ServerConfig,
}

impl Shard {
    /// The event loop; returns the service on shutdown.
    fn run(mut self, shutdown: &AtomicBool) -> SpeQuloS {
        let poller = Arc::clone(&self.poller);
        event_loop(&poller, shutdown, |events| {
            if let Some(acceptor) = self.acceptor.as_mut() {
                acceptor.resume(&self.poller, false);
            }
            self.drain_mesh();
            for event in events.drain(..) {
                match (event.key, self.acceptor.as_mut()) {
                    (LISTENER_KEY, Some(acceptor)) => {
                        let next_gen = &mut self.next_gen;
                        acceptor.burst(
                            &self.poller,
                            &self.config,
                            &mut self.conns,
                            |sock, slot| {
                                *next_gen += 1;
                                ShardConn::new(sock, slot, *next_gen)
                            },
                        );
                    }
                    (LISTENER_KEY, None) => {}
                    (key, _) => {
                        if let Some(conn) = self.conns.take(key - 1) {
                            self.settle(conn, event.readable);
                        }
                    }
                }
            }
        });
        self.store.service
    }

    /// Adopts routed connections and applies cross-shard traffic.
    fn drain_mesh(&mut self) {
        while let Some(handoff) = self.mesh.as_ref().and_then(|m| m.adopt.try_recv().ok()) {
            let slot = self.conns.reserve();
            let interest = Event::readable(slot + 1);
            if self.poller.add(&handoff.sock.stream, interest).is_err() {
                self.conns.release(slot);
                continue;
            }
            self.next_gen += 1;
            let mut conn = ShardConn::new(handoff.sock, slot, self.next_gen);
            self.serve(&mut conn, handoff.first);
            self.settle(conn, false);
        }
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        let inbound: Vec<Inbound> = mesh.links[mesh.id as usize]
            .inbox
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect();
        let mut executed = Vec::new();
        for msg in inbound {
            match msg {
                // This shard owns the tenant: execute (the record goes to
                // *this* shard's WAL); the reply waits for the commit.
                Inbound::Forward {
                    origin,
                    ticket,
                    envelope,
                } => executed.push((origin, ticket, self.store.execute(envelope))),
                Inbound::Completion(ticket, reply) => self.apply_completion(ticket, reply),
            }
        }
        // One commit for every forward of this wakeup; only then do the
        // replies cross to their origin shards. If it fails they turn
        // into the refusal every later request gets.
        let committed = self.store.commit();
        let Some(mesh) = self.mesh.as_ref() else {
            return;
        };
        for (origin, ticket, mut reply) in executed {
            if let Err(e) = &committed {
                reply = wal_refusal(reply.id, e);
            }
            mesh.links[origin as usize].push(Inbound::Completion(ticket, reply));
        }
    }

    /// Steps the connection and either re-arms it into its slot or
    /// closes it — shared by socket events, adoption and completion
    /// arrivals.
    fn settle(&mut self, mut conn: Box<ShardConn>, readable: bool) {
        // Half-close drain: close only once every buffered request is
        // served, every forwarded reply returned, every byte flushed.
        let open = self.step(&mut conn, readable).is_ok()
            && !(conn.sock.core.drained() && conn.ledger.is_empty());
        if open && conn.sock.rearm(&self.poller, conn.slot).is_ok() {
            self.conns.put(conn.slot, conn);
        } else {
            let _ = self.poller.delete(&conn.sock.stream);
            self.conns.release(conn.slot);
            if let Some(acceptor) = self.acceptor.as_mut() {
                acceptor.resume(&self.poller, true);
            }
        }
    }

    /// One connection's turn: pull bytes, serve complete frames, commit
    /// what they staged, push replies. Every reply queued here follows
    /// the commit that covers it, and the turn ends on a commit, so the
    /// reactor never parks with staged records.
    fn step(&mut self, conn: &mut ShardConn, readable: bool) -> Result<(), Dead> {
        if readable {
            conn.sock.fill()?;
        }
        self.serve_committed(conn)?;
        conn.sock.flush()?;
        // Flushing may have drained below the high-water mark: consume
        // requests that were parked behind backpressure.
        self.serve_committed(conn)
    }

    /// [`Shard::serve_buffered`], then the group commit — also when the
    /// framing broke mid-buffer: the requests before the break ran. A
    /// failed commit closes the connection with its replies unsent.
    fn serve_committed(&mut self, conn: &mut ShardConn) -> Result<(), Dead> {
        let served = self.serve_buffered(conn);
        self.store.commit().map_err(|_| Dead)?;
        served
    }

    fn serve_buffered(&mut self, conn: &mut ShardConn) -> Result<(), Dead> {
        while let Some(decoded) = conn.sock.core.decode_next()? {
            self.serve(conn, decoded);
        }
        Ok(())
    }

    /// Serves one decoded frame: inline when this shard owns its tenant
    /// (always, when it is the only shard), forwarded to the owning
    /// shard otherwise.
    fn serve(&mut self, conn: &mut ShardConn, decoded: Decoded) {
        let envelope = match decoded {
            Decoded::Request(envelope) => envelope,
            Decoded::BadEnvelope(reply) => return conn.reply(reply),
        };
        let Some(mesh) = self.mesh.as_ref() else {
            let reply = self.store.execute(envelope);
            return conn.sock.core.push_reply(&reply);
        };
        let target = match route_atomic(&envelope.request, mesh.links.len() as u32) {
            Ok(target) => target.unwrap_or(mesh.id),
            Err(refusal) => {
                return conn.reply(ResponseEnvelope {
                    id: envelope.id,
                    response: Response::Error(refusal),
                })
            }
        };
        if target == mesh.id {
            conn.reply(self.store.execute(envelope));
        } else {
            let ticket = Ticket {
                slot: conn.slot,
                gen: conn.gen,
                seq: conn.next_seq,
            };
            conn.next_seq += 1;
            conn.ledger.push_back(Pending::Forwarded(ticket.seq));
            mesh.links[target as usize].push(Inbound::Forward {
                origin: mesh.id,
                ticket,
                envelope,
            });
        }
    }

    /// A forwarded request's reply came back: fill its ledger slot,
    /// release the longest ready prefix to the core — FIFO per
    /// connection, across local and forwarded replies alike — and settle
    /// the connection (its readiness interest may have changed now that
    /// bytes are queued).
    fn apply_completion(&mut self, ticket: Ticket, reply: ResponseEnvelope) {
        let Some(mut conn) = self.conns.take(ticket.slot) else {
            return; // connection closed while the forward was in flight
        };
        if conn.gen != ticket.gen {
            // The slot was reused; this reply belongs to a dead
            // connection.
            return self.conns.put(ticket.slot, conn);
        }
        let awaited = |p: &&mut Pending| matches!(p, Pending::Forwarded(seq) if *seq == ticket.seq);
        if let Some(pending) = conn.ledger.iter_mut().find(awaited) {
            *pending = Pending::Ready(reply);
        }
        while let Some(Pending::Ready(reply)) = conn.ledger.front() {
            conn.sock.core.push_reply(reply);
            conn.ledger.pop_front();
        }
        self.settle(conn, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientCore, RemoteService};
    use crate::frame::Codec;
    use simcore::SimTime;
    use spequlos::tenancy::shard_of_user;
    use spequlos::wal::FsyncPolicy;
    use spequlos::{encode_state_json, Request, Response, SpqService, UserId};
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spq-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two user ids guaranteed to live on different shards of `n`.
    fn split_pair(n: u32) -> (UserId, UserId) {
        let a = UserId(1);
        let b = (2..999)
            .map(UserId)
            .find(|u| shard_of_user(*u, n) != shard_of_user(a, n))
            .expect("some user hashes elsewhere");
        (a, b)
    }

    #[test]
    fn single_shard_round_trip_and_into_services() {
        let handle =
            ShardedServer::spawn_loopback(SpeQuloS::new(), ShardConfig::deterministic(1, 1_000))
                .expect("spawn");
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        let r = remote.handle(
            Request::Deposit {
                user: UserId(9),
                credits: 250.0,
            },
            SimTime::ZERO,
        );
        assert!(matches!(r, Response::Deposited { .. }), "got {r:?}");
        drop(remote);
        let services = handle.into_services();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].credits.balance(UserId(9)), 250.0);
    }

    #[test]
    fn sessions_land_on_the_owning_shard() {
        const SHARDS: u32 = 4;
        let handle = ShardedServer::spawn_loopback(
            SpeQuloS::new(),
            ShardConfig::deterministic(SHARDS, 1_000),
        )
        .expect("spawn");
        let mut bots = Vec::new();
        for u in 0..16u64 {
            let user = UserId(100 + u);
            let mut remote = RemoteService::connect(handle.addr()).expect("connect");
            let r = remote.handle(
                Request::Deposit {
                    user,
                    credits: 100.0,
                },
                SimTime::ZERO,
            );
            assert!(matches!(r, Response::Deposited { .. }), "got {r:?}");
            let r = remote.handle(
                Request::RegisterQos {
                    user,
                    env: "t/XWHEP/SHARD".into(),
                    size: 10,
                },
                SimTime::ZERO,
            );
            let Response::Registered { bot } = r else {
                panic!("expected Registered, got {r:?}");
            };
            // Bot ids are congruent with the owning shard: the shard
            // that owns hash(user) allocated the id on its stride.
            assert_eq!(bot.0 % SHARDS as u64, shard_of_user(user, SHARDS) as u64);
            bots.push((user, bot));
        }
        let services = handle.into_services();
        assert_eq!(services.len(), SHARDS as usize);
        for (user, bot) in bots {
            let shard = shard_of_user(user, SHARDS) as usize;
            assert_eq!(services[shard].credits.balance(user), 100.0);
            assert_eq!(services[shard].user_of(bot), Some(user));
            for (i, svc) in services.iter().enumerate() {
                if i != shard {
                    assert_eq!(svc.user_of(bot), None, "bot leaked to shard {i}");
                }
            }
        }
    }

    #[test]
    fn mixed_tenant_connection_keeps_fifo_across_forwards() {
        const SHARDS: u32 = 4;
        let handle = ShardedServer::spawn_loopback(
            SpeQuloS::new(),
            ShardConfig::deterministic(SHARDS, 1_000),
        )
        .expect("spawn");
        // Legacy JSON connection, fully pipelined: 40 deposits for
        // users spread across every shard, written before any reply is
        // read. Interleaves local serves with forwards on every shard.
        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        let mut core = ClientCore::new(Codec::Json);
        let mut wire = Vec::new();
        for k in 1..=40u64 {
            let deposit = Request::Deposit {
                user: UserId(k % 11),
                credits: 1.0,
            };
            core.queue_request(&mut wire, deposit, SimTime::ZERO);
        }
        stream.write_all(&wire).expect("write");
        for id in 0..40u64 {
            let reply = core
                .read_reply(&mut stream)
                .expect("read")
                .expect("reply before EOF");
            assert_eq!(reply.id, id, "replies must come back in request order");
            assert!(matches!(reply.response, Response::Deposited { .. }));
        }
        drop(stream);
        let services = handle.into_services();
        let total: f64 = (0..11u64)
            .map(|u| {
                services[shard_of_user(UserId(u), SHARDS) as usize]
                    .credits
                    .balance(UserId(u))
            })
            .sum();
        assert_eq!(total, 40.0, "every deposit applied exactly once");
    }

    #[test]
    fn cross_shard_batch_is_refused_atomically() {
        const SHARDS: u32 = 4;
        let handle = ShardedServer::spawn_loopback(
            SpeQuloS::new(),
            ShardConfig::deterministic(SHARDS, 1_000),
        )
        .expect("spawn");
        let (a, b) = split_pair(SHARDS);
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        let r = remote.handle(
            Request::Batch(vec![
                Request::Deposit {
                    user: a,
                    credits: 5.0,
                },
                Request::Deposit {
                    user: b,
                    credits: 5.0,
                },
            ]),
            SimTime::ZERO,
        );
        assert!(
            matches!(&r, Response::Error(RequestError::Invalid(msg)) if msg.contains("spans shards")),
            "got {r:?}"
        );
        // A single-shard batch still works.
        let r = remote.handle(
            Request::Batch(vec![
                Request::Deposit {
                    user: a,
                    credits: 5.0,
                },
                Request::Deposit {
                    user: a,
                    credits: 5.0,
                },
            ]),
            SimTime::ZERO,
        );
        assert!(matches!(r, Response::Batch(_)), "got {r:?}");
        drop(remote);
        let services = handle.into_services();
        assert_eq!(
            services[shard_of_user(a, SHARDS) as usize]
                .credits
                .balance(a),
            10.0,
            "refused batch applied nothing"
        );
        assert_eq!(
            services[shard_of_user(b, SHARDS) as usize]
                .credits
                .balance(b),
            0.0
        );
    }

    #[test]
    fn durable_sharded_recovers_every_shard() {
        const SHARDS: u32 = 3;
        let dir = temp_dir("recover");
        let durability = DurabilityConfig::new(&dir);
        let (handle, reports) = ShardedServer::spawn_durable_sharded(
            SpeQuloS::new(),
            "127.0.0.1:0",
            ServerConfig::default(),
            ShardConfig::deterministic(SHARDS, 1_000),
            durability.clone(),
        )
        .expect("first spawn");
        assert_eq!(reports.len(), SHARDS as usize);
        assert!(reports
            .iter()
            .all(|r| r.snapshot_applied == 0 && r.replayed == 0));
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        for u in 0..9u64 {
            let r = remote.handle(
                Request::Deposit {
                    user: UserId(u),
                    credits: 10.0,
                },
                SimTime::ZERO,
            );
            assert!(matches!(r, Response::Deposited { .. }), "got {r:?}");
        }
        drop(remote);
        drop(handle);

        let (handle, reports) = ShardedServer::spawn_durable_sharded(
            SpeQuloS::new(),
            "127.0.0.1:0",
            ServerConfig::default(),
            ShardConfig::deterministic(SHARDS, 1_000),
            durability,
        )
        .expect("respawn");
        let applied: u64 = reports
            .iter()
            .map(|r| r.snapshot_applied + r.replayed)
            .sum();
        assert_eq!(applied, 9, "all acknowledged deposits recovered");
        let services = handle.into_services();
        for u in 0..9u64 {
            let user = UserId(u);
            let shard = shard_of_user(user, SHARDS) as usize;
            assert_eq!(services[shard].credits.balance(user), 10.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the log in `dir` alone rebuilds, as the snapshot encoding.
    fn log_only_state(dir: &Path, template: SpeQuloS) -> String {
        for entry in std::fs::read_dir(dir).expect("wal dir") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                std::fs::remove_file(path).expect("delete snapshot");
            }
        }
        let (_, recovery) = WalStore::open(dir, FsyncPolicy::Always).expect("reopen");
        let (replayed, report) = recovery.recover(template).expect("recover");
        assert_eq!(report.snapshot_applied, 0);
        encode_state_json(&replayed).expect("encodes")
    }

    #[test]
    fn every_shards_log_replays_to_the_state_it_served_forwards_included() {
        const SHARDS: u32 = 3;
        let dir = temp_dir("log-equals-state");
        let shard_cfg = ShardConfig::deterministic(SHARDS, 1_000);
        let (handle, _) = ShardedServer::spawn_durable_sharded(
            SpeQuloS::new(),
            "127.0.0.1:0",
            ServerConfig::default(),
            shard_cfg,
            DurabilityConfig::new(&dir),
        )
        .expect("spawn");
        // One mixed-tenant connection, fully pipelined: its shard serves
        // a third of the deposits and forwards the rest, so records are
        // staged by socket turns and by forward groups alike.
        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        let mut core = ClientCore::new(Codec::Json);
        let mut wire = Vec::new();
        for k in 1..=40u64 {
            let deposit = Request::Deposit {
                user: UserId(k % 11),
                credits: k as f64,
            };
            core.queue_request(&mut wire, deposit, SimTime::from_secs(k));
        }
        stream.write_all(&wire).expect("write");
        for id in 0..40u64 {
            let reply = core.read_reply(&mut stream).expect("read").expect("reply");
            assert_eq!(reply.id, id);
            assert!(matches!(reply.response, Response::Deposited { .. }));
        }
        drop(stream);
        let services = handle.into_services();
        let templates = shard_cfg.split(SpeQuloS::new());
        let mut records = 0;
        for (i, ((template, _), served)) in templates.into_iter().zip(&services).enumerate() {
            let shard_dir = dir.join(format!("shard-{i}"));
            assert_eq!(
                log_only_state(&shard_dir, template),
                encode_state_json(served).expect("encodes"),
                "shard {i}: the log and the served state part ways"
            );
            let (wal, _) = WalStore::open(&shard_dir, FsyncPolicy::Always).expect("count");
            records += wal.record_count();
        }
        assert_eq!(records, 40, "every request logged once, on its owner");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_durable_run_snapshots_in_proportion_to_its_state() {
        const EVERY: u64 = 8;
        const WINDOW: usize = 32;
        let dir = temp_dir("proportional");
        let mut durability = DurabilityConfig::new(&dir);
        durability.snapshot_every = EVERY;
        let (handle, _) = crate::Server::spawn_durable(
            SpeQuloS::new(),
            "127.0.0.1:0",
            ServerConfig::default(),
            durability,
        )
        .expect("spawn");
        // One BoT reporting progress 600 times: every report lengthens
        // the Information module's time series, so the state outgrows
        // `EVERY` records of log early on.
        let user = UserId(1);
        let bot = botwork::BotId(0);
        let mut requests = vec![
            Request::Deposit { user, credits: 1e6 },
            Request::RegisterQos {
                user,
                env: "t/XWHEP/DURABLE".into(),
                size: 1_000,
            },
        ];
        requests.extend((1..=600u32).map(|k| Request::ReportProgress {
            bot,
            progress: spequlos::BotProgress {
                now: SimTime::from_secs(60 * u64::from(k)),
                size: 1_000,
                completed: k,
                dispatched: 1_000,
                queued: 1_000 - k,
                running: 10,
                cloud_running: 0,
            },
        }));
        let total = requests.len();
        let mut remote = RemoteService::connect(handle.addr()).expect("connect");
        let (mut sent, mut received) = (0, 0);
        let mut requests = requests.into_iter();
        while received < total {
            while sent - received < WINDOW {
                let Some(request) = requests.next() else {
                    break;
                };
                remote.send(request, SimTime::from_secs(sent as u64));
                sent += 1;
            }
            remote.flush().expect("flush");
            let reply = remote.recv().expect("reply");
            assert!(!matches!(reply.response, Response::Error(_)), "{reply:?}");
            received += 1;
        }
        drop(remote);
        let served = encode_state_json(&handle.into_service()).expect("encodes");

        let mut kept: Vec<u64> = std::fs::read_dir(&dir)
            .expect("wal dir")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_prefix("snap-")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()
            })
            .collect();
        kept.sort_unstable();
        let [older, newer] = kept[..] else {
            panic!("two snapshots are kept, found {kept:?}");
        };
        // The first snapshot came with the first group that reached
        // `EVERY` records, so anything later than that is at least the
        // second, and `newer` at least the third.
        assert!(older > EVERY + WINDOW as u64, "kept {kept:?}");
        assert!(
            newer - older > EVERY,
            "a state heavier than {EVERY} records of log spaces its snapshots out: {kept:?}"
        );
        let tail = {
            let (_, recovery) = WalStore::open(&dir, FsyncPolicy::Always).expect("reopen");
            assert_eq!(recovery.snapshot_applied(), Some(newer));
            let (recovered, _) = recovery.recover(SpeQuloS::new()).expect("recover");
            encode_state_json(&recovered).expect("encodes")
        };
        assert_eq!(tail, served, "snapshot + tail");
        assert_eq!(log_only_state(&dir, SpeQuloS::new()), served, "log alone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_is_idempotent_via_drop_after_into_services() {
        let handle =
            ShardedServer::spawn_loopback(SpeQuloS::new(), ShardConfig::new(2)).expect("spawn");
        let addr = handle.addr();
        let services = handle.into_services();
        assert_eq!(services.len(), 2);
        // The listener is gone: a fresh connect must fail (possibly
        // after the kernel backlog drains, so allow one ECONNREFUSED or
        // a read of zero bytes).
        match std::net::TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut stream) => {
                let reply = ClientCore::new(Codec::Json).read_reply(&mut stream);
                assert!(
                    matches!(reply, Ok(None) | Err(_)),
                    "server must not answer after shutdown"
                );
            }
        }
    }
}
