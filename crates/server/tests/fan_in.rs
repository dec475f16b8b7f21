//! The reactor under fan-in: many registered connections, few ready.
//!
//! 512 handshaked connections sit idle while one connection pipelines
//! 1 000 requests; then every idle connection sends a request, and half
//! of them close mid-run — half of those gracefully after their reply,
//! half abortively with the reply unread, so the peer resets and the
//! server's socket reports a hang-up. Last, a slow reader makes the
//! server's writes block and then catches up. Idle connections must never be
//! served a stray event, parked ones must wake when their bytes come,
//! and every reply and the final state must match an in-process
//! [`SpeQuloS`] fed the same requests in the same order.

use botwork::BotId;
use simcore::SimTime;
use spequlos::protocol::{Request, SpqService};
use spequlos::{encode_state_json, BotProgress, SpeQuloS, StrategyCombo, UserId};
use spq_server::client::ClientCore;
use spq_server::frame::Codec;
use spq_server::{RemoteService, Server};
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::time::Duration;

const IDLE: usize = 512;
const PIPELINED: u64 = 1_000;
/// Requests the active connection keeps in flight.
const WINDOW: u64 = 64;
/// The slow reader's unread burst: batch frames of deposits, several
/// MiB of replies in all — more than the loopback buffers hold.
const BURST: u64 = 64;
const BURST_BATCH: u64 = 4_096;

/// The active connection's `k`-th request: a few tenants' whole
/// session, errors included (a bot before its registration, a report
/// after its completion), so replies depend on what came before.
fn active_request(k: u64) -> Request {
    let bot = BotId(k % 6);
    match k % 7 {
        0 => Request::Deposit {
            user: UserId(k % 3),
            credits: 50.0,
        },
        1 => Request::RegisterQos {
            user: UserId(k % 3),
            env: "t/XWHEP/FANIN".into(),
            size: 20,
        },
        2 => Request::OrderQos {
            bot,
            credits: 5.0,
            strategy: Some(StrategyCombo::paper_default()),
        },
        3 | 4 => {
            let completed = (k % 20) as u32;
            Request::ReportProgress {
                bot,
                progress: BotProgress {
                    now: SimTime::from_secs(k),
                    size: 20,
                    completed,
                    dispatched: 20,
                    queued: 0,
                    running: 20 - completed,
                    cloud_running: 0,
                },
            }
        }
        5 => Request::Predict { bot },
        _ => Request::Complete { bot },
    }
}

/// A handshaked connection driven by hand, so its socket can be peeked
/// at and dropped with a reply unread.
struct Idle {
    socket: TcpStream,
    core: ClientCore,
}

impl Idle {
    fn connect(addr: std::net::SocketAddr) -> Idle {
        let mut socket = TcpStream::connect(addr).expect("connect");
        socket
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut core = ClientCore::new(Codec::Binary);
        let mut out = Vec::new();
        core.queue_hello(&mut out);
        socket.write_all(&out).expect("hello");
        core.read_ack(&mut socket).expect("ack");
        Idle { socket, core }
    }

    fn send(&mut self, request: Request, at: SimTime) {
        let mut out = Vec::new();
        self.core.queue_request(&mut out, request, at);
        self.socket.write_all(&out).expect("send");
    }
}

/// `utime + stime` of the whole process, in clock ticks.
fn cpu_ticks(stat: &mut std::fs::File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).expect("seek stat");
    stat.read_to_string(&mut text).expect("read stat");
    // After the parenthesised command name, utime and stime are the
    // 12th and 13th fields.
    let after = &text[text.rfind(')').expect("comm") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// Holding both ends of every connection takes over 1 024 descriptors.
fn descriptor_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn idle_connections_stay_silent_and_every_reply_matches_in_process() {
    if let Some(limit) = descriptor_limit() {
        assert!(
            limit >= 2 * IDLE as u64 + 64,
            "this test holds both ends of {IDLE} connections: raise `ulimit -n` above {limit}"
        );
    }
    let handle = Server::spawn_loopback(SpeQuloS::new()).expect("spawn");
    let mut reference = SpeQuloS::new();
    let mut idle: Vec<Option<Idle>> = (0..IDLE)
        .map(|_| Some(Idle::connect(handle.addr())))
        .collect();

    // Phase 1: one connection pipelines while the rest are registered
    // and silent.
    let mut active = RemoteService::connect_with(handle.addr(), Codec::Binary).expect("connect");
    let (mut sent, mut answered) = (0u64, 0u64);
    while answered < PIPELINED {
        while sent < PIPELINED && sent - answered < WINDOW {
            active.send(active_request(sent), SimTime::from_secs(sent));
            sent += 1;
        }
        let reply = active.recv().expect("pipelined reply");
        let expected = reference.handle(active_request(answered), SimTime::from_secs(answered));
        assert_eq!(reply.id, answered);
        assert_eq!(reply.response, expected, "pipelined request {answered}");
        answered += 1;
    }

    // Phase 2: every idle connection speaks once, in turn; every odd one
    // then closes — the 1 mod 4 ones after reading their reply, the
    // 3 mod 4 ones with the reply still unread, which resets the
    // connection under the server.
    for (i, slot) in idle.iter_mut().enumerate() {
        let at = SimTime::from_secs(PIPELINED + i as u64);
        let request = Request::Deposit {
            user: UserId(100 + i as u64),
            credits: 1.0 + i as f64,
        };
        let expected = reference.handle(request.clone(), at);
        let conn = slot.as_mut().expect("open");
        conn.send(request, at);
        if i % 4 == 3 {
            let mut byte = [0u8; 1];
            let peeked = conn.socket.peek(&mut byte).expect("reply arrives");
            assert_eq!(peeked, 1, "connection {i} got its reply");
            *slot = None;
            continue;
        }
        let reply = conn
            .core
            .read_reply(&mut conn.socket)
            .expect("reply")
            .expect("not end of stream");
        assert_eq!(reply.response, expected, "idle connection {i}");
        if i % 4 == 1 {
            *slot = None;
        }
    }

    // The survivors and the active connection are still served after
    // the closes.
    for (i, conn) in idle.iter_mut().enumerate() {
        let Some(conn) = conn.as_mut() else { continue };
        let at = SimTime::from_secs(PIPELINED + (IDLE + i) as u64);
        let request = Request::Predict {
            bot: BotId(i as u64 % 6),
        };
        let expected = reference.handle(request.clone(), at);
        conn.send(request, at);
        let reply = conn.core.read_reply(&mut conn.socket).expect("reply");
        assert_eq!(reply.expect("open").response, expected, "survivor {i}");
    }
    let at = SimTime::from_secs(PIPELINED + 2 * IDLE as u64);
    let request = Request::Deposit {
        user: UserId(0),
        credits: 1.0,
    };
    let expected = reference.handle(request.clone(), at);
    assert_eq!(active.handle(request, at), expected);

    // Phase 3: a slow reader. Megabytes of replies go unread until the
    // loopback buffers fill and the server's writes would block, so it
    // arms `writable` and the epoll set widens to read|write. Once the
    // reader catches up the server re-arms `readable` alone, the socket
    // stays writable, and that report must be narrowed away — the
    // reactor then idles instead of spinning on it.
    let mut slow = Idle::connect(handle.addr());
    let batch = |b: u64| {
        Request::Batch(
            (0..BURST_BATCH)
                .map(|k| Request::Deposit {
                    user: UserId(10_000 + k),
                    credits: 1.0 + b as f64,
                })
                .collect(),
        )
    };
    let mut wire = Vec::new();
    for b in 0..BURST {
        slow.core.queue_request(&mut wire, batch(b), at);
    }
    let mut writer = slow.socket.try_clone().expect("clone");
    let writer = std::thread::spawn(move || writer.write_all(&wire).expect("burst"));
    std::thread::sleep(Duration::from_millis(300));
    for b in 0..BURST {
        let expected = reference.handle(batch(b), at);
        let reply = slow.core.read_reply(&mut slow.socket).expect("reply");
        assert_eq!(reply.expect("open").response, expected, "burst batch {b}");
    }
    writer.join().expect("writer");
    let mut stat = std::fs::File::open("/proc/self/stat").expect("stat");
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_ticks(&mut stat);
    std::thread::sleep(Duration::from_millis(500));
    let spent = cpu_ticks(&mut stat) - before;
    // Clock ticks are 10 ms; 10 % of a core over 500 ms is 5 of them.
    assert!(spent < 5, "an idle reactor burned {spent} ticks in 500 ms");

    drop((active, idle, slow));
    let served = handle.into_service();
    assert_eq!(
        encode_state_json(&served).expect("encode"),
        encode_state_json(&reference).expect("encode"),
        "the server's state is the in-process service's"
    );
}
