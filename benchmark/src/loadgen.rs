//! The load generator: one thread driving a few `std::net` connections.
//!
//! It writes pre-encoded frames, splits reply frames off the read buffer,
//! checks that each echoes the next id in order and is not an error, and
//! folds the reply bytes into the connection's CRC — nothing is decoded
//! in a timed loop. Three ways to offer load:
//!
//! * [`run_closed`] — closed loop, pipelined: each connection keeps
//!   `depth` windows of `window` frames in flight and sends the next
//!   window when one has been answered;
//! * [`run_open`] — open loop: frame *g* is due at `g / rate` whatever the
//!   server does, and its latency counts from that instant;
//! * [`run_alternating`] — closed loop, one request in flight in total,
//!   alternating over the connections.

use crate::codec::split_reply;
use crate::crc::Crc32;
use crate::script::Frames;
use crate::trace::{Recorder, ROOT};
use polling::{Event, Poller};
use spq_server::frame::hello_line;
use spq_server::Codec;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

const READ_BUFFER: usize = 256 * 1024;
/// How long before a frame is due the open-loop generator stops sleeping
/// and spins: above the timer slack of `thread::sleep` (~60 µs here).
const SPIN_NS: u64 = 120_000;

/// One client connection after the hello exchange.
pub struct Conn {
    stream: TcpStream,
    codec: Codec,
    buf: Box<[u8]>,
    /// `buf[parsed..filled]` holds bytes read but not yet split.
    parsed: usize,
    filled: usize,
    /// CRC of every reply byte consumed so far.
    pub crc: Crc32,
    /// Id the next reply must echo; counts replies consumed.
    pub next_id: u64,
    /// Error replies plus replies out of id order.
    pub bad_replies: u64,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what.to_string())
}

/// Connects and negotiates `codec` (PROTOCOL.md §2); the socket is left
/// in blocking mode.
pub fn handshake(addr: SocketAddr, codec: Codec) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(hello_line(codec).as_bytes())?;
    let expected = format!("SPQ/1 ok {codec}\n");
    let mut ack = vec![0u8; expected.len()];
    stream.read_exact(&mut ack)?;
    if ack != expected.as_bytes() {
        return Err(malformed("the server refused the hello"));
    }
    Ok(stream)
}

/// `n` negotiated connections that will then stay silent. Handshakes go
/// out in batches, well inside the listener's backlog, so the reactor
/// answers a batch per readiness wait rather than one hello per wait
/// over an ever larger descriptor set.
pub fn handshake_many(addr: SocketAddr, codec: Codec, n: usize) -> io::Result<Vec<TcpStream>> {
    const BATCH: usize = 64;
    let expected = format!("SPQ/1 ok {codec}\n");
    let mut streams: Vec<TcpStream> = Vec::with_capacity(n);
    while streams.len() < n {
        let from = streams.len();
        for _ in 0..BATCH.min(n - from) {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(hello_line(codec).as_bytes())?;
            streams.push(stream);
        }
        let mut ack = vec![0u8; expected.len()];
        for stream in &mut streams[from..] {
            stream.read_exact(&mut ack)?;
            if ack != expected.as_bytes() {
                return Err(malformed("the server refused the hello"));
            }
        }
    }
    Ok(streams)
}

impl Conn {
    pub fn connect(addr: SocketAddr, codec: Codec) -> io::Result<Conn> {
        Ok(Conn {
            stream: handshake(addr, codec)?,
            codec,
            buf: vec![0u8; READ_BUFFER].into_boxed_slice(),
            parsed: 0,
            filled: 0,
            crc: Crc32::default(),
            next_id: 0,
            bad_replies: 0,
        })
    }

    /// Moves a connection's reply bookkeeping onto a new socket: the
    /// durable workload reconnects after the server restarts, and the
    /// reply stream — ids and CRC — continues across the restart.
    pub fn reconnect(&mut self, addr: SocketAddr) -> io::Result<()> {
        assert_eq!(self.parsed, self.filled, "no reply is half read");
        self.stream = handshake(addr, self.codec)?;
        Ok(())
    }

    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// One `read`, then consumes every complete reply frame buffered.
    /// Returns how many replies that was; `Ok(0)` also when a
    /// non-blocking socket had nothing to read.
    pub fn pump(&mut self) -> io::Result<usize> {
        if self.parsed == self.filled {
            self.parsed = 0;
            self.filled = 0;
        } else if self.filled == self.buf.len() {
            self.buf.copy_within(self.parsed..self.filled, 0);
            self.filled -= self.parsed;
            self.parsed = 0;
            if self.filled == self.buf.len() {
                return Err(malformed("a reply frame exceeds the read buffer"));
            }
        }
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            Ok(n) => self.filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(0),
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(0),
            Err(e) => return Err(e),
        }
        let from = self.parsed;
        let mut replies = 0;
        while let Some(reply) = split_reply(self.codec, &self.buf[self.parsed..self.filled])
            .map_err(|_| malformed("unsplittable reply stream"))?
        {
            if reply.is_error || reply.id != self.next_id {
                self.bad_replies += 1;
            }
            self.next_id += 1;
            self.parsed += reply.len;
            replies += 1;
        }
        self.crc.update(&self.buf[from..self.parsed]);
        Ok(replies)
    }

    /// Sends `frames` and waits for all their replies, on a blocking
    /// socket, `window` frames at a time. Used for the untimed priming.
    pub fn exchange(&mut self, frames: &Frames, window: usize) -> io::Result<()> {
        let mut sent = 0;
        while sent < frames.len() {
            let upto = (sent + window).min(frames.len());
            self.stream.write_all(frames.slice(sent, upto))?;
            let mut outstanding = upto - sent;
            while outstanding > 0 {
                outstanding -= self.pump()?;
            }
            sent = upto;
        }
        Ok(())
    }
}

/// What the generator thread did during a timed phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    pub wall: Duration,
    /// Frames answered.
    pub frames: u64,
    /// Frames answered per second: the median over the phase's chunks
    /// (see [`ChunkRates`]).
    pub steady_rate: f64,
}

/// Chunks a phase is cut into for its rate.
const CHUNKS: u64 = 48;

/// The rate of a closed-loop phase, robust to the sandbox descheduling a
/// thread for milliseconds at a time: the phase is cut into [`CHUNKS`]
/// runs of answered frames, each run's rate is taken, and the phase's
/// rate is their median. A stall spoils the chunk it falls in, not the
/// figure; `frames / wall` would charge every stall to the server.
struct ChunkRates {
    chunk: u64,
    mark_frames: u64,
    mark: Instant,
    rates: Vec<f64>,
}

impl ChunkRates {
    fn new(total_frames: u64, start: Instant) -> ChunkRates {
        ChunkRates {
            chunk: total_frames.div_ceil(CHUNKS).max(1),
            mark_frames: 0,
            mark: start,
            rates: Vec::with_capacity(CHUNKS as usize + 1),
        }
    }

    /// Notes that `answered` frames have been answered in total by `now`.
    fn progress(&mut self, answered: u64, now: Instant) {
        if answered - self.mark_frames >= self.chunk {
            let secs = (now - self.mark).as_secs_f64();
            self.rates.push((answered - self.mark_frames) as f64 / secs);
            self.mark_frames = answered;
            self.mark = now;
        }
    }

    fn finish(self, total_frames: u64, start: Instant) -> PhaseStats {
        let wall = start.elapsed();
        let steady_rate = if self.rates.is_empty() {
            total_frames as f64 / wall.as_secs_f64()
        } else {
            crate::stats::median(&self.rates)
        };
        PhaseStats {
            wall,
            frames: total_frames,
            steady_rate,
        }
    }
}

/// Per-connection progress through its slice of the script.
struct Lane {
    /// Next frame to hand to the socket.
    sent: usize,
    /// Frames answered.
    acked: usize,
    end: usize,
    /// Bytes of `frames.bytes` already written.
    written: usize,
    /// Byte offset up to which frames have been released for writing.
    release: usize,
}

impl Lane {
    fn new(frames: &Frames, range: &Range<usize>) -> Lane {
        Lane {
            sent: range.start,
            acked: range.start,
            end: range.end,
            written: frames.start(range.start),
            release: frames.start(range.start),
        }
    }
}

/// Writes released bytes until the socket stops accepting them.
fn flush(conn: &mut Conn, frames: &Frames, lane: &mut Lane) -> io::Result<bool> {
    let mut progressed = false;
    while lane.written < lane.release {
        match conn.stream.write(&frames.bytes[lane.written..lane.release]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "server closed")),
            Ok(n) => {
                lane.written += n;
                progressed = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(progressed)
}

/// Closed loop, pipelined. `ranges[c]` is the slice of `scripts[c]` that
/// connection `c` sends. When `round_trips` is given, the time from
/// releasing a window to its last reply is pushed there, in nanoseconds.
pub fn run_closed(
    conns: &mut [Conn],
    scripts: &[&Frames],
    ranges: &[Range<usize>],
    window: usize,
    depth: usize,
    rec: &mut Recorder,
    mut round_trips: Option<&mut Vec<u64>>,
) -> io::Result<PhaseStats> {
    let poller = Poller::new()?;
    for (key, conn) in conns.iter().enumerate() {
        conn.set_nonblocking(true)?;
        poller.add(&conn.stream, Event::none(key))?;
    }
    let mut lanes: Vec<Lane> = scripts
        .iter()
        .zip(ranges)
        .map(|(f, r)| Lane::new(f, r))
        .collect();
    // Per connection: (last frame of the window, when it was released).
    let mut in_flight: Vec<VecDeque<(usize, Instant)>> = vec![VecDeque::new(); conns.len()];
    let mut events = Vec::new();
    let mut block = 0u32;
    let total: u64 = ranges.iter().map(|r| r.len() as u64).sum();
    let mut answered = 0u64;
    let start = Instant::now();
    let mut rates = ChunkRates::new(total, start);
    loop {
        let mut progressed = false;
        for (c, conn) in conns.iter_mut().enumerate() {
            let (frames, lane) = (scripts[c], &mut lanes[c]);
            while lane.sent < lane.end && lane.sent - lane.acked + window <= window * depth {
                lane.sent = (lane.sent + window).min(lane.end);
                lane.release = frames.start(lane.sent);
                if round_trips.is_some() {
                    in_flight[c].push_back((lane.sent, Instant::now()));
                }
            }
            if lane.written < lane.release {
                progressed |= rec.time("send", ROOT, block, || flush(conn, frames, lane))?;
            }
            let replies = if lane.acked < lane.sent {
                rec.time("read", ROOT, block, || conn.pump())?
            } else {
                0
            };
            if replies > 0 {
                progressed = true;
                lane.acked += replies;
                answered += replies as u64;
                block += 1;
                let now = Instant::now();
                rates.progress(answered, now);
                if let Some(samples) = round_trips.as_deref_mut() {
                    while in_flight[c]
                        .front()
                        .is_some_and(|&(last, _)| last <= lane.acked)
                    {
                        let (_, released) = in_flight[c].pop_front().expect("front exists");
                        samples.push((now - released).as_nanos() as u64);
                    }
                }
            }
        }
        if lanes.iter().all(|l| l.acked == l.end) {
            break;
        }
        if !progressed {
            for (key, (conn, lane)) in conns.iter().zip(&lanes).enumerate() {
                let interest = Event {
                    key,
                    readable: lane.acked < lane.sent,
                    writable: lane.written < lane.release,
                };
                poller.modify(&conn.stream, interest)?;
            }
            events.clear();
            rec.time("await", ROOT, block, || {
                poller.wait(&mut events, Some(Duration::from_secs(30)))
            })?;
            if events.is_empty() {
                return Err(io::Error::new(ErrorKind::TimedOut, "no reply for 30 s"));
            }
        }
    }
    let stats = rates.finish(total, start);
    for conn in conns.iter() {
        conn.set_nonblocking(false)?;
    }
    Ok(stats)
}

/// Result of an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenStats {
    pub phase: PhaseStats,
    /// Per frame, nanoseconds from its due instant to its reply.
    pub sojourn_ns: Vec<u64>,
    /// How late, at worst, the generator handed a due frame to the socket.
    pub max_late: Duration,
}

/// Open loop at `rate` frames per second over all connections: frame `g`
/// (connection `g % n`) is due at `g / rate` after the start and is
/// written as soon as the generator notices, however many replies are
/// outstanding. The thread spins while a reply is outstanding or a frame
/// is nearly due, and sleeps through longer gaps.
pub fn run_open(
    conns: &mut [Conn],
    scripts: &[&Frames],
    ranges: &[Range<usize>],
    rate: f64,
) -> io::Result<OpenStats> {
    let n = conns.len();
    let per_conn = ranges[0].len();
    assert!(
        ranges.iter().all(|r| r.len() == per_conn),
        "open-loop ranges are equally long"
    );
    let total = per_conn * n;
    let interval_ns = 1e9 / rate;
    let due_ns = |g: usize| (g as f64 * interval_ns) as u64;
    for conn in conns.iter() {
        conn.set_nonblocking(true)?;
    }
    let mut lanes: Vec<Lane> = scripts
        .iter()
        .zip(ranges)
        .map(|(f, r)| Lane::new(f, r))
        .collect();
    let mut stats = OpenStats {
        sojourn_ns: Vec::with_capacity(total),
        ..OpenStats::default()
    };
    let mut released = 0usize;
    let mut answered = 0usize;
    let start = Instant::now();
    while answered < total {
        let now_ns = start.elapsed().as_nanos() as u64;
        let due = ((now_ns as f64 / interval_ns) as usize + 1).min(total);
        if due > released {
            let late = now_ns - due_ns(released);
            stats.max_late = stats.max_late.max(Duration::from_nanos(late));
            for g in released..due {
                let lane = &mut lanes[g % n];
                lane.sent += 1;
                lane.release = scripts[g % n].start(lane.sent);
            }
            released = due;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            let (frames, lane) = (scripts[c], &mut lanes[c]);
            if lane.written < lane.release {
                flush(conn, frames, lane)?;
            }
            if lane.acked < lane.sent {
                let replies = conn.pump()?;
                if replies > 0 {
                    let now_ns = start.elapsed().as_nanos() as u64;
                    for k in 0..replies {
                        let g = (lane.acked - ranges[c].start + k) * n + c;
                        stats.sojourn_ns.push(now_ns.saturating_sub(due_ns(g)));
                    }
                    lane.acked += replies;
                    answered += replies;
                }
            }
        }
        // Nothing outstanding and the next frame not due for a while:
        // sleep most of the gap, spin the rest. A generator that spins
        // through every gap competes with the reactor for the sandbox's
        // CPU allowance and gets both descheduled for milliseconds.
        if answered == released && released < total {
            let gap_ns = due_ns(released).saturating_sub(start.elapsed().as_nanos() as u64);
            if gap_ns > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(gap_ns - SPIN_NS));
            }
        }
        std::hint::spin_loop();
    }
    let wall = start.elapsed();
    stats.phase = PhaseStats {
        wall,
        frames: total as u64,
        steady_rate: total as f64 / wall.as_secs_f64(),
    };
    for conn in conns.iter() {
        conn.set_nonblocking(false)?;
    }
    Ok(stats)
}

/// Closed loop with one request in flight in total: frame `i` of each
/// range goes out on connection `i % n` only after the previous reply
/// arrived. Pushes every round trip, in nanoseconds, to `round_trips`.
pub fn run_alternating(
    conns: &mut [Conn],
    scripts: &[&Frames],
    ranges: &[Range<usize>],
    rec: &mut Recorder,
    round_trips: &mut Vec<u64>,
) -> io::Result<PhaseStats> {
    let per_conn = ranges[0].len();
    let total = (per_conn * conns.len()) as u64;
    let start = Instant::now();
    let mut rates = ChunkRates::new(total, start);
    for i in 0..per_conn {
        for (c, conn) in conns.iter_mut().enumerate() {
            let frame = ranges[c].start + i;
            let block = (i * ranges.len() + c) as u32;
            let sent = Instant::now();
            rec.time("send", ROOT, block, || {
                conn.stream.write_all(scripts[c].slice(frame, frame + 1))
            })?;
            rec.time("read", ROOT, block, || -> io::Result<()> {
                while conn.pump()? == 0 {}
                Ok(())
            })?;
            let now = Instant::now();
            round_trips.push((now - sent).as_nanos() as u64);
            rates.progress(block as u64 + 1, now);
        }
    }
    Ok(rates.finish(total, start))
}
