//! The event loop: N reactor threads multiplexing every connection over
//! `poll(2)`, with an inbox+waker path for worker threads to hand finished
//! responses back.
//!
//! Design in one paragraph: thread 0 owns the (nonblocking) listener and
//! round-robins accepted sockets across loops. Each loop keeps its
//! connections in a map keyed by [`Token`] (`loop_idx << 48 | counter`),
//! polls them level-triggered with read interest gated on backpressure and
//! write interest gated on queued bytes, extracts complete protocol lines
//! through [`LineBuf`], and calls into a
//! user-supplied [`Handler`]. Handlers never block: long work is handed to
//! an external pool, and the pool's completion callback calls
//! [`Handle::post`], which drops the message in the owning loop's inbox and
//! pokes its [`Waker`] — the loop wakes, runs
//! [`Handler::on_message`], and flushes the response bytes in the same
//! iteration. Idle keep-alive connections cost one pollfd and zero threads.
//!
//! Two deadline planes exist per connection: an I/O-progress deadline the
//! reactor owns (armed only while a partial line is buffered or writes are
//! pending, so slow-loris peers die but idle ones are free), and a user
//! deadline the handler arms via [`ConnCtx::set_deadline`] for
//! request-timeout bookkeeping ([`Handler::on_deadline`]).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::buffers::{LineBuf, WriteQueue};
use crate::poll::{poll_sources, Interest, PollSource, Waker};

/// Identifies one connection for the lifetime of the reactor group:
/// the owning loop index in the top 16 bits, a per-loop counter below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

const LOOP_SHIFT: u32 = 48;

impl Token {
    fn loop_idx(self) -> usize {
        (self.0 >> LOOP_SHIFT) as usize
    }
}

/// Per-connection callbacks. One handler instance exists per connection,
/// created by the factory passed to [`start`]; all callbacks run on the
/// connection's owning reactor thread, so the handler needs no internal
/// locking. `M` is the message type worker threads post back via
/// [`Handle::post`].
pub trait Handler<M> {
    /// A complete protocol line arrived (without its trailing newline).
    fn on_line(&mut self, ctx: &mut ConnCtx<'_>, line: String);
    /// A message posted to this connection's token arrived.
    fn on_message(&mut self, ctx: &mut ConnCtx<'_>, msg: M);
    /// The user deadline armed via [`ConnCtx::set_deadline`] elapsed. The
    /// deadline is cleared before this runs; re-arm it if needed.
    fn on_deadline(&mut self, _ctx: &mut ConnCtx<'_>, _now: Instant) {}
    /// The connection is being removed (EOF, error, timeout, or shutdown).
    fn on_close(&mut self) {}
}

/// The handler's view of its connection inside a callback.
pub struct ConnCtx<'a> {
    token: Token,
    wq: &'a mut WriteQueue,
    deadline: &'a mut Option<Instant>,
    close_after_flush: &'a mut bool,
    close_now: &'a mut bool,
}

impl ConnCtx<'_> {
    /// This connection's token (what workers post completions to).
    pub fn token(&self) -> Token {
        self.token
    }

    /// Queues response bytes; the reactor writes them as the socket
    /// accepts. Push one complete wire message per call so writes coalesce
    /// into single syscalls.
    pub fn send(&mut self, bytes: Vec<u8>) {
        self.wq.push(bytes);
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn queued_bytes(&self) -> usize {
        self.wq.bytes()
    }

    /// Arms (or clears) the user deadline; [`Handler::on_deadline`] fires
    /// once when it elapses.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        *self.deadline = deadline;
    }

    /// The currently armed user deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        *self.deadline
    }

    /// Close once everything queued has been written; no further lines are
    /// read.
    pub fn close_after_flush(&mut self) {
        *self.close_after_flush = true;
    }

    /// Close immediately, discarding unwritten bytes.
    pub fn close_now(&mut self) {
        *self.close_now = true;
    }
}

/// Tuning knobs for a reactor group.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Number of event-loop threads (loop 0 owns the listener).
    pub threads: usize,
    /// Group-wide cap on open connections; over-cap accepts get
    /// `busy_line` and are dropped.
    pub max_conns: usize,
    /// Cap on a single protocol line; longer lines close the connection.
    pub max_line_bytes: usize,
    /// Stop reading from a connection whose write queue exceeds this.
    pub high_watermark: usize,
    /// Resume reading once the write queue drains below this.
    pub low_watermark: usize,
    /// Close a connection that has a partial line buffered or unwritten
    /// output and makes no I/O progress for this long. `None` disables.
    pub io_timeout: Option<Duration>,
    /// Set `TCP_NODELAY` on accepted sockets (responses are coalesced into
    /// single writes, so Nagle only adds latency).
    pub nodelay: bool,
    /// How long a graceful [`Handle::stop`] keeps flushing before forcing
    /// connections closed.
    pub stop_grace: Duration,
    /// Bytes written (best-effort) to connections rejected over
    /// `max_conns`; empty means drop silently.
    pub busy_line: Vec<u8>,
    /// Incremented once per waker-initiated loop wakeup, if provided.
    pub wakeups: Option<Arc<AtomicU64>>,
    /// Incremented once per connection rejected over `max_conns`, if
    /// provided.
    pub rejects: Option<Arc<AtomicU64>>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            threads: 1,
            max_conns: 1024,
            max_line_bytes: 64 << 20,
            high_watermark: 8 << 20,
            low_watermark: 1 << 20,
            io_timeout: None,
            nodelay: true,
            stop_grace: Duration::from_secs(1),
            busy_line: Vec::new(),
            wakeups: None,
            rejects: None,
        }
    }
}

enum Cmd<M> {
    /// An accepted socket routed to this loop.
    Conn(TcpStream),
    /// A worker completion (or any cross-thread event) for a connection.
    Msg(u64, M),
}

struct LoopShared<M> {
    inbox: Mutex<Vec<Cmd<M>>>,
    waker: Waker,
}

struct Shared<M> {
    loops: Vec<LoopShared<M>>,
    stopping: AtomicBool,
    open_conns: AtomicU64,
}

/// A cloneable handle into a running reactor group: workers use it to post
/// completions; the owner uses it to stop the group.
pub struct Handle<M> {
    shared: Arc<Shared<M>>,
}

impl<M> Clone for Handle<M> {
    fn clone(&self) -> Handle<M> {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M> Handle<M> {
    /// Delivers `msg` to the connection identified by `token` and wakes its
    /// loop. Returns `false` if the token's loop index is invalid; a
    /// message for a connection that has since closed is silently dropped
    /// by the loop.
    pub fn post(&self, token: Token, msg: M) -> bool {
        let Some(slot) = self.shared.loops.get(token.loop_idx()) else {
            return false;
        };
        {
            let mut inbox = slot.inbox.lock().unwrap_or_else(|e| e.into_inner());
            inbox.push(Cmd::Msg(token.0, msg));
        }
        slot.waker.wake();
        true
    }

    /// Begins a graceful stop: accepting ends, every connection is flushed
    /// then closed (bounded by `stop_grace`), and the loop threads exit.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        for slot in &self.shared.loops {
            slot.waker.wake();
        }
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// Connections currently open across all loops.
    pub fn open_connections(&self) -> u64 {
        self.shared.open_conns.load(Ordering::Acquire)
    }
}

/// A running reactor group: keeps the loop threads joinable.
pub struct ReactorGroup<M> {
    handle: Handle<M>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl<M> ReactorGroup<M> {
    /// The group's posting/stopping handle.
    pub fn handle(&self) -> Handle<M> {
        self.handle.clone()
    }

    /// Joins every loop thread. Call [`Handle::stop`] first or this blocks
    /// until something else stops the group.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts `cfg.threads` event loops serving `listener`. `factory` is
/// called on the owning loop thread once per accepted connection to build
/// its [`Handler`]; it receives the connection's token, the peer IP, and a
/// [`Handle`] for posting completions from worker threads.
pub fn start<M, H, F>(
    listener: TcpListener,
    cfg: ReactorConfig,
    factory: F,
) -> io::Result<ReactorGroup<M>>
where
    M: Send + 'static,
    H: Handler<M> + 'static,
    F: Fn(Token, Option<IpAddr>, Handle<M>) -> H + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let threads = cfg.threads.max(1);
    let mut loops = Vec::with_capacity(threads);
    for _ in 0..threads {
        loops.push(LoopShared {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        });
    }
    let shared = Arc::new(Shared {
        loops,
        stopping: AtomicBool::new(false),
        open_conns: AtomicU64::new(0),
    });
    let factory = Arc::new(factory);
    let mut joins = Vec::with_capacity(threads);
    let mut listener = Some(listener);
    for idx in 0..threads {
        let shared = Arc::clone(&shared);
        let factory = Arc::clone(&factory);
        let cfg = cfg.clone();
        let listener = listener.take();
        joins.push(
            thread::Builder::new()
                .name(format!("se-reactor-{idx}"))
                .spawn(move || {
                    EventLoop {
                        idx,
                        cfg,
                        shared,
                        factory,
                        listener,
                        conns: HashMap::new(),
                        next_local: 1,
                        next_loop: 0,
                        stop_at: None,
                        read_buf: vec![0u8; 16 << 10],
                    }
                    .run()
                })
                .expect("spawn reactor thread"),
        );
    }
    Ok(ReactorGroup {
        handle: Handle { shared },
        threads: joins,
    })
}

struct Conn<H> {
    stream: TcpStream,
    lines: LineBuf,
    wq: WriteQueue,
    handler: H,
    /// Handler-armed deadline; cleared before `on_deadline` runs.
    user_deadline: Option<Instant>,
    /// Last moment bytes moved in either direction.
    last_progress: Instant,
    /// Reads suspended until the write queue drains below the low mark.
    paused: bool,
    close_after_flush: bool,
    close_now: bool,
}

impl<H> Conn<H> {
    /// Whether the reactor-owned I/O deadline is armed: only while a
    /// partial line is buffered or output is unwritten.
    fn io_pending(&self) -> bool {
        self.lines.pending() > 0 || !self.wq.is_empty()
    }
}

struct EventLoop<M, H, F> {
    idx: usize,
    cfg: ReactorConfig,
    shared: Arc<Shared<M>>,
    factory: Arc<F>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn<H>>,
    next_local: u64,
    next_loop: usize,
    stop_at: Option<Instant>,
    read_buf: Vec<u8>,
}

/// Runs one handler callback with split borrows of the connection.
fn with_ctx<M, H: Handler<M>, R>(
    token: Token,
    conn: &mut Conn<H>,
    f: impl FnOnce(&mut H, &mut ConnCtx<'_>) -> R,
) -> R {
    let Conn {
        handler,
        wq,
        user_deadline,
        close_after_flush,
        close_now,
        ..
    } = conn;
    let mut ctx = ConnCtx {
        token,
        wq,
        deadline: user_deadline,
        close_after_flush,
        close_now,
    };
    f(handler, &mut ctx)
}

impl<M, H, F> EventLoop<M, H, F>
where
    M: Send + 'static,
    H: Handler<M> + 'static,
    F: Fn(Token, Option<IpAddr>, Handle<M>) -> H + Send + Sync + 'static,
{
    fn run(mut self) {
        loop {
            // Observe a stop request once: seal every connection.
            if self.stop_at.is_none() && self.shared.stopping.load(Ordering::Acquire) {
                self.stop_at = Some(Instant::now() + self.cfg.stop_grace);
                self.listener = None;
                for conn in self.conns.values_mut() {
                    conn.close_after_flush = true;
                }
            }
            if let Some(at) = self.stop_at {
                if self.conns.is_empty() || Instant::now() >= at {
                    break;
                }
            }

            self.drain_inbox();

            let timeout = self.poll_timeout();
            let mut tokens: Vec<u64> = self.conns.keys().copied().collect();
            tokens.sort_unstable();
            let slot = &self.shared.loops[self.idx];
            let mut entries: Vec<(PollSource<'_>, Interest)> = Vec::with_capacity(tokens.len() + 2);
            entries.push((
                PollSource::Waker(&slot.waker),
                Interest {
                    read: true,
                    write: false,
                },
            ));
            if let Some(l) = &self.listener {
                entries.push((
                    PollSource::Listener(l),
                    Interest {
                        read: true,
                        write: false,
                    },
                ));
            }
            let conn_base = entries.len();
            for tok in &tokens {
                let conn = &self.conns[tok];
                entries.push((
                    PollSource::Tcp(&conn.stream),
                    Interest {
                        read: !conn.paused && !conn.close_after_flush,
                        write: !conn.wq.is_empty(),
                    },
                ));
            }
            let mut ready = Vec::new();
            match poll_sources(&entries, &mut ready, timeout) {
                Ok(_) => {}
                Err(_) => {
                    // Pathological poll failure: back off instead of spinning.
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
            drop(entries);

            if ready[0].read && slot.waker.drain() {
                if let Some(w) = &self.cfg.wakeups {
                    w.fetch_add(1, Ordering::Relaxed);
                }
                // Wakeups mean fresh inbox commands; handle them now so a
                // completion posted mid-poll flushes this same iteration.
                self.drain_inbox();
            }

            let mut to_close: Vec<u64> = Vec::new();
            let now = Instant::now();
            for (i, tok) in tokens.iter().enumerate() {
                let r = ready[conn_base + i];
                if !(r.read || r.write || r.closed) {
                    continue;
                }
                let Some(conn) = self.conns.get_mut(tok) else {
                    continue;
                };
                let mut alive = true;
                if r.write {
                    alive = flush_conn(conn, now);
                }
                if alive && r.read {
                    alive = self.handle_readable(*tok, now);
                }
                let Some(conn) = self.conns.get_mut(tok) else {
                    continue;
                };
                if alive && r.closed && !r.read {
                    // Peer is gone and nothing is readable: collect it.
                    alive = false;
                }
                if alive && conn.close_now {
                    alive = false;
                }
                if alive && conn.close_after_flush && conn.wq.is_empty() {
                    alive = false;
                }
                if !alive {
                    to_close.push(*tok);
                }
            }

            // Deadline sweep + watermark resume across every connection.
            let now = Instant::now();
            for (tok, conn) in self.conns.iter_mut() {
                if to_close.contains(tok) {
                    continue;
                }
                if conn.paused && conn.wq.bytes() <= self.cfg.low_watermark {
                    conn.paused = false;
                }
                if let Some(t) = self.cfg.io_timeout {
                    if conn.io_pending() && now.duration_since(conn.last_progress) >= t {
                        to_close.push(*tok);
                        continue;
                    }
                }
                if conn.user_deadline.is_some_and(|d| now >= d) {
                    conn.user_deadline = None;
                    with_ctx(Token(*tok), conn, |h, ctx| h.on_deadline(ctx, now));
                    if !flush_conn(conn, now)
                        || conn.close_now
                        || (conn.close_after_flush && conn.wq.is_empty())
                    {
                        to_close.push(*tok);
                    }
                }
            }

            for tok in to_close {
                self.close_conn(tok);
            }

            // Accept only after this round's closes are reaped, so a peer
            // that re-dials right after hanging up is counted against
            // `max_conns` without its own dead connection.
            if self.listener.is_some() && ready[1].read {
                self.accept_some();
            }
        }

        // Forced exit: anything still open closes un-flushed.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for tok in tokens {
            self.close_conn(tok);
        }
    }

    fn drain_inbox(&mut self) {
        let cmds = {
            let mut inbox = self.shared.loops[self.idx]
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *inbox)
        };
        let now = Instant::now();
        for cmd in cmds {
            match cmd {
                Cmd::Conn(stream) => self.register(stream),
                Cmd::Msg(tok, msg) => {
                    let Some(conn) = self.conns.get_mut(&tok) else {
                        continue; // connection already closed; drop the message
                    };
                    with_ctx(Token(tok), conn, |h, ctx| h.on_message(ctx, msg));
                    // Flush in the same iteration the completion landed.
                    if !flush_conn(conn, now)
                        || conn.close_now
                        || (conn.close_after_flush && conn.wq.is_empty())
                    {
                        self.close_conn(tok);
                    }
                }
            }
        }
    }

    fn poll_timeout(&self) -> Option<Duration> {
        let mut next: Option<Instant> = None;
        let mut min_to = |t: Instant| match next {
            Some(cur) if cur <= t => {}
            _ => next = Some(t),
        };
        for conn in self.conns.values() {
            if let Some(d) = conn.user_deadline {
                min_to(d);
            }
            if let Some(t) = self.cfg.io_timeout {
                if conn.io_pending() {
                    min_to(conn.last_progress + t);
                }
            }
        }
        if let Some(at) = self.stop_at {
            min_to(at);
        }
        next.map(|t| t.saturating_duration_since(Instant::now()))
    }

    fn accept_some(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let mut local: Vec<TcpStream> = Vec::new();
        // Bounded accepts per iteration so established traffic stays fair.
        for _ in 0..64 {
            match listener.accept() {
                Ok((stream, _)) => {
                    let open = self.shared.open_conns.load(Ordering::Acquire);
                    if open + local.len() as u64 >= self.cfg.max_conns as u64
                        || self.shared.stopping.load(Ordering::Acquire)
                    {
                        if let Some(c) = &self.cfg.rejects {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                        reject_busy(&self.cfg.busy_line, &stream);
                        continue;
                    }
                    let target = self.next_loop % self.shared.loops.len();
                    self.next_loop = self.next_loop.wrapping_add(1);
                    if target == self.idx {
                        local.push(stream);
                    } else {
                        self.shared.open_conns.fetch_add(1, Ordering::AcqRel);
                        let slot = &self.shared.loops[target];
                        {
                            let mut inbox = slot.inbox.lock().unwrap_or_else(|e| e.into_inner());
                            inbox.push(Cmd::Conn(stream));
                        }
                        slot.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        for stream in local {
            self.shared.open_conns.fetch_add(1, Ordering::AcqRel);
            self.register(stream);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        if self.cfg.nodelay {
            let _ = stream.set_nodelay(true);
        }
        let peer = stream.peer_addr().ok().map(|a| a.ip());
        let token = Token(((self.idx as u64) << LOOP_SHIFT) | self.next_local);
        self.next_local += 1;
        let handle = Handle {
            shared: Arc::clone(&self.shared),
        };
        let handler = (self.factory)(token, peer, handle);
        let mut conn = Conn {
            stream,
            lines: LineBuf::new(self.cfg.max_line_bytes),
            wq: WriteQueue::new(),
            handler,
            user_deadline: None,
            last_progress: Instant::now(),
            paused: false,
            close_after_flush: self.stop_at.is_some(),
            close_now: false,
        };
        if self.stop_at.is_some() {
            // Raced a graceful stop while in transit between loops.
            conn.close_now = true;
        }
        self.conns.insert(token.0, conn);
        if self.stop_at.is_some() {
            self.close_conn(token.0);
        }
    }

    /// Reads until `WouldBlock` (bounded per iteration), extracts complete
    /// lines into the handler, then flushes whatever the handler queued.
    /// Returns whether the connection is still alive.
    fn handle_readable(&mut self, tok: u64, now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(&tok) else {
            return false;
        };
        let mut eof = false;
        let mut broken = false;
        for _ in 0..4 {
            match (&conn.stream).read(&mut self.read_buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_progress = now;
                    if conn.lines.extend(&self.read_buf[..n]).is_err() {
                        broken = true;
                        break;
                    }
                    if n < self.read_buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if !broken {
            loop {
                match conn.lines.pop_line() {
                    Ok(Some(line)) => {
                        with_ctx(Token(tok), conn, |h, ctx| h.on_line(ctx, line));
                        if conn.close_now {
                            return false;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        if !flush_conn(conn, now) {
            return false;
        }
        if conn.wq.bytes() > self.cfg.high_watermark {
            conn.paused = true;
        }
        !(eof || broken)
    }

    fn close_conn(&mut self, tok: u64) {
        if let Some(mut conn) = self.conns.remove(&tok) {
            conn.handler.on_close();
            self.shared.open_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Pushes queued bytes to the socket; returns whether the connection
/// survives (false on hard write error).
fn flush_conn<H>(conn: &mut Conn<H>, now: Instant) -> bool {
    if conn.wq.is_empty() {
        return true;
    }
    match conn.wq.write_to(&mut &conn.stream) {
        Ok(n) => {
            if n > 0 {
                conn.last_progress = now;
            }
            true
        }
        Err(_) => false,
    }
}

/// Best-effort busy notice on an over-cap socket; never blocks the loop.
fn reject_busy(busy_line: &[u8], stream: &TcpStream) {
    if busy_line.is_empty() {
        return;
    }
    let _ = stream.set_nonblocking(true);
    let _ = (&mut &*stream).write(busy_line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// Echoes every line; lines starting with `defer ` are answered from a
    /// worker thread after a delay (exercising the post/wakeup path and
    /// out-of-order completion).
    struct Echo {
        token: Token,
        handle: Handle<String>,
    }

    impl Handler<String> for Echo {
        fn on_line(&mut self, ctx: &mut ConnCtx<'_>, line: String) {
            if let Some(rest) = line.strip_prefix("defer ") {
                let handle = self.handle.clone();
                let token = self.token;
                let rest = rest.to_string();
                thread::spawn(move || {
                    thread::sleep(Duration::from_millis(40));
                    handle.post(token, rest);
                });
            } else if line == "quit" {
                ctx.send(b"bye\n".to_vec());
                ctx.close_after_flush();
            } else {
                let mut out = line.into_bytes();
                out.push(b'\n');
                ctx.send(out);
            }
        }

        fn on_message(&mut self, ctx: &mut ConnCtx<'_>, msg: String) {
            let mut out = msg.into_bytes();
            out.push(b'\n');
            ctx.send(out);
        }
    }

    fn start_echo(cfg: ReactorConfig) -> (std::net::SocketAddr, ReactorGroup<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let group = start(listener, cfg, |token, _peer, handle| Echo { token, handle }).unwrap();
        (addr, group)
    }

    #[test]
    fn echoes_pipelined_lines() {
        let (addr, group) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"one\ntwo\nthree\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        for want in ["one", "two", "three"] {
            line.clear();
            r.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), want);
        }
        group.handle().stop();
        group.join();
    }

    #[test]
    fn worker_post_completes_out_of_order() {
        let (addr, group) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        // The deferred line is sent first but must complete second.
        c.write_all(b"defer slow\nfast\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "fast");
        line.clear();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "slow");
        group.handle().stop();
        group.join();
    }

    #[test]
    fn over_cap_connections_get_busy_line() {
        let cfg = ReactorConfig {
            max_conns: 1,
            busy_line: b"busy\n".to_vec(),
            ..ReactorConfig::default()
        };
        let (addr, group) = start_echo(cfg);
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"ping\n").unwrap();
        let mut r = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ping");
        // Second connection: rejected with the busy notice, then EOF.
        let second = TcpStream::connect(addr).unwrap();
        let mut r2 = BufReader::new(second);
        let mut got = String::new();
        r2.read_line(&mut got).unwrap();
        assert_eq!(got.trim_end(), "busy");
        got.clear();
        assert_eq!(r2.read_line(&mut got).unwrap(), 0, "rejected conn closes");
        drop(r);
        drop(first);
        group.handle().stop();
        group.join();
    }

    #[test]
    fn redial_after_close_is_accepted_at_the_connection_cap() {
        /// Echoes lines; `park` blocks the loop thread on the test's
        /// barrier twice (once to say "parked", once to be released).
        struct Parker(Arc<std::sync::Barrier>);
        impl Handler<()> for Parker {
            fn on_line(&mut self, ctx: &mut ConnCtx<'_>, line: String) {
                if line == "park" {
                    self.0.wait();
                    self.0.wait();
                } else {
                    ctx.send(format!("{line}\n").into_bytes());
                }
            }
            fn on_message(&mut self, _ctx: &mut ConnCtx<'_>, _msg: ()) {}
        }
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ReactorConfig {
            max_conns: 1,
            busy_line: b"busy\n".to_vec(),
            ..ReactorConfig::default()
        };
        let parker = Arc::clone(&barrier);
        let group = start(listener, cfg, move |_t, _p, _h| Parker(Arc::clone(&parker))).unwrap();

        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(b"ping\n").unwrap();
        let mut line = String::new();
        BufReader::new(a.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(line.trim_end(), "ping");
        // While the loop is parked, A hangs up and B dials: the loop's next
        // poll sees A's close and B's pending accept in the same round.
        a.write_all(b"park\n").unwrap();
        barrier.wait();
        drop(a);
        let mut b = TcpStream::connect(addr).unwrap();
        barrier.wait();

        b.write_all(b"ping\n").unwrap();
        line.clear();
        BufReader::new(b).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ping", "the re-dial was refused as busy");
        group.handle().stop();
        group.join();
    }

    #[test]
    fn close_after_flush_delivers_last_bytes() {
        let (addr, group) = start_echo(ReactorConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"quit\n").unwrap();
        let mut r = BufReader::new(c);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "bye");
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 0);
        group.handle().stop();
        group.join();
    }

    #[test]
    fn io_timeout_kills_partial_lines_but_not_idle() {
        let cfg = ReactorConfig {
            io_timeout: Some(Duration::from_millis(80)),
            ..ReactorConfig::default()
        };
        let (addr, group) = start_echo(cfg);
        // Idle connection: survives well past the io timeout.
        let idle = TcpStream::connect(addr).unwrap();
        // Slow-loris: partial line, no newline — must be disconnected.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"never-finished").unwrap();
        thread::sleep(Duration::from_millis(300));
        let mut r = BufReader::new(loris);
        let mut buf = String::new();
        assert_eq!(r.read_line(&mut buf).unwrap(), 0, "loris disconnected");
        // The idle connection still works.
        let mut idle_w = idle.try_clone().unwrap();
        idle_w.write_all(b"still-alive\n").unwrap();
        let mut ri = BufReader::new(idle);
        buf.clear();
        ri.read_line(&mut buf).unwrap();
        assert_eq!(buf.trim_end(), "still-alive");
        group.handle().stop();
        group.join();
    }

    #[test]
    fn multi_loop_round_robin_serves_all_conns() {
        let cfg = ReactorConfig {
            threads: 3,
            ..ReactorConfig::default()
        };
        let (addr, group) = start_echo(cfg);
        let mut conns: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.write_all(format!("hello-{i}\n").as_bytes()).unwrap();
        }
        for (i, c) in conns.into_iter().enumerate() {
            let mut r = BufReader::new(c);
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), format!("hello-{i}"));
        }
        group.handle().stop();
        group.join();
    }

    #[test]
    fn deadline_callback_fires_once() {
        struct Timed;
        impl Handler<()> for Timed {
            fn on_line(&mut self, ctx: &mut ConnCtx<'_>, _line: String) {
                ctx.set_deadline(Some(Instant::now() + Duration::from_millis(30)));
            }
            fn on_message(&mut self, _ctx: &mut ConnCtx<'_>, _msg: ()) {}
            fn on_deadline(&mut self, ctx: &mut ConnCtx<'_>, _now: Instant) {
                ctx.send(b"deadline\n".to_vec());
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let group = start(listener, ReactorConfig::default(), |_t, _p, _h| Timed).unwrap();
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"arm\n").unwrap();
        let mut r = BufReader::new(c);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "deadline");
        group.handle().stop();
        group.join();
    }
}
