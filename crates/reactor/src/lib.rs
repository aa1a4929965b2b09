//! # se-reactor — a std-only poll(2) reactor for line protocols
//!
//! The socket engine under `spectral-orderd`'s v2 pipelined wire protocol.
//! One small crate, zero dependencies: a readiness loop over a minimal
//! `poll(2)` FFI shim ([`poll`]), per-connection line/write buffers
//! ([`buffers`]) over a word-at-a-time byte search ([`scan`], shared with
//! the service's JSON codec), and the event loop itself ([`reactor`]) with a
//! cross-thread inbox+waker so worker pools can hand finished responses
//! back to the loop that owns the connection.
//!
//! What it replaces: thread-per-connection, where 1024 idle keep-alive
//! sessions cost 1024 blocked threads and a response's bytes trickle out
//! through several small `write(2)` calls behind Nagle. Here idle
//! connections cost one pollfd each, responses are queued as single
//! pre-rendered chunks (one syscall on the happy path, `TCP_NODELAY` on),
//! and a bounded number of loop threads multiplexes everything.
//!
//! ## Shape
//!
//! ```text
//! listener ─ loop 0 ─┬─ round-robin ──► loop 1..N  (inbox + waker)
//!                    │
//!   poll([waker, listener, conn…]) ──► read → LineBuf → Handler::on_line
//!                    ▲                 write ◄─ WriteQueue ◄─ ConnCtx::send
//!   worker thread ───┘ Handle::post(token, msg) → Handler::on_message
//! ```
//!
//! The [`reactor::Handler`] never blocks: protocol decode/dispatch runs on
//! the loop, compute runs elsewhere, and completions come back through
//! [`reactor::Handle::post`]. Backpressure is byte-counted per connection
//! (reads pause past a high watermark on the write queue), slow-loris
//! peers are culled by an I/O-progress deadline that idle connections
//! never arm, and a graceful stop flushes every queue before closing.
//!
//! ## Minimal use
//!
//! ```no_run
//! use se_reactor::reactor::{start, ConnCtx, Handler, ReactorConfig};
//!
//! struct Upper;
//! impl Handler<()> for Upper {
//!     fn on_line(&mut self, ctx: &mut ConnCtx<'_>, line: String) {
//!         let mut out = line.to_uppercase().into_bytes();
//!         out.push(b'\n');
//!         ctx.send(out);
//!     }
//!     fn on_message(&mut self, _ctx: &mut ConnCtx<'_>, _msg: ()) {}
//! }
//!
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let group = start(listener, ReactorConfig::default(), |_tok, _peer, _h| Upper).unwrap();
//! # group.handle().stop();
//! group.join();
//! ```
//!
//! On non-Unix targets the poll shim degrades to a short tick (everything
//! reported ready; nonblocking I/O sorts out reality) — same semantics,
//! more idle wakeups.

pub mod buffers;
pub mod poll;
pub mod reactor;
pub mod scan;

pub use buffers::{LineBuf, LineError, WriteQueue};
pub use reactor::{start, ConnCtx, Handle, Handler, ReactorConfig, ReactorGroup, Token};
