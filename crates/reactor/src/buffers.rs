//! Per-connection byte plumbing: a line-extracting read buffer and a
//! chunked write queue with byte accounting.
//!
//! Both are plain in-memory structures with no I/O of their own; the
//! reactor loop feeds [`LineBuf`] from nonblocking reads and drains
//! [`WriteQueue`] into nonblocking writes. The write queue's byte count is
//! what the reactor's backpressure watermarks are measured against: a
//! connection whose queue grows past the high watermark stops being read
//! until the peer drains it below the low watermark.

use crate::scan::{find, lanes_eq};
use std::collections::VecDeque;
use std::io::{self, Write};

/// Why a [`LineBuf`] rejected input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// A single line exceeded the configured cap — the peer is either
    /// hostile or speaking a different protocol; the connection must close.
    TooLong,
    /// A complete line was not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::TooLong => write!(f, "request line exceeds the size cap"),
            LineError::NotUtf8 => write!(f, "request line is not valid UTF-8"),
        }
    }
}

/// Index of the first `\n` in `bytes`, eight bytes per step.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    find(bytes, |w| lanes_eq(w, b'\n'))
}

/// An append-only read buffer that hands back complete `\n`-terminated
/// lines. Scanning is incremental (bytes are examined once, a word at a
/// time — see [`crate::scan`]), and consumed prefixes are compacted away
/// opportunistically so a long-lived connection does not grow without
/// bound.
#[derive(Debug)]
pub struct LineBuf {
    buf: Vec<u8>,
    /// Start of un-consumed bytes in `buf`.
    start: usize,
    /// First position (absolute in `buf`) not yet scanned for `\n`.
    scanned: usize,
    /// Maximum bytes a single line may occupy.
    max_line: usize,
}

impl LineBuf {
    /// A buffer rejecting lines longer than `max_line` bytes.
    pub fn new(max_line: usize) -> LineBuf {
        LineBuf {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_line: max_line.max(1),
        }
    }

    /// Appends freshly read bytes. Fails with [`LineError::TooLong`] when
    /// the partial line under construction exceeds the cap.
    pub fn extend(&mut self, bytes: &[u8]) -> Result<(), LineError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() - self.start > self.max_line {
            // Only a cap violation if no newline exists in the window —
            // scan before giving up (pop_line would release the space).
            // Bytes before `scanned` are known to hold none.
            if find_newline(&self.buf[self.scanned.max(self.start)..]).is_none() {
                return Err(LineError::TooLong);
            }
        }
        Ok(())
    }

    /// Extracts the next complete line, without its terminating `\n` (a
    /// preceding `\r` is kept; callers trim). `Ok(None)` means no complete
    /// line is buffered yet.
    pub fn pop_line(&mut self) -> Result<Option<String>, LineError> {
        match find_newline(&self.buf[self.scanned.max(self.start)..]) {
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() - self.start > self.max_line {
                    return Err(LineError::TooLong);
                }
                // Fully consumed buffers reset for free.
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                    self.scanned = 0;
                }
                Ok(None)
            }
            Some(rel) => {
                let nl = self.scanned.max(self.start) + rel;
                let line = self.buf[self.start..nl].to_vec();
                self.start = nl + 1;
                self.scanned = self.start;
                // Compact once the dead prefix dominates the buffer.
                if self.start > 4096 && self.start * 2 > self.buf.len() {
                    self.buf.drain(..self.start);
                    self.start = 0;
                    self.scanned = 0;
                }
                match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => Err(LineError::NotUtf8),
                }
            }
        }
    }

    /// Bytes buffered but not yet returned as lines (i.e. a partial line
    /// is pending exactly when this is nonzero after `pop_line` drained).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// A FIFO of pre-rendered response byte chunks plus a cursor into the
/// front chunk. `write_to` pushes as much as the socket accepts and stops
/// cleanly on `WouldBlock`; total queued bytes are tracked for the
/// reactor's backpressure watermarks.
#[derive(Debug, Default)]
pub struct WriteQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written.
    offset: usize,
    /// Total un-written bytes across all chunks.
    bytes: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Enqueues one response's bytes (ignored when empty).
    pub fn push(&mut self, chunk: Vec<u8>) {
        if !chunk.is_empty() {
            self.bytes += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Un-written bytes currently queued.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Writes queued bytes into `w` until the queue empties or the write
    /// would block. `Ok(n)` is the number of bytes written; a genuine I/O
    /// error (not `WouldBlock`/`Interrupted`) is returned for the caller
    /// to close the connection on.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut written = 0usize;
        while let Some(front) = self.chunks.front() {
            match w.write(&front[self.offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    written += n;
                    self.offset += n;
                    self.bytes -= n;
                    if self.offset == front.len() {
                        self.chunks.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_across_reads() {
        let mut lb = LineBuf::new(1024);
        lb.extend(b"{\"cmd\":\"ST").unwrap();
        assert_eq!(lb.pop_line().unwrap(), None);
        lb.extend(b"ATS\"}\n{\"cmd\":\"METRICS\"}\npartial")
            .unwrap();
        assert_eq!(
            lb.pop_line().unwrap().as_deref(),
            Some("{\"cmd\":\"STATS\"}")
        );
        assert_eq!(
            lb.pop_line().unwrap().as_deref(),
            Some("{\"cmd\":\"METRICS\"}")
        );
        assert_eq!(lb.pop_line().unwrap(), None);
        assert_eq!(lb.pending(), 7);
        lb.extend(b"\n").unwrap();
        assert_eq!(lb.pop_line().unwrap().as_deref(), Some("partial"));
        assert_eq!(lb.pending(), 0);
    }

    #[test]
    fn oversized_line_is_rejected() {
        let mut lb = LineBuf::new(8);
        assert_eq!(lb.extend(b"123456789"), Err(LineError::TooLong));
        // With a newline inside the window the complete line still comes out.
        let mut lb = LineBuf::new(8);
        lb.extend(b"12345\n6789").unwrap();
        assert_eq!(lb.pop_line().unwrap().as_deref(), Some("12345"));
    }

    #[test]
    fn non_utf8_line_is_an_error() {
        let mut lb = LineBuf::new(64);
        lb.extend(&[0xFF, 0xFE, b'\n']).unwrap();
        assert_eq!(lb.pop_line(), Err(LineError::NotUtf8));
    }

    #[test]
    fn compaction_keeps_pending_bytes() {
        let mut lb = LineBuf::new(1 << 20);
        // Enough consumed prefix to trigger compaction, then a partial.
        for _ in 0..64 {
            lb.extend(&[b'x'; 128]).unwrap();
            lb.extend(b"\n").unwrap();
            assert!(lb.pop_line().unwrap().is_some());
        }
        lb.extend(b"tail").unwrap();
        assert_eq!(lb.pending(), 4);
        lb.extend(b"\n").unwrap();
        assert_eq!(lb.pop_line().unwrap().as_deref(), Some("tail"));
    }

    #[test]
    fn write_queue_survives_would_block() {
        struct Stingy {
            accepted: Vec<u8>,
            budget: usize,
        }
        impl Write for Stingy {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::from(io::ErrorKind::WouldBlock));
                }
                let n = buf.len().min(3).min(self.budget);
                self.budget -= n;
                self.accepted.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::new();
        q.push(b"hello ".to_vec());
        q.push(b"world".to_vec());
        assert_eq!(q.bytes(), 11);
        let mut w = Stingy {
            accepted: Vec::new(),
            budget: 7,
        };
        assert_eq!(q.write_to(&mut w).unwrap(), 7);
        assert_eq!(q.bytes(), 4);
        assert!(!q.is_empty());
        w.budget = 100;
        assert_eq!(q.write_to(&mut w).unwrap(), 4);
        assert!(q.is_empty());
        assert_eq!(w.accepted, b"hello world");
    }
}
