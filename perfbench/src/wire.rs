//! A raw protocol client: writes pre-encoded request lines and reads each
//! response back as bytes (the JSON line plus, in binary mode, its
//! permutation frame), so the timed loop does no JSON work and answers
//! can be compared byte for byte.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response as it came off the socket.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The response line, without its newline.
    pub line: Vec<u8>,
    /// The binary permutation frame that followed the line, if any.
    pub frame: Vec<u8>,
}

impl Answer {
    /// Whether the server answered `"ok":true`.
    pub fn ok(&self) -> bool {
        self.line.starts_with(b"{\"ok\":true")
    }

    pub fn degraded(&self) -> bool {
        find(&self.line, b"\"degraded\":true").is_some()
    }

    pub fn cache_hit(&self) -> bool {
        find(&self.line, b"\"cache_hit\":true").is_some()
    }

    /// The v2 response tag.
    pub fn id(&self) -> Option<u64> {
        field_u64(&self.line, b"\"id\":")
    }

    /// The server-side wall-clock the response reports, µs.
    pub fn micros(&self) -> Option<u64> {
        field_u64(&self.line, b"\"micros\":")
    }

    /// The response line with every per-request field removed (`id`,
    /// `cache_hit`, `micros`).
    pub fn canonical_line(&self) -> Vec<u8> {
        let mut line = self.line.clone();
        for key in [&b"\"id\":"[..], b"\"cache_hit\":", b"\"micros\":"] {
            if let Some(start) = find(&line, key) {
                let end = line[start..]
                    .iter()
                    .position(|&b| b == b',' || b == b'}')
                    .map_or(line.len(), |p| start + p);
                // Drop the separating comma with the field.
                let end = if line.get(end) == Some(&b',') {
                    end + 1
                } else {
                    end
                };
                line.drain(start..end);
            }
        }
        line
    }

    /// The answer without its per-request fields: two answers to the same
    /// request must agree on the rest, byte for byte — permutation frame
    /// included.
    pub fn canonical(&self) -> Answer {
        Answer {
            line: self.canonical_line(),
            frame: self.frame.clone(),
        }
    }

    /// Whether this answer equals `canonical` (an answer already passed
    /// through [`Answer::canonical`]) once its own per-request fields go.
    pub fn same_answer(&self, canonical: &Answer) -> bool {
        self.frame == canonical.frame && self.canonical_line() == canonical.line
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn field_u64(line: &[u8], key: &[u8]) -> Option<u64> {
    let start = find(line, key)? + key.len();
    let digits: Vec<u8> = line[start..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// Largest permutation frame the client accepts (elements).
const MAX_FRAME_ELEMENTS: u64 = 1 << 32;

/// A connection speaking pre-encoded lines.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Dials `addr`; with `binary`, negotiates binary permutation frames
    /// and protocol v2 (pipelining) with one HELLO.
    pub fn open(addr: SocketAddr, binary: bool) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(1 << 16, writer.try_clone()?),
            writer,
        };
        if binary {
            conn.send(b"{\"cmd\":\"HELLO\",\"frames\":\"binary\",\"proto\":2}\n")?;
            let mut ack = Answer::default();
            conn.recv(&mut ack)?;
            if find(&ack.line, b"\"proto\":2").is_none() {
                return Err(invalid(format!(
                    "HELLO not acknowledged: {}",
                    String::from_utf8_lossy(&ack.line)
                )));
            }
        }
        Ok(conn)
    }

    /// Writes raw bytes (one or more complete lines).
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Writes a request line from its pre-encoded body and tail.
    pub fn send_parts(&mut self, body: &[u8], tail: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(body)?;
        self.writer.write_all(tail)
    }

    /// Reads one response into `out` (reusing its buffers).
    pub fn recv(&mut self, out: &mut Answer) -> std::io::Result<()> {
        out.line.clear();
        out.frame.clear();
        if self.reader.read_until(b'\n', &mut out.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if out.line.last() == Some(&b'\n') {
            out.line.pop();
        }
        if find(&out.line, b"\"perm_frame\":true").is_some() {
            let mut header = [0u8; 16];
            self.reader.read_exact(&mut header)?;
            if &header[..4] != b"SOPM" || header[4] != 1 || !matches!(header[5], 4 | 8) {
                return Err(invalid("bad permutation frame header".to_string()));
            }
            let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
            if count > MAX_FRAME_ELEMENTS {
                return Err(invalid(format!("frame of {count} elements")));
            }
            let len = count as usize * header[5] as usize;
            out.frame.extend_from_slice(&header);
            out.frame.resize(16 + len, 0);
            self.reader.read_exact(&mut out.frame[16..])?;
        }
        Ok(())
    }

    /// Whether a response (or part of one) is already buffered here, so
    /// reading will not wait for the socket.
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }

    /// The connection's socket, for readiness polling.
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// One request/response exchange.
    pub fn roundtrip(&mut self, line: &[u8]) -> std::io::Result<Answer> {
        self.send(line)?;
        let mut a = Answer::default();
        self.recv(&mut a)?;
        Ok(a)
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The permutation an answer carries (frame or inline `"perm"` array),
/// `new position → old index`.
pub fn permutation(a: &Answer) -> Result<Vec<usize>, String> {
    if !a.frame.is_empty() {
        let width = a.frame[5] as usize;
        return Ok(a.frame[16..]
            .chunks_exact(width)
            .map(|c| match width {
                4 => u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize,
                _ => u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize,
            })
            .collect());
    }
    let text = std::str::from_utf8(&a.line).map_err(|e| e.to_string())?;
    let v = se_service::json::parse(text).map_err(|e| format!("{e:?}"))?;
    v.get("perm")
        .and_then(|p| p.as_arr())
        .ok_or("answer carries no permutation")?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|u| u as usize)
                .ok_or("non-integer perm entry".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(line: &str) -> Answer {
        Answer {
            line: line.as_bytes().to_vec(),
            frame: vec![1, 2, 3],
        }
    }

    #[test]
    fn canonical_drops_per_request_fields_only() {
        let miss = answer(
            r#"{"ok":true,"alg":"RCM","n":3,"stats":{"envelope":2},"cache_hit":false,"micros":812,"perm_frame":true}"#,
        );
        let hit = answer(
            r#"{"ok":true,"id":17,"alg":"RCM","n":3,"stats":{"envelope":2},"cache_hit":true,"micros":9,"perm_frame":true}"#,
        );
        assert_eq!(miss.canonical(), hit.canonical());
        assert!(hit.same_answer(&miss.canonical()));
        assert_eq!(
            String::from_utf8(hit.canonical().line).unwrap(),
            r#"{"ok":true,"alg":"RCM","n":3,"stats":{"envelope":2},"perm_frame":true}"#
        );
        assert_eq!(hit.id(), Some(17));
        assert_eq!(hit.micros(), Some(9));
        assert!(hit.cache_hit() && !miss.cache_hit() && hit.ok());
        let other = answer(
            r#"{"ok":true,"alg":"RCM","n":3,"stats":{"envelope":3},"cache_hit":true,"micros":9,"perm_frame":true}"#,
        );
        assert_ne!(other.canonical(), hit.canonical());
    }

    #[test]
    fn permutation_from_frame_and_inline() {
        let mut frame = b"SOPM\x01\x04\0\0".to_vec();
        frame.extend(3u64.to_le_bytes());
        for v in [2u32, 0, 1] {
            frame.extend(v.to_le_bytes());
        }
        let a = Answer {
            line: b"{\"ok\":true,\"perm_frame\":true}".to_vec(),
            frame,
        };
        assert_eq!(permutation(&a), Ok(vec![2, 0, 1]));
        let b = Answer {
            line: b"{\"ok\":true,\"perm\":[1,2,0]}".to_vec(),
            frame: Vec::new(),
        };
        assert_eq!(permutation(&b), Ok(vec![1, 2, 0]));
    }
}
