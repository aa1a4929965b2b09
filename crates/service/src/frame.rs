//! Length-prefixed binary frames for permutation payloads.
//!
//! The NDJSON protocol pays base-10 rendering and parsing for every `perm`
//! entry — the dominant payload of an ORDER response. After a client
//! negotiates `{"cmd":"HELLO","frames":"binary"}`, responses keep their
//! single JSON header line but replace `"perm":[…]` with
//! `"perm_frame":true`, and one binary frame per marked body follows the
//! line immediately (in marker order — at most one for ORDER, one per
//! marked slot for BATCH).
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SOPM"
//! 4       1     version (1)
//! 5       1     element width in bytes (4 or 8)
//! 6       2     reserved (0)
//! 8       8     u64 element count n
//! 16      n*w   elements: new position → old index, each < n
//! ```
//!
//! The width is 4 unless the permutation has more than `u32::MAX` entries.
//! Readers validate magic, version, width, a size cap, and that every
//! element is in `0..n`, so a corrupt frame is an error, never a bogus
//! permutation.

use std::io::{self, Read};

/// Frame magic: "Spectral Order PerM".
pub const PERM_FRAME_MAGIC: [u8; 4] = *b"SOPM";

/// Binary frame format version.
pub const PERM_FRAME_VERSION: u8 = 1;

/// Upper bound on accepted element counts (2³² entries ≈ 34 GB at width
/// 8) — a decode-side guard so a corrupt or hostile header cannot make the
/// reader allocate unboundedly.
pub const MAX_PERM_FRAME_LEN: u64 = 1 << 32;

/// How response payloads are framed on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameMode {
    /// Everything is newline-delimited JSON (the default, always available).
    #[default]
    Ndjson,
    /// JSON header lines + binary permutation frames (negotiated via HELLO).
    Binary,
}

impl FrameMode {
    /// The wire name used in HELLO negotiation.
    pub fn wire_name(self) -> &'static str {
        match self {
            FrameMode::Ndjson => "ndjson",
            FrameMode::Binary => "binary",
        }
    }

    /// Parses a HELLO `frames` value.
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "ndjson" | "json" => FrameMode::Ndjson,
            "binary" => FrameMode::Binary,
            _ => return None,
        })
    }
}

/// Renders a permutation as one complete binary frame (header + payload).
pub fn encode_perm_frame(perm: &[usize]) -> Vec<u8> {
    let n = perm.len();
    let width: u8 = if n > u32::MAX as usize { 8 } else { 4 };
    let mut out = Vec::with_capacity(16 + n * width as usize);
    out.extend_from_slice(&PERM_FRAME_MAGIC);
    out.push(PERM_FRAME_VERSION);
    out.push(width);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    if width == 4 {
        for &v in perm {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
    } else {
        for &v in perm {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
    }
    out
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad perm frame: {msg}"))
}

/// Reads one binary perm frame from `r`, validating the header and that the
/// payload is a plausible permutation (every element in `0..n`).
pub fn read_perm_frame(r: &mut impl Read) -> io::Result<Vec<usize>> {
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    if header[0..4] != PERM_FRAME_MAGIC {
        return Err(bad("wrong magic"));
    }
    if header[4] != PERM_FRAME_VERSION {
        return Err(bad("unsupported version"));
    }
    let width = header[5] as usize;
    if width != 4 && width != 8 {
        return Err(bad("element width must be 4 or 8"));
    }
    let n = u64::from_le_bytes(header[8..16].try_into().unwrap());
    if n > MAX_PERM_FRAME_LEN {
        return Err(bad("element count exceeds the frame size cap"));
    }
    let n = n as usize;
    let mut payload = vec![0u8; n * width];
    r.read_exact(&mut payload)?;
    let mut perm = Vec::with_capacity(n);
    if width == 4 {
        for chunk in payload.chunks_exact(4) {
            let v = u32::from_le_bytes(chunk.try_into().unwrap()) as usize;
            if v >= n {
                return Err(bad("element out of range"));
            }
            perm.push(v);
        }
    } else {
        for chunk in payload.chunks_exact(8) {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            if v >= n as u64 {
                return Err(bad("element out of range"));
            }
            perm.push(v as usize);
        }
    }
    Ok(perm)
}

/// Renders a permutation as the NDJSON array text `[p0,p1,…]` — the exact
/// bytes `"perm":…` carries on the wire, cached alongside the binary frame
/// so hits skip base-10 rendering entirely.
pub fn encode_perm_json(perm: &[usize]) -> String {
    let mut out = String::with_capacity(perm.len() * 7 + 2);
    out.push('[');
    for (i, &v) in perm.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(itoa(v).as_str());
    }
    out.push(']');
    out
}

/// Minimal integer-to-string without going through `format!` in the hot
/// loop.
fn itoa(v: usize) -> String {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).unwrap().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        for perm in [vec![], vec![0], vec![2, 0, 1], (0..1000).rev().collect()] {
            let frame = encode_perm_frame(&perm);
            assert_eq!(&frame[0..4], &PERM_FRAME_MAGIC);
            let back = read_perm_frame(&mut frame.as_slice()).unwrap();
            assert_eq!(back, perm);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let good = encode_perm_frame(&[1, 0, 2]);
        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(read_perm_frame(&mut bad_magic.as_slice()).is_err());
        // Wrong version.
        let mut bad_ver = good.clone();
        bad_ver[4] = 9;
        assert!(read_perm_frame(&mut bad_ver.as_slice()).is_err());
        // Bad width.
        let mut bad_width = good.clone();
        bad_width[5] = 3;
        assert!(read_perm_frame(&mut bad_width.as_slice()).is_err());
        // Out-of-range element.
        let mut bad_elem = good.clone();
        bad_elem[16..20].copy_from_slice(&7u32.to_le_bytes());
        assert!(read_perm_frame(&mut bad_elem.as_slice()).is_err());
        // Truncated payload.
        let short = &good[..good.len() - 1];
        assert!(read_perm_frame(&mut &short[..]).is_err());
        // Absurd count.
        let mut huge = good.clone();
        huge[8..16].copy_from_slice(&(MAX_PERM_FRAME_LEN + 1).to_le_bytes());
        assert!(read_perm_frame(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn fault_plane_corrupted_frames_never_panic() {
        use se_faults::{sites, FaultPlane};
        let perm: Vec<usize> = (0..64).rev().collect();
        let good = encode_perm_frame(&perm);
        let faults = FaultPlane::seeded(0xF0A7);
        faults.arm_times(sites::WIRE_CORRUPT, 256);
        let mut rejected = 0;
        for _ in 0..256 {
            let mut bytes = good.clone();
            assert!(faults.corrupt(sites::WIRE_CORRUPT, &mut bytes));
            match read_perm_frame(&mut bytes.as_slice()) {
                // A flip in the payload *bits* of an in-range element can
                // yield another valid permutation-frame payload; what the
                // decoder must guarantee is error-or-value, never a panic
                // or an out-of-range element.
                Ok(decoded) => assert!(decoded.iter().all(|&v| v < perm.len())),
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(faults.fired(sites::WIRE_CORRUPT), 256);
        assert!(rejected > 0, "corruption must be detectable");
        // The untouched frame still decodes — corruption never leaks into
        // the caller's buffer lifecycle.
        assert_eq!(read_perm_frame(&mut good.as_slice()).unwrap(), perm);
    }

    #[test]
    fn json_rendering_matches_format_macro() {
        for perm in [vec![], vec![0], vec![12, 7, 1000, 3]] {
            let expect = format!(
                "[{}]",
                perm.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            assert_eq!(encode_perm_json(&perm), expect);
        }
    }

    #[test]
    fn frame_mode_wire_names() {
        assert_eq!(FrameMode::from_wire("binary"), Some(FrameMode::Binary));
        assert_eq!(FrameMode::from_wire("ndjson"), Some(FrameMode::Ndjson));
        assert_eq!(FrameMode::from_wire("carrier-pigeon"), None);
        assert_eq!(FrameMode::default(), FrameMode::Ndjson);
    }
}
