//! Wire protocol: length-prefixed JSON frames over a local Unix socket.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | length (u32 BE)| UTF-8 JSON payload  |
//! +----------------+---------------------+
//! ```
//!
//! Length prefixing (rather than newline delimiting) keeps payloads
//! free to contain embedded newlines — packed artifacts and HIL kernel
//! sources ride inside JSON strings. A frame longer than [`MAX_FRAME`]
//! is rejected before allocation, so a corrupt or adversarial length
//! word cannot balloon memory. Payloads are written by the object
//! writer of [`crate::json`] and read by its typed field reader, the
//! codec every trace line and journal record goes through too — no
//! external crates on either end.
//!
//! Two subsystems speak this framing: the `ifkod` daemon (over its Unix
//! socket) and the [`crate::worker`] evaluation pool (over per-worker
//! socketpairs). Daemon requests are objects with a `cmd` discriminator:
//!
//! | `cmd`      | fields                                                        |
//! |------------|---------------------------------------------------------------|
//! | `ping`     | —                                                             |
//! | `tune`     | `kernel` \| `src`, `machine`, `context`, `n?`, `seed?`, `full?`, `strategy?`, `budget?` |
//! | `query`    | `kernel`, `prec`, `machine`, `context`                        |
//! | `metrics`  | —                                                             |
//! | `stats`    | —                                                             |
//! | `compact`  | —                                                             |
//! | `pack`     | —                                                             |
//! | `shutdown` | —                                                             |
//!
//! Responses always carry `"ok":true|false`; failures add `"error"`.

use std::hint::spin_loop;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Maximum frame payload size (16 MiB): a packed artifact with tens of
/// thousands of records fits with room to spare.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let len = payload.len() as u64;
    if len > MAX_FRAME as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// How long a [`Polling`] read polls before it blocks: a few answers from
/// a subject `ifkod` keeps open, which take tens of µs each.
const POLL: Duration = Duration::from_micros(200);

/// A socket whose reads poll for up to `POLL` before they block. A
/// blocking read parks the thread, and how soon a shared host runs a
/// parked thread again — on this core or on another, idle one — varies
/// by more than a warm request takes; data that arrives while a read
/// polls is read without that wake-up.
pub struct Polling<'a>(pub &'a UnixStream);

impl Read for Polling<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut stream = self.0;
        stream.set_nonblocking(true)?;
        let t0 = Instant::now();
        let polled = loop {
            match stream.read(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock && t0.elapsed() < POLL => spin_loop(),
                done => break done,
            }
        };
        stream.set_nonblocking(false)?;
        match polled {
            Err(e) if e.kind() == ErrorKind::WouldBlock => stream.read(buf),
            done => done,
        }
    }
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed between messages); a connection torn
/// mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-length",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

pub use crate::json::esc;
use crate::json::obj;

/// Build an error response.
pub fn error_response(msg: &str) -> String {
    obj().field("ok", false).field("error", msg).finish()
}

/// Build a trivial success response.
pub fn ok_response() -> String {
    obj().field("ok", true).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, "second\nwith newline").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"cmd\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second\nwith newline");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_frames_and_oversized_lengths_error() {
        // Length claims 100 bytes, only 10 arrive.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"0123456789");
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err(), "mid-frame EOF is an error");

        // A length word over MAX_FRAME is rejected before allocation.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());

        // EOF mid-length-word is an error too.
        let mut r = std::io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
    }
}
