//! HTTP/1.1 client side: keep-alive connections with pipelining, a
//! response parser, and a readiness wait with a sub-millisecond timeout.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Readiness wait over raw descriptors. `ppoll` takes its timeout as a
/// `timespec`, so the generator can sleep until the next due request
/// with microsecond precision and still wake the moment a response or a
/// writable pipe is ready; std offers no such wait.
pub mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::time::Duration;

    /// Readable.
    pub const POLLIN: c_short = 0x001;
    /// Writable.
    pub const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Wait until a descriptor in `fds` is ready or `timeout` passes.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(3600) as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()`
        // `#[repr(C)]` pollfd structs the kernel may write `revents` into;
        // `ts` outlives the call; a null sigmask keeps the signal mask.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// The server announced `Connection: close`.
    pub close: bool,
}

/// Parse one complete response off the front of `buf`, returning it and
/// the bytes it used, or `None` while it is still incomplete.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("no content-length"))?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Ok(Some((
        Response {
            status,
            body,
            close,
        },
        total,
    )))
}

/// The request bytes for `GET path`.
pub fn request_bytes(path: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
}

/// A keep-alive connection: requests are written as they fall due and
/// answered in order, so several may be in flight (pipelining).
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Set once the server announced `Connection: close`.
    pub closing: bool,
    /// Requests written on this socket.
    pub sent: usize,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            rbuf: Vec::with_capacity(64 * 1024),
            closing: false,
            sent: 0,
        })
    }

    /// Replace the socket with a fresh one (after `Connection: close`).
    pub fn reopen(&mut self) -> io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read what the socket holds (call after readiness) and return the
    /// complete responses. `Ok(None)` means the peer closed.
    pub fn read_ready(&mut self, out: &mut Vec<Response>) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.rbuf.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Some((resp, len)) = parse_response(&self.rbuf[used..])? {
            used += len;
            self.closing |= resp.close;
            out.push(resp);
        }
        self.rbuf.drain(..used);
        Ok(true)
    }

    /// One blocking request/response round trip.
    pub fn get(&mut self, path: &str, timeout: Duration) -> io::Result<Response> {
        if self.closing {
            self.reopen()?;
        }
        let mut req = Vec::new();
        request_bytes(path, &mut req);
        self.sent += 1;
        self.send(&req)?;
        let deadline = Instant::now() + timeout;
        let mut got = Vec::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "request timed out"));
            }
            let mut fds = [sys::PollFd {
                fd: self.fd(),
                events: sys::POLLIN,
                revents: 0,
            }];
            if sys::wait(&mut fds, deadline - now)? == 0 {
                continue;
            }
            if !self.read_ready(&mut got)? {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "server closed the connection",
                ));
            }
            if let Some(resp) = got.pop() {
                return Ok(resp);
            }
        }
    }
}

/// One request on a fresh connection (probes during set-up).
pub fn get_once(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    Conn::open(addr)?.get(path, timeout)
}

/// Value of a top-level unsigned integer field in a flat JSON body.
pub fn json_u64(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let start = body.find(&key)? + key.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}
