//! In-memory duplex transport with socket-shaped semantics.
//!
//! The simulation drives the real [`hmd_serve::service`] connection pump,
//! which is generic over `Read + Write` and expects nonblocking-socket
//! behaviour: `WouldBlock` when nothing can move *right now*, `Ok(0)` on
//! read for peer-closed, `BrokenPipe` on write to a closed peer. A
//! [`duplex`] pair provides exactly that over two `Rc<RefCell<…>>` byte
//! queues — no OS sockets, no wallclock, no nondeterminism.
//!
//! Per-**call** read/write quotas model slow or dribbling peers: a capped
//! endpoint moves at most `quota` bytes per `read`/`write` call, which
//! forces the incremental-decode and partial-flush paths without limiting
//! how many bytes move per virtual tick — the pump loops until
//! `WouldBlock`, so a frame always completes within the tick it was sent.
//! That invariant is what keeps virtual-time flow independent of frame
//! sizes (and therefore of the wire protocol in use).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::rc::Rc;

/// One direction of a duplex pair: a byte queue plus a closed flag.
struct Lane {
    buf: VecDeque<u8>,
    /// Set when the writing endpoint hangs up. Readers drain the
    /// remaining bytes, then see `Ok(0)` (EOF), like TCP after FIN.
    closed: bool,
}

impl Lane {
    fn new() -> Rc<RefCell<Lane>> {
        Rc::new(RefCell::new(Lane {
            buf: VecDeque::new(),
            closed: false,
        }))
    }
}

/// One endpoint of an in-memory duplex connection.
pub struct SimStream {
    /// Lane this endpoint reads from (peer writes into it).
    rx: Rc<RefCell<Lane>>,
    /// Lane this endpoint writes into (peer reads from it).
    tx: Rc<RefCell<Lane>>,
    /// Per-call byte cap on reads; 0 = uncapped.
    read_quota: usize,
    /// Per-call byte cap on writes; 0 = uncapped.
    write_quota: usize,
}

/// Builds a connected pair of endpoints. Bytes written to one side become
/// readable on the other, in order, with no loss.
pub fn duplex() -> (SimStream, SimStream) {
    let a2b = Lane::new();
    let b2a = Lane::new();
    let a = SimStream {
        rx: Rc::clone(&b2a),
        tx: Rc::clone(&a2b),
        read_quota: 0,
        write_quota: 0,
    };
    let b = SimStream {
        rx: a2b,
        tx: b2a,
        read_quota: 0,
        write_quota: 0,
    };
    (a, b)
}

impl SimStream {
    /// Caps bytes moved per `read`/`write` **call** (0 = uncapped). This
    /// dribbles I/O shapes without throttling per-tick throughput.
    pub fn set_quotas(&mut self, read: usize, write: usize) {
        self.read_quota = read;
        self.write_quota = write;
    }

    /// Hangs up both directions: the peer reads remaining bytes then EOF,
    /// and writes toward this endpoint fail with `BrokenPipe`.
    pub fn close(&mut self) {
        self.rx.borrow_mut().closed = true;
        self.tx.borrow_mut().closed = true;
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut lane = self.rx.borrow_mut();
        if lane.buf.is_empty() {
            return if lane.closed {
                Ok(0) // EOF after FIN
            } else {
                Err(ErrorKind::WouldBlock.into())
            };
        }
        let cap = if self.read_quota == 0 {
            buf.len()
        } else {
            buf.len().min(self.read_quota)
        };
        let n = cap.min(lane.buf.len());
        // The ring's two halves, copied in bulk: `n` bytes from the front.
        let (front, back) = lane.buf.as_slices();
        let from_front = n.min(front.len());
        buf[..from_front].copy_from_slice(&front[..from_front]);
        buf[from_front..n].copy_from_slice(&back[..n - from_front]);
        lane.buf.drain(..n);
        Ok(n)
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut lane = self.tx.borrow_mut();
        if lane.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let n = if self.write_quota == 0 {
            buf.len()
        } else {
            buf.len().min(self.write_quota)
        };
        lane.buf.extend(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_the_pair_in_order() {
        let (mut a, mut b) = duplex();
        a.write_all(b"hello").unwrap();
        let mut got = [0u8; 5];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");
        assert!(matches!(
            b.read(&mut got).unwrap_err().kind(),
            ErrorKind::WouldBlock
        ));
    }

    #[test]
    fn close_gives_eof_after_drain_and_broken_pipe_on_write() {
        let (mut a, mut b) = duplex();
        a.write_all(b"xy").unwrap();
        a.close();
        let mut got = [0u8; 8];
        assert_eq!(b.read(&mut got).unwrap(), 2);
        assert_eq!(b.read(&mut got).unwrap(), 0, "EOF after buffered bytes");
        assert_eq!(b.write(b"reply").unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn quotas_cap_per_call_but_not_total() {
        let (mut a, mut b) = duplex();
        a.set_quotas(0, 3);
        assert_eq!(a.write(b"abcdefgh").unwrap(), 3, "write quota caps a call");
        a.write_all(b"abcdefgh").unwrap(); // write_all loops past the quota
        b.set_quotas(2, 0);
        let mut got = [0u8; 16];
        assert_eq!(b.read(&mut got).unwrap(), 2, "read quota caps a call");
        let mut total = 2;
        while total < 11 {
            total += b.read(&mut got).unwrap();
        }
        assert_eq!(total, 11, "every byte still arrives");
    }
}
