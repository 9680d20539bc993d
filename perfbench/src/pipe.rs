//! An in-memory `Read + Write` transport for driving
//! [`hmd_serve::service::pump`] without sockets.
//!
//! Reads drain the inbound buffer in bulk and report `WouldBlock` when it
//! is empty; writes append to the outbound buffer. Both copies are
//! `memcpy`s, so the pipe bills almost nothing to `pump`.

use std::cell::{RefCell, RefMut};
use std::io::{ErrorKind, Read, Write};
use std::rc::Rc;

#[derive(Default)]
struct State {
    inbound: Vec<u8>,
    read_at: usize,
    outbound: Vec<u8>,
}

/// One end of the pipe; clones share the buffers (single-threaded).
#[derive(Clone, Default)]
pub struct Pipe(Rc<RefCell<State>>);

impl Pipe {
    /// A pipe with empty buffers.
    pub fn new() -> Pipe {
        Pipe::default()
    }

    /// The inbound buffer the generator appends frames to.
    pub fn inbound(&self) -> RefMut<'_, Vec<u8>> {
        RefMut::map(self.0.borrow_mut(), |s| &mut s.inbound)
    }

    /// Moves everything written so far into `into` (cleared first).
    pub fn take_outbound(&self, into: &mut Vec<u8>) {
        into.clear();
        std::mem::swap(into, &mut self.0.borrow_mut().outbound);
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut s = self.0.borrow_mut();
        let State {
            inbound, read_at, ..
        } = &mut *s;
        let avail = &inbound[*read_at..];
        if avail.is_empty() {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        *read_at += n;
        if *read_at == inbound.len() {
            inbound.clear();
            *read_at = 0;
        }
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().outbound.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_drain_then_would_block() {
        let mut p = Pipe::new();
        p.inbound().extend_from_slice(b"hello");
        let mut buf = [0u8; 3];
        assert_eq!(p.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf, b"hel");
        assert_eq!(p.read(&mut buf).unwrap(), 2);
        assert_eq!(p.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
        p.write_all(b"out").unwrap();
        let mut out = Vec::new();
        p.take_outbound(&mut out);
        assert_eq!(out, b"out");
        p.take_outbound(&mut out);
        assert!(out.is_empty());
    }
}
