//! Deterministic socket-level fault injection, the workspace's one fault
//! vocabulary: it breaks *connections* for the `chaos` example. A
//! [`ChaosPlan`] maps connection indices to [`ConnFault`]s drawn from the
//! workspace's seeded [`SplitMix64`] streams, so one seed fully determines
//! the fault sequence of a chaos run — rerunning with the same seed
//! replays the exact same abuse.
//!
//! [`FaultStream`] wraps a *client-side* stream and misbehaves on the
//! peer's behalf:
//!
//! | fault | wire behavior | what the server must do |
//! |---|---|---|
//! | [`ConnFault::Clean`] | normal request | answer it (control group) |
//! | [`ConnFault::Dribble`] | bytes arrive in tiny delayed chunks | fast dribble: answer; slow dribble: `408` via the arrival budget |
//! | [`ConnFault::ShortWrite`] | every write syscall is partial | answer — partial writes are normal TCP |
//! | [`ConnFault::Disconnect`] | connection reset mid-message | recycle the worker, count the error |
//! | [`ConnFault::Truncate`] | FIN after a byte prefix | `400 truncated`, keep the read side alive |
//! | [`ConnFault::StallKeepAlive`] | completed exchange, then silence | reap the idle peer within the timeout |
//!
//! The severing behaviors go through the [`Severable`] trait rather than
//! `TcpStream` directly so unit tests can drive the injector against an
//! in-memory stream and assert exactly which bytes made it out.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Duration;

use relia_core::seal::SplitMix64;

/// A stream that can end one or both directions early — the two ways a
/// real peer disappears.
pub trait Severable {
    /// Half-close: no more bytes will be written (TCP FIN), but the read
    /// side stays open so the server's error response can still arrive.
    fn sever_write(&mut self) -> io::Result<()>;
    /// Full close of both directions, as abruptly as the transport
    /// allows.
    fn sever_both(&mut self) -> io::Result<()>;
}

impl Severable for TcpStream {
    fn sever_write(&mut self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }

    fn sever_both(&mut self) -> io::Result<()> {
        self.shutdown(Shutdown::Both)
    }
}

/// One connection-level fault, applied by [`FaultStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// No fault — the control group keeping a chaos run honest.
    Clean,
    /// Write at most `chunk` bytes per call, sleeping `delay_ms` after
    /// each. A fast dribble stays inside the server's arrival budget; a
    /// slow one (1 byte every few tens of ms) is a slowloris.
    Dribble { chunk: usize, delay_ms: u64 },
    /// Write at most `max` bytes per call, back to back. Exercises every
    /// partial-write path without changing timing.
    ShortWrite { max: usize },
    /// After `after` bytes, sever both directions and fail further
    /// writes — a peer reset mid-message.
    Disconnect { after: usize },
    /// After `keep` bytes, half-close the write side and silently swallow
    /// the rest — the server sees a truncated message but can still
    /// deliver its `400`.
    Truncate { keep: usize },
    /// Complete the exchange normally, then hold the keep-alive
    /// connection open in silence for `ms` before closing.
    StallKeepAlive { ms: u64 },
}

/// A seeded schedule of connection faults. `fault_for` is a pure function
/// of `(seed, index)` — connections can be launched in any order, or
/// concurrently, and still replay the same schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
}

impl ChaosPlan {
    /// A plan fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosPlan { seed }
    }

    /// The seed, for reporting.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault for connection `index`.
    pub fn fault_for(&self, index: u64) -> ConnFault {
        let mut rng = SplitMix64::stream(self.seed, index);
        // The modulo bias is irrelevant at fault-schedule scales.
        let mut pick = |bound: u64| rng.next_u64() % bound;
        match pick(8) {
            // Weight Clean at 2/8: enough control connections that the
            // suite also proves the server still answers normal traffic.
            0 | 1 => ConnFault::Clean,
            2 => ConnFault::Dribble {
                chunk: 16,
                delay_ms: 1,
            },
            3 => ConnFault::Dribble {
                chunk: 1,
                delay_ms: 30,
            },
            4 => ConnFault::ShortWrite {
                max: 1 + pick(7) as usize,
            },
            5 => ConnFault::Disconnect {
                after: pick(40) as usize,
            },
            6 => ConnFault::Truncate {
                keep: 1 + pick(40) as usize,
            },
            _ => ConnFault::StallKeepAlive { ms: 20 + pick(80) },
        }
    }
}

/// Wraps a client stream and applies one [`ConnFault`] to its write path.
/// Reads pass through untouched — the injector corrupts what the server
/// *receives*, then observes what it answers.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    fault: ConnFault,
    written: usize,
    severed: bool,
}

impl<S: Read + Write + Severable> FaultStream<S> {
    /// Applies `fault` to writes on `inner`.
    pub fn new(inner: S, fault: ConnFault) -> Self {
        FaultStream {
            inner,
            fault,
            written: 0,
            severed: false,
        }
    }

    /// The fault being injected.
    pub fn fault(&self) -> ConnFault {
        self.fault
    }

    /// Total bytes actually forwarded to the peer.
    pub fn forwarded(&self) -> usize {
        self.written
    }

    /// Runs the post-exchange phase of the fault: a
    /// [`ConnFault::StallKeepAlive`] peer lingers in silence for its
    /// configured time, then closes. Every other fault is a no-op.
    pub fn finish(&mut self) {
        if let ConnFault::StallKeepAlive { ms } = self.fault {
            if ms > 0 {
                // Chaos client code, not a request handler: the stall *is*
                // the fault being injected.
                // relia-lint: allow(blocking-in-handler)
                thread::sleep(Duration::from_millis(ms));
            }
            let _ = self.inner.sever_both();
        }
    }

    /// The inner stream, for response reads after faulted writes.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: Read + Write + Severable> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Read + Write + Severable> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        match self.fault {
            ConnFault::Clean | ConnFault::StallKeepAlive { .. } => self.inner.write(buf),
            ConnFault::Dribble { chunk, delay_ms } => {
                let n = buf.len().min(chunk.max(1));
                let n = self.inner.write(&buf[..n])?;
                self.written += n;
                if delay_ms > 0 {
                    // The injected slowloris delay itself.
                    // relia-lint: allow(blocking-in-handler)
                    thread::sleep(Duration::from_millis(delay_ms));
                }
                Ok(n)
            }
            ConnFault::ShortWrite { max } => {
                let n = buf.len().min(max.max(1));
                let n = self.inner.write(&buf[..n])?;
                self.written += n;
                Ok(n)
            }
            ConnFault::Disconnect { after } => {
                if self.written >= after {
                    if !self.severed {
                        self.severed = true;
                        let _ = self.inner.sever_both();
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected disconnect",
                    ));
                }
                let n = buf.len().min(after - self.written);
                let n = self.inner.write(&buf[..n])?;
                self.written += n;
                Ok(n)
            }
            ConnFault::Truncate { keep } => {
                if self.written >= keep {
                    if !self.severed {
                        self.severed = true;
                        let _ = self.inner.sever_write();
                    }
                    // Swallow the rest: the caller's write_all completes
                    // and moves on to reading the server's 400.
                    return Ok(buf.len());
                }
                let n = buf.len().min(keep - self.written);
                let n = self.inner.write(&buf[..n])?;
                self.written += n;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory stand-in for a socket: records what was written and
    /// which directions were severed.
    #[derive(Debug, Default)]
    struct MemStream {
        sent: Vec<u8>,
        write_severed: bool,
        both_severed: bool,
    }

    impl Read for MemStream {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Severable for MemStream {
        fn sever_write(&mut self) -> io::Result<()> {
            self.write_severed = true;
            Ok(())
        }

        fn sever_both(&mut self) -> io::Result<()> {
            self.both_severed = true;
            Ok(())
        }
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a: Vec<_> = (0..32).map(|i| ChaosPlan::new(7).fault_for(i)).collect();
        let b: Vec<_> = (0..32).map(|i| ChaosPlan::new(7).fault_for(i)).collect();
        let c: Vec<_> = (0..32).map(|i| ChaosPlan::new(8).fault_for(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn plans_cover_every_fault_kind() {
        let plan = ChaosPlan::new(42);
        let faults: Vec<_> = (0..256).map(|i| plan.fault_for(i)).collect();
        assert!(faults.iter().any(|f| matches!(f, ConnFault::Clean)));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ConnFault::Dribble { chunk: 1, .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ConnFault::Dribble { chunk: 16, .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ConnFault::ShortWrite { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ConnFault::Disconnect { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ConnFault::Truncate { .. })));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ConnFault::StallKeepAlive { .. })));
    }

    #[test]
    fn dribble_chunks_but_delivers_everything() {
        let mut s = FaultStream::new(
            MemStream::default(),
            ConnFault::Dribble {
                chunk: 3,
                delay_ms: 0,
            },
        );
        s.write_all(b"0123456789").unwrap();
        assert_eq!(s.get_mut().sent, b"0123456789");
        assert_eq!(s.forwarded(), 10);
    }

    #[test]
    fn short_writes_are_partial_but_complete() {
        let mut s = FaultStream::new(MemStream::default(), ConnFault::ShortWrite { max: 2 });
        assert_eq!(s.write(b"abcdef").unwrap(), 2);
        s.write_all(b"cdef").unwrap();
        assert_eq!(s.get_mut().sent, b"abcdef");
    }

    #[test]
    fn disconnect_severs_both_directions_after_its_budget() {
        let mut s = FaultStream::new(MemStream::default(), ConnFault::Disconnect { after: 4 });
        let err = s.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(s.get_mut().sent, b"0123");
        assert!(s.get_mut().both_severed);
        assert!(!s.get_mut().write_severed);
    }

    #[test]
    fn truncate_half_closes_and_swallows_the_tail() {
        let mut s = FaultStream::new(MemStream::default(), ConnFault::Truncate { keep: 5 });
        s.write_all(b"0123456789").unwrap();
        assert_eq!(s.get_mut().sent, b"01234");
        assert!(s.get_mut().write_severed, "FIN on the write side only");
        assert!(
            !s.get_mut().both_severed,
            "read side stays open for the 400"
        );
    }

    #[test]
    fn stall_finish_lingers_then_closes_both() {
        let mut s = FaultStream::new(MemStream::default(), ConnFault::StallKeepAlive { ms: 0 });
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(s.get_mut().sent, b"GET / HTTP/1.1\r\n\r\n");
        s.finish();
        assert!(s.get_mut().both_severed);
    }

    #[test]
    fn clean_passes_bytes_through_untouched() {
        let mut s = FaultStream::new(MemStream::default(), ConnFault::Clean);
        s.write_all(b"hello").unwrap();
        s.finish();
        assert_eq!(s.get_mut().sent, b"hello");
        assert!(!s.get_mut().both_severed);
    }
}
