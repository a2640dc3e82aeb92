//! A timing and byte-counting wrapper for both halves of an in-memory
//! client↔server stream.
//!
//! Both halves of one connection share a [`Meter`]. Bytes are counted on
//! every write, always: that is the exact wire count. When tracing, every
//! read or write that moves data is also timestamped, and
//! [`exchanges`] turns the event list into request/response exchanges
//! (client send → server read → server's first response byte → client
//! done), which the workloads record as spans.
//!
//! Each lane runs its client and server halves on one thread (the
//! vendored executor is single-threaded), so the meter is `Rc<RefCell>`.

use crate::spans::SpanLog;
use std::cell::RefCell;
use std::io;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;
use tokio::io::{AsyncRead, AsyncWrite, DuplexStream, ReadBuf};

/// Who moved bytes, and in which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// The client wrote toward the server.
    ClientWrite,
    /// The server read client bytes.
    ServerRead,
    /// The server wrote toward the client.
    ServerWrite,
    /// The client read server bytes.
    ClientRead,
}

/// Per-connection counters and (when tracing) the event log.
#[derive(Debug, Default)]
pub struct Meter {
    /// Octets the client wrote.
    pub to_server: u64,
    /// Octets the server wrote.
    pub to_client: u64,
    trace: bool,
    events: Vec<(Instant, Ev)>,
}

impl Meter {
    /// Octets in both directions.
    pub fn bytes(&self) -> u64 {
        self.to_server + self.to_client
    }

    /// Take the events logged since the last call.
    pub fn take_events(&mut self) -> Vec<(Instant, Ev)> {
        std::mem::take(&mut self.events)
    }
}

/// A meter shared by the two halves of one connection.
pub type SharedMeter = Rc<RefCell<Meter>>;

/// One half of a metered duplex stream.
pub struct Tap {
    inner: DuplexStream,
    meter: SharedMeter,
    client: bool,
}

/// A metered in-memory connection: `(client half, server half, meter)`.
pub fn pair(trace: bool) -> (Tap, Tap, SharedMeter) {
    let (a, b) = tokio::io::duplex(1 << 20);
    let meter = Rc::new(RefCell::new(Meter {
        trace,
        ..Meter::default()
    }));
    (
        Tap {
            inner: a,
            meter: Rc::clone(&meter),
            client: true,
        },
        Tap {
            inner: b,
            meter: Rc::clone(&meter),
            client: false,
        },
        meter,
    )
}

impl AsyncRead for Tap {
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<io::Result<()>> {
        let this = self.get_mut();
        let before = buf.filled().len();
        let res = Pin::new(&mut this.inner).poll_read(cx, buf);
        if buf.filled().len() > before {
            let mut m = this.meter.borrow_mut();
            if m.trace {
                let ev = if this.client {
                    Ev::ClientRead
                } else {
                    Ev::ServerRead
                };
                m.events.push((Instant::now(), ev));
            }
        }
        res
    }
}

impl AsyncWrite for Tap {
    fn poll_write(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>> {
        let this = self.get_mut();
        let res = Pin::new(&mut this.inner).poll_write(cx, buf);
        if let Poll::Ready(Ok(n)) = res {
            if n > 0 {
                let mut m = this.meter.borrow_mut();
                let ev = if this.client {
                    m.to_server += n as u64;
                    Ev::ClientWrite
                } else {
                    m.to_client += n as u64;
                    Ev::ServerWrite
                };
                if m.trace {
                    m.events.push((Instant::now(), ev));
                }
            }
        }
        res
    }

    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Pin::new(&mut self.get_mut().inner).poll_flush(cx)
    }

    fn poll_shutdown(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Pin::new(&mut self.get_mut().inner).poll_shutdown(cx)
    }
}

/// One request/response turn reconstructed from a connection's events.
/// The four instants are non-decreasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// The client's last write before the server read that started the
    /// server's turn (the request leaving the client).
    pub sent: Instant,
    /// The server's read that preceded its first response byte.
    pub server_read: Instant,
    /// The server's first response byte.
    pub server_write: Instant,
    /// The client's last read before its next request (or the end of
    /// the call): the response fully received.
    pub received: Instant,
}

/// Split a call's event list into exchanges. A server turn ends at each
/// server write that directly follows a server read; its request is the
/// last client write before that read. Control traffic (h2
/// WINDOW_UPDATE, h3 control streams) never starts a turn on its own,
/// because it draws no server write.
pub fn exchanges(events: &[(Instant, Ev)]) -> Vec<Exchange> {
    let mut out: Vec<Exchange> = Vec::new();
    let mut last_cw: Option<Instant> = None;
    let mut pending_read: Option<(Instant, Option<Instant>)> = None;
    for &(t, ev) in events {
        match ev {
            Ev::ClientWrite => last_cw = Some(t),
            Ev::ServerRead => pending_read = Some((t, last_cw)),
            Ev::ServerWrite => {
                if let Some((read, cw)) = pending_read.take() {
                    let floor = out.last().map(|x| x.server_write);
                    let sent = cw.unwrap_or(read);
                    let sent = floor.map_or(sent, |f| sent.max(f)).min(read);
                    out.push(Exchange {
                        sent,
                        server_read: read,
                        server_write: t,
                        received: t,
                    });
                }
            }
            Ev::ClientRead => {}
        }
    }
    // `received`: the last client read after the server's first byte and
    // before the next exchange's request.
    for i in 0..out.len() {
        let lo = out[i].server_write;
        let hi = out.get(i + 1).map(|x| x.sent);
        let last = events
            .iter()
            .filter(|&&(t, ev)| ev == Ev::ClientRead && t >= lo && hi.is_none_or(|h| t <= h))
            .map(|&(t, _)| t)
            .max();
        if let Some(t) = last {
            out[i].received = t;
        }
    }
    out
}

/// Record each exchange in `events` as three sibling spans under
/// `parent`: `<proto>.to_server`, `server.busy` and `<proto>.to_client`.
/// Returns the number of exchanges.
pub fn record_exchanges(
    log: &mut SpanLog,
    events: &[(Instant, Ev)],
    parent: usize,
    unit: u64,
    h3: bool,
) -> usize {
    let (to_server, to_client) = if h3 {
        ("http3.to_server", "http3.to_client")
    } else {
        ("http2.to_server", "http2.to_client")
    };
    let xs = exchanges(events);
    for x in &xs {
        log.record(to_server, x.sent, x.server_read, Some(parent), unit);
        log.record(
            "server.busy",
            x.server_read,
            x.server_write,
            Some(parent),
            unit,
        );
        log.record(to_client, x.server_write, x.received, Some(parent), unit);
    }
    xs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn exchanges_skip_control_writes() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let events = vec![
            (at(0), Ev::ClientWrite),  // request 1
            (at(1), Ev::ServerRead),   //
            (at(3), Ev::ServerWrite),  // first response byte
            (at(4), Ev::ServerWrite),  //
            (at(5), Ev::ClientRead),   //
            (at(6), Ev::ClientWrite),  // WINDOW_UPDATE
            (at(6), Ev::ClientRead),   // response tail
            (at(9), Ev::ClientWrite),  // request 2
            (at(10), Ev::ServerRead),  // WINDOW_UPDATE + request 2
            (at(12), Ev::ServerWrite), //
            (at(13), Ev::ClientRead),  //
        ];
        let x = exchanges(&events);
        assert_eq!(x.len(), 2);
        assert_eq!(
            (x[0].sent, x[0].server_read, x[0].server_write),
            (at(0), at(1), at(3))
        );
        assert_eq!(x[0].received, at(6));
        assert_eq!(
            (x[1].sent, x[1].server_read, x[1].server_write),
            (at(9), at(10), at(12))
        );
        assert_eq!(x[1].received, at(13));
    }

    #[test]
    fn unprompted_server_writes_are_not_exchanges() {
        let t0 = Instant::now();
        let events = vec![(t0, Ev::ServerWrite), (t0, Ev::ClientRead)];
        assert!(exchanges(&events).is_empty());
    }
}
