//! Pluggable event sinks.

use crate::event::Event;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Where events go once the fast-path gate is open.
///
/// Implementations must be cheap enough to sit behind a hot loop at chunk
/// granularity and must tolerate concurrent `record` calls (the serving
/// path emits from worker threads).
pub trait Recorder: Send + Sync {
    /// Whether installing this recorder should arm the instrumentation
    /// fast path. The default is `true`; [`NoopRecorder`] answers `false`,
    /// which is what makes "Noop installed" indistinguishable from
    /// "nothing installed" on the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: Event);
}

/// Discards everything — and, via [`Recorder::enabled`], keeps the global
/// gate closed so instrumentation sites never even construct events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// An in-memory ring buffer of the most recent events. [`crate::TraceFile`]
/// drains one of these into a Chrome-trace file after a run; tests use it
/// to assert on emitted events.
#[derive(Debug)]
pub struct RingRecorder {
    /// The buffered events and the number evicted so far, under one lock.
    buf: Mutex<(VecDeque<Event>, u64)>,
    capacity: usize,
}

impl RingRecorder {
    /// A ring holding at most `capacity` events; older events are dropped
    /// first (and counted — see [`RingRecorder::dropped`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Mutex::new((VecDeque::with_capacity(capacity.min(4096)), 0)),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<Event>, u64)> {
        self.buf.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes every buffered event, oldest first, leaving the ring empty.
    pub fn take(&self) -> Vec<Event> {
        self.lock().0.drain(..).collect()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().1
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: Event) {
        let mut buf = self.lock();
        if buf.0.len() == self.capacity {
            buf.0.pop_front();
            buf.1 += 1;
        }
        buf.0.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(value: u64) -> Event {
        Event::Counter { name: "c", labels: "".into(), tid: 1, value, t_ns: value }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingRecorder::with_capacity(3);
        for v in 0..5 {
            ring.record(counter(v));
        }
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring
            .take()
            .into_iter()
            .map(|e| match e {
                Event::Counter { value, .. } => value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert!(ring.take().is_empty());
    }
}
