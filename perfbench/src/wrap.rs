//! Delegating timers around the simulator's extension points.
//!
//! [`TimedHost`] wraps any [`Host`] and [`TimedSink`] any [`FrameSink`].
//! Both forward every call unchanged, so a wrapped simulation draws the
//! same random numbers and emits the same frames as an unwrapped one;
//! `as_any` passes through to the wrapped host, so the harness's
//! downcasts to `IotDevice`/`Phone` still work.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use v6brick_net::Mac;
use v6brick_sim::{Effects, FrameSink, Host, SimTime};

/// Callback totals shared by every host of one class in one home.
#[derive(Debug, Default)]
pub struct Meter {
    pub ns: AtomicU64,
    pub events: AtomicU64,
    pub frames: AtomicU64,
}

impl Meter {
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }
}

/// A host whose callbacks are timed. Totals accumulate locally and are
/// added to the shared [`Meter`] when the simulation drops the host, so
/// the hot path pays two clock reads and no atomic operation.
pub struct TimedHost {
    inner: Box<dyn Host>,
    meter: Arc<Meter>,
    ns: u64,
    events: u64,
    frames: u64,
}

impl TimedHost {
    pub fn new(inner: Box<dyn Host>, meter: Arc<Meter>) -> TimedHost {
        TimedHost {
            inner,
            meter,
            ns: 0,
            events: 0,
            frames: 0,
        }
    }

    fn time(&mut self, f: impl FnOnce(&mut dyn Host)) {
        let t0 = Instant::now();
        f(self.inner.as_mut());
        self.ns += t0.elapsed().as_nanos() as u64;
        self.events += 1;
    }
}

impl Drop for TimedHost {
    fn drop(&mut self) {
        self.meter.ns.fetch_add(self.ns, Ordering::Relaxed);
        self.meter.events.fetch_add(self.events, Ordering::Relaxed);
        self.meter.frames.fetch_add(self.frames, Ordering::Relaxed);
    }
}

impl Host for TimedHost {
    fn mac(&self) -> Mac {
        self.inner.mac()
    }

    fn on_start(&mut self, now: SimTime, fx: &mut Effects) {
        self.time(|h| h.on_start(now, fx));
    }

    fn on_frame(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects) {
        self.frames += 1;
        self.time(|h| h.on_frame(now, frame, fx));
    }

    fn on_timer(&mut self, now: SimTime, token: u64, fx: &mut Effects) {
        self.time(|h| h.on_timer(now, token, fx));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A tap sink whose frames are timed and counted, optionally keeping a
/// sample of the frames for the parser probe.
pub struct TimedSink {
    pub inner: Box<dyn FrameSink>,
    pub ns: u64,
    pub frames: u64,
    pub bytes: u64,
    pub sample: Vec<Vec<u8>>,
    sample_every: u64,
    sample_cap: usize,
}

impl TimedSink {
    pub fn new(inner: Box<dyn FrameSink>, sample_every: u64, sample_cap: usize) -> TimedSink {
        TimedSink {
            inner,
            ns: 0,
            frames: 0,
            bytes: 0,
            sample: Vec::new(),
            sample_every: sample_every.max(1),
            sample_cap,
        }
    }
}

impl FrameSink for TimedSink {
    fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]) {
        let t0 = Instant::now();
        self.inner.on_frame(timestamp_us, frame);
        self.ns += t0.elapsed().as_nanos() as u64;
        if self.frames.is_multiple_of(self.sample_every) && self.sample.len() < self.sample_cap {
            self.sample.push(frame.to_vec());
        }
        self.frames += 1;
        self.bytes += frame.len() as u64;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
