//! Traced-run plumbing, all outside the engine: a timing decorator over
//! the public [`StoreBackend`] trait, a span-collecting [`Recorder`] and
//! the `VmHWM` reader.

use std::time::Instant;

use ftpde_engine::prelude::{Row, StoreBackend, StoreStats};
use ftpde_obs::sync::clock;
use ftpde_obs::sync::plain::{Arc, Mutex, MutexGuard};
use ftpde_obs::{ArgValue, Event, Recorder};
use ftpde_store::CorruptSegment;

/// What the decorator saw during one query.
#[derive(Debug, Default)]
pub struct StoreLog {
    /// Microseconds inside the inner backend's `put`/`put_replicated`.
    pub put_us: f64,
    pub puts: u64,
    /// Microseconds inside the inner backend's `get`.
    pub get_us: f64,
    pub gets: u64,
    /// Data-path calls of any kind: put, get, contains, clear.
    pub calls: u64,
}

/// A [`StoreBackend`] decorator that times `put`, `put_replicated` and
/// `get`, counts data-path calls, and forwards every method unchanged.
#[derive(Debug)]
pub struct TimingStore<'a> {
    inner: &'a dyn StoreBackend,
    log: Mutex<StoreLog>,
}

impl<'a> TimingStore<'a> {
    pub fn new(inner: &'a dyn StoreBackend) -> Self {
        TimingStore { inner, log: Mutex::new(StoreLog::default()) }
    }

    pub fn into_log(self) -> StoreLog {
        self.log.into_inner()
    }

    fn log(&self) -> MutexGuard<'_, StoreLog> {
        self.log.lock()
    }

    fn timed_put(&self, put: impl FnOnce()) {
        let started = clock::now();
        put();
        let put_us = micros(started);
        let mut log = self.log();
        log.put_us += put_us;
        log.puts += 1;
        log.calls += 1;
    }
}

impl StoreBackend for TimingStore<'_> {
    fn put(&self, op: u32, node: usize, rows: Vec<Row>) {
        self.timed_put(|| self.inner.put(op, node, rows));
    }

    fn put_replicated(&self, op: u32, rows: Vec<Row>, nodes: usize) {
        self.timed_put(|| self.inner.put_replicated(op, rows, nodes));
    }

    fn get(&self, op: u32, node: usize) -> Option<Arc<Vec<Row>>> {
        let started = clock::now();
        let rows = self.inner.get(op, node);
        let get_us = micros(started);
        let mut log = self.log();
        log.get_us += get_us;
        log.gets += 1;
        log.calls += 1;
        rows
    }

    fn contains(&self, op: u32, node: usize) -> bool {
        self.log().calls += 1;
        self.inner.contains(op, node)
    }

    fn clear(&self) {
        self.log().calls += 1;
        self.inner.clear();
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn drain_corruptions(&self) -> Vec<CorruptSegment> {
        self.inner.drain_corruptions()
    }
}

/// Collects the engine's `"engine"`-category events in memory.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    events: Mutex<Vec<Event>>,
}

impl SpanRecorder {
    /// Microseconds of worker attempts, failed ones included. A successful
    /// attempt is an `attempt` span; a killed one is a `node_failure`
    /// instant whose `lost_s` is the time the attempt ran. Fails if one of
    /// those events lacks the numbers it should carry.
    pub fn attempt_us(&self) -> Result<f64, String> {
        let events = self.events.lock();
        let mut us = 0.0;
        for e in events.iter() {
            us += match e.name.as_str() {
                "attempt" => e.dur_us as f64,
                "node_failure" => arg_f64(e, "lost_s")? * 1e6,
                _ => continue,
            };
            // Every worker event names its stage and node.
            arg_f64(e, "stage")?;
            arg_f64(e, "node")?;
        }
        Ok(us)
    }
}

impl Recorder for SpanRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().push(event);
    }
}

fn arg_f64(e: &Event, key: &str) -> Result<f64, String> {
    match e.get_arg(key) {
        Some(ArgValue::U64(v)) => Ok(*v as f64),
        Some(ArgValue::I64(v)) => Ok(*v as f64),
        Some(ArgValue::F64(v)) => Ok(*v),
        other => Err(format!("engine event {} carries no numeric {key}: {other:?}", e.name)),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Microseconds since `t` on the workspace clock, with sub-microsecond
/// digits.
pub fn micros(t: Instant) -> f64 {
    clock::elapsed(t).as_secs_f64() * 1e6
}
