//! Background metrics sampling: rate-over-time instead of end-of-run totals.
//!
//! The registry's counters are monotone totals — enough for a bench summary,
//! useless for the paper's phase-over-time figures (messages/s during ramp-up
//! vs. steady state, steal rate collapsing as a GLB run drains). A
//! [`Sampler`] closes that gap: a background thread snapshots the
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) every
//! `interval_ms` into a bounded ring of [`Sample`]s; consumers difference
//! neighbouring samples to recover rates. When the ring is full the oldest
//! sample is evicted and counted, mirroring the event rings' drop policy.
//!
//! The thread parks on a condvar between samples, so [`Sampler::stop`] (or
//! drop) interrupts a sleep promptly instead of waiting out the interval —
//! a runtime with `sample_interval_ms: Some(60_000)` still shuts down in
//! microseconds.

use crate::metrics::MetricsSnapshot;
use crate::Obs;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Default bound on the sample ring (per runtime): at the default 4096
/// samples, a 100 ms interval covers ~7 minutes before eviction starts.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 4096;

/// One point of the metrics time series.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Milliseconds since the tracer epoch when the snapshot was taken —
    /// the same timeline trace and causal events are stamped against.
    pub elapsed_ms: u64,
    /// The registry's state at that instant (monotone totals; difference
    /// neighbouring samples for rates).
    pub snapshot: MetricsSnapshot,
}

struct State {
    samples: VecDeque<Sample>,
    stop: bool,
    evicted: u64,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// A background thread snapshotting an [`Obs`]'s metrics registry on a fixed
/// interval into a bounded ring. Created by [`Sampler::start`]; stopped by
/// [`Sampler::stop`] or drop.
pub struct Sampler {
    shared: Arc<Shared>,
    interval_ms: u64,
    handle: Option<thread::JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling `obs.metrics` every `interval_ms` milliseconds
    /// (clamped to ≥ 1), keeping at most `capacity` samples (clamped to
    /// ≥ 2, so a rate can always be formed from the ring's ends).
    ///
    /// One sample is taken immediately so the series always has a start
    /// point, even for runs shorter than the interval.
    pub fn start(obs: Arc<Obs>, interval_ms: u64, capacity: usize) -> Sampler {
        let interval_ms = interval_ms.max(1);
        let capacity = capacity.max(2);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                samples: VecDeque::new(),
                stop: false,
                evicted: 0,
            }),
            wake: Condvar::new(),
        });
        let worker_shared = shared.clone();
        let handle = thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                let interval = Duration::from_millis(interval_ms);
                let mut stopping = false;
                loop {
                    // The snapshot happens outside the lock; only the push
                    // holds it.
                    let sample = Sample {
                        elapsed_ms: obs.tracer.epoch().elapsed().as_millis() as u64,
                        snapshot: obs.metrics.snapshot(),
                    };
                    let mut st = worker_shared.state.lock();
                    if st.samples.len() >= capacity {
                        st.samples.pop_front();
                        st.evicted += 1;
                    }
                    st.samples.push_back(sample);
                    if stopping || st.stop {
                        return;
                    }
                    worker_shared.wake.wait_for(&mut st, interval);
                    // Loop once more on stop so the series always ends with
                    // a fresh, post-notification sample.
                    stopping = st.stop;
                }
            })
            .expect("spawn obs-sampler thread");
        Sampler {
            shared,
            interval_ms,
            handle: Some(handle),
        }
    }

    /// The configured sampling interval in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Copy the collected series (oldest first) and the count of samples
    /// evicted by the ring bound.
    pub fn series(&self) -> (Vec<Sample>, u64) {
        let st = self.shared.state.lock();
        (st.samples.iter().cloned().collect(), st.evicted)
    }

    /// The metrics time series as JSON:
    /// `{"interval_ms": .., "evicted_samples": .., "samples": [{"elapsed_ms": ..,
    /// "counters": {..}, "histogram_totals": {..}}, ..]}`.
    ///
    /// Counter values are monotone totals; clients difference neighbouring
    /// samples (and divide by the `elapsed_ms` gap) for rates. Histograms
    /// are reduced to their observation totals — full bucket series would
    /// dominate the payload without serving the rate-over-time use case.
    pub fn series_json(&self) -> String {
        let (samples, evicted) = self.series();
        let mut s = format!(
            "{{\"interval_ms\": {}, \"evicted_samples\": {}, \"samples\": [",
            self.interval_ms, evicted
        );
        for (i, sample) in samples.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"elapsed_ms\": {}, \"counters\": {{",
                sample.elapsed_ms
            ));
            for (j, (name, v)) in sample.snapshot.counters.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{name}\": {v}"));
            }
            s.push_str("}, \"histogram_totals\": {");
            for (j, h) in sample.snapshot.histograms.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {}", h.name, h.total()));
            }
            s.push_str("}}");
        }
        s.push_str("]}");
        s
    }

    /// Take a final sample, stop the background thread, and join it. Safe to
    /// call more than once; the series stays readable afterwards.
    pub fn stop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.stop = true;
        }
        self.shared.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> Arc<Obs> {
        Obs::new(2, false, 64)
    }

    #[test]
    fn collects_samples_and_stops_promptly() {
        let o = obs();
        let c = o.metrics.counter("msgs");
        let mut s = Sampler::start(o, 1, 1024);
        c.add(0, 41);
        // The first sample is immediate; wait for at least one more tick.
        thread::sleep(Duration::from_millis(30));
        s.stop();
        let (samples, evicted) = s.series();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        assert_eq!(evicted, 0);
        // Monotone: the last sample has seen the counter bump.
        let last = samples.last().unwrap();
        assert_eq!(last.snapshot.counters, vec![("msgs".to_string(), 41)]);
        // And the series is readable after stop, twice.
        s.stop();
        assert!(s.series_json().contains("\"msgs\": 41"));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let o = obs();
        let mut s = Sampler::start(o, 1, 2);
        thread::sleep(Duration::from_millis(40));
        s.stop();
        let (samples, evicted) = s.series();
        assert_eq!(samples.len(), 2);
        assert!(evicted > 0);
        // Oldest-evicted: timestamps stay nondecreasing.
        assert!(samples[0].elapsed_ms <= samples[1].elapsed_ms);
    }

    #[test]
    fn series_json_shape() {
        let o = obs();
        o.metrics.counter("a").inc(0);
        o.metrics.histogram("h", &[4]).record(0, 2);
        let mut s = Sampler::start(o, 1000, 16);
        s.stop();
        let json = s.series_json();
        assert!(json.starts_with("{\"interval_ms\": 1000"));
        assert!(json.contains("\"evicted_samples\": 0"));
        assert!(json.contains("\"counters\": {\"a\": 1}"));
        assert!(json.contains("\"histogram_totals\": {\"h\": 1}"));
        serde_json::from_str(&json).expect("series_json must parse");
    }

    #[test]
    fn final_sample_taken_on_stop_for_short_runs() {
        let o = obs();
        let c = o.metrics.counter("late");
        let mut s = Sampler::start(o, 60_000, 16);
        c.add(1, 7);
        s.stop(); // must not wait out the 60 s interval
        let (samples, _) = s.series();
        assert!(!samples.is_empty());
        assert_eq!(
            samples.last().unwrap().snapshot.counters,
            vec![("late".to_string(), 7)]
        );
    }
}
