//! The closed-loop load generator of the served workloads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// One completed operation.
pub struct Sample<R> {
    /// Position in the workload's seeded operation stream.
    pub index: u64,
    pub latency_ns: u64,
    /// Whether spans were being recorded while it ran.
    pub traced: bool,
    pub result: R,
}

/// Closed loop: each client sends its next operation only after the
/// previous one completed. Clients draw stream positions from one shared
/// counter, so the completed operations are a prefix of the stream plus
/// the few in flight at the deadline. Operations started before `run`
/// elapses are waited for. On a traced run, recording alternates between
/// one-second blocks on and off, so traced and untraced latencies
/// interleave. Returns the samples in stream order and the wall time until
/// the last one completed.
pub fn closed_loop<C, Q, R>(
    clients: Vec<C>,
    run: Duration,
    tracer: &Tracer,
    span: &'static str,
    prepare: impl Fn(u64) -> Q + Sync,
    send: impl Fn(&mut C, &Q) -> R + Sync,
) -> (Vec<Sample<R>>, Duration)
where
    C: Send,
    R: Send,
{
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, samples, prepare, send) = (&next, &samples, &prepare, &send);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let elapsed = started.elapsed();
                    if elapsed >= run {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let request = prepare(index);
                    tracer.alternate(elapsed);
                    let traced = tracer.recording();
                    let sent = Instant::now();
                    let result = tracer.span(span, 0, index, |_| send(&mut client, &request));
                    mine.push(Sample {
                        index,
                        latency_ns: sent.elapsed().as_nanos() as u64,
                        traced,
                        result,
                    });
                }
                samples.lock().expect("sample list poisoned").extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    tracer.set_recording(true);
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

/// Latencies in ms of the samples with the given tracing state (all
/// samples on an untraced run).
pub fn latencies_ms<R>(samples: &[Sample<R>], traced: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect()
}
