//! The closed-loop driver: `clients` threads that each issue the next
//! operation only after the previous one returned, a warm-up, and one
//! measured window cut into six slices.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stats::{median, LatHist};

/// What an operation did, for the per-kind latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `decompress` / `Router::get`.
    Read = 0,
    /// `compress` / `Router::put`.
    Write = 1,
    /// `Router::scan`.
    Scan = 2,
    /// `Router::delete`.
    Delete = 3,
}

impl OpKind {
    /// Span name of the call the benchmark makes for this kind.
    pub fn span_name(self, codec_only: bool) -> &'static str {
        match (self, codec_only) {
            (OpKind::Read, true) => "PbcCompressor::decompress",
            (OpKind::Write, true) => "PbcCompressor::compress",
            (OpKind::Read, false) => "Router::get",
            (OpKind::Write, false) => "Router::put",
            (OpKind::Scan, _) => "Router::scan",
            (OpKind::Delete, _) => "Router::delete",
        }
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Returned, and the oracle agrees with what it returned.
    Verified,
    /// Admission control refused it (`ServeError::Busy`).
    Busy,
    /// It returned another error.
    Error,
    /// It returned something the oracle's model rules out.
    Mismatch,
}

/// One timed call. Generation and verification happen outside
/// `[start, end]`.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Which call it was.
    pub kind: OpKind,
    /// Just before the call.
    pub start: Instant,
    /// Just after it returned.
    pub end: Instant,
    /// How it ended.
    pub outcome: Outcome,
    /// User key + value bytes an acknowledged write carried.
    pub user_bytes: u64,
}

/// One closed-loop client: generate, call, verify.
pub trait Client: Send {
    /// Issue the next operation and wait for it.
    fn step(&mut self) -> Timed;
}

/// A benchmark-side span around one call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub kind: OpKind,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Sequence number of the request within its client.
    pub seq: u64,
}

/// Slices the window is cut into for `throughput_ops_s`.
pub const SLICES: usize = 6;

/// What one client did. Outcomes are counted for every operation it
/// issued, the warm-up's and the one the window's end cut off included:
/// a mismatch is a mismatch whenever it happens. Latency, slices, call
/// time, bytes and spans cover the window only.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latency per slice and [`OpKind`], verified operations only.
    pub latency: [[LatHist; 4]; SLICES],
    /// Verified operations completed per slice.
    pub slice_ops: [u64; SLICES],
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// `Busy` refusals among them.
    pub busy: u64,
    /// Other errors among them.
    pub errors: u64,
    /// Oracle mismatches among them.
    pub mismatches: u64,
    /// Operations issued inside the window.
    pub measured: u64,
    /// Time spent inside those.
    pub call_ns: u64,
    /// User bytes of acknowledged writes.
    pub user_bytes_written: u64,
    /// The first `span_cap` calls of the window (traced runs only).
    pub spans: Vec<Span>,
}

impl ClientLog {
    /// Operations that did not end [`Outcome::Verified`].
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.mismatches
    }
}

/// The clients' logs plus when the window began and how long it was.
#[derive(Debug)]
pub struct WindowLog {
    /// One log per client, in client order.
    pub clients: Vec<ClientLog>,
    /// Length of the measured window.
    pub window: Duration,
    /// `setup_s`: from the run's epoch (process start) to the start of the
    /// warm-up.
    pub setup_s: f64,
}

impl WindowLog {
    /// Latency of `kinds` in `slices`, merged over clients.
    pub fn latency_in(&self, slices: std::ops::Range<usize>, kinds: &[OpKind]) -> LatHist {
        let mut merged = LatHist::default();
        for client in &self.clients {
            for slice in &client.latency[slices.clone()] {
                for &kind in kinds {
                    merged.merge(&slice[kind as usize]);
                }
            }
        }
        merged
    }

    /// Latency of `kinds` over the whole window.
    pub fn latency(&self, kinds: &[OpKind]) -> LatHist {
        self.latency_in(0..SLICES, kinds)
    }

    /// Quantile `q` of `kinds` in each slice, microseconds.
    pub fn slice_quantiles_us(&self, kinds: &[OpKind], q: f64) -> Vec<f64> {
        (0..SLICES)
            .map(|s| self.latency_in(s..s + 1, kinds).quantile_us(q))
            .collect()
    }

    /// Sum of a per-client counter.
    pub fn total(&self, field: impl Fn(&ClientLog) -> u64) -> u64 {
        self.clients.iter().map(field).sum()
    }

    /// Verified operations per second in each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        let slice_s = self.window.as_secs_f64() / SLICES as f64;
        (0..SLICES)
            .map(|s| self.total(|c| c.slice_ops[s]) as f64 / slice_s)
            .collect()
    }

    /// `throughput_ops_s`: the median slice.
    pub fn throughput(&self) -> f64 {
        median(&self.slice_rates())
    }

    /// Share of the clients' wall time spent outside calls: generating
    /// the next operation, verifying the last, and reading the clock.
    pub fn gen_overhead_share(&self) -> f64 {
        let wall = self.window.as_nanos() as f64 * self.clients.len() as f64;
        (1.0 - self.total(|c| c.call_ns) as f64 / wall).max(0.0)
    }
}

/// Run `clients` for `warmup + window`, measuring only the window.
/// `during_window` runs on the calling thread from the window's start, is
/// told when the window ends (the traced run samples gauges until then)
/// and must return by itself; the call then sleeps out what is left.
pub fn drive<C: Client>(
    clients: &mut [C],
    epoch: Instant,
    warmup: Duration,
    window: Duration,
    span_cap: usize,
    during_window: impl FnOnce(Instant),
) -> WindowLog {
    let barrier = Barrier::new(clients.len() + 1);
    let mut setup_s = 0.0;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let begin = Instant::now();
                    let (warm_end, end) = (begin + warmup, begin + warmup + window);
                    let slice_ns = (window.as_nanos() as u64 / SLICES as u64).max(1);
                    let mut log = ClientLog {
                        spans: Vec::with_capacity(span_cap),
                        ..ClientLog::default()
                    };
                    loop {
                        let op = client.step();
                        log.attempted += 1;
                        match op.outcome {
                            Outcome::Verified => {}
                            Outcome::Busy => log.busy += 1,
                            Outcome::Error => log.errors += 1,
                            Outcome::Mismatch => log.mismatches += 1,
                        }
                        if op.end >= end {
                            break;
                        }
                        if op.start < warm_end {
                            continue;
                        }
                        log.measured += 1;
                        let ns = (op.end - op.start).as_nanos() as u64;
                        log.call_ns += ns;
                        if op.outcome == Outcome::Verified {
                            let slice = (op.end - warm_end).as_nanos() as u64 / slice_ns;
                            let slice = (slice as usize).min(SLICES - 1);
                            log.latency[slice][op.kind as usize].record(ns);
                            log.slice_ops[slice] += 1;
                            log.user_bytes_written += op.user_bytes;
                        }
                        if log.spans.len() < span_cap {
                            log.spans.push(Span {
                                kind: op.kind,
                                start_ns: (op.start - epoch).as_nanos() as u64,
                                end_ns: (op.end - epoch).as_nanos() as u64,
                                seq: log.measured,
                            });
                        }
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let begin = Instant::now();
        setup_s = (begin - epoch).as_secs_f64();
        let window_end = begin + warmup + window;
        std::thread::sleep(warmup);
        during_window(window_end);
        std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    WindowLog {
        clients: logs,
        window,
        setup_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleeper(Duration);

    impl Client for Sleeper {
        fn step(&mut self) -> Timed {
            let start = Instant::now();
            std::thread::sleep(self.0);
            Timed {
                kind: OpKind::Read,
                start,
                end: Instant::now(),
                outcome: Outcome::Verified,
                user_bytes: 0,
            }
        }
    }

    #[test]
    fn window_counts_only_operations_inside_it() {
        let mut clients = vec![
            Sleeper(Duration::from_millis(2)),
            Sleeper(Duration::from_millis(2)),
        ];
        let log = drive(
            &mut clients,
            Instant::now(),
            Duration::from_millis(30),
            Duration::from_millis(120),
            8,
            |_| {},
        );
        let ops = log.total(|c| c.measured);
        // Two clients, one op per ~2.1 ms, 120 ms: at most 120 and well
        // above a quarter of that even on a loaded machine.
        assert!(ops <= 120 && ops > 30, "{ops} ops");
        assert_eq!(log.total(|c| c.slice_ops.iter().sum()), ops);
        assert_eq!(log.latency(&[OpKind::Read]).count(), ops);
        assert_eq!(log.latency(&[OpKind::Write]).count(), 0);
        assert!(log.clients.iter().all(|c| c.spans.len() == 8));
        assert!(log.gen_overhead_share() < 0.5);
        assert!(log.throughput() > 0.0);
        assert!(
            log.total(|c| c.attempted) > ops,
            "the warm-up's are issued too"
        );
        assert!(log.setup_s >= 0.0 && log.setup_s < 1.0);
    }

    /// Fails its first call and every call from the `late`-th on.
    struct Flaky {
        calls: u64,
        late: u64,
    }

    impl Client for Flaky {
        fn step(&mut self) -> Timed {
            self.calls += 1;
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            Timed {
                kind: OpKind::Read,
                start,
                end: Instant::now(),
                outcome: match self.calls {
                    1 => Outcome::Mismatch,
                    n if n >= self.late => Outcome::Error,
                    _ => Outcome::Verified,
                },
                user_bytes: 0,
            }
        }
    }

    #[test]
    fn failures_outside_the_window_are_counted() {
        // The first call falls in the warm-up; with `late` out of reach
        // nothing fails inside the window.
        let mut clients = vec![Flaky {
            calls: 0,
            late: u64::MAX,
        }];
        let warm = Duration::from_millis(20);
        let log = drive(
            &mut clients,
            Instant::now(),
            warm,
            Duration::from_millis(60),
            0,
            |_| {},
        );
        assert_eq!(log.total(|c| c.mismatches), 1);
        assert_eq!(log.total(|c| c.failed()), 1);
        assert_eq!(
            log.latency(&[OpKind::Read]).count(),
            log.total(|c| c.measured)
        );
        // Every call fails from the second on: the one the window's end
        // cuts off is counted with the rest.
        let mut clients = vec![Flaky { calls: 0, late: 2 }];
        let log = drive(
            &mut clients,
            Instant::now(),
            warm,
            Duration::from_millis(60),
            0,
            |_| {},
        );
        assert_eq!(log.total(|c| c.errors), log.total(|c| c.attempted) - 1);
        assert!(log.total(|c| c.errors) > log.total(|c| c.measured));
        assert_eq!(log.latency(&[OpKind::Read]).count(), 0);
    }
}
