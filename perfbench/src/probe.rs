//! Wall-clock spans around calls into one layer.
//!
//! Every call is timed: some calls are heavy-tailed (a shed can fire a
//! flight-recorder dump inside a scheduler insert), so a sampled span
//! would miss them. Reading the clock costs tens of nanoseconds on a
//! virtual machine, so each span's duration has the clock's own
//! back-to-back reading ([`Clock::eps_ns`]) taken off, and the ledger
//! charges what an empty span costs its caller ([`Clock::span_ns`]
//! each) to a tracing row of its own. Allocations are counted on every
//! call.

use std::time::Instant;

use crate::alloc;

/// Clock costs measured at start-up.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Median reading of two back-to-back clock reads: the part of each
    /// span's duration that is the clock itself.
    pub eps_ns: f64,
    /// Mean cost of opening and closing one span around nothing.
    pub span_ns: f64,
}

impl Clock {
    pub fn calibrate() -> Self {
        let mut pairs: Vec<u64> = (0..20_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        let mut clock = Clock {
            eps_ns: pairs[pairs.len() / 2] as f64,
            span_ns: 0.0,
        };
        let spans = 200_000u32;
        let mut span = Span::default();
        let t = Instant::now();
        for _ in 0..spans {
            let open = span.begin();
            span.end(std::hint::black_box(open), &clock);
        }
        clock.span_ns = t.elapsed().as_nanos() as f64 / f64::from(spans);
        clock
    }

    /// What opening and closing `spans` spans cost the traced pass.
    pub fn overhead_ns(&self, spans: u64) -> f64 {
        self.span_ns * spans as f64
    }
}

/// Call count, time and allocations of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: f64,
    pub allocs: u64,
}

/// An open span: its start time and the thread's allocation count.
pub struct Open(Instant, u64);

impl Span {
    #[inline]
    pub fn begin(&mut self) -> Open {
        Open(Instant::now(), alloc::thread())
    }

    /// Close the span; returns its duration (ns).
    #[inline]
    pub fn end(&mut self, open: Open, clock: &Clock) -> f64 {
        let ns = (open.0.elapsed().as_nanos() as f64 - clock.eps_ns).max(0.0);
        self.allocs += alloc::thread() - open.1;
        self.calls += 1;
        self.ns += ns;
        ns
    }

    /// Mean time per call (ns).
    pub fn per_call_ns(&self) -> f64 {
        self.ns / self.calls.max(1) as f64
    }

    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

/// Median of a non-empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
