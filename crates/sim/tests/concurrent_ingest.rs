//! Concurrency determinism gates for the multi-producer ingest path.
//!
//! `ingest_concurrent` fans characterization out over N producer threads,
//! each writing its disjoint slice of one value buffer, and inserts the
//! whole chunk once they join; these tests pin the whole path to the
//! serial reference **bit for bit** — dequeue order, dispatcher counters,
//! shed ledgers — across producer counts, seeds, and dispatcher regimes.
//! Run in release mode by ci.sh, which checks bit-identity under
//! optimized codegen.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use sched::{DiskScheduler, HeadState, Request};
use sim::{ingest_concurrent, Parallelism};
use workload::PoissonConfig;

fn drain_ids(s: &mut CascadedSfc, head: &HeadState) -> Vec<u64> {
    let mut out = Vec::new();
    let mut h = *head;
    while let Some(r) = s.dequeue(&h) {
        h.cylinder = r.cylinder;
        out.push(r.id);
    }
    out
}

/// N-producer concurrent enqueue drained through the dispatcher must be
/// bit-identical to the serial `enqueue_batch` reference: same dequeue
/// order, same preemption/promotion/swap counters, across seeds and
/// producer counts (including producer counts that do not divide the
/// chunk length).
#[test]
fn concurrent_ingest_is_bit_identical_to_serial() {
    for seed in [7u64, 42, 1234] {
        let trace = PoissonConfig::figure8(800).generate(seed);
        for producers in [2usize, 3, 4, 8] {
            for (regime, dispatch) in [
                ("paper", DispatchConfig::paper_default()),
                ("fully", DispatchConfig::fully_preemptive()),
                ("non-preemptive", DispatchConfig::non_preemptive()),
            ] {
                let cfg = CascadeConfig::paper_default(2, 3832).with_dispatch(dispatch);
                let mut serial = CascadedSfc::new(cfg.clone()).unwrap();
                let mut concurrent = CascadedSfc::new(cfg).unwrap();
                let head = HeadState::new(1700, trace[0].arrival_us, 3832);
                serial.enqueue_batch(&trace, &head);
                let used = ingest_concurrent(
                    &mut concurrent,
                    &trace,
                    &head,
                    Parallelism::threads(producers),
                );
                assert_eq!(used, producers, "producer fan-out engaged");
                assert_eq!(serial.len(), concurrent.len());
                assert_eq!(
                    serial.queue_depths(),
                    concurrent.queue_depths(),
                    "seed={seed} producers={producers} regime={regime}"
                );
                assert_eq!(
                    drain_ids(&mut serial, &head),
                    drain_ids(&mut concurrent, &head),
                    "seed={seed} producers={producers} regime={regime}"
                );
                assert_eq!(serial.dispatch_counters(), concurrent.dispatch_counters());
            }
        }
    }
}

/// The concurrent path must also match the *per-request* enqueue loop
/// (the trait-default reference), interleaved with dispatches so the
/// ingest lands on a dispatcher holding live preemption state.
#[test]
fn concurrent_ingest_matches_per_request_enqueue_mid_trace() {
    let trace = PoissonConfig::figure8(600).generate(99);
    let cfg = CascadeConfig::paper_default(2, 3832);
    let mut reference = CascadedSfc::new(cfg.clone()).unwrap();
    let mut concurrent = CascadedSfc::new(cfg).unwrap();
    let head = HeadState::new(500, 0, 3832);

    // Warm both schedulers identically, with some dispatch traffic.
    let (warm, rest) = trace.split_at(200);
    for r in warm {
        let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
        reference.enqueue(r.clone(), &h);
        concurrent.enqueue(r.clone(), &h);
    }
    for _ in 0..60 {
        let a = reference.dequeue(&head);
        let b = concurrent.dequeue(&head);
        assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
    }

    // Reference: the trait-default loop. Concurrent: 4 producers.
    for r in rest {
        let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
        reference.enqueue(r.clone(), &h);
    }
    ingest_concurrent(&mut concurrent, rest, &head, Parallelism::threads(4));

    assert_eq!(reference.len(), concurrent.len());
    assert_eq!(
        drain_ids(&mut reference, &head),
        drain_ids(&mut concurrent, &head)
    );
    assert_eq!(
        reference.dispatch_counters(),
        concurrent.dispatch_counters()
    );
}

/// Shed-under-contention stress: a bounded queue fed through many
/// concurrent producers must shed exactly the requests the serial
/// reference sheds, and the ledger must close — every id is either
/// dequeued or shed, exactly once.
#[test]
fn bounded_queue_sheds_identically_under_contention() {
    for seed in [3u64, 17] {
        let trace = PoissonConfig::figure8(1_000).generate(seed);
        let cfg = CascadeConfig::paper_default(2, 3832)
            .with_dispatch(DispatchConfig::paper_default().with_max_queue(32));
        let mut serial = CascadedSfc::new(cfg.clone()).unwrap();
        let mut concurrent = CascadedSfc::new(cfg).unwrap();
        let head = HeadState::new(0, trace[0].arrival_us, 3832);

        // Feed in bursts with interleaved dispatches so the bounded queue
        // sheds repeatedly while producers are mid-flight.
        let mut dequeued_mid = 0u64;
        for chunk in trace.chunks(128) {
            serial.enqueue_batch(chunk, &head);
            ingest_concurrent(&mut concurrent, chunk, &head, Parallelism::threads(8));
            for _ in 0..8 {
                let a = serial.dequeue(&head);
                let b = concurrent.dequeue(&head);
                assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
                dequeued_mid += u64::from(b.is_some());
            }
            assert_eq!(serial.sheds(), concurrent.sheds(), "seed={seed}");
        }
        assert!(concurrent.sheds() > 0, "stress must actually shed");

        let served = drain_ids(&mut concurrent, &head);
        let serial_served = drain_ids(&mut serial, &head);
        assert_eq!(serial_served, served);
        // Exact ledger: every offered request was dequeued mid-trace,
        // drained at the end, or shed — nothing lost, nothing duplicated.
        assert_eq!(
            dequeued_mid + served.len() as u64 + concurrent.sheds(),
            trace.len() as u64,
            "ledger must close exactly (seed={seed})"
        );
    }
}

/// Degenerate shapes: serial parallelism, single-element chunks, and an
/// empty chunk all take the short-circuit path and stay identical; a
/// chunk shorter than the producer count fans out one request per
/// producer and stays identical too.
#[test]
fn degenerate_chunks_short_circuit() {
    let cfg = CascadeConfig::paper_default(1, 3832);
    let mut a = CascadedSfc::new(cfg.clone()).unwrap();
    let mut b = CascadedSfc::new(cfg).unwrap();
    let head = HeadState::new(10, 0, 3832);
    let empty: Vec<Request> = Vec::new();
    assert_eq!(
        ingest_concurrent(&mut a, &empty, &head, Parallelism::threads(4)),
        1
    );
    let trace = PoissonConfig::figure8(40).generate(5);
    a.enqueue_batch(&trace[..1], &head);
    assert_eq!(
        ingest_concurrent(&mut b, &trace[..1], &head, Parallelism::threads(4)),
        1
    );
    assert_eq!(
        ingest_concurrent(&mut b, &empty, &head, Parallelism::Serial),
        1
    );
    assert_eq!(drain_ids(&mut a, &head), drain_ids(&mut b, &head));

    // A chunk shorter than the producer count: one request per producer.
    a.enqueue_batch(&trace[..5], &head);
    assert_eq!(
        ingest_concurrent(&mut b, &trace[..5], &head, Parallelism::threads(8)),
        5
    );
    assert_eq!(a.dispatch_counters(), b.dispatch_counters());
    assert_eq!(drain_ids(&mut a, &head), drain_ids(&mut b, &head));
}
