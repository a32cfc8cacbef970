//! Batched ingest against live dispatcher state: `enqueue_batch` pinned
//! bit for bit to the per-request enqueue loop (dequeue order,
//! dispatcher counters, shed ledgers) when chunks land on a dispatcher
//! that has already been dispatching.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use sched::{DiskScheduler, HeadState};
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

/// A batched enqueue must match the *per-request* enqueue loop (the
/// trait-default reference), interleaved with dispatches so the chunk
/// lands on a dispatcher holding live preemption state.
#[test]
fn batch_enqueue_matches_per_request_enqueue_mid_trace() {
    let trace = PoissonConfig::figure8(600).generate(99);
    let cfg = CascadeConfig::paper_default(2, 3832);
    let mut reference = CascadedSfc::new(cfg.clone()).unwrap();
    let mut batched = CascadedSfc::new(cfg).unwrap();
    let head = HeadState::new(500, 0, 3832);

    // Warm both schedulers identically, with some dispatch traffic.
    let (warm, rest) = trace.split_at(200);
    for r in warm {
        let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
        reference.enqueue(r.clone(), &h);
        batched.enqueue(r.clone(), &h);
    }
    for _ in 0..60 {
        let a = reference.dequeue(&head);
        let b = batched.dequeue(&head);
        assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
    }

    for r in rest {
        let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
        reference.enqueue(r.clone(), &h);
    }
    batched.enqueue_batch(rest, &head);

    assert_eq!(reference.len(), batched.len());
    assert_eq!(
        drain_ids(&mut reference, &head),
        drain_ids(&mut batched, &head)
    );
    assert_eq!(reference.dispatch_counters(), batched.dispatch_counters());
}

/// A bounded queue fed in batched bursts with interleaved dispatches
/// must shed exactly the requests the per-request loop sheds, and the
/// ledger must close — every id is either dequeued or shed, exactly
/// once.
#[test]
fn bounded_queue_sheds_identically_with_interleaved_dispatch() {
    for seed in [3u64, 17] {
        let trace = PoissonConfig::figure8(1_000).generate(seed);
        let cfg = CascadeConfig::paper_default(2, 3832)
            .with_dispatch(DispatchConfig::paper_default().with_max_queue(32));
        let mut reference = CascadedSfc::new(cfg.clone()).unwrap();
        let mut batched = CascadedSfc::new(cfg).unwrap();
        let head = HeadState::new(0, trace[0].arrival_us, 3832);

        // Feed in bursts with interleaved dispatches so the bounded queue
        // sheds repeatedly.
        let mut dequeued_mid = 0u64;
        for chunk in trace.chunks(128) {
            for r in chunk {
                let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
                reference.enqueue(r.clone(), &h);
            }
            batched.enqueue_batch(chunk, &head);
            for _ in 0..8 {
                let a = reference.dequeue(&head);
                let b = batched.dequeue(&head);
                assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
                dequeued_mid += u64::from(b.is_some());
            }
            assert_eq!(reference.sheds(), batched.sheds(), "seed={seed}");
        }
        assert!(batched.sheds() > 0, "stress must actually shed");

        let served = drain_ids(&mut batched, &head);
        assert_eq!(drain_ids(&mut reference, &head), served);
        // Exact ledger: every offered request was dequeued mid-trace,
        // drained at the end, or shed — nothing lost, nothing duplicated.
        assert_eq!(
            dequeued_mid + served.len() as u64 + batched.sheds(),
            trace.len() as u64,
            "ledger must close exactly (seed={seed})"
        );
    }
}
