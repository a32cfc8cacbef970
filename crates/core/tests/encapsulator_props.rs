//! Property-based tests of the encapsulator's scheduling monotonicity.
//!
//! With the paper's default configuration (Diagonal SFC1, weighted SFC2,
//! partitioned-sweep SFC3), making a request strictly "better" in any
//! single coordinate (a higher priority level, a tighter deadline, or a
//! closer cylinder) must never *increase* its characterization value.
//! With recursive curves like Hilbert in SFC1 this deliberately does not
//! hold — that non-monotonicity is the locality/fairness trade the paper
//! studies — so the properties pin the monotone configuration only.

use cascade::{CascadeConfig, Encapsulator};
use proptest::prelude::*;
use sched::{HeadState, QosVector, Request};

fn encapsulator() -> Encapsulator {
    Encapsulator::new(CascadeConfig::paper_default(3, 3832)).unwrap()
}

fn req(levels: [u8; 3], deadline_us: u64, cylinder: u32) -> Request {
    Request::read(0, 0, deadline_us, cylinder, 65536, QosVector::new(&levels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn raising_a_priority_never_raises_vc(
        l0 in 0u8..16, l1 in 0u8..16, l2 in 1u8..16,
        deadline in 1_000u64..2_000_000,
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        let worse = e.characterize(&req([l0, l1, l2], deadline, cyl), &head);
        let better = e.characterize(&req([l0, l1, l2 - 1], deadline, cyl), &head);
        prop_assert!(better <= worse,
            "raising dim2 priority {l2}->{} raised v_c {worse}->{better}", l2 - 1);
    }

    #[test]
    fn tightening_the_deadline_never_raises_vc(
        levels in prop::array::uniform3(0u8..16),
        d_tight in 1_000u64..500_000,
        extra in 1_000u64..500_000,
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        let lax = e.characterize(&req(levels, d_tight + extra, cyl), &head);
        let tight = e.characterize(&req(levels, d_tight, cyl), &head);
        prop_assert!(tight <= lax);
    }

    #[test]
    fn approaching_the_head_never_raises_vc(
        levels in prop::array::uniform3(0u8..16),
        deadline in 1_000u64..2_000_000,
        head_cyl in 0u32..3832,
        far in 0u32..3832,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        // `near` halves the distance to the head.
        let near = if far >= head_cyl {
            head_cyl + (far - head_cyl) / 2
        } else {
            head_cyl - (head_cyl - far) / 2
        };
        let v_far = e.characterize(&req(levels, deadline, far), &head);
        let v_near = e.characterize(&req(levels, deadline, near), &head);
        prop_assert!(v_near <= v_far);
    }

    #[test]
    fn vc_always_within_max_value(
        levels in prop::array::uniform3(0u8..16),
        deadline in prop::option::of(1_000u64..3_000_000),
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
        now in 0u64..1_000_000,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, now, 3832);
        let deadline = deadline.map(|d| now + d).unwrap_or(u64::MAX);
        let v = e.characterize(&req(levels, deadline, cyl), &head);
        prop_assert!(v <= e.max_value());
    }

    #[test]
    fn characterization_is_deterministic(
        levels in prop::array::uniform3(0u8..16),
        deadline in 1_000u64..2_000_000,
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
    ) {
        let e1 = encapsulator();
        let e2 = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        let r = req(levels, deadline, cyl);
        prop_assert_eq!(e1.characterize(&r, &head), e2.characterize(&r, &head));
    }

    #[test]
    fn map_batch_matches_per_request_characterize(
        kind_idx in 0usize..sfc::CurveKind::ALL.len(),
        stage_cfg in 0usize..3,
        seed in 0u64..u64::MAX,
        head_cyl in 0u32..3832,
        n in 1usize..40,
    ) {
        // The batched fast path must be bit-identical to the scalar path
        // for every catalogue curve in stage 1 and every stage depth:
        // stage 1 only, stages 1+2, and the full three-stage cascade.
        let kind = sfc::CurveKind::ALL[kind_idx];
        let cfg = match stage_cfg {
            0 => CascadeConfig::priority_only(kind, 3, 4),
            1 => CascadeConfig::priority_deadline(
                kind,
                3,
                4,
                cascade::Stage2Combiner::Weighted { f: 2.5 },
                1_000_000,
            ),
            _ => {
                let mut c = CascadeConfig::paper_default(3, 3832);
                if let Some(s1) = c.stage1.as_mut() {
                    s1.curve = kind;
                }
                c
            }
        };
        let mut batched = Encapsulator::new(cfg.clone()).unwrap();
        let scalar = Encapsulator::new(cfg).unwrap();
        // A splitmix64-derived batch with varied arrivals, deadlines,
        // cylinders and QoS levels.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut arrival = 0u64;
        let batch: Vec<Request> = (0..n as u64)
            .map(|i| {
                arrival += next() % 5_000;
                let deadline = if next() % 5 == 0 {
                    u64::MAX
                } else {
                    arrival + 1_000 + next() % 2_000_000
                };
                Request::read(
                    i,
                    arrival,
                    deadline,
                    (next() % 3832) as u32,
                    65536,
                    QosVector::new(&[
                        (next() % 16) as u8,
                        (next() % 16) as u8,
                        (next() % 16) as u8,
                    ]),
                )
            })
            .collect();
        let head = HeadState::new(head_cyl, batch[0].arrival_us, 3832);
        let vs = batched.map_batch(&batch, &head).to_vec();
        prop_assert_eq!(vs.len(), batch.len());
        // The slice-writing form concurrent producers use agrees.
        let mut filled = vec![0u128; batch.len()];
        batched.map_batch_fill(&batch, &head, &mut filled);
        prop_assert_eq!(&filled, &vs);
        for (r, v) in batch.iter().zip(vs) {
            let h = HeadState::new(head_cyl, r.arrival_us, 3832);
            prop_assert_eq!(v, scalar.characterize(r, &h),
                "{} stage_cfg={} req id={}", kind, stage_cfg, r.id);
        }
        // Scratch reuse across calls must not leak previous results.
        let again = batched.map_batch(&batch[..1], &head).to_vec();
        prop_assert_eq!(again.len(), 1);
        prop_assert_eq!(again[0], scalar.characterize(&batch[0], &head));
    }

    #[test]
    fn spec_built_schedulers_match_hand_built(
        f in 0.0f64..8.0,
        r in 1u32..8,
    ) {
        // The spec DSL and the struct literals describe the same machine.
        let spec = format!(
            "sfc1 = diagonal : dims=3, levels=16\n\
             sfc2 = weighted : f={f}, horizon=1s\n\
             sfc3 = r={r} : cylinders=3832\n\
             dispatch = batch"
        );
        let from_spec = Encapsulator::new(cascade::spec::parse(&spec).unwrap()).unwrap();
        let mut cfg = CascadeConfig::paper_default(3, 3832);
        if let Some(s2) = cfg.stage2.as_mut() {
            s2.combiner = cascade::Stage2Combiner::Weighted { f };
        }
        if let Some(s3) = cfg.stage3.as_mut() {
            s3.partitions = r;
        }
        let by_hand = Encapsulator::new(cfg).unwrap();
        let head = HeadState::new(1000, 0, 3832);
        let probe = req([3, 7, 1], 450_000, 2222);
        prop_assert_eq!(
            from_spec.characterize(&probe, &head),
            by_hand.characterize(&probe, &head)
        );
    }
}
