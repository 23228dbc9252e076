//! Model-based property tests: the serial component executor
//! ([`bc_sim::executor::Executor`]) versus an independently written
//! single-queue reference scheduler.
//!
//! The reference owns one global binary heap keyed `(cycle, component,
//! src, seq)` and applies the scheduling contract the executor documents
//! — self-sends floored at `now + 1`, cross-component sends floored at
//! `now + lookahead`, below-floor sends clamped up and recorded — but
//! shares none of its machinery: no calendar queue, no same-cycle batch
//! sort. If the two agree on the global dispatch order and every
//! violation for arbitrary programs, the executor implements exactly the
//! contract.
//!
//! The generated programs are adversarial on purpose: sends land exactly
//! on the lookahead boundary, one cycle inside it (legal for self-sends,
//! violating for cross-sends), in the issuing instant itself (always
//! clamped), and in clusters that force same-cycle ties from multiple
//! source components.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bc_sim::executor::{CompId, Executor, Handler, OrderViolation, Outbox};
use bc_sim::Cycle;
use proptest::prelude::*;

/// The deterministic toy workload both executors run: from one dispatch
/// of `(comp, now, payload)`, the set of follow-on sends. Pure function
/// of its arguments, so it cannot smuggle ordering information between
/// the two executors — only the *schedulers* differ.
///
/// `payload >> 4` is the next payload, so every generation shrinks the
/// payload by four bits and all programs terminate.
fn model_sends(
    comp: CompId,
    components: usize,
    now: u64,
    payload: u64,
    lookahead: u64,
) -> Vec<(CompId, u64, u64)> {
    let fanout = (payload % 3) as usize;
    let next = payload >> 4;
    (0..fanout)
        .map(|i| {
            // Per-send deterministic mix of the payload bits.
            // bc-lint: allow(saturating-counter) — hash mix of payload bits.
            let x = payload
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(11 * (i as u32 + 1));
            let dst = (comp + (x as usize % components)) % components;
            let at = match (x >> 8) & 7 {
                // Below every floor: clamped, and a recorded violation.
                0 => now,
                // Legal only as a self-send; a cross-send violation.
                1 => now + 1,
                // One cycle inside the cross floor (when lookahead > 1).
                // bc-lint: allow(saturating-counter) — adversarial timestamp
                // generator probing the scheduling floor, not a counter.
                2 => now + lookahead.saturating_sub(1).max(1),
                // Exactly on the lookahead boundary.
                3 => now + lookahead,
                // Just past the boundary.
                4 => now + lookahead + 1,
                // Clustered a few cycles out: forces same-cycle ties
                // between sends from different source components.
                _ => now + lookahead + ((x >> 16) % 5),
            };
            (dst, at, next)
        })
        .collect()
}

/// What one executor observed: the global dispatch order, the violation
/// log, and the total dispatch count.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Every dispatch as `(component, cycle, payload)`, in dispatch order.
    trace: Vec<(CompId, u64, u64)>,
    violations: Vec<OrderViolation>,
    dispatched: u64,
}

/// The independently written single-queue reference: one min-heap over
/// `(cycle, dst component, src component, per-source seq)`.
fn reference_run(components: usize, lookahead: u64, seeds: &[(CompId, u64, u64)]) -> Observed {
    // (at, dst, src, seq, payload)
    type Entry = (u64, usize, usize, u64, u64);
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
    let mut seqs = vec![0u64; components];
    for &(comp, at, payload) in seeds {
        let seq = seqs[comp];
        seqs[comp] += 1;
        heap.push(Reverse((at, comp, comp, seq, payload)));
    }
    let mut obs = Observed {
        trace: Vec::new(),
        violations: Vec::new(),
        dispatched: 0,
    };
    while let Some(Reverse((now, comp, _src, _seq, payload))) = heap.pop() {
        obs.dispatched += 1;
        obs.trace.push((comp, now, payload));
        for (dst, at, next) in model_sends(comp, components, now, payload, lookahead) {
            let floor = if dst == comp {
                now + 1
            } else {
                now + lookahead
            };
            let seq = seqs[comp];
            seqs[comp] += 1;
            let t = if at < floor {
                obs.violations.push(OrderViolation {
                    src: comp,
                    dst,
                    now,
                    at,
                    floor,
                    seq,
                });
                floor
            } else {
                at
            };
            heap.push(Reverse((t, dst, comp, seq, next)));
        }
    }
    obs.violations.sort_by_key(|v| (v.now, v.src, v.seq));
    obs
}

/// The executor's handler: records dispatches and replays the same pure
/// workload through the executor's [`Outbox`].
struct Player {
    components: usize,
    trace: Vec<(CompId, u64, u64)>,
}

impl Handler<u64> for Player {
    fn handle(&mut self, comp: CompId, now: Cycle, payload: u64, out: &mut Outbox<'_, u64>) {
        self.trace.push((comp, now.as_u64(), payload));
        for (dst, at, next) in model_sends(
            comp,
            self.components,
            now.as_u64(),
            payload,
            out.lookahead(),
        ) {
            out.send(dst, Cycle::new(at), next);
        }
    }
}

/// Runs the same program through the executor.
fn executor_run(components: usize, lookahead: u64, seeds: &[(CompId, u64, u64)]) -> Observed {
    let mut exec = Executor::new(components, lookahead);
    for &(comp, at, payload) in seeds {
        exec.seed(comp, Cycle::new(at), payload);
    }
    let mut player = Player {
        components,
        trace: Vec::new(),
    };
    let run = exec.run(&mut player);
    Observed {
        trace: player.trace,
        violations: run.violations,
        dispatched: run.dispatched,
    }
}

/// Strategy for one program: component count, lookahead and seed events.
fn program() -> impl Strategy<
    Value = (
        usize,                  // components
        u64,                    // lookahead
        Vec<(usize, u64, u64)>, // seeds (raw comp, cycle, payload)
    ),
> {
    (
        2usize..6,
        1u64..7,
        proptest::collection::vec((0usize..8, 0u64..50, 1u64..4096), 1..8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline pin: for arbitrary adversarial programs, the executor
    /// observes exactly the reference scheduler's global dispatch order,
    /// violation log and dispatch count.
    #[test]
    fn executor_matches_single_queue_reference(
        (components, lookahead, raw_seeds) in program()
    ) {
        let seeds: Vec<(CompId, u64, u64)> = raw_seeds
            .iter()
            .map(|&(c, at, p)| (c % components, at, p))
            .collect();
        let want = reference_run(components, lookahead, &seeds);
        prop_assert!(want.dispatched >= seeds.len() as u64);
        prop_assert_eq!(want.dispatched, want.trace.len() as u64);

        let got = executor_run(components, lookahead, &seeds);
        prop_assert_eq!(&got, &want, "run diverged from the reference");
    }

    /// Every recorded violation is internally consistent — the asked-for
    /// cycle really was below the documented floor, and the floor really
    /// is `now + 1` (self) or `now + lookahead` (cross) — and the log
    /// arrives sorted by the deterministic `(now, src, seq)` key.
    #[test]
    fn violation_records_are_exact_and_ordered(
        (components, lookahead, raw_seeds) in program()
    ) {
        let seeds: Vec<(CompId, u64, u64)> = raw_seeds
            .iter()
            .map(|&(c, at, p)| (c % components, at, p))
            .collect();
        let got = executor_run(components, lookahead, &seeds);
        for v in &got.violations {
            let floor = if v.dst == v.src { v.now + 1 } else { v.now + lookahead };
            prop_assert_eq!(v.floor, floor, "floor mismatch in {:?}", v);
            prop_assert!(v.at < v.floor, "recorded a legal send as a violation: {:?}", v);
        }
        let mut sorted = got.violations.clone();
        sorted.sort_by_key(|v| (v.now, v.src, v.seq));
        prop_assert_eq!(got.violations, sorted);
    }
}
