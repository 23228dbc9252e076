//! Serial executor for a machine decomposed into logical components.
//!
//! A simulated machine is split into *components* (in `bc-system`: one
//! per CU/L1 cluster plus the memory side holding the L2, BCC, IOMMU and
//! host) that interact only through timestamped events. The executor
//! keeps every pending event in one calendar [`EventQueue`] and
//! dispatches them in the global order `(cycle, component, src, seq)`.
//!
//! # Send contract
//!
//! Every event carries a `(src component, per-source sequence)` key
//! assigned in the source's own dispatch order. A handler may schedule a
//! self-send no earlier than `now + 1` and a send to any other component
//! no earlier than `now + lookahead`, where the lookahead is the
//! machine's minimum cross-component latency. A send made during cycle
//! `t` therefore always lands at `t + 1` or later, so each step can pop
//! every event at the minimum cycle, sort that batch by
//! `(component, src, seq)` and dispatch it without anything joining the
//! batch mid-way.
//!
//! # Misuse
//!
//! A handler that schedules below the contract floor has its send
//! clamped up to the floor (the run stays well-defined) and gets an
//! [`OrderViolation`] recorded, which callers route into the audit layer
//! as a `shard-order` finding.

use crate::{Cycle, EventQueue};

/// Index of a logical simulation component.
pub type CompId = usize;

/// Receiver for events dispatched by the executor.
pub trait Handler<E> {
    /// Dispatches one event of component `comp` at instant `now`.
    /// Further events are emitted through `out`.
    fn handle(&mut self, comp: CompId, now: Cycle, ev: E, out: &mut Outbox<'_, E>);
}

/// A send that violated the scheduling contract (into the past, or
/// cross-component below the lookahead floor). The executor clamps the
/// event up to `floor` and keeps running; callers surface these as
/// `shard-order` audit findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderViolation {
    /// Component that issued the send.
    pub src: CompId,
    /// Component the event targeted.
    pub dst: CompId,
    /// Instant the send was issued at.
    pub now: u64,
    /// Cycle the handler asked for.
    pub at: u64,
    /// Earliest legal cycle; the event was rescheduled here.
    pub floor: u64,
    /// Per-source sequence number the event was assigned.
    pub seq: u64,
}

/// Outcome of one [`Executor::run`].
#[derive(Debug, Default)]
pub struct ExecRun {
    /// Total events dispatched.
    pub dispatched: u64,
    /// Contract violations in dispatch order, which is `(now, src, seq)`
    /// order. Empty on every well-formed model.
    pub violations: Vec<OrderViolation>,
    /// Pop-monotonicity findings surfaced by the queue's own self-check,
    /// as `(previous, offending)` cycles.
    #[cfg(feature = "audit")]
    pub queue_findings: Vec<(u64, u64)>,
}

/// An event annotated with its owner and deterministic dispatch key.
#[derive(Debug)]
struct Keyed<E> {
    comp: CompId,
    src: u32,
    seq: u64,
    ev: E,
}

/// Sink for events emitted while handling a dispatch. Enforces the
/// scheduling contract (clamping + violation records).
pub struct Outbox<'a, E> {
    from: CompId,
    now: u64,
    lookahead: u64,
    out_seq: &'a mut u64,
    queue: &'a mut EventQueue<Keyed<E>>,
    violations: &'a mut Vec<OrderViolation>,
}

impl<E> Outbox<'_, E> {
    /// The executor's cross-component lookahead.
    #[must_use]
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// Schedules `ev` for component `to` at instant `at`.
    ///
    /// Self-sends must target at least `now + 1`; sends to any other
    /// component at least `now + lookahead`. Earlier targets are clamped
    /// to that floor and recorded as an [`OrderViolation`].
    pub fn send(&mut self, to: CompId, at: Cycle, ev: E) {
        let floor = if to == self.from {
            self.now + 1
        } else {
            self.now + self.lookahead
        };
        let seq = *self.out_seq;
        *self.out_seq += 1;
        let mut t = at.as_u64();
        if t < floor {
            self.violations.push(OrderViolation {
                src: self.from,
                dst: to,
                now: self.now,
                at: t,
                floor,
                seq,
            });
            t = floor;
        }
        self.queue.push(
            Cycle::new(t),
            Keyed {
                comp: to,
                src: self.from as u32,
                seq,
                ev,
            },
        );
    }
}

/// The serial component executor.
///
/// Lifecycle: [`Executor::new`], seed initial events with
/// [`Executor::seed`], then [`Executor::run`] with the machine's
/// [`Handler`].
pub struct Executor<E> {
    lookahead: u64,
    queue: EventQueue<Keyed<E>>,
    /// Per-component outgoing sequence counters.
    out_seqs: Vec<u64>,
    /// Reusable same-cycle batch.
    batch: Vec<Keyed<E>>,
}

impl<E> Executor<E> {
    /// Creates an executor for `components` components with the given
    /// cross-component `lookahead` (raised to at least 1).
    #[must_use]
    pub fn new(components: usize, lookahead: u64) -> Self {
        Executor {
            lookahead: lookahead.max(1),
            queue: EventQueue::new(),
            out_seqs: vec![0; components],
            batch: Vec::new(),
        }
    }

    /// Seeds an initial event for `comp` at instant `at`, keyed as a
    /// self-send so seed order is the same-cycle dispatch order.
    pub fn seed(&mut self, comp: CompId, at: Cycle, ev: E) {
        let seq = self.out_seqs[comp];
        self.out_seqs[comp] += 1;
        self.queue.push(
            at,
            Keyed {
                comp,
                src: comp as u32,
                seq,
                ev,
            },
        );
    }

    /// Runs the schedule to completion.
    pub fn run<H: Handler<E>>(&mut self, handler: &mut H) -> ExecRun {
        let Executor {
            lookahead,
            queue,
            out_seqs,
            batch,
        } = self;
        let mut run = ExecRun::default();
        while let Some(now) = queue.peek_time() {
            while queue.peek_time() == Some(now) {
                let (_, k) = queue.pop().expect("peeked non-empty");
                batch.push(k);
            }
            batch.sort_unstable_by_key(|k| (k.comp, k.src, k.seq));
            for k in batch.drain(..) {
                let mut out = Outbox {
                    from: k.comp,
                    now: now.as_u64(),
                    lookahead: *lookahead,
                    out_seq: &mut out_seqs[k.comp],
                    queue: &mut *queue,
                    violations: &mut run.violations,
                };
                handler.handle(k.comp, now, k.ev, &mut out);
                run.dispatched += 1;
            }
        }
        #[cfg(feature = "audit")]
        for (prev, at) in queue.take_order_findings() {
            run.queue_findings.push((prev.as_u64(), at.as_u64()));
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: each event is a token with a remaining hop count; the
    /// handler forwards it to `(comp + 1) % components` with a
    /// deterministic delay until the count hits zero, recording every
    /// dispatch it sees.
    struct Hopper {
        trace: Vec<(CompId, u64, u32)>,
        components: usize,
    }

    impl Handler<u32> for Hopper {
        fn handle(&mut self, comp: CompId, now: Cycle, hops: u32, out: &mut Outbox<'_, u32>) {
            self.trace.push((comp, now.as_u64(), hops));
            if hops > 0 {
                let next = (comp + 1) % self.components;
                let delay = out.lookahead() + u64::from(hops % 3);
                out.send(next, Cycle::new(now.as_u64() + delay), hops - 1);
            }
        }
    }

    fn hopper() -> Hopper {
        Hopper {
            trace: Vec::new(),
            components: 4,
        }
    }

    fn seeded_hops() -> Executor<u32> {
        let mut exec = Executor::new(4, 4);
        for c in 0..4 {
            exec.seed(c, Cycle::new(c as u64), 20 + c as u32);
        }
        exec
    }

    #[test]
    fn same_cycle_batch_dispatches_in_component_then_key_order() {
        // Components 1 and 0 both send to component 2 at the same target
        // cycle, and component 3 gets one event at that cycle too: the
        // batch runs component 2 before 3, and within 2 by (src, seq),
        // whatever order the sends were issued in.
        struct Fan {
            seen: Vec<(CompId, (u32, u64))>,
        }
        impl Handler<(u32, u64)> for Fan {
            fn handle(
                &mut self,
                comp: CompId,
                now: Cycle,
                ev: (u32, u64),
                out: &mut Outbox<'_, (u32, u64)>,
            ) {
                if comp >= 2 {
                    self.seen.push((comp, ev));
                } else {
                    let at = Cycle::new(now.as_u64() + 10);
                    out.send(3, at, (comp as u32, 9));
                    out.send(2, at, (comp as u32, 0));
                    out.send(2, at, (comp as u32, 1));
                }
            }
        }
        let mut exec = Executor::new(4, 10);
        exec.seed(1, Cycle::new(5), (99, 99));
        exec.seed(0, Cycle::new(5), (99, 99));
        let mut fan = Fan { seen: Vec::new() };
        let run = exec.run(&mut fan);
        assert_eq!(
            fan.seen,
            vec![
                (2, (0, 0)),
                (2, (0, 1)),
                (2, (1, 0)),
                (2, (1, 1)),
                (3, (0, 9)),
                (3, (1, 9)),
            ]
        );
        assert_eq!(run.dispatched, 8);
        assert!(run.violations.is_empty());
    }

    #[test]
    fn contract_violations_are_clamped_and_recorded() {
        struct Bad;
        impl Handler<u8> for Bad {
            fn handle(&mut self, comp: CompId, now: Cycle, ev: u8, out: &mut Outbox<'_, u8>) {
                if ev == 0 {
                    // Past self-send and a sub-lookahead cross send.
                    // bc-lint: allow(saturating-counter) — deliberately
                    // constructs an in-the-past send to test the clamp.
                    out.send(comp, Cycle::new(now.as_u64().saturating_sub(3)), 1);
                    out.send(1 - comp, Cycle::new(now.as_u64() + 1), 1);
                }
            }
        }
        let mut exec = Executor::new(2, 8);
        exec.seed(0, Cycle::new(100), 0);
        let run = exec.run(&mut Bad);
        assert_eq!(run.violations.len(), 2);
        assert_eq!(run.violations[0].floor, 101, "self floor is now+1");
        assert_eq!(run.violations[1].floor, 108, "cross floor is now+lookahead");
        // Clamped events still dispatched.
        assert_eq!(run.dispatched, 3);
    }

    #[test]
    fn run_dispatches_every_hop_in_time_order() {
        let mut exec = seeded_hops();
        let mut h = hopper();
        let run = exec.run(&mut h);
        // Tokens start with 20..=23 hops and each is dispatched once per
        // remaining hop plus its final arrival.
        assert_eq!(run.dispatched, (20..24).map(|n| n + 1).sum::<u64>());
        assert_eq!(h.trace.len() as u64, run.dispatched);
        assert!(h.trace.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(run.violations.is_empty());

        let mut again = seeded_hops();
        let mut h2 = hopper();
        again.run(&mut h2);
        assert_eq!(h.trace, h2.trace, "a rerun dispatches identically");
    }
}
