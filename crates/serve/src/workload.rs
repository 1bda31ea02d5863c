//! Seeded synthetic request streams: the open-loop arrival side of the
//! serving simulation. Every stream is a pure function of its
//! [`WorkloadConfig`] (the RNG is seeded and consumed in a fixed order),
//! so the same config always produces the same requests — the foundation
//! of the server's bit-identical determinism guarantee.
//!
//! There is one generator, [`Stream`]: a resumable walk of the phases
//! that appends the next arrivals to a caller's `Vec`. A fleet run keeps
//! one reused block of [`BLOCK`] future arrivals and refills it as it
//! routes, so its memory follows the requests in flight, not the length
//! of the stream; [`generate`] runs the same walk to the end into one
//! `Vec` for callers that want the whole stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Arrival process of one workload phase.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// Poisson arrivals at `rate` requests/second (i.i.d. exponential
    /// inter-arrival gaps) — the standard open-loop serving model.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// Evenly spaced arrivals at `rate` requests/second (zero jitter;
    /// useful for reasoning about batcher edge cases).
    Uniform {
        /// Arrival rate, requests per second.
        rate: f64,
    },
}

impl Arrival {
    fn rate(&self) -> f64 {
        match *self {
            Arrival::Poisson { rate } | Arrival::Uniform { rate } => rate,
        }
    }
}

// Manual impl: the vendored serde derive handles unit enums only.
impl Serialize for Arrival {
    fn serialize_json(&self, out: &mut String) {
        let (process, rate) = match *self {
            Arrival::Poisson { rate } => ("poisson", rate),
            Arrival::Uniform { rate } => ("uniform", rate),
        };
        out.push_str("{\"process\":");
        process.serialize_json(out);
        out.push_str(",\"rate\":");
        rate.serialize_json(out);
        out.push('}');
    }
}

/// One phase of the workload: an arrival process held for `duration`
/// seconds. Chaining phases at different rates makes the effective batch
/// size — and therefore the optimal layout plan — change over one run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Phase {
    /// The arrival process during this phase.
    pub arrival: Arrival,
    /// Phase length, seconds of simulated time.
    pub duration: f64,
}

/// A complete workload description.
#[derive(Clone, Debug, Serialize)]
pub struct WorkloadConfig {
    /// Phases, played back to back starting at t = 0.
    pub phases: Vec<Phase>,
    /// Smallest per-request image count (>= 1).
    pub images_min: usize,
    /// Largest per-request image count (>= `images_min`).
    pub images_max: usize,
    /// RNG seed; same seed + config = same stream, bit for bit.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Single-phase Poisson workload of single-image requests.
    pub fn poisson(rate: f64, duration: f64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Poisson { rate }, duration }],
            images_min: 1,
            images_max: 1,
            seed,
        }
    }

    /// Total simulated duration across phases, seconds.
    pub fn duration(&self) -> f64 {
        self.phases.iter().map(|p| p.duration).sum()
    }
}

/// One inference request: `images` images arriving together at `arrival`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Request {
    /// Stable id (generation order == arrival order).
    pub id: u64,
    /// Arrival time, seconds from stream start.
    pub arrival: f64,
    /// Number of images the request carries.
    pub images: usize,
}

/// Requests per block of a streamed run: the fleet loop holds this many
/// future arrivals at a time.
pub(crate) const BLOCK: usize = 4096;

/// The request generator: the phases walked in order, resumable at any
/// arrival. Each phase draws inter-arrival gaps from `t = phase start`
/// until one lands at or past the phase end (that gap is drawn and
/// discarded); a phase with a non-positive rate or duration draws
/// nothing. Stopping between two arrivals and resuming draws exactly
/// what one uninterrupted walk draws, so every block boundary yields the
/// same stream, bit for bit.
pub(crate) struct Stream<'c> {
    phases: &'c [Phase],
    rng: StdRng,
    images_lo: usize,
    images_hi: usize,
    /// The phase being walked (`phases.len()` once the stream ended).
    phase: usize,
    phase_start: f64,
    /// The last arrival drawn in the current phase (its start before
    /// the first).
    t: f64,
    next_id: u64,
}

impl<'c> Stream<'c> {
    pub(crate) fn new(cfg: &'c WorkloadConfig) -> Stream<'c> {
        let lo = cfg.images_min.max(1);
        Stream {
            phases: &cfg.phases,
            rng: StdRng::seed_from_u64(cfg.seed),
            images_lo: lo,
            images_hi: cfg.images_max.max(lo),
            phase: 0,
            phase_start: 0.0,
            t: 0.0,
            next_id: 0,
        }
    }

    /// Append up to `n` next arrivals to `out`; returns how many it
    /// appended (fewer than `n` only once the stream has ended).
    pub(crate) fn extend(&mut self, out: &mut Vec<Request>, n: usize) -> usize {
        let start = out.len();
        let stop = start.saturating_add(n);
        while out.len() < stop {
            let Some(&ph) = self.phases.get(self.phase) else { break };
            let end = self.phase_start + ph.duration;
            if ph.arrival.rate() > 0.0 && ph.duration > 0.0 {
                // Locals, not fields, in the loop: the `ln` call spills
                // whatever lives in memory.
                let (lo, hi) = (self.images_lo, self.images_hi);
                let (mut rng, mut t, mut id) = (self.rng.clone(), self.t, self.next_id);
                let mut ended = false;
                while out.len() < stop {
                    let gap = match ph.arrival {
                        Arrival::Poisson { rate } => {
                            let u: f64 = rng.gen_range(0.0f64..1.0);
                            -(1.0 - u).ln() / rate
                        }
                        Arrival::Uniform { rate } => 1.0 / rate,
                    };
                    t += gap;
                    if t >= end {
                        ended = true;
                        break;
                    }
                    let images = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                    out.push(Request { id, arrival: t, images });
                    id += 1;
                }
                (self.rng, self.t, self.next_id) = (rng, t, id);
                if !ended {
                    break; // `out` is full mid-phase
                }
            }
            self.phase += 1;
            self.phase_start = end;
            self.t = end;
        }
        out.len() - start
    }
}

/// Generate the request stream for `cfg`: the [`Stream`] walk run to
/// the end into one `Vec`. Arrival times are strictly increasing; phases
/// with a non-positive rate contribute nothing.
pub fn generate(cfg: &WorkloadConfig) -> Vec<Request> {
    let mut out = Vec::new();
    Stream::new(cfg).extend(&mut out, usize::MAX);
    out
}

/// The last arrival of `cfg`'s stream (`None` for an empty stream), from
/// one pass of the generator through a reused block.
pub(crate) fn last_arrival(cfg: &WorkloadConfig) -> Option<f64> {
    let mut stream = Stream::new(cfg);
    let mut block = Vec::with_capacity(BLOCK);
    let mut last = None;
    loop {
        block.clear();
        if stream.extend(&mut block, BLOCK) == 0 {
            return last;
        }
        last = block.last().map(|r| r.arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-shot walk the block generator replaced: the model its
    /// requests must equal bit for bit.
    fn one_shot(cfg: &WorkloadConfig) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (lo, hi) = (cfg.images_min.max(1), cfg.images_max.max(cfg.images_min.max(1)));
        let mut out = Vec::new();
        let mut phase_start = 0.0f64;
        for ph in &cfg.phases {
            let end = phase_start + ph.duration;
            let rate = ph.arrival.rate();
            if rate > 0.0 && ph.duration > 0.0 {
                let mut t = phase_start;
                loop {
                    let gap = match ph.arrival {
                        Arrival::Poisson { rate } => {
                            let u: f64 = rng.gen_range(0.0f64..1.0);
                            -(1.0 - u).ln() / rate
                        }
                        Arrival::Uniform { rate } => 1.0 / rate,
                    };
                    t += gap;
                    if t >= end {
                        break;
                    }
                    let images = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                    out.push(Request { id: out.len() as u64, arrival: t, images });
                }
            }
            phase_start = end;
        }
        out
    }

    fn bits(reqs: &[Request]) -> Vec<(u64, u64, usize)> {
        reqs.iter().map(|r| (r.id, r.arrival.to_bits(), r.images)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `generate`, every block size and the counting pass agree with
        /// the one-shot walk: multi-phase configs, zero and negative
        /// rates, zero durations, both arrival processes, inverted image
        /// ranges and empty streams.
        #[test]
        fn block_walk_equals_the_one_shot_walk(
            phases in prop::collection::vec((any::<bool>(), 0usize..5, 0usize..4), 0..5),
            (images_min, images_max) in (0usize..4, 0usize..6),
            seed in any::<u64>(),
            block in 1usize..300,
        ) {
            let rates = [-10.0, 0.0, 40.0, 900.0, 6000.0];
            let durations = [0.0, 0.004, 0.03, 0.2];
            let phases = phases
                .into_iter()
                .map(|(poisson, r, d)| Phase {
                    arrival: if poisson {
                        Arrival::Poisson { rate: rates[r] }
                    } else {
                        Arrival::Uniform { rate: rates[r] }
                    },
                    duration: durations[d],
                })
                .collect();
            let cfg = WorkloadConfig { phases, images_min, images_max, seed };
            let want = bits(&one_shot(&cfg));
            prop_assert_eq!(bits(&generate(&cfg)), want.clone());
            let mut stream = Stream::new(&cfg);
            let (mut got, mut buf) = (Vec::new(), Vec::new());
            loop {
                buf.clear();
                let n = stream.extend(&mut buf, block);
                prop_assert_eq!(n, buf.len());
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf);
            }
            prop_assert_eq!(bits(&got), want.clone());
            prop_assert_eq!(last_arrival(&cfg).map(f64::to_bits), want.last().map(|r| r.1));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = WorkloadConfig {
            phases: vec![
                Phase { arrival: Arrival::Poisson { rate: 500.0 }, duration: 0.5 },
                Phase { arrival: Arrival::Uniform { rate: 100.0 }, duration: 0.5 },
            ],
            images_min: 1,
            images_max: 4,
            seed: 42,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.images, y.images);
        }
        let c = generate(&WorkloadConfig { seed: 43, ..cfg });
        assert_ne!(
            a.iter().map(|r| r.arrival.to_bits()).collect::<Vec<_>>(),
            c.iter().map(|r| r.arrival.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let cfg = WorkloadConfig {
            phases: vec![
                Phase { arrival: Arrival::Poisson { rate: 2000.0 }, duration: 0.25 },
                Phase { arrival: Arrival::Poisson { rate: 50.0 }, duration: 0.25 },
            ],
            images_min: 2,
            images_max: 8,
            seed: 7,
        };
        let reqs = generate(&cfg);
        for w in reqs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
        for r in &reqs {
            assert!(r.arrival > 0.0 && r.arrival < 0.5);
            assert!((2..=8).contains(&r.images));
        }
        // The fast phase dominates the count.
        let fast = reqs.iter().filter(|r| r.arrival < 0.25).count();
        assert!(fast > reqs.len() / 2);
    }

    #[test]
    fn uniform_rate_yields_expected_count() {
        let cfg = WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Uniform { rate: 100.0 }, duration: 1.0 }],
            images_min: 1,
            images_max: 1,
            seed: 0,
        };
        let reqs = generate(&cfg);
        // Gaps of 10 ms over 1 s -> 99 arrivals strictly inside (0, 1).
        assert_eq!(reqs.len(), 99);
        assert_eq!(reqs.last().unwrap().id, 98);
    }

    #[test]
    fn zero_rate_phase_contributes_nothing() {
        let cfg = WorkloadConfig {
            phases: vec![
                Phase { arrival: Arrival::Poisson { rate: 0.0 }, duration: 1.0 },
                Phase { arrival: Arrival::Uniform { rate: 10.0 }, duration: 1.0 },
            ],
            images_min: 1,
            images_max: 1,
            seed: 1,
        };
        let reqs = generate(&cfg);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|r| r.arrival >= 1.0), "first phase must be silent");
    }
}
