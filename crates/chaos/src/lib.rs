//! # safara-chaos — deterministic, seeded fault injection
//!
//! The SAFARA loop only works because it survives an unreliable black
//! box: PTXAS is re-invoked per feedback round and a spilling round is
//! *reverted*, not fatal (paper §III-B.2). A long-lived service built
//! around that pipeline needs the same posture toward every other
//! component — and the only way to *prove* it has it is to break each
//! component on purpose, reproducibly.
//!
//! A [`FaultPlan`] is a seeded schedule of faults evaluated at named
//! [`InjectionPoint`]s threaded through the compile/simulate pipeline
//! and the server. Evaluation is deterministic: each point keeps a
//! sequence counter, and whether the `n`-th arrival at a point faults
//! is a pure function of `(seed, point, n)`. Two runs with the same
//! plan and the same arrival order see the same faults; a plan built by
//! [`FaultPlan::none`] never fires and costs one branch per check.
//!
//! This crate is dependency-free and sits at the bottom of the
//! workspace (like `safara-obs`) so `core` and `server` can thread a
//! plan through without cycles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Named places in the pipeline and server where a fault can fire.
///
/// The point names (see [`InjectionPoint::name`]) are also the spec
/// syntax used by `safara-serve --fault` and [`FaultSpec::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// Front-end parse (`safara_core` pipeline).
    Parse,
    /// Semantic checks.
    Sema,
    /// Reuse analysis.
    Analysis,
    /// One iteration of SAFARA's feedback loop — a [`FaultAction::Spill`]
    /// here forces the "PTXAS reports spilling" path the loop must
    /// survive by reverting the round.
    FeedbackRound,
    /// Final register allocation.
    RegAlloc,
    /// Simulator execution (slow/hung/failed launches).
    Sim,
    /// Worker job processing in the server ([`FaultAction::Panic`]).
    WorkerJob,
    /// Reply delivery ([`FaultAction::Hangup`]: the client vanished).
    Reply,
    /// The equality-saturation phase ahead of scalar replacement — a
    /// [`FaultAction::Fail`] here exercises the e-node-cap abort path
    /// (typed `saturate` compile error, never a hang).
    Saturate,
}

/// Number of distinct injection points.
pub const N_POINTS: usize = 9;

impl InjectionPoint {
    /// Every point, in declaration order.
    pub const ALL: [InjectionPoint; N_POINTS] = [
        InjectionPoint::Parse,
        InjectionPoint::Sema,
        InjectionPoint::Analysis,
        InjectionPoint::FeedbackRound,
        InjectionPoint::RegAlloc,
        InjectionPoint::Sim,
        InjectionPoint::WorkerJob,
        InjectionPoint::Reply,
        InjectionPoint::Saturate,
    ];

    /// Stable index (used for per-point counters and hashing).
    pub fn index(self) -> usize {
        match self {
            InjectionPoint::Parse => 0,
            InjectionPoint::Sema => 1,
            InjectionPoint::Analysis => 2,
            InjectionPoint::FeedbackRound => 3,
            InjectionPoint::RegAlloc => 4,
            InjectionPoint::Sim => 5,
            InjectionPoint::WorkerJob => 6,
            InjectionPoint::Reply => 7,
            InjectionPoint::Saturate => 8,
        }
    }

    /// The spec-syntax name (`sim`, `worker`, ...).
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::Parse => "parse",
            InjectionPoint::Sema => "sema",
            InjectionPoint::Analysis => "analysis",
            InjectionPoint::FeedbackRound => "feedback",
            InjectionPoint::RegAlloc => "regalloc",
            InjectionPoint::Sim => "sim",
            InjectionPoint::WorkerJob => "worker",
            InjectionPoint::Reply => "reply",
            InjectionPoint::Saturate => "saturate",
        }
    }

    /// Inverse of [`InjectionPoint::name`].
    pub fn by_name(s: &str) -> Option<InjectionPoint> {
        InjectionPoint::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether the call site at this point acts on `action`: a delay or
    /// a hang anywhere, a failure anywhere but reply delivery, a forced
    /// spill in the feedback loop and at register allocation, a panic in
    /// a worker, a hangup at reply delivery. [`FaultSpec::parse`] refuses
    /// any other pair, which would fire and change nothing.
    pub fn honours(self, action: FaultAction) -> bool {
        match action {
            FaultAction::Delay { .. } | FaultAction::Hang => true,
            FaultAction::Fail => self != InjectionPoint::Reply,
            FaultAction::Spill => {
                matches!(self, InjectionPoint::FeedbackRound | InjectionPoint::RegAlloc)
            }
            FaultAction::Panic => self == InjectionPoint::WorkerJob,
            FaultAction::Hangup => self == InjectionPoint::Reply,
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The component reports an error (parse error, sim failure, ...).
    Fail,
    /// The register allocator reports spilling (feedback-round points:
    /// the loop must revert, not die).
    Spill,
    /// The component takes `ms` extra milliseconds.
    Delay {
        /// Added latency (clamped by the plan's `max_delay_ms`).
        ms: u64,
    },
    /// The component hangs (a bounded stand-in for "forever": sleeps
    /// the plan's `max_delay_ms`).
    Hang,
    /// The thread panics mid-job (worker isolation must contain it).
    Panic,
    /// The client hangs up before the reply is written.
    Hangup,
}

impl FaultAction {
    /// One of each action, in spec-syntax order.
    const ALL: [FaultAction; 6] = [
        FaultAction::Fail,
        FaultAction::Spill,
        FaultAction::Delay { ms: 10 },
        FaultAction::Hang,
        FaultAction::Panic,
        FaultAction::Hangup,
    ];

    /// The spec-syntax name.
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Fail => "fail",
            FaultAction::Spill => "spill",
            FaultAction::Delay { .. } => "delay",
            FaultAction::Hang => "hang",
            FaultAction::Panic => "panic",
            FaultAction::Hangup => "hangup",
        }
    }
}

/// When a spec fires at its point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fire {
    /// Fire on the first `n` arrivals, then never again — the
    /// deterministic shape smoke tests want ("fail once, then recover").
    First(u64),
    /// Fire each arrival independently with probability `p`, decided by
    /// a hash of `(seed, point, spec, sequence)` — reproducible noise.
    Prob(f64),
}

/// One scheduled fault: where, what, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The injection point this spec watches.
    pub point: InjectionPoint,
    /// The fault it injects.
    pub action: FaultAction,
    /// The firing rule.
    pub fire: Fire,
}

impl FaultSpec {
    /// Parse the CLI spec syntax: `point:action[:count][:ms]`.
    ///
    /// `count` is an integer (`Fire::First`) or a probability with a
    /// decimal point (`Fire::Prob`); it defaults to `1`. `delay` takes
    /// a trailing `ms` field (default 10). The point must act on the
    /// action ([`InjectionPoint::honours`]). Examples:
    ///
    /// ```text
    /// sim:fail:1        # the first simulation fails
    /// sim:delay:0.25:50 # 25% of simulations take +50 ms
    /// worker:panic:2    # the first two jobs panic their worker
    /// reply:hangup:0.5  # half of the replies are dropped
    /// ```
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 2 || parts.len() > 4 {
            return Err(format!("bad fault spec `{s}` (want point:action[:count][:ms])"));
        }
        let point = InjectionPoint::by_name(parts[0])
            .ok_or_else(|| format!("unknown injection point `{}`", parts[0]))?;
        let fire = match parts.get(2) {
            None => Fire::First(1),
            Some(c) if c.contains('.') => {
                let p: f64 = c.parse().map_err(|_| format!("bad probability `{c}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability `{c}` out of [0,1]"));
                }
                Fire::Prob(p)
            }
            Some(c) => Fire::First(c.parse().map_err(|_| format!("bad count `{c}`"))?),
        };
        let action = match parts[1] {
            "fail" => FaultAction::Fail,
            "spill" => FaultAction::Spill,
            "delay" => FaultAction::Delay {
                ms: match parts.get(3) {
                    None => 10,
                    Some(ms) => ms.parse().map_err(|_| format!("bad delay ms `{ms}`"))?,
                },
            },
            "hang" => FaultAction::Hang,
            "panic" => FaultAction::Panic,
            "hangup" => FaultAction::Hangup,
            other => return Err(format!("unknown fault action `{other}`")),
        };
        if !point.honours(action) {
            let honoured: Vec<&str> = FaultAction::ALL
                .into_iter()
                .filter(|&a| point.honours(a))
                .map(FaultAction::name)
                .collect();
            return Err(format!(
                "`{}` does not act on `{}` (it honours {})",
                point.name(),
                action.name(),
                honoured.join(", ")
            ));
        }
        Ok(FaultSpec { point, action, fire })
    }
}

/// SplitMix64 step — the mixing function behind [`Fire::Prob`]
/// decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded fault schedule, shareable across threads.
///
/// All state is atomic: many worker threads can call
/// [`FaultPlan::check`] concurrently. Determinism holds per point —
/// the `n`-th arrival at a point always gets the same decision for a
/// given seed, whichever thread makes it.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Arrivals per point (the sequence number source).
    seqs: [AtomicU64; N_POINTS],
    /// Faults actually fired per point.
    fired: [AtomicU64; N_POINTS],
    /// Upper bound for `Delay` sleeps and the stand-in duration for
    /// `Hang` — chaos must never wedge a test harness for real.
    max_delay_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The no-fault plan: [`FaultPlan::check`] always answers `None`
    /// without touching the counters.
    pub fn none() -> FaultPlan {
        Self::seeded(0)
    }

    /// An empty plan with a seed; add faults with [`FaultPlan::with`].
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
            seqs: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
            max_delay_ms: 2_000,
        }
    }

    /// Add one fault spec (builder-style).
    pub fn with(mut self, point: InjectionPoint, action: FaultAction, fire: Fire) -> FaultPlan {
        self.specs.push(FaultSpec { point, action, fire });
        self
    }

    /// Add a parsed CLI spec.
    pub fn with_spec(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Change the delay/hang clamp.
    pub fn with_max_delay_ms(mut self, ms: u64) -> FaultPlan {
        self.max_delay_ms = ms;
        self
    }

    /// True when the plan can never fire.
    pub fn is_inert(&self) -> bool {
        self.specs.is_empty()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Evaluate one arrival at `point`. Increments the point's sequence
    /// counter and returns the injected fault, if any. The first
    /// matching spec wins.
    pub fn check(&self, point: InjectionPoint) -> Option<FaultAction> {
        if self.specs.is_empty() {
            return None;
        }
        let i = point.index();
        let seq = self.seqs[i].fetch_add(1, Ordering::Relaxed);
        for (si, spec) in self.specs.iter().enumerate() {
            if spec.point != point {
                continue;
            }
            let fires = match spec.fire {
                Fire::First(n) => seq < n,
                Fire::Prob(p) => {
                    let h = splitmix64(
                        self.seed
                            ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            ^ (si as u64) << 56
                            ^ seq.wrapping_mul(0xd1b5_4a32_d192_ed03),
                    );
                    (h as f64 / u64::MAX as f64) < p
                }
            };
            if fires {
                self.fired[i].fetch_add(1, Ordering::Relaxed);
                return Some(spec.action);
            }
        }
        None
    }

    /// How long a `Delay`/`Hang` action sleeps under this plan's clamp;
    /// 0 for non-delaying actions.
    pub fn delay_ms(&self, action: &FaultAction) -> u64 {
        match action {
            FaultAction::Delay { ms } => (*ms).min(self.max_delay_ms),
            FaultAction::Hang => self.max_delay_ms,
            _ => 0,
        }
    }

    /// Evaluate one arrival at `point` the way every call site does: a
    /// `Delay`/`Hang` is slept out here (the sleep *is* the fault) and
    /// yields `None`; any other action is returned for the call site to
    /// turn into its typed failure.
    pub fn at(&self, point: InjectionPoint) -> Option<FaultAction> {
        let action = self.check(point)?;
        let ms = self.delay_ms(&action);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            return None;
        }
        Some(action)
    }

    /// Arrivals observed at `point`.
    pub fn arrivals(&self, point: InjectionPoint) -> u64 {
        self.seqs[point.index()].load(Ordering::Relaxed)
    }

    /// Faults fired at `point`.
    pub fn fired(&self, point: InjectionPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }

    /// Faults fired across all points.
    pub fn fired_total(&self) -> u64 {
        self.fired.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires_and_counts_nothing() {
        let plan = FaultPlan::none();
        for point in InjectionPoint::ALL {
            for _ in 0..100 {
                assert_eq!(plan.check(point), None);
            }
            assert_eq!(plan.arrivals(point), 0, "inert plan skips counters");
        }
        assert!(plan.is_inert());
        assert_eq!(plan.fired_total(), 0);
    }

    #[test]
    fn first_n_fires_exactly_n_times() {
        let plan = FaultPlan::seeded(7).with(
            InjectionPoint::Sim,
            FaultAction::Fail,
            Fire::First(3),
        );
        let fired: Vec<bool> =
            (0..10).map(|_| plan.check(InjectionPoint::Sim).is_some()).collect();
        assert_eq!(fired, [true, true, true, false, false, false, false, false, false, false]);
        assert_eq!(plan.fired(InjectionPoint::Sim), 3);
        assert_eq!(plan.arrivals(InjectionPoint::Sim), 10);
        // Other points are untouched.
        assert_eq!(plan.check(InjectionPoint::Parse), None);
    }

    #[test]
    fn prob_decisions_are_deterministic_per_seed_and_sequence() {
        let decide = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with(
                InjectionPoint::Sim,
                FaultAction::Fail,
                Fire::Prob(0.5),
            );
            (0..64).map(|_| plan.check(InjectionPoint::Sim).is_some()).collect()
        };
        assert_eq!(decide(42), decide(42), "same seed, same schedule");
        assert_ne!(decide(42), decide(43), "different seed, different schedule");
        let hits = decide(42).iter().filter(|b| **b).count();
        assert!((16..=48).contains(&hits), "p=0.5 over 64 draws fired {hits} times");
    }

    #[test]
    fn prob_zero_and_one_are_exact() {
        let never = FaultPlan::seeded(1).with(
            InjectionPoint::Sim,
            FaultAction::Fail,
            Fire::Prob(0.0),
        );
        let always = FaultPlan::seeded(1).with(
            InjectionPoint::Sim,
            FaultAction::Fail,
            Fire::Prob(1.0),
        );
        for _ in 0..50 {
            assert_eq!(never.check(InjectionPoint::Sim), None);
            assert!(always.check(InjectionPoint::Sim).is_some());
        }
    }

    #[test]
    fn first_matching_spec_wins() {
        let plan = FaultPlan::seeded(0)
            .with(InjectionPoint::Sim, FaultAction::Fail, Fire::First(1))
            .with(InjectionPoint::Sim, FaultAction::Hang, Fire::First(10));
        assert_eq!(plan.check(InjectionPoint::Sim), Some(FaultAction::Fail));
        assert_eq!(plan.check(InjectionPoint::Sim), Some(FaultAction::Hang));
    }

    #[test]
    fn delays_are_clamped() {
        let plan = FaultPlan::seeded(0).with_max_delay_ms(25);
        assert_eq!(plan.delay_ms(&FaultAction::Delay { ms: 10 }), 10);
        assert_eq!(plan.delay_ms(&FaultAction::Delay { ms: 99_999 }), 25);
        assert_eq!(plan.delay_ms(&FaultAction::Hang), 25);
        assert_eq!(plan.delay_ms(&FaultAction::Fail), 0);
        // `at` sleeps a delay out and hands anything else back.
        let sim = InjectionPoint::Sim;
        let plan = plan
            .with(sim, FaultAction::Delay { ms: 1 }, Fire::First(1))
            .with(sim, FaultAction::Fail, Fire::First(2));
        assert_eq!(plan.at(sim), None);
        assert_eq!(plan.at(sim), Some(FaultAction::Fail));
        assert_eq!(plan.at(sim), None);
        assert_eq!((plan.arrivals(sim), plan.fired(sim)), (3, 2));
    }

    #[test]
    fn spec_syntax_roundtrips() {
        let s = FaultSpec::parse("sim:fail:1").unwrap();
        assert_eq!(s.point, InjectionPoint::Sim);
        assert_eq!(s.action, FaultAction::Fail);
        assert_eq!(s.fire, Fire::First(1));

        let s = FaultSpec::parse("sim:delay:0.25:50").unwrap();
        assert_eq!(s.action, FaultAction::Delay { ms: 50 });
        assert_eq!(s.fire, Fire::Prob(0.25));

        let s = FaultSpec::parse("worker:panic").unwrap();
        assert_eq!(s.point, InjectionPoint::WorkerJob);
        assert_eq!(s.fire, Fire::First(1));

        for bad in [
            "sim", "nowhere:fail", "sim:dance", "sim:fail:x", "sim:fail:1.5",
            "sim:delay:1:zz", "a:b:c:d:e", "cache:fail", "sim:poison",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_spec_parses_only_where_its_point_acts_on_it() {
        // What each call site does with a fired action; any other pair
        // would be counted as fired and change nothing.
        let honours = [
            ("parse", "fail, delay, hang"),
            ("sema", "fail, delay, hang"),
            ("analysis", "fail, delay, hang"),
            ("feedback", "fail, spill, delay, hang"),
            ("regalloc", "fail, spill, delay, hang"),
            ("sim", "fail, delay, hang"),
            ("worker", "fail, delay, hang, panic"),
            ("reply", "delay, hang, hangup"),
            ("saturate", "fail, delay, hang"),
        ];
        let named: Vec<&str> = InjectionPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(honours.map(|(p, _)| p), named[..], "one row per point");
        for (point, acts) in honours {
            for action in ["fail", "spill", "delay", "hang", "panic", "hangup"] {
                let spec = format!("{point}:{action}");
                let honoured = acts.split(", ").any(|a| a == action);
                match FaultSpec::parse(&spec) {
                    Ok(s) => {
                        assert!(honoured, "{spec} parsed");
                        assert_eq!((s.point.name(), s.action.name()), (point, action));
                    }
                    Err(e) => {
                        assert!(!honoured && e.ends_with(&format!("(it honours {acts})")), "{spec}: {e}")
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_checks_conserve_fires() {
        let plan = std::sync::Arc::new(FaultPlan::seeded(9).with(
            InjectionPoint::WorkerJob,
            FaultAction::Panic,
            Fire::First(5),
        ));
        let fired: u64 = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let plan = std::sync::Arc::clone(&plan);
                    s.spawn(move || {
                        (0..100)
                            .filter(|_| plan.check(InjectionPoint::WorkerJob).is_some())
                            .count() as u64
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(fired, 5, "exactly the first five arrivals fault");
        assert_eq!(plan.arrivals(InjectionPoint::WorkerJob), 400);
    }
}
