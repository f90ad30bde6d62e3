//! `ExecOptions` — the one place that knows how an execution knob
//! resolves.
//!
//! Two knobs steer a launch without changing its result: the engine and
//! the block-parallel worker count. Both belong to whoever runs the
//! process, never to a request, and resolve through the same two
//! settable layers:
//!
//! 1. **scope** — the innermost `Some` among the [`ExecOptions::scope`]s
//!    enclosing the launch on this thread (oracles, differential tests,
//!    the benchmark's per-engine probes);
//! 2. **env** — `SAFARA_ENGINE`, `SAFARA_SIM_THREADS`, read once per
//!    process at the first resolution;
//!
//! and otherwise the **default**: superblock engine, one worker per CPU.
//! The three engines are stats- and memory-identical, so the default is
//! a choice of speed alone: the superblock engine runs the fig7 suite in
//! about half the decoded engine's time. `decoded` and `reference` stay
//! selectable through both layers, as oracles and for bisecting. The
//! superblock engine's hot-block threshold is not a knob: it is a
//! constant of that engine ([`crate::superblock`]).
//!
//! A `None` field falls through to the next layer, so an
//! `ExecOptions::inherit()` scope is a no-op and the struct can always
//! be applied unconditionally. Scopes are per thread: a thread spawned
//! inside one starts unscoped, and re-enters [`ExecOptions::current`]
//! captured from its parent if it should inherit.

use crate::interp::Engine;
use crate::parallel::parse_sim_threads;
use std::cell::Cell;
use std::sync::OnceLock;

/// Execution options; `None` fields inherit the enclosing scope /
/// environment / default (see the module docs for the order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Which interpreter runs the launch.
    pub engine: Option<Engine>,
    /// Block-parallel worker count (`0` = auto: one per CPU).
    pub sim_threads: Option<u32>,
}

const INHERIT: ExecOptions = ExecOptions { engine: None, sim_threads: None };

/// What a launch runs under when neither a scope nor the environment
/// says otherwise. The engine is the fastest of three byte-identical
/// ones, not a semantic choice.
const DEFAULTS: ExecOptions =
    ExecOptions { engine: Some(Engine::Superblock), sim_threads: Some(0) };

std::thread_local! {
    /// The innermost-`Some`-wins merge of the scopes enclosing the
    /// current point of execution on this thread.
    static SCOPED: Cell<ExecOptions> = const { Cell::new(INHERIT) };
}

/// The environment layer. Unset, empty-of-meaning or unparsable
/// variables leave their knob to the default.
fn env_options() -> ExecOptions {
    static ENV: OnceLock<ExecOptions> = OnceLock::new();
    *ENV.get_or_init(|| {
        let var = |name: &str| std::env::var(name).ok();
        ExecOptions {
            engine: var("SAFARA_ENGINE").and_then(|v| Engine::parse(&v)),
            sim_threads: var("SAFARA_SIM_THREADS").and_then(|v| parse_sim_threads(&v)),
        }
    })
}

impl ExecOptions {
    /// Options that inherit everything from the enclosing scope.
    pub fn inherit() -> Self {
        INHERIT
    }

    /// Pin the execution engine.
    pub fn engine(mut self, e: Engine) -> Self {
        self.engine = Some(e);
        self
    }

    /// Pin the block-parallel worker count (`0` = auto).
    pub fn sim_threads(mut self, n: u32) -> Self {
        self.sim_threads = Some(n);
        self
    }

    /// The pure merge every layer goes through: each knob is `self`'s
    /// value when set, else `outer`'s.
    pub fn or(self, outer: ExecOptions) -> ExecOptions {
        ExecOptions {
            engine: self.engine.or(outer.engine),
            sim_threads: self.sim_threads.or(outer.sim_threads),
        }
    }

    /// What a launch on this thread would run under right now — scope >
    /// env > default, so every field is `Some`. A helper thread that
    /// should behave like its spawner enters this as its own scope.
    pub fn current() -> ExecOptions {
        SCOPED.get().or(env_options()).or(DEFAULTS)
    }

    /// Run `f` with these options layered over the enclosing scopes on
    /// this thread, restoring the previous state afterwards (even on
    /// unwind).
    pub fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(ExecOptions);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED.set(self.0);
            }
        }
        let outer = SCOPED.get();
        SCOPED.set(self.or(outer));
        let _restore = Restore(outer);
        f()
    }
}

/// The engine [`crate::launch`] will dispatch to on this thread.
pub fn current_engine() -> Engine {
    ExecOptions::current().engine.expect("DEFAULTS sets every knob")
}

/// The worker count a launch on this thread would use, with `auto`
/// expanded to one worker per available CPU.
pub fn current_sim_threads() -> u32 {
    match ExecOptions::current().sim_threads.expect("DEFAULTS sets every knob") {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current_knobs() -> (Engine, u32) {
        (current_engine(), current_sim_threads())
    }

    #[test]
    fn inherit_is_a_no_op() {
        let before = current_knobs();
        assert_eq!(ExecOptions::inherit().scope(current_knobs), before);
        assert_eq!(ExecOptions::inherit(), ExecOptions::default());
    }

    #[test]
    fn scope_applies_and_restores_every_knob() {
        let before = current_knobs();
        let opts = ExecOptions::inherit().engine(Engine::Reference).sim_threads(3);
        opts.scope(|| assert_eq!(current_knobs(), (Engine::Reference, 3)));
        assert_eq!(current_knobs(), before);
        // Restored on unwind too.
        let unwound = std::panic::catch_unwind(|| opts.scope(|| panic!("inside the scope")));
        assert!(unwound.is_err());
        assert_eq!(current_knobs(), before);
    }

    #[test]
    fn per_launch_beats_enclosing_scope() {
        ExecOptions::inherit().engine(Engine::Decoded).scope(|| {
            ExecOptions::inherit().engine(Engine::Superblock).scope(|| {
                assert_eq!(current_engine(), Engine::Superblock);
            });
            // A None field falls through to the enclosing scope.
            ExecOptions::inherit().sim_threads(2).scope(|| {
                assert_eq!(current_engine(), Engine::Decoded);
                assert_eq!(current_sim_threads(), 2);
            });
        });
    }

    /// The whole resolution order as one pure expression: inner scope >
    /// outer scope > env > default, independently per knob.
    #[test]
    fn merge_order_is_inner_outer_env_default_for_every_knob() {
        let all = |e, n| ExecOptions::inherit().engine(e).sim_threads(n);
        let inner = all(Engine::Reference, 1);
        let outer = all(Engine::Superblock, 2);
        let env = all(Engine::Reference, 3);
        let none = ExecOptions::inherit();
        // (inner, outer, env) layers that set the knobs → the layer that wins.
        for (i, o, e, want) in [
            (inner, outer, env, inner),
            (none, outer, env, outer),
            (none, none, env, env),
            (none, none, none, DEFAULTS),
        ] {
            assert_eq!(i.or(o).or(e).or(DEFAULTS), want);
        }
        // Per knob: each falls through on its own.
        let mixed = ExecOptions::inherit().sim_threads(1).or(none.engine(Engine::Superblock));
        assert_eq!(mixed.or(env).or(DEFAULTS), all(Engine::Superblock, 1));
    }
}
