//! `ExecOptions` — the one place that knows how an execution knob
//! resolves.
//!
//! One knob steers a launch without changing its result: the engine. It
//! belongs to whoever runs the process, never to a request, and resolves
//! through two settable layers:
//!
//! 1. **scope** — the innermost `Some` among the [`ExecOptions::scope`]s
//!    enclosing the launch on this thread (oracles, differential tests,
//!    the benchmark's per-engine probes);
//! 2. **env** — `SAFARA_ENGINE`, read once per process at the first
//!    resolution;
//!
//! and otherwise the **default**: the superblock engine. The three
//! engines are stats- and memory-identical, so the default is a choice
//! of speed alone: the superblock engine runs the fig7 suite in about
//! half the decoded engine's time. `decoded` and `reference` stay
//! selectable through both layers, as oracles and for bisecting. The
//! superblock engine's hot-block threshold is not a knob: it is a
//! constant of that engine ([`crate::superblock`]).
//!
//! Every launch runs its blocks serially on the calling thread;
//! parallelism lives one level up, across requests (server workers) and
//! across cells (`safara_bench::measure`). A `SAFARA_SIM_THREADS` left
//! in the environment is not read.
//!
//! A `None` field falls through to the next layer, so an
//! `ExecOptions::inherit()` scope is a no-op and the struct can always
//! be applied unconditionally. Scopes are per thread: a thread spawned
//! inside one starts unscoped, and re-enters [`ExecOptions::current`]
//! captured from its parent if it should inherit.

use crate::interp::Engine;
use std::cell::Cell;
use std::sync::OnceLock;

/// Execution options; `None` fields inherit the enclosing scope /
/// environment / default (see the module docs for the order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Which interpreter runs the launch.
    pub engine: Option<Engine>,
}

const INHERIT: ExecOptions = ExecOptions { engine: None };

/// What a launch runs under when neither a scope nor the environment
/// says otherwise. The engine is the fastest of three byte-identical
/// ones, not a semantic choice.
const DEFAULTS: ExecOptions = ExecOptions { engine: Some(Engine::Superblock) };

std::thread_local! {
    /// The innermost-`Some`-wins merge of the scopes enclosing the
    /// current point of execution on this thread.
    static SCOPED: Cell<ExecOptions> = const { Cell::new(INHERIT) };
}

/// The environment layer. An unset or unparsable variable leaves the
/// knob to the default.
fn env_options() -> ExecOptions {
    static ENV: OnceLock<ExecOptions> = OnceLock::new();
    *ENV.get_or_init(|| ExecOptions {
        engine: std::env::var("SAFARA_ENGINE").ok().and_then(|v| Engine::parse(&v)),
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

    /// The pure merge every layer goes through: each knob is `self`'s
    /// value when set, else `outer`'s.
    pub fn or(self, outer: ExecOptions) -> ExecOptions {
        ExecOptions { engine: self.engine.or(outer.engine) }
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

/// Host threads a launch runs its blocks on: always 1. Kept only because
/// the benchmark's run report names it; nothing in the crates reads it.
pub fn current_sim_threads() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inherit_is_a_no_op() {
        let before = current_engine();
        assert_eq!(ExecOptions::inherit().scope(current_engine), before);
        assert_eq!(ExecOptions::inherit(), ExecOptions::default());
    }

    #[test]
    fn scope_applies_and_restores_every_knob() {
        let before = current_engine();
        let opts = ExecOptions::inherit().engine(Engine::Reference);
        opts.scope(|| assert_eq!(current_engine(), Engine::Reference));
        assert_eq!(current_engine(), before);
        // Restored on unwind too.
        let unwound = std::panic::catch_unwind(|| opts.scope(|| panic!("inside the scope")));
        assert!(unwound.is_err());
        assert_eq!(current_engine(), before);
    }

    #[test]
    fn per_launch_beats_enclosing_scope() {
        ExecOptions::inherit().engine(Engine::Decoded).scope(|| {
            ExecOptions::inherit().engine(Engine::Superblock).scope(|| {
                assert_eq!(current_engine(), Engine::Superblock);
            });
            // A None field falls through to the enclosing scope.
            ExecOptions::inherit().scope(|| assert_eq!(current_engine(), Engine::Decoded));
        });
    }

    /// The whole resolution order as one pure expression: inner scope >
    /// outer scope > env > default.
    #[test]
    fn merge_order_is_inner_outer_env_default_for_every_knob() {
        let inner = ExecOptions::inherit().engine(Engine::Reference);
        let outer = ExecOptions::inherit().engine(Engine::Superblock);
        let env = ExecOptions::inherit().engine(Engine::Decoded);
        let none = ExecOptions::inherit();
        // (inner, outer, env) layers that set the knob → the layer that wins.
        for (i, o, e, want) in [
            (inner, outer, env, inner),
            (none, outer, env, outer),
            (none, none, env, env),
            (none, none, none, DEFAULTS),
        ] {
            assert_eq!(i.or(o).or(e).or(DEFAULTS), want);
        }
    }
}
