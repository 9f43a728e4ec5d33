//! # mperf-fault — deterministic, zero-dependency fault injection
//!
//! Long `platform × workload × phase` sweeps (the paper's §4.3 roofline
//! protocol) are only trustworthy at production scale if the machinery
//! around them survives misbehaving cells. This crate provides the
//! *controlled* misbehaviour: named failpoints (à la the `fail` crate's
//! `fail::point!`) that production code probes at interesting sites, and
//! a seeded [`FaultPlan`] that decides — deterministically — which hits
//! of which site fire which [`FaultKind`].
//!
//! Design constraints, in order:
//!
//! 1. **Compiled out by default.** Without the `failpoints` feature,
//!    [`hit`] is a `const`-foldable `None` and the registry does not
//!    exist. Production binaries carry zero code and zero branches for
//!    this crate.
//! 2. **Deterministic.** A plan is data: explicit `(site, key)` specs,
//!    or pseudo-random scatter derived from the plan's seed via a fixed
//!    SplitMix64 — never host time, never thread timing. The same plan
//!    against the same execution order of probes fires the same faults.
//! 3. **Zero dependencies.** `std` only, like the rest of the workspace.
//!
//! ## Probing
//!
//! Call sites probe with [`hit`] (or the [`fail_point!`] macro) and map
//! the returned [`FaultKind`] onto their own failure vocabulary:
//!
//! ```ignore
//! if let Some(kind) = mperf_fault::hit("sweep.cell", cell_index as u64) {
//!     match kind {
//!         FaultKind::Panic => mperf_fault::injected_panic("sweep.cell", cell_index as u64),
//!         FaultKind::Trap => return Err(VmError::DivisionByZero { pc: 0 }),
//!         FaultKind::TransientIo => return Err(VmError::HostFault("transient i/o".into())),
//!         FaultKind::FuelExhaustion => vm.set_fuel(1),
//!     }
//! }
//! ```
//!
//! ## Arming
//!
//! Tests arm a plan with `arm_scoped`, which also serialises armed
//! sections across test threads (the registry is process-global) and
//! disarms on drop:
//!
//! ```ignore
//! let _armed = mperf_fault::arm_scoped(
//!     FaultPlan::new(7).inject("sweep.cell", 2, FaultKind::Panic, 1),
//! );
//! ```

use std::fmt;

/// What an armed failpoint injects when it fires. The probe site owns
/// the mapping onto its local failure vocabulary; the kinds here name
/// the four failure families the sweep robustness layer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Unwind the probing thread (the site calls [`injected_panic`]).
    Panic,
    /// A deterministic guest trap (the site returns its trap error).
    Trap,
    /// A transient I/O-style failure: goes away when retried.
    TransientIo,
    /// Exhaust the operation budget (the site clamps its fuel).
    FuelExhaustion,
    /// Kill the probing *process* abruptly (the site exits or raises a
    /// fatal signal against itself) — a worker crash as seen from a
    /// shard supervisor.
    Exit,
    /// Hang the probing process/thread indefinitely, so deadline-based
    /// supervision has something real to detect.
    Stall,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Trap => "trap",
            FaultKind::TransientIo => "transient-io",
            FaultKind::FuelExhaustion => "fuel-exhaustion",
            FaultKind::Exit => "exit",
            FaultKind::Stall => "stall",
        }
    }

    fn from_name(s: &str) -> Option<FaultKind> {
        Some(match s {
            "panic" => FaultKind::Panic,
            "trap" => FaultKind::Trap,
            "transient-io" => FaultKind::TransientIo,
            "fuel-exhaustion" => FaultKind::FuelExhaustion,
            "exit" => FaultKind::Exit,
            "stall" => FaultKind::Stall,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed failpoint: fire `kind` on the first `times` hits of
/// `(site, key)`. A `key` of [`FaultSpec::ANY_KEY`] matches every key
/// probed at the site (hit counts are still tracked per concrete key,
/// so `times: 1` fires once *per key*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    pub site: String,
    pub key: u64,
    pub kind: FaultKind,
    pub times: u32,
}

impl FaultSpec {
    /// Wildcard key: the spec applies to every key probed at its site.
    pub const ANY_KEY: u64 = u64::MAX;
}

/// A deterministic injection plan: a seed plus the armed specs. Pure
/// data — arming the same plan twice produces identical fault
/// sequences for identical probe orders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (used by [`FaultPlan::scatter`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Arm `site`/`key` to fire `kind` on its first `times` hits.
    #[must_use]
    pub fn inject(
        mut self,
        site: impl Into<String>,
        key: u64,
        kind: FaultKind,
        times: u32,
    ) -> FaultPlan {
        self.specs.push(FaultSpec {
            site: site.into(),
            key,
            kind,
            times,
        });
        self
    }

    /// Arm `site` for every key (see [`FaultSpec::ANY_KEY`]).
    #[must_use]
    pub fn inject_all(self, site: impl Into<String>, kind: FaultKind, times: u32) -> FaultPlan {
        self.inject(site, FaultSpec::ANY_KEY, kind, times)
    }

    /// Scatter `count` single-shot faults of `kind` over the key space
    /// `0..universe` at `site`, choosing distinct keys pseudo-randomly
    /// from the plan's seed (SplitMix64 — stable across platforms and
    /// runs). The chosen keys are returned for assertions.
    pub fn scatter(
        &mut self,
        site: impl Into<String>,
        kind: FaultKind,
        count: usize,
        universe: u64,
    ) -> Vec<u64> {
        let site = site.into();
        let mut state = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut chosen: Vec<u64> = Vec::with_capacity(count);
        while chosen.len() < count && (chosen.len() as u64) < universe {
            state = splitmix64(&mut state);
            let key = state % universe.max(1);
            if !chosen.contains(&key) {
                chosen.push(key);
                self.specs.push(FaultSpec {
                    site: site.clone(),
                    key,
                    kind,
                    times: 1,
                });
            }
        }
        chosen
    }

    /// Serialize for [`ENV_VAR`]: `seed=N;site:key:kind:times;...`,
    /// with `*` for [`FaultSpec::ANY_KEY`]. Inverse of
    /// [`FaultPlan::from_env`]; pure text so a supervisor can ship a
    /// plan into worker child processes deterministically.
    pub fn to_env(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for s in &self.specs {
            out.push(';');
            out.push_str(&s.site);
            out.push(':');
            if s.key == FaultSpec::ANY_KEY {
                out.push('*');
            } else {
                out.push_str(&s.key.to_string());
            }
            out.push(':');
            out.push_str(s.kind.name());
            out.push(':');
            out.push_str(&s.times.to_string());
        }
        out
    }

    /// Parse a [`FaultPlan::to_env`] string.
    ///
    /// # Errors
    /// A description of the malformed field. Worker processes must
    /// treat this as fatal (exit, don't run unarmed): a typo'd plan
    /// silently testing nothing is worse than no test.
    pub fn from_env(text: &str) -> Result<FaultPlan, String> {
        let mut parts = text.split(';');
        let seed_part = parts.next().unwrap_or_default();
        let seed = seed_part
            .strip_prefix("seed=")
            .ok_or_else(|| format!("expected `seed=N`, got `{seed_part}`"))?
            .parse::<u64>()
            .map_err(|e| format!("bad seed in `{seed_part}`: {e}"))?;
        let mut plan = FaultPlan::new(seed);
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let fields: Vec<&str> = part.split(':').collect();
            let [site, key, kind, times] = fields[..] else {
                return Err(format!("expected `site:key:kind:times`, got `{part}`"));
            };
            let key = if key == "*" {
                FaultSpec::ANY_KEY
            } else {
                key.parse::<u64>()
                    .map_err(|e| format!("bad key in `{part}`: {e}"))?
            };
            let kind =
                FaultKind::from_name(kind).ok_or_else(|| format!("unknown kind in `{part}`"))?;
            let times = times
                .parse::<u32>()
                .map_err(|e| format!("bad times in `{part}`: {e}"))?;
            plan.specs.push(FaultSpec {
                site: site.to_string(),
                key,
                kind,
                times,
            });
        }
        Ok(plan)
    }
}

/// Environment variable worker child processes read a serialized
/// [`FaultPlan`] from (see [`FaultPlan::to_env`] / `arm_process`).
pub const ENV_VAR: &str = "MPERF_FAULT_PLAN";

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One fired fault, for post-run assertions (see [`drain_log`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: String,
    pub key: u64,
    pub kind: FaultKind,
    /// 1-based hit count of `(site, key)` at fire time.
    pub hit: u32,
}

/// The panic payload prefix every injected panic carries, so panic
/// hooks and `catch_unwind` consumers can recognise (and e.g. silence)
/// injected unwinds without string-matching test-specific text.
pub const PANIC_PREFIX: &str = "mperf-fault: injected panic";

/// Panic with the canonical injected-panic payload for `site`/`key`.
/// Call this (rather than a bare `panic!`) when [`hit`] returns
/// [`FaultKind::Panic`].
pub fn injected_panic(site: &str, key: u64) -> ! {
    panic!("{PANIC_PREFIX} at {site}[{key}]");
}

#[cfg(any(test, feature = "failpoints"))]
mod registry {
    use super::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Armed {
        plan: FaultPlan,
        /// Hits so far per (spec index, concrete key).
        hits: HashMap<(usize, u64), u32>,
        log: Vec<FaultEvent>,
    }

    static REGISTRY: Mutex<Option<Armed>> = Mutex::new(None);

    /// Serialises armed sections across test threads: the registry is
    /// process-global, so two concurrently armed plans would interfere.
    static SCOPE: OnceLock<Mutex<()>> = OnceLock::new();

    fn registry() -> MutexGuard<'static, Option<Armed>> {
        // A worker thread that panicked *while holding the registry
        // lock* cannot exist: `probe` drops the guard before any
        // injected panic unwinds. Recover defensively anyway.
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An armed registry scope; disarms (and releases the cross-test
    /// serialisation lock) on drop.
    pub struct ArmedGuard {
        _scope: MutexGuard<'static, ()>,
    }

    impl Drop for ArmedGuard {
        fn drop(&mut self) {
            *registry() = None;
        }
    }

    pub fn arm_scoped(plan: FaultPlan) -> ArmedGuard {
        let scope = SCOPE
            .get_or_init(|| Mutex::new(()))
            .lock()
            // An injected panic unwinding through a test body poisons
            // nothing we care about: the guard's Drop already disarmed.
            .unwrap_or_else(|e| e.into_inner());
        *registry() = Some(Armed {
            plan,
            hits: HashMap::new(),
            log: Vec::new(),
        });
        ArmedGuard { _scope: scope }
    }

    pub fn probe(site: &str, key: u64) -> Option<FaultKind> {
        let mut reg = registry();
        let armed = reg.as_mut()?;
        // First matching spec wins; wildcard specs count hits per
        // concrete key so `times` bounds each key independently.
        let idx = armed
            .plan
            .specs
            .iter()
            .position(|s| s.site == site && (s.key == key || s.key == FaultSpec::ANY_KEY))?;
        let spec = &armed.plan.specs[idx];
        let hit = armed.hits.entry((idx, key)).or_insert(0);
        if *hit >= spec.times {
            return None;
        }
        *hit += 1;
        let event = FaultEvent {
            site: site.to_string(),
            key,
            kind: spec.kind,
            hit: *hit,
        };
        let kind = spec.kind;
        armed.log.push(event);
        Some(kind)
    }

    pub fn drain_log() -> Vec<FaultEvent> {
        registry()
            .as_mut()
            .map(|a| std::mem::take(&mut a.log))
            .unwrap_or_default()
    }

    /// Arm `plan` for the lifetime of the process, without the
    /// cross-test serialisation lock: for *worker child processes*
    /// (each has its own registry and nothing else contends), where a
    /// scope guard has nothing meaningful to drop. Each respawned
    /// incarnation re-arms the same env plan with fresh hit counts —
    /// which is why process-level failpoints key probes by
    /// `(attempt << 32) | cell` rather than relying on counts.
    pub fn arm_process(plan: FaultPlan) {
        *registry() = Some(Armed {
            plan,
            hits: HashMap::new(),
            log: Vec::new(),
        });
    }
}

#[cfg(any(test, feature = "failpoints"))]
pub use registry::{arm_process, arm_scoped, ArmedGuard};

/// Probe the failpoint `site` with `key`. Returns the fault to inject,
/// or `None` (always `None` when nothing matching is armed — and, with
/// the `failpoints` feature off, at compile time).
#[cfg(any(test, feature = "failpoints"))]
#[inline]
pub fn hit(site: &str, key: u64) -> Option<FaultKind> {
    registry::probe(site, key)
}

/// Feature-off stub: constant `None`, foldable to nothing.
#[cfg(not(any(test, feature = "failpoints")))]
#[inline(always)]
pub fn hit(_site: &str, _key: u64) -> Option<FaultKind> {
    None
}

/// Drain the fired-fault log (for post-run assertions). Empty when
/// nothing is armed or the feature is off.
#[cfg(any(test, feature = "failpoints"))]
pub fn drain_log() -> Vec<FaultEvent> {
    registry::drain_log()
}

/// Feature-off stub.
#[cfg(not(any(test, feature = "failpoints")))]
pub fn drain_log() -> Vec<FaultEvent> {
    Vec::new()
}

/// Probe a failpoint: `fail_point!("site", key)` evaluates to
/// `Option<FaultKind>`. Thin sugar over [`hit`] so probe sites read as
/// declarations rather than function calls.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::hit($site, 0)
    };
    ($site:expr, $key:expr) => {
        $crate::hit($site, $key)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_probes_fire_nothing() {
        let _armed = arm_scoped(FaultPlan::default());
        assert_eq!(hit("anything", 0), None);
        assert!(drain_log().is_empty());
    }

    #[test]
    fn specs_fire_exactly_times_then_pass() {
        let _armed = arm_scoped(FaultPlan::new(1).inject("s", 3, FaultKind::TransientIo, 2));
        assert_eq!(hit("s", 3), Some(FaultKind::TransientIo));
        assert_eq!(hit("s", 3), Some(FaultKind::TransientIo));
        assert_eq!(hit("s", 3), None, "times exhausted");
        assert_eq!(hit("s", 4), None, "other keys unaffected");
        assert_eq!(hit("t", 3), None, "other sites unaffected");
        let log = drain_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].hit, 1);
        assert_eq!(log[1].hit, 2);
    }

    #[test]
    fn wildcard_counts_per_concrete_key() {
        let _armed = arm_scoped(FaultPlan::new(1).inject_all("s", FaultKind::Trap, 1));
        assert_eq!(hit("s", 0), Some(FaultKind::Trap));
        assert_eq!(hit("s", 0), None, "key 0 exhausted");
        assert_eq!(
            hit("s", 9),
            Some(FaultKind::Trap),
            "key 9 has its own count"
        );
    }

    #[test]
    fn scatter_is_deterministic_and_distinct() {
        let mut a = FaultPlan::new(42);
        let ka = a.scatter("s", FaultKind::Panic, 3, 8);
        let mut b = FaultPlan::new(42);
        let kb = b.scatter("s", FaultKind::Panic, 3, 8);
        assert_eq!(ka, kb, "same seed, same keys");
        assert_eq!(ka.len(), 3);
        let mut sorted = ka.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "keys are distinct");
        assert!(ka.iter().all(|k| *k < 8));
        let mut c = FaultPlan::new(43);
        let kc = c.scatter("s", FaultKind::Panic, 3, 8);
        assert_ne!(
            ka, kc,
            "different seed, different keys (for this seed pair)"
        );
    }

    #[test]
    fn scatter_saturates_at_universe() {
        let mut p = FaultPlan::new(7);
        let keys = p.scatter("s", FaultKind::Trap, 10, 4);
        assert_eq!(keys.len(), 4, "only 4 distinct keys exist");
    }

    #[test]
    fn disarm_on_drop() {
        {
            let _armed = arm_scoped(FaultPlan::new(1).inject("s", 0, FaultKind::Panic, 1));
            assert!(hit("s", 0).is_some());
        }
        assert_eq!(hit("s", 0), None, "guard dropped, registry disarmed");
    }

    #[test]
    fn env_roundtrip_preserves_every_spec() {
        let plan = FaultPlan::new(99)
            .inject("worker.exit", 2, FaultKind::Exit, 1)
            .inject("worker.stall", (1u64 << 32) | 3, FaultKind::Stall, 2)
            .inject_all("ipc.frame", FaultKind::TransientIo, 1);
        let text = plan.to_env();
        assert_eq!(
            text,
            "seed=99;worker.exit:2:exit:1;worker.stall:4294967299:stall:2;ipc.frame:*:transient-io:1"
        );
        assert_eq!(FaultPlan::from_env(&text).unwrap(), plan);
        let empty = FaultPlan::new(0);
        assert_eq!(FaultPlan::from_env(&empty.to_env()).unwrap(), empty);
    }

    #[test]
    fn env_parse_rejects_malformed_plans() {
        for bad in [
            "",
            "seed=",
            "seed=x",
            "7",
            "seed=1;site:key",
            "seed=1;s:nope:exit:1",
            "seed=1;s:2:frobnicate:1",
            "seed=1;s:2:exit:lots",
        ] {
            assert!(FaultPlan::from_env(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn arm_process_arms_without_a_scope_guard() {
        // Grab the cross-test lock so this test doesn't race the
        // scoped ones, then overwrite the registry the worker way.
        let guard = arm_scoped(FaultPlan::default());
        arm_process(FaultPlan::new(1).inject("w", 5, FaultKind::Exit, 1));
        assert_eq!(hit("w", 5), Some(FaultKind::Exit));
        assert_eq!(hit("w", 5), None);
        drop(guard);
    }

    #[test]
    fn injected_panic_payload_is_recognisable() {
        let err = std::panic::catch_unwind(|| injected_panic("site", 5)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with(PANIC_PREFIX), "{msg}");
        assert!(msg.contains("site[5]"), "{msg}");
    }
}
