//! `sia-fault`: deterministic fault injection for the Sia stack.
//!
//! Production code declares **failpoints** — named sites where a fault can
//! be injected — by calling [`fire`]. With no policies configured a call
//! is one relaxed atomic load, so the hooks are free in normal operation
//! (the same pattern as the failpoints compiled into production Rust
//! nodes). Tests and chaos harnesses attach a **policy** per site, either
//! programmatically ([`configure`]) or through the `SIA_FAILPOINTS`
//! environment variable, and the site then errors, panics, or delays on a
//! deterministic schedule.
//!
//! # Policy grammar
//!
//! ```text
//! SIA_FAILPOINTS = site '=' policy (';' site '=' policy)*
//! policy         = [ P '%' ] [ N '*' ] [ 'after(' M ')' ] task
//! task           = 'off' | 'error' [ '(' msg ')' ] | 'panic' [ '(' msg ')' ]
//!                | 'delay(' millis ')'
//! ```
//!
//! - `P%` — fire with probability `P` percent (deterministic pseudo-random
//!   stream seeded by [`set_seed`] / `SIA_FAULT_SEED`, default fixed).
//! - `N*` — fire at most `N` times, then the site turns off.
//! - `after(M)` — skip the first `M` hits ("return-after-N": the site
//!   behaves normally `M` times and then starts firing).
//!
//! Examples: `serve.worker.request=10%panic`,
//! `smt.simplex.pivot=delay(20)`, `cache.rename=1*error(disk full)`,
//! `synth.run=after(3)error`.
//!
//! # Call-site contract
//!
//! [`fire`] executes `delay` and `panic` actions itself; an `error` action
//! is returned as `Some(message)` for the site to convert into its own
//! error type. Sites that cannot surface an error simply ignore the
//! return value — `panic` and `delay` still apply.
//!
//! Every decision to fire is counted in `sia-obs` (`fault.injected` plus
//! a per-action counter), so chaos runs can assert on what was injected.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use sia_obs::Counter;

/// What a configured failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Task {
    /// Do nothing (an explicit no-op; useful to disable a site by name).
    Off,
    /// Return an injected error message from [`fire`].
    Error(String),
    /// Panic at the site (callers under `catch_unwind` observe a panic).
    Panic(String),
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
}

/// A per-site policy: a task plus its firing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Fire probability in percent (100 = always).
    pub percent: u32,
    /// Maximum number of fires (`None` = unlimited).
    pub max_fires: Option<u64>,
    /// Hits to skip before the site starts firing.
    pub after: u64,
    /// The action taken when the site fires.
    pub task: Task,
}

impl Policy {
    /// Parse a policy string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the first grammar violation.
    pub fn parse(s: &str) -> Result<Policy, String> {
        let mut rest = s.trim();
        let mut percent = 100u32;
        let mut max_fires = None;
        let mut after = 0u64;
        if let Some(i) = rest.find('%') {
            percent = rest[..i]
                .trim()
                .parse()
                .map_err(|_| format!("bad probability in {s:?}"))?;
            if percent > 100 {
                return Err(format!("probability over 100% in {s:?}"));
            }
            rest = rest[i + 1..].trim();
        }
        if let Some(i) = rest.find('*') {
            max_fires = Some(
                rest[..i]
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad fire count in {s:?}"))?,
            );
            rest = rest[i + 1..].trim();
        }
        if let Some(args) = rest.strip_prefix("after(") {
            let close = args
                .find(')')
                .ok_or_else(|| format!("unclosed after( in {s:?}"))?;
            after = args[..close]
                .trim()
                .parse()
                .map_err(|_| format!("bad after() count in {s:?}"))?;
            rest = args[close + 1..].trim();
        }
        let task = parse_task(rest).ok_or_else(|| format!("unknown task {rest:?} in {s:?}"))?;
        Ok(Policy {
            percent,
            max_fires,
            after,
            task,
        })
    }
}

fn parse_task(s: &str) -> Option<Task> {
    if s == "off" {
        return Some(Task::Off);
    }
    if s == "error" {
        return Some(Task::Error("injected error".to_string()));
    }
    if s == "panic" {
        return Some(Task::Panic("injected panic".to_string()));
    }
    if let Some(msg) = s.strip_prefix("error(").and_then(|r| r.strip_suffix(')')) {
        return Some(Task::Error(msg.to_string()));
    }
    if let Some(msg) = s.strip_prefix("panic(").and_then(|r| r.strip_suffix(')')) {
        return Some(Task::Panic(msg.to_string()));
    }
    if let Some(ms) = s.strip_prefix("delay(").and_then(|r| r.strip_suffix(')')) {
        let ms: u64 = ms.trim().parse().ok()?;
        return Some(Task::Delay(Duration::from_millis(ms)));
    }
    None
}

/// One configured site: its policy plus hit/fire accounting.
#[derive(Debug)]
struct Site {
    policy: Policy,
    hits: AtomicU64,
    fired: AtomicU64,
}

/// Registry state machine for the fast path: `UNINIT` (first [`fire`]
/// initializes from the environment), `INACTIVE` (no sites configured —
/// every call bails after one load), `ACTIVE` (consult the registry).
const UNINIT: u8 = 0;
const INACTIVE: u8 = 1;
const ACTIVE: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static SEED: AtomicU64 = AtomicU64::new(0x51A_FA17);
static INJECTED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> MutexGuard<'static, HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Set the seed of the deterministic probability stream (also settable
/// via `SIA_FAULT_SEED`). Same seed + same per-site hit order = same
/// schedule.
pub fn set_seed(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
}

/// Configure one failpoint from a policy string. Replaces any existing
/// policy for the site and resets its hit counters.
///
/// # Errors
///
/// Returns the policy parse error, leaving the site unconfigured.
pub fn configure(site: &str, policy: &str) -> Result<(), String> {
    let policy = Policy::parse(policy)?;
    ensure_init();
    let mut reg = registry();
    reg.insert(
        site.to_string(),
        Site {
            policy,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        },
    );
    STATE.store(ACTIVE, Ordering::Release);
    Ok(())
}

/// Remove one failpoint; remaining sites stay active.
pub fn remove(site: &str) {
    ensure_init();
    let mut reg = registry();
    reg.remove(site);
    if reg.is_empty() {
        STATE.store(INACTIVE, Ordering::Release);
    }
}

/// Remove every configured failpoint and return to the one-load fast
/// path. Does not reset the seed or the global injection counter.
pub fn clear() {
    ensure_init();
    registry().clear();
    STATE.store(INACTIVE, Ordering::Release);
}

/// Parse a `SIA_FAILPOINTS`-style configuration string
/// (`site=policy;site=policy`).
///
/// # Errors
///
/// Returns the first site or policy error; earlier sites in the string
/// stay configured.
pub fn configure_str(config: &str) -> Result<(), String> {
    for part in config.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, policy) = part
            .split_once('=')
            .ok_or_else(|| format!("missing '=' in failpoint {part:?}"))?;
        configure(site.trim(), policy.trim())?;
    }
    Ok(())
}

/// Total number of faults injected process-wide (all sites, all actions).
pub fn injected() -> usize {
    INJECTED.load(Ordering::Relaxed)
}

/// Number of times `site` has fired (0 when unconfigured).
pub fn fired(site: &str) -> u64 {
    ensure_init();
    registry()
        .get(site)
        .map_or(0, |s| s.fired.load(Ordering::Relaxed))
}

fn ensure_init() {
    if STATE.load(Ordering::Acquire) != UNINIT {
        return;
    }
    // Hold the registry lock while initializing so concurrent first
    // callers observe a fully-parsed environment configuration.
    let _reg = registry();
    if STATE.load(Ordering::Acquire) != UNINIT {
        return;
    }
    if let Ok(seed) = std::env::var("SIA_FAULT_SEED") {
        if let Ok(seed) = seed.trim().parse() {
            SEED.store(seed, Ordering::Relaxed);
        }
    }
    let from_env = std::env::var("SIA_FAILPOINTS").ok();
    STATE.store(INACTIVE, Ordering::Release);
    drop(_reg);
    if let Some(config) = from_env {
        if let Err(e) = configure_str(&config) {
            eprintln!("sia-fault: ignoring invalid SIA_FAILPOINTS entry: {e}");
        }
    }
}

/// Evaluate the failpoint `site`.
///
/// Returns `None` when the site does not fire. `delay` sleeps and then
/// returns `None`; `error` returns `Some(message)` for the caller to
/// convert into its own error type.
///
/// # Panics
///
/// Panics when the site's policy says `panic` — that is the injected
/// fault, intended to be observed by a caller's `catch_unwind`.
#[inline]
pub fn fire(site: &str) -> Option<String> {
    match STATE.load(Ordering::Relaxed) {
        INACTIVE => None,
        ACTIVE => fire_slow(site),
        _ => {
            ensure_init();
            if STATE.load(Ordering::Relaxed) == ACTIVE {
                fire_slow(site)
            } else {
                None
            }
        }
    }
}

#[cold]
fn fire_slow(site: &str) -> Option<String> {
    let task = {
        let reg = registry();
        let s = reg.get(site)?;
        let hit = s.hits.fetch_add(1, Ordering::Relaxed);
        if hit < s.policy.after {
            return None;
        }
        if let Some(max) = s.policy.max_fires {
            if s.fired.load(Ordering::Relaxed) >= max {
                return None;
            }
        }
        if s.policy.percent < 100 && !decide(site, hit, s.policy.percent) {
            return None;
        }
        if matches!(s.policy.task, Task::Off) {
            return None;
        }
        s.fired.fetch_add(1, Ordering::Relaxed);
        s.policy.task.clone()
    };
    INJECTED.fetch_add(1, Ordering::Relaxed);
    sia_obs::add(Counter::FaultInjected, 1);
    match task {
        Task::Off => None,
        Task::Error(msg) => {
            sia_obs::add(Counter::FaultErrors, 1);
            Some(format!("failpoint {site}: {msg}"))
        }
        Task::Delay(d) => {
            sia_obs::add(Counter::FaultDelays, 1);
            std::thread::sleep(d);
            None
        }
        Task::Panic(msg) => {
            sia_obs::add(Counter::FaultPanics, 1);
            panic!("failpoint {site}: {msg}");
        }
    }
}

/// Deterministic fire/skip decision: a splitmix64 stream over
/// `(seed, site, hit index)` compared against the percentage threshold.
fn decide(site: &str, hit: u64, percent: u32) -> bool {
    let mut x = SEED.load(Ordering::Relaxed)
        ^ fnv1a(site.as_bytes())
        ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 100) < u64::from(percent)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The failpoints compiled into the Sia stack, for docs and discovery
/// (`name`, `where it lives`, `what firing simulates`).
pub const CATALOG: &[(&str, &str, &str)] = &[
    (
        "serve.worker.request",
        "sia-serve worker, top of the job's catch_unwind domain",
        "a crash while processing one request (degraded fallback expected)",
    ),
    (
        "synth.run",
        "sia-core Synthesizer::synthesize entry",
        "a synthesis-internal failure or stall",
    ),
    (
        "smt.simplex.pivot",
        "sia-smt simplex pivot loop, at the budget poll",
        "a stalled pivot (deadline must still be honored)",
    ),
    (
        "cache.save",
        "sia-cache save_file, before the temp file is written",
        "a failure to persist the cache",
    ),
    (
        "cache.rename",
        "sia-cache save_file, after fsync, before the atomic rename",
        "a crash between writing the snapshot and publishing it",
    ),
    (
        "cache.load",
        "sia-cache load_file entry",
        "an unreadable cache snapshot at startup",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; tests serialize on this.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        clear();
        g
    }

    #[test]
    fn unconfigured_sites_never_fire() {
        let _g = guard();
        assert_eq!(fire("nope"), None);
        assert_eq!(fired("nope"), 0);
    }

    #[test]
    fn policy_grammar_parses() {
        let p = Policy::parse("10%panic").unwrap();
        assert_eq!(p.percent, 10);
        assert!(matches!(p.task, Task::Panic(_)));
        let p = Policy::parse("3*error(disk full)").unwrap();
        assert_eq!(p.max_fires, Some(3));
        assert_eq!(p.task, Task::Error("disk full".to_string()));
        let p = Policy::parse("after(5)delay(20)").unwrap();
        assert_eq!(p.after, 5);
        assert_eq!(p.task, Task::Delay(Duration::from_millis(20)));
        let p = Policy::parse("50% 2* after(1) error").unwrap();
        assert_eq!((p.percent, p.max_fires, p.after), (50, Some(2), 1));
        assert!(Policy::parse("150%panic").is_err());
        assert!(Policy::parse("explode").is_err());
        assert!(Policy::parse("after(x)error").is_err());
    }

    #[test]
    fn error_action_returns_message() {
        let _g = guard();
        configure("t.error", "error(boom)").unwrap();
        assert_eq!(fire("t.error"), Some("failpoint t.error: boom".to_string()));
        assert_eq!(fired("t.error"), 1);
    }

    #[test]
    fn panic_action_panics() {
        let _g = guard();
        configure("t.panic", "panic").unwrap();
        let r = std::panic::catch_unwind(|| fire("t.panic"));
        assert!(r.is_err());
    }

    #[test]
    fn delay_action_sleeps() {
        let _g = guard();
        configure("t.delay", "delay(30)").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(fire("t.delay"), None);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(fired("t.delay"), 1);
    }

    #[test]
    fn count_and_after_modifiers() {
        let _g = guard();
        configure("t.lim", "2*error").unwrap();
        assert!(fire("t.lim").is_some());
        assert!(fire("t.lim").is_some());
        assert!(fire("t.lim").is_none());
        configure("t.after", "after(2)error").unwrap();
        assert!(fire("t.after").is_none());
        assert!(fire("t.after").is_none());
        assert!(fire("t.after").is_some());
    }

    #[test]
    fn probability_is_deterministic_and_calibrated() {
        let _g = guard();
        set_seed(42);
        configure("t.prob", "10%error").unwrap();
        let fires: Vec<bool> = (0..1000).map(|_| fire("t.prob").is_some()).collect();
        let count = fires.iter().filter(|f| **f).count();
        assert!(
            (50..200).contains(&count),
            "10% of 1000 fired {count} times"
        );
        // Same seed, fresh counters: identical schedule.
        set_seed(42);
        configure("t.prob", "10%error").unwrap();
        let again: Vec<bool> = (0..1000).map(|_| fire("t.prob").is_some()).collect();
        assert_eq!(fires, again);
        // Different seed: different schedule.
        set_seed(43);
        configure("t.prob", "10%error").unwrap();
        let other: Vec<bool> = (0..1000).map(|_| fire("t.prob").is_some()).collect();
        assert_ne!(fires, other);
    }

    #[test]
    fn configure_str_parses_multiple_sites() {
        let _g = guard();
        configure_str("a.x=error; b.y=delay(1); ;c.z=off").unwrap();
        assert!(fire("a.x").is_some());
        assert!(fire("b.y").is_none());
        assert!(fire("c.z").is_none());
        assert_eq!(fired("b.y"), 1); // delay counts as fired
        assert_eq!(fired("c.z"), 0); // off never fires
        assert!(configure_str("broken").is_err());
        assert!(configure_str("a.x=nonsense").is_err());
    }

    #[test]
    fn clear_returns_to_fast_path() {
        let _g = guard();
        configure("t.clear", "error").unwrap();
        assert!(fire("t.clear").is_some());
        clear();
        assert!(fire("t.clear").is_none());
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = CATALOG.iter().map(|(n, _, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
