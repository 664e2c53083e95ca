//! Deterministic failpoint injection for chaos-testing the serving stack.
//!
//! Production code threads named **failpoints** through its fallible
//! paths — `io.write` around checkpoint file writes, `io.fsync` around
//! durability syncs, `net.connect` around outbound connects,
//! `net.frame_write` around server response writes — and asks this crate
//! whether the current call should fail. With no plan installed every
//! check is a single relaxed atomic load returning `None`, so the
//! failpoints cost nothing in production.
//!
//! A plan comes from the `WMSKETCH_FAULTS` environment variable (read
//! once, on first check) or from [`install`] (tests, tools). The spec is
//! a comma-separated list of `site=action@probability` entries plus an
//! optional `seed=N`:
//!
//! ```text
//! WMSKETCH_FAULTS="io.write=torn@0.02,net.connect=err@0.1,io.fsync=drop@1.0,seed=42"
//! ```
//!
//! `WMSKETCH_FAULTS_SEED` overrides the seed without editing the spec —
//! CI passes its run id there so every chaos run explores a different
//! deterministic schedule.
//!
//! Determinism: whether the *n*-th check of a site trips depends only on
//! `(seed, site, n)` — a [`splitmix64`] stream per site compared against
//! the site's probability — never on wall-clock time or thread
//! scheduling. Re-running a failed chaos seed reproduces the exact same
//! fault schedule at every site that is checked the same number of
//! times in the same order.
//!
//! Trip accounting: every site keeps `checks` and `trips` counters,
//! drained into the serve crate's `OP_METRICS` exposition as
//! `fault_checks_total` / `fault_trips_total`, so a test can prove "zero
//! faults fired" (or that some did) from telemetry alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use wmsketch_hashing::splitmix64;

/// Failpoint around checkpoint/spec file writes (the durable-write body;
/// `torn` persists a prefix then fails, as a crash mid-write would).
pub const IO_WRITE: &str = "io.write";
/// Failpoint around the pre-rename `sync_all` (`drop` silently skips the
/// sync — the classic lying-disk fault).
pub const IO_FSYNC: &str = "io.fsync";
/// Failpoint around outbound TCP connects (client and gossip).
pub const NET_CONNECT: &str = "net.connect";
/// Failpoint around server response-frame writes; a trip
/// kills the connection as a failed socket write would.
pub const NET_FRAME_WRITE: &str = "net.frame_write";

/// What a tripped failpoint asks the instrumented call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Stop partway through the operation (a torn write: persist a
    /// prefix, then fail).
    Torn,
    /// Fail the operation outright with an injected error.
    Err,
    /// Silently skip the operation (a dropped fsync: report success
    /// without doing the work).
    Drop,
}

impl FaultAction {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "torn" => Some(FaultAction::Torn),
            "err" => Some(FaultAction::Err),
            "drop" => Some(FaultAction::Drop),
            _ => None,
        }
    }

    /// The spec keyword for this action.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Torn => "torn",
            FaultAction::Err => "err",
            FaultAction::Drop => "drop",
        }
    }
}

/// One armed failpoint: a site name, the action to inject, and the
/// per-check trip probability.
#[derive(Debug)]
struct FaultPoint {
    site: String,
    action: FaultAction,
    /// Trip threshold: a check trips when the site's next deterministic
    /// 64-bit draw is below this (`probability × 2⁶⁴`, saturating).
    threshold: u64,
    checks: AtomicU64,
    trips: AtomicU64,
}

/// A parsed fault plan: a seed plus the armed failpoints.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// Parses a `site=action@probability[,site=action@probability…]` spec
    /// (optionally containing a `seed=N` entry). An empty spec is an
    /// empty plan.
    ///
    /// # Errors
    /// A human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, rhs) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry {entry:?} is not site=action@prob"))?;
            if site == "seed" {
                plan.seed = rhs
                    .parse()
                    .map_err(|_| format!("fault seed {rhs:?} is not a u64"))?;
                continue;
            }
            let (action, prob) = rhs
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?} is missing @probability"))?;
            let action = FaultAction::parse(action)
                .ok_or_else(|| format!("unknown fault action {action:?} (torn|err|drop)"))?;
            let p: f64 = prob
                .parse()
                .map_err(|_| format!("fault probability {prob:?} is not a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {p} is outside [0, 1]"));
            }
            plan.points.push(FaultPoint {
                site: site.to_string(),
                action,
                threshold: if p >= 1.0 {
                    u64::MAX
                } else {
                    (p * (u64::MAX as f64)) as u64
                },
                checks: AtomicU64::new(0),
                trips: AtomicU64::new(0),
            });
        }
        Ok(plan)
    }

    /// Replaces the plan's seed (CI threads its run id through here).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn check(&self, site: &str) -> Option<FaultAction> {
        let point = self.points.iter().find(|p| p.site == site)?;
        let n = point.checks.fetch_add(1, Ordering::Relaxed);
        let site_salt = site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        let draw = splitmix64(self.seed ^ site_salt ^ splitmix64(n));
        if point.threshold == u64::MAX || draw <= point.threshold {
            point.trips.fetch_add(1, Ordering::Relaxed);
            Some(point.action)
        } else {
            None
        }
    }
}

/// The installed plan. `ARMED` short-circuits the disabled case to one
/// relaxed load; the mutex is only taken when a plan is (or was) live.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: OnceLock<Mutex<Option<FaultPlan>>> = OnceLock::new();
static ENV_READ: std::sync::Once = std::sync::Once::new();

fn plan_cell() -> &'static Mutex<Option<FaultPlan>> {
    PLAN.get_or_init(|| Mutex::new(None))
}

fn init_from_env() {
    ENV_READ.call_once(|| {
        let Ok(spec) = std::env::var("WMSKETCH_FAULTS") else {
            return;
        };
        match FaultPlan::parse(&spec) {
            Ok(mut plan) => {
                if let Ok(seed) = std::env::var("WMSKETCH_FAULTS_SEED") {
                    if let Ok(seed) = seed.parse() {
                        plan = plan.with_seed(seed);
                    }
                }
                if !plan.points.is_empty() {
                    *plan_cell().lock().expect("faults lock") = Some(plan);
                    ARMED.store(true, Ordering::Release);
                }
            }
            Err(e) => eprintln!("wmsketch-faults: ignoring WMSKETCH_FAULTS: {e}"),
        }
    });
}

/// Installs `plan` as the process-wide fault plan (pass `None` to disarm
/// all failpoints). Counters of the previous plan are discarded. This is
/// the programmatic alternative to `WMSKETCH_FAULTS` for tests and
/// tools; the env var is still read lazily on the first [`check`] if
/// nothing was ever installed.
pub fn install(plan: Option<FaultPlan>) {
    ENV_READ.call_once(|| {}); // programmatic install wins over the env
    let armed = plan.as_ref().is_some_and(|p| !p.points.is_empty());
    *plan_cell().lock().expect("faults lock") = plan;
    ARMED.store(armed, Ordering::Release);
}

/// Should the current call at `site` fail? `None` means proceed
/// normally; `Some(action)` tells the call site how to fail. One relaxed
/// atomic load when no plan is armed.
#[must_use]
pub fn check(site: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Acquire) {
        init_from_env();
        if !ARMED.load(Ordering::Acquire) {
            return None;
        }
    }
    plan_cell()
        .lock()
        .expect("faults lock")
        .as_ref()
        .and_then(|p| p.check(site))
}

/// An injected [`std::io::Error`] for `site`, tagged so chaos-test
/// assertions (and humans reading logs) can tell injected failures from
/// real ones.
#[must_use]
pub fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// Per-site counters of the installed plan: `(site, checks, trips)`,
/// in spec order. Empty when no plan is armed.
#[must_use]
pub fn counters() -> Vec<(String, u64, u64)> {
    plan_cell()
        .lock()
        .expect("faults lock")
        .as_ref()
        .map(|plan| {
            plan.points
                .iter()
                .map(|p| {
                    (
                        p.site.clone(),
                        p.checks.load(Ordering::Relaxed),
                        p.trips.load(Ordering::Relaxed),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Total trips across every site of the installed plan.
#[must_use]
pub fn total_trips() -> u64 {
    counters().iter().map(|(_, _, t)| t).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_and_accepts_the_readme_spec() {
        let plan =
            FaultPlan::parse("io.write=torn@0.02,net.connect=err@0.1,io.fsync=drop@1.0,seed=42")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.points.len(), 3);
        assert_eq!(plan.points[2].threshold, u64::MAX);
        assert!(FaultPlan::parse("io.write").is_err());
        assert!(FaultPlan::parse("io.write=torn").is_err());
        assert!(FaultPlan::parse("io.write=explode@0.5").is_err());
        assert!(FaultPlan::parse("io.write=torn@1.5").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("").unwrap().points.is_empty());
    }

    #[test]
    fn schedules_are_deterministic_in_seed_site_and_ordinal() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse("a=err@0.3").unwrap().with_seed(seed);
            (0..64).map(|_| plan.check("a").is_some()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let plan = FaultPlan::parse("a=err@0.3,b=err@0.3")
            .unwrap()
            .with_seed(7);
        let a: Vec<bool> = (0..64).map(|_| plan.check("a").is_some()).collect();
        let b: Vec<bool> = (0..64).map(|_| plan.check("b").is_some()).collect();
        assert_ne!(a, b, "sites draw independent streams");
    }

    #[test]
    fn probability_extremes_always_and_never_trip() {
        let plan = FaultPlan::parse("always=drop@1.0,never=err@0.0").unwrap();
        for _ in 0..100 {
            assert_eq!(plan.check("always"), Some(FaultAction::Drop));
            assert_eq!(plan.check("never"), None);
            assert_eq!(plan.check("unregistered"), None);
        }
        let all: std::collections::HashMap<_, _> = plan
            .points
            .iter()
            .map(|p| {
                (
                    p.site.as_str(),
                    (
                        p.checks.load(Ordering::Relaxed),
                        p.trips.load(Ordering::Relaxed),
                    ),
                )
            })
            .collect();
        assert_eq!(all["always"], (100, 100));
        assert_eq!(all["never"], (100, 0));
    }

    #[test]
    fn intermediate_probability_trips_roughly_proportionally() {
        let plan = FaultPlan::parse("p=err@0.25").unwrap().with_seed(1);
        let trips = (0..10_000).filter(|_| plan.check("p").is_some()).count();
        assert!(
            (1_500..3_500).contains(&trips),
            "p=0.25 tripped {trips}/10000"
        );
    }
}
