//! `se-faults` — deterministic fault injection and cooperative budgets.
//!
//! Two small, std-only building blocks the whole ordering pipeline shares:
//!
//! * [`FaultPlane`] — a cloneable, PRNG-seeded fault-injection plane with
//!   **named sites**. Production code asks `faults.should_fail(site)` (or
//!   [`FaultPlane::corrupt`] / [`FaultPlane::torn_len`] for byte-level
//!   faults) at the exact points where real failures would surface:
//!   eigensolver convergence checks, coarsening progress, spill-file
//!   writes. A [`FaultPlane::disabled`] plane is a strict no-op — one
//!   `Option` check, no locking, no PRNG draw — mirroring
//!   `se_trace::Tracer::disabled()`, so the hot path pays nothing when no
//!   faults are armed. Armed planes are seeded and therefore **fully
//!   deterministic**: a chaos test replays bit-identically.
//!
//! * [`Budget`] — a cloneable cooperative cancellation/deadline token
//!   checked at existing iteration boundaries inside the solvers (Lanczos
//!   steps, RQI outer iterations, MINRES iterations, multilevel levels,
//!   coarsening levels). Clones share state through an `Arc`, so the
//!   service can hand one clone to a running job and flip the cancel flag
//!   from the session thread: the solve then aborts within one iteration
//!   boundary instead of running to completion. [`Budget::unlimited`] is a
//!   strict no-op like the disabled fault plane.
//!
//! The crate also hosts [`lock_unpoisoned`], the workspace's
//! poison-recovering mutex lock: a worker thread that panics mid-request
//! must never wedge the daemon by poisoning a shared cache/metrics lock.

#![forbid(unsafe_code)]

use se_prng::SmallRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// All the data the service guards with mutexes (cache shards, metrics
/// tables, cancel sets, fault-plane state) stays internally consistent
/// under panic — every critical section either completes its invariant or
/// leaves plain counters — so continuing past a poisoned lock is safe and
/// keeps one panicking worker from turning every later request into a
/// panic of its own.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The named fault sites the workspace injects at. Constants rather than an
/// enum so downstream crates can add private sites without touching this
/// crate; the strings are what `fault:<site>` degradation reasons carry.
pub mod sites {
    /// Forces `lanczos_smallest` to report non-convergence.
    pub const LANCZOS_CONVERGE: &str = "eigen.lanczos.converge";
    /// Forces Rayleigh-quotient iteration to report non-convergence.
    pub const RQI_CONVERGE: &str = "eigen.rqi.converge";
    /// Simulates a solver workspace allocation-budget breach before the
    /// multilevel hierarchy is built.
    pub const ALLOC_BUDGET: &str = "eigen.alloc.budget";
    /// Makes the request deadline pass mid-solve: after building its
    /// hierarchy the multilevel solver, and at an outer-iteration boundary
    /// the TraceMin solver, expires its budget ([`crate::Budget::expire`]),
    /// so every later check reports [`crate::Exceeded::Deadline`] without
    /// racing the wall clock.
    pub const BUDGET_DEADLINE: &str = "eigen.budget.deadline";
    /// Forces MIS coarsening to stagnate (no further level is built).
    pub const COARSEN_STAGNATE: &str = "graph.coarsen.stagnate";
    /// Flips bits in spill-file bytes before they reach disk.
    pub const PERSIST_CORRUPT: &str = "service.persist.corrupt";
    /// Truncates a spill-file write (torn/short I/O).
    pub const PERSIST_TORN: &str = "service.persist.torn";
    /// Flips bits in an encoded wire frame.
    pub const WIRE_CORRUPT: &str = "service.wire.corrupt";
    /// Panics the worker thread executing an ORDER.
    pub const WORKER_PANIC: &str = "service.worker.panic";
    /// Simulates a network partition toward a mesh peer: every forwarded
    /// ORDER attempt fails as if the connection were refused, so the node
    /// falls back to answering locally.
    pub const PEER_PARTITION: &str = "service.peer.partition";
    /// Drops a mesh replication push before it reaches the wire (the
    /// successor simply never receives the entry).
    pub const PEER_REPLICATE: &str = "service.peer.replicate";
    /// Drops one failure-detector heartbeat before it is sent, so the
    /// target peer records no ack and suspicion builds deterministically.
    pub const PEER_HEARTBEAT_DROP: &str = "service.peer.heartbeat_drop";
    /// Makes a member refuse a JOIN announcement with a retriable error,
    /// forcing the joiner onto the next live member.
    pub const PEER_JOIN_REJECT: &str = "service.peer.join_reject";
    /// Flips bits in a queued hint's entry bytes before replay; the replay
    /// path must detect the damage and drop the hint, never ship it.
    pub const PEER_HINT_CORRUPT: &str = "service.peer.hint_corrupt";
    /// Forces the TraceMin outer iteration to report non-convergence.
    pub const TRACEMIN_OUTER_CONVERGE: &str = "tracemin.outer.converge";
    /// Forces the per-column TraceMin inner MINRES stage to report failure.
    pub const TRACEMIN_INNER_CONVERGE: &str = "tracemin.inner.converge";
}

/// Per-site arming state.
#[derive(Debug, Clone)]
struct Site {
    /// Evaluations to let pass before the site may fire.
    skip: u64,
    /// Remaining fires; `u64::MAX` means unbounded.
    remaining: u64,
    /// When set, each eligible evaluation fires with this probability
    /// (drawn from the plane's seeded PRNG).
    probability: Option<f64>,
    /// Evaluations seen (armed sites only).
    hits: u64,
    /// Times the site actually fired.
    fired: u64,
}

#[derive(Debug)]
struct PlaneState {
    rng: SmallRng,
    sites: HashMap<String, Site>,
}

#[derive(Debug)]
struct PlaneInner {
    state: Mutex<PlaneState>,
}

/// A deterministic, cloneable fault-injection plane.
///
/// Clones share state: arming a site on one clone arms it everywhere, and
/// hit/fire counters aggregate across threads — which is what lets a test
/// arm the plane it handed to a server config and later assert the site
/// fired. Disabled planes never allocate.
#[derive(Debug, Clone, Default)]
pub struct FaultPlane {
    inner: Option<Arc<PlaneInner>>,
}

impl FaultPlane {
    /// The no-op plane: every query answers "no fault" without locking.
    pub fn disabled() -> Self {
        FaultPlane { inner: None }
    }

    /// An enabled plane with its PRNG seeded from `seed`. No site is armed
    /// yet; until [`FaultPlane::arm`] (or a sibling) runs, this behaves
    /// like a disabled plane apart from the lock it takes per query.
    pub fn seeded(seed: u64) -> Self {
        FaultPlane {
            inner: Some(Arc::new(PlaneInner {
                state: Mutex::new(PlaneState {
                    rng: SmallRng::seed_from_u64(seed),
                    sites: HashMap::new(),
                }),
            })),
        }
    }

    /// Whether this plane can inject anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut PlaneState) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut lock_unpoisoned(&inner.state)))
    }

    fn arm_with(&self, site: &str, skip: u64, remaining: u64, probability: Option<f64>) {
        self.with_state(|st| {
            st.sites.insert(
                site.to_string(),
                Site {
                    skip,
                    remaining,
                    probability,
                    hits: 0,
                    fired: 0,
                },
            );
        });
    }

    /// Arms `site` to fire on every evaluation. No-op on a disabled plane.
    pub fn arm(&self, site: &str) {
        self.arm_with(site, 0, u64::MAX, None);
    }

    /// Arms `site` to let the first `skip` evaluations pass, then fire on
    /// every later one.
    pub fn arm_after(&self, site: &str, skip: u64) {
        self.arm_with(site, skip, u64::MAX, None);
    }

    /// Arms `site` to fire on exactly the first `times` evaluations.
    pub fn arm_times(&self, site: &str, times: u64) {
        self.arm_with(site, 0, times, None);
    }

    /// Arms `site` to fire each evaluation with probability `p`, drawn from
    /// the plane's seeded PRNG (so the fire pattern is reproducible).
    pub fn arm_probability(&self, site: &str, p: f64) {
        self.arm_with(site, 0, u64::MAX, Some(p.clamp(0.0, 1.0)));
    }

    /// Disarms `site`; its counters are discarded.
    pub fn disarm(&self, site: &str) {
        self.with_state(|st| {
            st.sites.remove(site);
        });
    }

    /// Evaluates `site`: returns whether the fault fires here. Counts a hit
    /// on every evaluation of an armed site; disabled planes and unarmed
    /// sites always answer `false`.
    pub fn should_fail(&self, site: &str) -> bool {
        self.with_state(|st| {
            let Some(s) = st.sites.get_mut(site) else {
                return false;
            };
            s.hits += 1;
            if s.hits <= s.skip || s.remaining == 0 {
                return false;
            }
            if let Some(p) = s.probability {
                if st.rng.gen::<f64>() >= p {
                    return false;
                }
            }
            if s.remaining != u64::MAX {
                s.remaining -= 1;
            }
            s.fired += 1;
            true
        })
        .unwrap_or(false)
    }

    /// Byte-corruption site: when `site` fires and `bytes` is non-empty,
    /// flips one PRNG-chosen bit per 64-byte block (at least one), and
    /// returns `true`. The flip positions come from the seeded PRNG, so a
    /// corrupted artifact is bit-reproducible for a given seed and call
    /// sequence.
    pub fn corrupt(&self, site: &str, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() || !self.should_fail(site) {
            return false;
        }
        self.with_state(|st| {
            let flips = 1 + bytes.len() / 64;
            for _ in 0..flips {
                let at = st.rng.gen_range(0..bytes.len());
                let bit = st.rng.gen_range(0..8u32);
                bytes[at] ^= 1 << bit;
            }
        });
        true
    }

    /// Torn-write site: when `site` fires, returns the PRNG-chosen shorter
    /// length (strictly less than `len`) the write should be truncated to.
    pub fn torn_len(&self, site: &str, len: usize) -> Option<usize> {
        if len == 0 || !self.should_fail(site) {
            return None;
        }
        self.with_state(|st| st.rng.gen_range(0..len))
    }

    /// How many times `site` has been evaluated (0 if unarmed/disabled).
    pub fn hits(&self, site: &str) -> u64 {
        self.with_state(|st| st.sites.get(site).map_or(0, |s| s.hits))
            .unwrap_or(0)
    }

    /// How many times `site` has fired (0 if unarmed/disabled).
    pub fn fired(&self, site: &str) -> u64 {
        self.with_state(|st| st.sites.get(site).map_or(0, |s| s.fired))
            .unwrap_or(0)
    }
}

/// Why a [`Budget`] refused to continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// [`Budget::cancel`] was called.
    Cancelled,
    /// The matrix-vector product cap was reached.
    MatvecCap,
}

impl Exceeded {
    /// The machine-readable reason string (`deadline` / `cancelled` /
    /// `matvec_cap`) used in degraded responses and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Exceeded::Deadline => "deadline",
            Exceeded::Cancelled => "cancelled",
            Exceeded::MatvecCap => "matvec_cap",
        }
    }
}

impl std::fmt::Display for Exceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug)]
struct BudgetInner {
    deadline: Option<Instant>,
    /// `u64::MAX` = no cap.
    max_matvecs: u64,
    matvecs: AtomicU64,
    cancelled: AtomicBool,
    /// Set by [`Budget::expire`]: the deadline counts as passed.
    expired: AtomicBool,
}

/// A cooperative deadline/cancellation/work-cap token.
///
/// Solvers call [`Budget::check`] at the top of each iteration and
/// [`Budget::charge_matvecs`] after each matrix-vector product; an
/// [`Budget::unlimited`] token makes both strict no-ops. Clones share
/// state, so whoever holds any clone can [`Budget::cancel`] a solve that
/// is running on another thread.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

impl Budget {
    /// The no-op budget: never expires, never cancels, never caps.
    pub fn unlimited() -> Self {
        Budget { inner: None }
    }

    /// A live budget. `deadline` is relative to now; `max_matvecs` caps the
    /// total matrix-vector products charged across every solver stage
    /// sharing this token. Either may be `None`; even then the budget is
    /// cancellable (which is why the service creates one per request).
    pub fn new(deadline: Option<Duration>, max_matvecs: Option<u64>) -> Self {
        Budget {
            inner: Some(Arc::new(BudgetInner {
                deadline: deadline.map(|d| Instant::now() + d),
                max_matvecs: max_matvecs.unwrap_or(u64::MAX),
                matvecs: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                expired: AtomicBool::new(false),
            })),
        }
    }

    /// A cancellable budget with no deadline and no work cap.
    pub fn cancellable() -> Self {
        Budget::new(None, None)
    }

    /// Whether this is the strict no-op token.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Flips the shared cancel flag; every clone observes it at its next
    /// [`Budget::check`]. No-op on an unlimited budget.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::SeqCst);
        }
    }

    /// Makes the deadline pass now: every clone reports
    /// [`Exceeded::Deadline`] at its next [`Budget::check`] (unless
    /// cancelled). No-op on an unlimited budget.
    pub fn expire(&self) {
        if let Some(inner) = &self.inner {
            inner.expired.store(true, Ordering::SeqCst);
        }
    }

    /// Whether [`Budget::cancel`] has run.
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::SeqCst))
    }

    /// Adds `n` matrix-vector products to the shared tally.
    pub fn charge_matvecs(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.matvecs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Matrix-vector products charged so far.
    pub fn matvecs(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.matvecs.load(Ordering::Relaxed))
    }

    /// The iteration-boundary check: cancel flag first (the most urgent
    /// signal), then deadline, then the matvec cap.
    pub fn check(&self) -> Result<(), Exceeded> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::SeqCst) {
            return Err(Exceeded::Cancelled);
        }
        if inner.expired.load(Ordering::SeqCst)
            || inner.deadline.is_some_and(|d| Instant::now() >= d)
        {
            return Err(Exceeded::Deadline);
        }
        if inner.matvecs.load(Ordering::Relaxed) >= inner.max_matvecs {
            return Err(Exceeded::MatvecCap);
        }
        Ok(())
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// `Some(0)` once it has passed).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.inner
            .as_ref()
            .and_then(|i| i.deadline)
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_is_a_strict_noop() {
        let f = FaultPlane::disabled();
        assert!(!f.is_enabled());
        assert!(!f.should_fail(sites::LANCZOS_CONVERGE));
        let mut bytes = [1u8, 2, 3];
        assert!(!f.corrupt(sites::PERSIST_CORRUPT, &mut bytes));
        assert_eq!(bytes, [1, 2, 3]);
        assert_eq!(f.torn_len(sites::PERSIST_TORN, 100), None);
        assert_eq!(f.hits(sites::LANCZOS_CONVERGE), 0);
        // Arming a disabled plane is a no-op, not a panic.
        f.arm(sites::LANCZOS_CONVERGE);
        assert!(!f.should_fail(sites::LANCZOS_CONVERGE));
    }

    #[test]
    fn unarmed_sites_never_fire_but_armed_ones_do() {
        let f = FaultPlane::seeded(1);
        assert!(!f.should_fail("a"));
        f.arm("a");
        assert!(f.should_fail("a"));
        assert!(f.should_fail("a"));
        assert_eq!(f.hits("a"), 2);
        assert_eq!(f.fired("a"), 2);
        assert!(!f.should_fail("b"), "only the armed site fires");
        f.disarm("a");
        assert!(!f.should_fail("a"));
    }

    #[test]
    fn skip_and_count_arming() {
        let f = FaultPlane::seeded(2);
        f.arm_after("s", 2);
        assert!(!f.should_fail("s"));
        assert!(!f.should_fail("s"));
        assert!(f.should_fail("s"), "fires from the third evaluation");
        f.arm_times("t", 2);
        assert!(f.should_fail("t"));
        assert!(f.should_fail("t"));
        assert!(!f.should_fail("t"), "budget of two fires spent");
        assert_eq!(f.fired("t"), 2);
    }

    #[test]
    fn probability_arming_is_deterministic_per_seed() {
        let pattern = |seed: u64| -> Vec<bool> {
            let f = FaultPlane::seeded(seed);
            f.arm_probability("p", 0.5);
            (0..32).map(|_| f.should_fail("p")).collect()
        };
        assert_eq!(pattern(7), pattern(7), "same seed, same fire pattern");
        assert_ne!(pattern(7), pattern(8), "different seed, different pattern");
        let fires = pattern(7).iter().filter(|&&b| b).count();
        assert!((4..=28).contains(&fires), "p=0.5 fired {fires}/32");
    }

    #[test]
    fn clones_share_arming_and_counters() {
        let f = FaultPlane::seeded(3);
        let g = f.clone();
        f.arm_times("x", 1);
        assert!(g.should_fail("x"), "arming is visible through clones");
        assert!(!f.should_fail("x"), "the single fire was consumed");
        assert_eq!(f.hits("x"), 2);
    }

    #[test]
    fn corrupt_changes_bytes_reproducibly() {
        let run = |seed: u64| {
            let f = FaultPlane::seeded(seed);
            f.arm(sites::PERSIST_CORRUPT);
            let mut bytes = vec![0u8; 256];
            assert!(f.corrupt(sites::PERSIST_CORRUPT, &mut bytes));
            bytes
        };
        let a = run(11);
        assert_eq!(a, run(11), "corruption is seed-deterministic");
        assert_ne!(a, vec![0u8; 256], "bytes actually changed");
        assert_ne!(a, run(12));
    }

    #[test]
    fn torn_len_is_strictly_shorter() {
        let f = FaultPlane::seeded(4);
        f.arm(sites::PERSIST_TORN);
        for _ in 0..32 {
            let cut = f.torn_len(sites::PERSIST_TORN, 88).expect("armed");
            assert!(cut < 88);
        }
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check().is_ok());
        b.cancel();
        b.charge_matvecs(1 << 40);
        assert!(b.check().is_ok(), "unlimited ignores everything");
        assert!(!b.is_cancelled());
        assert_eq!(b.remaining_time(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let b = Budget::cancellable();
        let c = b.clone();
        assert!(c.check().is_ok());
        b.cancel();
        assert_eq!(c.check(), Err(Exceeded::Cancelled));
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let b = Budget::new(Some(Duration::ZERO), None);
        assert_eq!(b.check(), Err(Exceeded::Deadline));
        assert_eq!(b.remaining_time(), Some(Duration::ZERO));
        let later = Budget::new(Some(Duration::from_secs(3600)), None);
        assert!(later.check().is_ok());
        assert!(later.remaining_time().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn expire_passes_the_deadline_for_every_clone() {
        let b = Budget::new(Some(Duration::from_secs(3600)), None);
        let c = b.clone();
        b.expire();
        assert_eq!(c.check(), Err(Exceeded::Deadline));
        let unlimited = Budget::unlimited();
        unlimited.expire();
        assert!(unlimited.check().is_ok());
    }

    #[test]
    fn matvec_cap_trips_after_charges() {
        let b = Budget::new(None, Some(3));
        assert!(b.check().is_ok());
        b.charge_matvecs(2);
        assert!(b.check().is_ok());
        b.charge_matvecs(1);
        assert_eq!(b.check(), Err(Exceeded::MatvecCap));
        assert_eq!(b.matvecs(), 3);
    }

    #[test]
    fn cancel_outranks_deadline_and_cap() {
        let b = Budget::new(Some(Duration::ZERO), Some(0));
        b.cancel();
        assert_eq!(b.check(), Err(Exceeded::Cancelled));
    }

    #[test]
    fn lock_unpoisoned_recovers() {
        let m = std::sync::Arc::new(Mutex::new(41));
        let poisoner = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "the mutex really is poisoned");
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
    }
}
