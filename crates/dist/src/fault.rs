//! Deterministic fault injection under the [`Transport`] seam.
//!
//! A [`FaultPlan`] is a *seeded schedule* of link misbehaviour: message
//! drops, delivery delays, duplicate deliveries, and timed partition
//! windows. Every decision is drawn from a per-link [`Prng`] derived from
//! the plan seed and the link's label, so the same seed replays the same
//! fault schedule — which is what lets the cluster drills assert their
//! zero-drop / bit-identical contract *under* injected faults and then
//! reproduce a failure from nothing but the seed.
//!
//! The plan sits under the transport seam: wrap any [`Transport`] in a
//! [`FaultedTransport`] (via [`FaultPlan::link`]) and the wrapped link
//! misbehaves according to the schedule while the code above it — clients,
//! routers, retry loops — runs unchanged. A partition window severs the
//! link *explicitly* (both directions fail with
//! [`DistError::LinkDown`]) rather than hanging, so drills stay fast and
//! deterministic; the slow-failure flavour is already covered by drop
//! faults, which surface upstream as reply deadlines.

use crate::error::DistError;
use crate::transport::Transport;
use crate::wire::Message;
use fluid_tensor::Prng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: mixes the plan seed with per-link entropy.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a link label, seeding the label half of the link stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A window of simulated network partition, relative to the plan's
/// [`arm`](FaultPlan::arm) instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start, after arming.
    pub from: Duration,
    /// Window end, after arming.
    pub to: Duration,
    /// Only links whose label contains this substring are severed;
    /// `None` severs every link under the plan.
    pub peer_match: Option<String>,
}

/// The fault mix a [`FaultPlan`] draws from. All probabilities default to
/// zero (a benign plan); partitions default to none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability that a sent message is silently swallowed (the peer
    /// never sees it; the caller sees a reply deadline, not an error).
    pub drop_p: f64,
    /// Probability that a sent message is delivered twice.
    pub duplicate_p: f64,
    /// Probability that a sent message is delayed by `delay` first.
    pub delay_p: f64,
    /// The delay applied to delayed sends.
    pub delay: Duration,
    /// Timed partition windows (see [`PartitionWindow`]).
    pub partitions: Vec<PartitionWindow>,
}

/// What a plan's links have done so far — severed operations, dropped /
/// duplicated / delayed messages, links attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages swallowed by drop faults.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages delayed before delivery.
    pub delayed: u64,
    /// Send/recv operations refused inside a partition window.
    pub severed: u64,
    /// Links attached to the plan so far.
    pub links: u64,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults: dropped {} | duplicated {} | delayed {} | severed ops {} | links {}",
            self.dropped, self.duplicated, self.delayed, self.severed, self.links
        )
    }
}

struct PlanInner {
    seed: u64,
    spec: FaultSpec,
    armed_at: Mutex<Instant>,
    links: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    severed: AtomicU64,
}

/// A shared, seeded fault schedule. Cheap to clone (an [`Arc`] inside);
/// clones share the schedule, its clock, and its counters.
///
/// # Example
///
/// A drop-everything plan turns a working in-process pair into a black
/// hole, visibly and deterministically:
///
/// ```
/// use fluid_dist::{FaultPlan, FaultSpec, InProcTransport, Message, Transport};
/// use std::time::Duration;
///
/// let spec = FaultSpec {
///     drop_p: 1.0,
///     ..FaultSpec::default()
/// };
/// let plan = FaultPlan::new(spec, 42);
/// let (a, mut b) = InProcTransport::pair();
/// let mut a = plan.link("a->b").wrap(a);
/// a.send(&Message::Heartbeat { seq: 1 }).unwrap(); // swallowed
/// assert!(matches!(b.recv_timeout(Duration::from_millis(5)), Ok(None)));
/// assert_eq!(plan.report().dropped, 1);
/// ```
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// Builds a plan from `spec`, seeded by `seed`, armed now (partition
    /// windows count from this instant until [`arm`](FaultPlan::arm) is
    /// called again).
    ///
    /// # Panics
    ///
    /// If any probability is outside `[0, 1]` or a partition window is
    /// inverted.
    pub fn new(spec: FaultSpec, seed: u64) -> FaultPlan {
        for (name, p) in [
            ("drop_p", spec.drop_p),
            ("duplicate_p", spec.duplicate_p),
            ("delay_p", spec.delay_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        assert!(
            spec.drop_p + spec.duplicate_p + spec.delay_p <= 1.0,
            "fault probabilities must sum to at most 1"
        );
        for w in &spec.partitions {
            assert!(w.from <= w.to, "inverted partition window {w:?}");
        }
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                spec,
                armed_at: Mutex::new(Instant::now()),
                links: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                duplicated: AtomicU64::new(0),
                delayed: AtomicU64::new(0),
                severed: AtomicU64::new(0),
            }),
        }
    }

    /// A plan that injects nothing — useful as a default that can later be
    /// compared against a faulted run under the same seed.
    pub fn benign(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::default(), seed)
    }

    /// Restarts the partition clock: windows count from this instant. Call
    /// at the moment traffic starts so window offsets line up with the
    /// drill timeline.
    pub fn arm(&self) {
        *self
            .inner
            .armed_at
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Instant::now();
    }

    /// Whether a link labelled `label` is currently inside a partition
    /// window. Does not count toward the report (only refused operations
    /// do).
    pub fn severed(&self, label: &str) -> bool {
        let armed = *self
            .inner
            .armed_at
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let elapsed = armed.elapsed();
        self.inner.spec.partitions.iter().any(|w| {
            elapsed >= w.from
                && elapsed < w.to
                && w.peer_match
                    .as_deref()
                    .is_none_or(|needle| label.contains(needle))
        })
    }

    /// Derives one link's deterministic decision stream. The stream is a
    /// pure function of `(plan seed, label, nth link with that label)`, so
    /// re-running a drill with the same seed replays the same per-link
    /// schedule regardless of what other links did.
    pub fn link(&self, label: &str) -> FaultyLink {
        let nth = self.inner.links.fetch_add(1, Ordering::SeqCst);
        let stream = mix64(self.inner.seed ^ fnv1a(label.as_bytes()) ^ mix64(nth));
        FaultyLink {
            plan: self.clone(),
            label: label.to_string(),
            rng: Prng::new(stream),
        }
    }

    /// Snapshot of what the plan's links have done so far.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            duplicated: self.inner.duplicated.load(Ordering::Relaxed),
            delayed: self.inner.delayed.load(Ordering::Relaxed),
            severed: self.inner.severed.load(Ordering::Relaxed),
            links: self.inner.links.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.inner.seed)
            .field("spec", &self.inner.spec)
            .finish_non_exhaustive()
    }
}

/// One send's drawn fate.
enum Fate {
    Clean,
    Drop,
    Duplicate,
    Delay,
}

/// One link's handle on a [`FaultPlan`]: a label (for partition matching)
/// plus a deterministic per-link decision stream.
#[derive(Debug)]
pub struct FaultyLink {
    plan: FaultPlan,
    label: String,
    rng: Prng,
}

impl FaultyLink {
    /// Wraps a transport so it misbehaves on this link's schedule.
    pub fn wrap<T: Transport>(self, inner: T) -> FaultedTransport<T> {
        FaultedTransport { inner, link: self }
    }

    fn severed_op(&self) -> bool {
        if self.plan.severed(&self.label) {
            self.plan.inner.severed.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn draw(&mut self) -> Fate {
        let spec = &self.plan.inner.spec;
        let u = self.rng.next_f64();
        if u < spec.drop_p {
            Fate::Drop
        } else if u < spec.drop_p + spec.duplicate_p {
            Fate::Duplicate
        } else if u < spec.drop_p + spec.duplicate_p + spec.delay_p {
            Fate::Delay
        } else {
            Fate::Clean
        }
    }
}

/// A [`Transport`] wrapper that applies a [`FaultPlan`]'s schedule to one
/// link. See the module docs for the fault semantics.
#[derive(Debug)]
pub struct FaultedTransport<T: Transport> {
    inner: T,
    link: FaultyLink,
}

impl<T: Transport> FaultedTransport<T> {
    /// Unwraps the underlying transport, discarding the fault schedule.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for FaultedTransport<T> {
    fn send(&mut self, msg: &Message) -> Result<(), DistError> {
        if self.link.severed_op() {
            return Err(DistError::LinkDown(format!(
                "fault injection: link {} is partitioned",
                self.link.label
            )));
        }
        let fate = self.link.draw();
        let counters = &self.link.plan.inner;
        match fate {
            Fate::Clean => self.inner.send(msg),
            Fate::Drop => {
                // Swallowed: the caller sees success, the peer sees
                // nothing — upstream this becomes a reply deadline, the
                // honest shape of packet loss.
                counters.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Fate::Duplicate => {
                self.inner.send(msg)?;
                counters.duplicated.fetch_add(1, Ordering::Relaxed);
                self.inner.send(msg)
            }
            Fate::Delay => {
                counters.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.link.plan.inner.spec.delay);
                self.inner.send(msg)
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, DistError> {
        if self.link.severed_op() {
            return Err(DistError::LinkDown(format!(
                "fault injection: link {} is partitioned",
                self.link.label
            )));
        }
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;

    fn collect_fates(plan: &FaultPlan, label: &str, n: usize) -> Vec<u8> {
        let mut link = plan.link(label);
        (0..n)
            .map(|_| match link.draw() {
                Fate::Clean => 0,
                Fate::Drop => 1,
                Fate::Duplicate => 2,
                Fate::Delay => 3,
            })
            .collect()
    }

    fn mixed_spec() -> FaultSpec {
        FaultSpec {
            drop_p: 0.2,
            duplicate_p: 0.2,
            delay_p: 0.2,
            delay: Duration::from_micros(10),
            partitions: vec![],
        }
    }

    #[test]
    fn same_seed_same_label_replays_the_same_schedule() {
        let a = collect_fates(&FaultPlan::new(mixed_spec(), 7), "router->node-0", 64);
        let b = collect_fates(&FaultPlan::new(mixed_spec(), 7), "router->node-0", 64);
        assert_eq!(a, b, "seeded schedule must replay bit-identically");
        let c = collect_fates(&FaultPlan::new(mixed_spec(), 8), "router->node-0", 64);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn nth_link_with_a_label_gets_its_own_stream() {
        let plan = FaultPlan::new(mixed_spec(), 3);
        let first = collect_fates(&plan, "router->node-0", 64);
        let second = collect_fates(&plan, "router->node-0", 64);
        assert_ne!(
            first, second,
            "reconnections must not replay the old connection's stream"
        );
    }

    #[test]
    fn drop_swallows_the_message_without_an_error() {
        let plan = FaultPlan::new(
            FaultSpec {
                drop_p: 1.0,
                ..FaultSpec::default()
            },
            1,
        );
        let (a, mut b) = InProcTransport::pair();
        let mut a = plan.link("lossy").wrap(a);
        a.send(&Message::Heartbeat { seq: 9 }).expect("send ok");
        assert!(matches!(b.recv_timeout(Duration::from_millis(5)), Ok(None)));
        assert_eq!(plan.report().dropped, 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::new(
            FaultSpec {
                duplicate_p: 1.0,
                ..FaultSpec::default()
            },
            1,
        );
        let (a, mut b) = InProcTransport::pair();
        let mut a = plan.link("chatty").wrap(a);
        a.send(&Message::Heartbeat { seq: 4 }).expect("send");
        for _ in 0..2 {
            let got = b
                .recv_timeout(Duration::from_millis(50))
                .expect("recv")
                .expect("copy");
            assert_eq!(got, Message::Heartbeat { seq: 4 });
        }
        assert_eq!(plan.report().duplicated, 1);
    }

    #[test]
    fn certain_delay_is_a_fixed_latency_link() {
        let delay = Duration::from_millis(10);
        let spec = FaultSpec {
            delay_p: 1.0,
            delay,
            ..FaultSpec::default()
        };
        let (a, mut b) = InProcTransport::pair();
        let plan = FaultPlan::new(spec, 1);
        let mut a = plan.link("slow").wrap(a);
        let t0 = Instant::now();
        a.send(&Message::Heartbeat { seq: 1 }).expect("send");
        assert!(t0.elapsed() >= delay);
        let got = b.recv_timeout(Duration::from_secs(1)).expect("recv");
        assert_eq!(got, Some(Message::Heartbeat { seq: 1 }));
        assert_eq!(plan.report().delayed, 1);
    }

    #[test]
    fn partition_window_severs_matching_links_then_heals() {
        let plan = FaultPlan::new(
            FaultSpec {
                partitions: vec![PartitionWindow {
                    from: Duration::ZERO,
                    to: Duration::from_millis(60),
                    peer_match: Some("node-1".into()),
                }],
                ..FaultSpec::default()
            },
            5,
        );
        plan.arm();
        let (a, _b) = InProcTransport::pair();
        let mut cut = plan.link("router->node-1").wrap(a);
        let err = cut.send(&Message::Shutdown).expect_err("severed");
        assert!(err.to_string().contains("partition"), "{err}");
        assert!(cut.recv_timeout(Duration::from_millis(1)).is_err());

        // A link to a different peer is untouched by the window.
        let (c, mut d) = InProcTransport::pair();
        let mut other = plan.link("router->node-2").wrap(c);
        other
            .send(&Message::Shutdown)
            .expect("unmatched link flows");
        assert!(d
            .recv_timeout(Duration::from_millis(50))
            .expect("recv")
            .is_some());

        // After the window the severed link heals.
        std::thread::sleep(Duration::from_millis(70));
        assert!(!plan.severed("router->node-1"));
        assert!(plan.report().severed >= 2);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn out_of_range_probability_is_refused() {
        let _ = FaultPlan::new(
            FaultSpec {
                drop_p: 1.5,
                ..FaultSpec::default()
            },
            0,
        );
    }

    #[test]
    fn benign_plan_is_transparent() {
        let plan = FaultPlan::benign(11);
        let (a, mut b) = InProcTransport::pair();
        let mut a = plan.link("clean").wrap(a);
        for seq in 0..16 {
            a.send(&Message::Heartbeat { seq }).expect("send");
            let got = b
                .recv_timeout(Duration::from_millis(50))
                .expect("recv")
                .expect("msg");
            assert_eq!(got, Message::Heartbeat { seq });
        }
        let r = plan.report();
        assert_eq!(
            (r.dropped, r.duplicated, r.delayed, r.severed),
            (0, 0, 0, 0)
        );
    }
}
