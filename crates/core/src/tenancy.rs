//! Multi-tenant arbitration: a bounded, shared cloud-worker pool.
//!
//! The deployed SpeQuloS service is shared by many users (§3.1, §5: the
//! EDGI deployment serves several institutions from one instance), yet the
//! cloud it provisions from is not unlimited — the paper's administrator
//! policies (§3.3) exist precisely because "Cloud resources are costly".
//! This module adds the missing contention layer: a [`CloudPool`] with a
//! hard worker capacity that every QoS order draws from, plus per-tenant
//! [`TenantMetrics`] recording how arbitration treated each BoT.
//!
//! Arbitration policy (see `SpeQuloS::on_progress` in [`crate::service`]):
//!
//! * **Admission control** — `orderQoS` is refused while as many orders are
//!   open as the pool has workers: every admitted order must be
//!   guaranteeable at least one worker, otherwise QoS would be a lottery.
//! * **Fair share** — when a tenant's Scheduler asks for workers, the grant
//!   is capped at the tenant's share of the pool, proportional to the
//!   credits remaining on its order (a tenant that provisioned more of the
//!   credit economy gets more of the cloud). Shares round *down*, except
//!   for tenants with positive net favor in the
//!   [`FavorLedger`](crate::credit::FavorLedger) — the network-of-favors
//!   tie-breaker — which round *up*.
//! * **Work conservation** — unused capacity is grantable to any requester
//!   up to its share; leases shrink automatically as a tenant's cloud
//!   workers retire, and are released in full when the BoT completes or
//!   its fleet is stopped.

use crate::credit::UserId;
use crate::protocol::{Request, RequestError, Response, SpqService};
use crate::service::SpeQuloS;
use botwork::BotId;
use simcore::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// SplitMix64 finalizer — the stable hash behind user-keyed shard
/// routing. Fixed constants, no per-process seed: every router, shard
/// and test agrees on the mapping forever.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard that owns `user` in an `shards`-way partition.
pub fn shard_of_user(user: UserId, shards: u32) -> u32 {
    debug_assert!(shards >= 1);
    (splitmix64(user.0) % u64::from(shards.max(1))) as u32
}

/// The shard that owns `bot` in an `shards`-way partition.
///
/// Bot ids are allocated *strided*: shard `i` of `n` starts its
/// `next_bot` counter at `i` and advances by `n` (see
/// [`crate::SpeQuloSBuilder::shard`]), so ownership is exactly
/// `bot.0 % n` — no table lookups, and a bot registered by the shard
/// that owns its user routes back to that same shard.
pub fn shard_of_bot(bot: BotId, shards: u32) -> u32 {
    debug_assert!(shards >= 1);
    (bot.0 % u64::from(shards.max(1))) as u32
}

/// Routes one request to its owning shard: user-keyed requests
/// (`Deposit`, `RegisterQos`) by [`shard_of_user`], bot-keyed requests
/// by [`shard_of_bot`]. A batch routes by its first routable item;
/// `None` means the request carries no tenant key (an empty batch) and
/// the caller may pick any shard.
pub fn route_request(request: &Request, shards: u32) -> Option<u32> {
    match request {
        Request::Deposit { user, .. } | Request::RegisterQos { user, .. } => {
            Some(shard_of_user(*user, shards))
        }
        Request::OrderQos { bot, .. }
        | Request::Predict { bot }
        | Request::ReportProgress { bot, .. }
        | Request::Complete { bot } => Some(shard_of_bot(*bot, shards)),
        Request::Batch(items) => items.iter().find_map(|r| route_request(r, shards)),
    }
}

/// [`route_request`] for execution: a batch is atomic on one service, so
/// one whose items belong to different shards cannot be — it is refused
/// with a typed error rather than half-applied. Every sharded endpoint
/// (the server's shards, the harness's in-process router) routes through
/// here, so they refuse the same batches with the same words.
pub fn route_atomic(request: &Request, shards: u32) -> Result<Option<u32>, RequestError> {
    let Request::Batch(items) = request else {
        return Ok(route_request(request, shards));
    };
    let mut targets = items.iter().filter_map(|r| route_request(r, shards));
    let first = targets.next();
    if targets.any(|t| Some(t) != first) {
        return Err(RequestError::Invalid(
            "batch spans shards: split it per tenant".into(),
        ));
    }
    Ok(first)
}

/// One shard's slot in the [`PoolLedger`]: the quota it may admit
/// against, and the load it last published.
#[derive(Debug)]
struct LedgerSlot {
    /// Workers this shard's `CloudPool` is currently entitled to.
    quota: AtomicU32,
    /// Workers the shard last reported leased (`CloudPool::in_use`).
    in_use: AtomicU32,
    /// Outstanding QoS credits on the shard, in milli-credits — the
    /// weight rebalancing is proportional to.
    credits_milli: AtomicU64,
}

struct LedgerInner {
    slots: Vec<LedgerSlot>,
    capacity: u32,
    floor: u32,
    /// Serializes rebalance passes so quota reads/writes stay coherent.
    rebalance_lock: Mutex<()>,
}

/// Global quota accounting for a sharded `CloudPool`: the single
/// `capacity`-worker pool is split into per-shard quotas, and
/// [`PoolLedger::rebalance`] periodically moves *slack* quota from
/// underloaded shards toward the shards holding the most outstanding
/// QoS credits.
///
/// Invariants (checked by tests, preserved by construction):
///
/// * **Conservation** — the quotas always sum to exactly `capacity`,
///   so the global pool bound of PR 2 holds across shards.
/// * **Floor** — no shard's quota drops below the configured floor, so
///   a tenant on a cold shard can always be admitted and granted at
///   least one worker (global no-starvation).
/// * **Only slack moves** — a shard is never squeezed below the workers
///   it already leased (`max(floor, in_use)`), so rebalancing can never
///   push the sum of leases over `capacity`.
///
/// The ledger is cheap shared state (`Arc` + atomics): shards publish
/// load after handling requests and read their quota before admitting;
/// the rebalancer (a background thread or a deterministic every-K
/// trigger) is the only writer of quotas.
#[derive(Clone)]
pub struct PoolLedger {
    inner: Arc<LedgerInner>,
}

impl std::fmt::Debug for PoolLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolLedger")
            .field("capacity", &self.inner.capacity)
            .field("floor", &self.inner.floor)
            .field("quotas", &self.quotas())
            .finish()
    }
}

impl PoolLedger {
    /// Splits a `capacity`-worker pool across `shards` shards with a
    /// per-shard quota floor, returning the ledger plus one
    /// [`PoolLease`] per shard. The initial split is even (remainder to
    /// the low shards). The floor is clamped to `capacity / shards` so
    /// the floors themselves always fit.
    pub fn split(capacity: u32, shards: u32, floor: u32) -> (PoolLedger, Vec<PoolLease>) {
        let shards = shards.max(1);
        let floor = floor.min(capacity / shards);
        let base = capacity / shards;
        let rem = capacity % shards;
        let slots = (0..shards)
            .map(|i| LedgerSlot {
                quota: AtomicU32::new(base + u32::from(i < rem)),
                in_use: AtomicU32::new(0),
                credits_milli: AtomicU64::new(0),
            })
            .collect();
        let ledger = PoolLedger {
            inner: Arc::new(LedgerInner {
                slots,
                capacity,
                floor,
                rebalance_lock: Mutex::new(()),
            }),
        };
        let leases = (0..shards as usize)
            .map(|i| PoolLease {
                ledger: ledger.clone(),
                index: i,
            })
            .collect();
        (ledger, leases)
    }

    /// Total pool capacity across all shards.
    pub fn capacity(&self) -> u32 {
        self.inner.capacity
    }

    /// The configured per-shard quota floor (after clamping).
    pub fn floor(&self) -> u32 {
        self.inner.floor
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.slots.len()
    }

    /// A snapshot of every shard's quota, in shard order.
    pub fn quotas(&self) -> Vec<u32> {
        self.inner
            .slots
            .iter()
            .map(|s| s.quota.load(Ordering::Acquire))
            .collect()
    }

    /// Sum of all quotas — always equals [`PoolLedger::capacity`].
    pub fn total_quota(&self) -> u32 {
        self.quotas().iter().sum()
    }

    /// One credit-proportional rebalance pass. Each shard is first
    /// pinned at `max(floor, in_use)` (only slack moves); the remaining
    /// capacity is apportioned to shards proportionally to their
    /// outstanding credits (weight `credits + 1`, so idle shards keep a
    /// claim) by the largest-remainder method with shard-index
    /// tie-break — fully deterministic in the published loads. Returns
    /// the number of workers whose quota moved between shards.
    pub fn rebalance(&self) -> u32 {
        let _guard = self
            .inner
            .rebalance_lock
            .lock()
            .expect("pool ledger lock poisoned");
        let n = self.inner.slots.len();
        let old: Vec<u32> = self
            .inner
            .slots
            .iter()
            .map(|s| s.quota.load(Ordering::Acquire))
            .collect();
        let pinned: Vec<u32> = self
            .inner
            .slots
            .iter()
            .map(|s| self.inner.floor.max(s.in_use.load(Ordering::Acquire)))
            .collect();
        let pinned_sum: u64 = pinned.iter().map(|&p| u64::from(p)).sum();
        if pinned_sum > u64::from(self.inner.capacity) {
            // A transiently over-published load (shards racing the
            // ledger) — skip this pass rather than shrink a lease.
            return 0;
        }
        let spare = u64::from(self.inner.capacity) - pinned_sum;
        let weights: Vec<u64> = self
            .inner
            .slots
            .iter()
            .map(|s| s.credits_milli.load(Ordering::Acquire).saturating_add(1))
            .collect();
        let total_w: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        // Largest-remainder apportionment of `spare` over `weights`.
        let mut extra = vec![0u64; n];
        let mut rems: Vec<(u128, usize)> = Vec::with_capacity(n);
        let mut assigned = 0u64;
        for i in 0..n {
            let num = u128::from(spare) * u128::from(weights[i]);
            extra[i] = (num / total_w) as u64;
            rems.push((num % total_w, i));
            assigned += extra[i];
        }
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut leftover = spare - assigned;
        for &(_, i) in &rems {
            if leftover == 0 {
                break;
            }
            extra[i] += 1;
            leftover -= 1;
        }
        let mut moved = 0u32;
        for i in 0..n {
            let new = pinned[i] + extra[i] as u32;
            self.inner.slots[i].quota.store(new, Ordering::Release);
            moved += new.abs_diff(old[i]);
        }
        moved / 2
    }
}

/// One shard's handle onto the [`PoolLedger`]: read the quota the shard
/// may admit against, publish the load rebalancing weighs.
#[derive(Clone, Debug)]
pub struct PoolLease {
    ledger: PoolLedger,
    index: usize,
}

impl PoolLease {
    /// The shard index this lease belongs to.
    pub fn shard(&self) -> usize {
        self.index
    }

    /// The workers this shard's pool is currently entitled to. Shards
    /// sync their `CloudPool` capacity from this before admitting.
    pub fn quota(&self) -> u32 {
        self.ledger.inner.slots[self.index]
            .quota
            .load(Ordering::Acquire)
    }

    /// Publishes the shard's current load: leased workers and
    /// outstanding QoS credits (the rebalancing weight). Call after
    /// handling pool-relevant requests; staleness only delays
    /// rebalancing, it never breaks the conservation invariants.
    pub fn publish(&self, in_use: u32, outstanding_credits: f64) {
        let slot = &self.ledger.inner.slots[self.index];
        slot.in_use.store(in_use, Ordering::Release);
        let milli = (outstanding_credits.max(0.0) * 1000.0).round() as u64;
        slot.credits_milli.store(milli, Ordering::Release);
    }

    /// The ledger this lease draws from.
    pub fn ledger(&self) -> &PoolLedger {
        &self.ledger
    }
}

/// One shard's execute step under a sharded pool: the shard's
/// [`PoolLease`] plus the deterministic rebalance trigger, wrapped around
/// `SpeQuloS::handle` so every sharded endpoint makes the same admission
/// decisions at the same points in the request stream.
#[derive(Debug)]
pub struct ShardQuota {
    lease: PoolLease,
    /// Run a ledger pass after every this many requests, counted across
    /// all shards on the shared counter.
    rebalance: Option<(u64, Arc<AtomicU64>)>,
}

impl ShardQuota {
    /// Splits a fresh `template` into `shards` services
    /// ([`SpeQuloS::into_shards`]), each paired with its quota on the
    /// split pool — `None` for a pool-less template. With
    /// `rebalance_every`, the shards share one handled-request counter
    /// and whichever handles the K-th request runs the
    /// [`PoolLedger::rebalance`] pass.
    pub fn split(
        template: SpeQuloS,
        shards: u32,
        floor: u32,
        rebalance_every: Option<u64>,
    ) -> Vec<(SpeQuloS, Option<ShardQuota>)> {
        let (services, ledger) = template.into_shards(shards, floor);
        let handled = Arc::new(AtomicU64::new(0));
        let mut shard_leases = ledger.into_iter().flat_map(|(_, per_shard)| per_shard);
        services
            .into_iter()
            .map(|service| {
                let quota = shard_leases.next().map(|lease| ShardQuota {
                    lease,
                    rebalance: rebalance_every.map(|k| (k.max(1), Arc::clone(&handled))),
                });
                (service, quota)
            })
            .collect()
    }

    /// The ledger this shard's lease draws from.
    pub fn ledger(&self) -> &PoolLedger {
        self.lease.ledger()
    }

    /// Publishes `service`'s current load to the ledger.
    pub fn publish(&self, service: &SpeQuloS) {
        let in_use = service.pool().map_or(0, |p| p.in_use());
        self.lease
            .publish(in_use, service.credits.total_outstanding());
    }

    /// Handles one request this shard owns: sync the pool capacity to
    /// the lease quota, dispatch, publish the load the request left
    /// behind, and fire the every-K rebalance trigger.
    pub fn handle(&self, service: &mut SpeQuloS, request: Request, now: SimTime) -> Response {
        service.set_pool_capacity(self.lease.quota());
        let response = service.handle(request, now);
        self.publish(service);
        if let Some((every, handled)) = &self.rebalance {
            if (handled.fetch_add(1, Ordering::AcqRel) + 1) % every == 0 {
                self.ledger().rebalance();
            }
        }
        response
    }
}

/// Lease accounting for the shared cloud-worker pool.
///
/// Invariant: the sum of all leases never exceeds the capacity, and a
/// tenant's actual running workers never exceed its lease (grants happen
/// before start orders; leases are re-synchronised from observed worker
/// counts every monitoring tick). Aggregate cloud usage therefore stays
/// within the configured bound at all times.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CloudPool {
    pub(crate) capacity: u32,
    pub(crate) leases: HashMap<u64, u32>,
    pub(crate) peak_in_use: u32,
}

impl CloudPool {
    /// A pool of `capacity` cloud workers.
    pub fn new(capacity: u32) -> Self {
        CloudPool {
            capacity,
            leases: HashMap::new(),
            peak_in_use: 0,
        }
    }

    /// Total workers the pool can host.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Workers currently leased across all tenants.
    pub fn in_use(&self) -> u32 {
        // spq-lint: allow(det-unordered-iter) — u32 addition is commutative; any order sums the same
        self.leases.values().sum()
    }

    /// Workers still grantable.
    pub fn available(&self) -> u32 {
        self.capacity.saturating_sub(self.in_use())
    }

    /// Workers leased to one BoT.
    pub fn leased(&self, bot: BotId) -> u32 {
        self.leases.get(&bot.0).copied().unwrap_or(0)
    }

    /// High-water mark of [`CloudPool::in_use`] over the pool's lifetime.
    pub fn peak_in_use(&self) -> u32 {
        self.peak_in_use
    }

    /// Leases `n` additional workers to `bot`.
    pub(crate) fn grant(&mut self, bot: BotId, n: u32) {
        debug_assert!(n <= self.available(), "grant exceeds pool capacity");
        *self.leases.entry(bot.0).or_insert(0) += n;
        self.peak_in_use = self.peak_in_use.max(self.in_use());
    }

    /// Shrinks a lease to the observed worker count (cloud workers retire
    /// on their own under Greedy provisioning and when billing stops). A
    /// lease never *grows* from observation — only [`CloudPool::grant`]
    /// can extend it.
    pub(crate) fn sync(&mut self, bot: BotId, observed: u32) {
        if let Some(l) = self.leases.get_mut(&bot.0) {
            *l = (*l).min(observed);
        }
    }

    /// Returns the whole lease of `bot` to the pool.
    pub(crate) fn release(&mut self, bot: BotId) {
        self.leases.remove(&bot.0);
    }

    /// Re-points the pool at a new capacity — the [`PoolLease`] sync
    /// hook for sharded deployments, where a shard's quota moves as the
    /// rebalancer shifts slack between shards. Shrinking below the
    /// current `in_use` is safe: `available` saturates to zero, so no
    /// further grants happen until leases retire, and existing leases
    /// are never revoked (the ledger never shrinks a quota below the
    /// published `in_use` anyway).
    pub fn set_capacity(&mut self, capacity: u32) {
        self.capacity = capacity;
    }
}

/// Per-tenant arbitration outcome counters, kept by the service for every
/// BoT that went through pool arbitration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Cloud workers the tenant's Scheduler asked for, summed over ticks.
    pub requested: u64,
    /// Workers actually granted.
    pub granted: u64,
    /// Workers denied (requested − granted).
    pub denied: u64,
    /// Ticks on which a request was denied in full (the Scheduler retries
    /// on the next tick).
    pub throttled_ticks: u64,
}

impl TenantMetrics {
    /// Fraction of requested workers that were granted (1.0 when nothing
    /// was ever requested).
    pub fn grant_ratio(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.granted as f64 / self.requested as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: BotId = BotId(1);
    const B: BotId = BotId(2);

    #[test]
    fn grants_and_releases_track_usage() {
        let mut pool = CloudPool::new(10);
        assert_eq!(pool.available(), 10);
        pool.grant(A, 4);
        pool.grant(B, 5);
        assert_eq!(pool.in_use(), 9);
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.leased(A), 4);
        assert_eq!(pool.peak_in_use(), 9);
        pool.release(A);
        assert_eq!(pool.in_use(), 5);
        assert_eq!(pool.leased(A), 0);
        assert_eq!(pool.peak_in_use(), 9, "peak is a high-water mark");
    }

    #[test]
    fn sync_only_shrinks() {
        let mut pool = CloudPool::new(10);
        pool.grant(A, 6);
        pool.sync(A, 9); // observation can never extend a lease
        assert_eq!(pool.leased(A), 6);
        pool.sync(A, 2); // workers retired on their own
        assert_eq!(pool.leased(A), 2);
        assert_eq!(pool.available(), 8);
    }

    #[test]
    fn routing_is_stable_and_congruent_with_striding() {
        // User routing is a fixed hash: same answer forever.
        for shards in [1u32, 2, 4, 8] {
            for u in 0..64u64 {
                let s = shard_of_user(UserId(u), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_user(UserId(u), shards), "stable");
            }
        }
        // Strided bots: shard i allocates i, i+n, i+2n… so bot routing
        // is the residue.
        assert_eq!(shard_of_bot(BotId(5), 4), 1);
        assert_eq!(shard_of_bot(BotId(8), 4), 0);
        // Requests route by their tenant key.
        let dep = Request::Deposit {
            user: UserId(3),
            credits: 1.0,
        };
        assert_eq!(route_request(&dep, 4), Some(shard_of_user(UserId(3), 4)));
        let prog = Request::Predict { bot: BotId(6) };
        assert_eq!(route_request(&prog, 4), Some(2));
        let batch = Request::Batch(vec![prog.clone(), dep.clone()]);
        assert_eq!(route_request(&batch, 4), Some(2), "batch routes by head");
        assert_eq!(route_request(&Request::Batch(vec![]), 4), None);
    }

    #[test]
    fn ledger_split_conserves_capacity_and_honors_floor() {
        let (ledger, leases) = PoolLedger::split(10, 4, 2);
        assert_eq!(ledger.total_quota(), 10);
        assert_eq!(ledger.quotas(), vec![3, 3, 2, 2]);
        assert_eq!(ledger.floor(), 2);
        assert_eq!(leases.len(), 4);
        assert_eq!(leases[2].shard(), 2);
        // Floor larger than an even split clamps.
        let (ledger, _) = PoolLedger::split(6, 4, 5);
        assert_eq!(ledger.floor(), 1);
        assert_eq!(ledger.total_quota(), 6);
    }

    #[test]
    fn rebalance_moves_slack_toward_credits_never_below_floor_or_leases() {
        let (ledger, leases) = PoolLedger::split(16, 4, 1);
        // Shard 0 holds nearly all outstanding credits; shard 3 leased
        // 3 workers it must keep.
        leases[0].publish(0, 90.0);
        leases[1].publish(0, 0.0);
        leases[2].publish(0, 0.0);
        leases[3].publish(3, 10.0);
        let moved = ledger.rebalance();
        assert!(moved > 0, "slack must move toward the loaded shard");
        let q = ledger.quotas();
        assert_eq!(q.iter().sum::<u32>(), 16, "conservation");
        assert!(q.iter().all(|&x| x >= 1), "floor holds: {q:?}");
        assert!(q[3] >= 3, "never squeezed below leased workers: {q:?}");
        assert!(
            q[0] > q[1] && q[0] > q[2],
            "credit-heavy shard gains quota: {q:?}"
        );
        // Deterministic: a second pass with identical published loads
        // is a fixed point.
        assert_eq!(ledger.rebalance(), 0, "fixed point");
        assert_eq!(ledger.quotas(), q);
    }

    #[test]
    fn rebalance_skips_transiently_overpublished_loads() {
        let (ledger, leases) = PoolLedger::split(4, 2, 1);
        let before = ledger.quotas();
        leases[0].publish(3, 1.0);
        leases[1].publish(3, 1.0); // sum of pins (3+3) exceeds capacity
        assert_eq!(ledger.rebalance(), 0);
        assert_eq!(ledger.quotas(), before, "skipped pass leaves quotas");
    }

    #[test]
    fn set_capacity_saturates_grants_without_revoking() {
        let mut pool = CloudPool::new(10);
        pool.grant(A, 6);
        pool.set_capacity(4);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.in_use(), 6, "existing leases untouched");
        assert_eq!(pool.available(), 0, "no further grants");
        pool.set_capacity(8);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn grant_ratio_defaults_to_one() {
        assert_eq!(TenantMetrics::default().grant_ratio(), 1.0);
        let m = TenantMetrics {
            requested: 10,
            granted: 4,
            denied: 6,
            throttled_ticks: 1,
        };
        assert!((m.grant_ratio() - 0.4).abs() < 1e-12);
    }
}
