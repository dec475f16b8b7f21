//! In-process counterpart of `spq_server::shard`: one [`RoutedService`]
//! owning N shard services behind a single [`SpqService`] endpoint.
//!
//! [`Experiment::shards`](crate::Experiment::shards) runs multi-tenant
//! experiments against partitioned state on both transports: in-process
//! it drives a `RoutedService`, over loopback it spawns a real
//! `ShardedServer`. For the results to be bit-identical the two must
//! make the same decisions in the same order, and they do by sharing
//! the code that makes them: routing — cross-shard batch refusal
//! included — is [`spequlos::tenancy::route_atomic`], and the per-request
//! execute step (lease sync, dispatch, load publication, the every-K
//! rebalance trigger) is [`ShardQuota::handle`], the very functions the
//! server's shards call.

use simcore::SimTime;
use spequlos::protocol::{Request, Response, SpqService};
use spequlos::tenancy::{route_atomic, PoolLedger, ShardQuota};
use spequlos::SpeQuloS;

/// N shard services behind one endpoint, with quota rebalancing.
/// Build with [`RoutedService::new`], recover the shards with
/// [`RoutedService::into_services`].
#[derive(Debug)]
pub struct RoutedService {
    shards: Vec<SpeQuloS>,
    quotas: Vec<Option<ShardQuota>>,
}

impl RoutedService {
    /// Splits `template` into `shards` services (shard `i` allocates
    /// BoT ids `≡ i (mod shards)`; a pooled template's capacity becomes
    /// per-shard leases with no-starvation floor `floor`) and runs a
    /// deterministic ledger rebalance every `rebalance_every` handled
    /// requests.
    ///
    /// # Panics
    /// Panics if the template already has state (see
    /// [`SpeQuloS::into_shards`]) or `shards == 0`.
    pub fn new(template: SpeQuloS, shards: u32, floor: u32, rebalance_every: u64) -> Self {
        assert!(shards >= 1, "a routed service needs at least one shard");
        let (shards, quotas) = ShardQuota::split(template, shards, floor, Some(rebalance_every))
            .into_iter()
            .unzip();
        RoutedService { shards, quotas }
    }

    /// Number of shards behind the endpoint.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard services, in shard order.
    pub fn services(&self) -> &[SpeQuloS] {
        &self.shards
    }

    /// Consumes the endpoint and returns the shard services.
    pub fn into_services(self) -> Vec<SpeQuloS> {
        self.shards
    }

    /// The quota ledger, when the template carried a pool.
    pub fn ledger(&self) -> Option<&PoolLedger> {
        self.quotas.first()?.as_ref().map(ShardQuota::ledger)
    }
}

impl SpqService for RoutedService {
    fn handle(&mut self, request: Request, now: SimTime) -> Response {
        let shard = match route_atomic(&request, self.shard_count()) {
            Ok(shard) => shard.unwrap_or(0) as usize,
            Err(refusal) => return Response::Error(refusal),
        };
        match &self.quotas[shard] {
            Some(quota) => quota.handle(&mut self.shards[shard], request, now),
            None => self.shards[shard].handle(request, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spequlos::tenancy::shard_of_user;
    use spequlos::RequestError;
    use spequlos::UserId;

    #[test]
    fn routes_to_the_owning_shard_and_strides_bot_ids() {
        const SHARDS: u32 = 4;
        let mut routed = RoutedService::new(SpeQuloS::with_pool(16), SHARDS, 1, 64);
        for u in 0..12u64 {
            let user = UserId(u);
            let r = routed.handle(
                Request::Deposit {
                    user,
                    credits: 50.0,
                },
                SimTime::ZERO,
            );
            assert!(matches!(r, Response::Deposited { .. }), "got {r:?}");
            let r = routed.handle(
                Request::RegisterQos {
                    user,
                    env: "t/XWHEP/R".into(),
                    size: 8,
                },
                SimTime::ZERO,
            );
            let Response::Registered { bot } = r else {
                panic!("expected Registered, got {r:?}");
            };
            assert_eq!(
                bot.0 % u64::from(SHARDS),
                u64::from(shard_of_user(user, SHARDS))
            );
        }
        let services = routed.into_services();
        let registered: usize = services.iter().map(|s| s.log().len()).sum();
        assert!(registered > 0);
        for u in 0..12u64 {
            let user = UserId(u);
            let shard = shard_of_user(user, SHARDS) as usize;
            assert_eq!(services[shard].credits.balance(user), 50.0);
        }
    }

    #[test]
    fn cross_shard_batch_refused_single_shard_batch_served() {
        const SHARDS: u32 = 4;
        let a = UserId(1);
        let b = (2..999)
            .map(UserId)
            .find(|u| shard_of_user(*u, SHARDS) != shard_of_user(a, SHARDS))
            .expect("some user hashes elsewhere");
        let mut routed = RoutedService::new(SpeQuloS::new(), SHARDS, 1, 64);
        let r = routed.handle(
            Request::Batch(vec![
                Request::Deposit {
                    user: a,
                    credits: 1.0,
                },
                Request::Deposit {
                    user: b,
                    credits: 1.0,
                },
            ]),
            SimTime::ZERO,
        );
        assert!(
            matches!(&r, Response::Error(RequestError::Invalid(m)) if m.contains("spans shards"))
        );
        let r = routed.handle(
            Request::Batch(vec![
                Request::Deposit {
                    user: a,
                    credits: 1.0,
                },
                Request::Deposit {
                    user: a,
                    credits: 2.0,
                },
            ]),
            SimTime::ZERO,
        );
        assert!(matches!(r, Response::Batch(_)));
    }
}
