//! Credit System module: Cloud usage accounting and arbitration (§3.3).
//!
//! Cloud resources are costly and shared, so SpeQuloS meters them with
//! virtual credits on a banking-like interface: users *deposit* (via
//! administrator policies), *order* QoS support for a BoT by provisioning
//! credits to it, the Scheduler *bills* cloud usage against the order, and
//! at the end of the execution the order is *paid* — unspent credits
//! return to the user. The exchange rate is fixed: 1 CPU·hour of cloud
//! worker costs 15 credits.

use botwork::BotId;
use std::collections::{BTreeMap, HashMap};

/// Fixed exchange rate (§3.3): credits billed per CPU·hour of cloud
/// worker usage.
pub const CREDITS_PER_CPU_HOUR: f64 = 15.0;

/// A user account identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

/// Errors from credit operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CreditError {
    /// The user's balance cannot cover the requested order.
    InsufficientCredits,
    /// No open order exists for the BoT.
    NoOrder,
    /// An order for this BoT already exists.
    DuplicateOrder,
    /// The order is already closed.
    OrderClosed,
    /// Admission control refused the order: the shared cloud-worker pool
    /// already has as many open orders as it has workers, so a further
    /// tenant could not be guaranteed any cloud capacity (see
    /// [`crate::tenancy`]).
    PoolSaturated,
}

impl std::fmt::Display for CreditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreditError::InsufficientCredits => write!(f, "insufficient credits"),
            CreditError::NoOrder => write!(f, "no QoS order for this BoT"),
            CreditError::DuplicateOrder => write!(f, "QoS order already exists"),
            CreditError::OrderClosed => write!(f, "QoS order already closed"),
            CreditError::PoolSaturated => {
                write!(f, "shared cloud-worker pool saturated: order not admitted")
            }
        }
    }
}

impl std::error::Error for CreditError {}

#[derive(Clone, Debug)]
pub(crate) struct Order {
    pub(crate) user: UserId,
    pub(crate) provisioned: f64,
    pub(crate) spent: f64,
    pub(crate) closed: bool,
}

/// The Credit System: accounts, orders, billing.
///
/// Both maps are `BTreeMap`, not `HashMap`, on purpose: `pay` and
/// `total_outstanding` fold `f64` sums over iteration, and float
/// addition is order-dependent — a randomly seeded hash map would make
/// otherwise identical runs diverge bit-wise (caught by
/// `det-unordered-iter` in `spq-lint`).
#[derive(Clone, Debug, Default)]
pub struct CreditSystem {
    pub(crate) accounts: BTreeMap<u64, f64>,
    pub(crate) orders: BTreeMap<u64, Order>,
}

impl CreditSystem {
    /// Creates an empty credit system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposits credits into a user account (administrator operation).
    pub fn deposit(&mut self, user: UserId, credits: f64) {
        assert!(credits >= 0.0, "negative deposit");
        *self.accounts.entry(user.0).or_insert(0.0) += credits;
    }

    /// Current balance of a user.
    pub fn balance(&self, user: UserId) -> f64 {
        self.accounts.get(&user.0).copied().unwrap_or(0.0)
    }

    /// Opens a QoS order: moves `credits` from the user's account into the
    /// BoT's provision (the `orderQoS` call of Fig. 3).
    pub fn order_qos(&mut self, bot: BotId, user: UserId, credits: f64) -> Result<(), CreditError> {
        if self.orders.contains_key(&bot.0) {
            return Err(CreditError::DuplicateOrder);
        }
        let balance = self.accounts.entry(user.0).or_insert(0.0);
        if *balance < credits {
            return Err(CreditError::InsufficientCredits);
        }
        *balance -= credits;
        self.orders.insert(
            bot.0,
            Order {
                user,
                provisioned: credits,
                spent: 0.0,
                closed: false,
            },
        );
        Ok(())
    }

    /// True if the BoT has an open order with credits left (the
    /// Scheduler's `hasCredits` check, Algorithm 1).
    pub fn has_credits(&self, bot: BotId) -> bool {
        self.orders
            .get(&bot.0)
            .map(|o| !o.closed && o.spent < o.provisioned)
            .unwrap_or(false)
    }

    /// Credits still available on the BoT's order (0 if none).
    pub fn remaining(&self, bot: BotId) -> f64 {
        self.orders
            .get(&bot.0)
            .filter(|o| !o.closed)
            .map(|o| (o.provisioned - o.spent).max(0.0))
            .unwrap_or(0.0)
    }

    /// Credits provisioned on the BoT's order.
    pub fn provisioned(&self, bot: BotId) -> f64 {
        self.orders
            .get(&bot.0)
            .map(|o| o.provisioned)
            .unwrap_or(0.0)
    }

    /// Credits spent so far on the BoT's order.
    pub fn spent(&self, bot: BotId) -> f64 {
        self.orders.get(&bot.0).map(|o| o.spent).unwrap_or(0.0)
    }

    /// Bills cloud usage against the order (Algorithm 2); billing is
    /// capped at the remaining provision. Returns the credits actually
    /// billed.
    pub fn bill(&mut self, bot: BotId, credits: f64) -> Result<f64, CreditError> {
        assert!(credits >= 0.0, "negative bill");
        let order = self.orders.get_mut(&bot.0).ok_or(CreditError::NoOrder)?;
        if order.closed {
            return Err(CreditError::OrderClosed);
        }
        let billed = credits.min(order.provisioned - order.spent).max(0.0);
        order.spent += billed;
        Ok(billed)
    }

    /// Closes the order (the `pay` call of Fig. 3): remaining credits are
    /// transferred back to the user. Returns the refund.
    pub fn pay(&mut self, bot: BotId) -> Result<f64, CreditError> {
        let order = self.orders.get_mut(&bot.0).ok_or(CreditError::NoOrder)?;
        if order.closed {
            return Err(CreditError::OrderClosed);
        }
        order.closed = true;
        let refund = (order.provisioned - order.spent).max(0.0);
        *self.accounts.entry(order.user.0).or_insert(0.0) += refund;
        Ok(refund)
    }

    /// Credits remaining over every open order — the multi-tenant
    /// arbiter's denominator. Summed in BoT-id order, the `BTreeMap`'s
    /// walk: floating-point addition is order-dependent, and any other
    /// order would make otherwise identical runs diverge bit-wise.
    pub(crate) fn open_remaining(&self) -> f64 {
        self.orders
            .values()
            .filter(|o| !o.closed)
            .map(|o| (o.provisioned - o.spent).max(0.0))
            .sum()
    }

    /// Number of open orders (active QoS-supported BoTs).
    pub fn open_order_count(&self) -> usize {
        self.orders.values().filter(|o| !o.closed).count()
    }

    /// Total credits in the system (accounts plus open provisions); spent
    /// credits leave the system. Used by conservation tests.
    pub fn total_outstanding(&self) -> f64 {
        let in_accounts: f64 = self.accounts.values().sum();
        let in_orders: f64 = self
            .orders
            .values()
            .filter(|o| !o.closed)
            .map(|o| o.provisioned - o.spent)
            .sum();
        in_accounts + in_orders
    }
}

/// Administrator deposit policies (§3.3): how user accounts are refilled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DepositPolicy {
    /// Deposit a fixed amount each period.
    Fixed {
        /// Credits deposited per application of the policy.
        amount: f64,
    },
    /// Top the account up to `cap`, by at most `amount` per period — the
    /// paper's example policy limiting a user to ~200 cloud nodes/day
    /// (printed there as `max(6000, 6000−spent)`, which is constant; the
    /// intended capped top-up is implemented, see DESIGN.md).
    CappedTopUp {
        /// Maximum credits deposited per application.
        amount: f64,
        /// Balance ceiling after the deposit.
        cap: f64,
    },
}

impl DepositPolicy {
    /// Applies the policy once (e.g. daily) to a user account. Returns the
    /// deposit made.
    pub fn apply(&self, cs: &mut CreditSystem, user: UserId) -> f64 {
        match *self {
            DepositPolicy::Fixed { amount } => {
                cs.deposit(user, amount);
                amount
            }
            DepositPolicy::CappedTopUp { amount, cap } => {
                let balance = cs.balance(user);
                let d = amount.min((cap - balance).max(0.0));
                cs.deposit(user, d);
                d
            }
        }
    }
}

/// Network-of-favors ledger (Andrade et al., referenced in §3.3): peer
/// infrastructures accumulate *favor* by donating computation to others
/// and consume it when their users burn cloud credits. An administrator
/// policy can then size deposits by net favor, enabling credit-mediated
/// cooperation among multiple BE-DCIs and cloud providers.
#[derive(Clone, Debug, Default)]
pub struct FavorLedger {
    pub(crate) donated: HashMap<u64, f64>,
    pub(crate) consumed: HashMap<u64, f64>,
}

impl FavorLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `cpu_hours` of computation peer `donor` performed for the
    /// benefit of others.
    pub fn record_donation(&mut self, donor: UserId, cpu_hours: f64) {
        assert!(cpu_hours >= 0.0);
        *self.donated.entry(donor.0).or_insert(0.0) += cpu_hours;
    }

    /// Records `cpu_hours` of cloud resources peer `consumer` used.
    pub fn record_consumption(&mut self, consumer: UserId, cpu_hours: f64) {
        assert!(cpu_hours >= 0.0);
        *self.consumed.entry(consumer.0).or_insert(0.0) += cpu_hours;
    }

    /// Net favor of a peer in CPU·hours (donations minus consumption,
    /// floored at zero — the network of favors never goes into debt).
    pub fn net_favor(&self, peer: UserId) -> f64 {
        let d = self.donated.get(&peer.0).copied().unwrap_or(0.0);
        let c = self.consumed.get(&peer.0).copied().unwrap_or(0.0);
        (d - c).max(0.0)
    }

    /// Deposits credits proportional to net favor at the fixed exchange
    /// rate, consuming the favor. Returns the deposit.
    pub fn settle(&mut self, cs: &mut CreditSystem, peer: UserId) -> f64 {
        let favor = self.net_favor(peer);
        if favor <= 0.0 {
            return 0.0;
        }
        // Settling converts favor into credits: book it as consumption so
        // the same favor is not paid twice.
        *self.consumed.entry(peer.0).or_insert(0.0) += favor;
        let credits = favor * CREDITS_PER_CPU_HOUR;
        cs.deposit(peer, credits);
        credits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const U: UserId = UserId(1);
    const B: BotId = BotId(7);

    #[test]
    fn deposit_order_bill_pay_cycle() {
        let mut cs = CreditSystem::new();
        cs.deposit(U, 1000.0);
        cs.order_qos(B, U, 600.0).expect("balance covers");
        assert_eq!(cs.balance(U), 400.0);
        assert!(cs.has_credits(B));
        assert_eq!(cs.remaining(B), 600.0);
        // Bill 2 CPU·hours = 30 credits.
        let billed = cs.bill(B, 2.0 * CREDITS_PER_CPU_HOUR).expect("open order");
        assert_eq!(billed, 30.0);
        assert_eq!(cs.spent(B), 30.0);
        // Pay: 570 refunded.
        let refund = cs.pay(B).expect("open order");
        assert_eq!(refund, 570.0);
        assert_eq!(cs.balance(U), 970.0);
        assert!(!cs.has_credits(B));
    }

    #[test]
    fn insufficient_credits_rejected() {
        let mut cs = CreditSystem::new();
        cs.deposit(U, 10.0);
        assert_eq!(
            cs.order_qos(B, U, 20.0),
            Err(CreditError::InsufficientCredits)
        );
        assert_eq!(cs.balance(U), 10.0, "balance untouched");
    }

    #[test]
    fn duplicate_order_rejected() {
        let mut cs = CreditSystem::new();
        cs.deposit(U, 100.0);
        cs.order_qos(B, U, 50.0).unwrap();
        assert_eq!(cs.order_qos(B, U, 10.0), Err(CreditError::DuplicateOrder));
    }

    #[test]
    fn billing_capped_at_provision() {
        let mut cs = CreditSystem::new();
        cs.deposit(U, 100.0);
        cs.order_qos(B, U, 30.0).unwrap();
        let billed = cs.bill(B, 50.0).unwrap();
        assert_eq!(billed, 30.0);
        assert!(!cs.has_credits(B));
        assert_eq!(cs.pay(B).unwrap(), 0.0);
    }

    #[test]
    fn operations_on_closed_order_fail() {
        let mut cs = CreditSystem::new();
        cs.deposit(U, 100.0);
        cs.order_qos(B, U, 50.0).unwrap();
        cs.pay(B).unwrap();
        assert_eq!(cs.bill(B, 1.0), Err(CreditError::OrderClosed));
        assert_eq!(cs.pay(B), Err(CreditError::OrderClosed));
        assert_eq!(cs.remaining(B), 0.0);
    }

    #[test]
    fn no_order_errors() {
        let mut cs = CreditSystem::new();
        assert_eq!(cs.bill(B, 1.0), Err(CreditError::NoOrder));
        assert_eq!(cs.pay(B), Err(CreditError::NoOrder));
        assert!(!cs.has_credits(B));
    }

    #[test]
    fn zero_balance_order_qos() {
        let mut cs = CreditSystem::new();
        // Never-seen user, empty balance: any positive order is refused and
        // leaves no trace.
        assert_eq!(
            cs.order_qos(B, U, 1.0),
            Err(CreditError::InsufficientCredits)
        );
        assert_eq!(cs.open_order_count(), 0);
        // A zero-credit order is admissible but carries no cloud budget.
        cs.order_qos(B, U, 0.0).expect("zero order");
        assert!(!cs.has_credits(B), "zero provision = no credits");
        assert_eq!(cs.remaining(B), 0.0);
        assert_eq!(cs.bill(B, 5.0).unwrap(), 0.0, "nothing billable");
        assert_eq!(cs.pay(B).unwrap(), 0.0, "nothing refundable");
        assert_eq!(cs.balance(U), 0.0);
    }

    #[test]
    fn bill_racing_pay() {
        // A billing tick and the user's `pay` can land in either order at
        // BoT completion; whichever wins, credits are conserved and the
        // loser observes a closed/settled order rather than double-spend.
        let mut cs = CreditSystem::new();
        cs.deposit(U, 100.0);
        cs.order_qos(B, U, 60.0).unwrap();
        cs.bill(B, 10.0).unwrap();

        // pay first, then the late bill: the bill must fail, the refund
        // must not be re-billable.
        let mut a = cs.clone();
        assert_eq!(a.pay(B).unwrap(), 50.0);
        assert_eq!(a.bill(B, 10.0), Err(CreditError::OrderClosed));
        assert_eq!(a.balance(U), 90.0);
        assert!((a.total_outstanding() - 90.0).abs() < 1e-9);

        // bill first, then pay: the refund shrinks by exactly the bill.
        let mut b = cs;
        assert_eq!(b.bill(B, 10.0).unwrap(), 10.0);
        assert_eq!(b.pay(B).unwrap(), 40.0);
        assert_eq!(b.balance(U), 80.0);
        assert!((b.total_outstanding() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn closed_orders_leave_the_open_count_and_remaining() {
        let mut cs = CreditSystem::new();
        cs.deposit(U, 100.0);
        for id in [9u64, 3, 7] {
            cs.order_qos(BotId(id), U, 10.0).unwrap();
        }
        cs.pay(BotId(7)).unwrap();
        assert_eq!(cs.open_order_count(), 2, "closed order gone");
        assert_eq!(cs.open_remaining(), 20.0);
    }

    #[test]
    fn capped_topup_policy() {
        let mut cs = CreditSystem::new();
        let policy = DepositPolicy::CappedTopUp {
            amount: 6000.0,
            cap: 6000.0,
        };
        // Empty account: full deposit.
        assert_eq!(policy.apply(&mut cs, U), 6000.0);
        // Account at cap: nothing.
        assert_eq!(policy.apply(&mut cs, U), 0.0);
        // Spend some, top-up covers only the gap.
        cs.order_qos(B, U, 2000.0).unwrap();
        assert_eq!(policy.apply(&mut cs, U), 2000.0);
    }

    #[test]
    fn fixed_policy() {
        let mut cs = CreditSystem::new();
        let policy = DepositPolicy::Fixed { amount: 100.0 };
        policy.apply(&mut cs, U);
        policy.apply(&mut cs, U);
        assert_eq!(cs.balance(U), 200.0);
    }

    #[test]
    fn network_of_favors_settles_once() {
        let mut cs = CreditSystem::new();
        let mut ledger = FavorLedger::new();
        // Peer donated 10 CPU·h and consumed 4 CPU·h of cloud.
        ledger.record_donation(U, 10.0);
        ledger.record_consumption(U, 4.0);
        assert_eq!(ledger.net_favor(U), 6.0);
        let deposit = ledger.settle(&mut cs, U);
        assert_eq!(deposit, 6.0 * CREDITS_PER_CPU_HOUR);
        assert_eq!(cs.balance(U), deposit);
        // Favor was consumed by settling; nothing more to pay.
        assert_eq!(ledger.net_favor(U), 0.0);
        assert_eq!(ledger.settle(&mut cs, U), 0.0);
    }

    #[test]
    fn network_of_favors_never_negative() {
        let mut ledger = FavorLedger::new();
        ledger.record_consumption(U, 8.0);
        assert_eq!(ledger.net_favor(U), 0.0);
        let mut cs = CreditSystem::new();
        assert_eq!(ledger.settle(&mut cs, U), 0.0);
        assert_eq!(cs.balance(U), 0.0);
    }

    proptest! {
        /// Credits never appear out of thin air: outstanding total equals
        /// deposits minus billed spending, for any operation sequence.
        #[test]
        fn prop_conservation(ops in proptest::collection::vec((0u8..4, 0.0f64..100.0), 1..60)) {
            let mut cs = CreditSystem::new();
            let mut deposited = 0.0;
            let mut burned = 0.0;
            let mut next_bot = 0u64;
            let mut open: Vec<BotId> = vec![];
            for (op, amt) in ops {
                match op {
                    0 => { cs.deposit(U, amt); deposited += amt; }
                    1 => {
                        let bot = BotId(next_bot);
                        next_bot += 1;
                        if cs.order_qos(bot, U, amt).is_ok() { open.push(bot); }
                    }
                    2 => {
                        if let Some(&bot) = open.first() {
                            if let Ok(b) = cs.bill(bot, amt) { burned += b; }
                        }
                    }
                    _ => {
                        if let Some(bot) = open.pop() {
                            let _ = cs.pay(bot);
                        }
                    }
                }
            }
            prop_assert!((cs.total_outstanding() - (deposited - burned)).abs() < 1e-6);
        }

        /// Billing never exceeds what was provisioned.
        #[test]
        fn prop_bill_capped(provision in 0.0f64..1e4, bills in proptest::collection::vec(0.0f64..1e3, 1..50)) {
            let mut cs = CreditSystem::new();
            cs.deposit(U, provision);
            cs.order_qos(B, U, provision).unwrap();
            let mut total = 0.0;
            for b in bills {
                total += cs.bill(B, b).unwrap();
            }
            prop_assert!(total <= provision + 1e-9);
            prop_assert!(cs.remaining(B) >= -1e-9);
        }
    }
}
