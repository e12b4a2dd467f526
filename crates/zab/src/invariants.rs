//! The fourteen invariants of Table 2.
//!
//! I-1..I-10 are safety properties of the Zab protocol and apply to specifications of any
//! granularity.  I-11..I-14 are code-level invariants derived from exceptions and
//! assertions in the ZooKeeper implementation; they are scoped to compositions whose
//! Synchronization module models the corresponding execution (the composer selects them
//! automatically, §3.5.1).
//!
//! Where the paper states a property over an execution history (e.g. "delivers t before
//! t'"), we phrase the state-level counterpart over the delivered prefixes and the ghost
//! record of established epochs, as is usual for TLA+ safety invariants.

use remix_spec::{Granularity, Invariant, InvariantSource};

use crate::modules::SYNCHRONIZATION;
use crate::state::ZabState;
use crate::types::{Txn, ViolationKind, ZabPhase};

/// Number of instances per code-level invariant family (the counts of Table 2).
pub const CODE_INVARIANT_INSTANCES: &[(&str, usize)] =
    &[("I-11", 4), ("I-12", 2), ("I-13", 2), ("I-14", 3)];

/// Returns `true` when `a` is a prefix of `b`.
fn is_prefix(a: &[Txn], b: &[Txn]) -> bool {
    a.len() <= b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

/// Returns `true` when one of the two slices is a prefix of the other.
fn prefix_comparable(a: &[Txn], b: &[Txn]) -> bool {
    is_prefix(a, b) || is_prefix(b, a)
}

fn i1(s: &ZabState) -> bool {
    if s.ghost.duplicate_establishment {
        return false;
    }
    // At most one live established leader per epoch.
    for e in s.ghost.established_leaders.keys() {
        let leaders = s
            .servers
            .iter()
            .filter(|sv| sv.is_up() && sv.established && sv.accepted_epoch == *e)
            .count();
        if leaders > 1 {
            return false;
        }
    }
    true
}

fn i2(s: &ZabState) -> bool {
    s.servers
        .iter()
        .all(|sv| sv.delivered().iter().all(|t| s.ghost.broadcast.contains(t)))
}

fn i3(s: &ZabState) -> bool {
    for (a, sa) in s.servers.iter().enumerate() {
        for sb in s.servers.iter().skip(a + 1) {
            let da: std::collections::BTreeSet<_> = sa.delivered().iter().collect();
            let db: std::collections::BTreeSet<_> = sb.delivered().iter().collect();
            if !da.is_subset(&db) && !db.is_subset(&da) {
                return false;
            }
        }
    }
    true
}

fn i4(s: &ZabState) -> bool {
    for (a, sa) in s.servers.iter().enumerate() {
        for sb in s.servers.iter().skip(a + 1) {
            if !prefix_comparable(sa.delivered(), sb.delivered()) {
                return false;
            }
        }
    }
    true
}

fn i5(s: &ZabState) -> bool {
    // Within one epoch, transactions are delivered in the order the primary broadcast
    // them (strictly increasing counters).
    s.servers.iter().all(|sv| {
        let d = sv.delivered();
        d.windows(2)
            .all(|w| w[0].zxid.epoch != w[1].zxid.epoch || w[0].zxid.counter < w[1].zxid.counter)
    })
}

fn i6(s: &ZabState) -> bool {
    // Transactions of an earlier epoch are delivered before transactions of a later one:
    // the delivered sequence is sorted by zxid.
    s.servers
        .iter()
        .all(|sv| sv.delivered().windows(2).all(|w| w[0].zxid < w[1].zxid))
}

fn i7(s: &ZabState) -> bool {
    // If the established primary of epoch e has broadcast a transaction, it must have
    // delivered every earlier-epoch transaction that any process has delivered.
    for (i, sv) in s.servers.iter().enumerate() {
        if !sv.is_up() || !sv.established {
            continue;
        }
        let e = sv.accepted_epoch;
        if s.ghost.established_leaders.get(&e) != Some(&i) {
            continue;
        }
        let has_broadcast = s.ghost.broadcast.iter().any(|t| t.zxid.epoch == e);
        if !has_broadcast {
            continue;
        }
        let delivered: std::collections::BTreeSet<_> = sv.delivered().iter().copied().collect();
        for other in &s.servers {
            for t in other.delivered() {
                if t.zxid.epoch < e && !delivered.contains(t) {
                    return false;
                }
            }
        }
    }
    true
}

fn i8(s: &ZabState) -> bool {
    let epochs: Vec<u32> = s.ghost.initial_history.keys().copied().collect();
    for (idx, &e) in epochs.iter().enumerate() {
        for &e2 in &epochs[idx + 1..] {
            let earlier = &s.ghost.initial_history[&e.min(e2)];
            let later = &s.ghost.initial_history[&e.max(e2)];
            if !is_prefix(earlier, later) {
                return false;
            }
        }
    }
    true
}

fn i9(s: &ZabState) -> bool {
    for sv in &s.servers {
        let Some(last) = sv.delivered().last() else {
            continue;
        };
        let e = last.zxid.epoch;
        let Some(initial) = s.ghost.initial_history.get(&e) else {
            continue;
        };
        if !prefix_comparable(sv.delivered(), initial) {
            return false;
        }
        let beyond_initial = initial
            .last()
            .map(|t| last.zxid > t.zxid)
            .unwrap_or(!sv.delivered().is_empty());
        if beyond_initial && !is_prefix(initial, sv.delivered()) {
            return false;
        }
    }
    true
}

fn i10(s: &ZabState) -> bool {
    // Histories of servers participating in the same (broadcast-phase) epoch must be
    // prefix-comparable.
    for (a, sa) in s.servers.iter().enumerate() {
        if !sa.is_up() || sa.phase != ZabPhase::Broadcast {
            continue;
        }
        for sb in s.servers.iter().skip(a + 1) {
            if !sb.is_up()
                || sb.phase != ZabPhase::Broadcast
                || sa.current_epoch != sb.current_epoch
            {
                continue;
            }
            if !prefix_comparable(&sa.history, &sb.history) {
                return false;
            }
        }
    }
    true
}

fn no_violation_of(kind: ViolationKind) -> impl Fn(&ZabState) -> bool + Send + Sync + 'static {
    move |s: &ZabState| s.violation.as_ref().map(|v| v.kind != kind).unwrap_or(true)
}

/// The ten protocol-level invariants (I-1..I-10), applicable at any granularity.
pub fn protocol_invariants() -> Vec<Invariant<ZabState>> {
    vec![
        Invariant::always("I-1", "Primary uniqueness", InvariantSource::Protocol, i1),
        Invariant::always("I-2", "Integrity", InvariantSource::Protocol, i2),
        Invariant::always("I-3", "Agreement", InvariantSource::Protocol, i3),
        Invariant::always("I-4", "Total order", InvariantSource::Protocol, i4),
        Invariant::always("I-5", "Local primary order", InvariantSource::Protocol, i5),
        Invariant::always("I-6", "Global primary order", InvariantSource::Protocol, i6),
        Invariant::always("I-7", "Primary integrity", InvariantSource::Protocol, i7),
        Invariant::always(
            "I-8",
            "Initial history integrity",
            InvariantSource::Protocol,
            i8,
        ),
        Invariant::always("I-9", "Commit consistency", InvariantSource::Protocol, i9),
        Invariant::always(
            "I-10",
            "History consistency",
            InvariantSource::Protocol,
            i10,
        ),
    ]
}

/// The four code-level invariant families (I-11..I-14, eleven instances in total).
///
/// I-13 and I-14 talk about message handling that every granularity models, so they apply
/// from the baseline up.  I-11 and I-12 talk about thread interleavings that only the
/// fine-grained (concurrency) Synchronization module models, so they are scoped to it —
/// except the ZK-4394 instance of I-14 which is reachable at baseline granularity.
pub fn code_invariants() -> Vec<Invariant<ZabState>> {
    vec![
        Invariant::scoped(
            "I-11",
            "Bad states",
            InvariantSource::Code,
            SYNCHRONIZATION,
            Granularity::FineConcurrent,
            no_violation_of(ViolationKind::BadState),
        ),
        Invariant::scoped(
            "I-12",
            "Bad acknowledgments",
            InvariantSource::Code,
            SYNCHRONIZATION,
            Granularity::FineConcurrent,
            no_violation_of(ViolationKind::BadAck),
        ),
        Invariant::scoped(
            "I-13",
            "Bad proposals",
            InvariantSource::Code,
            SYNCHRONIZATION,
            Granularity::Baseline,
            no_violation_of(ViolationKind::BadProposal),
        ),
        Invariant::scoped(
            "I-14",
            "Bad commits",
            InvariantSource::Code,
            SYNCHRONIZATION,
            Granularity::Baseline,
            no_violation_of(ViolationKind::BadCommit),
        ),
    ]
}

/// All fourteen invariants of Table 2.
pub fn all_invariants() -> Vec<Invariant<ZabState>> {
    let mut v = protocol_invariants();
    v.extend(code_invariants());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::types::{CodeViolation, ServerState};
    use crate::versions::CodeVersion;

    fn base() -> ZabState {
        ZabState::initial(&ClusterConfig::small(CodeVersion::V391))
    }

    fn txn(e: u32, c: u32) -> Txn {
        Txn::new(e, c, c)
    }

    #[test]
    fn initial_state_satisfies_every_invariant() {
        let s = base();
        for inv in all_invariants() {
            assert!(inv.holds(&s), "{} should hold initially", inv.id);
        }
        assert_eq!(all_invariants().len(), 14);
        assert_eq!(
            CODE_INVARIANT_INSTANCES
                .iter()
                .map(|(_, n)| n)
                .sum::<usize>(),
            11
        );
    }

    #[test]
    fn i1_detects_two_leaders_of_the_same_epoch() {
        let mut s = base();
        s.record_establishment(1, 0, vec![]);
        s.record_establishment(1, 2, vec![]);
        assert!(!i1(&s));

        let mut s = base();
        s.record_establishment(1, 0, vec![]);
        for i in [0, 2] {
            s.servers[i].established = true;
            s.servers[i].accepted_epoch = 1;
            s.servers[i].state = ServerState::Leading;
        }
        assert!(!i1(&s));
    }

    #[test]
    fn i3_and_i4_detect_diverging_deliveries() {
        let mut s = base();
        s.servers[0].history = vec![txn(1, 1), txn(1, 2)].into();
        s.servers[0].last_committed = 2;
        s.servers[1].history = vec![txn(1, 1), txn(1, 3)].into();
        s.servers[1].last_committed = 2;
        assert!(!i3(&s));
        assert!(!i4(&s));
        // A common prefix is fine.
        s.servers[1].last_committed = 1;
        assert!(i3(&s));
        assert!(i4(&s));
    }

    #[test]
    fn i5_and_i6_require_ordered_delivery() {
        let mut s = base();
        s.servers[0].history = vec![txn(1, 2), txn(1, 1)].into();
        s.servers[0].last_committed = 2;
        assert!(!i5(&s));
        assert!(!i6(&s));
        s.servers[0].history = vec![txn(1, 1), txn(2, 1)].into();
        assert!(i5(&s));
        assert!(i6(&s));
        s.servers[0].history = vec![txn(2, 1), txn(1, 1)].into();
        assert!(!i6(&s));
    }

    #[test]
    fn i8_detects_lost_initial_history() {
        let mut s = base();
        s.ghost
            .initial_history
            .insert(1, vec![txn(1, 1), txn(1, 2)]);
        s.ghost
            .initial_history
            .insert(2, vec![txn(1, 1), txn(1, 2), txn(2, 1)]);
        assert!(i8(&s));
        // Epoch 3 lost the committed transaction <<1, 2>> (the ZK-4643 / ZK-4646 symptom).
        s.ghost.initial_history.insert(3, vec![txn(1, 1)]);
        assert!(!i8(&s));
    }

    #[test]
    fn i9_requires_delivery_of_the_initial_history() {
        let mut s = base();
        s.ghost
            .initial_history
            .insert(1, vec![txn(1, 1), txn(1, 2)]);
        // Delivering beyond the initial history without containing it is a violation.
        s.servers[0].history = vec![txn(1, 1), txn(1, 3)].into();
        s.servers[0].last_committed = 2;
        assert!(!i9(&s));
        // Delivering a prefix of the initial history is fine.
        s.servers[0].history = vec![txn(1, 1)].into();
        s.servers[0].last_committed = 1;
        assert!(i9(&s));
    }

    #[test]
    fn i10_detects_diverging_histories_within_an_epoch() {
        let mut s = base();
        for i in 0..2 {
            s.servers[i].phase = ZabPhase::Broadcast;
            s.servers[i].current_epoch = 1;
        }
        s.servers[0].history = vec![txn(1, 1), txn(1, 2)].into();
        s.servers[1].history = vec![txn(1, 1), txn(1, 3)].into();
        assert!(!i10(&s));
        // Servers in different epochs or phases are not compared.
        s.servers[1].current_epoch = 2;
        assert!(i10(&s));
    }

    #[test]
    fn i7_requires_primary_to_deliver_earlier_epochs() {
        let mut s = base();
        s.record_establishment(2, 0, vec![]);
        s.servers[0].established = true;
        s.servers[0].accepted_epoch = 2;
        s.servers[0].state = ServerState::Leading;
        s.ghost.broadcast.push(txn(2, 1));
        // Another server delivered an epoch-1 transaction the primary does not have.
        s.servers[1].history = vec![txn(1, 1)].into();
        s.servers[1].last_committed = 1;
        assert!(!i7(&s));
        s.servers[0].history = vec![txn(1, 1)].into();
        s.servers[0].last_committed = 1;
        assert!(i7(&s));
    }

    #[test]
    fn code_invariants_flag_their_violation_kinds() {
        let invs = code_invariants();
        let mut s = base();
        s.record_violation(CodeViolation {
            kind: ViolationKind::BadAck,
            instance: 1,
            server: 0,
            issue: "ZK-4685",
        });
        let i12 = invs.iter().find(|i| i.id == "I-12").unwrap();
        let i11 = invs.iter().find(|i| i.id == "I-11").unwrap();
        assert!(!i12.holds(&s));
        assert!(i11.holds(&s), "other families are unaffected");
    }

    #[test]
    fn i2_requires_delivered_txns_to_have_been_broadcast() {
        let mut s = base();
        s.servers[0].history = vec![txn(1, 1)].into();
        s.servers[0].last_committed = 1;
        assert!(!i2(&s));
        s.ghost.broadcast.push(txn(1, 1));
        assert!(i2(&s));
    }
}
