//! Granularity projections for the Zab specification library.
//!
//! These are the abstraction relations the refinement checker
//! (`remix-checker::refine`) uses to prove that a coarser composition simulates a finer
//! one — the semantic counterpart of the syntactic interaction-preservation check of
//! §3.2.  Two normalizations are provided, selected per module pair:
//!
//! * **Election/Discovery** ([`normalize_election`](ProjectionSpec::normalize_election)):
//!   the coarse `ElectionAndDiscovery(i, Q)` action (Figure 5b) executes the whole FLE
//!   round and epoch negotiation atomically.  Fine states *inside* that stretch (a
//!   server that decided but has not completed discovery) correspond to no coarse state
//!   and are unstable; election-internal variables (votes, notification bookkeeping)
//!   and messages (NOTIFICATION / FOLLOWERINFO / LEADERINFO / ACKEPOCH) are hidden, as
//!   are the per-server epoch markers of servers *outside* the protocol phases
//!   (`currentEpoch` / `acceptedEpoch` of LOOKING and DOWN servers), whose values the
//!   atomic coarsening cannot reproduce mid-handshake but whose downstream effects
//!   (which epochs get established, with which histories) stay fully visible.
//! * **Synchronization/Broadcast** ([`normalize_sync`](ProjectionSpec::normalize_sync)):
//!   the fine-grained modules split the atomic NEWLEADER / proposal handling into
//!   thread steps through the `queuedRequests` / `committedRequests` queues.  States
//!   with non-empty thread queues or a partially processed NEWLEADER handshake are
//!   unstable, and ACK messages are hidden (the fine side acknowledges per request;
//!   the visible consequences — leader bookkeeping, establishment, violations — remain
//!   projected).
//!
//! What stays visible in every projection: per-server control state of servers inside
//! the protocol phases, the durable logs and commit indices, the fault budgets and
//! partitions, the ghost variables (established epochs, initial histories, broadcast
//! order) and the code-level `violation` marker — i.e. exactly the state the
//! non-coarsened modules interact with.
//!
//! These visibility rules live in one place, [`ZabView::of`].  The refinement checker
//! keys projected classes on the view's derived `Hash`; the variable map a divergence
//! report shows is rendered from the same view.

use std::collections::BTreeMap;

use remix_spec::{view_key, CompositionPlan, Granularity, Projected, TraceProjection, Value};

use crate::config::ClusterConfig;
use crate::containers::{PairSet, Shared, SidSet};
use crate::state::{GhostState, ServerData, ZabState};
use crate::types::{CodeViolation, Message, ServerState, Sid, Txn, ZabPhase, Zxid};

/// Which normalizations a projection applies (derived from the pair of composition
/// plans being compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionSpec {
    /// Normalize the Election + Discovery coarsening (pair differs in those modules).
    pub normalize_election: bool,
    /// Normalize the fine-grained Synchronization / Broadcast thread structure.
    pub normalize_sync: bool,
}

/// Action names internal to the Election/Discovery coarsening (matched by the coarse
/// side by stuttering).
const ELECTION_INTERNAL: &[&str] = &[
    "FLEBroadcastNotification",
    "FLEReceiveNotification",
    "FLEDecide",
    "FLENotificationTimeout",
    "ConnectAndFollowerSendFOLLOWERINFO",
    "LeaderProcessFOLLOWERINFO",
    "FollowerProcessLEADERINFO",
    "LeaderProcessACKEPOCH",
];

/// Action names internal to the fine-grained Synchronization/Broadcast thread model.
const SYNC_INTERNAL: &[&str] = &[
    "FollowerProcessNEWLEADER_UpdateEpoch",
    "FollowerProcessNEWLEADER_LogAndAck",
    "FollowerProcessNEWLEADER_LogAsync",
    "FollowerProcessNEWLEADER_ReplyAck",
    "FollowerSyncProcessorLogRequest",
    "FollowerCommitProcessorCommit",
];

/// The action name of a fully instantiated label (`"FLEDecide(2)"` → `"FLEDecide"`).
fn action_name(label: &str) -> &str {
    label.split('(').next().unwrap_or(label).trim()
}

/// `true` when the server is inside the protocol phases the projection keeps fully
/// visible (Synchronization or Broadcast, i.e. past the coarsened handshake).
fn in_phase(sv: &ServerData) -> bool {
    sv.is_up() && matches!(sv.phase, ZabPhase::Synchronization | ZabPhase::Broadcast)
}

fn zxid_value(z: Zxid) -> Value {
    Value::record(vec![
        ("epoch".to_owned(), Value::from(z.epoch)),
        ("counter".to_owned(), Value::from(z.counter)),
    ])
}

fn txn_value(t: &Txn) -> Value {
    Value::record(vec![
        ("zxid".to_owned(), zxid_value(t.zxid)),
        ("value".to_owned(), Value::from(t.value)),
    ])
}

fn history_value(txns: &[Txn]) -> Value {
    Value::Seq(txns.iter().map(txn_value).collect())
}

fn zxids_value(zxids: &[Zxid]) -> Value {
    Value::Seq(zxids.iter().map(|z| zxid_value(*z)).collect())
}

fn sids_value(sids: SidSet) -> Value {
    Value::set(sids.iter().map(Value::from).collect())
}

/// The control state of a server whose handshake progress is visible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ControlView {
    phase: ZabPhase,
    leader: Option<Sid>,
    serving: bool,
    established: bool,
    epoch_proposed: bool,
    sync_sent: SidSet,
    newleader_acks: SidSet,
    pending_acks: BTreeMap<Zxid, SidSet>,
    packets_not_committed: Vec<Txn>,
    packets_committed: Vec<Zxid>,
}

/// The visible part of one server under a [`ProjectionSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ServerView {
    history: Shared<Vec<Txn>>,
    last_committed: usize,
    queued_requests: Vec<Txn>,
    pending_commits: Vec<Zxid>,
    state: ServerState,
    control: Option<ControlView>,
    /// `(currentEpoch, acceptedEpoch)`.
    epochs: Option<(u32, u32)>,
    /// `(learners, ackeRecv)`.
    election: Option<(SidSet, SidSet)>,
}

impl ServerView {
    fn of(sv: &ServerData, spec: ProjectionSpec) -> Self {
        let handshake_hidden = spec.normalize_election && !in_phase(sv);
        ServerView {
            // Durable data state: always visible — this is what the invariants are about.
            history: sv.history.clone(),
            last_committed: sv.last_committed.min(sv.history.len()),
            // Thread queues: visible (the ZK-4712 stale-queue interaction lives here);
            // the sync normalization makes states with non-empty queues unstable
            // instead.
            queued_requests: sv.queued_requests.clone(),
            pending_commits: sv.pending_commits.clone(),
            // Anything still inside the coarsened handshake shows as a plain LOOKING
            // server; the handshake's intermediate control state is internal.
            state: if handshake_hidden && sv.is_up() {
                ServerState::Looking
            } else {
                sv.state
            },
            control: (sv.is_up() && !handshake_hidden).then(|| ControlView {
                phase: sv.phase,
                leader: sv.leader,
                serving: sv.serving,
                established: sv.established,
                epoch_proposed: sv.epoch_proposed,
                sync_sent: sv.sync_sent,
                newleader_acks: sv.newleader_acks,
                pending_acks: sv.pending_acks.clone(),
                packets_not_committed: sv.packets_not_committed.clone(),
                packets_committed: sv.packets_committed.clone(),
            }),
            // Epoch markers: visible for servers inside the protocol phases; for
            // LOOKING / DOWN servers they are only visible when the election handshake
            // is not normalized (the atomic ElectionAndDiscovery cannot reproduce
            // partially negotiated epochs, and their only downstream effect — which
            // epoch the next round negotiates and who wins it — is re-exposed through
            // the states that round produces).
            epochs: (!handshake_hidden).then_some((sv.current_epoch, sv.accepted_epoch)),
            // Election granularities match on both sides: election bookkeeping evolves
            // identically and stays comparable.
            election: (!spec.normalize_election).then_some((sv.learners, sv.epoch_acks)),
        }
    }

    fn value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("history".to_owned(), history_value(&self.history)),
            ("lastCommitted".to_owned(), Value::from(self.last_committed)),
            (
                "queuedRequests".to_owned(),
                history_value(&self.queued_requests),
            ),
            (
                "committedRequests".to_owned(),
                zxids_value(&self.pending_commits),
            ),
            ("state".to_owned(), Value::str(format!("{:?}", self.state))),
        ];
        if let Some(c) = &self.control {
            fields.push(("zabState".to_owned(), Value::str(format!("{:?}", c.phase))));
            fields.push((
                "leaderAddr".to_owned(),
                match c.leader {
                    Some(l) => Value::from(l),
                    None => Value::Int(-1),
                },
            ));
            fields.push(("serving".to_owned(), Value::Bool(c.serving)));
            fields.push(("established".to_owned(), Value::Bool(c.established)));
            fields.push(("epochProposed".to_owned(), Value::Bool(c.epoch_proposed)));
            fields.push(("syncSent".to_owned(), sids_value(c.sync_sent)));
            fields.push(("ackldRecv".to_owned(), sids_value(c.newleader_acks)));
            fields.push((
                "proposalAcks".to_owned(),
                Value::Seq(
                    c.pending_acks
                        .iter()
                        .map(|(z, acks)| {
                            Value::record(vec![
                                ("zxid".to_owned(), zxid_value(*z)),
                                ("acks".to_owned(), sids_value(*acks)),
                            ])
                        })
                        .collect(),
                ),
            ));
            fields.push((
                "packetsSync".to_owned(),
                Value::record(vec![
                    (
                        "notCommitted".to_owned(),
                        history_value(&c.packets_not_committed),
                    ),
                    ("committed".to_owned(), zxids_value(&c.packets_committed)),
                ]),
            ));
        }
        if let Some((current, accepted)) = self.epochs {
            fields.push(("currentEpoch".to_owned(), Value::from(current)));
            fields.push(("acceptedEpoch".to_owned(), Value::from(accepted)));
        }
        if let Some((learners, epoch_acks)) = self.election {
            fields.push(("learners".to_owned(), sids_value(learners)));
            fields.push(("ackeRecv".to_owned(), sids_value(epoch_acks)));
        }
        Value::record(fields)
    }
}

/// `true` when `msg` is hidden under `spec`: election messages are internal to the
/// Election/Discovery coarsening, ACKs to the fine-grained sync thread model.
fn hidden_msg(msg: &Message, spec: ProjectionSpec) -> bool {
    match msg {
        Message::Notification { .. }
        | Message::FollowerInfo { .. }
        | Message::LeaderInfo { .. }
        | Message::AckEpoch { .. } => spec.normalize_election,
        Message::Ack { .. } => spec.normalize_sync,
        _ => false,
    }
}

/// One channel's visible messages (only channels with at least one are kept).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ChannelView {
    from: Sid,
    to: Sid,
    queue: Vec<Message>,
}

/// The projected view of a [`ZabState`]: exactly the fields visible under a
/// [`ProjectionSpec`].
///
/// This is the one definition of the Zab projection.  The refinement checker keys
/// projected classes on the view's derived `Hash`; [`Projected::vars`] renders the
/// same view as a variable map for divergence reports and projected traces, so two
/// views are equal exactly when their renderings are.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ZabView {
    servers: Vec<ServerView>,
    channels: Vec<ChannelView>,
    partitioned: PairSet,
    crashes_remaining: u32,
    partitions_remaining: u32,
    txns_created: u32,
    /// Fully visible: the protocol-level invariants read the ghost variables, so a
    /// coarsening that changed them would change verification results.
    ghost: Shared<GhostState>,
    violation: Option<CodeViolation>,
}

impl ZabView {
    /// The view of `state` under `spec`.
    pub fn of(state: &ZabState, spec: ProjectionSpec) -> Self {
        let mut channels = Vec::new();
        for (from, row) in state.msgs.rows().enumerate() {
            for (to, queue) in row.iter().enumerate() {
                let queue: Vec<Message> = queue
                    .iter()
                    .filter(|m| !hidden_msg(m, spec))
                    .cloned()
                    .collect();
                if !queue.is_empty() {
                    channels.push(ChannelView { from, to, queue });
                }
            }
        }
        ZabView {
            servers: state
                .servers
                .iter()
                .map(|sv| ServerView::of(sv, spec))
                .collect(),
            channels,
            partitioned: state.partitioned,
            crashes_remaining: state.crashes_remaining,
            partitions_remaining: state.partitions_remaining,
            txns_created: state.txns_created,
            ghost: state.ghost.clone(),
            violation: state.violation.clone(),
        }
    }
}

impl Projected for ZabView {
    fn key(&self) -> u64 {
        view_key(self)
    }

    fn vars(&self) -> BTreeMap<String, Value> {
        let ghost = &*self.ghost;
        let mut out = BTreeMap::new();
        out.insert(
            "servers".to_owned(),
            Value::Seq(self.servers.iter().map(ServerView::value).collect()),
        );
        out.insert(
            "msgs".to_owned(),
            Value::Seq(
                self.channels
                    .iter()
                    .map(|c| {
                        Value::record(vec![
                            ("from".to_owned(), Value::from(c.from)),
                            ("to".to_owned(), Value::from(c.to)),
                            (
                                "queue".to_owned(),
                                Value::Seq(
                                    c.queue
                                        .iter()
                                        .map(|m| Value::str(format!("{m:?}")))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        );
        out.insert(
            "partitions".to_owned(),
            Value::set(
                self.partitioned
                    .iter()
                    .map(|(a, b)| {
                        Value::record(vec![
                            ("a".to_owned(), Value::from(a)),
                            ("b".to_owned(), Value::from(b)),
                        ])
                    })
                    .collect(),
            ),
        );
        out.insert(
            "crashBudget".to_owned(),
            Value::from(self.crashes_remaining),
        );
        out.insert(
            "partitionBudget".to_owned(),
            Value::from(self.partitions_remaining),
        );
        out.insert("txnBudget".to_owned(), Value::from(self.txns_created));
        out.insert(
            "violation".to_owned(),
            Value::str(format!("{:?}", self.violation)),
        );
        out.insert(
            "ghost".to_owned(),
            Value::record(vec![
                (
                    "establishedLeaders".to_owned(),
                    Value::Seq(
                        ghost
                            .established_leaders
                            .iter()
                            .map(|(e, l)| {
                                Value::record(vec![
                                    ("epoch".to_owned(), Value::from(*e)),
                                    ("leader".to_owned(), Value::from(*l)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "duplicate".to_owned(),
                    Value::Bool(ghost.duplicate_establishment),
                ),
                (
                    "initialHistory".to_owned(),
                    Value::Seq(
                        ghost
                            .initial_history
                            .iter()
                            .map(|(e, h)| {
                                Value::record(vec![
                                    ("epoch".to_owned(), Value::from(*e)),
                                    ("history".to_owned(), history_value(h)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("broadcast".to_owned(), history_value(&ghost.broadcast)),
            ]),
        );
        out
    }
}

/// `true` when the state is between coarse steps under `spec` (a commit point).
fn is_stable(state: &ZabState, spec: ProjectionSpec) -> bool {
    if spec.normalize_election {
        // No server may be inside the election/discovery handshake: decided (no longer
        // LOOKING) but not yet through epoch negotiation.
        for sv in &state.servers {
            if sv.is_up()
                && sv.state != ServerState::Looking
                && matches!(sv.phase, ZabPhase::Election | ZabPhase::Discovery)
            {
                return false;
            }
        }
    }
    if spec.normalize_sync {
        // Thread queues must be drained...
        for sv in &state.servers {
            if !sv.queued_requests.is_empty() || !sv.pending_commits.is_empty() {
                return false;
            }
        }
        // ...no NEWLEADER handshake may be in flight toward a synchronizing follower
        // (its epoch update / logging / acknowledgement sub-steps are one atomic step
        // on the coarse side)...
        for (i, sv) in state.servers.iter().enumerate() {
            if !sv.is_up()
                || sv.state != ServerState::Following
                || sv.phase != ZabPhase::Synchronization
            {
                continue;
            }
            if let Some(leader) = sv.leader {
                if state.msgs[leader][i]
                    .iter()
                    .any(|m| matches!(m, Message::NewLeader { .. }))
                {
                    return false;
                }
            }
        }
        // ...and no ACK may be in flight (the fine side acknowledges per logged
        // request; ACKs are hidden from the projection, so a state is only comparable
        // once they are consumed).
        for from in 0..state.n() {
            for to in 0..state.n() {
                if state.msgs[from][to]
                    .iter()
                    .any(|m| matches!(m, Message::Ack { .. }))
                {
                    return false;
                }
            }
        }
    }
    true
}

/// Builds the projection for a normalization choice.
pub fn projection(
    name: impl Into<String>,
    coarse: Granularity,
    fine: Granularity,
    spec: ProjectionSpec,
) -> TraceProjection<ZabState> {
    TraceProjection::identity(name, coarse, fine)
        .with_state(move |s: &ZabState| ZabView::of(s, spec))
        .with_label(move |label: &str| {
            let name = action_name(label);
            if spec.normalize_election
                && (ELECTION_INTERNAL.contains(&name) || name == "ElectionAndDiscovery")
            {
                if name == "ElectionAndDiscovery" {
                    return Some("ElectionAndDiscovery".to_owned());
                }
                return None;
            }
            if spec.normalize_sync && SYNC_INTERNAL.contains(&name) {
                return None;
            }
            Some(label.to_owned())
        })
        .with_stability(move |s: &ZabState| is_stable(s, spec))
}

/// The projection for comparing a composition that coarsens Election + Discovery
/// against one that keeps them at baseline granularity (mSpec-1 vs SysSpec).
pub fn coarse_vs_baseline(_config: &ClusterConfig) -> TraceProjection<ZabState> {
    projection(
        "Coarse⊑Baseline(Election+Discovery)",
        Granularity::Coarse,
        Granularity::Baseline,
        ProjectionSpec {
            normalize_election: true,
            normalize_sync: false,
        },
    )
}

/// The projection for comparing a composition with fine-grained Synchronization /
/// Broadcast modules against the baseline system specification.
pub fn baseline_vs_fine_sync(
    _config: &ClusterConfig,
    fine: Granularity,
) -> TraceProjection<ZabState> {
    projection(
        format!("Baseline⊑{fine}(Synchronization+Broadcast)"),
        Granularity::Baseline,
        fine,
        ProjectionSpec {
            normalize_election: false,
            normalize_sync: true,
        },
    )
}

/// Derives the projection relating two composition plans, or `None` when the plans
/// select identical granularities everywhere (no refinement pair).
///
/// The `coarse_plan` must select, for every module where the plans differ, a
/// granularity that strictly abstracts the `fine_plan`'s choice.
pub fn projection_between(
    fine_plan: &CompositionPlan,
    coarse_plan: &CompositionPlan,
    config: &ClusterConfig,
) -> Option<TraceProjection<ZabState>> {
    let mut normalize_election = false;
    let mut normalize_sync = false;
    let mut coarsest = Granularity::FineConcurrent;
    let mut finest = Granularity::Protocol;
    for choice in &coarse_plan.choices {
        let fine_g = fine_plan.granularity_of(choice.module)?;
        if fine_g == choice.granularity {
            continue;
        }
        if !choice.granularity.abstracts(fine_g) {
            return None;
        }
        match choice.module.name() {
            "Election" | "Discovery" => normalize_election = true,
            "Synchronization" | "Broadcast" => normalize_sync = true,
            _ => return None,
        }
        if choice.granularity.abstracts(coarsest) {
            coarsest = choice.granularity;
        }
        if finest.abstracts(fine_g) {
            finest = fine_g;
        }
    }
    if !normalize_election && !normalize_sync {
        return None;
    }
    let _ = config;
    Some(projection(
        format!("{}⊑{}", coarse_plan.name, fine_plan.name),
        coarsest,
        finest,
        ProjectionSpec {
            normalize_election,
            normalize_sync,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::SpecPreset;
    use crate::versions::CodeVersion;

    fn config() -> ClusterConfig {
        ClusterConfig::small(CodeVersion::V391)
    }

    #[test]
    fn initial_state_is_stable_and_projects() {
        let p = coarse_vs_baseline(&config());
        let s = ZabState::initial(&config());
        assert!(p.is_stable(&s));
        let projected = p.project_state(&s).vars();
        assert!(projected.contains_key("servers"));
        assert!(projected.contains_key("ghost"));
        assert!(projected.contains_key("crashBudget"));
    }

    #[test]
    fn mid_handshake_states_are_unstable() {
        let p = coarse_vs_baseline(&config());
        let mut s = ZabState::initial(&config());
        s.servers[0].state = ServerState::Leading;
        s.servers[0].phase = ZabPhase::Discovery;
        assert!(!p.is_stable(&s));
        // Once through discovery the state is a commit point again.
        s.servers[0].phase = ZabPhase::Synchronization;
        assert!(p.is_stable(&s));
    }

    #[test]
    fn election_internals_are_hidden() {
        let p = coarse_vs_baseline(&config());
        let mut a = ZabState::initial(&config());
        let b = a.clone();
        // Vote bookkeeping and election messages are internal: projections must agree.
        a.servers[1].vote_broadcast = true;
        a.servers[2].recv_votes.insert(
            1,
            crate::types::Vote {
                epoch: 0,
                zxid: crate::types::Zxid::ZERO,
                leader: 1,
            },
        );
        a.msgs[1][2].push(Message::Notification {
            vote: a.servers[1].vote,
        });
        assert_eq!(p.project_state(&a).vars(), p.project_state(&b).vars());
        // A durable difference stays visible.
        a.servers[1].history.push(crate::types::Txn::new(1, 1, 7));
        assert_ne!(p.project_state(&a).vars(), p.project_state(&b).vars());
    }

    #[test]
    fn labels_project_per_normalization() {
        let p = coarse_vs_baseline(&config());
        assert_eq!(p.project_label("FLEDecide(2)"), None);
        assert_eq!(p.project_label("LeaderProcessACKEPOCH(2, 0)"), None);
        assert_eq!(
            p.project_label("ElectionAndDiscovery(2, {0, 1, 2})"),
            Some("ElectionAndDiscovery".to_owned())
        );
        assert_eq!(
            p.project_label("NodeCrash(1)"),
            Some("NodeCrash(1)".to_owned())
        );

        let q = baseline_vs_fine_sync(&config(), Granularity::FineConcurrent);
        assert_eq!(q.project_label("FollowerSyncProcessorLogRequest(0)"), None);
        assert_eq!(
            q.project_label("FollowerProcessNEWLEADER_ReplyAck(0, 2)"),
            None
        );
        assert_eq!(
            q.project_label("FollowerProcessNEWLEADER(0, 2)"),
            Some("FollowerProcessNEWLEADER(0, 2)".to_owned())
        );
    }

    #[test]
    fn sync_normalization_marks_queue_states_unstable() {
        let q = baseline_vs_fine_sync(&config(), Granularity::FineConcurrent);
        let mut s = ZabState::initial(&config());
        assert!(q.is_stable(&s));
        s.servers[0]
            .queued_requests
            .push(crate::types::Txn::new(1, 1, 1));
        assert!(!q.is_stable(&s));
        s.servers[0].queued_requests.clear();
        s.msgs[0][2].push(Message::Ack {
            zxid: crate::types::Zxid::new(1, 1),
        });
        assert!(
            !q.is_stable(&s),
            "in-flight ACKs are hidden, so not comparable"
        );
    }

    #[test]
    fn projection_between_derives_normalizations_from_plans() {
        let cfg = config();
        let p = projection_between(
            &SpecPreset::SysSpec.plan(),
            &SpecPreset::MSpec1.plan(),
            &cfg,
        )
        .expect("Coarse vs Baseline pair");
        assert_eq!(p.coarse, Granularity::Coarse);
        assert_eq!(p.fine, Granularity::Baseline);
        assert_eq!(p.project_label("FLEDecide(1)"), None);

        let q = projection_between(
            &SpecPreset::MSpec4.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg,
        )
        .expect("Baseline vs FineConcurrent pair");
        assert_eq!(q.coarse, Granularity::Baseline);
        assert_eq!(q.fine, Granularity::FineConcurrent);
        assert_eq!(q.project_label("FollowerCommitProcessorCommit(0)"), None);

        // Identical plans have no refinement relation.
        assert!(projection_between(
            &SpecPreset::SysSpec.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg
        )
        .is_none());
        // An ill-ordered pair (coarse side finer than fine side) is rejected.
        assert!(projection_between(
            &SpecPreset::MSpec1.plan(),
            &SpecPreset::SysSpec.plan(),
            &cfg
        )
        .is_none());
    }
}
