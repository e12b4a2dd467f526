//! Model-checking configuration: cluster size, fault budgets and transaction bounds.

use remix_spec::effect::MAX_EFFECT_SERVERS;
use remix_spec::SpecError;

use crate::versions::{BugFlags, CodeVersion};

/// Configuration of a model-checking run (the "standard configuration" of §4.4, scaled).
///
/// The paper's standard configuration is three servers, up to four transactions, up to
/// three node crashes and up to three network partitions.  The reproduction keeps the
/// three-server cluster shape and lets each experiment pick transaction / fault budgets
/// that finish in a laptop-scale time budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Number of servers in the ensemble.
    pub num_servers: usize,
    /// Maximum number of client transactions the leader may create during Broadcast.
    pub max_transactions: u32,
    /// Maximum number of node crashes injected by the fault module.
    pub max_crashes: u32,
    /// Maximum number of network partitions injected by the fault module.
    pub max_partitions: u32,
    /// Upper bound on epoch numbers, to keep the state space finite.
    pub max_epoch: u32,
    /// The implementation version being modelled.
    pub version: CodeVersion,
    /// Whether ZK-4394 is masked (§4.1): once the unmatched-COMMIT error path of ZK-4394
    /// is reached, the specification drops the message instead of flagging I-14, so that
    /// the known-but-unfixed bug does not hide other violations.
    pub mask_zk4394: bool,
}

impl ClusterConfig {
    /// The default three-server configuration used by the examples and tests: two
    /// transactions, one crash, no partitions.
    pub fn small(version: CodeVersion) -> Self {
        ClusterConfig {
            num_servers: 3,
            max_transactions: 2,
            max_crashes: 1,
            max_partitions: 0,
            max_epoch: 4,
            version,
            mask_zk4394: true,
        }
    }

    /// The configuration used by the efficiency evaluation (Table 5, scaled): three
    /// servers, two transactions, two crashes, no partitions.
    pub fn table5(version: CodeVersion) -> Self {
        ClusterConfig {
            max_crashes: 2,
            ..ClusterConfig::small(version)
        }
    }

    /// The configuration used by bug detection (Table 4, scaled): three servers, up to
    /// three transactions and two crashes.
    pub fn table4(version: CodeVersion) -> Self {
        ClusterConfig {
            max_transactions: 3,
            max_crashes: 2,
            ..ClusterConfig::small(version)
        }
    }

    /// The configuration used by guided schedule exploration (the coverage-guided
    /// sampling loop layered over §3.5.2's conformance sampling): the Table 4 budgets —
    /// deep enough that the seeded bugs (e.g. ZK-4646's crash between the epoch update
    /// and the history write) are reachable by a random walk — but with the epoch bound
    /// raised so long sampled walks through repeated elections stay within the model.
    ///
    /// Uniform sampling mostly churns through the hot election/discovery region of this
    /// space; the guided explorer biases away from it, which is exactly the comparison
    /// the `BENCH_explore.json` artefact measures.
    pub fn explore(version: CodeVersion) -> Self {
        ClusterConfig {
            max_epoch: 6,
            ..ClusterConfig::table4(version)
        }
    }

    /// Sets the number of crashes.
    pub fn with_crashes(mut self, crashes: u32) -> Self {
        self.max_crashes = crashes;
        self
    }

    /// Sets the number of transactions.
    pub fn with_transactions(mut self, txns: u32) -> Self {
        self.max_transactions = txns;
        self
    }

    /// Sets the number of partitions.
    pub fn with_partitions(mut self, partitions: u32) -> Self {
        self.max_partitions = partitions;
        self
    }

    /// Unmasks ZK-4394 (the `mSpec-1*` configuration of Table 4).
    pub fn unmask_zk4394(mut self) -> Self {
        self.mask_zk4394 = false;
        self
    }

    /// The behavioural switches of the configured code version.
    pub fn bugs(&self) -> BugFlags {
        self.version.bugs()
    }

    /// The quorum size (strict majority) of the ensemble.
    pub fn quorum_size(&self) -> usize {
        self.num_servers / 2 + 1
    }

    /// Checks that the specification supports this configuration: the state keeps
    /// server ids in fixed-size masks (see [`crate::containers`]), so an ensemble has at
    /// most [`MAX_EFFECT_SERVERS`] servers.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.num_servers > MAX_EFFECT_SERVERS {
            return Err(SpecError::InvalidConfig {
                detail: format!(
                    "num_servers = {} exceeds the cap of {MAX_EFFECT_SERVERS} servers \
                     (MAX_EFFECT_SERVERS)",
                    self.num_servers
                ),
            });
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::small(CodeVersion::V391)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_a_strict_majority() {
        assert_eq!(ClusterConfig::small(CodeVersion::V391).quorum_size(), 2);
        let five = ClusterConfig {
            num_servers: 5,
            ..Default::default()
        };
        assert_eq!(five.quorum_size(), 3);
    }

    #[test]
    fn server_count_is_capped() {
        let at_cap = ClusterConfig {
            num_servers: MAX_EFFECT_SERVERS,
            ..Default::default()
        };
        assert!(at_cap.validate().is_ok());
        let over = ClusterConfig {
            num_servers: MAX_EFFECT_SERVERS + 1,
            ..Default::default()
        };
        let err = over.validate().unwrap_err().to_string();
        assert!(
            err.contains("num_servers = 9") && err.contains("cap of 8 servers"),
            "{err}"
        );
    }

    #[test]
    fn builders_apply() {
        let c = ClusterConfig::small(CodeVersion::V370)
            .with_crashes(3)
            .with_transactions(4)
            .with_partitions(2)
            .unmask_zk4394();
        assert_eq!(c.max_crashes, 3);
        assert_eq!(c.max_transactions, 4);
        assert_eq!(c.max_partitions, 2);
        assert!(!c.mask_zk4394);
        assert_eq!(c.version, CodeVersion::V370);
        assert!(c.bugs().epoch_updated_before_history);
    }

    #[test]
    fn presets_match_paper_shape() {
        let t5 = ClusterConfig::table5(CodeVersion::V370);
        assert_eq!(
            (t5.num_servers, t5.max_transactions, t5.max_crashes),
            (3, 2, 2)
        );
        let t4 = ClusterConfig::table4(CodeVersion::V391);
        assert_eq!(
            (t4.num_servers, t4.max_transactions, t4.max_crashes),
            (3, 3, 2)
        );
        // The exploration preset keeps the Table 4 fault budgets but deepens the epoch
        // bound so long sampled walks stay within the model.
        let ex = ClusterConfig::explore(CodeVersion::V391);
        assert_eq!(
            (ex.max_transactions, ex.max_crashes, ex.max_epoch),
            (t4.max_transactions, t4.max_crashes, 6)
        );
    }
}
