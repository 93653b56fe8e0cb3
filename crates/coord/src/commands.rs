//! The deterministic command language applied by the replicated state machine.
//!
//! Coordination services achieve fault tolerance by running a deterministic
//! state machine (the tuple store) under a replication protocol. Every
//! client-visible mutation is expressed as a [`Command`] so that the
//! replication layer can order it, apply it and vote on the resulting
//! [`Reply`].

use std::sync::Arc;

use cloud_store::types::{AccountId, Acl};
use sim_core::time::SimInstant;

use crate::error::CoordError;
use crate::service::{Entry, SessionId};

/// A state-machine command (an update; reads are served outside the command
/// log, as both ZooKeeper and DepSpace do for performance).
///
/// Values and ACLs are reference-counted ([`Arc`]) so that replaying one
/// command on every replica of a group shares the payload instead of copying
/// it N× per operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Create or update an entry unconditionally.
    Put {
        /// Entry key.
        key: String,
        /// New value.
        value: Arc<[u8]>,
    },
    /// Conditional update: `expected = None` means the entry must not exist.
    Cas {
        /// Entry key.
        key: String,
        /// Expected current version (`None` = must not exist).
        expected: Option<u64>,
        /// New value.
        value: Arc<[u8]>,
    },
    /// Create an ephemeral entry owned by `session`, failing if a live entry
    /// already exists under the key.
    CreateEphemeral {
        /// Entry key.
        key: String,
        /// Value stored with the entry.
        value: Arc<[u8]>,
        /// Owning session.
        session: SessionId,
        /// Instant at which the entry expires if not removed earlier.
        expires_at: SimInstant,
    },
    /// Delete an entry.
    Delete {
        /// Entry key.
        key: String,
    },
    /// Replace the ACL of an entry.
    SetAcl {
        /// Entry key.
        key: String,
        /// New ACL.
        acl: Arc<Acl>,
    },
    /// Rename all entries with `old_prefix` to use `new_prefix` (the DepSpace
    /// trigger extension used to implement `rename`).
    RenamePrefix {
        /// Prefix to replace.
        old_prefix: String,
        /// Replacement prefix.
        new_prefix: String,
    },
}

impl Command {
    /// A short operation name.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Put { .. } => "put",
            Command::Cas { .. } => "cas",
            Command::CreateEphemeral { .. } => "createEphemeral",
            Command::Delete { .. } => "delete",
            Command::SetAcl { .. } => "setAcl",
            Command::RenamePrefix { .. } => "renamePrefix",
        }
    }
}

/// The reply produced by applying a [`Command`] or serving a read.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The new version of the written entry.
    Version(u64),
    /// A read entry.
    Entry(Box<Entry>),
    /// A list of keys.
    Keys(Vec<String>),
    /// Number of entries affected.
    Count(usize),
    /// Success with no payload.
    Unit,
    /// The command failed.
    Error(CoordError),
}

impl Reply {
    /// Converts the reply into a `Result`, mapping [`Reply::Error`] to `Err`.
    pub fn into_result(self) -> Result<Reply, CoordError> {
        match self {
            Reply::Error(e) => Err(e),
            other => Ok(other),
        }
    }

    /// Extracts a version number, or an error for any other variant.
    pub fn expect_version(self) -> Result<u64, CoordError> {
        match self {
            Reply::Version(v) => Ok(v),
            Reply::Error(e) => Err(e),
            other => Err(CoordError::invalid(format!(
                "unexpected reply {other:?}, wanted Version"
            ))),
        }
    }

    /// Extracts a count, or an error for any other variant.
    pub fn expect_count(self) -> Result<usize, CoordError> {
        match self {
            Reply::Count(c) => Ok(c),
            Reply::Error(e) => Err(e),
            other => Err(CoordError::invalid(format!(
                "unexpected reply {other:?}, wanted Count"
            ))),
        }
    }

    /// Extracts a unit success, or an error for any other variant.
    pub fn expect_unit(self) -> Result<(), CoordError> {
        match self {
            Reply::Unit | Reply::Version(_) | Reply::Count(_) => Ok(()),
            Reply::Error(e) => Err(e),
            other => Err(CoordError::invalid(format!(
                "unexpected reply {other:?}, wanted Unit"
            ))),
        }
    }
}

/// A command stamped with the account that issued it; this is what the
/// replication layer actually orders and applies.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedCommand {
    /// The issuing account (used for access-control checks in the state machine).
    pub issuer: AccountId,
    /// The command to apply.
    pub command: Command,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names() {
        assert_eq!(
            Command::Put {
                key: "k".into(),
                value: Vec::new().into()
            }
            .name(),
            "put"
        );
        assert_eq!(
            Command::RenamePrefix {
                old_prefix: "a".into(),
                new_prefix: "b".into()
            }
            .name(),
            "renamePrefix"
        );
    }

    #[test]
    fn reply_extractors() {
        assert_eq!(Reply::Version(3).expect_version().unwrap(), 3);
        assert_eq!(Reply::Count(2).expect_count().unwrap(), 2);
        assert!(Reply::Unit.expect_unit().is_ok());
        assert!(Reply::Version(1).expect_unit().is_ok());
        assert!(Reply::Keys(vec![]).expect_version().is_err());
        let err = Reply::Error(CoordError::not_found("k")).expect_version();
        assert_eq!(err.unwrap_err(), CoordError::not_found("k"));
    }
}
