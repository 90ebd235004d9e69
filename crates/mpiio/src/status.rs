//! Where an I/O's computation ran, as reported back to the application.

use serde::{Deserialize, Serialize};

/// Where the computation of an active I/O actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionSite {
    /// Kernel ran fully on the storage node.
    Storage,
    /// Kernel ran fully on the compute node (normal I/O path).
    Compute,
    /// Kernel was interrupted on the storage node and finished on the
    /// compute node (DOSAS migration).
    Migrated,
    /// No kernel involved (plain read).
    None,
}
