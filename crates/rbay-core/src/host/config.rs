//! What a deployment configures and what installing or restoring can
//! report: [`RbayConfig`], [`LintPolicy`], [`InstallError`] and
//! [`RestoreSummary`].

use aascript::analysis::Diagnostic;
use simnet::SimDuration;

/// Tunables of the RBAY layer.
///
/// ```
/// use rbay_core::RbayConfig;
/// use simnet::SimDuration;
///
/// let cfg = RbayConfig {
///     failure_detection: true,
///     heartbeat_timeout: SimDuration::from_millis(500),
///     ..RbayConfig::default()
/// };
/// assert!(cfg.site_isolation, "isolation is on by default");
/// ```
#[derive(Debug, Clone)]
pub struct RbayConfig {
    /// Give up waiting for probe/search answers after this long.
    pub query_timeout: SimDuration,
    /// Instruction budget per AA handler invocation.
    pub aa_budget: u64,
    /// Whether satisfied queries commit their chosen nodes (step 5). The
    /// latency experiments turn this off so repeated measurement queries
    /// do not exhaust the inventory ("if the customer decides not to take
    /// them, the locks are released").
    pub commit_results: bool,
    /// Administrative isolation (§III.E): when true, per-site trees route
    /// within their site (site-scoped convergence, per-site roots). When
    /// false, trees keep their per-site names but rendezvous on the global
    /// ring — the deployment measured in Fig. 11, where joins and
    /// deliveries traverse cross-region overlay hops.
    pub site_isolation: bool,
    /// Heartbeat-based failure detection: when true, each maintenance
    /// round pings this node's overlay neighbours; a peer that has not
    /// answered within `heartbeat_timeout` is declared failed, its routing
    /// entries removed, and its trees repaired. (Churn handling — the
    /// paper's future-work evaluation, §VI.)
    pub failure_detection: bool,
    /// How long an unanswered heartbeat may stay outstanding.
    pub heartbeat_timeout: SimDuration,
    /// When set, every tree also aggregates statistics of this attribute
    /// alongside its size: `Multi[Count, Mean, Min, Max]` rolled up to the
    /// root ("the average value of all nodes' attributes", §II.B.3).
    pub aggregate_attr: Option<String>,
    /// What install does with `aalint` findings on a submitted AA script.
    pub lint_policy: LintPolicy,
    /// Extra globals this deployment injects into AA environments (via
    /// `set_global`) beyond the standard `now_ms`/`attrs`/`sha1hex`; the
    /// linter treats reads of these as defined.
    pub lint_externs: Vec<String>,
    /// Front-door cache coherence: when true, every `post_resource` /
    /// `update_attr` emits an
    /// [`RbayPayload::Invalidate`](crate::RbayPayload::Invalidate)
    /// multicast over the site-local `__frontdoor` tree (plus one Direct
    /// per remote site's gateway, which re-multicasts there), so gateway
    /// result caches never serve a result whose inputs changed. Off by
    /// default — deployments without a front door should not pay the
    /// write-path fan-out.
    pub frontdoor_invalidation: bool,
}

/// Install-time enforcement level for static analysis of AA scripts
/// (RBAY accepts arbitrary client code into the information plane, so the
/// host vets it before instantiation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Refuse installation when the linter reports any error-severity
    /// diagnostic (warnings still install, but are recorded).
    Deny,
    /// Install regardless, recording all diagnostics in
    /// [`RbayHost::lint_reports`](super::RbayHost::lint_reports). The
    /// default: existing deployments keep working while operators gain
    /// visibility.
    #[default]
    Warn,
    /// Skip analysis entirely.
    Off,
}

/// Why an AA script was rejected at install time.
#[derive(Debug)]
pub enum InstallError {
    /// The source failed to parse or compile.
    Compile(aascript::CompileError),
    /// The linter found error-severity diagnostics and the policy is
    /// [`LintPolicy::Deny`].
    Lint(Vec<Diagnostic>),
    /// Top-level code raised while instantiating the script.
    Runtime(aascript::RuntimeError),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Compile(e) => write!(f, "compile error: {e}"),
            InstallError::Lint(diags) => {
                write!(f, "rejected by lint policy:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            InstallError::Runtime(e) => write!(f, "instantiation error: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// What [`RbayHost::attach_store`](super::RbayHost::attach_store)
/// recovered from a durable store (and what it refused to re-install).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Attributes restored into the key-value map.
    pub attrs: usize,
    /// Handler sources re-compiled, re-linted, and re-installed.
    pub handlers: usize,
    /// Handler sources rejected on restore and quarantined (see
    /// [`RbayHost::quarantined`](super::RbayHost::quarantined)).
    pub quarantined: usize,
    /// Tree subscriptions queued for re-join.
    pub subs: usize,
    /// Committed reservations re-held.
    pub committed: usize,
    /// WAL records the store replayed at open.
    pub replay_records: u64,
    /// Wall-clock microseconds the open spent replaying.
    pub replay_micros: u64,
}

impl From<aascript::CompileError> for InstallError {
    fn from(e: aascript::CompileError) -> Self {
        InstallError::Compile(e)
    }
}

impl From<aascript::RuntimeError> for InstallError {
    fn from(e: aascript::RuntimeError) -> Self {
        InstallError::Runtime(e)
    }
}

impl Default for RbayConfig {
    fn default() -> Self {
        RbayConfig {
            query_timeout: SimDuration::from_millis(5_000),
            aa_budget: 10_000,
            commit_results: true,
            site_isolation: true,
            failure_detection: false,
            heartbeat_timeout: SimDuration::from_millis(1_500),
            aggregate_attr: None,
            lint_policy: LintPolicy::default(),
            lint_externs: Vec::new(),
            frontdoor_invalidation: false,
        }
    }
}
