//! The SMC (secure monitor call) interface.
//!
//! The StreamBox-TZ data plane exports exactly four entry functions (§9.1):
//! initialization, finalization, a debug hook, and one function shared by all
//! 23 trusted primitives. The control plane reaches them by invoking the TA
//! through OP-TEE sessions. This module models that interface: sessions,
//! numbered entry functions, per-invocation world switching and cost
//! accounting, and the narrow, shared-nothing calling convention (plain
//! words in, plain words out).

use crate::cost::CostModel;
use crate::stats::TzStats;
use crate::world::{World, WorldGuard};
use sbt_telemetry::{SpanKind, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The four entry functions exported by the data plane TA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryFunction {
    /// Initialize the data plane (install keys, set up the allocator).
    Initialize,
    /// Tear the data plane down, wiping secure state.
    Finalize,
    /// Debug/introspection hook (disabled in production builds of the TA).
    Debug,
    /// The single entry point shared by all trusted primitives.
    InvokePrimitive,
}

/// Errors surfaced by the SMC layer itself (the TA's own errors are carried
/// in the return payload, not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmcError {
    /// The session was already closed.
    SessionClosed,
    /// Invoking before `Initialize` or after `Finalize`.
    NotInitialized,
}

impl std::fmt::Display for SmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmcError::SessionClosed => write!(f, "SMC session is closed"),
            SmcError::NotInitialized => write!(f, "data plane not initialized"),
        }
    }
}

impl std::error::Error for SmcError {}

/// The secure-monitor interface shared by all sessions of a platform.
pub struct SmcInterface {
    cost: CostModel,
    stats: Arc<TzStats>,
    initialized: AtomicBool,
    /// Span tracer installed by the observability layer (the SMC interface
    /// sits below the data plane, so the registry is handed down rather
    /// than owned). Absent until installed; spans are only recorded when
    /// present *and* enabled.
    tracer: OnceLock<Arc<Tracer>>,
}

impl SmcInterface {
    /// Create the interface.
    pub fn new(cost: CostModel, stats: Arc<TzStats>) -> Self {
        SmcInterface { cost, stats, initialized: AtomicBool::new(false), tracer: OnceLock::new() }
    }

    /// Install the span tracer that world-switch round trips are recorded
    /// into. First installation wins; later calls are ignored (one data
    /// plane owns a platform).
    pub fn install_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// Open a session with the data plane TA. Opening a session itself costs
    /// one world switch (OP-TEE session setup).
    pub fn open_session(self: &Arc<Self>) -> SmcSession {
        self.charge_switch();
        SmcSession { iface: Arc::clone(self), open: true }
    }

    /// Whether `Initialize` has run (and `Finalize` has not).
    pub fn is_initialized(&self) -> bool {
        self.initialized.load(Ordering::Relaxed)
    }

    fn charge_switch(&self) {
        let nanos = self.cost.switch_nanos();
        self.stats.record_switch(nanos);
    }
}

/// An open session through which the control plane invokes the TA.
pub struct SmcSession {
    iface: Arc<SmcInterface>,
    open: bool,
}

impl SmcSession {
    /// Invoke an entry function. The closure `f` is the secure-world body:
    /// it runs with the calling thread switched into the secure world, and
    /// the invocation is charged one world switch.
    ///
    /// Returns the closure's result, or an [`SmcError`] if the calling
    /// sequence is invalid (closed session, primitive invocation before
    /// initialization).
    pub fn invoke<R>(&self, func: EntryFunction, f: impl FnOnce() -> R) -> Result<R, SmcError> {
        if !self.open {
            return Err(SmcError::SessionClosed);
        }
        match func {
            EntryFunction::Initialize => {
                self.iface.initialized.store(true, Ordering::Relaxed);
            }
            EntryFunction::Finalize => {
                if !self.iface.is_initialized() {
                    return Err(SmcError::NotInitialized);
                }
                self.iface.initialized.store(false, Ordering::Relaxed);
            }
            EntryFunction::InvokePrimitive | EntryFunction::Debug => {
                if !self.iface.is_initialized() {
                    return Err(SmcError::NotInitialized);
                }
            }
        }
        self.iface.charge_switch();
        self.iface.stats.record_invocation();
        // One SMC span per round trip (enter + exit). Tenant 0: the SMC
        // layer is tenant-agnostic; tenant-tagged spans are recorded one
        // level up, at the gateway.
        let tracer = self.iface.tracer.get().filter(|t| t.is_enabled());
        let start = tracer.map_or(0, |t| t.now_nanos());
        let out = {
            let _guard = WorldGuard::enter(World::Secure);
            f()
        };
        if let Some(t) = tracer {
            t.record(SpanKind::Smc, 0, start, 0);
        }
        Ok(out)
    }

    /// Close the session. Subsequent invocations fail with
    /// [`SmcError::SessionClosed`].
    pub fn close(&mut self) {
        self.open = false;
    }

    /// Whether the session is still open.
    pub fn is_open(&self) -> bool {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldTracker;

    fn iface() -> (Arc<SmcInterface>, Arc<TzStats>) {
        let stats = Arc::new(TzStats::new());
        (Arc::new(SmcInterface::new(CostModel::hikey(), stats.clone())), stats)
    }

    #[test]
    fn invoke_runs_in_secure_world_and_charges_switch() {
        let (iface, stats) = iface();
        let session = iface.open_session();
        let switches_after_open = stats.snapshot().world_switches;
        assert_eq!(switches_after_open, 1);

        session.invoke(EntryFunction::Initialize, || {}).unwrap();
        let world_inside =
            session.invoke(EntryFunction::InvokePrimitive, WorldTracker::current).unwrap();
        assert_eq!(world_inside, World::Secure);
        assert_eq!(WorldTracker::current(), World::Normal);

        let snap = stats.snapshot();
        assert_eq!(snap.world_switches, 3); // open + init + invoke
        assert_eq!(snap.smc_invocations, 2);
        assert!(snap.switch_nanos > 0);
    }

    #[test]
    fn primitive_invocation_requires_initialization() {
        let (iface, _) = iface();
        let session = iface.open_session();
        let err = session.invoke(EntryFunction::InvokePrimitive, || {}).unwrap_err();
        assert_eq!(err, SmcError::NotInitialized);
        session.invoke(EntryFunction::Initialize, || {}).unwrap();
        assert!(session.invoke(EntryFunction::InvokePrimitive, || {}).is_ok());
    }

    #[test]
    fn finalize_requires_initialization_and_resets_it() {
        let (iface, _) = iface();
        let session = iface.open_session();
        assert_eq!(
            session.invoke(EntryFunction::Finalize, || {}).unwrap_err(),
            SmcError::NotInitialized
        );
        session.invoke(EntryFunction::Initialize, || {}).unwrap();
        session.invoke(EntryFunction::Finalize, || {}).unwrap();
        assert!(!iface.is_initialized());
        assert_eq!(
            session.invoke(EntryFunction::Debug, || {}).unwrap_err(),
            SmcError::NotInitialized
        );
    }

    #[test]
    fn closed_session_rejects_invocations() {
        let (iface, _) = iface();
        let mut session = iface.open_session();
        session.invoke(EntryFunction::Initialize, || {}).unwrap();
        session.close();
        assert!(!session.is_open());
        assert_eq!(
            session.invoke(EntryFunction::InvokePrimitive, || {}).unwrap_err(),
            SmcError::SessionClosed
        );
    }

    #[test]
    fn sessions_are_counted() {
        // OP-TEE session setup is one world switch, counted platform-wide.
        let (iface, stats) = iface();
        let _a = iface.open_session();
        let _b = iface.open_session();
        assert_eq!(stats.snapshot().world_switches, 2);
        assert_eq!(stats.snapshot().smc_invocations, 0);
    }
}
