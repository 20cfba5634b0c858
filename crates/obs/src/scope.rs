//! Per-request observability scopes for long-running processes.
//!
//! One-shot CLI runs install a process-global recorder
//! ([`crate::set_recorder`]) and ledger ([`crate::ledger::install`]).
//! A resident daemon serving concurrent requests cannot: two requests
//! recording into one global collector would cross-contaminate each
//! other's metrics and ledgers. A [`RequestObs`] bundles an optional
//! recorder and an optional ledger for *one* request; a thread
//! [`enter`]s it and, until the returned guard drops, every counter,
//! gauge, phase and ledger emission on that thread lands in the scope
//! instead of the process globals. `ccs_exec` captures the spawning
//! thread's scope and re-enters it on every worker, so a scoped
//! parallel sweep aggregates exactly like a scoped serial one.
//!
//! While a scope is active it *replaces* the globals on that thread —
//! a scope without a recorder silences metrics rather than leaking
//! them into whatever the daemon has installed globally. When no scope
//! is active the hot path costs one thread-local `Cell` read on top of
//! the usual atomic check.

use crate::ledger::{DecisionEvent, Ledger};
use crate::{Event, Record};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// Observability sinks for one request: an optional metrics recorder
/// and an optional decision ledger. Shared (via `Arc`) between the
/// request's spawning thread and any executor workers serving it.
pub struct RequestObs {
    recorder: Option<Arc<dyn Record>>,
    ledger: Option<Mutex<Ledger>>,
    ledger_cap: usize,
}

impl std::fmt::Debug for RequestObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestObs")
            .field("recorder", &self.recorder.is_some())
            .field("ledger", &self.ledger.is_some())
            .field("ledger_cap", &self.ledger_cap)
            .finish()
    }
}

impl RequestObs {
    /// A scope recording into `recorder` (if any) and, when
    /// `ledger_cap` is given, collecting a decision ledger with that
    /// per-cause sample cap.
    pub fn new(recorder: Option<Arc<dyn Record>>, ledger_cap: Option<usize>) -> Arc<RequestObs> {
        let cap = ledger_cap.map(|c| c.max(1));
        Arc::new(RequestObs {
            recorder,
            ledger: cap.map(|c| Mutex::new(Ledger::new(c))),
            ledger_cap: cap.unwrap_or(crate::ledger::DEFAULT_CAP),
        })
    }

    /// Whether this scope collects a ledger.
    pub fn has_ledger(&self) -> bool {
        self.ledger.is_some()
    }

    /// The per-cause sample cap for this scope's ledger.
    pub fn ledger_cap(&self) -> usize {
        self.ledger_cap
    }

    /// Takes the accumulated ledger, leaving a fresh empty one.
    /// `None` when the scope collects no ledger.
    pub fn take_ledger(&self) -> Option<Ledger> {
        let slot = self.ledger.as_ref()?;
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        Some(std::mem::replace(&mut *guard, Ledger::new(self.ledger_cap)))
    }

    fn insert(&self, event: DecisionEvent) -> Result<(), DecisionEvent> {
        match self.ledger.as_ref() {
            Some(slot) => {
                slot.lock().unwrap_or_else(|e| e.into_inner()).insert(event);
                Ok(())
            }
            None => Err(event),
        }
    }

    fn merge(&self, other: Ledger) -> Result<(), Ledger> {
        match self.ledger.as_ref() {
            Some(slot) => {
                slot.lock().unwrap_or_else(|e| e.into_inner()).merge(other);
                Ok(())
            }
            None => Err(other),
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Arc<RequestObs>>> = const { RefCell::new(Vec::new()) };
    // Cached flags for the hot paths: what the *top* scope provides.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static LEDGING: Cell<bool> = const { Cell::new(false) };
}

fn refresh_flags() {
    STACK.with(|s| {
        let stack = s.borrow();
        match stack.last() {
            Some(top) => {
                ACTIVE.set(true);
                RECORDING.set(top.recorder.is_some());
                LEDGING.set(top.ledger.is_some());
            }
            None => {
                ACTIVE.set(false);
                RECORDING.set(false);
                LEDGING.set(false);
            }
        }
    });
}

/// Makes `obs` the active scope on this thread until the returned
/// guard drops. Scopes nest; the innermost wins.
#[must_use = "the scope deactivates when the guard drops"]
pub fn enter(obs: Arc<RequestObs>) -> ScopeGuard {
    STACK.with(|s| s.borrow_mut().push(obs));
    refresh_flags();
    ScopeGuard {
        _not_send: PhantomData,
    }
}

/// The scope active on this thread, if any. Executors capture this on
/// the spawning thread and [`enter`] it on each worker.
pub fn current() -> Option<Arc<RequestObs>> {
    if !ACTIVE.get() {
        return None;
    }
    STACK.with(|s| s.borrow().last().cloned())
}

/// RAII guard from [`enter`]; pops the scope on drop. Not `Send`: a
/// scope must be exited on the thread that entered it.
#[derive(Debug)]
pub struct ScopeGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        refresh_flags();
    }
}

/// `Some(on)` when a scope is active on this thread (`on` = it has a
/// recorder), `None` when the process-global recorder state applies.
#[inline]
pub(crate) fn recorder_override() -> Option<bool> {
    ACTIVE.get().then(|| RECORDING.get())
}

/// Routes `event` to the active scope's recorder. `false` when no
/// scope is active (the caller falls back to the global recorder); a
/// scope without a recorder swallows the event.
pub(crate) fn dispatch_scoped(event: &Event<'_>) -> bool {
    if !ACTIVE.get() {
        return false;
    }
    STACK.with(|s| {
        if let Some(top) = s.borrow().last() {
            if let Some(recorder) = top.recorder.as_ref() {
                recorder.record(event);
            }
        }
    });
    true
}

/// `Some(on)` when a scope is active (`on` = it collects a ledger),
/// `None` when the process-global ledger state applies.
#[inline]
pub(crate) fn ledger_override() -> Option<bool> {
    ACTIVE.get().then(|| LEDGING.get())
}

/// The active scope's ledger cap, when one is active and collecting.
pub(crate) fn ledger_cap_override() -> Option<usize> {
    if !(ACTIVE.get() && LEDGING.get()) {
        return None;
    }
    STACK.with(|s| s.borrow().last().map(|top| top.ledger_cap))
}

/// Inserts into the active scope's ledger; hands the event back when
/// no scope with a ledger is active on this thread.
pub(crate) fn insert_scoped(event: DecisionEvent) -> Result<(), DecisionEvent> {
    if !(ACTIVE.get() && LEDGING.get()) {
        return Err(event);
    }
    STACK.with(|s| match s.borrow().last() {
        Some(top) => top.insert(event),
        None => Err(event),
    })
}

/// Merges a worker buffer into the active scope's ledger; hands it
/// back when no scope with a ledger is active on this thread.
pub(crate) fn merge_scoped(buffer: Ledger) -> Result<(), Ledger> {
    if !(ACTIVE.get() && LEDGING.get()) {
        return Err(buffer);
    }
    STACK.with(|s| match s.borrow().last() {
        Some(top) => top.merge(buffer),
        None => Err(buffer),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{self, Cause, DecisionEvent};
    use crate::{counter, gauge, phase, Collector};

    fn ev(arc: u32, cost: f64) -> DecisionEvent {
        DecisionEvent::new(
            Cause::PlacementKept,
            vec![arc],
            cost,
            0.0,
            format!("cost={cost}"),
        )
    }

    #[test]
    fn scoped_events_reach_the_scope_not_the_globals() {
        let scoped = Collector::new();
        let obs = RequestObs::new(Some(scoped.clone() as Arc<dyn Record>), Some(8));
        {
            let _guard = enter(obs.clone());
            assert!(crate::enabled());
            counter("scoped.hits", 3);
            gauge("scoped.gauge", 1.5);
            drop(phase("scoped.phase"));
            assert!(ledger::enabled());
            ledger::emit(ev(1, 1.0));
        }
        // Outside the scope nothing was installed globally.
        assert!(!crate::enabled());
        assert!(!ledger::enabled());
        let m = scoped.snapshot();
        assert_eq!(m.counters["scoped.hits"], 3);
        assert_eq!(m.gauges["scoped.gauge"], 1.5);
        assert_eq!(m.spans["scoped.phase"].calls, 1);
        let taken = obs.take_ledger().expect("scope collects a ledger");
        assert_eq!(taken.cause(Cause::PlacementKept).count, 1);
        // take_ledger leaves a fresh ledger behind.
        assert_eq!(obs.take_ledger().unwrap().total(), 0);
    }

    #[test]
    fn scope_without_sinks_silences_both_channels() {
        let obs = RequestObs::new(None, None);
        let _guard = enter(obs);
        assert!(!crate::enabled());
        assert!(!ledger::enabled());
        counter("nobody", 1);
        ledger::emit(ev(1, 1.0));
        // Nothing to assert beyond "did not panic / did not leak":
        // the globals are untouched because no recorder is installed.
    }

    #[test]
    fn worker_scope_merges_into_the_active_request_scope() {
        let obs = RequestObs::new(None, Some(4));
        let _guard = enter(obs.clone());
        {
            let ws = ledger::worker_scope();
            for i in 0..20u32 {
                ledger::emit(ev(i, f64::from(i)));
            }
            drop(ws);
        }
        let taken = obs.take_ledger().unwrap();
        assert_eq!(taken.cause(Cause::PlacementKept).count, 20);
        assert_eq!(taken.cause(Cause::PlacementKept).sampled(), 4);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Collector::new();
        let inner = Collector::new();
        let a = RequestObs::new(Some(outer.clone() as Arc<dyn Record>), None);
        let b = RequestObs::new(Some(inner.clone() as Arc<dyn Record>), None);
        let _ga = enter(a);
        counter("outer", 1);
        {
            let _gb = enter(b);
            counter("inner", 1);
        }
        counter("outer", 1);
        assert_eq!(outer.snapshot().counters["outer"], 2);
        assert_eq!(outer.snapshot().counters.get("inner"), None);
        assert_eq!(inner.snapshot().counters["inner"], 1);
    }

    #[test]
    fn concurrent_scopes_do_not_cross_contaminate() {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let c = Collector::new();
                    let obs = RequestObs::new(Some(c.clone() as Arc<dyn Record>), Some(8));
                    let _g = enter(obs.clone());
                    for _ in 0..100 {
                        counter("mine", t + 1);
                    }
                    ledger::emit(ev(t as u32, f64::from(t as u32)));
                    assert_eq!(c.snapshot().counters["mine"], 100 * (t + 1));
                    assert_eq!(obs.take_ledger().unwrap().total(), 1);
                });
            }
        });
    }
}
