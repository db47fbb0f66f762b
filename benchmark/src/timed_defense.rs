//! A [`Defense`] decorator that times every audit it forwards.
//!
//! `ScenarioCache::audit_all` calls the auditor from its worker threads, so
//! the log sits behind a mutex. Scratch management is forwarded, so
//! `audit_all` still parks the wrapped auditor's scratch after a grid.

use std::sync::Mutex;
use std::time::Instant;

use reveil_defense::{AuditInputs, Defense, DefenseError, DefenseVerdict};
use reveil_nn::Network;

/// Duration and outcome of one audit.
#[derive(Debug, Clone, Copy)]
pub struct AuditSample {
    pub secs: f64,
    pub detected: bool,
}

pub struct TimedDefense<'a> {
    inner: &'a (dyn Defense + Sync),
    log: Mutex<Vec<AuditSample>>,
}

impl<'a> TimedDefense<'a> {
    pub fn new(inner: &'a (dyn Defense + Sync)) -> Self {
        Self {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Every audit recorded so far, in completion order.
    pub fn samples(&self) -> Vec<AuditSample> {
        self.log.lock().expect("audit log lock poisoned").clone()
    }
}

impl Defense for TimedDefense<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError> {
        let started = Instant::now();
        let verdict = self.inner.audit(network, inputs);
        let secs = started.elapsed().as_secs_f64();
        if let Ok(v) = &verdict {
            self.log
                .lock()
                .expect("audit log lock poisoned")
                .push(AuditSample {
                    secs,
                    detected: v.detected,
                });
        }
        verdict
    }

    fn scratch_capacity(&self) -> usize {
        self.inner.scratch_capacity()
    }

    fn release_scratch(&self) {
        self.inner.release_scratch();
    }
}
