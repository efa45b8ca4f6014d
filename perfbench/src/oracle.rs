//! Output checking: every served result is compared with an in-process
//! oracle, and every mismatch is a failed operation.

use conseca_core::Decision;

/// A compact digest of a served or expected decision, cheap enough to
/// take inside the measured loop and compare afterwards. It covers the
/// verdict, the rationale and the violation kind; `None` (no policy for
/// the key) has its own value.
pub fn digest(decision: &Option<Decision>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let Some(d) = decision else { return 0 };
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
    };
    eat(&[u8::from(d.allowed)]);
    eat(d.rationale.as_bytes());
    eat(d.violation.as_ref().map_or("", |v| v.kind()).as_bytes());
    h | 1
}

/// Operations attempted and failed, with the first few failures kept
/// for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` makes it a failure described
    /// by `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(what());
            }
        }
    }

    /// Counts an operation that errored before producing output.
    pub fn error(&mut self, what: String) {
        self.record(false, || what);
    }

    /// Reports the retained failures on standard error.
    pub fn log(&self, workload: &str) {
        for failure in &self.first_failures {
            eprintln!("perfbench {workload}: failed operation: {failure}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
    use conseca_engine::{Engine, SessionState};
    use conseca_shell::ApiCall;

    #[test]
    fn digest_separates_verdicts_and_missing_policies() {
        let mut policy = Policy::new("t");
        policy.set(
            "send_email",
            PolicyEntry::allow(vec![ArgConstraint::regex("^alice$").unwrap()], "alice sends"),
        );
        let engine = Arc::new(Engine::default());
        let ctx = TrustedContext::for_user("alice");
        engine.install("acme", "t", &ctx, &policy);
        let mut session = SessionState::new();
        let call = |arg: &str| ApiCall::new("email", "send_email", vec![arg.to_owned()]);
        let allowed = engine.check_session("acme", "t", &ctx, &mut session, &call("alice"));
        let denied = engine.check_session("acme", "t", &ctx, &mut session, &call("eve"));
        assert!(allowed.as_ref().unwrap().allowed && !denied.as_ref().unwrap().allowed);
        assert_ne!(digest(&allowed), digest(&denied));
        assert_ne!(digest(&allowed), digest(&None));
        assert_eq!(digest(&allowed), digest(&allowed.clone()));

        // A served answer whose verdict was flipped is flagged.
        let mut flipped = allowed.clone();
        flipped.as_mut().unwrap().allowed = false;
        let mut tally = Tally::default();
        tally.record(digest(&flipped) == digest(&allowed), || "flipped verdict".into());
        tally.record(digest(&allowed) == digest(&allowed), || unreachable!());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.first_failures, vec!["flipped verdict".to_owned()]);
    }
}
