//! Correctness gates: the served model against an in-process twin.
//!
//! A twin is decoded from the same untrained template the node was given
//! and fed exactly the examples the node acknowledged, in the same order.
//! Unsharded hosting is bit-exact, so the served SNAPSHOT must equal the
//! twin's snapshot byte for byte, and a served PREDICT on a quiescent
//! model must return the twin's margin bit for bit.

use wmsketch_core::decode_any_learner;
use wmsketch_learn::DynLearner;

use crate::inputs::Example;
use crate::node::Evaluation;

/// One named check and its outcome.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// An in-process replica of one served model.
pub struct Twin {
    pub learner: Box<dyn DynLearner>,
}

impl Twin {
    pub fn new(template: &[u8]) -> Twin {
        Twin {
            learner: decode_any_learner(template).expect("template decodes"),
        }
    }

    /// Feeds one acknowledged frame through the node's own call.
    pub fn feed(&mut self, batch: &[Example]) {
        self.learner.update_batch(batch);
    }

    /// Replaces the learner with a decode of its own snapshot — what a
    /// node's spill and revival do to a model.
    pub fn round_trip(&mut self) {
        let bytes = self.snapshot();
        self.learner = decode_any_learner(&bytes).expect("own snapshot decodes");
    }

    pub fn snapshot(&mut self) -> Vec<u8> {
        self.learner.snapshot().expect("twin snapshots")
    }
}

/// Compares served snapshot bytes with the twin's.
pub fn snapshot_gate(name: &str, served: &[u8], twin: &mut Twin) -> Gate {
    let mine = twin.snapshot();
    let first_diff = served.iter().zip(&mine).position(|(a, b)| a != b);
    let passed = served == mine.as_slice();
    let detail = if passed {
        format!("{} bytes identical", mine.len())
    } else {
        format!(
            "served {} bytes vs twin {} bytes, first difference at {:?}",
            served.len(),
            mine.len(),
            first_diff
        )
    };
    Gate::new(name, passed, detail)
}

/// Shows the snapshot gate can fail: a twin fed one extra example must
/// not match the served bytes.
pub fn perturbed_gate(name: &str, served: &[u8], twin: &mut Twin, extra: &Example) -> Gate {
    let mut perturbed = Twin::new(&twin.snapshot());
    perturbed.feed(std::slice::from_ref(extra));
    let caught = !snapshot_gate(name, served, &mut perturbed).passed;
    Gate::new(
        name,
        caught,
        if caught {
            "a twin fed one extra example is rejected"
        } else {
            "a perturbed twin passed the snapshot gate"
        },
    )
}

/// Served margins and top-K on a quiescent model against the twin's.
pub fn read_gate(name: &str, eval: &Evaluation, holdout: &[Example], twin: &Twin) -> Gate {
    let mismatched = eval
        .margins
        .iter()
        .zip(holdout)
        .filter(|(m, (x, _))| m.to_bits() != twin.learner.margin(x).to_bits())
        .count();
    let top = twin.learner.recover_top_k(eval.top.len().max(1));
    let top_ok = top.len() == eval.top.len()
        && top
            .iter()
            .zip(&eval.top)
            .all(|(a, b)| a.feature == b.feature && a.weight.to_bits() == b.weight.to_bits());
    Gate::new(
        name,
        mismatched == 0 && top_ok,
        format!(
            "{mismatched} of {} margins differ; top-{} {}",
            eval.margins.len(),
            eval.top.len(),
            if top_ok { "identical" } else { "differs" }
        ),
    )
}
