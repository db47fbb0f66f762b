//! Scratch pooling shared by the pooled auditors.

use std::sync::{Mutex, PoisonError};

use reveil_tensor::Tensor;

use crate::DefenseError;

/// A lock-guarded pool of reusable per-audit scratch values.
///
/// [`Defense::audit`](crate::Defense::audit) takes `&self` and
/// `ScenarioCache::audit_all` shares one auditor across the whole worker
/// team, so per-audit scratch cannot live behind `&mut self`. Each audit
/// pops a warmed scratch value from the pool (creating a fresh one only
/// when the pool is dry — at most once per concurrently auditing worker)
/// and pushes it back when done. The lock is held only for the pop/push,
/// never across the audit itself, so parallel audits stay parallel; after
/// the warm-up audit the pop/push pair performs no heap allocation (the
/// pool vector keeps its capacity).
pub(crate) struct ScratchPool<T> {
    slots: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` on a warmed scratch value popped from the pool (a fresh one
    /// only if none is free) and pushes the value back afterwards.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut scratch = self
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        let result = f(&mut scratch);
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
        result
    }

    /// Drops every pooled scratch value (they re-grow on the next audit).
    pub(crate) fn clear(&self) {
        *self.slots.lock().unwrap_or_else(PoisonError::into_inner) = Vec::new();
    }

    /// Sums `measure` over every pooled scratch value.
    pub(crate) fn total_capacity(&self, measure: impl Fn(&T) -> usize) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(measure)
            .sum()
    }
}

/// Stacks `images` into the pooled `batch` tensor as `[n, ...sample]`,
/// reusing both the batch allocation and the `shape` scratch — the
/// zero-allocation counterpart of `Tensor::stack`, byte-identical layout.
pub(crate) fn stack_into<'a>(
    batch: &mut Tensor,
    shape: &mut Vec<usize>,
    mut images: impl ExactSizeIterator<Item = &'a Tensor>,
    defense: &'static str,
) -> Result<(), DefenseError> {
    let n = images.len();
    let Some(first) = images.next() else {
        return Err(DefenseError::Internal {
            defense,
            message: "cannot stack an empty image set".to_string(),
        });
    };
    shape.clear();
    shape.push(n);
    shape.extend_from_slice(first.shape());
    batch.resize_for_overwrite(shape);
    let sample_len = first.len();
    batch.data_mut()[..sample_len].copy_from_slice(first.data());
    for (i, img) in images.enumerate() {
        if img.shape() != &shape[1..] {
            return Err(DefenseError::Internal {
                defense,
                message: format!(
                    "cannot stack images of differing shapes ({:?} vs {:?})",
                    img.shape(),
                    &shape[1..]
                ),
            });
        }
        let base = (i + 1) * sample_len;
        batch.data_mut()[base..base + sample_len].copy_from_slice(img.data());
    }
    Ok(())
}
