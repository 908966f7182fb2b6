//! The parameter arena every model trains, checkpoints and visits groups
//! through.
//!
//! A [`Params`] keeps a model's parameters and its gradient in two flat
//! arenas of one layout, cut into groups (one per weight matrix, bias or
//! scale vector, as LARS/LARC/LAMB prescribe) whose ids count up in layout
//! order. Layers keep only their shape, group ids and forward cache, and
//! read and write their windows in place: a data-parallel step reduces
//! gradient windows, the optimizer updates group slices, and a checkpoint
//! is one vector.
//!
//! [`Params::zero_grads`] does not write zeros. It marks the arena *clean*;
//! a backward pass that takes the arena through `split_for_backward` then
//! stores its products instead of load-add-storing them (bitwise
//! `0.0 + product`), and any other reader that arrives first materialises
//! the zeros. A new arena is clean and allocates its gradient arena on
//! first use, so a model that is only evaluated never makes it resident.

use std::ops::Range;

use summit_tensor::MatRef;

/// A model's parameter and gradient arenas and their group table.
#[derive(Debug, Clone)]
pub struct Params {
    params: Vec<f32>,
    /// Laid out like `params`.
    grads: Vec<f32>,
    /// Group `g` is `bounds[g]..bounds[g + 1]` of both arenas.
    bounds: Vec<usize>,
    /// Set by [`Params::zero_grads`]: the gradient arena *means* all
    /// zeros, whatever it holds (nothing, before its first use).
    grads_clean: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params::with_capacity(0)
    }
}

impl Params {
    /// An empty arena with room for `capacity` parameters.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Params {
            params: Vec::with_capacity(capacity),
            grads: Vec::new(),
            bounds: vec![0],
            grads_clean: true,
        }
    }

    /// Append a group of `len` parameters, which `fill` writes in place
    /// (they read as zero before), and return its id. Every gradient reads
    /// as zero afterwards.
    pub(crate) fn push(&mut self, len: usize, fill: impl FnOnce(&mut [f32])) -> usize {
        let start = self.params.len();
        self.params.resize(start + len, 0.0);
        fill(&mut self.params[start..]);
        self.grads_clean = true;
        self.bounds.push(self.params.len());
        self.bounds.len() - 2
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of parameter groups.
    pub(crate) fn group_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Group `id`'s window of both arenas.
    pub(crate) fn range(&self, id: usize) -> Range<usize> {
        self.bounds[id]..self.bounds[id + 1]
    }

    /// The parameter arena.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Group `id`'s parameters.
    pub(crate) fn group(&self, id: usize) -> &[f32] {
        &self.params[self.range(id)]
    }

    /// Group `id`'s parameters as a row-major matrix `cols` wide.
    pub(crate) fn view(&self, id: usize, cols: usize) -> MatRef<'_> {
        let group = self.group(id);
        MatRef::new(group.len() / cols, cols, group)
    }

    /// Group `id`'s gradient window, for a backward pass to add into.
    pub(crate) fn grad_mut(&mut self, id: usize) -> &mut [f32] {
        let range = self.range(id);
        &mut self.grads_mut()[range]
    }

    /// Both arenas at once, for a backward pass that reads the parameters
    /// while it writes the gradients, and whether the gradient arena was
    /// clean. It is dirty afterwards: a pass told `true` must store every
    /// gradient rather than add to it.
    pub(crate) fn split_for_backward(&mut self) -> (&[f32], &mut [f32], bool) {
        if self.grads.len() != self.params.len() {
            // First use, so clean: zeroed pages stand in for the zeros.
            self.grads = vec![0.0; self.params.len()];
        }
        let clean = std::mem::take(&mut self.grads_clean);
        (&self.params, &mut self.grads, clean)
    }

    /// Zero all gradients, by marking the arena clean (see the module doc).
    pub fn zero_grads(&mut self) {
        self.grads_clean = true;
    }

    /// Write out the zeros a pending [`Params::zero_grads`] stands for.
    fn materialize_zeros(&mut self) {
        if std::mem::take(&mut self.grads_clean) {
            self.grads.clear();
            self.grads.resize(self.params.len(), 0.0);
        }
    }

    /// The gradient arena, which a data-parallel step reduces in place.
    pub(crate) fn grads_mut(&mut self) -> &mut [f32] {
        self.materialize_zeros();
        &mut self.grads
    }

    /// The parameter arena, which the sharded commit allgathers in place.
    pub(crate) fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// A copy of the gradient arena.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.flat_grads_into(&mut out);
        out
    }

    /// [`Params::flat_grads`] into `out`, reusing its capacity.
    pub fn flat_grads_into(&self, out: &mut Vec<f32>) {
        out.clear();
        if self.grads_clean {
            out.resize(self.params.len(), 0.0);
        } else {
            out.extend_from_slice(&self.grads);
        }
    }

    /// Overwrite the gradient arena.
    ///
    /// # Panics
    /// Panics if `flat.len() != param_count()`.
    pub fn set_flat_grads(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.params.len(), "gradient length mismatch");
        self.grads.clear();
        self.grads.extend_from_slice(flat);
        self.grads_clean = false;
    }

    /// The parameter arena, moved out.
    pub(crate) fn into_params(self) -> Vec<f32> {
        self.params
    }

    /// Overwrite the parameter arena.
    ///
    /// # Panics
    /// Panics if `flat.len() != param_count()`.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(flat);
    }

    /// Visit each parameter group with `(group_id, params, grads)`.
    pub fn for_each_group(&mut self, f: impl FnMut(usize, &mut [f32], &[f32])) {
        self.for_each_group_in(0..self.params.len(), f);
    }

    /// [`Params::for_each_group`] restricted to the arena range `range`:
    /// each group that meets it is visited once, cut to the intersection,
    /// under its own id — so an elementwise optimizer stepping a rank's
    /// chunk touches every element exactly as the whole-group visit would.
    pub fn for_each_group_in(
        &mut self,
        range: Range<usize>,
        mut f: impl FnMut(usize, &mut [f32], &[f32]),
    ) {
        self.materialize_zeros();
        for (id, group) in self.bounds.windows(2).enumerate() {
            let (lo, hi) = (group[0].max(range.start), group[1].min(range.end));
            if lo < hi {
                f(id, &mut self.params[lo..hi], &self.grads[lo..hi]);
            }
        }
    }
}
