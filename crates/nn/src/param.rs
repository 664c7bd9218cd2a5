//! Shared learnable parameters.

use a3cs_tensor::{Tape, Tensor, Var};
use std::cell::RefCell;
use std::rc::Rc;

/// A named learnable parameter: a value tensor plus an accumulated-gradient
/// tensor, both shared (`Rc`) so that a module, its optimiser and any
/// recorded tape all observe the same storage.
///
/// Gradients accumulate across backward passes until [`Param::zero_grad`]
/// is called, matching the usual deep-learning optimiser contract.
///
/// # Example
///
/// ```
/// use a3cs_nn::Param;
/// use a3cs_tensor::{Tape, Tensor};
///
/// let p = Param::new("w", Tensor::scalar(3.0));
/// let tape = Tape::new();
/// let w = p.bind(&tape);
/// w.mul(&w).backward(); // d(w^2)/dw = 6
/// assert_eq!(p.grad().item(), 6.0);
/// p.zero_grad();
/// assert_eq!(p.grad().item(), 0.0);
/// ```
#[derive(Clone)]
pub struct Param {
    name: Rc<str>,
    value: Rc<RefCell<Tensor>>,
    grad: Rc<RefCell<Tensor>>,
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Param({}, shape={:?})",
            self.name,
            self.value.borrow().shape()
        )
    }
}

impl Param {
    /// Create a parameter with an initial value.
    #[must_use]
    pub fn new(name: &str, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: Rc::from(name),
            value: Rc::new(RefCell::new(value)),
            grad: Rc::new(RefCell::new(grad)),
        }
    }

    /// The parameter's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.value.borrow().len()
    }

    /// `true` when the parameter holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of the value tensor (without cloning it).
    #[must_use]
    pub fn shape(&self) -> Vec<usize> {
        self.value.borrow().shape().to_vec()
    }

    /// Snapshot of the current value.
    #[must_use]
    pub fn value(&self) -> Tensor {
        self.value.borrow().clone()
    }

    /// Borrow the current value without copying it (checkpoint capture
    /// reads every parameter this way).
    ///
    /// # Panics
    ///
    /// Panics if the value is being updated in place at the same time.
    #[must_use]
    pub fn value_ref(&self) -> std::cell::Ref<'_, Tensor> {
        self.value.borrow()
    }

    /// Replace the current value.
    ///
    /// # Panics
    ///
    /// Panics if `value` changes the parameter's shape.
    pub fn set_value(&self, value: Tensor) {
        let mut v = self.value.borrow_mut();
        assert_eq!(
            v.shape(),
            value.shape(),
            "parameter {} cannot change shape",
            self.name
        );
        *v = value;
    }

    /// Apply an in-place update to the value (used by optimisers).
    pub fn update(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.value.borrow_mut());
    }

    /// Snapshot of the accumulated gradient.
    #[must_use]
    pub fn grad(&self) -> Tensor {
        self.grad.borrow().clone()
    }

    /// Replace the accumulated gradient (used by gradient clipping).
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not match the parameter's shape.
    pub fn set_grad(&self, grad: Tensor) {
        let mut g = self.grad.borrow_mut();
        assert_eq!(
            g.shape(),
            grad.shape(),
            "parameter {} gradient cannot change shape",
            self.name
        );
        *g = grad;
    }

    /// Add `grad` into the accumulated gradient (used by manual gradient
    /// injection, e.g. straight-through estimators in the co-search loop).
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not match the parameter's shape.
    pub fn accumulate_grad(&self, grad: &Tensor) {
        let mut g = self.grad.borrow_mut();
        assert_eq!(
            g.shape(),
            grad.shape(),
            "parameter {} gradient cannot change shape",
            self.name
        );
        g.add_assign(grad);
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        let mut g = self.grad.borrow_mut();
        let shape = g.shape().to_vec();
        *g = Tensor::zeros(&shape);
    }

    /// Record this parameter on `tape`, returning a [`Var`] whose backward
    /// pass accumulates into this parameter's gradient storage. On a
    /// [`Tape::no_grad`] tape the `Var` is a constant and the gradient
    /// storage is never touched.
    #[must_use]
    pub fn bind(&self, tape: &Tape) -> Var {
        tape.param(self.value(), Rc::clone(&self.grad))
    }

    /// `true` if `other` shares this parameter's storage.
    #[must_use]
    pub fn same_storage(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.value, &other.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let p = Param::new("p", Tensor::scalar(1.0));
        let q = p.clone();
        q.set_value(Tensor::scalar(2.0));
        assert_eq!(p.value().item(), 2.0);
        assert!(p.same_storage(&q));
    }

    #[test]
    fn distinct_params_do_not_share() {
        let p = Param::new("p", Tensor::scalar(1.0));
        let q = Param::new("p", Tensor::scalar(1.0));
        assert!(!p.same_storage(&q));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        for _ in 0..3 {
            let tape = Tape::new();
            let w = p.bind(&tape);
            w.sum().backward();
        }
        assert_eq!(p.grad().data(), &[3.0, 3.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn bind_on_a_no_grad_tape_is_a_constant() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
        let side = Tape::no_grad();
        let y = p.bind(&side).square().sum();
        assert_eq!(y.value().item(), 5.0);
        // Entered into a recording tape, the value is a constant there too:
        // a backward reaches no parameter.
        let tape = Tape::new();
        let s = tape.leaf(Tensor::scalar(3.0));
        tape.constant(y.value()).mul(&s).backward();
        assert_eq!(s.grad().unwrap().item(), 5.0);
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "cannot change shape")]
    fn set_value_rejects_shape_change() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn set_grad_replaces_and_accumulate_adds() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        p.set_grad(Tensor::from_vec(vec![5.0, 6.0], &[2]).unwrap());
        assert_eq!(p.grad().data(), &[5.0, 6.0]);
        p.accumulate_grad(&Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap());
        assert_eq!(p.grad().data(), &[6.0, 7.0]);
        // Optimiser-visible: the next bind/backward accumulates on top.
        let tape = Tape::new();
        p.bind(&tape).sum().backward();
        assert_eq!(p.grad().data(), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "gradient cannot change shape")]
    fn set_grad_rejects_shape_change() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        p.set_grad(Tensor::zeros(&[3]));
    }

    #[test]
    fn update_applies_in_place() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        p.update(|t| *t = t.scale(10.0));
        assert_eq!(p.value().data(), &[10.0, 20.0]);
    }
}
