//! The reverse-mode autodiff tape.

use crate::tensor::Tensor;
use crate::var::Var;
use std::cell::RefCell;
use std::rc::Rc;

/// Gradient contributions a backward closure sends to its parents:
/// `(parent node id, gradient tensor)` pairs.
pub(crate) type GradContributions = Vec<(usize, Tensor)>;

/// Backward function of one node: maps the node's output gradient to
/// gradient contributions for its parents.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> GradContributions>;

pub(crate) struct Node {
    pub(crate) value: Rc<Tensor>,
    pub(crate) grad: Option<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
    /// Optional external gradient sink (used by `nn` parameters): when
    /// backward finishes, the node's gradient is accumulated into it.
    pub(crate) sink: Option<Rc<RefCell<Tensor>>>,
}

#[derive(Default)]
pub(crate) struct TapeInner {
    pub(crate) nodes: Vec<Node>,
    /// Set by [`Tape::no_grad`]: nodes keep their values only.
    pub(crate) no_grad: bool,
}

/// A recording of differentiable operations.
///
/// Every [`Var`] belongs to exactly one tape. Operations on `Var`s append
/// nodes (value + backward closure) to the tape; [`Var::backward`] then
/// walks the tape in reverse creation order, accumulating gradients.
///
/// Tapes are cheap (`Rc`-backed) to clone; clones share the same recording.
///
/// A tape made by [`Tape::no_grad`] records values only, for forwards that
/// are read but never differentiated.
///
/// # Example
///
/// ```
/// use a3cs_tensor::{Tape, Tensor};
///
/// let tape = Tape::new();
/// let a = tape.leaf(Tensor::scalar(3.0));
/// let b = tape.leaf(Tensor::scalar(4.0));
/// let c = a.mul(&b);
/// c.backward();
/// assert_eq!(a.grad().unwrap().item(), 4.0);
/// assert_eq!(b.grad().unwrap().item(), 3.0);
/// ```
#[derive(Clone, Default)]
pub struct Tape {
    pub(crate) inner: Rc<RefCell<TapeInner>>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.len())
    }
}

impl Tape {
    /// Create an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty tape that records no backward pass: operations on
    /// it compute the same values as on a [`Tape::new`] tape, but keep no
    /// backward closure, and [`Tape::param`] yields a constant. Calling
    /// [`Var::backward`] on one of its values panics.
    #[must_use]
    pub fn no_grad() -> Self {
        Tape {
            inner: Rc::new(RefCell::new(TapeInner {
                nodes: Vec::new(),
                no_grad: true,
            })),
        }
    }

    /// `true` unless this tape was made by [`Tape::no_grad`].
    pub(crate) fn records_grad(&self) -> bool {
        !self.inner.borrow().no_grad
    }

    /// Number of nodes recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// `true` if no nodes have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a leaf (input) node holding `value`. Its gradient is
    /// retrievable through [`Var::grad`] after a backward pass.
    #[must_use]
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(Rc::new(value), None, None)
    }

    /// Record a constant node: like a leaf, but never receives gradient
    /// storage of interest (its gradient is still computed and discarded).
    /// Takes a shared value too, so another tape's [`Var::value`] enters
    /// without a copy.
    #[must_use]
    pub fn constant(&self, value: impl Into<Rc<Tensor>>) -> Var {
        self.push(value.into(), None, None)
    }

    /// Record a parameter node: a leaf whose gradient is additionally
    /// accumulated into `sink` when a backward pass completes. The `nn`
    /// crate uses this to route gradients to optimiser state. On a
    /// [`Tape::no_grad`] tape the sink is dropped and the node is a
    /// constant.
    #[must_use]
    pub fn param(&self, value: Tensor, sink: Rc<RefCell<Tensor>>) -> Var {
        self.push(Rc::new(value), None, Some(sink))
    }

    pub(crate) fn push(
        &self,
        value: Rc<Tensor>,
        backward: Option<BackwardFn>,
        sink: Option<Rc<RefCell<Tensor>>>,
    ) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        let (backward, sink) = if inner.no_grad {
            (None, None)
        } else {
            (backward, sink)
        };
        inner.nodes.push(Node {
            value,
            grad: None,
            backward,
            sink,
        });
        Var {
            tape: self.clone(),
            id,
        }
    }

    pub(crate) fn value_of(&self, id: usize) -> Rc<Tensor> {
        Rc::clone(&self.inner.borrow().nodes[id].value)
    }

    pub(crate) fn same_tape(&self, other: &Tape) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Run reverse-mode accumulation seeded with `seed` at node `root_id`.
    pub(crate) fn backward_from(&self, root_id: usize, seed: Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.no_grad,
            "backward on a no-grad tape: it recorded no backward pass"
        );
        let n = root_id + 1;
        let mut grads: Vec<Option<Tensor>> = Vec::with_capacity(n);
        grads.resize_with(n, || None);
        assert_eq!(
            seed.shape(),
            inner.nodes[root_id].value.shape(),
            "backward seed shape must match the root value shape"
        );
        grads[root_id] = Some(seed);
        for id in (0..n).rev() {
            let Some(grad) = grads[id].take() else {
                continue;
            };
            if let Some(backward) = inner.nodes[id].backward.as_ref() {
                for (pid, contribution) in backward(&grad) {
                    assert!(pid < id, "gradient must flow to earlier nodes");
                    match grads[pid].as_mut() {
                        Some(existing) => existing.add_assign(&contribution),
                        None => grads[pid] = Some(contribution),
                    }
                }
            }
            let node = &mut inner.nodes[id];
            if let Some(sink) = node.sink.as_ref() {
                sink.borrow_mut().add_assign(&grad);
            }
            match node.grad.as_mut() {
                Some(existing) => existing.add_assign(&grad),
                None => node.grad = Some(grad),
            }
        }
    }

    pub(crate) fn grad_of(&self, id: usize) -> Option<Tensor> {
        self.inner.borrow().nodes[id].grad.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Conv2dGeometry;

    #[test]
    fn empty_tape() {
        let tape = Tape::new();
        assert!(tape.is_empty());
        assert_eq!(tape.len(), 0);
        assert_eq!(format!("{tape:?}"), "Tape(0 nodes)");
    }

    #[test]
    fn leaves_record_in_order() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(1.0));
        let b = tape.leaf(Tensor::scalar(2.0));
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
        assert_eq!(tape.len(), 2);
    }

    #[test]
    fn clones_share_recording() {
        let tape = Tape::new();
        let clone = tape.clone();
        let _ = clone.leaf(Tensor::scalar(0.0));
        assert_eq!(tape.len(), 1);
        assert!(tape.same_tape(&clone));
        assert!(!tape.same_tape(&Tape::new()));
    }

    #[test]
    fn param_sink_accumulates_across_backward_passes() {
        let tape = Tape::new();
        let sink = Rc::new(RefCell::new(Tensor::zeros(&[])));
        let p = tape.param(Tensor::scalar(5.0), Rc::clone(&sink));
        let loss = p.mul(&p); // dL/dp = 2p = 10
        loss.backward();
        loss.backward();
        assert_eq!(sink.borrow().item(), 20.0);
    }

    /// `randn` values with NaN, +∞ and −∞ in the first three elements.
    fn poisoned(shape: &[usize], seed: u64) -> Tensor {
        let mut t = Tensor::randn(shape, 1.0, seed);
        t.data_mut()[..3].copy_from_slice(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        t
    }

    /// Runs `f` over `inputs` (as leaves) on a recording tape and on a
    /// no-grad tape, and asserts each output holds the same value bits.
    fn same_bits_on_both_tapes(inputs: &[Tensor], f: impl Fn(&[Var]) -> Vec<Var>) {
        let run = |tape: Tape| -> Vec<Vec<u32>> {
            let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
            f(&vars)
                .iter()
                .map(|v| v.value().data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(run(Tape::new()), run(Tape::no_grad()));
    }

    fn geometry(channels: (usize, usize), kernel: usize, stride: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: channels.0,
            out_channels: channels.1,
            kernel,
            stride,
            padding: kernel / 2,
            in_h: 5,
            in_w: 5,
        }
    }

    #[test]
    fn no_grad_tape_gives_the_same_value_bits_for_every_op_family() {
        let (a, b) = (poisoned(&[4, 6], 1), Tensor::randn(&[4, 6], 1.0, 2));
        same_bits_on_both_tapes(&[a.clone(), b.clone(), Tensor::randn(&[6], 1.0, 3)], |v| {
            let (x, y) = (&v[0], &v[1]);
            vec![
                x.add(y),
                x.sub(y),
                x.mul(y),
                x.div(y),
                x.neg(),
                x.scale(0.5),
                x.add_scalar(-1.0),
                x.relu(),
                x.exp(),
                x.ln(),
                x.tanh(),
                x.square(),
                x.sigmoid(),
                x.clamp(-0.5, 0.5),
                x.reshape(&[6, 4]),
                x.sum(),
                x.mean(),
                x.sum_rows(),
                x.add_bias_row(&v[2]),
                x.detach(),
            ]
        });
        let s = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        same_bits_on_both_tapes(&[a.clone(), s, Tensor::scalar(f32::INFINITY)], |v| {
            vec![v[0].scale_by(&v[1]), v[0].scale_by(&v[2])]
        });
        same_bits_on_both_tapes(&[a.clone(), poisoned(&[6, 3], 4)], |v| {
            vec![v[0].matmul(&v[1])]
        });
        same_bits_on_both_tapes(&[a, b], |v| {
            vec![
                v[0].softmax_rows(),
                v[0].log_softmax_rows(),
                v[1].softmax_rows(),
                v[1].log_softmax_rows(),
                v[0].pick_rows(&[0, 5, 2, 3]),
            ]
        });
        let image = poisoned(&[2, 3, 5, 5], 5);
        let inputs = [
            image,
            poisoned(&[4, 3, 3, 3], 6),
            poisoned(&[3, 3, 3], 7),
            Tensor::randn(&[3], 1.0, 8),
            Tensor::randn(&[3], 1.0, 9),
        ];
        same_bits_on_both_tapes(&inputs, |v| {
            let (mean, var) = (v[4].value(), v[4].value().map(f32::abs));
            vec![
                v[0].conv2d(&v[1], geometry((3, 4), 3, 2)),
                v[0].depthwise_conv2d(&v[2], geometry((3, 3), 3, 1)),
                v[0].add_bias_channel(&v[3]),
                v[0].batch_norm2d(&v[3], &v[4], 1e-5).0,
                v[0].batch_norm2d_inference(&v[3], &v[4], &mean, &var, 1e-5),
                v[0].avg_pool2d(2, 2),
                v[0].max_pool2d(2, 1),
                v[0].global_avg_pool(),
                v[0].flatten_batch(),
            ]
        });
    }

    #[test]
    fn no_grad_tape_keeps_no_backward_closure_and_no_sink() {
        let tape = Tape::no_grad();
        let sink = Rc::new(RefCell::new(Tensor::zeros(&[2])));
        let p = tape.param(Tensor::ones(&[2]), Rc::clone(&sink));
        let x = tape.leaf(Tensor::full(&[2], 3.0));
        let y = x.mul(&p).exp().sum();
        assert_eq!(y.value().item(), 2.0 * 3.0f32.exp());
        assert_eq!(tape.len(), 5);
        let inner = tape.inner.borrow();
        assert!(inner
            .nodes
            .iter()
            .all(|n| n.backward.is_none() && n.sink.is_none()));
    }

    #[test]
    #[should_panic(expected = "backward on a no-grad tape")]
    fn backward_on_a_no_grad_tape_panics() {
        let tape = Tape::no_grad();
        tape.leaf(Tensor::scalar(2.0)).square().backward();
    }

    #[test]
    fn constant_shares_a_value_from_another_tape() {
        let side = Tape::no_grad();
        let out = side.leaf(Tensor::scalar(2.0)).square();
        let tape = Tape::new();
        let c = tape.constant(out.value());
        assert!(Rc::ptr_eq(&c.value(), &out.value()));
        let s = tape.leaf(Tensor::scalar(3.0));
        c.mul(&s).backward();
        assert_eq!(s.grad().unwrap().item(), 4.0);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = x*x + x  => dy/dx = 2x + 1
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = x.mul(&x).add(&x);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 7.0);
    }
}
