"""Reverse-mode differentiation for complex-valued computation graphs.

The engine builds add and matmul (Var's + and @, either operand order),
elementwise() nodes of REGISTRY ops (conjugation and the real part are
"conj" and "re") and the loss roots mse() and sum_abs2(), which share one
squared-error node. Other arithmetic on a Var raises TypeError.

Every differentiable quantity is a Var wrapping a float64 or complex128
array (see promote()), and every op keeps its operands' dtype; one
complex128 operand makes the result complex128. matmul never widens a
float64 operand of such a product, whose imaginary part would be all
zeros: complex times float64 runs as one real GEMM (see _mm()). Every
node is built by one builder, _node(), from the op's operands and one
contribution rule per operand; together the rules encode the op's two
Wirtinger Jacobians J = dF/dz and Jc = dF/d(conj z) as matrix-free products.
Operands that are Vars become the node's parents. Plain arrays are
constants: they get no parent edge, no emission and no cogradient, so data
fed to a model costs nothing in backward(). An elementwise op has exactly
one derivative, the (J, Jc) pair of its REGISTRY entry; graph nodes,
gradcheck and the materialized pairs all evaluate that same pair.

A graph holds only what backward() reads. A Var is the handle a caller
holds; the node a consumer keeps as its parent is the leaf Var itself or,
for every other Var, a value-free _Node. So a graph keeps its leaves, the
values its rules close over (matmul operands, an elementwise op's output
and, if its pair reads it, its input, a squared-error root's residual)
and the Vars the caller still holds; an intermediate sum nobody reads, or
a ctanh's input, is freed with its handle. mse() builds the residual in
its own buffer, so the target may stay a view of the samples.

backward() propagates a single channel, the conjugate cogradient
delta = dL/d(conj z), in reverse topological order. Given the accumulated
delta on a node's output, the contribution pushed to an input is

    gamma * Jc + delta * conj(J)      with gamma = conj(delta),

which is exact whenever the map from any wire to the loss is real-valued.
That holds iff the loss root itself is an intrinsically real-valued op
(its value is real for *all* complex inputs, e.g. a squared-error node),
so backward() refuses any other root. The root itself is seeded with the
exact two-channel pair (gamma, delta) = (seed, 0); for a squared-error
root this makes the emitted cogradient equal to the residual with no
factor-two fudge. On a float64 graph conj() is the identity and the same
rules give half the ordinary gradient (Kreutz-Delgado, arXiv 0906.4835).
Only the leaves' cogradients and the root's seed outlive a pass; each
interior cogradient is dropped once its node has emitted, its last use.

So backward() calls the root's emit with (seed, 0) and every other node's
with (None, delta). The rules with Jc != 0 (non-holomorphic elementwise
ops, a squared-error node below the root) take conj(delta) themselves, so
a holomorphic network's backward pass conjugates no cogradient.
Finiteness is checked once per pass, on the leaf cogradients; only when
that check fails is the pass re-run, checking every node, to name where a
NaN or inf first appeared.

wirtinger_pair_numeric() computes (J, Jc) by central finite differences on
the real and imaginary axes. It is the one independent reference: every
analytic derivative in the registry, and backward() on whole graphs, is
validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .complex_ops import COMPLEX, DimensionError, ensure_finite, squared_norm

EPS = 1e-6  # wirtinger_pair_numeric's finite-difference step

# Ops whose output is real for every complex input. Only these may be the
# root of backward(); see the module docstring for why.
REAL_ROOT_OPS = {"mse", "sum_abs2"}


class GradientContractError(ValueError):
    """backward() was called on a graph violating its loss contract."""


class NumericError(ArithmeticError):
    """A gradient went non-finite; the message names the producing node."""


class EvaluationError(ArithmeticError):
    """The finite-difference oracle hit a non-finite function value."""


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

class _Node:
    """The value-free graph node of a non-leaf Var, held by its consumers.

    backward() calls emit with gamma=None unless the node is the root.
    grad stays None: backward() stores no interior cogradient.
    """

    __slots__ = ("op", "parents", "emit", "grad")

    def __init__(self, op, parents, emit):
        self.op = op
        self.parents = tuple(parents)
        self.emit = emit
        self.grad = None


def _delegated(name: str) -> property:
    return property(lambda self: getattr(self._n, name),
                    lambda self, v: setattr(self._n, name, v))


class Var:
    """A value and its place in a computation graph.

    value: float64 or complex128 ndarray (any shape, scalars are shape ()).
    grad:  conjugate cogradient dL/d(conj z); backward() sets it on leaves and the root only.
    emit:  closure (gamma, delta) -> per-parent contributions, or None
           for leaves. gamma is dL/dz on the output wire: the seed at the
           root, None below it, where it is conj(delta).

    Var(value) makes a leaf, which is its own graph node. Every other Var
    comes from _node() and keeps op, parents and emit in a value-free
    _Node (.node), so the graph keeps its value only while the caller
    holds the Var or a rule reads it.
    """

    __slots__ = ("value", "grad", "_n")
    # ndarray operators return NotImplemented, so `array + var` and
    # `array @ var` reach __radd__/__rmatmul__ and build one node.
    __array_ufunc__ = None

    op = _delegated("op")
    parents = _delegated("parents")
    emit = _delegated("emit")

    def __init__(self, value, op="leaf", parents=(), emit=None):
        self.value = promote(value)
        if op == "leaf":
            ensure_finite(self.value, "leaf value")
        self.grad = None
        self._n = _Node(op, parents, emit)

    @property
    def node(self):
        """What a consumer keeps as its parent: a leaf itself, else its _Node."""
        return self if self.op == "leaf" else self._n

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


def promote(x) -> np.ndarray:
    """float64/complex128 pass uncopied; bool, int, float32 -> float64; complex64 -> complex128."""
    x = np.asarray(x)
    return x.astype(COMPLEX if np.iscomplexobj(x) else np.float64, copy=False)


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else promote(x)


def _node(value, op: str, operands: Sequence, rules: Sequence[Callable]) -> Var:
    """The one node builder: every non-leaf Var of the engine is made here.

    rules[k](gamma, delta) is the contribution the op pushes to operands[k].
    Operands that are Vars become the node's parents. Any other operand is
    a constant: it gets no parent edge, its rule is never run and it has no
    cogradient. Below the root gamma is None and stands for conj(delta).
    """
    live = [(x, rule) for x, rule in zip(operands, rules) if isinstance(x, Var)]
    live_rules = [rule for _, rule in live]

    def emit(gamma, delta):
        return tuple(rule(gamma, delta) for rule in live_rules)

    return Var(value, op, [x.node for x, _ in live], emit)


def _unbroadcast(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast cotangent back down to the original operand shape."""
    extra = arr.ndim - len(shape)
    if extra > 0:
        arr = arr.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (have, want) in enumerate(zip(arr.shape, shape)) if want == 1 and have != 1)
    if axes:
        arr = arr.sum(axis=axes, keepdims=True)
    return arr.reshape(shape)


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def add(x, y) -> Var:
    xv, yv = _value(x), _value(y)
    xs, ys = xv.shape, yv.shape
    return _node(xv + yv, "add", (x, y), (
        lambda gamma, delta: _unbroadcast(delta, xs),
        lambda gamma, delta: _unbroadcast(delta, ys),
    ))


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with a complex128 a times a float64 b as one real GEMM.

    numpy would widen b to complex128 and run a zgemm that spends half its
    flops on b's zero imaginary part. Stacking [re a; im a] instead gives
    both parts of the product from one float64 GEMM of half the flops. At
    (256 x 256) @ (256 x 1000) the parts differ from the zgemm's by less
    than 2e-15 of the largest entry.
    """
    if a.dtype != COMPLEX or b.dtype != np.float64:
        return a @ b
    rows = a.shape[0]
    stacked = np.concatenate([a.real, a.imag]) @ b
    out = np.empty((rows, b.shape[1]), dtype=COMPLEX)
    out.real = stacked[:rows]
    out.imag = stacked[rows:]
    return out


def matmul(x, y) -> Var:
    """Matrix product; a complex x times float64 data y stays a real GEMM (see _mm).

    Both the value and x's cogradient delta @ conj(y).T take that path,
    so a complex model fed real-valued frames never widens them.
    """
    xv, yv = _value(x), _value(y)
    if xv.ndim != 2 or yv.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {xv.shape} and {yv.shape}")
    if xv.shape[1] != yv.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {xv.shape} x {yv.shape}")
    return _node(_mm(xv, yv), "matmul", (x, y), (
        lambda gamma, delta: _mm(delta, yv.conj().T),
        lambda gamma, delta: xv.conj().T @ delta,
    ))


def elementwise(x, name: str) -> Var:
    """Apply a registered elementwise op as a graph node.

    The registry pair, evaluated at the input and the cached output, is the
    op's only derivative. The node keeps the output; it keeps the input
    only for an op whose pair reads it (ElementwiseOp.reads_input).
    """
    op = REGISTRY[name]
    y = promote(op.fn(_value(x)))
    z = _value(x) if op.reads_input else None  # the rule keeps only what the pair reads

    def rule(gamma, delta):  # never the root, so gamma is None
        j, jc = op.pair(z, y)
        # delta * conj(j) in one buffer, in this operand order at every size:
        # numpy's temporary elision would compute conj(j) * delta on large
        # arrays, which rounds differently. A holomorphic op has jc = 0.
        cj = np.conjugate(j, out=np.empty_like(j, dtype=np.result_type(delta, j)))
        np.multiply(delta, cj, out=cj)
        return cj if op.holomorphic else delta.conj() * jc + cj

    return _node(y, name, (x,), (rule,))


def _squared_error(op: str, x, e: np.ndarray, n: int) -> Var:
    """Real scalar squared_norm(e) / n of x's residual e; as the root it emits e / n."""

    def rule(gamma, delta):  # gamma is None below the root, e.g. sum_abs2(mse(...))
        scale = (delta.conj() if gamma is None else gamma) + delta
        return e / n if scale == 1 else scale * (e / n)

    return _node(squared_norm(e) / n, op, (x,), (rule,))


def sum_abs2(x) -> Var:
    """L = sum_k z_k conj(z_k), a real scalar; valid backward() root."""
    return _squared_error("sum_abs2", x, _value(x), 1)


def mse(pred, target, n_dof: int) -> Var:
    """Squared error sum(e conj(e)) / n_dof as a real scalar graph node.

    n_dof counts real degrees of freedom, so one complex element counts as
    two when complex- and real-valued predictors are compared.
    """
    pv = _value(pred)
    t = promote(target)
    if pv.shape != t.shape:
        raise DimensionError(f"prediction shape {pv.shape} != target shape {t.shape}")
    if n_dof <= 0:
        raise ValueError(f"n_dof must be positive, got {n_dof}")
    return _squared_error("mse", pred, _residual(pv, t), n_dof)


_TILE = 64  # target columns copied per slice


def _residual(pv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """pv - t, bit for bit, in one fresh C-contiguous buffer.

    The target may be a transposed view of the samples (datagen.build_views).
    One subtract would read it across rows at every element; copying it
    first in slices of _TILE columns and subtracting in place takes 1.5 ms
    against 8.2 ms at (512, 1000) float64 (one thread) and allocates
    nothing else. Casting t to the result dtype first gives the same bits
    as numpy's mixed-dtype subtract.
    """
    e = np.empty(pv.shape, np.result_type(pv, t))
    if e.ndim == 0:
        e[()] = t
    else:
        for j in range(0, e.shape[-1], _TILE):
            e[..., j:j + _TILE] = t[..., j:j + _TILE]
    return np.subtract(pv, e, out=e)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order  # parents precede consumers


def _check_real_root(root: Var) -> None:
    if root.value.size != 1:
        raise GradientContractError(f"loss root must be scalar, got shape {root.value.shape}")
    if root.op not in REAL_ROOT_OPS:
        raise GradientContractError(
            f"loss root must be an intrinsically real-valued op {sorted(REAL_ROOT_OPS)}, got '{root.op}'"
        )


def _propagate(order: list[Var], root: Var, check: bool = False) -> dict[Var, np.ndarray]:
    """Push cogradients from root.grad down `order`; return {leaf: cogradient}.

    Each pending entry is popped once, in reverse topological order, and
    dropped after its node emits. With check, the first non-finite
    accumulation or emission raises NumericError naming its node.
    """
    pending = {id(root): root.grad}
    leaves = {}
    for node in reversed(order):
        # A non-root node is a parent of one handled before it: its entry exists.
        delta = pending.pop(id(node))
        if check and not np.all(np.isfinite(delta)):
            # Every emission into it was finite: the sum overflowed.
            raise NumericError(f"non-finite gradient accumulated at node '{node.op}'")
        if node.emit is None:
            leaves[node] = delta
            continue
        # The root's pair is (seed, 0); below it gamma = conj(delta), which the rules take.
        pair = (delta, np.zeros((), delta.dtype)) if node is root else (None, delta)
        for parent, c in zip(node.parents, node.emit(*pair)):
            if check and not np.all(np.isfinite(c)):
                raise NumericError(f"non-finite gradient emitted by node '{node.op}'")
            prev = pending.get(id(parent))
            pending[id(parent)] = c if prev is None else prev + c
    return leaves


def backward(root: Var, seed: float = 1.0) -> dict[Var, np.ndarray]:
    """Set .grad: dL/d(conj z) on each leaf, the seed on the root; return those nodes' .grad.

    Interior nodes get none: each cogradient is freed once its node has
    emitted. dL/dz is .grad's conjugate since the loss is real. Finiteness
    is checked once, on the leaf cogradients: every rule is linear in
    (gamma, delta), so a NaN or inf emitted anywhere reaches every leaf
    below it. If a leaf is non-finite, a re-run with checks names the node
    that first accumulated or emitted one (NumericError).
    """
    _check_real_root(root)
    order = _toposort(root)
    root.grad = np.asarray(seed, dtype=root.value.dtype).copy()
    leaves = _propagate(order, root)
    for leaf, delta in leaves.items():
        leaf.grad = delta
    if not all(np.all(np.isfinite(delta)) for delta in leaves.values()):
        _propagate(order, root, check=True)
        raise AssertionError("no non-finite cogradient in the graph")
    return {root: root.grad, **leaves}


# ---------------------------------------------------------------------------
# Jacobian pairs and the finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianPair:
    """The two Wirtinger Jacobians (dF/dz, dF/d(conj z)) of a map C^n -> C^m."""

    j: np.ndarray
    jc: np.ndarray

    def __post_init__(self):
        if self.j.shape != self.jc.shape:
            raise DimensionError(f"pair shapes differ: {self.j.shape} vs {self.jc.shape}")


def compose_pairs(outer: JacobianPair, inner: JacobianPair) -> JacobianPair:
    """Jacobian pair of outer(inner(z)) by the general composition rule.

    J  = J_out J_in + Jc_out conj(Jc_in)
    Jc = J_out Jc_in + Jc_out conj(J_in)
    """
    if outer.j.shape[1] != inner.j.shape[0]:
        raise DimensionError(
            f"composition extents disagree: outer {outer.j.shape} x inner {inner.j.shape}"
        )
    j = outer.j @ inner.j + outer.jc @ np.conj(inner.jc)
    jc = outer.j @ inner.jc + outer.jc @ np.conj(inner.j)
    return JacobianPair(j, jc)


def wirtinger_pair_numeric(f: Callable[[np.ndarray], np.ndarray], z0) -> JacobianPair:
    """Central finite-difference estimate of (dF/dz, dF/d(conj z)) at z0.

    Perturbs each element along the real and imaginary axes and combines
    dF/dx and dF/dy as J = (dF/dx - i dF/dy)/2, Jc = (dF/dx + i dF/dy)/2.
    This is the independent oracle used by the gradient-check suite. It
    works in complex128 whatever z0's dtype, since it steps along i.
    """
    z0 = np.asarray(z0, dtype=COMPLEX)

    def probe(z):
        y = np.asarray(f(z), dtype=COMPLEX)
        if not np.all(np.isfinite(y)):
            raise EvaluationError(f"non-finite function value at probe point {z!r}")
        return y.ravel()

    flat = z0.ravel()

    def central(k, step):
        zp = flat.copy()
        zp[k] = flat[k] + step
        zm = flat.copy()
        zm[k] = flat[k] - step
        return (probe(zp.reshape(z0.shape)) - probe(zm.reshape(z0.shape))) / (2 * EPS)

    y0 = probe(z0)
    n, m = z0.size, y0.size
    j = np.empty((m, n), dtype=COMPLEX)
    jc = np.empty((m, n), dtype=COMPLEX)
    for k in range(n):
        dfdx = central(k, EPS)
        dfdy = central(k, 1j * EPS)
        j[:, k] = 0.5 * (dfdx - 1j * dfdy)
        jc[:, k] = 0.5 * (dfdx + 1j * dfdy)
    return JacobianPair(j, jc)


def is_holomorphic_numeric(
    f: Callable[[np.ndarray], np.ndarray], probes: Sequence, tol: float = 1e-8
) -> bool:
    """True iff the numeric Jc vanishes (max-norm < tol) at every probe."""
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe point")
    for p in probes:
        pair = wirtinger_pair_numeric(f, p)
        if np.max(np.abs(pair.jc)) >= tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Elementwise op registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementwiseOp:
    """A scalar op applied elementwise, with its analytic derivative pair.

    pair(z, y) returns the elementwise (J, Jc) diagonals at input z, given
    the forward output y = fn(z), so an op may write its derivative in
    terms of the value it already computed. A holomorphic op may return a
    scalar 0 for Jc. probe_radius bounds |z| for random test probes so they
    stay clear of singularities. An op whose pair reads only y sets
    reads_input=False: its graph nodes then drop z and call pair(None, y),
    while pair_at() and gradcheck still pass z.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    pair: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    holomorphic: bool
    probe_radius: float = 2.0
    reads_input: bool = True


REGISTRY: dict[str, ElementwiseOp] = {}


def register_op(op: ElementwiseOp) -> ElementwiseOp:
    if op.name in REGISTRY:
        raise ValueError(f"op '{op.name}' already registered")
    REGISTRY[op.name] = op
    return op


def pair_at(name: str, z) -> JacobianPair:
    """Materialized (diagonal) Jacobian pair of a registered op at z."""
    op = REGISTRY[name]
    z = np.asarray(z, dtype=COMPLEX)
    j_el, jc_el = op.pair(z, op.fn(z))
    j_el = np.broadcast_to(np.asarray(j_el, dtype=COMPLEX), z.shape)
    jc_el = np.broadcast_to(np.asarray(jc_el, dtype=COMPLEX), z.shape)
    return JacobianPair(np.diag(j_el.ravel()), np.diag(jc_el.ravel()))


def _ones_zeros(z, y):
    return np.ones_like(z), np.zeros_like(z)


register_op(ElementwiseOp("linear", lambda z: z.copy(), _ones_zeros, holomorphic=True))

register_op(
    ElementwiseOp("square", lambda z: z * z, lambda z, y: (2 * z, np.zeros_like(z)), holomorphic=True)
)

register_op(
    ElementwiseOp(
        "conj", np.conj, lambda z, y: (np.zeros_like(z), np.ones_like(z)), holomorphic=False
    )
)

register_op(
    ElementwiseOp(
        "re",
        lambda z: z.real.astype(COMPLEX),
        lambda z, y: (np.full_like(z, 0.5), np.full_like(z, 0.5)),
        holomorphic=False,
    )
)

register_op(
    ElementwiseOp(
        "abs2",
        lambda z: (z.real ** 2 + z.imag ** 2).astype(COMPLEX),
        lambda z, y: (np.conj(z), z.copy()),
        holomorphic=False,
    )
)
