"""Dense float64 autodiff core: exactly the kernels the story model needs.

Reverse-mode on a dynamically built graph. An op whose inputs need
gradients returns a new Tensor whose backward-graph node is wired to the
nodes of its inputs and keeps only what its backward step needs;
``Tensor.backward()`` walks the graph once in reverse topological order,
accumulates gradients on the leaves and frees the graph as it goes. Inside
``no_grad()`` ops build no graph. Kernels only, and no broadcasting:
``add`` and ``mul`` take equal shapes, and bias rows go through ``matmul``.

The training-step kernels are bit-exact rewrites of their textbook forms,
kept in the tests as oracles. ``ParamStore`` allocates one flat buffer of
values and one of gradients from the parameter shapes, once; each
``Tensor.data`` and ``Tensor.grad`` is a fixed view, and whatever makes the
values (an initializer, a checkpoint) writes them into those views. The
gradient buffer is an anonymous mapping that takes no memory until a
backward pass writes it. Adam's two moments come with the first step, so
``adam_step`` runs its formula once over the whole model as in-place
ufuncs. The embedding backward sums gradient rows into table cells with one
``np.bincount`` (the same additions, in the same order, as ``np.add.at``),
and ``layer_norm`` takes the variance from the centred rows it already
builds, as ``np.var`` does inside.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .errors import DataError, NumericError

Array = np.ndarray

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
LAYER_NORM_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _GradMode:
    enabled = True


@contextmanager
def no_grad():
    """Within the block, ops build no backward-graph node (no parents, no
    ``grad_fn``): their outputs cannot be differentiated and keep nothing
    alive for a backward pass."""
    previous = _GradMode.enabled
    _GradMode.enabled = False
    try:
        yield
    finally:
        _GradMode.enabled = previous


def _as_f64(data) -> Array:
    # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would not)
    return np.asarray(data, dtype=np.float64, order="C")


class _Node:
    """A vertex of the backward graph. ``grad_fn`` maps the gradient of the
    op's output to one gradient per parent; a parent is another node, a leaf
    Tensor that accumulates ``grad``, or None for an input that needs none.
    A node keeps only what its ``grad_fn`` closes over, so an activation that
    no backward step needs is freed as soon as the model drops its Tensor.
    """

    __slots__ = ("parents", "grad_fn")

    def __init__(self, parents: tuple, grad_fn: Callable[[Array], tuple]):
        self.parents = parents
        self.grad_fn = grad_fn


class Tensor:
    """A float64 ndarray plus the wiring for reverse-mode differentiation.

    ``data`` is always C-contiguous float64 (row-major). A leaf built with
    ``requires_grad`` holds a zero ``grad`` that ``backward()`` adds into. An
    op's output that depends on such a leaf carries a ``_node`` in the graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, parents=(), grad_fn=None):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = np.zeros(self.data.shape) if self.requires_grad else None
        self._node: _Node | None = None
        if _GradMode.enabled and any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._node = _Node(tuple(p._node or (p if p.requires_grad else None)
                                     for p in parents), grad_fn)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def backward(self, grad: Array | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        The walk consumes the graph: each node drops its parents and
        ``grad_fn`` once its gradient has been passed on, so what the graph
        kept is freed as the walk goes and a graph can be walked only once.
        """
        if grad is None:
            if self.data.size != 1:
                raise NumericError("backward() without an explicit seed needs a scalar")
            grad = np.ones_like(self.data)
        root = self._node or (self if self.requires_grad else None)
        if root is None:
            return
        topo: list = []
        seen: set[int] = set()
        stack: list = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if isinstance(node, _Node):
                for p in node.parents:
                    if p is not None and id(p) not in seen:
                        stack.append((p, False))
        pending: dict[int, Array] = {id(root): _as_f64(grad)}
        for i in range(len(topo) - 1, -1, -1):
            node, topo[i] = topo[i], None
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):  # a leaf
                node.grad += g
                continue
            parents, grad_fn = node.parents, node.grad_fn
            node.parents, node.grad_fn = (), None
            for parent, pg in zip(parents, grad_fn(g)):
                if parent is None or pg is None:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise DataError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a + b`` of two equal-shaped tensors."""
    _same_shape("add", a, b)
    return Tensor(a.data + b.data, parents=(a, b), grad_fn=lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a * b`` of two equal-shaped tensors."""
    _same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return Tensor(ad * bd, parents=(a, b), grad_fn=lambda g: (g * bd, g * ad))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b`` for 2-D operands, plus ``bias`` on every row when given (one
    op, so a linear layer keeps no separate pre-bias activation)."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DataError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    if bias is None:
        def grad_fn(g):
            return g @ bd.T, ad.T @ g

        return Tensor(out, parents=(a, b), grad_fn=grad_fn)
    out += bias.data

    def grad_fn_bias(g):
        return g @ bd.T, ad.T @ g, g.sum(axis=0)

    return Tensor(out, parents=(a, b, bias), grad_fn=grad_fn_bias)


def transpose(a: Tensor) -> Tensor:
    return Tensor(a.data.T, parents=(a,), grad_fn=lambda g: (g.T,))


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    sizes = [p.data.shape[0] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=0)

    def grad_fn(g):
        grads, offset = [], 0
        for n in sizes:
            grads.append(g[offset:offset + n])
            offset += n
        return tuple(grads)

    return Tensor(out, parents=tuple(parts), grad_fn=grad_fn)


def concat_cols(parts: list[Tensor]) -> Tensor:
    sizes = [p.data.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)

    def grad_fn(g):
        grads, offset = [], 0
        for n in sizes:
            grads.append(g[:, offset:offset + n])
            offset += n
        return tuple(grads)

    return Tensor(out, parents=tuple(parts), grad_fn=grad_fn)


def narrow_cols(a: Tensor, start: int, stop: int) -> Tensor:
    shape = a.data.shape

    def grad_fn(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return Tensor(a.data[:, start:stop], parents=(a,), grad_fn=grad_fn)


def softmax_rows(x: Array) -> Array:
    """Softmax over the last axis of an array: subtract the row max,
    exponentiate, divide by the row sum. A 1-D vector is one row."""
    exps = np.exp(x - x.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def softmax(logits: Tensor) -> Tensor:
    """Row-stable softmax over the last axis.

    Rows sum to 1 within 1e-12; invariant to additive shifts of the input.
    """
    if not np.isfinite(logits.data).all():
        raise NumericError("softmax: non-finite input")
    y = softmax_rows(logits.data)

    def grad_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, parents=(logits,), grad_fn=grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    Forward and backward work in place where they can: on a batch these
    activations are the largest arrays alive, so each temporary counts.
    """
    gd, d = gamma.data, x.data.shape[-1]
    # each mean is np.mean's own steps, sum then divide by d, without its
    # Python wrapper (five calls per decode step)
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    # np.var's own steps on the centred rows: square, sum, divide by d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gd
    out += beta.data

    def grad_fn(g):
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv
        dxhat = g * gd
        tmp = dxhat * xhat
        np.multiply(xhat, tmp.sum(axis=-1, keepdims=True) / d, out=tmp)
        dx = dxhat - dxhat.sum(axis=-1, keepdims=True) / d
        dx -= tmp
        dx *= inv
        np.multiply(g, xhat, out=tmp)
        dgamma = tmp.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        return dx, dgamma, dbeta

    return Tensor(out, parents=(x, gamma, beta), grad_fn=grad_fn)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU (the GPT-2 formulation), 0.5 v (1 + t) with
    t = tanh(K (v + C v^3)). Built in place, and t is recomputed in backward
    rather than kept, so few activation-sized buffers are alive at once."""
    v = x.data

    def tanh_term() -> Array:
        t = v * v
        t *= v
        t *= _GELU_C
        t += v
        t *= _GELU_K
        return np.tanh(t, out=t)

    out = tanh_term()
    out += 1.0
    out *= v
    out *= 0.5

    def grad_fn(g):
        # d/dv = (1 + t) (0.5 + 0.5 v (1 - t) K (1 + 3 C v^2))
        t = tanh_term()
        dv = v * v
        dv *= 3.0 * _GELU_C
        dv += 1.0
        dv *= 0.5 * _GELU_K
        dv *= v
        np.subtract(1.0, t, out=t)  # t is now 1 - t
        dv *= t
        dv += 0.5
        np.subtract(2.0, t, out=t)  # and now 1 + t
        dv *= t
        dv *= g
        return (dv,)

    return Tensor(out, parents=(x,), grad_fn=grad_fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup into a 2-D embedding table; backward scatter-adds.

    The scatter is one ``np.bincount`` over flat cell indices: each cell
    starts at 0.0 and adds its rows' gradients in row order, the same sums
    as ``np.add.at(full, ids, g)``.
    """
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise DataError("embedding expects a 1-D id list")
    if table.data.ndim != 2:
        raise DataError(f"embedding expects a 2-D table, got shape {table.data.shape}")
    n, d = table.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DataError(f"embedding id out of range [0, {n})")
    out = table.data[idx]

    def grad_fn(g):
        cells = (idx[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(cells, weights=g.ravel(), minlength=n * d).reshape(n, d),)

    return Tensor(out, parents=(table,), grad_fn=grad_fn)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise NumericError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(keep))


def cross_entropy_masked(logits: Tensor, targets, mask, weights=None) -> Tensor:
    """Negative log-likelihood over the masked positions.

    ``logits`` is (T, V), ``targets`` T token ids, ``mask`` T booleans that
    select which positions contribute. Positions outside the mask have no
    effect on the value or the gradient. Without ``weights`` the loss is the
    mean over the masked positions. With ``weights`` of shape (T,) or (E, T)
    it is ``weights @ nll``, where ``nll`` is zero outside the mask: a scalar,
    or one loss per row of ``weights`` (say, one per example of a batch).
    """
    tgt = np.asarray(targets, dtype=np.intp)
    msk = np.asarray(mask, dtype=bool)
    t, v = logits.data.shape
    if tgt.shape != (t,) or msk.shape != (t,):
        raise DataError(f"targets/mask must have length {t}")
    if not msk.any():
        raise DataError("cross_entropy_masked: empty loss (all positions masked out)")
    sel = msk.nonzero()[0]
    if (tgt[sel] < 0).any() or (tgt[sel] >= v).any():
        raise DataError(f"target id out of range [0, {v})")
    rows = logits.data[sel]
    m = rows.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=-1))
    nll = lse - rows[np.arange(sel.size), tgt[sel]]
    if weights is None:
        loss = nll.mean()
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim not in (1, 2) or w.shape[-1] != t:
            raise DataError(f"weights must have shape ({t},) or (E, {t})")
        w_sel = w[..., sel].reshape(-1, sel.size)
        loss = (w_sel @ nll).reshape(w.shape[:-1])

    def grad_fn(g):
        probs = np.exp(rows - m)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(sel.size), tgt[sel]] -= 1.0
        if weights is None:
            scale = float(np.reshape(g, ())) / sel.size
        else:
            scale = (np.reshape(g, -1) @ w_sel)[:, None]
        full = np.zeros((t, v))
        full[sel] = probs * scale
        return (full,)

    return Tensor(loss, parents=(logits,), grad_fn=grad_fn)


def attention(q: Tensor, k: Tensor | Array, v: Tensor | Array, mask, n_heads: int, *,
              dropout: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over a batch, as one op.

    ``q`` is (B * Tq, d) and ``k``, ``v`` are (B * Tk, d) Tensors: B sequences
    of rows, example-major. ``k`` and ``v`` may instead be (B, Tk, d) arrays,
    such as a KV cache's strided views, whose heads are split without a copy;
    they get no gradient. ``mask`` is an additive (Tq, Tk) array shared by
    every sequence and head (-1e30 hides a key). Each of the ``n_heads`` heads
    attends over its own d / n_heads columns; with ``dropout`` > 0 the
    attention weights are dropped (inverted) with masks drawn from ``rng``.
    Backward needs only the saved attention weights.
    """
    mask = np.asarray(mask, dtype=np.float64)
    tq, tk = mask.shape
    rows, d = q.data.shape
    b, hd = rows // tq, d // n_heads
    cached = not isinstance(k, Tensor)
    kd, vd = (k, v) if cached else (k.data, v.data)
    if rows % tq or kd.shape != ((b, tk, d) if cached else (b * tk, d)) or vd.shape != kd.shape:
        raise DataError(f"attention: q {q.data.shape}, k {kd.shape}, v {vd.shape} "
                        f"do not fit a ({tq}, {tk}) mask")

    def heads(x: Array, t: int) -> Array:  # (B * t, d) or (B, t, d) -> (B, H, t, hd), a view
        return x.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(x: Array) -> Array:  # (B, H, t, hd) -> (B * t, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    qh, kh, vh = heads(q.data, tq), heads(kd, tk), heads(vd, tk)
    scale = 1.0 / math.sqrt(hd)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale + mask
    if not np.isfinite(scores).all():
        raise NumericError("attention: non-finite scores")
    probs = softmax_rows(scores)
    if not 0.0 <= dropout < 1.0:
        raise NumericError(f"dropout rate must be in [0, 1), got {dropout}")
    keep = None
    if dropout > 0.0:
        keep = (rng.random(probs.shape) >= dropout) / (1.0 - dropout)
    out = merge((probs if keep is None else probs * keep) @ vh)

    def grad_fn(g):
        gh = heads(g, tq)
        weights = probs if keep is None else probs * keep
        dv = weights.transpose(0, 1, 3, 2) @ gh
        dw = gh @ vh.transpose(0, 1, 3, 2)
        if keep is not None:
            dw *= keep
        ds = probs * (dw - (dw * probs).sum(axis=-1, keepdims=True)) * scale
        return merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh), merge(dv)

    return Tensor(out, parents=(q,) if cached else (q, k, v), grad_fn=grad_fn)


def _untouched_zeros(n: int) -> Array:
    """``n`` float64 zeros that use no memory until they are written: a
    private anonymous mapping, whose pages the kernel backs only on a first
    write, and which a forked child writes copy-on-write. Where ``mmap`` has
    no ``MAP_PRIVATE``, plain ``np.zeros``."""
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(n)
    # the flags are explicit: mmap.mmap(-1, n)'s default is MAP_SHARED, which
    # a forked child would write through to its parent
    pages = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, dtype=np.float64)


class ParamStore:
    """Named trainable tensors and their gradients in two flat float64
    buffers, plus Adam's moment buffers and a step counter.

    Each buffer is allocated once, from the parameter shapes, and never
    copied: ``flat`` holds the values in dict order and ``grad`` the
    gradients, laid out alike; each ``Tensor.data`` and ``Tensor.grad`` is a
    reshaped view into them. ``ParamStore.empty`` leaves ``flat`` for its
    caller to fill through those views (an initializer's draws, a
    checkpoint's payloads); ``ParamStore({name: value})`` copies the values
    in. ``grad`` is zero until a backward pass adds into it, and its pages
    take no memory until then (``_untouched_zeros``), so a process that only
    decodes never pays for it. ``m``, ``v`` (Adam's moments) and ``scratch``
    (two rows each ``adam_step`` overwrites) are laid out as ``flat`` too,
    and stay None until the first step.
    """

    def __init__(self, params: dict):
        values = {name: _as_f64(data) for name, data in params.items()}
        self._allocate({name: v.shape for name, v in values.items()})
        for name, v in values.items():
            self.params[name].data[...] = v

    @classmethod
    def empty(cls, shapes: dict[str, tuple[int, ...]]) -> "ParamStore":
        """A store of parameters with these shapes, in dict order, whose
        values are unset until the caller writes every ``Tensor.data``."""
        store = cls.__new__(cls)
        store._allocate(shapes)
        return store

    def _allocate(self, shapes: dict[str, tuple[int, ...]]) -> None:
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.empty(sum(sizes))
        self.grad = _untouched_zeros(self.flat.size)
        self.params: dict[str, Tensor] = {}
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            span = slice(offset, offset + size)
            param = Tensor(self.flat[span].reshape(shape))
            param.requires_grad = True  # set after construction, which would make a grad to drop
            param.grad = self.grad[span].reshape(shape)
            self.params[name] = param
            offset += size
        self.m: Array | None = None
        self.v: Array | None = None
        self.scratch: Array | None = None
        self.step = 0

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def adam_step(store: ParamStore, lr: float = 1e-3, beta1: float = ADAM_BETA1,
              beta2: float = ADAM_BETA2, eps: float = ADAM_EPS) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    The update reads the gradients from ``store.grad`` and runs over the
    whole model at once, in place on the moment buffers and on the store's
    scratch; it never writes ``store.grad``. Per element it
    makes the same float operations in the same order as the textbook form
    ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2) g^2``,
    ``p -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)``.
    """
    t = store.step + 1
    n = store.flat.size
    if store.m is None:
        store.m, store.v, store.scratch = np.zeros(n), np.zeros(n), np.empty((2, n))
    m, v, flat, g = store.m, store.v, store.flat, store.grad
    sq, step = store.scratch
    np.multiply(g, 1.0 - beta1, out=step)
    m *= beta1
    m += step
    np.multiply(g, g, out=sq)
    sq *= 1.0 - beta2
    v *= beta2
    v += sq
    np.divide(m, 1.0 - beta1 ** t, out=step)
    step *= lr
    np.divide(v, 1.0 - beta2 ** t, out=sq)
    np.sqrt(sq, out=sq)
    sq += eps
    step /= sq
    flat -= step
    store.step = t


def clip_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``; the
    squares are summed per parameter, and those sums added in name order."""
    total = 0.0
    for p in store.params.values():
        total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        store.grad *= max_norm / norm
    return norm


def grad_check(f: Callable[[ParamStore], Tensor], store: ParamStore,
               epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar function of the store (fix any rng
    it uses per call). Relative error per element is
    |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise NumericError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    store.zero_grad()
    out = f(store)
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check: f evaluated to a non-finite value")
    out.backward()
    analytic = {name: p.grad.copy() for name, p in store.params.items()}
    worst = 0.0
    for name, p in store.params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = f(store).item()
            flat[i] = orig - epsilon
            lo = f(store).item()
            flat[i] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NumericError(f"grad_check: non-finite perturbation at {name}[{i}]")
            numeric = (hi - lo) / (2.0 * epsilon)
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]))
            if err > worst:
                worst = err
    store.zero_grad()
    return worst
