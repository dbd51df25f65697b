"""Numerical gradient verification for autograd correctness.

Every hand-written adjoint in :mod:`repro.tensor` is validated against a
central finite difference.  The test suite uses :func:`gradcheck` both in
targeted unit tests and in hypothesis property tests over random shapes,
and the serving tier's sensitivity endpoints
(:meth:`~repro.workflow.engine.ForecastEngine.sensitivity_batch`) are
gated on :func:`numerical_grad` agreement in ``tests/test_sensitivity.py``.

Methodology (the ``compare_grad_with_fd`` pattern): the scalar under
test is ``sum(fn(*inputs))``; each element of the chosen input is
perturbed by ``±eps`` and the central quotient
``(f(x+eps) - f(x-eps)) / (2 eps)`` is compared against the analytic
gradient under an ``atol``/``rtol`` gate.  Two failure modes need eps
tuned per call site:

* *round-off*: ``f`` evaluated in float32 carries ~1e-7 relative noise,
  so the quotient's noise floor is ~``noise(f) / (2 eps)`` — too small
  an ``eps`` drowns the signal.  Functions routed through a float32
  model forward (the engine sensitivity paths) therefore use
  ``eps ~ 1e-3``–``1e-2`` with a correspondingly looser gate, while
  pure-float64 tensor ops keep the tight default.
* *truncation*: the central difference is exact only to ``O(eps²·f‴)``
  — too large an ``eps`` biases the quotient on curvy functions, and
  piecewise-linear reductions (``max``) mis-sample when the perturbation
  flips the argmax.

See ``docs/differentiation.md`` for how the serving gradcheck composes
these rules with the full numpy serving path.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numerical_grad", "gradcheck", "tape_nodes"]


def tape_nodes(root: Tensor) -> List[Tensor]:
    """Tensors a ``backward()`` from ``root`` visits, leaves included —
    the size of a tape, for the tests that pin it and the profile that
    prints it."""
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(p for p in node._parents if p.requires_grad)
    return list(seen.values())


def numerical_grad(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray],
                   index: int, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of ``sum(fn(*inputs))``.

    Parameters
    ----------
    fn: function mapping Tensors to a Tensor.  Only the *values* of the
        returned tensor are read, so ``fn`` may internally run any
        non-differentiable pipeline (e.g. the whole numpy serving path:
        forecast an episode, reduce to a diagnostic, wrap the scalar in
        a Tensor) — which is exactly how the sensitivity endpoints are
        validated end to end.
    inputs: plain arrays; input ``index`` is perturbed elementwise (a
        scalar parameter is just a 0-d/1-element array).
    eps: central step.  See the module docstring for the
        round-off/truncation trade-off when ``fn`` is float32 inside.

    Returns
    -------
    An array of ``inputs[index]``'s shape: the finite-difference
    estimate of ``d sum(fn) / d inputs[index]``.  Cost is two ``fn``
    evaluations per element — perturb a low-dimensional parametrisation
    (a slice, a direction, a parameter vector) rather than a full field
    when ``fn`` is expensive.
    """
    base = [np.asarray(a, dtype=np.float64) for a in inputs]
    grad = np.zeros_like(base[index])
    it = np.nditer(base[index], flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[index][idx]
        base[index][idx] = orig + eps
        plus = float(fn(*[Tensor(a) for a in base]).sum().item())
        base[index][idx] = orig - eps
        minus = float(fn(*[Tensor(a) for a in base]).sum().item())
        base[index][idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray],
              atol: float = 1e-4, rtol: float = 1e-3,
              eps: float = 1e-5) -> bool:
    """Compare autograd gradients of ``sum(fn(*inputs))`` to finite diffs.

    Raises ``AssertionError`` with a diagnostic on mismatch; returns True
    when every input gradient matches.
    """
    f64_inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in f64_inputs]
    out = fn(*tensors).sum()
    out.backward()
    for i, t in enumerate(tensors):
        num = numerical_grad(fn, f64_inputs, i, eps=eps)
        got = t.grad if t.grad is not None else np.zeros_like(f64_inputs[i])
        if not np.allclose(got, num, atol=atol, rtol=rtol):
            err = np.abs(got - num).max()
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs err {err:.3e}\n"
                f"analytic:\n{got}\nnumeric:\n{num}"
            )
    return True
