"""Finite-difference validation of backward rules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericsError
from .tensor import Tensor

# Relative error uses a floored denominator so near-zero gradients do not
# turn finite-difference noise into spurious blowups.
_REL_FLOOR = 1e-3


@dataclass(frozen=True)
class GradCheckEntry:
    input_index: int
    max_abs_err: float
    max_rel_err: float


@dataclass(frozen=True)
class GradCheckReport:
    entries: tuple[GradCheckEntry, ...]

    @property
    def max_abs_err(self) -> float:
        return max((e.max_abs_err for e in self.entries), default=0.0)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_err < tolerance


def _eval_scalar(fn, inputs) -> float:
    out = fn(*inputs)
    value = float(out.data) if isinstance(out, Tensor) else float(out)
    if not np.isfinite(value):
        raise NumericsError(f"closure produced non-finite value {value}")
    return value


def grad_check(
    fn,
    inputs: list[Tensor],
    step: float = 1e-4,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar closure against central FD.

    ``fn`` maps the given tensors to a scalar Tensor.  Each input is
    perturbed elementwise by ±step.  The closure must be deterministic
    (fix any rng before calling).  Returns per-input max absolute and
    relative errors; use ``report.passed(tolerance)`` to gate.

    Central differences need double precision, so float32 inputs are
    converted to float64 in place; the graph then computes in float64.
    """
    for t in inputs:
        t.data = np.asarray(t.data, dtype=np.float64)
        t.requires_grad = True
        t.zero_grad()

    out = fn(*inputs)
    if not np.all(np.isfinite(out.data)):
        raise NumericsError("forward pass produced non-finite values")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        for t in inputs
    ]

    entries = []
    for idx, t in enumerate(inputs):
        fd = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + step
            f_plus = _eval_scalar(fn, inputs)
            flat[j] = saved - step
            f_minus = _eval_scalar(fn, inputs)
            flat[j] = saved
            fd_flat[j] = (f_plus - f_minus) / (2.0 * step)
        abs_err = np.abs(analytic[idx] - fd)
        denom = np.maximum(
            np.maximum(np.abs(analytic[idx]), np.abs(fd)), _REL_FLOOR
        )
        entries.append(
            GradCheckEntry(
                input_index=idx,
                max_abs_err=float(abs_err.max(initial=0.0)),
                max_rel_err=float((abs_err / denom).max(initial=0.0)),
            )
        )
    return GradCheckReport(entries=tuple(entries))
