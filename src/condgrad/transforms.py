"""Reductions between rectangular-matrix problems and PSD problems.

A rectangular variable Z (m x n) sits in the off-diagonal block of a
symmetric (m+n) x (m+n) matrix X = [[V, Z], [Z^T, W]].  Constraining X to
the trace-t spectahedron constrains ||Z||_nuc <= t/2; constraining X to the
diagonal-bounded PSD box constrains ||Z||_max <= t.  Solving the embedded
problem with rank-1 atoms yields a factorization L R^T of Z for free.  The
embedding and the weighted nuclear norm's change of variable are both
linear, and one helper (_pullback) pulls an objective back through either.

Convention: with the full Frobenius inner product on the embedding space,
the gradient of f_hat(X) := f(Z-block) is (1/2) [[0, G], [G^T, 0]] for
G = grad f(Z); the 1/2 makes directional derivatives along symmetric
directions match finite differences (the off-diagonal block appears twice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle
from .domains.matrices import FactoredPSD

GRADIENT_BLOCK_SCALE = 0.5


@dataclass(frozen=True)
class BlockEmbedding:
    """Index bookkeeping for the [[V, Z], [Z^T, W]] embedding."""

    m: int
    n: int

    @property
    def total(self) -> int:
        return self.m + self.n

    def z_block(self, X: np.ndarray) -> np.ndarray:
        if X.shape != (self.total, self.total):
            raise ValueError(f"z_block needs a {self.total}x{self.total} matrix, "
                             f"got shape {X.shape}")
        return X[:self.m, self.m:]

    def embed_z(self, Z: np.ndarray) -> np.ndarray:
        """Symmetric matrix with Z in the off-diagonal blocks, zero diagonal blocks."""
        Z = np.asarray(Z, dtype=float)
        if Z.shape != (self.m, self.n):
            raise ValueError(f"embed_z needs an {self.m}x{self.n} block, got shape {Z.shape}")
        X = np.zeros((self.total, self.total))
        X[:self.m, self.m:] = Z
        X[self.m:, :self.m] = Z.T
        return X

    def embed_gradient(self, G: np.ndarray) -> np.ndarray:
        return GRADIENT_BLOCK_SCALE * self.embed_z(G)


def _pullback(objective: ObjectiveOracle, inner, back, name: str) -> ObjectiveOracle:
    """f(inner(x)) as an oracle in x, for a linear map inner with adjoint
    back: the gradient is back(grad f(inner(x))) by the chain rule."""
    hook = None
    if objective.alpha_hook is not None:
        def hook(x, s):
            return objective.alpha_hook(inner(x), inner(s))

    return ObjectiveOracle(eval=lambda x: float(objective.eval(inner(x))),
                           grad=lambda x: back(objective.grad(inner(x))),
                           curvature_bound=objective.curvature_bound,
                           name=name, alpha_hook=hook)


def nuclear_to_spect(objective: ObjectiveOracle, m: int, n: int, t: float):
    """Objective over the (m+n) embedding whose trace-t spectahedron solutions
    carry Z = X[:m, m:] with ||Z||_nuc <= t/2.

    Returns (embedded ObjectiveOracle, BlockEmbedding).  Line-search hooks and
    the curvature bound pass through unchanged (both depend only on f along
    segments, and the Z block moves affinely with X).
    """
    if not t > 0:  # NaN too
        raise ValueError(f"trace bound t must be positive, got {t!r}")
    emb = BlockEmbedding(m, n)
    hat = _pullback(objective, emb.z_block,
                    lambda g: emb.embed_gradient(np.asarray(g, dtype=float)),
                    f"embed({objective.name})")
    return hat, emb


def extract_factorization(X: FactoredPSD, m: int, n: int):
    """Columns L_j = sqrt(t a_j) v_j[:m], R_j = sqrt(t a_j) v_j[m:] with
    t = X.scale, so that L R^T equals the Z block of the dense iterate and
    (||L||_F^2 + ||R||_F^2)/2 <= t/2 (trace split across the blocks)."""
    t = X.scale
    if X.n != m + n:
        raise ValueError(f"a size-{X.n} iterate does not split as {m} + {n}")
    k = X.rank()
    L = np.zeros((m, k))
    R = np.zeros((n, k))
    for j, (w, v) in enumerate(zip(X.weights, X.vectors)):
        c = math.sqrt(t * w)
        L[:, j] = c * v[:m]
        R[:, j] = c * v[m:]
    return L, R


def weighted_nuclear_wrap(objective: ObjectiveOracle, p, q):
    """Change of variable Zbar = P Z Q (P = diag(sqrt(p)), Q = diag(sqrt(q)))
    turning a weighted nuclear-norm constraint on Z into a plain one on Zbar.

    Returns (objective over Zbar, to_original) with gradient
    P^-1 G Q^-1 by the chain rule; unit weights reduce to the identity."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(p > 0) and np.all(q > 0)):  # NaN too
        raise ValueError("weighted nuclear norm needs positive weights p and q")
    scale = np.outer(np.sqrt(p), np.sqrt(q))

    def to_original(Zbar):  # an elementwise scaling, so its own adjoint
        return np.asarray(Zbar, dtype=float) / scale

    return _pullback(objective, to_original, to_original, f"wnuc({objective.name})"), to_original
