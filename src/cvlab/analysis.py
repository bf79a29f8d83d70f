"""Normalized-MSE decomposition of paired (true, estimated) performance.

For T paired samples (s_t, shat_t) of the true conditional performance and an
estimate of it, with plug-in (divide-by-T) moments, the decomposition

    MSE(shat, s) / (sigma_s * sigma_shat)
        = MSE(shat, mean s) / (sigma_s * sigma_shat)
          + sigma_s / sigma_shat
          - 2 * rho(shat, s)

is an exact algebraic identity.  :func:`decompose` takes the two per-trial
arrays, s and shat, as they are (a campaign's triples columns, or a pairs
file's), and reports every component and the residual of the identity, which
must vanish to rounding error.  RMS values (square roots of the MSEs) are
reported alongside, matching the usual experiment-table columns.

A small weak-correlation rho together with rms_cond being no smaller than
rms_mean is the signature that the estimator tracks the mean performance
rather than the training-set-conditional one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from cvlab.core import DomainError


@dataclass(frozen=True)
class DecompositionReport:
    """All components of the normalized-MSE identity (plug-in moments).

    The normalized fields (rho, sigma_ratio, lhs, rhs, residual) are None
    when either standard deviation is zero (``degenerate`` is then True).
    """

    trials: int
    mean_s: float
    mean_s_hat: float
    sigma_s: float
    sigma_s_hat: float
    mse_cond: float
    mse_mean: float
    rms_cond: float
    rms_mean: float
    degenerate: bool
    rho: float | None
    sigma_ratio: float | None
    lhs: float | None
    rhs: float | None
    residual: float | None

    def to_json_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


def decompose(s, s_hat) -> DecompositionReport:
    """Means, sigmas, both MSEs/RMSs, rho and the identity residual of the
    per-trial true performance ``s`` and estimate ``s_hat``.

    Each is read as a flat float array; they must have equal lengths, at least
    two trials and finite entries, checked in that order.  The moments are
    taken on contiguous float64 copies, so a strided column (``table[:, 0]``)
    gives the same bits as a contiguous one.
    """
    s = np.array(s, dtype=float).reshape(-1)
    s_hat = np.array(s_hat, dtype=float).reshape(-1)
    if s.size != s_hat.size:
        raise DomainError("s and s_hat must have equal lengths")
    if s.size < 2:
        raise DomainError("need at least two trials")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(s_hat))):
        raise DomainError("entries must be finite")
    mean_s = float(s.mean())
    mean_s_hat = float(s_hat.mean())
    var_s = float(((s - mean_s) ** 2).mean())
    var_s_hat = float(((s_hat - mean_s_hat) ** 2).mean())
    sigma_s = var_s ** 0.5
    sigma_s_hat = var_s_hat ** 0.5
    mse_cond = float(((s_hat - s) ** 2).mean())
    mse_mean = float(((s_hat - mean_s) ** 2).mean())
    degenerate = sigma_s == 0.0 or sigma_s_hat == 0.0
    if degenerate:
        rho = sigma_ratio = lhs = rhs = residual = None
    else:
        cov = float(((s - mean_s) * (s_hat - mean_s_hat)).mean())
        rho = cov / (sigma_s * sigma_s_hat)
        sigma_ratio = sigma_s / sigma_s_hat
        lhs = mse_cond / (sigma_s * sigma_s_hat)
        rhs = mse_mean / (sigma_s * sigma_s_hat) + sigma_ratio - 2.0 * rho
        residual = lhs - rhs
    return DecompositionReport(
        trials=s.size,
        mean_s=mean_s,
        mean_s_hat=mean_s_hat,
        sigma_s=sigma_s,
        sigma_s_hat=sigma_s_hat,
        mse_cond=mse_cond,
        mse_mean=mse_mean,
        rms_cond=mse_cond ** 0.5,
        rms_mean=mse_mean ** 0.5,
        degenerate=degenerate,
        rho=rho,
        sigma_ratio=sigma_ratio,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
    )
