"""Search-space pruning bounds.

Two quantities gate rule proposals during search:

* a floor on the support any rule in the optimum can have, tightening as
  the best-found posterior improves, and
* a cap on how many rules the optimum can contain.

Both derive from the per-covered-row likelihood-loss factor ``upsilon``
(removing a rule costing ``supp`` covered rows can shrink the conditional
likelihood by at most ``upsilon**supp``) and the prior-penalty constant
``omega``, in the natural-log domain.  ``scoring.log_omega(hyper)``
(module ``scoring`` never imports this one) is called by
``Hyperparams.__post_init__``, to reject a bundle whose log omega is not
finite, and by ``initial_bounds``, which fixes ``log_omega``,
``log_upsilon`` and ``log_ceiling`` (log L* + log p(M = 0)) per dataset
in the state that ``update_bounds`` only reads.  The final
ceil/floor gets 1e-9 of slack toward the permissive side so a one-ulp
rounding error can never prune the optimum.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .data import Dataset
from .scoring import Hyperparams, log_likelihood, log_omega, log_rule_count_prior

log = logging.getLogger(__name__)

_SLACK = 1e-9


def upsilon(data: Dataset, hyper: Hyperparams) -> float:
    """Per-row likelihood-loss factor bounding single-rule deletion.

    Values of 1 and above carry no pruning power (deleting a rule then
    never costs likelihood); ``initial_bounds`` then disables the bounds.
    """
    n_pos, n_neg = data.n_pos, data.n_neg
    if not n_pos + hyper.alpha_pos > 1:
        raise ValueError("need n_pos + alpha_pos > 1 for the deletion bound")
    value = (hyper.beta_neg * (n_pos + hyper.alpha_pos + hyper.beta_pos - 1.0)) / (
        (n_neg + hyper.alpha_neg + hyper.beta_neg) * (n_pos + hyper.alpha_pos - 1.0)
    )
    return value


def log_lstar(data: Dataset, hyper: Hyperparams) -> float:
    """Log-likelihood of perfect classification (the reachable maximum)."""
    return log_likelihood(data.n_pos, 0, data.n_neg, 0, hyper)


@dataclass(frozen=True)
class BoundState:
    """Current pruning state; refreshed whenever the best score improves.

    ``m_cap`` is None when the bounds are disabled (hyperparameter
    preconditions unmet, or upsilon/omega outside their useful ranges), in
    which case ``min_support`` stays at 1.  ``log_ceiling`` is
    log L* + log p(M = 0), the posterior the empty set would have if it
    classified perfectly.
    """

    log_upsilon: float
    log_omega: float
    log_ceiling: float
    alpha_m: float
    enabled: bool
    m_cap: int | None = None
    min_support: int = 1


def _precondition_violations(hyper: Hyperparams) -> list[str]:
    """Ordering constraints the pruning bounds assume; empty if all hold."""
    out = []
    if not hyper.alpha_m < hyper.beta_m:
        out.append(f"alpha_m ({hyper.alpha_m}) must be < beta_m ({hyper.beta_m})")
    if not hyper.alpha_l < hyper.beta_l:
        out.append(f"alpha_l ({hyper.alpha_l}) must be < beta_l ({hyper.beta_l})")
    if not hyper.alpha_pos > hyper.beta_pos:
        out.append(f"alpha_pos ({hyper.alpha_pos}) must be > beta_pos ({hyper.beta_pos})")
    if not hyper.alpha_neg > hyper.beta_neg:
        out.append(f"alpha_neg ({hyper.alpha_neg}) must be > beta_neg ({hyper.beta_neg})")
    return out


def initial_bounds(data: Dataset, hyper: Hyperparams) -> BoundState:
    """Build the pruning state, disabling it when its premises fail."""
    ups = upsilon(data, hyper)
    l_omega = log_omega(hyper)
    problems = _precondition_violations(hyper)
    if ups >= 1.0:
        problems.append(f"upsilon = {ups:.4g} >= 1")
    if l_omega <= 0.0:
        problems.append(f"omega = {math.exp(l_omega):.4g} <= 1")
    enabled = not problems
    if not enabled:
        log.warning("pruning bounds disabled: %s", "; ".join(problems))
    return BoundState(
        # upsilon underflows to 0 for a tiny beta_neg; its log's limit keeps
        # the support floor at 1
        log_upsilon=math.log(ups) if ups > 0.0 else -math.inf,
        log_omega=l_omega,
        log_ceiling=log_lstar(data, hyper) + log_rule_count_prior(0, hyper),
        alpha_m=hyper.alpha_m,
        enabled=enabled,
    )


def update_bounds(state: BoundState, new_log_posterior: float) -> BoundState:
    """Fold a newly observed posterior value into the pruning state.

    The recomputed cap and support floor are clamped against their
    previous values: every bound computed at an earlier (lower) best
    posterior is still valid for the optimum, so the floor never loosens
    and the cap never widens.  A value that does not improve on the best
    gives a cap and floor no tighter than the state's, so it leaves the
    state as it is; so does any value while the bounds are disabled.
    """
    if not state.enabled:
        return state

    headroom = state.log_ceiling - new_log_posterior
    raw_cap = math.floor(headroom / state.log_omega + _SLACK)
    m_cap = max(int(raw_cap), 1)
    if state.m_cap is not None:
        m_cap = min(m_cap, state.m_cap)

    # support floor evaluated at the current cap; reduces to
    # ceil(log(1/omega)/log(upsilon)) when alpha_m == 1.  Not m_cap + alpha_m
    # - 1: at m_cap == 1 that rounds to 0 for alpha_m below about 1e-16
    numer = (
        math.log((m_cap - 1) + state.alpha_m)
        - math.log(m_cap)
        - math.log(state.alpha_m)
        - state.log_omega
    )
    raw_support = math.ceil(numer / state.log_upsilon - _SLACK)
    min_support = max(int(raw_support), 1, state.min_support)

    return replace(state, m_cap=m_cap, min_support=min_support)
