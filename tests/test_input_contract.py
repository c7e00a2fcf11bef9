"""No public entry point takes nan, and +inf only where a level allows it.

TABLE holds every callable in the ``__all__`` of the seven modules that has
a ``float``-annotated parameter, with keyword arguments it accepts.  Each
such parameter set to nan, +inf or -inf must raise ValueError naming it,
except +inf on the levels in INF_OK, which must be accepted.
"""

import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest

from klbounds import bounds, chains, gauss, schemes, shifts

MODULES = ["bounds", "chains", "cli", "gauss", "schemes", "shifts", "verify"]

# Result records: the library fills them from inputs it has already checked.
EXEMPT = {"BoundReport", "LocalErrorEstimate", "PlanResult", "ObjectiveTrace", "CheckRow"}

UNIT = chains.PotentialSpec.quadratic_potential(1.0)
K = bounds.KernelAssumptions(L=0.9, c=1.0, c_prime=1.0)
STD = gauss.Gaussian(0.0, 1.0)
HAT, REF = chains.toy_kernel_pair(0.1, 1.0)
PLAN = dict(alpha=1.0, beta=2.0, d=4, eps=0.5, zeta0=0.1, zeta1=0.1, w2_init=3.0)


def plan_iterations(constant=1.0, **fields):
    """plan_iterations, with PlanParams' fields (a plain record) as keywords."""
    params = schemes.PlanParams(**{**PLAN, **fields})
    return schemes.plan_iterations("SLC", "LMC_SMOOTH", params, constant)


TABLE = {
    "bounds.KernelAssumptions": dict(L=0.9, gamma=0.1, c=1.0, c_prime=1.0, b_bar=0.1,
                                     e_weak=0.1, e_strong=0.1, a=0.1, implied_constant=1.0),
    "bounds.w2_framework_bound": dict(k=K, n=3, w2_init=1.0),
    "bounds.kl_simple_bound": dict(k=K, n=3, w2_init=1.0),
    "bounds.kl_framework_bound": dict(k=K, n=3, w2_init=1.0, mode="certified"),
    "bounds.toy_assumptions": dict(w=0.1, sigma=1.0),
    "bounds.n_bar": dict(L=0.9, n=3),
    "chains.SamplerConfig": dict(scheme="LMC", h=0.1, n_steps=2),
    "chains.lmc_step": dict(pot=UNIT, x=[1.0], h=0.1, noise=[0.0]),
    "chains.rmlmc_step": dict(pot=UNIT, x=[1.0], h=0.1, u=0.5, b_uh=[0.0], b_h=[0.0]),
    "chains.rmlmc_increments": dict(u=0.5, h=0.1, xi1=[0.0], xi2=[0.0]),
    "chains.propagate_law": dict(pot=UNIT, init=gauss.Gaussian(1.0, 0.0), scheme="LMC",
                                 h=0.1, n=3),
    "chains.estimate_local_errors": dict(pot=UNIT, scheme="LMC", x=1.0, h=0.1),
    "chains.auxiliary_process_sim": dict(hat_kernel=HAT, ref_kernel=REF, schedule=[0.5, 1.0],
                                         x0=0.0, y0=0.0, replicas=40, groups=2),
    "chains.gaussian_drift_kernel": dict(drift=0.1, variance=1.0),
    "chains.toy_kernel_pair": dict(w=0.1, sigma=1.0),
    "gauss.renyi_gaussian": dict(order=2.0, p=STD, q=STD),
    "gauss.toy_exact_kl": dict(n=4, w=0.1, sigma=1.0),
    "gauss.toy_exact_w2": dict(n=4, w=0.1, sigma=1.0),
    "gauss.toy_laws": dict(n=4, w=0.1, sigma=1.0),
    "schemes.langevin_kernel_params": dict(alpha=1.0, beta=2.0, h=0.1),
    "schemes.lmc_local_errors": dict(beta=1.0, d=2, h=0.1, grad_norm=1.0),
    "schemes.lmc_cross_reg": dict(beta=1.0, d=2, h=0.1, grad_norm=1.0),
    "schemes.lmc_smooth_weak_error": dict(beta=1.0, zeta0=0.5, zeta1=0.5, d=2, h=0.1,
                                          grad_norm=1.0),
    "schemes.rmlmc_local_errors": dict(beta=1.0, d=2, h=0.1, grad_norm=1.0),
    "schemes.rmlmc_cross_reg": dict(beta=1.0, d=2, h=0.1, grad_norm=1.0),
    "schemes.gradient_bound": dict(beta=1.0, d=2, w2_to_pi=1.0, kl_to_pi=1.0),
    "schemes.plan_iterations": dict(constant=1.0, **PLAN),
    "shifts.SimpleError": dict(a=0.5),
    "shifts.WeakAwareError": dict(a0=0.5, a1=0.5),
    "shifts.ShiftProblem": dict(n=3, L=0.9, d0=1.0, error=shifts.SimpleError(0.5), c=1.0,
                                c_prime=1.0, b=0.1),
    "shifts.optimal_value_L1": dict(n=3, a=0.5, d0=1.0),
    "shifts.optimal_shifts_L1": dict(n=3, a=0.5, d0=1.0),
    "shifts.optimal_value_Lgeneral": dict(n=3, a=0.5, d0=1.0, L=0.9),
    "shifts.optimal_shifts_Lgeneral": dict(n=3, a=0.5, d0=1.0, L=0.9),
    "shifts.final_bound_with_cross_reg": dict(n=3, a=0.5, d0=1.0, L=0.9, c=1.0, c_prime=1.0,
                                              b=0.1),
    "shifts.three_phase_schedule": dict(n=3, L=0.9),
    "verify.exact_quadratic_assumptions": dict(lam=1.0, h=0.1, n=3, x0=1.0),
}

# The documented levels that may be +inf: an exact level that overflowed, and
# the unknown distances that default to inf.
INF_OK = {
    ("bounds.KernelAssumptions", "b_bar"),
    ("bounds.KernelAssumptions", "e_weak"),
    ("bounds.KernelAssumptions", "e_strong"),
    ("bounds.KernelAssumptions", "a"),
    ("schemes.gradient_bound", "w2_to_pi"),
    ("schemes.gradient_bound", "kl_to_pi"),
}


def _float_names(items) -> list[str]:
    return [name for name, annotation in items if "float" in str(annotation)]


def public_float_parameters() -> dict[str, list[str]]:
    """module.name -> its float-annotated parameters, for every public callable."""
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"klbounds.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if name in EXEMPT or name == "PlanParams" or not callable(obj):
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except ValueError:  # an exception class
                continue
            names = _float_names((p.name, p.annotation) for p in parameters)
            if name == "plan_iterations":
                names += _float_names((f.name, f.type)
                                      for f in dataclasses.fields(schemes.PlanParams))
            if names:
                found[f"{module}.{name}"] = names
    return found


def call(key: str, **kwargs):
    if key == "schemes.plan_iterations":
        return plan_iterations(**kwargs)
    module, name = key.split(".")
    return getattr(importlib.import_module(f"klbounds.{module}"), name)(**kwargs)


def test_table_covers_every_public_float_parameter():
    found = public_float_parameters()
    assert sorted(found) == sorted(TABLE)
    missing = {key: [p for p in params if p not in TABLE[key]] for key, params in found.items()}
    assert not any(missing.values()), missing


@pytest.mark.parametrize("key", sorted(TABLE))
def test_table_arguments_are_valid(key):
    call(key, **TABLE[key])


CASES = [(key, param, bad) for key, params in sorted(public_float_parameters().items())
         for param in params for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("key, param, bad", CASES,
                         ids=[f"{key}-{param}-{bad}" for key, param, bad in CASES])
def test_non_finite_argument_is_rejected_by_name(key, param, bad):
    kwargs = {**TABLE[key], param: bad}
    if bad == math.inf and (key, param) in INF_OK:
        call(key, **kwargs)
    else:
        with pytest.raises(ValueError, match=rf"\b{param}\b"):
            call(key, **kwargs)


@pytest.mark.parametrize("state", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]])
def test_non_finite_state_is_rejected_by_name(state):
    pot = chains.PotentialSpec.quadratic_potential(np.eye(2))
    with pytest.raises(ValueError, match=r"^x must be finite"):
        chains.estimate_local_errors(pot, "LMC", state, 0.1)
    with pytest.raises(ValueError, match=r"^x0 must be finite"):
        chains.simulate_chain(pot, chains.SamplerConfig("LMC", 0.1, 3), np.array(state))
