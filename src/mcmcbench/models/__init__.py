"""Model zoo: nine model/prior pairs behind one uniform interface.

``PRIORS`` maps each prior tag ("LM-C", "LM-WI", "LM-NI", "LM-L",
"LR-N", "LR-L", "MM", "AFT-NH", "AFT-NI") to what its experiment is.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from ..datagen import Dataset
from . import aft, base, linear, logistic, mixture


class PriorDesign(NamedTuple):
    model: type  # the Model subclass; its ``family`` names the family
    hyper: dict  # default hyperparameters; ``hyper`` may override only these
    generate: Callable  # the family module's ``gen_*`` function that draws the prior's data
    fields: tuple  # the design fields it draws, besides n and seed
    schedule: tuple  # default (N_it, N_b); N_thin defaults to 2


PRIORS = {
    "LM-C": PriorDesign(linear.LinearModel, linear.HYPER_DEFAULTS["LM-C"], linear.gen_linear,
                        ("p", "covariates"), (11000, 1000)),
    "LM-WI": PriorDesign(linear.LinearModel, linear.HYPER_DEFAULTS["LM-WI"], linear.gen_linear,
                         ("p", "covariates"), (15000, 5000)),
    "LM-NI": PriorDesign(linear.LinearModel, linear.HYPER_DEFAULTS["LM-NI"], linear.gen_linear,
                         ("p", "covariates"), (15000, 5000)),
    "LM-L": PriorDesign(linear.LinearModel, linear.HYPER_DEFAULTS["LM-L"], linear.gen_linear,
                        ("p", "covariates", "zero_pattern"), (20000, 10000)),
    "LR-N": PriorDesign(logistic.LogisticModel, logistic.HYPER_DEFAULTS["LR-N"],
                        logistic.gen_logistic, ("p", "zero_pattern"), (20000, 10000)),
    "LR-L": PriorDesign(logistic.LogisticModel, logistic.HYPER_DEFAULTS["LR-L"],
                        logistic.gen_logistic, ("p", "zero_pattern"), (15000, 10000)),
    "MM": PriorDesign(mixture.MixtureModel, mixture.HYPER_DEFAULTS, mixture.gen_mixture,
                      ("H",), (20000, 10000)),
    "AFT-NH": PriorDesign(aft.AFTModel, aft.HYPER_DEFAULTS["AFT-NH"], aft.gen_aft,
                          ("p", "k"), (10000, 5000)),
    "AFT-NI": PriorDesign(aft.AFTModel, aft.HYPER_DEFAULTS["AFT-NI"], aft.gen_aft,
                          ("p", "k"), (10000, 5000)),
}


def get_model(
    prior_id: str,
    dataset: Dataset,
    H: int | None = None,
    parameterization: str = "marginal",
    hyper: dict | None = None,
) -> base.Model:
    """Build a model instance from its prior tag."""
    if prior_id not in PRIORS:
        raise ValueError(f"unknown prior tag {prior_id!r}; expected one of {tuple(PRIORS)}")
    model = PRIORS[prior_id].model
    if model is mixture.MixtureModel:
        if H is None:
            raise ValueError("mixture model needs H")
        return model(dataset, H, parameterization, hyper)
    return model(dataset, prior_id, hyper)


__all__ = ["PRIORS", "PriorDesign", "get_model"]
