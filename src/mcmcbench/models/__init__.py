"""Model zoo: nine model/prior pairs behind one uniform interface.

Models are selected by the string tags "LM-C", "LM-WI", "LM-NI",
"LM-L", "LR-N", "LR-L", "MM", "AFT-NH", "AFT-NI".
"""

from __future__ import annotations

from ..datagen import Dataset
from . import aft, base, linear, logistic, mixture

FAMILY_OF = {
    "LM-C": "LM",
    "LM-WI": "LM",
    "LM-NI": "LM",
    "LM-L": "LM",
    "LR-N": "LR",
    "LR-L": "LR",
    "MM": "MM",
    "AFT-NH": "AFT",
    "AFT-NI": "AFT",
}
PRIOR_TAGS = tuple(FAMILY_OF)

# Default hyperparameters per prior tag; ``hyper`` may override only these.
HYPER_DEFAULTS = {
    **linear.HYPER_DEFAULTS,
    **logistic.HYPER_DEFAULTS,
    "MM": mixture.HYPER_DEFAULTS,
    **aft.HYPER_DEFAULTS,
}


def get_model(
    prior_id: str,
    dataset: Dataset,
    H: int | None = None,
    parameterization: str = "marginal",
    hyper: dict | None = None,
) -> base.Model:
    """Build a model instance from its prior tag."""
    family = FAMILY_OF.get(prior_id)
    if family is None:
        raise ValueError(f"unknown prior tag {prior_id!r}; expected one of {PRIOR_TAGS}")
    if family == "LM":
        return linear.LinearModel(dataset, prior_id, hyper)
    if family == "LR":
        return logistic.LogisticModel(dataset, prior_id, hyper)
    if family == "MM":
        if H is None:
            raise ValueError("mixture model needs H")
        return mixture.MixtureModel(dataset, H, parameterization, hyper)
    return aft.AFTModel(dataset, prior_id, hyper)


__all__ = ["FAMILY_OF", "HYPER_DEFAULTS", "PRIOR_TAGS", "get_model"]
