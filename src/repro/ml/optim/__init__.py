"""SGD update rules (learning-rate adaptation techniques).

The paper's proactive trainer "utilizes advanced learning rate
adaptation techniques such as Adam, Rmsprop, and AdaDelta" (§4.4); all
three adapt the learning rate *per coordinate*, which §2.1 argues is
essential for high-dimensional models. Momentum, AdaGrad, constant,
and inverse-scaling rules are provided for baselines and ablations.

Every optimizer keeps its state across calls, so warm starting
(periodical deployment) and proactive training (continuous deployment)
can both persist "the average of past gradients" exactly as the paper
describes.
"""

from types import MappingProxyType

from repro.exceptions import ValidationError
from repro.ml.optim.adaptive import AdaDelta, AdaGrad, Adam, RMSProp
from repro.ml.optim.base import Optimizer
from repro.ml.optim.basic import ConstantLR, InverseScalingLR, Momentum

_REGISTRY = MappingProxyType(
    {
        cls.name: cls
        for cls in (
            ConstantLR,
            InverseScalingLR,
            Momentum,
            AdaGrad,
            RMSProp,
            AdaDelta,
            Adam,
        )
    }
)


def make_optimizer(name: str, **hyperparameters) -> Optimizer:
    """Construct an optimizer by config name.

    Known names: ``constant``, ``inverse_scaling``, ``momentum``,
    ``adagrad``, ``rmsprop``, ``adadelta``, ``adam``. Keyword arguments
    are forwarded to the constructor.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown optimizer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**hyperparameters)


__all__ = [
    "Optimizer",
    "ConstantLR",
    "InverseScalingLR",
    "Momentum",
    "AdaGrad",
    "RMSProp",
    "AdaDelta",
    "Adam",
    "make_optimizer",
]
