"""Multi-seasonal tensor factor models for high-dimensional time series forecasting."""

from __future__ import annotations

from . import benchmarks, evaluation, factor_model, forecast, panel, tensor
from .benchmarks import *
from .evaluation import *
from .factor_model import *
from .forecast import *
from .panel import *
from .tensor import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += benchmarks.__all__
__all__ += evaluation.__all__
__all__ += factor_model.__all__
__all__ += forecast.__all__
__all__ += panel.__all__
__all__ += tensor.__all__
