"""Recurrent time-series forecasting toolkit.

Subpackage map:

- ``numkit``   : error types + SplitMix64 RNG
- ``cells``    : batched LSTM/GRU forecast, hand-derived BPTT, dense head;
                 a model's parameters are one name -> array dict
- ``training`` : MSE loss, Adam, the training loop, checkpoint files
- ``dataprep`` : normalization, windowing, synthetic generators, CSV I/O
- ``evalkit``  : persistence baseline, RMSE, directional accuracy, reports
- ``cli``      : experiment orchestration (generate/train/evaluate/plot/run),
                 also run as ``python -m rnncast``
"""

__version__ = "0.1.0"

from . import cells, cli, dataprep, evalkit, numkit, training

__all__ = ["cells", "cli", "dataprep", "evalkit", "numkit", "training", "__version__"]
