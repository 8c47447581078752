"""2-delta stride predictor (Sazeides & Smith)."""

from __future__ import annotations

from .base import ValuePredictor


class TwoDeltaStridePredictor(ValuePredictor):
    """Stride prediction with hysteresis: the *predicting* stride only
    updates after the same new stride is observed twice in a row. This keeps
    one-off disturbances (a rare branch that bumps the value differently)
    from destroying an otherwise steady stride."""

    name = "2-delta-stride"

    def __init__(self):
        self._last = None
        self._stride = None       # stride used for prediction
        self._candidate = None    # most recently observed stride

    def predict(self):
        if self._last is None or self._stride is None:
            return None
        try:
            return self._last + self._stride
        except (TypeError, OverflowError):
            return None

    def train(self, actual):
        if self._last is not None:
            try:
                observed = actual - self._last
            except (TypeError, OverflowError):
                observed = None
            if observed is not None:
                if observed == self._candidate:
                    self._stride = observed
                elif self._stride is None:
                    self._stride = observed
                    self._candidate = observed
                else:
                    self._candidate = observed
        self._last = actual

    def reset(self):
        self._last = None
        self._stride = None
        self._candidate = None
