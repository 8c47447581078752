"""Stride predictor: predicts the last delta repeats."""

from __future__ import annotations

from .base import ValuePredictor


class StridePredictor(ValuePredictor):
    """Predicts v(t+1) = v(t) + (v(t) - v(t-1)).

    Catches arithmetic sequences the compiler could not prove (e.g. strides
    through pointers, float accumulators with a constant addend). Works for
    ints and floats alike; float strides must reproduce exactly.
    """

    name = "stride"

    def __init__(self):
        self._last = None
        self._stride = None

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
                self._stride = actual - self._last
            except (TypeError, OverflowError):
                self._stride = None
        self._last = actual

    def reset(self):
        self._last = None
        self._stride = None
