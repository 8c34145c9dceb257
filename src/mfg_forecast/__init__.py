"""Forecasting solver for 1-D mean field games via Carleman-weighted convexification."""

__version__ = "0.1.0"
