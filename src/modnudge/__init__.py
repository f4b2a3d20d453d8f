"""Modular two-step nudging data assimilation for 2D periodic flow."""

__version__ = "0.1.0"
