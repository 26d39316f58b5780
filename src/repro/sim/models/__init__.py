"""Execution-time estimators of the end-to-end models of :mod:`repro.models`."""

from . import graphsage, minkowski, rgcn

__all__ = ["graphsage", "rgcn", "minkowski"]
