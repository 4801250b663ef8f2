"""Discrete-event simulation substrate (kernel, resources, RNG, latencies)."""

from repro.sim.kernel import AllOf, AnyOf, Environment, Event, Process, Timeout
from repro.sim.latency import (
    Exponential,
    Fixed,
    LatencyModel,
    LogNormal,
    ShiftedExponential,
    Uniform,
)
from repro.sim.resources import CoreQueue, Resource, Semaphore, Store
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Resource",
    "CoreQueue",
    "Semaphore",
    "Store",
    "RandomStreams",
    "derive_seed",
    "LatencyModel",
    "Fixed",
    "Uniform",
    "Exponential",
    "ShiftedExponential",
    "LogNormal",
]
