"""Simulation kernel: completions and crash injection."""

from repro.sim.completion import (
    DISK_RESOURCE,
    Completion,
    DeviceOp,
    OpRecorder,
    is_plane_resource,
    plane_resource,
)
from repro.sim.crash import CrashPoint, CrashInjector

__all__ = [
    "Completion",
    "DeviceOp",
    "OpRecorder",
    "DISK_RESOURCE",
    "plane_resource",
    "is_plane_resource",
    "CrashPoint",
    "CrashInjector",
]
