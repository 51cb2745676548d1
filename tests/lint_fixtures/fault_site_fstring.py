"""Fault-site registry fixture: an f-string site registers as a glob pattern."""

from repro import faults


def solve(backend_name):
    faults.fault_point(f"fem.backends.{backend_name}")
