"""Layered benchmark of the MORE-Stress engine (see README.md)."""
