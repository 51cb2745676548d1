"""Array-backend names, kept for the benchmark's environment header.

The dense kernels call numpy directly; there is no alternative array
backend.  ``perfbench/bench.py`` is the only caller of these two functions.
"""


def array_backend_names() -> tuple[str, ...]:
    """Every array backend this build knows."""
    return ("numpy",)


def available_array_backends() -> tuple[str, ...]:
    """The array backends usable here."""
    return ("numpy",)
