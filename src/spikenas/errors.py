"""The package's one exception type; a `ValueError`, so `except ValueError` catches it."""


class SpikeNasError(ValueError):
    """Every engine error: bad settings, data files, architectures or budgets."""
