"""The package's one exception type."""


class SpikeNasError(Exception):
    """Every engine error: bad settings, data files, architectures or budgets."""
