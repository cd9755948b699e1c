"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or bad CLI usage."""


class TrainingError(RuntimeError):
    """Training aborted: non-finite loss or gradient, empty dataset, etc."""


class DataError(ValueError):
    """Invalid task specification, vocabulary or token id."""
