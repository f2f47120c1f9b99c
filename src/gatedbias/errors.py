"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or unusable dataset layout."""


class CheckpointError(ValueError):
    """A saved artifact (embeddings, head checkpoint) is corrupt or mismatched."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message carries a [stage] tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
