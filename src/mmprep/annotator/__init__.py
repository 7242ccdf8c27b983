"""Two-level (story/clip) video annotation pipeline; the package exports what a run_pipeline caller needs."""

from .pipeline import LlmError, LlmResponse, RetryPolicy, TransientLlmError, parse_jobs, run_pipeline

__all__ = ["LlmError", "LlmResponse", "RetryPolicy", "TransientLlmError", "parse_jobs", "run_pipeline"]
