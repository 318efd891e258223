"""Exception types shared across the pipeline.

Per-case failures (a snippet that will not compile, a mismatching output)
are *data* and never raised; these exceptions cover misuse of the API and
environment problems that make a run meaningless.
"""


class OmpragError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(OmpragError):
    """A precondition on caller-supplied data was violated."""


class CorpusEmptyError(OmpragError):
    """The corpus directory yielded no usable documents."""


class IntegrityError(OmpragError):
    """Cross-referenced artifacts disagree (duplicate or unknown chunk ids)."""


class ProviderError(OmpragError):
    """A remote provider failed; carries the transport status when known."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ReplayMissError(OmpragError):
    """No recorded reply matches the requested case and prompt hash."""

    def __init__(self, message: str, case_id: str | None = None):
        super().__init__(message)
        self.case_id = case_id


class EnvironmentFailure(OmpragError):
    """The host is missing something a run needs; aborts the whole run."""


class ToolchainError(EnvironmentFailure):
    """The configured compiler is missing from this host or cannot start."""


class BenchError(OmpragError):
    """A benchmark process misbehaved (nonzero exit, bad timing output)."""


class ParseError(OmpragError):
    """A structured input file contained a malformed record."""


class LockHeldError(EnvironmentFailure):
    """Another benchmark runner already holds the exclusivity lock."""


class UsageError(OmpragError):
    """Bad CLI arguments or an unknown output format."""
