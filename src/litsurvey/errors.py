"""Exception hierarchy shared by every pipeline stage."""

from __future__ import annotations


class SurveyError(Exception):
    """Base class for all litsurvey errors."""


class InvalidInputError(SurveyError, ValueError):
    """Caller violated an operation precondition."""


class IntegrityError(SurveyError):
    """A substrate artifact references a paper id that does not exist."""


class PersistenceError(SurveyError):
    """Writing a substrate or report to disk failed."""

    def __init__(self, path, cause=None):
        super().__init__(f"failed to write {path}" + (f": {cause}" if cause else ""))
        self.path = str(path)


class LoadError(SurveyError):
    """A substrate file is missing or unreadable."""

    def __init__(self, path, reason=""):
        super().__init__(f"cannot load {path}" + (f": {reason}" if reason else ""))
        self.path = str(path)


class BudgetError(SurveyError):
    """A text does not fit the token budget even before auxiliary content."""


class BackendError(SurveyError):
    """The generation/embedding backend returned a non-retryable failure."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class ExhaustionError(BackendError):
    """All retry attempts were spent on retryable failures."""

    def __init__(self, attempts, last_status):
        super().__init__(
            f"backend still failing after {attempts} attempts (last status {last_status})",
            status=last_status,
        )
        self.attempts = attempts


class MalformedOutputError(SurveyError):
    """Structured model output stayed unparsable after retries with error memory."""


class TruncatedReply(MalformedOutputError):
    """The backend cut a reply at the request's ``max_output_tokens``."""

    def __init__(self, max_output_tokens: int):
        super().__init__(f"reply cut at {max_output_tokens} tokens; answer more briefly")
        self.max_output_tokens = max_output_tokens


class JudgeError(MalformedOutputError):
    """A judge verdict could not be parsed after retries."""


class RetrievalError(SurveyError):
    """A paper source answered with an error, or seed search found nothing."""


class SourceUnavailableError(RetrievalError):
    """A paper source still failed after its retries; asking later may succeed."""


class KeynoteError(SurveyError):
    """Keynote extraction failed for a paper."""


class PaperSkipped(SurveyError):
    """Signal: the paper has no usable text at all and leaves the evidence set."""

    def __init__(self, paper_id, reason):
        super().__init__(f"paper {paper_id} skipped: {reason}")
        self.paper_id = paper_id
        self.reason = reason


class DraftingError(SurveyError):
    """A draft unit kept failing verification; names the outline node."""

    def __init__(self, node_path, reason):
        path = " > ".join(node_path)
        super().__init__(f"drafting failed for '{path}': {reason}")
        self.node_path = tuple(node_path)


class AssemblyError(SurveyError):
    """Survey assembly found a node without a draft or an unresolvable mark."""


class EvaluationError(SurveyError):
    """A metric could not be computed (e.g. a missing NLI verdict)."""


class ConfigError(SurveyError):
    """Pipeline configuration is invalid or does not match the run it resumes."""


class StageError(SurveyError):
    """A pipeline stage failed; the commit record keeps the stages before it."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
