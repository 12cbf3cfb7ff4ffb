"""Exception types shared across the pipeline."""


class ExpSumError(Exception):
    """Base class for all pipeline errors."""


class ParseFailure(ExpSumError):
    """Source text could not be parsed by the selected frontend."""


class UnsupportedLanguage(ExpSumError):
    """No parser frontend exists for the requested language."""


class IoFailure(ExpSumError):
    """A required input file could not be read."""


class EmptyDictionary(ExpSumError):
    """Dictionary file contained zero entries after normalization."""


class EmptyCorpus(ExpSumError):
    """An operation that needs at least one document or pair got none."""


class ClientFailure(ExpSumError):
    """LLM backend call failed.

    ``kind`` is one of ``network``, ``non_2xx``, ``malformed_payload``,
    ``no_rule_matched``. Only ``network`` failures are ever retried.
    """

    def __init__(self, message: str, kind: str = "network"):
        super().__init__(message)
        self.kind = kind


class AllCategoriesExcluded(ExpSumError):
    """Every function category has been ruled out; no draft can be requested."""


class MalformedDraft(ExpSumError):
    """Draft response is missing the category marker, names an unknown
    category, or has an empty summary body."""


class MalformedRefinement(ExpSumError):
    """Refiner response carries an unparseable error signal, or no signal and
    an empty body."""


class ConfigError(ExpSumError):
    """Pipeline configuration, schema, or constraint file is invalid."""


class MalformedKnowledgeBase(ExpSumError):
    """A knowledge base file is not well-formed JSON of the current format."""


def one_line(message: str) -> str:
    """``message`` with CR and LF escaped, so that a diagnostic quoting
    multi-line text (a backend's error page, say) stays one stderr line."""
    return message.replace("\r", "\\r").replace("\n", "\\n")
