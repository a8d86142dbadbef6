"""Toolkit for the combinatorics of generalized Greene-Plesser toric data."""

__version__ = "0.1.0"

# The report's sections in report order; ``report.SECTIONS`` says how each runs.
ALL_SECTIONS = ("validation", "conditions", "groups", "grading", "bside", "fans", "algebra")


class CertificateFailure(Exception):
    """An identity the computation certifies turned out false: a bug, not bad input.

    Every certificate check raises a subclass of this explicitly (never an
    ``assert``, which ``python -O`` strips), and the CLI exits 3 on it.
    """
