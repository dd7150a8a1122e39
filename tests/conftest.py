"""Test-session set-up shared by the whole suite.

Under ``pytest -W error`` a failing hypothesis test builds its failure report
with ``hypothesis.extra._patching``, whose first import raises a
DeprecationWarning inside a dependency (libcst uses ``mypy_extensions.TypedDict``).
As an error, that warning ends the session in INTERNALERROR and hides the
falsifying example.  Importing the module once here, with that warning
ignored, keeps the report; where the module cannot be imported, hypothesis
reports without it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
