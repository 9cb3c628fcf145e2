"""Hypothesis profiles. The default run keeps each test's own settings;
`--hypothesis-profile=deep` raises the example count of every test that
does not fix its own, as CI does for the polynomial, Sylvester and
subspace-image properties.

A failing @given test makes hypothesis import its patch module, which
imports libcst, and some libcst releases warn on import
(mypy_extensions.TypedDict is deprecated). Under `-W error`, as CI runs,
that warning turns the failure into a pytest INTERNALERROR and loses the
falsifying example; importing the module here, with its warnings caught,
keeps the report. A pyproject filterwarnings entry cannot, since -W wins.
libcst comes only with hypothesis' optional codemods extra; without it the
patch module cannot be imported, nothing warns, and the pre-import is
skipped, as hypothesis' own pytest plugin skips it."""

import contextlib
import warnings

from hypothesis import settings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("deep", max_examples=1000, deadline=None)
