"""Hypothesis profiles. The default run keeps each test's own settings;
`--hypothesis-profile=deep` raises the example count of every test that
does not fix its own, as CI does for the polynomial, Sylvester and
subspace-image properties."""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)
