"""Settings shared by every test module.

Hypothesis gets no per-example deadline: an example's run time depends on
the interpreter and on tracing (the coverage run under `python -m trace`
is several times slower), not on the property under test, so a deadline
would fail correct code on a slower run."""

from hypothesis import settings

settings.register_profile("surfcond", deadline=None)
settings.load_profile("surfcond")
