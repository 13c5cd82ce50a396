"""Settings and helpers shared by every test module.

Hypothesis gets no per-example deadline: an example's run time depends on
the interpreter and on tracing (the coverage run under `python -m trace`
is several times slower), not on the property under test, so a deadline
would fail correct code on a slower run.

`capture` runs one `surfcond` query in process, and `clear_package_caches`
empties the package's memos; test modules import both from here."""

import contextlib
import io
import sys
from unittest import mock

from hypothesis import settings

from surfcond import cli

settings.register_profile("surfcond", deadline=None)
settings.load_profile("surfcond")

# building the parser is most of an in-process query's cost; one serves all
PARSER = cli.build_parser()


def capture(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process `surfcond` call.
    argparse's own usage errors exit through SystemExit, whose code is the
    exit code; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "build_parser", return_value=PARSER):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def clear_package_caches() -> None:
    """Empty every lru_cache of the package, as a fresh process finds them."""
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "surfcond":
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == key:
                value.cache_clear()
