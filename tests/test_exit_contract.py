"""The CLI's exit contract, fuzzed end to end.

Every input either gives closed surfaces (exit 0, and boundary_edge_count
0 on every mesh line of the manifest) or fails fast with exactly one
stage-tagged line on stderr and an exit code of 2-5 that matches the
stage. Each case runs in-process through cli.main on one to six random
atoms, with extreme values of the grid, filter and extraction settings,
under a small memory cap and a time limit.
"""

import contextlib
import io
import math
import os
import signal
import tempfile
import warnings

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cliffsurf import cli, volumetrics

# 0.02 GiB at 72 bytes per voxel: grids of at most 298k voxels (66^3)
_MEM_CAP_GIB = "0.02"
_TIME_LIMIT_S = 20.0


class _Overtime(BaseException):
    """Raised by the alarm; not an Exception, so no stage tags it."""


def _alarm(signum, frame):
    raise _Overtime(f"case ran over {_TIME_LIMIT_S} s")


def _mostly(good, *extremes):
    """Values of good nine times in ten, else one of the extremes.

    Each flag is set in about half the cases, so more extremes would send
    most cases to a config error and leave few to reach a mesh.
    """
    bad = st.sampled_from(extremes)
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


def _magnitudes(lo_exp, hi_exp):
    """Log-uniform positive floats."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


_BAD = (0.0, -1.0, math.inf, -math.inf, math.nan, 1e-300, 1e300)

_FLAGS = {
    "--spacing": _mostly(_magnitudes(-1.5, 0.5), *_BAD),
    "--padding": _mostly(_magnitudes(-2.0, 1.5), *_BAD),
    "--init": st.sampled_from(volumetrics.INIT_KINDS),
    "--order": _mostly(st.integers(1, 40).map(lambda m: 2 * m), -2, 0, 1, 3, 200, 1001),
    "--epsilon": _mostly(st.just(0.0) | _magnitudes(-6.0, 3.0), *_BAD),
    "--passes": _mostly(st.integers(1, 6), -1, 0, 10**6),
}
_REPEATED = {
    "--time": _mostly(_magnitudes(-3.0, 10.0), *_BAD),
    "--isovalue": _mostly(st.floats(-0.5, 1.5) | _magnitudes(-12.0, 3.0), *_BAD),
    "--dcoeff": st.tuples(
        _mostly(st.integers(1, 6), -1, 0, 7, 40), _mostly(_magnitudes(-12.0, 6.0), *_BAD)
    ).map(lambda jv: f"{jv[0]}:{jv[1]!r}"),
}


@st.composite
def _cases(draw):
    atoms = draw(
        st.lists(
            st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0),
                      st.floats(0.3, 4.0)),
            min_size=1,
            max_size=6,
        )
    )
    argv = []
    for flag, values in _FLAGS.items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    for flag, values in _REPEATED.items():
        for value in draw(st.lists(values, max_size=2)):
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return atoms, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, _TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), caught


@given(case=_cases())
@settings(max_examples=500, deadline=None)
def test_every_input_gives_closed_surfaces_or_one_tagged_error(case):
    atoms, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mol.xyzr")
        with open(path, "w") as fh:
            fh.writelines(f"{x!r} {y!r} {z!r} {r!r}\n" for x, y, z, r in atoms)
        # an uncaught exception here is a traceback, and fails the case
        code, out, err, caught = _run(["--input", path, "--mem-cap", _MEM_CAP_GIB, *argv])
    event(f"exit {code}: {err.partition(']')[0] or 'ok'}")
    # a warning would be a second line on a real process's stderr
    assert not caught, [str(w.message) for w in caught]
    if code == cli.EXIT_OK:
        assert err == ""
        edges = [ln for ln in out.splitlines() if ".mesh.boundary_edge_count: " in ln]
        assert edges and all(ln.endswith(": 0") for ln in edges), edges
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), err
        stage = lines[0].partition("]")[0].removeprefix("error[stage=")
        assert lines[0].startswith("error[stage=") and cli._STAGE_EXIT[stage] == code, err
        assert out == ""
