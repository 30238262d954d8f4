"""Property tests: hostile YAML configurations end `tpmcert simulate` with exit
code 2 or 3 and an error that names the offending file and key, never with a
traceback."""

import contextlib
import io
import math
from types import SimpleNamespace

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tpmcert import certify, cli, dataio

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# a valid sampled run, so that the resample count and sigma_k take part
BASE = {"shots": 20, "resamples": 20, "seed": 1}
NOISE = {"t2_ms": 364.0, "t1_ms": 1170.0, "echo_fidelity": 0.995, "echo_interval_ms": 2.5,
         "initial_gamma": 0.642, "wait_ms": 5.0}

non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
finite = st.floats(allow_nan=False, allow_infinity=False)
strings = st.text(max_size=8)
lists = st.lists(st.integers(), max_size=2)
# of no type that a numeric key accepts
not_a_number = st.booleans() | strings | lists
not_an_int = finite | non_finite | not_a_number


def _below(bound, exclude=False):
    return st.floats(max_value=bound, exclude_max=exclude, allow_nan=False)


def _above(bound, exclude=False):
    return st.floats(min_value=bound, exclude_min=exclude, allow_nan=False)


HOSTILE = {
    "protocol": st.integers() | finite | non_finite | st.booleans() | lists,
    "alpha": non_finite | not_a_number,
    "shots": (st.integers(max_value=0) | st.integers(min_value=dataio.MAX_COUNT + 1)
              | finite | st.booleans() | strings.filter(lambda s: s != "exact") | lists),
    "seed": st.integers(max_value=-1) | not_an_int,
    "resamples": (st.integers(max_value=1) | st.integers(min_value=certify.MAX_RESAMPLES + 1)
                  | not_an_int),
    "sigma_k": _below(0.0) | non_finite | not_a_number,
    # the wait lives in the noise block, so a top-level one is an unknown key
    "wait_ms": finite.filter(lambda v: v != 0.0) | non_finite | not_a_number,
    "frozen_argmin": st.integers() | finite | non_finite | strings | lists,
}

must_be_positive = _below(0.0) | non_finite | not_a_number | st.none()
NOISE_HOSTILE = {
    "t2_ms": must_be_positive,
    "t1_ms": must_be_positive,
    "echo_interval_ms": must_be_positive,
    "echo_fidelity": _below(0.0) | _above(1.0, exclude=True) | non_finite | not_a_number,
    "initial_gamma": (_below(2.0 - math.sqrt(2.0), exclude=True) | _above(2.0, exclude=True)
                      | non_finite | not_a_number),
    "wait_ms": _below(0.0, exclude=True) | non_finite | not_a_number,
}


# a key outside the schema of its block, which the error must quote as it is
def _unknown_key(known):
    return st.from_regex(r"[a-z_]{1,10}", fullmatch=True).filter(lambda key: key not in known)


UNKNOWN_KEYS = {
    "top": _unknown_key({*BASE, *HOSTILE, *dataio._NAMED_KEYS, "settings", "noise"}),
    "noise": _unknown_key(set(NOISE)),
}


def _simulate(tmp_path_factory, doc):
    """`simulate --config` on doc written as YAML: its exit code rc, stderr
    err, the config path and the output directory out."""
    root = tmp_path_factory.mktemp("config")
    path, out = root / "hostile.yaml", root / "out"
    path.write_text(yaml.safe_dump(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    return SimpleNamespace(rc=rc, err=err.getvalue(), path=path, out=out)


def _assert_rejected(result, key):
    assert result.rc in (2, 3), result.err
    prefix = "error: " if result.rc == 2 else "domain error: "
    assert result.err.startswith(prefix), result.err
    assert str(result.path) in result.err and key in result.err, result.err
    assert not result.out.exists()


def test_base_configuration_runs(tmp_path_factory):
    # the hostile cases below differ from these runs in one value only
    assert _simulate(tmp_path_factory, BASE).rc == 0
    assert _simulate(tmp_path_factory, {**BASE, "noise": NOISE}).rc == 0


@pytest.mark.parametrize("key", sorted(HOSTILE))
@SETTINGS
@given(data=st.data())
def test_hostile_scalar_exits_2_or_3(tmp_path_factory, key, data):
    value = data.draw(HOSTILE[key], label=key)
    _assert_rejected(_simulate(tmp_path_factory, {**BASE, key: value}), key)


@pytest.mark.parametrize("key", sorted(NOISE_HOSTILE))
@SETTINGS
@given(data=st.data())
def test_hostile_noise_value_exits_2_or_3(tmp_path_factory, key, data):
    value = data.draw(NOISE_HOSTILE[key], label=key)
    _assert_rejected(_simulate(tmp_path_factory, {**BASE, "noise": {**NOISE, key: value}}), key)


@pytest.mark.parametrize("block", sorted(UNKNOWN_KEYS))
@SETTINGS
@given(data=st.data())
def test_unknown_key_exits_2(tmp_path_factory, block, data):
    key = data.draw(UNKNOWN_KEYS[block], label=block)
    doc = {**BASE, key: 1.0} if block == "top" else {**BASE, "noise": {**NOISE, key: 1.0}}
    result = _simulate(tmp_path_factory, doc)
    assert result.rc == 2, result.err
    _assert_rejected(result, repr(key))
