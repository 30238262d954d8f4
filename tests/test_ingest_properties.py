"""Property tests: hostile count tables end `tpmcert certify` with exit code 2
and an error that names the offending file, never with a traceback."""

import contextlib
import csv
import io
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tpmcert import cli, dataio

LABELS = ("x", "z", "-x", "-z", "q", "s1")
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _obs_rows(labels, counts):
    return [[x, a, b, counts[i][2 * a + b]]
            for i, x in enumerate(labels) for a in (0, 1) for b in (0, 1)]


def _do_rows(labels, counts):
    return [[a, x, b, counts[a][i][b]]
            for a in (0, 1) for i, x in enumerate(labels) for b in (0, 1)]


def _shots(cells):
    """Nonnegative counts of `cells` cells with at least one shot in all."""
    return st.lists(st.integers(0, 10**6), min_size=cells, max_size=cells).map(
        lambda c: [c[0] + (sum(c) == 0)] + c[1:])


settings_lists = st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True)


@st.composite
def obs_tables(draw, labels=None):
    labels = labels or draw(settings_lists)
    counts = [draw(_shots(4)) for _ in labels]
    return labels, counts


@st.composite
def do_tables(draw, labels):
    return [[draw(_shots(2)) for _ in labels] for _ in (0, 1)]


def _certify(tmp_path_factory, obs_text, do_text=None):
    """`certify` on the given table texts: its exit code rc, stderr err, the
    table paths obs and do, and the output directory out."""
    root = tmp_path_factory.mktemp("ingest")
    obs, do = root / "obs.csv", root / "do.csv"
    obs.write_bytes(obs_text if isinstance(obs_text, bytes) else obs_text.encode())
    argv = ["certify", "--counts", str(obs), "--resamples", "20", "--seed", "3",
            "--out", str(root / "out")]
    if do_text is not None:
        do.write_text(do_text)
        argv += ["--do-counts", str(do)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return SimpleNamespace(rc=rc, err=err.getvalue(), obs=obs, do=do, out=root / "out")


def _assert_rejected(result, path):
    assert result.rc == 2, result.err
    assert result.err.startswith("error: ") and str(path) in result.err, result.err
    assert not result.out.exists()


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@st.composite
def malformed_tables(draw):
    """A valid observational table with one defect, as bytes."""
    labels, counts = draw(obs_tables())
    header, rows = ["x", "a", "b", "count"], _obs_rows(labels, counts)
    row = rows[draw(st.integers(0, len(rows) - 1))]
    defect = draw(st.sampled_from(["count_text", "outcome", "negative", "too_big",
                                   "short_row", "long_row", "header", "not_utf8", "empty"]))
    if defect == "count_text":
        row[3] = draw(st.text(max_size=6).filter(_not_an_int))
    elif defect == "outcome":
        row[draw(st.sampled_from([1, 2]))] = draw(st.integers().filter(lambda v: v not in (0, 1))
                                                  | st.text(max_size=3).filter(_not_an_int))
    elif defect == "negative":
        row[3] = draw(st.integers(max_value=-1))
    elif defect == "too_big":
        row[3] = draw(st.integers(min_value=dataio.MAX_COUNT + 1))
    elif defect == "short_row":
        del row[draw(st.integers(0, 3))]
    elif defect == "long_row":
        row.append(draw(st.text(max_size=3)))
    elif defect == "header":
        header = draw(st.lists(st.text(max_size=5), max_size=5).filter(
            lambda h: [c.strip() for c in h] not in (dataio.OBS_HEADER, dataio.DO_HEADER)))
    text = _csv(header, rows).encode("utf-8", "surrogatepass")
    if defect == "not_utf8":
        text = text.replace(b"\n", b"\n\xff", 1)
    elif defect == "empty":
        text = b""
    return text


@SETTINGS
@given(text=malformed_tables())
def test_malformed_tables_exit_2(tmp_path_factory, text):
    result = _certify(tmp_path_factory, text)
    _assert_rejected(result, result.obs)


@SETTINGS
@given(table=obs_tables(), data=st.data())
def test_duplicate_rows_are_summed(tmp_path_factory, table, data):
    # splitting every count over duplicate rows in shuffled order leaves the
    # report unchanged (zero rows up front keep the settings in their order of
    # first appearance); duplicates that push a cell past MAX_COUNT are rejected
    labels, counts = table
    rows = _obs_rows(labels, counts)
    split = []
    for x, a, b, count in rows:
        part = data.draw(st.integers(0, count))
        split += [[x, a, b, part], [x, a, b, count - part]]
    split = [[x, 0, 0, 0] for x in labels] + data.draw(st.permutations(split))
    whole = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, rows))
    parts = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, split))
    assert whole.rc == parts.rc == 0
    assert (whole.out / "report.json").read_bytes() == (parts.out / "report.json").read_bytes()
    over = rows + [rows[0][:3] + [dataio.MAX_COUNT - rows[0][3] + 1]]
    result = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, over))
    _assert_rejected(result, result.obs)


@SETTINGS
@given(table=obs_tables(), data=st.data())
def test_zero_shot_rows_exit_2(tmp_path_factory, table, data):
    labels, counts = table
    i = data.draw(st.integers(0, len(labels) - 1))
    if data.draw(st.booleans()):
        counts[i] = [0, 0, 0, 0]
        result = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, _obs_rows(labels, counts)))
        _assert_rejected(result, result.obs)
        assert f"setting {labels[i]!r} has no shots" in result.err
    else:
        dcounts = data.draw(do_tables(labels))
        a = data.draw(st.integers(0, 1))
        dcounts[a][i] = [0, 0]
        result = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, _obs_rows(labels, counts)),
                          _csv(dataio.DO_HEADER, _do_rows(labels, dcounts)))
        _assert_rejected(result, result.do)
        assert f"row (a={a}, x={labels[i]!r}) has no shots" in result.err


@SETTINGS
@given(table=obs_tables(), data=st.data())
def test_missing_intervention_rows_exit_2(tmp_path_factory, table, data):
    labels, counts = table
    dcounts = data.draw(do_tables(labels))
    a, x = data.draw(st.integers(0, 1)), data.draw(st.sampled_from(labels))
    rows = [r for r in _do_rows(labels, dcounts) if (r[0], r[1]) != (a, x)]
    result = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, _obs_rows(labels, counts)),
                      _csv(dataio.DO_HEADER, rows))
    _assert_rejected(result, result.do)
    assert f"row (a={a}, x={x!r}) has no shots" in result.err


@SETTINGS
@given(obs_labels=settings_lists, do_labels=settings_lists, data=st.data())
def test_mismatched_settings_exit_2(tmp_path_factory, obs_labels, do_labels, data):
    if set(obs_labels) == set(do_labels):
        do_labels = do_labels[1:] or [next(x for x in LABELS if x not in obs_labels)]
    _, counts = data.draw(obs_tables(obs_labels))
    dcounts = data.draw(do_tables(do_labels))
    result = _certify(tmp_path_factory, _csv(dataio.OBS_HEADER, _obs_rows(obs_labels, counts)),
                      _csv(dataio.DO_HEADER, _do_rows(do_labels, dcounts)))
    _assert_rejected(result, result.do)
    assert "settings" in result.err


@SETTINGS
@given(table=obs_tables())
def test_swapped_table_kinds_exit_2(tmp_path_factory, table):
    labels, counts = table
    obs_text = _csv(dataio.OBS_HEADER, _obs_rows(labels, counts))
    result = _certify(tmp_path_factory, obs_text, obs_text)
    _assert_rejected(result, result.do)
    do_text = _csv(dataio.DO_HEADER, _do_rows(labels, [[c[:2] for c in counts]] * 2))
    result = _certify(tmp_path_factory, do_text)
    _assert_rejected(result, result.obs)
