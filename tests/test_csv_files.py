"""Every CSV parser rejects a bad row with the file and the row's line number.

For each of the five CSV formats (parameter table, charger curve, usage
profile, trajectory, batch manifest) a valid file is generated with blank
lines anywhere, one data row is corrupted (a cell added, a cell dropped or
text put in a numeric cell), and the parser must raise a ``ValueError``
naming the path and ``row <n>``, where n is the row's 1-based line in the
file. The CLI commands reading such a file exit 2 with one ``error:`` line.
A file, or a config, that does not decode as text names its path.
The trajectory reader's one-call parse must also agree with the row-by-row
reader it replaced on valid and broken files alike.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evplant.engine
from evplant.charger import load_curve
from evplant.cli import _cmd_batch, main
from evplant.engine import FLOAT_COLUMNS, TRAJECTORY_HEADER, Trajectory, emit_report, read_trajectory
from evplant.params import PARAM_NAMES, default_data_dir, load_grid, read_csv_rows
from evplant.scenario import PROFILE_HEADER, ScenarioProfile, load_config

MANIFEST_HEADER = "config,profile,out,strategy"
BLANKS = st.sampled_from(["", " ", "\t"])
NUMBERS = st.floats(-1e4, 1e4, allow_nan=False).map(repr)


def _increasing(low, high, min_size, max_size):
    return st.lists(st.integers(low, high), min_size=min_size, max_size=max_size, unique=True).map(sorted)


@st.composite
def grid_file(draw):
    """(header, rows, numeric columns) of a parameter table."""
    temps = draw(_increasing(-30, 60, 2, 4))
    socs = draw(_increasing(0, 100, 2, 5))
    values = st.floats(1e-3, 1e3).map(repr)
    rows = [[str(s)] + draw(st.lists(values, min_size=len(temps), max_size=len(temps))) for s in socs]
    return "soc_pct," + ",".join(map(str, temps)), rows, range(len(temps) + 1)


@st.composite
def curve_file(draw):
    xs = draw(_increasing(0, 20000, 2, 6))
    return "x,y", [[str(x), draw(NUMBERS)] for x in xs], range(2)


@st.composite
def profile_file(draw):
    ts = draw(_increasing(0, 86400, 2, 6))
    kind = st.sampled_from(["drive", "plugged", "idle"])
    mode = st.sampled_from(["", "one_phase", "three_phase"])
    rows = [[str(t), draw(kind), draw(NUMBERS), draw(NUMBERS), draw(mode)] for t in ts]
    return PROFILE_HEADER, rows, (0, 2, 3)


@st.composite
def trajectory_file(draw):
    flags = st.sampled_from(["idle", "plugged", "drive|soc_clip"])
    rows = draw(st.lists(st.tuples(st.lists(NUMBERS, min_size=11, max_size=11), flags), min_size=1, max_size=6))
    return TRAJECTORY_HEADER, [cells + [f] for cells, f in rows], range(11)


@st.composite
def manifest_file(draw):
    name = st.text("abcxyz_.", min_size=1, max_size=6)
    # a valid manifest gives each row its own output directory
    rows = draw(st.lists(st.lists(name, min_size=4, max_size=4), min_size=1, max_size=4, unique_by=lambda cells: cells[2]))
    return MANIFEST_HEADER, rows, ()


@st.composite
def corrupted(draw, valid_file):
    """(file text, 1-based line of the corrupted row) of a valid file with one bad row."""
    header, rows, numeric = draw(valid_file)
    lines = [header] + [",".join(cells) for cells in rows]
    bad = draw(st.integers(1, len(rows)))
    cells = list(rows[bad - 1])
    modes = ["add", "drop"] + (["text"] if numeric else [])
    mode = draw(st.sampled_from(modes))
    if mode == "add":
        cells.append("1")
    elif mode == "drop":
        cells.pop()
    else:
        cells[draw(st.sampled_from(list(numeric)))] = draw(st.sampled_from(["oops", "1.2.3", "x1"]))
    lines[bad] = ",".join(cells)
    # blank lines before, between and after the rows
    text_lines = []
    line_of_bad = 0
    for idx, line in enumerate(lines):
        text_lines += draw(st.lists(BLANKS, max_size=2))
        text_lines.append(line)
        if idx == bad:
            line_of_bad = len(text_lines)
    text_lines += draw(st.lists(BLANKS, max_size=2))
    return "\n".join(text_lines) + "\n", line_of_bad


PARSERS = {
    "grid": (grid_file(), lambda path: load_grid(path, "r1")),
    "curve": (curve_file(), load_curve),
    "profile": (profile_file(), ScenarioProfile.from_csv),
    "trajectory": (trajectory_file(), read_trajectory),
    # parses the whole manifest before it runs any entry
    "manifest": (manifest_file(), lambda path: _cmd_batch(argparse.Namespace(manifest=str(path), jobs=1))),
}
# a valid manifest would go on to run its (made-up) entries
SINGLE_FILE_PARSERS = [kind for kind in PARSERS if kind != "manifest"]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", list(PARSERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bad_row_names_file_and_line(kind, data):
    fmt, parse = PARSERS[kind]
    text, line = data.draw(corrupted(fmt))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse(path)
    assert f"{path} row {line}: " in str(info.value)


@pytest.mark.parametrize("kind", SINGLE_FILE_PARSERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_valid_file_with_blank_lines_parses(kind, data):
    fmt, parse = PARSERS[kind]
    header, rows, _ = data.draw(fmt)
    lines = [header] + [",".join(cells) for cells in rows]
    blanks = data.draw(st.lists(BLANKS, min_size=len(lines), max_size=len(lines)))
    text = "".join(f"{blank}\n{line}\n" for blank, line in zip(blanks, lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        path.write_text(text)
        parse(path)


def _cli_case(kind: str, tmp: Path) -> tuple[Path, list[str]]:
    """Where the corrupted file goes, and the argv of the command that reads it."""
    bad = tmp / f"bad_{kind}.csv"
    config = tmp / "scenario.cfg"
    profile = tmp / "profile.csv"
    profile.write_text(PROFILE_HEADER + "\n0,plugged,11040,20,\n60,idle,0,20,\n")
    config.write_text("")
    if kind == "grid":
        data = tmp / "data"
        shutil.copytree(default_data_dir(), data)
        bad = data / f"{PARAM_NAMES[2]}.csv"
        config.write_text(f"data_dir = {data}\n")
    elif kind == "curve":
        config.write_text(f"ramp_curve = {bad}\n")
    elif kind == "profile":
        profile = bad
    elif kind == "trajectory":
        return bad, ["metrics", "--sim", str(bad), "--ref", str(bad)]
    else:
        return bad, ["batch", "--manifest", str(bad)]
    return bad, ["simulate", "--config", str(config), "--profile", str(profile), "--out", str(tmp / "out")]


@pytest.mark.parametrize("kind", list(PARSERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cli_reports_bad_row_in_one_line(kind, data):
    text, line = data.draw(corrupted(PARSERS[kind][0]))
    with tempfile.TemporaryDirectory() as tmp:
        bad, argv = _cli_case(kind, Path(tmp))
        bad.write_text(text)
        code, err = _run_cli(argv)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{bad} row {line}: " in err


@pytest.mark.parametrize("kind", list(PARSERS))
def test_missing_and_empty_files_name_the_path(kind, tmp_path):
    parse = PARSERS[kind][1]
    missing = tmp_path / "nope.csv"
    with pytest.raises(ValueError, match=f"missing [a-z]+ file: {re.escape(str(missing))}$"):
        parse(missing)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n  \n")
    with pytest.raises(ValueError, match=re.escape(f"{empty}: empty file")):
        parse(empty)


# a byte that starts no UTF-8 sequence
UNDECODABLE = b"\xff"


@pytest.mark.parametrize("kind", ["config"] + list(PARSERS))
def test_undecodable_file_names_the_path(kind, tmp_path):
    parse = load_config if kind == "config" else PARSERS[kind][1]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(UNDECODABLE + b"1,2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot decode the file as text") as info:
        parse(path)
    assert type(info.value) is ValueError


def test_undecodable_byte_past_the_first_read_names_the_path(tmp_path):
    # the trajectory reader's pass reads the file in blocks; the bad byte is in the second
    path = tmp_path / "trajectory.csv"
    row = ",".join(["1.0"] * 11 + ["idle"])
    path.write_bytes(f"{TRAJECTORY_HEADER}\n{row}\n".encode() * 2000 + UNDECODABLE)
    assert path.stat().st_size > 1 << 16
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot decode the file as text"):
        read_trajectory(path)


@pytest.mark.parametrize("kind", ["config"] + list(PARSERS))
def test_cli_reports_an_undecodable_file_in_one_line(kind, tmp_path):
    # the curve case's command reads the config first
    bad, argv = _cli_case("curve" if kind == "config" else kind, tmp_path)
    if kind == "config":
        bad = tmp_path / "scenario.cfg"
    bad.write_bytes(UNDECODABLE + b"1,2\n")
    code, err = _run_cli(argv)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: cannot decode the file as text (")


def _read_row_by_row(path: Path) -> Trajectory:
    """The trajectory reader before the one-call parse, kept as the oracle."""
    rows = []
    flags = []
    for n, cells in read_csv_rows(path, "trajectory", TRAJECTORY_HEADER):
        try:
            rows.append(tuple(map(float, cells[:-1])))
        except ValueError as exc:
            raise ValueError(f"{path} row {n}: non-numeric cell ({exc})") from None
        flags.append(cells[-1])
    return Trajectory.from_rows(rows, flags)


def _outcome(read, path: Path) -> tuple:
    """Bit patterns and dtypes of the columns plus the flags, or the error message."""
    try:
        traj = read(path)
    except ValueError as exc:
        return ("error", str(exc))
    columns = [getattr(traj, name) for name in FLOAT_COLUMNS]
    return [(c.dtype, c.tobytes()) for c in columns], traj.flags


# cells that float() and np.loadtxt may judge differently: underscores,
# padding, the unit separator NumPy strips as whitespace, non-ASCII digits
ODD_CELLS = [
    "1_0", " 1", "1 ", "\x1f1", "1\x1f", " \x1f1", "+1e400", "-0", "1.", ".5", "nan", "-inf", "0x10", "", "\uff11",
]
# the line breaks of str.splitlines besides \n, other whitespace, and the delimiter
FLAG_CHARS = "ab|_ \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029\u3000#\",\r"


@st.composite
def trajectory_text(draw):
    """A trajectory file as emit_report writes it, perhaps with quirks and faults."""
    plain_flags = st.sampled_from(["idle", "drive|soc_clip", ""])
    flag = draw(st.sampled_from([plain_flags, st.text(st.sampled_from(FLAG_CHARS), max_size=4)]))
    rows = draw(st.lists(st.tuples(st.lists(NUMBERS, min_size=11, max_size=11), flag), max_size=6))
    if rows and draw(st.booleans()):
        cells = rows[draw(st.integers(0, len(rows) - 1))][0]
        cells[draw(st.integers(0, 10))] = draw(st.sampled_from(ODD_CELLS))
    header = draw(st.sampled_from([TRAJECTORY_HEADER] * 6 + [TRAJECTORY_HEADER + " ", "t_s,soc"]))
    blank = draw(st.sampled_from([st.just(""), BLANKS | st.just("\u3000")]))
    lines = []
    for line in [header] + [",".join(cells + [f]) for cells, f in rows]:
        lines += draw(st.lists(blank, max_size=1))
        lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=trajectory_text())
def test_trajectory_reader_matches_the_row_by_row_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        path.write_text(text)
        assert _outcome(read_trajectory, path) == _outcome(_read_row_by_row, path)


@pytest.mark.parametrize(
    "row", [c + ",1.0" * 10 + ",idle" for c in ODD_CELLS] + ["1.0," * 11 + f"a{c}b" for c in FLAG_CHARS]
)
def test_odd_cell_reads_as_the_row_by_row_reader_reads_it(row, tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text(f"{TRAJECTORY_HEADER}\n{row}\n{row}\n")
    assert _outcome(read_trajectory, path) == _outcome(_read_row_by_row, path)


@pytest.mark.parametrize("body", ["", "\n", "\n \n\t\n"])
def test_header_only_trajectory_reads_empty_without_a_warning(body, tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text(TRAJECTORY_HEADER + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = read_trajectory(path)
    assert traj.n_rows == 0 and traj.flags == []
    assert all(getattr(traj, name).dtype == np.float64 for name in FLOAT_COLUMNS)


def test_a_written_report_reads_in_one_parse(tmp_path, monkeypatch):
    # over several of the pass's reads, and not a row read by the row-by-row reader
    n = 3000
    traj = Trajectory(*np.random.default_rng(5).random((len(FLOAT_COLUMNS), n)), flags=["drive|soc_clip"] * n)
    traj.t_s = np.arange(1.0, n + 1.0)
    path = emit_report(traj, None, tmp_path)[0]
    assert path.stat().st_size > 3 << 16

    def refuse(*args):
        raise AssertionError("read row by row")

    monkeypatch.setattr(evplant.engine, "read_csv_rows", refuse)
    back = read_trajectory(path)
    for name in FLOAT_COLUMNS:
        assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()
    assert back.flags == traj.flags
