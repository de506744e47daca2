import errno
import os
import sys

import numpy as np
import pytest

from conftest import fourbus_gen
from gridpilot import fileio, nn, scenario


class HalfWriter:
    """A file whose write stores half the data, then fails as a full disk would."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


FLOAT_MAX_INT = int(sys.float_info.max)

# (hint, JSON value, accepted?): float takes an integer or a finite real, and
# str, int and bool take only their own JSON kind
SCALAR_CASES = [
    (float, 3, True),
    (float, -0.25, True),
    (float, FLOAT_MAX_INT, True),
    (float, True, False),
    (float, float("nan"), False),
    (float, float("inf"), False),
    (float, float("-inf"), False),
    (float, "1.0", False),
    (float, None, False),
    (float, FLOAT_MAX_INT * 2, False),
    (str, "b2", True),
    (str, 2, False),
    (str, None, False),
    (str, ["b2"], False),
    (int, 7, True),
    (int, 7.0, False),
    (int, True, False),
    (int, "7", False),
    (bool, False, True),
    (bool, 0, False),
    (bool, "true", False),
    (float | None, None, True),
    (float | None, 2, True),
    (float | None, float("nan"), False),
]


@pytest.mark.parametrize("hint, value, accepted", SCALAR_CASES)
def test_from_json_scalar_hints(hint, value, accepted):
    if accepted:
        got = fileio.from_json(hint, value, "cfg.x")
        assert got is value
        return
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    with pytest.raises(ValueError) as exc_info:
        fileio.from_json(hint, value, "cfg.x")
    assert str(exc_info.value) == f"cfg.x must be of type {name}, got {value!r}"


@pytest.fixture()
def full_disk(monkeypatch):
    """Make every write_atomic fail part-way through its temporary file."""
    def turn_on():
        monkeypatch.setattr(fileio, "open", HalfWriter, raising=False)
    return turn_on


def test_write_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    fileio.write_atomic(path, "old\n")
    fileio.write_atomic(path, "new contents\n")
    assert path.read_text() == "new contents\n"
    fileio.write_atomic(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_writes_keep_old_files(tmp_path, feeder4, full_disk):
    sset = scenario.generate_scenario_set(feeder4, fourbus_gen(3), seed=1)
    csv_path = tmp_path / "s.csv"
    ckpt = tmp_path / "m.ckpt"
    summary = tmp_path / "summary.json"
    writers = [
        lambda: scenario.write_scenario_set(sset, feeder4, csv_path),
        lambda: nn.save_checkpoint(ckpt, {"w": np.arange(6.0)}, {"kind": "test"}),
        lambda: fileio.write_json(summary, {"command": "test", "values": list(range(50))}),
        lambda: fileio.write_csv(tmp_path / "t.csv", ("x", "y"), [(i, 0.5 * i) for i in range(50)]),
    ]
    for write in writers:
        write()
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert sorted(before) == ["m.ckpt", "s.csv", "s.csv.meta.json", "summary.json", "t.csv"]

    full_disk()
    for write in writers:
        with pytest.raises(OSError):
            write()
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == before  # old bytes intact, no temporary file left behind


def test_write_json_never_leaves_a_partial_file(tmp_path):
    path = tmp_path / "summary.json"
    fileio.write_json(path, {"ok": 1})
    with pytest.raises(TypeError):
        fileio.write_json(path, {"a": 1, "b": object()})  # fails while serializing
    assert path.read_text() == '{\n  "ok": 1\n}\n'
    assert os.listdir(tmp_path) == ["summary.json"]


def test_write_csv_encodes_cells(tmp_path):
    path = tmp_path / "t.csv"
    fileio.write_csv(path, ("name", "x", "n"),
                     [("a", np.float64(0.1), np.int64(7)), ("b", 1e-300, 2), ("c", -0.0, True)])
    assert path.read_bytes() == b"name, x, n\na,0.1,7\nb,1e-300,2\nc,-0.0,True\n"
    fileio.write_csv(path, ("only",), [])
    assert path.read_bytes() == b"only\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_write_csv_leaves_nothing_when_rows_raise(tmp_path):
    def rows():
        yield (1, 0.5)
        raise RuntimeError("row source failed")

    path = tmp_path / "t.csv"
    with pytest.raises(RuntimeError):
        fileio.write_csv(path, ("a", "b"), rows())
    assert os.listdir(tmp_path) == []
    fileio.write_csv(path, ("a", "b"), [(1, 0.5)])
    with pytest.raises(RuntimeError):
        fileio.write_csv(path, ("a", "b"), rows())
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_text() == "a, b\n1,0.5\n"
