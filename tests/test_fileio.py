import errno
import os

import numpy as np
import pytest

from conftest import fourbus_gen
from gridpilot import cli, fileio, nn, scenario


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
        lambda: cli._write_json(summary, {"command": "test", "values": list(range(50))}),
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
    cli._write_json(path, {"ok": 1})
    with pytest.raises(TypeError):
        cli._write_json(path, {"a": 1, "b": object()})  # fails while serializing
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
