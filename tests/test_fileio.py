import os

import pytest

from grouge.fileio import atomic_output, write_atomic


def test_replaces_existing_file_and_leaves_no_temp_file(tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes(b"old\n")
    write_atomic(out, b"new\n")
    assert out.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_write_keeps_previous_bytes(tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_output(out) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_symlink_destination_replaces_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_atomic(link, b"new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_non_regular_destination_is_written_directly():
    write_atomic(os.devnull, b"discarded\n")
    assert not os.path.isfile(os.devnull)
