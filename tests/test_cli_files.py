"""Files the CLI cannot read or write end in exit 2 with one stderr line."""

import pytest

from stgreedy.cli import main

MODULI = """
mode = moduli
field.name = time-power
field.params = 0.25
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
"""


def run(mode, config, capsys):
    code = main([mode, "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error") and err.count("\n") == 1
    return err


def test_a_directory_as_config(tmp_path, capsys):
    # an IsADirectoryError traceback
    assert "Is a directory" in run("moduli", tmp_path, capsys)


def test_a_config_that_is_not_utf8(tmp_path, capsys):
    # a UnicodeDecodeError traceback, exit 1
    cfg = tmp_path / "latin1.txt"
    cfg.write_bytes((MODULI + "# caf\xe9\n").encode("latin-1"))
    assert "can't decode" in run("moduli", cfg, capsys)


@pytest.mark.parametrize("mode, body", [
    ("moduli", MODULI),
    ("rates", "mode = rates\ndata.path = {table}\n"),
], ids=["moduli", "rates"])
def test_an_out_dir_that_is_a_file(tmp_path, capsys, mode, body):
    # a FileExistsError traceback, exit 1
    table = tmp_path / "table.csv"
    table.write_text("m,error\n8,0.3\n16,0.2\n32,0.1\n")
    blocker = tmp_path / "out"
    blocker.write_text("not a directory\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(body.format(table=table) + f"out.dir = {blocker}\n")
    assert "File exists" in run(mode, cfg, capsys)
    assert blocker.read_text() == "not a directory\n"


def test_a_rates_table_that_is_a_directory(tmp_path, capsys):
    # an IsADirectoryError traceback, exit 1
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"mode = rates\ndata.path = {tmp_path}\n"
                   f"out.dir = {tmp_path / 'out'}\n")
    assert "Is a directory" in run("rates", cfg, capsys)
    assert not (tmp_path / "out").exists()
