"""README's command-line section names what the harness accepts."""

import re
from pathlib import Path

from stgreedy.harness import _KEYMAP, MODES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_subcommand_list_is_the_modes():
    listed = re.search(r"Subcommands:(.*?)\.\s", README, re.S).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == MODES


def test_config_key_table_names_every_key_once():
    table = README.split("### Config keys", 1)[1].split("\n\n| key |", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]      # past the header
    keys = [key.lower() for row in rows
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(_KEYMAP)
