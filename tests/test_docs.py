"""The README's configuration table must list exactly the config fields,
and its tape node counts must be the ones the model records."""
import dataclasses
import re
from pathlib import Path

from livlr.config import PRECISIONS, QUESTION_SETTINGS, RI_VARIANTS, ModelConfig
from test_model import desk_batch_nodes

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_table_tokens() -> set[str]:
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows, "no table under ## Configuration"
    return set(re.findall(r"`([^`]+)`", "\n".join(rows)))


def test_every_config_field_is_in_the_readme_table():
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    assert fields - _config_table_tokens() == set()


def test_readme_table_names_only_fields_and_their_values():
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    known |= set(RI_VARIANTS) | set(QUESTION_SETTINGS) | set(PRECISIONS)
    assert _config_table_tokens() - known == set()


def test_readme_node_counts_match_a_recorded_desk_forward():
    text = README.read_text(encoding="utf-8")
    found = re.findall(r"batch records (\d+) nodes under OE and (\d+)\s+under\s+MC", text)
    assert len(found) == 1, found
    oe, mc = (int(v) for v in found[0])
    assert desk_batch_nodes("OE") == [oe, oe]
    assert desk_batch_nodes("MC") == [mc, mc]
