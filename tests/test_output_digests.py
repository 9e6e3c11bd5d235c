"""The output digest script that compares two trees' outputs."""
import importlib.util
import pathlib
import re

SCRIPT = (pathlib.Path(__file__).resolve().parents[1]
          / "tools" / "output_digests.py")


def test_digests_repeat_and_are_well_formed():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    first, second = mod.digests(20), mod.digests(20)
    assert first == second
    assert len(first) == 4 + 3 + 2 + 2 * 4 + 4
    assert all(re.fullmatch(r"[0-9a-f]{16}", v) for v in first.values())
