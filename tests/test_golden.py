"""Byte-for-byte comparison of CLI outputs with the captured golden files."""

import difflib

import pytest

from tests.golden.capture import GOLDEN, cases, golden_environment, run_case, witnesses


def _compare(name: str, actual: str):
    expected = (GOLDEN / name).read_text()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{name}",
            tofile="actual",
        )
        pytest.fail("".join(diff))


def test_case_table_matches_golden_files():
    expected = {f"{name}.txt" for name in cases()} | {"witnesses.txt"}
    assert {p.name for p in GOLDEN.glob("*.txt")} == expected


@pytest.mark.parametrize("name", sorted(cases()))
def test_cli_output(name):
    with golden_environment():
        actual = run_case(cases()[name])
    _compare(f"{name}.txt", actual)


def test_cycle_witnesses():
    with golden_environment():
        actual = witnesses()
    _compare("witnesses.txt", actual)
