"""Byte-for-byte comparison of CLI outputs and rule-program models with the
captured golden files."""

import difflib

import pytest

from kdgraph.oracle import encode_program
from tests.golden.capture import (
    GOLDEN,
    cases,
    golden_environment,
    model_names,
    model_text,
    read_models,
    run_case,
    witnesses,
)


def _compare(name: str, actual: str, expected: str | None = None):
    if expected is None:
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


@pytest.fixture(scope="module")
def program():
    return encode_program()


@pytest.fixture(scope="module")
def captured_models():
    return read_models()


def test_model_table_matches_golden_file(captured_models):
    assert list(captured_models) == model_names()


@pytest.mark.parametrize("name", model_names())
def test_oracle_model(name, program, captured_models):
    _compare(f"models.txt#{name}", model_text(name, program), captured_models[name])
