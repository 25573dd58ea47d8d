import json

from kdgraph.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_derived_fact_file(self, capsys, fixtures_dir):
        code, out, _ = _run(capsys, "derive", str(fixtures_dir / "photosynthesis.facts"))
        assert code == 0
        assert "has(photosynthesis, first_subevent, light_reaction)." in out
        assert "has(light_reaction, next_event, calvin_cycle)." in out

    def test_json_format(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "derive",
            str(fixtures_dir / "photosynthesis.facts"),
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert all(r["provenance"]["kind"] == "derived" for r in rows)

    def test_byte_identical_runs(self, capsys, fixtures_dir):
        _, first, _ = _run(capsys, "derive", str(fixtures_dir / "eukaryote.facts"))
        _, second, _ = _run(capsys, "derive", str(fixtures_dir / "eukaryote.facts"))
        assert first == second

    def test_root_scoping(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "derive",
            str(fixtures_dir / "eukaryote.facts"),
            "--root",
            "synthesis_of_rna_in_eukaryote",
        )
        assert code == 0
        assert "eukaryotic_translation" not in out

    def test_output_file(self, capsys, tmp_path, fixtures_dir):
        target = tmp_path / "derived.facts"
        code, out, _ = _run(
            capsys,
            "derive",
            str(fixtures_dir / "photosynthesis.facts"),
            "-o",
            str(target),
        )
        assert code == 0 and out == ""
        assert "first_subevent" in target.read_text()

    def test_broken_chain_diagnostic_on_stderr(self, capsys, fixtures_dir):
        _, _, err = _run(capsys, "derive", str(fixtures_dir / "eukaryote.facts"))
        assert "WARNING broken-chain" in err

    def test_untyped_node_reported_once(self, capsys, tmp_path):
        # room descends from spatial_entity, which never reaches entity.
        path = tmp_path / "untyped.facts"
        path.write_text(
            "has(l1, instance_of, room).\nhas(room, superclass, spatial_entity).\n"
        )
        code, _, err = _run(capsys, "derive", str(path))
        assert code == 0
        assert [line for line in err.splitlines() if "untyped-node" in line] == [
            "WARNING untyped-node l1 could not be typed"
        ]

    def test_last_subevent_cycle_terminates(self, capsys, tmp_path):
        # last_subevent is in no edge family, so no acyclicity check sees
        # this cycle; IO propagation must still reach its fixpoint.
        path = tmp_path / "last_cycle.facts"
        path.write_text(
            "has(a, instance_of, event).\nhas(b, instance_of, event).\n"
            "has(x, instance_of, entity).\n"
            "has(a, last_subevent, b).\nhas(b, last_subevent, a).\n"
            "has(a, result, x).\n"
        )
        code, out, _ = _run(capsys, "derive", str(path))
        assert code == 0
        assert out.splitlines() == [
            "has(a, output, x). % derived by i4",
            "has(b, output, x). % derived by i19",
            "has(b, result, x). % derived by i22",
        ]

    def test_quiet_verbosity_suppresses_diagnostics(self, capsys, monkeypatch, fixtures_dir):
        monkeypatch.setenv("KDGRAPH_VERBOSITY", "quiet")
        code, _, err = _run(capsys, "derive", str(fixtures_dir / "eukaryote.facts"))
        assert code == 0
        assert err == ""


class TestValidationFailures:
    def test_structural_cycle_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "cycle.facts"
        bad.write_text(
            "has(a, instance_of, event).\nhas(b, instance_of, event).\n"
            "has(a, subevent, b).\nhas(b, subevent, a).\n"
        )
        code, _, err = _run(capsys, "derive", str(bad))
        assert code == 1
        assert "GraphCycleError" in err

    def test_hierarchy_cycle_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "hier.facts"
        bad.write_text("has(a, superclass, b).\nhas(b, superclass, a).\n")
        code, _, err = _run(capsys, "derive", str(bad))
        assert code == 1
        assert "HierarchyCycleError" in err

    def test_syntax_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.facts"
        bad.write_text("has(a, b).\n")
        code, _, err = _run(capsys, "derive", str(bad))
        assert code == 1
        assert "FactSyntaxError" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = _run(capsys, "derive", "no_such_file.facts")
        assert code == 1
        assert err.startswith("ERROR missing-input ")

    def test_output_in_missing_directory_is_an_io_error(self, capsys, tmp_path, fixtures_dir):
        out_path = tmp_path / "nodir" / "out.facts"
        code, out, err = _run(
            capsys, "derive", str(fixtures_dir / "photosynthesis.facts"), "-o", str(out_path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("ERROR io-error ") and err.count("\n") == 1
        assert str(out_path) in err

    def test_patch_in_missing_directory_is_an_io_error(self, capsys, tmp_path, fixtures_dir):
        patch = tmp_path / "nodir" / "p.facts"
        code, _, err = _run(
            capsys, "link", str(fixtures_dir / "photosynthesis.facts"), "--patch", str(patch)
        )
        assert code == 1
        assert err.startswith("ERROR io-error ") and err.count("\n") == 1
        assert str(patch) in err

    def test_directory_input_is_an_io_error(self, capsys, tmp_path):
        code, out, err = _run(capsys, "derive", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("ERROR io-error ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_undecodable_input_is_an_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.facts"
        bad.write_bytes(b"has(a, b, c).\n\xff\n")
        code, out, err = _run(capsys, "derive", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("ERROR io-error ") and err.count("\n") == 1
        assert "0xff" in err
        assert str(bad) in err

    def test_directory_output_is_an_io_error(self, capsys, tmp_path, fixtures_dir):
        code, out, err = _run(
            capsys, "derive", str(fixtures_dir / "photosynthesis.facts"), "-o", str(tmp_path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("ERROR io-error ") and err.count("\n") == 1

    def test_directory_patch_is_an_io_error(self, capsys, tmp_path, fixtures_dir):
        code, _, err = _run(
            capsys, "link", str(fixtures_dir / "photosynthesis.facts"), "--patch", str(tmp_path)
        )
        assert code == 1
        assert err.startswith("ERROR io-error ") and err.count("\n") == 1

    def test_usage_error_exits_two(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["query", "x.facts"])  # missing required --pattern/--x
        assert excinfo.value.code == 2


class TestResolve:
    def test_report_contains_worked_example(self, capsys, fixtures_dir):
        code, out, _ = _run(capsys, "resolve", str(fixtures_dir / "eukaryote.facts"))
        assert code == 0
        payload = json.loads(out)
        matches = {
            (m["from"], m["to"]): m["confidence"] for m in payload["matches"]
        }
        assert matches[("mrna4642", "mrna22911")] == "low"
        spatial = {
            (m["from"], m["to"]): m["confidence"] for m in payload["spatial"]
        }
        assert spatial[("cytoplasm322", "cytosol987")] == "high"
        assert spatial[("cytoplasm322", "cytosol234")] == "low"

    def test_witness_chains_included(self, capsys, fixtures_dir):
        _, out, _ = _run(capsys, "resolve", str(fixtures_dir / "eukaryote.facts"))
        payload = json.loads(out)
        chained = next(
            m
            for m in payload["spatial"]
            if (m["from"], m["to"]) == ("cytoplasm322", "cytosol234")
        )
        assert chained["witness_chain"][0] == "cytoplasm322"
        assert chained["witness_chain"][-1] == "cytosol234"


class TestLink:
    def test_report(self, capsys, fixtures_dir):
        code, out, _ = _run(capsys, "link", str(fixtures_dir / "eukaryote.facts"))
        assert code == 0
        payload = json.loads(out)
        assert payload["possible_next_events"] == [
            ["synthesis_of_rna_in_eukaryote", "eukaryotic_translation"]
        ]
        excluded = {
            (e["from"], e["to"]): e["conditions"] for e in payload["excluded"]
        }
        assert excluded[("move_out", "eukaryotic_translation")] == [2]

    def test_patch_file(self, capsys, tmp_path, fixtures_dir):
        patch = tmp_path / "super.facts"
        code, _, _ = _run(
            capsys,
            "link",
            str(fixtures_dir / "eukaryote.facts"),
            "--patch",
            str(patch),
        )
        assert code == 0
        text = patch.read_text()
        assert "has(super_synthesis_of_rna_in_eukaryote_eukaryotic_translation, subevent, eukaryotic_translation)." in text

    def test_chain_with_shared_parent_is_skipped(self, capsys, tmp_path):
        # a and c are subevents of p; b outside p links them into the
        # chain [a, b, c], which cannot be folded under a new parent.
        kb = tmp_path / "kb.facts"
        kb.write_text(
            "".join(f"has({e}, instance_of, event).\n" for e in "pzabcy")
            + "".join(f"has(p, subevent, {e}).\n" for e in "zacy")
            + "has(z, enables, a).\nhas(a, enables, c).\nhas(c, enables, y).\n"
            "has(a, result, m1).\nhas(b, raw_material, m2).\n"
            "has(b, result, n1).\nhas(c, raw_material, n2).\n"
            "has(m1, instance_of, molecule).\nhas(m2, instance_of, molecule).\n"
            "has(n1, instance_of, protein).\nhas(n2, instance_of, protein).\n"
            + "".join(
                f"has({e}, site, s{e}).\nhas(s{e}, instance_of, compartment).\n"
                for e in "abc"
            )
            + "has(compartment, superclass, spatial_entity).\n"
        )
        patch = tmp_path / "super.facts"
        code, out, err = _run(capsys, "link", str(kb), "--patch", str(patch))
        assert code == 0
        assert err == "WARNING link-chain-skipped a and c already share a parent event\n"
        payload = json.loads(out)
        assert payload["chains"] == [["a", "b", "c"]]
        assert payload["possible_next_events"] == [["a", "b"], ["b", "c"]]
        assert payload["super_events"] == []
        assert patch.read_text() == ""

    def test_min_confidence_threshold(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "link",
            str(fixtures_dir / "eukaryote.facts"),
            "--min-confidence",
            "medium",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["possible_next_events"] == []


class TestQuery:
    def test_how_occurs_json(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "query",
            str(fixtures_dir / "eukaryote.facts"),
            "--pattern",
            "how-occurs",
            "--x",
            "synthesis_of_rna_in_eukaryote",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["answered"] is True
        node_ids = {n["id"] for n in payload["nodes"]}
        assert "move_out" in node_ids

    def test_how_related_dot(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "query",
            str(fixtures_dir / "eukaryote.facts"),
            "--pattern",
            "how-related",
            "--x",
            "eukaryotic_transcription",
            "--y",
            "move_out",
            "--format",
            "dot",
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_unknown_node_exits_one(self, capsys, fixtures_dir):
        code, _, err = _run(
            capsys,
            "query",
            str(fixtures_dir / "eukaryote.facts"),
            "--pattern",
            "how-occurs",
            "--x",
            "ghost",
        )
        assert code == 1
        assert "QueryError" in err


class TestCheck:
    def test_fixture_passes(self, capsys, fixtures_dir):
        code, out, _ = _run(capsys, "check", str(fixtures_dir / "photosynthesis.facts"))
        assert code == 0
        assert "result: pass" in out

    def test_fuzz_flag(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "check",
            str(fixtures_dir / "photosynthesis.facts"),
            "--fuzz",
            "3",
            "--seed",
            "11",
        )
        assert code == 0
        assert "fuzz seed 11" in out


class TestExport:
    def test_dot(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "export",
            str(fixtures_dir / "rooted_cell.facts"),
            "--format",
            "dot",
        )
        assert code == 0
        assert '"export1" [shape=rectangle];' in out

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "export",
            str(fixtures_dir / "rooted_cell.facts"),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variant"] == "kdg"

    def test_facts_round_trip(self, capsys, fixtures_dir):
        from kdgraph.facts import parse_fact_file, parse_fact_path

        code, out, _ = _run(
            capsys,
            "export",
            str(fixtures_dir / "photosynthesis.facts"),
            "--format",
            "facts",
        )
        assert code == 0
        reparsed = parse_fact_file(out)
        original = parse_fact_path(fixtures_dir / "photosynthesis.facts")
        assert original.triples() <= reparsed.triples()

    def test_graph_root(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "export",
            str(fixtures_dir / "eukaryote.facts"),
            "--format",
            "json",
            "--graph-root",
            "synthesis_of_rna_in_eukaryote",
        )
        assert code == 0
        payload = json.loads(out)
        ids = {n["id"] for n in payload["nodes"]}
        assert "eukaryotic_translation" not in ids
