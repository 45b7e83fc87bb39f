import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from tropgw import cli
from tropgw.enumeration import cycle_from_constraints
from tropgw.invariants import CountRequest, weighted_count
from tropgw.weights import curve_weight


DATA = resources.files("tropgw") / "data"
SRC = str(Path(cli.__file__).parent.parent)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def data_path(name: str) -> str:
    return str(DATA / name)


class TestFgamma:
    def test_vertex_weight(self, capsys):
        code, out, _ = run(capsys, "fgamma", data_path("vertex_wedge1.json"),
                           "--order", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["value"]["lowest_exponent"] == 1
        assert doc["value"]["coefficients"][0] == [1, 1]

    def test_q_mode(self, capsys):
        code, out, _ = run(capsys, "fgamma", data_path("vertex_wedge1.json"),
                           "--mode", "q", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "q"
        assert doc["value"] == [[-1, [-1, 1]], [1, [-1, 1]]]

    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "fgamma", str(bad))
        assert code == 2
        assert "bad.json:1" in err

    def test_non_integral_derivative_is_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA / "vertex_wedge1.json").read_text())
        doc["external_edges"][0]["derivative"] = [1.5, 0, 0]
        f = tmp_path / "half.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "fgamma", str(f))
        assert code == 2
        assert out == ""
        assert "Z^3" in err

    @pytest.mark.parametrize("field, value", [("vertices", 5),
                                              ("internal_edges", [5])],
                             ids=["vertices", "internal_edges"])
    def test_non_list_fields_are_exit_2(self, tmp_path, capsys, field, value):
        doc = json.loads((DATA / "vertex_wedge1.json").read_text())
        doc[field] = value
        f = tmp_path / "bad_field.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "fgamma", str(f))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("key, value", [
        ("label", 1.7), ("label", "1"), ("label", True), ("vertex", [0])])
    def test_non_integer_edge_id_is_exit_2(self, tmp_path, capsys, key, value):
        # int() used to read each label as 1, and a list endpoint was refused
        # only by a TypeError with Python's own text
        doc = json.loads((DATA / "vertex_wedge1.json").read_text())
        doc["external_edges"][0][key] = value
        f = tmp_path / "bad_id.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "fgamma", str(f))
        assert code == 2
        assert out == ""
        assert f"external_edges {key} must be an integer" in err

    def test_unsupported_vertex_is_exit_4(self, tmp_path, capsys):
        doc = {"vertices": [0], "internal_edges": [],
               "external_edges": [
                   {"vertex": 0, "derivative": [0, 0, 0], "label": 1},
                   {"vertex": 0, "derivative": [0, 0, 0], "label": 2},
                   {"vertex": 0, "derivative": [0, 0, 0], "label": 3}]}
        f = tmp_path / "allzero.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "fgamma", str(f))
        assert code == 4


class TestCount:
    def test_family_configs_agree(self, capsys):
        vals = []
        for name in ("s3_family1_configA.json", "s3_family1_configB.json"):
            code, out, _ = run(capsys, "count", data_path(name),
                               "--order", "10", "--format", "json")
            assert code == 0
            vals.append(json.loads(out)["value"])
        assert vals[0] == vals[1]

    def test_trace_lists_contributions(self, capsys):
        code, out, _ = run(capsys, "count", data_path("s3_family3_n3_configB.json"),
                           "--order", "8", "--trace", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["trace"]) >= 2
        for c in doc["trace"]:
            assert set(c) >= {"type", "stratum", "index", "aut", "weight"}

    def test_pretty_trace_shows_lambda_weights(self, capsys):
        # each contribution line shows the type's series weight, although
        # the count itself adds q weights
        name = data_path("s3_family3_n3_configB.json")
        code, out, _ = run(capsys, "count", name, "--order", "8", "--seed",
                           "0", "--trace", "--format", "pretty")
        assert code == 0
        req = cli._read(name, CountRequest.from_json)
        res = weighted_count(req, 8)
        lines = out.splitlines()
        assert lines[0] == repr(res.value)
        assert f"{len(res.contributions)} contributions:" in lines
        shown = lines[-len(res.contributions):]
        assert len(shown) >= 2
        for c, line in zip(res.contributions, shown):
            lam = curve_weight(c.ctype, 8, "lambda")
            assert line == (f"  stratum {c.stratum_index}: index "
                            f"{c.lattice_factor}, 1/|Aut| = "
                            f"1/{c.automorphisms}, weight {lam!r}")

    def test_request_bounds_hold_unless_overridden(self, tmp_path, capsys):
        # with no internal edge allowed the family-1 count has no type
        doc = json.loads((DATA / "s3_family1_configA.json").read_text())
        doc["bounds"]["max_internal_edges"] = 0
        f = tmp_path / "request.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "count", str(f), "--order", "6",
                           "--seed", "2", "--format", "json")
        assert code == 0
        got = json.loads(out)
        assert got["value"]["coefficients"] == []
        assert got["bounds"] == doc["bounds"]
        code, out, _ = run(capsys, "count", str(f), "--order", "6",
                           "--max-internal-edges", "8", "--format", "json")
        assert code == 0
        got = json.loads(out)
        assert got["value"]["coefficients"] != []
        assert got["bounds"]["max_internal_edges"] == 8

    def test_byte_identical_reruns(self, capsys):
        args = ("count", data_path("s3_family3_n3_configA.json"),
                "--order", "8", "--seed", "3", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestToricCommands:
    def test_absolute_cp3(self, capsys):
        code, out, _ = run(capsys, "absolute", data_path("cp3.json"),
                           "--degrees", "1", "--points", "2",
                           "--order", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["lowest_exponent"] == 0
        assert doc["value"]["coefficients"][0] == [1, 1]
        assert doc["value"]["coefficients"][2] == [-1, 12]

    def test_dt_p1cubed(self, capsys):
        code, out, _ = run(capsys, "dt", data_path("p1cubed.json"),
                           "--degrees", "1,1,0,0,0,0", "--points", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == [[2, [1, 1]]]

    def test_relative_all_special(self, capsys):
        code, out, _ = run(capsys, "relative",
                           data_path("relative_cp3_all_special.json"),
                           "--order", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["coefficients"][0] == [1, 1]

    def test_class_past_the_edge_bound_counts_nothing(self, capsys):
        # 18 ends need 15 internal edges, past the default bound of 8, so
        # the count is the zero series without a tree shape built
        code, out, _ = run(capsys, "absolute", data_path("cp3.json"),
                           "--degrees", "3", "--points", "6",
                           "--order", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"]["coefficients"] == []

    @pytest.mark.parametrize("top", [0, -1])
    def test_huge_relative_class(self, tmp_path, capsys, top):
        # a degree of 10^30 per ray is checked for balance and codimension
        # without listing its ends; the balanced class past the edge bound
        # used to count nothing, although its two points cut out 6
        # dimensions of 4 * 10^30 + 2
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["degrees"] = [10 ** 30] * 3 + [10 ** 30 + top]
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f), "--format", "json")
        assert code == 2
        assert out == ""
        assert ("do not balance" if top else "codimension") in err

    def test_relative_class_past_the_edge_bound_checks_codimension(
            self, tmp_path, capsys):
        # 14 ends are past the edge bound; the class used to count zero,
        # while the same mismatch within the bound was refused
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["degrees"] = [3] * 4
        f = tmp_path / "degree3.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert "the constraint cycle has codimension 6, expected 14" in err

    def test_huge_absolute_class_checks_codimension(self, capsys):
        code, out, err = run(capsys, "absolute", data_path("cp3.json"),
                             "--degrees", str(10 ** 30), "--points", "2")
        assert code == 2
        assert out == ""
        assert "the constraint cycle has codimension 6" in err

    def test_relative_plane_that_cuts_nothing_is_refused_past_the_edge_bound(
            self, tmp_path, capsys):
        # labels 3-5 are (1, 0, 0) ends, which leave the plane x_0 = 1; past
        # the edge bound this class used to count zero instead
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["degrees"] = [3] * 4
        doc["constraints"].update({str(l): ["plane", 0, 1] for l in range(3, 11)})
        f = tmp_path / "degree3_planes.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "relative", str(f))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "does not constrain an end" in err

    def test_huge_dt_class_is_refused_before_its_ends_are_listed(self):
        # 4 * 10^9 ends used to be listed until memory ran out; run apart
        # under a 1 GiB address space so that a regression fails at once
        code = ("import resource, sys, time\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from tropgw import cli\n"
                "start = time.perf_counter()\n"
                "code = cli.main(sys.argv[1:])\n"
                "assert time.perf_counter() - start < 1\n"
                "sys.exit(code)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "dt", data_path("cp3.json"),
             "--degrees", "1000000000", "--points", "2"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (SRC, os.environ.get("PYTHONPATH")) if p)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "codimension" in proc.stderr

    def test_bad_degree_count_is_exit_2(self, capsys):
        code, _, err = run(capsys, "absolute", data_path("cp3.json"),
                           "--degrees", "1,2", "--points", "2")
        assert code == 2

    @pytest.mark.parametrize("degrees", ["1,,1,1,1", "1,"])
    def test_empty_degree_field_is_exit_2(self, capsys, degrees):
        # empty fields used to be dropped, leaving the [1, 1, 1, 1] class
        code, out, err = run(capsys, "absolute", data_path("cp3.json"),
                             "--degrees", degrees, "--points", "2")
        assert code == 2
        assert out == ""
        assert "bad degree list" in err

    @pytest.mark.parametrize("command", ["absolute", "dt"])
    def test_negative_points_are_exit_2(self, capsys, command):
        # this used to be refused as a count of codimension 0
        code, out, err = run(capsys, command, data_path("cp3.json"),
                             "--degrees", "1", "--points", "-1")
        assert code == 2
        assert out == ""
        assert "points must be a non-negative integer" in err

    def test_float_rays_are_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA / "cp3.json").read_text())
        doc["rays"] = [[float(x) for x in r] for r in doc["rays"]]
        f = tmp_path / "cp3_float.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "absolute", str(f),
                           "--degrees", "1", "--points", "2")
        assert code == 2
        assert "rays must be lists of integers" in err

    def test_planar_rays_are_exit_2(self, tmp_path, capsys):
        f = tmp_path / "planar.json"
        f.write_text(json.dumps({
            "rays": [[1, 0], [0, 1], [-1, -1]],
            "cones": [[0], [1], [2], [0, 1], [0, 2], [1, 2]]}))
        code, out, err = run(capsys, "absolute", str(f),
                             "--degrees", "1", "--points", "0")
        assert code == 2
        assert out == ""
        assert "Z^3" in err


class TestEnumerate:
    def test_lists_types(self, capsys):
        code, out, _ = run(capsys, "enumerate", data_path("ends_family3_n2.json"),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        assert len(doc["types"]) == 4

    def test_non_integral_ends_are_exit_2(self, tmp_path, capsys):
        # truncating 1.5 to 1 would enumerate the types of other ends
        f = tmp_path / "half.json"
        f.write_text(json.dumps(
            {"ends": [[1.5, 0, 0], [0, 1, 0], [-1.5, 0, 2], [0, -1, -2]]}))
        code, out, err = run(capsys, "enumerate", str(f))
        assert code == 2
        assert out == ""
        assert "ends must be lists of integers" in err


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("absolute", "--degrees", "1"),
        ("dt", "--degrees", "1"),
        ("count",),
        ("fgamma",),
        ("enumerate",),
        ("relative",),
    ])
    def test_top_level_list_is_exit_2(self, tmp_path, capsys, argv):
        f = tmp_path / "list.json"
        f.write_text("[1, 2]")
        code, _, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 2
        assert "expected a JSON object" in err

    def test_relative_degree_count_is_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["degrees"].append(0)
        f = tmp_path / "relative_extra_degree.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "relative", str(f))
        assert code == 2
        assert "one degree per ray required" in err

    @pytest.mark.parametrize("field, value, message", [
        ("connectedness", "conected", "unknown connectedness"),
        ("bounds", {"max_genus": 5, "max_edges": 8}, "bounds must map"),
        ("bounds", {"max_genus": "5"}, "bounds must map"),
        ("base", 3, "base entries"),
        ("base", [3, 0], "base entries"),
        ("multiplicity", [1, 0], "multiplicity entries"),
        ("multiplicity", [1.5, 1], "multiplicity entries"),
        # a number where a list or object belongs used to escape as a
        # TypeError traceback with exit code 1; the message names the field
        ("ends", 5, "ends must be"),
        ("cycle", 4, "cycle must be"),
        ("strata", 3, "strata must be"),
        ("base list", 7, "base entries"),
        # the seed is a command-line option, never a search bound
        ("bounds", {"max_genus": 5, "seed": 0}, "bounds must map some of "
         "max_internal_edges, max_genus, max_derivative_norm to integers"),
    ])
    def test_malformed_count_request_is_exit_2(self, tmp_path, capsys,
                                                field, value, message):
        doc = json.loads((DATA / "s3_family1_configA.json").read_text())
        stratum = doc["cycle"]["strata"][0]
        if field == "base":
            stratum["base"][0] = value
        elif field == "base list":
            stratum["base"] = value
        elif field == "multiplicity":
            stratum["multiplicity"] = value
        elif field == "strata":
            doc["cycle"]["strata"] = value
        else:
            doc[field] = value
        f = tmp_path / "request.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "count", str(f))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("field, value", [
        ("spanning", 1.5),
        ("spanning", "1"),
        ("spanning", True),
        ("ambient_dim", 8.0),
        ("ambient_dim", "8"),
    ])
    def test_non_integer_cycle_entry_is_exit_2(self, tmp_path, capsys,
                                               field, value):
        # int() used to read each of these as the integer next to it
        doc = json.loads((DATA / "s3_family1_configA.json").read_text())
        if field == "spanning":
            doc["cycle"]["strata"][0]["spanning"][0][1] = value
        else:
            doc["cycle"][field] = value
        f = tmp_path / "request.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "count", str(f))
        assert code == 2
        assert out == ""
        assert field in err

    def test_unknown_mode_is_exit_2(self, tmp_path, capsys):
        # two opposite ends have no general type, so no weight is ever
        # computed in the unknown mode: the request itself must be refused
        ends = ((1, 0, 0), (-1, 0, 0))
        cyc = cycle_from_constraints(ends, {1: ("point", (0, 0, 0))})
        doc = CountRequest(ends, cyc).to_json()
        doc["mode"] = "lamda"
        f = tmp_path / "request.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "count", str(f))
        assert code == 2
        assert out == ""
        assert "unknown mode" in err

    @pytest.mark.parametrize("field, value, message", [
        ("alpha_ends", [[1, 0]], "alpha_ends must be lists"),
        ("alpha_ends", [[0, [0], 0], [0, 0, 0]], "alpha_ends must be lists"),
        ("constraints", [1], "constraints must map"),
        ("fan", 5, "fan must be an object"),
    ])
    def test_malformed_relative_request_is_exit_2(self, tmp_path, capsys,
                                                  field, value, message):
        # each of these used to escape as an IndexError, TypeError or
        # AttributeError traceback with exit code 1
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc[field] = value
        f = tmp_path / "relative_request.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("degree", ["1", 1.0])
    def test_non_integer_relative_degree_is_exit_2(self, tmp_path, capsys,
                                                   degree):
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["degrees"][0] = degree
        f = tmp_path / "relative_degree.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert "degrees must be integers" in err

    def test_plane_coordinate_out_of_range_is_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["constraints"]["1"] = ["plane", 5, 0]
        f = tmp_path / "relative_plane.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert "plane coordinate" in err

    @pytest.mark.parametrize("constraint", [
        ["point"],
        [],
        ["point", [1.1, 0, 0]],
        ["point", [True, 0, 0]],
        ["point", [0, 0, 0], 1],
        ["plane", 0.0, 0],
        ["plane", 2, 1.5],
    ])
    def test_malformed_relative_constraint_is_exit_2(self, tmp_path, capsys,
                                                     constraint):
        # a missing coordinate used to raise IndexError, and a float or bool
        # coordinate was read as a binary fraction without notice
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["constraints"]["1"] = constraint
        f = tmp_path / "relative_constraint.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert "a constraint is" in err

    @pytest.mark.parametrize("label", ["9", "0"])
    def test_constraint_on_missing_label_is_exit_2(self, tmp_path, capsys,
                                                   label):
        # the request has six ends; the constraint used to be dropped
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["constraints"][label] = ["point", [5, 5, 5]]
        f = tmp_path / "relative_label.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert "labeled 1..6" in err

    @pytest.mark.parametrize("label", ["01", "\u0661"])
    def test_non_canonical_constraint_label_is_exit_2(self, tmp_path, capsys,
                                                      label):
        # each of these names end 1, whose own constraint the last key used
        # to replace without notice
        doc = json.loads((DATA / "relative_cp3_all_special.json").read_text())
        doc["constraints"][label] = ["point", [5, 5, 5]]
        f = tmp_path / "relative_label.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "relative", str(f))
        assert code == 2
        assert out == ""
        assert f"{f}: constraints must map" in err

    def test_non_integer_special_rays_are_exit_2(self, tmp_path, capsys):
        doc = json.loads((DATA / "cp3.json").read_text())
        doc["special_rays"] = ["a"]
        f = tmp_path / "cp3_special.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "absolute", str(f),
                           "--degrees", "1", "--points", "2")
        assert code == 2
        assert "special_rays must be a list of integers" in err


class TestVerifyIdentities:
    def test_s4_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--suite", "s4",
                           "--order", "12", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0

    def test_pretty_output_has_pass_lines(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--suite", "dt",
                           "--order", "10")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite_is_exit_2(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "verify-identities", "--suite", "nope")


class TestGenusBound:
    def test_huge_max_genus_stops_at_the_last_layer(self):
        # each layer adds an internal edge, so the layers run out long before
        # max_genus; the loop used to go on through empty layers
        def enumerate_ends(max_genus):
            return subprocess.run(
                [sys.executable, "-m", "tropgw", "enumerate",
                 data_path("ends_family3_n2.json"), "--max-genus", max_genus],
                capture_output=True, timeout=30, check=True,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))).stdout

        assert enumerate_ends("1000000000000") == enumerate_ends("5")

