"""Mutation fuzz over every bundled input file.

Each file is fed, after one random mutation, to the parser of its kind.  The
parser must return or raise ValueError, and a document it refuses must make
the command line exit 2 with nothing on stdout.  Accepted documents are not
run: a mutation may ask for an enumeration that never ends (a huge
max_derivative_norm, say), which is a budget question, not a parse one.
"""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from tropgw import cli
from tropgw.invariants import CountRequest, ToricFan
from tropgw.tropcurve import CurveType

DATA = resources.files("tropgw") / "data"

# file -> (parser, command line with the file in place of "{}")
_FAN = (ToricFan.from_json, ["absolute", "{}", "--degrees", "1"])
_TYPE = (CurveType.from_json, ["fgamma", "{}"])
_COUNT = (CountRequest.from_json, ["count", "{}"])
KINDS = {
    "cp3.json": _FAN,
    "p1cubed.json": _FAN,
    "ends_family3_n2.json": (cli._ends, ["enumerate", "{}"]),
    "gamma_mu_1111.json": _TYPE,
    "gamma_mu_21.json": _TYPE,
    "vertex_wedge1.json": _TYPE,
    "relative_cp3_all_special.json": (cli._relative, ["relative", "{}"]),
    "s3_family1_configA.json": _COUNT,
    "s3_family1_configB.json": _COUNT,
    "s3_family3_n3_configA.json": _COUNT,
    "s3_family3_n3_configB.json": _COUNT,
}

REPLACEMENTS = [None, True, False, 1.5, "1", 10 ** 30, [], {}]


def test_every_bundled_file_has_a_kind():
    assert sorted(p.name for p in DATA.iterdir()
                  if p.name.endswith(".json")) == sorted(KINDS)


def _paths(doc, prefix=()):
    """Every key or index path below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _mutate(doc, path, op):
    """doc with op applied at path: ("set", value), ("drop",), ("wrap",) or
    ("dup",); None when op does not apply there."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    k = path[-1]
    if op[0] == "set":
        parent[k] = op[1]
    elif op[0] == "drop":
        del parent[k]
    elif op[0] == "wrap":
        parent[k] = [parent[k]]
    elif isinstance(parent, list):
        parent.insert(k, parent[k])
    else:
        return None
    return doc


_OPS = st.one_of(st.sampled_from(REPLACEMENTS).map(lambda v: ("set", v)),
                 st.sampled_from([("drop",), ("wrap",), ("dup",)]))


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_input_is_parsed_or_refused(tmp_path_factory, name, data):
    parse, argv = KINDS[name]
    doc = json.loads((DATA / name).read_text())
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths), label="path")
    mutated = _mutate(doc, path, data.draw(_OPS, label="op"))
    if mutated is None:
        return
    try:
        parse(mutated)
        return
    except ValueError:
        pass
    f = tmp_path_factory.mktemp("fuzz") / name
    f.write_text(json.dumps(mutated))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("{}", str(f)) for a in argv])
    assert code == 2, err.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {f}: ")

