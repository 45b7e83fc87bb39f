"""Byte-identity gate for refactors behind the weights and the commands.

One sha256 covers the sort_keys JSON of
  * the lambda weight, q weight and weight_trace of every loop-family type
    Gamma_mu with |mu| <= 5, each from cold caches, under one key per seed
    0 and 15 (no weight depends on a seed, so the two entries of a type are
    equal; the keys keep the digest);
  * exit code and stdout of every bundled absolute / dt / count / fgamma /
    relative / enumerate command-line input and of the s4 and dt identity
    suites, in JSON format with the trace on.
A change that moves any exact value, index, automorphism count or trace
entry changes the digest.  A deliberate change of an output must update
PINNED together with a note of what moved and why.

PINNED enumerates only at max_derivative_norm 0.  ENUMERATION_PINNED holds
the sha256 of the sort_keys JSON of the types of two more enumerations: one
through the loop-edge search, one through the parallel splittings of
non-primitive edges.

    PYTHONPATH=src python tests/test_pinned_outputs.py OUT.json

writes the pinned document itself (sorted keys, indented), and next to it, in
OUT.enumerations.json, the two type lists behind ENUMERATION_PINNED, so the
documents of two checkouts can be diffed to see what moved.
"""

import contextlib
import hashlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from tropgw import cli, weights
from tropgw.enumeration import SearchBounds, _partitions, enumerate_curve_types
from tropgw.identities import gamma_mu

DATA = resources.files("tropgw") / "data"
ORDER = 20
SEEDS = (0, 15)

# Last moved when SearchBounds dropped its seed field: the only difference
# is the removed "seed" key of the "bounds" object in each of the 34 command
# outputs, which always repeated the top-level "seed"; every value stayed.
PINNED = "10344fa0d61a8a5a34767ab8617cfe88ec3a219adc7675243c84db15bb396de5"

_CP3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
_MARK = (0, 0, 0)

# (ends, bounds, number of types, digest)
ENUMERATION_PINNED = [
    (_CP3 + [_MARK], SearchBounds(5, 1, 1), 48,
     "635faa7917dbfb6b87a7a5bb407d5d2995b1387a8a4fb5ad6263f6a9adef234e"),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, -2, -2), _MARK], SearchBounds(),
     60, "8c8cbe4713ea6d1d7ec8fa65f7e8410de44cf25435a413d0d6ac3e08265f2013"),
]

CLI_INPUTS = [
    ["absolute", "cp3.json", "--degrees", "1", "--points", "2"],
    ["absolute", "p1cubed.json", "--degrees", "1,1,0,0,0,0", "--points", "1"],
    ["dt", "cp3.json", "--degrees", "1", "--points", "2"],
    ["dt", "p1cubed.json", "--degrees", "1,1,0,0,0,0", "--points", "1"],
    ["count", "s3_family1_configA.json"],
    ["count", "s3_family1_configB.json"],
    ["count", "s3_family3_n3_configA.json"],
    ["count", "s3_family3_n3_configB.json"],
    ["relative", "relative_cp3_all_special.json"],
] + [["fgamma", name, "--mode", mode]
     for name in ("vertex_wedge1.json", "gamma_mu_21.json",
                  "gamma_mu_1111.json")
     for mode in ("lambda", "q")] + [
    ["enumerate", "ends_family3_n2.json"],
    ["enumerate", "ends_family3_n2.json", "--disconnected"],
    ["verify-identities", "--suite", "s4"],
    ["verify-identities", "--suite", "dt"],
]


def _weights_document() -> dict:
    doc = {}
    for n in range(1, 6):
        for mu in _partitions(n):
            t = gamma_mu(n, mu)
            for seed in SEEDS:
                weights.clear_caches()
                doc[f"{mu} seed {seed}"] = {
                    "lambda": weights.curve_weight(
                        t, ORDER, "lambda", seed).to_json(),
                    "q": weights.curve_weight(t, ORDER, "q", seed).to_json(),
                    "trace": weights.weight_trace(t),
                }
    weights.clear_caches()
    return doc


def _cli_document() -> dict:
    doc = {}
    for args in CLI_INPUTS:
        argv = [str(DATA / a) if a.endswith(".json") else a for a in args]
        argv += ["--format", "json", "--trace", "--seed", "0"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        doc[" ".join(args)] = [code, buf.getvalue()]
    weights.clear_caches()
    return doc


def pinned_document() -> dict:
    return {"weights": _weights_document(), "cli": _cli_document()}


def pinned_digest() -> str:
    return hashlib.sha256(
        json.dumps(pinned_document(), sort_keys=True).encode()).hexdigest()


def test_weights_traces_and_cli_outputs_are_pinned():
    assert pinned_digest() == PINNED


ENUMERATION_IDS = ["loop-edge search", "parallel splits"]


def _types_document(ends, bounds) -> list:
    return [t.to_json() for t in enumerate_curve_types(ends, bounds)]


@pytest.mark.parametrize("ends,bounds,count,digest", ENUMERATION_PINNED,
                         ids=ENUMERATION_IDS)
def test_enumerations_are_pinned(ends, bounds, count, digest):
    types = _types_document(ends, bounds)
    assert len(types) == count
    assert hashlib.sha256(json.dumps(
        types, sort_keys=True).encode()).hexdigest() == digest


def _dump(doc, path) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: test_pinned_outputs.py OUT.json")
    out = Path(sys.argv[1])
    _dump(pinned_document(), out)
    _dump({name: _types_document(ends, bounds) for name, (ends, bounds, _, _)
           in zip(ENUMERATION_IDS, ENUMERATION_PINNED)},
          out.with_suffix(".enumerations.json"))
