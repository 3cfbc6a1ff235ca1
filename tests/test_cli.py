import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import utimage
from utimage import cli
from utimage.fields import FieldSpec
from utimage.triangular import StrictUT

from conftest import mat


def write_matrix(path, matrix):
    path.write_text(json.dumps(matrix.to_json_dict()))
    return str(path)


# Witness bytes of two solve cases, as the canonical_json of the witness
# document writes them: sorted keys, 2-space indent, trailing newline.
RATIONAL_WITNESS = """\
{
  "field": "rational",
  "n": 4,
  "polynomial": "-2/3*x1*x2 + 5*x2*x1",
  "target": {
    "entries": [
      {
        "col": 3,
        "row": 1,
        "value": "-5/2"
      },
      {
        "col": 4,
        "row": 1,
        "value": "-1/7"
      },
      {
        "col": 4,
        "row": 2,
        "value": "3"
      }
    ],
    "field": "rational",
    "n": 4
  },
  "verified": true,
  "witness": [
    {
      "entries": [
        {
          "col": 2,
          "row": 1,
          "value": "15/4"
        },
        {
          "col": 3,
          "row": 1,
          "value": "3/14"
        },
        {
          "col": 3,
          "row": 2,
          "value": "-9/2"
        }
      ],
      "field": "rational",
      "n": 4
    },
    {
      "entries": [
        {
          "col": 3,
          "row": 2,
          "value": "1"
        },
        {
          "col": 4,
          "row": 3,
          "value": "1"
        }
      ],
      "field": "rational",
      "n": 4
    }
  ]
}
"""

GF5_WITNESS = """\
{
  "field": "gf:5",
  "n": 4,
  "polynomial": "x1*x2*x3 + 2*x2*x1*x3",
  "target": {
    "entries": [
      {
        "col": 4,
        "row": 1,
        "value": "3"
      }
    ],
    "field": "gf:5",
    "n": 4
  },
  "verified": true,
  "witness": [
    {
      "entries": [
        {
          "col": 2,
          "row": 1,
          "value": "3"
        }
      ],
      "field": "gf:5",
      "n": 4
    },
    {
      "entries": [
        {
          "col": 3,
          "row": 2,
          "value": "1"
        },
        {
          "col": 4,
          "row": 3,
          "value": "1"
        }
      ],
      "field": "gf:5",
      "n": 4
    },
    {
      "entries": [
        {
          "col": 3,
          "row": 2,
          "value": "1"
        },
        {
          "col": 4,
          "row": 3,
          "value": "1"
        }
      ],
      "field": "gf:5",
      "n": 4
    }
  ]
}
"""


@pytest.fixture
def gf7_target(tmp_path):
    spec = FieldSpec.gf(7)
    matrix = mat(5, spec, [(1, 3, 4), (2, 5, 6), (1, 5, 1)])
    return write_matrix(tmp_path / "target.json", matrix), matrix


class TestSolve:
    def test_success_writes_verified_witness(self, tmp_path, gf7_target):
        target_path, matrix = gf7_target
        out = tmp_path / "w.json"
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2-x2*x1",
                "--n",
                "5",
                "--field",
                "gf:7",
                "--target",
                target_path,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verified"] is True
        assert len(doc["witness"]) == 2
        witnesses = [StrictUT.from_json_dict(w) for w in doc["witness"]]
        from utimage.freealg import parse_poly

        f = parse_poly(doc["polynomial"], FieldSpec.from_text(doc["field"]))
        assert f.evaluate(witnesses) == matrix

    def test_witness_reverifies_in_fresh_process(self, tmp_path, gf7_target):
        target_path, _ = gf7_target
        out = tmp_path / "w.json"
        assert (
            cli.main(
                [
                    "solve",
                    "--poly",
                    "x1*x2-x2*x1",
                    "--n",
                    "5",
                    "--field",
                    "gf:7",
                    "--target",
                    target_path,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        script = (
            "import json, sys\n"
            "from utimage.fields import FieldSpec\n"
            "from utimage.freealg import parse_poly\n"
            "from utimage.triangular import StrictUT\n"
            "doc = json.load(open(sys.argv[1]))\n"
            "spec = FieldSpec.from_text(doc['field'])\n"
            "f = parse_poly(doc['polynomial'], spec)\n"
            "target = StrictUT.from_json_dict(doc['target'])\n"
            "witness = [StrictUT.from_json_dict(w) for w in doc['witness']]\n"
            "assert f.evaluate(witness) == target\n"
            "print('ok')\n"
        )
        # The child imports the same utimage package this suite imported.
        env = {**os.environ, "PYTHONPATH": str(Path(utimage.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "ok"

    def test_repeat_runs_are_byte_identical(self, tmp_path, gf7_target):
        target_path, _ = gf7_target
        args = [
            "solve",
            "--poly",
            "x1*x2-x2*x1",
            "--n",
            "5",
            "--field",
            "gf:7",
            "--target",
            target_path,
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "poly,field,entries,expected",
        [
            (
                "-2/3*x1*x2 + 5*x2*x1",
                "rational",
                [(1, 3, "-5/2"), (2, 4, "3"), (1, 4, "-1/7")],
                RATIONAL_WITNESS,
            ),
            ("x1*x2*x3 + 2*x2*x1*x3", "gf:5", [(1, 4, "3")], GF5_WITNESS),
        ],
        ids=["rational", "gf:5"],
    )
    def test_witness_golden(self, tmp_path, capsys, poly, field, entries, expected):
        doc = {
            "n": 4,
            "field": field,
            "entries": [{"row": r, "col": c, "value": v} for r, c, v in entries],
        }
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        code = cli.main(
            ["solve", "--poly", poly, "--n", "4", "--field", field, "--target", str(path)]
        )
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_band_violation_exits_2(self, tmp_path, capsys):
        spec = FieldSpec.gf(7)
        target_path = write_matrix(
            tmp_path / "bad.json", mat(5, spec, [(1, 2, 1)])
        )
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2-x2*x1",
                "--n",
                "5",
                "--field",
                "gf:7",
                "--target",
                target_path,
            ]
        )
        assert code == 2
        assert "(1, 2)" in capsys.readouterr().err

    def test_identity_case_zero_target(self, tmp_path, capsys):
        spec = FieldSpec.gf(2)
        target_path = write_matrix(tmp_path / "zero.json", mat(3, spec, []))
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2*x3",
                "--n",
                "3",
                "--field",
                "gf:2",
                "--target",
                target_path,
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(not w["entries"] for w in doc["witness"])

    def test_missing_target_file(self, tmp_path):
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2",
                "--n",
                "3",
                "--field",
                "gf:2",
                "--target",
                str(tmp_path / "absent.json"),
            ]
        )
        assert code == 1

    def test_malformed_target_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2",
                "--n",
                "3",
                "--field",
                "gf:2",
                "--target",
                str(path),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "field": "gf:2", "entries": [{"row": "1", "col": 2, "value": "1"}]},
            {"n": 3, "field": "gf:2", "entries": [{"row": True, "col": 2, "value": "1"}]},
            {"n": 3, "field": "gf:2", "entries": [{"row": 1.0, "col": 2, "value": "1"}]},
            {"n": 3, "field": "gf:2", "entries": [{"row": 1, "col": False, "value": "1"}]},
            {"n": 3, "field": "gf:2", "entries": 5},
            {"n": 3, "field": "gf:2", "entries": [[1, 2, "1"]]},
            {"n": True, "field": "gf:2", "entries": []},
        ],
    )
    def test_schema_violation_exits_1(self, tmp_path, capsys, doc):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2",
                "--n",
                "3",
                "--field",
                "gf:2",
                "--target",
                str(path),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "field": "gf:2", "entries": [{"row": 1, "col": 3, "value": "%s"}]}'
            % ("1" * 5000),
            '{"n": %s, "field": "gf:2", "entries": []}' % ("1" * 5000),
            "[" * 100_000 + "]" * 100_000,
            "\udcff{",
            "{",
        ],
        ids=["long-value", "long-json-int", "deep-nesting", "bad-utf8", "truncated"],
    )
    def test_unreadable_document_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "target.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = ["solve", "--poly", "x1*x2", "--n", "3", "--field", "gf:2"]
        code = cli.main(argv + ["--target", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_witness_too_long_to_write_exits_1(self, tmp_path, capsys):
        # A valid witness whose entries pass Python's int-to-decimal limit.
        big, small = "7" * 3000, "3" * 3000
        doc = {
            "n": 4,
            "field": "rational",
            "entries": [
                {"row": 1, "col": 3, "value": big},
                {"row": 1, "col": 4, "value": f"{big}/{small}"},
                {"row": 2, "col": 4, "value": f"1/{small}"},
            ],
        }
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        poly = f"--poly={big}*x1*x2 + 1/{small}*x2*x1"
        code = cli.main(
            ["solve", poly, "--n", "4", "--field", "rational", "--target", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: value too long to write")
        assert captured.err.count("\n") == 1

    def test_dimension_mismatch_exits_1(self, gf7_target, capsys):
        # preimage rejects a target of the wrong size or field, and main
        # reports either as exit 1 with one line.
        target_path, _ = gf7_target
        for n, field, message in [
            ("4", "gf:7", "error: target is 5 x 5, not 4\n"),
            ("5", "gf:5", "error: gf:7 target for gf:5 polynomial\n"),
        ]:
            argv = ["solve", "--poly", "x1*x2", "--n", n, "--field", field]
            assert cli.main(argv + ["--target", target_path]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == message

    def test_huge_dimension_is_priced_before_allocating(self, tmp_path, capsys):
        # A 90-byte target can name any n; the (m - 1) * n cell table is
        # priced against the cap before a single row is allocated.
        n = 10**20
        path = tmp_path / "target.json"
        path.write_text(json.dumps(
            {"n": n, "field": "gf:5", "entries": [{"row": 1, "col": 5, "value": "3"}]}
        ))
        argv = ["solve", "--poly", "x1*x2", "--n", str(n), "--field", "gf:5"]
        code = cli.main(argv + ["--target", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: 1 x {n} cells exceed the cap 1000000\n"

    def test_bad_poly_exits_1(self, tmp_path, gf7_target):
        target_path, _ = gf7_target
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x1",
                "--n",
                "5",
                "--field",
                "gf:7",
                "--target",
                target_path,
            ]
        )
        assert code == 1

    def test_internal_failure_exits_3(self, tmp_path, gf7_target, monkeypatch):
        from utimage import errors

        def exploding_preimage(f, n, target, trace=None):
            raise errors.PostconditionViolation("forced for the exit-code test")

        monkeypatch.setattr("utimage.cli.preimage", exploding_preimage)
        target_path, _ = gf7_target
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2",
                "--n",
                "5",
                "--field",
                "gf:7",
                "--target",
                target_path,
            ]
        )
        assert code == 3

    def test_debug_dump(self, tmp_path, gf7_target, capsys):
        target_path, _ = gf7_target
        out = tmp_path / "w.json"
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2-x2*x1",
                "--n",
                "5",
                "--field",
                "gf:7",
                "--target",
                target_path,
                "--out",
                str(out),
                "--debug",
            ]
        )
        assert code == 0
        dump = json.loads(capsys.readouterr().err.strip())
        assert {"k", "l", "value"} <= set(dump["assignment"][0])
        assert dump["systems"]

    def test_debug_dump_golden(self, tmp_path, capsys):
        # At slot 5 the staircase takes the 0 probe for x4: the probe 1
        # would cancel the head over GF(2).  The cells are listed in (slot,
        # variable) order, then each band system's rows: row k holds the
        # coefficients of unknowns k..k+m-1.
        gf2 = FieldSpec.gf(2)
        target = mat(6, gf2, [(1, 5, 1), (2, 6, 1), (1, 6, 1)])
        code = cli.main(
            [
                "solve",
                "--poly",
                "x1*x2*x3*x4 + x1*x2*x4*x3",
                "--n",
                "6",
                "--field",
                "gf:2",
                "--target",
                write_matrix(tmp_path / "target.json", target),
                "--out",
                str(tmp_path / "w.json"),
                "--debug",
            ]
        )
        assert code == 0
        cells = [
            (2, 2, 1), (2, 3, 1), (2, 4, 0),
            (3, 2, 1), (3, 3, 1), (3, 4, 0),
            (4, 2, 1), (4, 3, 1), (4, 4, 1),
            (5, 2, 1), (5, 3, 1), (5, 4, 0),
        ]
        assignment = ", ".join(
            f'{{"k": {k}, "l": {l}, "value": "{v}"}}' for k, l, v in cells
        )
        assert capsys.readouterr().err == (
            f'{{"assignment": [{assignment}], "systems": ['
            '{"diagonal": 5, "rhs": ["1", "1"], '
            '"rows": [["1", "0", "0", "0"], ["1", "0", "0", "0"]]}, '
            '{"diagonal": 6, "rhs": ["1"], "rows": [["1", "0", "0", "0"]]}]}\n'
        )

    def test_debug_dump_rational_golden(self, tmp_path, capsys):
        # The normalized core is x1*x2 - 1/2*x2*x1 and the target is halved,
        # so the dump writes Fractions in the rows and the right-hand
        # sides; zeros in the rows and in the target are written "0".
        rational = FieldSpec()
        target = StrictUT.from_entries(4, rational, [(1, 3, "1/2"), (1, 4, -3)])
        code = cli.main(
            [
                "solve",
                "--poly",
                "2*x1*x2-x2*x1",
                "--n",
                "4",
                "--field",
                "rational",
                "--target",
                write_matrix(tmp_path / "target.json", target),
                "--out",
                str(tmp_path / "w.json"),
                "--debug",
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == (
            '{"assignment": [{"k": 2, "l": 2, "value": "1"}, '
            '{"k": 3, "l": 2, "value": "1"}], "systems": ['
            '{"diagonal": 3, "rhs": ["1/4", "0"], '
            '"rows": [["1", "0"], ["1", "-1/2"]]}, '
            '{"diagonal": 4, "rhs": ["-3/2"], "rows": [["1", "0"]]}]}\n'
        )


class TestHardRationals:
    """Witness bytes over Q on values far from the small ones the seeded
    cases draw: pairwise coprime denominators of 21 to 23 digits,
    unreduced and signed input text (a coefficient may carry its own
    sign), cores whose pivot sums are not 1 and whose off-pivot band
    coefficients are not 0, so that back-substitution divides, a
    one-entry target at n = 40 and a degree-7 core.  Each witness is
    pinned by the SHA-256 of the bytes ``solve`` writes."""

    D0, D1, D2, D3 = 10**20 + 39, 10**20 + 129, 10**21 + 117, 10**22 + 9
    COPRIME = (
        f"x2*x1*x3 - 7/{D0}*x1*x3*x2 + 12345678901234567890/{D1}*x3*x1*x2"
        f" - 5/{D2}*x1*x2*x3"
    )
    QUARTIC = (
        f"x1*x2*x3*x4 + 3/7*x1*x2*x4*x3 - 5/{D0}*x2*x1*x3*x4 + 2/9*x3*x4*x1*x2"
        " - 4/6*x1*x3*x4*x2"
    )
    CASES = {
        "coprime": (COPRIME, 8, [
            (1, 4, f"98765432109876543210987/{D3}"), (1, 6, "4/6"), (2, 6, "-10/15"),
            (3, 7, f"-1/{D2}"), (4, 8, "5"), (1, 8, f"7/{D0}"),
        ], "a5e9134ea851431cc847a7e51c8bba7ad5d1a7e5202809f63ec2de837470fe7b"),
        "unreduced": ("4/6*x1*x2*x3 + -10/15*x1*x3*x2 - 6/4*x2*x1*x3 + 3*x1*x2*x3", 7, [
            (1, 4, "4/6"), (2, 5, "-10/15"), (3, 7, "-12/8"), (1, 7, "0/5"), (2, 7, "+3"),
        ], "c4377ece5a60c7ccb819c9aba8ef0da87cd78a65bb874454ea3fa15b1ca6385e"),
        "quartic": (QUARTIC, 9, [
            (1, 5, "4/6"), (1, 7, f"-10/{D3}"), (2, 7, "3"), (3, 7, f"{D1}/{D0}"),
            (2, 9, "-6/4"), (5, 9, f"{D2}"),
        ], "3fcac0291fdc961c82a7f2f0dea9358b3c42c4b27abd4b5ac126aaf7aa13454c"),
        "one-entry-n40": (QUARTIC, 40, [
            (3, 12, f"-123456789/{D3}"),
        ], "b5ff9f103800c5b3f3f445074401dd0eb01e15c79b9824acb20fb3c148e0760b"),
        "deep": (
            f"-3/{D3}*x1*x2*x3*x4*x5*x6*x7 + 2/{D0}*x1*x3*x2*x4*x5*x6*x7"
            f" + x2*x1*x3*x4*x5*x6*x7 - 4/6*x1*x2*x4*x3*x5*x6*x7"
            f" + 9/{D1}*x3*x2*x1*x5*x4*x7*x6 - 11/{D2}*x1*x2*x3*x4*x5*x7*x6",
            13,
            [(1, 8, "4/6"), (2, 10, f"-10/{D3}"), (1, 13, "-7"), (4, 12, f"1/{D1}"),
             (5, 13, "22/33")],
            "5323529f28051b27a57b8d1b1fe49bd466a67d578eed0bdff6f3f093b4fb6349",
        ),
    }

    def solve(self, tmp_path, capsys, poly, n, entries, *flags):
        doc = {
            "n": n,
            "field": "rational",
            "entries": [{"row": r, "col": c, "value": v} for r, c, v in entries],
        }
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        argv = ["solve", "--poly", poly, "--n", str(n), "--field", "rational"]
        code = cli.main(argv + ["--target", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 0
        return captured

    @pytest.mark.parametrize("name", list(CASES))
    def test_witness_bytes_pinned(self, tmp_path, capsys, name):
        poly, n, entries, digest = self.CASES[name]
        captured = self.solve(tmp_path, capsys, poly, n, entries)
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    def test_a_solve_builds_one_fraction(self, tmp_path, capsys, monkeypatch):
        # From the parsed text to the written witness, values stay integer
        # numerators over shared denominators; the one Fraction a solve
        # builds is the normalizing scale.  Every construction is counted,
        # whoever makes it.
        built = 0
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        poly, n, entries, digest = self.CASES["deep"]
        captured = self.solve(tmp_path, capsys, poly, n, entries)
        monkeypatch.undo()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert built == 1

    def test_debug_dump_pinned(self, tmp_path, capsys):
        # Pivot sums of 16/21 and an off-pivot coefficient over a
        # 21-digit denominator, written as the rows' reduced text.
        d0, d1, d3 = self.D0, self.D1, self.D3
        entries = [(1, 5, "4/6"), (1, 7, f"-10/{d3}"), (2, 7, "3"), (3, 7, f"{d1}/{d0}")]
        captured = self.solve(tmp_path, capsys, self.QUARTIC, 7, entries, "--debug")
        cells = [(k, var, 0 if k < 4 and var == 4 else 1) for k in range(2, 7) for var in (2, 3, 4)]
        assignment = ", ".join(f'{{"k": {k}, "l": {l}, "value": "{v}"}}' for k, l, v in cells)
        off = f'"-5/{d0}"'
        assert captured.err == (
            f'{{"assignment": [{assignment}], "systems": ['
            f'{{"diagonal": 5, "rhs": ["2/3", "0", "{d1}/{d0}"], '
            f'"rows": [["1", "0", "0", "0"], ["16/21", {off}, "0", "0"], '
            f'["16/21", {off}, "2/9", "0"]]}}, '
            '{"diagonal": 6, "rhs": ["0", "3"], '
            f'"rows": [["16/21", "0", "0", "0"], ["16/21", {off}, "0", "0"]]}}, '
            f'{{"diagonal": 7, "rhs": ["-10/{d3}"], "rows": [["16/21", "0", "0", "0"]]}}]}}\n'
        )
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "4af6b261cc5afe5adba17706a8349c004459812bbe9cd2adea559da202e78ba6"
        )


class TestAsciiDigits:
    """The text formats read ASCII digits only: a digit of another script,
    which int() and a Unicode regular expression would take, is refused
    with one line and exit 1 wherever a format reads a decimal."""

    @pytest.mark.parametrize("argv, message", [
        (["--poly", "x١*x٢", "--n", "4"],
         "error: expected a signed term at 'x١*x٢'\n"),
        (["--poly", "٣*x1*x2", "--n", "4"],
         "error: expected a signed term at '٣*x1*x2'\n"),
        (["--poly", "x1*x2", "--n", "4", "--field", "gf:٧"],
         "error: unrecognized field 'gf:٧'\n"),
    ], ids=["variable", "coefficient", "modulus"])
    def test_image_input(self, capsys, argv, message):
        assert cli.main(["image", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    @pytest.mark.parametrize("field, value, message", [
        ("gf:7", "٣", "error: bad GF(7) literal '٣'\n"),
        ("rational", "٣/2", "error: bad rational literal '٣/2'\n"),
    ])
    def test_target_value(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "target.json"
        doc = {"n": 4, "field": field, "entries": [{"row": 1, "col": 3, "value": value}]}
        path.write_text(json.dumps(doc))
        argv = ["solve", "--poly", "x1*x2", "--n", "4", "--field", field, "--target", str(path)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message


class TestImage:
    def test_band(self, capsys):
        assert cli.main(["image", "--poly", "x1*x2-x2*x1", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "Band(1), dim 1"

    def test_zero(self, capsys):
        assert cli.main(["image", "--poly", "x1*x2*x3", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "Zero"

    def test_dim_count(self, capsys):
        assert cli.main(["image", "--poly", "x1*x2", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "Band(1), dim 6"

    def test_json_flag(self, capsys):
        assert cli.main(["image", "--poly", "x1*x2", "--n", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"class": "band", "level": 1, "dimension": 6}

    def test_parse_failure(self):
        assert cli.main(["image", "--poly", "x1*x1", "--n", "3"]) == 1


class TestVerify:
    def test_commutator(self, capsys):
        code = cli.main(
            ["verify", "--poly", "x1*x2-x2*x1", "--n", "3", "--field", "gf:2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matches"] is True
        assert doc["evaluations"] == 64

    def test_cap_exceeded(self, capsys):
        code = cli.main(
            [
                "verify",
                "--poly",
                "x1*x2",
                "--n",
                "6",
                "--field",
                "gf:5",
                "--cap",
                "1000",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 5^15 tail tuples exceed the cap 1000\n"
        )

    @pytest.mark.parametrize(
        "poly,n,field,full,reduced",
        [
            ("x1*x2", "121", "gf:2", "2^7260", "2^7259"),
            ("x1*x2", "300", "gf:2", "2^44850", "2^44849"),
            ("x1*x2", "1000000", "gf:2", "2^499999500000", "2^499999499999"),
            ("x1*x2*x3*x4", "60", "gf:7", "7^5310", "7^5292"),
        ],
    )
    @pytest.mark.parametrize("scan", ["full", "reduce"])
    def test_large_n_hits_the_cap_in_one_line(
        self, capsys, poly, n, field, full, reduced, scan
    ):
        # ``full`` and ``reduced`` are the q^((m-1)*c) tails of each scan,
        # exponents with thousands of digits or more.  They must be refused
        # by their exponent, before any per-entry work.
        flags = ["--reduce"] if scan == "reduce" else []
        code = cli.main(["verify", "--poly", poly, "--n", n, "--field", field, *flags])
        captured = capsys.readouterr()
        tails = reduced if flags else full
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {tails} tail tuples exceed the cap 1000000\n"

    def test_cap_counts_tails_not_tuples(self, capsys):
        # 2^30 argument tuples, but only the 2^15 tails X_2 are scanned,
        # and the scan stops well before the last of them.
        code = cli.main(["verify", "--poly", "x1*x2", "--n", "6", "--field", "gf:2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["matches"] is True
        assert doc["evaluations"] == 2**30
        assert doc["image_size"] == doc["expected_size"] == 2**10

    def test_cap_admits_a_scan_that_stops_at_its_first_tail(
        self, capsys, compile_calls
    ):
        # 2^20 tails X_2, X_3 fill the cap exactly, but the first one, every
        # entry 1, spans the band, so the scan stops there and compiles
        # nothing.
        argv = ["verify", "--poly", "x1*x2*x3", "--n", "5", "--field", "gf:2"]
        code = cli.main([*argv, "--cap", "1048576"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["matches"] is True
        assert doc["evaluations"] == 2**30
        assert doc["image_size"] == doc["expected_size"] == 8
        assert compile_calls == []

    def test_zero_polynomial_stops_at_the_first_tail(self, capsys, compile_calls):
        # x1*x2 + x1*x2 is zero over GF(2): it reaches no entry, so the
        # first tail has full rank on no row and the image is {0}, instead
        # of a scan of all 2^21 tails.  The cap still prices those tails.
        argv = ["verify", "--poly", "x1*x2 + x1*x2", "--n", "7", "--field", "gf:2"]
        code = cli.main([*argv, "--cap", "10000000"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (doc["image_size"], doc["expected_size"], doc["matches"]) == (1, 1, True)
        assert doc["evaluations"] == 2**42
        assert compile_calls == []
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: 2^21 tail tuples exceed the cap 1000000\n"
        )

    def test_rational_field_rejected(self, capsys):
        code = cli.main(
            ["verify", "--poly", "x1*x2", "--n", "3", "--field", "rational"]
        )
        assert code == 1
        assert capsys.readouterr() == ("", "error: verify needs a prime field like gf:2\n")

    def test_reduce_flag(self, capsys):
        code = cli.main(
            [
                "verify",
                "--poly",
                "x1*x2*x3*x4",
                "--n",
                "5",
                "--field",
                "gf:2",
                "--reduce",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matches"] is True and doc["evaluations"] == 65536


class TestSelftest:
    def test_grid_only(self, capsys):
        assert cli.main(["selftest", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "selftest: all checks passed" in out

    def test_small_run_single_field(self, capsys):
        code = cli.main(
            ["selftest", "--trials", "3", "--seed", "42", "--field", "gf:5"]
        )
        assert code == 0
        assert "round-trip gf:5: 3/3 pass" in capsys.readouterr().out

    def test_corrupted_solver_caught(self, capsys, monkeypatch):
        # A build whose solver returns garbage must fail loudly with a
        # reproduction line: back-substitution that returns zeros builds a
        # wrong witness, which preimage's postcondition rejects.
        monkeypatch.setattr(
            "utimage.solver.solve_band",
            lambda matrix, rhs, spec, den: ([0] * (len(matrix) + len(matrix[0]) - 1), 1),
        )
        code = cli.main(
            ["selftest", "--trials", "3", "--seed", "42", "--field", "gf:3"]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL seed=42" in out
        assert "constructed witness does not evaluate to the target" in out

    def test_trials_past_the_cap_are_refused_before_the_grid(self):
        # A subprocess with a timeout, so that a run that is not priced
        # fails here instead of holding up the suite.
        env = {**os.environ, "PYTHONPATH": str(Path(utimage.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "utimage.cli", "selftest", "--trials", str(10**12)],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: 1000000000000 trials on 4 field(s) exceed the cap 250000 round trips\n"
        )

    def test_cap_counts_round_trips_over_the_fields_run(self, capsys):
        code = cli.main(["selftest", "--trials", "250001", "--field", "gf:2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: 250001 trials on 1 field(s) exceed the cap 250000 round trips\n"
        )

    @pytest.mark.parametrize("field", ["gf:4", "bogus"])
    def test_bad_field_refused_before_the_grid(self, capsys, field):
        code = cli.main(["selftest", "--trials", "1", "--field", field])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--poly", "x1*x2", "--n", "3", "--field", "gf:2", "--threads", "2"],
            ["solve", "--poly", "x1*x2", "--n", "abc", "--field", "gf:2", "--target", "t.json"],
            [],
            ["selftest", "--trials", "-1", "--field", "gf:2"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # 2 is reserved for "not in image", so a usage error exits 1 with a
        # one-line message and no usage lines.
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["image", "--poly", "x1", "--n=--"], "image: argument --n"),
            (["selftest", "--trials=--"], "selftest: argument --trials"),
            (["verify", "--poly", "x1", "--n", "3", "--field=--"], "verify: argument --field"),
        ],
    )
    def test_dashdash_after_equals_is_a_missing_value(self, capsys, argv, option):
        # A '--' given after '=' is no value.
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: utimage {option}: expected one argument\n"

    def test_extra_argument_is_reported_by_its_command(self, capsys):
        # Everything after the command name is the command's.
        code = cli.main(["image", "--poly", "x1*x2", "--n", "3", "extra"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: utimage image: unrecognized arguments: extra\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
        ],
    )
    def test_missing_or_unknown_command_is_reported_at_top_level(self, capsys, argv, message):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: utimage: {message}")

    @pytest.mark.parametrize(
        "poly, expected",
        [("-x1*x2", "Band(1), dim 3"), ("-2/3*x1*x2", "Band(1), dim 3")],
    )
    def test_poly_text_starting_with_minus(self, capsys, poly, expected):
        # A value that starts with '-' reads as an option, except after
        # --poly, whose values may start like a number or a variable.
        code = cli.main(["image", "--poly", poly, "--n", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert (captured.out, captured.err) == (expected + "\n", "")

    @pytest.mark.parametrize("command", ["image", "solve"])
    def test_abbreviated_poly_is_unknown(self, capsys, command):
        # Options must be spelled out, so --pol is no --poly whether its
        # value starts with '-' or not: both get the same one-line exit 1.
        rest = {"image": [], "solve": ["--field", "gf:2", "--target", "t.json"]}
        lines = []
        for poly in ("x1*x2", "-x1*x2"):
            code = cli.main([command, "--pol", poly, "--n", "4"] + rest[command])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            lines.append(captured.err)
        assert lines[0] == lines[1]
        assert lines[0] == f"error: utimage {command}: the following arguments are required: --poly\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["image", "--poly", "x" + "1" * 5000, "--n", "3"],
            ["image", "--poly", "1" * 5000 + "*x1", "--n", "3", "--field", "gf:2"],
            ["image", "--poly", "1/" + "1" * 5000 + "*x1", "--n", "3"],
            ["image", "--poly", "x1", "--n", "3", "--field", "gf:" + "1" * 5000],
        ],
        ids=["variable", "residue", "rational", "modulus"],
    )
    def test_over_long_literal_exits_1(self, capsys, argv):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: 5000-character literal is too long\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["image", "--poly", "x1", "--n", "1" * 5000],
            ["verify", "--poly", "x1*x2", "--n", "3", "--field", "gf:2", "--cap", "1" * 5000],
            ["selftest", "--trials", "1" * 5000, "--field", "gf:2"],
        ],
        ids=["n", "cap", "trials"],
    )
    def test_over_long_option_value_exits_1(self, capsys, argv):
        # The rejected value is reported by its length, not echoed whole.
        code = cli.main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        assert len(lines[-1]) < 200
        assert "5000 characters" in lines[-1]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_image_dimension_too_long_to_write_exits_1(self, capsys, as_json):
        # n has 2,200 digits, so the band dimension has about 4,400: past
        # Python's int-to-decimal limit in both output forms.
        argv = ["image", "--poly", "x1", "--n", "9" * 2200]
        code = cli.main(argv + (["--json"] if as_json else []))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: value too long to write: ")

    def test_verify_cap_names_an_over_long_exponent_by_its_digits(self, capsys):
        code = cli.main(["verify", "--poly", "x1*x2", "--n", "9" * 2200, "--field", "gf:2"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 2^(4400-digit exponent) tail tuples exceed the cap 1000000\n"
        )

    def test_repeated_main_calls_share_nothing(self, gf7_target, capsys):
        # No flag may carry over from one call to the next.
        target_path, _ = gf7_target
        solve = ["solve", "--poly", "x1*x2-x2*x1", "--n", "5", "--field", "gf:7",
                 "--target", target_path]
        assert cli.main(solve + ["--debug"]) == 0
        first = capsys.readouterr()
        assert cli.main(["image", "--poly", "x1*x2", "--n", "5", "--json"]) == 0
        capsys.readouterr()
        assert cli.main(solve) == 0
        second = capsys.readouterr()
        assert json.loads(first.err)["systems"]
        assert second.err == ""
        assert second.out == first.out

    def test_help_exits_0(self, capsys):
        assert cli.main(["verify", "--help"]) == 0
        assert "--threads" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, code, out, err",
        [
            (["--help"], 0, "usage: utimage ", ""),
            (["verify", "--help"], 0, "usage: utimage verify ", ""),
            ([], 1, "", "error: utimage: the following arguments are required: command\n"),
        ],
    )
    def test_module_entry_point(self, args, code, out, err):
        env = {**os.environ, "PYTHONPATH": str(Path(utimage.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "utimage.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == code
        assert proc.stdout.startswith(out) if out else proc.stdout == ""
        assert proc.stderr == err


class TestOutFile:
    """``--out`` holds the bytes the same call writes to stdout."""

    VERIFY = ["verify", "--poly", "x1*x2*x3 - x1*x3*x2", "--n", "5", "--field", "gf:2", "--reduce"]

    @staticmethod
    def timeless(data):
        return re.sub(rb'\n  "elapsed_ms": [0-9]+,', b"", data)

    @pytest.mark.parametrize("poly,field,entries", [
        ("x1*x2-x2*x1", "gf:7", [(1, 3, 4), (2, 5, 6), (1, 5, 1)]),
        ("-2/3*x1*x2 + 5*x2*x1", "rational", [(1, 3, "-5/2"), (1, 5, "7/3")]),
    ])
    def test_solve_writes_its_stdout(self, tmp_path, capsys, poly, field, entries):
        target = mat(5, FieldSpec.from_text(field), entries)
        args = ["solve", "--poly", poly, "--n", "5", "--field", field,
                "--target", write_matrix(tmp_path / "target.json", target)]
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / "w.json"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == stdout and stdout.isascii()

    def test_verify_writes_its_stdout(self, tmp_path, capsys):
        assert cli.main(self.VERIFY) == 0
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / "r.json"
        assert cli.main(self.VERIFY + ["--out", str(out)]) == 0
        assert b'"elapsed_ms"' in stdout and stdout.isascii()
        assert self.timeless(out.read_bytes()) == self.timeless(stdout)

    def test_a_short_write_is_continued(self, tmp_path, capsys, monkeypatch):
        # An unbuffered write may take fewer bytes than it is given (Linux
        # takes at most 2 GiB - 4 KiB at once); the rest is written after.
        sizes = []

        class Short:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                sizes.append(len(data))
                return self.handle.write(data[:100])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        assert cli.main(self.VERIFY) == 0
        stdout = capsys.readouterr().out.encode()
        monkeypatch.setattr(cli, "open", lambda *args, **kw: Short(open(*args, **kw)), raising=False)
        out = tmp_path / "r.json"
        assert cli.main(self.VERIFY + ["--out", str(out)]) == 0
        assert len(sizes) > 1 and sizes == sorted(sizes, reverse=True)
        assert self.timeless(out.read_bytes()) == self.timeless(stdout)


class TestImports:
    @pytest.mark.parametrize("command", ["solve", "verify", "image"])
    def test_a_command_loads_only_the_modules_it_runs(self, gf7_target, tmp_path, command):
        # -S leaves out site, whose hooks may preload modules.  Only which
        # modules are loaded is checked, not how long loading takes.
        target_path, _ = gf7_target
        argv = {
            "solve": ["solve", "--poly", "x1*x2-x2*x1", "--n", "5", "--field", "gf:7",
                      "--target", target_path, "--out", str(tmp_path / "w.json")],
            "verify": ["verify", "--poly", "x1*x2", "--n", "4", "--field", "gf:2",
                       "--out", str(tmp_path / "r.json")],
            "image": ["image", "--poly", "x1*x2", "--n", "4"],
        }[command]
        script = (
            "import json, sys\n"
            "from utimage import cli\n"
            "assert cli.main(json.loads(sys.argv[1])) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(utimage.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, json.dumps(argv)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert "utimage.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "typing", "random", "argparse", "gettext"}
        unused = {"utimage.sampling"}
        if command == "verify":
            unused |= {"utimage.solver", "utimage.witness", "utimage.triangular"}
        else:
            unused.add("utimage.oracle")
        assert not loaded & unused
