"""run_check / run_batch behaviour, statuses, report shapes."""

import errno
import gc
import json
import os
import shutil
import threading
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocheck import (
    CheckStatus,
    EntryReport,
    FanoPolytope,
    HodgeDiamond,
    RunReport,
    chi_p,
    check_polytope,
    dim2_corpus,
    dumps_polytope,
    gen_direct_sum,
    run_batch,
    run_check,
)
from fanocheck import invariants, pipeline
from fanocheck.errors import (
    ConsistencyError,
    DegenerateInput,
    HypothesisViolated,
    NegativeCoefficient,
    NotReflexive,
    NotSmooth,
    OriginNotInterior,
    RedundantVertex,
    SerreDualityWarning,
)
from fanocheck import loads_diamond, loads_polytope, read_diamond
from fanocheck.identity import check_betti_chern
from fanocheck.lattice import reflexive_dual
from fanocheck.pipeline import analyze, clear_caches, dumps_json

from conftest import DEEP_DIAMOND, HUGE_INT_DIAMOND, corner_diamond, run_cli

FIXTURES = Path(__file__).parent / "fixtures"


class TestRunCheckToric:
    def test_p2_passes(self):
        entry = run_check(FIXTURES / "p2.poly")
        assert entry.status is CheckStatus.OK
        assert entry.status.exit_code == 0
        ident = entry.payload["identity"]
        assert ident["lhs"] == "2" and ident["rhs"] == "2" and ident["defect"] == "0"
        # A toric entry writes no verdict that restates equality, as the
        # chi-weighted, quarter and face-count forms would there.
        assert sorted(ident) == ["defect", "equality", "inequality_ok", "lhs", "rhs"]
        assert ident["equality"] and ident["inequality_ok"]
        assert all(entry.payload["consistency"].values())

    def test_p2_builds_no_diamond(self, monkeypatch):
        from fanocheck import HodgeDiamond, diamond

        def refuse(self, *args):
            raise AssertionError("a HodgeDiamond was built")

        monkeypatch.setattr(HodgeDiamond, "__init__", refuse)
        monkeypatch.setattr(diamond, "_table", refuse)
        clear_caches()
        assert run_check(FIXTURES / "p2.poly").status is CheckStatus.OK
        # the patch does refuse a diamond file, whose table _table checks
        assert run_check(FIXTURES / "k3.json").status is CheckStatus.INTERNAL_ERROR

    def test_singular_is_validation_error(self):
        entry = run_check(FIXTURES / "singular_dp.poly")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.status.exit_code == 2
        assert "NotSmooth" in entry.error
        assert entry.payload["valid"]["reflexive"] is True
        assert entry.payload["valid"]["smooth"] is False

    def test_not_reflexive(self):
        entry = run_check(FIXTURES / "not_reflexive.poly")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert "NotReflexive" in entry.error

    def test_cube_not_smooth(self):
        entry = run_check(FIXTURES / "cube3.poly")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert "NotSmooth" in entry.error

    def test_parse_error(self):
        entry = run_check(FIXTURES / "bad_header.poly")
        assert entry.status is CheckStatus.PARSE_ERROR
        assert entry.status.exit_code == 2

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "p2.poly"
        path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "p2.poly").read_bytes())
        entry = run_check(path)
        assert entry.status is CheckStatus.OK
        assert entry.payload == run_check(FIXTURES / "p2.poly").payload
        # Only one mark is dropped; a second one is text, as utf-8-sig reads it.
        path.write_bytes(b"\xef\xbb\xbf" * 2 + (FIXTURES / "p2.poly").read_bytes())
        assert run_check(path).status is CheckStatus.PARSE_ERROR

    @pytest.mark.parametrize(
        "header, error",
        [
            ("0 0", "InvalidDimension: dimension must be >= 1, got 0"),
            ("-1 0", "InvalidDimension: dimension must be >= 1, got -1"),
            ("1 0", "DegenerateInput: empty vertex list"),
        ],
    )
    def test_header_with_no_vertices(self, tmp_path, header, error):
        path = tmp_path / "empty.poly"
        path.write_text(f"{header}\n")
        entry = run_check(path)
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.error == error

    def test_missing_file(self, tmp_path):
        entry = run_check(tmp_path / "missing.poly")
        assert entry.status is CheckStatus.PARSE_ERROR

    def test_non_primitive_vertex_file(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("2 3\n2 0\n0 1\n-1 -1\n")
        entry = run_check(path)
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.error == "NonPrimitiveVertex: vertex (2, 0) is not primitive"
        assert entry.payload == {
            "n": 2,
            "vertex_count": 3,
            "valid": {"primitive": False, "spanning": None, "reflexive": None, "smooth": None},
        }

    def test_non_spanning_file(self, tmp_path):
        path = tmp_path / "flat.poly"
        path.write_text("2 2\n1 0\n-1 0\n")
        entry = run_check(path)
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert "DegenerateInput" in entry.error
        assert entry.payload["valid"]["spanning"] is False

    def test_origin_outside_file(self, tmp_path):
        path = tmp_path / "shifted.poly"
        path.write_text("2 3\n1 0\n0 1\n1 1\n")
        entry = run_check(path)
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert "OriginNotInterior" in entry.error
        assert entry.payload["valid"]["spanning"] is True

    @pytest.mark.parametrize(
        "vertices, valid, error",
        [
            (
                [(1, 0), (-1, 0)],
                (False, None, None),
                "DegenerateInput: vertices do not affinely span the ambient space",
            ),
            (
                [(1, 0), (0, 1), (1, 1)],
                (True, None, None),
                "OriginNotInterior: a facet inequality has offset <= 0; "
                "the origin is not strictly interior",
            ),
            (
                # (0, 1) lies on the edge from (2, -1) to (-1, 2)
                [(-1, -1), (2, -1), (-1, 2), (0, 1)],
                (True, None, None),
                "RedundantVertex: point (0, 1) is not a vertex of the convex hull",
            ),
            (
                [(1, 0), (0, 1), (-1, -3)],
                (True, False, None),
                "NotReflexive: a facet lies at lattice distance != 1 from the origin",
            ),
            (
                [(1, 0), (0, 1), (-1, -2)],
                (True, True, False),
                "NotSmooth: facet with normal (1, -1) has vertex determinant != +/-1",
            ),
        ],
    )
    def test_validation_failure_report(self, vertices, valid, error):
        entry = check_polytope(FanoPolytope.from_vertices(vertices), "P")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.error == error
        assert entry.payload == {
            "n": 2,
            "vertex_count": len(vertices),
            "valid": dict(
                zip(("primitive", "spanning", "reflexive", "smooth"), (True, *valid))
            ),
        }

    @pytest.mark.parametrize(
        "source, dual, refusal, valid",
        [
            ([(1, 0), (-1, 0)], False, DegenerateInput, (False, None, None)),
            ([(1, 0), (0, 1), (1, 1)], False, OriginNotInterior, (True, None, None)),
            ([(-1, -1), (2, -1), (-1, 2), (0, 1)], False, RedundantVertex, (True, None, None)),
            ("not_reflexive.poly", False, NotReflexive, (True, False, None)),
            # reflexive_dual refuses the file before any flag exists
            ("not_reflexive.poly", True, NotReflexive, None),
            ("singular_dp.poly", False, NotSmooth, (True, True, False)),
            ("singular_dp.poly", True, NotSmooth, (True, True, False)),
            ("cube3.poly", False, NotSmooth, (True, True, False)),
            ("p2.poly", True, NotSmooth, (True, True, False)),
            ("p1xp2.poly", True, NotSmooth, (True, True, False)),
            ("p3.poly", True, NotSmooth, (True, True, False)),
        ],
    )
    def test_one_text_per_refusal(self, tmp_path, source, dual, refusal, valid):
        # The entry's error is what analyze (or, with dual, reflexive_dual)
        # raises on the same polytope, in its own words.
        if isinstance(source, str):
            path = FIXTURES / source
        else:
            path = tmp_path / "P.poly"
            path.write_text(dumps_polytope(FanoPolytope.from_vertices(source)))
        P = loads_polytope(path.read_text())
        with pytest.raises(refusal) as info:
            analyze(reflexive_dual(P) if dual else P)
        entry = run_check(path, dual=dual)
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.error == f"{type(info.value).__name__}: {info.value}"
        flags = ("primitive", "spanning", "reflexive", "smooth")
        assert entry.payload.get("valid") == (valid and dict(zip(flags, (True, *valid))))

    def test_not_reflexive_reads_alike_with_dual(self):
        path = FIXTURES / "not_reflexive.poly"
        assert run_check(path).error == run_check(path, dual=True).error

    def test_dp6_cubed(self, tmp_path):
        # The dual has 216 vertices in dimension 6; a facet scan of it
        # would try C(216, 6) subsets.
        dp6 = next(e.polytope for e in dim2_corpus() if e.name == "Bl3P2")
        path = tmp_path / "dp6_cubed.poly"
        path.write_text(dumps_polytope(gen_direct_sum(gen_direct_sum(dp6, dp6), dp6)))
        entry = run_check(path)
        assert entry.status is CheckStatus.OK
        assert entry.payload["f_vector"] == [216, 648, 756, 432, 126, 18, 1]
        assert entry.payload["betti"] == [1, 12, 51, 88, 51, 12, 1]
        assert entry.payload["c_n"] == 216
        assert entry.payload["c1_cn1"] == 648


class TestRunCheckDual:
    def test_dual_of_p2(self, tmp_path):
        path = tmp_path / "p2_dual.poly"
        path.write_text("2 3\n-1 -1\n2 -1\n-1 2\n")
        entry = run_check(path, dual=True)
        assert entry.status is CheckStatus.OK
        assert entry.payload["betti"] == [1, 1, 1]

    def test_dual_flag_on_diamond_rejected(self):
        entry = run_check(FIXTURES / "k3.json", dual=True)
        assert entry.status is CheckStatus.VALIDATION_ERROR

    def test_dual_of_non_reflexive(self, tmp_path):
        path = tmp_path / "bad_dual.poly"
        path.write_text("2 3\n1 0\n0 1\n-1 -3\n")
        entry = run_check(path, dual=True)
        assert entry.status is CheckStatus.VALIDATION_ERROR


class TestRunCheckDiamond:
    def test_k3(self):
        entry = run_check(FIXTURES / "k3.json")
        assert entry.mode == "diamond"
        assert entry.status is CheckStatus.OK  # strict inequality is fine
        ident = entry.payload["identity"]
        assert ident["lhs"] == "2" and ident["rhs"] == "4" and ident["defect"] == "2"
        assert ident["equality"] is False
        assert ident["inequality_ok"] is True
        assert ident["chi_identity_ok"] is True

    def test_cubic_fourfold(self):
        entry = run_check(FIXTURES / "cubic_fourfold.json")
        assert entry.status is CheckStatus.OK
        ident = entry.payload["identity"]
        assert ident["lhs"] == "10" and ident["rhs"] == "12" and ident["defect"] == "2"
        assert ident["chi_identity_ok"] is True

    def test_asymmetric_rejected(self):
        entry = run_check(FIXTURES / "asym.json")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert "InvalidDiamond" in entry.error

    def test_odd_cohomology_rejected(self):
        entry = run_check(FIXTURES / "genus2_curve.json")
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert "HypothesisViolated" in entry.error

    def test_odd_cohomology_has_one_text(self):
        # The entry's error is what check_betti_chern raises on the same
        # diamond, with or without its Chern numbers.
        data = read_diamond(FIXTURES / "genus2_curve.json")
        entry = run_check(FIXTURES / "genus2_curve.json")
        assert sorted(entry.payload) == ["betti", "chi_p", "n"]
        for chern in ((data.c1_cn1, data.c_n), ()):
            with pytest.raises(HypothesisViolated) as info:
                check_betti_chern(data.diamond, *chern)
            assert entry.error == f"HypothesisViolated: {info.value}"

    def test_missing_chern_numbers_restrict_checks(self):
        entry = run_check(FIXTURES / "k3_no_chern.json")
        assert entry.status is CheckStatus.OK
        ident = entry.payload["identity"]
        assert ident["lhs"] == "2" and ident["defect"] == "2"
        assert ident["rhs"] is None
        assert ident["equality"] is None
        assert "note" in entry.payload

    def test_missing_chern_numbers_text(self):
        # The missing side reads n/a, as a missing verdict does; with no
        # verdict known there is no verdicts line, and the note is shown.
        text = run_check(FIXTURES / "k3_no_chern.json").to_text()
        assert text == (
            f"== {FIXTURES / 'k3_no_chern.json'} (diamond) ==\n"
            "dimension: 2\n"
            "betti: (1, 22, 1)\n"
            "identity: lhs = 2, rhs = n/a, defect = 2\n"
            "note: Chern numbers missing; rhs verifications skipped\n"
            "status: ok"
        )

    def test_non_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "nonutf8.json"
        path.write_bytes(b'{"n": 2, "h": [[1, 0, 1], [0, \xff20, 0], [1, 0, 1]]}\n')
        entry = run_check(path)
        assert entry.mode == "diamond"
        assert entry.status is CheckStatus.PARSE_ERROR
        assert entry.error.startswith("ParseError:")

    def test_byte_order_mark(self, tmp_path):
        # One leading BOM is dropped before the mode is chosen, as the
        # utf-8-sig codec drops it; the file still reads as a diamond.
        path = tmp_path / "k3.json"
        path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "k3.json").read_bytes())
        entry = run_check(path)
        plain = run_check(FIXTURES / "k3.json")
        assert (entry.mode, entry.status, entry.error) == ("diamond", CheckStatus.OK, None)
        assert entry.payload == plain.payload

    def test_violation_when_lhs_exceeds_rhs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "h": [[1,0,1],[0,20,0],[1,0,1]], "c1_cn1": 0, "c_n": 0}')
        entry = run_check(path)
        assert entry.status is CheckStatus.IDENTITY_VIOLATION
        assert entry.status.exit_code == 1

    @pytest.mark.parametrize("n, rows", [(-1, []), (-2, []), (-2, [[1]])])
    def test_negative_dimension(self, tmp_path, n, rows):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"n": n, "h": rows}))
        entry = run_check(path)
        assert entry.mode == "diamond"
        assert entry.status is CheckStatus.VALIDATION_ERROR
        assert entry.error == f"InvalidDiamond: dimension must be >= 0, got {n}"


class TestRunBatch:
    def test_directory_scan(self):
        report = run_batch([FIXTURES])
        counts = report.counts
        # p2, p3, p1xp2 pass; k3, cubic fourfold, chern-less k3 pass
        assert counts["ok"] == 6
        assert counts["identity_violations"] == 0
        # cube, singular, not_reflexive, bad_header, asym, genus2 error out
        assert counts["errors"] == 6
        assert report.exit_status == 2

    def test_unparsable_json_does_not_abort_batch(self, tmp_path):
        (tmp_path / "huge.json").write_text(HUGE_INT_DIAMOND)
        (tmp_path / "deep.json").write_text(DEEP_DIAMOND)
        (tmp_path / "k3.json").write_bytes((FIXTURES / "k3.json").read_bytes())
        report = run_batch([tmp_path])
        statuses = {Path(e.name).name: e.status for e in report.entries}
        assert statuses == {
            "deep.json": CheckStatus.PARSE_ERROR,
            "huge.json": CheckStatus.PARSE_ERROR,
            "k3.json": CheckStatus.OK,
        }
        assert report.exit_status == 2

    def test_sums_past_the_digit_limit_do_not_abort_batch(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(corner_diamond(10**4299 - 1))
        entry = run_check(big)
        assert entry.status is CheckStatus.PARSE_ERROR
        assert entry.error == "ParseError: field 'h' must be below 10**4000 in absolute value"
        (tmp_path / "k3.json").write_bytes((FIXTURES / "k3.json").read_bytes())
        report = run_batch([tmp_path])
        statuses = {Path(e.name).name: e.status for e in report.entries}
        assert statuses == {"big.json": CheckStatus.PARSE_ERROR, "k3.json": CheckStatus.OK}
        assert report.exit_status == 2
        assert json.loads(report.to_json())["aggregate"]["errors"] == 1

    def test_internal_error_does_not_abort_batch(self, tmp_path, monkeypatch, caplog):
        def broken(P):
            raise ConsistencyError("Betti list (1, 2) is not palindromic")

        monkeypatch.setattr(pipeline, "analyze", broken)
        for name in ("p2.poly", "k3.json"):
            (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
        report = run_batch([tmp_path])
        k3, p2 = report.entries
        assert p2.status is CheckStatus.INTERNAL_ERROR
        assert p2.error == "ConsistencyError: Betti list (1, 2) is not palindromic"
        assert k3.status is CheckStatus.OK
        assert report.counts["errors"] == 1
        assert report.exit_status == CheckStatus.INTERNAL_ERROR.exit_code == 3
        # the traceback goes to the log
        assert [r.exc_info[0] for r in caplog.records] == [ConsistencyError]

    def test_negative_coefficient_is_an_internal_error(self, monkeypatch):
        # It signals a bug in the program, so it is not reported as bad input.
        def broken(P, delta):
            raise NegativeCoefficient("polynomial 1 - t + t^2 has a negative coefficient")

        monkeypatch.setattr(pipeline, "toric_invariants", broken)
        clear_caches()
        entry = run_check(FIXTURES / "p2.poly")
        assert entry.status is CheckStatus.INTERNAL_ERROR
        assert entry.error.startswith("NegativeCoefficient: ")
        assert run_cli(["check", FIXTURES / "p2.poly"]).exit_code == 3

    @pytest.mark.parametrize(
        "betti, words",
        [((2, 1, 2), "malformed for dimension 2"), ((1, 1, 2), "is not palindromic")],
        ids=["first-not-1", "not-palindromic"],
    )
    def test_impossible_betti_numbers_are_an_internal_error(self, monkeypatch, betti, words):
        # No smooth reflexive input has them, so they signal a bug.
        real = invariants._fan_side

        def broken(P, walls):
            return betti, real(P, walls)[1]

        monkeypatch.setattr(invariants, "_fan_side", broken)
        clear_caches()
        entry = run_check(FIXTURES / "p2.poly")
        assert entry.status is CheckStatus.INTERNAL_ERROR
        assert entry.error == f"ConsistencyError: Betti list {betti} {words}"
        result = run_cli(["check", FIXTURES / "p2.poly"])
        assert result.exit_code == 3
        assert f"error: ConsistencyError: Betti list {betti} {words}" in result.output

    def test_entries_just_below_the_bound_pass(self, tmp_path):
        path = tmp_path / "top.json"
        path.write_text(corner_diamond(10**4000 - 1))
        entry = run_check(path)
        assert entry.status is CheckStatus.OK
        assert len(entry.payload["identity"]["defect"]) == 4002
        assert entry.payload["identity"]["defect"] == str(50 * (10**4000 - 1))
        assert json.loads(RunReport((entry,)).to_json())["entries"][0]["status"] == "ok"

    def test_all_good_exit_zero(self):
        report = run_batch([FIXTURES / "p2.poly", FIXTURES / "k3.json"])
        assert report.exit_status == 0

    def test_violation_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "h": [[1,0,1],[0,20,0],[1,0,1]], "c1_cn1": 0, "c_n": 0}')
        report = run_batch([FIXTURES / "p2.poly", path])
        assert report.exit_status == 1

    def test_concurrent_equals_sequential(self):
        # Batches a caller runs on its own threads share the analysis cache.
        sequential = run_batch([FIXTURES]).to_dict()
        clear_caches()
        reports = []
        threads = [
            threading.Thread(target=lambda: reports.append(run_batch([FIXTURES]).to_dict()))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert reports == [sequential, sequential]

    def test_aggregate_counts_sum(self):
        report = run_batch([FIXTURES])
        counts = report.counts
        assert counts["total"] == len(report.entries)
        assert counts["ok"] + counts["identity_violations"] + counts["errors"] == counts["total"]

    def test_to_dict_is_json_serializable(self):
        report = run_batch([FIXTURES])
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert json.loads(text)["aggregate"]["exit_status"] == 2


class TestInputFiles:
    """Which files a batch reads, under which names, and what an unreadable
    path reports."""

    @pytest.mark.parametrize("mode", ["auto", "diamond"])
    def test_unreadable_path_names_the_path(self, tmp_path, mode):
        missing = tmp_path / "missing.json"
        for path, error in (
            (tmp_path, f"ParseError: [Errno 21] Is a directory: '{tmp_path}'"),
            (missing, f"ParseError: [Errno 2] No such file or directory: '{missing}'"),
        ):
            entry = run_check(path, mode=mode)
            assert entry.status is CheckStatus.PARSE_ERROR
            assert entry.error == error
            assert entry.mode == ("diamond" if mode == "diamond" else "toric")

    def test_no_descriptor_left_open(self, tmp_path):
        (tmp_path / "x.json").mkdir()
        (tmp_path / "nonutf8.json").write_bytes(b'{"n": 0, "h": [[\xff]]}')
        (tmp_path / "k3.json").write_bytes((FIXTURES / "k3.json").read_bytes())
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to count open descriptors")
        before = len(list(fds.iterdir()))
        report = run_batch([tmp_path])
        assert len(list(fds.iterdir())) == before
        assert [e.status for e in report.entries] == [
            CheckStatus.OK, CheckStatus.PARSE_ERROR, CheckStatus.PARSE_ERROR,
        ]

    def test_unlistable_directory_is_one_parse_error(self, tmp_path, monkeypatch):
        # Patched, because a directory's mode does not stop the root user.
        locked = tmp_path / "locked"
        locked.mkdir()
        shutil.copy(FIXTURES / "k3.json", tmp_path)
        scandir = pipeline.os.scandir

        def refuse(path):
            if str(path) == str(locked):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(pipeline.os, "scandir", refuse)
        report = run_batch([FIXTURES / "p2.poly", locked, tmp_path])
        assert [(e.name, e.mode, e.status, e.error) for e in report.entries] == sorted([
            (str(FIXTURES / "p2.poly"), "toric", CheckStatus.OK, None),
            (str(tmp_path / "k3.json"), "diamond", CheckStatus.OK, None),
            (
                str(locked),
                "toric",
                CheckStatus.PARSE_ERROR,
                f"ParseError: [Errno 13] Permission denied: '{locked}'",
            ),
        ])
        result = run_cli(["batch", locked, "--format", "json"])
        assert result.exit_code == 2
        assert json.loads(result.output)["aggregate"]["errors"] == 1

    def test_scanned_entry_that_is_not_a_file_is_not_read(self, tmp_path):
        # A device is one parse error, unread; a dangling link is read, and
        # the read's error names it.
        shutil.copy(FIXTURES / "p2.poly", tmp_path)
        device, dangling = tmp_path / "null.poly", tmp_path / "gone.json"
        device.symlink_to(os.devnull)
        dangling.symlink_to(tmp_path / "nowhere")
        report = run_batch([tmp_path])
        assert [(e.name, e.status, e.error) for e in report.entries] == [
            (
                str(dangling),
                CheckStatus.PARSE_ERROR,
                f"ParseError: [Errno 2] No such file or directory: '{dangling}'",
            ),
            (str(device), CheckStatus.PARSE_ERROR, f"ParseError: not a regular file: '{device}'"),
            (str(tmp_path / "p2.poly"), CheckStatus.OK, None),
        ]

    def test_named_fifo_is_read(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        fifo = tmp_path / "p2.poly"
        os.mkfifo(fifo)
        data = (FIXTURES / "p2.poly").read_bytes()

        def write():
            fifo.write_bytes(data)

        for check in (run_check, lambda path: run_batch([path]).entries[0]):
            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            assert check(fifo).status is CheckStatus.OK
            writer.join(timeout=60)

    def _directory(self, root):
        for name in ("a.json", "..json", ".json", "c.JSON"):
            (root / name).write_bytes((FIXTURES / "k3.json").read_bytes())
        for name in ("b.poly", "d.txt"):
            (root / name).write_bytes((FIXTURES / "p2.poly").read_bytes())
        (root / "sub.json").mkdir()

    def test_suffix_rule(self, tmp_path):
        self._directory(tmp_path)
        report = run_batch([tmp_path])
        assert [(e.name, e.status) for e in report.entries] == [
            (f"{tmp_path}/..json", CheckStatus.OK),
            (f"{tmp_path}/a.json", CheckStatus.OK),
            (f"{tmp_path}/b.poly", CheckStatus.OK),
            (f"{tmp_path}/sub.json", CheckStatus.PARSE_ERROR),
        ]

    def test_current_directory_names_have_no_prefix(self, tmp_path, monkeypatch):
        self._directory(tmp_path)
        monkeypatch.chdir(tmp_path)
        result = run_cli(["batch", ".", "--format", "json"])
        names = [e["name"] for e in json.loads(result.output)["entries"]]
        assert names == ["..json", "a.json", "b.poly", "sub.json"]
        assert [e.name for e in run_batch(["./"]).entries] == names
        assert [e.name for e in run_batch(["./a.json"]).entries] == ["a.json"]


class TestBatchOrder:
    """Directories are listed in whatever order the file system gives;
    run_batch sorts the entries by name."""

    def _inputs(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        for name, fixture in (
            ("b.json", "cubic_fourfold.json"),
            ("A.poly", "p2.poly"),
            ("a10.json", "k3.json"),
            ("a9.json", "asym.json"),
            ("skipped.txt", "p3.poly"),
        ):
            shutil.copy(FIXTURES / fixture, d / name)
        e = tmp_path / "e"
        e.mkdir()
        shutil.copy(FIXTURES / "p1xp2.poly", e / "z.poly")
        # a file, a directory, and a9.json a second time by itself
        args = [e / "z.poly", d, str(d / "a9.json")]
        files = [d / n for n in ("b.json", "A.poly", "a10.json", "a9.json", "a9.json")]
        return args, files + [e / "z.poly"]

    def test_entries_in_name_order(self, tmp_path):
        args, files = self._inputs(tmp_path)
        names = [e.name for e in run_batch(args).entries]
        assert names == sorted(str(f) for f in files)
        assert [Path(n).name for n in names] == [
            "A.poly", "a10.json", "a9.json", "a9.json", "b.json", "z.poly",
        ]

    def test_jobs_and_sorted_reference_agree(self, tmp_path):
        args, files = self._inputs(tmp_path)
        reference = RunReport(tuple(run_check(f) for f in sorted(str(f) for f in files)))
        assert run_batch(args).to_json() == reference.to_json()
        # --jobs is accepted and changes nothing
        result = run_cli(["batch", "--jobs", "2", "--format", "json", *args])
        assert result.output == reference.to_json() + "\n"


class TestBatchMemo:
    """A batch checks each distinct file content once; a copy gets the
    entry of the first file with its bytes, under its own name."""

    def _copies(self, root):
        # two renamed copies of every fixture, errors and warnings included
        originals = {}
        for fixture in sorted(FIXTURES.iterdir()):
            for tag in ("x", "y"):
                copy = root / f"{tag}_{fixture.name}"
                shutil.copy(fixture, copy)
                originals[str(copy)] = fixture
        return originals

    def _count_parses(self, monkeypatch):
        texts = []
        for name in ("loads_diamond", "loads_polytope"):
            real = getattr(pipeline, name)

            def counted(text, real=real):
                texts.append(text)
                return real(text)

            monkeypatch.setattr(pipeline, name, counted)
        return texts

    def test_copies_report_as_their_originals(self, tmp_path):
        originals = self._copies(tmp_path)
        report = run_batch([tmp_path])
        assert len(report.entries) == 2 * len(list(FIXTURES.iterdir())) == 24
        for entry in report.entries:
            expected = run_check(originals[entry.name]).to_dict()
            expected["name"] = entry.name
            assert entry.to_dict() == expected
        # the x_ copies sort before the y_ copies, in the same order
        entries = [{**e.to_dict(), "name": None} for e in report.entries]
        assert entries[:12] == entries[12:]

    def test_each_content_is_parsed_once(self, tmp_path, monkeypatch):
        self._copies(tmp_path)
        texts = self._count_parses(monkeypatch)
        run_batch([tmp_path])
        # bad_header.poly is parsed too; it fails in the parser
        assert len(texts) == len(set(texts)) == len(list(FIXTURES.iterdir()))

    def test_one_comment_byte_apart_are_both_parsed(self, tmp_path, monkeypatch):
        body = (FIXTURES / "p2.poly").read_bytes()
        (tmp_path / "a.poly").write_bytes(b"# a\n" + body)
        (tmp_path / "b.poly").write_bytes(b"# b\n" + body)
        texts = self._count_parses(monkeypatch)
        report = run_batch([tmp_path])
        assert len(texts) == 2
        assert [e.status for e in report.entries] == [CheckStatus.OK, CheckStatus.OK]

    def test_internal_error_is_checked_again_for_each_copy(
        self, tmp_path, monkeypatch, caplog
    ):
        calls = []

        def broken(P):
            calls.append(P)
            raise ConsistencyError("Betti list (1, 2) is not palindromic")

        monkeypatch.setattr(pipeline, "analyze", broken)
        for name in ("a.poly", "b.poly"):
            shutil.copy(FIXTURES / "p2.poly", tmp_path / name)
        report = run_batch([tmp_path])
        assert [e.status for e in report.entries] == [CheckStatus.INTERNAL_ERROR] * 2
        assert len(calls) == 2
        assert sorted(r.getMessage() for r in caplog.records) == [
            f"internal error while checking {tmp_path / name}" for name in ("a.poly", "b.poly")
        ]

    def test_same_path_twice(self, monkeypatch):
        texts = self._count_parses(monkeypatch)
        path = FIXTURES / "p1xp2.poly"
        first, second = run_batch([path, path]).entries
        assert len(texts) == 1
        assert first.to_dict() == second.to_dict() == run_check(path).to_dict()

    def test_serre_warning_once_per_content(self, tmp_path):
        # Hodge symmetric, but h[0][0] != h[2][2]: a SerreDualityWarning
        text = '{"n": 2, "h": [[1, 0, 0], [0, 1, 0], [0, 0, 3]]}'
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_batch([tmp_path])
        assert [w.category for w in caught] == [SerreDualityWarning]
        assert report.entries[0].payload is report.entries[1].payload


class TestSharedPayloads:
    """Entries that share a payload are written as the per-entry rendering
    writes each of them."""

    def _per_entry(self, report):
        aggregate = {**report.counts, "exit_status": report.exit_status}
        entries = ",\n    ".join(dumps_json(e.to_dict(), "\n    ") for e in report.entries)
        return (
            '{\n  "aggregate": ' + dumps_json(aggregate, "\n  ")
            + ',\n  "entries": [\n    ' + entries + "\n  ]\n}"
        )

    def _assert_written_one_by_one(self, report):
        assert report.to_json() == self._per_entry(report)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True)
        counts = report.counts
        summary = (
            f"checked {counts['total']} inputs: {counts['ok']} ok, "
            f"{counts['identity_violations']} identity violations, {counts['errors']} errors"
        )
        blocks = [e.to_text() for e in report.entries] + [summary]
        assert "".join(report.iter_text()) == "\n\n".join(blocks)

    def test_batch_copies(self, tmp_path, monkeypatch, caplog):
        # Copies whose names do not sort next to each other: k3.json three
        # times, a table error, a parse error and a polytope twice each, and
        # p1xp2.poly twice as an internal error, which is never shared.
        copies = {
            "k3.json": "a.json m.json z.json",
            "asym.json": "b.json y.json",
            "bad_header.poly": "c.poly x.poly",
            "p2.poly": "d.poly w.poly",
            "p1xp2.poly": "e.poly v.poly",
            "genus2_curve.json": "f.json",
        }
        for fixture, names in copies.items():
            for name in names.split():
                shutil.copy(FIXTURES / fixture, tmp_path / name)
        real = pipeline.analyze

        def broken(P):
            if len(P.vertices) == 5:
                raise ConsistencyError("Betti list (1, 2) is not palindromic")
            return real(P)

        monkeypatch.setattr(pipeline, "analyze", broken)
        report = run_batch([tmp_path])
        by_name = {Path(e.name).name: e for e in report.entries}
        assert by_name["a.json"].payload is by_name["m.json"].payload is by_name["z.json"].payload
        assert by_name["c.poly"].payload is by_name["x.poly"].payload
        assert by_name["e.poly"].status is CheckStatus.INTERNAL_ERROR
        assert by_name["e.poly"].payload is not by_name["v.poly"].payload
        self._assert_written_one_by_one(report)

    def test_one_payload_under_other_statuses(self):
        # A library caller may give entries one payload and tell them apart
        # by mode, status or error; only the name is written once per entry.
        payload = {"n": 2, "betti": [1, 1, 1]}
        entries = (
            EntryReport("a", "toric", CheckStatus.OK, payload=payload),
            EntryReport("b", "toric", CheckStatus.PARSE_ERROR, "ParseError: x", payload),
            EntryReport("c", "toric", CheckStatus.OK, payload=payload),
            EntryReport("d", "diamond", CheckStatus.OK, payload=payload),
            EntryReport('e"\u2028\udcff', "toric", CheckStatus.OK, payload=payload),
            EntryReport("f", "toric", CheckStatus.PARSE_ERROR, "ParseError: x", payload),
            # a payload whose own name writes over the entry's
            EntryReport("g", "toric", CheckStatus.OK, payload={"name": "own"}),
        )
        entries += (EntryReport("h", "toric", CheckStatus.OK, payload=entries[-1].payload),)
        self._assert_written_one_by_one(RunReport(entries))


@st.composite
def diamond_files(draw) -> bytes:
    """A diamond file: a table that keeps Hodge symmetry and Serre duality,
    with odd cohomology or without, and at most one fault put in; each
    Chern number absent, small, at the bound or not an integer."""
    n = draw(st.integers(0, 4))
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(n + 1):
            orbit = {(p, q), (q, p), (n - p, n - q), (n - q, n - p)}
            if min(orbit) == (p, q):
                value = draw(st.integers(0, 30))
                for a, b in orbit:
                    h[a][b] = value
    h[0][0] = h[n][n] = 1
    if draw(st.booleans()):
        h = [[0 if (p + q) % 2 else x for q, x in enumerate(row)] for p, row in enumerate(h)]
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    faults = ["none"] * 3 + ["negative", "h00", "hodge", "serre", "type", "bound"]
    fault = draw(st.sampled_from(faults))
    if fault == "negative":
        h[p][q] = -draw(st.integers(1, 5))
    elif fault == "h00":
        h[0][0] = draw(st.integers(0, 5).filter(lambda x: x != 1))
    elif fault == "hodge":
        h[p][q] += 1
    elif fault == "serre":
        h[p][q] = h[q][p] = h[p][q] + 1
    elif fault == "type":
        h[p][q] = draw(st.sampled_from([True, False, 1.5, 2.0, "1", None]))
    elif fault == "bound":
        h[p][q] = h[q][p] = draw(st.sampled_from([10**4000, -(10**4000), 10**4000 - 1]))
    obj = {"n": n, "h": h}
    for name in ("c1_cn1", "c_n"):
        kind = draw(st.sampled_from(["absent"] * 2 + ["small"] * 4 + ["top", "other"]))
        if kind == "small":
            obj[name] = draw(st.integers(-60, 60))
        elif kind != "absent":
            top = [10**4000 - 1, 1 - 10**4000, 10**4000, -(10**4000)]
            obj[name] = draw(st.sampled_from(top if kind == "top" else [True, 2.5, "7", None]))
    return json.dumps(obj).encode()


def _warned(call, *args):
    """call(*args) and the texts of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


def _reference_entry(data: bytes, name: str):
    """The entry of a diamond file as loads_diamond -> HodgeDiamond ->
    check_betti_chern -> to_dict() make it, and the warnings given."""
    try:
        file, warned = _warned(loads_diamond, data.decode())
        diamond, built = _warned(HodgeDiamond, file.diamond.n, file.diamond.h)
    except Exception as exc:
        return pipeline._refused(name, "diamond", exc), []
    assert built == warned and diamond == file.diamond
    payload = {"n": diamond.n, "betti": list(diamond.even_betti()), "chi_p": list(chi_p(diamond))}
    try:
        report = check_betti_chern(diamond, file.c1_cn1, file.c_n)
    except HypothesisViolated as exc:
        return pipeline._refused(name, "diamond", exc, payload), warned
    payload["identity"] = report.to_dict()
    if report.rhs12 is None:
        payload["note"] = "Chern numbers missing; rhs verifications skipped"
        return EntryReport(name, "diamond", CheckStatus.OK, payload=payload), warned
    payload.update(c_n=file.c_n, c1_cn1=file.c1_cn1)
    status = CheckStatus.OK if report.inequality_ok else CheckStatus.IDENTITY_VIOLATION
    return EntryReport(name, "diamond", status, payload=payload), warned


class TestOnePassDiamond:
    @settings(deadline=None, max_examples=300)
    @given(data=diamond_files())
    def test_entry_is_the_reference_composition(self, data):
        entry, warned = _warned(pipeline._check_data, data, "d.json")
        expected, expected_warned = _reference_entry(data, "d.json")
        assert entry.status is not CheckStatus.INTERNAL_ERROR, entry.error
        assert entry.to_dict() == expected.to_dict()
        assert warned == expected_warned


report_text = st.text(
    st.characters(blacklist_categories=())  # lone surrogates included
    | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'),
    max_size=8,
)
report_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**100), 10**100)
    | report_text
    | st.lists(st.integers(-(10**100), 10**100), max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(report_text, inner, max_size=4),
    max_leaves=20,
)


class TestJsonEmitter:
    @given(report_values)
    # One key set in both insertion orders and at two depths, so the
    # emitter's key-order cache is filled and hit with each order.
    @example([{"b": 1, "a": [2]}, {"a": "x", "b": None}, {"b": {"a": True, "b": 3}}])
    def test_matches_json_dumps(self, value):
        assert dumps_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_non_str_key_after_its_neighbours_are_cached(self):
        cached = [{"a": 1, "b": 2}, {"b": 2, "a": 1}]
        dumps_json(cached)
        for bad in ({"a": 1, 2: "b"}, {1: "a"}, {2: "b", "a": 1}):
            with pytest.raises(TypeError):
                dumps_json([*cached, bad])

    def test_edge_values(self):
        for value in ([], {}, [[]], {"a": {}}, [True, 1, None], [-0, 10**100], "\ud800"):
            assert dumps_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_rejects_what_no_report_holds(self):
        for value in (1.5, {1: "a"}, {"b": {2}}):
            with pytest.raises(TypeError):
                dumps_json(value)

    def test_report(self):
        report = run_batch([FIXTURES])
        assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True)


K3_TEXT = """== {} (diamond) ==
dimension: 2
betti: (1, 22, 1)
c_n = 24, c1*c_(n-1) = 0
identity: lhs = 2, rhs = 4, defect = 2
verdicts: equality=NO inequality_ok=yes chi_identity_ok=yes quarter_form_ok=NO
status: ok"""

P2_TEXT = """== {} (toric) ==
dimension: 2
validity: primitive=yes spanning=yes reflexive=yes smooth=yes
dual f-vector: (3, 3, 1)
betti: (1, 1, 1)
c_n = 3, c1*c_(n-1) = 9
identity: lhs = 2, rhs = 2, defect = 0
verdicts: equality=yes inequality_ok=yes
consistency: fan_vs_dual=yes
status: ok"""


class TestStreamedReport:
    """RunReport writes one chunk per entry; joined, the chunks are the
    report, and no chunk grows with the number of entries."""

    @pytest.mark.parametrize("count", [0, 1, 12])
    def test_chunks_join_to_the_report(self, count):
        report = RunReport(run_batch([FIXTURES]).entries[:count])
        assert len(report.entries) == count
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        assert "".join(report.iter_json()) == report.to_json() == expected
        counts = report.counts
        blocks = [e.to_text() for e in report.entries] + [
            f"checked {count} inputs: {counts['ok']} ok, "
            f"{counts['identity_violations']} identity violations, "
            f"{counts['errors']} errors"
        ]
        assert "".join(report.iter_text()) == report.to_text() == "\n\n".join(blocks)

    def test_longest_chunk_does_not_grow(self):
        entry = run_check(FIXTURES / "p1xp2.poly")

        def longest(chunks, count):
            return max(map(len, chunks(RunReport((entry,) * count))))

        for chunks in (RunReport.iter_json, RunReport.iter_text):
            assert longest(chunks, 2000) <= longest(chunks, 20)

    def test_escape_sequence_in_file_name(self, tmp_path):
        # Off a terminal, text reports drop the escape; JSON writes it as
        # \u001b.
        k3, p2 = tmp_path / "k3\x1b[31m.json", tmp_path / "p2\x1b[31m.poly"
        shutil.copy(FIXTURES / "k3.json", k3)
        shutil.copy(FIXTURES / "p2.poly", p2)
        k3_text = K3_TEXT.format(tmp_path / "k3.json")
        p2_text = P2_TEXT.format(tmp_path / "p2.poly")
        result = run_cli(["check", p2])
        summary = "checked 1 inputs: 1 ok, 0 identity violations, 0 errors"
        assert result.exit_code == 0
        assert result.output == f"{p2_text}\n\n{summary}\n"

        result = run_cli(["batch", "--format", "text", tmp_path])
        summary = "checked 2 inputs: 2 ok, 0 identity violations, 0 errors"
        assert result.exit_code == 0
        assert result.output == f"{k3_text}\n\n{p2_text}\n\n{summary}\n"

        result = run_cli(["batch", "--format", "json", tmp_path])
        report = run_batch([tmp_path])
        assert result.exit_code == 0
        assert result.output == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert result.output.count("\\u001b[31m") == 2


def _mutated(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, where, byte in edits:
        i = where % (len(out) + 1)
        if kind == "insert":
            out.insert(i, byte)
        elif i < len(out):
            if kind == "flip":
                out[i] ^= byte
            else:
                del out[i]
    return bytes(out)


_edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete"]),
        st.integers(0, 1000),
        st.integers(1, 255),
    ),
    max_size=8,
)
_inputs = st.binary(max_size=200) | st.builds(
    _mutated, st.sampled_from(sorted(FIXTURES.iterdir())).map(Path.read_bytes), _edits
)


class TestRobustness:
    @settings(deadline=None, max_examples=150)
    @given(data=_inputs, dual=st.booleans(), mode=st.sampled_from(["auto", "diamond"]))
    def test_no_input_is_an_internal_error(self, tmp_path_factory, data, dual, mode):
        path = tmp_path_factory.getbasetemp() / "fuzzed.input"
        path.write_bytes(data)
        entry = run_check(path, dual=dual, mode=mode)
        assert entry.status is not CheckStatus.INTERNAL_ERROR, entry.error


class TestAnalyzeCaching:
    def test_repeated_analyze_is_cached(self):
        from fanocheck import gen_pn

        P = gen_pn(2)
        assert analyze(P) is analyze(P)

    def test_analysis_consistency_flags_all_true(self):
        from fanocheck import gen_direct_sum, gen_pn

        for P in (gen_pn(2), gen_pn(4), gen_direct_sum(gen_pn(2), gen_pn(2))):
            assert analyze(P).consistency == {"fan_vs_dual": True}

    def test_one_elimination_per_facet(self, monkeypatch):
        # Smoothness and the fan side share each facet's inverse: one
        # check_polytope eliminates once per facet, plus once to start
        # the hull.
        from fanocheck import check_polytope, facet_enumeration, gen_pn, lattice

        calls = []
        real = lattice._adjugate

        def counted(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(lattice, "_adjugate", counted)
        clear_caches()
        P = gen_pn(5)
        assert check_polytope(P, "P5").passed
        assert len(calls) == len(facet_enumeration(P)) + 1

    def test_cache_is_bounded(self):
        # 70 distinct shears of P2, each a GL(2, Z) image: the cache keeps
        # the latest analysis only, and the first polytope is not kept alive.
        def image(k):
            return FanoPolytope.from_vertices([(1, 0), (k, 1), (-1 - k, -1)])

        clear_caches()
        first = image(0)
        ref = weakref.ref(first)
        assert check_polytope(first, "P2").passed
        del first
        for k in range(1, 70):
            assert check_polytope(image(k), "P2").passed
        gc.collect()
        assert analyze.cache_info().currsize == 1
        assert ref() is None

    def test_invalid_polytope_is_not_kept(self):
        P = FanoPolytope.from_vertices([(1, 0), (0, 1), (-1, -3)])
        ref = weakref.ref(P)
        assert "NotReflexive" in check_polytope(P, "P").error
        del P
        gc.collect()
        assert ref() is None
