"""Exit codes, argument parsing, and config composition of the CLI."""

import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tricert import cli, dynamics, verify
from tricert.cli import _COMMANDS, _SCAN_CLAIMS, PAPER_R, main
from tricert.intervals import BoxArray, ComplexBox
from tricert.scan import Leaf, parse
from tricert.verify import Status


def _run(argv):
    return main(argv)


class TestRender:
    def test_render_tricorn(self, tmp_path):
        out = tmp_path / "img.ppm"
        code = _run([
            "render", "--mode", "tricorn", "--region", "-2,2,-2,2",
            "--size", "32x32", "--maxiter", "50", "-o", str(out),
        ])
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 3 * 32 * 32

    def test_render_julia(self, tmp_path):
        out = tmp_path / "julia.ppm"
        code = _run([
            "render", "--mode", "julia", "--c", "-1,0", "--region", "-2,2,-2,2",
            "--size", "16x16", "--maxiter", "50", "-o", str(out),
        ])
        assert code == 0
        assert out.read_bytes().startswith(b"P6\n")

    def test_bad_region_exits_2(self, tmp_path, capsys):
        # unordered, not finite, or with a side or a midpoint that overflows,
        # which made every pixel centre nan or inf
        out = tmp_path / "x.ppm"
        for region in ("2,-2,-2,2", "0,1,0,inf", "0,1,0,1e309", "-1e308,1e308,-1,1",
                       "1e308,1.7e308,-1,1"):
            assert _run(["render", f"--region={region}", "--size", "8x8", "-o", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: rectangle ")
            assert not out.exists()

    def test_bad_size_exits_2(self, tmp_path):
        code = _run([
            "render", "--size", "8by8", "-o", str(tmp_path / "x.ppm"),
        ])
        assert code == 2

    def test_missing_subcommand_exits_2(self):
        assert _run([]) == 2

    def test_unknown_flag_exits_2(self):
        assert _run(["render", "--frobnicate", "-o", "x.ppm"]) == 2


class TestScan:
    def test_qlike_scan_writes_certificate(self, tmp_path):
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--max-depth", "1",
            "-o", str(out),
        ])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.claim == "qlike-boundary"
        assert cert.config["cli.claim"] == "qlike"
        assert len(cert.leaves) >= 1

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("max_depth = 1  # shallow\n")
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--config", str(cfg), "-o", str(out),
        ])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.config["max_depth"] == "1"

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("max_depth = 5\n")
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--config", str(cfg),
            "--max-depth", "0", "-o", str(out),
        ])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.config["max_depth"] == "0"

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("mystery = 1\n")
        assert _run(["scan", "--claim", "qlike", "--config", str(cfg)]) == 2

    def test_missing_config_file_exits_2(self):
        assert _run(["scan", "--claim", "qlike", "--config", "/no/such/file"]) == 2

    def test_config_rect_is_echoed(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("rect = -1.7386,-1.7384,0.0157,0.0159\n")
        out = tmp_path / "cert.txt"
        code = _run(["scan", "--claim", "qlike", "--config", str(cfg),
                     "--max-depth", "0", "-o", str(out)])
        assert code == 0
        cert = parse(out.read_bytes())
        assert cert.config["cli.rect"] == "-1.7386,-1.7384,0.0157,0.0159"
        assert cert.root.re.lo == -1.7386

    @pytest.mark.parametrize("argv, key", [
        (["verify-arcs"], "contour_depth"),
        (["verify-count"], "workers"),
        (["scan", "--claim", "qlike"], "period"),
        (["scan", "--claim", "parabolic"], "region"),
    ])
    def test_config_key_the_command_does_not_use_exits_2(self, tmp_path, argv, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
        assert _run(argv + ["--config", str(cfg)]) == 2

    def test_flag_of_another_claim_exits_2(self):
        assert _run(["scan", "--claim", "qlike", "--period", "9"]) == 2

    def test_attracting_claim_is_gone(self):
        assert _run(["scan", "--claim", "attracting", "--max-depth", "0"]) == 2

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("max_depth = deep\n")
        assert _run(["scan", "--claim", "qlike", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv", [
        ["--max-depth", "-1"],
        ["--min-depth", "3", "--max-depth", "1"],
        ["--segment-depth", "-1", "--max-depth", "0"],
    ])
    def test_depth_out_of_range_exits_2(self, argv, capsys):
        assert _run(["scan", "--claim", "qlike", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_period_out_of_range_exits_2(self):
        assert _run(["scan", "--claim", "parabolic", "--period", "0"]) == 2

    def test_odd_count_iterate_exits_2(self, capsys):
        assert _run(["scan", "--claim", "count", "--n", "3", "--max-depth", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_golden_qlike_certificate(self, tmp_path):
        # a shallow scan of the qlike-wide rectangle; the digest excludes
        # the #config.cli.* echo, so it pins the leaves and the claim config
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--rect", "-1.8025,-1.6745,-0.0482,0.0798",
            "--max-depth", "3", "--segment-depth", "8", "-o", str(out),
        ])
        assert code == 1
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(ln for ln in lines if not ln.startswith(b"#config.cli."))
        assert hashlib.sha256(body).hexdigest() == (
            "8209bcc676ef9964b4f5c2aab4193da65a211127cb33cc3e797e14e7c4152752"
        )

    def test_golden_qlike_wide_certificate(self, tmp_path):
        # the whole qlike-wide workload: 3,469 leaves, 1,910 Undetermined;
        # the digests are those of the depth-first scan that preceded the
        # level-synchronous one
        out, img = tmp_path / "Q", tmp_path / "Q.ppm"
        code = _run([
            "scan", "--claim", "qlike", "--rect", "-1.8025,-1.6745,-0.0482,0.0798",
            "--max-depth", "8", "--segment-depth", "8", "-o", str(out), "--image", str(img),
        ])
        assert code == 1
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(ln for ln in lines if not ln.startswith(b"#config.cli."))
        assert hashlib.sha256(body).hexdigest() == (
            "751eb6845cc8826e6612f8604c51bec87125a8b1436c9967bcbeb37550ce6b9d"
        )
        assert hashlib.sha256(img.read_bytes()).hexdigest() == (
            "12b0903c0e319634d12f87ad4db19e8442ae6195a5631579314d12ecc06882d9"
        )

    def test_golden_qlike_deep_segment_certificate(self, tmp_path):
        # the qlike-wide rectangle at segment depth 14, where the walks of
        # the deeper levels resume from thousands of open blocks
        out = tmp_path / "Q"
        code = _run([
            "scan", "--claim", "qlike", "--rect", "-1.8025,-1.6745,-0.0482,0.0798",
            "--max-depth", "6", "--segment-depth", "14", "-o", str(out),
        ])
        assert code == 1
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(ln for ln in lines if not ln.startswith(b"#config.cli."))
        assert hashlib.sha256(body).hexdigest() == (
            "52b679a4eae9c3b6b8da0808d0cab9ec64cceec3773428113dd81f4966ae4004"
        )

    def test_overflowing_qlike_rect_is_undetermined(self, tmp_path, capsys):
        # every boundary image overflows: Undetermined leaves, not a traceback
        out = tmp_path / "cert.txt"
        code = _run([
            "scan", "--claim", "qlike", "--rect", "1e200,2e200,1e200,2e200",
            "--max-depth", "1", "--segment-depth", "2", "-o", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "scan qlike: UNDETERMINED over 4 leaves\n"
        assert captured.err == ""
        assert [leaf.status.value for leaf in parse(out.read_bytes()).leaves] == ["U"] * 4

    def test_overflowing_multiplier_seed_is_undetermined(self, tmp_path, capsys):
        # the seed orbit's complex power overflows at |c| ~ 1e20: its rows
        # are not finite, so every leaf is Undetermined, not a traceback
        out = tmp_path / "cert.txt"
        code = _run(["scan", "--claim", "multiplier", "--rect", "1e20,2e20,0,1",
                     "--max-depth", "1", "-o", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "scan multiplier: UNDETERMINED over 4 leaves\n"
        assert captured.err == ""
        assert [leaf.status.value for leaf in parse(out.read_bytes()).leaves] == ["U"] * 4

    def test_scan_image_output(self, tmp_path):
        out = tmp_path / "cert.txt"
        img = tmp_path / "scan.ppm"
        code = _run([
            "scan", "--claim", "qlike", "--max-depth", "0",
            "-o", str(out), "--image", str(img),
        ])
        assert code == 0
        assert img.read_bytes().startswith(b"P6\n600 600\n255\n")


class TestVerifyQlike:
    def test_proven_anchor_exits_0(self, tmp_path, capsys):
        # the anchor is proven, not assumed: no flag is needed for exit 0,
        # and the header carries the proof's data in place of an assumption
        out = tmp_path / "q.txt"
        code = _run(["verify-qlike", "--max-depth", "2", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "verify-qlike: TRUE over 1 leaves\n"
        data = out.read_bytes()
        assert b"#assumption=" not in data
        config = parse(data).config
        assert config["anchor_proof"] == "proven"
        assert config["anchor_period"] == "9"
        assert len(config["anchor_cycle"].split()) == 4 * 3

    def test_acknowledge_flag_is_gone(self, capsys):
        code = _run(["verify-qlike", "--max-depth", "2", "--acknowledge-assumptions"])
        assert code == 2
        assert "--acknowledge-assumptions" in capsys.readouterr().err

    def test_acknowledge_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("acknowledge_assumptions = yes\n")
        assert _run(["verify-qlike", "--config", str(cfg), "--max-depth", "0"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_anchor_outside_rect_exits_2(self):
        assert _run(["verify-qlike", "--anchor", "0,0", "--max-depth", "0"]) == 2

    def test_anchor_from_config(self, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("anchor = -1.7385,0.0158\n")
        out = tmp_path / "q.txt"
        _run(["verify-qlike", "--config", str(cfg), "--max-depth", "0", "-o", str(out)])
        cert = parse(out.read_bytes())
        assert cert.config["anchor"] == "-1.7385,0.0158"
        assert cert.config["cli.anchor"] == "-1.7385,0.0158"

    @pytest.mark.parametrize("flags, reason", [
        # the critical orbit escapes: no cycle to certify
        (["--anchor", "-1.7385,0.0158"], "seed"),
        # the lower-left 1/32 corner of the paper's rect, outside the
        # period-9 component: its critical orbit escapes too, and the
        # 9-cycle there is repelling (TestAnchorProof in test_verify.py)
        (["--anchor", "-1.738734375,0.015565625"], "seed"),
        # the center's g-cycle does not fit through this U
        (["--region", "-0.1,0.1,-0.1,0.1"], "boundary"),
        # at c = 0 all of dU maps into U
        (["--rect", "-0.001,0.001,-0.001,0.001", "--anchor", "0,0"], "boundary"),
        # every enclosure at the anchor overflows, without a warning
        (["--rect", "1e200,2e200,1e200,2e200", "--anchor", "1.5e200,1.5e200",
          "--segment-depth", "2"], "boundary"),
    ])
    def test_unproven_anchor_exits_1(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "q.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _run(["verify-qlike", *flags, "--max-depth", "2", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().out.startswith("verify-qlike: ")
        cert = parse(out.read_bytes())
        assert cert.config["anchor_proof"] == reason
        assert "anchor_cycle" not in cert.config
        assert all(leaf.status is not Status.TRUE for leaf in cert.leaves)


class TestVerifyCount:
    def test_expect_from_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("expect = 2\n")
        out = tmp_path / "c.txt"
        code = _run(["verify-count", "--config", str(cfg), "--min-depth", "0",
                     "--max-depth", "0", "--rect", "-1.73875,-1.7387,0.01555,0.0156",
                     "-o", str(out)])
        assert code == 1  # the region holds one fixed point, not two
        assert parse(out.read_bytes()).config["expect"] == "2"

    def test_golden_count_certificate(self, tmp_path):
        # the 4 depth-1 boxes of PAPER_R at the paper's settings, each TRUE;
        # the header holds no tol since the count stopped reading it
        out = tmp_path / "C"
        assert _run(["verify-count", "--min-depth", "1", "--max-depth", "4", "--tol", "2",
                     "--contour-depth", "10", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "bf10c19100040b78f3de3d07d9e0e1d7b6a714d1ffad6acba74c411a0ec86085"
        )

    def test_count_runs_no_newton_and_no_lapack(self, tmp_path, monkeypatch):
        # the count certifies by exclusion and Krawczyk alone: at the
        # benchmark's settings it reaches neither float Newton nor LAPACK
        def refuse(*args, **kwargs):
            raise AssertionError("the count reached float Newton or LAPACK")

        for owner, name in ((dynamics, "float_newton_rows"), (verify, "float_newton_rows"),
                            (verify, "_refine_orbit"), (np.linalg, "solve"), (np.linalg, "inv")):
            monkeypatch.setattr(owner, name, refuse)
        out = tmp_path / "C"
        assert _run(["verify-count", "--min-depth", "1", "--max-depth", "4", "--tol", "2",
                     "--contour-depth", "10", "-o", str(out)]) == 0
        assert parse(out.read_bytes()).status.tolist() == ["T"] * 4

    def test_odd_iterate_exits_2(self, capsys):
        code = _run(["verify-count", "--n", "3", "--min-depth", "0", "--max-depth", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("expect", ["17", "-1"])
    def test_expect_out_of_range_exits_2(self, expect, tmp_path, capsys):
        # --expect keeps the [0, 16] contract of the counts it once isolated
        out = tmp_path / "C"
        assert _run(["verify-count", f"--expect={expect}", "--min-depth", "0",
                     "--max-depth", "0", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: expect must lie in [0, 16], the counts that can be isolated\n")
        assert not out.exists()
        assert _run(["verify-count", "--expect=16", "--min-depth", "0", "--max-depth", "0"]) == 1

    def test_overflowing_region_is_undetermined(self, tmp_path):
        # f^2 overflows on the region, so its one cell is not finite
        out = tmp_path / "c.txt"
        code = _run(["verify-count", "--region", "1e80,2e80,1e80,2e80", "--n", "2",
                     "--min-depth", "0", "--max-depth", "0", "-o", str(out)])
        assert code == 1
        assert [leaf.status.value for leaf in parse(out.read_bytes()).leaves] == ["U"]


class TestVerifyDisjoint:
    def test_yellow_is_tied_to_x(self, tmp_path):
        out = tmp_path / "y.txt"
        _run(["verify-disjoint", "--max-depth", "0", "-o", str(out),
              "--red-out", str(tmp_path / "r.txt")])
        assert parse(out.read_bytes()).config["region"] == "0.0,0.08,0.0,0.08"


class TestCenters:
    def test_report(self, capsys):
        code = _run(["centers"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("zero", "c*", "omega*c*", "omega2*c*"):
            assert label in out
        assert "-1.754877666" in out
        widths = [float(w) for w in re.findall(r"\(width (\S+)\)", out)]
        assert len(widths) == 4 and all(w < 1e-9 for w in widths)


class TestVerifyArcs:
    def test_witness_labels(self, capsys):
        code = _run(["verify-arcs", "--max-depth", "2"])
        out = capsys.readouterr().out
        # at depth 2 the red scan does not yet separate the two components
        assert code == 1
        assert out == ("verify-arcs: 1 verified components, attracting witness TRUE, "
                       "repelling witness FALSE\n")


_AREA = ["max_depth", "min_width", "rect"]


def _subparsers(parser):
    """The subparsers of a parser, by command name."""
    [action] = [a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)]
    return action.choices


class TestParsers:
    """A run builds the parser of its own command only; the help, the usage
    and the errors stay those of the parser of every command."""

    def test_top_level_help_lists_every_command(self, capsys):
        assert _run(["-h"]) == 0
        listed = re.findall(r"^    (\S+) ", capsys.readouterr().out, re.M)
        assert listed == ["render", *_COMMANDS, "centers"] == list(cli._NAMES)
        assert len(listed) == 7

    @pytest.mark.parametrize("command", cli._NAMES)
    def test_a_command_builds_its_own_parser_alone(self, command):
        full, alone = cli._build_parser(), cli._build_parser(command)
        assert list(_subparsers(alone)) == [command]
        assert alone.format_usage() == full.format_usage()
        assert (_subparsers(alone)[command].format_help()
                == _subparsers(full)[command].format_help())

    def test_an_unknown_command_lists_every_choice(self, capsys):
        assert _run(["verify-everything"]) == 2
        assert capsys.readouterr().err.endswith(
            "invalid choice: 'verify-everything' (choose from "
            + ", ".join(f"'{name}'" for name in cli._NAMES) + ")\n")

    def test_an_unknown_flag_prints_the_full_usage(self, capsys):
        assert _run(["verify-count", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(cli._build_parser().format_usage())
        assert err.endswith("error: unrecognized arguments: --bogus\n")


_NEGATIVE_VALUES = ["-1e-3,1e-3,-1e-3,1e-3", "-.5,0.5,-0.5,0.5", "-2.5E+1,0,-1,-.25",
                    "-2,2,-2,2"]


class TestNegativeValues:
    """A value that starts with a minus sign and a digit, or with a minus
    sign, a dot and a digit, is the value of the flag before it, in every
    notation of a float."""

    @pytest.mark.parametrize("value", _NEGATIVE_VALUES)
    @pytest.mark.parametrize("argv, flag, parts", [
        (["scan", "--claim", "qlike"], "rect", 4),
        (["scan", "--claim", "qlike"], "region", 4),
        (["verify-qlike"], "anchor", 2),
        (["render", "-o", "out.ppm"], "c", 2),
    ])
    def test_value_after_its_flag(self, argv, flag, parts, value):
        value = ",".join(value.split(",")[:parts])
        args = cli._build_parser(argv[0]).parse_args([*argv, "--" + flag, value])
        assert getattr(args, flag) == value

    @pytest.mark.parametrize("rect", _NEGATIVE_VALUES[:2])
    def test_scan_runs_and_unknown_flags_still_exit_2(self, rect, tmp_path):
        argv = ["scan", "--claim", "qlike", "--rect", rect, "--max-depth", "0",
                "-o", str(tmp_path / "q.cert")]
        assert _run(argv) in (0, 1)
        assert _run([*argv, "--bogus"]) == 2


class TestParameters:
    @pytest.mark.parametrize("command, claim, keys", [
        pytest.param("verify-qlike", None, ["anchor", "max_depth", "min_width", "n", "rect",
                                            "region", "segment_depth"], id="verify-qlike"),
        pytest.param("verify-count", None, ["contour_depth", "expect", "max_depth", "min_depth",
                                            "n", "rect", "region", "tol"], id="verify-count"),
        pytest.param("verify-arcs", None, sorted(_AREA + ["period"]), id="verify-arcs"),
        pytest.param("verify-disjoint", None, sorted(_AREA + ["period"]), id="verify-disjoint"),
        pytest.param("scan", "qlike", sorted(_AREA + ["min_depth", "n", "region",
                                                      "segment_depth"]), id="scan-qlike"),
        pytest.param("scan", "count", sorted(_AREA + ["contour_depth", "min_depth", "n",
                                                      "region", "tol"]), id="scan-count"),
        pytest.param("scan", "parabolic", sorted(_AREA + ["min_depth", "period"]),
                     id="scan-parabolic"),
        pytest.param("scan", "multiplier", sorted(_AREA + ["min_depth", "region"]),
                     id="scan-multiplier"),
    ])
    def test_settable_values(self, command, claim, keys):
        # no knob appears unnoticed; the multiplier claim's guess is fixed
        defaults = _COMMANDS[command][2]
        if claim is not None:
            defaults = {**defaults, **_SCAN_CLAIMS[claim][0]}
        assert sorted(defaults) == keys
        assert "guess" not in defaults

    @pytest.mark.parametrize("argv", [
        ["verify-disjoint"], ["verify-arcs"], ["scan", "--claim", "parabolic"], ["verify-qlike"],
    ], ids=["verify-disjoint", "verify-arcs", "scan-parabolic", "verify-qlike"])
    def test_rect_without_center_exits_2(self, argv, capsys):
        # the parabolic claim seeds its scan from the period-9 center found
        # from the rect's midpoint, as verify-qlike its anchor: without one
        # that is a usage error.  On the second rect the critical orbit
        # overflows the float iteration's complex power.
        for rect in ("0.3,0.31,0.5,0.51", "0.9e10,1.1e10,-1,1"):
            assert _run([*argv, "--rect", rect, "--max-depth", "0"]) == 2
            err = capsys.readouterr().err
            assert err == "error: no superattracting seed parameter found in the rectangle\n"
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["scan", "--claim", "qlike", "--segment-depth"], ["verify-qlike", "--segment-depth"],
        ["scan", "--claim", "count", "--contour-depth"], ["verify-count", "--contour-depth"]])
    def test_segment_depth_above_62_exits_2(self, command, capsys):
        # a segment's node number 2^depth + index must stay an int64 in the
        # boundary walk; the count's quadtree keeps the same cap
        assert _run([*command, "63", "--max-depth", "0"]) == 2
        key = command[-1][2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be <= 62\n"


    @pytest.mark.parametrize("argv, error", [
        # nan made the qlike scan one U leaf, as box.width() > nan never splits
        (["scan", "--claim", "qlike", "--min-width", "nan"], "min_width must be finite"),
        (["verify-qlike", "--min-width", "inf"], "min_width must be finite"),
        (["verify-disjoint", "--min-width=-inf"], "min_width must be finite"),
        # tol no longer affects the count, but is still checked and echoed
        (["verify-count", "--tol", "nan", "--min-depth", "0"], "tol must be finite and > 0"),
        (["verify-count", "--tol", "inf", "--min-depth", "0"], "tol must be finite and > 0"),
        (["scan", "--claim", "count", "--tol", "0"], "tol must be finite and > 0"),
        (["scan", "--claim", "count", "--tol", "-1"], "tol must be finite and > 0"),
    ], ids=["scan-min-width-nan", "qlike-min-width-inf", "disjoint-min-width--inf",
            "count-tol-nan", "count-tol-inf", "scan-tol-0", "scan-tol--1"])
    def test_float_out_of_range_exits_2(self, argv, error, tmp_path, capsys):
        out = tmp_path / "C"
        assert _run([*argv, "--max-depth", "0", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_float_config_value_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tol = nan\n")
        assert _run(["verify-count", "--config", str(cfg), "--min-depth", "0",
                     "--max-depth", "0"]) == 2
        assert capsys.readouterr().err == "error: tol must be finite and > 0\n"

# per run at default settings: its arguments (the certificate goes to C)
# and the #claim and #config lines of the certificate at depth 0.  The
# anchor proof's cycle and modulus endpoints are left out: the float seed
# of their Krawczyk step may differ across BLAS kernels, and
# TestAnchorProof checks them.
_RED = """\
#claim=parabolic-excluded-p9
#config.cli.max_depth=0
#config.cli.min_width=0.0
#config.cli.period=9
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.period=9
"""
_HEADERS = {
    "verify-qlike": (["verify-qlike"], """\
#claim=qlike-boundary
#config.anchor=-1.7384677075422084,0.01577114241202889
#config.anchor_period=9
#config.anchor_preimage_count=2
#config.anchor_proof=proven
#config.anchor_residue=0
#config.cli.max_depth=0
#config.cli.min_width=0.0
#config.cli.n=3
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.cli.region=-0.3,0.3,-0.3,0.3
#config.cli.segment_depth=14
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.n=3
#config.segment_depth=14
#config.u=-0.3,0.3,-0.3,0.3
"""),
    "verify-count": (["verify-count", "--min-depth", "0"], """\
#claim=fixed-point-count-f6
#config.cli.contour_depth=10
#config.cli.expect=1
#config.cli.max_depth=0
#config.cli.min_depth=0
#config.cli.n=6
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.cli.region=0.0,0.08,0.0,0.08
#config.cli.tol=2.0
#config.contour_depth=10
#config.expect=1
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.n=6
#config.region=0.0,0.08,0.0,0.08
"""),
    "verify-disjoint-Y": (["verify-disjoint", "--red-out", "R"], """\
#claim=multiplier-nonreal-p6
#config.cli.max_depth=0
#config.cli.min_width=0.0
#config.cli.period=9
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.guess=0.04,0.04
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.region=0.0,0.08,0.0,0.08
"""),
    "verify-disjoint-R": (["verify-disjoint", "-o", "Y", "--red-out", "C"], _RED),
    "verify-arcs": (["verify-arcs"], _RED),
    "scan-qlike": (["scan", "--claim", "qlike"], """\
#claim=qlike-boundary
#config.cli.claim=qlike
#config.cli.max_depth=0
#config.cli.min_depth=0
#config.cli.min_width=0.0
#config.cli.n=3
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.cli.region=-0.3,0.3,-0.3,0.3
#config.cli.segment_depth=14
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.n=3
#config.segment_depth=14
#config.u=-0.3,0.3,-0.3,0.3
"""),
    "scan-count": (["scan", "--claim", "count"], """\
#claim=fixed-point-count-f6
#config.cli.claim=count
#config.cli.contour_depth=10
#config.cli.max_depth=0
#config.cli.min_depth=0
#config.cli.min_width=0.0
#config.cli.n=6
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.cli.region=0.0,0.08,0.0,0.08
#config.cli.tol=2.0
#config.contour_depth=10
#config.expect=1
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.n=6
#config.region=0.0,0.08,0.0,0.08
"""),
    "scan-parabolic": (["scan", "--claim", "parabolic"], """\
#claim=parabolic-excluded-p9
#config.cli.claim=parabolic
#config.cli.max_depth=0
#config.cli.min_depth=0
#config.cli.min_width=0.0
#config.cli.period=9
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
#config.period=9
"""),
    "scan-multiplier": (["scan", "--claim", "multiplier"], """\
#claim=multiplier-nonreal-p6
#config.cli.claim=multiplier
#config.cli.max_depth=0
#config.cli.min_depth=0
#config.cli.min_width=0.0
#config.cli.rect=-1.73875,-1.73825,0.01555,0.01605
#config.guess=0.04,0.04
#config.max_depth=0
#config.min_depth=0
#config.min_width=0.0
"""),
}


@pytest.mark.parametrize("case", list(_HEADERS))
def test_header_echoes_the_claim_parameters(tmp_path, monkeypatch, case):
    # the header alone determines each run: the claim's parameters and the
    # values the command line set
    argv, expected = _HEADERS[case]
    monkeypatch.chdir(tmp_path)
    _run([*argv, "--max-depth", "0"] + ([] if "-o" in argv else ["-o", "C"]))
    lines = (tmp_path / "C").read_text().splitlines(keepends=True)
    header = "".join(line for line in lines if line.startswith(("#claim=", "#config."))
                     and not line.startswith(("#config.anchor_cycle=",
                                              "#config.anchor_modulus=")))
    assert header == expected


def test_qlike_anchor_entries_are_pinned(tmp_path, monkeypatch):
    # the anchor's certified 9-cycle boxes and squared modulus at
    # verify-qlike's defaults, to the last bit.  They are the same under
    # every BLAS kernel and numpy dispatch tried, and terms of the Krawczyk
    # radius that no other output feels move them
    monkeypatch.chdir(tmp_path)
    assert _run(["verify-qlike", "-o", "Q"]) == 0
    entries = [line for line in (tmp_path / "Q").read_text().splitlines()
               if line.startswith(("#config.anchor_cycle=", "#config.anchor_modulus="))]
    assert entries == [
        "#config.anchor_cycle=bd5778056e99f281 3d5818056e99f281 bd3c3264c0c661c1"
        " 3d3bc4e4c0c661c1 bfb88fbd64283475 bfb88fbd642824cb bfc52e8c1a324625"
        " bfc52e8c1a324587 3fb3154214e761ff 3fb3154214e794c1 3fbfe380c20c616b"
        " 3fbfe380c20c9123",
        "#config.anchor_modulus=0000000000000000 3bb21348e5720dd2",
    ]


def test_scans_build_no_per_box_objects(tmp_path, monkeypatch):
    # these commands, their scans and the serialize and rasterize_scan of
    # their certificates included, run on endpoint arrays: no
    # ComplexBox.quarter, BoxArray.of or Leaf construction happens in them
    calls = []

    def spy(name, fn):
        def spied(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spied

    monkeypatch.setattr(ComplexBox, "quarter", spy("quarter", ComplexBox.quarter))
    monkeypatch.setattr(BoxArray, "of", staticmethod(spy("of", BoxArray.of)))
    monkeypatch.setattr(Leaf, "__init__", spy("Leaf", Leaf.__init__))
    out, image = tmp_path / "C", tmp_path / "C.ppm"
    for argv in (["scan", "--claim", "qlike", "--rect=-1.8025,-1.6745,-0.0482,0.0798",
                  "--max-depth", "5", "--segment-depth", "8"],
                 ["verify-count"], ["verify-disjoint", "--max-depth", "4"]):
        assert _run([*argv, "-o", str(out), "--image", str(image)]) in (0, 1)
    assert calls == []
    # the spies see each of these calls
    parse(out.read_bytes()).leaves
    PAPER_R.quarter()
    BoxArray.of([PAPER_R])
    assert set(calls) == {"quarter", "of", "Leaf"}


def _python(code: str, *args: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this tricert."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_cli_import_loads_no_unused_heavy_modules():
    # an unused import of hashlib alone (OpenSSL, about 3.4 MB) raises the
    # peak RSS of a scan by more than the benchmark allows
    code = ("import sys, tricert.cli; "
            "print(sorted({'hashlib', 'ssl', 'mpmath', 'hypothesis'} & sys.modules.keys()))")
    assert _python(code).strip() == "[]"


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="main sets a malloc policy on glibc only")
def test_repeated_count_run_faults_no_pages_in(tmp_path):
    # under glibc's dynamic thresholds each batch's freed numpy temporaries
    # went back to the kernel, and every later count run in the process
    # faulted about 2,300-4,400 pages in again; main's malloc policy keeps
    # them in the heap
    code = """
import json, resource, sys
from tricert.cli import main
faults, codes, outputs = [], [], []
for k in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    codes.append(main([*sys.argv[2:], "-o", f"{sys.argv[1]}{k}"]))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    outputs.append(open(f"{sys.argv[1]}{k}", "rb").read())
print(json.dumps({"faults": faults, "codes": codes, "same": outputs[0] == outputs[1]}))
"""
    argv = ["verify-count", "--min-depth", "1", "--max-depth", "4", "--tol", "2",
            "--contour-depth", "10"]
    run = json.loads(_python(code, str(tmp_path / "C"), *argv).splitlines()[-1])
    assert run["codes"] == [0, 0] and run["same"]
    assert run["faults"][1] < 1000


def test_library_import_sets_no_malloc_policy():
    # only the CLI entry sets the policy: importing the library, or calling
    # its scans directly, leaves the host process's allocator alone
    code = """
import ctypes, json
reached = []

class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        reached.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Spy
import tricert, tricert.cli
from tricert.verify import FixedPointCountClaim
tricert.scan.adaptive_scan(tricert.cli.PAPER_R, FixedPointCountClaim(tricert.cli.PAPER_X_REGION, 6), 0)
library = list(reached)
tricert.cli.main(["centers"])
print(json.dumps([library, reached]))
"""
    library, after_main = json.loads(_python(code).splitlines()[-1])
    assert "mallopt" not in library
    assert ("mallopt" in after_main) == _glibc()


@pytest.mark.parametrize("confstr", ["raises", "None", "musl"])
def test_main_runs_without_glibc(confstr, monkeypatch, tmp_path):
    # where the libc is not glibc, main sets no malloc policy and runs as before
    def fake(name):
        if confstr == "raises":
            raise ValueError("unrecognized configuration name")
        return None if confstr == "None" else "musl 1.2.4"

    def no_cdll(*args, **kwargs):
        raise AssertionError("ctypes.CDLL was called")

    monkeypatch.setattr(os, "confstr", fake)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    out = tmp_path / "C"
    assert _run(["verify-count", "--min-depth", "0", "--max-depth", "0",
                 "--rect", "-1.73875,-1.7387,0.01555,0.0156", "-o", str(out)]) == 0
    assert parse(out.read_bytes()).rollup() is Status.TRUE
